"""Record the golden oracles for distributed SHP, traffic replay and SHP-2.

The goldens pin what the reference implementations computed, so the fast
paths can be checked against fixed numbers instead of a live twin:

* ``distributed_shp.json`` — one cell per (graph, config, mode, workers,
  combiner) of the distributed SHP parity grids.  Each cell records the
  assignment's SHA-256 (little-endian int32 bytes), ``supersteps``,
  ``cycles``, ``moved_history`` and, per superstep, the phase plus every
  logical meter: local/remote messages and bytes, active vertices, and the
  per-worker message, remote-byte and op vectors.
* ``serving_replay.json`` — per replay trace, the SHA-256 of the
  per-query fanout and record arrays (little-endian int64 bytes), the
  store's request and record totals, and the mean modeled latency.
* ``shp2_levels.json`` — SHP-2 cells in five sections: ``parity-grid``
  and ``pruned-trailing`` / ``initial-states`` (the cells of
  ``tests/test_level_fuse.py``), and ``bench-smoke`` / ``bench-full``
  (the Darwini cells of ``benchmarks/bench_shp2_levels.py``).  Each cell
  records its graph and options, plus the assignment SHA-256 and/or the
  average fanout (see :data:`SHP2_FIELDS`).

``distributed_shp.json`` and ``serving_replay.json`` were recorded from
the per-vertex dict vertex program (sim backend) and the per-query loop
replay, in the commit that adds this script, after checking that the
columnar program and the batch replay reproduced every recorded value
(mean latency within 5%: the batch path draws the same distribution in a
different order).  Both reference paths have since been removed, so the
committed files are never rewritten: a golden mismatch is a bug in the
code under test.

``shp2_levels.json`` was recorded from SHP-2's per-group reference path
(``level_mode="loop"``: one ``induced_subgraph`` copy and one ``refine()``
per bisection group), after checking the level-fused path against every
record: bitwise wherever a level has at most one refinable group (parity
grid k <= 3, the pruned-trailing and initial-states cells), within the
tests' fanout tolerances elsewhere (the fused matcher draws one RNG stream
per level rather than one per group).  The loop path has since been
removed too, so the script re-checks every SHP-2 cell against the current
fused code the same way, and ``--out`` writes no SHP-2 records.

Running the script re-records every cell from the current code and
compares it with the committed goldens (exit status 1 on any mismatch);
``--out DIR`` also writes the fresh records to ``DIR``, which is how a new
cell's record is produced for review.  From the repository root::

    PYTHONPATH=src python tests/golden/record_goldens.py [--out DIR]
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from repro import SHPConfig, shp_2
from repro.distributed import ClusterSpec
from repro.distributed_shp import DistributedSHP
from repro.hypergraph import BipartiteGraph, community_bipartite, darwini_bipartite
from repro.objectives import average_fanout
from repro.sharding import replay_traffic
from repro.workloads import sample_queries

HERE = Path(__file__).resolve().parent

#: The parity grids' graphs: ``community_bipartite`` arguments, plus an
#: optional seeded query weighting.
GRID_GRAPH = {"num_queries": 140, "num_data": 190, "num_edges": 1300,
              "num_communities": 8, "mixing": 0.2, "seed": 4}
SPARSE_S3_GRAPH = {"num_queries": 160, "num_data": 240, "num_edges": 1500,
                   "num_communities": 8, "mixing": 0.2, "seed": 5}
QUERY_WEIGHTS = {"seed": 11, "low": 0.5, "high": 4.0, "decimals": 3}

GRID_CONFIG = {"k": 4, "seed": 5, "iterations_per_bisection": 3,
               "max_iterations": 3, "swap_mode": "bernoulli"}


def _cells() -> dict[str, dict]:
    cells: dict[str, dict] = {}
    for mode in ("2", "k"):
        for weighting in ("unweighted", "query-weighted"):
            cells[f"grid-{mode}-{weighting}"] = {
                "graph": GRID_GRAPH,
                "query_weights": QUERY_WEIGHTS if weighting == "query-weighted" else None,
                "config": GRID_CONFIG,
                "mode": mode,
                "workers": 3,
                "combiner": False,
            }
    for combiner in (False, True):
        cells[f"combiner-{'on' if combiner else 'off'}"] = {
            "graph": GRID_GRAPH,
            "query_weights": None,
            "config": GRID_CONFIG,
            "mode": "2",
            "workers": 3,
            "combiner": combiner,
        }
    for mode, k in (("2", 8), ("k", 16)):
        # k=16 drives mode-"k" S3 past the dense candidate grid into the
        # sparse pair-compact selection; mode "2" exercises the
        # sibling-restricted aggregation.
        cells[f"sparse-s3-{mode}-{k}"] = {
            "graph": SPARSE_S3_GRAPH,
            "query_weights": None,
            "config": {"k": k, "seed": 11, "iterations_per_bisection": 6,
                       "max_iterations": 8},
            "mode": mode,
            "workers": ClusterSpec().num_workers,
            "combiner": False,
        }
    return cells


def build_graph(cell: dict) -> BipartiteGraph:
    """The cell's input graph, rebuilt from its recorded arguments."""
    g = cell["graph"]
    graph = community_bipartite(
        g["num_queries"], g["num_data"], g["num_edges"],
        num_communities=g["num_communities"], mixing=g["mixing"], seed=g["seed"],
    )
    weights = cell["query_weights"]
    if weights is None:
        return graph
    rng = np.random.default_rng(weights["seed"])
    return BipartiteGraph(
        num_queries=graph.num_queries,
        num_data=graph.num_data,
        q_indptr=graph.q_indptr,
        q_indices=graph.q_indices,
        d_indptr=graph.d_indptr,
        d_indices=graph.d_indices,
        query_weights=np.round(
            rng.uniform(weights["low"], weights["high"], graph.num_queries),
            weights["decimals"],
        ),
        name="weighted",
    )


def sha256(values: np.ndarray, dtype: str) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=dtype).tobytes()).hexdigest()


def dshp_record(result) -> dict:
    """The golden fields of one :class:`DistributedSHPResult`."""
    return {
        "assignment_sha256": sha256(result.assignment, "<i4"),
        "supersteps": int(result.supersteps),
        "cycles": int(result.cycles),
        "moved_history": [int(m) for m in result.moved_history],
        "steps": [
            {
                "phase": step.phase,
                "messages_local": int(step.messages_local),
                "messages_remote": int(step.messages_remote),
                "bytes_local": int(step.bytes_local),
                "bytes_remote": int(step.bytes_remote),
                "active_vertices": int(step.active_vertices),
                "messages_per_worker": step.messages_per_worker.tolist(),
                "remote_bytes_per_worker": step.remote_bytes_per_worker.tolist(),
                "ops_per_worker": step.ops_per_worker.tolist(),
            }
            for step in result.metrics.supersteps
        ],
    }


def run_dshp(cell: dict, backend="sim", **kwargs):
    job = DistributedSHP(
        SHPConfig(**cell["config"]),
        cluster=ClusterSpec(num_workers=cell["workers"]),
        mode=cell["mode"],
        backend=backend,
        combiner=cell["combiner"],
        **kwargs,
    )
    return job.run(build_graph(cell))


#: test_serving's two traces over one Darwini graph.
REPLAY_GRAPH = {"num_users": 1500, "avg_degree": 20, "clustering": 0.4, "seed": 3}
TRACES = {
    "servers12": {"servers": 12, "queries": 4000, "skew": 0.8,
                  "sample_seed": 5, "replay_seed": 7},
    "servers8": {"servers": 8, "queries": 5000, "skew": 0.8,
                 "sample_seed": 6, "replay_seed": 9},
}


def replay_inputs(trace: dict):
    """(graph, assignment, query ids) of one recorded replay trace."""
    g = REPLAY_GRAPH
    graph = darwini_bipartite(
        g["num_users"], avg_degree=g["avg_degree"], clustering=g["clustering"],
        seed=g["seed"],
    )
    assignment = (np.arange(graph.num_data) % trace["servers"]).astype(np.int64)
    queries = sample_queries(
        graph, trace["queries"], skew=trace["skew"], seed=trace["sample_seed"]
    )
    return graph, assignment, queries


def replay_record(result) -> dict:
    return {
        "num_samples": int(result.num_samples),
        "fanouts_sha256": sha256(result.fanouts, "<i8"),
        "records_sha256": sha256(result.records, "<i8"),
        "requests_total": int(result.requests_total),
        "records_total": int(result.records_total),
        "mean_latency_ms": float(result.mean_latency()),
    }


def run_replay(trace: dict, **kwargs):
    graph, assignment, queries = replay_inputs(trace)
    return replay_traffic(
        graph, assignment, trace["servers"], queries, seed=trace["replay_seed"], **kwargs
    )


def random_bipartite(
    seed: int,
    num_queries: int = 400,
    num_data: int = 600,
    num_edges: int = 3000,
    weighted: bool = False,
) -> BipartiteGraph:
    """Uniform random edges, optionally with random query and data weights."""
    rng = np.random.default_rng(seed)
    q = rng.integers(0, num_queries, num_edges)
    d = rng.integers(0, num_data, num_edges)
    query_weights = rng.uniform(0.2, 5.0, num_queries) if weighted else None
    data_weights = rng.uniform(0.5, 1.5, num_data) if weighted else None
    return BipartiteGraph.from_edges(
        q, d, num_queries=num_queries, num_data=num_data,
        query_weights=query_weights, data_weights=data_weights,
    )


def pruned_trailing_bipartite(seed: int, num_data: int) -> BipartiteGraph:
    """Random 4-pin queries, except that the last data vertex appears only in
    single-pin queries: it is fully pruned at every level (an empty trailing
    CSR row)."""
    rng = np.random.default_rng(seed)
    hyperedges = [
        list(rng.choice(num_data - 1, size=4, replace=False)) for _ in range(80)
    ]
    hyperedges += [[num_data - 1]] * 3
    return BipartiteGraph.from_hyperedges(hyperedges, num_data=num_data)


def shp2_graph(spec: dict) -> BipartiteGraph:
    """An SHP-2 cell's input graph, rebuilt from its recorded ``graph``."""
    args = {key: value for key, value in spec.items() if key != "kind"}
    if spec["kind"] == "random":
        return random_bipartite(**args)
    if spec["kind"] == "pruned-trailing":
        return pruned_trailing_bipartite(**args)
    return _darwini(**args)


@functools.lru_cache(maxsize=2)
def _darwini(num_users: int, avg_degree: int, clustering: float, seed: int):
    return darwini_bipartite(
        num_users, avg_degree=avg_degree, clustering=clustering, seed=seed
    )


#: test_level_fuse's parity grid.
PARITY_KS = (2, 3, 8, 17, 64)
PARITY_SEEDS = (0, 1, 2)
#: bench_shp2_levels' iteration budgets and recursion depths.
BENCH_BUDGETS = (("shallow", 20), ("converge", 60))
BENCH_SCALES = {"bench-smoke": (4000, (8,)), "bench-full": (200_000, (16, 64, 128))}
#: The recorded fields of each SHP-2 section.
SHP2_FIELDS = {
    "parity-grid": ("assignment_sha256", "average_fanout"),
    "pruned-trailing": ("assignment_sha256",),
    "initial-states": ("assignment_sha256",),
    "bench-smoke": ("average_fanout",),
    "bench-full": ("average_fanout",),
}


def shp2_cells() -> dict[str, dict[str, dict]]:
    """Every SHP-2 cell's inputs, by section and cell name."""
    grid = {}
    for weighting in ("unweighted", "weighted"):
        for k in PARITY_KS:
            for seed in PARITY_SEEDS:
                grid[f"{weighting}-k{k}-seed{seed}"] = {
                    "graph": {"kind": "random", "seed": 100 + seed,
                              "weighted": weighting == "weighted"},
                    "k": k,
                    "options": {"seed": seed},
                }
    sections = {
        "parity-grid": grid,
        "pruned-trailing": {
            f"seed{seed}": {
                "graph": {"kind": "pruned-trailing", "seed": 77, "num_data": 60},
                "k": 2,
                "options": {"seed": seed},
            }
            for seed in (0, 1, 4)
        },
        "initial-states": {
            "k16-seed5": {
                "graph": {"kind": "random", "seed": 11, "weighted": False},
                "k": 16,
                "options": {"seed": 5, "iterations_per_bisection": 0},
            }
        },
    }
    for section, (num_users, ks) in BENCH_SCALES.items():
        graph = {"kind": "darwini", "num_users": num_users, "avg_degree": 12,
                 "clustering": 0.4, "seed": 41}
        sections[section] = {
            f"{label}-k{k}": {
                "graph": graph,
                "k": k,
                "options": {"seed": 42, "epsilon": 0.05,
                            "iterations_per_bisection": iterations},
            }
            for label, iterations in BENCH_BUDGETS
            for k in ks
        }
    return sections


def run_shp2(cell: dict, **kwargs):
    """``(graph, result)`` of one SHP-2 cell."""
    graph = shp2_graph(cell["graph"])
    return graph, shp_2(graph, cell["k"], **cell["options"], **kwargs)


def shp2_record(section: str, graph: BipartiteGraph, result, k: int) -> dict:
    """The golden fields of one SHP-2 cell in ``section``."""
    fields = SHP2_FIELDS[section]
    record: dict = {}
    if "assignment_sha256" in fields:
        record["assignment_sha256"] = sha256(result.assignment, "<i4")
    if "average_fanout" in fields:
        record["average_fanout"] = float(average_fanout(graph, result.assignment, k))
    return record


def fanout_delta(fused: float, golden: float) -> float:
    """Relative fanout difference of a fused run against its golden cell."""
    return (fused - golden) / golden


def check_shp2(section: str, cells: dict[str, dict], fused: dict[str, dict]) -> dict[str, bool]:
    """Per cell, whether the fused records ``fused`` reproduce the golden
    ``cells`` of ``section``: bitwise where a level has at most one
    refinable group, else within the tests' fanout tolerances."""
    ok = {}
    for name, cell in cells.items():
        got = fused[name]
        if "assignment_sha256" in cell and (section != "parity-grid" or cell["k"] <= 3):
            ok[name] = got["assignment_sha256"] == cell["assignment_sha256"]
        else:
            delta = fanout_delta(got["average_fanout"], cell["average_fanout"])
            tolerance = {"parity-grid": 0.10, "bench-smoke": 0.25}.get(section, 0.01)
            ok[name] = abs(delta) <= tolerance
    if section == "parity-grid":
        # The grid's aggregate bound: fused is not systematically worse.
        for weighting in ("unweighted", "weighted"):
            deltas = [
                fanout_delta(fused[name]["average_fanout"], cell["average_fanout"])
                for name, cell in cells.items()
                if name.startswith(f"{weighting}-") and cell["k"] > 3
            ]
            if np.mean(deltas) > 0.02:
                for name in cells:
                    if name.startswith(f"{weighting}-"):
                        ok[name] = False
    return ok


def load_goldens(filename: str) -> dict:
    """The committed golden file ``filename`` of this directory."""
    return json.loads((HERE / filename).read_text(encoding="utf-8"))


def assert_dshp_cell(cell: dict, backend="sim", label: str = "") -> None:
    """Run one recorded distributed SHP cell and compare every golden field."""
    got = dshp_record(run_dshp(cell, backend=backend))
    for key in ("assignment_sha256", "supersteps", "cycles", "moved_history"):
        assert got[key] == cell[key], (label, key)
    assert len(got["steps"]) == len(cell["steps"]), label
    for superstep, (step, ref) in enumerate(zip(got["steps"], cell["steps"])):
        assert step == ref, (label, superstep)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="also write the fresh records here")
    args = parser.parse_args(argv)

    mismatches = 0
    dshp_goldens = load_goldens("distributed_shp.json")
    dshp: dict[str, dict] = {}
    for name, cell in _cells().items():
        record = dshp_record(run_dshp(cell))
        dshp[name] = {**cell, **record}
        ok = dshp_goldens.get(name) == dshp[name]
        mismatches += not ok
        print(f"{name}: {record['supersteps']} supersteps, "
              f"{record['assignment_sha256'][:12]} {'ok' if ok else 'MISMATCH'}")

    replay_goldens = load_goldens("serving_replay.json")
    replays: dict[str, dict] = {}
    for name, trace in TRACES.items():
        record = replay_record(run_replay(trace))
        replays[name] = {"graph": REPLAY_GRAPH, **trace, **record}
        golden = replay_goldens.get(name, {})
        exact = [key for key in record if key != "mean_latency_ms"]
        ok = all(golden.get(key) == record[key] for key in exact) and bool(np.isclose(
            record["mean_latency_ms"], golden.get("mean_latency_ms", np.nan), rtol=0.05
        ))
        mismatches += not ok
        print(f"{name}: {record['num_samples']} samples {'ok' if ok else 'MISMATCH'}")

    shp2_goldens = load_goldens("shp2_levels.json")
    for section, cells in shp2_cells().items():
        golden = shp2_goldens[section]
        fused = {name: shp2_record(section, *run_shp2(cell), cell["k"])
                 for name, cell in cells.items()}
        fused_ok = check_shp2(section, golden, fused)
        for name, cell in cells.items():
            inputs = {key: golden[name][key] for key in cell}
            ok = fused_ok[name] and inputs == cell
            mismatches += not ok
            print(f"{section}/{name}: {'ok' if ok else 'MISMATCH'}")

    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        for filename, cells in (("distributed_shp.json", dshp),
                                ("serving_replay.json", replays)):
            text = json.dumps(cells, indent=1) + "\n"
            (args.out / filename).write_text(text, encoding="utf-8")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
