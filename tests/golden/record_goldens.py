"""Record the golden oracles for distributed SHP and traffic replay.

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

The committed files were recorded from the per-vertex dict vertex program
(sim backend) and the per-query loop replay, in the commit that adds this
script, after checking that the columnar program and the batch replay
reproduced every recorded value (mean latency within 5%: the batch path
draws the same distribution in a different order).  Both reference paths
have since been removed, so the committed files are never rewritten: a
golden mismatch is a bug in the code under test.

Running the script re-records every cell from the current code and
compares it with the committed goldens (exit status 1 on any mismatch);
``--out DIR`` also writes the fresh records to ``DIR``, which is how a new
cell's record is produced for review.  From the repository root::

    PYTHONPATH=src python tests/golden/record_goldens.py [--out DIR]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from repro import SHPConfig
from repro.distributed import ClusterSpec
from repro.distributed_shp import DistributedSHP
from repro.hypergraph import BipartiteGraph, community_bipartite, darwini_bipartite
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

    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        for filename, cells in (("distributed_shp.json", dshp),
                                ("serving_replay.json", replays)):
            text = json.dumps(cells, indent=1) + "\n"
            (args.out / filename).write_text(text, encoding="utf-8")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
