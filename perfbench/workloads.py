"""The benchmark's workloads: input generation and job specs.

Each workload is one kind of :class:`~repro.api.spec.JobSpec` run
closed-loop (one job at a time, from one process) against
generated ``.rgs`` stores.  The benchmark generates the stores from the
seed and hands the program only their paths, so graph generation is never
timed.  Sizes are chosen so that one job takes about half a second on a
2-core host: a run of 30 s then holds about 60 jobs, enough for a steady
median and a tail percentile with ten samples beyond it.

``tiny=True`` shrinks every size for the smoke tests (same code paths).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from repro.api.spec import (
    AlgorithmSpec,
    ExecutionSpec,
    GraphSpec,
    JobSpec,
    ServingSpec,
)
from repro.hypergraph import darwini_bipartite
from repro.sharding import LatencyModel
from repro.storage import write_store

#: Queries replayed against a partition workload's final assignment to
#: model its serving p99 (untimed; deterministic per seed).
REPLAY_QUERIES = 200_000
#: Balance tolerance of the serving repair (``ServingConfig.epsilon``).
SERVING_EPSILON = 0.05
#: One run generates this many graphs from ``--seed`` and cycles its jobs
#: through :data:`SEEDS_PER_RUN` (graph, job seed) pairs, so that its
#: figures average over inputs instead of resting on one graph and one
#: random start: graphs of one size differ by a few percent in pins, and
#: SHP's quality by a few percent between seeds.
GRAPHS_PER_RUN = 4
SEEDS_PER_RUN = 8


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    users: int
    tiny_users: int
    #: ``True`` when the engine applies swaps as independent Bernoulli
    #: draws, so bucket sizes hold the ε cap only in expectation.
    bernoulli: bool
    #: ``(graph, job seed, tiny) -> JobSpec``
    build: Callable[[GraphSpec, int, bool], JobSpec]

    def make_input(self, directory: Path, seed: int, tiny: bool = False) -> Path:
        """Generate the workload's graph from ``seed`` as one ``.rgs`` store."""
        users = self.tiny_users if tiny else self.users
        graph = darwini_bipartite(users, seed=seed).remove_small_queries()
        path = directory / f"{self.name}-{seed}.rgs"
        write_store(graph, path)
        return path

    def make_inputs(self, directory: Path, seed: int, tiny: bool = False) -> list[Path]:
        """The :data:`GRAPHS_PER_RUN` graphs of the run with ``seed``."""
        return [
            self.make_input(directory, seed * GRAPHS_PER_RUN + g, tiny)
            for g in range(GRAPHS_PER_RUN)
        ]

    def specs(self, graphs: list[Path], seed: int, tiny: bool = False) -> list[JobSpec]:
        """The :data:`SEEDS_PER_RUN` job specs of the run with ``seed``."""
        return [
            self.spec(graphs[i % len(graphs)], seed * SEEDS_PER_RUN + i, tiny)
            for i in range(SEEDS_PER_RUN)
        ]

    def spec(self, graph_path: Path, seed: int, tiny: bool = False) -> JobSpec:
        # The store already holds the preprocessed graph, so the runner
        # keeps the zero-copy store view instead of rebuilding it.
        graph = GraphSpec(source="file", path=str(graph_path), remove_small_queries=False)
        return self.build(graph, seed, tiny)

    def balance(self, spec: JobSpec) -> tuple[int, float, int]:
        """``(k, ε, recursion levels)`` the final assignment must honour."""
        if spec.kind == "serving":
            k = spec.serving.servers
            return k, SERVING_EPSILON, math.ceil(math.log2(k))
        k = spec.algorithm.k
        levels = math.ceil(math.log2(k)) if spec.algorithm.name == "shp-2" else 1
        return k, spec.algorithm.epsilon, levels


def _shp2_local(graph: GraphSpec, seed: int, tiny: bool) -> JobSpec:
    return JobSpec(
        seed=seed,
        graph=graph,
        algorithm=AlgorithmSpec(
            name="shp-2", k=16 if tiny else 64,
            options={"iterations_per_bisection": 4 if tiny else 20},
        ),
        execution=ExecutionSpec(refine_workers=2),
    )


def _dshp_mp(graph: GraphSpec, seed: int, tiny: bool) -> JobSpec:
    return JobSpec(
        seed=seed,
        graph=graph,
        algorithm=AlgorithmSpec(
            name="shp-2", k=4 if tiny else 16,
            options={"iterations_per_bisection": 2 if tiny else 5},
        ),
        execution=ExecutionSpec(backend="mp", workers=2, vertex_mode="columnar"),
    )


def _dshp_rpc(graph: GraphSpec, seed: int, tiny: bool) -> JobSpec:
    return JobSpec(
        seed=seed,
        graph=graph,
        algorithm=AlgorithmSpec(
            name="shp-k", k=4 if tiny else 16,
            options={"max_iterations": 2 if tiny else 5},
        ),
        execution=ExecutionSpec(
            backend="rpc", workers=2, vertex_mode="columnar", combiner=True
        ),
    )


def _serving_churn(graph: GraphSpec, seed: int, tiny: bool) -> JobSpec:
    return JobSpec(
        kind="serving",
        seed=seed,
        graph=graph,
        serving=ServingSpec(
            servers=16,
            rounds=2 if tiny else 4,
            queries_per_round=2_000 if tiny else 20_000,
            churn_fraction=0.05,
            migration_budget=0.10,
            method="2",
        ),
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "shp2-local",
            "in-process SHP-2 with 2 refine workers: the level-fused refiner, "
            "gain kernel, matcher and parallel gain pool, with no engine code",
            users=10_000, tiny_users=1_500, bernoulli=False, build=_shp2_local,
        ),
        Workload(
            "dshp-mp",
            "distributed SHP-2 on the mp backend: engine, worker processes and "
            "shared memory with real parallelism and no wire",
            users=5_000, tiny_users=800, bernoulli=True, build=_dshp_mp,
        ),
        Workload(
            "dshp-rpc",
            "distributed SHP-k on the rpc backend with a combiner: the only "
            "workload that moves bytes over the wire and checkpoints",
            users=5_000, tiny_users=800, bernoulli=True, build=_dshp_rpc,
        ),
        Workload(
            "serving-churn",
            "serving job: warm-started SHP-2 repairs under churn beside batched "
            "traffic replay, the only path through sharding and workloads",
            users=3_000, tiny_users=800, bernoulli=False, build=_serving_churn,
        ),
    )
}


def latency_model() -> LatencyModel:
    """The latency model ``repro.api.run`` gives ``serving`` jobs."""
    return LatencyModel(base_ms=1.0, sigma=1.0, size_ms_per_record=0.02)
