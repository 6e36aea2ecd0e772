"""A Giraph-like vertex-centric execution engine (Section 3.2 substrate).

The engine executes *supersteps*: every worker runs a user-defined kernel
over its whole vertex partition and the messages delivered to it,
optionally sending messages and contributing to global aggregators; a
synchronization barrier ends the superstep and a master program runs
between barriers (computing, e.g., SHP's move probabilities).  Vertices are
distributed across workers by random placement, exactly as "Giraph
distributes vertices among machines in a Giraph cluster randomly"
(Section 3.3) — so per-worker load and communication metering reflect what
a real deployment would see.

Vertex state lives in columns end to end: :meth:`GiraphEngine.load` takes
a vertex count plus initial per-vertex columns, each worker builds its
partition from its slice of those columns, and :class:`JobResult` returns
the final columns.  Execution is delegated to a pluggable
:class:`~repro.distributed.Backend`:

* :class:`~repro.distributed.SimulatedBackend` (default) runs every worker
  in-process, sequentially, with full metering — fast to start, fully
  deterministic, ideal for tests and message-complexity studies.
* :class:`~repro.distributed.MultiprocessBackend` spawns one OS process per
  worker, shares immutable graph arrays via ``multiprocessing.shared_memory``
  and exchanges serialized message batches through per-superstep channels —
  real parallel wall-clock on one machine.
* :class:`~repro.distributed.RpcBackend` runs workers over TCP.

Every backend runs the *same* per-worker superstep code
(:func:`repro.distributed.backend.execute_worker_superstep_batch`) and is
bit-identical for a given seed: vertex placement comes from the engine
seed, and :meth:`BatchContext.random` draws are counter-based — a pure hash
of ``(seed, superstep, vertex, draw index)`` — so they do not depend on
which worker holds a vertex.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from .cluster import ClusterSpec
from .metrics import JobMetrics

__all__ = [
    "BatchContext",
    "BatchVertexProgram",
    "MasterProgram",
    "GiraphEngine",
    "JobResult",
    "counter_random",
    "counter_random_array",
]


class BatchVertexProgram(Protocol):
    """User code run by every worker each superstep: one kernel per partition.

    A program owns a *partition object* per worker — typically a struct of
    numpy arrays over the worker's vertices — and executes each superstep
    as vectorized kernels over the whole partition, exchanging typed
    :class:`~repro.distributed.messages.MessageBatch` columns.

    Programs must be picklable (process backends ship one copy to every
    worker), and the partition is worker-local (built inside the worker
    process under the process backends).  Vertex ids are ``0..n-1``.
    """

    def phase_name(self, superstep: int) -> str:
        """Label for metrics grouping (e.g. SHP's four protocol phases)."""
        ...  # pragma: no cover - protocol

    def create_partition(
        self, worker_id: int, vids: np.ndarray, columns: dict[str, np.ndarray], graph
    ) -> object:
        """Build the worker-local state for ``vids`` (ascending).

        ``columns`` holds the worker's slice of every initial column passed
        to :meth:`GiraphEngine.load`, aligned with ``vids``; ``graph`` is
        the read-only graph attached at load time (or ``None``).
        """
        ...  # pragma: no cover - protocol

    def compute_partition(
        self, ctx: "BatchContext", partition: object, inbox: list
    ) -> None:
        """Run one superstep over the whole partition (vectorized)."""
        ...  # pragma: no cover - protocol

    def collect_states(self, partition: object) -> dict[str, np.ndarray]:
        """Final per-vertex columns, aligned with the partition's ``vids``."""
        ...  # pragma: no cover - protocol

    def partition_nbytes(self, partition: object) -> int:
        """Resident bytes of the partition (memory metering)."""
        ...  # pragma: no cover - protocol


class MasterProgram(Protocol):
    """Code run on the master between barriers."""

    def compute(self, superstep: int, aggregates: dict) -> dict | None:
        """Return broadcast values for the next superstep, or ``None`` to halt."""
        ...  # pragma: no cover - protocol


# ----------------------------------------------------------------------
# Counter-based randomness (order-independent across backends)
# ----------------------------------------------------------------------
_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV_2_64 = 1.0 / float(1 << 64)


def counter_random(seed: int, superstep: int, vid: int, draw: int) -> float:
    """Uniform draw in [0, 1) from a splitmix64-style hash of the key.

    A pure function of ``(seed, superstep, vid, draw)``: the same vertex
    gets the same stream no matter which worker runs it or in what order —
    the property that makes simulated and multiprocess runs bit-identical.
    """
    x = (
        seed * _GOLDEN
        + (superstep + 1) * _MIX1
        + (vid + 1) * _MIX2
        + (draw + 1) * 0xD6E8FEB86659FD93
    ) & _MASK64
    x ^= x >> 30
    x = (x * _MIX1) & _MASK64
    x ^= x >> 27
    x = (x * _MIX2) & _MASK64
    x ^= x >> 31
    return x * _INV_2_64


def counter_random_array(
    seed: int, superstep: int, vids: np.ndarray, draw: int = 0
) -> np.ndarray:
    """Vectorized :func:`counter_random` over an array of vertex ids.

    Bit-identical to the scalar reference (uint64 wraparound equals the
    explicit mod-2^64 masking), so a vertex draws the same coins whichever
    kernel, worker or batch it is drawn in.
    """
    vids = np.asarray(vids)
    base = (
        seed * _GOLDEN
        + (superstep + 1) * _MIX1
        + (draw + 1) * 0xD6E8FEB86659FD93
    ) & _MASK64
    x = np.uint64(base) + (vids.astype(np.uint64) + np.uint64(1)) * np.uint64(_MIX2)
    x ^= x >> np.uint64(30)
    x *= np.uint64(_MIX1)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MIX2)
    x ^= x >> np.uint64(31)
    return x.astype(np.float64) * _INV_2_64


@dataclass
class BatchContext:
    """Per-superstep API handed to :class:`BatchVertexProgram` kernels.

    Sends are whole :class:`~repro.distributed.messages.MessageBatch`
    columns, aggregations are bulk dict merges, and randomness is drawn per
    vertex-id array from a counter-based stream.  Op accounting is explicit
    (``charge``) plus one op per sent message; the worker adds one op per
    local vertex for the superstep itself.
    """

    superstep: int
    worker_id: int
    broadcasts: dict
    seed: int = 0
    _ops: float = 0.0
    _active: int = 0
    _transient_bytes: int = 0
    _outbox: list = field(default_factory=list, repr=False)
    _aggregates: dict = field(default_factory=dict, repr=False)

    def send_batch(self, batch) -> None:
        """Queue a typed message batch (delivered next superstep)."""
        if len(batch):
            self._outbox.append(batch)
            self._ops += len(batch)

    def aggregate_items(self, name: str, items: dict) -> None:
        """Merge ``{key: value}`` sums into the named global aggregator."""
        bucket = self._aggregates.setdefault(name, {})
        for key, value in sorted(items.items()):
            bucket[key] = bucket.get(key, 0.0) + value

    def charge(self, ops: float) -> None:
        """Account ``ops`` units of compute work."""
        self._ops += ops

    def add_active(self, count: int) -> None:
        """Report ``count`` vertices as active this superstep."""
        self._active += int(count)

    def charge_transient(self, nbytes: int) -> None:
        """Report ``nbytes`` of transient kernel working buffers.

        Kernels report the footprint of the scratch arrays a call
        materializes (joins, entry expansions, candidate grids); the
        superstep keeps the per-worker **peak** across kernel calls, which
        surfaces in manifests as ``peak_transient_bytes`` alongside the
        resident ``memory_per_worker`` accounting.  The charge is a pure
        function of array sizes, so it is identical across backends.
        """
        self._transient_bytes = max(self._transient_bytes, int(nbytes))

    def random(self, vids: np.ndarray, draw: int = 0) -> np.ndarray:
        """Counter-based uniform draws for an array of vertex ids."""
        return counter_random_array(self.seed, self.superstep, vids, draw)


@dataclass
class JobResult:
    """Final per-vertex columns (indexed by vertex id) plus execution metrics."""

    states: dict[str, np.ndarray]
    metrics: JobMetrics
    supersteps_run: int
    halted_by_master: bool


class GiraphEngine:
    """A Giraph-like cluster executing vertex-centric programs.

    Parameters
    ----------
    cluster:
        Worker count and machine model (:class:`ClusterSpec`).
    seed:
        Controls random vertex placement and all :meth:`BatchContext.random`
        draws; identical seeds reproduce identical runs on *every* backend.
    backend:
        ``"sim"`` (default), ``"mp"``, ``"rpc"``, or a :class:`Backend`
        instance.
    """

    def __init__(
        self,
        cluster: ClusterSpec | None = None,
        seed: int = 0,
        backend: "str | object | None" = None,
    ):
        from .backend import resolve_backend

        self.cluster = cluster or ClusterSpec()
        self.seed = seed
        self.backend = resolve_backend(backend)
        self._rng = np.random.default_rng(seed)
        self._columns: dict[str, np.ndarray] = {}
        self._graph = None
        #: vid -> worker placement over the vertex ids 0..n-1.
        self._worker_of = np.empty(0, dtype=np.int64)
        #: ascending vertex ids of each worker.
        self._worker_vertices: list[np.ndarray] = [
            np.empty(0, dtype=np.int64) for _ in range(self.cluster.num_workers)
        ]

    # ------------------------------------------------------------------
    # Graph loading
    # ------------------------------------------------------------------
    def load(
        self,
        num_vertices: int,
        columns: dict[str, np.ndarray] | None = None,
        graph=None,
    ) -> None:
        """Install ``num_vertices`` vertices and place them randomly on workers.

        ``columns`` maps a name to an initial per-vertex column (one entry
        per vertex id ``0..num_vertices-1``); each worker's partition is
        built from its slice.  ``graph`` optionally attaches a read-only
        :class:`BipartiteGraph` shared with every worker (zero-copy under
        the multiprocess backend).
        """
        columns = {name: np.asarray(col) for name, col in (columns or {}).items()}
        for name, col in columns.items():
            if col.shape[:1] != (num_vertices,):
                raise ValueError(
                    f"column {name!r} has shape {col.shape}, expected "
                    f"{num_vertices} entries (one per vertex)"
                )
        self._columns = columns
        self._graph = graph
        self._worker_of = self._rng.integers(0, self.cluster.num_workers, size=num_vertices)
        self._worker_vertices = [
            np.flatnonzero(self._worker_of == worker)
            for worker in range(self.cluster.num_workers)
        ]

    def worker_columns(self, worker_id: int) -> dict[str, np.ndarray]:
        """Worker ``worker_id``'s slice of every initial column."""
        vids = self._worker_vertices[worker_id]
        return {name: col[vids] for name, col in self._columns.items()}

    def gather_columns(self, parts: list[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
        """Assemble per-worker columns (worker-id order) into vertex-id order."""
        out: dict[str, np.ndarray] = {}
        for worker_id, part in enumerate(parts):
            vids = self._worker_vertices[worker_id]
            for name, col in part.items():
                if name not in out:
                    out[name] = np.zeros(
                        self._worker_of.shape + col.shape[1:], dtype=col.dtype
                    )
                out[name][vids] = col
        return out

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        program: BatchVertexProgram,
        master: MasterProgram | None = None,
        max_supersteps: int = 100,
        combiner=None,
    ) -> JobResult:
        """Execute supersteps until the master halts or the budget runs out.

        Per superstep: the master runs first (seeing the previous step's
        aggregates, returning broadcasts or ``None`` to halt), then every
        worker's kernel, then message delivery with metering.
        """
        return self.backend.run(self, program, master, max_supersteps, combiner)
