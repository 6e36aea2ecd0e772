"""Execution backends for the vertex-centric engine.

The engine's superstep loop is backend-agnostic; a :class:`Backend` decides
*where* worker partitions execute:

* :class:`SimulatedBackend` — every worker runs sequentially in the calling
  process.  Zero startup cost, deterministic, and the metering (messages,
  bytes, per-worker ops and memory) models what a real cluster would see.
* :class:`MultiprocessBackend` (``backend_mp``) — one OS process per worker,
  shared-memory graph arrays, real parallel wall-clock.
* :class:`RpcBackend` (``backend_rpc``) — worker processes reachable over
  TCP (auto-spawned localhost processes or external ``repro rpc-worker``
  hosts), length-prefixed pickled frames, superstep retry on worker death.

All backends call :func:`execute_worker_superstep_batch` for the per-worker
work and :func:`assemble_superstep_metrics` at the barrier, so the numbers
they report — and, given a seed, the vertex columns they produce — are
identical.  The layer map and the parity invariants backends must uphold
are documented in ``docs/architecture.md``.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from ..api.registry import BACKENDS
from .messages import Combiner
from .metrics import JobMetrics, SuperstepMetrics

__all__ = [
    "Backend",
    "SimulatedBackend",
    "UnknownVertexError",
    "WorkerStepResult",
    "execute_worker_superstep_batch",
    "assemble_superstep_metrics",
    "resolve_backend",
    "resolve_combiner",
    "backend_names",
]


class UnknownVertexError(ValueError):
    """A message was addressed to a vertex id the engine never loaded."""


def resolve_combiner(combiner) -> Combiner | None:
    """Validate a job's combiner: ``None`` or a :class:`Combiner` instance."""
    if combiner is None or isinstance(combiner, Combiner):
        return combiner
    raise TypeError(
        f"combiner must be a repro.distributed.Combiner, "
        f"got {type(combiner).__name__}"
    )


@dataclass
class WorkerStepResult:
    """Everything one worker reports at the superstep barrier."""

    worker_id: int
    #: outbound :class:`~repro.distributed.messages.MessageBatch` lists,
    #: keyed by destination worker id, in send order.
    batches: dict[int, list] = field(default_factory=dict)
    aggregates: dict = field(default_factory=dict)
    ops: float = 0.0
    active: int = 0
    messages_sent: int = 0
    messages_local: int = 0
    bytes_local: int = 0
    #: bytes sent to each *remote* worker (own column is zero).
    remote_row: np.ndarray = field(default_factory=lambda: np.zeros(0))
    state_bytes: int = 0
    #: peak transient kernel-buffer bytes this superstep (kernels report
    #: their scratch arrays via ``ctx.charge_transient``).
    transient_bytes: int = 0


def _check_destinations(batch, num_vertices: int) -> None:
    """Reject destinations outside ``0..num_vertices-1`` before routing
    (a negative index would otherwise wrap to the last vertices)."""
    if not len(batch):
        return
    lo, hi = int(batch.dst.min()), int(batch.dst.max())
    if lo < 0 or hi >= num_vertices:
        bad = lo if lo < 0 else hi
        raise UnknownVertexError(
            f"{batch.schema.name!r} message addressed to vertex {bad}, but the "
            f"engine loaded vertex ids 0..{num_vertices - 1}"
        )


def execute_worker_superstep_batch(
    worker_id: int,
    vids: np.ndarray,
    partition,
    program,
    superstep: int,
    broadcasts: dict,
    inbox: list,
    seed: int,
    worker_of: np.ndarray,
    num_workers: int,
    combiner: Combiner | None = None,
) -> WorkerStepResult:
    """Run one worker's share of a superstep and meter its traffic.

    This is the single code path executed by every backend (in-process or
    inside a worker OS process), which is what guarantees cross-backend
    parity.  It runs a :class:`~repro.distributed.engine.BatchVertexProgram`
    kernel over the worker's whole partition, then meters and routes its
    typed message batches with vectorized arithmetic: destination workers
    come from one dense placement lookup, byte counts from dtype-exact
    schema sizes, and batches split per destination worker without
    per-message Python work.  When a ``combiner`` is set, each outbound
    batch is segment-reduced per destination (``combiner.combine_batch``)
    before metering and routing, so the meters report the combined traffic
    that actually travels.  ``result.batches`` maps worker id -> list of
    MessageBatch.
    """
    from .engine import BatchContext

    ctx = BatchContext(
        superstep=superstep,
        worker_id=worker_id,
        broadcasts=broadcasts or {},
        seed=seed,
    )
    program.compute_partition(ctx, partition, inbox)

    outbox = ctx._outbox
    for batch in outbox:
        _check_destinations(batch, worker_of.size)
    if combiner is not None:
        combined: list = []
        for batch in outbox:
            combined.extend(combiner.combine_batch(batch))
        outbox = [batch for batch in combined if len(batch)]

    result = WorkerStepResult(
        worker_id=worker_id,
        aggregates=ctx._aggregates,
        # Plus one op per local vertex: every vertex takes part in the step.
        ops=float(ctx._ops) + float(len(vids)),
        active=ctx._active,
        remote_row=np.zeros(num_workers, dtype=np.float64),
    )
    for batch in outbox:
        dst_workers = worker_of[batch.dst]
        sizes = batch.per_message_nbytes()
        local = dst_workers == worker_id
        result.messages_sent += len(batch)
        result.messages_local += int(np.count_nonzero(local))
        result.bytes_local += int(sizes[local].sum())
        remote = np.bincount(dst_workers, weights=sizes, minlength=num_workers)
        remote[worker_id] = 0.0
        result.remote_row += remote
        for dst_worker, sub in batch.split(dst_workers, num_workers).items():
            result.batches.setdefault(dst_worker, []).append(sub)
    result.state_bytes = int(program.partition_nbytes(partition))
    result.transient_bytes = int(ctx._transient_bytes)
    return result


def assemble_superstep_metrics(
    results: list[WorkerStepResult],
    superstep: int,
    phase: str,
    num_workers: int,
) -> SuperstepMetrics:
    """Combine per-worker barrier reports into one :class:`SuperstepMetrics`."""
    ops = np.zeros(num_workers, dtype=np.float64)
    messages_per_worker = np.zeros(num_workers, dtype=np.float64)
    bytes_local = 0
    messages_local = 0
    messages_sent = 0
    sent_matrix = np.zeros((num_workers, num_workers), dtype=np.float64)
    local_bytes_per_worker = np.zeros(num_workers, dtype=np.float64)
    state_bytes = np.zeros(num_workers, dtype=np.float64)
    transient_bytes = np.zeros(num_workers, dtype=np.float64)
    active = 0
    for res in results:
        w = res.worker_id
        ops[w] = res.ops
        messages_per_worker[w] = res.messages_sent
        messages_sent += res.messages_sent
        messages_local += res.messages_local
        bytes_local += res.bytes_local
        sent_matrix[w] = res.remote_row
        local_bytes_per_worker[w] = res.bytes_local
        state_bytes[w] = res.state_bytes
        transient_bytes[w] = res.transient_bytes
        active += res.active

    # Remote traffic charges both endpoints (send + receive side).
    remote_bytes_per_worker = sent_matrix.sum(axis=1) + sent_matrix.sum(axis=0)
    bytes_remote = int(sent_matrix.sum())
    # Resident memory: worker-local states plus the mailbox it just received.
    inbound_bytes = sent_matrix.sum(axis=0) + local_bytes_per_worker
    return SuperstepMetrics(
        superstep=superstep,
        phase=phase,
        ops_per_worker=ops,
        messages_local=messages_local,
        messages_remote=messages_sent - messages_local,
        bytes_local=bytes_local,
        bytes_remote=bytes_remote,
        remote_bytes_per_worker=remote_bytes_per_worker,
        messages_per_worker=messages_per_worker,
        memory_per_worker=state_bytes + inbound_bytes,
        transient_bytes_per_worker=transient_bytes,
        active_vertices=active,
    )


def merge_aggregates(target: dict, parts: list[dict]) -> dict:
    """Fold per-worker aggregator dicts into ``target`` (worker-id order)."""
    for part in parts:
        for name, bucket in sorted(part.items()):
            merged = target.setdefault(name, {})
            for key, value in sorted(bucket.items()):
                merged[key] = merged.get(key, 0.0) + value
    return target


class Backend(ABC):
    """Strategy deciding where the engine's worker partitions execute.

    :meth:`run` is a template method owning the whole superstep protocol —
    master compute/halt, combiner resolution, aggregate reduction, metrics
    assembly, wall-clock — so every backend (``sim`` in-process, ``mp``
    OS processes, ``rpc`` TCP workers) shares one driver and can only
    differ in *where* the per-worker work happens and *how* bytes move.

    Subclasses implement the hooks below: the three mandatory ones
    (:meth:`_open` / :meth:`_execute_superstep` / :meth:`_finish`) carry
    the run; :meth:`_close` releases resources on every exit path; and
    :meth:`_annotate_step` lets a backend attach physical measurements
    (wire bytes, barrier latency) to each superstep's metrics without
    touching the logical meters.  A backend instance drives one run at a
    time.

    Backend contract: :meth:`run` returns the final per-vertex columns in
    vertex-id order, bitwise-identical on every backend for a given seed —
    see ``docs/architecture.md`` ("bitwise-parity invariants") for what
    that requires of a new backend.  The columns the caller passed to
    ``engine.load()`` are never mutated.
    """

    name: str = "abstract"

    def run(self, engine, program, master, max_supersteps: int, combiner) -> "JobResult":
        """Execute the superstep loop for a loaded engine."""
        from .engine import JobResult

        combiner = resolve_combiner(combiner)
        num_workers = engine.cluster.num_workers
        metrics = JobMetrics(cluster=engine.cluster)
        start = time.perf_counter()
        halted = False
        broadcasts: dict = {}
        aggregates: dict = {}
        executed = 0

        try:
            self._open(engine, program, combiner)
            for superstep in range(max_supersteps):
                if master is not None:
                    broadcasts = master.compute(superstep, aggregates)
                    if broadcasts is None:
                        halted = True
                        break
                results = self._execute_superstep(superstep, broadcasts or {})
                aggregates = merge_aggregates(
                    {}, [res.aggregates for res in results]
                )
                step = assemble_superstep_metrics(
                    results, superstep, program.phase_name(superstep), num_workers
                )
                self._annotate_step(step)
                metrics.add(step)
                executed += 1
            states = self._finish()
        finally:
            self._close()

        metrics.wall_seconds = time.perf_counter() - start
        return JobResult(
            states=states,
            metrics=metrics,
            supersteps_run=executed,
            halted_by_master=halted,
        )

    # -- hooks -----------------------------------------------------------
    @abstractmethod
    def _open(self, engine, program, combiner) -> None:
        """Prepare a run: bind/ship the graph, start workers, reset queues."""

    @abstractmethod
    def _execute_superstep(self, superstep: int, broadcasts: dict) -> list[WorkerStepResult]:
        """Run every worker's share of one superstep and route the batches
        so they are delivered at ``superstep + 1``; returns barrier reports."""

    @abstractmethod
    def _finish(self) -> dict[str, np.ndarray]:
        """Collect every worker's final columns and return them in vertex-id
        order (``engine.gather_columns``).  Called only when the loop
        completes cleanly."""

    def _close(self) -> None:
        """Release run resources (always called, including on errors)."""

    def _annotate_step(self, step) -> None:
        """Attach backend-specific measurements to a just-assembled
        :class:`~repro.distributed.metrics.SuperstepMetrics` (e.g. the RPC
        backend fills ``wire_bytes`` and ``round_trip_seconds`` from its
        sockets).  Default: no-op — the *logical* meters stay untouched so
        cross-backend parity holds."""


class SimulatedBackend(Backend):
    """In-process sequential execution of every worker (the classic mode)."""

    name = "sim"

    def __init__(self):
        self._engine = None
        self._program = None
        self._combiner = None
        self._partitions: list = []
        self._inboxes: list[list] = []

    def _open(self, engine, program, combiner) -> None:
        self._engine = engine
        self._program = program
        self._combiner = combiner
        self._partitions = [
            program.create_partition(
                worker_id,
                engine._worker_vertices[worker_id],
                engine.worker_columns(worker_id),
                engine._graph,
            )
            for worker_id in range(engine.cluster.num_workers)
        ]
        self._inboxes = [[] for _ in range(engine.cluster.num_workers)]

    def _execute_superstep(self, superstep: int, broadcasts: dict) -> list[WorkerStepResult]:
        engine = self._engine
        num_workers = engine.cluster.num_workers
        results = [
            execute_worker_superstep_batch(
                worker_id,
                engine._worker_vertices[worker_id],
                self._partitions[worker_id],
                self._program,
                superstep,
                broadcasts,
                self._inboxes[worker_id],
                engine.seed,
                engine._worker_of,
                num_workers,
                self._combiner,
            )
            for worker_id in range(num_workers)
        ]
        inboxes: list[list] = [[] for _ in range(num_workers)]
        for res in results:
            for dst_worker, batches in res.batches.items():
                inboxes[dst_worker].extend(batches)
            res.batches = {}
        self._inboxes = inboxes
        return results

    def _finish(self) -> dict[str, np.ndarray]:
        return self._engine.gather_columns(
            [self._program.collect_states(partition) for partition in self._partitions]
        )

    def _close(self) -> None:
        self._engine = self._program = self._combiner = None
        self._partitions = []
        self._inboxes = []


@BACKENDS.register("sim")
def _make_sim() -> Backend:
    return SimulatedBackend()


@BACKENDS.register("mp")
def _make_mp() -> Backend:
    from .backend_mp import MultiprocessBackend

    return MultiprocessBackend()


@BACKENDS.register("rpc")
def _make_rpc() -> Backend:
    from .backend_rpc import RpcBackend

    return RpcBackend()


def backend_names() -> list[str]:
    """Names accepted by :func:`resolve_backend` (and the CLI)."""
    return BACKENDS.names()


def resolve_backend(backend) -> Backend:
    """Turn ``None`` / a registered name / an instance into a :class:`Backend`.

    Names resolve through :data:`repro.api.registry.BACKENDS`, so a new
    substrate (e.g. an RPC backend) registered there is immediately
    addressable from job specs and the CLI.
    """
    if backend is None:
        return SimulatedBackend()
    if isinstance(backend, Backend):
        return backend
    if isinstance(backend, str) and backend in BACKENDS:
        return BACKENDS.get(backend)()
    raise ValueError(
        f"unknown backend {backend!r} (expected one of {backend_names()} "
        "or a Backend instance)"
    )
