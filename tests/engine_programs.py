"""Small batch vertex programs that drive the engine in its contract tests.

Each program keeps its partition as a dict of numpy columns aligned with
the worker's ascending ``vids`` and returns its final columns from
``collect_states``; they are module-level so process backends can ship
them.
"""

from __future__ import annotations

import numpy as np

from repro.distributed import MessageBatch, MessageSchema

#: one sender id per message
SRC_SCHEMA = MessageSchema("test-src", (("src", "<i8"),))
#: one float per message
VALUE_SCHEMA = MessageSchema("test-value", (("value", "<f8"),))


def _rows(part: dict, inbox: list) -> np.ndarray:
    """Local row of every inbound message, in inbox order."""
    if not inbox:
        return np.empty(0, dtype=np.int64)
    return np.searchsorted(part["vids"], np.concatenate([batch.dst for batch in inbox]))


def _column(inbox: list, name: str) -> np.ndarray:
    """Field ``name`` of every inbound message, in inbox order."""
    return np.concatenate([batch.cols[name] for batch in inbox])


class ColumnProgram:
    """Base: the partition is the worker's column slice plus its vids."""

    phase = "step"

    def phase_name(self, superstep: int) -> str:
        return f"{self.phase}{superstep}"

    def create_partition(self, worker_id, vids, columns, graph) -> dict:
        part = {name: col.copy() for name, col in columns.items()}
        part["vids"] = np.asarray(vids, dtype=np.int64)
        return part

    def compute_partition(self, ctx, part: dict, inbox: list) -> None:
        pass

    def collect_states(self, part: dict) -> dict:
        return {name: col for name, col in part.items() if name != "vids"}

    def partition_nbytes(self, part: dict) -> int:
        return sum(col.nbytes for col in part.values())


class EchoProgram(ColumnProgram):
    """Superstep 0: every vertex with a successor (``succ[v] >= 0``) sends
    its id there.  Later supersteps add up the sender ids each vertex
    received (``received``) and how many arrived (``count``)."""

    def __init__(self, succ):
        self.succ = np.asarray(succ, dtype=np.int64)

    def create_partition(self, worker_id, vids, columns, graph) -> dict:
        part = super().create_partition(worker_id, vids, columns, graph)
        part["received"] = np.zeros(len(vids), dtype=np.int64)
        part["count"] = np.zeros(len(vids), dtype=np.int64)
        return part

    def compute_partition(self, ctx, part: dict, inbox: list) -> None:
        vids = part["vids"]
        if ctx.superstep == 0:
            dst = self.succ[vids]
            senders = dst >= 0
            ctx.send_batch(MessageBatch(SRC_SCHEMA, dst[senders], {"src": vids[senders]}))
            ctx.add_active(int(senders.sum()))
            return
        rows = _rows(part, inbox)
        if inbox:
            np.add.at(part["received"], rows, _column(inbox, "src"))
            np.add.at(part["count"], rows, 1)
        ctx.add_active(np.unique(rows).size)


def ring(n: int) -> np.ndarray:
    """Successor array of the ring ``v -> (v + 1) % n``."""
    return (np.arange(n, dtype=np.int64) + 1) % n


class RingProgram(ColumnProgram):
    """Every superstep every vertex adds up what it received (``sum``),
    draws a counter-based coin (``coin``), counts itself into the
    ``seen`` aggregate and sends its id to its ring successor."""

    phase = "ring"

    def __init__(self, n: int):
        self.n = n

    def create_partition(self, worker_id, vids, columns, graph) -> dict:
        part = super().create_partition(worker_id, vids, columns, graph)
        part["sum"] = np.zeros(len(vids), dtype=np.int64)
        part["coin"] = np.zeros(len(vids), dtype=np.float64)
        return part

    def compute_partition(self, ctx, part: dict, inbox: list) -> None:
        vids = part["vids"]
        if inbox:
            np.add.at(part["sum"], _rows(part, inbox), _column(inbox, "src"))
        part["coin"] = ctx.random(vids)
        ctx.aggregate_items("seen", {"count": float(vids.size)})
        ctx.send_batch(MessageBatch(SRC_SCHEMA, (vids + 1) % self.n, {"src": vids}))
        ctx.add_active(vids.size)


class FanInProgram(ColumnProgram):
    """Superstep 0: every vertex but 0 sends 1.0 to vertex 0.  Superstep 1:
    receivers store the sum of what arrived in ``total``."""

    phase = "fanin"

    def create_partition(self, worker_id, vids, columns, graph) -> dict:
        part = super().create_partition(worker_id, vids, columns, graph)
        part["total"] = np.zeros(len(vids), dtype=np.float64)
        return part

    def compute_partition(self, ctx, part: dict, inbox: list) -> None:
        vids = part["vids"]
        if ctx.superstep == 0:
            senders = vids[vids != 0]
            ctx.send_batch(MessageBatch(
                VALUE_SCHEMA, np.zeros(senders.size, dtype=np.int64),
                {"value": np.ones(senders.size)},
            ))
            return
        if inbox:
            np.add.at(part["total"], _rows(part, inbox), _column(inbox, "value"))


class StepCounter(ColumnProgram):
    """Counts the supersteps every vertex ran (``steps``)."""

    phase = "noop"

    def create_partition(self, worker_id, vids, columns, graph) -> dict:
        part = super().create_partition(worker_id, vids, columns, graph)
        part["steps"] = np.zeros(len(vids), dtype=np.int64)
        return part

    def compute_partition(self, ctx, part: dict, inbox: list) -> None:
        part["steps"] += 1


class SendTo(ColumnProgram):
    """Every vertex sends one message to vertex ``dst`` each superstep."""

    def __init__(self, dst: int):
        self.dst = dst

    def compute_partition(self, ctx, part: dict, inbox: list) -> None:
        vids = part["vids"]
        ctx.send_batch(MessageBatch(
            SRC_SCHEMA, np.full(vids.size, self.dst, dtype=np.int64), {"src": vids}
        ))
