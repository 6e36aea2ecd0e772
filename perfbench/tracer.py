"""Spans at the program's layer boundaries, recorded from outside it.

The benchmark does not change the program: :class:`Tracer` wraps public
functions and documented hooks by patching module and class attributes in
the benchmark's own process.  Each call through a wrapped attribute
records a span ``[name, start, end, parent, job]``; spans stay in memory
and are written out once, when the benchmark ends.

Worker processes forked after a patch inherit the wrapper, but a wrapper
records only in the process that installed it, so workers run the
original code path with one ``os.getpid()`` comparison per call.

Two sets of boundaries exist.  :data:`PROBES` holds the set-up entry
points that ``setup_s`` needs and the serving round replay whose last
result gives a serving job's fanout and p99; it stays installed on
untraced jobs (a few calls per job).  :data:`LAYERS` adds every layer
boundary of the per-layer table and is installed only around traced jobs.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict
from collections.abc import Callable
from pathlib import Path

#: (module, owner attribute or None, attribute, span name).  ``owner`` names
#: a class inside the module; ``None`` patches the module attribute, which
#: is how callers that imported a function by name reach it.
Boundary = tuple[str, "str | None", str, str]

PROBES: tuple[Boundary, ...] = (
    ("repro.api.runner", None, "load_graph_spec", "storage.open"),
    ("repro.core.parallel_refine", "ParallelGainPool", "__init__", "parallel_refine.pool_start"),
    ("repro.distributed_shp.job", "DistributedSHP", "run", "distributed_shp.run"),
    ("repro.distributed.engine", "GiraphEngine", "load", "engine.load"),
    ("repro.distributed.backend_mp", "MultiprocessBackend", "_open", "backend_mp.open"),
    ("repro.distributed.backend_rpc", "RpcBackend", "_open", "backend_rpc.open"),
    ("repro.workloads.serving", "ServingSimulator", "_replay", "serving.replay_round"),
)

LAYERS: tuple[Boundary, ...] = PROBES + (
    ("repro.api.runner", None, "evaluate_partition", "evaluate.evaluate_partition"),
    ("repro.core.shp_2", "SHP2Partitioner", "partition", "shp_2.partition"),
    ("repro.core.shp_2", None, "refine_level_fused", "level_fuse.refine_level"),
    ("repro.core.level_fuse", None, "segment_sums", "gains.segment_sums"),
    ("repro.core.level_fuse", None, "block_pair_gains", "parallel_refine.block_pair_gains"),
    ("repro.core.parallel_refine", "ParallelGainPool", "compute_gains", "parallel_refine.compute_gains"),
    ("repro.core.parallel_refine", "ParallelGainPool", "publish_level", "parallel_refine.publish_level"),
    ("repro.core.swaps", "UniformMatcher", "decide_paired", "swaps.decide_paired"),
    ("repro.core.swaps", "HistogramMatcher", "decide_paired", "swaps.decide_paired"),
    ("repro.workloads.serving", "ServingSimulator", "run", "serving.run"),
    ("repro.workloads.serving", None, "budgeted_incremental_update", "incremental.update"),
    ("repro.core.incremental", None, "incremental_update", "incremental.attempt"),
    ("repro.workloads.serving", None, "replay_traffic", "simulator.replay"),
    ("repro.workloads.serving", None, "apply_query_churn", "serving.churn"),
    ("repro.workloads.serving", None, "sample_queries", "traffic.sample"),
    ("repro.distributed_shp.job", "_SHPMaster", "compute", "engine.master_compute"),
    ("repro.distributed.backend_mp", "MultiprocessBackend", "_execute_superstep", "backend_mp.superstep"),
    ("repro.distributed.backend_mp", "MultiprocessBackend", "_finish", "backend_mp.finish"),
    ("repro.distributed.backend_rpc", "RpcBackend", "_execute_superstep", "backend_rpc.superstep"),
    ("repro.distributed.backend_rpc", "RpcBackend", "_finish", "backend_rpc.finish"),
    ("repro.distributed.backend_rpc", None, "send_obj", "wire.send"),
    ("repro.distributed.backend_rpc", None, "recv_obj", "wire.recv"),
)


def _count_moves(tracer: "Tracer", args: tuple, decision) -> None:
    # decide_paired(self, src, gain, ...): ``src`` lists the active ranks.
    tracer.count("level_fuse.active", len(args[1]))
    tracer.count("level_fuse.moved", int(decision.move.sum()))


def _count_iterations(tracer: "Tracer", args: tuple, result) -> None:
    history, _converged = result
    tracer.count("level_fuse.iterations", len(history))


def _count_queries(tracer: "Tracer", args: tuple, result) -> None:
    tracer.count("simulator.queries", result.num_samples)


def _keep_replay(tracer: "Tracer", args: tuple, result) -> None:
    # The serving loop's last round replay is its last repaired replay.
    tracer.last_replay = result


#: Counters read off a boundary's arguments or result, at the boundary.
OBSERVERS: dict[str, Callable] = {
    "swaps.decide_paired": _count_moves,
    "level_fuse.refine_level": _count_iterations,
    "simulator.replay": _count_queries,
    "serving.replay_round": _keep_replay,
}


class Tracer:
    """In-memory span recorder over patched layer boundaries."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.job = -1
        self.last_replay = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[self.job][name] += amount

    # -- patching --------------------------------------------------------
    def install(self, boundaries: tuple[Boundary, ...]) -> None:
        for module_name, owner_name, attr, span in boundaries:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            original = getattr(owner, attr) if owner_name is None else owner.__dict__[attr]
            setattr(owner, attr, self._wrap(original, span, OBSERVERS.get(span)))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _wrap(self, original: Callable, name: str, observe: Callable | None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:
                return original(*args, **kwargs)
            index = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            if observe is not None:
                observe(tracer, args, result)
            return result

        return traced

    # -- reading ---------------------------------------------------------
    def job_spans(self, job: int) -> list[tuple[int, list]]:
        """``(index, span)`` for every span of one job."""
        return [(index, span) for index, span in enumerate(self.spans) if span[4] == job]

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (the end-of-run trace file)."""
        with path.open("w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, job) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "job": job, "name": name, "parent": parent,
                    "start": start, "end": end,
                }) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def layer_totals(spans: list[tuple[int, list]]) -> tuple[dict, dict, dict]:
    """Per span name: total seconds, self seconds and calls of one job.

    Self time is a span's duration minus the part of it that its child
    spans cover.  ``spans`` holds ``(index, span)`` pairs as
    :meth:`Tracer.job_spans` returns them.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _index, (_name, start, end, parent, _job) in spans:
        children[parent].append((start, end))
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for index, (name, start, end, _parent, _job) in spans:
        total[name] += end - start
        self_time[name] += (end - start) - _covered(children.get(index, []))
        calls[name] += 1
    return total, self_time, calls
