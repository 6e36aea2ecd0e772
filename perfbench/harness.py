"""Job process: closed-loop ``repro.api.run`` jobs of one workload.

``run.py`` starts this script in a fresh subprocess per benchmark run, so
the process's ``VmHWM`` and its ``RUSAGE_CHILDREN`` high-water mark start
clean.  The script runs one warm-up job, then jobs back to back until
``--seconds`` have passed (at least :data:`MIN_JOBS` timed jobs), cycling
through the run's (graph, job seed) pairs.  It checks every job's output;
a job that raises or fails a check counts as failed and the loop goes on.
A job's time is its wall-clock time less the CPU time the hypervisor
stole meanwhile; quality figures are means over the run's job seeds.
The result is written as JSON to ``--out``.

With ``--trace 1`` the timed jobs alternate between untraced and traced:
the traced ones give the per-layer metrics, and the difference of the two
medians is the tracing overhead.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from repro.api import run
from repro.distributed.backend_mp import _default_context
from repro.sharding.simulator import replay_traffic
from repro.storage import open_store_view
from repro.workloads.traffic import sample_queries
from tracer import LAYERS, PROBES, Tracer, layer_totals
from workloads import REPLAY_QUERIES, SEEDS_PER_RUN, WORKLOADS, latency_model

#: Fewest timed jobs in a run, whatever ``--seconds`` says.
MIN_JOBS = 3
#: Top-level spans must cover at least this share of a traced job.
MIN_COVERAGE = 0.95

#: name → unit, in the order they are printed.  ``BENCHMARK.json`` lists
#: the same names and units (pinned by ``test_perfbench.py``).
END_TO_END = {
    "job_s": "s",
    "job_s_tail": "s",
    "setup_s": "s",
    "fanout": "buckets/query",
    "serve_p99_ms": "ms",
    "peak_rss_mb": "MiB",
}

#: Span name → per-layer metric holding its total seconds per job.
SPAN_SECONDS = {
    "storage.open": "storage.open_s",
    "shp_2.partition": "shp_2.partition_s",
    "level_fuse.refine_level": "level_fuse.refine_level_s",
    "gains.segment_sums": "gains.segment_sums_s",
    "parallel_refine.block_pair_gains": "parallel_refine.block_pair_gains_s",
    "parallel_refine.compute_gains": "parallel_refine.compute_gains_s",
    "parallel_refine.publish_level": "parallel_refine.publish_level_s",
    "parallel_refine.pool_start": "parallel_refine.pool_start_s",
    "swaps.decide_paired": "swaps.decide_paired_s",
    "serving.run": "serving.run_s",
    "incremental.update": "incremental.update_s",
    "simulator.replay": "simulator.replay_s",
    "serving.churn": "serving.churn_s",
    "traffic.sample": "traffic.sample_s",
    "distributed_shp.run": "distributed_shp.run_s",
    "engine.load": "engine.load_s",
    "engine.master_compute": "engine.master_compute_s",
    "backend_mp.open": "backend_mp.open_s",
    "backend_mp.superstep": "backend_mp.superstep_s",
    "backend_mp.finish": "backend_mp.finish_s",
    "backend_rpc.open": "backend_rpc.open_s",
    "backend_rpc.superstep": "backend_rpc.superstep_s",
    "backend_rpc.finish": "backend_rpc.finish_s",
    "wire.send": "wire.send_s",
    "wire.recv": "wire.recv_s",
    "evaluate.evaluate_partition": "evaluate.evaluate_partition_s",
}

#: name → unit of every per-layer metric, in print order.
PER_LAYER = {
    **{metric: "s" for metric in SPAN_SECONDS.values()},
    "level_fuse.refine_level_self_s": "s",
    "level_fuse.levels": "count",
    "level_fuse.iterations": "count",
    "level_fuse.moved_fraction": "ratio",
    "parallel_refine.dispatches": "count",
    "swaps.decide_paired_calls": "count",
    "incremental.attempts_per_repair": "ratio",
    "simulator.queries_per_s": "1/s",
    "distributed_shp.self_s": "s",
    "engine.supersteps": "count",
    "wire.frames": "count",
    "engine.messages": "count",
    "engine.remote_mb": "MiB",
    "engine.wire_mb": "MiB",
    "engine.wire_per_remote": "ratio",
    "engine.round_trip_s": "s",
    "engine.peak_transient_mb": "MiB",
    "runner.self_s": "s",
    "workers.peak_rss_mb": "MiB",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}

MIB = float(1 << 20)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _stolen_seconds() -> float:
    """CPU seconds the hypervisor has stolen from the virtual CPUs so far.

    The ``steal`` column of ``/proc/stat``, summed over the virtual CPUs:
    time a CPU had work but the host ran something else.  It is 0 on
    bare metal.
    """
    with open("/proc/stat", encoding="ascii") as stat:
        steal_ticks = int(stat.readline().split()[8])
    return steal_ticks / os.sysconf("SC_CLK_TCK")


def _shm_segments() -> set[str]:
    return set(glob.glob("/dev/shm/psm_*"))


def _sha256(assignment: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(assignment, dtype=np.int64).tobytes()).hexdigest()


def check_assignment(
    assignment, num_data: int, k: int, epsilon: float, levels: int, bernoulli: bool
) -> list[str]:
    """Problems with one final assignment (empty when it is valid).

    The balance bound is the partitioners' own: ``max(floor((1+ε)·n/k),
    ceil(n/k))`` vertices per bucket, plus one vertex of rounding per
    recursion level (each bisection rounds its child capacities).  Engine
    jobs apply swaps as independent Bernoulli draws, which keep the cap
    only in expectation; they may also exceed it by three standard
    deviations of a Poisson count of the cap's size.
    """
    if assignment is None:
        return ["no assignment"]
    assignment = np.asarray(assignment)
    if assignment.shape != (num_data,):
        return [f"assignment shape {assignment.shape} != ({num_data},)"]
    if assignment.size and (int(assignment.min()) < 0 or int(assignment.max()) >= k):
        return [f"assignment values outside [0, {k})"]
    largest = int(np.bincount(assignment, minlength=k).max()) if assignment.size else 0
    cap = max(math.floor((1.0 + epsilon) * num_data / k), math.ceil(num_data / k))
    allowed = cap + levels + (3.0 * math.sqrt(cap) if bernoulli else 0.0)
    if largest > allowed:
        return [f"largest bucket {largest} > {allowed:.1f} (cap {cap}, eps {epsilon})"]
    return []


def _tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its rank."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _setup_seconds(spans: list[tuple[int, list]]) -> float:
    """Graph open, refine-pool spawn, vertex-state build, engine load and
    backend start-up (mp/rpc spawn plus the rpc init handshake)."""
    total = 0.0
    runs = {index: span for index, span in spans if span[0] == "distributed_shp.run"}
    for _index, (name, start, end, parent, _job) in spans:
        if name in ("storage.open", "parallel_refine.pool_start",
                    "backend_mp.open", "backend_rpc.open"):
            total += end - start
        elif name == "engine.load" and parent in runs:
            # State build: from DistributedSHP.run entry to the end of load.
            total += end - runs[parent][1]
    return total


def _layer_metrics(tracer: Tracer, job: int, meters: dict) -> dict[str, float]:
    spans = tracer.job_spans(job)
    total, self_time, calls = layer_totals(spans)
    counters = tracer.counters[job]
    out = {metric: total.get(span, 0.0) for span, metric in SPAN_SECONDS.items()}
    covered = total["job"] - self_time["job"]
    out.update({
        "level_fuse.refine_level_self_s": self_time.get("level_fuse.refine_level", 0.0),
        "level_fuse.levels": calls.get("level_fuse.refine_level", 0),
        "level_fuse.iterations": counters.get("level_fuse.iterations", 0),
        "level_fuse.moved_fraction": _ratio(
            counters.get("level_fuse.moved", 0), counters.get("level_fuse.active", 0)
        ),
        "parallel_refine.dispatches": calls.get("parallel_refine.compute_gains", 0),
        "swaps.decide_paired_calls": calls.get("swaps.decide_paired", 0),
        "incremental.attempts_per_repair": _ratio(
            calls.get("incremental.attempt", 0), calls.get("incremental.update", 0)
        ),
        "simulator.queries_per_s": _ratio(
            counters.get("simulator.queries", 0), total.get("simulator.replay", 0.0)
        ),
        "distributed_shp.self_s": self_time.get("distributed_shp.run", 0.0),
        "engine.supersteps": meters.get("supersteps", 0),
        "wire.frames": calls.get("wire.send", 0) + calls.get("wire.recv", 0),
        "engine.messages": meters.get("messages", 0),
        "engine.remote_mb": meters.get("remote_bytes", 0) / MIB,
        "engine.wire_mb": meters.get("wire_bytes", 0) / MIB,
        "engine.wire_per_remote": _ratio(
            meters.get("wire_bytes", 0), meters.get("remote_bytes", 0)
        ),
        "engine.round_trip_s": meters.get("round_trip_sec", 0.0),
        "engine.peak_transient_mb": meters.get("peak_transient_bytes", 0.0) / MIB,
        "runner.self_s": self_time["job"],
        "trace.coverage": _ratio(covered, total["job"]),
    })
    return out


def _peak_rss_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def host_facts() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpus": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mp_start_method": _default_context(),
    }


def _serve_p99_ms(graph_path: str, assignment: np.ndarray, k: int, seed: int) -> float:
    """Modeled p99 of a seeded query trace served from ``assignment``,
    through the serving job's latency model (deterministic per seed)."""
    graph = open_store_view(graph_path)
    trace = sample_queries(graph, REPLAY_QUERIES, seed=seed)
    replay = replay_traffic(graph, assignment, k, trace, latency_model(), seed=seed)
    return float(replay.latency_percentile(99))


def run_jobs(args: argparse.Namespace) -> dict:
    workload = WORKLOADS[args.workload]
    specs = workload.specs([Path(g) for g in args.graph], args.seed, tiny=args.tiny)
    num_data = {g: open_store_view(g).num_data for g in args.graph}
    k, epsilon, levels = workload.balance(specs[0])

    tracer = Tracer()
    tracer.install(PROBES)
    timed: list[dict] = []
    problems: list[str] = []
    reference_sha: dict[int, str] = {}
    #: per job seed: fanout and serve p99 of its final assignment
    quality: dict[int, list] = {}
    attempted = failed = 0
    run_stolen = _stolen_seconds()
    run_start = time.perf_counter()
    deadline = math.inf
    job = 0
    while job <= MIN_JOBS or time.perf_counter() < deadline:
        # Job 0 is the warm-up: checked, never timed.
        index = max(job - 1, 0) % SEEDS_PER_RUN
        spec = specs[index]
        traced = bool(args.trace) and job % 2 == 1
        if traced:
            tracer.uninstall()
            tracer.install(LAYERS)
        tracer.job = job
        shm_before = _shm_segments()
        stolen_before = _stolen_seconds()
        report, errors = None, []
        root = tracer.begin("job")
        try:
            report = run(spec)
        except Exception as exc:  # a failed job is counted, never fatal
            errors.append(f"{type(exc).__name__}: {exc}")
        finally:
            tracer.end(root)
        stolen = _stolen_seconds() - stolen_before
        if traced:
            tracer.uninstall()
            tracer.install(PROBES)
        if report is not None:
            errors += check_assignment(
                report.assignment, num_data[spec.graph.path], k, epsilon, levels,
                workload.bernoulli,
            )
        if not errors:
            sha = _sha256(report.assignment)
            if reference_sha.setdefault(index, sha) != sha:
                errors.append(f"assignment differs from the first job with seed {spec.seed}")
        leaked = sorted(_shm_segments() - shm_before)
        if leaked:
            errors.append(f"leaked shared memory: {', '.join(leaked)}")
        attempted += 1
        if errors:
            failed += 1
            problems += [f"job {job} (seed {spec.seed}): {error}" for error in errors]
        else:
            if index not in quality and spec.kind == "serving":
                # A serving job's quality is its last repaired replay.
                replay = tracer.last_replay
                quality[index] = [replay.mean_fanout(), replay.latency_percentile(99)]
            elif index not in quality:
                # Replayed after the loop, so that it stays out of peak RSS.
                quality[index] = [report.quality.fanout, report.assignment]
            if job > 0:
                spans = tracer.job_spans(job)
                wall = spans[0][1][2] - spans[0][1][1]
                record = {
                    "traced": traced,
                    # On a shared host the hypervisor can take a third of
                    # the CPU away for a minute, which slows a job by up to
                    # 2x and says nothing about the program.  Jobs wait on
                    # every CPU at their barriers, so each stolen CPU
                    # second costs about one second of wall-clock time.
                    "job_s": wall - stolen,
                    "wall_s": wall,
                    "setup_s": _setup_seconds(spans),
                }
                if traced:
                    record["layers"] = _layer_metrics(tracer, job, report.meters)
                timed.append(record)
        if job == 0:
            deadline = time.perf_counter() + args.seconds
        job += 1
    tracer.uninstall()

    if args.trace_out:
        tracer.write(Path(args.trace_out))
    host = host_facts()
    host["stolen_cpu_share"] = round(
        (_stolen_seconds() - run_stolen) / ((time.perf_counter() - run_start) * os.cpu_count()), 4
    )
    result: dict = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "host": host,
        "peak_rss_mb": _peak_rss_kib() / 1024.0,
        "worker_peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    for index, (_fanout, served) in quality.items():
        if isinstance(served, np.ndarray):
            spec = specs[index]
            quality[index][1] = _serve_p99_ms(spec.graph.path, served, k, spec.seed)
    untraced = [r for r in timed if not r["traced"]]
    if not quality or not untraced:
        return result
    job_times = [r["job_s"] for r in untraced]
    tail, tail_rank = _tail(job_times)
    result.update({
        "jobs": len(untraced),
        "wall_job_s": statistics.median(r["wall_s"] for r in untraced),
        "tail_percentile": tail_rank,
        "end_to_end": {
            "job_s": statistics.median(job_times),
            "job_s_tail": tail,
            "setup_s": statistics.median(r["setup_s"] for r in untraced),
            # Means over the run's job seeds whose jobs passed their checks.
            "fanout": float(statistics.fmean(q[0] for q in quality.values())),
            "serve_p99_ms": float(statistics.fmean(q[1] for q in quality.values())),
            "peak_rss_mb": result["peak_rss_mb"],
        },
    })
    layered = [r for r in timed if r["traced"]]
    if layered:
        layers = {
            name: statistics.median(r["layers"][name] for r in layered)
            for name in layered[0]["layers"]
        }
        traced_s = statistics.median(r["job_s"] for r in layered)
        layers["workers.peak_rss_mb"] = result["worker_peak_rss_mb"]
        layers["trace.overhead_s"] = traced_s - statistics.median(job_times)
        result.update({
            "traced_jobs": len(layered),
            "min_coverage": min(r["layers"]["trace.coverage"] for r in layered),
            "per_layer": {name: layers[name] for name in PER_LAYER},
        })
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--graph", required=True, nargs="+", help="the run's .rgs inputs")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--out", required=True, help="where to write the JSON result")
    parser.add_argument("--trace-out", help="where to write the spans (JSON lines)")
    args = parser.parse_args(argv)
    # Exit through the program's own clean-up when the benchmark is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    result = run_jobs(args)
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
