"""Benchmark of the SHP reproduction: ``JobSpec`` workloads end to end.

Run from the repository root::

    python3 perfbench/run.py --workload shp2-local --seed 1 --seconds 30 --trace 0

The command generates the run's graphs from ``--seed`` (untimed), writes
them as ``.rgs`` stores under ``.perfbench_work/`` and starts a fresh job
process (``harness.py``) that runs ``repro.api.run`` closed-loop for
``--seconds`` and checks every job's output.  It prints each metric by
name and unit, and as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1`` (spans are then written to
``.perfbench_work/trace-<workload>.jsonl``).

Threads of numeric libraries are pinned to one, so the worker counts in
the specs alone set parallelism.  The job process is started in its own
session and the whole session is stopped when it ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: Seconds a job process may take beyond ``--seconds`` before it is stopped.
GRACE_SECONDS = 120
#: Seconds a stopped job process gets to clean up before it is killed.
TERM_GRACE_SECONDS = 5.0


def _stop_session(pgid: int) -> None:
    """Stop whatever the job process left in its session, and wait.

    SIGTERM first, so that the program can release its shared memory;
    SIGKILL for anything still there after :data:`TERM_GRACE_SECONDS`.
    """
    for sig, grace in ((signal.SIGTERM, TERM_GRACE_SECONDS), (signal.SIGKILL, 10.0)):
        try:
            os.killpg(pgid, sig)
        except ProcessLookupError:
            return
        deadline = time.monotonic() + grace
        while time.monotonic() < deadline:
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.05)


def _run_harness(root: Path, args: argparse.Namespace, graphs: list[Path], out: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(root / "src"), env.get("PYTHONPATH")) if part
    )
    command = [
        sys.executable, str(HERE / "harness.py"),
        "--workload", args.workload, "--graph", *map(str, graphs),
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--out", str(out),
    ]
    if args.trace:
        command += ["--trace-out", str(out.parent.parent / f"trace-{args.workload}.jsonl")]
    if args.tiny:
        command.append("--tiny")
    proc = subprocess.Popen(command, cwd=root, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=args.seconds + GRACE_SECONDS)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        _stop_session(proc.pid)
        proc.wait()
    if code != 0:
        raise RuntimeError(f"job process failed (exit {code if code is not None else 'timeout'})")
    return json.loads(out.read_text(encoding="utf-8"))


def _report(args: argparse.Namespace, result: dict) -> dict:
    """Print the human-readable report; return the result line's object."""
    from harness import END_TO_END, MIN_COVERAGE, PER_LAYER

    attempted, failed = result["attempted"], result["failed"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"host {json.dumps(result['host'], sort_keys=True)}")
    print(f"jobs attempted={attempted} failed={failed} "
          f"error_rate={failed / attempted:.4f} (closed loop, one job at a time)")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")
    values = result.get("per_layer" if args.trace else "end_to_end")
    if values is None:
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}
    units = PER_LAYER if args.trace else END_TO_END
    if not args.trace:
        print(f"timed jobs={result['jobs']}; job_s and job_s_tail are their median and "
              f"p{result['tail_percentile']:.0f} of wall-clock less CPU time stolen by the "
              f"hypervisor (median wall-clock {result['wall_job_s']:.4f} s)")
    else:
        coverage = result["min_coverage"]
        verdict = "ok" if coverage >= MIN_COVERAGE else f"BELOW {MIN_COVERAGE:.0%}"
        print(f"traced jobs={result['traced_jobs']}; top-level spans cover >= "
              f"{coverage:.1%} of every one ({verdict}); trace.overhead_s is the "
              f"traced minus the untraced median job_s")
    for name, unit in units.items():
        print(f"  {name:<36} {values[name]:>14.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="SHP reproduction benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs and budgets (smoke tests)")
    args = parser.parse_args(argv)
    # A terminated benchmark still stops its job process and cleans up.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro here; run from the repository root", file=sys.stderr)
        return 2
    # Set before numpy is first imported, here and in the job process.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(root / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    run_dir = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        graphs = WORKLOADS[args.workload].make_inputs(run_dir, args.seed, tiny=args.tiny)
        result = _run_harness(root, args, graphs, run_dir / "result.json")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    line = _report(args, result)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
