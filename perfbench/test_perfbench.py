"""Smoke tests of the benchmark: tiny inputs, the same code paths.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from harness import END_TO_END, PER_LAYER, check_assignment
from repro.api import run
from repro.storage import open_store_view
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


#: Workloads left out of BENCHMARK.json because the current program fails
#: their output check, with the failure they show (see
#: test_serving_churn_keeps_epsilon_balance).
KNOWN_FAILURES = {"serving-churn": "largest bucket"}


def _run(workload: str, trace: int) -> tuple[dict, list[str]]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    return json.loads(lines[-1]), [line for line in lines if "FAILED" in line]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_runs_end_to_end(workload, trace):
    result, failures = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 4
    if workload in KNOWN_FAILURES:
        assert all(KNOWN_FAILURES[workload] in line for line in failures)
    else:
        assert result["correct"] and result["failed"] == 0 and not failures
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] >= 0.95
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_metric_tables_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(PER_LAYER.items())
    for workload in BENCHMARK["workloads"]:
        assert workload["why"] == WORKLOADS[workload["name"]].why
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(WORKLOADS) - set(KNOWN_FAILURES)


def test_mp_assignment_is_bitwise_equal_to_sim(tmp_path):
    workload = WORKLOADS["dshp-mp"]
    spec = workload.spec(workload.make_input(tmp_path, seed=5, tiny=True), 5, tiny=True)
    sim = dataclasses.replace(spec, execution=dataclasses.replace(spec.execution, backend="sim"))
    mp_assignment = run(spec).assignment
    sim_assignment = run(sim).assignment
    assert mp_assignment.dtype == sim_assignment.dtype
    assert mp_assignment.tobytes() == sim_assignment.tobytes()


def test_balance_check_rejects_an_overfull_bucket():
    assignment = np.zeros(100, dtype=np.int32)
    assignment[50:] = 1
    assert check_assignment(assignment, 100, 2, 0.05, 1, bernoulli=False) == []
    assignment[:60] = 0
    assert check_assignment(assignment, 100, 2, 0.05, 1, bernoulli=False)
    assert check_assignment(assignment[:99], 100, 2, 0.05, 1, bernoulli=False)
    assert check_assignment(assignment + 1, 100, 2, 0.05, 1, bernoulli=False)


@pytest.mark.xfail(
    strict=True,
    reason="warm-started SHP-2 repair lets the largest bucket drift past the "
    "epsilon cap by a few vertices per serving round",
)
def test_serving_churn_keeps_epsilon_balance(tmp_path):
    workload = WORKLOADS["serving-churn"]
    path = workload.make_input(tmp_path, seed=1)
    spec = workload.spec(path, 1)
    k, epsilon, levels = workload.balance(spec)
    problems = check_assignment(
        run(spec).assignment, open_store_view(path).num_data, k, epsilon, levels,
        workload.bernoulli,
    )
    assert problems == []
