"""Self-test of the benchmark.

    python3 -m pytest -q bench/selftest.py

It runs each workload once traced and checks that every per-layer metric
is non-zero on some workload and zero where the design says it must be,
so a wrapper patched where no call site looks fails here instead of
reporting a silent 0.  It also checks the verdict checker, the result
line of an untraced run, and the refusal to run without the sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)

# Layers that the design says do no work on a workload.
PREDICTED_ZEROS = {
    "tower": ["polynomials."],
    "cutoff": ["polynomials.", "prolongation.jacobi_", "prolongation.bracket_vec_calls"],
}


def run_bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    return {w["name"]: last_json(run_bench(w["name"], 1)) for w in BENCHMARK["workloads"]}


def test_traced_runs_are_correct_and_complete(traced):
    names = [m["name"] for m in BENCHMARK["per_layer"]]
    for workload, result in traced.items():
        assert result["correct"] and result["failed"] == 0, workload
        assert list(result["metrics"]) == names, workload


def test_every_layer_metric_is_nonzero_somewhere(traced):
    for metric in BENCHMARK["per_layer"]:
        name = metric["name"]
        assert any(r["metrics"][name]["value"] > 0 for r in traced.values()), name


def test_predicted_zeros_hold(traced):
    for workload, prefixes in PREDICTED_ZEROS.items():
        metrics = traced[workload]["metrics"]
        zero = [n for n in metrics if n.startswith(tuple(prefixes))]
        assert zero, workload
        for name in zero:
            assert metrics[name]["value"] == 0, (workload, name)


def test_untraced_result_line():
    result = last_json(run_bench("cutoff", 0))
    assert result["correct"] and result["attempted"] >= len(workloads.WORKLOADS["cutoff"])
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    for m in BENCHMARK["end_to_end"]:
        value = result["metrics"][m["name"]]
        assert value["value"] > 0 and value["unit"] == m["unit"]


def test_checker_rejects_wrong_verdicts():
    for jobs in workloads.WORKLOADS.values():
        for job in jobs:
            assert workloads.check(job, 0, "") != []
            assert workloads.check(job, 1, "") != []


def test_refuses_to_run_without_sources():
    bare = os.path.join(ROOT, ".bench_out", f"bare-{os.getpid()}")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run_bench("cutoff", 0, cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare)
