"""Smoke test of the benchmark: every workload and check, untraced and traced.

    python3 -m pytest -q perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def bench(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", [0, 5])
def test_smoke_untraced(workload, seed):
    result, text = bench("--workload", workload, "--seed", str(seed),
                         "--seconds", "0", "--trace", "0", "--smoke")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 3  # two timed jobs and the memory job
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(
        run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "ops_failed_frac 0 ratio" in text


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_traced(workload):
    result, _ = bench("--workload", workload, "--seed", "0", "--seconds", "0",
                      "--trace", "1", "--smoke")
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == [name for name, _ in tracing.METRICS]
    assert metrics["trace.spans"] > 0


def test_pinned_outputs_catch_a_changed_result(tmp_path):
    ops = workloads.build("ensemble-additive", "smoke", 0, str(tmp_path))
    golden = json.loads((HERE / "golden.json").read_text())["smoke"][
        "ensemble-additive"]
    _, _, results = run.run_job(ops)
    ledger = run.Ledger()
    run.verify(ops, results, ledger, "job", None, golden)
    assert (ledger.attempted, ledger.failed) == (1, 0)
    tampered = {key: "0" * 64 for key in golden}
    run.verify(ops, results, ledger, "job", None, tampered)
    assert (ledger.attempted, ledger.failed) == (2, 1)


def test_trace_self_check_catches_a_changed_counter():
    tracer = tracing.Tracer()
    metrics = {name: 0.0 for name, _ in tracing.METRICS}
    metrics["invariance.face_points"] = 100
    assert tracing.self_check(tracer, metrics, metrics) == []
    changed = dict(metrics, **{"invariance.face_points": 101})
    assert len(tracing.self_check(tracer, changed, metrics)) == 1


def test_trace_self_check_catches_a_span_outside_the_partition():
    tracer = tracing.Tracer()
    tracer.wrap("svgplot.line_chart",
                tracer.wrap("hodgkin_huxley.drift", lambda: None))()
    tracer.wrap("wiener.unknown", lambda: None)()
    metrics = tracer.metrics(1.0)
    assert tracing.self_check(tracer, metrics, metrics) == [
        "span wiener.unknown belongs to no partition term",
        "span svgplot.line_chart of the total svgplot.s has children",
    ]


def test_refuses_a_tree_without_the_package(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for path in HERE.glob("*.py"):
        (bench_dir / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), "--workload",
         "check-regions", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
