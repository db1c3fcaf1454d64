import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_benchmark_smoke(tmp_path):
    # a copy runs the tracer against the package as it is, and writes its
    # .perfbench_out/ under tmp_path
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"),
         "--workload", "ensemble-logistic", "--seed", "0", "--seconds", "0",
         "--trace", "1", "--smoke"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["failed"] == 0, done.stderr
    metrics = result["metrics"]
    for name in ("wiener.normals", "hodgkin_huxley.drift_calls",
                 "hodgkin_huxley.diffusion_calls"):
        assert metrics[name]["value"] > 0, name
