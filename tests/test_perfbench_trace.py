import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# workload -> counters that must read above 0.  Each is fed by a package
# attribute the tracer patches, so a renamed attribute shows here.  The
# integrators counters also need the increments provider of
# integrate_batch under its keyword, increments_for.
COUNTERS = {
    "ensemble-logistic": ("wiener.normals", "hodgkin_huxley.drift_calls",
                          "hodgkin_huxley.diffusion_calls"),
    "structural-cli": ("invariance.face_points", "integrators.csv_bytes",
                       "integrators.steps", "integrators.path_steps",
                       "svgplot.bytes", "wiener.normals"),
}


@pytest.mark.parametrize("workload", sorted(COUNTERS))
def test_traced_benchmark_smoke(tmp_path, workload):
    # a copy runs the tracer against the package as it is, and writes its
    # .perfbench_out/ under tmp_path
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "0", "--seconds", "0",
         "--trace", "1", "--smoke"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    # every operation is checked against perfbench/golden.json, so this
    # also holds the seed-0 goldens
    assert result["failed"] == 0, done.stderr
    metrics = result["metrics"]
    for name in COUNTERS[workload]:
        assert metrics[name]["value"] > 0, name
