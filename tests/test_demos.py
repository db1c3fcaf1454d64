import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))

# the files each demo writes next to itself, under output/
WRITES = {
    "ensemble_escape.py": ["additive-stats.json", "violation-fractions.svg"],
    "single_path.py": ["gating.svg", "logistic-path.csv", "voltage.svg"],
}


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    # a copy in tmp_path writes its output there, not into demos/
    script = tmp_path / name
    shutil.copy(ROOT / "demos" / name, script)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    written = tmp_path / "output"
    assert sorted(p.name for p in written.glob("*")) == WRITES.get(name, [])
    if name == "check_invariance.py":
        lines = done.stdout.splitlines()
        assert "hh-logistic  -> satisfied" in lines
        assert "half-plane with boundary-parallel noise: satisfied" in lines
