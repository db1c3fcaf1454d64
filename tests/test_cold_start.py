"""Only the checkers import scipy.stats and scipy.optimize.

The test runs in a fresh interpreter, since the test process has long
since loaded both.
"""

import json
import os
import subprocess
import sys
import textwrap

import sdeinvariance
from sdeinvariance import build_model, check_box

SRC = os.path.dirname(os.path.dirname(sdeinvariance.__file__))

# prints, one JSON line each: which lazy modules are loaded after import,
# after simulate and ensemble through the CLI, and after one check_box,
# then the report text of that check_box
COLD_RUN = textwrap.dedent("""
    import json, os, sys
    LAZY = ("scipy.stats", "scipy.optimize")

    def loaded():
        print(json.dumps([name in sys.modules for name in LAZY]))

    from sdeinvariance import build_model, check_box, cli
    loaded()
    out = sys.argv[1]
    assert cli.main(["simulate", "--model", "hh-logistic", "--t-end", "0.1",
                     "--out", os.path.join(out, "p.csv")]) == 0
    assert cli.main(["ensemble", "--model", "hh-logistic", "--n-paths", "4",
                     "--t-end", "0.1",
                     "--out", os.path.join(out, "s.json")]) == 0
    loaded()
    system, info = build_model("hh-additive", sigma=0.5)
    report = check_box(system, info.box)
    loaded()
    print(json.dumps(report.to_json()))
""")


def test_checkers_alone_import_scipy_stats_and_optimize(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", COLD_RUN, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    imported, after_cli, after_check, report = done.stdout.splitlines()
    assert json.loads(imported) == [False, False]
    assert json.loads(after_cli) == [False, False]
    assert json.loads(after_check)[0] is True
    # the lazy import draws the same samples as a warm interpreter
    system, info = build_model("hh-additive", sigma=0.5)
    assert json.loads(report) == check_box(system, info.box).to_json()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.csv", "s.json"]
