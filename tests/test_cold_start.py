"""The package never loads scipy.stats, and scipy.optimize only for the
linear-programming fallback of check_polyhedron, which these runs miss.

The test runs in a fresh interpreter, since the test process has long
since loaded both.
"""

import json
import os
import subprocess
import sys
import textwrap

import sdeinvariance
from sdeinvariance import (Box, build_model, check_box, check_comparison,
                           check_polyhedron, cli)

SRC = os.path.dirname(os.path.dirname(sdeinvariance.__file__))

CONVERT = ["convert", "--model", "hh-logistic", "--samples", "64",
           "--time-samples", "2", "--out"]

# prints, one JSON line each: which lazy modules are loaded after import,
# after simulate and ensemble through the CLI, and after the three
# checkers and convert (whose text goes to stdout between them), then the
# checkers' reports
COLD_RUN = textwrap.dedent(f"""
    import json, os, sys
    LAZY = ("scipy.stats", "scipy.optimize")

    def loaded():
        print(json.dumps([name in sys.modules for name in LAZY]))

    from sdeinvariance import (Box, build_model, check_box, check_comparison,
                               check_polyhedron, cli)
    loaded()
    out = sys.argv[1]
    assert cli.main(["simulate", "--model", "hh-logistic", "--t-end", "0.1",
                     "--out", os.path.join(out, "p.csv")]) == 0
    assert cli.main(["ensemble", "--model", "hh-logistic", "--n-paths", "4",
                     "--t-end", "0.1",
                     "--out", os.path.join(out, "s.json")]) == 0
    loaded()
    system, info = build_model("hh-additive", sigma=0.5)
    reports = [check_box(system, info.box),
               check_comparison(system, system, (0, 1, 2)),
               check_polyhedron(system, Box.unit((0, 1, 2)).as_polyhedron(4))]
    assert cli.main({CONVERT!r} + [os.path.join(out, "c.json")]) == 0
    loaded()
    print(json.dumps([r.to_dict() for r in reports]))
""")


def test_the_package_never_loads_scipy_stats(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", COLD_RUN, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    imported, after_cli, after_checks, cold = lines[:2] + lines[-2:]
    assert json.loads(imported) == [False, False]
    assert json.loads(after_cli) == [False, False]
    assert json.loads(after_checks) == [False, False]
    # a cold interpreter draws the same samples as a warm one
    system, info = build_model("hh-additive", sigma=0.5)
    warm = [check_box(system, info.box),
            check_comparison(system, system, (0, 1, 2)),
            check_polyhedron(system, Box.unit((0, 1, 2)).as_polyhedron(4))]
    assert json.loads(cold) == [json.loads(r.to_json()) for r in warm]
    (tmp_path / "warm").mkdir()
    assert cli.main(CONVERT + [str(tmp_path / "warm" / "c.json")]) == 0
    assert ((tmp_path / "warm" / "c.json").read_bytes()
            == (tmp_path / "c.json").read_bytes())
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "c.json", "p.csv", "s.json", "warm"]
