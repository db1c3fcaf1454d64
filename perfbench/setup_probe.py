"""Time one set-up of a workload in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SIZE SEED OUTDIR

Set-up is importing sdeinvariance, building the workload's models and
operations, and one tiny warm-up job.  Prints {"setup_s": seconds}.
"""

from time import perf_counter

START = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> None:
    workload, size, seed, outdir = sys.argv[1:5]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    workloads.setup(workload, size, int(seed), outdir)
    print(json.dumps({"setup_s": perf_counter() - START}))


if __name__ == "__main__":
    main()
