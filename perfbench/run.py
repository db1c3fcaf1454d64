"""Benchmark of the sdeinvariance package, run from the repository root.

    python3 perfbench/run.py --workload ensemble-logistic --seed 0 \\
        --seconds 20 --trace 0

With --trace 0 it measures the end-to-end metrics: setup_s (median of
fresh-interpreter set-ups), wall_s (median time of the workload's fixed
job, repeated for --seconds) and peak_mem_mb (tracemalloc peak of one
extra, untimed job).  setup_s and wall_s are host-normalised: the time
of every operation and every set-up is scaled by REF_S over the time of a
fixed Python kernel (HostSpeed) measured right before and after it, so
that the shared host's speed swings cancel.  The raw times are printed
too.  With --trace 1 it alternates untraced and traced jobs and reports
the per-layer metrics of the median traced job, writing its spans to
.perfbench_out/.  --smoke runs every workload and check at a tiny size.

Every operation is checked: at seed 0 against pinned sha256 digests of its
primary outputs, at every seed against seed-independent invariants, and in
every run against the first untraced job of the run, so tracing and memory
measurement provably change no output.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
MIN_JOBS = 2
SETUP_PROBES = {"full": 5, "smoke": 1}
# Typical median time of HostSpeed's kernel on a 2-vCPU Intel Xeon virtual
# machine (Python 3.11, numpy 2.4): the speed that normalised times assume.
REF_S = 1.75e-3

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_mem_mb", "MiB"))

NORMALISED_NOTE = (f"a host-normalised time is each operation's or set-up's "
                   f"raw time x {REF_S * 1e3:g} ms / the mean time of the "
                   "HostSpeed kernel right before and after it")
MEMORY_NOTE = ("peak_mem_mb is the tracemalloc peak: Python objects and "
               "numpy buffers; it does not see RSS, allocator slack or "
               "memory that native libraries allocate for themselves")


class Ledger:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str, problems) -> None:
        self.failed += 1
        for problem in problems:
            print(f"FAILED {what}: {problem}", file=sys.stderr)


class HostSpeed:
    """A fixed kernel, timed around each measured interval.

    The kernel is a Python loop over every fourth of 200k float objects
    (about 6 MB of heap), so like the program it runs the interpreter over
    more memory than the caches hold.  On a shared host, a phase that slows
    the program slows the kernel as well, so an interval scaled by REF_S
    over the kernel's time right before and after it is steadier than the
    raw interval.
    """

    def __init__(self):
        self.values = [float(i) for i in range(200_000)]
        self.medians: list = []

    def kernel(self) -> float:
        acc = 0.0
        for x in self.values[::4]:
            acc += x * 0.5
        return acc

    def kernel_s(self) -> float:
        """Median time of five kernel calls."""
        times = []
        for _ in range(5):
            start = perf_counter()
            self.kernel()
            times.append(perf_counter() - start)
        self.medians.append(statistics.median(times))
        return self.medians[-1]


def run_job(ops, host=None):
    """Run the operations in order.

    Returns (seconds in them, host-normalised seconds, results), where a
    result is the operation's return value or its exception.  Without host
    the two times are equal; with host, the kernel runs before and after
    every operation, outside the time.
    """
    results = []
    raw = norm = 0.0
    before = host.kernel_s() if host else None
    for op in ops:
        start = perf_counter()
        try:
            results.append(op.call())
        except Exception as exc:  # a failed operation is counted, not fatal
            results.append(exc)
        elapsed = perf_counter() - start
        raw += elapsed
        if host:
            after = host.kernel_s()
            elapsed *= 2 * REF_S / (before + after)
            before = after
        norm += elapsed
    return raw, norm, results


def verify(ops, results, ledger, label, reference, golden):
    """Check each result; return its output digests.

    reference holds the digests of the run's first untraced job (None for
    that job itself) and golden the pinned digests (None at other seeds).
    """
    digests = {}
    for op, result in zip(ops, results):
        ledger.attempted += 1
        what = f"{label} {op.name}"
        if isinstance(result, Exception):
            ledger.fail(what, [f"raised {type(result).__name__}: {result}"])
            continue
        try:
            outputs = op.outputs(result)
            problems = list(op.check(result, outputs))
        except Exception as exc:  # unreadable output is a failed operation
            ledger.fail(what, [f"output unreadable: {exc!r}"])
            continue
        for key, data in outputs.items():
            key = f"{op.name}/{key}"
            digests[key] = hashlib.sha256(data).hexdigest()
            if reference is not None and reference.get(key) != digests[key]:
                problems.append(f"{key} differs from the untraced job")
            if golden is not None and golden.get(key) != digests[key]:
                problems.append(f"{key} sha256 {digests[key]} differs from "
                                f"the pinned {golden.get(key)}")
        if problems:
            ledger.fail(what, problems)
    return digests


def measure_setup(args, size, scratch, host):
    """Set-up times of fresh interpreters (import, build, tiny warm-up).

    Returns the raw and the host-normalised times.
    """
    raw, norm = [], []
    before = host.kernel_s()
    for _ in range(SETUP_PROBES[size]):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), args.workload,
             size, str(args.seed), str(scratch)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        raw.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
        after = host.kernel_s()
        norm.append(raw[-1] * 2 * REF_S / (before + after))
        before = after
    return raw, norm


def untraced_pass(ops, args, ledger, golden, host):
    """Raw and host-normalised job times, and the first job's digests."""
    walls, norms, reference = [], [], None
    start = perf_counter()
    while len(walls) < MIN_JOBS or perf_counter() - start < args.seconds:
        wall, norm, results = run_job(ops, host)
        digests = verify(ops, results, ledger, f"job {len(walls)}",
                         reference, golden)
        reference = reference or digests
        walls.append(wall)
        norms.append(norm)
    return walls, norms, reference


def memory_pass(ops, ledger, reference):
    tracemalloc.start()
    try:
        _, _, results = run_job(ops)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    verify(ops, results, ledger, "memory job", reference, None)
    return peak / 2 ** 20


def traced_pass(plain, workloads, tracing, args, size, scratch, ledger,
                golden):
    """Alternate untraced and traced jobs; per-layer metrics and trace."""
    untraced, traced = [], []  # walls; (wall, tracer, metrics)
    reference = None
    start = perf_counter()
    while len(traced) < MIN_JOBS or perf_counter() - start < args.seconds:
        wall, _, results = run_job(plain)
        digests = verify(plain, results, ledger, f"job {len(untraced)}",
                         reference, golden)
        reference = reference or digests
        untraced.append(wall)

        tracer = tracing.Tracer()
        ops = workloads.build(args.workload, size, args.seed, scratch,
                              hooks=tracer)
        with tracer.instrument():
            wall, _, results = run_job(ops)
        label = f"traced job {len(traced)}"
        failed = ledger.failed
        verify(ops, results, ledger, label, reference, None)
        metrics = tracer.metrics(wall)
        problems = tracing.self_check(tracer, metrics,
                                      traced[0][2] if traced else metrics)
        if problems:
            # the job's operations failed the trace self-check
            ledger.failed = failed + len(ops)
            for problem in problems:
                print(f"FAILED {label}: {problem}", file=sys.stderr)
        traced.append((wall, tracer, metrics))

    wall, tracer, metrics = sorted(traced, key=lambda t: t[0])[
        (len(traced) - 1) // 2]
    base = statistics.median(untraced)
    metrics["trace.overhead_frac"] = (
        statistics.median(t[0] for t in traced) - base) / base
    OUT.mkdir(exist_ok=True)
    smoke = "-smoke" if size == "smoke" else ""
    path = OUT / f"trace-{args.workload}-seed{args.seed}{smoke}.json"
    tracer.dump(path, {"workload": args.workload, "seed": args.seed,
                       "size": size, "wall_s": wall,
                       "untraced_wall_s": untraced,
                       "traced_wall_s": [t[0] for t in traced]})
    return metrics, path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: every workload and check in seconds")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sdeinvariance" / "__init__.py").is_file():
        print(f"no sdeinvariance sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    size = "smoke" if args.smoke else "full"
    golden = None
    if args.seed == 0:
        with open(HERE / "golden.json") as fh:
            pinned = json.load(fh)[size]
        golden = {key: digest
                  for part in workloads.PARTS.get(args.workload,
                                                  (args.workload,))
                  for key, digest in pinned[part].items()}

    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"run-{os.getpid()}"
    scratch.mkdir()
    ledger = Ledger()
    lines = [f"workload {args.workload}, seed {args.seed}, size {size}, "
             f"trace {args.trace}"]
    try:
        if args.trace == 0:
            host = HostSpeed()
            setups, setup_norms = measure_setup(args, size, scratch, host)
            ops = workloads.setup(args.workload, size, args.seed, str(scratch))
            walls, norms, reference = untraced_pass(ops, args, ledger, golden,
                                                    host)
            peak = memory_pass(ops, ledger, reference)
            metrics = {"setup_s": statistics.median(setup_norms),
                       "wall_s": statistics.median(norms),
                       "peak_mem_mb": peak}
            units = dict(END_TO_END)
            lines += [
                f"setup_s {metrics['setup_s']:.4f} s host-normalised, median "
                f"of {len(setups)}: "
                f"{', '.join(f'{t:.3f}' for t in setup_norms)} "
                f"(raw median {statistics.median(setups):.4f} s)",
                f"wall_s {metrics['wall_s']:.4f} s host-normalised, median of "
                f"{len(walls)} jobs: {', '.join(f'{t:.3f}' for t in norms)} "
                f"(raw median {statistics.median(walls):.4f} s: "
                f"{', '.join(f'{t:.3f}' for t in walls)})",
                f"peak_mem_mb {peak:.4f} MiB (one untimed job)",
                f"HostSpeed kernel {statistics.median(host.medians) * 1e3:.3f}"
                f" ms median of {len(host.medians)} (REF_S "
                f"{REF_S * 1e3:g} ms)",
                f"note: {NORMALISED_NOTE}",
                f"note: {MEMORY_NOTE}",
            ]
        else:
            ops = workloads.setup(args.workload, size, args.seed, str(scratch))
            metrics, path = traced_pass(ops, workloads, tracing, args, size,
                                        str(scratch), ledger, golden)
            units = tracing.UNITS
            lines += [f"{name} {metrics[name]:.6g} {unit}"
                      if isinstance(metrics[name], float)
                      else f"{name} {metrics[name]} {unit}"
                      for name, unit in tracing.METRICS]
            lines += [f"note: {note}" for note in tracing.NOTES]
            lines.append(
                "self-time partition (an identity): "
                + " + ".join(tracing.SELF_TIME_PARTITION) + " = trace.wall_s")
            lines.append(f"spans written to {path.relative_to(ROOT)}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    frac = ledger.failed / ledger.attempted
    lines.append(f"ops_failed_frac {frac:.6g} ratio ({ledger.failed} of "
                 f"{ledger.attempted} operations failed)")
    print("\n".join(lines))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
