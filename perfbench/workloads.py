"""The benchmark's workloads: inputs, operations and correctness checks.

A workload is a list of operations, each one library call that produces a
primary output.  One job runs the operations in order, each starting when
the previous one returns (closed loop, one caller, no worker threads).
Every operation's result is turned into bytes (the pinned outputs) and
checked against seed-independent invariants.

Sizes: ``full`` is the measured job, ``smoke`` runs every operation and
every check in seconds, and ``tiny`` is the warm-up call of set-up.

The operations reach the package through module attributes looked up at
call time (``ensemble.run_ensemble``), so a tracer that patches those
attributes sees the same calls the untraced job makes.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List

import numpy as np

import sdeinvariance.cli as cli
import sdeinvariance.ensemble as ensemble
import sdeinvariance.invariance as invariance
from sdeinvariance import (Box, CheckConfig, Interpretation, JacobianMode,
                           JacobianPolicy, SimConfig, TimeGrid, build_model,
                           stratonovich_to_ito)

SIGMA = 0.5
GATING_BOX = Box.unit((0, 1, 2))

# n_paths: ensemble paths; t_end with dt = 0.01: grid; check: CheckConfig
# fields other than sampler_seed (None: defaults); cli_paths: path ids per
# simulate-cli job.
SIZES = {
    "full": dict(n_paths=1000, t_end=50.0, check=None, cli_paths=2),
    "smoke": dict(n_paths=16, t_end=2.0,
                  check=dict(n_face_samples=64, n_time_samples=2),
                  cli_paths=1),
    "tiny": dict(n_paths=2, t_end=0.02,
                 check=dict(n_face_samples=8, n_time_samples=1),
                 cli_paths=1),
}
DT = 0.01


@dataclass
class Op:
    """One library call of a job.

    call() runs it; outputs(result) gives the primary output bytes by
    name; check(result, outputs) lists what is wrong with them.
    """

    name: str
    call: Callable[[], Any]
    outputs: Callable[[Any], Dict[str, bytes]]
    check: Callable[[Any, Dict[str, bytes]], List[str]]


class NoHooks:
    """Model hooks of the untraced job: models pass through unchanged."""

    @staticmethod
    def wrap_model(system):
        return system

    @staticmethod
    def wrap_converted(system):
        return system


def _grid(size: str) -> TimeGrid:
    t_end = SIZES[size]["t_end"]
    return TimeGrid(0.0, t_end, int(round(t_end / DT)))


# -- ensembles ---------------------------------------------------------------

def _stats_problems(stats, n_paths: int, grid: TimeGrid, seed: int,
                    scheme: str) -> List[str]:
    bad = []
    shape = (grid.n_steps + 1, 4)
    if (stats.n_paths, stats.seed, stats.scheme) != (n_paths, seed, scheme):
        bad.append("n_paths, seed or scheme differ from the inputs")
    if stats.grid_n_steps != grid.n_steps or stats.grid_t_end != grid.t_end:
        bad.append("grid differs from the inputs")
    if stats.mean.shape != shape:
        bad.append(f"mean has shape {stats.mean.shape}, expected {shape}")
    if sorted(stats.quantiles) != ["q05", "q50", "q95"]:
        bad.append(f"quantile keys {sorted(stats.quantiles)}")
        return bad
    q = [stats.quantiles[k] for k in ("q05", "q50", "q95")]
    if any(a.shape != shape for a in q):
        bad.append("a quantile array has the wrong shape")
        return bad
    lo, hi = np.array(stats.coord_min), np.array(stats.coord_max)
    if not all(((lo <= a) & (a <= hi)).all() for a in q):
        bad.append("a quantile lies outside [coord_min, coord_max]")
    if not ((q[0] <= q[1]).all() and (q[1] <= q[2]).all()):
        bad.append("quantiles are not ordered q05 <= q50 <= q95")
    if stats.n_violating != len(stats.first_exit_times):
        bad.append("n_violating differs from the number of exits")
    if stats.violation_fraction != stats.n_violating / n_paths:
        bad.append("violation_fraction differs from n_violating / n_paths")
    exits = {p for p, _ in stats.first_exit_times}
    if not {p for p, _ in stats.nonfinite_paths} <= exits:
        bad.append("a non-finite path is missing from the exits")
    if not all(grid.t0 <= t <= grid.t_end for _, t in stats.first_exit_times):
        bad.append("an exit time lies outside the grid")
    return bad


def _ensemble_ops(size: str, seed: int, hooks, readings) -> List[Op]:
    n_paths = SIZES[size]["n_paths"]
    grid = _grid(size)
    ops = []
    for model, interp, scheme in readings:
        system, info = build_model(model, sigma=SIGMA, interpretation=interp)
        system = hooks.wrap_model(system)
        cfg = SimConfig(grid=grid, x0=tuple(info.x0), seed=seed)

        def call(system=system, cfg=cfg):
            return ensemble.run_ensemble(system, cfg, n_paths, GATING_BOX,
                                         n_workers=1)

        def check(stats, outputs, scheme=scheme):
            return _stats_problems(stats, n_paths, grid, seed, scheme)

        ops.append(Op(interp.value, call,
                      lambda stats: {"stats.json": stats.to_json().encode()},
                      check))
    return ops


def ensemble_logistic(size, seed, hooks, outdir):
    return _ensemble_ops(size, seed, hooks, [
        ("hh-logistic", Interpretation.ITO, "euler-maruyama"),
        ("hh-logistic", Interpretation.STRATONOVICH, "euler-heun"),
    ])


def ensemble_additive(size, seed, hooks, outdir):
    return _ensemble_ops(size, seed, hooks, [
        ("hh-additive", Interpretation.ITO, "euler-maruyama"),
    ])


# -- structural checks -------------------------------------------------------

def _report_problems(report, verdict: str, n_faces: int, cfg: CheckConfig,
                     diffusion_free: bool, kind_on_every_face=None
                     ) -> List[str]:
    bad = []
    if report.verdict.value != verdict:
        bad.append(f"verdict {report.verdict.value}, expected {verdict}")
    if len(report.faces) != n_faces:
        bad.append(f"{len(report.faces)} faces, expected {n_faces}")
    for face in report.faces:
        if face.n_samples != cfg.n_face_samples:
            bad.append(f"face {face.index} has {face.n_samples} samples")
        if len(face.witnesses) > cfg.max_witnesses_per_face:
            bad.append(f"face {face.index} exceeds the witness cap")
        if diffusion_free and not face.max_diffusion_abs <= 1e-12:
            bad.append(f"face {face.index} has |g| = "
                       f"{face.max_diffusion_abs}")
        kinds = {w.kind for w in face.witnesses}
        if kind_on_every_face is not None and kind_on_every_face not in kinds:
            bad.append(f"face {face.index} has no {kind_on_every_face} "
                       "witness")
    if (report.verdict.value == "violated") != bool(report.witnesses):
        bad.append("verdict disagrees with the witness list")
    return bad


def check_regions(size, seed, hooks, outdir):
    cfg = CheckConfig(sampler_seed=seed, **(SIZES[size]["check"] or {}))
    models = {name: hooks.wrap_model(build_model(name, sigma=SIGMA)[0])
              for name in ("hh-additive", "hh-logistic", "hh-det")}
    strat, _ = build_model("hh-logistic", sigma=SIGMA,
                           interpretation=Interpretation.STRATONOVICH)
    converted = hooks.wrap_converted(stratonovich_to_ito(
        hooks.wrap_model(strat), JacobianPolicy(JacobianMode.ANALYTIC)))
    logistic = models["hh-logistic"]
    poly = GATING_BOX.as_polyhedron(4)

    def op(name, call, verdict, n_faces, diffusion_free, kind=None):
        return Op(name, call,
                  lambda report: {"report.json": report.to_json().encode()},
                  lambda report, outputs: _report_problems(
                      report, verdict, n_faces, cfg, diffusion_free, kind))

    def box(system):
        return lambda: invariance.check_box(system, GATING_BOX, cfg)

    return [
        op("box-hh-additive", box(models["hh-additive"]), "violated", 6,
           False, "diffusion_nonzero"),
        op("box-hh-logistic", box(logistic), "satisfied", 6, True),
        op("box-hh-det", box(models["hh-det"]), "satisfied", 6, True),
        op("polyhedron-hh-logistic",
           lambda: invariance.check_polyhedron(logistic, poly, cfg),
           "satisfied", 6, True),
        op("comparison-hh-logistic",
           lambda: invariance.check_comparison(logistic, logistic, (0, 1, 2),
                                               cfg),
           "violated", 3, True, "drift_sign"),
        op("box-hh-logistic-strat-as-ito", box(converted), "satisfied", 6,
           True),
    ]


# -- command line ------------------------------------------------------------

def _csv_problems(data: bytes, grid: TimeGrid, x0) -> List[str]:
    rows = list(csv.reader(io.StringIO(data.decode())))
    if not rows or rows[0] != ["t", "x_1", "x_2", "x_3", "V"]:
        return ["CSV header is wrong"]
    body = rows[1:]
    if len(body) != grid.n_steps + 1:
        return [f"CSV has {len(body)} rows, expected {grid.n_steps + 1}"]
    values = np.array(body, dtype=float)
    bad = []
    if not np.array_equal(values[:, 0], grid.times()):
        bad.append("CSV time column differs from the grid")
    if not np.isfinite(values).all():
        bad.append("CSV holds a non-finite value")
    if not np.array_equal(values[0, 1:], np.asarray(x0)):
        bad.append("CSV first state differs from the model's x0")
    return bad


def _svg_problems(name: str, data: bytes, panel: str) -> List[str]:
    text = data.decode()
    if not (text.startswith("<svg") and text.endswith("</svg>\n")):
        return [f"{name} is not a whole SVG document"]
    if f"hh-logistic ({panel})" not in text:
        return [f"{name} lacks its panel title"]
    return []


def simulate_cli(size, seed, hooks, outdir):
    grid = _grid(size)
    _, info = build_model("hh-logistic", sigma=SIGMA)
    ops = []
    for path_id in range(SIZES[size]["cli_paths"]):
        stem = os.path.join(outdir, f"path{path_id}")
        files = {"csv": stem + ".csv",
                 "gating.svg": stem + "-gating.svg",
                 "voltage.svg": stem + "-voltage.svg"}
        argv = ["simulate", "--model", "hh-logistic", "--sigma", str(SIGMA),
                "--t-end", repr(grid.t_end), "--dt", repr(DT),
                "--seed", str(seed), "--path-id", str(path_id),
                "--out", files["csv"], "--plot", stem]

        def call(argv=argv, files=files):
            for path in files.values():
                if os.path.exists(path):
                    os.remove(path)
            return cli.main(argv)

        def outputs(code, files=files):
            out = {}
            for key, path in files.items():
                with open(path, "rb") as fh:
                    out[key] = fh.read()
            return out

        def check(code, data):
            if code != 0:
                return [f"exit code {code}"]
            return (_csv_problems(data["csv"], grid, info.x0)
                    + _svg_problems("gating.svg", data["gating.svg"],
                                    "gating")
                    + _svg_problems("voltage.svg", data["voltage.svg"],
                                    "voltage"))

        ops.append(Op(f"path{path_id}", call, outputs, check))
    return ops


# Workloads that run other workloads' operations in order, as one job.
PARTS = {"structural-cli": ("check-regions", "simulate-cli")}


def structural_cli(size, seed, hooks, outdir):
    return [op for part in PARTS["structural-cli"]
            for op in WORKLOADS[part](size, seed, hooks, outdir)]


# name -> function(size, seed, hooks, outdir) -> operations
WORKLOADS = {
    "ensemble-logistic": ensemble_logistic,
    "structural-cli": structural_cli,
    "ensemble-additive": ensemble_additive,
    "check-regions": check_regions,
    "simulate-cli": simulate_cli,
}


def build(name: str, size: str, seed: int, outdir: str,
          hooks=NoHooks) -> List[Op]:
    """The operations of one job of a workload."""
    return WORKLOADS[name](size, seed, hooks, outdir)


def setup(name: str, size: str, seed: int, outdir: str) -> List[Op]:
    """Build a workload's operations and warm up with one tiny job."""
    ops = build(name, size, seed, outdir)
    for op in build(name, "tiny", seed, outdir):
        op.call()
    return ops

