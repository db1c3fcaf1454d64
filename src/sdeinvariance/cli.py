"""Command-line front end.

Four subcommands:

    check      run the box invariance checker on a model, report JSON
    simulate   integrate one path, write CSV (optionally SVG charts)
    ensemble   run many paths, write summary statistics JSON
    convert    show the Stratonovich/Ito drift correction and verdict parity

Exit codes: 0 success (check: region satisfied), 2 check found a
violation, 1 usage or model errors.  Each command builds every reading it
runs, its region, its grid of round((t_end - t0) / dt) steps and the name
of every file it writes before its first model evaluation, and refuses
each target by _check_targets' one rule, so a bad one loses no run.

Options may also come from a JSON config file (--config).  Its keys are
the long option names with underscores (n_paths for --n-paths).  Each
value becomes its flag's text, which argparse alone converts and checks:
an object as JSON, a list as "a,b,c", a float as its repr less a
trailing ".0" (2.0 gives 2, -0.0 keeps its sign), anything else as str.
So 2.5 or true for an integer option is an error, which names the file.
Null values and other subcommands' keys are ignored, so one file serves
every command.  A flag beats the file, which beats the default; the
seed then falls back to $SDE_SEED, then 0.  Models are registry names
(hh-det, hh-additive, hh-logistic) or a path to a Python file exposing
build(sigma=..., interpretation=...) -> (SdeSystem, ModelInfo).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys as _sys
from contextlib import nullcontext
from functools import partial
from typing import Callable, Iterable, Optional, Sequence, Tuple

import numpy as np

from .conversion import JacobianMode, correction_batch, stratonovich_to_ito
from .core import (Box, IntegrationError, Interpretation, ModelEvaluationError,
                   ModelInfo, SdeSystem, TimeGrid, UsageError)
from .ensemble import run_ensemble
from .hodgkin_huxley import build_model
from .integrators import (SimConfig, simulate, write_csv_rows,
                          write_trajectory_csv)
from .invariance import (CheckConfig, Verdict, _finite_widths,
                         _sampling_intervals, check_box)
from .svgplot import line_chart
from .wiener import WienerGrid

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATED = 2

_INTERPRETATIONS = ("ito", "stratonovich")

# dest of each checker option -> the CheckConfig field it sets
_CHECK_FIELDS = {
    "samples": "n_face_samples", "time_samples": "n_time_samples",
    "t_max_check": "t_max_check", "eps_drift": "eps_drift",
    "eps_diff": "eps_diff", "sampler_seed": "sampler_seed",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise UsageError(message)


def _flag_text(value) -> str:
    """A config value as its flag's text, by the module docstring's rule."""
    if isinstance(value, dict):
        return json.dumps(value)
    if isinstance(value, list):
        return ",".join(map(str, value))
    text = str(value)
    return text.removesuffix(".0") if isinstance(value, float) else text


def _config_flags(commands: dict, command: str, path: str) -> list:
    """The config file's entries for one subcommand as --long-name=text;
    a key is known when some subcommand has an option of that dest, and
    keys of other subcommands and null values are dropped."""
    if not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise UsageError("config file must hold a JSON object")
    options = {name: {a.dest: a.option_strings[0] for a in sub._actions
                      if a.option_strings and a.dest not in ("help", "config")}
               for name, sub in commands.items()}
    unknown = set(data).difference(*options.values())
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return [f"{options[command][key]}={_flag_text(value)}"
            for key, value in data.items()
            if key in options[command] and value is not None]


def _parse_sigma(text: str):
    """--sigma's "a,b,c" text as the builders take it: a float or a tuple."""
    try:
        sigma = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"sigma must be a number or a list of numbers, not {text!r}")
    return sigma[0] if len(sigma) == 1 else sigma


def _parse_box(text: str) -> Box:
    """A --box value: a JSON object with indices/lower/upper."""
    try:
        value = json.loads(text)
        return Box(tuple(value["indices"]), tuple(value["lower"]),
                   tuple(value["upper"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise argparse.ArgumentTypeError(
            f"box must be a JSON object of indices/lower/upper: {exc}")


def _load_plugin(path: str):
    if not os.path.exists(path):
        raise UsageError(f"model file not found: {path}")
    spec = importlib.util.spec_from_file_location("sdeinv_user_model", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    build = getattr(module, "build", None)
    if not callable(build):
        raise UsageError(
            f"model file {path} must define build(sigma=..., "
            "interpretation=...)")
    return build


def _parse(parser: argparse.ArgumentParser,
           argv: Optional[Sequence[str]]) -> argparse.Namespace:
    """Flags over --config values over defaults, and the model to run.

    The file's flags go first, so the command line's win; those parsed
    alone already, so an error in parsing both is the file's.  A model
    name ending in .py is a plugin file, executed here, once, into
    ns.plugin; a registry name leaves ns.plugin None."""
    argv = list(_sys.argv[1:] if argv is None else argv)
    ns = parser.parse_args(argv)
    if ns.config is not None:
        flags = _config_flags(parser.commands, ns.command, ns.config)
        try:
            ns = parser.parse_args([argv[0], *flags, *argv[1:]])
        except UsageError as exc:
            raise UsageError(f"{ns.config}: {exc}")
    if ns.model is None:
        raise UsageError("no model given (use --model or a config file)")
    if "seed" in ns and ns.seed is None:
        env = os.environ.get("SDE_SEED", "0")
        try:
            ns.seed = int(env)
        except ValueError:
            raise UsageError(f"SDE_SEED is not an integer: {env!r}")
    ns.plugin = _load_plugin(ns.model) if ns.model.endswith(".py") else None
    return ns


def _reading(ns: argparse.Namespace, interpretation: Interpretation
             ) -> Tuple[SdeSystem, ModelInfo, Optional[Box]]:
    """One reading of the model, its info and its region (--box, else the
    model's; None if neither).  build_model rejects a name it does not
    know; a plugin's build() must return (SdeSystem, ModelInfo)."""
    build = ns.plugin or partial(build_model, ns.model)
    result = build(sigma=ns.sigma, interpretation=interpretation)
    try:
        system, info = result
    except (TypeError, ValueError):
        system = info = None
    if not (isinstance(system, SdeSystem) and isinstance(info, ModelInfo)):
        raise UsageError("model build() must return (SdeSystem, ModelInfo)")
    if info.x0.size != system.m:
        raise UsageError(f"model x0 has size {info.x0.size}, not m={system.m}")
    return system, info, vars(ns).get("box") or info.box


def _check_config(ns: argparse.Namespace) -> CheckConfig:
    return CheckConfig(**{field: getattr(ns, dest)
                          for dest, field in _CHECK_FIELDS.items()})


def _sim_config(ns: argparse.Namespace, info: ModelInfo) -> SimConfig:
    """The grid of round((t_end - t0) / dt) steps and the seed; the model
    gives x0 and the default t_end."""
    t_end = info.horizon if ns.t_end is None else ns.t_end
    if not ns.dt > 0:
        raise UsageError("dt must be positive")
    n_steps = (t_end - ns.t0) / ns.dt
    if not np.isfinite(n_steps):
        raise UsageError(f"t0, t_end and dt give {n_steps} steps")
    n_steps = int(round(n_steps))
    if n_steps < 1:
        raise UsageError("grid is shorter than one step")
    return SimConfig(grid=TimeGrid(ns.t0, t_end, n_steps), x0=tuple(info.x0),
                     seed=ns.seed)


def _check_targets(flag: str, name: Optional[str], files: Iterable[str] = (),
                   folder: bool = False) -> None:
    """Refuse an empty name, a directory (for a folder, its nearest existing
    ancestor, as makedirs makes the rest) that is missing or not writable,
    and any of files, the names to be written, that is a directory."""
    if name is None:
        return
    if name == "":
        raise UsageError(f"{flag} must not be empty")
    near = name if folder else os.path.dirname(name) or "."
    while folder and not os.path.lexists(near):
        near = os.path.dirname(near) or "."
    if not (os.path.isdir(near) and os.access(near, os.W_OK)):
        raise UsageError(f"{flag} {name}: no writable directory {near}")
    for path in files if near == name or not folder else ():
        if os.path.isdir(path):
            raise UsageError(f"{flag} {path} is a directory")


def _write_text(path: Optional[str], text: str) -> None:
    if path is None:
        _sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def cmd_check(ns: argparse.Namespace) -> int:
    system, info, box = _reading(ns, Interpretation(ns.interpretation))
    if box is None:
        raise UsageError("model declares no region; pass --box")
    _check_targets("--out", ns.out, [ns.out])
    report = check_box(system, box, _check_config(ns))
    _write_text(ns.out, report.to_json(indent=2) + "\n")
    return EXIT_OK if report.verdict is Verdict.SATISFIED else EXIT_VIOLATED


def cmd_simulate(ns: argparse.Namespace) -> int:
    system, info, _ = _reading(ns, Interpretation(ns.interpretation))
    cfg = _sim_config(ns, info)
    panels = {f"{ns.plot}-{suffix}.svg": (suffix, cols)
              for suffix, cols in info.panels if ns.plot is not None}
    _check_targets("--out", ns.out, [ns.out])
    _check_targets("--plot", ns.plot, panels)
    noise = WienerGrid.generate(ns.seed, ns.path_id, cfg.grid, system.r)
    traj = simulate(system, cfg, noise)
    labels = system.labels()
    with (open(ns.out, "w") if ns.out else nullcontext(_sys.stdout)) as fh:
        write_trajectory_csv(traj, fh, labels)
    for name, (suffix, cols) in panels.items():
        chart = line_chart(
            traj.t, [(labels[i], traj.states[:, i]) for i in cols],
            title=f"{system.name} ({suffix})", x_label="t",
            y_label=", ".join(labels[i] for i in cols))
        with open(name, "w") as fh:
            fh.write(chart)
    return EXIT_OK


def _dump_name(directory: str, stem: str, pid: int) -> str:
    return os.path.join(directory, f"{stem}-{pid:05d}.csv")


def _path_tee(directory: str, stem: str, times: np.ndarray,
              labels: Sequence[str]) -> Callable[[int, np.ndarray], None]:
    """run_ensemble's on_block hook for --dump-paths: appends each block's
    rows for path p to its _dump_name file, which the first block creates
    with its header; one file is open at a time however many paths run."""
    def tee(start: int, states: np.ndarray) -> None:
        first = start == 0
        if first:
            os.makedirs(directory, exist_ok=True)
        rows = times[start:start + states.shape[1]]
        for pid, path in enumerate(states):
            with open(_dump_name(directory, stem, pid), "w" if first else "a",
                      newline="") as fh:
                write_csv_rows(fh, rows, path, labels if first else None)
    return tee


def cmd_ensemble(ns: argparse.Namespace) -> int:
    names = (_INTERPRETATIONS if ns.interpretation == "both"
             else (ns.interpretation,))
    runs = []
    for nm in names:
        system, info, box = _reading(ns, Interpretation(nm))
        runs.append((nm, f"{system.name}-{nm}", system, box,
                     _sim_config(ns, info)))
    _check_targets("--out", ns.out, [ns.out])
    _check_targets("--dump-paths", ns.dump_paths, (
        _dump_name(ns.dump_paths, stem, pid)
        for _, stem, *_ in runs for pid in range(ns.n_paths)), folder=True)
    if ns.dump_paths is not None and ns.n_paths > 64:
        _sys.stderr.write(f"warning: dumping {len(runs) * ns.n_paths} path "
                          f"files to {ns.dump_paths}\n")
    results = {}
    for nm, stem, system, box, cfg in runs:
        # the ensemble's own paths: a failed path is frozen, not fatal
        tee = None if ns.dump_paths is None else _path_tee(
            ns.dump_paths, stem, cfg.grid.times(), system.labels())
        results[nm] = run_ensemble(system, cfg, ns.n_paths, box, tol=ns.tol,
                                   on_block=tee).to_dict()
    payload = results if len(names) > 1 else results[names[0]]
    _write_text(ns.out, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def cmd_convert(ns: argparse.Namespace) -> int:
    system, info, box = _reading(ns, Interpretation.STRATONOVICH)
    _check_targets("--out", ns.out, [ns.out])
    check = _check_config(ns)
    mode = JacobianMode.for_system(system)
    lines = [f"model: {system.name} (stratonovich reading of (f, g))",
             f"jacobian mode: {mode.value}"]
    samples = np.array([info.x0], dtype=float)
    if box is not None:  # five points along the box's diagonal
        # finite bounds as they are; a coordinate with an infinite end
        # takes its sampling interval (see CheckConfig)
        a, b = box.limits(system.m)
        lo, hi = _sampling_intervals(system, check, box)
        finite = np.isfinite(a) & np.isfinite(b)
        lo, hi = _finite_widths(np.where(finite, a, lo),
                                np.where(finite, b, hi))
        frac = np.array([[0.0], [0.25], [0.5], [0.75], [1.0]])
        idx = list(box.indices)
        samples = samples.repeat(5, axis=0)
        samples[:, idx] = (lo + frac * (hi - lo))[:, idx]
    lines.append("drift correction h/2 at t=0:")
    sample_rows = []
    for x, h in zip(samples, correction_batch(system, 0.0, samples, mode)):
        half = 0.5 * h
        xs = ", ".join(f"{v:.4g}" for v in x)
        hs = ", ".join(f"{v:.6g}" for v in half)
        lines.append(f"  x = ({xs})  ->  h/2 = ({hs})")
        sample_rows.append({"x": [float(v) for v in x],
                            "half_h": [float(v) for v in half]})
    payload = {"model": system.name, "jacobian_mode": mode.value,
               "correction_samples": sample_rows}
    if box is not None:
        original = check_box(system, box, check)
        converted = check_box(stratonovich_to_ito(system, mode), box, check)
        equal = original.verdict is converted.verdict
        lines.append(f"check verdict, stratonovich form: "
                     f"{original.verdict.value}")
        lines.append(f"check verdict, converted ito form: "
                     f"{converted.verdict.value}")
        lines.append(f"verdict equality: {'equal' if equal else 'different'}")
        payload.update({"verdict_original": original.verdict.value,
                        "verdict_converted": converted.verdict.value,
                        "verdicts_equal": equal})
    else:
        lines.append("no region declared; skipping verdict comparison")
    print("\n".join(lines))
    if ns.out is not None:
        _write_text(ns.out, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def _add_command(sub, name: str, func, help: str,
                 interpretations: Tuple[str, ...] = _INTERPRETATIONS
                 ) -> argparse.ArgumentParser:
    """A subcommand parser with the options every subcommand takes.

    --interpretation offers the given readings, and is left out when there
    are none.
    """
    p = sub.add_parser(name, help=help)
    p.set_defaults(func=func)
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--model", help="registry name or path to a .py plug-in")
    p.add_argument("--sigma", type=_parse_sigma,
                   help="noise amplitude (scalar or a,b,c)")
    if interpretations:
        p.add_argument("--interpretation", choices=interpretations,
                       default="ito", help="reading of (f, g); paths "
                       "integrate by Euler-Maruyama for ito, Euler-Heun "
                       "for stratonovich")
    p.add_argument("--out", help="output file (default: stdout)")
    return p


def _add_grid(p: argparse.ArgumentParser) -> None:
    """The grid options and the seed of the keyed noise."""
    p.add_argument("--seed", type=int,
                   help="stream seed (default: $SDE_SEED, else 0)")
    p.add_argument("--t0", type=float, default=0.0,
                   help="grid start (default %(default)s)")
    p.add_argument("--t-end", type=float,
                   help="grid end (default: model horizon)")
    p.add_argument("--dt", type=float, default=0.01,
                   help="step size (default %(default)s)")


def _add_box(p: argparse.ArgumentParser) -> None:
    p.add_argument("--box", type=_parse_box, help="region override, a JSON "
                   "object of indices/lower/upper (default: the model's)")


def _add_check_knobs(p: argparse.ArgumentParser) -> None:
    """The CheckConfig options, defaulting to CheckConfig(), and --box."""
    defaults = CheckConfig()
    for dest, field in _CHECK_FIELDS.items():
        value = getattr(defaults, field)
        p.add_argument("--" + dest.replace("_", "-"), type=type(value),
                       default=value, help=f"{field} (default %(default)s)")
    _add_box(p)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sdeinv",
                     description="Invariance checking and simulation for "
                                 "SDE systems")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # name -> subparser, for --config

    _add_check_knobs(_add_command(sub, "check", cmd_check,
                                  "box invariance check"))

    p_sim = _add_command(sub, "simulate", cmd_simulate,
                         "integrate one path to CSV")
    _add_grid(p_sim)
    p_sim.add_argument("--path-id", type=int, default=0,
                       help="keyed path to draw (default %(default)s)")
    p_sim.add_argument("--plot", help="SVG chart file prefix")

    p_ens = _add_command(sub, "ensemble", cmd_ensemble,
                         "many paths, stats JSON", (*_INTERPRETATIONS, "both"))
    _add_grid(p_ens)
    p_ens.add_argument("--n-paths", type=int, default=100)
    p_ens.add_argument("--tol", type=float, default=0.0,
                       help="slack per coordinate (default %(default)s)")
    _add_box(p_ens)
    p_ens.add_argument("--dump-paths",
                       help="directory for per-path CSV files")

    # convert always starts from the Stratonovich reading
    _add_check_knobs(_add_command(sub, "convert", cmd_convert,
                                  "drift correction and verdict parity", ()))
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        ns = _parse(build_parser(), argv)
        return ns.func(ns)
    except (UsageError, ModelEvaluationError, IntegrationError,
            OSError, MemoryError) as exc:
        _sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
