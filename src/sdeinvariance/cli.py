"""Command-line front end.

Four subcommands:

    check      run the box invariance checker on a model, report JSON
    simulate   integrate one path, write CSV (optionally SVG charts)
    ensemble   run many paths, write summary statistics JSON
    convert    show the Stratonovich/Ito drift correction and verdict parity

Exit codes: 0 success (check: region satisfied), 2 check found a
violation, 1 usage or model errors.

Options may come from a JSON config file (--config); explicit flags win
over config values.  The seed falls back to the SDE_SEED environment
variable when neither flag nor config provides one.  Models are either
registry names (hh-det, hh-additive, hh-logistic) or a path to a Python
file exposing build(sigma=..., interpretation=...) -> (SdeSystem,
ModelInfo).
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import os
import sys as _sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .conversion import (JacobianMode, JacobianPolicy, correction,
                         stratonovich_to_ito)
from .core import (Box, IntegrationError, Interpretation, ModelEvaluationError,
                   ModelInfo, SdeSystem, TimeGrid, Trajectory, UsageError)
from .ensemble import integrate_paths, run_ensemble
from .hodgkin_huxley import MODEL_REGISTRY, build_model
from .integrators import (Scheme, SimConfig, simulate, simulate_deterministic,
                          write_trajectory_csv)
from .invariance import CheckConfig, Verdict, check_box
from .svgplot import line_chart
from .wiener import WienerGrid

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATED = 2

# --dump-paths integrates this many paths at a time, bounding its memory
_DUMP_CHUNK = 64

_CONFIG_KEYS = {
    "model", "sigma", "interpretation", "scheme", "force_scheme", "seed",
    "t0", "t_end", "n_steps", "dt", "n_paths", "tol", "box",
    "out", "plot", "path_id", "samples", "time_samples", "t_max_check",
    "eps_drift", "eps_diff", "sampler_seed", "dump_paths",
}

_SCHEMES = {
    "auto": Scheme.AUTO,
    "em": Scheme.EULER_MARUYAMA,
    "euler-maruyama": Scheme.EULER_MARUYAMA,
    "heun": Scheme.EULER_HEUN,
    "euler-heun": Scheme.EULER_HEUN,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise UsageError(message)


@dataclass
class RunSpec:
    """Merged view of config file, flags and environment for one run."""

    build: Callable[[Interpretation], Tuple[SdeSystem, ModelInfo]]
    interpretation: Interpretation
    scheme: Scheme
    force_scheme: bool
    seed: int
    grid: Optional[TimeGrid]
    n_paths: int
    tol: float
    box: Optional[Box]
    out: Optional[str]
    plot: Optional[str]
    path_id: int
    dump_paths: Optional[str]
    check: CheckConfig
    interp_label: str = "ito"


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    if not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise UsageError("config file must hold a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return data


def _pick(flag, config: dict, key: str, default):
    if flag is not None:
        return flag
    if key in config and config[key] is not None:
        return config[key]
    return default


def _parse_sigma(value) -> Optional[Tuple[float, ...]]:
    if value is None:
        return None
    if isinstance(value, (int, float)):
        return (float(value),)
    if isinstance(value, (list, tuple)):
        return tuple(float(v) for v in value)
    parts = [p for p in str(value).split(",") if p.strip()]
    return tuple(float(p) for p in parts)


def _parse_box(value) -> Optional[Box]:
    if value is None:
        return None
    if isinstance(value, Box):
        return value
    if isinstance(value, str):
        try:
            value = json.loads(value)
        except json.JSONDecodeError as exc:
            raise UsageError(f"box must be a JSON object: {exc}")
    if not isinstance(value, dict):
        raise UsageError("box must be an object with indices/lower/upper")
    try:
        return Box(tuple(value["indices"]), tuple(value["lower"]),
                   tuple(value["upper"]))
    except KeyError as exc:
        raise UsageError(f"box object is missing key {exc}")


def _resolve_seed(flag, config: dict) -> int:
    if flag is not None:
        return int(flag)
    if config.get("seed") is not None:
        return int(config["seed"])
    env = os.environ.get("SDE_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"SDE_SEED is not an integer: {env!r}")
    return 0


def _build_grid(t0, t_end, n_steps, dt, default_t_end: float
                ) -> Optional[TimeGrid]:
    t0 = 0.0 if t0 is None else float(t0)
    t_end = default_t_end if t_end is None else float(t_end)
    if n_steps is not None and dt is not None:
        raise UsageError("give either n_steps or dt, not both")
    if n_steps is None:
        step = 0.01 if dt is None else float(dt)
        if not step > 0:
            raise UsageError("dt must be positive")
        n_steps = int(round((t_end - t0) / step))
        if n_steps < 1:
            raise UsageError("grid is shorter than one step")
    return TimeGrid(t0, t_end, int(n_steps))


def _load_plugin(path: str):
    if not os.path.exists(path):
        raise UsageError(f"model file not found: {path}")
    spec = importlib.util.spec_from_file_location("sdeinv_user_model", path)
    if spec is None or spec.loader is None:
        raise UsageError(f"cannot import model file: {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    build = getattr(module, "build", None)
    if not callable(build):
        raise UsageError(
            f"model file {path} must define build(sigma=..., "
            "interpretation=...)")
    return build


def _model_builder(name: str, sigma
                   ) -> Callable[[Interpretation], Tuple[SdeSystem, ModelInfo]]:
    """build(interpretation) -> (SdeSystem, ModelInfo) for a model name.

    A plugin file is executed here, once, and each reading is built at
    most once however often the subcommand asks for it.
    """
    sig = None
    if sigma is not None:
        sig = sigma[0] if len(sigma) == 1 else sigma
    if name in MODEL_REGISTRY:
        def build(interpretation):
            return build_model(name, sigma=sig, interpretation=interpretation)
    elif name.endswith(".py"):
        plugin = _load_plugin(name)

        def build(interpretation):
            result = plugin(sigma=sig, interpretation=interpretation)
            try:
                system, info = result
            except (TypeError, ValueError):
                raise UsageError(
                    "model build() must return (SdeSystem, ModelInfo)")
            return system, info
    else:
        known = ", ".join(sorted(MODEL_REGISTRY))
        raise UsageError(
            f"unknown model {name!r}; registered models: {known}")
    return functools.cache(build)


def _spec_from(ns: argparse.Namespace, need_grid: bool,
               allow_both: bool = False) -> RunSpec:
    config = _load_config(getattr(ns, "config", None))
    model = _pick(getattr(ns, "model", None), config, "model", None)
    if model is None:
        raise UsageError("no model given (use --model or a config file)")
    sigma = _parse_sigma(_pick(getattr(ns, "sigma", None), config, "sigma",
                               None))
    interp_name = _pick(getattr(ns, "interpretation", None), config,
                        "interpretation", "ito")
    allowed = ("ito", "stratonovich", "both") if allow_both else \
        ("ito", "stratonovich")
    if interp_name not in allowed:
        raise UsageError(f"unknown interpretation {interp_name!r} "
                         f"(expected one of {', '.join(allowed)})")
    interpretation = (Interpretation.ITO if interp_name == "both"
                      else Interpretation(interp_name))
    scheme_name = _pick(getattr(ns, "scheme", None), config, "scheme", "auto")
    if scheme_name not in _SCHEMES:
        raise UsageError(f"unknown scheme {scheme_name!r}")
    check = CheckConfig(
        n_face_samples=int(_pick(getattr(ns, "samples", None), config,
                                 "samples", 4096)),
        n_time_samples=int(_pick(getattr(ns, "time_samples", None), config,
                                 "time_samples", 16)),
        t_max_check=float(_pick(getattr(ns, "t_max_check", None), config,
                                "t_max_check", 100.0)),
        eps_drift=float(_pick(getattr(ns, "eps_drift", None), config,
                              "eps_drift", 1e-9)),
        eps_diff=float(_pick(getattr(ns, "eps_diff", None), config,
                             "eps_diff", 1e-12)),
        sampler_seed=int(_pick(getattr(ns, "sampler_seed", None), config,
                               "sampler_seed", 0)),
    )
    spec = RunSpec(
        build=_model_builder(str(model), sigma),
        interpretation=interpretation,
        scheme=_SCHEMES[scheme_name],
        force_scheme=bool(_pick(getattr(ns, "force_scheme", None) or None,
                                config, "force_scheme", False)),
        seed=_resolve_seed(getattr(ns, "seed", None), config),
        grid=None,
        n_paths=int(_pick(getattr(ns, "n_paths", None), config, "n_paths",
                          100)),
        tol=float(_pick(getattr(ns, "tol", None), config, "tol", 0.0)),
        box=_parse_box(_pick(getattr(ns, "box", None), config, "box", None)),
        out=_pick(getattr(ns, "out", None), config, "out", None),
        plot=_pick(getattr(ns, "plot", None), config, "plot", None),
        path_id=int(_pick(getattr(ns, "path_id", None), config, "path_id",
                          0)),
        dump_paths=_pick(getattr(ns, "dump_paths", None), config,
                         "dump_paths", None),
        check=check,
        interp_label=interp_name,
    )
    if need_grid:
        _, info = spec.build(spec.interpretation)
        spec.grid = _build_grid(
            _pick(getattr(ns, "t0", None), config, "t0", None),
            _pick(getattr(ns, "t_end", None), config, "t_end", None),
            _pick(getattr(ns, "n_steps", None), config, "n_steps", None),
            _pick(getattr(ns, "dt", None), config, "dt", None),
            default_t_end=info.horizon,
        )
    return spec


def _write_text(path: Optional[str], text: str) -> None:
    if path is None:
        _sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def cmd_check(ns: argparse.Namespace) -> int:
    spec = _spec_from(ns, need_grid=False)
    system, info = spec.build(spec.interpretation)
    box = spec.box if spec.box is not None else info.box
    if box is None:
        raise UsageError("model declares no region; pass --box")
    report = check_box(system, box, spec.check)
    _write_text(spec.out, report.to_json(indent=2) + "\n")
    return EXIT_OK if report.verdict is Verdict.SATISFIED else EXIT_VIOLATED


def _panels(system: SdeSystem, box: Optional[Box]):
    labels = system.labels()
    if (box is not None and system.m == 4
            and tuple(sorted(box.indices)) == (0, 1, 2)):
        return [("gating", (0, 1, 2)), ("voltage", (3,))]
    return [("state", tuple(range(system.m)))]


def cmd_simulate(ns: argparse.Namespace) -> int:
    spec = _spec_from(ns, need_grid=True)
    system, info = spec.build(spec.interpretation)
    cfg = SimConfig(grid=spec.grid, x0=tuple(info.x0), scheme=spec.scheme,
                    seed=spec.seed, force_scheme=spec.force_scheme)
    if system.r == 0:
        traj = simulate_deterministic(system, cfg)
    else:
        noise = WienerGrid.generate(spec.seed, spec.path_id, spec.grid,
                                    system.r)
        traj = simulate(system, cfg, noise)
    import io as _io
    buf = _io.StringIO()
    write_trajectory_csv(traj, buf, system.labels())
    _write_text(spec.out, buf.getvalue())
    if spec.plot is not None:
        for suffix, cols in _panels(system, info.box):
            chart = line_chart(
                traj.t,
                [(system.labels()[i], traj.states[:, i]) for i in cols],
                title=f"{system.name} ({suffix})", x_label="t",
                y_label=", ".join(system.labels()[i] for i in cols))
            with open(f"{spec.plot}-{suffix}.svg", "w") as fh:
                fh.write(chart)
    return EXIT_OK


def cmd_ensemble(ns: argparse.Namespace) -> int:
    spec = _spec_from(ns, need_grid=True, allow_both=True)
    names = (("ito", "stratonovich") if spec.interp_label == "both"
             else (spec.interp_label,))
    results = {}
    for nm in names:
        system, info = spec.build(Interpretation(nm))
        box = spec.box if spec.box is not None else info.box
        cfg = SimConfig(grid=spec.grid, x0=tuple(info.x0), scheme=spec.scheme,
                        seed=spec.seed, force_scheme=spec.force_scheme)
        stats = run_ensemble(system, cfg, spec.n_paths, box, tol=spec.tol)
        results[nm] = stats
        if spec.dump_paths is not None:
            if spec.n_paths > 64:
                _sys.stderr.write(
                    f"warning: dumping {spec.n_paths} path files to "
                    f"{spec.dump_paths}\n")
            os.makedirs(spec.dump_paths, exist_ok=True)
            # the ensemble's own paths: a failed path is frozen, not fatal
            for lo in range(0, spec.n_paths, _DUMP_CHUNK):
                ids = range(lo, min(lo + _DUMP_CHUNK, spec.n_paths))
                states, _ = integrate_paths(system, cfg, ids)
                for pid, path in zip(ids, states):
                    write_trajectory_csv(
                        Trajectory(spec.grid, path, path_id=pid),
                        os.path.join(spec.dump_paths,
                                     f"{system.name}-{nm}-{pid:05d}.csv"),
                        system.labels())
    if len(results) == 1:
        text = next(iter(results.values())).to_json(indent=2) + "\n"
    else:
        text = json.dumps({k: v.to_dict() for k, v in results.items()},
                          indent=2) + "\n"
    _write_text(spec.out, text)
    return EXIT_OK


def cmd_convert(ns: argparse.Namespace) -> int:
    spec = _spec_from(ns, need_grid=False)
    system, info = spec.build(Interpretation.STRATONOVICH)
    policy = (JacobianPolicy(JacobianMode.ANALYTIC)
              if system.diffusion_jacobian is not None
              else JacobianPolicy(JacobianMode.CENTRAL_DIFFERENCE))
    box = spec.box if spec.box is not None else info.box
    lines = [f"model: {system.name} (stratonovich reading of (f, g))",
             f"jacobian mode: {policy.mode.value}"]
    samples = []
    if box is not None:
        lo = np.array(box.lower)
        hi = np.array(box.upper)
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            x = np.asarray(info.x0, dtype=float).copy()
            for pos, i in enumerate(box.indices):
                x[i] = lo[pos] + frac * (hi[pos] - lo[pos])
            samples.append(x)
    else:
        samples.append(np.asarray(info.x0, dtype=float))
    lines.append("drift correction h/2 at t=0:")
    sample_rows = []
    for x in samples:
        h = correction(system, 0.0, x, policy)
        half = 0.5 * h
        xs = ", ".join(f"{v:.4g}" for v in x)
        hs = ", ".join(f"{v:.6g}" for v in half)
        lines.append(f"  x = ({xs})  ->  h/2 = ({hs})")
        sample_rows.append({"x": [float(v) for v in x],
                            "half_h": [float(v) for v in half]})
    payload = {"model": system.name, "jacobian_mode": policy.mode.value,
               "correction_samples": sample_rows}
    if box is not None:
        original = check_box(system, box, spec.check)
        converted_sys = stratonovich_to_ito(system, policy)
        converted = check_box(converted_sys, box, spec.check)
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
    if spec.out is not None:
        with open(spec.out, "w") as fh:
            fh.write(json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--model", help="registry name or path to a .py plug-in")
    p.add_argument("--sigma", help="noise amplitude (scalar or a,b,c)")
    p.add_argument("--interpretation",
                   help="ito, stratonovich (ensemble also: both)")
    p.add_argument("--seed", type=int,
                   help="stream seed (default: $SDE_SEED, else 0)")
    p.add_argument("--out", help="output file (default: stdout)")


def _add_grid(p: argparse.ArgumentParser) -> None:
    p.add_argument("--t0", type=float, help="grid start (default 0)")
    p.add_argument("--t-end", dest="t_end", type=float,
                   help="grid end (default: model horizon)")
    p.add_argument("--n-steps", dest="n_steps", type=int)
    p.add_argument("--dt", type=float, help="step size (default 0.01)")
    p.add_argument("--scheme", help="auto, em, heun")
    p.add_argument("--force-scheme", dest="force_scheme",
                   action="store_true", default=None,
                   help="allow a scheme mismatched to the interpretation")


def _add_check_knobs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--samples", type=int, help="face samples (default 4096)")
    p.add_argument("--time-samples", dest="time_samples", type=int)
    p.add_argument("--t-max-check", dest="t_max_check", type=float)
    p.add_argument("--eps-drift", dest="eps_drift", type=float)
    p.add_argument("--eps-diff", dest="eps_diff", type=float)
    p.add_argument("--sampler-seed", dest="sampler_seed", type=int)
    p.add_argument("--box", help='region override, JSON: {"indices": [...],'
                   ' "lower": [...], "upper": [...]}')


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sdeinv",
                     description="Invariance checking and simulation for "
                                 "SDE systems")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="box invariance check")
    _add_common(p_check)
    _add_check_knobs(p_check)
    p_check.set_defaults(func=cmd_check)

    p_sim = sub.add_parser("simulate", help="integrate one path to CSV")
    _add_common(p_sim)
    _add_grid(p_sim)
    p_sim.add_argument("--path-id", dest="path_id", type=int,
                       help="which keyed path to draw (default 0)")
    p_sim.add_argument("--plot", help="SVG chart file prefix")
    p_sim.set_defaults(func=cmd_simulate)

    p_ens = sub.add_parser("ensemble", help="many paths, stats JSON")
    _add_common(p_ens)
    _add_grid(p_ens)
    p_ens.add_argument("--n-paths", dest="n_paths", type=int)
    p_ens.add_argument("--tol", type=float,
                       help="violation slack per coordinate (default 0)")
    p_ens.add_argument("--box", help="region override, JSON object")
    p_ens.add_argument("--dump-paths", dest="dump_paths",
                       help="directory for per-path CSV files")
    p_ens.set_defaults(func=cmd_ensemble)

    p_conv = sub.add_parser("convert",
                            help="drift correction and verdict parity")
    _add_common(p_conv)
    _add_check_knobs(p_conv)
    p_conv.set_defaults(func=cmd_convert)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        return ns.func(ns)
    except (UsageError, ModelEvaluationError, IntegrationError) as exc:
        _sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR
    except OSError as exc:
        _sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


def app() -> None:
    raise SystemExit(main(_sys.argv[1:]))


if __name__ == "__main__":
    raise SystemExit(main())
