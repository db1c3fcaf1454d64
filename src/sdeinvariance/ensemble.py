"""Monte-Carlo ensembles: many paths, deterministic summary statistics.

Paths are identified by consecutive path ids and driven by the keyed
noise stream, so the ensemble is a pure function of (system, config,
n_paths): splitting the work across workers, rerunning a subset, or
changing the chunking cannot change a single bit of the result.  All
reductions happen in fixed path-id order on the assembled state array.

Statistics follow the report-only policy: no path is ever clamped to the
region; leaving it (or blowing up) is recorded.  Quantiles use the
nearest-rank convention (the ceil(q * n)-th smallest value).
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .core import Array, Box, Interpretation, SdeSystem, UsageError
from .integrators import Scheme, SimConfig, integrate_batch, resolve_scheme
from .wiener import increments_for_step

_QUANTILE_PCTS = (5, 50, 95)


@dataclass(frozen=True, eq=False)
class EnsembleStats:
    """Summary of one ensemble run.

    first_exit_times lists (path_id, t) for every violating path, where t
    is the first grid time at which the path left the box (or turned
    non-finite, whichever came first).  mean and the quantile arrays have
    shape (n_steps + 1, m).
    """

    n_paths: int
    n_violating: int
    violation_fraction: float
    first_exit_times: Tuple[Tuple[int, float], ...]
    nonfinite_paths: Tuple[Tuple[int, int], ...]
    coord_min: Tuple[float, ...]
    coord_max: Tuple[float, ...]
    mean: Array
    quantiles: Dict[str, Array]
    grid_t0: float
    grid_t_end: float
    grid_n_steps: int
    seed: int
    scheme: str
    box: Optional[Box]
    tol: float

    def to_dict(self) -> dict:
        return {
            "n_paths": self.n_paths,
            "n_violating": self.n_violating,
            "violation_fraction": self.violation_fraction,
            "first_exit_times": [[p, t] for p, t in self.first_exit_times],
            "nonfinite_paths": [[p, s] for p, s in self.nonfinite_paths],
            "coord_min": list(self.coord_min),
            "coord_max": list(self.coord_max),
            "mean": self.mean.tolist(),
            "quantiles": {k: v.tolist() for k, v in self.quantiles.items()},
            "grid": {"t0": self.grid_t0, "t_end": self.grid_t_end,
                     "n_steps": self.grid_n_steps},
            "seed": self.seed,
            "scheme": self.scheme,
            "box": None if self.box is None else {
                "indices": list(self.box.indices),
                "lower": list(self.box.lower),
                "upper": list(self.box.upper),
            },
            "tol": self.tol,
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def _chunk_ranges(n_paths: int, n_workers: int) -> list[tuple[int, int]]:
    n_workers = max(1, min(n_workers, n_paths))
    base, extra = divmod(n_paths, n_workers)
    ranges = []
    start = 0
    for w in range(n_workers):
        size = base + (1 if w < extra else 0)
        if size:
            ranges.append((start, start + size))
        start += size
    return ranges


def integrate_paths(sys: SdeSystem, cfg: SimConfig,
                    path_ids: Sequence[int],
                    n_workers: int = 1) -> Tuple[Array, Array]:
    """Integrate many keyed paths; (states, dead_step) like integrate_batch.

    states[k] is the path for path_ids[k].  Identical output for any
    n_workers because each path's arithmetic never mixes with its
    neighbours'.
    """
    if len(cfg.x0) != sys.m:
        raise UsageError(f"x0 has length {len(cfg.x0)}, system needs {sys.m}")
    ids = np.asarray(list(path_ids), dtype=np.uint64)
    if ids.size and ids.ndim != 1:
        raise UsageError("path_ids must be a flat sequence")
    scheme = resolve_scheme(sys, cfg)
    n = int(ids.size)
    grid = cfg.grid
    states = np.empty((n, grid.n_steps + 1, sys.m))
    dead = np.full(n, -1, dtype=int)
    if n == 0:
        return states, dead
    x0 = np.tile(np.asarray(cfg.x0), (n, 1))
    dt = grid.dt
    seed = cfg.seed

    def run_chunk(lo: int, hi: int) -> None:
        chunk_ids = ids[lo:hi]

        def incr(step: int) -> Array:
            return increments_for_step(seed, chunk_ids, step, sys.r, dt)

        s, d = integrate_batch(sys, grid, x0[lo:hi], scheme, incr,
                               on_nonfinite="freeze")
        states[lo:hi] = s
        dead[lo:hi] = d

    ranges = _chunk_ranges(n, n_workers)
    if len(ranges) == 1:
        run_chunk(*ranges[0])
    else:
        with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
            futures = [pool.submit(run_chunk, lo, hi) for lo, hi in ranges]
            for fut in futures:
                fut.result()
    return states, dead


def _nearest_rank_index(pct: int, n: int) -> int:
    # ceil(pct * n / 100) in integer arithmetic, then 0-based
    rank = -(-pct * n // 100)
    return min(max(rank - 1, 0), n - 1)


def run_ensemble(sys: SdeSystem, cfg: SimConfig, n_paths: int,
                 box: Optional[Box], *, tol: float = 0.0,
                 n_workers: int = 1) -> EnsembleStats:
    """Run paths 0..n_paths-1 and reduce them to summary statistics.

    Violations are judged against the box with the per-coordinate slack
    tol; a path also counts as violating if it ever produced a non-finite
    state (it is then frozen at its last finite state for the remaining
    steps).  With box None, box bookkeeping is skipped and only
    extrema/summaries are reported.
    """
    if n_paths < 1:
        raise UsageError("n_paths must be >= 1")
    if tol < 0:
        raise UsageError("tol must be >= 0")
    scheme = resolve_scheme(sys, cfg)
    states, dead = integrate_paths(sys, cfg, range(n_paths), n_workers)
    times = cfg.grid.times()
    n_grid = times.size
    sentinel = n_grid + 1
    first_bad = np.full(n_paths, sentinel, dtype=int)
    if box is not None:
        outside = np.zeros((n_paths, n_grid), dtype=bool)
        for i, a, b in zip(box.indices, box.lower, box.upper):
            coord = states[:, :, i]
            outside |= (coord < a - tol) | (coord > b + tol)
        has_exit = outside.any(axis=1)
        exit_idx = np.argmax(outside, axis=1)
        first_bad[has_exit] = exit_idx[has_exit]
    died = dead >= 0
    first_bad[died] = np.minimum(first_bad[died], dead[died])
    violating = first_bad < sentinel
    n_violating = int(violating.sum())
    exits = tuple((int(p), float(times[first_bad[p]]))
                  for p in np.flatnonzero(violating))
    nonfinite = tuple((int(p), int(dead[p])) for p in np.flatnonzero(died))
    mean = states.mean(axis=0)
    order = np.sort(states, axis=0)
    # copies: a row view would keep the whole sorted ensemble alive
    quantiles = {
        f"q{pct:02d}": order[_nearest_rank_index(pct, n_paths)].copy()
        for pct in _QUANTILE_PCTS
    }
    return EnsembleStats(
        n_paths=n_paths,
        n_violating=n_violating,
        violation_fraction=n_violating / n_paths,
        first_exit_times=exits,
        nonfinite_paths=nonfinite,
        coord_min=tuple(float(v) for v in states.min(axis=(0, 1))),
        coord_max=tuple(float(v) for v in states.max(axis=(0, 1))),
        mean=mean,
        quantiles=quantiles,
        grid_t0=cfg.grid.t0,
        grid_t_end=cfg.grid.t_end,
        grid_n_steps=cfg.grid.n_steps,
        seed=cfg.seed,
        scheme=scheme.value,
        box=box,
        tol=tol,
    )


def compare_interpretations(sys: SdeSystem, cfg: SimConfig, n_paths: int,
                            n_workers: int = 1) -> Array:
    """Endpoint gap between the Ito and Stratonovich readings of (f, g).

    Runs Euler-Maruyama on the Ito reading and Euler-Heun on the
    Stratonovich reading, with the same keyed noise, and returns the RMS
    over paths of the per-coordinate endpoint difference, shape (m,).
    For state-independent diffusion the two readings agree and the gap is
    zero up to rounding; for multiplicative noise it grows with the
    square of the noise amplitude.
    """
    ito_sys = replace(sys, interpretation=Interpretation.ITO)
    strat_sys = replace(sys, interpretation=Interpretation.STRATONOVICH)
    em_cfg = replace(cfg, scheme=Scheme.EULER_MARUYAMA, force_scheme=False)
    heun_cfg = replace(cfg, scheme=Scheme.EULER_HEUN, force_scheme=False)
    ids = range(n_paths)
    em_states, _ = integrate_paths(ito_sys, em_cfg, ids, n_workers)
    heun_states, _ = integrate_paths(strat_sys, heun_cfg, ids, n_workers)
    gap = em_states[:, -1, :] - heun_states[:, -1, :]
    return np.sqrt(np.mean(gap * gap, axis=0))
