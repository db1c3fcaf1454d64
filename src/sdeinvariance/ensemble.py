"""Monte-Carlo ensembles: many paths, deterministic summary statistics.

Paths are identified by consecutive path ids and driven by the keyed
noise stream, so the ensemble is a pure function of (system, config,
n_paths): rerunning a subset or changing the batch cannot change a single
bit of the result.  All paths advance in lockstep, and the reductions run
on blocks of consecutive steps, always over the paths in path-id order,
so the block width cannot change a bit either.  One fixed byte budget
sets the width: a block of steps holds its states and its keyed noise,
m + max(1, r) words per path-step for P paths, m coordinates and r noise
components, so memory is O(P * (m + r) * width + N * m) for N steps.

Statistics follow the report-only policy: no path is ever clamped to the
region; leaving it (or blowing up) is recorded.  Quantiles use the
nearest-rank convention (the ceil(q * n)-th smallest value).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .core import Array, Box, Interpretation, SdeSystem, UsageError
from .integrators import SimConfig, integrate_batch, march
from .wiener import checked_keys, increments_for_step

_QUANTILE_PCTS = (5, 50, 95)
# bytes of states and keyed noise in one block of steps (see _block_steps)
_BLOCK_BYTES = 448 * 2 ** 10
# EnsembleStats.scheme: the scheme march takes for each reading
_SCHEME_NAMES = {Interpretation.ITO: "euler-maruyama",
                 Interpretation.STRATONOVICH: "euler-heun"}


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


def _block_steps(n_paths: int, m: int, r: int, n_steps: int) -> int:
    """Steps in one block: at least 1, at most n_steps, and within
    _BLOCK_BYTES at m + max(1, r) words per path-step."""
    words = max(1, n_paths) * (m + max(1, r))
    return max(1, min(n_steps, _BLOCK_BYTES // (8 * words)))


def _keyed_start(sys: SdeSystem, cfg: SimConfig, ids: Array
                 ) -> Tuple[Array, Callable[[int], Array]]:
    """(x0, increments_for) that start the keyed paths ids at cfg.x0.

    increments_for draws the noise of _block_steps steps in one call
    and serves the step asked for from that block; the last block
    stops at the end of the grid.
    """
    seed, r, dt = cfg.seed, sys.r, cfg.grid.dt
    n_steps = cfg.grid.n_steps
    per_draw = _block_steps(ids.size, sys.m, r, n_steps)
    start, block = 0, None  # block[k] holds the increments of step start + k

    def for_step(step: int) -> Array:
        nonlocal start, block
        if block is None or not start <= step < start + len(block):
            block, start = None, step  # free the old block before drawing
            steps = np.arange(step, min(step + per_draw, n_steps),
                              dtype=np.uint64)
            block = increments_for_step(seed, ids, steps, r, dt)
        return block[step - start]

    return np.tile(np.asarray(cfg.x0), (ids.size, 1)), for_step


def integrate_paths(sys: SdeSystem, cfg: SimConfig,
                    path_ids: Sequence[int]) -> Tuple[Array, Array]:
    """Integrate many keyed paths; (states, dead_step) like integrate_batch.

    states[k] is the path for path_ids[k], the same in any batch because
    each path's arithmetic never mixes with its neighbours'.  A path that
    turns non-finite is frozen at its last finite state.  Path ids must be
    integers in [0, 2**64).
    """
    ids = checked_keys(path_ids, "path ids")
    x0, increments = _keyed_start(sys, cfg, ids)
    return integrate_batch(sys, cfg.grid, x0, increments_for=increments)


def _nearest_rank_index(pct: int, n: int) -> int:
    # ceil(pct * n / 100) in integer arithmetic, then 0-based
    rank = -(-pct * n // 100)
    return min(max(rank - 1, 0), n - 1)


def run_ensemble(sys: SdeSystem, cfg: SimConfig, n_paths: int,
                 box: Optional[Box], *, tol: float = 0.0,
                 n_workers: int = 1,
                 on_block: Optional[Callable[[int, Array], None]] = None
                 ) -> EnsembleStats:
    """Run paths 0..n_paths-1 and reduce them to summary statistics.

    Violations are judged against the box with the per-coordinate slack
    tol; a path also counts as violating if it ever produced a non-finite
    state (it is then frozen at its last finite state for the remaining
    steps).  With box None, box bookkeeping is skipped and only
    extrema/summaries are reported.

    on_block(start, states), when given, sees every block of steps once,
    in grid order, before the reductions sort it in place: states has
    shape (n_paths, k, m), row p is path p at the grid indices
    start..start+k-1, and frozen paths hold their last finite state.  It
    is a view into a buffer that the next block overwrites, so the hook
    must copy what it keeps and must not write to it.

    n_workers has no effect (all paths run in one lockstep batch); it
    stays only because the perfbench workloads pass it.
    """
    if n_paths < 1:
        raise UsageError("n_paths must be >= 1")
    if not 0 <= tol < np.inf:
        raise UsageError("tol must be finite and >= 0")
    if box is not None:
        box.require_within(sys.m)
    times = cfg.grid.times()
    n_grid, m = times.size, sys.m
    width = _block_steps(n_paths, m, sys.r, n_grid)
    block = np.empty((n_paths, width, m))
    mean = np.empty((n_grid, m))
    ranks = {f"q{pct:02d}": _nearest_rank_index(pct, n_paths)
             for pct in _QUANTILE_PCTS}
    quantiles = {key: np.empty((n_grid, m)) for key in ranks}
    lo = np.full(m, np.inf)
    hi = np.full(m, -np.inf)
    sentinel = n_grid + 1
    first_bad = np.full(n_paths, sentinel, dtype=int)

    x0, increments = _keyed_start(sys, cfg,
                                  np.arange(n_paths, dtype=np.uint64))
    steps = march(sys, cfg.grid, x0, increments)
    for start in range(0, n_grid, width):
        stop = min(start + width, n_grid)
        for k, (_, x, dead) in zip(range(stop - start), steps):
            block[:, k] = x
        states = block[:, :stop - start]
        if on_block is not None:
            on_block(start, states)
        # path by path at any width: numpy sums a one-value row pairwise,
        # and add.reduce from 0.0 would drop the sign of a -0.0 total
        mean[start:stop] = (np.add.reduce(states, axis=0, initial=-0.0)
                            if states[0].size > 1 else
                            np.cumsum(states, axis=0)[-1]) / n_paths
        if box is not None:
            outside = np.zeros(states.shape[:2], dtype=bool)
            for i, a, b in zip(box.indices, box.lower, box.upper):
                coord = states[:, :, i]
                outside |= (coord < a - tol) | (coord > b + tol)
            new = outside.any(axis=1) & (first_bad == sentinel)
            first_bad[new] = start + np.argmax(outside[new], axis=1)
        states.sort(axis=0)  # in place: the block is refilled next
        for key, rank in ranks.items():
            quantiles[key][start:stop] = states[rank]
        np.minimum(lo, states[0].min(axis=0), out=lo)
        np.maximum(hi, states[-1].max(axis=0), out=hi)
    died = dead >= 0
    first_bad[died] = np.minimum(first_bad[died], dead[died])
    violating = first_bad < sentinel
    n_violating = int(violating.sum())
    exits = tuple((int(p), float(times[first_bad[p]]))
                  for p in np.flatnonzero(violating))
    nonfinite = tuple((int(p), int(dead[p])) for p in np.flatnonzero(died))
    return EnsembleStats(
        n_paths=n_paths,
        n_violating=n_violating,
        violation_fraction=n_violating / n_paths,
        first_exit_times=exits,
        nonfinite_paths=nonfinite,
        coord_min=tuple(float(v) for v in lo),
        coord_max=tuple(float(v) for v in hi),
        mean=mean,
        quantiles=quantiles,
        grid_t0=cfg.grid.t0,
        grid_t_end=cfg.grid.t_end,
        grid_n_steps=cfg.grid.n_steps,
        seed=cfg.seed,
        scheme=_SCHEME_NAMES[sys.interpretation],
        box=box,
        tol=tol,
    )


def compare_interpretations(sys: SdeSystem, cfg: SimConfig,
                            n_paths: int) -> Array:
    """Endpoint gap between the Ito and Stratonovich readings of (f, g).

    Runs Euler-Maruyama on the Ito reading and Euler-Heun on the
    Stratonovich reading, with the same keyed noise, and returns the RMS
    over paths of the per-coordinate endpoint difference, shape (m,).
    For state-independent diffusion the two readings agree and the gap is
    zero up to rounding; for multiplicative noise it grows with the
    square of the noise amplitude.  Only the endpoints are kept.  The
    two readings march in lockstep on one keyed provider, so each block
    of noise is drawn once and serves both.
    """
    if n_paths < 1:
        raise UsageError("n_paths must be >= 1")
    x0, increments = _keyed_start(sys, cfg,
                                  np.arange(n_paths, dtype=np.uint64))
    marches = [march(replace(sys, interpretation=i), cfg.grid, x0,
                     increments) for i in Interpretation]
    for (_, ito, _), (_, stratonovich, _) in zip(*marches):
        pass
    gap = np.subtract(ito, stratonovich, order="C")  # mean path by path
    return np.sqrt(np.mean(gap * gap, axis=0))
