"""Monte-Carlo ensembles: many paths, deterministic summary statistics.

Paths are identified by consecutive path ids and driven by the keyed
noise stream, so the ensemble is a pure function of (system, config,
n_paths): rerunning a subset or changing the batch cannot change a single
bit of the result.  All paths advance in lockstep, and the reductions run
on blocks of consecutive steps, always over the paths in path-id order,
so the block width cannot change a bit either.  A block holds its states
twice: path-last, as march yields them, sorted in place for the quantiles
and extrema, and a path-first copy, which the on_block hook reads, the
mean adds up path by path and the exit search scans in one pass over the
block.  That search runs only while some path has not yet left the box
and some sorted extremum lies outside it.  One fixed byte budget sets the
width: the two copies and the block's keyed noise take 2m + max(1, r)
words per path-step for P paths, m coordinates and r noise components,
so memory is O(P * (m + r) * width + N * m) for N steps.  integrate_paths
and compare_interpretations draw their keyed noise at the same budget.

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
# bytes of states (both copies) and keyed noise in one block of steps
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
    _BLOCK_BYTES at 2m + max(1, r) words per path-step."""
    words = max(1, n_paths) * (2 * m + max(1, r))
    return max(1, min(n_steps, _BLOCK_BYTES // (8 * words)))


def _keyed_start(sys: SdeSystem, cfg: SimConfig, ids: Array
                 ) -> Tuple[Array, Callable[[int], Array]]:
    """(x0, increments_for) that start the keyed paths ids at cfg.x0.

    increments_for draws the noise of _block_steps steps in one call, as
    run_ensemble reduces them, and serves the step asked for from that
    block; the last block stops at the end of the grid.
    """
    seed, r, dt = cfg.seed, sys.r, cfg.grid.dt
    n_steps = cfg.grid.n_steps
    width = _block_steps(ids.size, sys.m, r, n_steps)
    start, block = 0, None  # block[k] holds the increments of step start + k

    def for_step(step: int) -> Array:
        nonlocal start, block
        if block is None or not start <= step < start + len(block):
            block, start = None, step  # free the old block before drawing
            steps = np.arange(step, min(step + width, n_steps),
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


def _path_sum(rows: Array) -> Array:
    """Sum of the C-ordered rows (n_paths, ...) over the paths, path by
    path in path-id order: numpy sums a one-value row pairwise, and
    add.reduce from 0.0 would drop the sign of a -0.0 total."""
    if rows[0].size > 1:
        return np.add.reduce(rows, axis=0, initial=-0.0)
    return np.cumsum(rows, axis=0)[-1]


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
    steps).  With box None every bound is infinite, so no finite state
    leaves it and only the non-finite paths count.

    The steps run in blocks of _block_steps at 2m + max(1, r) words a
    path-step, and the keyed noise is drawn a block at a time.
    on_block(start, states), when given, sees every block of steps once,
    in grid order: states has shape (n_paths, k, m), row p is path p at
    the grid indices start..start+k-1, and frozen paths hold their last
    finite state.  It is a read-only view of the buffer that the mean is
    taken from next and that the next block overwrites, so the hook must
    copy what it keeps; writing to it raises ValueError.

    n_workers has no effect (all paths run in one lockstep batch); it
    stays only because the perfbench workloads pass it.
    """
    if n_paths < 1:
        raise UsageError("n_paths must be >= 1")
    if not 0 <= tol < np.inf:
        raise UsageError("tol must be finite and >= 0")
    # the slack bounds of every coordinate, infinite where the box sets none
    lower, upper = (box.limits(sys.m) if box else
                    (np.full(sys.m, -np.inf), np.full(sys.m, np.inf)))
    lower, upper = lower - tol, upper + tol
    times = cfg.grid.times()
    n_grid, m = times.size, sys.m
    width = _block_steps(n_paths, m, sys.r, n_grid)
    block = np.empty((width, m, n_paths))  # path-last, as march yields
    rows = np.empty(n_paths * width * m)  # path-first
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
        k = stop - start
        for j, (_, x, dead) in zip(range(k), steps):
            block[j] = x.T
        states = block[:k]  # states[j, i, p]: path p, coordinate i, step j
        paths = rows[:n_paths * k * m].reshape(n_paths, k, m)
        paths[...] = states.transpose(2, 0, 1)
        if on_block is not None:
            paths.flags.writeable = False
            on_block(start, paths)
        mean[start:stop] = _path_sum(paths) / n_paths
        states.sort(axis=-1)
        for key, rank in ranks.items():
            quantiles[key][start:stop] = states[:, :, rank]
        low, high = states[:, :, 0], states[:, :, -1]  # each step's extrema
        # folded in grid order so that the later zero of a -0.0/+0.0 tie
        # wins at any width; a min or max reduction may pair the steps in
        # another order
        np.minimum(lo, np.minimum.accumulate(low)[-1], out=lo)
        np.maximum(hi, np.maximum.accumulate(high)[-1], out=hi)
        fresh = first_bad == sentinel  # paths not yet seen outside the box
        if fresh.any() and ((low < lower) | (high > upper)).any():
            out = ((paths < lower) | (paths > upper)).any(axis=2)
            new = fresh & out.any(axis=1)
            first_bad[new] = start + out[new].argmax(axis=1)
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
    gap = np.subtract(ito, stratonovich, order="C")
    return np.sqrt(_path_sum(gap * gap) / n_paths)
