"""Fixed-step integration schemes for SDE systems.

Two one-step schemes are provided, matched to the two calculi:

    Euler-Maruyama (Ito):
        X_{n+1} = X_n + f(t_n, X_n) dt + g(t_n, X_n) dW_n

    Euler-Heun (Stratonovich):
        Xp      = X_n + f(t_n, X_n) dt + g(t_n, X_n) dW_n
        X_{n+1} = X_n + f(t_n, X_n) dt
                      + (g(t_n, X_n) + g(t_{n+1}, Xp)) / 2 * dW_n

The drift is always advanced by plain Euler; only the diffusion term is
averaged in the Heun corrector.  With state-independent diffusion the two
schemes therefore coincide step by step.

g dW is a contraction of the (m, r) matrix with the r increments.  For a
system that declares diagonal_noise, whose diffusion returns only the r
diagonal entries, it is g[i, i] dW_i added in place to the first r
coordinates, and the Heun average is taken over the diagonal alone.  The
dense contraction only adds exact zeros to those products, so the states
are the same bits (a sum of exact zeros can turn a -0.0 into +0.0, which
changes a state only where the Euler drift step gave exactly -0.0).
einsum adds the r products in an order that depends on the layout of g
and dW, so the dense contraction takes both C-ordered.

The system's interpretation tag is the only thing that picks the scheme:
Euler-Maruyama for Ito, Euler-Heun for Stratonovich.  To apply the other
scheme to the same (f, g), retag the system,
dataclasses.replace(sys, interpretation=...).

Integrators never clamp states to a region; leaving it is only recorded,
by the ensemble statistics.  Nor do they stop at a failure: a path that
turns non-finite is frozen at its last finite state and its step goes
into march's dead array, from which simulate raises IntegrationError.
march, the one stepping loop, alone decides when stepping stops: once no
path is alive, it calls neither the model nor the noise provider again
and yields the same frozen array for every remaining grid index, so
consumers copy states and never write to them.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Tuple

import numpy as np

from .core import (Array, IntegrationError, Interpretation, SdeSystem,
                   TimeGrid, Trajectory, UsageError,
                   declared_diffusion_batch, drift_batch)
from .wiener import WienerGrid


@dataclass(frozen=True)
class SimConfig:
    """Grid, start state and noise seed; the system picks the scheme."""

    grid: TimeGrid
    x0: Tuple[float, ...]
    seed: int = 0

    def __post_init__(self):
        x0 = tuple(float(v) for v in np.ravel(np.asarray(self.x0, dtype=float)))
        if not x0:
            raise UsageError("x0 must be non-empty")
        if not all(np.isfinite(x0)):
            raise UsageError("x0 must be finite")
        object.__setattr__(self, "x0", x0)


def march(sys: SdeSystem, grid: TimeGrid, x0: Array,
          increments_for: Callable[[int], Array]
          ) -> Iterator[Tuple[int, Array, Array]]:
    """Advance a batch of paths in lockstep, one grid step at a time.

    The scheme is Euler-Heun for a Stratonovich system, Euler-Maruyama
    otherwise.  x0 has shape (n_paths, m); increments_for(n) must return the
    (n_paths, r) Wiener increments of step n (UsageError if x0 or the
    increments of step 0 differ).  Yields (n, x, dead) for every grid index
    n, starting with (0, x0): x is the (n_paths, m) state at time n, held
    path-last (F-ordered) so that each elementwise operation of a step runs
    one n_paths-long loop, and dead[p] is the first step index at which path
    p produced a non-finite state (-1 so far), updated in place.  A failed
    path keeps its last finite state from there on.  Once no path is alive
    (at once with no paths), march calls neither the model nor
    increments_for and yields the same frozen x at every remaining index;
    until then each x is fresh.  Consumers copy x and never write to it.  A
    diffusion not in its declared shape (see SdeSystem.diagonal_noise) is a
    UsageError.
    """
    x = np.array(x0, dtype=float, order="F")
    if x.ndim != 2 or x.shape[1] != sys.m:
        raise UsageError(f"x0 has shape {x.shape}, not (n_paths, {sys.m})")
    times = grid.times()
    dead = np.full(len(x), -1, dtype=int)
    alive = np.ones(len(x), dtype=bool)
    stepping, any_dead = len(x) > 0, False
    yield 0, x, dead
    for n in range(grid.n_steps):
        if stepping:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                x_new = _step(sys, times[n], times[n + 1], grid.dt, x,
                              increments_for(n), n == 0)
            if not np.isfinite(x_new).all():
                bad = ~np.isfinite(x_new).all(axis=1) & alive
                if bad.any():
                    dead[bad] = n + 1
                    alive &= ~bad
                    stepping, any_dead = alive.any(), True
            if any_dead:  # freeze; skipped while every path is alive
                x_new[~alive] = x[~alive]
            x = x_new
        yield n + 1, x, dead


def _step(sys: SdeSystem, t: float, t_next: float, dt: float, x: Array,
          dw: Array, first: bool) -> Array:
    """One Euler-Maruyama step from (t, x), Heun-corrected for Stratonovich;
    with first, also checks the shape of dw."""
    if first and np.shape(dw) != (len(x), sys.r):
        raise UsageError(f"increments have shape {np.shape(dw)}, "
                         f"not ({len(x)}, {sys.r})")
    euler = x + drift_batch(sys, t, x) * dt
    g = declared_diffusion_batch(sys, t, x)
    if sys.interpretation is Interpretation.STRATONOVICH:
        pred = _add_noise(np.copy(euler), g, dw)
        g = 0.5 * (g + declared_diffusion_batch(sys, t_next, pred))
    return _add_noise(euler, g, dw)


def _add_noise(x: Array, g: Array, dw: Array) -> Array:
    """x += g dW in place and return x: g[i, i] dW_i on the first r
    coordinates for a diagonal g, einsum on C-ordered copies otherwise."""
    if g.ndim == 2:
        x[:, :g.shape[1]] += g * dw
    else:
        x += np.einsum("pmr,pr->pm", *map(np.ascontiguousarray, (g, dw)))
    return x


def integrate_batch(sys: SdeSystem, grid: TimeGrid, x0: Array,
                    increments_for: Callable[[int], Array]
                    ) -> Tuple[Array, Array]:
    """Collect every state of a march; returns (states, dead_step).

    states has shape (n_paths, n_steps + 1, m) and dead_step is the final
    dead array of march, whose arguments this takes.  The package passes
    increments_for by keyword, where perfbench's tracer looks for the
    provider.
    """
    steps = march(sys, grid, x0, increments_for)
    _, x, dead = next(steps)  # march has checked the shape of x0
    states = np.empty((len(x), grid.n_steps + 1, sys.m))
    states[:, 0] = x
    for n, x, dead in steps:
        states[:, n] = x
    return states, dead


def simulate(sys: SdeSystem, cfg: SimConfig, noise: WienerGrid) -> Trajectory:
    """Integrate one path driven by an explicit Wiener grid.

    The noise must live on the configured time grid; march checks the
    shapes of x0 and of the noise.  A non-finite state freezes the path,
    as in any batch, and simulate raises IntegrationError from the dead
    record, with the failing step, its time and the last finite state.
    """
    if noise.grid != cfg.grid:
        raise UsageError("noise grid differs from the configured grid")
    increments = noise.increments[:, None]  # step n -> (1, r)
    states, dead = integrate_batch(sys, cfg.grid, np.array([cfg.x0]),
                                   increments_for=increments.__getitem__)
    step = int(dead[0])
    if step >= 0:
        t = float(cfg.grid.times()[step])
        raise IntegrationError(
            f"state became non-finite at step {step} (t={t:.6g})",
            step=step, t=t, last_state=states[0, step])
    return Trajectory(cfg.grid, states[0], path_id=noise.path_id)


def write_trajectory_csv(traj: Trajectory, target,
                         coord_names: Optional[Sequence[str]] = None) -> None:
    """Write a trajectory as CSV: header t,x_1,...,x_m, one row per time.

    Floats are written with round-trip precision (repr), so parsing the
    file recovers the exact values.  target is a path or a text file
    object.
    """
    names = (tuple(coord_names) if coord_names is not None
             else tuple(f"x_{i + 1}" for i in range(traj.m)))
    if len(names) != traj.m:
        raise UsageError("coord_names length must match the trajectory")
    own = isinstance(target, (str, bytes)) or hasattr(target, "__fspath__")
    fh = open(target, "w", newline="") if own else target
    try:
        write_csv_rows(fh, traj.t, traj.states, names)
    finally:
        if own:
            fh.close()


def write_csv_rows(fh, times: Array, states: Array,
                   header: Optional[Sequence[str]] = None) -> None:
    """Write the CSV rows t,x_1,...,x_m of states[k] at times[k] to fh.

    With a header (the coordinate names), the line t,name_1,...,name_m
    comes first.  Floats are written with repr, the round-trip precision
    of write_trajectory_csv, so appending the rows of consecutive grid
    slices gives the same bytes as writing the whole trajectory at once.
    """
    writer = csv.writer(fh, lineterminator="\n")
    if header is not None:
        writer.writerow(["t"] + list(header))
    for t, row in zip(times, states):
        writer.writerow([repr(float(t))] + [repr(float(v)) for v in row])
