"""Reproducible driving noise for the integrators.

Every normal increment is addressed by the tuple (seed, path_id, step,
component) and computed as a pure function of that tuple, so regeneration
is bit-identical no matter how paths are batched or revisited later.
Distinct path ids therefore get disjoint streams by construction.

The mapping is a chained 64-bit hash: each tuple element is folded in with
an xor and passed through the splitmix64 finalizer (a bijective mixer with
good avalanche behaviour).  The final 64-bit word is turned into a uniform
in the open interval (0, 1) using its top 53 bits, and the increment is

    dW = sqrt(dt) * ndtri(u)

with ndtri the inverse of the standard normal CDF (scipy.special).
The finalizer mixes in place, and increments_for_step finishes the
uniform, ndtri and the sqrt(dt) scaling in one buffer, component-major
with the paths contiguous; it returns the (n_paths, r) view, F-ordered.
Given a block of steps, it folds the (seed, path_id) prefix of the chain
once for the whole block and broadcasts the steps after it; a WienerGrid
is generated as one such block.  None of this changes the mapping from
(seed, path_id, step, component) to the increment.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .core import Array, TimeGrid, UsageError, checked_indices

_GAMMA = 0x9E3779B97F4A7C15
_MULT1 = np.uint64(0xBF58476D1CE4E5B9)
_MULT2 = np.uint64(0x94D049BB133111EB)
_SHIFTS = (np.uint64(30), np.uint64(27), np.uint64(31), np.uint64(11))


def _mix64(z) -> Array:
    # splitmix64 finalizer, in place on a uint64 array (a copy of anything
    # else); uint64 array arithmetic wraps mod 2^64 without a warning
    z = np.asarray(z, dtype=np.uint64)
    z ^= z >> _SHIFTS[0]
    z *= _MULT1
    z ^= z >> _SHIFTS[1]
    z *= _MULT2
    z ^= z >> _SHIFTS[2]
    return z


@functools.lru_cache(maxsize=64)
def _seed_word(seed: int) -> Array:
    return _mix64((seed + _GAMMA) % 2 ** 64)[()]


def uniform_stream(seed: int, path_ids, steps, components) -> Array:
    """Uniforms in (0, 1) for broadcastable index arrays.

    The three index arguments broadcast against each other; the result has
    the broadcast shape.  Each output element depends only on the tuple
    (seed, path_id, step, component).  The seed must be a key like a
    path id (UsageError otherwise).
    """
    h = _seed_word(int(checked_keys([seed], "seeds")[0]))
    for index in (path_ids, steps, components):
        h = _mix64(h ^ np.asarray(index, dtype=np.uint64))
    h >>= _SHIFTS[3]
    u = h.astype(np.float64)
    u += 0.5
    u *= 2.0 ** -53
    return u[()]  # a scalar for scalar indices


def checked_keys(values, what: str) -> Array:
    """values as a uint64 array of 64-bit keys (seeds, path ids): each an
    integer in [0, 2**64), else UsageError naming what they are."""
    keys = checked_indices(values, what)
    if not all(0 <= k < 2 ** 64 for k in keys):
        raise UsageError(f"{what} must lie in [0, 2**64)")
    return np.array(keys, dtype=np.uint64)


def increments_for_step(seed: int, path_ids: Array, step, r: int,
                        dt: float) -> Array:
    """Wiener increments over one step for many paths, shape (n_paths, r).

    step may also be a 1-D array of steps; the result then has shape
    (len(step), n_paths, r), and row k holds, bit for bit, the increments
    of step[k] alone.  The (seed, path_id) hash is computed once for the
    whole block, and each (n_paths, r) result is an F-ordered view.
    """
    ids = np.asarray(path_ids, dtype=np.uint64).reshape(-1)
    steps = np.asarray(step, dtype=np.uint64)
    if steps.ndim:
        steps = steps.reshape(-1, 1, 1)
    z = uniform_stream(seed, ids, steps, np.arange(r)[:, None])
    ndtri(z, out=z)
    z *= np.sqrt(dt)
    return z.swapaxes(-1, -2)


@dataclass(frozen=True, eq=False)
class WienerGrid:
    """Wiener increments for one path on one time grid.

    increments[n, k] is the k-th component increment over [t_n, t_{n+1}].
    Two instances built with the same (seed, path_id, grid, r) hold
    bit-identical arrays.
    """

    seed: int
    path_id: int
    grid: TimeGrid
    increments: Array

    def __post_init__(self):
        arr = np.asarray(self.increments, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != self.grid.n_steps:
            raise UsageError(
                f"increments must have shape (n_steps, r), got {arr.shape}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "increments", arr)

    @property
    def r(self) -> int:
        return self.increments.shape[1]

    @classmethod
    def generate(cls, seed: int, path_id: int, grid: TimeGrid,
                 r: int) -> "WienerGrid":
        ids = checked_keys([path_id], "path ids")
        if r < 0:
            raise UsageError("noise dimension r must be >= 0")
        z = increments_for_step(seed, ids, np.arange(grid.n_steps), r, grid.dt)
        return cls(seed=int(seed), path_id=int(ids[0]), grid=grid,
                   increments=z[:, 0])
