"""Switching a system between its Ito and Stratonovich forms.

The two calculi describe the same family of models through shifted drifts.
With the correction vector

    h_i(t, x) = sum_k sum_j  d g[i, k] / d x[j]  *  g[j, k],

a Stratonovich pair (f, g) describes the same solutions as the Ito pair
(f + h/2, g), and conversely an Ito pair (f, g) matches the Stratonovich
pair (f - h/2, g).  The diffusion matrix never changes; only the drift
absorbs the correction.

The Jacobian d g / d x comes either from an analytic callable shipped on
the system or from scaled central differences of the diffusion field.
correction_batch holds the dense Jacobian of one row block at a time, and
rows are independent (SdeSystem.vectorized), so h keeps the batch's bits.
"""

from __future__ import annotations

import enum
from dataclasses import replace

import numpy as np

from .core import (Array, Interpretation, ModelEvaluationError, SdeSystem,
                   UsageError, diffusion_batch, jacobian_batch)


class JacobianMode(enum.Enum):
    """How to obtain d g / d x for the drift correction.

    Central differences use the step 1e-6 * max(1, |x_j|) in coordinate
    j; analytic mode calls the system's diffusion_jacobian, and
    for_system picks it whenever the system carries one.
    """

    ANALYTIC = "analytic"
    CENTRAL_DIFFERENCE = "central-difference"

    @classmethod
    def for_system(cls, sys: SdeSystem) -> "JacobianMode":
        return (cls.ANALYTIC if sys.diffusion_jacobian is not None
                else cls.CENTRAL_DIFFERENCE)


# the old name; perfbench/workloads.py, its only reader, calls it on a mode
JacobianPolicy = JacobianMode

_FD_STEP = 1e-6
_BLOCK_BYTES = 3 << 16  # the dense (rows, m, r, m) Jacobian of one block


def _fd_jacobian_batch(sys: SdeSystem, t: float, states: Array) -> Array:
    """Central-difference d g / d x on a (n, m) batch, (n, m, r, m)."""
    n = states.shape[0]
    out = np.empty((n, sys.m, sys.r, sys.m))
    for j in range(sys.m):
        delta = _FD_STEP * np.maximum(1.0, np.abs(states[:, j]))
        plus = states.copy()
        minus = states.copy()
        plus[:, j] += delta
        minus[:, j] -= delta
        gp = diffusion_batch(sys, t, plus)
        gm = diffusion_batch(sys, t, minus)
        out[:, :, :, j] = (gp - gm) / (2.0 * delta)[:, None, None]
    return out


def correction_batch(sys: SdeSystem, t: float, states: Array,
                     mode: JacobianMode | None = None) -> Array:
    """The correction vector h on a (n, m) batch of states, (n, m);
    mode None means JacobianMode.for_system(sys)."""
    states = np.asarray(states, dtype=float)
    mode = mode or JacobianMode.for_system(sys)
    jacobian = (jacobian_batch if mode is JacobianMode.ANALYTIC
                else _fd_jacobian_batch)
    rows = max(2, _BLOCK_BYTES // (8 * sys.m * max(sys.r, 1) * sys.m))
    # no one-row block in a longer batch: einsum sums a lone row otherwise
    cuts = [0, *range(rows, len(states) - 1, rows), len(states)]
    h = np.empty((len(states), sys.m))
    for lo, hi in zip(cuts, cuts[1:]):
        block = states[lo:hi]
        jac = jacobian(sys, t, block)
        if not np.all(np.isfinite(jac)):
            b, i, k, j = (int(v) for v in np.argwhere(~np.isfinite(jac))[0])
            raise ModelEvaluationError(
                f"diffusion jacobian entry ({i}, {k}, {j}) is not finite "
                f"at t={t}", t=t, x=block[b], index=(i, k, j))
        # h_i = sum_{k,j} J[i, k, j] * g[j, k]
        np.einsum("nikj,njk->ni", jac, diffusion_batch(sys, t, block),
                  out=h[lo:hi])
    return h


def _shifted_drift(sys: SdeSystem, mode: JacobianMode, sign: float):
    base = sys.drift

    def drift(t: float, x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        h = correction_batch(sys, t, np.atleast_2d(x), mode)
        return (np.asarray(base(t, x), dtype=float)
                + sign * 0.5 * h.reshape(x.shape))

    drift.__name__ = f"{'plus' if sign > 0 else 'minus'}_half_correction"
    return drift


def _rewrite(sys: SdeSystem, mode: JacobianMode | None,
             target: Interpretation, refusal: str) -> SdeSystem:
    """sys, which must carry the other tag, read as target: drift f + h/2
    towards Ito, f - h/2 towards Stratonovich, the target's tag and an
    -as-<target> name.  Every other field carries over."""
    if sys.interpretation is target:
        raise UsageError(refusal)
    mode = mode or JacobianMode.for_system(sys)  # once, not per drift call
    sign = 1.0 if target is Interpretation.ITO else -1.0
    return replace(sys, drift=_shifted_drift(sys, mode, sign),
                   interpretation=target, name=f"{sys.name}-as-{target.value}")


def stratonovich_to_ito(sys: SdeSystem,
                        mode: JacobianMode | None = None) -> SdeSystem:
    """Rewrite a Stratonovich system as the equivalent Ito system.

    The returned system has drift f + h/2, the same diffusion, and the
    Ito tag.  Requires a smooth diffusion (the correction differentiates
    it) and a system tagged Stratonovich; mode None means for_system's.
    Every other field carries over; autonomous among them, since the h
    of a t-free g and Jacobian is t-free.
    """
    return _rewrite(sys, mode, Interpretation.ITO,
                    "stratonovich_to_ito expects a Stratonovich system")


def ito_to_stratonovich(sys: SdeSystem,
                        mode: JacobianMode | None = None) -> SdeSystem:
    """Rewrite an Ito system as the equivalent Stratonovich system.

    The mirror of :func:`stratonovich_to_ito`: drift f - h/2, and every
    other field, autonomous included, carried over.
    """
    return _rewrite(sys, mode, Interpretation.STRATONOVICH,
                    "ito_to_stratonovich expects an Ito system")
