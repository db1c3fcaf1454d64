"""Analytic model builders shared across test modules.

The exact-solution helpers are oracles: they come from closed-form
expressions and never touch the integrators under test.
"""

import numpy as np

from sdeinvariance import SdeSystem

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1.x, which names no X86_V4 level
    from numpy.core._multiarray_umath import __cpu_features__


def dispatch_level() -> str:
    """numpy's highest enabled x86 SIMD dispatch level, else "baseline".

    np.exp and np.power give different bits at different levels, so a
    pinned digest holds at the level it was taken at."""
    return next((level for level in ("X86_V4", "X86_V3", "X86_V2")
                 if __cpu_features__.get(level)), "baseline")


def gbm_system(a: float, b: float, name: str = "gbm", **kwargs) -> SdeSystem:
    """dX = a X dt + b X dW, vectorized, with analytic jacobian."""

    def drift(t, x):
        return a * np.asarray(x, dtype=float)

    def diffusion(t, x):
        return (b * np.asarray(x, dtype=float))[..., None]

    def jacobian(t, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (1, 1, 1))
        out[..., 0, 0, 0] = b
        return out

    return SdeSystem(m=1, r=1, drift=drift, diffusion=diffusion,
                     diffusion_jacobian=jacobian, vectorized=True,
                     name=name, **kwargs)


def gbm_exact_ito(x0: float, a: float, b: float, t: float, w_t):
    """Endpoint of the Ito reading: X0 exp((a - b^2/2) t + b W_t)."""
    return x0 * np.exp((a - 0.5 * b * b) * t + b * np.asarray(w_t))


def gbm_exact_strat(x0: float, a: float, b: float, t: float, w_t):
    """Endpoint of the Stratonovich reading: X0 exp(a t + b W_t)."""
    return x0 * np.exp(a * t + b * np.asarray(w_t))


def constant_drift_system(m: int, values, r: int = 0) -> SdeSystem:
    """State-independent drift, zero diffusion."""
    values = np.asarray(values, dtype=float)

    def drift(t, x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(values, x.shape).copy()

    def diffusion(t, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (m, r))

    return SdeSystem(m=m, r=r, drift=drift, diffusion=diffusion,
                     vectorized=True, name="const")
