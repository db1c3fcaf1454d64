"""
Strong convergence of the stochastic Euler scheme
=================================================

Geometric Brownian motion has a closed-form solution driven by the same
Wiener path the integrator sees, so the endpoint error is measurable
exactly.  Halving dt should shrink the mean absolute endpoint error by
about sqrt(2): strong order one half.  A path that turns non-finite is
frozen, not raised, so the table counts the dead paths at each dt: a
blow-up would otherwise bias the error unseen.
"""

import numpy as np

from sdeinvariance import Interpretation, SdeSystem, TimeGrid
from sdeinvariance.integrators import integrate_batch
from sdeinvariance.wiener import increments_for_step

A, B = 0.5, 1.0  # dX = A X dt + B X dW,  X(0) = 1
SEED = 77
N_PATHS = 1000


def drift(t, x):
    return A * np.asarray(x, dtype=float)


def diffusion(t, x):
    return (B * np.asarray(x, dtype=float))[..., None]


system = SdeSystem(m=1, r=1, drift=drift, diffusion=diffusion,
                   vectorized=True, name="gbm",
                   interpretation=Interpretation.ITO)

path_ids = np.arange(N_PATHS)
x0 = np.ones((N_PATHS, 1))

print(f"{'dt':>10s} {'mean |X_T - exact|':>20s} {'dead paths':>11s}")
dts, errors = [], []
for k in range(4, 11):
    grid = TimeGrid(0.0, 1.0, 2 ** k)
    w_end = np.zeros((N_PATHS, 1))

    def provider(step, _w=w_end, _dt=grid.dt):
        dw = increments_for_step(SEED, path_ids, step, 1, _dt)
        _w += dw
        return dw

    # the Ito tag picks Euler-Maruyama
    states, dead = integrate_batch(system, grid, x0, provider)
    exact = np.exp((A - 0.5 * B ** 2) * 1.0 + B * w_end[:, 0])
    err = np.mean(np.abs(states[:, -1, 0] - exact))
    dts.append(grid.dt)
    errors.append(err)
    print(f"{grid.dt:10.6f} {err:20.8f} {int((dead >= 0).sum()):11d}")

slope = np.polyfit(np.log2(dts), np.log2(errors), 1)[0]
print(f"\nleast-squares slope of log2(error) vs log2(dt): {slope:.4f}")
print("order 1/2 predicts a slope near 0.5")
