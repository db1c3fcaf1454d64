"""
Interpretation matters, except when it cannot
=============================================

The same pair of coefficient functions (f, g) describes different
processes under the Ito and Stratonovich calculi.  The bridge between
them is a drift shift of half the correction vector h.  Two facts fall
out of the algebra and are shown numerically below:

* state-independent g means h = 0, so the interpretations coincide, and
  so do the matching integrators, step for step;
* state-scaled g gives h != 0, but h vanishes on the faces where g
  vanishes, so the invariance verdict does not care which calculus was
  meant.
"""

from dataclasses import replace

import numpy as np

from sdeinvariance import (Interpretation, SimConfig, TimeGrid, WienerGrid,
                           build_model, check_box, correction_batch, simulate,
                           stratonovich_to_ito)

# =========================
# The correction vector
# =========================
system, info = build_model("hh-logistic", sigma=0.5)
print("correction h on the logistic model (V component is always 0):")
x1s = (0.0, 0.25, 0.5, 0.75, 1.0)
states = np.array([[x1, 0.25, 0.75, -60.0] for x1 in x1s])
for x1, h in zip(x1s, correction_batch(system, 0.0, states)):
    closed_form = 0.25 * x1 * (1 - x1) * (1 - 2 * x1)
    print(f"  x_1 = {x1:4.2f}: h_1 = {h[0]:+.6f} "
          f"(closed form {closed_form:+.6f})")

additive, _ = build_model("hh-additive", sigma=0.5)
h = correction_batch(additive, 0.0, np.array([info.x0]))
print(f"additive model: max |h| = {np.abs(h).max():.1e}")

# =========================
# Rewriting and re-checking
# =========================
# Read the logistic coefficients in the Stratonovich sense, rewrite them
# as the equivalent Ito system, and check both.  Same verdict.
strat, info = build_model("hh-logistic", sigma=0.5,
                          interpretation=Interpretation.STRATONOVICH)
rewritten = stratonovich_to_ito(strat)
v_direct = check_box(strat, info.box).verdict.value
v_rewritten = check_box(rewritten, info.box).verdict.value
print(f"verdicts: stratonovich form {v_direct}, "
      f"converted ito form {v_rewritten}")

# =========================
# Additive noise: schemes agree step for step
# =========================
# Euler-Maruyama targets Ito, Euler-Heun targets Stratonovich, and the
# interpretation picks between them, so retagging the system switches
# the scheme.  On a model with constant g both must produce the same
# numbers from the same Wiener path.
system, info = build_model("hh-additive", sigma=0.1)
grid = TimeGrid(0.0, 50.0, 5000)
noise = WienerGrid.generate(seed=0, path_id=0, grid=grid, r=system.r)
cfg = SimConfig(grid=grid, x0=tuple(info.x0), seed=0)
em = simulate(system, cfg, noise)
heun = simulate(replace(system, interpretation=Interpretation.STRATONOVICH),
                cfg, noise)
gap = np.abs(em.states - heun.states).max()
print(f"additive noise, EM vs Euler-Heun on a shared path: "
      f"max gap = {gap:.1e}")
