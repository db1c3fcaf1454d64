"""
Face-by-face invariance checks on the built-in neuron models
============================================================

The gating variables of the neuron model live in the unit cube.  Whether
they stay there depends entirely on how the noise enters: state-scaled
(logistic) noise switches itself off on the cube's faces, constant
additive noise does not.  The checker finds this from samples of the
coefficient functions alone, with no simulation.
"""

from sdeinvariance import (Box, CheckConfig, Halfspace, Polyhedron,
                           SdeSystem, build_model, check_box,
                           check_polyhedron)

import numpy as np

# =========================
# The three registry models
# =========================
for name in ("hh-det", "hh-additive", "hh-logistic"):
    system, info = build_model(name, sigma=0.5)
    report = check_box(system, info.box)
    print(f"{name:12s} -> {report.verdict.value}")
    for witness in report.witnesses[:2]:
        coords = ", ".join(f"{v:.3f}" for v in witness.x)
        print(f"    face {witness.face_index} ({witness.side}): "
              f"{witness.kind} = {witness.value:.3g} at ({coords})")

# The full report serializes to JSON; here is one face of the additive run.
system, info = build_model("hh-additive", sigma=0.5)
report = check_box(system, info.box, CheckConfig(n_face_samples=512))
face = report.face(0, "lower")
print(f"\nface (0, lower): {face.n_samples} samples, "
      f"min drift margin {face.min_drift_margin:.3g}, "
      f"max |g| {face.max_diffusion_abs:.3g}")

# =========================
# Positivity as a special case
# =========================
# A one-sided box [0, inf) per coordinate.  The logistic model keeps all
# gates nonnegative; so does the deterministic one.
for name in ("hh-det", "hh-logistic"):
    system, info = build_model(name, sigma=0.5)
    report = check_box(system, Box.positive((0, 1, 2)))
    print(f"positivity, {name}: {report.verdict.value}")

# =========================
# A polyhedral region
# =========================
# Half-plane x + y >= 1 for a rotation-like system whose noise pushes
# along the boundary, never through it.  Tangential noise is fine for
# polyhedra even though it would fail a box check.


def inward_drift(t, x):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    out[..., 0] = 1.0 - x[..., 0]
    out[..., 1] = 1.0 - x[..., 1]
    return out


def boundary_parallel_noise(t, x):
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape[:-1] + (2, 1))
    out[..., 0, 0] = 0.4
    out[..., 1, 0] = -0.4  # (1, -1) is orthogonal to the normal (1, 1)
    return out


system = SdeSystem(m=2, r=1, drift=inward_drift,
                   diffusion=boundary_parallel_noise, vectorized=True,
                   name="shear")
half_plane = Polyhedron((Halfspace(anchor=(0.5, 0.5), normal=(1.0, 1.0)),))
report = check_polyhedron(system, half_plane,
                          CheckConfig(fallback_range=(-3.0, 3.0)))
print(f"half-plane with boundary-parallel noise: {report.verdict.value}")
