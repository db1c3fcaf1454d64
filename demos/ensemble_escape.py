"""
How often do 200 paths leave the unit cube?
===========================================

The checker's verdicts are structural; this demo measures the same
distinction dynamically.  Under additive noise the gating variables
cross their bounds almost immediately (and the voltage equation then
feeds on the out-of-range gates).  Under logistic noise nothing escapes,
at any amplitude tried.
"""

import os

import numpy as np

from sdeinvariance import (SimConfig, TimeGrid, build_model, line_chart,
                           run_ensemble)

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

GRID = TimeGrid(0.0, 20.0, 2000)
N_PATHS = 200
SIGMAS = (0.1, 0.25, 0.5)

# =========================
# Violation fraction vs noise amplitude
# =========================
fractions = {"hh-additive": [], "hh-logistic": []}
for name in fractions:
    for sigma in SIGMAS:
        system, info = build_model(name, sigma=sigma)
        cfg = SimConfig(grid=GRID, x0=tuple(info.x0), seed=0)
        stats = run_ensemble(system, cfg, N_PATHS, info.box)
        fractions[name].append(stats.violation_fraction)
        exits = [t for _, t in stats.first_exit_times]
        first = f"{min(exits):.3f}" if exits else "n/a"
        print(f"{name:12s} sigma={sigma:4.2f}: "
              f"fraction={stats.violation_fraction:5.3f}  "
              f"earliest exit t={first}  "
              f"non-finite paths={len(stats.nonfinite_paths)}")

# =========================
# Chart and JSON summary
# =========================
chart = line_chart(np.array(SIGMAS),
                   [(name, np.array(vals))
                    for name, vals in fractions.items()],
                   title=f"fraction of {N_PATHS} paths leaving the cube "
                         f"by t={GRID.t_end:g}",
                   x_label="sigma", y_label="fraction")
chart_path = os.path.join(OUT, "violation-fractions.svg")
with open(chart_path, "w") as fh:
    fh.write(chart)
print(f"\nwrote {chart_path}")

# A full stats object serializes for downstream tooling; keep one run.
system, info = build_model("hh-additive", sigma=0.5)
stats = run_ensemble(system, SimConfig(grid=GRID, x0=tuple(info.x0),
                                       seed=0), N_PATHS, info.box)
stats_path = os.path.join(OUT, "additive-stats.json")
with open(stats_path, "w") as fh:
    fh.write(stats.to_json(indent=2) + "\n")
print(f"wrote {stats_path}")

# The time-resolved median tells the story: unremarkable early on, then
# dominated by paths frozen at the huge values they hit while diverging.
q50 = stats.quantiles["q50"]
early = int(round(1.0 / GRID.dt))
print(f"median state at t=1:  {np.round(q50[early], 4).tolist()}")
print(f"median state at t={GRID.t_end:g}: {np.round(q50[-1], 4).tolist()}")
