"""Invariance checking and reproducible simulation for SDE systems.

The package answers two questions about a system dX = f dt + g dW and a
candidate region (box, positivity cone, or polyhedron):

* structurally, do the boundary conditions for invariance hold?  The
  checkers sample every face and either certify the sampled conditions or
  return concrete witness points where they fail.
* dynamically, what do ensembles of numerical solutions do?  Keyed,
  counter-based noise makes every path reproducible bit for bit, and the
  ensemble statistics quantify how often and how early paths leave the
  region.

Stochastic Hodgkin-Huxley membrane models ship as the built-in case
study, and drift-correction utilities translate systems between their
Ito and Stratonovich forms.
"""

from .conversion import (JacobianMode, JacobianPolicy, correction_batch,
                         ito_to_stratonovich, stratonovich_to_ito)
from .core import (Box, Halfspace, IntegrationError, Interpretation,
                   ModelEvaluationError, ModelInfo, Polyhedron, SdeSystem,
                   TimeGrid, Trajectory, UsageError)
from .ensemble import (EnsembleStats, compare_interpretations,
                       integrate_paths, run_ensemble)
from .hodgkin_huxley import (HHParams, MODEL_REGISTRY, NoiseKind, build_model,
                             hh_metadata, rate_alpha, rate_beta,
                             resting_state)
from .integrators import SimConfig, simulate, write_trajectory_csv
from .invariance import (CheckConfig, CheckReport, FaceReport, Verdict,
                         Witness, check_box, check_comparison,
                         check_polyhedron)
from .svgplot import line_chart
from .wiener import WienerGrid, uniform_stream

__version__ = "0.1.0"

__all__ = [
    "Box", "CheckConfig", "CheckReport", "EnsembleStats", "FaceReport",
    "HHParams", "Halfspace", "IntegrationError", "Interpretation",
    "JacobianMode", "MODEL_REGISTRY",
    "ModelEvaluationError", "ModelInfo", "NoiseKind", "Polyhedron",
    "SdeSystem", "SimConfig", "TimeGrid", "Trajectory", "UsageError",
    "Verdict", "WienerGrid", "Witness", "build_model", "check_box",
    "check_comparison", "check_polyhedron", "compare_interpretations",
    "correction_batch", "hh_metadata", "integrate_paths",
    "ito_to_stratonovich", "line_chart", "rate_alpha", "rate_beta",
    "resting_state", "run_ensemble", "simulate", "stratonovich_to_ito",
    "uniform_stream", "write_trajectory_csv",
]
