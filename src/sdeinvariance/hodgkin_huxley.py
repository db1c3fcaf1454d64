"""Stochastic Hodgkin-Huxley membrane models.

State ordering is (x_1, x_2, x_3, V): sodium activation, potassium
activation, sodium inactivation, then membrane potential in mV.  The
gating variables follow the classical two-state kinetics

    dx_i/dt = alpha_i(V) (1 - x_i) - beta_i(V) x_i,

and the voltage follows the current balance

    C dV/dt = I - g_Na x_1^3 x_3 (V - E_Na)
                - g_K x_2^4 (V - E_K) - g_L (V - E_L).

Noise enters only through the gating rows, gate i driven by Wiener
component i alone; the voltage row of the diffusion matrix is
identically zero.  g is therefore diagonal: the diffusion returns the
three gate entries g[i, i] alone (SdeSystem.diagonal_noise).  No field
depends on t (SdeSystem.autonomous).  Three variants are registered:

    hh-det        no noise (plain ODE)
    hh-additive   constant sigma_i on gating component i
    hh-logistic   sigma_i * x_i * (1 - x_i) on gating component i

The additive variant leaks probability mass out of [0, 1] because its
noise does not vanish on the gating faces; the logistic variant switches
off exactly at x_i = 0 and x_i = 1 and keeps the box invariant.

All six rates come from one kernel, _rates, with one np.exp call; near
the removable singularities of alpha_1 (V = -35) and alpha_2 (V = -50)
it substitutes their series branches.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .core import Array, Box, Interpretation, ModelInfo, SdeSystem, UsageError

# Voltage window within 1e-7 of which the two removable singularities are
# evaluated by their Taylor branch instead of the raw quotient.
_SINGULAR_WINDOW = 1e-7

GATING_NAMES = ("x_1", "x_2", "x_3")
COORD_NAMES = GATING_NAMES + ("V",)

# Plausible excursion windows used when a checker needs to sample a
# coordinate that the region under test leaves free.
COORD_RANGES = ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0), (-100.0, 60.0))


@dataclass(frozen=True)
class HHParams:
    """Membrane constants.

    Units: c_m in uF/cm^2, conductances in mS/cm^2, potentials in mV,
    i_app the applied current density.
    """

    c_m: float = 0.01
    g_na: float = 1.2
    g_k: float = 0.36
    g_l: float = 0.03
    i_app: float = 0.1
    e_na: float = 55.17
    e_k: float = -72.14
    e_l: float = -49.42

    def __post_init__(self):
        if not self.c_m > 0:
            raise UsageError("membrane capacitance must be positive")
        if self.g_na < 0 or self.g_k < 0 or self.g_l < 0:
            raise UsageError("conductances must be >= 0")


# Rows of the rate kernel _rates, with u = V + 35 and w = V + 50:
#   alpha_1 = 0.1 u / (1 - exp(-u / 10)),  1 + u / 20 near u = 0
#   alpha_2 = 0.01 w / (1 - exp(-w / 10)),  0.1 + w / 200 near w = 0
#   alpha_3 = 0.07 exp(-0.05 (V + 60)),  beta_1 = 4 exp(-0.0556 (V + 60)),
#   beta_2 = 0.125 exp(-(V + 60) / 80),  beta_3 = 1 / (1 + exp(-0.1 (V + 30)))
_SHIFTS = np.array([[35.0], [50.0], [60.0], [60.0], [60.0], [30.0]])
_QUOTIENT_GAINS = np.array([[0.1], [0.01]])
_SERIES_AT = np.array([[1.0], [0.1]])
_SERIES_SLOPE = np.array([[20.0], [200.0]])
_EXP_SLOPES = np.array([[-0.05], [-0.0556]])  # alpha_3, beta_1
_EXP_GAINS = np.array([[0.07], [4.0], [0.125]])  # alpha_3, beta_1, beta_2


def _rates(v) -> Array:
    """The six rates at voltages v, in the rows above; (6,) + v.shape.

    Near u = 0 or w = 0 the quotient is taken at 1 instead, so nothing
    divides by zero, and then replaced by the series branch.
    """
    v = np.asarray(v, dtype=float)
    r = v.reshape(1, -1) + _SHIFTS
    u = r[:2]  # u and w
    near = np.abs(u) < _SINGULAR_WINDOW
    singular = near.any()
    if singular:
        series = _SERIES_AT + u / _SERIES_SLOPE
        u[near] = 1.0
    quotient = _QUOTIENT_GAINS * u
    np.negative(u, out=u)
    u /= 10.0
    r[2:4] *= _EXP_SLOPES
    np.negative(r[4], out=r[4])
    r[4] /= 80.0
    r[5] *= -0.1
    np.exp(r, out=r)
    np.subtract(1.0, u, out=u)
    np.divide(quotient, u, out=u)
    if singular:
        np.copyto(u, series, where=near)
    r[2:5] *= _EXP_GAINS
    r[5] += 1.0
    np.divide(1.0, r[5], out=r[5])
    return r.reshape((6,) + v.shape)


def _rate(i: int, v, row: int):
    if i not in (1, 2, 3):
        raise UsageError("gating channel must be 1, 2 or 3")
    out = _rates(v)[row]
    return float(out) if np.isscalar(v) else np.asarray(out)


def rate_alpha(i: int, v):
    """Opening rate alpha_i(V) for gating channel i in {1, 2, 3}.

    Accepts scalars or array-likes; scalars come back as plain floats,
    anything else as an ndarray.  Total on finite inputs: the two
    removable singularities (V = -35 for channel 1, V = -50 for channel 2)
    are filled in by their series limits.
    """
    return _rate(i, v, i - 1)


def rate_beta(i: int, v):
    """Closing rate beta_i(V) for gating channel i in {1, 2, 3}."""
    return _rate(i, v, i + 2)


class NoiseKind(enum.Enum):
    NONE = "none"
    ADDITIVE = "additive"
    MULTIPLICATIVE = "multiplicative"


def hh_drift(params: HHParams) -> Callable[[float, Array], Array]:
    """Drift field for the four-state model; batch-friendly."""

    def drift(t: float, x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        # axes reversed: row i is coordinate i, in step with the rate rows
        xt, ft = x.T, out.T
        gates, v = xt[:3], xt[3, ...]
        rates = _rates(v)
        np.subtract(1.0, gates, out=ft[:3])  # alpha (1 - x) - beta x
        ft[:3] *= rates[:3]
        ft[:3] -= np.multiply(rates[3:], gates, out=rates[3:])
        ionic = (params.i_app
                 - params.g_na * gates[0] ** 3 * gates[2] * (v - params.e_na)
                 - params.g_k * gates[1] ** 4 * (v - params.e_k)
                 - params.g_l * (v - params.e_l))
        np.divide(ionic, params.c_m, out=ft[3, ...])
        return out

    return drift


def _amplitudes(sigma) -> Tuple[float, float, float]:
    """sigma as one positive, finite amplitude per gate; a number (or a
    0-d array) stands for all three."""
    try:
        sig = np.asarray(sigma, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise UsageError(
            f"sigma must be a number or numbers, not {sigma!r}") from None
    if sig.ndim == 0:
        sig = np.full(3, sig)
    if sig.shape != (3,):
        raise UsageError("sigma must have one entry per gating variable")
    if not ((0 < sig) & (sig < np.inf)).all():
        raise UsageError("sigma entries must be positive and finite")
    return tuple(float(s) for s in sig)


def hh_diffusion(kind: NoiseKind, sigma) -> Callable[[float, Array], Array]:
    """Diffusion g[i, i] of each gate i, shape (..., 3); sigma holds the
    three gate amplitudes, which NoiseKind.NONE ignores."""
    sigma = np.asarray(sigma)

    def diffusion(t: float, x: Array) -> Array:
        gates = np.asarray(x, dtype=float)[..., :3]
        if kind is NoiseKind.NONE:
            return np.zeros_like(gates)
        if kind is NoiseKind.ADDITIVE:
            return np.full_like(gates, sigma)
        return sigma * gates * (1.0 - gates)

    return diffusion


def hh_diffusion_jacobian(kind: NoiseKind, sigma
                          ) -> Callable[[float, Array], Array]:
    """Analytic d g[i, k] / d x[j], shape (..., 4, 3, 4)."""
    sigma = np.asarray(sigma)

    def jacobian(t: float, x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (4, 3, 4))
        if kind is NoiseKind.MULTIPLICATIVE:
            # entries (i, i, i), i < 3, sit 17 apart in each 48-entry block
            diagonal = out.reshape(x.shape[:-1] + (48,))[..., ::17]
            np.multiply(sigma, 1.0 - 2.0 * x[..., :3], out=diagonal)
        return out

    return jacobian


# the built-in models: one name per noise kind
MODEL_REGISTRY: Dict[str, NoiseKind] = {
    "hh-det": NoiseKind.NONE,
    "hh-additive": NoiseKind.ADDITIVE,
    "hh-logistic": NoiseKind.MULTIPLICATIVE,
}


def resting_state(v: float = -60.0) -> Array:
    """Gating equilibria alpha/(alpha+beta) at a held voltage, plus V."""
    rates = _rates(v)
    return np.append(rates[:3] / (rates[:3] + rates[3:]), v)


def hh_metadata() -> ModelInfo:
    """Canonical region, start state and horizon for the membrane models.

    The region is the unit box on the three gating coordinates; the voltage
    is left free.  The start state holds the gates at their equilibria for
    V = -60 mV, and the default horizon is 100 ms.  Plots chart the gates
    and the voltage apart, since their scales differ a hundredfold.
    """
    return ModelInfo(box=Box.unit((0, 1, 2)), x0=resting_state(-60.0),
                     horizon=100.0,
                     panels=(("gating", (0, 1, 2)), ("voltage", (3,))))


_DEFAULT_SIGMA = 0.5


def build_model(name: str, *, sigma=None, params: Optional[HHParams] = None,
                interpretation: Interpretation = Interpretation.ITO,
                ) -> Tuple[SdeSystem, ModelInfo]:
    """Build the four-state membrane system registered under name.

    sigma is a number or one amplitude per gate; it defaults to 0.5 for
    the noisy variants and is ignored by hh-det.
    """
    if name not in MODEL_REGISTRY:
        known = ", ".join(sorted(MODEL_REGISTRY))
        raise UsageError(f"unknown model {name!r}; registered models: {known}")
    kind = MODEL_REGISTRY[name]
    sigma = (None if kind is NoiseKind.NONE
             else _amplitudes(_DEFAULT_SIGMA if sigma is None else sigma))
    system = SdeSystem(
        m=4,
        r=3,
        drift=hh_drift(params if params is not None else HHParams()),
        diffusion=hh_diffusion(kind, sigma),
        diffusion_jacobian=hh_diffusion_jacobian(kind, sigma),
        interpretation=interpretation,
        name=name,
        vectorized=True,
        coord_names=COORD_NAMES,
        coord_ranges=COORD_RANGES,
        diagonal_noise=True,
        autonomous=True,
    )
    return system, hh_metadata()
