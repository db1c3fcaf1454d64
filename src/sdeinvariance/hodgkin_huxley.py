"""Stochastic Hodgkin-Huxley membrane models.

State ordering is (x_1, x_2, x_3, V): sodium activation, potassium
activation, sodium inactivation, then membrane potential in mV.  The
gating variables follow the classical two-state kinetics

    dx_i/dt = alpha_i(V) (1 - x_i) - beta_i(V) x_i,

and the voltage follows the current balance

    C dV/dt = I - g_Na x_1^3 x_3 (V - E_Na)
                - g_K x_2^4 (V - E_K) - g_L (V - E_L).

Noise enters only through the gating rows; the voltage row of the
diffusion matrix is identically zero.  Three variants are registered:

    hh-det        no noise (plain ODE)
    hh-additive   constant sigma_i on gating component i
    hh-logistic   sigma_i * x_i * (1 - x_i) on gating component i

The additive variant leaks probability mass out of [0, 1] because its
noise does not vanish on the gating faces; the logistic variant switches
off exactly at x_i = 0 and x_i = 1 and keeps the box invariant.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

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


def _alpha1(v: Array) -> Array:
    # 0.1 (V + 35) / (1 - exp(-(V + 35) / 10)); removable singularity at -35
    u = v + 35.0
    safe = np.where(np.abs(u) < _SINGULAR_WINDOW, 1.0, u)
    direct = 0.1 * safe / (1.0 - np.exp(-safe / 10.0))
    series = 1.0 + u / 20.0
    return np.where(np.abs(u) < _SINGULAR_WINDOW, series, direct)


def _alpha2(v: Array) -> Array:
    # 0.01 (V + 50) / (1 - exp(-(V + 50) / 10)); removable singularity at -50
    u = v + 50.0
    safe = np.where(np.abs(u) < _SINGULAR_WINDOW, 1.0, u)
    direct = 0.01 * safe / (1.0 - np.exp(-safe / 10.0))
    series = 0.1 + u / 200.0
    return np.where(np.abs(u) < _SINGULAR_WINDOW, series, direct)


def _alpha3(v: Array) -> Array:
    return 0.07 * np.exp(-0.05 * (v + 60.0))


def _beta1(v: Array) -> Array:
    return 4.0 * np.exp(-0.0556 * (v + 60.0))


def _beta2(v: Array) -> Array:
    return 0.125 * np.exp(-(v + 60.0) / 80.0)


def _beta3(v: Array) -> Array:
    return 1.0 / (1.0 + np.exp(-0.1 * (v + 30.0)))


_ALPHAS = (_alpha1, _alpha2, _alpha3)
_BETAS = (_beta1, _beta2, _beta3)


def rate_alpha(i: int, v):
    """Opening rate alpha_i(V) for gating channel i in {1, 2, 3}.

    Accepts scalars or arrays; scalars come back as plain floats.  Total on
    finite inputs: the two removable singularities (V = -35 for channel 1,
    V = -50 for channel 2) are filled in by their series limits.
    """
    if i not in (1, 2, 3):
        raise UsageError("gating channel must be 1, 2 or 3")
    out = _ALPHAS[i - 1](np.asarray(v, dtype=float))
    return out if isinstance(v, np.ndarray) else float(out)


def rate_beta(i: int, v):
    """Closing rate beta_i(V) for gating channel i in {1, 2, 3}."""
    if i not in (1, 2, 3):
        raise UsageError("gating channel must be 1, 2 or 3")
    out = _BETAS[i - 1](np.asarray(v, dtype=float))
    return out if isinstance(v, np.ndarray) else float(out)


def _all_alphas(v: Array) -> Array:
    return np.stack([fn(v) for fn in _ALPHAS], axis=-1)


def _all_betas(v: Array) -> Array:
    return np.stack([fn(v) for fn in _BETAS], axis=-1)


class NoiseKind(enum.Enum):
    NONE = "none"
    ADDITIVE = "additive"
    MULTIPLICATIVE = "multiplicative"


@dataclass(frozen=True)
class NoiseSpec:
    """How noise enters the gating equations.

    sigma holds one positive amplitude per gating component; it is None
    for the noiseless kind.
    """

    kind: NoiseKind
    sigma: Optional[Tuple[float, float, float]] = None

    def __post_init__(self):
        if self.kind is NoiseKind.NONE:
            if self.sigma is not None:
                raise UsageError("noiseless spec takes no sigma")
            return
        if self.sigma is None:
            raise UsageError(f"{self.kind.value} noise needs sigma")
        sig = tuple(float(s) for s in self.sigma)
        if len(sig) != 3:
            raise UsageError("sigma must have one entry per gating variable")
        if any(not s > 0 for s in sig):
            raise UsageError("sigma entries must be positive")
        object.__setattr__(self, "sigma", sig)

    @classmethod
    def none(cls) -> "NoiseSpec":
        return cls(NoiseKind.NONE)

    @classmethod
    def additive(cls, sigma: Union[float, Sequence[float]]) -> "NoiseSpec":
        return cls(NoiseKind.ADDITIVE, _sigma_triple(sigma))

    @classmethod
    def multiplicative(cls, sigma: Union[float, Sequence[float]]) -> "NoiseSpec":
        return cls(NoiseKind.MULTIPLICATIVE, _sigma_triple(sigma))


def _sigma_triple(sigma) -> Tuple[float, float, float]:
    if np.isscalar(sigma):
        s = float(sigma)
        return (s, s, s)
    return tuple(float(v) for v in sigma)


def hh_drift(params: HHParams) -> Callable[[float, Array], Array]:
    """Drift field for the four-state model; batch-friendly."""

    def drift(t: float, x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        gates = x[..., :3]
        v = x[..., 3]
        a = _all_alphas(v)
        b = _all_betas(v)
        dgates = a * (1.0 - gates) - b * gates
        ionic = (params.i_app
                 - params.g_na * gates[..., 0] ** 3 * gates[..., 2]
                 * (v - params.e_na)
                 - params.g_k * gates[..., 1] ** 4 * (v - params.e_k)
                 - params.g_l * (v - params.e_l))
        dv = ionic / params.c_m
        return np.concatenate([dgates, dv[..., None]], axis=-1)

    return drift


def hh_diffusion(noise: NoiseSpec) -> Callable[[float, Array], Array]:
    """Diffusion field, shape (..., 4, 3); the voltage row is zero."""

    def diffusion(t: float, x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (4, 3))
        if noise.kind is NoiseKind.NONE:
            return out
        sigma = np.asarray(noise.sigma)
        if noise.kind is NoiseKind.ADDITIVE:
            for i in range(3):
                out[..., i, i] = sigma[i]
        else:
            gates = x[..., :3]
            amp = sigma * gates * (1.0 - gates)
            for i in range(3):
                out[..., i, i] = amp[..., i]
        return out

    return diffusion


def hh_diffusion_jacobian(noise: NoiseSpec) -> Callable[[float, Array], Array]:
    """Analytic d g[i, k] / d x[j], shape (..., 4, 3, 4)."""

    def jacobian(t: float, x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (4, 3, 4))
        if noise.kind is NoiseKind.MULTIPLICATIVE:
            sigma = np.asarray(noise.sigma)
            gates = x[..., :3]
            slope = sigma * (1.0 - 2.0 * gates)
            for i in range(3):
                out[..., i, i, i] = slope[..., i]
        return out

    return jacobian


def hh_system(params: Optional[HHParams] = None,
              noise: Optional[NoiseSpec] = None,
              interpretation: Interpretation = Interpretation.ITO,
              name: Optional[str] = None) -> SdeSystem:
    """Assemble the four-state membrane system for a given noise spec."""
    params = params if params is not None else HHParams()
    noise = noise if noise is not None else NoiseSpec.none()
    if name is None:
        name = {
            NoiseKind.NONE: "hh-det",
            NoiseKind.ADDITIVE: "hh-additive",
            NoiseKind.MULTIPLICATIVE: "hh-logistic",
        }[noise.kind]
    return SdeSystem(
        m=4,
        r=3,
        drift=hh_drift(params),
        diffusion=hh_diffusion(noise),
        diffusion_jacobian=hh_diffusion_jacobian(noise),
        interpretation=interpretation,
        name=name,
        vectorized=True,
        coord_names=COORD_NAMES,
        coord_ranges=COORD_RANGES,
    )


def resting_state(v: float = -60.0) -> Array:
    """Gating equilibria alpha/(alpha+beta) at a held voltage, plus V."""
    gates = [rate_alpha(i, v) / (rate_alpha(i, v) + rate_beta(i, v))
             for i in (1, 2, 3)]
    return np.array(gates + [v])


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


def _build_det(params: Optional[HHParams], sigma,
               interpretation: Interpretation) -> SdeSystem:
    return hh_system(params, NoiseSpec.none(), interpretation)


def _build_additive(params: Optional[HHParams], sigma,
                    interpretation: Interpretation) -> SdeSystem:
    return hh_system(params, NoiseSpec.additive(sigma), interpretation)


def _build_multiplicative(params: Optional[HHParams], sigma,
                          interpretation: Interpretation) -> SdeSystem:
    return hh_system(params, NoiseSpec.multiplicative(sigma), interpretation)


_DEFAULT_SIGMA = 0.5

MODEL_REGISTRY: Dict[str, Callable[..., SdeSystem]] = {
    "hh-det": _build_det,
    "hh-additive": _build_additive,
    "hh-logistic": _build_multiplicative,
}


def build_model(name: str, *, sigma=None, params: Optional[HHParams] = None,
                interpretation: Interpretation = Interpretation.ITO,
                ) -> Tuple[SdeSystem, ModelInfo]:
    """Look a model up by registry name and build it.

    sigma defaults to 0.5 for the noisy variants and is ignored by hh-det.
    """
    if name not in MODEL_REGISTRY:
        known = ", ".join(sorted(MODEL_REGISTRY))
        raise UsageError(f"unknown model {name!r}; registered models: {known}")
    if sigma is None:
        sigma = _DEFAULT_SIGMA
    system = MODEL_REGISTRY[name](params, sigma, interpretation)
    return system, hh_metadata()
