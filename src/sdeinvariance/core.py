"""Core data model for systems of stochastic differential equations.

A system is written in differential form as

    dX(t) = f(t, X(t)) dt + g(t, X(t)) dW(t),

where the state X lives in R^m, W is an r-dimensional Wiener process with
independent components, f maps (t, x) to a drift vector in R^m and g maps
(t, x) to an m-by-r diffusion matrix.  The same pair (f, g) can be read
either in the Ito or in the Stratonovich sense; the interpretation tag on
:class:`SdeSystem` records which one is meant.

Both fields are treated as black boxes: they only need to be evaluable at
a point.  Evaluations must be deterministic functions of (t, x) with no
hidden state; everything downstream (checking, integration, ensemble
statistics) relies on that contract for reproducibility.

Regions come in two flavours: :class:`Box` describes per-coordinate bounds
(possibly one-sided), :class:`Polyhedron` an intersection of half-spaces.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

Array = np.ndarray
DriftField = Callable[[float, Array], Array]
DiffusionField = Callable[[float, Array], Array]
JacobianField = Callable[[float, Array], Array]


class UsageError(ValueError):
    """Raised for malformed arguments or inconsistent configuration."""


class ModelEvaluationError(RuntimeError):
    """Raised when a drift/diffusion callable returns a non-finite value.

    Carries the evaluation point and the offending output index so the
    failure can be located without re-running the model.
    """

    def __init__(self, message: str, *, t: float | None = None,
                 x: Sequence[float] | None = None, index=None):
        super().__init__(message)
        self.t = t
        self.x = None if x is None else tuple(float(v) for v in np.ravel(x))
        self.index = index


class IntegrationError(RuntimeError):
    """Raised when a trajectory leaves the representable range mid-run."""

    def __init__(self, message: str, *, step: int, t: float,
                 last_state: Sequence[float]):
        super().__init__(message)
        self.step = step
        self.t = t
        self.last_state = tuple(float(v) for v in np.ravel(last_state))


class Interpretation(enum.Enum):
    """Which stochastic calculus the pair (f, g) is written in."""

    ITO = "ito"
    STRATONOVICH = "stratonovich"


@dataclass(frozen=True)
class SdeSystem:
    """A system dX = f dt + g dW with black-box drift and diffusion.

    Args:
        m: state dimension (>= 1).
        r: number of independent Wiener components (>= 0).
        drift: callable (t, x) -> array of shape (m,).
        diffusion: callable (t, x) -> (m, r) array; but see diagonal_noise.
        interpretation: Ito or Stratonovich reading of (f, g).
        name: label used in reports and file output.
        vectorized: if True, drift/diffusion also accept a batch of states
            of shape (n, m) and return (n, m) / (n, m, r), operating on each
            row independently.  Purely an evaluation speedup; results must
            be row-wise identical to single-state calls.
        diffusion_jacobian: optional callable (t, x) -> array of shape
            (m, r, m) with entry [i, k, j] = d g[i, k] / d x[j].  The drift
            correction uses it by default (JacobianMode.for_system).
        coord_names: optional labels for the state coordinates (CSV headers,
            plots).  Defaults to x_1 .. x_m.
        coord_ranges: optional per-coordinate plausibility intervals used by
            the checkers when a coordinate is not pinned by the region under
            test.
        diagonal_noise: if True, g[i, k] == 0 whenever i != k, so Wiener
            component k drives coordinate k alone (needs r <= m), and the
            diffusion returns only g[i, i], i < r: shape (r,), or (n, r)
            for a batch, checked at every evaluation.  The checkers read
            it as declared (see diffusion_row); diffusion_batch places it
            in the dense (n, m, r) matrix.
        autonomous: if True, drift and diffusion do not depend on t, so
            they return the same bits at every time.  The invariance
            checkers then evaluate each face once and replay the result
            at every check time; the first sampled face of a check with
            several check times is evaluated once more at the last one
            and compared bit for bit with the declaration (UsageError if
            it differs).  A callable cannot show that it ignores t, so
            the default False evaluates at every check time.
    """

    m: int
    r: int
    drift: DriftField
    diffusion: DiffusionField
    interpretation: Interpretation = Interpretation.ITO
    name: str = "sde"
    vectorized: bool = False
    diffusion_jacobian: Optional[JacobianField] = None
    coord_names: Optional[Tuple[str, ...]] = None
    coord_ranges: Optional[Tuple[Tuple[float, float], ...]] = None
    diagonal_noise: bool = False
    autonomous: bool = False

    def __post_init__(self):
        if self.m < 1:
            raise UsageError("state dimension m must be >= 1")
        if self.r < 0:
            raise UsageError("noise dimension r must be >= 0")
        if self.diagonal_noise and self.r > self.m:
            raise UsageError(
                f"diagonal_noise needs r <= m, got r={self.r} > m={self.m}")
        if self.coord_names is not None:
            names = tuple(str(s) for s in self.coord_names)
            if len(names) != self.m:
                raise UsageError("coord_names length must equal m")
            object.__setattr__(self, "coord_names", names)
        if self.coord_ranges is not None:
            ranges = tuple((float(lo), float(hi)) for lo, hi in self.coord_ranges)
            if len(ranges) != self.m:
                raise UsageError("coord_ranges length must equal m")
            for lo, hi in ranges:
                if not lo < hi:
                    raise UsageError("coord_ranges entries need lo < hi")
            object.__setattr__(self, "coord_ranges", ranges)

    def labels(self) -> Tuple[str, ...]:
        if self.coord_names is not None:
            return self.coord_names
        return tuple(f"x_{i + 1}" for i in range(self.m))


def _shaped(out, what: str, shape: Tuple[int, ...]) -> Array:
    out = np.asarray(out, dtype=float)
    if out.shape != shape:
        raise UsageError(f"{what} returned shape {out.shape}, expected {shape}")
    return out


def _eval_batch(sys: SdeSystem, what: str, fn, t: float, states,
                shape: Tuple[int, ...]) -> Array:
    """fn on a (n, m) batch of states, shape (n,) + shape.

    Uses the system's vectorized path when available, otherwise loops;
    either way a wrongly shaped return is a UsageError.  No finiteness
    check; callers decide how to treat bad values.
    """
    states = np.asarray(states, dtype=float)
    n = states.shape[0]
    if sys.vectorized:
        return _shaped(fn(t, states), f"vectorized {what}", (n,) + shape)
    out = np.empty((n,) + shape)
    for k in range(n):
        out[k] = _shaped(fn(t, states[k]), what, shape)
    return out


def drift_batch(sys: SdeSystem, t: float, states: Array) -> Array:
    """Evaluate the drift on a (n, m) batch of states, shape (n, m)."""
    return _eval_batch(sys, "drift", sys.drift, t, states, (sys.m,))


def declared_diffusion_batch(sys: SdeSystem, t: float, states: Array
                             ) -> Array:
    """The diffusion on a (n, m) batch in its declared shape, (n, r) for
    diagonal_noise, else (n, m, r)."""
    shape = (sys.r,) if sys.diagonal_noise else (sys.m, sys.r)
    return _eval_batch(sys, "diffusion", sys.diffusion, t, states, shape)


def diffusion_batch(sys: SdeSystem, t: float, states: Array) -> Array:
    """Evaluate the diffusion on a (n, m) batch, shape (n, m, r)."""
    g = declared_diffusion_batch(sys, t, states)
    if not sys.diagonal_noise:
        return g
    dense = np.zeros((len(g), sys.m, sys.r))
    dense[:, range(sys.r), range(sys.r)] = g
    return dense


def diffusion_row(sys: SdeSystem, t: float, states: Array, i: int) -> Array:
    """Row i of the diffusion on a (n, m) batch, shape (n, r); for
    diagonal_noise zeros but column i, built without the (n, m, r) matrix."""
    g = declared_diffusion_batch(sys, t, states)
    if not sys.diagonal_noise:
        return g[:, i, :]
    row = np.zeros_like(g)
    row[:, i:i + 1] = g[:, i:i + 1]  # nothing if i >= r
    return row


def jacobian_batch(sys: SdeSystem, t: float, states: Array) -> Array:
    """Evaluate the analytic diffusion Jacobian on a batch, (n, m, r, m)."""
    if sys.diffusion_jacobian is None:
        raise UsageError(
            f"system {sys.name!r} does not provide an analytic diffusion "
            "jacobian")
    return _eval_batch(sys, "diffusion jacobian", sys.diffusion_jacobian, t,
                       states, (sys.m, sys.r, sys.m))


def checked_indices(values, what: str) -> Tuple[int, ...]:
    """values read by operator.index, so a non-integer such as 2.7 is a
    UsageError naming what."""
    try:
        return tuple(operator.index(i) for i in values)
    except TypeError as exc:
        raise UsageError(f"{what} must be integers: {exc}") from None


@dataclass(frozen=True)
class Box:
    """Per-coordinate bounds a_i <= x_i <= b_i on a subset of coordinates.

    ``indices`` are 0-based coordinate positions.  A bound may be infinite
    on one side (half-line constraint); a coordinate constrained on neither
    side is rejected because it adds nothing.  limits(m) spells the bounds
    out over all m coordinates of a state, and faces() lists the finite ones.
    """

    indices: Tuple[int, ...]
    lower: Tuple[float, ...]
    upper: Tuple[float, ...]

    def __post_init__(self):
        idx = checked_indices(self.indices, "box indices")
        lo = tuple(float(v) for v in self.lower)
        hi = tuple(float(v) for v in self.upper)
        if not idx:
            raise UsageError("box must constrain at least one coordinate")
        if len(set(idx)) != len(idx):
            raise UsageError("box indices must be distinct")
        if any(i < 0 for i in idx):
            raise UsageError("box indices must be >= 0")
        if len(lo) != len(idx) or len(hi) != len(idx):
            raise UsageError("box bounds must match the number of indices")
        for i, a, b in zip(idx, lo, hi):
            if math.isnan(a) or math.isnan(b):
                raise UsageError("box bounds must not be NaN")
            if not a < b:
                raise UsageError(
                    f"box needs lower < upper on coordinate {i}: {a} !< {b}")
            if math.isinf(a) and math.isinf(b):
                raise UsageError(
                    f"coordinate {i} is unbounded on both sides; drop it")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @classmethod
    def unit(cls, indices: Sequence[int]) -> "Box":
        """The unit box [0, 1] on each of the given coordinates."""
        n = len(tuple(indices))
        return cls(tuple(indices), (0.0,) * n, (1.0,) * n)

    @classmethod
    def positive(cls, indices: Sequence[int]) -> "Box":
        """The cone x_i >= 0 on each of the given coordinates."""
        n = len(tuple(indices))
        return cls(tuple(indices), (0.0,) * n, (math.inf,) * n)

    def faces(self) -> Tuple[Tuple[int, str, float], ...]:
        """Finite faces as (coordinate, side, pinned value) triples.

        Ordered by coordinate, lower before upper; infinite bounds
        contribute no face.
        """
        out = []
        for i, a, b in sorted(zip(self.indices, self.lower, self.upper)):
            if math.isfinite(a):
                out.append((i, "lower", a))
            if math.isfinite(b):
                out.append((i, "upper", b))
        return tuple(out)

    def limits(self, m: int) -> Tuple[Array, Array]:
        """(lower, upper) arrays of length m, -inf and inf where the box
        sets no bound; UsageError if it constrains a coordinate >= m."""
        if max(self.indices) >= m:
            raise UsageError("box constrains a coordinate outside the state")
        lower, upper = np.full(m, -math.inf), np.full(m, math.inf)
        lower[list(self.indices)] = self.lower
        upper[list(self.indices)] = self.upper
        return lower, upper

    def as_polyhedron(self, m: int) -> "Polyhedron":
        """The box as half-spaces in R^m, lower then upper, index by index."""
        lower, upper = self.limits(m)
        halves = []
        for i in self.indices:
            for pin, sign in ((lower[i], 1.0), (upper[i], -1.0)):
                if math.isfinite(pin):
                    anchor = np.zeros(m)
                    anchor[i] = pin
                    normal = np.zeros(m)
                    normal[i] = sign
                    halves.append(Halfspace(tuple(anchor), tuple(normal)))
        return Polyhedron(tuple(halves))


@dataclass(frozen=True)
class Halfspace:
    """The set {x : <x - anchor, normal> >= 0}; any finite normal but 0."""

    anchor: Tuple[float, ...]
    normal: Tuple[float, ...]

    def __post_init__(self):
        a = tuple(float(v) for v in self.anchor)
        n = tuple(float(v) for v in self.normal)
        if len(a) != len(n):
            raise UsageError("halfspace anchor and normal lengths differ")
        if not all(math.isfinite(v) for v in a + n):
            raise UsageError("halfspace anchor and normal must be finite")
        if not any(n):
            raise UsageError("halfspace normal must be nonzero")
        object.__setattr__(self, "anchor", a)
        object.__setattr__(self, "normal", n)


@dataclass(frozen=True)
class Polyhedron:
    """An intersection of half-spaces; empty list means all of R^m."""

    halfspaces: Tuple[Halfspace, ...]

    def __post_init__(self):
        halves = tuple(self.halfspaces)
        dims = {len(h.normal) for h in halves}
        if len(dims) > 1:
            raise UsageError("halfspaces live in different dimensions")
        object.__setattr__(self, "halfspaces", halves)

    @property
    def dim(self) -> Optional[int]:
        return len(self.halfspaces[0].normal) if self.halfspaces else None


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_0 < t_1 < ... < t_n over [t0, t_end]."""

    t0: float
    t_end: float
    n_steps: int

    def __post_init__(self):
        if not math.isfinite(self.t0) or not math.isfinite(self.t_end):
            raise UsageError("grid endpoints must be finite")
        if self.t0 < 0:
            raise UsageError("grid start must be >= 0")
        if not self.t_end > self.t0:
            raise UsageError("grid needs t_end > t0")
        if self.n_steps < 1:
            raise UsageError("grid needs at least one step")
        # the n_steps + 1 float64 times must fit numpy's largest array
        most = np.iinfo(np.intp).max // 8 - 1
        if self.n_steps > most:
            raise UsageError(f"grid may have at most {most} steps")

    @property
    def dt(self) -> float:
        return (self.t_end - self.t0) / self.n_steps

    def times(self) -> Array:
        return np.linspace(self.t0, self.t_end, self.n_steps + 1)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One sampled path: states[k] is the state at grid time t_k."""

    grid: TimeGrid
    states: Array
    path_id: int = 0

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        if states.ndim != 2 or states.shape[0] != self.grid.n_steps + 1:
            raise UsageError(
                f"states must have shape (n_steps + 1, m), got {states.shape}")
        states = states.copy()
        states.setflags(write=False)
        object.__setattr__(self, "states", states)

    @property
    def m(self) -> int:
        return self.states.shape[1]

    @property
    def t(self) -> Array:
        return self.grid.times()

    @property
    def x0(self) -> Array:
        return self.states[0]

    @property
    def end(self) -> Array:
        return self.states[-1]


@dataclass(frozen=True, eq=False)
class ModelInfo:
    """Bundled defaults for a named model: region, start state, horizon.

    ``panels`` names the charts a plotted path is split into, as
    ``(suffix, coordinate indices)`` pairs; left empty, it becomes one
    ``"state"`` chart over every coordinate.
    """

    box: Optional[Box]
    x0: Array
    horizon: float
    panels: Tuple[Tuple[str, Tuple[int, ...]], ...] = ()

    def __post_init__(self):
        x0 = np.asarray(self.x0, dtype=float).copy()
        x0.setflags(write=False)
        object.__setattr__(self, "x0", x0)
        if not self.horizon > 0:
            raise UsageError("model horizon must be positive")
        panels = tuple((str(name), tuple(int(i) for i in cols))
                       for name, cols in self.panels)
        panels = panels or (("state", tuple(range(x0.size))),)
        if any(not cols or not all(0 <= i < x0.size for i in cols)
               for _, cols in panels):
            raise UsageError("each panel needs coordinates of x0")
        object.__setattr__(self, "panels", panels)
