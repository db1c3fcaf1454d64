"""Sampling-based invariance checks for boxes, cones and polyhedra.

A region stays invariant under dX = f dt + g dW exactly when, everywhere
on its boundary and at all times, the drift does not point outward and
every column of the diffusion matrix is tangential:

    box face {x_i = a_i}:   f_i >= 0   and   g[i, j] = 0 for all j,
    box face {x_i = b_i}:   f_i <= 0   and   g[i, j] = 0 for all j,
    half-space face:        <f, n> >= 0  and  <g_j, n> = 0 per column,

with n the inward normal.  The conditions do not depend on whether (f, g)
is read in the Ito or the Stratonovich sense, so systems of either
interpretation are checked as-is.

The checkers here are falsifiers: they sample each face with a
deterministic low-discrepancy (or hit-and-run) scheme, apply the
conditions within configured tolerances and return margins plus concrete
witness points for every violation found.  A Violated verdict is
constructive; a Satisfied verdict certifies the sampled points only, and
a check with a face that got no samples is Inconclusive unless another
face is violated.
Each face lists its witnesses per check time, drift witnesses before
diffusion witnesses, each in sample order, up to max_witnesses_per_face.

A related pairwise test orders two systems: solutions started below stay
below when, whenever x_i = y_i and x_k >= y_k on the coupled coordinates,
the first drift dominates (f_i(t, x) >= f2_i(t, y)) and the row-i
diffusions agree.  :func:`check_comparison` samples exactly these pairs.
Nothing here loads scipy.stats, and only the linear-programming fallback
of a polyhedron's interior point loads scipy.optimize.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .core import (Array, Box, ModelEvaluationError, Polyhedron, SdeSystem,
                   UsageError, checked_indices, declared_diffusion_batch,
                   diffusion_row, drift_batch)

_INTERIOR_BUDGET = 4096
_ANCHOR_TRIES = 64
_MIN_RATE = 1e-14  # a margin moving slower along a ray never limits it
_WALK_BLOCK = 128  # hit-and-run iterations whose draws are taken at once


class Verdict(enum.Enum):
    SATISFIED = "satisfied"
    VIOLATED = "violated"
    INCONCLUSIVE = "inconclusive"  # no witness, but a face has no samples


@dataclass(frozen=True)
class CheckConfig:
    """Sampling budget and tolerances for the invariance checkers.

    eps_drift is a one-sided slack on the inward-drift inequalities; a
    margin exactly at the tolerance still counts as satisfied.  eps_diff
    bounds |diffusion| on faces two-sidedly.

    Every checker samples each coordinate on one finite interval.  Its
    window is the system's coord_ranges entry, or fallback_range when the
    system declares none; an entry infinite on one side becomes its
    finite end plus or minus the span of fallback_range, (lo, inf)
    becoming (lo, lo + span), and one infinite on both sides becomes
    fallback_range.  A box coordinate with bounds [a, b] takes the window
    clipped to them; where the two share no more than a point it takes
    [a, b] itself, a half-line cut to the window's width w: [a, a + w] or
    [b - w, b].  An interval whose width overflows float64 is a UsageError.

    n_time_samples check times are spread evenly over [0, t_max_check]
    (one means t = 0 alone).  A system that declares autonomous is
    evaluated at the first of them only and the result replayed at the
    rest, with the same report bytes; see SdeSystem.autonomous.
    """

    n_face_samples: int = 4096
    n_time_samples: int = 16
    t_max_check: float = 100.0
    eps_drift: float = 1e-9
    eps_diff: float = 1e-12
    sampler_seed: int = 0
    fallback_range: Tuple[float, float] = (-10.0, 10.0)
    max_witnesses_per_face: int = 16

    def __post_init__(self):
        if self.n_face_samples < 1 or self.n_time_samples < 1:
            raise UsageError("sample budgets must be >= 1")
        if not 0 < self.t_max_check < math.inf:
            raise UsageError("t_max_check must be positive and finite")
        if not (0 < self.eps_drift < math.inf
                and 0 < self.eps_diff < math.inf):
            raise UsageError("tolerances must be positive and finite")
        lo, hi = self.fallback_range
        if not -math.inf < lo < hi < math.inf:
            raise UsageError("fallback_range needs finite lo < hi")
        if self.max_witnesses_per_face < 1:
            raise UsageError("max_witnesses_per_face must be >= 1")
        if self.sampler_seed < 0:  # SeedSequence takes no negative entropy
            raise UsageError("sampler_seed must be >= 0")


@dataclass(frozen=True)
class Witness:
    """One concrete point where a face condition fails."""

    face_index: int
    side: str
    t: float
    x: Tuple[float, ...]
    kind: str  # "drift_sign" or "diffusion_nonzero"
    value: float
    partner: Optional[Tuple[float, ...]] = None

    def to_dict(self) -> dict:
        d = {"t": self.t, "x": list(self.x), "kind": self.kind,
             "value": self.value}
        if self.partner is not None:
            d["y"] = list(self.partner)
        return d


@dataclass(frozen=True)
class FaceReport:
    """Aggregate margins and witnesses for one face (or pair index)."""

    index: int
    side: str  # "lower" / "upper" / "hyperplane" / "pair"
    n_samples: int
    min_drift_margin: Optional[float]
    max_diffusion_abs: Optional[float]
    witnesses: Tuple[Witness, ...]

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "side": self.side,
            "n_samples": self.n_samples,
            "min_drift_margin": self.min_drift_margin,
            "max_diffusion_abs": self.max_diffusion_abs,
            "witnesses": [w.to_dict() for w in self.witnesses],
        }


@dataclass(frozen=True)
class CheckReport:
    """Verdict plus per-face evidence: violated iff witnesses exist, else
    inconclusive if a face has no samples, else satisfied."""

    verdict: Verdict
    faces: Tuple[FaceReport, ...]
    config: CheckConfig

    @property
    def witnesses(self) -> Tuple[Witness, ...]:
        return tuple(w for f in self.faces for w in f.witnesses)

    def face(self, index: int, side: str) -> FaceReport:
        for f in self.faces:
            if f.index == index and f.side == side:
                return f
        raise KeyError(f"no face ({index}, {side}) in report")

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "faces": [f.to_dict() for f in self.faces],
            "config_echo": asdict(self.config),
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def _sampling_intervals(sys: SdeSystem, cfg: CheckConfig,
                        box: Optional[Box] = None) -> Tuple[Array, Array]:
    """The finite sampling interval of every coordinate, as arrays lo and
    hi, by the rule CheckConfig states."""
    span = cfg.fallback_range[1] - cfg.fallback_range[0]
    lo, hi = np.array(sys.coord_ranges or (cfg.fallback_range,) * sys.m).T
    both = np.isinf(lo) & np.isinf(hi)  # lo < hi: lo is never +inf
    a, b = (-np.inf, np.inf) if box is None else box.limits(sys.m)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        lo, hi = (np.where(both, cfg.fallback_range[0],
                           np.where(np.isinf(lo), hi - span, lo)),
                  np.where(both, cfg.fallback_range[1],
                           np.where(np.isinf(hi), lo + span, hi)))
        inside = np.maximum(a, lo) < np.minimum(b, hi)
        width = hi - lo
        lo, hi = (np.where(inside, np.maximum(a, lo),
                           np.where(np.isinf(a), b - width, a)),
                  np.where(inside, np.minimum(b, hi),
                           np.where(np.isinf(b), a + width, b)))
    return _finite_widths(lo, hi)


def _finite_widths(lo: Array, hi: Array) -> Tuple[Array, Array]:
    """(lo, hi), or a UsageError if some width hi - lo overflows float64."""
    for i, (a, b) in enumerate(zip(lo.tolist(), hi.tolist())):
        if not math.isfinite(b - a):
            raise UsageError(f"coordinate {i}: [{a}, {b}] is too wide to "
                             "sample")
    return lo, hi


def _child_rng(cfg: CheckConfig, *key: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=cfg.sampler_seed, spawn_key=key)
    return np.random.default_rng(ss)


def _halton(cfg: CheckConfig, dim: int, n: int, *key: int) -> Array:
    """Points 0..n-1 of Owen's scrambled Halton sequence, F-ordered (n, dim).

    The bits are those of scipy's qmc.Halton(dim, scramble=True,
    seed=_child_rng(cfg, *key)).random(n), which draws from the child
    _child_rng(cfg, *key, 0).  Coordinate k takes the k-th prime b as base
    and ceil(54 / log2 b) - 1 rows of arange(b), each row shuffled, base
    after base (permuted along rows draws as shuffling each row in turn).
    Point i sums perm[j, digit j of i] * w over j, low digit first, with
    w = 1/b at j = 0 and then w /= b (w *= 1/b rounds differently).
    """
    rng = _child_rng(cfg, *key, 0)
    out = np.zeros((dim, n))
    base = 1
    for row in out:
        base += 1  # to the next prime
        while any(base % p == 0 for p in range(2, math.isqrt(base) + 1)):
            base += 1
        rows = math.ceil(54 / math.log2(base)) - 1
        perm = rng.permuted(np.broadcast_to(np.arange(base), (rows, base)),
                            axis=1)
        q, w = np.arange(n), 1.0 / base
        for p in perm:
            if q[-1:].any():  # q is sorted: all of it is 0 once q[-1] is
                r = q // base
                row += (p * w)[q - r * base]
                q = r
            else:
                row += p[0] * w
            w /= base
    return out.T


def _require_finite(values: Array, what: str, t: float, points: Array):
    bad = ~np.isfinite(values)
    if bad.any():
        k = int(np.argwhere(bad)[0][0])
        raise ModelEvaluationError(
            f"{what} is not finite at t={t} during an invariance check",
            t=t, x=points[k], index=k)


def _scan_face(index: int, side: str, pts: Array, cfg: CheckConfig,
               evaluate, partner: Optional[Array] = None,
               autonomous: bool = False, verify: bool = False
               ) -> FaceReport:
    """Apply the face conditions to the sampled points at every check time.

    evaluate(t) returns (margin, value, dev) on the points: the inward
    drift margin (n,), the number a drift witness reports (n,) and the
    diffusion deviation that must vanish (n, r).  Witnesses come in the
    order the module docstring states; the cap is at least 1, so a face
    is violated exactly when it has a witness.

    For an autonomous system evaluate runs at the first check time only,
    and that result is replayed at every check time, each witness still
    carrying its own time, so the report is the one that evaluating at
    every time would give.  With verify and more than one check time,
    evaluate runs once more at the last check time, and a result that
    differs from the first in any bit is a UsageError.
    """
    min_margin = math.inf
    max_dev = 0.0
    wit: list[Witness] = []

    def witness(t, k, kind, v):
        other = None if partner is None else tuple(partner[k])
        return Witness(index, side, float(t), tuple(pts[k]), kind, float(v),
                       partner=other)

    times = np.linspace(0.0, cfg.t_max_check, cfg.n_time_samples)
    for n, t in enumerate(times):
        if n == 0 or not autonomous:
            margin, value, dev = evaluate(t)
            min_margin = min(min_margin, float(margin.min()))
            dev_abs = np.abs(dev)
            if dev_abs.size:
                max_dev = max(max_dev, float(dev_abs.max()))
            bad_drift = np.flatnonzero(margin < -cfg.eps_drift)
            bad_diff = np.argwhere(dev_abs > cfg.eps_diff)
        room = cfg.max_witnesses_per_face - len(wit)
        wit += [witness(t, k, "drift_sign", value[k])
                for k in bad_drift[:room]]
        room = cfg.max_witnesses_per_face - len(wit)
        wit += [witness(t, k, "diffusion_nonzero", dev[k, j])
                for k, j in bad_diff[:room]]
    if autonomous and verify and times.size > 1:
        # hold bytes, not views that keep whole model outputs alive
        first = [a.tobytes() for a in (margin, value, dev)]
        del margin, value, dev, dev_abs
        if [a.tobytes() for a in evaluate(times[-1])] != first:
            raise UsageError(
                f"system declares autonomous, but on face ({index}, {side}) "
                f"its drift or diffusion at t={times[-1]} differs from "
                f"t={times[0]}")
    return FaceReport(index, side, pts.shape[0], float(min_margin), max_dev,
                      tuple(wit))


def _report(faces: Sequence[FaceReport], cfg: CheckConfig) -> CheckReport:
    if any(f.witnesses for f in faces):
        verdict = Verdict.VIOLATED
    elif any(f.n_samples == 0 for f in faces):
        verdict = Verdict.INCONCLUSIVE
    else:
        verdict = Verdict.SATISFIED
    return CheckReport(verdict, tuple(faces), cfg)


def _box_face_points(sys: SdeSystem, box: Box, cfg: CheckConfig,
                     coord: int, pin: float, ordinal: int) -> Array:
    lo, hi = _sampling_intervals(sys, cfg, box)
    free = [j for j in range(sys.m) if j != coord]
    pts = np.empty((1 if not free else cfg.n_face_samples, sys.m))
    pts[:, coord] = pin
    if free:
        u = _halton(cfg, len(free), cfg.n_face_samples, 1, ordinal)
        pts[:, free] = lo[free] + u * (hi - lo)[free]
    return pts


def check_box(sys: SdeSystem, box: Box, cfg: CheckConfig = CheckConfig()
              ) -> CheckReport:
    """Check invariance of a box region for a system.

    Each finite face is sampled with a scrambled Halton sequence (pinned
    coordinate fixed, free coordinates drawn from their sampling intervals,
    see CheckConfig) at times spread over [0, t_max_check].  A one-sided
    box such as Box.positive(indices), the cone x_i >= 0, has lower faces
    only.  Both interpretations are handled identically because the face
    conditions are interpretation-independent.  An autonomous system is
    evaluated once per face, its first face once more as a check of the
    declaration (see _scan_face).
    """
    faces = []
    for ordinal, (i, side, pin) in enumerate(box.faces()):
        pts = _box_face_points(sys, box, cfg, i, pin, ordinal)

        def evaluate(t):
            f_row = drift_batch(sys, t, pts)[:, i]
            _require_finite(f_row, f"drift component {i} on face "
                            f"({i}, {side})", t, pts)
            g_row = diffusion_row(sys, t, pts, i)
            _require_finite(g_row, f"diffusion row {i} on face "
                            f"({i}, {side})", t, pts)
            return (f_row if side == "lower" else -f_row), f_row, g_row

        faces.append(_scan_face(i, side, pts, cfg, evaluate,
                                autonomous=sys.autonomous,
                                verify=ordinal == 0))
    return _report(faces, cfg)


def check_comparison(sys_a: SdeSystem, sys_b: SdeSystem,
                     indices: Sequence[int],
                     cfg: CheckConfig = CheckConfig()) -> CheckReport:
    """Check the pairwise ordering conditions between two systems.

    For each coupled coordinate i the sampler draws pairs (x, y) with
    x_i = y_i and x_k >= y_k for the other coupled coordinates k, then
    requires drift domination f_a_i(t, x) >= f_b_i(t, y) within eps_drift
    and row-i diffusion agreement within eps_diff.  Witness entries carry
    both points (x and partner y).  The pairs are evaluated once per face
    only when both systems declare autonomous (see _scan_face).
    """
    if sys_a.m != sys_b.m or sys_a.r != sys_b.r:
        raise UsageError("compared systems must share state and noise "
                         "dimensions")
    m = sys_a.m
    idx = tuple(sorted(checked_indices(indices, "comparison indices")))
    if not idx:
        raise UsageError("comparison needs at least one coupled coordinate")
    if len(set(idx)) != len(idx) or idx[0] < 0 or idx[-1] >= m:
        raise UsageError("comparison indices must be distinct and in range")
    lo, hi = _sampling_intervals(sys_a, cfg)
    span = hi - lo
    free = [j for j in range(m) if j not in idx]
    autonomous = sys_a.autonomous and sys_b.autonomous
    faces = []
    for ordinal, i in enumerate(idx):
        # columns of u: y, then x on the other coupled, then the free ones;
        # C order: a model's matmul may round F-ordered points differently
        u = np.ascontiguousarray(
            _halton(cfg, 2 * m - 1, cfg.n_face_samples, 2, ordinal))
        others = [k for k in idx if k != i]
        c = m + len(others)
        y = lo + u[:, :m] * span
        x = y.copy()
        x[:, others] = y[:, others] + u[:, m:c] * span[others]
        x[:, free] = lo[free] + u[:, c:] * span[free]

        def evaluate(t):
            fa = drift_batch(sys_a, t, x)[:, i]
            fb = drift_batch(sys_b, t, y)[:, i]
            _require_finite(fa, f"first drift component {i}", t, x)
            _require_finite(fb, f"second drift component {i}", t, y)
            ga = diffusion_row(sys_a, t, x, i)
            gb = diffusion_row(sys_b, t, y, i)
            _require_finite(ga, f"first diffusion row {i}", t, x)
            _require_finite(gb, f"second diffusion row {i}", t, y)
            margin = fa - fb
            return margin, margin, ga - gb

        faces.append(_scan_face(i, "pair", x, cfg, evaluate, partner=y,
                                autonomous=autonomous, verify=ordinal == 0))
    return _report(faces, cfg)


# -- polyhedron support ------------------------------------------------------

def _margins(points: Array, anchors: Array, normals: Array) -> Array:
    """Face margins <x - a_f, n_f> of a (c, m) batch of points, (c, f)."""
    return np.einsum("cfm,fm->cf", points[:, None] - anchors, normals)


def _find_interior(anchors: Array, normals: Array, lo: Array, hi: Array,
                   cfg: CheckConfig) -> Array:
    """Best strictly-interior point from deterministic candidates.

    The pick is the first candidate with the largest minimum face margin;
    a NaN margin never wins.  When no candidate is strictly interior, the
    pick is the Chebyshev centre of the faces and the window: the point
    whose distance to every face and window bound is largest, by linear
    programming.
    """
    m = lo.size
    cands = np.vstack([np.clip(anchors.mean(axis=0), lo, hi),
                       0.5 * (lo + hi),
                       lo + _halton(cfg, m, _INTERIOR_BUDGET, 3) * (hi - lo)])
    worst = _margins(cands, anchors, normals).min(axis=1)
    worst[np.isnan(worst)] = -math.inf
    k = int(np.argmax(worst))
    if worst[k] > 0.0:
        return cands[k].copy()
    from scipy.optimize import linprog
    # maximise rho subject to <x - a_f, n_f> >= rho, lo + rho <= x <= hi - rho
    eye = np.eye(m)
    rows = np.hstack([np.vstack([-normals, -eye, eye]),
                      np.ones((anchors.shape[0] + 2 * m, 1))])
    rhs = np.concatenate([-np.einsum("fm,fm->f", anchors, normals), -lo, hi])
    res = linprog(np.append(np.zeros(m), -1.0), A_ub=rows, b_ub=rhs,
                  bounds=(None, None), method="highs")
    if res.status == 0 and _margins(res.x[None, :m], anchors,
                                    normals).min() > 0.0:
        return res.x[:m]
    raise UsageError("could not find a strictly interior point of the "
                     "polyhedron within the sampling window")


def _chord_limits(targets: Array, n_faces: int, lo: Array, hi: Array):
    """The step limits on rays from chains on the faces targets.

    Returns (rays, limits).  rays(direction, rate), from unit directions
    (..., c, m) and their face rates <n_f, direction> (..., c, f), makes
    the rest of limits' inputs that do not depend on the point, (d_coord,
    keep).  limits(q, margins, rate, d_coord, keep) takes one ray per
    chain, the points q (c, m) and their face margins (c, f), and returns
    the stacked rows (s_lo, -s_hi), shape (2, c).  It scans every face
    but the chain's own, in index order, then each coordinate's window
    upper and lower bound, whose margins grow at rates -d_j and d_j.  A
    limit whose margin grows faster than _MIN_RATE bounds the step from
    below (keep row 0), one that shrinks faster from above (row 1); one
    argmax per row keeps the first largest lower and the first smallest
    upper limit, as a scalar scan would, and reads -inf if there is none.
    limits divides by the zero rates it ignores: callers hold np.errstate.
    """
    chains, m = np.arange(targets.size), lo.size
    coord = np.repeat(np.arange(m), 2)
    bounds = np.column_stack((hi, lo)).ravel()
    rate_sign = np.ones((targets.size, n_faces + 2 * m))
    rate_sign[chains, targets] = 0.0  # the own face never limits
    rate_sign[:, n_faces::2] = -1.0  # the upper bounds
    limit_sign = np.array([1.0, -1.0])[:, None, None]
    rows = np.arange(2)[:, None]

    def rays(direction, rate):
        d_coord = direction[..., coord]
        rate = np.concatenate((rate, d_coord), -1) * rate_sign
        return d_coord, np.stack((rate > _MIN_RATE, rate < -_MIN_RATE), -3)

    def limits(q, margins, rate, d_coord, keep):
        limit = np.concatenate((-margins / rate,
                                (bounds - q[:, coord]) / d_coord), 1)
        cand = np.where(keep, limit * limit_sign, -math.inf)
        return cand[rows, chains, cand.argmax(axis=2)]

    return rays, limits


def _face_anchor(x0: Array, anchors: Array, normals: Array, lo: Array,
                 hi: Array, target: int,
                 rng: np.random.Generator) -> Optional[Array]:
    """Walk x0 onto face target: the hit point of the first of the ray
    along -n and _ANCHOR_TRIES random tilts of it whose first boundary
    reached is the target's hyperplane (within the window), or None."""
    rays, limits = _chord_limits(np.array([target]), len(anchors), lo, hi)
    margins = _margins(x0[None], anchors, normals)

    def first_hit(d):
        rate = normals @ d
        if rate[target] >= -_MIN_RATE:
            return None  # not heading toward the target plane
        s_target = margins[0, target] / -rate[target]
        with np.errstate(divide="ignore", invalid="ignore"):
            s_block = -limits(x0[None], margins, rate[None],
                              *rays(d[None], rate[None]))[1, 0]
        if s_target > s_block * (1.0 + 1e-12) + 1e-12:
            return None
        hit = x0 + s_target * d  # then snapped exactly onto the plane
        snap = _margins(hit[None], anchors, normals)[0, target]
        return hit - snap * normals[target]

    hit = first_hit(-normals[target])
    for _ in range(_ANCHOR_TRIES):
        if hit is not None:
            break
        d = -normals[target] + 0.5 * rng.standard_normal(x0.size)
        norm = np.linalg.norm(d)
        hit = None if norm < 1e-12 else first_hit(d / norm)
    return hit


def _tangents(z: Array, nrm: Array) -> Tuple[Array, Array]:
    """Unit directions of draws z (..., m) less their parts along unit
    normals nrm, and found (...): whether that tangent part's norm exceeds
    1e-12.  Stacked matmuls give each row its own dot's bits."""
    t = z - np.matmul(z[..., None, :], nrm[..., None])[..., 0] * nrm
    dn = np.sqrt(np.matmul(t[..., None, :], t[..., None])[..., 0])
    return t / dn, dn[..., 0] > 1e-12


def _walk_faces(starts: Array, targets: Array, anchors: Array,
                normals: Array, lo: Array, hi: Array, n: int,
                rngs: Sequence[np.random.Generator]) -> Array:
    """Hit-and-run walks on several faces at once, shape (chains, n, m).

    Chain c starts at starts[c] on face targets[c] and samples n points on
    {<x - a, n> = 0} cap K cap window: each step draws m standard normals
    and then one uniform u from rngs[c], and moves along the draw's
    tangent part to the point u of the way along the chord that the other
    faces and the window leave.  A draw whose tangent part has norm at
    most 1e-12 leaves the point where it is; its u is drawn all the same.
    No chain's points depend on another's.  The draws, rates and masks of
    _WALK_BLOCK iterations are taken at once; the loop does only the work
    that needs the point.
    """
    n_chains, m = starts.shape
    pts = np.empty((n_chains, n, m))
    if m == 1 or not n_chains:
        # a point face has no tangent directions: the walk never moves
        pts[:] = starts[:, None]
        return pts
    nrm, own = normals[targets], anchors[targets]
    rays, limits = _chord_limits(targets, anchors.shape[0], lo, hi)
    no_room = np.array([[0.0], [-0.0]])  # s_lo = s_hi = +0.0
    q = starts.copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, n, _WALK_BLOCK):
            size = min(_WALK_BLOCK, n - start)
            z, u = np.empty((size, n_chains, m)), np.empty((size, n_chains))
            for c, g in enumerate(rngs):
                for i in range(size):
                    g.standard_normal(out=z[i, c])
                    u[i, c] = g.random()
            direction, found = _tangents(z, nrm)
            rate = np.matmul(normals, direction[..., None])[..., 0]
            d_coord, keep = rays(direction, rate)
            for it in range(size):
                ext = limits(q, _margins(q, anchors, normals), rate[it],
                             d_coord[it], keep[it])
                ext = np.where((ext <= 0.0) & (ext > -math.inf), ext, no_room)
                s_lo, s_hi = ext[0], -ext[1]
                moved = q + ((s_lo + u[it] * (s_hi - s_lo))[:, None]
                             * direction[it])
                # snap back onto each chain's own hyperplane
                snap = np.einsum("cm,cm->c", moved - own, nrm)[:, None]
                q = np.where(found[it, :, None], moved - snap * nrm, q)
                pts[:, start + it] = q
    return pts


def check_polyhedron(sys: SdeSystem, poly: Polyhedron,
                     cfg: CheckConfig = CheckConfig()) -> CheckReport:
    """Check invariance of an intersection of half-spaces.

    For each half-space the checker needs points on the bounding
    hyperplane that also satisfy the remaining constraints.  It finds a
    strictly interior point inside the plausibility window (sampled
    deterministically, else the Chebyshev centre of the faces and the
    window; UsageError if there is none), walks it onto each face, then
    explores the face with a seeded hit-and-run walk confined to the
    window.  Each face's walk draws from its own stream, keyed by
    (sampler_seed, 4, face): m normals and one uniform a step, in step
    order, whatever the step does with them.  All faces walk together but
    never share a draw, so a face's points do not depend on the other
    faces being reachable.  On the sampled points it requires
    <f, n> >= -eps_drift and |<g_j, n>| <= eps_diff per noise column,
    with n the inward normal scaled to unit length.

    A face that cannot be reached inside the window contributes no
    samples and is reported with n_samples = 0; with no witness on any
    face, the verdict is then inconclusive.  An autonomous system is
    evaluated once per sampled face, the first of them once more as a
    check of the declaration (see _scan_face).
    """
    if not poly.halfspaces:
        return _report((), cfg)
    if poly.dim != sys.m:
        raise UsageError(
            f"polyhedron lives in dimension {poly.dim}, system in {sys.m}")
    anchors = np.array([h.anchor for h in poly.halfspaces], dtype=float)
    normals = np.array([h.normal for h in poly.halfspaces], dtype=float)
    # scaled by a power of two first, which is exact, so the norm is finite
    normals = np.ldexp(normals, -np.frexp(abs(normals).max(1))[1][:, None])
    normals = normals / np.linalg.norm(normals, axis=1, keepdims=True)
    lo, hi = _sampling_intervals(sys, cfg)
    x0 = _find_interior(anchors, normals, lo, hi, cfg)
    reached, starts, rngs = [], [], []
    for nu in range(anchors.shape[0]):
        rng = _child_rng(cfg, 4, nu)
        q0 = _face_anchor(x0, anchors, normals, lo, hi, nu, rng)
        if q0 is not None:
            reached.append(nu)
            starts.append(q0)
            rngs.append(rng)
    walks = _walk_faces(np.reshape(starts, (len(reached), sys.m)),
                        np.array(reached, dtype=int), anchors, normals, lo,
                        hi, cfg.n_face_samples, rngs)
    walked = dict(zip(reached, walks))
    faces = []
    for nu in range(anchors.shape[0]):
        if nu not in walked:
            faces.append(FaceReport(nu, "hyperplane", 0, None, None, ()))
            continue
        pts = walked[nu]

        def evaluate(t):
            f_n = drift_batch(sys, t, pts) @ normals[nu]
            _require_finite(f_n, f"drift projection on face {nu}", t, pts)
            g = declared_diffusion_batch(sys, t, pts)
            # diagonal g: column j holds g[j, j] alone; an einsum's zero may
            # carry the other sign, which no report shows (abs, eps_diff)
            g_n = (g * normals[nu, :sys.r] if sys.diagonal_noise
                   else np.einsum("kmr,m->kr", g, normals[nu]))
            _require_finite(g_n, f"diffusion projection on face {nu}",
                            t, pts)
            return f_n, f_n, g_n

        faces.append(_scan_face(nu, "hyperplane", pts, cfg, evaluate,
                                autonomous=sys.autonomous,
                                verify=nu == reached[0]))
    return _report(faces, cfg)
