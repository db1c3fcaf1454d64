import hashlib
import itertools
import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdeinvariance import (MODEL_REGISTRY, Box, CheckConfig, Halfspace,
                           Interpretation, JacobianMode,
                           ModelEvaluationError, Polyhedron, SdeSystem,
                           UsageError, Verdict, build_model, check_box,
                           check_comparison, check_polyhedron,
                           stratonovich_to_ito)
from sdeinvariance.core import diffusion_batch, drift_batch
from sdeinvariance import invariance as inv
from helpers import constant_drift_system

QUICK = CheckConfig(n_face_samples=256, n_time_samples=4)


def drift_only(m, fn, **kwargs):
    def diffusion(t, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (m, 0))

    return SdeSystem(m=m, r=0, drift=fn, diffusion=diffusion,
                     vectorized=True, **kwargs)


def brute_force_box_verdict(sys, box, n_mesh=33) -> Verdict:
    """Independent drift-only oracle: a uniform mesh on every face.

    Samples free coordinates on a regular grid over the box intersected
    with [-10, 10] and tests the inward-drift sign directly, with no
    shared code with the checker under test.
    """
    bounds = dict(zip(box.indices, zip(box.lower, box.upper)))
    for i, side, pin in box.faces():
        free = [j for j in range(sys.m) if j != i]
        axes = []
        for j in free:
            a, b = bounds.get(j, (-math.inf, math.inf))
            lo = max(a, -10.0) if math.isfinite(a) else -10.0
            hi = min(b, 10.0) if math.isfinite(b) else 10.0
            axes.append(np.linspace(lo, hi, n_mesh))
        mesh = np.meshgrid(*axes, indexing="ij") if axes else []
        n_pts = n_mesh ** len(free) if free else 1
        pts = np.empty((n_pts, sys.m))
        pts[:, i] = pin
        for col, j in enumerate(free):
            pts[:, j] = mesh[col].ravel()
        for row in pts:
            f = sys.drift(0.0, row)[i]
            if side == "lower" and f < -1e-9:
                return Verdict.VIOLATED
            if side == "upper" and f > 1e-9:
                return Verdict.VIOLATED
    return Verdict.SATISFIED


class TestCheckBoxAgainstBruteForce:
    def test_inward_drift_satisfied(self):
        sys1 = drift_only(1, lambda t, x: 0.5 - np.asarray(x, dtype=float))
        box = Box.unit((0,))
        assert brute_force_box_verdict(sys1, box) is Verdict.SATISFIED
        assert check_box(sys1, box, QUICK).verdict is Verdict.SATISFIED

    def test_outward_drift_violated(self):
        sys1 = drift_only(1, lambda t, x: np.asarray(x, dtype=float) - 0.5)
        box = Box.unit((0,))
        assert brute_force_box_verdict(sys1, box) is Verdict.VIOLATED
        report = check_box(sys1, box, QUICK)
        assert report.verdict is Verdict.VIOLATED
        assert {w.kind for w in report.witnesses} == {"drift_sign"}

    def test_cross_coordinate_sign_flip_found(self):
        # drift of coordinate 0 changes sign with coordinate 1, so only
        # part of each face is bad; both checkers must still see it
        def fn(t, x):
            x = np.asarray(x, dtype=float)
            out = np.zeros_like(x)
            out[..., 0] = x[..., 1] - 0.6
            return out

        sys2 = drift_only(2, fn)
        box = Box.unit((0, 1))
        assert brute_force_box_verdict(sys2, box) is Verdict.VIOLATED
        assert check_box(sys2, box, QUICK).verdict is Verdict.VIOLATED

    def test_one_sided_box(self):
        sys1 = drift_only(1, lambda t, x: np.ones_like(
            np.asarray(x, dtype=float)))
        box = Box.positive((0,))
        assert brute_force_box_verdict(sys1, box) is Verdict.SATISFIED
        report = check_box(sys1, box, QUICK)
        assert report.verdict is Verdict.SATISFIED
        assert len(report.faces) == 1  # no upper face to sample

    @pytest.mark.parametrize("free_range, window", [
        ((-math.inf, math.inf), (-10.0, 10.0)),
        ((2.0, math.inf), (2.0, 22.0)),
        ((-math.inf, -3.0), (-23.0, -3.0)),
    ])
    def test_free_coordinate_with_infinite_range_is_windowed(
            self, free_range, window):
        # x_1 is free on the faces of x_0 in [0, 1]; an infinite side of
        # its range is sampled over the span of fallback_range (-10, 10)
        seen = []

        def fn(t, x):
            x = np.asarray(x, dtype=float)
            seen.append(x.copy())
            return 0.5 - x

        sys2 = drift_only(2, fn, coord_ranges=((0.0, 1.0), free_range))
        assert check_box(sys2, Box.unit((0,)),
                         QUICK).verdict is Verdict.SATISFIED
        free = np.concatenate(seen)[:, 1]
        assert np.isfinite(free).all()
        assert ((window[0] <= free) & (free <= window[1])).all()


class TestSamplingIntervals:
    """inv._sampling_intervals against intervals written out by hand."""

    def test_windows_without_coord_ranges_are_the_fallback(self):
        lo, hi = inv._sampling_intervals(drift_only(2, np.zeros_like),
                                         CheckConfig())
        assert (lo.tolist(), hi.tolist()) == ([-10.0, -10.0], [10.0, 10.0])

    def test_every_case_of_the_rule(self):
        ranges = ((0.0, 1.0), (2.0, math.inf), (-math.inf, -3.0),
                  (-math.inf, math.inf), (-100.0, 60.0), (-100.0, 60.0),
                  (-100.0, 60.0))
        system = drift_only(7, np.zeros_like, coord_ranges=ranges)
        lo, hi = inv._sampling_intervals(system, CheckConfig())
        # one-sided ranges take the fallback span, 20; two-sided the range
        assert lo.tolist() == [0.0, 2.0, -23.0, -10.0, -100.0, -100.0, -100.0]
        assert hi.tolist() == [1.0, 22.0, -3.0, 10.0, 60.0, 60.0, 60.0]
        box = Box((0, 1, 4, 5, 6), (0.5, 0.0, 70.0, -math.inf, 70.0),
                  (2.0, math.inf, 80.0, -150.0, math.inf))
        lo, hi = inv._sampling_intervals(system, CheckConfig(), box)
        # 0: window clipped to the bounds; 1: a half-line over the window;
        # 2, 3: free; 4: bounds outside the window; 5, 6: half-lines
        # outside it, cut to its width 160
        assert lo.tolist() == [0.5, 2.0, -23.0, -10.0, 70.0, -310.0, 70.0]
        assert hi.tolist() == [1.0, 22.0, -3.0, 10.0, 80.0, -150.0, 230.0]

    def test_box_outside_the_state_is_refused(self):
        with pytest.raises(UsageError, match="outside the state"):
            inv._sampling_intervals(drift_only(2, np.zeros_like),
                                    CheckConfig(), Box.unit((2,)))

    # a width past float64 would sample inf and NaN points: each checker
    # refuses it, naming the coordinate, before evaluating the model
    @pytest.mark.filterwarnings("error")
    def test_a_width_that_overflows_is_refused(self):
        def fn(t, x):
            raise AssertionError("the model was evaluated")

        system = drift_only(2, fn, coord_ranges=((0.0, 1.0),
                                                 (-1e308, 1e308)))
        refusal = r"coordinate 1: \[-1e\+308, 1e\+308\] is too wide"
        with pytest.raises(UsageError, match=refusal):
            check_box(system, Box.unit((0,)))
        with pytest.raises(UsageError, match=refusal):
            check_comparison(system, system, (0,))
        with pytest.raises(UsageError, match=refusal):
            check_polyhedron(system, Polyhedron((
                Halfspace((0.0, 0.0), (1.0, 0.0)),)))
        wide = CheckConfig(fallback_range=(-1e308, 1e308))
        with pytest.raises(UsageError, match=r"coordinate 0: \[-1e\+308, "):
            inv._sampling_intervals(drift_only(1, fn), wide)
        # a half-line cut to that width overflows too
        with pytest.raises(UsageError, match=r"coordinate 1: \[1e\+308, "):
            inv._sampling_intervals(system, CheckConfig(),
                                    Box((1,), (1e308,), (math.inf,)))

    @pytest.mark.filterwarnings("error")
    def test_bounds_that_clip_a_too_wide_window_are_sampled(self):
        system = drift_only(2, np.zeros_like,
                            coord_ranges=((0.0, 1.0), (-1e308, 1e308)))
        box = Box((0, 1), (0.0, -2.0), (1.0, 3.0))
        lo, hi = inv._sampling_intervals(system, CheckConfig(), box)
        assert (lo.tolist(), hi.tolist()) == ([0.0, -2.0], [1.0, 3.0])



@pytest.mark.parametrize("dim", [0, 1, 2, 3, 4, 7, 40])
def test_halton_matches_scipy_bit_for_bit(dim):
    # the package's scrambled Halton against scipy's, the reference for
    # every pinned report; 40 dimensions run past any table of primes
    from scipy.stats import qmc
    for seed, key, n in itertools.product(
            (0, 7, 2**63 + 5), ((1, 0), (1, 5), (2, 0), (2, 5), (3,)),
            (1, 2, 3, 8, 9, 4096)):
        cfg = CheckConfig(sampler_seed=seed)
        got = inv._halton(cfg, dim, n, *key)
        want = qmc.Halton(d=dim, scramble=True,
                          seed=inv._child_rng(cfg, *key)).random(n)
        case = (seed, key, n)
        assert got.shape == want.shape == (n, dim), case
        assert got.flags.f_contiguous and want.flags.f_contiguous, case
        assert got.tobytes(order="F") == want.tobytes(order="F"), case


class TestWitnesses:
    def test_witnesses_revalidate_through_public_eval(self):
        system, info = build_model("hh-additive", sigma=0.5)
        report = check_box(system, info.box, QUICK)
        assert report.verdict is Verdict.VIOLATED
        assert report.witnesses
        for w in report.witnesses:
            assert w.kind == "diffusion_nonzero"
            g_row = diffusion_batch(system, w.t, [w.x])[0, w.face_index]
            assert np.abs(g_row).max() > QUICK.eps_diff
            pin = 0.0 if w.side == "lower" else 1.0
            assert w.x[w.face_index] == pin

    def test_drift_witness_value_is_the_bad_drift(self):
        sys1 = drift_only(1, lambda t, x: np.asarray(x, dtype=float) - 0.5)
        report = check_box(sys1, Box.unit((0,)), QUICK)
        for w in report.witnesses:
            f = drift_batch(sys1, w.t, [w.x])[0, w.face_index]
            assert w.value == f
            if w.side == "lower":
                assert f < -QUICK.eps_drift
            else:
                assert f > QUICK.eps_drift

    def test_witness_cap_respected(self):
        cfg = CheckConfig(n_face_samples=256, n_time_samples=4,
                          max_witnesses_per_face=3)
        system, info = build_model("hh-additive", sigma=0.5)
        report = check_box(system, info.box, cfg)
        for face in report.faces:
            assert len(face.witnesses) <= 3


class TestTolerances:
    def test_margin_exactly_at_tolerance_is_satisfied(self):
        cfg = CheckConfig(n_face_samples=16, n_time_samples=2,
                          eps_drift=1e-6)
        at_tol = constant_drift_system(1, [-1e-6])
        box = Box.positive((0,))
        assert check_box(at_tol, box, cfg).verdict is Verdict.SATISFIED
        beyond = constant_drift_system(1, [-2e-6])
        assert check_box(beyond, box, cfg).verdict is Verdict.VIOLATED

    def test_diffusion_tolerance_two_sided(self):
        def diffusion(t, x):
            x = np.asarray(x, dtype=float)
            return np.full(x.shape[:-1] + (1, 1), -5e-13)

        tiny = SdeSystem(m=1, r=1, drift=lambda t, x: np.ones_like(
            np.asarray(x, dtype=float)), diffusion=diffusion,
            vectorized=True)
        cfg = CheckConfig(n_face_samples=16, n_time_samples=2)
        assert check_box(tiny, Box.positive((0,)),
                         cfg).verdict is Verdict.SATISFIED

    def test_config_validation(self):
        for bad in (
                {"n_face_samples": 0}, {"n_time_samples": 0},
                {"eps_drift": 0.0}, {"fallback_range": (3.0, 3.0)},
                {"max_witnesses_per_face": 0}, {"sampler_seed": -1},
                # non-finite values would reach the JSON report as NaN or
                # Infinity, which JSON does not have
                {"t_max_check": math.inf}, {"t_max_check": math.nan},
                {"eps_drift": math.inf}, {"eps_diff": math.inf},
                {"fallback_range": (-math.inf, 0.0)},
                {"fallback_range": (0.0, math.inf)}):
            with pytest.raises(UsageError):
                CheckConfig(**bad)

    def test_box_outside_state_rejected(self):
        sys1 = constant_drift_system(1, [0.0])
        with pytest.raises(UsageError):
            check_box(sys1, Box.unit((2,)), QUICK)


def nan_on_lower_x0_face(part):
    """Unit drift, zero noise; `part` ("drift" or "diffusion") has a NaN
    in its x_0 component wherever x_0 <= 0."""
    def drift(t, x):
        x = np.asarray(x, dtype=float)
        f = np.ones_like(x)
        if part == "drift":
            f[..., 0] = np.where(x[..., 0] <= 0.0, np.nan, 1.0)
        return f

    def diffusion(t, x):
        x = np.asarray(x, dtype=float)
        g = np.zeros(x.shape[:-1] + (2, 1))
        if part == "diffusion":
            g[..., 0, 0] = np.where(x[..., 0] <= 0.0, np.nan, 0.0)
        return g

    return SdeSystem(m=2, r=1, drift=drift, diffusion=diffusion,
                     vectorized=True)


class TestNonFiniteModel:
    """A non-finite model value on a face stops every checker with the
    sample point where it appeared."""

    @pytest.mark.parametrize("part", ["drift", "diffusion"])
    @pytest.mark.parametrize("checker", [
        lambda s: check_box(s, Box.unit((0,)), QUICK),
        lambda s: check_comparison(s, s, (0, 1), QUICK),
        lambda s: check_polyhedron(s, Box.unit((0,)).as_polyhedron(2),
                                   QUICK),
    ], ids=["box", "comparison", "polyhedron"])
    def test_error_carries_the_sample_point(self, checker, part):
        system = nan_on_lower_x0_face(part)
        with pytest.raises(ModelEvaluationError, match=part) as err:
            checker(system)
        x = np.array(err.value.x)
        assert x.shape == (2,) and x[0] <= 0.0
        value = getattr(system, part)(err.value.t, x)
        assert not np.isfinite(value).all()


@pytest.mark.parametrize("checker", [
    lambda s: check_box(s, Box.unit((0, 1)), QUICK),
    lambda s: check_comparison(s, s, (1,), QUICK),
    lambda s: check_polyhedron(s, triangle(), QUICK),
], ids=["box", "comparison", "polyhedron"])
def test_models_see_c_ordered_points(checker):
    # a model's matmul may round differently on other memory layouts, so
    # the sampled points reach it in C order (the Halton draws are F order)
    layouts = set()

    def drift(t, x):
        layouts.add(x.flags["C_CONTIGUOUS"])
        return np.ones_like(x)

    checker(drift_only(2, drift))
    assert layouts == {True}


class TestInterpretationInvariance:
    def test_reports_identical_for_both_readings(self):
        for name in ("hh-additive", "hh-logistic"):
            rep = {}
            for interp in Interpretation:
                system, info = build_model(name, sigma=0.5,
                                           interpretation=interp)
                rep[interp] = check_box(system, info.box, QUICK)
            assert (rep[Interpretation.ITO].to_dict()
                    == rep[Interpretation.STRATONOVICH].to_dict())


class TestMonotoneSampling:
    def test_bigger_budget_never_flips_violated_to_satisfied(self):
        small = CheckConfig(n_face_samples=256, n_time_samples=4)
        large = CheckConfig(n_face_samples=1024, n_time_samples=4)
        for name, expected in (("hh-additive", Verdict.VIOLATED),
                               ("hh-logistic", Verdict.SATISFIED)):
            system, info = build_model(name, sigma=0.5)
            r_small = check_box(system, info.box, small)
            r_large = check_box(system, info.box, large)
            assert r_small.verdict is expected
            assert r_large.verdict is expected

    def test_sample_sets_are_prefix_stable(self):
        # the larger budget sees a superset of points, so the minimum
        # drift margin can only go down
        small = CheckConfig(n_face_samples=256, n_time_samples=4)
        large = CheckConfig(n_face_samples=1024, n_time_samples=4)
        system, info = build_model("hh-logistic", sigma=0.5)
        r_small = check_box(system, info.box, small)
        r_large = check_box(system, info.box, large)
        for f_small, f_large in zip(r_small.faces, r_large.faces):
            assert f_large.min_drift_margin <= f_small.min_drift_margin

    @pytest.mark.parametrize("checker", ["box", "comparison", "polyhedron"])
    def test_witnesses_at_a_smaller_budget_are_a_prefix(self, checker):
        # one check time and no witness cap, so each face lists every
        # failing sample point in sample order
        small, large = (
            _budget_report(checker, CheckConfig(
                n_face_samples=n, n_time_samples=1,
                max_witnesses_per_face=10 ** 6))
            for n in (64, 128))
        for f_small, f_large in zip(small.faces, large.faces, strict=True):
            n_small = len(f_small.witnesses)
            assert 0 < n_small < len(f_large.witnesses)
            assert f_large.witnesses[:n_small] == f_small.witnesses
            assert f_large.min_drift_margin <= f_small.min_drift_margin


def _budget_report(checker, cfg):
    if checker == "box":
        system, info = build_model("hh-additive", sigma=0.5)
        return check_box(system, info.box, cfg)
    if checker == "comparison":
        system, _ = build_model("hh-logistic", sigma=0.5)
        return check_comparison(system, system, (0, 1, 2), cfg)
    return check_polyhedron(drift_only(2, _away_from_centroid), triangle(),
                            cfg)


class TestPositivity:
    def test_multiplicative_noise_preserves_cone(self):
        def diffusion(t, x):
            return (0.4 * np.asarray(x, dtype=float))[..., None]

        sys1 = SdeSystem(m=1, r=1,
                         drift=lambda t, x: 1.0 - np.asarray(x, dtype=float),
                         diffusion=diffusion, vectorized=True)
        report = check_box(sys1, Box.positive([0]), QUICK)
        assert report.verdict is Verdict.SATISFIED

    def test_additive_noise_breaks_cone(self):
        def diffusion(t, x):
            x = np.asarray(x, dtype=float)
            return np.full(x.shape[:-1] + (1, 1), 0.4)

        sys1 = SdeSystem(m=1, r=1,
                         drift=lambda t, x: 1.0 - np.asarray(x, dtype=float),
                         diffusion=diffusion, vectorized=True)
        report = check_box(sys1, Box.positive([0]), QUICK)
        assert report.verdict is Verdict.VIOLATED
        assert {w.kind for w in report.witnesses} == {"diffusion_nonzero"}

    def test_subset_of_coordinates(self):
        def fn(t, x):
            x = np.asarray(x, dtype=float)
            out = np.ones_like(x)
            out[..., 1] = -1.0  # pushes coordinate 1 negative, unchecked
            return out

        sys2 = drift_only(2, fn)
        assert (check_box(sys2, Box.positive([0]), QUICK).verdict
                is Verdict.SATISFIED)
        assert (check_box(sys2, Box.positive([0, 1]), QUICK).verdict
                is Verdict.VIOLATED)


def own_coordinate_diffusion(t, x):
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape[:-1] + (2, 1))
    out[..., 0, 0] = x[..., 0]
    out[..., 1, 0] = x[..., 1]
    return out


def cross_coordinate_diffusion(t, x):
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape[:-1] + (2, 1))
    out[..., 0, 0] = x[..., 1]
    return out


def coupled_drift(t, x):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    out[..., 0] = x[..., 1]
    return out


class TestComparison:
    def test_identical_scalar_systems_satisfied(self):
        def fn(t, x):
            return -np.asarray(x, dtype=float)

        def gn(t, x):
            return (0.3 * np.asarray(x, dtype=float))[..., None]

        a = SdeSystem(m=1, r=1, drift=fn, diffusion=gn, vectorized=True)
        b = SdeSystem(m=1, r=1, drift=fn, diffusion=gn, vectorized=True)
        report = check_comparison(a, b, [0], QUICK)
        assert report.verdict is Verdict.SATISFIED
        assert report.faces[0].side == "pair"

    def test_monotone_coupled_drift_satisfied(self):
        a = SdeSystem(m=2, r=1, drift=coupled_drift,
                      diffusion=own_coordinate_diffusion, vectorized=True)
        b = SdeSystem(m=2, r=1, drift=coupled_drift,
                      diffusion=own_coordinate_diffusion, vectorized=True)
        report = check_comparison(a, b, [0, 1], QUICK)
        assert report.verdict is Verdict.SATISFIED

    def test_cross_coordinate_diffusion_violated(self):
        a = SdeSystem(m=2, r=1, drift=coupled_drift,
                      diffusion=cross_coordinate_diffusion, vectorized=True)
        b = SdeSystem(m=2, r=1, drift=coupled_drift,
                      diffusion=cross_coordinate_diffusion, vectorized=True)
        report = check_comparison(a, b, [0, 1], QUICK)
        assert report.verdict is Verdict.VIOLATED
        kinds = {w.kind for w in report.witnesses}
        assert kinds == {"diffusion_nonzero"}
        for w in report.witnesses:
            assert w.partner is not None
            # the witness pair really does differ in diffusion row i
            ga = diffusion_batch(a, w.t, [w.x])[0, w.face_index]
            gb = diffusion_batch(b, w.t, [w.partner])[0, w.face_index]
            assert np.abs(ga - gb).max() > QUICK.eps_diff

    def test_drift_domination_failure_found(self):
        def falling(t, x):
            x = np.asarray(x, dtype=float)
            out = np.zeros_like(x)
            out[..., 0] = -x[..., 1]
            return out

        def rising(t, x):
            x = np.asarray(x, dtype=float)
            out = np.zeros_like(x)
            out[..., 0] = x[..., 1]
            return out

        a = drift_only(2, falling)
        b = drift_only(2, rising)
        report = check_comparison(a, b, [0, 1], QUICK)
        assert report.verdict is Verdict.VIOLATED
        assert "drift_sign" in {w.kind for w in report.witnesses}

    def test_dimension_mismatch_rejected(self):
        a = constant_drift_system(1, [0.0])
        b = constant_drift_system(2, [0.0, 0.0])
        with pytest.raises(UsageError):
            check_comparison(a, b, [0], QUICK)

    def test_indices_validated(self):
        a = constant_drift_system(2, [0.0, 0.0])
        b = constant_drift_system(2, [0.0, 0.0])
        with pytest.raises(UsageError):
            check_comparison(a, b, [], QUICK)
        with pytest.raises(UsageError):
            check_comparison(a, b, [0, 2], QUICK)
        with pytest.raises(UsageError):
            check_comparison(a, b, [0, 0], QUICK)
        # 0.9 and 1.2 used to be truncated to coordinates 0 and 1
        with pytest.raises(UsageError, match="comparison indices must be "
                           "integers"):
            check_comparison(a, b, (0.9, 1.2), QUICK)
        assert (check_comparison(a, b, (np.int64(1),), QUICK).to_json()
                == check_comparison(a, b, (1,), QUICK).to_json())


def triangle() -> Polyhedron:
    root2 = math.sqrt(2.0)
    return Polyhedron((
        Halfspace((0.0, 0.0), (1.0, 0.0)),
        Halfspace((0.0, 0.0), (0.0, 1.0)),
        Halfspace((1.0, 0.0), (-1.0 / root2, -1.0 / root2)),
    ))


class TestPolyhedron:
    def test_agrees_with_box_checker_on_builtins(self):
        for name, expected in (("hh-additive", Verdict.VIOLATED),
                               ("hh-logistic", Verdict.SATISFIED)):
            system, info = build_model(name, sigma=0.5)
            poly = info.box.as_polyhedron(system.m)
            box_verdict = check_box(system, info.box, QUICK).verdict
            poly_verdict = check_polyhedron(system, poly, QUICK).verdict
            assert box_verdict is expected
            assert poly_verdict is expected

    def test_contracting_drift_keeps_triangle(self):
        def fn(t, x):
            x = np.asarray(x, dtype=float)
            return np.array([1.0 / 3.0, 1.0 / 3.0]) - x

        sys2 = drift_only(2, fn)
        report = check_polyhedron(sys2, triangle(), QUICK)
        assert report.verdict is Verdict.SATISFIED
        assert all(f.side == "hyperplane" for f in report.faces)
        assert all(f.n_samples > 0 for f in report.faces)

    def test_expanding_drift_leaves_triangle(self):
        def fn(t, x):
            x = np.asarray(x, dtype=float)
            return x - np.array([1.0 / 3.0, 1.0 / 3.0])

        sys2 = drift_only(2, fn)
        report = check_polyhedron(sys2, triangle(), QUICK)
        assert report.verdict is Verdict.VIOLATED

    def test_tangential_diffusion_allowed(self):
        # noise parallel to the boundary does not break invariance of a
        # half-plane, unlike the all-or-nothing box condition
        def fn(t, x):
            x = np.asarray(x, dtype=float)
            out = np.zeros_like(x)
            out[..., 1] = 1.0
            return out

        def gn(t, x):
            x = np.asarray(x, dtype=float)
            out = np.zeros(x.shape[:-1] + (2, 1))
            out[..., 0, 0] = 1.0
            return out

        sys2 = SdeSystem(m=2, r=1, drift=fn, diffusion=gn, vectorized=True)
        half_plane = Polyhedron((Halfspace((0.0, 0.0), (0.0, 1.0)),))
        assert check_polyhedron(sys2, half_plane,
                                QUICK).verdict is Verdict.SATISFIED
        normal_noise = Polyhedron((Halfspace((0.0, 0.0), (1.0, 0.0)),))
        report = check_polyhedron(sys2, normal_noise, QUICK)
        assert report.verdict is Verdict.VIOLATED
        assert {w.kind for w in report.witnesses} == {"diffusion_nonzero"}

    def test_polyhedron_of_another_dimension_rejected(self):
        with pytest.raises(UsageError, match="lives in dimension 2"):
            check_polyhedron(constant_drift_system(3, [1.0] * 3, r=0),
                             triangle(), QUICK)

    def test_infeasible_polyhedron_rejected(self):
        empty_strip = Polyhedron((
            Halfspace((1.0,), (1.0,)),   # x >= 1
            Halfspace((0.0,), (-1.0,)),  # x <= 0
        ))
        # x >= 20 is not empty, but the (-10, 10) window holds none of it
        beyond = Polyhedron((Halfspace((20.0,), (1.0,)),))
        sys1 = constant_drift_system(1, [0.0], r=0)
        for poly in (empty_strip, beyond):
            with pytest.raises(UsageError, match="interior"):
                check_polyhedron(sys1, poly, QUICK)

    def test_small_box_away_from_the_origin_is_checked(self):
        # the box holds 1.6e-5 of the (-10, 10)^3 window, so no sampled
        # candidate lands in it; its Chebyshev centre is its midpoint
        box = Box((0, 1, 2), (3.0,) * 3, (3.5,) * 3)
        poly = box.as_polyhedron(3)
        sys3 = constant_drift_system(3, [0.0, 0.0, 0.0])
        anchors = np.array([h.anchor for h in poly.halfspaces])
        normals = np.array([h.normal for h in poly.halfspaces])
        lo, hi = np.full(3, -10.0), np.full(3, 10.0)
        x0 = inv._find_interior(anchors, normals, lo, hi, QUICK)
        assert x0 == pytest.approx([3.25] * 3, abs=1e-9)
        assert check_polyhedron(sys3, poly).verdict is Verdict.SATISFIED
        assert check_box(sys3, box).verdict is Verdict.SATISFIED

    def test_unreachable_face_reported_not_sampled(self):
        # the face at x = 50 lies outside the (-10, 10) plausibility
        # window, so the sampler cannot anchor it; the report must say so
        far = Polyhedron((
            Halfspace((-5.0,), (1.0,)),
            Halfspace((50.0,), (-1.0,)),
        ))
        sys1 = constant_drift_system(1, [1.0], r=0)
        report = check_polyhedron(sys1, far, QUICK)
        near_face = report.face(0, "hyperplane")
        far_face = report.face(1, "hyperplane")
        assert near_face.n_samples > 0
        assert far_face.n_samples == 0
        assert far_face.min_drift_margin is None
        # every path leaves through the unsampled face: never satisfied
        assert report.verdict is Verdict.INCONCLUSIVE
        assert report.to_dict()["verdict"] == "inconclusive"

    @pytest.mark.parametrize("ranges", [
        ((0.0, math.inf), (-5.0, 5.0)),
        ((-math.inf, math.inf),) * 2,
    ])
    def test_infinite_coord_ranges_are_windowed(self, ranges):
        # the half-plane x + 0.3 y >= 0 is anchored and walked inside
        # finite windows, with no inf or NaN arithmetic on the way
        sys2 = drift_only(2, lambda t, x: np.ones_like(x),
                          coord_ranges=ranges)
        half_plane = Polyhedron((Halfspace((0.0, 0.0), (1.0, 0.3)),))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = check_polyhedron(sys2, half_plane, QUICK)
        assert report.face(0, "hyperplane").n_samples == QUICK.n_face_samples
        assert report.verdict is Verdict.SATISFIED

    def test_empty_polyhedron_is_vacuously_invariant(self):
        sys1 = constant_drift_system(1, [5.0], r=0)
        report = check_polyhedron(sys1, Polyhedron(()), QUICK)
        assert report.verdict is Verdict.SATISFIED
        assert report.faces == ()


def _one_face_walk(q0, anchors, normals, lo, hi, target, n, rng):
    """Scalar hit-and-run on one face: the reference for _walk_faces."""
    m = q0.size
    nrm = normals[target]
    pts = np.empty((n, m))
    q = q0.copy()
    for it in range(n):
        direction = None
        for _ in range(8):
            d = rng.standard_normal(m)
            d = d - (d @ nrm) * nrm
            dn = np.linalg.norm(d)
            if dn > 1e-12:
                direction = d / dn
                break
        if direction is not None:
            margins = np.einsum("fm,fm->f", q[None, :] - anchors, normals)
            rate = normals @ direction
            s_lo, s_hi = -math.inf, math.inf
            for nu in range(anchors.shape[0]):
                if nu == target:
                    continue
                if rate[nu] > 1e-14:
                    s_lo = max(s_lo, -margins[nu] / rate[nu])
                elif rate[nu] < -1e-14:
                    s_hi = min(s_hi, margins[nu] / -rate[nu])
            for j in range(m):
                if direction[j] > 1e-14:
                    s_hi = min(s_hi, (hi[j] - q[j]) / direction[j])
                    s_lo = max(s_lo, (lo[j] - q[j]) / direction[j])
                elif direction[j] < -1e-14:
                    s_hi = min(s_hi, (lo[j] - q[j]) / direction[j])
                    s_lo = max(s_lo, (hi[j] - q[j]) / direction[j])
            s_lo = min(s_lo if math.isfinite(s_lo) else 0.0, 0.0)
            s_hi = max(s_hi if math.isfinite(s_hi) else 0.0, 0.0)
            q = q + (s_lo + rng.random() * (s_hi - s_lo)) * direction
            q = q - np.einsum("fm,fm->f", q[None, :] - anchors,
                              normals)[target] * nrm
        pts[it] = q
    return pts


def _scalar_first_hit(x0, d, anchors, normals, lo, hi, target):
    """Scalar first-hit scan over faces, then window coordinates: the
    reference for the chord limits that _first_hit shares with the walk."""
    margins = np.einsum("fm,fm->f", x0[None, :] - anchors, normals)
    rate = normals @ d
    if rate[target] >= -1e-14:
        return None
    s_target = margins[target] / -rate[target]
    s_block = math.inf
    for nu in range(anchors.shape[0]):
        if nu == target or rate[nu] >= -1e-14:
            continue
        s_block = min(s_block, margins[nu] / -rate[nu])
    for j in range(lo.size):
        if d[j] > 1e-14:
            s_block = min(s_block, (hi[j] - x0[j]) / d[j])
        elif d[j] < -1e-14:
            s_block = min(s_block, (lo[j] - x0[j]) / d[j])
    if s_target > s_block * (1.0 + 1e-12) + 1e-12:
        return None
    hit = x0 + s_target * d
    return hit - np.einsum("fm,fm->f", hit[None, :] - anchors,
                           normals)[target] * normals[target]


def _scalar_anchor(x0, anchors, normals, lo, hi, target, rng):
    """_face_anchor's tries, each scanned by _scalar_first_hit."""
    hit = _scalar_first_hit(x0, -normals[target], anchors, normals, lo, hi,
                            target)
    if hit is not None:
        return hit
    for _ in range(inv._ANCHOR_TRIES):
        d = -normals[target] + 0.5 * rng.standard_normal(x0.size)
        norm = np.linalg.norm(d)
        if norm < 1e-12:
            continue
        hit = _scalar_first_hit(x0, d / norm, anchors, normals, lo, hi,
                                target)
        if hit is not None:
            return hit
    return None


def _anchor_case(name):
    """(anchors, unit normals, lo, hi, x0, cfg) for one anchoring case."""
    if name.startswith("region-"):
        seed = int(name[len("region-"):])
        anchors, normals, lo, hi = TestLockstepWalk.region(seed)
        cfg = CheckConfig(n_face_samples=50, sampler_seed=seed)
        return (anchors, normals, lo, hi,
                inv._find_interior(anchors, normals, lo, hi, cfg), cfg)
    if name == "obtuse-triangle":
        poly, ranges = obtuse_triangle(), OBTUSE_RANGES
    else:
        poly, ranges = window_clipped_strip(), CLIPPED_RANGES
    anchors = np.array([h.anchor for h in poly.halfspaces])
    normals = np.array([h.normal for h in poly.halfspaces])
    normals = normals / np.linalg.norm(normals, axis=1, keepdims=True)
    lo, hi = np.array(ranges).T
    cfg = CheckConfig()
    if name == "outside-window":  # interior, but beyond both windows
        x0 = np.array([3.0, 2.8])
    else:
        x0 = inv._find_interior(anchors, normals, lo, hi, cfg)
    return anchors, normals, lo, hi, x0, cfg


@pytest.mark.parametrize("name", [f"region-{seed}" for seed in range(12)]
                         + ["obtuse-triangle", "window-clipped",
                            "outside-window"])
def test_face_anchor_matches_scalar_first_hit(name):
    anchors, normals, lo, hi, x0, cfg = _anchor_case(name)
    for nu in range(anchors.shape[0]):
        rng, twin = inv._child_rng(cfg, 4, nu), inv._child_rng(cfg, 4, nu)
        hit = inv._face_anchor(x0, anchors, normals, lo, hi, nu, rng)
        expected = _scalar_anchor(x0, anchors, normals, lo, hi, nu, twin)
        assert (hit is None) == (expected is None)
        if hit is not None:
            assert hit.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == twin.bit_generator.state


class TestLockstepWalk:
    """All faces walk at once, each bit for bit as if walked alone."""

    @staticmethod
    def region(seed):
        g = np.random.default_rng(seed)
        n_faces, m = int(g.integers(2, 8)), int(g.integers(2, 6))
        normals = g.standard_normal((n_faces, m))
        if seed % 3 == 0:  # some exactly zero components
            normals[g.random((n_faces, m)) < 0.4] = 0.0
            normals[~normals.any(axis=1), 0] = 1.0
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        anchors = -g.uniform(0.2, 2.0, (n_faces, 1)) * normals
        lo, hi = np.full(m, -3.0), np.full(m, 3.0)
        return anchors, normals, lo, hi

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_one_face_at_a_time(self, seed):
        anchors, normals, lo, hi = self.region(seed)
        cfg = CheckConfig(n_face_samples=50, sampler_seed=seed)
        x0 = inv._find_interior(anchors, normals, lo, hi, cfg)

        def anchored(nu):
            rng = inv._child_rng(cfg, 4, nu)
            return inv._face_anchor(x0, anchors, normals, lo, hi, nu,
                                    rng), rng

        faces = [(nu, *anchored(nu)) for nu in range(anchors.shape[0])]
        faces = [face for face in faces if face[1] is not None]
        assert faces
        walks = inv._walk_faces(np.array([q0 for _, q0, _ in faces]),
                                np.array([nu for nu, _, _ in faces]),
                                anchors, normals, lo, hi, 50,
                                [rng for _, _, rng in faces])
        for walk, (nu, q0, _) in zip(walks, faces):
            expected = _one_face_walk(q0, anchors, normals, lo, hi, nu, 50,
                                      anchored(nu)[1])
            assert walk.tobytes() == expected.tobytes()

    def test_point_faces_draw_nothing(self):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        walks = inv._walk_faces(np.array([[2.0]]), np.array([1]),
                                np.array([[-1.0], [2.0]]),
                                np.array([[1.0], [-1.0]]), np.array([-5.0]),
                                np.array([5.0]), 7, [rng])
        assert walks.tolist() == [[[2.0]] * 7]
        assert rng.bit_generator.state == before


class _Draws:
    """A generator stub: standard_normal serves rows in turn, repeating
    the last, and random returns 0.25; both count their calls."""

    def __init__(self, *rows):
        self.rows = [np.array(r, dtype=float) for r in rows]
        self.normals = self.uniforms = 0

    def standard_normal(self, out):
        out[...] = self.rows[min(self.normals, len(self.rows) - 1)]
        self.normals += 1
        return out

    def random(self):
        self.uniforms += 1
        return 0.25


class TestTangentRetry:
    """A chain whose draw lies along its normal draws again, alone."""

    NRM = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    SLANT = (0.3, 0.8, -0.5)

    def test_only_the_parallel_chain_draws_again(self):
        draws = [[(2.0, 0.0, 0.0), (0.3, 0.5, -0.2)], [(0.4, -1.0, 0.7)]]
        chains = [_Draws(*rows) for rows in draws]
        direction, found = inv._tangent_directions(self.NRM, chains)
        assert found.tolist() == [True, True]
        assert [c.normals for c in chains] == [2, 1]
        for c, rows in enumerate(draws):
            alone, ok = inv._tangent_directions(self.NRM[c:c + 1],
                                                [_Draws(*rows)])
            assert ok.tolist() == [True]
            assert direction[c].tobytes() == alone[0].tobytes()

    def test_a_chain_parallel_at_every_draw_is_not_found(self):
        chains = [_Draws((-3.0, 0.0, 0.0)), _Draws(self.SLANT)]
        with np.errstate(invalid="ignore"):
            direction, found = inv._tangent_directions(self.NRM, chains)
        assert found.tolist() == [False, True]
        assert [c.normals for c in chains] == [8, 1]

    def test_the_walk_leaves_that_chain_at_its_start(self):
        # the unit square's lower faces in R^3, in the window [0, 1]^3
        anchors = np.zeros((2, 3))
        lo, hi = np.zeros(3), np.ones(3)
        starts = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
        chains = [_Draws((2.0, 0.0, 0.0)), _Draws(self.SLANT)]
        walks = inv._walk_faces(starts, np.array([0, 1]), anchors, self.NRM,
                                lo, hi, 5, chains)
        assert walks[0].tolist() == [starts[0].tolist()] * 5
        assert (chains[0].normals, chains[0].uniforms) == (40, 0)
        alone = _Draws(self.SLANT)
        expected = inv._walk_faces(starts[1:], np.array([1]), anchors,
                                   self.NRM, lo, hi, 5, [alone])
        assert walks[1].tobytes() == expected[0].tobytes()
        assert (chains[1].normals, chains[1].uniforms) == (5, 5)
        assert not np.array_equal(walks[1][0], starts[1])


class TestReportSerialization:
    def test_json_round_trip(self):
        system, info = build_model("hh-additive", sigma=0.1)
        report = check_box(system, info.box, QUICK)
        data = json.loads(report.to_json())
        assert data["verdict"] == "violated"
        assert len(data["faces"]) == 6
        assert data["config_echo"]["n_face_samples"] == 256
        face = data["faces"][0]
        assert set(face) == {"index", "side", "n_samples",
                             "min_drift_margin", "max_diffusion_abs",
                             "witnesses"}
        wit = face["witnesses"][0]
        assert wit["kind"] == "diffusion_nonzero"
        assert len(wit["x"]) == 4

    def test_face_lookup(self):
        system, info = build_model("hh-logistic", sigma=0.5)
        report = check_box(system, info.box, QUICK)
        face = report.face(1, "upper")
        assert face.index == 1 and face.side == "upper"
        with pytest.raises(KeyError):
            report.face(3, "lower")

    def test_comparison_witness_carries_partner(self):
        a = SdeSystem(m=2, r=1, drift=coupled_drift,
                      diffusion=cross_coordinate_diffusion, vectorized=True)
        b = SdeSystem(m=2, r=1, drift=coupled_drift,
                      diffusion=cross_coordinate_diffusion, vectorized=True)
        report = check_comparison(a, b, [0, 1], QUICK)
        data = report.to_dict()
        wit = data["faces"][0]["witnesses"][0]
        assert "y" in wit and len(wit["y"]) == 2


def _registry_readings():
    """Every registry model under both readings and converted to Ito."""
    for name in sorted(MODEL_REGISTRY):
        for interp in Interpretation:
            system, _ = build_model(name, sigma=0.5, interpretation=interp)
            yield pytest.param(system, id=f"{name}-{interp.value}")
        strat, _ = build_model(name, sigma=0.5,
                               interpretation=Interpretation.STRATONOVICH)
        for mode in JacobianMode:
            yield pytest.param(
                stratonovich_to_ito(strat, mode),
                id=f"{name}-as-ito-{mode.value}")


def _late_drift(t, x):
    # points into x >= 0 only from t = 50 on
    x = np.asarray(x, dtype=float)
    return np.full_like(x, t - 50.0)


class TestAutonomous:
    """Time-independent systems are evaluated once per face."""

    @pytest.mark.parametrize("system", list(_registry_readings()))
    def test_registry_models_ignore_t(self, system):
        assert system.autonomous
        rng = np.random.default_rng(7)
        x = np.column_stack([rng.random((512, 3)),
                             rng.uniform(-100.0, 60.0, 512)])
        for batch in (drift_batch, diffusion_batch):
            assert (batch(system, 0.0, x).tobytes()
                    == batch(system, 100.0, x).tobytes())

    def test_time_dependent_system_is_evaluated_at_every_time(self):
        system = drift_only(1, _late_drift)
        cfg = CheckConfig(n_time_samples=16)
        report = check_box(system, Box.positive((0,)), cfg)
        times = np.linspace(0.0, cfg.t_max_check, 16)
        assert [w.t for w in report.witnesses] == list(times[times < 50.0])
        assert report.faces[0].min_drift_margin == -50.0

    CHECKERS = {
        "box": (lambda s, cfg: check_box(s, Box.unit((0, 1)), cfg), 4),
        "polyhedron": (lambda s, cfg: check_polyhedron(
            s, Box.unit((0, 1)).as_polyhedron(2), cfg), 4),
        # against a system at rest: a system against itself reads t - t
        "comparison": (lambda s, cfg: check_comparison(
            s, drift_only(2, lambda t, x: np.zeros_like(x),
                          autonomous=s.autonomous),
            (0, 1), cfg), 2),
    }

    @pytest.mark.parametrize("checker", sorted(CHECKERS))
    @pytest.mark.parametrize("n_times", [1, 4])
    def test_drift_calls(self, checker, n_times):
        # per face: one call once if autonomous (plus the guard on the
        # first face), else one at every check time
        check, n_faces = self.CHECKERS[checker]
        calls = []

        def drift(t, x):
            calls.append(t)
            return np.ones_like(x)

        cfg = CheckConfig(n_face_samples=64, n_time_samples=n_times)
        for autonomous in (True, False):
            calls.clear()
            check(drift_only(2, drift, autonomous=autonomous), cfg)
            if autonomous:
                want = n_faces + (n_times > 1)
            else:
                want = n_faces * n_times
            assert len(calls) == want, autonomous

    def hh_reports(self):
        cfg = CheckConfig(n_face_samples=32, n_time_samples=3,
                          max_witnesses_per_face=100)
        additive, info = build_model("hh-additive", sigma=0.5)
        logistic, _ = build_model("hh-logistic", sigma=0.5)
        strat, _ = build_model("hh-logistic", sigma=0.5,
                               interpretation=Interpretation.STRATONOVICH)
        converted = stratonovich_to_ito(strat, JacobianMode.ANALYTIC)
        poly = info.box.as_polyhedron(4)
        return {
            "box-additive": lambda s: check_box(s(additive), info.box, cfg),
            "box-logistic": lambda s: check_box(s(logistic), info.box, cfg),
            "box-converted": lambda s: check_box(s(converted), info.box,
                                                 cfg),
            "polyhedron-additive": lambda s: check_polyhedron(
                s(additive), poly, cfg),
            "comparison-logistic": lambda s: check_comparison(
                s(logistic), s(logistic), (0, 1, 2), cfg),
            "comparison-additive-logistic": lambda s: check_comparison(
                s(additive), s(logistic), (0, 1, 2), cfg),
        }

    def test_hh_reports_equal_the_evaluated_ones(self):
        times = {}
        for name, report in self.hh_reports().items():
            replayed = report(lambda s: s).to_json()
            evaluated = report(lambda s: replace(s, autonomous=False))
            assert replayed == evaluated.to_json(), name
            times[name] = {w.t for w in evaluated.witnesses}
        # the witnesses span every check time, so their order is pinned
        assert times["box-additive"] == {0.0, 50.0, 100.0}
        assert times["comparison-additive-logistic"] == {0.0, 50.0, 100.0}

    @pytest.mark.parametrize("checker", sorted(CHECKERS))
    def test_false_declaration_is_a_usage_error(self, checker):
        check, _ = self.CHECKERS[checker]
        system = drift_only(2, _late_drift, autonomous=True)
        with pytest.raises(UsageError, match="autonomous"):
            check(system, QUICK)

    def test_guard_runs_on_the_first_sampled_face(self):
        # face 0 at x = 50 lies outside the window and has no samples
        far_first = Polyhedron((Halfspace((50.0,), (-1.0,)),
                                Halfspace((-5.0,), (1.0,))))
        system = drift_only(1, _late_drift, autonomous=True)
        with pytest.raises(UsageError, match=r"face \(1, hyperplane\)"):
            check_polyhedron(system, far_first, QUICK)

    def test_one_autonomous_side_is_not_enough(self):
        # comparison replays only when both systems declare autonomous, so
        # a false declaration on one side goes unused, and unchecked
        still = drift_only(2, lambda t, x: np.zeros_like(x))
        late = drift_only(2, _late_drift)
        liar = replace(late, autonomous=True)
        for pair in ((late, still), (still, late)):
            evaluated = check_comparison(*pair, (0,), QUICK)
            assert evaluated.witnesses
            lying = [liar if s is late else s for s in pair]
            assert check_comparison(*lying, (0,), QUICK) == evaluated


def _mixed_drift(t, x):
    return np.array([x[1] - 0.1 - 0.001 * t, 0.0])


def _mixed_diffusion(t, x):
    return np.array([[x[1] if x[1] > 0.9 else 0.0], [0.0]])


def _away_from_centroid(t, x):
    return np.asarray(x, dtype=float) - np.array([1.0 / 3.0, 1.0 / 3.0])


def _skewed_drift(t, x):
    return np.asarray(x, dtype=float) - np.array([0.2, 0.15, 0.25])


def _skewed_diffusion(t, x):
    x = np.asarray(x, dtype=float)
    return 0.1 * x[..., [1, 2, 0], None]


def skewed_tetrahedron() -> Polyhedron:
    return Polyhedron((
        Halfspace((0.0, 0.0, 0.0), (1.0, 0.2, 0.1)),
        Halfspace((0.0, 0.0, 0.0), (0.3, 1.0, -0.2)),
        Halfspace((0.0, 0.0, 0.0), (-0.1, 0.4, 1.0)),
        Halfspace((1.0, 1.0, 1.0), (-1.0, -0.7, -0.9)),
    ))


def obtuse_triangle() -> Polyhedron:
    """Vertices (0, 0), (4, 0) and (0.4, 0.3); obtuse at the last one."""
    return Polyhedron((
        Halfspace((0.0, 0.0), (0.0, 1.0)),
        Halfspace((4.0, 0.0), (-0.3, -3.6)),
        Halfspace((0.0, 0.0), (3.0, -4.0)),
    ))


def window_clipped_strip() -> Polyhedron:
    """x >= 0 and 0 <= y <= 3; its y faces lie outside y in (0.5, 2.5)."""
    return Polyhedron((
        Halfspace((0.0, 0.0), (1.0, 0.0)),
        Halfspace((0.0, 0.0), (0.0, 1.0)),
        Halfspace((0.0, 3.0), (0.0, -1.0)),
    ))


OBTUSE_RANGES = ((-1.0, 5.0),) * 2
CLIPPED_RANGES = ((-1.0, 2.0), (0.5, 2.5))


def _away_from(centre):
    centre = np.array(centre)
    return lambda t, x: np.asarray(x, dtype=float) - centre


class TestPinnedReports:
    """sha256 of CheckReport.to_json() for each checker, pinned.

    The caps bind part-way through a time slice: after some drift and some
    diffusion witnesses on the mixed box faces, and across several times
    on the mixed polyhedron.  The mixed system is not vectorized, so its
    rows go through the loop fallback of the batch evaluator.

    The triangle, the skewed tetrahedron and the interval have normals
    off the coordinate axes (or a face with no tangent space), and every
    one of their sampled points is a witness, so their digests pin each
    hit-and-run point bit for bit, not just the verdicts.

    The obtuse triangle's face 2 is anchored only after random directions
    (the -n ray from the interior point leaves the edge), and the clipped
    strip's faces 1 and 2 lie outside the window, so both miss every one of
    their 65 tries.  The split comparison couples coordinates 0 and 2 with
    the free coordinate 1 between them.  Every sampled point of these three
    is a witness.  No report may raise a RuntimeWarning on the way.
    """

    DIGESTS = {
        "box-hh-additive": "1b18ca56b60859312048a61ea88f2692"
                           "072260ca01a67257694024035301c266",
        "box-mixed": "7658d3d43601a2ff4af37383800d562c"
                     "ec3ef1d765295369ec77b9a34d6b8f18",
        "comparison-hh-logistic": "8d7ec872dea8269f32448908daf1d53e"
                                  "15c2e743fe6134f951505a620ef3dbd7",
        "polyhedron-hh-additive": "7e69f1805fcc4f9cd142b5d269cf57f1"
                                  "eea970d2121e92e4ccf8ee11ee1b1b09",
        "polyhedron-mixed": "27c295007f018152e62778ed25fadcb5"
                            "677ff3cf58afce0a27b67719a6f7e75e",
        "polyhedron-triangle": "d04ec22a73a6d254976713c5f444727f"
                               "f2c5dd96ba222c22f186e0270061765b",
        "polyhedron-skewed-3d": "c7181a90e6dfa821cd9e88707a9892bc"
                                "35a46dd131f32d30b3baa4304c6e0f9a",
        "polyhedron-interval": "76310952237daba299ce89d81ef8a474"
                               "547203be0faf916bbfdf61c445a39093",
        "polyhedron-obtuse-triangle": "32a962a4e0cde5638705de74756cd0fb"
                                      "10688b38f004c020879678d750cd3378",
        "polyhedron-window-clipped": "b5c0f75a71c6ef498287f2cd982b4eb9"
                                     "305b015844788c94985f29678a0dc7d2",
        "comparison-split-coupling": "544ae0f4d377789441b1e2b53c73e8f7"
                                     "fc2ee1e6baba233d929fd72fd02eb4dd",
    }

    def reports(self):
        cap3 = CheckConfig(n_face_samples=32, n_time_samples=3,
                           max_witnesses_per_face=3)
        cap5 = CheckConfig(n_face_samples=32, n_time_samples=3,
                           max_witnesses_per_face=5)
        every_point = CheckConfig(n_face_samples=32, n_time_samples=1,
                                  max_witnesses_per_face=32)
        mixed = SdeSystem(m=2, r=1, drift=_mixed_drift,
                          diffusion=_mixed_diffusion,
                          coord_ranges=((0.0, 1.0), (0.0, 1.0)))
        skewed = SdeSystem(m=3, r=1, drift=_skewed_drift,
                           diffusion=_skewed_diffusion, vectorized=True,
                           coord_ranges=((-1.0, 2.0),) * 3)
        split = SdeSystem(m=3, r=1, drift=_skewed_drift,
                          diffusion=_skewed_diffusion, vectorized=True,
                          coord_ranges=((-1.0, 2.0), (0.0, math.inf),
                                        (-1.0, 2.0)))
        interval = Polyhedron((Halfspace((-1.0,), (1.0,)),
                               Halfspace((2.0,), (-1.0,))))
        additive, info = build_model("hh-additive", sigma=0.5)
        logistic, _ = build_model("hh-logistic", sigma=0.5)
        return {
            "box-hh-additive": check_box(additive, info.box, cap3),
            "box-mixed": check_box(mixed, Box.unit((0,)), cap5),
            "comparison-hh-logistic": check_comparison(
                logistic, logistic, (0, 1, 2), cap3),
            "polyhedron-hh-additive": check_polyhedron(
                additive, info.box.as_polyhedron(4), cap3),
            "polyhedron-mixed": check_polyhedron(
                mixed, Box.unit((0,)).as_polyhedron(2), cap5),
            "polyhedron-triangle": check_polyhedron(
                drift_only(2, _away_from_centroid), triangle(), every_point),
            "polyhedron-skewed-3d": check_polyhedron(
                skewed, skewed_tetrahedron(), every_point),
            "polyhedron-interval": check_polyhedron(
                drift_only(1, lambda t, x: np.asarray(x, dtype=float)),
                interval, every_point),
            "polyhedron-obtuse-triangle": check_polyhedron(
                drift_only(2, _away_from((0.5, 0.2)),
                           coord_ranges=OBTUSE_RANGES),
                obtuse_triangle(), every_point),
            "polyhedron-window-clipped": check_polyhedron(
                drift_only(2, _away_from_centroid,
                           coord_ranges=CLIPPED_RANGES),
                window_clipped_strip(), every_point),
            "comparison-split-coupling": check_comparison(
                split, split, (0, 2), every_point),
        }

    def test_report_json_digests(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            reports = self.reports()
        digests = {name: hashlib.sha256(r.to_json().encode()).hexdigest()
                   for name, r in reports.items()}
        assert digests == self.DIGESTS

    # V boxed outside the HH window (-100, 60): the faces of coordinate 0
    # sample V from the box itself, a one-sided bound extended by the
    # window's span of 160
    WINDOW_MISS = {
        "box-hh-v-above-window": (
            Box((0, 3), (0.1, 70.0), (0.9, 80.0)), (70.0, 80.0),
            "6ec10cf800f5823367d9764f38784325"
            "790de42820a1d56df7b36d5d8a635cf3"),
        "box-hh-v-above-window-one-sided": (
            Box((0, 3), (0.1, 70.0), (0.9, math.inf)), (70.0, 230.0),
            "83e8bf8eaa18ff1b53a3e46aa20ffb3b"
            "d08dffeec58a011eeaaf04f9c181b644"),
        "box-hh-v-below-window-one-sided": (
            Box((0, 3), (0.1, -math.inf), (0.9, -150.0)), (-310.0, -150.0),
            "09507617a4a535c6a3381666db1ff54f"
            "c3b4bbe0cbc06235773432199cd0b7b1"),
    }

    @pytest.mark.parametrize("name", sorted(WINDOW_MISS))
    def test_box_outside_the_window_digests(self, name):
        box, (lo, hi), digest = self.WINDOW_MISS[name]
        cfg = CheckConfig(n_face_samples=32, n_time_samples=3,
                          max_witnesses_per_face=3)
        system, _ = build_model("hh-det")
        v = inv._box_face_points(system, box, cfg, 0, 0.1, 0)[:, 3]
        assert lo <= v.min() and v.max() <= hi
        report = check_box(system, box, cfg)
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest


@given(c=st.floats(min_value=-5.0, max_value=5.0,
                   allow_nan=False, allow_infinity=False),
       lo=st.floats(min_value=-3.0, max_value=3.0,
                    allow_nan=False, allow_infinity=False))
def test_constant_drift_verdict_matches_sign_analysis(c, lo):
    """1-d constant drift against [lo, inf): invariant iff c >= 0."""
    cfg = CheckConfig(n_face_samples=8, n_time_samples=2, eps_drift=1e-12)
    sys1 = constant_drift_system(1, [c])
    box = Box((0,), (lo,), (math.inf,))
    verdict = check_box(sys1, box, cfg).verdict
    expected = Verdict.SATISFIED if c >= -1e-12 else Verdict.VIOLATED
    assert verdict is expected


# A closed-form oracle for the box checker.  Each member is a diagonal
# system on a finite box [a, b] inside the sampling window: the drift is
# affine, f_i = p_i + sum_k q_ik x_k, and the diffusion is diagonal,
# g_ii = c_i (x_i - a_i)(b_i - x_i) + d_i, which is d_i on both faces of
# coordinate i.  So a face of coordinate i holds exactly when
# |d_i| <= eps_diff and f_i, over the face's corners, points inward
# within eps_drift.  p and the q_ii are solved from a drawn slack per
# face: the lower face's minimum of f_i is s_lo, the upper face's
# maximum is -s_hi, and a slack below -eps_drift breaks the face on the
# fraction that _broken_fraction gives.  The diffusion is declared
# diagonal, so the checkers read it through diffusion_batch's expansion,
# and its analytic Jacobian is J[i, i, i] = c_i (a_i + b_i - 2 x_i).  The
# correction of row i on a face of coordinate i is then J[i, i, i] d_i,
# at most about 4e-12 where |d_i| <= eps_diff, so a Stratonovich member
# and its Ito conversion share their verdict, as the paper says.
ORACLE_CFG = CheckConfig(n_face_samples=256, n_time_samples=2)
# 256 independent uniform points miss 6% of a face with odds below 1e-6
BROKEN_ENOUGH = 0.06


def _broken_fraction(alphas, tau):
    """P(sum_k alpha_k u_k < tau) for independent u_k ~ U[0, 1] and
    alpha_k > 0: a simplex corner cut from a box, by inclusion-exclusion."""
    n = len(alphas)
    if n == 0:
        return float(tau > 0)
    volume = sum((-1) ** len(subset) * max(tau - sum(subset), 0.0) ** n
                 for k in range(n + 1)
                 for subset in itertools.combinations(alphas, k))
    return min(max(volume / (math.factorial(n) * math.prod(alphas)), 0.0),
               1.0)


def _signed(lo, hi):
    return st.floats(lo, hi).flatmap(lambda v: st.sampled_from([v, -v]))


@st.composite
def diagonal_members(draw, m, intact):
    """(system, box, oracle, broken) for one member of dimension m, which
    holds on every face within the tolerances if intact is True.  With
    intact "drift", every drift condition holds and exactly one |d_i|
    exceeds eps_diff; with False, any face may break.  oracle(i, side,
    x) gives the inward drift margin and the diffusion g_ii at x, and
    broken maps each face (i, side) to the fraction of it on which a
    face condition fails."""

    def row(strategy):
        return np.array(draw(st.lists(strategy, min_size=m, max_size=m)))

    a = row(st.floats(-5.0, 4.0))
    b = a + row(st.floats(0.5, 5.0))
    q = np.array([row(st.one_of(st.just(0.0), _signed(0.01, 3.0)))
                  for _ in range(m)])
    slack = st.one_of(st.sampled_from([0.0, -5e-10]), st.floats(1e-6, 2.0))
    tiny = st.sampled_from([0.0, 5e-13, -5e-13])
    if not intact:
        slack = st.one_of(slack, st.floats(-2.0, -1e-3))
    s_lo, s_hi = row(slack), row(slack)
    c = row(st.floats(-3.0, 3.0))
    d = row(tiny if intact else st.one_of(tiny, _signed(1e-6, 1.0)))
    if intact == "drift":
        d[draw(st.integers(0, m - 1))] = draw(_signed(1e-6, 1.0))
    eps_drift, eps_diff = ORACLE_CFG.eps_drift, ORACLE_CFG.eps_diff
    p = np.empty(m)
    broken = {}
    for i in range(m):
        off = [k for k in range(m) if k != i]
        q[i, i] = 0.0  # solved from the slacks once the rest is summed
        low, high = np.minimum(q[i] * a, q[i] * b), np.maximum(q[i] * a,
                                                               q[i] * b)
        q[i, i] = (-s_hi[i] - s_lo[i] - (high - low).sum()) / (b[i] - a[i])
        p[i] = s_lo[i] - q[i, i] * a[i] - low.sum()
        alphas = [abs(q[i, k]) * (b[k] - a[k]) for k in off if q[i, k]]
        for side, s in (("lower", s_lo[i]), ("upper", s_hi[i])):
            broken[i, side] = (1.0 if abs(d[i]) > eps_diff
                               else _broken_fraction(alphas, -s - eps_drift))

    def drift(t, x):
        return p + np.asarray(x, dtype=float) @ q.T

    def diffusion(t, x):
        x = np.asarray(x, dtype=float)
        return c * (x - a) * (b - x) + d

    def jacobian(t, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (m, m, m))
        out[..., range(m), range(m), range(m)] = c * (a + b - 2.0 * x)
        return out

    def oracle(i, side, x):
        f_i = p[i] + sum(q[i, k] * x[k] for k in range(m))
        g_ii = c[i] * (x[i] - a[i]) * (b[i] - x[i]) + d[i]
        return (f_i if side == "lower" else -f_i), g_ii

    system = SdeSystem(m=m, r=m, drift=drift, diffusion=diffusion,
                       vectorized=True, autonomous=True, name="diagonal",
                       diagonal_noise=True, diffusion_jacobian=jacobian)
    return system, Box(tuple(range(m)), tuple(a), tuple(b)), oracle, broken


@pytest.mark.parametrize("intact", [True, False, "drift"])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
@settings(derandomize=True, max_examples=15)
@given(data=st.data())
def test_box_verdicts_match_the_closed_form(m, intact, data):
    system, box, oracle, broken = data.draw(diagonal_members(m, intact))
    cfg = ORACLE_CFG
    reports = {"box": check_box(system, box, cfg),
               "polyhedron": check_polyhedron(
                   system, box.as_polyhedron(system.m), cfg)}
    for kind, report in reports.items():
        for w in report.witnesses:  # each re-evaluates to a real break
            if kind == "box":
                i, side = w.face_index, w.side
            else:  # as_polyhedron lists each coordinate's lower, upper
                i, side = divmod(w.face_index, 2)
                side = ("lower", "upper")[side]
            pins = box.upper if side == "upper" else box.lower
            pin = pins[box.indices.index(i)]
            assert w.x[i] == pytest.approx(pin, abs=1e-9)
            margin, g_ii = oracle(i, side, w.x)
            if w.kind == "drift_sign":
                assert margin < -cfg.eps_drift + 1e-12
            else:
                assert abs(g_ii) > cfg.eps_diff
    fractions = broken.values()
    if not any(fractions):
        assert reports["box"].verdict is Verdict.SATISFIED
    if max(fractions) >= BROKEN_ENOUGH:
        assert reports["box"].verdict is Verdict.VIOLATED
    if all(f == 0.0 or f >= BROKEN_ENOUGH for f in fractions):
        assert (reports["polyhedron"].verdict
                is reports["box"].verdict)
    strat = replace(system, interpretation=Interpretation.STRATONOVICH)
    converted = stratonovich_to_ito(strat, JacobianMode.ANALYTIC)
    assert (check_box(converted, box, cfg).verdict
            is check_box(strat, box, cfg).verdict)
