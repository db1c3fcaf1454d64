import math
import warnings

import numpy as np
import pytest

from sdeinvariance import (HHParams, Interpretation, MODEL_REGISTRY,
                           NoiseKind, UsageError, build_model, hh_metadata,
                           rate_alpha, rate_beta, resting_state)
from sdeinvariance.core import diffusion_batch, drift_batch

_W = 1e-7  # the singular window of the frozen reference below


# -- Frozen reference: the rate, drift, diffusion and Jacobian code of the
# package before its single rate kernel, kept verbatim to pin the kernel's
# outputs bit for bit.

def _frozen_alpha1(v):
    u = v + 35.0
    safe = np.where(np.abs(u) < _W, 1.0, u)
    direct = 0.1 * safe / (1.0 - np.exp(-safe / 10.0))
    series = 1.0 + u / 20.0
    return np.where(np.abs(u) < _W, series, direct)


def _frozen_alpha2(v):
    u = v + 50.0
    safe = np.where(np.abs(u) < _W, 1.0, u)
    direct = 0.01 * safe / (1.0 - np.exp(-safe / 10.0))
    series = 0.1 + u / 200.0
    return np.where(np.abs(u) < _W, series, direct)


def _frozen_alpha3(v):
    return 0.07 * np.exp(-0.05 * (v + 60.0))


def _frozen_beta1(v):
    return 4.0 * np.exp(-0.0556 * (v + 60.0))


def _frozen_beta2(v):
    return 0.125 * np.exp(-(v + 60.0) / 80.0)


def _frozen_beta3(v):
    return 1.0 / (1.0 + np.exp(-0.1 * (v + 30.0)))


_FROZEN_ALPHAS = (_frozen_alpha1, _frozen_alpha2, _frozen_alpha3)
_FROZEN_BETAS = (_frozen_beta1, _frozen_beta2, _frozen_beta3)


def _frozen_drift(params):
    def drift(t, x):
        x = np.asarray(x, dtype=float)
        gates = x[..., :3]
        v = x[..., 3]
        a = np.stack([fn(v) for fn in _FROZEN_ALPHAS], axis=-1)
        b = np.stack([fn(v) for fn in _FROZEN_BETAS], axis=-1)
        dgates = a * (1.0 - gates) - b * gates
        ionic = (params.i_app
                 - params.g_na * gates[..., 0] ** 3 * gates[..., 2]
                 * (v - params.e_na)
                 - params.g_k * gates[..., 1] ** 4 * (v - params.e_k)
                 - params.g_l * (v - params.e_l))
        dv = ionic / params.c_m
        return np.concatenate([dgates, dv[..., None]], axis=-1)
    return drift


def _frozen_diffusion(kind, amplitudes):
    def diffusion(t, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (4, 3))
        if kind is NoiseKind.NONE:
            return out
        sigma = np.asarray(amplitudes)
        if kind is NoiseKind.ADDITIVE:
            for i in range(3):
                out[..., i, i] = sigma[i]
        else:
            gates = x[..., :3]
            amp = sigma * gates * (1.0 - gates)
            for i in range(3):
                out[..., i, i] = amp[..., i]
        return out
    return diffusion


def _frozen_jacobian(kind, amplitudes):
    def jacobian(t, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (4, 3, 4))
        if kind is NoiseKind.MULTIPLICATIVE:
            sigma = np.asarray(amplitudes)
            gates = x[..., :3]
            slope = sigma * (1.0 - 2.0 * gates)
            for i in range(3):
                out[..., i, i, i] = slope[..., i]
        return out
    return jacobian


def ref_rates(v: float):
    """Independent scalar reference for all six rate functions.

    Written from the closed forms with plain math; the singular points of
    the first two opening rates are not handled, so callers must stay
    away from V = -35 and V = -50.
    """
    a1 = 0.1 * (v + 35.0) / (1.0 - math.exp(-(v + 35.0) / 10.0))
    a2 = 0.01 * (v + 50.0) / (1.0 - math.exp(-(v + 50.0) / 10.0))
    a3 = 0.07 * math.exp(-0.05 * (v + 60.0))
    b1 = 4.0 * math.exp(-0.0556 * (v + 60.0))
    b2 = 0.125 * math.exp(-(v + 60.0) / 80.0)
    b3 = 1.0 / (1.0 + math.exp(-0.1 * (v + 30.0)))
    return (a1, a2, a3), (b1, b2, b3)


class TestRates:
    def test_point_values(self):
        assert rate_alpha(3, -60.0) == 0.07
        assert rate_beta(1, -60.0) == 4.0
        assert rate_beta(2, -60.0) == 0.125
        assert rate_beta(3, -30.0) == 0.5

    def test_limit_branches(self):
        assert abs(rate_alpha(1, -35.0) - 1.0) < 1e-9
        assert abs(rate_alpha(2, -50.0) - 0.1) < 1e-9

    def test_continuity_across_singular_points(self):
        for i, v_star, limit in ((1, -35.0, 1.0), (2, -50.0, 0.1)):
            below = rate_alpha(i, v_star - 1e-6)
            above = rate_alpha(i, v_star + 1e-6)
            assert abs(below - limit) < 1e-6
            assert abs(above - limit) < 1e-6

    def test_against_reference_formulas(self):
        for v in (-90.0, -70.0, -55.0, -40.0, -20.0, 0.0, 30.0):
            alphas, betas = ref_rates(v)
            for i in (1, 2, 3):
                assert rate_alpha(i, v) == pytest.approx(alphas[i - 1],
                                                         rel=1e-12)
                assert rate_beta(i, v) == pytest.approx(betas[i - 1],
                                                       rel=1e-12)

    def test_rates_positive_over_physiological_range(self):
        v = np.linspace(-100.0, 60.0, 2001)
        for i in (1, 2, 3):
            assert (rate_alpha(i, v) > 0).all()
            assert (rate_beta(i, v) > 0).all()

    def test_channel_number_validated(self):
        with pytest.raises(UsageError):
            rate_alpha(0, -60.0)
        with pytest.raises(UsageError):
            rate_beta(4, -60.0)

    def test_scalar_in_scalar_out(self):
        out = rate_alpha(1, -40.0)
        assert isinstance(out, float)
        assert isinstance(rate_beta(2, np.float64(-40.0)), float)
        arr = rate_alpha(1, np.array([-40.0, -20.0]))
        assert isinstance(arr, np.ndarray)
        for seq in ([-40.0, -20.0], (-40.0, -20.0)):
            for rate in (rate_alpha, rate_beta):
                got = rate(1, seq)
                assert isinstance(got, np.ndarray) and got.shape == (2,)
                assert np.array_equal(got, rate(1, np.array(seq)))

    def test_singular_points_stay_silent(self):
        x = np.array([[0.2, 0.4, 0.6, -35.0],
                      [0.3, 0.5, 0.7, -50.0],
                      [0.1, 0.2, 0.3, -60.0],
                      [0.5, 0.5, 0.5, 10.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            f = build_model("hh-det")[0].drift(0.0, x)
            assert rate_alpha(1, -35.0) == 1.0
            assert rate_alpha(2, -50.0) == 0.1
            b1, b2 = rate_beta(1, -35.0), rate_beta(2, -50.0)
        # the series values 1 and 0.1 stand in for alpha_1 and alpha_2
        assert f[0, 0] == 1.0 * (1.0 - 0.2) - b1 * 0.2
        assert f[1, 1] == 0.1 * (1.0 - 0.5) - b2 * 0.5
        assert np.isfinite(f).all()


def _pin_voltages():
    """Ordinary, singular, near-singular and non-finite voltages (72)."""
    rng = np.random.default_rng(20121)
    special = [-35.0, -50.0, np.nan, np.inf, -np.inf]
    for v_star in (-35.0, -50.0):
        special += [v_star - 5e-8, v_star + 5e-8]
    return np.concatenate([rng.uniform(-120.0, 80.0, 63), special])


def _pin_states():
    """Every pin state alone, shape (4,), then all as (n, 4) and (k, n, 4)."""
    rng = np.random.default_rng(7)
    v = _pin_voltages()
    rows = np.column_stack([rng.uniform(-0.5, 1.5, (v.size, 3)), v])
    return list(rows) + [rows, rows.reshape(3, -1, 4)]


# (model name, sigma); hh-det takes none
_PIN_NOISES = (("hh-det", None), ("hh-additive", (0.1, 0.2, 0.3)),
               ("hh-logistic", (0.5, 0.25, 4.0)))


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and got.dtype == want.dtype
            and got.tobytes() == want.tobytes())


class TestKernelBits:
    """The model callables reproduce the frozen reference bit for bit."""

    def test_drift(self):
        params = HHParams()
        drift = build_model("hh-det", params=params)[0].drift
        frozen = _frozen_drift(params)
        for x in _pin_states():
            with np.errstate(all="ignore"):
                assert _same_bits(drift(0.0, x), frozen(0.0, x)), x

    @pytest.mark.parametrize("name, sigma", _PIN_NOISES,
                             ids=[MODEL_REGISTRY[name].value
                                  for name, _ in _PIN_NOISES])
    def test_diffusion_and_jacobian(self, name, sigma):
        system, _ = build_model(name, sigma=sigma)
        kind = MODEL_REGISTRY[name]
        frozen_g = _frozen_diffusion(kind, sigma)
        frozen_jac = _frozen_jacobian(kind, sigma)
        for x in _pin_states():
            with np.errstate(all="ignore"):
                dense = frozen_g(0.0, x)
                # the callable returns the diagonal, diffusion_batch the
                # whole matrix
                assert _same_bits(system.diffusion(0.0, x),
                                  np.diagonal(dense, axis1=-2, axis2=-1))
                assert _same_bits(
                    diffusion_batch(system, 0.0, np.reshape(x, (-1, 4))),
                    dense.reshape(-1, 4, 3))
                assert _same_bits(system.diffusion_jacobian(0.0, x),
                                  frozen_jac(0.0, x))

    @pytest.mark.parametrize("i", (1, 2, 3))
    def test_rates(self, i):
        v = _pin_voltages()
        alpha, beta = _FROZEN_ALPHAS[i - 1], _FROZEN_BETAS[i - 1]
        with np.errstate(all="ignore"):
            for shaped in (v, v.reshape(-1, 6), v.reshape(2, 3, -1)):
                assert _same_bits(rate_alpha(i, shaped), alpha(shaped))
                assert _same_bits(rate_beta(i, shaped), beta(shaped))
            for scalar in v.tolist():
                assert _same_bits(rate_alpha(i, scalar), float(alpha(scalar)))
                assert _same_bits(rate_beta(i, scalar), float(beta(scalar)))


class TestLayout:
    """march holds its states path-last, as F-ordered (n, 4) batches; the
    kernels give the same bits in any layout and keep the input's."""

    @pytest.mark.parametrize("name, sigma", _PIN_NOISES,
                             ids=[MODEL_REGISTRY[name].value
                                  for name, _ in _PIN_NOISES])
    def test_batch_layout_does_not_change_bits(self, name, sigma):
        system, _ = build_model(name, sigma=sigma)
        # singular, near-singular and non-finite voltages, and a row whose
        # gates are not finite
        rows = np.vstack([_pin_states()[-2], [np.nan, 0.5, np.inf, -60.0]])
        fortran = np.asfortranarray(rows)
        assert rows.flags.c_contiguous and not fortran.flags.c_contiguous
        with np.errstate(all="ignore"):
            for field in (system.drift, system.diffusion):
                one_by_one = np.array([field(0.0, row) for row in rows])
                assert _same_bits(field(0.0, rows), one_by_one)
                assert _same_bits(field(0.0, fortran), one_by_one)
                # an output allocated C-ordered would bring back the
                # short inner loops of every later ufunc
                assert field(0.0, fortran).flags.f_contiguous


class TestDriftStructure:
    def test_face_values_reduce_to_rates(self):
        system, _ = build_model("hh-det")
        for v in np.linspace(-100.0, 60.0, 64):
            at_zero = np.array([0.0, 0.0, 0.0, v])
            at_one = np.array([1.0, 1.0, 1.0, v])
            f0 = system.drift(0.0, at_zero)
            f1 = system.drift(0.0, at_one)
            for i in (1, 2, 3):
                assert f0[i - 1] == rate_alpha(i, v)
                assert f1[i - 1] == -rate_beta(i, v)

    def test_voltage_equation(self):
        p = HHParams()
        system, _ = build_model("hh-det", params=p)
        x = np.array([0.2, 0.4, 0.6, -55.0])
        expected = (p.i_app
                    - p.g_na * 0.2 ** 3 * 0.6 * (-55.0 - p.e_na)
                    - p.g_k * 0.4 ** 4 * (-55.0 - p.e_k)
                    - p.g_l * (-55.0 - p.e_l)) / p.c_m
        assert system.drift(0.0, x)[3] == pytest.approx(expected, rel=1e-14)

    def test_vectorized_matches_scalar(self):
        system, _ = build_model("hh-det")
        pts = np.array([[0.1, 0.2, 0.3, -70.0],
                        [0.9, 0.8, 0.7, -30.0],
                        [0.0, 1.0, 0.5, 10.0]])
        batch = drift_batch(system, 0.0, pts)
        for k, row in enumerate(pts):
            assert np.array_equal(batch[k], system.drift(0.0, row))


class TestNoise:
    def test_spec_constructors(self):
        # the sigma given to build_model, read back off the built fields
        x = np.array([0.0, 0.0, 0.0, -60.0])
        det, _ = build_model("hh-det")
        assert not det.diffusion(0.0, x).any()
        add, _ = build_model("hh-additive", sigma=0.3)
        assert tuple(add.diffusion(0.0, x)) == (0.3, 0.3, 0.3)
        mul, _ = build_model("hh-logistic", sigma=(0.1, 0.2, 0.3))
        slopes = mul.diffusion_jacobian(0.0, x)[range(3), range(3), range(3)]
        assert tuple(slopes) == (0.1, 0.2, 0.3)

    def test_spec_validation(self):
        # one sigma check serves both noisy models
        for name in ("hh-additive", "hh-logistic"):
            for bad in ((0.1, 0.2), (0.1, 0.2, 0.3, 0.4), [[0.1, 0.2, 0.3]]):
                with pytest.raises(UsageError, match="one entry per gating"):
                    build_model(name, sigma=bad)
            with pytest.raises(UsageError, match="number or numbers"):
                build_model(name, sigma="abc")
            for bad in (0.0, -0.5, (0.1, -0.2, 0.3)):
                with pytest.raises(UsageError, match="positive"):
                    build_model(name, sigma=bad)
            for bad in (np.inf, np.nan, (0.1, np.inf, 0.2)):
                with pytest.raises(UsageError, match="finite"):
                    build_model(name, sigma=bad)
            # a 0-d array is a number
            x = np.array([0.2, 0.4, 0.6, -60.0])
            zero_d, _ = build_model(name, sigma=np.array(0.5))
            number, _ = build_model(name, sigma=0.5)
            assert np.array_equal(zero_d.diffusion(0.0, x),
                                  number.diffusion(0.0, x))

    def test_additive_diffusion_matrix(self):
        system, _ = build_model("hh-additive", sigma=(0.1, 0.2, 0.3))
        x = np.array([0.5, 0.5, 0.5, -60.0])
        expected = np.zeros((4, 3))
        expected[0, 0], expected[1, 1], expected[2, 2] = 0.1, 0.2, 0.3
        assert np.array_equal(system.diffusion(0.0, x), (0.1, 0.2, 0.3))
        assert np.array_equal(diffusion_batch(system, 0.0, [x]),
                              expected[None])

    def test_multiplicative_diffusion_vanishes_on_faces(self):
        system, _ = build_model("hh-logistic", sigma=0.5)
        for gates in ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (0.0, 1.0, 0.0)):
            x = np.array(gates + (-60.0,))
            assert np.array_equal(system.diffusion(0.0, x), np.zeros(3))
            assert np.array_equal(diffusion_batch(system, 0.0, [x]),
                                  np.zeros((1, 4, 3)))
        g_mid = system.diffusion(0.0, np.array([0.5, 0.5, 0.5, -60.0]))
        assert g_mid[0] == 0.5 * 0.25

    def test_voltage_row_is_always_zero(self):
        for name in ("hh-additive", "hh-logistic"):
            system, _ = build_model(name, sigma=0.4)
            pts = np.array([[0.2, 0.4, 0.6, -50.0], [0.8, 0.1, 0.9, 0.0]])
            g = diffusion_batch(system, 0.0, pts)
            assert np.array_equal(g[:, 3, :], np.zeros((2, 3)))

    def test_jacobian_matches_difference_quotient(self):
        system, _ = build_model("hh-logistic", sigma=0.5)
        x = np.array([0.3, 0.6, 0.9, -40.0])
        jac = system.diffusion_jacobian(0.0, x)
        assert jac.shape == (4, 3, 4)
        eps = 1e-7
        for j in range(4):
            shifted = x.copy()
            shifted[j] += eps
            approx = (diffusion_batch(system, 0.0, [shifted])[0]
                      - diffusion_batch(system, 0.0, [x])[0]) / eps
            assert np.allclose(jac[:, :, j], approx, atol=1e-6)


class TestModelRegistry:
    def test_registry_names(self):
        assert set(MODEL_REGISTRY) == {"hh-det", "hh-additive", "hh-logistic"}

    def test_build_model_defaults(self):
        system, info = build_model("hh-logistic")
        assert system.m == 4 and system.r == 3
        assert system.name == "hh-logistic"
        assert system.interpretation is Interpretation.ITO
        assert info.box.indices == (0, 1, 2)
        assert info.horizon == 100.0
        g = system.diffusion(0.0, np.array([0.5, 0.5, 0.5, -60.0]))
        assert g[0] == 0.5 * 0.25  # default sigma 0.5

    def test_each_model_carries_its_registry_name(self):
        for name in MODEL_REGISTRY:
            system, _ = build_model(name, sigma=0.1)
            assert system.name == name

    def test_hh_det_ignores_sigma(self):
        system, _ = build_model("hh-det", sigma=-1.0)
        x = np.array([0.5, 0.5, 0.5, -60.0])
        assert not system.diffusion(0.0, x).any()

    def test_build_model_unknown_name(self):
        with pytest.raises(UsageError, match="hh-additive"):
            build_model("hh-gaussian")

    def test_interpretation_passes_through(self):
        system, _ = build_model("hh-additive", sigma=0.1,
                                interpretation=Interpretation.STRATONOVICH)
        assert system.interpretation is Interpretation.STRATONOVICH

    def test_params_validation(self):
        with pytest.raises(UsageError):
            HHParams(c_m=0.0)
        with pytest.raises(UsageError):
            HHParams(g_na=-1.0)


class TestRestingState:
    def test_matches_independent_computation(self):
        v = -60.0
        alphas, betas = ref_rates(v)
        expected = [a / (a + b) for a, b in zip(alphas, betas)]
        got = resting_state(v)
        assert got.shape == (4,)
        assert got[3] == v
        assert np.allclose(got[:3], expected, rtol=1e-12)

    def test_is_drift_equilibrium_for_gates(self):
        system, _ = build_model("hh-det")
        x = resting_state(-60.0)
        f = system.drift(0.0, x)
        assert np.allclose(f[:3], 0.0, atol=1e-15)

    def test_metadata_start_state_inside_box(self):
        info = hh_metadata()
        for i, lo, hi in zip(info.box.indices, info.box.lower,
                             info.box.upper):
            assert lo <= info.x0[i] <= hi
        assert (info.x0[:3] > 0).all() and (info.x0[:3] < 1).all()
