from dataclasses import replace

import numpy as np
import pytest

from sdeinvariance import (Interpretation, JacobianMode,
                           ModelEvaluationError, SdeSystem, UsageError,
                           build_model, conversion, correction_batch,
                           ito_to_stratonovich, stratonovich_to_ito)
from sdeinvariance.core import diffusion_batch, jacobian_batch
from helpers import gbm_system

ANALYTIC = JacobianMode.ANALYTIC
CENTRAL = JacobianMode.CENTRAL_DIFFERENCE


def logistic_correction_by_hand(sigma, gates):
    """h for diagonal noise sigma_i x_i (1 - x_i), from the closed form.

    Each diffusion column k only involves coordinate k, so the chain
    collapses to h_i = g_ii * d g_ii / d x_i.
    """
    sigma = np.asarray(sigma)
    gates = np.asarray(gates)
    g = sigma * gates * (1.0 - gates)
    dg = sigma * (1.0 - 2.0 * gates)
    return g * dg


class TestCorrection:
    def test_gbm_analytic_value(self):
        # g = b x, dg/dx = b, so h = b^2 x
        system = gbm_system(a=0.5, b=0.7)
        for x in (0.5, 1.0, 3.0):
            h = correction_batch(system, 0.0, [[x]], ANALYTIC)[0]
            assert h[0] == pytest.approx(0.7 ** 2 * x, rel=1e-14)

    def test_logistic_analytic_matches_hand_formula(self):
        sigma = (0.5, 0.3, 0.2)
        system, _ = build_model("hh-logistic", sigma=sigma)
        for gates in ([0.1, 0.5, 0.9], [0.25, 0.75, 0.5]):
            x = np.array(gates + [-60.0])
            h = correction_batch(system, 0.0, [x], ANALYTIC)[0]
            expected = logistic_correction_by_hand(sigma, gates)
            assert np.allclose(h[:3], expected, rtol=1e-13)
            assert h[3] == 0.0

    def test_central_difference_agrees_with_analytic(self):
        system, _ = build_model("hh-logistic", sigma=0.5)
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = np.append(rng.uniform(0.05, 0.95, 3), rng.uniform(-80, -20))
            ha = correction_batch(system, 0.0, [x], ANALYTIC)[0]
            hc = correction_batch(system, 0.0, [x], CENTRAL)[0]
            assert np.allclose(hc, ha, rtol=1e-6, atol=1e-9)

    def test_additive_noise_has_zero_correction(self):
        system, _ = build_model("hh-additive", sigma=0.5)
        x = np.array([0.3, 0.4, 0.5, -55.0])
        assert np.array_equal(correction_batch(system, 0.0, [x], ANALYTIC),
                              np.zeros((1, 4)))
        assert np.allclose(correction_batch(system, 0.0, [x], CENTRAL), 0.0,
                           atol=1e-12)

    def test_state_shape_validated(self):
        system = gbm_system(a=0.1, b=0.2)
        # the diffusion of a two-wide state comes back the wrong shape
        with pytest.raises(UsageError):
            correction_batch(system, 0.0, [[1.0, 2.0]], ANALYTIC)

    def test_analytic_needs_jacobian(self):
        system = SdeSystem(m=1, r=1, drift=lambda t, x: x,
                           diffusion=lambda t, x: np.ones((1, 1)))
        with pytest.raises(UsageError):
            correction_batch(system, 0.0, [[1.0]], ANALYTIC)

    def test_nonfinite_jacobian_reported_with_index(self):
        def sqrt_diffusion(t, x):
            with np.errstate(invalid="ignore"):
                return np.sqrt(np.asarray(x, dtype=float))[..., None]

        system = SdeSystem(m=1, r=1, drift=lambda t, x: x,
                           diffusion=sqrt_diffusion)
        # central difference at 0 evaluates sqrt of a negative shift
        with pytest.raises(ModelEvaluationError):
            correction_batch(system, 0.0, [[0.0]], CENTRAL)


def mixing_system(m=3, r=2):
    """Vectorized, non-diagonal: g[i, k] = sum_j W[i, k, j] sin(x_j), with
    its analytic Jacobian W[i, k, j] cos(x_j); rows never mix."""
    weights = np.random.default_rng(9).uniform(-1.0, 1.0, (m, r, m))

    def diffusion(t, x):
        x = np.asarray(x, dtype=float)
        return (weights * np.sin(x)[..., None, None, :]).sum(axis=-1)

    def jacobian(t, x):
        x = np.asarray(x, dtype=float)
        return weights * np.cos(x)[..., None, None, :]

    return SdeSystem(m=m, r=r, drift=lambda t, x: np.zeros_like(x),
                     diffusion=diffusion, diffusion_jacobian=jacobian,
                     vectorized=True, name="mixing")


class TestCorrectionBlocks:
    """correction_batch works in row blocks and gives the bits of one
    whole-batch dense einsum, at every batch size around the block."""

    system = mixing_system()
    block = conversion._BLOCK_BYTES // (8 * 3 * 2 * 3)
    states = np.random.default_rng(10).uniform(-3.0, 3.0, (3 * block + 2, 3))

    # n = blocks * block + extra: 1, block - 1, block, block + 1 (whose
    # last row joins the block before it) and 3 * block + 2
    @pytest.mark.parametrize("mode", [ANALYTIC, CENTRAL])
    @pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0),
                                               (1, 1), (3, 2)])
    def test_bits_match_the_whole_batch(self, mode, blocks, extra):
        states = self.states[:blocks * self.block + extra]
        jac = (jacobian_batch(self.system, 0.5, states) if mode is ANALYTIC
               else conversion._fd_jacobian_batch(self.system, 0.5, states))
        whole = np.einsum("nikj,njk->ni", jac,
                          diffusion_batch(self.system, 0.5, states))
        h = correction_batch(self.system, 0.5, states, mode)
        assert h.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("mode, index", [(ANALYTIC, (0, 0, 1)),
                                             (CENTRAL, (0, 0, 0))])
    def test_nonfinite_entry_in_the_second_block_names_its_row(self, mode,
                                                               index):
        states = self.states.copy()
        row = self.block + 3
        states[row, 1] = np.inf
        states[2 * self.block + 1, 0] = np.inf  # a later block's
        with np.errstate(invalid="ignore"):
            with pytest.raises(ModelEvaluationError) as err:
                correction_batch(self.system, 0.5, states, mode)
        assert err.value.x == tuple(states[row])
        assert err.value.index == index
        assert str(err.value) == (f"diffusion jacobian entry {index} "
                                  "is not finite at t=0.5")


class TestRewrites:
    def test_stratonovich_to_ito_shifts_drift_up(self):
        strat = gbm_system(a=0.5, b=1.0,
                           interpretation=Interpretation.STRATONOVICH)
        ito = stratonovich_to_ito(strat, ANALYTIC)
        assert ito.interpretation is Interpretation.ITO
        assert ito.name.endswith("-as-ito")
        x = np.array([2.0])
        # f + h/2 = a x + b^2 x / 2 = 1 + 1
        assert ito.drift(0.0, x)[0] == pytest.approx(2.0, rel=1e-13)
        assert np.array_equal(ito.diffusion(0.0, x),
                              strat.diffusion(0.0, x))

    def test_ito_to_stratonovich_shifts_drift_down(self):
        ito = gbm_system(a=0.5, b=1.0)
        strat = ito_to_stratonovich(ito, ANALYTIC)
        assert strat.interpretation is Interpretation.STRATONOVICH
        x = np.array([2.0])
        assert strat.drift(0.0, x)[0] == pytest.approx(0.5 * 2.0 - 1.0,
                                                       rel=1e-13)

    def test_round_trip_recovers_drift(self):
        ito = gbm_system(a=0.3, b=0.8)
        back = stratonovich_to_ito(ito_to_stratonovich(ito, ANALYTIC),
                                   ANALYTIC)
        for x in ([0.5], [1.0], [4.0]):
            x = np.array(x)
            assert back.drift(0.0, x)[0] == pytest.approx(
                ito.drift(0.0, x)[0], rel=1e-12)

    def test_interpretation_tag_enforced(self):
        ito = gbm_system(a=0.1, b=0.2)
        with pytest.raises(UsageError) as exc:
            stratonovich_to_ito(ito)
        assert str(exc.value) == ("stratonovich_to_ito expects a "
                                  "Stratonovich system")
        strat = gbm_system(a=0.1, b=0.2,
                           interpretation=Interpretation.STRATONOVICH)
        with pytest.raises(UsageError) as exc:
            ito_to_stratonovich(strat)
        assert str(exc.value) == "ito_to_stratonovich expects an Ito system"

    def test_rewritten_drift_accepts_batches(self):
        strat, _ = build_model("hh-logistic", sigma=0.5,
                               interpretation=Interpretation.STRATONOVICH)
        ito = stratonovich_to_ito(strat, ANALYTIC)
        pts = np.array([[0.2, 0.4, 0.6, -60.0], [0.5, 0.5, 0.5, -40.0]])
        batch = ito.drift(0.0, pts)
        assert batch.shape == (2, 4)
        for k, row in enumerate(pts):
            assert np.allclose(batch[k], ito.drift(0.0, row), rtol=1e-14)

    @pytest.mark.parametrize("mode", [ANALYTIC, CENTRAL])
    def test_single_states_match_the_vectorized_batch(self, mode):
        strat, _ = build_model("hh-logistic", sigma=0.5,
                               interpretation=Interpretation.STRATONOVICH)
        assert strat.vectorized
        batch_form = stratonovich_to_ito(strat, mode)
        row_form = stratonovich_to_ito(replace(strat, vectorized=False), mode)
        pts = np.array([[0.2, 0.4, 0.6, -60.0], [0.5, 0.5, 0.5, -40.0],
                        [0.05, 0.9, 0.3, 10.0]])
        batch = batch_form.drift(0.0, pts)
        for k, row in enumerate(pts):
            assert row_form.drift(0.0, row).tobytes() == batch[k].tobytes()


def _counted_gbm(with_jacobian, calls, **kwargs):
    """gbm_system whose diffusion and Jacobian count their calls; the
    Jacobian dropped when with_jacobian is False."""
    system = gbm_system(a=0.5, b=0.7, **kwargs)

    def counted(name, fn):
        def wrapped(t, x):
            calls[name] += 1
            return fn(t, x)
        return wrapped

    jacobian = (counted("jacobian", system.diffusion_jacobian)
                if with_jacobian else None)
    return replace(system, diffusion=counted("diffusion", system.diffusion),
                   diffusion_jacobian=jacobian)


class TestDefaultMode:
    """With no mode, the Jacobian is analytic exactly when the system
    has one, else central differences."""

    @pytest.mark.parametrize("with_jacobian", [True, False])
    def test_for_system(self, with_jacobian):
        system = _counted_gbm(with_jacobian, {})
        assert JacobianMode.for_system(system) is (
            ANALYTIC if with_jacobian else CENTRAL)

    @pytest.mark.parametrize("with_jacobian", [True, False])
    def test_correction_batch(self, with_jacobian):
        calls = {"diffusion": 0, "jacobian": 0}
        system = _counted_gbm(with_jacobian, calls)
        h = correction_batch(system, 0.0, [[2.0]])
        # central differences evaluate g at x +- delta, then at x
        assert calls == ({"diffusion": 1, "jacobian": 1} if with_jacobian
                         else {"diffusion": 3, "jacobian": 0})
        explicit = correction_batch(system, 0.0, [[2.0]],
                                    ANALYTIC if with_jacobian else CENTRAL)
        assert h.tobytes() == explicit.tobytes()

    @pytest.mark.parametrize("with_jacobian", [True, False])
    @pytest.mark.parametrize("rewrite, tag", [
        (stratonovich_to_ito, Interpretation.STRATONOVICH),
        (ito_to_stratonovich, Interpretation.ITO)])
    def test_rewrites(self, with_jacobian, rewrite, tag):
        calls = {"diffusion": 0, "jacobian": 0}
        system = _counted_gbm(with_jacobian, calls, interpretation=tag)
        x = np.array([2.0])
        drift = rewrite(system).drift(0.0, x)
        assert calls["jacobian"] == (1 if with_jacobian else 0)
        explicit = rewrite(system, ANALYTIC if with_jacobian else CENTRAL)
        assert drift.tobytes() == explicit.drift(0.0, x).tobytes()

    def test_resolved_once_per_rewrite(self, monkeypatch):
        picked = []
        for_system = JacobianMode.for_system

        def counted(system):
            picked.append(system)
            return for_system(system)

        monkeypatch.setattr(JacobianMode, "for_system", counted)
        strat = gbm_system(a=0.5, b=0.7,
                           interpretation=Interpretation.STRATONOVICH)
        ito = stratonovich_to_ito(strat)
        for x in ([0.5], [1.0], [[1.0], [3.0]]):
            ito.drift(0.0, np.array(x))
        assert picked == [strat]

    def test_old_spelling_returns_the_mode(self):
        import sdeinvariance
        assert sdeinvariance.JacobianPolicy(ANALYTIC) is ANALYTIC
        assert "JacobianPolicy" not in sdeinvariance.__all__
