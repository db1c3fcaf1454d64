"""Acceptance gate: one test per release criterion, run in order.

Each test prints a single summary line with the measured numbers, then
asserts.  The ensemble runs are shared through module-scoped fixtures so
the expensive 1000-path integrations happen once.
"""

import hashlib
import time
from dataclasses import replace

import numpy as np
import pytest
# criterion 1 times the checkers, not their one-off lazy scipy imports
import scipy.optimize  # noqa: F401
import scipy.stats  # noqa: F401

import sdeinvariance.ensemble as ensemble
from sdeinvariance import (Interpretation, JacobianMode, JacobianPolicy,
                           MODEL_REGISTRY, SdeSystem, SimConfig, TimeGrid,
                           Verdict, WienerGrid, build_model, check_box,
                           check_comparison, correction_batch, rate_alpha,
                           rate_beta, run_ensemble, simulate,
                           stratonovich_to_ito)
from sdeinvariance.core import drift_batch
from sdeinvariance.integrators import integrate_batch
from sdeinvariance.wiener import increments_for_step

from helpers import gbm_exact_ito, gbm_system

ENSEMBLE_GRID = TimeGrid(0.0, 50.0, 5000)  # T=50 at dt=0.01
ENSEMBLE_SEED = 0
N_PATHS = 1000

# Regression goldens for the seed-pinned ensembles, frozen at first run.
GOLDEN_ADDITIVE_FRACTION = 1.0
GOLDEN_ADDITIVE_NONFINITE = 976
GOLDEN_LOGISTIC_ITO_FRACTION = 0.0
GOLDEN_LOGISTIC_STRAT_FRACTION = 0.0
# sha256 of each ensemble's to_json(); the benchmark pins the same bytes
GOLDEN_STATS_SHA256 = {
    "additive":
        "a894af3258b9305fc487af785145ec1bda58451f52e65004c320895e10f577d8",
    "logistic_ito":
        "175c4a47b6f38a47cf187015294465473803259f576a42d00d80d57bb5a78130",
    "logistic_strat":
        "60bed219be0de4cb37a3112a2b958a9937d269db98e35b8f5bf08a1bae3d741d",
}


def announce(num, ok, detail):
    print(f"criterion {num}: {'pass' if ok else 'FAIL'} ({detail})")


def timed_ensemble(model, interpretation):
    system, info = build_model(model, sigma=0.5,
                               interpretation=interpretation)
    cfg = SimConfig(grid=ENSEMBLE_GRID, x0=tuple(info.x0),
                    seed=ENSEMBLE_SEED)
    start = time.perf_counter()
    stats = run_ensemble(system, cfg, N_PATHS, info.box)
    return stats, time.perf_counter() - start


@pytest.fixture(scope="module")
def additive_run():
    return timed_ensemble("hh-additive", Interpretation.ITO)


@pytest.fixture(scope="module")
def logistic_ito_run():
    return timed_ensemble("hh-logistic", Interpretation.ITO)


@pytest.fixture(scope="module")
def logistic_strat_run():
    return timed_ensemble("hh-logistic", Interpretation.STRATONOVICH)


def test_criterion_1_checker_verdicts_on_builtin_models():
    start = time.perf_counter()
    additive, info = build_model("hh-additive", sigma=0.5)
    additive_report = check_box(additive, info.box)
    logistic, _ = build_model("hh-logistic", sigma=0.5)
    logistic_report = check_box(logistic, info.box)
    elapsed = time.perf_counter() - start

    noisy_faces = sum(
        1 for face in additive_report.faces
        if any(w.kind == "diffusion_nonzero" for w in face.witnesses))
    worst_g = max(f.max_diffusion_abs for f in logistic_report.faces)
    ok = (additive_report.verdict is Verdict.VIOLATED
          and len(additive_report.faces) == 6 and noisy_faces == 6
          and logistic_report.verdict is Verdict.SATISFIED
          and worst_g <= 1e-12
          and elapsed < 1.0)
    announce(1, ok, f"additive violated on {noisy_faces}/6 faces, "
             f"logistic max |g| = {worst_g:.2e}, {elapsed:.2f}s")
    assert ok


def test_criterion_2_gate_face_drift_equals_the_rates():
    system, _ = build_model("hh-det")
    v = np.linspace(-100.0, 60.0, 4096)
    ok = True
    for gate in (1, 2, 3):
        states = np.full((v.size, 4), 0.5)
        states[:, 3] = v
        states[:, gate - 1] = 0.0
        at_zero = drift_batch(system, 0.0, states)[:, gate - 1]
        alpha = rate_alpha(gate, v)
        ok &= bool(np.array_equal(at_zero, alpha) and np.all(alpha > 0.0))
        states[:, gate - 1] = 1.0
        at_one = drift_batch(system, 0.0, states)[:, gate - 1]
        beta = rate_beta(gate, v)
        ok &= bool(np.array_equal(at_one, -beta) and np.all(-beta < 0.0))
    announce(2, ok, "drift equals +alpha at 0 and -beta at 1, exact, "
             "4096 voltages, all 3 gates")
    assert ok


def test_criterion_3_rate_point_values():
    exact = (rate_alpha(3, -60.0) == 0.07
             and rate_beta(1, -60.0) == 4.0
             and rate_beta(2, -60.0) == 0.125
             and rate_beta(3, -30.0) == 0.5)
    a1 = rate_alpha(1, -35.0)
    a2 = rate_alpha(2, -50.0)
    near = abs(a1 - 1.0) <= 1e-9 and abs(a2 - 0.1) <= 1e-9
    ok = exact and near
    announce(3, ok, f"four exact points, removable points give "
             f"{a1:.12f} and {a2:.12f}")
    assert ok


def test_criterion_4_correction_consistency_and_verdict_parity():
    system, info = build_model("hh-logistic", sigma=0.5)
    gates = np.linspace(0.05, 0.95, 10)
    g1, g2, g3 = np.meshgrid(gates, gates, gates, indexing="ij")
    interior = np.stack([g1.ravel(), g2.ravel(), g3.ravel()], axis=1)
    blocks = [np.column_stack([interior, np.full(len(interior), v)])
              for v in (-80.0, -60.0, -20.0)]
    states = np.concatenate(blocks)

    analytic = correction_batch(system, 0.0, states,
                                JacobianPolicy(JacobianMode.ANALYTIC))
    central = correction_batch(system, 0.0, states, JacobianPolicy())
    grid_ok = np.allclose(central, analytic, rtol=1e-6, atol=1e-9)

    face_worst = 0.0
    for i in (0, 1, 2):
        for pin in (0.0, 1.0):
            x = np.array([0.5, 0.5, 0.5, -60.0])
            x[i] = pin
            h = correction_batch(system, 0.0, [x],
                                 JacobianPolicy(JacobianMode.ANALYTIC))[0]
            face_worst = max(face_worst, float(np.abs(h).max()))
    faces_ok = face_worst <= 1e-8

    parity = []
    for name in sorted(MODEL_REGISTRY):
        strat, info = build_model(name, sigma=0.5,
                                  interpretation=Interpretation.STRATONOVICH)
        rewritten = stratonovich_to_ito(
            strat, JacobianPolicy(JacobianMode.ANALYTIC))
        same = (check_box(strat, info.box).verdict
                is check_box(rewritten, info.box).verdict)
        parity.append(same)
    parity_ok = all(parity)

    ok = grid_ok and faces_ok and parity_ok
    announce(4, ok, f"analytic vs central on 3000 states match: {grid_ok}, "
             f"max face |h| = {face_worst:.1e}, verdict parity on "
             f"{sum(parity)}/{len(parity)} models")
    assert ok


def test_criterion_5_strong_convergence_order_on_gbm():
    start = time.perf_counter()
    a, b, seed, n_paths = 0.5, 1.0, 77, 1000
    system = gbm_system(a, b)
    path_ids = np.arange(n_paths)
    x0 = np.ones((n_paths, 1))
    dts, errors = [], []
    for k in range(4, 11):
        grid = TimeGrid(0.0, 1.0, 2 ** k)
        w_end = np.zeros((n_paths, 1))

        def provider(step, _w=w_end, _dt=grid.dt):
            dw = increments_for_step(seed, path_ids, step, 1, _dt)
            _w += dw
            return dw

        states, dead = integrate_batch(system, grid, x0, provider)
        assert np.all(dead == -1)
        exact = gbm_exact_ito(1.0, a, b, 1.0, w_end[:, 0])
        dts.append(grid.dt)
        errors.append(np.mean(np.abs(states[:, -1, 0] - exact)))
    slope = np.polyfit(np.log2(dts), np.log2(errors), 1)[0]
    elapsed = time.perf_counter() - start
    ok = 0.35 <= slope <= 0.65 and elapsed < 30.0
    announce(5, ok, f"strong-error slope {slope:.4f} over dt 2^-4..2^-10, "
             f"{elapsed:.1f}s")
    assert ok


def test_criterion_6_schemes_coincide_for_additive_noise():
    system, info = build_model("hh-additive", sigma=0.1)
    grid = TimeGrid(0.0, 50.0, 5000)
    noise = WienerGrid.generate(0, 0, grid, system.r)
    cfg = SimConfig(grid=grid, x0=tuple(info.x0), seed=0)
    em = simulate(system, cfg, noise)
    heun = simulate(replace(system,
                            interpretation=Interpretation.STRATONOVICH),
                    cfg, noise)
    gap = float(np.abs(em.states - heun.states).max())
    ok = gap < 1e-10
    announce(6, ok, f"max coordinate gap {gap:.1e} over T=50 at dt=0.01")
    assert ok


def test_criterion_7_ensemble_phenomenology(additive_run, logistic_ito_run,
                                            logistic_strat_run):
    additive, t_add = additive_run
    log_ito, t_ito = logistic_ito_run
    log_strat, t_strat = logistic_strat_run
    total = t_add + t_ito + t_strat

    bands = (additive.violation_fraction > 0.5
             and log_ito.violation_fraction < 0.05
             and log_strat.violation_fraction < 0.05)
    goldens = (additive.violation_fraction == GOLDEN_ADDITIVE_FRACTION
               and len(additive.nonfinite_paths) == GOLDEN_ADDITIVE_NONFINITE
               and log_ito.violation_fraction == GOLDEN_LOGISTIC_ITO_FRACTION
               and log_strat.violation_fraction
               == GOLDEN_LOGISTIC_STRAT_FRACTION)
    digests = {name: hashlib.sha256(stats.to_json().encode()).hexdigest()
               for name, stats in (("additive", additive),
                                   ("logistic_ito", log_ito),
                                   ("logistic_strat", log_strat))}
    ok = (bands and goldens and digests == GOLDEN_STATS_SHA256
          and total < 120.0)
    announce(7, ok, f"fractions {additive.violation_fraction:.3f} / "
             f"{log_ito.violation_fraction:.3f} / "
             f"{log_strat.violation_fraction:.3f}, "
             f"{len(additive.nonfinite_paths)} additive paths non-finite, "
             f"stats digests "
             f"{'match' if digests == GOLDEN_STATS_SHA256 else 'differ'}, "
             f"{total:.0f}s")
    assert ok


def test_criterion_8_block_width_is_invisible_in_the_stats(additive_run,
                                                           monkeypatch):
    default, _ = additive_run
    monkeypatch.setattr(ensemble, "_BLOCK_BYTES", 0)
    one_step, _ = timed_ensemble("hh-additive", Interpretation.ITO)
    ok = default.to_json() == one_step.to_json()
    announce(8, ok, "default-block and 1-step-block stats JSON bitwise "
             "equal")
    assert ok


def test_criterion_9_comparison_checker_examples():
    def decay(t, x):
        return -np.asarray(x, dtype=float)

    def scaled(t, x):
        return (0.3 * np.asarray(x, dtype=float))[..., None]

    def coupled_drift(t, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        out[..., 0] = x[..., 1]
        return out

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

    scalar = SdeSystem(m=1, r=1, drift=decay, diffusion=scaled,
                       vectorized=True)
    identical = check_comparison(scalar, scalar, [0]).verdict

    def pair(diffusion):
        return SdeSystem(m=2, r=1, drift=coupled_drift, diffusion=diffusion,
                         vectorized=True)

    monotone = check_comparison(pair(own_coordinate_diffusion),
                                pair(own_coordinate_diffusion),
                                [0, 1]).verdict
    mismatched = check_comparison(pair(cross_coordinate_diffusion),
                                  pair(cross_coordinate_diffusion),
                                  [0, 1]).verdict
    ok = (identical is Verdict.SATISFIED and monotone is Verdict.SATISFIED
          and mismatched is Verdict.VIOLATED)
    announce(9, ok, f"identical {identical.value}, coupled "
             f"{monotone.value}, cross-diffusion {mismatched.value}")
    assert ok
