import csv
import hashlib
import io
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sdeinvariance import (Box, CheckConfig, IntegrationError,
                           Interpretation, SdeSystem, SimConfig, TimeGrid,
                           Trajectory, UsageError, WienerGrid, build_model,
                           check_box, run_ensemble, simulate,
                           stratonovich_to_ito, write_trajectory_csv)
from sdeinvariance.conversion import (JacobianMode, JacobianPolicy,
                                      correction_batch)
from sdeinvariance.core import diffusion_batch
from sdeinvariance.ensemble import integrate_paths
from sdeinvariance.integrators import integrate_batch, march
from sdeinvariance.wiener import increments_for_step
from helpers import gbm_exact_ito, gbm_exact_strat, gbm_system

ANALYTIC = JacobianPolicy(JacobianMode.ANALYTIC)


def decay_system(lam: float) -> SdeSystem:
    def drift(t, x):
        return -lam * np.asarray(x, dtype=float)

    def diffusion(t, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (1, 1))

    return SdeSystem(m=1, r=1, drift=drift, diffusion=diffusion,
                     vectorized=True, name="decay")


def zero_noise(grid: TimeGrid, r: int = 1) -> WienerGrid:
    return WienerGrid(seed=0, path_id=0, grid=grid,
                      increments=np.zeros((grid.n_steps, r)))


def csv_text(traj: Trajectory, coord_names=None) -> str:
    buf = io.StringIO()
    write_trajectory_csv(traj, buf, coord_names)
    return buf.getvalue()


def zero_increments(n_paths: int, r: int):
    def incr(step: int):
        return np.zeros((n_paths, r))

    return incr


class TestSchemeResolution:
    def test_stats_name_the_scheme_of_each_reading(self):
        cfg = SimConfig(grid=TimeGrid(0.0, 1.0, 10), x0=(1.0,))
        for reading, scheme in ((Interpretation.ITO, "euler-maruyama"),
                                (Interpretation.STRATONOVICH, "euler-heun")):
            system = gbm_system(0.1, 0.2, interpretation=reading)
            assert run_ensemble(system, cfg, 4, None).scheme == scheme

    def test_sim_config_validation(self):
        grid = TimeGrid(0.0, 1.0, 10)
        with pytest.raises(UsageError):
            SimConfig(grid=grid, x0=())
        with pytest.raises(UsageError):
            SimConfig(grid=grid, x0=(np.inf,))


class TestDeterministicAccuracy:
    def test_euler_matches_closed_form_recurrence(self):
        lam, n = 2.0, 50
        grid = TimeGrid(0.0, 1.0, n)
        cfg = SimConfig(grid=grid, x0=(1.0,))
        traj = simulate(decay_system(lam), cfg, zero_noise(grid))
        # forward Euler on linear decay is exactly x -> x (1 - lam dt)
        factor = 1.0 - lam * grid.dt
        expected = 1.0
        for k in range(1, n + 1):
            expected = expected * factor
            assert traj.states[k, 0] == pytest.approx(expected, rel=1e-15)

    def test_euler_error_bound_against_exponential(self):
        lam = 1.0
        for n in (100, 1000):
            grid = TimeGrid(0.0, 1.0, n)
            cfg = SimConfig(grid=grid, x0=(1.0,))
            traj = simulate(decay_system(lam), cfg, zero_noise(grid))
            err = abs(traj.end[0] - np.exp(-lam))
            assert err < grid.dt  # first order, constant ~ e^-1 / 2

    def test_noise_free_wiener_equals_deterministic(self):
        # with dW = 0 either scheme is forward Euler on the drift alone,
        # though g is not zero
        system = gbm_system(-0.7, 0.4)
        grid = TimeGrid(0.0, 2.0, 40)
        cfg = SimConfig(grid=grid, x0=(3.0,))
        euler = [3.0]
        for _ in range(40):
            euler.append(euler[-1] + (-0.7 * euler[-1]) * grid.dt)
        for reading in Interpretation:
            traj = simulate(replace(system, interpretation=reading), cfg,
                            zero_noise(grid))
            assert np.array_equal(traj.states[:, 0], euler)


class TestStrongAccuracy:
    def test_em_error_decreases_on_gbm(self):
        a, b, x0 = 0.5, 1.0, 1.0
        system = gbm_system(a, b)
        errors = []
        for n in (64, 512):
            grid = TimeGrid(0.0, 1.0, n)
            ids = np.arange(400, dtype=np.uint64)
            w_t = np.zeros(400)

            def incr(step, dt=grid.dt, acc=w_t):
                dw = increments_for_step(13, ids, step, 1, dt)
                acc += dw[:, 0]
                return dw

            states, dead = integrate_batch(system, grid,
                                           np.full((400, 1), x0), incr)
            assert (dead < 0).all()
            exact = gbm_exact_ito(x0, a, b, 1.0, w_t)
            errors.append(np.mean(np.abs(states[:, -1, 0] - exact)))
        assert errors[1] < errors[0] / 2

    def test_heun_error_decreases_on_stratonovich_gbm(self):
        # drift-free case: the Stratonovich solution is x0 exp(b W_t)
        b, x0 = 0.8, 1.0
        system = gbm_system(0.0, b,
                            interpretation=Interpretation.STRATONOVICH)
        errors = []
        for n in (64, 512):
            grid = TimeGrid(0.0, 1.0, n)
            ids = np.arange(400, dtype=np.uint64)
            w_t = np.zeros(400)

            def incr(step, dt=grid.dt, acc=w_t):
                dw = increments_for_step(29, ids, step, 1, dt)
                acc += dw[:, 0]
                return dw

            states, dead = integrate_batch(system, grid,
                                           np.full((400, 1), x0), incr)
            assert (dead < 0).all()
            exact = gbm_exact_strat(x0, 0.0, b, 1.0, w_t)
            rms = np.sqrt(np.mean((states[:, -1, 0] - exact) ** 2))
            errors.append(rms)
        assert errors[1] < errors[0] / 1.5

    def test_heun_on_strat_approaches_em_on_rewritten_ito(self):
        # the two readings describe the same process; refining the grid
        # must shrink the gap between their natural schemes
        strat = gbm_system(0.2, 0.5,
                           interpretation=Interpretation.STRATONOVICH)
        ito = stratonovich_to_ito(strat, ANALYTIC)
        gaps = []
        for n in (50, 400):
            grid = TimeGrid(0.0, 1.0, n)
            ids = np.arange(200, dtype=np.uint64)

            def incr(step, dt=grid.dt):
                return increments_for_step(5, ids, step, 1, dt)

            x0 = np.ones((200, 1))
            heun, _ = integrate_batch(strat, grid, x0, incr)
            em, _ = integrate_batch(ito, grid, x0, incr)
            gaps.append(np.sqrt(np.mean(
                (heun[:, -1, 0] - em[:, -1, 0]) ** 2)))
        assert gaps[1] < gaps[0]

    def test_schemes_coincide_for_additive_noise(self):
        system, info = build_model("hh-additive", sigma=0.1)
        grid = TimeGrid(0.0, 5.0, 500)
        noise = WienerGrid.generate(0, 0, grid, 3)
        cfg = SimConfig(grid=grid, x0=tuple(info.x0))
        em = simulate(system, cfg, noise)
        heun = simulate(replace(system,
                                interpretation=Interpretation.STRATONOVICH),
                        cfg, noise)
        assert np.array_equal(em.states, heun.states)


class TestSimulateValidation:
    def test_grid_and_noise_must_match(self):
        system = gbm_system(0.1, 0.2)
        grid = TimeGrid(0.0, 1.0, 10)
        other = TimeGrid(0.0, 1.0, 20)
        cfg = SimConfig(grid=grid, x0=(1.0,))
        with pytest.raises(UsageError):
            simulate(system, cfg, WienerGrid.generate(0, 0, other, 1))
        with pytest.raises(UsageError):
            simulate(system, cfg, WienerGrid.generate(0, 0, grid, 2))

    def test_x0_length_checked(self):
        system = gbm_system(0.1, 0.2)
        grid = TimeGrid(0.0, 1.0, 10)
        cfg = SimConfig(grid=grid, x0=(1.0, 2.0))
        with pytest.raises(UsageError):
            simulate(system, cfg, WienerGrid.generate(0, 0, grid, 1))

    def test_trajectory_carries_path_id(self):
        system = gbm_system(0.1, 0.2)
        grid = TimeGrid(0.0, 1.0, 10)
        cfg = SimConfig(grid=grid, x0=(1.0,))
        traj = simulate(system, cfg, WienerGrid.generate(3, 9, grid, 1))
        assert traj.path_id == 9


class TestFailureHandling:
    def cubic(self):
        def drift(t, x):
            x = np.asarray(x, dtype=float)
            return x ** 3

        def diffusion(t, x):
            x = np.asarray(x, dtype=float)
            return np.zeros(x.shape[:-1] + (1, 1))

        return SdeSystem(m=1, r=1, drift=drift, diffusion=diffusion,
                         vectorized=True, name="cubic")

    def test_blow_up_raises_with_location(self):
        grid = TimeGrid(0.0, 10.0, 100)
        cfg = SimConfig(grid=grid, x0=(10.0,))
        with pytest.raises(IntegrationError) as err:
            simulate(self.cubic(), cfg, zero_noise(grid))
        assert err.value.step >= 1
        assert err.value.t == pytest.approx(err.value.step * grid.dt)
        assert np.isfinite(err.value.last_state).all()

    def test_freeze_keeps_other_paths_alive(self):
        grid = TimeGrid(0.0, 10.0, 100)
        x0 = np.array([[0.1], [10.0]])
        states, dead = integrate_batch(self.cubic(), grid, x0,
                                       zero_increments(2, 1))
        assert dead[0] == -1
        assert dead[1] >= 1
        assert np.isfinite(states).all()
        frozen = states[1, dead[1] - 1, 0]
        assert (states[1, dead[1]:, 0] == frozen).all()
        # the surviving path is unaffected by its dead neighbour
        alone, _ = integrate_batch(self.cubic(), grid, x0[:1],
                                   zero_increments(1, 1))
        assert np.array_equal(states[0], alone[0])

    def test_march_scopes_error_state_to_each_step(self):
        # the blow-up overflows inside the steps, yet the caller's
        # floating-point error settings hold while march is suspended
        grid = TimeGrid(0.0, 10.0, 100)
        callers = np.geterr()
        steps = march(self.cubic(), grid, np.array([[10.0]]),
                      zero_increments(1, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n, x, dead in steps:
                assert np.geterr() == callers
        assert n == grid.n_steps
        assert dead[0] >= 1

    def test_deterministic_blow_up(self):
        grid = TimeGrid(0.0, 10.0, 100)
        cfg = SimConfig(grid=grid, x0=(10.0,))
        with pytest.raises(IntegrationError):
            simulate(self.cubic(), cfg, zero_noise(grid))

    # x0 -> (message, step, t, hex bytes of the last finite state)
    BLOW_UPS = {
        10.0: ("state became non-finite at step 6 (t=0.6)", 6,
               0.6000000000000001, "1cac9c5fafc8f559"),
        1.5: ("state became non-finite at step 10 (t=1)", 10, 1.0,
              "84974878b9301c5a"),
        0.9: ("state became non-finite at step 15 (t=1.5)", 15, 1.5,
              "6b9d6a4f431a7166"),
    }

    # with dW = 0 Euler-Heun is forward Euler too, so the pins hold for
    # either reading
    @pytest.mark.parametrize("run", ["simulate", "simulate-stratonovich"])
    @pytest.mark.parametrize("x0", sorted(BLOW_UPS))
    def test_blow_up_error_is_pinned(self, x0, run):
        grid = TimeGrid(0.0, 10.0, 100)
        cfg = SimConfig(grid=grid, x0=(x0,))
        system = self.cubic()
        if run == "simulate-stratonovich":
            system = replace(system,
                             interpretation=Interpretation.STRATONOVICH)
        with pytest.raises(IntegrationError) as err:
            simulate(system, cfg, zero_noise(grid))
        message, step, t, state_hex = self.BLOW_UPS[x0]
        assert str(err.value) == message
        assert err.value.step == step
        assert err.value.t == t
        assert np.array(err.value.last_state).tobytes().hex() == state_hex

    # sha256 of the states of the three BLOW_UPS paths in one batch, every
    # path frozen at its last finite state to the end of the grid
    ALL_DEAD_SHA256 = ("61154aea014ae61f4f57c959531e464e"
                       "81d4345bd9fc303f0df5808f64e444d2")

    def test_batch_stops_once_every_path_is_dead(self):
        grid = TimeGrid(0.0, 10.0, 100)
        x0 = np.array(sorted(self.BLOW_UPS))[:, None]
        drawn = []

        def provider(step):
            drawn.append(step)
            return np.zeros((3, 1))

        states, dead = integrate_batch(self.cubic(), grid, x0,
                                       increments_for=provider)
        assert (hashlib.sha256(states.tobytes()).hexdigest()
                == self.ALL_DEAD_SHA256)
        assert dead.tolist() == [15, 10, 6]
        # no step is drawn after the last path died at step 15
        assert drawn == list(range(15))

    def test_march_yields_one_frozen_array_once_all_are_dead(self):
        grid = TimeGrid(0.0, 10.0, 100)
        x0 = np.array(sorted(self.BLOW_UPS))[:, None]
        frames = [x for _, x, _ in march(self.cubic(), grid, x0,
                                         zero_increments(3, 1))]
        assert len(frames) == 101
        # fresh arrays up to the last death at step 15, then one array
        assert len({id(x) for x in frames[:16]}) == 16
        assert all(x is frames[15] for x in frames[15:])

    def test_no_paths_take_no_steps(self):
        def fail(*args):
            raise AssertionError("called with no paths")

        system = SdeSystem(m=2, r=1, drift=fail, diffusion=fail,
                           vectorized=True)
        grid = TimeGrid(0.0, 1.0, 10)
        steps = list(march(system, grid, np.empty((0, 2)), fail))
        assert [n for n, _, _ in steps] == list(range(11))
        assert all(x.shape == (0, 2) for _, x, _ in steps)
        states, dead = integrate_batch(system, grid, np.empty((0, 2)),
                                       increments_for=fail)
        assert states.shape == (0, 11, 2)
        assert dead.shape == (0,)


class TestBatchShapes:
    """march checks x0 and the first increments for every caller."""

    # hh-additive has m = 4 and r = 3
    @pytest.mark.parametrize("x0, incr", [
        (np.ones((2, 3)), zero_increments(2, 3)),  # x0 of the wrong width
        (np.ones(4), zero_increments(2, 3)),  # a flat x0
        (np.ones((2, 4)), zero_increments(2, 2)),  # increments too narrow
        (np.ones((2, 4)), zero_increments(3, 3)),  # one path too many
    ], ids=["x0-width", "x0-flat", "increments-width", "increments-paths"])
    def test_wrong_shapes_are_usage_errors(self, x0, incr):
        system, _ = build_model("hh-additive", sigma=0.1)
        grid = TimeGrid(0.0, 1.0, 10)
        with pytest.raises(UsageError):
            integrate_batch(system, grid, x0, incr)

    def test_batch_takes_no_fifth_argument(self):
        grid = TimeGrid(0.0, 1.0, 10)
        for run in (march, integrate_batch):
            with pytest.raises(TypeError):
                run(decay_system(1.0), grid, np.ones((1, 1)),
                    zero_increments(1, 1), "freeze")


def dense_twin(system: SdeSystem) -> SdeSystem:
    """The same vectorized system with its declared diagonal expanded into
    the (n, m, r) matrix, so march takes the dense contraction."""
    return replace(system, diffusion=partial(diffusion_batch, system),
                   diagonal_noise=False)


class TestDiagonalNoise:
    """A declared-diagonal g gives the bits of the dense contraction."""

    @pytest.mark.parametrize("reading", list(Interpretation))
    @pytest.mark.parametrize("name", ["hh-det", "hh-additive", "hh-logistic"])
    def test_hh_models_match_the_dense_contraction(self, name, reading):
        system, info = build_model(name, sigma=0.5, interpretation=reading)
        assert system.diagonal_noise
        dense = dense_twin(system)
        died = 0
        for n_steps in (2000, 400):  # at dt = 0.05 noisy paths blow up
            cfg = SimConfig(grid=TimeGrid(0.0, 20.0, n_steps),
                            x0=tuple(info.x0), seed=3)
            states, dead = integrate_paths(system, cfg, range(32))
            want, want_dead = integrate_paths(dense, cfg, range(32))
            assert states.tobytes() == want.tobytes()
            assert dead.tobytes() == want_dead.tobytes()
            died += int((dead >= 0).sum())
        # the noisy models exercise the freeze path
        assert (died > 0) == (name != "hh-det")

    @staticmethod
    def square(dense: bool = False, vectorized: bool = True) -> SdeSystem:
        """m = r = 2, declared diagonal; with dense, the diffusion returns
        the whole (2, 2) matrix against its declaration.  The zero
        Jacobian only lets the analytic correction reach the diffusion."""
        def drift(t, x):
            return -np.asarray(x, dtype=float)

        def diffusion(t, x):
            x = np.asarray(x, dtype=float)
            g = np.stack([np.sin(x[..., 1]), 0.3 * x[..., 0]], axis=-1)
            return g[..., None] * np.eye(2) if dense else g

        return SdeSystem(m=2, r=2, drift=drift, diffusion=diffusion,
                         vectorized=vectorized, diagonal_noise=True,
                         diffusion_jacobian=lambda t, x: np.zeros(
                             np.shape(x)[:-1] + (2, 2, 2)))

    @pytest.mark.parametrize("reading", list(Interpretation))
    def test_square_system_matches_the_dense_contraction(self, reading):
        grid = TimeGrid(0.0, 1.0, 50)
        ids = np.arange(4, dtype=np.uint64)
        x0 = np.tile([0.7, -1.2], (4, 1))

        def incr(step):
            return increments_for_step(8, ids, step, 2, grid.dt)

        system = replace(self.square(), interpretation=reading)
        states, _ = integrate_batch(system, grid, x0, incr)
        want, _ = integrate_batch(dense_twin(system), grid, x0, incr)
        assert states.tobytes() == want.tobytes()

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_dense_shape_is_usage_error_at_first_evaluation(self,
                                                            vectorized):
        system = self.square(dense=True, vectorized=vectorized)
        calls = []

        def counted(t, x):
            calls.append(t)
            return system.diffusion(t, x)

        counting = replace(system, diffusion=counted)
        expected = (r"expected \(3, 2\)" if vectorized
                    else r"expected \(2,\)")
        box = Box.unit((0, 1))
        runs = (
            lambda: integrate_batch(counting, TimeGrid(0.0, 1.0, 10),
                                    np.ones((3, 2)), zero_increments(3, 2)),
            lambda: check_box(counting, box, CheckConfig(n_face_samples=3)),
            lambda: correction_batch(counting, 0.0, np.ones((3, 2)),
                                     ANALYTIC),
            lambda: correction_batch(counting, 0.0, np.ones((3, 2)),
                                     JacobianPolicy()),
        )
        for run in runs:
            calls.clear()
            with pytest.raises(UsageError, match="diffusion returned "
                               "shape .*" + expected):
                run()
            assert len(calls) == 1


class TestPinnedDenseStates:
    """sha256 of the states of coupled systems whose noise is not
    diagonal, so each reading takes its dense g dW contraction.  At
    r = 2 any order of the two products gives the same sum; at r = 3
    the order is pinned, so the contraction must not depend on the
    layout of g or of the increments."""

    DIGESTS = {
        "ito": ("e930a794073982fee99b51d2bd52bb6e"
                "480b02f6d26e472a3fa557712301e330"),
        "stratonovich": ("c183dbf4c6c0d475778437c87fefb7e5"
                         "5fda27c003cf90e5d3b8679a814edbfa"),
    }
    # (integrate_batch states, run_ensemble stats JSON) at m = r = 3
    DIGESTS_3 = {
        "ito": ("b7197c97f020667d5f9acbaac82874aa"
                "d46eb9d153f0cbac8476ad580c8cf217",
                "d53374284401d585e669e593d7b0f729"
                "56e49f04bc49919c416b6a7148d58f62"),
        "stratonovich": ("e2125b81b32daf21ea00ff135957e22d"
                         "f83262dab54610f1f67b1c0a41627471",
                         "7800413cf034edecf20e90cf03cba22b"
                         "99bbce82402ed57cde5fa2c8d807016e"),
    }

    @staticmethod
    def coupled(reading: Interpretation) -> SdeSystem:
        """m = r = 2; every entry of g is non-zero and g depends on t."""
        def drift(t, x):
            x = np.asarray(x, dtype=float)
            return np.stack([x[..., 1] - x[..., 0], -np.sin(x[..., 0])],
                            axis=-1)

        def diffusion(t, x):
            x = np.asarray(x, dtype=float)
            g = np.empty(x.shape[:-1] + (2, 2))
            g[..., 0, 0] = 0.3 * x[..., 1]
            g[..., 0, 1] = 0.2 * np.cos(x[..., 0])
            g[..., 1, 0] = 0.1 * x[..., 0] * x[..., 1]
            g[..., 1, 1] = 0.25 + 0.1 * t
            return g

        return SdeSystem(m=2, r=2, drift=drift, diffusion=diffusion,
                         vectorized=True, interpretation=reading)

    @staticmethod
    def coupled_3(reading: Interpretation,
                  path_last: bool = False) -> SdeSystem:
        """m = r = 3; every entry of g depends on the state and lies in
        [0.5, 2.5] times its own scale.  With path_last, the diffusion
        returns g as a view whose path axis is the contiguous one."""
        def drift(t, x):
            x = np.asarray(x, dtype=float)
            return np.stack([x[..., 1] - x[..., 0],
                             x[..., 2] - np.sin(x[..., 1]),
                             -0.5 * x[..., 2] - x[..., 0]], axis=-1)

        def diffusion(t, x):
            x = np.asarray(x, dtype=float)
            g = np.array([[(0.1 + 0.05 * (i + 3 * k))
                           * (1.5 + np.sin(x[..., k] + (i + 1) * x[..., i]))
                           for k in range(3)] for i in range(3)])
            g = np.moveaxis(g, (0, 1), (-2, -1))
            return g if path_last else np.ascontiguousarray(g)

        return SdeSystem(m=3, r=3, drift=drift, diffusion=diffusion,
                         vectorized=True, interpretation=reading)

    @pytest.mark.parametrize("reading", sorted(DIGESTS))
    def test_states_digest(self, reading):
        system = self.coupled(Interpretation(reading))
        assert not system.diagonal_noise
        grid = TimeGrid(0.0, 2.0, 200)
        ids = np.arange(16, dtype=np.uint64)
        x0 = np.tile([0.5, -0.8], (16, 1))

        def incr(step):
            return increments_for_step(11, ids, step, 2, grid.dt)

        states, dead = integrate_batch(system, grid, x0, incr)
        assert (dead < 0).all()
        assert (hashlib.sha256(states.tobytes()).hexdigest()
                == self.DIGESTS[reading])

    def digests_3(self, system: SdeSystem):
        """(states, stats) digests of 16 keyed paths from (0.5, -0.8, 0.3),
        through integrate_batch and through run_ensemble."""
        grid = TimeGrid(0.0, 2.0, 200)
        ids = np.arange(16, dtype=np.uint64)
        x0 = np.tile([0.5, -0.8, 0.3], (16, 1))

        def incr(step):
            return increments_for_step(11, ids, step, 3, grid.dt)

        states, dead = integrate_batch(system, grid, x0, incr)
        assert (dead < 0).all()
        stats = run_ensemble(system, SimConfig(grid, tuple(x0[0]), seed=11),
                             16, None)
        return (hashlib.sha256(states.tobytes()).hexdigest(),
                hashlib.sha256(stats.to_json().encode()).hexdigest())

    # einsum sums the three products in one order for C-ordered g and
    # dW and in another for any other layout, so a path-last g must give
    # the bits of a C-ordered one
    @pytest.mark.parametrize("path_last", [False, True])
    @pytest.mark.parametrize("reading", sorted(DIGESTS_3))
    def test_three_noise_components_digest(self, reading, path_last):
        system = self.coupled_3(Interpretation(reading), path_last)
        assert self.digests_3(system) == self.DIGESTS_3[reading]


class TestCsvOutput:
    def golden_trajectory(self) -> Trajectory:
        grid = TimeGrid(0.0, 1.0, 2)
        return Trajectory(grid, np.array([[1.0, -2.0],
                                          [0.5, 0.125],
                                          [0.25, 3.0]]))

    def test_exact_text(self):
        text = csv_text(self.golden_trajectory())
        assert text == ("t,x_1,x_2\n"
                        "0.0,1.0,-2.0\n"
                        "0.5,0.5,0.125\n"
                        "1.0,0.25,3.0\n")

    def test_custom_names_and_file_target(self, tmp_path):
        path = tmp_path / "traj.csv"
        write_trajectory_csv(self.golden_trajectory(), path, ("a", "b"))
        text = path.read_text()
        assert text.startswith("t,a,b\n")
        with pytest.raises(UsageError):
            write_trajectory_csv(self.golden_trajectory(), io.StringIO(),
                                 ("only-one",))

    def test_round_trip_is_bit_exact(self):
        system, info = build_model("hh-logistic", sigma=0.5)
        grid = TimeGrid(0.0, 1.0, 50)
        cfg = SimConfig(grid=grid, x0=tuple(info.x0))
        traj = simulate(system, cfg, WienerGrid.generate(21, 0, grid, 3))
        text = csv_text(traj, system.labels())
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["t", "x_1", "x_2", "x_3", "V"]
        parsed = np.array([[float(v) for v in row] for row in rows[1:]])
        assert np.array_equal(parsed[:, 0], traj.t)
        assert np.array_equal(parsed[:, 1:], traj.states)


@given(values=st.lists(
    st.floats(min_value=-1e12, max_value=1e12,
              allow_nan=False, allow_infinity=False),
    min_size=4, max_size=4))
def test_csv_round_trip_recovers_exact_floats(values):
    grid = TimeGrid(0.0, 1.0, 1)
    states = np.array(values).reshape(2, 2)
    traj = Trajectory(grid, states)
    rows = list(csv.reader(io.StringIO(csv_text(traj))))
    parsed = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
    assert np.array_equal(parsed, states)

