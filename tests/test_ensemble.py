import hashlib
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from sdeinvariance import (Box, Interpretation, SdeSystem,
                           SimConfig, TimeGrid, UsageError,
                           WienerGrid, build_model, compare_interpretations,
                           integrate_paths, run_ensemble, simulate)
import sdeinvariance.ensemble as ensemble
from sdeinvariance.ensemble import _nearest_rank_index
from sdeinvariance.wiener import increments_for_step
from helpers import constant_drift_system, gbm_system


class TestNearestRank:
    def test_hand_checked_values(self):
        # nearest-rank: index of ceil(p n / 100), 0-based, clamped
        assert _nearest_rank_index(50, 4) == 1
        assert _nearest_rank_index(50, 5) == 2
        assert _nearest_rank_index(5, 100) == 4
        assert _nearest_rank_index(95, 100) == 94
        assert _nearest_rank_index(5, 3) == 0
        assert _nearest_rank_index(95, 3) == 2
        assert _nearest_rank_index(50, 1) == 0

    def test_five_value_quantiles_by_hand(self):
        order = np.sort([3.0, -1.0, 7.0, 0.5, 2.0])
        assert order[_nearest_rank_index(50, 5)] == 2.0
        assert order[_nearest_rank_index(5, 5)] == -1.0
        assert order[_nearest_rank_index(95, 5)] == 7.0


class TestRunEnsemble:
    def test_no_noise_no_exit(self):
        sys1 = constant_drift_system(1, [0.0], r=1)
        grid = TimeGrid(0.0, 1.0, 10)
        cfg = SimConfig(grid=grid, x0=(0.5,))
        stats = run_ensemble(sys1, cfg, 8, Box.unit((0,)))
        assert stats.n_violating == 0
        assert stats.violation_fraction == 0.0
        assert stats.first_exit_times == ()
        assert stats.nonfinite_paths == ()
        assert stats.coord_min == (0.5,)
        assert stats.coord_max == (0.5,)
        assert np.array_equal(stats.mean, np.full((11, 1), 0.5))

    def test_mean_of_negative_zeros_keeps_its_sign(self):
        # every path starts at -0.0, a sum from 0.0 would lose the sign
        system = constant_drift_system(2, [-0.0, 0.0])
        cfg = SimConfig(grid=TimeGrid(0.0, 1.0, 10), x0=(-0.0, 1.0))
        stats = run_ensemble(system, cfg, 4, None)
        assert np.signbit(stats.mean[:, 0]).tolist() == [True] + [False] * 10
        assert json.dumps(stats.to_dict()["mean"][0]) == "[-0.0, 1.0]"

    def test_deterministic_exit_time_known_in_advance(self):
        # drift +1 from x0 = 0.75 crosses the upper bound 1 at t = 0.25,
        # first recorded on the grid node at or after the crossing
        sys1 = constant_drift_system(1, [1.0], r=1)
        grid = TimeGrid(0.0, 1.0, 10)
        cfg = SimConfig(grid=grid, x0=(0.75,))
        stats = run_ensemble(sys1, cfg, 3, Box.unit((0,)))
        assert stats.n_violating == 3
        assert stats.violation_fraction == 1.0
        for pid, t_exit in stats.first_exit_times:
            assert t_exit == pytest.approx(0.3)

    def test_tolerance_delays_exit(self):
        sys1 = constant_drift_system(1, [1.0], r=1)
        grid = TimeGrid(0.0, 1.0, 10)
        cfg = SimConfig(grid=grid, x0=(0.75,))
        strict = run_ensemble(sys1, cfg, 2, Box.unit((0,)))
        slack = run_ensemble(sys1, cfg, 2, Box.unit((0,)), tol=0.3)
        assert strict.first_exit_times[0][1] < slack.first_exit_times[0][1]
        generous = run_ensemble(sys1, cfg, 2, Box.unit((0,)), tol=1.0)
        assert generous.n_violating == 0

    def test_nonfinite_paths_counted_as_violations(self):
        def drift(t, x):
            x = np.asarray(x, dtype=float)
            return x ** 3

        def diffusion(t, x):
            x = np.asarray(x, dtype=float)
            return np.zeros(x.shape[:-1] + (1, 1))

        cubic = SdeSystem(m=1, r=1, drift=drift, diffusion=diffusion,
                          vectorized=True)
        grid = TimeGrid(0.0, 10.0, 100)
        cfg = SimConfig(grid=grid, x0=(10.0,))
        # the box is huge, so the only failure mode is the blow-up
        big_box = Box((0,), (-1e300,), (1e300,))
        stats = run_ensemble(cubic, cfg, 2, big_box)
        assert stats.n_violating == 2
        assert len(stats.nonfinite_paths) == 2
        for pid, step in stats.nonfinite_paths:
            assert step >= 1

    def test_no_box_skips_violation_bookkeeping(self):
        system, info = build_model("hh-additive", sigma=0.5)
        grid = TimeGrid(0.0, 1.0, 100)
        cfg = SimConfig(grid=grid, x0=tuple(info.x0))
        stats = run_ensemble(system, cfg, 4, None)
        assert stats.box is None
        assert stats.first_exit_times == ()

    def test_argument_validation(self):
        sys1 = constant_drift_system(1, [0.0], r=1)
        grid = TimeGrid(0.0, 1.0, 10)
        cfg = SimConfig(grid=grid, x0=(0.5,))
        with pytest.raises(UsageError):
            run_ensemble(sys1, cfg, 0, None)
        for tol in (-0.1, np.nan, np.inf):
            with pytest.raises(UsageError, match="tol"):
                run_ensemble(sys1, cfg, 2, None, tol=tol)

    def test_box_outside_the_state_is_refused_before_any_work(self):
        calls = []

        def drift(t, x):
            calls.append("drift")
            return np.zeros_like(x)

        def diffusion(t, x):
            calls.append("diffusion")
            return np.zeros(np.shape(x)[:-1] + (1, 1))

        sys1 = SdeSystem(m=1, r=1, drift=drift, diffusion=diffusion,
                         vectorized=True)
        cfg = SimConfig(grid=TimeGrid(0.0, 1.0, 10), x0=(0.5,))
        for box in (Box((1,), (0.0,), (1.0,)), Box((0, 3), (0, 0), (1, 1))):
            with pytest.raises(UsageError, match="box constrains a "
                               "coordinate outside the state"):
                run_ensemble(sys1, cfg, 2, box,
                             on_block=lambda start, states: calls.append(
                                 "block"))
        assert calls == []

    def test_a_hook_that_writes_to_its_block_is_refused(self):
        # the hook's block is the buffer the mean is taken from next
        system, info = build_model("hh-logistic", sigma=0.5)
        cfg = SimConfig(grid=TimeGrid(0.0, 0.1, 10), x0=tuple(info.x0))

        def scribble(start, states):
            states[0, 0, 0] = 2.0

        with pytest.raises(ValueError, match="read-only"):
            run_ensemble(system, cfg, 4, info.box, on_block=scribble)


class TestDeterminism:
    ADDITIVE_64_SHA256 = (
        "eaf4332c7857519c932784bfcacc84687a9cf2d15b443d61833b44a77fc53f59")

    @staticmethod
    def additive_64(on_block=None):
        # 64 paths: 10 leave the box and stay finite, 54 turn non-finite
        system, info = build_model("hh-additive", sigma=0.5)
        grid = TimeGrid(0.0, 30.0, 3000)
        cfg = SimConfig(grid=grid, x0=tuple(info.x0), seed=3)
        return run_ensemble(system, cfg, 64, info.box, on_block=on_block)

    @staticmethod
    def scalar_64(on_block=None):
        # m = 1: dX = -X dt + 0.3 X dW from x0 = 1, 50 steps on [0, 1]
        cfg = SimConfig(grid=TimeGrid(0.0, 1.0, 50), x0=(1.0,), seed=0)
        return run_ensemble(gbm_system(-1.0, 0.3), cfg, 64, Box.unit((0,)),
                            on_block=on_block)

    @staticmethod
    def noise_free_64(on_block=None):
        # r = 0: dX = (1 - X) dt from x0 = 0, 50 steps on [0, 1]
        def drift(t, x):
            return 1.0 - np.asarray(x, dtype=float)

        def diffusion(t, x):
            return np.zeros(np.shape(x)[:-1] + (1, 0))

        system = SdeSystem(m=1, r=0, drift=drift, diffusion=diffusion,
                           vectorized=True, name="relax")
        cfg = SimConfig(grid=TimeGrid(0.0, 1.0, 50), x0=(0.0,), seed=0)
        return run_ensemble(system, cfg, 64, Box.unit((0,)),
                            on_block=on_block)

    @staticmethod
    def signed_zeros_64(on_block=None):
        # coordinate 0 is a Brownian path from 0; coordinate 1 starts at
        # -0.0 and turns +0.0 for good one step after the path first goes
        # above 0, so at most steps it is a tie of both zeros on different
        # paths, and every quantile rank falls inside that tie
        def drift(t, x):
            x = np.asarray(x, dtype=float)
            out = np.zeros_like(x)
            out[:, 1] = np.where(x[:, 0] > 0, 0.0, -0.0)
            return out

        def diffusion(t, x):
            return np.ones(np.shape(x)[:-1] + (1,))

        system = SdeSystem(m=2, r=1, drift=drift, diffusion=diffusion,
                           vectorized=True, diagonal_noise=True,
                           name="zeros")
        cfg = SimConfig(grid=TimeGrid(0.0, 1.0, 50), x0=(0.0, -0.0), seed=2)
        return run_ensemble(system, cfg, 64, None, on_block=on_block)

    @staticmethod
    def latched_zeros_64(on_block=None):
        # m = 1 from x0 = -0.0: x + 0 dW stays -0.0 while dW < 0 and turns
        # +0.0 for good at the first dW > 0, so the extrema of the early
        # steps are zeros of either sign
        def drift(t, x):
            return np.full(np.shape(x), -0.0)

        def diffusion(t, x):
            return np.zeros(np.shape(x)[:-1] + (1,))

        system = SdeSystem(m=1, r=1, drift=drift, diffusion=diffusion,
                           vectorized=True, diagonal_noise=True,
                           name="latch")
        cfg = SimConfig(grid=TimeGrid(0.0, 1.0, 8), x0=(-0.0,), seed=5)
        return run_ensemble(system, cfg, 64, None, on_block=on_block)

    # row p of EXCURSIONS is path p at the grid indices 0..20 (dt = 1); at
    # tol = 0.125 the unit box admits 1.125 and -0.125 and nothing beyond
    EXCURSIONS = np.full((8, 21), 0.5)
    EXCURSIONS[1, 1:] = [1.125, -0.125] * 10  # on the slack's edges only
    EXCURSIONS[2, 9] = 1.25                   # leaves and re-enters at 10
    EXCURSIONS[3, 6] = -0.25                  # leaves at 6 only
    EXCURSIONS[4, 7:] = 1.25                  # leaves at 7 for good
    EXCURSIONS[5, 13] = 1.25                  # leaves at 13 only
    EXCURSIONS[6, [14, 18, 19]] = -0.25       # leaves at 14 and again at 18
    EXCURSIONS[7, 20] = -0.25                 # leaves at the last index
    EXCURSION_EXITS = ((2, 9.0), (3, 6.0), (4, 7.0), (5, 13.0), (6, 14.0),
                       (7, 20.0))

    @classmethod
    def excursions_8(cls, on_block=None):
        # the drift moves row p of the lockstep batch, which is path p, to
        # EXCURSIONS[p, n + 1] in one step, exactly for these dyadic values
        table = cls.EXCURSIONS

        def drift(t, x):
            return table[:, int(t) + 1, None] - np.asarray(x, dtype=float)

        def diffusion(t, x):
            return np.zeros(np.shape(x)[:-1] + (1, 0))

        system = SdeSystem(m=1, r=0, drift=drift, diffusion=diffusion,
                           vectorized=True, name="excursions")
        cfg = SimConfig(grid=TimeGrid(0.0, 20.0, 20), x0=(0.5,))
        return run_ensemble(system, cfg, 8, Box.unit((0,)), tol=0.125,
                            on_block=on_block)

    @staticmethod
    def half_line_32(on_block=None):
        # m = 2 Brownian paths from (0.5, 0): the box bounds coordinate 0
        # below only, so at tol = 0.125 its slack bounds are -0.125 and
        # inf + 0.125, and coordinate 1 is unconstrained
        def drift(t, x):
            return np.zeros(np.shape(x))

        def diffusion(t, x):
            return np.ones(np.shape(x))

        system = SdeSystem(m=2, r=2, drift=drift, diffusion=diffusion,
                           vectorized=True, diagonal_noise=True,
                           name="half-line")
        cfg = SimConfig(grid=TimeGrid(0.0, 1.0, 50), x0=(0.5, 0.0), seed=6)
        return run_ensemble(system, cfg, 32, Box.positive((0,)), tol=0.125,
                            on_block=on_block)

    # the stats of each one-coordinate run at the default block width
    LOW_DIMENSIONAL = {
        "scalar": (scalar_64,
                   "9e525f1e55e4141cd1b5224dc758ba44"
                   "e48e69dbb155d0e499921a08a007d5a2"),
        "noise-free": (noise_free_64,
                       "0124a3793c4191e62e480e9f4c6bb503"
                       "59cbe8f0d72501f2d20545109b8e4efe"),
    }

    def test_stats_digest_with_exits_and_blow_ups(self):
        stats = self.additive_64()
        assert stats.n_violating == 64
        assert len(stats.nonfinite_paths) == 54
        assert (hashlib.sha256(stats.to_json().encode()).hexdigest()
                == self.ADDITIVE_64_SHA256)

    @pytest.mark.parametrize("name", sorted(LOW_DIMENSIONAL))
    def test_low_dimensional_stats_digest(self, name):
        run, digest = self.LOW_DIMENSIONAL[name]
        stats = run()
        assert (hashlib.sha256(stats.to_json().encode()).hexdigest()
                == digest)

    @staticmethod
    def assert_width_is_invisible(monkeypatch, run, digest, words, n_grid):
        # one step per block, 7 steps (which divide neither grid), and the
        # whole grid in one block; words is n_paths x (2m + max(1, r))
        for width in (1, 7, n_grid):
            monkeypatch.setattr(ensemble, "_BLOCK_BYTES", 8 * words * width)
            widths = []
            stats = run(lambda start, states: widths.append(states.shape[1]))
            full, rest = divmod(n_grid, width)
            assert widths == [width] * full + ([rest] if rest else [])
            assert (hashlib.sha256(stats.to_json().encode()).hexdigest()
                    == digest)

    def test_block_width_does_not_change_stats(self, monkeypatch):
        self.assert_width_is_invisible(monkeypatch, self.additive_64,
                                       self.ADDITIVE_64_SHA256, 64 * 11, 3001)

    # a block of one step of one coordinate is the case numpy would sum
    # pairwise, not path by path
    @pytest.mark.parametrize("name", sorted(LOW_DIMENSIONAL))
    def test_block_width_does_not_change_low_dimensional_stats(
            self, monkeypatch, name):
        run, digest = self.LOW_DIMENSIONAL[name]
        self.assert_width_is_invisible(monkeypatch, run, digest, 64 * 3, 51)

    SIGNED_ZEROS_SHA256 = ("defaf8bf2509f40924c030583fde37f9"
                           "c33d57120fd2f3d581c3f4e741706737")

    def test_signed_zero_ties_do_not_depend_on_the_width(self, monkeypatch):
        # the sort may order a tie of -0.0 and +0.0 either way, and the
        # quantiles and extrema print the sign it leaves at each rank
        signs = []

        def on_block(start, states):
            assert not states[:, :, 1].any()
            signs.extend(np.signbit(states[:, :, 1]).sum(axis=0))

        stats = self.signed_zeros_64(on_block)
        assert signs[0] == 64 and sum(0 < n < 64 for n in signs) >= 40
        zeros = np.concatenate([q[:, 1] for q in stats.quantiles.values()])
        assert 0 < np.signbit(zeros).sum() < zeros.size
        self.assert_width_is_invisible(monkeypatch, self.signed_zeros_64,
                                       self.SIGNED_ZEROS_SHA256, 64 * 5, 51)

    LATCHED_ZEROS_SHA256 = ("41059b6e59dd3ecd8c06a435e0917436"
                            "c672f965ccb958d701893b1bf174cfe9")

    def test_signed_zero_extrema_do_not_depend_on_the_width(self,
                                                            monkeypatch):
        # the extrema fold each step's in grid order, the later zero of a
        # tie winning; numpy's min of a contiguous column of 9 steps pairs
        # them in SIMD lanes and returned -0.0 here at the whole-grid width
        stats = self.latched_zeros_64()
        assert json.dumps(stats.to_dict()["quantiles"]["q05"][0]) == "[-0.0]"
        assert json.dumps([stats.coord_min, stats.coord_max]) == (
            "[[0.0], [0.0]]")
        self.assert_width_is_invisible(monkeypatch, self.latched_zeros_64,
                                       self.LATCHED_ZEROS_SHA256, 64 * 3, 9)

    EXCURSIONS_SHA256 = ("ee418a0efcc3287bbf451627bb4a3200"
                         "3c0a4c073853deac83acf7a68efcf931")

    def test_exits_inside_and_at_the_ends_of_a_block(self, monkeypatch):
        # at width 7 the blocks are 0-6, 7-13 and 14-20: path 2 leaves and
        # re-enters inside one, and the other exits fall on their ends
        stats = self.excursions_8()
        assert stats.first_exit_times == self.EXCURSION_EXITS
        self.assert_width_is_invisible(monkeypatch, self.excursions_8,
                                       self.EXCURSIONS_SHA256, 8 * 3, 21)

    HALF_LINE_SHA256 = ("5fbd0f1617b516eb9d35fd8bf1d9567e"
                        "c7d29eebfb22c9979be61378699954a0")

    def test_one_sided_box_with_slack(self, monkeypatch):
        # the slack bounds of an infinite bound and of an unconstrained
        # coordinate stay infinite, and only lower exits count
        stats = self.half_line_32()
        assert 0 < stats.n_violating < 32
        assert stats.coord_max[0] > 1.0 and stats.coord_min[1] < -0.125
        assert json.dumps(stats.to_dict()["box"]) == (
            '{"indices": [0], "lower": [0.0], "upper": [Infinity]}')
        self.assert_width_is_invisible(monkeypatch, self.half_line_32,
                                       self.HALF_LINE_SHA256, 32 * 6, 51)

    def test_single_path_matches_simulate(self):
        system, info = build_model("hh-logistic", sigma=0.5)
        grid = TimeGrid(0.0, 2.0, 200)
        cfg = SimConfig(grid=grid, x0=tuple(info.x0), seed=11)
        states, dead = integrate_paths(system, cfg, [7])
        noise = WienerGrid.generate(11, 7, grid, 3)
        traj = simulate(system, cfg, noise)
        assert np.array_equal(states[0], traj.states)
        assert dead[0] == -1

    @pytest.mark.parametrize("path_ids", [[-1], [2 ** 64], [0.7], [0, 1.0],
                                          [[0, 1]]])
    def test_path_ids_outside_the_keys_are_refused(self, path_ids):
        system, info = build_model("hh-logistic", sigma=0.5)
        cfg = SimConfig(grid=TimeGrid(0.0, 1.0, 10), x0=tuple(info.x0))
        with pytest.raises(UsageError, match="path ids must"):
            integrate_paths(system, cfg, path_ids)

    def test_batch_size_does_not_change_paths(self, monkeypatch):
        system, info = build_model("hh-additive", sigma=0.2)
        grid = TimeGrid(0.0, 1.0, 100)
        cfg = SimConfig(grid=grid, x0=tuple(info.x0), seed=5)
        # the default noise draws; for the 6 paths at 2 x 4 + 3 words a
        # path-step, 528 bytes is one step a draw and 3696 is 7 steps,
        # which do not divide the 100
        for block_bytes in (ensemble._BLOCK_BYTES, 528, 3696):
            monkeypatch.setattr(ensemble, "_BLOCK_BYTES", block_bytes)
            wide, _ = integrate_paths(system, cfg, range(6))
            for pid in range(6):
                narrow, _ = integrate_paths(system, cfg, [pid])
                assert np.array_equal(wide[pid], narrow[0])

    def test_rerun_is_bitwise_identical(self):
        system, info = build_model("hh-additive", sigma=0.5)
        grid = TimeGrid(0.0, 1.0, 100)
        cfg = SimConfig(grid=grid, x0=tuple(info.x0), seed=9)
        a = run_ensemble(system, cfg, 10, info.box)
        b = run_ensemble(system, cfg, 10, info.box)
        assert a.to_json() == b.to_json()


class TestAllDead:
    """Runs in which every path turns non-finite long before the end of
    the grid: the bytes of their stats and of their gap are pinned."""

    # cubic: run_ensemble(..., 8, None).to_json() and the bytes of
    # compare_interpretations(..., 8); hh: additive noise at sigma = 1,
    # 64 paths, every one dead by step 736 of 2000
    CUBIC_STATS_SHA256 = ("2d04d1f4798f4d25f65be24248a6bdaa"
                          "337d7787777fc8ec3162c7f439946325")
    CUBIC_GAP_SHA256 = ("234162c127696d74506476c1b851d3c2"
                        "7b7ca46ef7772f38a306449c4962c3c7")
    HH_STATS_SHA256 = ("014b6765ba4239b0d2adfa09fb68b475"
                       "ea870feb45289e06e81761d514d1f3a9")

    @staticmethod
    def cubic(calls=None):
        """dX = X^3 dt + 0.01 X dW from x0 = 10 on 100 steps over [0, 10];
        every path dies at step 6.  Appends to calls at each drift call."""
        def drift(t, x):
            if calls is not None:
                calls.append(t)
            return np.asarray(x, dtype=float) ** 3

        def diffusion(t, x):
            return (0.01 * np.asarray(x, dtype=float))[..., None]

        system = SdeSystem(m=1, r=1, drift=drift, diffusion=diffusion,
                           vectorized=True, name="cubic")
        cfg = SimConfig(grid=TimeGrid(0.0, 10.0, 100), x0=(10.0,), seed=0)
        return system, cfg

    def test_cubic_stats_digest(self):
        stats = run_ensemble(*self.cubic(), 8, None)
        assert stats.nonfinite_paths == tuple((p, 6) for p in range(8))
        assert (hashlib.sha256(stats.to_json().encode()).hexdigest()
                == self.CUBIC_STATS_SHA256)

    def test_cubic_gap_digest(self):
        gap = compare_interpretations(*self.cubic(), 8)
        assert (hashlib.sha256(gap.tobytes()).hexdigest()
                == self.CUBIC_GAP_SHA256)

    def test_hh_additive_stats_digest(self):
        system, info = build_model("hh-additive", sigma=1.0)
        cfg = SimConfig(grid=TimeGrid(0.0, 20.0, 2000), x0=tuple(info.x0))
        stats = run_ensemble(system, cfg, 64, info.box)
        assert len(stats.nonfinite_paths) == 64
        assert max(step for _, step in stats.nonfinite_paths) == 736
        assert (hashlib.sha256(stats.to_json().encode()).hexdigest()
                == self.HH_STATS_SHA256)

    # the march stops once every path is dead: 6 drift calls per reading
    # for the 6 steps the cubic paths live, not one per grid step
    def test_run_ensemble_stops_calling_the_model(self):
        calls = []
        run_ensemble(*self.cubic(calls), 8, None)
        assert len(calls) == 6

    def test_compare_interpretations_stops_calling_the_model(self):
        calls = []
        compare_interpretations(*self.cubic(calls), 8)
        assert len(calls) == 12

    def test_no_keyed_draw_after_the_last_death(self, monkeypatch):
        # one step a draw: steps 0..5 are drawn, the other 94 are not
        monkeypatch.setattr(ensemble, "_BLOCK_BYTES", 0)
        shapes = TestKeyedNoiseBlocks.draws(monkeypatch)
        stats = run_ensemble(*self.cubic(), 8, None)
        assert shapes == [(1, 8, 1)] * 6
        assert (hashlib.sha256(stats.to_json().encode()).hexdigest()
                == self.CUBIC_STATS_SHA256)


class TestKeyedNoiseBlocks:
    """Keyed noise is drawn a block of steps at a time, with no trace in
    the paths or the stats."""

    @staticmethod
    def draws(monkeypatch):
        # the shape of every keyed-noise draw the ensemble module makes
        shapes = []
        draw = ensemble.increments_for_step

        def counted(*args):
            out = draw(*args)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(ensemble, "increments_for_step", counted)
        return shapes

    def test_steps_are_served_from_blocks(self, monkeypatch):
        # 5 paths x (2 x 4 coordinates + 3 components) x 8 bytes a step:
        # 8 steps a draw, so 13 steps take one block of 8 and a ragged
        # one of 5
        monkeypatch.setattr(ensemble, "_BLOCK_BYTES", 8 * 5 * 11 * 8)
        shapes = self.draws(monkeypatch)
        system, info = build_model("hh-logistic", sigma=0.5)
        cfg = SimConfig(grid=TimeGrid(0.0, 0.13, 13), x0=tuple(info.x0),
                        seed=4)
        ids = np.arange(5, dtype=np.uint64)
        _, for_step = ensemble._keyed_start(system, cfg, ids)
        for n in range(13):
            want = increments_for_step(4, ids, n, 3, cfg.grid.dt)
            assert for_step(n).tobytes() == want.tobytes()
        assert shapes == [(8, 5, 3), (5, 5, 3)]

    # one step per draw, 7 steps (which do not divide the 3000), and the
    # whole grid in one draw, named by the bytes of one draw's noise; the
    # budget adds the states' two copies, 8 words a path-step beside the
    # noise's 3
    @pytest.mark.parametrize("noise_bytes",
                             [None, 0, 7 * 64 * 3 * 8, 3000 * 64 * 3 * 8])
    def test_each_normal_is_drawn_once(self, monkeypatch, noise_bytes):
        if noise_bytes is not None:
            monkeypatch.setattr(ensemble, "_BLOCK_BYTES",
                                noise_bytes // 3 * 11)
        shapes = self.draws(monkeypatch)
        stats = TestDeterminism.additive_64()
        assert sum(int(np.prod(shape)) for shape in shapes) == 64 * 3000 * 3
        assert (hashlib.sha256(stats.to_json().encode()).hexdigest()
                == TestDeterminism.ADDITIVE_64_SHA256)

    def test_compare_interpretations_draws_each_normal_once(self,
                                                              monkeypatch):
        # both readings march on one provider: n_paths * n_steps * r
        # normals, not twice that, in blocks of 8, 8 and 4 steps at
        # 2 x 4 + 3 words a path-step
        monkeypatch.setattr(ensemble, "_BLOCK_BYTES", 8 * 6 * 11 * 8)
        shapes = self.draws(monkeypatch)
        system, info = build_model("hh-logistic", sigma=0.5)
        cfg = SimConfig(grid=TimeGrid(0.0, 0.2, 20), x0=tuple(info.x0))
        compare_interpretations(system, cfg, 6)
        assert shapes == [(8, 6, 3), (8, 6, 3), (4, 6, 3)]


class TestMemory:
    # Doubling the grid may raise the traced peak only by about the
    # (N+1, m) arrays a call returns, not by the P * N * m states.

    @staticmethod
    def peak_growth(call, n_steps):
        system, info = build_model("hh-logistic", sigma=0.5)
        peaks = []
        for n in (n_steps, 2 * n_steps):
            cfg = SimConfig(grid=TimeGrid(0.0, 0.01 * n, n),
                            x0=tuple(info.x0))
            tracemalloc.start()
            try:
                call(system, cfg, info.box)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peaks[1] - peaks[0]

    def test_run_ensemble_holds_one_block_of_states(self):
        # at 200 paths, 800 steps already span more than one block
        growth = self.peak_growth(
            lambda system, cfg, box: run_ensemble(system, cfg, 200, box),
            800)
        outputs = 4 * 800 * 4 * 8  # growth of the mean and three quantiles
        assert growth <= 2 * outputs

    # one keyed-noise draw, as _keyed_start makes it, covers the steps of
    # one block, and the block's two copies of its states and its noise
    # fit the budget; a noise-free system (r = 0) is drawn in bounded
    # blocks too, not the whole grid at once
    @pytest.mark.parametrize("n_paths", [1, 64, 1000])
    @pytest.mark.parametrize("r", [0, 1, 3])
    def test_block_steps_stay_within_the_budget(self, monkeypatch, r,
                                                n_paths):
        system = constant_drift_system(1, [0.0], r=r)
        cfg = SimConfig(grid=TimeGrid(0.0, 1.0, 5000), x0=(0.0,))
        steps = ensemble._block_steps(n_paths, 1, r, 5000)
        assert 8 * n_paths * (2 + max(1, r)) * steps <= ensemble._BLOCK_BYTES
        shapes = TestKeyedNoiseBlocks.draws(monkeypatch)
        _, for_step = ensemble._keyed_start(
            system, cfg, np.arange(n_paths, dtype=np.uint64))
        for_step(0)
        assert shapes == [(steps, n_paths, r)]

    # The traced peak of a whole run is its outputs plus under three
    # budgets: one for the block's two copies of its states and its noise
    # together, at most one more for the transients of a keyed-noise draw
    # (its hashes add r + 1 words to its r), and the rest for numpy's
    # 128 KiB of ufunc buffers (0.29 budgets) and march's few (P, m) rows
    # a step.  1.4-1.6 budgets were measured at 10 to 1000 paths.
    def test_run_ensemble_peak_is_bounded_by_the_budget(self):
        system, info = build_model("hh-logistic", sigma=0.5)
        cfg = SimConfig(grid=TimeGrid(0.0, 8.0, 800), x0=tuple(info.x0))
        tracemalloc.start()
        try:
            run_ensemble(system, cfg, 200, info.box)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs = 4 * 801 * 4 * 8 + 801 * 8  # 4 (N+1, m) arrays, the times
        assert peak <= outputs + 3 * ensemble._BLOCK_BYTES

    # The same bound, tightened to two budgets at the path count of the
    # benchmark ensembles: 1.57 budgets were measured at 1000 paths, where
    # a block is 5 steps wide, and 1.78 when a block was 8 steps wide and
    # its path-first copy was not charged to the budget.
    def test_run_ensemble_peak_stays_within_two_budgets(self):
        system, info = build_model("hh-logistic", sigma=0.5)
        cfg = SimConfig(grid=TimeGrid(0.0, 2.0, 200), x0=tuple(info.x0))
        tracemalloc.start()
        try:
            run_ensemble(system, cfg, 1000, info.box)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs = 4 * 201 * 4 * 8  # the mean and three quantile arrays
        assert peak - outputs <= 2 * ensemble._BLOCK_BYTES

    def test_compare_interpretations_keeps_only_endpoints(self):
        growth = self.peak_growth(
            lambda system, cfg, box: compare_interpretations(system, cfg,
                                                             200),
            100)
        assert growth <= 4 * 100 * 4 * 8


class TestStatisticalBehaviour:
    def test_violation_fraction_grows_with_sigma(self):
        grid = TimeGrid(0.0, 10.0, 1000)
        fractions = []
        for sigma in (0.1, 0.5):
            system, info = build_model("hh-additive", sigma=sigma)
            cfg = SimConfig(grid=grid, x0=tuple(info.x0), seed=1)
            stats = run_ensemble(system, cfg, 60, info.box)
            fractions.append(stats.violation_fraction)
        assert fractions[0] <= fractions[1]
        assert fractions[1] > 0.5

    def test_refining_dt_does_not_create_violations(self):
        system, info = build_model("hh-logistic", sigma=0.5)
        for n in (200, 800):
            grid = TimeGrid(0.0, 2.0, n)
            cfg = SimConfig(grid=grid, x0=tuple(info.x0), seed=2)
            stats = run_ensemble(system, cfg, 40, info.box)
            assert stats.violation_fraction == 0.0

    def test_quantile_envelope_ordered(self):
        system, info = build_model("hh-additive", sigma=0.5)
        grid = TimeGrid(0.0, 2.0, 100)
        cfg = SimConfig(grid=grid, x0=tuple(info.x0))
        stats = run_ensemble(system, cfg, 50, info.box)
        q05, q50, q95 = (stats.quantiles[k] for k in ("q05", "q50", "q95"))
        assert (q05 <= q50).all()
        assert (q50 <= q95).all()
        assert q05.shape == (101, 4)

    def test_quantile_arrays_own_their_data(self):
        # a view into the sorted (P, N+1, m) array would keep all of it
        # alive for as long as the stats live
        system, info = build_model("hh-logistic", sigma=0.5)
        cfg = SimConfig(grid=TimeGrid(0.0, 0.5, 50), x0=tuple(info.x0))
        stats = run_ensemble(system, cfg, 8, info.box)
        assert all(q.base is None for q in stats.quantiles.values())


class TestStatsSerialization:
    def test_json_shape(self):
        system, info = build_model("hh-additive", sigma=0.5)
        grid = TimeGrid(0.0, 1.0, 20)
        cfg = SimConfig(grid=grid, x0=tuple(info.x0), seed=8)
        stats = run_ensemble(system, cfg, 5, info.box, tol=0.01)
        data = json.loads(stats.to_json(indent=2))
        assert data["n_paths"] == 5
        assert data["grid"] == {"t0": 0.0, "t_end": 1.0, "n_steps": 20}
        assert data["seed"] == 8
        assert data["scheme"] == "euler-maruyama"
        assert data["tol"] == 0.01
        assert data["box"]["indices"] == [0, 1, 2]
        assert len(data["mean"]) == 21
        assert set(data["quantiles"]) == {"q05", "q50", "q95"}
        assert data["n_violating"] == len(data["first_exit_times"])


class TestPinnedReadings:
    """sha256 of hh-logistic runs under the Ito reading and its
    Stratonovich retag: simulate's states (400 steps, seed 3, path 1) and
    run_ensemble(..., 50, box).to_json().  The scheme follows the tag."""

    DIGESTS = {
        (0.5, "ito"): (
            "24b89758ecf24fc0851f85c4b78991c3"
            "72b73be808954e5e5891cfce2af2af9d",
            "6f6f6f16fe49bc3d3449384b809397ef"
            "c5a191906b3211a74c0e2420da41eb59"),
        (0.5, "stratonovich"): (
            "1f95a4d3f667488620451a648034f3a8"
            "da354f886d685f0a176d76dcc96d2c4a",
            "7718cd5b6c6378a9de86ef5813092666"
            "05f6b343a6b423c1a73327b927105414"),
        # 44 of the 50 Ito paths leave the box
        (4.0, "ito"): (
            "d332ebcbfd57057fc0b0782fadc40f3b"
            "ac5d9a8e88be128922f11e75355f104d",
            "f8adc8017526b8bd77e2ca12112777ea"
            "5084bdc4769c2d785bd0fc8843d5b021"),
        (4.0, "stratonovich"): (
            "8325f6def04d488798976ad1b8c8baa3"
            "ee71db76adafaedd50b2b9070d58a7f7",
            "182ab1c7219c5a3f86b65c831b43d3ed"
            "30ebcfe06fb316fc02d3ae95dd455c04"),
    }

    @pytest.mark.parametrize("sigma, reading", sorted(DIGESTS))
    def test_simulate_and_stats_digests(self, sigma, reading):
        ito, info = build_model("hh-logistic", sigma=sigma)
        system = replace(ito, interpretation=Interpretation(reading))
        grid = TimeGrid(0.0, 4.0, 400)
        cfg = SimConfig(grid=grid, x0=tuple(info.x0), seed=3)
        traj = simulate(system, cfg, WienerGrid.generate(3, 1, grid, 3))
        stats = run_ensemble(system, cfg, 50, info.box)
        got = (hashlib.sha256(traj.states.tobytes()).hexdigest(),
               hashlib.sha256(stats.to_json().encode()).hexdigest())
        assert got == self.DIGESTS[sigma, reading]


class TestCompareInterpretations:
    def test_additive_noise_gap_is_zero(self):
        system, info = build_model("hh-additive", sigma=0.1)
        grid = TimeGrid(0.0, 2.0, 200)
        cfg = SimConfig(grid=grid, x0=tuple(info.x0))
        gap = compare_interpretations(system, cfg, 8)
        assert gap.shape == (4,)
        assert np.array_equal(gap, np.zeros(4))

    def test_multiplicative_noise_gap_is_positive(self):
        system, info = build_model("hh-logistic", sigma=0.5)
        grid = TimeGrid(0.0, 2.0, 200)
        cfg = SimConfig(grid=grid, x0=tuple(info.x0))
        gap = compare_interpretations(system, cfg, 8)
        assert gap[:3].max() > 0.0

    def test_needs_a_path(self):
        system, info = build_model("hh-logistic", sigma=0.5)
        cfg = SimConfig(grid=TimeGrid(0.0, 1.0, 10), x0=tuple(info.x0))
        with pytest.raises(UsageError, match="n_paths"):
            compare_interpretations(system, cfg, 0)

    def test_gap_matches_manual_two_runs(self):
        system, info = build_model("hh-logistic", sigma=0.5)
        grid = TimeGrid(0.0, 1.0, 100)
        cfg = SimConfig(grid=grid, x0=tuple(info.x0))
        # 64 paths: numpy would sum a contiguous column pairwise, and the
        # manual mean adds path by path
        gap = compare_interpretations(system, cfg, 64)
        ito_sys, _ = build_model("hh-logistic", sigma=0.5,
                                 interpretation=Interpretation.ITO)
        strat_sys, _ = build_model(
            "hh-logistic", sigma=0.5,
            interpretation=Interpretation.STRATONOVICH)
        em, _ = integrate_paths(ito_sys, cfg, range(64))
        heun, _ = integrate_paths(strat_sys, cfg, range(64))
        manual = np.sqrt(np.mean(
            (em[:, -1, :] - heun[:, -1, :]) ** 2, axis=0))
        assert np.array_equal(gap, manual)


    def test_one_coordinate_gap_adds_path_by_path(self):
        # m = 1 and 64 paths: numpy would sum the (64, 1) squares
        # pairwise, which gives other bits at this seed
        system = gbm_system(-1.0, 0.3)
        cfg = SimConfig(grid=TimeGrid(0.0, 1.0, 50), x0=(1.0,), seed=1)
        gap = compare_interpretations(system, cfg, 64)
        em, _ = integrate_paths(system, cfg, range(64))
        heun, _ = integrate_paths(
            replace(system, interpretation=Interpretation.STRATONOVICH),
            cfg, range(64))
        total = -0.0
        for d in em[:, -1, 0] - heun[:, -1, 0]:
            total += float(d * d)
        assert gap.tolist() == [math.sqrt(total / 64)]


def test_gbm_ensemble_mean_tracks_expectation():
    # E X_t = x0 exp(a t) for the Ito reading, independent of b
    a, b = 0.4, 0.3
    system = gbm_system(a, b)
    grid = TimeGrid(0.0, 1.0, 200)
    cfg = SimConfig(grid=grid, x0=(1.0,), seed=6)
    stats = run_ensemble(system, cfg, 400, None)
    expected = np.exp(a * grid.times())
    rel = np.abs(stats.mean[:, 0] - expected) / expected
    assert rel.max() < 0.05
