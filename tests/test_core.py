import math

import numpy as np
import pytest

import sdeinvariance
from sdeinvariance import (Box, Halfspace, ModelInfo, Polyhedron, SdeSystem,
                           TimeGrid, Trajectory, UsageError, check_box)
from sdeinvariance.core import diffusion_batch, drift_batch, jacobian_batch


def simple_system(**kwargs):
    def drift(t, x):
        return -np.asarray(x, dtype=float)

    def diffusion(t, x):
        x = np.asarray(x, dtype=float)
        return np.ones(x.shape[:-1] + (2, 1))

    return SdeSystem(m=2, r=1, drift=drift, diffusion=diffusion, **kwargs)


class TestSdeSystem:
    def test_dimension_validation(self):
        with pytest.raises(UsageError):
            SdeSystem(m=0, r=1, drift=lambda t, x: x,
                      diffusion=lambda t, x: x)
        with pytest.raises(UsageError):
            SdeSystem(m=1, r=-1, drift=lambda t, x: x,
                      diffusion=lambda t, x: x)

    def test_diagonal_noise_needs_r_at_most_m(self):
        def diffusion(t, x):
            return np.zeros(np.shape(x)[:-1] + (2, 3))

        with pytest.raises(UsageError, match="r <= m"):
            SdeSystem(m=2, r=3, drift=lambda t, x: x, diffusion=diffusion,
                      diagonal_noise=True)
        assert not SdeSystem(m=2, r=3, drift=lambda t, x: x,
                             diffusion=diffusion).diagonal_noise
        for r in (0, 1, 2):
            assert SdeSystem(m=2, r=r, drift=lambda t, x: x,
                             diffusion=diffusion,
                             diagonal_noise=True).diagonal_noise

    def test_coord_names_length_checked(self):
        with pytest.raises(UsageError):
            simple_system(coord_names=("a",))
        sys2 = simple_system(coord_names=("a", "b"))
        assert sys2.labels() == ("a", "b")

    def test_default_labels(self):
        assert simple_system().labels() == ("x_1", "x_2")

    def test_coord_ranges_need_order(self):
        with pytest.raises(UsageError):
            simple_system(coord_ranges=((0.0, 1.0), (2.0, 2.0)))
        with pytest.raises(UsageError, match="length must equal m"):
            simple_system(coord_ranges=((0.0, 1.0),))

    def test_wrong_output_shape_is_usage_error(self):
        sys_bad = SdeSystem(m=2, r=1, drift=lambda t, x: np.zeros(3),
                            diffusion=lambda t, x: np.zeros((2, 1)))
        with pytest.raises(UsageError):
            drift_batch(sys_bad, 0.0, [[0.0, 0.0]])


class TestBatchAdapters:
    def test_loop_fallback_matches_vectorized(self):
        def drift_v(t, x):
            x = np.asarray(x, dtype=float)
            return np.stack([x[..., 0] * x[..., 1], -x[..., 1]], axis=-1)

        def drift_s(t, x):
            return np.array([x[0] * x[1], -x[1]])

        def diff_v(t, x):
            x = np.asarray(x, dtype=float)
            out = np.zeros(x.shape[:-1] + (2, 1))
            out[..., 0, 0] = x[..., 0]
            return out

        def diff_s(t, x):
            return np.array([[x[0]], [0.0]])

        sv = SdeSystem(m=2, r=1, drift=drift_v, diffusion=diff_v,
                       vectorized=True)
        ss = SdeSystem(m=2, r=1, drift=drift_s, diffusion=diff_s)
        pts = np.array([[0.5, 2.0], [-1.0, 3.0], [0.0, 0.0]])
        assert np.array_equal(drift_batch(sv, 0.0, pts),
                              drift_batch(ss, 0.0, pts))
        assert np.array_equal(diffusion_batch(sv, 0.0, pts),
                              diffusion_batch(ss, 0.0, pts))

    @pytest.mark.parametrize("wrong", [lambda t, x: 1.0,
                                       lambda t, x: np.zeros(3)])
    def test_loop_fallback_checks_each_row_shape(self, wrong):
        # a scalar must not broadcast into a row, nor a (3,) raise a bare
        # numpy error: both are a UsageError
        pts = np.zeros((3, 2))
        bad_drift = SdeSystem(m=2, r=1, drift=wrong,
                              diffusion=lambda t, x: np.zeros((2, 1)))
        bad_diffusion = SdeSystem(m=2, r=1, drift=lambda t, x: np.zeros(2),
                                  diffusion=wrong)
        with pytest.raises(UsageError, match="drift returned shape"):
            drift_batch(bad_drift, 0.0, pts)
        with pytest.raises(UsageError, match="diffusion returned shape"):
            diffusion_batch(bad_diffusion, 0.0, pts)
        with pytest.raises(UsageError, match="drift returned shape"):
            check_box(bad_drift, Box.unit((0,)))

    def test_jacobian_batch_requires_callable(self):
        with pytest.raises(UsageError):
            jacobian_batch(simple_system(), 0.0, np.zeros((1, 2)))


class TestBox:
    def test_constructors(self):
        b = Box.unit((0, 2))
        assert b.lower == (0.0, 0.0)
        assert b.upper == (1.0, 1.0)
        p = Box.positive((1,))
        assert p.upper == (math.inf,)

    def test_validation(self):
        with pytest.raises(UsageError):
            Box((), (), ())
        with pytest.raises(UsageError):
            Box((0, 0), (0.0, 0.0), (1.0, 1.0))
        with pytest.raises(UsageError):
            Box((0,), (1.0,), (1.0,))
        with pytest.raises(UsageError):
            Box((0,), (-math.inf,), (math.inf,))
        with pytest.raises(UsageError):
            Box((0,), (float("nan"),), (1.0,))
        with pytest.raises(UsageError):
            Box((-1,), (0.0,), (1.0,))
        for lower, upper in (((0.0,), (1.0, 1.0)), ((0.0, 0.0), (1.0,))):
            with pytest.raises(UsageError, match="match the number"):
                Box((0, 1), lower, upper)

    def test_indices_are_read_as_integers(self):
        for bad in ((2.7,), (1.0,), ("1",), (None,)):
            with pytest.raises(UsageError, match="box indices must be "
                               "integers"):
                Box(bad, (0.0,), (1.0,))
        box = Box((np.int64(2), np.uint8(0)), (0, 0), (1, 1))
        assert box.indices == (2, 0)
        assert all(type(i) is int for i in box.indices)

    def test_faces_ordering_and_one_sided(self):
        b = Box((2, 0), (0.0, -1.0), (math.inf, 1.0))
        assert b.faces() == ((0, "lower", -1.0), (0, "upper", 1.0),
                             (2, "lower", 0.0))

    def test_limits_over_the_state(self):
        lower, upper = Box((3, 1), (0.0, -2.0), (math.inf, 1.0)).limits(5)
        assert lower.tolist() == [-math.inf, -2.0, -math.inf, 0.0, -math.inf]
        assert upper.tolist() == [math.inf, 1.0, math.inf, math.inf, math.inf]
        with pytest.raises(UsageError, match="box constrains a coordinate "
                           "outside the state"):
            Box.unit((3,)).limits(3)

    def test_as_polyhedron_normals_point_inward(self):
        poly = Box.unit((0,)).as_polyhedron(2)
        assert len(poly.halfspaces) == 2
        lower, upper = poly.halfspaces
        assert lower.anchor == (0.0, 0.0)
        assert lower.normal == (1.0, 0.0)
        assert upper.anchor == (1.0, 0.0)
        assert upper.normal == (-1.0, 0.0)

    def test_as_polyhedron_dimension_check(self):
        with pytest.raises(UsageError, match="box constrains a coordinate "
                           "outside the state"):
            Box.unit((3,)).as_polyhedron(2)


class TestPolyhedron:
    def test_halfspace_validation(self):
        with pytest.raises(UsageError):
            Halfspace((0.0,), (0.0, 1.0))
        with pytest.raises(UsageError, match="nonzero"):
            Halfspace((0.0, 0.0), (0.0, -0.0))
        # squares that underflow to zero do not make a normal zero
        assert Halfspace((0.0, 0.0), (1e-170, 0.0)).normal == (1e-170, 0.0)
        with pytest.raises(UsageError):
            Halfspace((math.inf,), (1.0,))

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(UsageError):
            Polyhedron((Halfspace((0.0,), (1.0,)),
                        Halfspace((0.0, 0.0), (1.0, 0.0))))

    def test_dim(self):
        assert Polyhedron(()).dim is None
        assert Polyhedron((Halfspace((0.0, 0.0), (1.0, 0.0)),)).dim == 2


class TestTimeGrid:
    def test_dt_and_times(self):
        g = TimeGrid(0.0, 1.0, 4)
        assert g.dt == 0.25
        assert np.array_equal(g.times(), [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_validation(self):
        with pytest.raises(UsageError):
            TimeGrid(0.0, 1.0, 0)
        with pytest.raises(UsageError):
            TimeGrid(1.0, 1.0, 5)
        with pytest.raises(UsageError):
            TimeGrid(-1.0, 1.0, 5)
        with pytest.raises(UsageError):
            TimeGrid(0.0, math.inf, 5)

    def test_step_count_must_fit_one_array(self):
        # the largest grid whose n_steps + 1 float64 times numpy can index;
        # constructing it allocates nothing
        most = np.iinfo(np.intp).max // 8 - 1
        assert TimeGrid(0.0, 1.0, most).n_steps == most
        with pytest.raises(UsageError, match="at most"):
            TimeGrid(0.0, 1.0, most + 1)


class TestTrajectory:
    def test_shape_checked_and_readonly(self):
        g = TimeGrid(0.0, 1.0, 2)
        with pytest.raises(UsageError):
            Trajectory(g, np.zeros((2, 3)))
        traj = Trajectory(g, np.arange(6.0).reshape(3, 2), path_id=5)
        assert traj.m == 2
        assert np.array_equal(traj.x0, [0.0, 1.0])
        assert np.array_equal(traj.end, [4.0, 5.0])
        assert traj.path_id == 5
        with pytest.raises(ValueError):
            traj.states[0, 0] = 9.0

    def test_source_array_is_copied(self):
        g = TimeGrid(0.0, 1.0, 1)
        src = np.zeros((2, 1))
        traj = Trajectory(g, src)
        src[0, 0] = 7.0
        assert traj.states[0, 0] == 0.0


class TestModelInfo:
    def test_x0_frozen_and_horizon_positive(self):
        info = ModelInfo(box=None, x0=[1.0, 2.0], horizon=3.0)
        with pytest.raises(ValueError):
            info.x0[0] = 0.0
        with pytest.raises(UsageError):
            ModelInfo(box=None, x0=[0.0], horizon=0.0)

    def test_panels_default_to_one_state_chart(self):
        info = ModelInfo(box=None, x0=[1.0, 2.0], horizon=3.0)
        assert info.panels == (("state", (0, 1)),)
        with pytest.raises(UsageError):
            ModelInfo(box=None, x0=[1.0], horizon=1.0, panels=(("v", (1,)),))


def test_every_exported_name_resolves_once():
    names = sdeinvariance.__all__
    assert len(set(names)) == len(names)
    assert all(hasattr(sdeinvariance, name) for name in names)
    star = {}
    exec("from sdeinvariance import *", star)
    assert set(names) <= set(star)
