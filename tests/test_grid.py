import numpy as np
import pytest

from nonlocal_logistic import ConfigurationError, Grid1D
from nonlocal_logistic.grid import horizon_steps, time_steps


def test_spacing_and_first_node():
    g = Grid1D(-1.0, 1.0, 199)
    assert g.h == pytest.approx(0.01)
    assert g.nodes[0] == pytest.approx(-0.99)
    assert g.delta[0] == pytest.approx(0.01)


def test_center_delta():
    g = Grid1D(-1.0, 1.0, 199)
    assert g.delta[99] == pytest.approx(1.0)


def test_three_nodes():
    g = Grid1D(0.0, 2.0, 3)
    assert np.allclose(g.nodes, [0.5, 1.0, 1.5])


def test_nodes_strictly_inside_and_increasing():
    g = Grid1D(-2.0, 3.0, 57)
    assert np.all(np.diff(g.nodes) > 0)
    assert g.nodes[0] > g.x_left and g.nodes[-1] < g.x_right
    assert np.all(g.delta > 0)
    assert g.h * (g.n_interior + 1) == pytest.approx(g.width)


def test_delta_symmetry_on_symmetric_interval():
    g = Grid1D(-1.0, 1.0, 101)
    assert np.allclose(g.delta, g.delta[::-1])


def test_refinement_nesting():
    coarse = Grid1D(-1.0, 1.0, 99)
    fine = Grid1D(-1.0, 1.0, 199)
    # every coarse node appears among the fine nodes
    idx = np.searchsorted(fine.nodes, coarse.nodes)
    assert np.allclose(fine.nodes[idx], coarse.nodes, atol=1e-14)


def test_contains():
    g = Grid1D(0.0, 1.0, 9)
    assert g.contains(0.5)
    assert not g.contains(0.0) and not g.contains(1.5)


@pytest.mark.parametrize("args", [(1.0, -1.0, 10), (0.0, 0.0, 10), (-1.0, 1.0, 2)])
def test_invalid_configuration(args):
    with pytest.raises(ConfigurationError):
        Grid1D(*args)


class TestTimeSteps:
    def test_whole_steps_within_the_tolerance(self):
        dt = 0.1
        times = [0.0, 0.3, 2.0 + 0.5e-9 * dt, 7.0 - 0.5e-9 * dt]
        steps = time_steps(times, dt, "t")
        assert steps.tolist() == [0, 3, 20, 70]
        assert time_steps(0.15, 0.05, "t").tolist() == [3]  # 0.15 / 0.05 is 2.9999999999999996

    def test_off_the_grid_outside_the_tolerance(self):
        dt = 0.1
        with pytest.raises(ConfigurationError,
                           match=r"^t 2 is not a multiple of dt = 0\.1: it is off the step grid$"):
            time_steps([0.5, 2.0 + 2e-9 * dt], dt, "t")
        with pytest.raises(ConfigurationError, match="snapshot 0.123 is not a multiple of dt_path"):
            time_steps([0.0, 0.123], dt, "snapshot", step="dt_path")

    def test_negative_times_keep_their_sign(self):
        # the range of a time is its caller's rule; the grid takes either sign
        assert time_steps([-0.2, -0.0], 0.1, "t").tolist() == [-2, 0]
        with pytest.raises(ConfigurationError, match="t -0.25 is not a multiple"):
            time_steps(-0.25, 0.1, "t")
        with pytest.raises(ConfigurationError, match="horizon -0.2 must be at least one dt step"):
            horizon_steps(-0.2, 0.1)

    @pytest.mark.parametrize("horizon", [0.0, 1e-12, 0.5e-9 * 0.1])  # zero steps, on the grid
    def test_a_horizon_takes_at_least_one_step(self, horizon):
        assert time_steps(0.0, 0.1, "t").tolist() == [0]
        with pytest.raises(ConfigurationError, match="must be at least one dt_path step"):
            horizon_steps(horizon, 0.1, step="dt_path")

    def test_a_horizon_counts_its_steps(self):
        assert horizon_steps(0.1, 0.1) == 1
        assert horizon_steps(64.0, 0.01, step="dt_path") == 6400

    @pytest.mark.parametrize("dt", [0.0, -0.1, float("nan")])
    def test_the_step_must_be_positive(self, dt):
        with pytest.raises(ConfigurationError, match="dt must be positive"):
            time_steps(1.0, dt, "t")
