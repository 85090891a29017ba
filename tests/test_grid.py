import numpy as np
import pytest

from nonlocal_logistic import ConfigurationError, Grid1D


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
