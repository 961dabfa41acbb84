import numpy as np
import pytest

from affinefdr.curves import (SHORT_END, Grid, PointCombo, Weight, derivative, hw_norm,
                              primitive)
from affinefdr.errors import GridMismatch


def test_grid_properties():
    grid = Grid(10.0, 0.005)
    assert grid.n == 2001
    assert grid.x[0] == 0.0 and grid.x[-1] == pytest.approx(10.0)
    with pytest.raises(GridMismatch):
        Grid(1.0, 0.3)


def test_grid_needs_the_five_nodes_its_central_stencil_reads():
    grid = Grid(0.02, 0.005)
    assert grid.n == 5
    # the fourth-order central stencil reaches the middle node: exact for a quartic
    f = (grid.x / 0.02) ** 4
    assert derivative(f, grid)[2] == pytest.approx(4 * 0.5 ** 3 / 0.02, rel=1e-12)
    np.testing.assert_allclose(derivative(np.arange(5.0), grid), 200.0, rtol=1e-12)
    for x_max, nodes in ((0.005, 2), (0.01, 3), (0.015, 4)):
        with pytest.raises(GridMismatch, match=f"the grid has {nodes} nodes; it needs at least 5"):
            Grid(x_max, 0.005)


def test_derivative_orders():
    grid = Grid(2.0, 0.01)
    f = np.exp(grid.x)
    err = np.abs(derivative(f, grid) - f)
    # fourth order in the interior, second order at the ends
    assert err[2:-2].max() < 1e-7
    assert err.max() < 1e-3
    # exact for cubics everywhere central stencils apply
    g = grid.x ** 2
    assert np.abs(derivative(g, grid) - 2 * grid.x).max() < 1e-10


def test_primitive_matches_analytic():
    grid = Grid(5.0, 0.005)
    p = primitive(np.exp(-grid.x), grid)
    assert np.abs(p - (1.0 - np.exp(-grid.x))).max() < 1e-5
    assert p[0] == 0.0


def test_hw_norm_constant_curve():
    grid = Grid(10.0, 0.005)
    assert hw_norm(np.full(grid.n, -3.0), grid) == pytest.approx(3.0)


def test_hw_norm_analytic_oracle():
    # h(x) = x on [0,1] with weight (1+x)^4: norm^2 = (2^5 - 1)/5 = 6.2
    grid = Grid(1.0, 0.0025)
    value = hw_norm(grid.x.copy(), grid, Weight(4.0))
    # trapezoid quadrature limits the accuracy to O(dx^2)
    assert value == pytest.approx(np.sqrt(6.2), abs=1e-5)


def test_hw_norm_triangle_inequality():
    grid = Grid(10.0, 0.01)
    rng = np.random.default_rng(11)
    for _ in range(200):
        c = rng.standard_normal(4)
        h1 = c[0] * np.exp(-grid.x) + c[1] * np.sin(grid.x) * np.exp(-grid.x)
        h2 = c[2] * grid.x * np.exp(-grid.x) + c[3]
        lhs = hw_norm(h1 + h2, grid)
        assert lhs <= hw_norm(h1, grid) + hw_norm(h2, grid) + 1e-9


def test_functionals():
    grid = Grid(10.0, 0.005)
    h = np.cos(grid.x)
    assert SHORT_END(h) == pytest.approx(1.0)
    ell = PointCombo.at(grid, (0.0, 1.0), (-1.0, 4.0))
    assert ell(h) == pytest.approx(-1.0 + 4.0 * np.cos(1.0))
    dual = ell.dual_vector(grid)
    assert dual @ h == pytest.approx(ell(h))


@pytest.mark.parametrize("point,fault", [(0.0033, "is not a grid node"),
                                         (13.865, r"lies outside \[0, 10\]")])
def test_point_combo_resolves_its_points_when_built(point, fault):
    with pytest.raises(GridMismatch, match=fault):
        PointCombo.at(Grid(10.0, 0.005), (0.0, point), (1.0, 1.0))


def test_short_end_is_a_fresh_copy_of_node_zero():
    v = np.array([[-0.0, 1.5, 2.0], [0.25, -3.0, np.pi]])
    for values in (v[0], v):
        got = SHORT_END(values)
        ref = values[..., 0]
        assert np.array_equal(np.asarray(got).view(np.int64), np.asarray(ref).view(np.int64))
        assert not np.shares_memory(got, values)


def test_two_node_combination_is_bitwise_its_sum():
    grid = Grid(10.0, 0.005)
    v = np.random.default_rng(5).standard_normal((4, grid.n))
    a0, a1 = -1.0 / 3.0, 4.0 / 7.0
    ell = PointCombo.at(grid, (0.0, 0.695), (a0, a1))
    i1 = grid.index_of(0.695)
    assert ell.nodes == (0, i1)
    assert np.array_equal(ell(v), a0 * v[:, 0] + a1 * v[:, i1])
    assert ell(v[2]) == a0 * v[2, 0] + a1 * v[2, i1]


def test_grid_mismatch_raised():
    grid = Grid(10.0, 0.005)
    with pytest.raises(GridMismatch):
        derivative(np.zeros(100), grid)
    assert grid.index_of(10.0) == grid.n - 1
    with pytest.raises(GridMismatch, match="is not a grid node"):
        grid.index_of(0.0033)
    for outside in (-0.005, 10.001, 13.865):
        with pytest.raises(GridMismatch, match=r"lies outside \[0, 10\]"):
            grid.index_of(outside)
