"""Grid construction, quadrature weights, and boost maps."""

import math

import numpy as np
import pytest

from fockdeform.grids import (ChiralGridPair, MomentumGrid, boost_blocks, boost_momentum,
                              chiral_pair, omega, rapidity_grid)


def test_rapidity_grid_points_and_weights():
    g = rapidity_grid(1.0, 6)
    thetas = np.linspace(-1.25, 1.25, 6)
    assert np.allclose(g.points, np.sinh(thetas))
    # constant weight = sinh(dtheta) equals the central cell length over omega
    dtheta = thetas[1] - thetas[0]
    assert np.allclose(g.weights, math.sinh(dtheta))
    cell = (g.points[2] - g.points[0]) / 2
    assert abs(cell / g.omegas[1] - g.weights[1]) < 1e-14


def test_rapidity_grid_rejects_zero_point():
    with pytest.raises(ValueError):
        rapidity_grid(1.0, 5, -1.0, 1.0)  # odd size puts theta = 0 on the grid
    with pytest.raises(ValueError):
        rapidity_grid(0.0, 6)


def test_chiral_pair_layout():
    pair = chiral_pair(3, 0.5, 2.0)
    assert pair.n_negative == 3 and pair.n_positive == 3
    assert np.allclose(pair.positive_points, [0.5, 1.0, 2.0])
    assert np.allclose(pair.negative_points, [-2.0, -1.0, -0.5])
    dlam = math.log(2.0 / 0.5) / 2
    assert np.allclose(pair.union.weights, math.sinh(dlam))
    cell = (pair.positive_points[2] - pair.positive_points[0]) / 2
    assert abs(cell / pair.positive_points[1] - math.sinh(dlam)) < 1e-14
    with pytest.raises(ValueError):
        ChiralGridPair(union=pair.union, n_negative=2)
    with pytest.raises(ValueError):
        ChiralGridPair(union=rapidity_grid(1.0, 6), n_negative=3)


def test_momentum_grid_validation():
    with pytest.raises(ValueError):
        MomentumGrid(np.array([0.0, 1.0]), np.array([1.0, 1.0]), 1.0)
    with pytest.raises(ValueError):
        MomentumGrid(np.array([2.0, 1.0]), np.array([1.0, 1.0]), 1.0)
    with pytest.raises(ValueError):
        MomentumGrid(np.array([1.0, 2.0]), np.array([1.0, -1.0]), 1.0)
    with pytest.raises(ValueError):
        MomentumGrid(np.array([1.0, 2.0]), np.array([1.0, 1.0]), -1.0)


def test_equal_arguments_share_one_read_only_grid():
    """Grids are memoized on their arguments taken as floats: an int or a float mass
    gives the same grid, whose mass is a float whichever call came first."""
    grid = rapidity_grid(2, 6)
    assert rapidity_grid(2.0, 6, -1.25, 1.25) is grid and type(grid.mass) is float
    pair = chiral_pair(3, 1, 4)
    assert chiral_pair(3, 1.0, 4.0) is pair and type(pair.union.mass) is float
    for arr in (grid.points, grid.weights, grid.omegas, pair.union.points, pair.positive_weights):
        assert not arr.flags.writeable


def test_a_grid_copies_the_arrays_it_is_given():
    points, weights = np.array([1.0, 2.0]), np.array([1.0, 1.0])
    grid = MomentumGrid(points, weights, 1.0)
    assert points.flags.writeable and weights.flags.writeable
    points[0] = 0.5
    assert grid.points[0] == 1.0 and not grid.points.flags.writeable


@pytest.mark.parametrize("points, weights, mass", [
    ([1.0, math.inf], [1.0, 1.0], 1.0),
    ([math.nan, 1.0], [1.0, 1.0], 1.0),
    ([1.0, 2.0], [1.0, math.inf], 1.0),
    ([1.0, 2.0], [1.0, 1.0], math.inf),
    ([1.0, 2.0], [1.0, 1.0], math.nan),
    ([1.0, 1e200], [1.0, 1.0], 1.0),  # omega overflows
    ([1e-200, 1.0], [1.0, 1.0], 0.0),  # omega underflows to 0
], ids=["point-inf", "point-nan", "weight-inf", "mass-inf", "mass-nan", "omega-overflows",
        "omega-underflows"])
def test_momentum_grid_rejects_non_finite_values(points, weights, mass):
    with pytest.raises(ValueError):
        MomentumGrid(np.array(points), np.array(weights), mass)


@pytest.mark.parametrize("make", [
    lambda: rapidity_grid(math.inf, 6),
    lambda: rapidity_grid(math.nan, 6),
    lambda: rapidity_grid(1.0, 6, -1.25, 1000.0),
    lambda: rapidity_grid(1.0, 2, -1e308, 1e308),
    lambda: rapidity_grid(1.0, 2, -355.0, 356.0),  # finite points, sinh(711) overflows
    lambda: chiral_pair(3, 0.5, 1e308),
    lambda: chiral_pair(3, 1e-320, 2.0),
    lambda: chiral_pair(3, 0.5, math.inf),
], ids=["mass-inf", "mass-nan", "sinh-overflows", "window-overflows", "spacing-overflows",
        "p-max-ratio-overflows", "p-min-ratio-overflows", "p-max-inf"])
def test_grid_builders_refuse_overflow_without_warning(make):
    """A ValueError, not a RuntimeWarning (which Tier-1 turns into an error)."""
    with pytest.raises(ValueError):
        make()


def test_omega_and_boost_momentum():
    assert omega(3.0, 4.0) == 5.0
    # massless boost contracts positive momenta and dilates negative ones
    lam = 0.7
    assert abs(boost_momentum(2.0, lam, 0.0) - 2.0 * math.exp(-lam)) < 1e-12
    assert abs(boost_momentum(-2.0, lam, 0.0) - (-2.0) * math.exp(lam)) < 1e-12
    # massive boost is a rapidity shift: m sinh(theta) -> m sinh(theta - lam)
    m, theta = 1.3, 0.9
    assert abs(boost_momentum(m * math.sinh(theta), lam, m)
               - m * math.sinh(theta - lam)) < 1e-12


def test_boost_blocks():
    g = rapidity_grid(1.0, 6)
    assert boost_blocks(g) == ((0, 6),)
    pair = chiral_pair(3)
    assert boost_blocks(pair.union) == ((0, 3), (3, 6))
    arb = MomentumGrid(np.array([1.0, 2.0]), np.array([1.0, 1.0]), 1.0)
    with pytest.raises(ValueError):
        boost_blocks(arb)

