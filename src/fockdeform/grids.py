"""Momentum grids with quadrature weights for the measure dp / omega_m(p).

Two adapted layouts make Lorentz boosts exact index shifts:

* ``rapidity-uniform`` (m > 0): p_k = m*sinh(theta_0 + k*dtheta), where a
  boost by j*dtheta permutes grid points.
* ``geometric`` (m = 0): |p| runs over a geometric progression on each
  half-line, so the massless boost p -> exp(-lambda*sign(p))*p is an index
  shift within each half-line.

For both layouts the central-difference cell length divided by omega_m(p) is
the exact constant sinh(spacing), which is what the weights are set to; this
makes the boost shifts exactly norm preserving.  Momentum 0 is excluded from
every grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

LAYOUT_RAPIDITY = "rapidity-uniform"
LAYOUT_GEOMETRIC = "geometric"
LAYOUT_ARBITRARY = "arbitrary"


def omega(p, mass: float):
    """Relativistic energy (mass**2 + p**2)**0.5."""
    return np.sqrt(mass * mass + np.asarray(p, dtype=float) ** 2)


def boost_momentum(p, rapidity, mass: float):
    """Spatial part of the boosted on-shell two-momentum.

    p -> -sinh(rapidity)*omega_m(p) + cosh(rapidity)*p.  For m = 0 this is
    p*exp(-rapidity) on the positive half-line and p*exp(+rapidity) on the
    negative one.  An array of rapidities boosts elementwise (broadcast with
    p), bit for bit as one rapidity at a time: sinh and cosh come from
    math.sinh and math.cosh per value, which differ from numpy's in the last bit.
    """
    p = np.asarray(p, dtype=float)
    lam = np.asarray(rapidity, dtype=float)
    sinh, cosh = (np.fromiter(map(fn, lam.ravel().tolist()), float, lam.size).reshape(lam.shape)
                  for fn in (math.sinh, math.cosh))
    return -sinh * omega(p, mass) + cosh * p


@dataclass(frozen=True)
class MomentumGrid:
    """Strictly increasing nonzero momenta with positive, finite weights and energies."""

    points: np.ndarray
    weights: np.ndarray
    mass: float
    layout: str = LAYOUT_ARBITRARY
    omegas: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        wts = np.asarray(self.weights, dtype=float)
        if pts.ndim != 1 or pts.size < 1:
            raise ValueError("points must be a nonempty 1-d array")
        if wts.shape != pts.shape:
            raise ValueError("weights must match points in shape")
        with np.errstate(over="ignore"):  # not finite for a non-finite point or mass
            omegas = omega(pts, self.mass)
        if not (np.all(np.isfinite(wts)) and np.all(np.isfinite(omegas) & (omegas > 0.0))):
            raise ValueError("grid weights and energies omega_m(p) must be finite and > 0")
        if np.any(pts == 0.0):
            raise ValueError("grid points must be nonzero")
        if np.any(np.diff(pts) <= 0.0):
            raise ValueError("grid points must be strictly increasing")
        if np.any(wts <= 0.0):
            raise ValueError("weights must be strictly positive")
        if self.mass < 0.0:
            raise ValueError("mass must be >= 0")
        if self.layout not in (LAYOUT_RAPIDITY, LAYOUT_GEOMETRIC, LAYOUT_ARBITRARY):
            raise ValueError(f"unknown layout {self.layout!r}")
        # copied once valid: the grid owns its read-only arrays, and a caller's stays writeable
        for name, arr in (("points", pts.copy()), ("weights", wts.copy()), ("omegas", omegas)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def size(self) -> int:
        return self.points.size

    def same_as(self, other: "MomentumGrid") -> bool:
        return (self is other) or (
            self.mass == other.mass
            and np.array_equal(self.points, other.points)
            and np.array_equal(self.weights, other.weights)
        )


def rapidity_grid(mass: float, size: int, theta_min: float = -1.25,
                  theta_max: float = 1.25) -> MomentumGrid:
    """Rapidity-uniform grid p_k = m*sinh(theta_k) for m > 0.

    The rapidity window must not contain a grid point at theta = 0 (which
    would give p = 0); the default symmetric window with even size avoids it.
    Memoized on the arguments taken as floats: equal arguments share one grid.
    """
    return _rapidity_grid(float(mass), size, float(theta_min), float(theta_max))


@functools.lru_cache(maxsize=8)
def _rapidity_grid(mass: float, size: int, theta_min: float, theta_max: float) -> MomentumGrid:
    if not 0.0 < mass < math.inf:
        raise ValueError("rapidity layout requires a finite mass > 0")
    if size < 2:
        raise ValueError("need at least 2 points")
    with np.errstate(over="ignore", invalid="ignore"):  # MomentumGrid refuses inf and nan
        points = mass * np.sinh(np.linspace(theta_min, theta_max, size))
    dtheta = (theta_max - theta_min) / (size - 1)
    if np.any(points == 0.0):
        raise ValueError("rapidity window places a grid point at p = 0; shift it")
    try:
        weights = np.full(size, math.sinh(dtheta))
    except OverflowError as exc:
        raise ValueError(f"sinh of the rapidity spacing {dtheta} overflows") from exc
    return MomentumGrid(points, weights, mass, LAYOUT_RAPIDITY)


@dataclass(frozen=True)
class ChiralGridPair:
    """A massless grid split into its negative and positive half-lines.

    The union is an ordinary m = 0 geometric MomentumGrid (negative block
    first); positive and negative halves are views used by the tensor-product
    realization of the state space.
    """

    union: MomentumGrid
    n_negative: int

    def __post_init__(self):
        g = self.union
        if g.mass != 0.0:
            raise ValueError("chiral split requires mass 0")
        neg = g.points[:self.n_negative]
        pos = g.points[self.n_negative:]
        if np.any(neg >= 0.0) or np.any(pos <= 0.0) or pos.size == 0 or neg.size == 0:
            raise ValueError("n_negative does not split the grid by sign")

    @property
    def positive_points(self) -> np.ndarray:
        return self.union.points[self.n_negative:]

    @property
    def positive_weights(self) -> np.ndarray:
        return self.union.weights[self.n_negative:]

    @property
    def negative_points(self) -> np.ndarray:
        return self.union.points[:self.n_negative]

    @property
    def negative_weights(self) -> np.ndarray:
        return self.union.weights[:self.n_negative]

    @property
    def n_positive(self) -> int:
        return self.union.size - self.n_negative


def chiral_pair(points_per_side: int, p_min: float = 0.5,
                p_max: float = 2.0) -> ChiralGridPair:
    """Symmetric massless grid with geometric half-lines |p| in [p_min, p_max], memoized
    as :func:`rapidity_grid` is: equal arguments share one pair."""
    return _chiral_pair(points_per_side, float(p_min), float(p_max))


@functools.lru_cache(maxsize=8)
def _chiral_pair(points_per_side: int, p_min: float, p_max: float) -> ChiralGridPair:
    if points_per_side < 2:
        raise ValueError("need at least 2 points per side")
    if not (0.0 < p_min < p_max and math.isfinite(p_max / p_min)):
        raise ValueError("require 0 < p_min < p_max and a finite p_max / p_min")
    dlam = math.log(p_max / p_min) / (points_per_side - 1)
    pos = p_min * np.exp(dlam * np.arange(points_per_side))
    points = np.concatenate([-pos[::-1], pos])
    weights = np.full(points.size, math.sinh(dlam))
    grid = MomentumGrid(points, weights, 0.0, LAYOUT_GEOMETRIC)
    return ChiralGridPair(union=grid, n_negative=points_per_side)


def boost_blocks(grid: MomentumGrid) -> tuple[tuple[int, int], ...]:
    """Index blocks inside which a boost acts as a pure shift.

    One block for the rapidity layout; the two sign half-lines for the
    geometric layout.  Arbitrary layouts do not support boost shifts.
    """
    if grid.layout == LAYOUT_RAPIDITY:
        return ((0, grid.size),)
    if grid.layout == LAYOUT_GEOMETRIC:
        n_neg = int(np.sum(grid.points < 0.0))
        return ((0, n_neg), (n_neg, grid.size))
    raise ValueError(f"layout {grid.layout!r} does not support boost index shifts")
