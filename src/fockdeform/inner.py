"""Symmetric inner functions, their square roots, and scattering boundary values.

A finite Blaschke product with zeros in the open upper half plane has
unimodular boundary values on the real line.  If the zero multiset is closed
under a -> -conj(a), the boundary function phi additionally satisfies

    conj(phi(t)) = phi(t)**-1 = phi(-t)      (t real, t != 0),

which is the symmetry class used throughout this package.  A *root* of such a
phi is a unimodular function R with R**2 = phi and the same reflection
symmetry; roots are fixed only up to measurable +-1 factors, realized here as
symmetric sign-flip intervals on top of a principal half-phase branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

POLE_EPSILON = 1e-8


class PoleProximityError(ValueError):
    """Evaluation point too close to a pole conj(a_k) of the Blaschke product."""


@dataclass(frozen=True)
class BlaschkeSpec:
    """Finite Blaschke product sign * prod_k (z - a_k) / (z - conj(a_k)).

    ``zeros`` must lie in the open upper half plane.  The boundary symmetry
    phi(-t) = phi(t)**-1 additionally requires the zero multiset to be closed
    under a -> -conj(a); that closure is *checked*, not enforced, so that
    defective inputs can be diagnosed by :func:`check_symmetric_inner`.
    """

    zeros: tuple[complex, ...]
    sign: int = 1

    def __post_init__(self):
        object.__setattr__(self, "zeros", tuple(complex(a) for a in self.zeros))
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign!r}")
        for a in self.zeros:
            if not a.imag > 0.0:
                raise ValueError(f"zero {a} is not in the open upper half plane")

    def closure_defect(self) -> float:
        """Max distance from any reflected zero -conj(a) to the zero multiset."""
        if not self.zeros:
            return 0.0
        remaining = list(self.zeros)
        worst = 0.0
        for a in self.zeros:
            target = -a.conjugate()
            dists = [abs(b - target) for b in remaining]
            k = int(np.argmin(dists))
            worst = max(worst, dists[k])
            remaining.pop(k)
        return worst


@dataclass(frozen=True)
class Root:
    """Square root of a symmetric Blaschke boundary function.

    The principal branch is the half of the continuous phase of phi on (0, oo),
    extended to negative arguments by R(-t) := conj(R(t)).  ``flips`` is a list
    of closed intervals, symmetric under t -> -t as a set, on which an extra
    factor -1 is applied.  Use :func:`make_root` to construct validated
    instances.
    """

    base: BlaschkeSpec
    flips: tuple[tuple[float, float], ...] = field(default_factory=tuple)


def eval_inner(spec: BlaschkeSpec, z):
    """Evaluate the Blaschke product at z (scalar or array) with Im z >= 0.

    On the real line the result is unimodular.  Raises
    :class:`PoleProximityError` when z comes within ``POLE_EPSILON`` of a pole.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(z.imag < -1e-12):
        raise ValueError("evaluation requires Im z >= 0")
    out = np.full(z.shape, complex(spec.sign), dtype=complex)
    for a in spec.zeros:
        den = z - a.conjugate()
        if np.any(np.abs(den) < POLE_EPSILON):
            raise PoleProximityError(
                f"evaluation point within {POLE_EPSILON} of pole {a.conjugate()}"
            )
        out *= (z - a) / den
    return out if out.shape else complex(out)


def _continuous_phase(spec: BlaschkeSpec, t):
    """Continuous argument of phi along the real line.

    Each factor contributes -2*atan2(Im a, t - Re a), continuous in t and
    increasing from -2pi to 0, so the total phase has no branch cuts at
    finite t.
    """
    t = np.asarray(t, dtype=float)
    phase = np.zeros(t.shape)
    if spec.sign == -1:
        phase += math.pi
    for a in spec.zeros:
        phase += -2.0 * np.arctan2(a.imag, t - a.real)
    return phase


def _flip_sign(flips, t):
    t = np.asarray(t, dtype=float)
    sign = np.ones(t.shape)
    for lo, hi in flips:
        sign = np.where((t >= lo) & (t <= hi), -sign, sign)
    return sign


def _validate_flips(flips) -> tuple[tuple[float, float], ...]:
    out = []
    for iv in flips:
        lo, hi = float(iv[0]), float(iv[1])
        if not lo < hi:
            raise ValueError(f"flip interval {iv!r} is empty or reversed")
        if lo <= 0.0 <= hi:
            raise ValueError(f"flip interval {iv!r} contains 0")
        out.append((lo, hi))
    # pairwise disjoint
    for i, (a, b) in enumerate(out):
        for c, d in out[i + 1:]:
            if max(a, c) <= min(b, d):
                raise ValueError(f"flip intervals ({a},{b}) and ({c},{d}) overlap")
    # symmetric as a set under t -> -t (disjointness rules out duplicates)
    for a, b in out:
        if not any(abs(c + b) < 1e-12 and abs(d + a) < 1e-12 for c, d in out):
            raise ValueError(f"flip set is not symmetric: missing mirror of ({a},{b})")
    return tuple(sorted(out))


def make_root(spec: BlaschkeSpec, flips=()) -> Root:
    """Construct a root of the symmetric inner function phi defined by spec.

    The default branch (no flips) is the principal half-phase; other roots of
    the same phi differ by +-1 on symmetric interval sets.
    """
    if not spec.closure_defect() <= 1e-10:
        raise ValueError(
            "zero set is not closed under a -> -conj(a); "
            "no root with the reflection symmetry exists"
        )
    return Root(base=spec, flips=_validate_flips(flips))


def eval_root(root: Root, t):
    """Evaluate the root at real t != 0 (scalar or array); result is unimodular."""
    t = np.asarray(t, dtype=float)
    if np.any(t == 0.0):
        raise ValueError("root evaluation is undefined at t = 0")
    tpos = np.abs(t)
    base = np.exp(0.5j * _continuous_phase(root.base, tpos))
    out = np.where(t > 0.0, base, np.conj(base))
    out = out * _flip_sign(root.flips, t)
    return out if out.shape else complex(out)


def scattering_from_inner(spec: BlaschkeSpec, zeta):
    """Boundary-crossing-symmetric strip function S(zeta) = phi(sinh(zeta)).

    zeta must lie in the closed strip 0 <= Im zeta <= pi, which sinh maps into
    the closed upper half plane.
    """
    zeta = np.asarray(zeta, dtype=complex)
    if np.any((zeta.imag < -1e-12) | (zeta.imag > math.pi + 1e-12)):
        raise ValueError("zeta must satisfy 0 <= Im zeta <= pi")
    return eval_inner(spec, np.sinh(zeta))


@dataclass(frozen=True)
class InnerSymmetryReport:
    """Sampled deviations from conj(phi) = phi**-1 = phi(-t)."""

    max_conjugation_defect: float
    max_reflection_defect: float


def check_symmetric_inner(spec: BlaschkeSpec, samples) -> InnerSymmetryReport:
    """Check the defining boundary symmetries of phi on nonzero real samples."""
    t = np.asarray(samples, dtype=float)
    if t.size == 0 or np.any(t == 0.0):
        raise ValueError("samples must be nonempty and nonzero")
    vals = eval_inner(spec, t)
    vals_neg = eval_inner(spec, -t)
    inv = 1.0 / vals
    return InnerSymmetryReport(
        max_conjugation_defect=float(np.max(np.abs(np.conj(vals) - inv))),
        max_reflection_defect=float(np.max(np.abs(inv - vals_neg))),
    )


@dataclass(frozen=True)
class RootRatioReport:
    """Sampled defects of r(t) = R1(t)/R2(t) from a +-1-valued symmetric function:
    max |r**2 - 1| and max |r(-t) - r(t)|.

    Both vanish exactly when R1 and R2 are roots of the same inner function,
    i.e. R1**2 = R2**2 samplewise.
    """

    max_sign_defect: float
    max_reflection_defect: float


def root_ratio(r1: Root, r2: Root, samples) -> RootRatioReport:
    """How far two roots are from differing only by a +-1-valued symmetric factor."""
    t = np.asarray(samples, dtype=float)
    if t.size == 0 or np.any(t == 0.0):
        raise ValueError("samples must be nonempty and nonzero")
    ratio = eval_root(r1, t) / eval_root(r2, t)
    ratio_neg = eval_root(r1, -t) / eval_root(r2, -t)
    return RootRatioReport(
        max_sign_defect=float(np.max(np.abs(ratio ** 2 - 1.0))),
        max_reflection_defect=float(np.max(np.abs(ratio_neg - ratio))),
    )


def check_inversion_symmetry(root: Root, samples) -> float:
    """Max deviation from conj(R(t)) = R(1/t) on nonzero samples.

    This extra symmetry is required of the same-sign kernel extras in the
    massless generalized kernel; it holds e.g. for sign flips on intervals
    (a, b) with a*b = 1.
    """
    t = np.asarray(samples, dtype=float)
    if np.any(t == 0.0):
        raise ValueError("samples must be nonzero")
    return float(np.max(np.abs(np.conj(eval_root(root, t)) - eval_root(root, 1.0 / t))))


def merge_flip_sets(flips_a, flips_b) -> tuple[tuple[float, float], ...]:
    """Symmetric difference of two flip-interval sets.

    Pointwise multiplication of two +-1 interval-flip functions flips exactly
    on the symmetric difference of their supports.  Only the case of pairwise
    equal-or-disjoint intervals is supported, which suffices when flip sets
    are built from a shared collection of atoms.
    """
    a = _validate_flips(flips_a)
    b = _validate_flips(flips_b)

    def same(u, v):
        return abs(u[0] - v[0]) < 1e-12 and abs(u[1] - v[1]) < 1e-12

    def overlaps(u, v):
        return max(u[0], v[0]) < min(u[1], v[1]) - 1e-15

    for u in a:
        for v in b:
            if overlaps(u, v) and not same(u, v):
                raise ValueError(
                    f"intervals {u} and {v} partially overlap; "
                    "merge supports only equal-or-disjoint intervals"
                )
    out = [u for u in a if not any(same(u, v) for v in b)]
    out += [v for v in b if not any(same(v, u) for u in a)]
    return tuple(sorted(out))


def random_symmetric_blaschke(rng: np.random.Generator) -> BlaschkeSpec:
    """Draw a random spec whose zero set is closed under a -> -conj(a).

    One to three zero pairs (alpha + i beta, -alpha + i beta) with beta
    bounded away from the real axis so that boundary evaluation stays well
    conditioned, and a random sign.
    """
    n_pairs = int(rng.integers(1, 4))
    zeros = []
    for _ in range(n_pairs):
        alpha = float(rng.uniform(0.2, 2.0))
        beta = float(rng.uniform(0.3, 2.0))
        zeros += [complex(alpha, beta), complex(-alpha, beta)]
    sign = int(rng.choice([-1, 1]))
    return BlaschkeSpec(zeros=tuple(zeros), sign=sign)


def trivial_root() -> Root:
    """The constant root R = 1 of the trivial inner function phi = 1."""
    return Root(base=BlaschkeSpec(zeros=(), sign=1), flips=())
