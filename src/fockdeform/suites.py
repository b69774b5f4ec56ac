"""Named verification suites producing machine-readable pass/fail reports.

Every check certifies one operator identity or structural law, two ways where
it matters: action on seeded random vectors (fast) and an entrywise comparison
on the whole truncated space through the probe oracle of :mod:`dense`
(exhaustive).

:data:`CHECKS` lists every check once, as a :class:`Check`: its suite, name,
the anchor naming the identity family it certifies, and its bound (``None``
for the configured tolerance; 1e-12 for rounding-level roundtrips, exactly
0.0 for exact degenerations, 1e-3 for a negative control).  A suite is a
generator that yields ``(check name, deviation)`` pairs, each deviation a
non-negative scalar; it never decides a pass.  The runner folds each check's
yields with one NaN-propagating ``np.max`` into one :class:`CheckRecord`, in
table order.  A check that yields nothing records NaN; a yielded name that the
table does not list raises.

The pass rule lives in the runner alone: a record passes if and only if its
deviation is finite and at most its bound, or, for a negative control (a
check that must *detect* a mismatch), finite and above it.  The deviation a
record carries is the one that decided it.

All randomness flows from the configured seed through one derived stream per
suite, so identical configurations reproduce identical numbers.
"""

from __future__ import annotations

import functools
import math
import operator
import os
import time
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import chiral, dense, fock
from .deformation import (KernelSpec, SharpTwistVariant, _kernel_values,
                          annihilate_deformed, annihilate_deformed_sharp,
                          apply_kernel_phases, apply_pair_twist, create_deformed,
                          field_deformed, kernel, sharp_annihilate, sharp_momentum_twist,
                          wedge_invariant)
from .grids import ChiralGridPair, MomentumGrid, boost_momentum, chiral_pair, rapidity_grid
from .inner import (BlaschkeSpec, Root, check_symmetric_inner, eval_inner, eval_root,
                    make_root, merge_flip_sets, random_symmetric_blaschke, root_ratio,
                    scattering_from_inner, trivial_root)

REPORT_SCHEMA = "fockdeform-report/1"

# interval atoms for sign flips; pairwise disjoint and individually symmetric,
# so flip sets built from them compose by symmetric difference
FLIP_ATOMS = (
    ((0.3, 0.9), (-0.9, -0.3)),
    ((1.3, 2.1), (-2.1, -1.3)),
    ((2.8, 5.5), (-5.5, -2.8)),
)

# self-reciprocal atoms (a*b = 1), admissible as same-sign kernel extras
RECIPROCAL_ATOMS = (
    ((0.5, 2.0), (-2.0, -0.5)),
    ((0.2, 5.0), (-5.0, -0.2)),
)


class ConfigError(ValueError):
    """Invalid suite configuration."""


@dataclass(frozen=True)
class SuiteConfig:
    """Resolved configuration for a verification run."""

    tolerance: float = 1e-10
    seed: int = 7
    repetitions: int = 20
    truncation: int = 3
    root_count: int = 5
    roots: tuple[Root, ...] | None = None
    ratio_roots: tuple[Root, Root] | None = None
    suites: tuple[str, ...] | None = None
    massless_points_per_side: int = 3
    massless_p_min: float = 0.5
    massless_p_max: float = 2.0
    massive_mass: float = 1.0
    massive_size: int = 6
    massive_theta_min: float = -1.25
    massive_theta_max: float = 1.25

    def __post_init__(self):
        if not (math.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise ConfigError("tolerance must be finite and > 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.truncation < 2:
            raise ConfigError("truncation must be >= 2")
        if self.massless_points_per_side < 2 or self.massive_size < 2:
            raise ConfigError("grids need at least 2 points (per side)")
        if self.repetitions < 1 or self.root_count < 1:
            raise ConfigError("repetitions and root_count must be >= 1")
        if self.roots is not None and not self.roots:
            raise ConfigError("roots must hold at least one root")
        if self.suites is not None:
            if not self.suites:
                raise ConfigError("suites must name at least one suite")
            unknown = set(self.suites) - set(SUITE_NAMES)
            if unknown:
                raise ConfigError(f"unknown suites: {sorted(unknown)}")
        try:  # fail fast on grid parameters instead of mid-run
            self.massless_pair()
            self.massive_grid()
            self.massive_grid(size=4)
        except ValueError as exc:
            raise ConfigError(f"invalid grid parameters: {exc}") from exc

    def massless_pair(self) -> ChiralGridPair:
        return chiral_pair(self.massless_points_per_side,
                           self.massless_p_min, self.massless_p_max)

    def massive_grid(self, size: int | None = None) -> MomentumGrid:
        return rapidity_grid(self.massive_mass, size or self.massive_size,
                             self.massive_theta_min, self.massive_theta_max)

    def resolve_roots(self, rng: np.random.Generator) -> list[Root]:
        if self.roots:
            return list(self.roots)
        return [_random_root(rng) for _ in range(self.root_count)]


@dataclass(frozen=True)
class CheckRecord:
    suite: str
    check: str
    anchor: str
    max_deviation: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class SuiteReport:
    records: tuple[CheckRecord, ...]
    runtime_seconds: float
    seed: int
    config: dict

    @property
    def overall_pass(self) -> bool:
        return all(r.passed for r in self.records)


class Check(NamedTuple):
    """One table entry: ``bound`` None holds the check to the configured
    tolerance; a ``control`` passes when its deviation exceeds the bound."""

    suite: str
    name: str
    anchor: str
    bound: float | None = None
    control: bool = False


CHECKS = (
    Check("inner", "boundary-symmetry", "def:1.1(i)"),
    Check("inner", "root-reflection-symmetry", "def:1.1(ii)"),
    Check("inner", "root-squaring", "def:1.1(ii)"),
    Check("inner", "scattering-boundary-symmetry", "def:1.1(iii)"),
    Check("inner", "strip-crossing-via-sinh", "sec1:sinh-correspondence"),
    Check("inner", "ratio-classifies-same-square", "proposition:ChoiceOfRootDoesntMatter"),
    Check("inner", "ratio-rejects-distinct-squares", "proposition:ChoiceOfRootDoesntMatter",
          1e-3, control=True),
    Check("fock", "creation-is-weighted-adjoint", "sec1:ccr-adjoint", 1e-12),
    Check("fock", "ccr-below-truncation", "sec1:CCR"),
    Check("fock", "translation-multiplier", "eq:U1"),
    Check("fock", "boost-index-shift", "eq:U1"),
    Check("fock", "reflection-antiunitary", "eq:U1"),
    Check("fock", "field-hermitian", "sec1:phi_m"),
    Check("fock", "exponential-inner", "sec2:exponential-vectors"),
    Check("fock", "symmetrizer-projects", "eqn_isoexpli"),
    Check("kernel", "kernel-inverse-symmetry", "sec1:kernel-symmetry"),
    Check("kernel", "kernel-boost-invariance", "sec2:boost-invariance"),
    Check("kernel", "wedge-antisymmetric-invariant", "sec3:wedge"),
    Check("kernel", "massive-kernel-definition", "eq:R_m"),
    Check("kernel", "massless-kernel-values", "eq:R0"),
    Check("kernel", "generalized-kernel-symmetry", "eq:R0-generalized"),
    Check("deformed", "phase-dressing-unitary", "sec1:T_Rm"),
    Check("deformed", "annihilator-equals-dressed-sum", "eq:a_R-explicit"),
    Check("deformed", "deformed-adjoint-pair", "sec1:adjoint-aR", 1e-12),
    Check("deformed", "deformed-field-hermitian", "sec1:phi_Rm"),
    Check("deformed", "trivial-root-degeneration", "eq:a_R-explicit", 0.0),
    Check("root_equivalence", "pair-twist-unitary", "eq:Yr"),
    Check("root_equivalence", "pair-twist-maps-annihilators", "lemma:RootEquivalence"),
    Check("root_equivalence", "field-conjugation", "eq:UnitaryEquivalenceOfFields"),
    Check("root_equivalence", "detects-square-mismatch",
          "proposition:ChoiceOfRootDoesntMatter", 1e-3, control=True),
    Check("chiral", "merge-unitary", "eqn_isoexpli"),
    Check("chiral", "merge-exponentials", "eqn_isoexpo"),
    Check("chiral", "split-roundtrip", "eqn_isoexpli"),
    Check("chiral", "translation-intertwining", "sec1:chiral-splitting"),
    Check("chiral", "cross-twist-unitary", "eqn_Saction"),
    Check("chiral", "twist-square-is-squared-root", "sec2:S-squared"),
    Check("chiral", "merged-twist-lemma", "eq:Shat"),
    Check("chiral", "reflection-compatibility", "sec2:J-compat"),
    Check("chiral", "twist-boost-kernel-invariance", "sec2:boost-invariance"),
    Check("main_relation", "annihilator-equivalence-positive", "eq:Mainrel"),
    Check("main_relation", "annihilator-equivalence-negative", "eq:Mainrel"),
    Check("main_relation", "trivial-root-exact", "eq:Mainrel", 0.0),
    Check("main_relation", "trivial-root-roundtrip", "eq:Mainrel", 1e-12),
    Check("field_equivalence", "field-equivalence-positive", "thm:Algeq"),
    Check("field_equivalence", "field-equivalence-negative", "thm:Algeq"),
    Check("field_equivalence", "one-sided-data-realization", "eq:fpm"),
    Check("sharp", "conjugation-pairwise-sum", "sec3:sharp-twist"),
    Check("sharp", "conjugation-sign-split", "sec3:sharp-twist-sign-split"),
    Check("sharp", "variants-same-adjoint-action", "sec3:sharp-twist"),
    Check("sharp", "variants-differ-as-operators", "sec3:sharp-twist-sign-split",
          1e-3, control=True),
    Check("sharp", "twist-unitary-low-sectors", "sec3:sharp-twist"),
)

Deviations = Iterator[tuple[str, float]]


def _random_root(rng: np.random.Generator) -> Root:
    spec = random_symmetric_blaschke(rng)
    n_atoms = int(rng.integers(0, 3))
    flips = ()
    if n_atoms:
        for idx in rng.choice(len(FLIP_ATOMS), size=n_atoms, replace=False):
            flips = flips + FLIP_ATOMS[idx]
    return make_root(spec, flips)


def _nonzero_samples(rng: np.random.Generator, count: int, lo=0.02, hi=30.0) -> np.ndarray:
    return rng.uniform(lo, hi, size=count) * rng.choice([-1.0, 1.0], size=count)


def suite_inner(cfg: SuiteConfig, rng: np.random.Generator) -> Deviations:
    roots = cfg.resolve_roots(rng)
    t = _nonzero_samples(rng, 1000)

    for r in roots:
        rep = check_symmetric_inner(r.base, t)
        yield "boundary-symmetry", rep.max_conjugation_defect
        yield "boundary-symmetry", rep.max_reflection_defect

    for r in roots:
        vals = eval_root(r, t)
        yield "root-reflection-symmetry", np.max(np.abs(np.abs(vals) - 1.0))
        yield "root-reflection-symmetry", np.max(np.abs(vals * eval_root(r, -t) - 1.0))
        yield "root-reflection-symmetry", np.max(np.abs(np.conj(vals) - eval_root(r, -t)))

    for r in roots:
        bare = make_root(r.base)  # principal branch, no flips
        yield "root-squaring", np.max(np.abs(eval_root(bare, t) ** 2 - eval_inner(r.base, t)))
        yield "root-squaring", np.max(np.abs(eval_root(r, t) ** 2 - eval_inner(r.base, t)))

    theta = _nonzero_samples(rng, 200, 0.05, 3.0)
    for r in roots:
        s_vals = scattering_from_inner(r.base, theta)
        yield "scattering-boundary-symmetry", np.max(np.abs(np.conj(s_vals) - 1.0 / s_vals))
        yield "scattering-boundary-symmetry", np.max(np.abs(
            1.0 / s_vals - scattering_from_inner(r.base, -theta)))

    for r in roots:
        crossed = scattering_from_inner(r.base, 1j * math.pi + theta)
        yield "strip-crossing-via-sinh", np.max(np.abs(
            crossed - scattering_from_inner(r.base, -theta)))

    if cfg.ratio_roots is not None:
        r1, r2 = cfg.ratio_roots
    else:
        spec = roots[0].base
        r1 = make_root(spec, FLIP_ATOMS[0])
        r2 = make_root(spec, FLIP_ATOMS[1])
    rep = root_ratio(r1, r2, t)  # same square: the ratio is +-1 and even
    yield "ratio-classifies-same-square", rep.max_sign_defect
    yield "ratio-classifies-same-square", rep.max_reflection_defect

    specs = [random_symmetric_blaschke(rng) for _ in range(2)]
    rep = root_ratio(make_root(specs[0]), make_root(specs[1]), t)
    yield "ratio-rejects-distinct-squares", rep.max_sign_defect


def suite_fock(cfg: SuiteConfig, rng: np.random.Generator) -> Deviations:
    n_top = cfg.truncation
    grid = cfg.massive_grid(size=4)  # the ccr check reads every basis vector: smallest scale
    basis = dense.FockBasis(grid, n_top)
    xi = fock.random_one_particle(grid, rng)
    eta = fock.random_one_particle(grid, rng)

    create = dense.probe_entries(lambda v: fock.create(xi, v), dense.RAISE, basis)
    annih = dense.probe_entries(lambda v: fock.annihilate(xi, v), dense.LOWER, basis)
    yield "creation-is-weighted-adjoint", create.deviation(annih.adjoint())

    pairing = complex(np.sum(grid.weights * np.conj(xi) * eta))
    for (n, _), vec in zip(basis.labels, basis.vectors):
        if n > n_top - 2:
            continue
        comm = (fock.annihilate(xi, fock.create(eta, vec))
                - fock.create(eta, fock.annihilate(xi, vec)))
        yield "ccr-below-truncation", fock.norm(comm - pairing * vec)

    x = (float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
    for _ in range(cfg.repetitions):
        psi = fock.random_fock_vector(grid, n_top, rng)
        yield "translation-multiplier", abs(fock.norm(fock.apply_translation(x, psi))
                                            - fock.norm(psi))
    vac = fock.vacuum(grid, n_top)
    yield "translation-multiplier", fock.norm(fock.apply_translation(x, vac) - vac)
    one = fock.create(xi, vac)
    phases = np.exp(1j * (x[0] * grid.omegas - x[1] * grid.points))
    yield "translation-multiplier", np.max(np.abs(
        fock.apply_translation(x, one).sectors[1] - phases * np.sqrt(grid.weights) * xi))

    unit = np.eye(grid.size)
    for shift in (0, 1, -1):
        for k in range(grid.size):
            res = fock.apply_boost(shift, fock.create(unit[k], vac))
            if 0 <= k - shift < grid.size:
                yield "boost-index-shift", fock.norm(res.vector - fock.create(unit[k - shift], vac))
            else:
                yield "boost-index-shift", fock.norm(res.vector)
                yield "boost-index-shift", 0.0 if res.truncated else 1.0
    mid = fock.random_fock_vector(grid, n_top, rng)
    res = fock.apply_boost(0, mid)
    yield "boost-index-shift", fock.norm(res.vector - mid)

    for _ in range(cfg.repetitions):
        a = fock.random_fock_vector(grid, n_top, rng)
        b = fock.random_fock_vector(grid, n_top, rng)
        lhs = fock.inner(fock.apply_reflection(a), fock.apply_reflection(b))
        yield "reflection-antiunitary", abs(lhs - np.conj(fock.inner(a, b)))
        yield "reflection-antiunitary", fock.norm(
            fock.apply_reflection(fock.apply_reflection(a)) - a)
        yield "reflection-antiunitary", fock.norm(
            fock.apply_reflection(1j * a) + 1j * fock.apply_reflection(a))

    fd = fock.real_test_function(xi)
    field = dense.probe_entries(lambda v: fock.field(fd, v), dense.FIELD, basis)
    yield "field-hermitian", field.deviation(field.adjoint())
    phi_vac = fock.field(fd, vac)
    yield "field-hermitian", np.max(np.abs(
        phi_vac.sectors[1] - np.sqrt(grid.weights) * fd.fplus))
    for sec in phi_vac.sectors[2:]:
        yield "field-hermitian", np.max(np.abs(sec))

    xs, ys = 0.6 * xi, 0.6 * eta
    lhs = fock.inner(fock.exponential_vector(grid, xs, n_top),
                     fock.exponential_vector(grid, ys, n_top))
    pairing = complex(np.sum(grid.weights * np.conj(xs) * ys))
    rhs = sum(pairing ** n / math.factorial(n) for n in range(n_top + 1))
    yield "exponential-inner", abs(lhs - rhs)

    def roundtrip(sec, n, w=grid.weights):  # packed -> tensor -> packed: Symm projects
        return np.max(np.abs(fock.symmetrize(fock.sector_tensor(sec, w, n), w, n) - sec))

    raw = rng.standard_normal((grid.size,) * 3) + 1j * rng.standard_normal((grid.size,) * 3)
    yield "symmetrizer-projects", roundtrip(fock.symmetrize(raw, grid.weights, 3), 3)
    probe = fock.create(eta, fock.annihilate(xi, fock.random_fock_vector(grid, n_top, rng)))
    for n, sec in enumerate(probe.sectors):
        yield "symmetrizer-projects", roundtrip(sec, n)


def suite_kernel(cfg: SuiteConfig, rng: np.random.Generator) -> Deviations:
    roots = cfg.resolve_roots(rng)
    masses = (0.0, cfg.massive_mass)

    def sample_pairs(count):
        return (_nonzero_samples(rng, count, 0.1, 3.0),
                _nonzero_samples(rng, count, 0.1, 3.0))

    def worst_abs(values):
        return np.max(np.abs(values))

    def boosted(x, lam, mass):
        # boost_momentum's scalar math.sinh/cosh differ from numpy's array
        # sinh/cosh in the last bit, which the boost-invariance records amplify
        return np.array([boost_momentum(xi, li, mass) for xi, li in zip(x, lam)])

    for mass in masses:
        for r in roots:
            spec = KernelSpec(root=r, mass=mass)
            p, q = sample_pairs(100)
            yield "kernel-inverse-symmetry", worst_abs(
                _kernel_values(spec, q, p) * _kernel_values(spec, p, q) - 1.0)

    for mass in masses:
        for r in roots[:3]:
            spec = KernelSpec(root=r, mass=mass)
            p, q = sample_pairs(100)
            lam = rng.uniform(-1.5, 1.5, size=p.size)
            pb, qb = boosted(p, lam, mass), boosted(q, lam, mass)
            yield "kernel-boost-invariance", worst_abs(
                _kernel_values(spec, pb, qb) - _kernel_values(spec, p, q))

    # hand value (|q|p - |p|q)/2
    yield "wedge-antisymmetric-invariant", abs(wedge_invariant(2.0, -3.0, 0.0) - 6.0)
    for mass in masses:
        p, q = sample_pairs(100)
        lam = rng.uniform(-1.5, 1.5, size=p.size)
        yield "wedge-antisymmetric-invariant", worst_abs(
            wedge_invariant(p, q, mass) + wedge_invariant(q, p, mass))
        yield "wedge-antisymmetric-invariant", worst_abs(
            wedge_invariant(boosted(p, lam, mass), boosted(q, lam, mass), mass)
            - wedge_invariant(p, q, mass))

    spec = KernelSpec(root=roots[0], mass=cfg.massive_mass)
    p, q = sample_pairs(50)
    w = wedge_invariant(p, q, cfg.massive_mass)
    expected = np.ones(w.shape, dtype=complex)
    expected[w != 0.0] = eval_root(roots[0], w[w != 0.0])
    yield "massive-kernel-definition", worst_abs(_kernel_values(spec, p, q) - expected)

    spec = KernelSpec(root=roots[0], mass=0.0)
    p, q = sample_pairs(50)
    P, q_ = np.abs(p), -np.abs(q)
    for lhs, rhs in ((_kernel_values(spec, P, q_), eval_root(roots[0], -P * q_)),
                     (_kernel_values(spec, q_, P), eval_root(roots[0], q_ * P)),
                     (_kernel_values(spec, P, np.abs(q)), 1.0),
                     (_kernel_values(spec, q_, -np.abs(p)), 1.0)):
        yield "massless-kernel-values", worst_abs(lhs - rhs)

    extras = KernelSpec(root=roots[0], mass=0.0,
                        extra_pos=make_root(BlaschkeSpec((), 1), RECIPROCAL_ATOMS[0]),
                        extra_neg=make_root(BlaschkeSpec((), 1), RECIPROCAL_ATOMS[1]))
    p, q = sample_pairs(100)
    lam = rng.uniform(-1.0, 1.0, size=p.size)
    pb, qb = boosted(p, lam, 0.0), boosted(q, lam, 0.0)
    yield "generalized-kernel-symmetry", worst_abs(
        _kernel_values(extras, q, p) * _kernel_values(extras, p, q) - 1.0)
    yield "generalized-kernel-symmetry", worst_abs(
        _kernel_values(extras, pb, qb) - _kernel_values(extras, p, q))


def suite_deformed(cfg: SuiteConfig, rng: np.random.Generator) -> Deviations:
    n_top = cfg.truncation
    roots = cfg.resolve_roots(rng)
    grids = (cfg.massive_grid(), cfg.massless_pair().union)
    bases = [dense.FockBasis(grid, n_top) for grid in grids]

    for grid in grids:
        spec = KernelSpec(root=roots[0], mass=grid.mass)
        p_ref = float(grid.points[1])
        for _ in range(cfg.repetitions):
            psi = fock.random_fock_vector(grid, n_top, rng)
            yield "phase-dressing-unitary", abs(fock.norm(apply_kernel_phases(spec, p_ref, psi))
                                                - fock.norm(psi))
        vac = fock.vacuum(grid, n_top)
        yield "phase-dressing-unitary", fock.norm(apply_kernel_phases(spec, p_ref, vac) - vac)
        one = fock.create(fock.random_one_particle(grid, rng), vac)
        row = np.array([kernel(spec, p_ref, q) for q in grid.points])
        yield "phase-dressing-unitary", np.max(np.abs(
            apply_kernel_phases(spec, p_ref, one).sectors[1] - row * one.sectors[1]))

    for grid, basis in zip(grids, bases):
        for r in roots[:2]:
            spec = KernelSpec(root=r, mass=grid.mass)
            xi = fock.random_one_particle(grid, rng)

            def composed(v, spec=spec, xi=xi, grid=grid):
                return functools.reduce(operator.add, (
                    grid.weights[idx] * np.conj(xi[idx])
                    * sharp_annihilate(q, apply_kernel_phases(spec, q, v))
                    for idx, q in enumerate(grid.points)))

            yield "annihilator-equals-dressed-sum", dense.probe_deviation(
                lambda v: annihilate_deformed(spec, xi, v), composed, dense.LOWER, basis)

    for grid, basis in zip(grids, bases):
        for r in roots[:2]:
            spec = KernelSpec(root=r, mass=grid.mass)
            xi = fock.random_one_particle(grid, rng)
            mc = dense.probe_entries(lambda v: create_deformed(spec, xi, v), dense.RAISE, basis)
            ma = dense.probe_entries(lambda v: annihilate_deformed(spec, xi, v), dense.LOWER,
                                     basis)
            yield "deformed-adjoint-pair", mc.deviation(ma.adjoint())

    for grid, basis in zip(grids, bases):
        spec = KernelSpec(root=roots[0], mass=grid.mass)
        fd = fock.real_test_function(fock.random_one_particle(grid, rng))
        field = dense.probe_entries(lambda v: field_deformed(spec, fd, v), dense.FIELD, basis)
        yield "deformed-field-hermitian", field.deviation(field.adjoint())
        out = field_deformed(spec, fd, fock.vacuum(grid, n_top))
        yield "deformed-field-hermitian", np.max(np.abs(
            out.sectors[1] - np.sqrt(grid.weights) * fd.fplus))

    triv = trivial_root()
    for grid in grids:
        spec = KernelSpec(root=triv, mass=grid.mass)
        xi = fock.random_one_particle(grid, rng)
        for _ in range(3):
            psi = fock.random_fock_vector(grid, n_top, rng)
            diff_a = annihilate_deformed(spec, xi, psi) - fock.annihilate(xi, psi)
            diff_c = create_deformed(spec, xi, psi) - fock.create(xi, psi)
            for sec in diff_a.sectors + diff_c.sectors:
                yield "trivial-root-degeneration", np.max(np.abs(sec))


def suite_root_equivalence(cfg: SuiteConfig, rng: np.random.Generator) -> Deviations:
    n_top = cfg.truncation
    roots = cfg.resolve_roots(rng)
    base_spec = roots[0].base
    r1 = make_root(base_spec, FLIP_ATOMS[0])
    r2 = make_root(base_spec, FLIP_ATOMS[1])
    twist = make_root(BlaschkeSpec((), 1), merge_flip_sets(FLIP_ATOMS[0], FLIP_ATOMS[1]))
    grids = (cfg.massive_grid(), cfg.massless_pair().union)
    bases = [dense.FockBasis(grid, n_top) for grid in grids]

    def conjugated(y, op):  # a +-1 pair twist is real and self-adjoint
        return lambda v: apply_pair_twist(y, op(apply_pair_twist(y, v)))

    for grid in grids:
        for _ in range(cfg.repetitions):
            psi = fock.random_fock_vector(grid, n_top, rng)
            yield "pair-twist-unitary", abs(fock.norm(apply_pair_twist(twist, psi))
                                            - fock.norm(psi))
        vac = fock.vacuum(grid, n_top)
        yield "pair-twist-unitary", fock.norm(apply_pair_twist(twist, vac) - vac)
        x = (0.7, -0.4)
        psi = fock.random_fock_vector(grid, n_top, rng)
        yield "pair-twist-unitary", fock.norm(
            apply_pair_twist(twist, fock.apply_translation(x, psi))
            - fock.apply_translation(x, apply_pair_twist(twist, psi)))

    for grid, basis in zip(grids, bases):
        spec2 = KernelSpec(root=r2, mass=grid.mass)
        spec1 = KernelSpec(root=r1, mass=grid.mass)
        xi = fock.random_one_particle(grid, rng)
        yield "pair-twist-maps-annihilators", dense.probe_deviation(
            conjugated(twist, lambda v: annihilate_deformed(spec2, xi, v)),
            lambda v: annihilate_deformed(spec1, xi, v), dense.LOWER, basis)

    for grid, basis in zip(grids, bases):
        spec2 = KernelSpec(root=r2, mass=grid.mass)
        spec1 = KernelSpec(root=r1, mass=grid.mass)
        fd = fock.real_test_function(fock.random_one_particle(grid, rng))
        yield "field-conjugation", dense.probe_deviation(
            conjugated(twist, lambda v: field_deformed(spec2, fd, v)),
            lambda v: field_deformed(spec1, fd, v), dense.FIELD, basis)

    # negative control: roots of different squares are not related by any
    # candidate +-1 twist from the atom pool
    grid, basis = grids[0], bases[0]
    spec_a = KernelSpec(root=make_root(random_symmetric_blaschke(rng)), mass=grid.mass)
    spec_b = KernelSpec(root=make_root(random_symmetric_blaschke(rng)), mass=grid.mass)
    fd = fock.real_test_function(fock.random_one_particle(grid, rng))
    m_target = dense.probe_image(lambda v: field_deformed(spec_a, fd, v), dense.FIELD, basis)
    candidates = [trivial_root(),
                  make_root(BlaschkeSpec((), 1), FLIP_ATOMS[0]),
                  make_root(BlaschkeSpec((), 1), FLIP_ATOMS[1])]

    def mismatch(cand):
        image = dense.probe_image(conjugated(cand, lambda v: field_deformed(spec_b, fd, v)),
                                  dense.FIELD, basis)
        return dense.matrix_deviation(image, m_target)

    # the closest candidate must still miss: a minimum, NaN if any is NaN
    yield "detects-square-mismatch", np.min([mismatch(cand) for cand in candidates])


def suite_chiral(cfg: SuiteConfig, rng: np.random.Generator) -> Deviations:
    n_top = cfg.truncation
    pair = cfg.massless_pair()
    grid = pair.union
    roots = cfg.resolve_roots(rng)
    fbasis = dense.FockBasis(grid, n_top)
    bbasis = dense.BiFockBasis(pair, n_top)

    # in union labels the merge is the identity relabelling
    yield "merge-unitary", dense.probe_entries(chiral.merge_chiral, dense.DIAGONAL, bbasis,
                                               fbasis).unitarity_defect()
    yield "merge-unitary", fock.norm(chiral.merge_chiral(chiral.bifock_vacuum(pair, n_top))
                                     - fock.vacuum(grid, n_top))
    for _ in range(cfg.repetitions):
        u = chiral.random_bifock(pair, n_top, rng)
        v = chiral.random_bifock(pair, n_top, rng)
        yield "merge-unitary", abs(fock.inner(chiral.merge_chiral(u), chiral.merge_chiral(v))
                                   - chiral.bifock_inner(u, v))

    psi_pos = 0.7 * (rng.standard_normal(pair.n_positive)
                     + 1j * rng.standard_normal(pair.n_positive))
    phi_neg = 0.7 * (rng.standard_normal(pair.n_negative)
                     + 1j * rng.standard_normal(pair.n_negative))
    merged = chiral.merge_chiral(chiral.exponential_pair(pair, psi_pos, phi_neg, n_top))
    expected = fock.exponential_vector(grid, np.concatenate([phi_neg, psi_pos]), n_top)
    yield "merge-exponentials", fock.norm(merged - expected)

    for _ in range(max(1, cfg.repetitions // 2)):
        psi = fock.random_fock_vector(grid, n_top, rng)
        yield "split-roundtrip", fock.norm(chiral.merge_chiral(chiral.split_chiral(psi, pair))
                                           - psi)
        xi = chiral.random_bifock(pair, n_top, rng)
        yield "split-roundtrip", chiral.bifock_norm(
            chiral.split_chiral(chiral.merge_chiral(xi), pair) - xi)

    x = (0.9, -0.3)
    for _ in range(5):
        xi = chiral.random_bifock(pair, n_top, rng)
        lhs = fock.apply_translation(x, chiral.merge_chiral(xi))
        rhs = chiral.merge_chiral(chiral.apply_translation_bifock(x, xi))
        yield "translation-intertwining", fock.norm(lhs - rhs)

    root = roots[0]
    for _ in range(cfg.repetitions):
        xi = chiral.random_bifock(pair, n_top, rng)
        yield "cross-twist-unitary", abs(chiral.bifock_norm(chiral.apply_cross_twist(root, xi))
                                         - chiral.bifock_norm(xi))
        twisted = chiral.apply_cross_twist(root, chiral.apply_translation_bifock(x, xi))
        yield "cross-twist-unitary", chiral.bifock_norm(
            twisted - chiral.apply_translation_bifock(x, chiral.apply_cross_twist(root, xi)))
    vac = chiral.bifock_vacuum(pair, n_top)
    yield "cross-twist-unitary", chiral.bifock_norm(chiral.apply_cross_twist(root, vac) - vac)
    one_sided = chiral.bifock_zero(pair, n_top)
    one_sided.components[(2, 0)][:, 0] = fock.symmetrize(
        rng.standard_normal((pair.n_positive,) * 2), pair.positive_weights, 2)
    yield "cross-twist-unitary", chiral.bifock_norm(
        chiral.apply_cross_twist(root, one_sided) - one_sided)

    for r in roots[:3]:
        smat_sq = chiral.cross_matrix(grid, lambda a, r=r: eval_inner(r.base, a))
        for _ in range(3):
            xi = chiral.random_bifock(pair, n_top, rng)
            twice = chiral.apply_cross_twist(r, chiral.apply_cross_twist(r, xi))
            squared = chiral.apply_cross_twist_matrix(
                pair, smat_sq[pair.n_negative:, :pair.n_negative], xi)
            yield "twist-square-is-squared-root", chiral.bifock_norm(twice - squared)
        for _ in range(3):
            psi = fock.random_fock_vector(grid, n_top, rng)
            twice = chiral.apply_cross_twist_fock(r, chiral.apply_cross_twist_fock(r, psi))
            squared = fock.apply_pair_phase(smat_sq, psi)
            yield "twist-square-is-squared-root", fock.norm(twice - squared)

    for r in roots:
        yield "merged-twist-lemma", dense.probe_deviation(
            lambda v: chiral.apply_cross_twist_fock(r, v),
            lambda v: chiral.merge_chiral(
                chiral.apply_cross_twist(r, chiral.split_chiral(v, pair))),
            dense.DIAGONAL, fbasis)
    psi = fock.random_fock_vector(grid, n_top, rng)
    low = chiral.apply_cross_twist_fock(roots[0], psi)
    for n in (0, 1):
        yield "merged-twist-lemma", np.max(np.abs(low.sectors[n] - psi.sectors[n]))

    for r in roots[:3]:
        psi = fock.random_fock_vector(grid, n_top, rng)
        lhs = fock.apply_reflection(chiral.apply_cross_twist_fock(r, psi))
        rhs = chiral.apply_cross_twist_fock(r, fock.apply_reflection(psi), adjoint=True)
        yield "reflection-compatibility", fock.norm(lhs - rhs)
        xi = chiral.random_bifock(pair, n_top, rng)
        lhs_b = chiral.apply_reflection_bifock(chiral.apply_cross_twist(r, xi))
        rhs_b = chiral.apply_cross_twist(r, chiral.apply_reflection_bifock(xi), adjoint=True)
        yield "reflection-compatibility", chiral.bifock_norm(lhs_b - rhs_b)

    root = roots[0]
    for _ in range(20):
        lam = float(rng.uniform(-1.2, 1.2))
        for p in pair.positive_points:
            for q in pair.negative_points:
                lhs = eval_root(root, -(math.exp(-lam) * p) * (math.exp(lam) * q))
                yield "twist-boost-kernel-invariance", abs(lhs - eval_root(root, -p * q))


def _one_sided_amplitude(pair: ChiralGridPair, side: str,
                         rng: np.random.Generator) -> np.ndarray:
    amp = np.zeros(pair.union.size, dtype=complex)
    half = slice(pair.n_negative, None) if side == "+" else slice(pair.n_negative)
    amp[half] = rng.standard_normal(amp[half].size) + 1j * rng.standard_normal(amp[half].size)
    return amp


def suite_main_relation(cfg: SuiteConfig, rng: np.random.Generator) -> Deviations:
    n_top = cfg.truncation
    pair = cfg.massless_pair()
    roots = cfg.resolve_roots(rng)

    for side, name in (("+", "annihilator-equivalence-positive"),
                       ("-", "annihilator-equivalence-negative")):
        for r in roots:
            rep = chiral.check_annihilator_equivalence(
                r, _one_sided_amplitude(pair, side, rng), pair, n_top, rng, n_vectors=3)
            yield name, rep.max_deviation

    triv = trivial_root()
    basis = dense.FockBasis(pair.union, n_top)
    spec = KernelSpec(root=triv, mass=0.0)

    def image(op):
        return dense.probe_image(op, dense.LOWER, basis)

    for side in ("+", "-"):
        amp = _one_sided_amplitude(pair, side, rng)
        m_plain = image(lambda v: fock.annihilate(amp, v))
        m_deformed = image(lambda v: annihilate_deformed(spec, amp, v))
        m_direct = image(lambda v: chiral.twisted_annihilator(triv, amp, pair, v, "direct"))
        m_split = image(lambda v: chiral.twisted_annihilator(triv, amp, pair, v, "split"))
        yield "trivial-root-exact", dense.matrix_deviation(m_deformed, m_plain)
        yield "trivial-root-exact", dense.matrix_deviation(m_direct, m_plain)
        yield "trivial-root-roundtrip", dense.matrix_deviation(m_split, m_plain)


def suite_field_equivalence(cfg: SuiteConfig, rng: np.random.Generator) -> Deviations:
    n_top = cfg.truncation
    pair = cfg.massless_pair()
    roots = cfg.resolve_roots(rng)

    for side, name in (("+", "field-equivalence-positive"),
                       ("-", "field-equivalence-negative")):
        for r in roots:
            fd = fock.real_test_function(_one_sided_amplitude(pair, side, rng))
            rep = chiral.check_field_equivalence(r, fd, pair, n_top, rng, n_vectors=3)
            yield name, rep.max_deviation

    bbasis = dense.BiFockBasis(pair, n_top)
    g = rng.standard_normal(pair.n_positive) + 1j * rng.standard_normal(pair.n_positive)
    field = dense.probe_entries(lambda v: chiral.chiral_field("+", g, v), dense.FIELD, bbasis)
    yield "one-sided-data-realization", field.deviation(field.adjoint())
    created = chiral.chiral_field("+", g, chiral.bifock_vacuum(pair, n_top))
    yield "one-sided-data-realization", np.max(np.abs(
        created.components[(1, 0)][:, 0] - np.sqrt(pair.positive_weights) * g))
    yield "one-sided-data-realization", np.max(np.abs(created.components[(0, 1)]))


def suite_sharp(cfg: SuiteConfig, rng: np.random.Generator) -> Deviations:
    n_top = cfg.truncation
    roots = cfg.resolve_roots(rng)
    grids = (cfg.massive_grid(), cfg.massless_pair().union)
    bases = [dense.FockBasis(grid, n_top) for grid in grids]
    conjugation_check = {SharpTwistVariant.PAIRWISE_SUM: "conjugation-pairwise-sum",
                         SharpTwistVariant.SIGN_SPLIT: "conjugation-sign-split"}

    def conjugation(spec, variant, p):
        def op(v):
            out = sharp_momentum_twist(spec, variant, p, v, adjoint=True)
            out = sharp_annihilate(p, out)
            return sharp_momentum_twist(spec, variant, p, out)
        return op

    for grid, basis, grid_roots in zip(grids, bases, (roots, roots[:2])):
        for r in grid_roots:
            spec = KernelSpec(root=r, mass=grid.mass)
            for idx, p in enumerate(grid.points.tolist()):
                sharp = dense.removal(idx)
                m_target = dense.probe_image(
                    lambda v: annihilate_deformed_sharp(spec, p, v), sharp, basis)
                images = []
                for variant in SharpTwistVariant:
                    images.append(dense.probe_image(conjugation(spec, variant, p), sharp, basis))
                    yield conjugation_check[variant], dense.matrix_deviation(images[-1], m_target)
                    twist = dense.probe_entries(
                        lambda v: sharp_momentum_twist(spec, variant, p, v), dense.DIAGONAL, basis)
                    yield "twist-unitary-low-sectors", twist.unitarity_defect()
                yield "variants-same-adjoint-action", dense.matrix_deviation(*images)

    # negative control on the construction itself: a generic control root must
    # separate the two variants even when the configured roots are degenerate
    grid, basis = grids[0], bases[0]
    control = KernelSpec(root=make_root(random_symmetric_blaschke(rng)), mass=grid.mass)
    for p in grid.points:
        p = float(p)
        yield "variants-differ-as-operators", dense.probe_deviation(
            lambda v: sharp_momentum_twist(control, SharpTwistVariant.PAIRWISE_SUM, p, v),
            lambda v: sharp_momentum_twist(control, SharpTwistVariant.SIGN_SPLIT, p, v),
            dense.DIAGONAL, basis)

    spec = KernelSpec(root=roots[0], mass=grid.mass)
    p_ref = float(grid.points[2])
    vac = fock.vacuum(grid, n_top)
    psi = fock.random_fock_vector(grid, n_top, rng)
    for variant in SharpTwistVariant:
        out = sharp_momentum_twist(spec, variant, p_ref, vac)
        yield "twist-unitary-low-sectors", fock.norm(out - vac)
        low = sharp_momentum_twist(spec, variant, p_ref, psi)
        for n in (0, 1):
            yield "twist-unitary-low-sectors", np.max(np.abs(low.sectors[n] - psi.sectors[n]))


SUITES = {
    "inner": suite_inner,
    "fock": suite_fock,
    "kernel": suite_kernel,
    "deformed": suite_deformed,
    "root_equivalence": suite_root_equivalence,
    "chiral": suite_chiral,
    "main_relation": suite_main_relation,
    "field_equivalence": suite_field_equivalence,
    "sharp": suite_sharp,
}
SUITE_NAMES = tuple(SUITES)


def check_memory(cfg: SuiteConfig) -> None:
    """Refuse, before any suite starts, a run whose largest arrays exceed physical memory.

    The tower on M grid points (the larger configured grid) has D = binom(M +
    N, N) labels, and a probe oracle on it 1 + N * M columns (:mod:`dense`).
    Counted in complex entries: two copies of one ladder gather over a block
    of probe columns, D * M * (columns per block); four probe images, D * (1 +
    N * M); three copies of the (M,)*N Gaussian tensor that a random vector
    draws; and the basis vectors of the fock suite's 4-point tower, D_4^2.
    The inner and kernel suites build no tower.
    """
    selected = cfg.suites if cfg.suites is not None else SUITE_NAMES
    if set(selected) <= {"inner", "kernel"}:
        return
    m, n = max(2 * cfg.massless_points_per_side, cfg.massive_size), cfg.truncation
    d = math.comb(m + n, n)
    columns = 1 + n * m
    per_block = min(columns, max(1, dense._BLOCK_ENTRIES // d))
    entries = 2 * d * m * per_block + 4 * d * columns + 3 * m ** n + math.comb(4 + n, n) ** 2
    need = np.dtype(complex).itemsize * entries
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ConfigError(f"the oracles and random vectors need about {need / 2 ** 30:.3g} GiB "
                          f"at once, more than the {have / 2 ** 30:.3g} GiB of physical "
                          "memory; lower truncation or the grid sizes")


def _suite_rng(seed: int, suite_name: str) -> np.random.Generator:
    index = SUITE_NAMES.index(suite_name)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def run_suite(cfg: SuiteConfig) -> SuiteReport:
    """Run the selected suites and fold each check's yields into its record.

    Each suite draws from its own seed-derived stream, so the records do not
    depend on which other suites run alongside.  This is the only place a
    check passes or fails (see the module docstring).
    """
    from .cliconfig import config_to_json

    selected = cfg.suites if cfg.suites is not None else SUITE_NAMES
    start = time.perf_counter()
    devs = {(c.suite, c.name): [] for c in CHECKS if c.suite in selected}
    for suite in SUITE_NAMES:
        if suite in selected:
            for name, dev in SUITES[suite](cfg, _suite_rng(cfg.seed, suite)):
                devs[suite, name].append(dev)  # KeyError: a check CHECKS does not list
    records = []
    for c in CHECKS:
        if c.suite in selected:
            dev = float(np.max(devs[c.suite, c.name] or [math.nan]))
            bound = cfg.tolerance if c.bound is None else c.bound
            passed = math.isfinite(dev) and (dev > bound if c.control else dev <= bound)
            records.append(CheckRecord(suite=c.suite, check=c.name, anchor=c.anchor,
                                       max_deviation=dev, tolerance=bound, passed=passed))
    runtime = time.perf_counter() - start
    return SuiteReport(records=tuple(records), runtime_seconds=runtime,
                       seed=cfg.seed, config=config_to_json(cfg))
