"""Named verification suites producing machine-readable pass/fail reports.

Every check certifies one operator identity or structural law, by its action on
seeded random vectors or by an entrywise comparison on the whole truncated space
through the probe oracle of :mod:`dense` (exhaustive).  The two schemes meet in
the main relation and its field form, which the probe oracle alone certifies.

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

All randomness flows from the configured seed through two :class:`fock.Draws` streams
per suite (:func:`_suite_streams`), one for roots, samples and amplitudes and its child
for random vectors, so identical configurations reproduce identical numbers.
"""

from __future__ import annotations

import functools
import math
import os
import time
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import chiral, dense, fock
from .deformation import (KernelSpec, SharpTwistVariant, _kernel_values,
                          _delta, _sharp_twist_each, annihilate_deformed,
                          apply_kernel_phases, apply_pair_twist, create_deformed,
                          field_deformed, kernel, sharp_momentum_twist,
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


# admitted grid scales (SuiteConfig): the massive grid's mass and rapidity window, the
# massless grid's momenta |p| and quadrature weight sinh(log(p_max / p_min) / (points - 1))
MASS_RANGE = (1e-4, 100.0)
THETA_BOUND = 4.0
MOMENTUM_RANGE = (1e-4, 1e4)
WEIGHT_BOUND = 500.0

# bytes per grid point while a grid is built: the builder's momenta and weights, the grid's
# copies, energies and temporaries (traced: 45 per massless and 40 per massive point)
GRID_POINT_BYTES = 48
# bytes per root: suite_inner holds eval_root on its 1,000 samples for every root at once,
# plus the Root itself (traced: 16.4 kB per root at 1,000 and 4,000 roots)
ROOT_BYTES = 16_500
# memory_estimate counts grid sizes, roots, N and D up to here: 2**64 of any is more than memory
# holds
COUNT_CAP = 2 ** 64


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
        # refused before any grid is built: a run that does not fit in physical memory
        need = memory_estimate(self)
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if need > have:
            raise ConfigError(f"the run needs about {need / 2 ** 30:.3g} GiB at once, more than "
                              f"the {have / 2 ** 30:.3g} GiB of physical memory; lower truncation, "
                              "the grid sizes or root_count")
        try:  # fail fast on grid parameters instead of mid-run
            massless_weight = float(self.massless_pair().union.weights[0])
            self.massive_grid()
            self.massive_grid(size=4)
        except ValueError as exc:
            raise ConfigError(f"invalid grid parameters: {exc}") from exc
        # every deviation is absolute, and the weights, momenta and kernel arguments
        # scale it: beyond these bounds correct code was measured to fail checks
        # (README, "Admission")
        scales = (("massive_grid.mass", self.massive_mass, *MASS_RANGE),
                  ("massive_grid rapidity", max(abs(self.massive_theta_min),
                                                abs(self.massive_theta_max)), 0.0, THETA_BOUND),
                  ("massless_grid.p_min", self.massless_p_min, *MOMENTUM_RANGE),
                  ("massless_grid.p_max", self.massless_p_max, *MOMENTUM_RANGE),
                  ("massless_grid weight", massless_weight, 0.0, WEIGHT_BOUND))
        for what, value, low, high in scales:
            if not low <= value <= high:
                raise ConfigError(f"grid too extreme for absolute deviations: {what} {value:.4g} "
                                  f"outside [{low:g}, {high:g}]")

    def massless_pair(self) -> ChiralGridPair:
        return chiral_pair(self.massless_points_per_side,
                           self.massless_p_min, self.massless_p_max)

    def massive_grid(self, size: int | None = None) -> MomentumGrid:
        return rapidity_grid(self.massive_mass, size or self.massive_size,
                             self.massive_theta_min, self.massive_theta_max)

    def resolve_roots(self, rng: fock.Draws) -> list[Root]:
        if self.roots:
            return list(self.roots)
        return [_random_root(rng) for _ in range(self.root_count)]


@dataclass(frozen=True)
class CheckRecord:
    """One check's outcome; a ``control`` passes when its deviation exceeds
    ``tolerance`` (see :class:`Check`)."""

    suite: str
    check: str
    anchor: str
    max_deviation: float
    tolerance: float
    passed: bool
    control: bool


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


def _random_root(rng: fock.Draws) -> Root:
    spec = random_symmetric_blaschke(rng)
    n_atoms = int(rng.integers(0, 3))
    flips = ()
    if n_atoms:
        for idx in rng.choice(len(FLIP_ATOMS), size=n_atoms, replace=False):
            flips = flips + FLIP_ATOMS[idx]
    return make_root(spec, flips)


def _nonzero_samples(rng: fock.Draws, count: int, lo=0.02, hi=30.0) -> np.ndarray:
    return rng.uniform(lo, hi, size=count) * rng.choice([-1.0, 1.0], size=count)


def _norms(vec) -> np.ndarray:
    """The norm of each column of a batched vector."""
    return np.linalg.norm(vec.coefficients, axis=0)


def _inners(u, v) -> np.ndarray:
    """<u_j, v_j> for each column j of two batched vectors."""
    return np.sum(np.conj(u.coefficients) * v.coefficients, axis=0)


def suite_inner(cfg: SuiteConfig, rng: fock.Draws, vectors: fock.Draws) -> Deviations:
    roots = cfg.resolve_roots(rng)
    t = _nonzero_samples(rng, 1000)

    for r in roots:
        rep = check_symmetric_inner(r.base, t)
        yield "boundary-symmetry", rep.max_conjugation_defect
        yield "boundary-symmetry", rep.max_reflection_defect

    values = [eval_root(r, t) for r in roots]
    for r, vals in zip(roots, values):
        reflected = eval_root(r, -t)
        yield "root-reflection-symmetry", np.max(np.abs(np.abs(vals) - 1.0))
        yield "root-reflection-symmetry", np.max(np.abs(vals * reflected - 1.0))
        yield "root-reflection-symmetry", np.max(np.abs(np.conj(vals) - reflected))

    for r, vals in zip(roots, values):
        bare = make_root(r.base)  # principal branch, no flips
        phi = eval_inner(r.base, t)
        yield "root-squaring", np.max(np.abs((vals if bare == r else eval_root(bare, t)) ** 2
                                             - phi))
        yield "root-squaring", np.max(np.abs(vals ** 2 - phi))

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


def suite_fock(cfg: SuiteConfig, rng: fock.Draws, vectors: fock.Draws) -> Deviations:
    n_top = cfg.truncation
    grid = cfg.massive_grid(size=4)  # the ccr check reads sectors 0..N-2 whole: smallest scale
    basis = dense.FockBasis(grid, n_top)
    xi = fock.random_one_particle(grid, rng)
    eta = fock.random_one_particle(grid, rng)

    create = dense.probe_entries(lambda v: fock.create(xi, v), dense.RAISE, basis)
    annih = dense.probe_entries(lambda v: fock.annihilate(xi, v), dense.LOWER, basis)
    yield "creation-is-weighted-adjoint", create.deviation(annih.adjoint())

    # identity blocks over the labels of sectors 0..N-2, each as wide as copy_chunks charges
    # a ladder step
    pairing = complex(np.sum(grid.weights * np.conj(xi) * eta))
    below = fock._offsets(grid.size, n_top)[n_top - 1]
    width = dense.block_width(len(basis) * max(grid.size, n_top))
    for first, last in dense.block_runs(below, width):
        vec = basis._vector(np.eye(len(basis), last - first, -first, dtype=complex))
        comm = (fock.annihilate(xi, fock.create(eta, vec))
                - fock.create(eta, fock.annihilate(xi, vec)))
        yield "ccr-below-truncation", np.max(_norms(comm - pairing * vec))

    x = (float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
    for (psi,) in dense.random_batches(basis, cfg.repetitions, vectors):
        yield "translation-multiplier", np.max(np.abs(
            _norms(fock.apply_translation(x, psi)) - _norms(psi)))
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
    mid = fock.random_fock_vector(grid, n_top, vectors)
    res = fock.apply_boost(0, mid)
    yield "boost-index-shift", fock.norm(res.vector - mid)

    for a, b in dense.random_batches(basis, cfg.repetitions, vectors, group=2):
        lhs = _inners(fock.apply_reflection(a), fock.apply_reflection(b))
        yield "reflection-antiunitary", np.max(np.abs(lhs - np.conj(_inners(a, b))))
        yield "reflection-antiunitary", np.max(_norms(
            fock.apply_reflection(fock.apply_reflection(a)) - a))
        yield "reflection-antiunitary", np.max(_norms(
            fock.apply_reflection(1j * a) + 1j * fock.apply_reflection(a)))

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
    probe = fock.create(eta, fock.annihilate(xi, fock.random_fock_vector(grid, n_top, vectors)))
    for n, sec in enumerate(probe.sectors[:4]):  # up to the raw tensor's degree: M^n entries
        yield "symmetrizer-projects", roundtrip(sec, n)


def suite_kernel(cfg: SuiteConfig, rng: fock.Draws, vectors: fock.Draws) -> Deviations:
    roots = cfg.resolve_roots(rng)
    masses = (0.0, cfg.massive_mass)

    def sample_pairs(count):
        return (_nonzero_samples(rng, count, 0.1, 3.0),
                _nonzero_samples(rng, count, 0.1, 3.0))

    def worst_abs(values):
        return np.max(np.abs(values))

    def kernels(spec, *pairs):
        """K(p, q) for each (p, q) of ``pairs``, from one evaluation on the joined arguments."""
        values = _kernel_values(spec, *(np.concatenate(args) for args in zip(*pairs)))
        return np.split(values, np.cumsum([p.size for p, _ in pairs])[:-1])

    for mass in masses:
        for r in roots:
            spec = KernelSpec(root=r, mass=mass)
            p, q = sample_pairs(100)
            kqp, kpq = kernels(spec, (q, p), (p, q))
            yield "kernel-inverse-symmetry", worst_abs(kqp * kpq - 1.0)

    for mass in masses:
        for r in roots[:3]:
            spec = KernelSpec(root=r, mass=mass)
            p, q = sample_pairs(100)
            lam = rng.uniform(-1.5, 1.5, size=p.size)
            pb, qb = boost_momentum(p, lam, mass), boost_momentum(q, lam, mass)
            boosted, plain = kernels(spec, (pb, qb), (p, q))
            yield "kernel-boost-invariance", worst_abs(boosted - plain)

    # hand value (|q|p - |p|q)/2
    yield "wedge-antisymmetric-invariant", abs(wedge_invariant(2.0, -3.0, 0.0) - 6.0)
    for mass in masses:
        p, q = sample_pairs(100)
        lam = rng.uniform(-1.5, 1.5, size=p.size)
        yield "wedge-antisymmetric-invariant", worst_abs(
            wedge_invariant(p, q, mass) + wedge_invariant(q, p, mass))
        yield "wedge-antisymmetric-invariant", worst_abs(
            wedge_invariant(boost_momentum(p, lam, mass), boost_momentum(q, lam, mass), mass)
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
    pb, qb = boost_momentum(p, lam, 0.0), boost_momentum(q, lam, 0.0)
    kqp, kpq, boosted = kernels(extras, (q, p), (p, q), (pb, qb))
    yield "generalized-kernel-symmetry", worst_abs(kqp * kpq - 1.0)
    yield "generalized-kernel-symmetry", worst_abs(boosted - kpq)


def _root_chunks(roots, basis, pattern: dense.Pattern) -> list[tuple[Root, ...]]:
    """The roots in the runs of :func:`dense.copy_chunks` for ``pattern`` on ``basis``:
    each run shares one application of its operators, one root per slot."""
    return [tuple(roots[j] for j in chunk)
            for chunk in dense.copy_chunks(len(roots), basis, pattern)]


def _dressings(spec: KernelSpec, grid: MomentumGrid, truncation: int) -> np.ndarray:
    """Column q: the dressing K_q of :func:`apply_kernel_phases` against grid point q,
    prod_i K(p_q, p_{k_i}) per label in coefficient order, bit for bit; shape (D, M),
    read-only, from its own kernel evaluation (never :func:`annihilate_deformed`'s
    table), in runs of momenta whose slot gather is one block (:func:`dense.block_width`).
    Built once per run of roots, which holds at most two."""
    pts = grid.points
    rows = _kernel_values(spec, pts[:, None], pts)
    out = np.empty((fock._offsets(pts.size, truncation)[-1], pts.size), dtype=complex)
    for first, last in dense.block_runs(pts.size, dense.block_width(out.size * truncation)):
        out[:, first:last] = fock._slot_products(rows[first:last], truncation)
    out.setflags(write=False)
    return out


def _dressed_sum(dressings, xi, psi: fock.FockVector) -> fock.FockVector:
    """sum_q w_q conj(xi_q) a(q) K_q psi, K_q the dressing against q and a(q) the
    sharp annihilator, added in q order: the dressed-sum reference, which never
    reads the kernel table of :func:`annihilate_deformed`.  ``dressings`` holds the
    :func:`_dressings` table of each of P slots and ``xi`` the (P, M) stack of their
    amplitudes, one per slot of psi's first batch axis.  [a(q) K_q psi](lam) is
    sqrt(m_q(lam + q)) sqrt(w_q) / w_q times the dressed coefficient at lam + q: one
    gather of psi and of the tables through the up table, over the q that some slot's
    amplitude reads, multiplied in the per-momentum route's operand order (a complex
    product's rounding depends on it)."""
    coefs, w = psi.coefficients, psi.grid.weights
    tower, q = fock._tower(w.size, psi.truncation), np.flatnonzero(np.any(xi != 0, axis=0))
    up, w = tower.up[:, q], w[q]
    terms = coefs[up]  # [lam, q, slot] + batch
    fock._scale(terms, np.stack([table[up, q] for table in dressings], -1), out=terms)
    fock._scale(terms, np.sqrt(tower.up_mult[:, q], dtype=float) * (np.sqrt(w) * (1.0 / w)),
                out=terms)
    factors = np.expand_dims((w * np.conj(xi[:, q])).T, tuple(range(2, terms.ndim - 1)))
    out = np.zeros(coefs.shape, dtype=complex)
    for j in range(q.size):
        out[:len(terms)] += factors[j] * terms[:, j]
    return psi._with(out)


def _control_spec(grid: MomentumGrid, spec: BlaschkeSpec) -> KernelSpec:
    """A control root on ``grid``, its zeros scaled (a -> -conj(a) stays closed) by the median
    |w(p_i, p_j)| over distinct pairs: at any admitted mass, away from its limits on the grid."""
    i, j = np.triu_indices(grid.size, 1)
    args = np.sort(np.abs(wedge_invariant(grid.points[i], grid.points[j], grid.mass)))
    scale = float(args[(len(args) - 1) // 2] + args[len(args) // 2]) / 2  # np.median: numpy.ma
    return KernelSpec(root=make_root(BlaschkeSpec(tuple(scale * a for a in spec.zeros),
                                                  spec.sign)), mass=grid.mass)


def suite_deformed(cfg: SuiteConfig, rng: fock.Draws, vectors: fock.Draws) -> Deviations:
    n_top = cfg.truncation
    roots = cfg.resolve_roots(rng)
    grids = (cfg.massive_grid(), cfg.massless_pair().union)
    bases = [dense.FockBasis(grid, n_top) for grid in grids]

    for grid, basis in zip(grids, bases):
        spec = KernelSpec(root=roots[0], mass=grid.mass)
        p_ref = float(grid.points[1])
        for (psi,) in dense.random_batches(basis, cfg.repetitions, vectors):
            yield "phase-dressing-unitary", np.max(np.abs(
                _norms(apply_kernel_phases(spec, p_ref, psi)) - _norms(psi)))
        vac = fock.vacuum(grid, n_top)
        yield "phase-dressing-unitary", fock.norm(apply_kernel_phases(spec, p_ref, vac) - vac)
        one = fock.create(fock.random_one_particle(grid, rng), vac)
        row = np.array([kernel(spec, p_ref, q) for q in grid.points])
        yield "phase-dressing-unitary", np.max(np.abs(
            apply_kernel_phases(spec, p_ref, one).sectors[1] - row * one.sectors[1]))

    # the first two roots, one slot each: per run, each root's amplitude in turn, then
    # root by root the delta_p amplitudes of every grid point (no draw), one slot each
    for grid, basis in zip(grids, bases):
        for chunk in _root_chunks(roots[:2], basis, dense.LOWER):
            spec = tuple(KernelSpec(root=r, mass=grid.mass) for r in chunk)
            xi = np.stack([fock.random_one_particle(grid, rng) for _ in chunk])
            tables = [_dressings(s, grid, n_top) for s in spec]
            yield "annihilator-equals-dressed-sum", dense.probe_deviations((
                lambda v: annihilate_deformed(spec, xi, v),
                functools.partial(_dressed_sum, tables, xi)), dense.LOWER, basis,
                copies=len(chunk))[0]
            for root_spec, table in zip(spec, tables):
                for idx in dense.copy_chunks(grid.size, basis, dense.DIAGONAL):
                    deltas = _delta(grid.points[idx], grid)
                    yield "annihilator-equals-dressed-sum", dense.probe_deviations((
                        lambda v: annihilate_deformed((root_spec,) * len(idx), deltas, v),
                        functools.partial(_dressed_sum, [table] * len(idx), deltas)),
                        dense.removal(int(idx[0])), basis, copies=len(idx))[0]
            del tables, table  # freed before the next run builds its own

    for grid, basis in zip(grids, bases):
        for chunk in _root_chunks(roots[:2], basis, dense.LOWER):
            spec = tuple(KernelSpec(root=r, mass=grid.mass) for r in chunk)
            xi = np.stack([fock.random_one_particle(grid, rng) for _ in chunk])
            mc = dense.probe_entries(lambda v: create_deformed(spec, xi, v), dense.RAISE, basis,
                                     copies=len(chunk))
            ma = dense.probe_entries(lambda v: annihilate_deformed(spec, xi, v), dense.LOWER,
                                     basis, copies=len(chunk))
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
    for grid, basis in zip(grids, bases):
        spec = KernelSpec(root=triv, mass=grid.mass)
        xi = fock.random_one_particle(grid, rng)
        for (psi,) in dense.random_batches(basis, 3, vectors):
            diff_a = annihilate_deformed(spec, xi, psi) - fock.annihilate(xi, psi)
            diff_c = create_deformed(spec, xi, psi) - fock.create(xi, psi)
            for sec in diff_a.sectors + diff_c.sectors:
                yield "trivial-root-degeneration", np.max(np.abs(sec))


def suite_root_equivalence(cfg: SuiteConfig, rng: fock.Draws, vectors: fock.Draws) -> Deviations:
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

    for grid, basis in zip(grids, bases):
        for (psi,) in dense.random_batches(basis, cfg.repetitions, vectors):
            yield "pair-twist-unitary", np.max(np.abs(
                _norms(apply_pair_twist(twist, psi)) - _norms(psi)))
        vac = fock.vacuum(grid, n_top)
        yield "pair-twist-unitary", fock.norm(apply_pair_twist(twist, vac) - vac)
        x = (0.7, -0.4)
        psi = fock.random_fock_vector(grid, n_top, vectors)
        yield "pair-twist-unitary", fock.norm(
            apply_pair_twist(twist, fock.apply_translation(x, psi))
            - fock.apply_translation(x, apply_pair_twist(twist, psi)))

    for grid, basis in zip(grids, bases):
        spec2 = KernelSpec(root=r2, mass=grid.mass)
        spec1 = KernelSpec(root=r1, mass=grid.mass)
        xi = fock.random_one_particle(grid, rng)
        yield "pair-twist-maps-annihilators", dense.probe_deviations((
            conjugated(twist, lambda v: annihilate_deformed(spec2, xi, v)),
            lambda v: annihilate_deformed(spec1, xi, v)), dense.LOWER, basis)[0]

    for grid, basis in zip(grids, bases):
        spec2 = KernelSpec(root=r2, mass=grid.mass)
        spec1 = KernelSpec(root=r1, mass=grid.mass)
        fd = fock.real_test_function(fock.random_one_particle(grid, rng))
        yield "field-conjugation", dense.probe_deviations((
            conjugated(twist, lambda v: field_deformed(spec2, fd, v)),
            lambda v: field_deformed(spec1, fd, v)), dense.FIELD, basis)[0]

    # negative control: roots of different squares are not related by any
    # candidate +-1 twist from the atom pool
    grid, basis = grids[0], bases[0]
    spec_a, spec_b = (_control_spec(grid, random_symmetric_blaschke(rng)) for _ in range(2))
    fd = fock.real_test_function(fock.random_one_particle(grid, rng))
    candidates = [trivial_root(),
                  make_root(BlaschkeSpec((), 1), FLIP_ATOMS[0]),
                  make_root(BlaschkeSpec((), 1), FLIP_ATOMS[1])]
    ops = [lambda v: field_deformed(spec_a, fd, v)]
    ops += [conjugated(cand, lambda v: field_deformed(spec_b, fd, v)) for cand in candidates]
    # the closest candidate must still miss: NaN if any deviation is NaN
    yield "detects-square-mismatch", np.min(dense.probe_deviations(ops, dense.FIELD, basis))


def suite_chiral(cfg: SuiteConfig, rng: fock.Draws, vectors: fock.Draws) -> Deviations:
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
    for u, v in dense.random_batches(bbasis, cfg.repetitions, vectors, group=2):
        yield "merge-unitary", np.max(np.abs(
            _inners(chiral.merge_chiral(u), chiral.merge_chiral(v)) - _inners(u, v)))

    psi_pos = 0.7 * (rng.standard_normal(pair.n_positive)
                     + 1j * rng.standard_normal(pair.n_positive))
    phi_neg = 0.7 * (rng.standard_normal(pair.n_negative)
                     + 1j * rng.standard_normal(pair.n_negative))
    merged = chiral.merge_chiral(chiral.exponential_pair(pair, psi_pos, phi_neg, n_top))
    expected = fock.exponential_vector(grid, np.concatenate([phi_neg, psi_pos]), n_top)
    yield "merge-exponentials", fock.norm(merged - expected)

    for _ in range(max(1, cfg.repetitions // 2)):
        psi = fock.random_fock_vector(grid, n_top, vectors)
        yield "split-roundtrip", fock.norm(chiral.merge_chiral(chiral.split_chiral(psi, pair))
                                           - psi)
        xi = chiral.random_bifock(pair, n_top, vectors)
        yield "split-roundtrip", chiral.bifock_norm(
            chiral.split_chiral(chiral.merge_chiral(xi), pair) - xi)

    x = (0.9, -0.3)
    for (xi,) in dense.random_batches(bbasis, 5, vectors):
        lhs = fock.apply_translation(x, chiral.merge_chiral(xi))
        rhs = chiral.merge_chiral(chiral.apply_translation_bifock(x, xi))
        yield "translation-intertwining", np.max(_norms(lhs - rhs))

    root = roots[0]
    for (xi,) in dense.random_batches(bbasis, cfg.repetitions, vectors):
        yield "cross-twist-unitary", np.max(np.abs(
            _norms(chiral.apply_cross_twist(root, xi)) - _norms(xi)))
        twisted = chiral.apply_cross_twist(root, chiral.apply_translation_bifock(x, xi))
        translated = chiral.apply_translation_bifock(x, chiral.apply_cross_twist(root, xi))
        yield "cross-twist-unitary", np.max(_norms(twisted - translated))
    vac = chiral.bifock_vacuum(pair, n_top)
    yield "cross-twist-unitary", chiral.bifock_norm(chiral.apply_cross_twist(root, vac) - vac)
    one_sided = chiral.bifock_zero(pair, n_top)
    one_sided.components[(2, 0)][:, 0] = fock.symmetrize(
        rng.standard_normal((pair.n_positive,) * 2), pair.positive_weights, 2)
    yield "cross-twist-unitary", chiral.bifock_norm(
        chiral.apply_cross_twist(root, one_sided) - one_sided)

    for r in roots[:3]:
        smat_sq = chiral.cross_matrix(grid.points, lambda a, r=r: eval_inner(r.base, a))
        for (xi,) in dense.random_batches(bbasis, 3, vectors):
            twice = chiral.apply_cross_twist(r, chiral.apply_cross_twist(r, xi))
            squared = chiral.apply_cross_twist_matrix(
                pair, smat_sq[pair.n_negative:, :pair.n_negative], xi)
            yield "twist-square-is-squared-root", np.max(_norms(twice - squared))
        for (psi,) in dense.random_batches(fbasis, 3, vectors):
            twice = chiral.apply_cross_twist_fock(r, chiral.apply_cross_twist_fock(r, psi))
            squared = fock.apply_pair_phase(smat_sq, psi)
            yield "twist-square-is-squared-root", np.max(_norms(twice - squared))

    for chunk in _root_chunks(roots, fbasis, dense.DIAGONAL):
        yield "merged-twist-lemma", dense.probe_deviations((
            lambda v: chiral.apply_cross_twist_fock(chunk, v),
            lambda v: chiral.merge_chiral(
                chiral.apply_cross_twist(chunk, chiral.split_chiral(v, pair)))),
            dense.DIAGONAL, fbasis, copies=len(chunk))[0]
    psi = fock.random_fock_vector(grid, n_top, vectors)
    low = chiral.apply_cross_twist_fock(roots[0], psi)
    for n in (0, 1):
        yield "merged-twist-lemma", np.max(np.abs(low.sectors[n] - psi.sectors[n]))

    for r in roots[:3]:
        psi = fock.random_fock_vector(grid, n_top, vectors)
        lhs = fock.apply_reflection(chiral.apply_cross_twist_fock(r, psi))
        rhs = chiral.apply_cross_twist_fock(r, fock.apply_reflection(psi), adjoint=True)
        yield "reflection-compatibility", fock.norm(lhs - rhs)
        xi = chiral.random_bifock(pair, n_top, vectors)
        lhs_b = chiral.apply_reflection_bifock(chiral.apply_cross_twist(r, xi))
        rhs_b = chiral.apply_cross_twist(r, chiral.apply_reflection_bifock(xi), adjoint=True)
        yield "reflection-compatibility", chiral.bifock_norm(lhs_b - rhs_b)

    p, q = pair.positive_points[:, None], pair.negative_points[None, :]
    unboosted = eval_root(roots[0], -p * q)
    lam = np.array([float(rng.uniform(-1.2, 1.2)) for _ in range(20)])[:, None, None]
    # the boost factors by scalar math.exp, as for one sample; one root evaluation
    shrink, grow = (np.vectorize(math.exp)(sign * lam) for sign in (-1.0, 1.0))
    boosted = eval_root(roots[0], -(shrink * p) * (grow * q))
    for dev in np.max(np.abs(boosted - unboosted), axis=(1, 2)):
        yield "twist-boost-kernel-invariance", dev


def _one_sided_amplitude(pair: ChiralGridPair, side: str,
                         rng: fock.Draws) -> np.ndarray:
    amp = np.zeros(pair.union.size, dtype=complex)
    half = slice(pair.n_negative, None) if side == "+" else slice(pair.n_negative)
    amp[half] = rng.standard_normal(amp[half].size) + 1j * rng.standard_normal(amp[half].size)
    return amp


def _equivalence(name: str, roots, draw, deformed, twisted, pattern: dense.Pattern,
                 basis: dense.FockBasis) -> Deviations:
    """Compare, for each root, a deformed operator with its twist conjugation on both
    routes, "direct" and "split": the one place where the two schemes meet.

    The roots go in runs of :func:`_root_chunks`, one slot each, and ``draw()`` gives
    each root's one-particle data in turn.  The run's operators are
    ``deformed(chunk, data, v)`` and ``twisted(chunk, data, v, route)``, with the data
    stacked (one row per slot).  The three run together, block by block, on the probe
    columns of ``pattern`` (:func:`dense.probe_deviations`): per run and route, the probe
    deviation.
    """
    for chunk in _root_chunks(roots, basis, pattern):
        data = np.stack([draw() for _ in chunk])
        ops = [lambda v: deformed(chunk, data, v)]
        ops += [lambda v, route=route: twisted(chunk, data, v, route)
                for route in ("direct", "split")]
        for dev in dense.probe_deviations(ops, pattern, basis, copies=len(chunk)):
            yield name, dev


def _massless_specs(chunk) -> tuple[KernelSpec, ...]:
    return tuple(KernelSpec(root=r, mass=0.0) for r in chunk)


def suite_main_relation(cfg: SuiteConfig, rng: fock.Draws, vectors: fock.Draws) -> Deviations:
    n_top = cfg.truncation
    pair = cfg.massless_pair()
    roots = cfg.resolve_roots(rng)
    basis = dense.FockBasis(pair.union, n_top)

    for side, name in (("+", "annihilator-equivalence-positive"),
                       ("-", "annihilator-equivalence-negative")):
        yield from _equivalence(
            name, roots, lambda: _one_sided_amplitude(pair, side, rng),
            lambda chunk, amp, v: annihilate_deformed(_massless_specs(chunk), amp, v),
            lambda chunk, amp, v, route: chiral.twisted_annihilator(chunk, amp, pair, v, route),
            dense.LOWER, basis)

    triv = trivial_root()
    spec = KernelSpec(root=triv, mass=0.0)

    for side in ("+", "-"):
        amp = _one_sided_amplitude(pair, side, rng)
        ops = (lambda v: fock.annihilate(amp, v),
               lambda v: annihilate_deformed(spec, amp, v),
               lambda v: chiral.twisted_annihilator(triv, amp, pair, v, "direct"),
               lambda v: chiral.twisted_annihilator(triv, amp, pair, v, "split"))
        devs = dense.probe_deviations(ops, dense.LOWER, basis)
        yield from zip(("trivial-root-exact",) * 2 + ("trivial-root-roundtrip",), devs)


def suite_field_equivalence(cfg: SuiteConfig, rng: fock.Draws, vectors: fock.Draws) -> Deviations:
    n_top = cfg.truncation
    pair = cfg.massless_pair()
    roots = cfg.resolve_roots(rng)
    basis = dense.FockBasis(pair.union, n_top)

    for side, name in (("+", "field-equivalence-positive"),
                       ("-", "field-equivalence-negative")):
        yield from _equivalence(
            name, roots, lambda: _one_sided_amplitude(pair, side, rng),
            lambda chunk, amp, v: field_deformed(_massless_specs(chunk),
                                                 fock.real_test_function(amp), v),
            lambda chunk, amp, v, route: chiral.twisted_field(
                chunk, fock.real_test_function(amp), pair, v, route),
            dense.FIELD, basis)

    bbasis = dense.BiFockBasis(pair, n_top)
    g = rng.standard_normal(pair.n_positive) + 1j * rng.standard_normal(pair.n_positive)
    field = dense.probe_entries(lambda v: chiral.chiral_field("+", g, v), dense.FIELD, bbasis)
    yield "one-sided-data-realization", field.deviation(field.adjoint())
    created = chiral.chiral_field("+", g, chiral.bifock_vacuum(pair, n_top))
    yield "one-sided-data-realization", np.max(np.abs(
        created.components[(1, 0)][:, 0] - np.sqrt(pair.positive_weights) * g))
    yield "one-sided-data-realization", np.max(np.abs(created.components[(0, 1)]))


def suite_sharp(cfg: SuiteConfig, rng: fock.Draws, vectors: fock.Draws) -> Deviations:
    n_top = cfg.truncation
    roots = cfg.resolve_roots(rng)
    grids = (cfg.massive_grid(), cfg.massless_pair().union)
    bases = [dense.FockBasis(grid, n_top) for grid in grids]

    for grid, basis, grid_roots in zip(grids, bases, (roots, roots[:2])):
        # slot r M + j removes grid point j under root r; every removal reads the sector columns
        specs = [KernelSpec(root=r, mass=grid.mass) for r in grid_roots]
        for chunk in dense.copy_chunks(len(specs) * grid.size, basis, dense.DIAGONAL):
            spec, idx = tuple(specs[k // grid.size] for k in chunk), chunk % grid.size
            momenta, deltas = grid.points[idx], _delta(grid.points[idx], grid)
            sharp, copies = dense.removal(int(idx[0])), len(idx)
            twists = [functools.partial(_sharp_twist_each, spec, variant, momenta)
                      for variant in SharpTwistVariant]
            ops = [lambda v: annihilate_deformed(spec, deltas, v)]
            ops += [lambda v, twist=twist: twist(fock.annihilate(deltas, twist(v, adjoint=True)))
                    for twist in twists]
            devs = np.max([[dense.matrix_deviation(image, target) for image in images]
                           + [dense.matrix_deviation(*images)] for _, (target, *images)
                           in dense.probe_blocks(ops, sharp, basis, copies=copies)],
                          axis=0).tolist()
            for variant, twist, dev in zip(SharpTwistVariant, twists, devs):
                yield f"conjugation-{variant.value}", dev
                entries = dense.probe_entries(twist, dense.DIAGONAL, basis, copies=copies)
                yield "twist-unitary-low-sectors", entries.unitarity_defect()
            yield "variants-same-adjoint-action", devs[-1]

    # negative control on the construction itself: a generic control root must
    # separate the two variants even when the configured roots are degenerate
    grid, basis = grids[0], bases[0]
    control = _control_spec(grid, random_symmetric_blaschke(rng))
    for idx in dense.copy_chunks(grid.size, basis, dense.DIAGONAL):
        yield "variants-differ-as-operators", dense.probe_deviations([
            functools.partial(_sharp_twist_each, control, variant, grid.points[idx])
            for variant in SharpTwistVariant], dense.DIAGONAL, basis, copies=len(idx))[0]

    spec = KernelSpec(root=roots[0], mass=grid.mass)
    p_ref = float(grid.points[min(2, grid.size - 1)])
    vac = fock.vacuum(grid, n_top)
    psi = fock.random_fock_vector(grid, n_top, vectors)
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


def memory_estimate(cfg: SuiteConfig) -> int:
    """Bytes of a run's grids, roots, tables and blocks, its only arrays; only the grids and
    roots when no suite builds a tower.  :class:`SuiteConfig` refuses a run whose estimate
    exceeds physical memory.

    The grids take ``GRID_POINT_BYTES`` per point of the massless union grid, the massive grid
    and the fock suite's 4-point massive grid, and each of the R roots ``ROOT_BYTES``.  A table
    holds a fixed number of bytes per label of the tower on the larger grid: M points,
    D = binom(M + N, N) labels, u = M N / (M + N) up-table entries per label.  Per label:
    the tower (:func:`fock._tower`), 8 (2 N + 3 + u) + N + u bytes;
    the split layout and half-ladder indices (:mod:`chiral`), 32 + 8 (u + 2 N) bytes;
    the probe layout, 4 patterns' positions, ``maxsize`` plans (:mod:`dense`), 48 + 64 u + 40 each;
    one root's dressing table and its gather (:func:`_dressings`), M + 2 u complex entries;
    a ladder step's kernel factors (:func:`fock._ladder_terms`), N max(u, 2 N) entries;
    the ``maxsize`` pair and cross multipliers, P entries each (P <= R M: a diagonal run).
    Blocks: two ``dense._BLOCK_ENTRIES`` budgets, each charged g = max(M, N) as
    :func:`dense.copy_chunks` charges it for the step's (rows, g, P) coefficient and
    (rows, N, g, P) kernel-factor tables, at most the largest block: R roots' probe columns of
    a field (``dense.FIELD.width``, the widest pattern) or 2 ``repetitions`` vectors.  Not
    counted: the P M^2 kernel, cross and twist matrices.

    The estimate grows with each count, so grid sizes, R, N and D past ``COUNT_CAP`` count as
    ``COUNT_CAP``: the refusal stands and the arithmetic stays finite and cheap (D >= 2^min(M, N),
    so binom is taken only below min(M, N) = 64).
    """
    side, size, n, r = (min(count, COUNT_CAP) for count in (
        cfg.massless_points_per_side, cfg.massive_size, cfg.truncation,
        len(cfg.roots or ()) or cfg.root_count))
    held = GRID_POINT_BYTES * (2 * side + size + 4) + ROOT_BYTES * r
    if set(cfg.suites or SUITE_NAMES) <= {"inner", "kernel"}:
        return held
    m = max(2 * side, size)
    d = min(math.comb(m + n, n), COUNT_CAP) if min(m, n) < 64 else COUNT_CAP
    u = m * n / (m + n)
    block = min(dense._BLOCK_ENTRIES, d * max(r * dense.FIELD.width(m, n), 2 * cfg.repetitions))
    slots = min(r * m, max(1, dense._BLOCK_ENTRIES // (d * dense.DIAGONAL.width(m, n))))
    pairs, cross, plans = (cache.cache_parameters()["maxsize"] for cache in (
        fock._pair_multipliers, chiral._cross_multipliers, dense._plan))
    index = 8 * (2 * n + 3 + u) + n + u + 32 + 8 * (u + 2 * n) + 48 + 64 * u + 40 * plans
    entries = m + 2 * u + n * max(u, 2 * n) + slots * (pairs + cross)
    return held + math.ceil(d * (index + 16 * entries) + 2 * 16 * max(m, n) * block)


def _suite_streams(seed: int, suite_name: str) -> tuple[fock.Draws, fock.Draws]:
    key = f"{seed}/{SUITE_NAMES.index(suite_name)}"
    return fock.Draws(key), fock.Draws(f"{key}/vectors")


def run_suite(cfg: SuiteConfig) -> SuiteReport:
    """Run the selected suites and fold each check's yields into its record.

    Each suite draws from its own seed-derived streams, so the records do not
    depend on which other suites run alongside.  This is the only place a
    check passes or fails (see the module docstring).
    """
    from .cliconfig import config_to_json

    selected = cfg.suites if cfg.suites is not None else SUITE_NAMES
    start = time.perf_counter()
    devs = {(c.suite, c.name): [] for c in CHECKS if c.suite in selected}
    for suite in SUITE_NAMES:
        if suite in selected:
            for name, dev in SUITES[suite](cfg, *_suite_streams(cfg.seed, suite)):
                devs[suite, name].append(dev)  # KeyError: a check CHECKS does not list
    records = []
    for c in CHECKS:
        if c.suite in selected:
            dev = float(np.max(devs[c.suite, c.name] or [math.nan]))
            bound = cfg.tolerance if c.bound is None else c.bound
            passed = math.isfinite(dev) and (dev > bound if c.control else dev <= bound)
            records.append(CheckRecord(suite=c.suite, check=c.name, anchor=c.anchor,
                                       max_deviation=dev, tolerance=bound, passed=passed,
                                       control=c.control))
    runtime = time.perf_counter() - start
    return SuiteReport(records=tuple(records), runtime_seconds=runtime,
                       seed=cfg.seed, config=config_to_json(cfg))
