"""Kernel laws, deformed operators, pair twists, and sharp-momentum twists."""

import math

import functools
import operator

import numpy as np
import pytest

import tensor_reference as ref
from dense_reference import (annihilate_deformed_sharp, hermiticity_defect, sharp_annihilate,
                             unitarity_defect)
from fockdeform import dense, fock
from fockdeform.deformation import (KernelSpec, SharpTwistVariant, _kernel_values,
                                    _sharp_twist_each, annihilate_deformed,
                                    apply_kernel_phases, apply_pair_twist, create_deformed,
                                    field_deformed, kernel, kernel_matrix,
                                    sharp_momentum_twist, wedge_invariant)
from fockdeform.grids import boost_momentum, chiral_pair, rapidity_grid
from fockdeform.inner import (BlaschkeSpec, eval_root, make_root,
                              random_symmetric_blaschke, trivial_root)

TOL = 1e-10


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(99)


@pytest.fixture(scope="module")
def root(rng):
    return make_root(random_symmetric_blaschke(rng))


@pytest.fixture(scope="module")
def massive_grid():
    return rapidity_grid(1.0, 6)


@pytest.fixture(scope="module")
def massless_grid():
    return chiral_pair(3).union


def test_wedge_antisymmetric_and_hand_value():
    assert wedge_invariant(1.3, 1.3, 1.0) == 0.0
    # m = 0, p = 2, q = -3: (|q| p - |p| q)/2 = (6 + 6)/2 = 6
    assert abs(wedge_invariant(2.0, -3.0, 0.0) - 6.0) < 1e-14
    assert abs(wedge_invariant(-3.0, 2.0, 0.0) + 6.0) < 1e-14


def test_wedge_boost_invariant(rng):
    for mass in (0.0, 1.0):
        for _ in range(20):
            p, q = rng.uniform(-3, 3), rng.uniform(-3, 3)
            if p == 0 or q == 0:
                continue
            lam = rng.uniform(-1.5, 1.5)
            pb, qb = boost_momentum(p, lam, mass), boost_momentum(q, lam, mass)
            assert abs(wedge_invariant(pb, qb, mass) - wedge_invariant(p, q, mass)) < 1e-12


def test_kernel_same_sign_massless_is_one(root):
    spec = KernelSpec(root=root, mass=0.0)
    assert kernel(spec, 2.0, 3.0) == 1.0 + 0.0j
    assert kernel(spec, -2.0, -3.0) == 1.0 + 0.0j


def test_kernel_trivial_root_is_one(root):
    for mass in (0.0, 1.0):
        spec = KernelSpec(root=trivial_root(), mass=mass)
        for p, q in [(1.0, -2.0), (0.5, 0.7), (-1.0, 2.0)]:
            assert kernel(spec, p, q) == 1.0 + 0.0j


def test_kernel_massive_composes_wedge_and_root(root):
    spec = KernelSpec(root=root, mass=1.0)
    val = kernel(spec, 1.0, -1.0)
    w = 0.5 * (math.sqrt(2.0) * 1.0 - math.sqrt(2.0) * (-1.0))  # = sqrt(2)
    assert abs(val - eval_root(root, w)) < 1e-14
    assert abs(w - math.sqrt(2.0)) < 1e-14


def test_kernel_massless_cross_values(root):
    spec = KernelSpec(root=root, mass=0.0)
    assert abs(kernel(spec, 2.0, -3.0) - eval_root(root, 6.0)) < 1e-14
    assert abs(kernel(spec, -3.0, 2.0) - eval_root(root, -6.0)) < 1e-14


def test_kernel_rejects_zero(root):
    spec = KernelSpec(root=root, mass=0.0)
    with pytest.raises(ValueError):
        kernel(spec, 0.0, 1.0)


def test_kernel_massless_limit(root):
    """Cross-sign kernel values are the small-mass limit of the massive ones.

    For equal signs the wedge argument only tends to zero, where the root's
    value is a free convention; there the limit is the one-sided boundary
    value R(0+), whose square is the inner function's value at 0.
    """
    spec0 = KernelSpec(root=root, mass=0.0)
    for p, q in [(2.0, -3.0), (-0.7, 1.1)]:
        gap = abs(kernel(KernelSpec(root=root, mass=1e-6), p, q) - kernel(spec0, p, q))
        assert gap < 1e-4
    from fockdeform.inner import eval_inner
    limit = kernel(KernelSpec(root=root, mass=1e-8), 0.5, 0.9)  # same-sign pair
    assert abs(limit ** 2 - eval_inner(root.base, 0.0)) < 1e-6


def case_analysis_kernel(spec, p, q):
    """The massless kernel as a case analysis, the reference for the one formula: R(-pq)
    for p > 0 > q, R(pq) for p < 0 < q, and 1 for equal signs, or the extras R_+(p / q)
    for p, q > 0 and R_-(-p / q) for p, q < 0 (|p q| and |p / q| signed as p)."""
    p, q = np.broadcast_arrays(np.asarray(p, dtype=float), np.asarray(q, dtype=float))
    out = np.ones(p.shape, dtype=complex)
    p_pos, same_side = p > 0.0, (p > 0.0) == (q > 0.0)
    for root, ratio, p_side in ((spec.root, False, None), (spec.extra_pos, True, True),
                                (spec.extra_neg, True, False)):
        mask = root is not None and (same_side & (p_pos == p_side) if ratio else ~same_side)
        if np.any(mask):
            pm, qm = p[mask], q[mask]
            out[mask] = eval_root(root, np.copysign(pm / qm if ratio else pm * qm, pm))
    return out


def extreme_momenta(rng, count):
    """``count`` momenta log-uniform over +-[1e-4, 1e4], the admitted magnitudes, with
    both ends of the range on each side."""
    mags = np.concatenate([[1e-4, 1e4], 10.0 ** rng.uniform(-4.0, 4.0, count - 2)])
    return np.concatenate([mags, -mags])


@pytest.mark.parametrize("extras", ["none", "pos", "neg", "both"])
def test_massless_kernel_is_the_case_analysis_bit_for_bit(rng, extras):
    """At m = 0, R(w(p, q)) with R(0) := 1 is the case analysis bit for bit: w is exactly
    -pq, pq or 0 there, since sqrt(p^2) = |p| and (-q) p = -(p q) in floating point."""
    extra = make_root(BlaschkeSpec((), 1), [(0.5, 2.0), (-2.0, -0.5)])
    pts = extreme_momenta(rng, 150)
    for flips in ((), [(0.3, 40.0), (-40.0, -0.3)]):
        for _ in range(3):
            spec = KernelSpec(root=make_root(random_symmetric_blaschke(rng), flips), mass=0.0,
                              extra_pos=extra if extras in ("pos", "both") else None,
                              extra_neg=extra if extras in ("neg", "both") else None)
            got = _kernel_values(spec, pts[:, None], pts[None, :])
            assert np.array_equal(got, case_analysis_kernel(spec, pts[:, None], pts[None, :]))
            assert kernel(spec, pts[0], pts[-1]) == got[0, -1]


@pytest.mark.parametrize("mass", [1e-4, 1.0, 100.0])
def test_massive_kernel_diagonal_reads_exactly_one(rng, root, mass):
    pts = extreme_momenta(rng, 50)
    values = _kernel_values(KernelSpec(root=root, mass=mass), pts[:, None], pts[None, :])
    assert np.all(np.diagonal(values) == 1.0 + 0.0j)


def test_kernel_matrix_invariant_under_index_shift(root, massive_grid):
    """On a rapidity-uniform grid a common index shift leaves the kernel unchanged."""
    spec = KernelSpec(root=root, mass=1.0)
    mat = kernel_matrix(spec, massive_grid)
    shifted = mat[1:, 1:]
    assert np.max(np.abs(shifted - mat[:-1, :-1])) < 1e-12


def test_kernel_matrix_matches_scalar(root, massive_grid, massless_grid):
    for grid in (massive_grid, massless_grid):
        spec = KernelSpec(root=root, mass=grid.mass)
        mat = kernel_matrix(spec, grid)
        for a, p in enumerate(grid.points):
            for b, q in enumerate(grid.points):
                assert abs(mat[a, b] - kernel(spec, float(p), float(q))) < 1e-14
        assert np.max(np.abs(np.abs(mat) - 1.0)) < 1e-12


def test_kernel_matrix_diagonal_convention(root, massive_grid):
    spec = KernelSpec(root=root, mass=1.0)
    mat = kernel_matrix(spec, massive_grid)
    assert np.all(np.diagonal(mat) == 1.0 + 0.0j)


def kernel_symmetry_defect(spec, pairs):
    """Max of |K(q,p) K(p,q) - 1| over the sampled pairs."""
    return np.max([abs(kernel(spec, q, p) * kernel(spec, p, q) - 1.0) for p, q in pairs])


def test_kernel_symmetry_reports(root, rng):
    pairs = [(rng.uniform(0.1, 3) * s1, rng.uniform(0.1, 3) * s2)
             for s1 in (1, -1) for s2 in (1, -1) for _ in range(10)]
    for mass in (0.0, 1.0):
        assert kernel_symmetry_defect(KernelSpec(root=root, mass=mass), pairs) <= TOL
    assert kernel_symmetry_defect(KernelSpec(root=trivial_root(), mass=1.0), pairs) == 0.0


def test_kernel_spec_validation(root):
    extra = make_root(BlaschkeSpec((), 1), [(0.5, 2.0), (-2.0, -0.5)])
    with pytest.raises(ValueError):
        KernelSpec(root=root, mass=1.0, extra_pos=extra)
    bad = make_root(BlaschkeSpec((), 1), [(0.5, 1.2), (-1.2, -0.5)])
    with pytest.raises(ValueError):
        KernelSpec(root=root, mass=0.0, extra_pos=bad)
    spec = KernelSpec(root=root, mass=0.0, extra_pos=extra, extra_neg=extra)
    assert abs(kernel(spec, 1.0, 1.0) - eval_root(extra, 1.0)) < 1e-14
    assert abs(kernel(spec, 1.0, 0.7) - eval_root(extra, 1.0 / 0.7)) < 1e-14


def test_generalized_kernel_symmetry(root, rng):
    extra = make_root(BlaschkeSpec((), 1), [(0.5, 2.0), (-2.0, -0.5)])
    spec = KernelSpec(root=root, mass=0.0, extra_pos=extra, extra_neg=extra)
    pairs = [(rng.uniform(0.1, 3) * s1, rng.uniform(0.1, 3) * s2)
             for s1 in (1, -1) for s2 in (1, -1) for _ in range(10)]
    assert kernel_symmetry_defect(spec, pairs) <= TOL


def test_phase_dressing_unitary_and_vacuum(root, massive_grid, rng):
    spec = KernelSpec(root=root, mass=1.0)
    p_ref = float(massive_grid.points[1])
    vac = fock.vacuum(massive_grid, 3)
    assert fock.norm(apply_kernel_phases(spec, p_ref, vac) - vac) == 0.0
    psi = fock.random_fock_vector(massive_grid, 3, rng)
    assert abs(fock.norm(apply_kernel_phases(spec, p_ref, psi)) - fock.norm(psi)) < 1e-12


def test_phase_dressing_one_particle_row(root, massive_grid, rng):
    spec = KernelSpec(root=root, mass=1.0)
    p_ref = float(massive_grid.points[0])
    xi = fock.random_one_particle(massive_grid, rng)
    out = apply_kernel_phases(spec, p_ref, fock.create(xi, fock.vacuum(massive_grid, 2)))
    row = np.array([kernel(spec, p_ref, float(q)) for q in massive_grid.points])
    assert np.max(np.abs(out.sectors[1] - row * np.sqrt(massive_grid.weights) * xi)) < 1e-14


def test_trivial_phase_dressing_identity(massive_grid, rng):
    spec = KernelSpec(root=trivial_root(), mass=1.0)
    psi = fock.random_fock_vector(massive_grid, 3, rng)
    out = apply_kernel_phases(spec, float(massive_grid.points[2]), psi)
    assert fock.norm(out - psi) == 0.0


def test_deformed_annihilator_trivial_root_bitwise(massive_grid, rng):
    """With the identity kernel the deformed operators coincide bit for bit."""
    spec = KernelSpec(root=trivial_root(), mass=1.0)
    xi = fock.random_one_particle(massive_grid, rng)
    psi = fock.random_fock_vector(massive_grid, 3, rng)
    da = annihilate_deformed(spec, xi, psi)
    ua = fock.annihilate(xi, psi)
    assert all(np.array_equal(a, b) for a, b in zip(da.sectors, ua.sectors))
    dc = create_deformed(spec, xi, psi)
    uc = fock.create(xi, psi)
    assert all(np.array_equal(a, b) for a, b in zip(dc.sectors, uc.sectors))


def test_deformed_annihilator_kills_vacuum(root, massive_grid, rng):
    spec = KernelSpec(root=root, mass=1.0)
    xi = fock.random_one_particle(massive_grid, rng)
    assert fock.norm(annihilate_deformed(spec, xi, fock.vacuum(massive_grid, 3))) == 0.0


def test_deformed_annihilator_equals_dressed_sum(root, massive_grid, rng):
    """a_K(xi) = sum_q w_q conj(xi_q) a(q) T(q), as dense matrices."""
    spec = KernelSpec(root=root, mass=1.0)
    xi = fock.random_one_particle(massive_grid, rng)
    basis = dense.FockBasis(massive_grid, 3)

    def composed(v):
        return functools.reduce(operator.add, (
            massive_grid.weights[idx] * np.conj(xi[idx])
            * sharp_annihilate(float(q), apply_kernel_phases(spec, float(q), v))
            for idx, q in enumerate(massive_grid.points)))

    m_direct = dense.operator_matrix(lambda v: annihilate_deformed(spec, xi, v), basis)
    m_comp = dense.operator_matrix(composed, basis)
    assert dense.matrix_deviation(m_direct, m_comp) < TOL


def test_deformed_adjoint_pair(root, massive_grid, massless_grid, rng):
    for grid in (massive_grid, massless_grid):
        spec = KernelSpec(root=root, mass=grid.mass)
        xi = fock.random_one_particle(grid, rng)
        basis = dense.FockBasis(grid, 3)
        mc = dense.operator_matrix(lambda v: create_deformed(spec, xi, v), basis)
        ma = dense.operator_matrix(lambda v: annihilate_deformed(spec, xi, v), basis)
        assert dense.matrix_deviation(mc, ma.conj().T) < 1e-12


def test_deformed_creator_vacuum_amplitude(root, massive_grid, rng):
    # the kernel product over no other particles is empty: vacuum creation is undeformed
    spec = KernelSpec(root=root, mass=1.0)
    xi = fock.random_one_particle(massive_grid, rng)
    out = create_deformed(spec, xi, fock.vacuum(massive_grid, 3))
    assert np.max(np.abs(out.sectors[1] - np.sqrt(massive_grid.weights) * xi)) < 1e-14


def test_deformed_field_hermitian_and_vacuum(root, massive_grid, rng):
    spec = KernelSpec(root=root, mass=1.0)
    fd = fock.real_test_function(fock.random_one_particle(massive_grid, rng))
    basis = dense.FockBasis(massive_grid, 3)
    mat = dense.operator_matrix(lambda v: field_deformed(spec, fd, v), basis)
    assert hermiticity_defect(mat) < 1e-12
    out = field_deformed(spec, fd, fock.vacuum(massive_grid, 3))
    assert np.max(np.abs(out.sectors[1] - np.sqrt(massive_grid.weights) * fd.fplus)) < 1e-14


def test_pair_twist_trivial_and_vacuum(massive_grid, rng):
    psi = fock.random_fock_vector(massive_grid, 3, rng)
    assert fock.norm(apply_pair_twist(trivial_root(), psi) - psi) == 0.0
    tw = make_root(BlaschkeSpec((), 1), [(0.3, 0.9), (-0.9, -0.3)])
    vac = fock.vacuum(massive_grid, 3)
    assert fock.norm(apply_pair_twist(tw, vac) - vac) == 0.0
    assert abs(fock.norm(apply_pair_twist(tw, psi)) - fock.norm(psi)) < 1e-12


def test_pair_twist_rejects_nonunimodular_sign(root, massive_grid, rng):
    # a generic Blaschke root is not +-1-valued on the wedge arguments
    psi = fock.random_fock_vector(massive_grid, 2, rng)
    with pytest.raises(ValueError):
        apply_pair_twist(root, psi)


def test_pair_twist_conjugates_to_merged_root(massive_grid, rng):
    """Y a_K Y* equals the deformed annihilator for the sign-merged root."""
    from fockdeform.inner import merge_flip_sets
    spec_base = random_symmetric_blaschke(np.random.default_rng(3))
    flips_a = ((0.3, 0.9), (-0.9, -0.3))
    flips_b = ((1.3, 2.1), (-2.1, -1.3))
    r = make_root(spec_base, flips_a)
    tw = make_root(BlaschkeSpec((), 1), flips_b)
    merged = make_root(spec_base, merge_flip_sets(flips_a, flips_b))
    xi = fock.random_one_particle(massive_grid, rng)
    k_r = KernelSpec(root=r, mass=1.0)
    k_m = KernelSpec(root=merged, mass=1.0)
    basis = dense.FockBasis(massive_grid, 3)
    m_conj = dense.operator_matrix(
        lambda v: apply_pair_twist(tw, annihilate_deformed(k_r, xi, apply_pair_twist(tw, v))),
        basis)
    m_merged = dense.operator_matrix(lambda v: annihilate_deformed(k_m, xi, v), basis)
    assert dense.matrix_deviation(m_conj, m_merged) < TOL


def test_sharp_annihilate_row_extraction(massive_grid, rng):
    psi = fock.random_fock_vector(massive_grid, 3, rng)
    p = float(massive_grid.points[2])
    out = ref.tower(sharp_annihilate(p, psi))
    tensors = ref.tower(psi)
    assert np.max(np.abs(out[0] - tensors[1][2])) < 1e-14
    assert np.max(np.abs(out[1] - math.sqrt(2) * tensors[2][2])) < 1e-14
    with pytest.raises(ValueError):
        sharp_annihilate(123.0, psi)


def test_sharp_twist_trivial_root_identity(massive_grid, rng):
    spec = KernelSpec(root=trivial_root(), mass=1.0)
    psi = fock.random_fock_vector(massive_grid, 3, rng)
    for variant in SharpTwistVariant:
        out = sharp_momentum_twist(spec, variant, float(massive_grid.points[1]), psi)
        assert fock.norm(out - psi) == 0.0


def test_sharp_twist_low_sectors_unchanged(root, massive_grid, rng):
    spec = KernelSpec(root=root, mass=1.0)
    psi = fock.random_fock_vector(massive_grid, 3, rng)
    for variant in SharpTwistVariant:
        out = sharp_momentum_twist(spec, variant, float(massive_grid.points[4]), psi)
        assert np.array_equal(out.sectors[0], psi.sectors[0])
        assert np.array_equal(out.sectors[1], psi.sectors[1])


@pytest.mark.parametrize("variant", list(SharpTwistVariant))
def test_sharp_twist_conjugation_identity(variant, root, massive_grid, rng):
    """twist(p) a(p) twist(p)* = a_K(p) at every grid momentum."""
    spec = KernelSpec(root=root, mass=1.0)
    basis = dense.FockBasis(massive_grid, 3)
    for p in massive_grid.points:
        p = float(p)

        def conjugated(v):
            out = sharp_momentum_twist(spec, variant, p, v, adjoint=True)
            out = sharp_annihilate(p, out)
            return sharp_momentum_twist(spec, variant, p, out)

        m_conj = dense.operator_matrix(conjugated, basis)
        m_sharp = dense.operator_matrix(
            lambda v: annihilate_deformed_sharp(spec, p, v), basis)
        assert dense.matrix_deviation(m_conj, m_sharp) < TOL


def test_deformed_annihilators_reject_a_spec_of_another_mass(root, massive_grid):
    """Both annihilators read the cached kernel matrix, which refuses a spec
    whose mass is not the grid's."""
    spec = KernelSpec(root=root, mass=0.0)
    vac = fock.vacuum(massive_grid, 2)
    with pytest.raises(ValueError, match="grid mass"):
        annihilate_deformed(spec, np.ones(massive_grid.size), vac)
    with pytest.raises(ValueError, match="grid mass"):
        annihilate_deformed_sharp(spec, float(massive_grid.points[1]), vac)


@pytest.mark.parametrize("apply", [
    lambda spec, p, psi: apply_kernel_phases(spec[1], p[1], psi),
    lambda spec, p, psi: sharp_momentum_twist(spec[1], SharpTwistVariant.PAIRWISE_SUM, p[1], psi),
    lambda spec, p, psi: sharp_momentum_twist(spec[1], SharpTwistVariant.SIGN_SPLIT, p[1], psi),
    lambda spec, p, psi: _sharp_twist_each(spec, SharpTwistVariant.SIGN_SPLIT, p, psi)],
    ids=["dressing", "pairwise-sum", "sign-split", "stack"])
def test_dressing_and_sharp_twists_reject_a_spec_of_another_mass(apply, root, massive_grid,
                                                                  massless_grid):
    """The phase dressing and the sharp twists read their kernel on psi's grid under the
    one mass check of :func:`kernel_matrix`: a spec of another mass raises, also as one
    entry of a stack of specs."""
    for grid, mass in ((massive_grid, 0.0), (massless_grid, 1.0)):
        specs = (KernelSpec(root=root, mass=grid.mass), KernelSpec(root=root, mass=mass))
        with pytest.raises(ValueError, match="grid mass"):
            apply(specs, grid.points[:2], fock.vacuum(grid, 2))


def test_sharp_twist_variant_flags():
    assert SharpTwistVariant("pairwise-sum") is SharpTwistVariant.PAIRWISE_SUM
    assert SharpTwistVariant("sign-split") is SharpTwistVariant.SIGN_SPLIT
    assert {v.value for v in SharpTwistVariant} == {"pairwise-sum", "sign-split"}


def test_sharp_twist_variants_differ(root, massive_grid, rng):
    spec = KernelSpec(root=root, mass=1.0)
    basis = dense.FockBasis(massive_grid, 3)
    p = float(massive_grid.points[2])
    m1 = dense.operator_matrix(
        lambda v: sharp_momentum_twist(spec, SharpTwistVariant.PAIRWISE_SUM, p, v), basis)
    m2 = dense.operator_matrix(
        lambda v: sharp_momentum_twist(spec, SharpTwistVariant.SIGN_SPLIT, p, v), basis)
    assert dense.matrix_deviation(m1, m2) > 1e-3
    assert unitarity_defect(m1) < TOL
    assert unitarity_defect(m2) < TOL
