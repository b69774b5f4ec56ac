"""Chiral splitting: merge/split unitary, cross twists, and the equivalences."""

import itertools
import math

import numpy as np
import pytest

import tensor_reference as ref
from fockdeform import dense, fock
from fockdeform.chiral import (BiFockVector, EquivalenceReport, _check_equivalence,
                               annihilate_half, apply_cross_twist,
                               apply_cross_twist_fock, apply_cross_twist_matrix,
                               apply_reflection_bifock, apply_translation_bifock,
                               bifock_inner, bifock_norm, bifock_vacuum, bifock_zero,
                               check_annihilator_equivalence, check_field_equivalence,
                               chiral_field, create_half, cross_matrix, exponential_pair,
                               merge_chiral, random_bifock, split_chiral,
                               twisted_annihilator)
from fockdeform.grids import ChiralGridPair, MomentumGrid, chiral_pair
from fockdeform.inner import (eval_inner, eval_root, make_root,
                              random_symmetric_blaschke, trivial_root)

TOL = 1e-10


@pytest.fixture(scope="module")
def pair():
    return chiral_pair(3)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(2718)


@pytest.fixture(scope="module")
def root(rng):
    return make_root(random_symmetric_blaschke(rng))


def one_sided(pair, side, rng):
    amp = np.zeros(pair.union.size, dtype=complex)
    if side == "+":
        amp[pair.n_negative:] = (rng.standard_normal(pair.n_positive)
                                 + 1j * rng.standard_normal(pair.n_positive))
    else:
        amp[:pair.n_negative] = (rng.standard_normal(pair.n_negative)
                                 + 1j * rng.standard_normal(pair.n_negative))
    return amp


def test_bifock_vacuum_normalized(pair):
    vac = bifock_vacuum(pair, 3)
    assert bifock_inner(vac, vac) == 1.0 + 0.0j


def batched_bifock(pair, truncation, batch):
    return BiFockVector(pair, truncation, {
        (a, b): np.ones(comp.shape + batch, dtype=complex)
        for (a, b), comp in bifock_zero(pair, truncation).components.items()})


def test_bifock_inner_refuses_batch(pair):
    xi = batched_bifock(pair, 2, (4,))
    with pytest.raises(ValueError):
        bifock_inner(xi, xi)
    with pytest.raises(ValueError):
        bifock_inner(bifock_vacuum(pair, 2), xi)


def test_bifock_norm_refuses_batch(pair):
    with pytest.raises(ValueError):
        bifock_norm(batched_bifock(pair, 2, (4,)))


def test_bifock_inner_positive(pair, rng):
    xi = random_bifock(pair, 3, rng)
    val = bifock_inner(xi, xi)
    assert val.real > 0 and abs(val.imag) < 1e-12


def test_half_operators_adjoint(pair, rng):
    g = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    for side in ("+", "-"):
        for _ in range(5):
            xi = random_bifock(pair, 3, rng)
            eta = random_bifock(pair, 3, rng)
            lhs = bifock_inner(create_half(side, g, xi), eta)
            rhs = bifock_inner(xi, annihilate_half(side, g, eta))
            assert abs(lhs - rhs) < 1e-12


def test_half_annihilator_matches_merged(pair, rng):
    """a(iota g) on the merged tower equals the one-factor annihilator."""
    for side in ("+", "-"):
        amp = one_sided(pair, side, rng)
        g = amp[pair.n_negative:] if side == "+" else amp[:pair.n_negative]
        xi = random_bifock(pair, 3, rng)
        lhs = fock.annihilate(amp, merge_chiral(xi))
        rhs = merge_chiral(annihilate_half(side, g, xi))
        assert fock.norm(lhs - rhs) < 1e-12


def test_chiral_field_zero_and_vacuum(pair, rng):
    assert bifock_norm(chiral_field("+", np.zeros(3), bifock_vacuum(pair, 3))) == 0.0
    g = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    out = chiral_field("+", g, bifock_vacuum(pair, 3))
    assert np.max(np.abs(out.components[(1, 0)][:, 0] - np.sqrt(pair.positive_weights) * g)) < 1e-14
    assert np.max(np.abs(out.components[(0, 1)])) == 0.0
    out = chiral_field("-", g, bifock_vacuum(pair, 3))
    assert np.max(np.abs(out.components[(0, 1)][0] - np.sqrt(pair.negative_weights) * g)) < 1e-14


def test_chiral_field_hermitian(pair, rng):
    g = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    basis = dense.BiFockBasis(pair, 3)
    for side in ("+", "-"):
        mat = dense.operator_matrix(lambda v: chiral_field(side, g, v), basis)
        assert dense.hermiticity_defect(mat) < 1e-12


def test_chiral_field_support_validation(pair, rng):
    with pytest.raises(ValueError):
        chiral_field("x", np.zeros(3), bifock_vacuum(pair, 3))
    with pytest.raises(ValueError):
        chiral_field("+", np.zeros(2), bifock_vacuum(pair, 3))


def test_cross_matrix_equals_ordered_double_product(pair, root, rng):
    """S = B o B^T, and the union twist is the ordered double product of B.

    B is the ordered cross kernel, R(-pq) for p > 0 > q and 1 otherwise; sector
    n of the union twist must carry prod_{i,j=1..n} B[k_i, k_j].
    """
    grid, q = pair.union, pair.n_negative
    pts = grid.points
    bmat = np.ones((grid.size, grid.size), dtype=complex)
    for a, b in itertools.product(range(grid.size), repeat=2):
        if pts[a] > 0.0 > pts[b]:
            bmat[a, b] = eval_root(root, -pts[a] * pts[b])
    smat = cross_matrix(grid, lambda args: eval_root(root, args))
    assert np.array_equal(smat, smat.T)
    assert np.all(smat[:q, :q] == 1.0) and np.all(smat[q:, q:] == 1.0)
    assert np.max(np.abs(smat - bmat * bmat.T)) < 1e-14
    assert abs(smat[q + 1, 0] - eval_root(root, -pts[q + 1] * pts[0])) < 1e-14
    psi = fock.random_fock_vector(grid, 3, rng)
    labels = dense.FockBasis(grid, 3).labels
    for adjoint in (False, True):
        twisted = np.concatenate(apply_cross_twist_fock(root, psi, adjoint=adjoint).sectors)
        bref = np.conj(bmat) if adjoint else bmat
        factor = np.ones(len(labels), dtype=complex)
        for row, (n, kappa) in enumerate(labels):
            for i, j in itertools.product(range(n), repeat=2):
                factor[row] *= bref[kappa[i], kappa[j]]
        assert np.max(np.abs(twisted - factor * np.concatenate(psi.sectors))) < 1e-14


def test_cross_twist_trivial_identity(pair, rng):
    xi = random_bifock(pair, 3, rng)
    out = apply_cross_twist(trivial_root(), xi)
    assert bifock_norm(out - xi) == 0.0


def test_cross_twist_unitary_vacuum_one_sided(pair, root, rng):
    xi = random_bifock(pair, 3, rng)
    assert abs(bifock_norm(apply_cross_twist(root, xi)) - bifock_norm(xi)) < 1e-12
    vac = bifock_vacuum(pair, 3)
    assert bifock_norm(apply_cross_twist(root, vac) - vac) == 0.0
    one_sided_vec = bifock_zero(pair, 3)
    one_sided_vec.components[(0, 2)][0] = fock.symmetrize(rng.standard_normal((3, 3)),
                                                          pair.negative_weights, 2)
    assert bifock_norm(apply_cross_twist(root, one_sided_vec) - one_sided_vec) == 0.0


def test_cross_twist_square_law(pair, root, rng):
    """Applying the twist twice multiplies by the squared root, i.e. the inner function."""
    xi = random_bifock(pair, 3, rng)
    twice = apply_cross_twist(root, apply_cross_twist(root, xi))
    cmat_sq = np.asarray(eval_inner(
        root.base, -np.multiply.outer(pair.positive_points, pair.negative_points)))
    squared = apply_cross_twist_matrix(pair, cmat_sq, xi)
    assert bifock_norm(twice - squared) < TOL


def test_cross_twist_adjoint_inverse(pair, root, rng):
    xi = random_bifock(pair, 3, rng)
    roundtrip = apply_cross_twist(root, apply_cross_twist(root, xi), adjoint=True)
    assert bifock_norm(roundtrip - xi) < 1e-13


def test_merge_vacuum(pair):
    assert fock.norm(merge_chiral(bifock_vacuum(pair, 3))
                     - fock.vacuum(pair.union, 3)) == 0.0


def test_merge_exponentials(pair, rng):
    psi = 0.6 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
    phi = 0.6 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
    merged = merge_chiral(exponential_pair(pair, psi, phi, 3))
    amp = np.zeros(6, dtype=complex)
    amp[3:] = psi
    amp[:3] = phi
    assert fock.norm(merged - fock.exponential_vector(pair.union, amp, 3)) < 1e-12


def test_merge_one_one_component_hand_formula(pair, rng):
    """A pure (1,1) tensor merges to sqrt(2) Symm(embedded product)."""
    psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    phi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    xi = bifock_zero(pair, 2)
    xi.components[(1, 1)][:] = np.multiply.outer(np.sqrt(pair.positive_weights) * psi,
                                                 np.sqrt(pair.negative_weights) * phi)
    merged = ref.tensor(merge_chiral(xi).sectors[2], pair.union.weights, 2)
    embedded = np.zeros((6, 6), dtype=complex)
    full_psi = np.zeros(6, dtype=complex)
    full_psi[3:] = psi
    full_phi = np.zeros(6, dtype=complex)
    full_phi[:3] = phi
    embedded += np.multiply.outer(full_psi, full_phi)
    expected = math.sqrt(2.0) * ref.symmetrize(embedded, range(2))
    assert np.max(np.abs(merged - expected)) < 1e-13


def reference_merge_component(pair, a, b, comp):
    """sqrt(binom(n, a)) Symm_n(embedded Xi_{a,b}) by the explicit permutation sum."""
    m, q = pair.union.size, pair.n_negative
    n = a + b
    embedded = np.zeros((m,) * n, dtype=complex)
    embedded[np.ix_(*([range(q, m)] * a + [range(q)] * b))] = comp
    perms = list(itertools.permutations(range(n)))
    symm = sum(np.transpose(embedded, p) for p in perms) / len(perms)
    return math.sqrt(math.comb(n, a)) * symm


def test_merge_matches_permutation_sum_on_asymmetric_split():
    """Every component of a random bifock at N=4 over 2 negative and 3 positive points.

    The halves differ in size, so a merge that swapped the roles of the
    positive and negative factors could not even produce the right shapes.
    """
    grid = MomentumGrid(np.array([-1.7, -0.6, 0.4, 0.9, 2.3]),
                        np.array([0.3, 0.5, 0.2, 0.4, 0.6]), 0.0)
    pair = ChiralGridPair(union=grid, n_negative=2)
    assert pair.n_positive == 3
    n_top = 4
    xi = random_bifock(pair, n_top, np.random.default_rng(31))
    total = [np.zeros((5,) * n, dtype=complex) for n in range(n_top + 1)]
    for (a, b), comp in xi.components.items():
        alone = bifock_zero(pair, n_top)
        alone.components[(a, b)] = comp
        merged = ref.tower(merge_chiral(alone))
        expected = reference_merge_component(
            pair, a, b, ref.pair_tensor(comp, pair.positive_weights, pair.negative_weights, a, b))
        total[a + b] = total[a + b] + expected
        for n, sec in enumerate(merged):
            want = expected if n == a + b else 0.0
            assert np.max(np.abs(sec - want)) < 1e-14, ((a, b), n)
    merged = ref.tower(merge_chiral(xi))
    for n in range(n_top + 1):
        assert np.max(np.abs(merged[n] - total[n])) < 1e-14


def test_merge_vacuum_sector(pair):
    """Sector 0 of the merge is component (0, 0), exactly, and feeds no other sector."""
    xi = bifock_zero(pair, 3)
    xi.components[(0, 0)][0, 0] = 0.25 - 1.5j
    merged = merge_chiral(xi)
    assert merged.sectors[0].shape == (1,) and merged.sectors[0][0] == 0.25 - 1.5j
    assert all(np.all(sec == 0.0) for sec in merged.sectors[1:])


def test_split_one_particle_sign_patterns(pair, rng):
    amp = one_sided(pair, "+", rng)
    psi = fock.create(amp, fock.vacuum(pair.union, 2))
    xi = split_chiral(psi, pair)
    assert np.max(np.abs(xi.components[(1, 0)][:, 0]
                         - np.sqrt(pair.positive_weights) * amp[3:])) < 1e-14
    assert np.max(np.abs(xi.components[(0, 1)])) == 0.0


def test_merge_split_roundtrip(pair, rng):
    psi = fock.random_fock_vector(pair.union, 3, rng)
    assert fock.norm(merge_chiral(split_chiral(psi, pair)) - psi) < 1e-13
    xi = random_bifock(pair, 3, rng)
    assert bifock_norm(split_chiral(merge_chiral(xi), pair) - xi) < 1e-13


def test_merge_unitary_on_basis(pair):
    fb = dense.FockBasis(pair.union, 3)
    bb = dense.BiFockBasis(pair, 3)
    assert len(fb) == len(bb)
    mat = dense.operator_matrix(merge_chiral, bb, fb)
    assert dense.unitarity_defect(mat) < 1e-12


def test_merge_preserves_inner_products(pair, rng):
    for _ in range(5):
        xi = random_bifock(pair, 3, rng)
        eta = random_bifock(pair, 3, rng)
        assert abs(fock.inner(merge_chiral(xi), merge_chiral(eta))
                   - bifock_inner(xi, eta)) < 1e-12


def test_translation_intertwining(pair, rng):
    x = (0.6, -0.9)
    xi = random_bifock(pair, 3, rng)
    lhs = fock.apply_translation(x, merge_chiral(xi))
    rhs = merge_chiral(apply_translation_bifock(x, xi))
    assert fock.norm(lhs - rhs) < 1e-12


def test_reflection_intertwining(pair, rng):
    xi = random_bifock(pair, 3, rng)
    lhs = fock.apply_reflection(merge_chiral(xi))
    rhs = merge_chiral(apply_reflection_bifock(xi))
    assert fock.norm(lhs - rhs) < 1e-12


def test_fock_twist_trivial_and_low_sectors(pair, root, rng):
    psi = fock.random_fock_vector(pair.union, 3, rng)
    assert fock.norm(apply_cross_twist_fock(trivial_root(), psi) - psi) == 0.0
    out = apply_cross_twist_fock(root, psi)
    assert np.array_equal(out.sectors[0], psi.sectors[0])
    assert np.array_equal(out.sectors[1], psi.sectors[1])


def test_fock_twist_equals_conjugated_split_twist(pair, root, rng):
    fb = dense.FockBasis(pair.union, 3)
    m_direct = dense.operator_matrix(lambda v: apply_cross_twist_fock(root, v), fb)
    m_comp = dense.operator_matrix(
        lambda v: merge_chiral(apply_cross_twist(root, split_chiral(v, pair))), fb)
    assert dense.matrix_deviation(m_direct, m_comp) < TOL


def test_fock_twist_reflection_conjugation(pair, root, rng):
    psi = fock.random_fock_vector(pair.union, 3, rng)
    lhs = fock.apply_reflection(apply_cross_twist_fock(root, psi))
    rhs = apply_cross_twist_fock(root, fock.apply_reflection(psi), adjoint=True)
    assert fock.norm(lhs - rhs) == 0.0


def test_fock_twist_commutes_with_inrange_boost(pair, root):
    """The twist multiplier is invariant under the exact blockwise boost shift."""
    g = pair.union
    amp = np.zeros(6)
    amp[1] = 1.0  # negative block, middle slot
    amp2 = np.zeros(6)
    amp2[4] = 1.0  # positive block, middle slot
    psi = fock.create(amp, fock.create(amp2, fock.vacuum(g, 3)))
    for shift in (1, -1):
        lhs = fock.apply_boost(shift, apply_cross_twist_fock(root, psi))
        rhs = apply_cross_twist_fock(root, fock.apply_boost(shift, psi).vector)
        assert not lhs.truncated
        assert fock.norm(lhs.vector - rhs) < 1e-12


def test_boost_kernel_invariance(pair, root, rng):
    for _ in range(20):
        lam = float(rng.uniform(-1.2, 1.2))
        for p in pair.positive_points:
            for q in pair.negative_points:
                lhs = eval_root(root, -(math.exp(-lam) * p) * (math.exp(lam) * q))
                assert abs(lhs - eval_root(root, -p * q)) < 1e-12


def test_twisted_annihilator_requires_one_sided(pair, root, rng):
    psi = fock.random_fock_vector(pair.union, 3, rng)
    both = np.ones(6, dtype=complex)
    with pytest.raises(ValueError):
        twisted_annihilator(root, both, pair, psi)
    with pytest.raises(ValueError):
        twisted_annihilator(root, one_sided(pair, "+", rng), pair, psi, route="bogus")


@pytest.mark.parametrize("side", ["+", "-"])
def test_annihilator_equivalence(side, pair, root, rng):
    rep = check_annihilator_equivalence(root, one_sided(pair, side, rng),
                                        pair, 3, rng, n_vectors=3)
    assert rep.side == side
    assert rep.max_deviation < TOL


def test_annihilator_equivalence_trivial_root_exact(pair, rng):
    """With the identity kernel the direct route degenerates bit for bit."""
    amp = one_sided(pair, "+", rng)
    psi = fock.random_fock_vector(pair.union, 3, rng)
    direct = twisted_annihilator(trivial_root(), amp, pair, psi, "direct")
    plain = fock.annihilate(amp, psi)
    assert all(np.array_equal(a, b) for a, b in zip(direct.sectors, plain.sectors))


@pytest.mark.parametrize("side", ["+", "-"])
def test_field_equivalence(side, pair, root, rng):
    fd = fock.real_test_function(one_sided(pair, side, rng))
    rep = check_field_equivalence(root, fd, pair, 3, rng, n_vectors=3)
    assert rep.max_deviation < TOL


def test_field_equivalence_trivial_root_exact(pair, rng):
    """With the identity kernel the twisted field degenerates bit for bit."""
    from fockdeform.chiral import twisted_field
    fd = fock.real_test_function(one_sided(pair, "+", rng))
    psi = fock.random_fock_vector(pair.union, 3, rng)
    direct = twisted_field(trivial_root(), fd, pair, psi, "direct")
    plain = fock.field(fd, psi)
    assert all(np.array_equal(a, b) for a, b in zip(direct.sectors, plain.sectors))


def test_field_equivalence_requires_real_data(pair, root, rng):
    amp = one_sided(pair, "+", rng)
    fd = fock.TestFunctionData(fplus=amp, fminus=np.zeros(6, dtype=complex))
    with pytest.raises(ValueError):
        check_field_equivalence(root, fd, pair, 3, rng)


def test_wrong_twist_orientation_fails(pair, root, rng):
    """Swapping the twist order between the sign cases must be detectable."""
    amp = one_sided(pair, "+", rng)
    from fockdeform.deformation import KernelSpec, annihilate_deformed
    spec = KernelSpec(root=root, mass=0.0)
    psi = fock.random_fock_vector(pair.union, 3, rng)
    swapped = apply_cross_twist_fock(
        root, fock.annihilate(amp, apply_cross_twist_fock(root, psi, adjoint=True)))
    correct = annihilate_deformed(spec, amp, psi)
    assert fock.norm(swapped - correct) > 1e-3


def test_bifock_component_validation(pair):
    with pytest.raises(ValueError):
        BiFockVector(pair, 1, {(0, 0): np.array(1.0 + 0j),
                               (1, 0): np.zeros(2, dtype=complex),
                               (0, 1): np.zeros(3, dtype=complex)})


def test_equivalence_report_propagates_nan():
    """A NaN deviation in any route reaches max_deviation, wherever it sits."""
    small = 1e-16
    for field in ("max_vector_direct", "max_vector_split",
                  "max_matrix_direct", "max_matrix_split"):
        values = dict(max_vector_direct=small, max_vector_split=small,
                      max_matrix_direct=small, max_matrix_split=small)
        values[field] = float("nan")
        rep = EquivalenceReport(side="+", **values)
        assert math.isnan(rep.max_deviation)
        assert not rep.max_deviation <= TOL


def test_check_equivalence_keeps_late_nan(pair):
    """A NaN on a later random vector is not dropped by the running maximum."""
    calls = []

    def twisted(v, route):
        if v.batch_shape:  # a block of probe columns, not a random vector
            return v
        calls.append(route)
        return v * float("nan") if len(calls) == 2 else v

    rep = _check_equivalence("+", lambda v: v, twisted, dense.DIAGONAL, pair, 2,
                             np.random.default_rng(3), 3)
    assert calls == ["direct"] * 3 + ["split"] * 3
    assert math.isnan(rep.max_vector_direct)
    assert not rep.max_deviation <= TOL
