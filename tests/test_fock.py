"""Truncated tower operators: CCR, adjointness, second-quantized symmetries."""

import itertools
import math

import numpy as np
import pytest

import tensor_reference as ref
from dense_reference import basis_vectors
from fockdeform import chiral, dense, fock
from fockdeform.grids import MomentumGrid, chiral_pair, rapidity_grid

TOL = 1e-10


@pytest.fixture(scope="module")
def grid():
    return rapidity_grid(1.0, 4)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(1234)


def weighted_pairing(grid, xi, eta):
    # independent of fock.inner: plain loop over the quadrature sum
    return sum(w * np.conj(a) * b for w, a, b in zip(grid.weights, xi, eta))


def test_vacuum_normalized(grid):
    vac = fock.vacuum(grid, 3)
    assert fock.inner(vac, vac) == 1.0 + 0.0j


def test_inner_conjugate_symmetric_positive(grid, rng):
    a = fock.random_fock_vector(grid, 3, rng)
    b = fock.random_fock_vector(grid, 3, rng)
    assert abs(fock.inner(a, b) - np.conj(fock.inner(b, a))) < 1e-12
    assert fock.inner(a, a).real >= 0.0
    assert abs(fock.inner(a, a).imag) < 1e-12


def test_inner_grid_mismatch(grid):
    other = chiral_pair(2).union
    with pytest.raises(ValueError):
        fock.inner(fock.vacuum(grid, 2), fock.vacuum(other, 2))
    with pytest.raises(ValueError):
        fock.inner(fock.vacuum(grid, 2), fock.vacuum(grid, 3))


def batched_vector(grid, truncation, batch):
    return fock.FockVector(grid, np.ones(fock.zero_vector(grid, truncation).coefficients.shape
                                         + batch, dtype=complex), truncation)


def test_inner_refuses_batch(grid):
    psi = batched_vector(grid, 2, (3,))
    with pytest.raises(ValueError):
        fock.inner(psi, psi)
    with pytest.raises(ValueError):
        fock.inner(fock.vacuum(grid, 2), psi)


@pytest.mark.parametrize("count", [1, 3, 7])
def test_random_batch_columns_are_successive_draws(grid, count):
    """Column j of a batched draw is the j-th of count single draws from the
    same stream, and the stream ends where the single draws leave it."""
    batched, single = fock.Draws("99"), fock.Draws("99")
    batch = fock.random_fock_vector(grid, 3, batched, count)
    assert batch.batch_shape == (count,)
    for j in range(count):
        psi = fock.random_fock_vector(grid, 3, single)
        for col, sec in zip(batch.sectors, psi.sectors):
            assert np.max(np.abs(col[:, j] - sec)) <= 1e-15
    assert batched.random() == single.random()


def test_norm_refuses_batch(grid):
    with pytest.raises(ValueError):
        fock.norm(batched_vector(grid, 2, (3,)))


# unequal weights, so that a weight read at the wrong slot shows
WEIGHTS = np.array([0.3, 0.5, 0.8])


def test_symmetrize_two_indices():
    """Symm(e_0 (x) e_1) is 1/2 on (0, 1) and (1, 0): coefficient |(0, 1)| / 2."""
    m = 3
    t = np.zeros((m, m), dtype=complex)
    t[0, 1] = 1.0  # e_0 (x) e_1
    s = fock.symmetrize(t, WEIGHTS, 2)
    expected = np.zeros(6, dtype=complex)  # labels 00 01 02 11 12 22
    expected[1] = 0.5 * math.sqrt(2 * WEIGHTS[0] * WEIGHTS[1])
    assert np.max(np.abs(s - expected)) < 1e-15


def test_symmetrize_idempotent(rng):
    """Packed -> symmetric tensor -> packed is the identity, and the tensor is symmetric."""
    t = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
    s = fock.symmetrize(t, WEIGHTS, 3)
    sym = fock.sector_tensor(s, WEIGHTS, 3)
    assert np.max(np.abs(fock.symmetrize(sym, WEIGHTS, 3) - s)) < 1e-14
    for perm in [(1, 0, 2), (2, 1, 0)]:
        assert np.max(np.abs(np.transpose(sym, perm) - sym)) < 1e-14


def test_symmetrize_axes_subset(rng):
    """The leading axes are symmetrized; trailing axes are a batch and stay put."""
    t = rng.standard_normal((2, 3, 3))
    s = fock.symmetrize(np.moveaxis(t, 0, -1), WEIGHTS, 2)
    assert s.shape == (6, 2)
    sym = np.moveaxis(fock.sector_tensor(s, WEIGHTS, 2), -1, 0)
    assert np.max(np.abs(sym - np.transpose(sym, (0, 2, 1)))) < 1e-14
    assert np.max(np.abs(sym.sum() - t.sum())) < 1e-12


def permutation_average(tensor, axes):
    """Reference Symm over ``axes``: the explicit sum over all their permutations."""
    axes = tuple(axes)
    perms = list(itertools.permutations(axes))
    out = np.zeros(tensor.shape, dtype=complex)
    for perm in perms:
        full = list(range(tensor.ndim))
        for src, dst in zip(axes, perm):
            full[src] = dst
        out += np.transpose(tensor, full)
    return out / len(perms)


def bounded(rng, shape):
    return rng.uniform(-0.5, 0.5, shape) + 1j * rng.uniform(-0.5, 0.5, shape)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_coset_step_creation_layout(n, rng):
    """Creation into sector n with a kernel row product is sqrt(n) Symm_n of
    outer(xi, Psi_{n-1}) prod_{k>=2} K[p_1, p_k], the permutation sum."""
    m = 3
    src = fock.symmetrize(bounded(rng, (m,) * (n - 1)), WEIGHTS, n - 1)
    kmat = np.exp(1j * rng.uniform(0.0, 2 * np.pi, (m, m)))
    xi = bounded(rng, m)
    psi = fock.zero_vector(MomentumGrid(np.arange(1.0, m + 1), WEIGHTS, 0.0), n)
    psi.sectors[n - 1][:] = src
    out = fock._create_with_kernel(xi, psi, kmat).sectors[n]
    raw = ref.entrywise(np.multiply.outer(xi, fock.sector_tensor(src, WEIGHTS, n - 1)),
                        lambda idx: math.prod(kmat[idx[0], k] for k in idx[1:]))
    expected = math.sqrt(n) * permutation_average(raw, range(n))
    assert np.max(np.abs(fock.sector_tensor(out, WEIGHTS, n) - expected)) <= 1e-14


@pytest.mark.parametrize("b", [1, 2, 3, 4, 5])
def test_coset_step_negative_half_layout(b, rng):
    """The '-' half creator: a positive axes, then the new axis, then b - 1 negative
    axes, symmetrized over the b negative axes by the permutation sum."""
    a, p, q = 2, 2, 3
    wp = WEIGHTS[:p]
    pair = chiral.ChiralGridPair(union=MomentumGrid(np.array([-2.0, -1.0, -0.5, 0.5, 1.5]),
                                                    np.concatenate([WEIGHTS, wp]), 0.0),
                                 n_negative=q)
    comp = bounded(rng, (p,) * a + (q,) * (b - 1))
    comp = permutation_average(permutation_average(comp, range(a)), range(a, a + b - 1))
    g = bounded(rng, q)
    xi = chiral.bifock_zero(pair, a + b)
    xi.components[(a, b - 1)][:] = ref.pair_coeffs(comp, wp, WEIGHTS, a, b - 1)
    out = chiral.create_half("-", g, xi).components[(a, b)]
    raw = np.moveaxis(np.multiply.outer(g, comp), 0, a)
    expected = math.sqrt(b) * permutation_average(raw, range(a, a + b))
    assert np.max(np.abs(ref.pair_tensor(out, wp, WEIGHTS, a, b) - expected)) <= 1e-14


@pytest.mark.parametrize("axes", [(0, 1, 2, 3), (1, 3), (0, 2, 3), (3, 1, 0)])
def test_symmetrize_axes_matches_permutation_sum(axes, rng):
    """Symmetrizing the given axes of a tensor with no symmetry, the others a batch,
    equals the permutation sum."""
    t = bounded(rng, (3, 3, 3, 3))
    n = len(axes)
    front = np.moveaxis(t, axes, range(n))
    packed = fock.symmetrize(front, WEIGHTS, n)
    expected = np.moveaxis(permutation_average(t, axes), axes, range(n))
    assert np.max(np.abs(fock.sector_tensor(packed, WEIGHTS, n) - expected)) <= 1e-15


# a 3-point negative and a 2-point positive half-line, both with unequal weights
UNEQUAL_PAIR = chiral.ChiralGridPair(union=MomentumGrid(np.array([-2.0, -1.0, -0.5, 0.5, 1.5]),
                                                        np.concatenate([WEIGHTS, WEIGHTS[:2]]),
                                                        0.0),
                                     n_negative=3)


def draw_scale(weights, n):
    """sqrt(prod_i w_{k_i}) per label of sector n, labels in lexicographic order."""
    labels = list(itertools.combinations_with_replacement(range(weights.size), n))
    return np.sqrt([math.prod(weights[list(kappa)]) for kappa in labels])


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_projected_gaussian_tensor_has_independent_coefficients(n):
    """The projection S, one column per unit tensor, has S S^H = diag(prod_i w_{k_i}):
    projecting a tensor of independent standard complex Gaussians gives
    independent coefficients of variance 2 prod_i w_{k_i}, which is how
    random_fock_vector draws them."""
    m = WEIGHTS.size
    proj = fock.symmetrize(np.eye(m ** n).reshape((m,) * n + (m ** n,)), WEIGHTS, n)
    cov = proj @ proj.conj().T
    assert np.max(np.abs(cov - np.diag(draw_scale(WEIGHTS, n) ** 2))) <= 1e-14


def test_projected_bifock_component_has_independent_coefficients():
    """Component (a, b), projected over the a positive and then the b negative
    axes: S S^H is the diagonal of the product of both halves' prod_i w_{k_i}."""
    pair, a, b = UNEQUAL_PAIR, 2, 2
    pw, nw = pair.positive_weights, pair.negative_weights
    k = pw.size ** a * nw.size ** b
    units = np.eye(k).reshape((pw.size,) * a + (nw.size,) * b + (k,))
    pos = np.moveaxis(fock.symmetrize(units, pw, a), 0, -1)
    proj = np.moveaxis(fock.symmetrize(pos, nw, b), -1, 0).reshape(-1, k)
    scale = np.multiply.outer(draw_scale(pw, a), draw_scale(nw, b)).ravel()
    assert np.max(np.abs(proj @ proj.conj().T - np.diag(scale ** 2))) <= 1e-14


class OnesGenerator:
    """Stands in for a numpy Generator whose every normal is 1."""

    def standard_normal(self, shape):
        return np.ones(shape)


def test_random_vectors_scale_each_label_by_the_root_of_its_weights():
    """With all normals 1, a random vector is (1 + i) times the per-label
    scale sqrt(prod_i w_{k_i}), normalized."""
    def assert_parallel(coeffs, scale):
        expected = (1 + 1j) / math.sqrt(2) * scale / np.linalg.norm(scale)
        assert np.max(np.abs(coeffs - expected)) <= 1e-15

    grid = MomentumGrid(np.array([0.5, 1.0, 1.5]), WEIGHTS, 1.0)
    psi = fock.random_fock_vector(grid, 3, OnesGenerator())
    assert_parallel(np.concatenate(psi.sectors),
                    np.concatenate([draw_scale(WEIGHTS, n) for n in range(4)]))
    pair = UNEQUAL_PAIR
    xi = chiral.random_bifock(pair, 3, OnesGenerator())
    assert_parallel(np.concatenate([c.ravel() for c in xi.components.values()]),
                    np.concatenate([np.multiply.outer(draw_scale(pair.positive_weights, a),
                                                      draw_scale(pair.negative_weights, b)).ravel()
                                    for a, b in xi.components]))


def test_annihilate_vacuum(grid, rng):
    vac = fock.vacuum(grid, 3)
    out = fock.annihilate(fock.random_one_particle(grid, rng), vac)
    assert fock.norm(out) == 0.0


def test_annihilate_one_particle_gives_pairing(grid, rng):
    xi = fock.random_one_particle(grid, rng)
    eta = fock.random_one_particle(grid, rng)
    vac = fock.vacuum(grid, 3)
    out = fock.annihilate(xi, fock.create(eta, vac))
    expected = complex(weighted_pairing(grid, xi, eta))
    assert abs(complex(out.sectors[0][0]) - expected) < 1e-12
    assert fock.norm(out - expected * vac) < 1e-12


def test_create_vacuum_gives_amplitude(grid, rng):
    xi = fock.random_one_particle(grid, rng)
    out = fock.create(xi, fock.vacuum(grid, 3))
    assert np.allclose(out.sectors[1], np.sqrt(grid.weights) * xi)
    assert np.max(np.abs(out.sectors[0])) == 0.0


def test_two_particle_creation_hand_formula(grid, rng):
    """adag(xi) adag(eta) vacuum has sector 2 = (xi o eta + eta o xi)/sqrt(2)."""
    xi = fock.random_one_particle(grid, rng)
    eta = fock.random_one_particle(grid, rng)
    out = fock.create(xi, fock.create(eta, fock.vacuum(grid, 3)))
    expected = (np.multiply.outer(xi, eta) + np.multiply.outer(eta, xi)) / math.sqrt(2)
    assert np.max(np.abs(ref.tensor(out.sectors[2], grid.weights, 2) - expected)) < 1e-12


def test_adjoint_pairing_explicit_inner(grid, rng):
    """<adag(xi) psi, phi> = <psi, a(xi) phi> on random pairs, via fock.inner."""
    xi = fock.random_one_particle(grid, rng)
    for _ in range(5):
        psi = fock.random_fock_vector(grid, 3, rng)
        phi = fock.random_fock_vector(grid, 3, rng)
        lhs = fock.inner(fock.create(xi, psi), phi)
        rhs = fock.inner(psi, fock.annihilate(xi, phi))
        assert abs(lhs - rhs) < 1e-12


def test_adjoint_matrices_conjugate_transpose(grid, rng):
    """Dense matrices via explicit inner products, independent of the fast path."""
    xi = fock.random_one_particle(grid, rng)
    basis = dense.FockBasis(grid, 3)
    dim = len(basis)
    mc = np.empty((dim, dim), dtype=complex)
    ma = np.empty((dim, dim), dtype=complex)
    for j, v in enumerate(basis_vectors(basis)):
        cv = fock.create(xi, v)
        av = fock.annihilate(xi, v)
        for i, b in enumerate(basis_vectors(basis)):
            mc[i, j] = fock.inner(b, cv)
            ma[i, j] = fock.inner(b, av)
    assert np.max(np.abs(mc - ma.conj().T)) < 1e-12


def test_ccr_below_truncation(grid, rng):
    xi = fock.random_one_particle(grid, rng)
    eta = fock.random_one_particle(grid, rng)
    pairing = complex(weighted_pairing(grid, xi, eta))
    full = fock.random_fock_vector(grid, 3, rng)
    psi = fock.FockVector(grid, full.coefficients.copy(), 3)
    for sec in psi.sectors[2:]:
        sec[...] = 0.0
    comm = (fock.annihilate(xi, fock.create(eta, psi))
            - fock.create(eta, fock.annihilate(xi, psi)))
    assert fock.norm(comm - pairing * psi) < TOL


def test_exponential_vector_zero_is_vacuum(grid):
    assert fock.norm(fock.exponential_vector(grid, np.zeros(grid.size), 3)
                     - fock.vacuum(grid, 3)) == 0.0


def test_exponential_vector_sectors(grid, rng):
    xi = fock.random_one_particle(grid, rng)
    e = fock.exponential_vector(grid, xi, 3)
    assert np.allclose(ref.tensor(e.sectors[2], grid.weights, 2),
                       np.multiply.outer(xi, xi) / math.sqrt(2))
    assert np.allclose(ref.tensor(e.sectors[3], grid.weights, 3),
                       np.multiply.outer(np.multiply.outer(xi, xi), xi) / math.sqrt(6))


def test_exponential_inner_closed_form(grid, rng):
    xi = 0.5 * fock.random_one_particle(grid, rng)
    eta = 0.5 * fock.random_one_particle(grid, rng)
    n_top = 3
    lhs = fock.inner(fock.exponential_vector(grid, xi, n_top),
                     fock.exponential_vector(grid, eta, n_top))
    z = complex(weighted_pairing(grid, xi, eta))
    rhs = sum(z ** n / math.factorial(n) for n in range(n_top + 1))
    assert abs(lhs - rhs) < 1e-12


def test_translation_identity_and_unitarity(grid, rng):
    psi = fock.random_fock_vector(grid, 3, rng)
    assert fock.norm(fock.apply_translation((0.0, 0.0), psi) - psi) == 0.0
    moved = fock.apply_translation((0.8, -1.1), psi)
    assert abs(fock.norm(moved) - fock.norm(psi)) < 1e-12


def test_translation_one_particle_phase(grid, rng):
    xi = fock.random_one_particle(grid, rng)
    x = (0.37, 1.21)
    out = fock.apply_translation(x, fock.create(xi, fock.vacuum(grid, 2)))
    expected = np.exp(1j * (x[0] * grid.omegas - x[1] * grid.points)) * xi
    assert np.max(np.abs(out.sectors[1] - np.sqrt(grid.weights) * expected)) < 1e-14


def test_boost_identity_and_vacuum(grid, rng):
    psi = fock.random_fock_vector(grid, 3, rng)
    res = fock.apply_boost(0, psi)
    assert not res.truncated
    assert fock.norm(res.vector - psi) == 0.0
    res = fock.apply_boost(2, fock.vacuum(grid, 3))
    assert fock.norm(res.vector - fock.vacuum(grid, 3)) == 0.0


def test_boost_shifts_basis_vectors():
    """One-particle basis vector at rapidity slot k lands on slot k - j."""
    g = rapidity_grid(1.0, 6)
    vac = fock.vacuum(g, 2)
    for j in (1, -2):
        for k in range(6):
            delta = np.zeros(6)
            delta[k] = 1.0
            res = fock.apply_boost(j, fock.create(delta, vac))
            if 0 <= k - j < 6:
                target = np.zeros(6)
                target[k - j] = 1.0
                assert fock.norm(res.vector - fock.create(target, vac)) == 0.0
                assert not res.truncated
            else:
                assert fock.norm(res.vector) == 0.0
                assert res.truncated


def test_boost_massless_blocks():
    pair = chiral_pair(3)
    g = pair.union
    vac = fock.vacuum(g, 2)
    # positive block: basis at union slot 4 (p = 1) moves down to slot 3 (p = 0.5)
    delta = np.zeros(6)
    delta[4] = 1.0
    res = fock.apply_boost(1, fock.create(delta, vac))
    target = np.zeros(6)
    target[3] = 1.0
    assert fock.norm(res.vector - fock.create(target, vac)) == 0.0
    # negative block: slot 1 (p = -1) moves to slot 0 (p = -2), i.e. |p| grows
    delta = np.zeros(6)
    delta[1] = 1.0
    res = fock.apply_boost(1, fock.create(delta, vac))
    target = np.zeros(6)
    target[0] = 1.0
    assert fock.norm(res.vector - fock.create(target, vac)) == 0.0
    # no leaking across the sign blocks
    delta = np.zeros(6)
    delta[3] = 1.0  # smallest positive momentum
    res = fock.apply_boost(1, fock.create(delta, vac))
    assert res.truncated
    assert fock.norm(res.vector) == 0.0


def test_boost_norm_preserved_in_range(grid, rng):
    delta = np.zeros(grid.size)
    delta[2] = 1.0
    psi = fock.create(delta, fock.create(delta, fock.vacuum(grid, 3)))
    res = fock.apply_boost(1, psi)
    assert not res.truncated
    assert abs(fock.norm(res.vector) - fock.norm(psi)) < 1e-12


def test_reflection_antiunitary(grid, rng):
    a = fock.random_fock_vector(grid, 3, rng)
    b = fock.random_fock_vector(grid, 3, rng)
    ja, jb = fock.apply_reflection(a), fock.apply_reflection(b)
    assert abs(fock.inner(ja, jb) - np.conj(fock.inner(a, b))) < 1e-12
    assert fock.norm(fock.apply_reflection(ja) - a) == 0.0
    assert fock.norm(fock.apply_reflection(1j * a) + 1j * ja) == 0.0


def test_real_sector_vectors_fixed_by_reflection(grid):
    vac = fock.vacuum(grid, 2)
    real_vec = fock.create(np.ones(grid.size), vac)
    assert fock.norm(fock.apply_reflection(real_vec) - real_vec) == 0.0


def test_field_zero_data(grid):
    fd = fock.TestFunctionData(np.zeros(grid.size), np.zeros(grid.size))
    out = fock.field(fd, fock.vacuum(grid, 3))
    assert fock.norm(out) == 0.0


def test_field_vacuum_sectors(grid, rng):
    fd = fock.real_test_function(fock.random_one_particle(grid, rng))
    out = fock.field(fd, fock.vacuum(grid, 3))
    assert np.allclose(out.sectors[1], np.sqrt(grid.weights) * fd.fplus)
    assert np.max(np.abs(out.sectors[2])) == 0.0
    assert np.max(np.abs(out.sectors[3])) == 0.0


def test_field_hermitian_for_real_data(grid, rng):
    fd = fock.real_test_function(fock.random_one_particle(grid, rng))
    for _ in range(5):
        psi = fock.random_fock_vector(grid, 3, rng)
        phi = fock.random_fock_vector(grid, 3, rng)
        assert abs(fock.inner(fock.field(fd, psi), phi)
                   - fock.inner(psi, fock.field(fd, phi))) < 1e-12


def test_test_function_data_validation(grid, rng):
    xi = fock.random_one_particle(grid, rng)
    with pytest.raises(ValueError):
        fock.TestFunctionData(fplus=xi, fminus=xi + 1.0, real=True)
    with pytest.raises(ValueError):
        fock.TestFunctionData(fplus=xi, fminus=xi[:2])


def test_vector_arithmetic(grid, rng):
    a = fock.random_fock_vector(grid, 2, rng)
    b = fock.random_fock_vector(grid, 2, rng)
    assert fock.norm((a + b) - b - a) < 1e-14
    assert fock.norm(2.0 * a - a - a) < 1e-14
    assert fock.norm(-a + a) == 0.0
