"""Every packed operator against the tensor-layout reference, at N = 3 on 6 points."""

import numpy as np
import pytest

import tensor_reference as ref
from dense_reference import annihilate_deformed_sharp, sharp_annihilate
from fockdeform import chiral, dense, fock
from fockdeform.deformation import (KernelSpec, _delta, annihilate_deformed, create_deformed,
                                    kernel_matrix)
from fockdeform.grids import ChiralGridPair, MomentumGrid, boost_blocks, chiral_pair, rapidity_grid
from fockdeform.inner import make_root, random_symmetric_blaschke
from random_states import random_bifock_state, random_fock_state

N = 3
TOL = 1e-14
# unequal weights, so that a weight read at the wrong slot shows
GRID = MomentumGrid(np.array([-2.1, -1.2, -0.4, 0.3, 0.9, 1.7]),
                    np.array([0.35, 0.6, 0.25, 0.5, 0.8, 0.3]), 0.0)
PAIR = ChiralGridPair(union=GRID, n_negative=3)


def rng():
    return np.random.default_rng(4242)


def root():
    return make_root(random_symmetric_blaschke(np.random.default_rng(17)))


def amplitude(size, generator):
    return generator.uniform(-1, 1, size) + 1j * generator.uniform(-1, 1, size)


def worst(got, expected):
    return max(np.max(np.abs(g - e), initial=0.0) for g, e in zip(got, expected, strict=True))


def bi_worst(got, expected):
    return max(np.max(np.abs(got[k] - expected[k]), initial=0.0) for k in expected)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_symmetrize_and_sector_tensor_match_reference(n):
    r = rng()
    raw = r.standard_normal((6,) * n) + 1j * r.standard_normal((6,) * n)
    w = GRID.weights
    packed = fock.symmetrize(raw, w, n)
    assert np.max(np.abs(packed - ref.coeffs(ref.symmetrize(raw, range(n)), w, n))) <= TOL
    assert np.max(np.abs(fock.sector_tensor(packed, w, n) - ref.tensor(packed, w, n))) <= TOL


@pytest.mark.parametrize("name", ["annihilate", "create", "annihilate_deformed",
                                  "create_deformed"])
def test_ladder_matches_reference(name):
    r = rng()
    psi = random_fock_state(GRID, N, r)
    xi = amplitude(6, r)
    spec = KernelSpec(root=root(), mass=0.0)
    kmat = kernel_matrix(spec, GRID)
    tensors = ref.tower(psi)
    got, expected = {
        "annihilate": lambda: (fock.annihilate(xi, psi),
                               ref.annihilate(xi, tensors, GRID.weights)),
        "create": lambda: (fock.create(xi, psi), ref.create(xi, tensors)),
        "annihilate_deformed": lambda: (annihilate_deformed(spec, xi, psi),
                                        ref.annihilate(xi, tensors, GRID.weights, kmat)),
        "create_deformed": lambda: (create_deformed(spec, xi, psi),
                                    ref.create(xi, tensors, np.conj(kmat))),
    }[name]()
    assert worst(got.sectors, ref.packed(GRID, expected).sectors) <= TOL


@pytest.mark.parametrize("dressed", [False, True])
def test_sharp_annihilators_match_reference(dressed):
    psi = random_fock_state(GRID, N, rng())
    spec = KernelSpec(root=root(), mass=0.0)
    tensors = ref.tower(psi)
    for q, p in enumerate(GRID.points):
        if dressed:
            got = annihilate_deformed_sharp(spec, float(p), psi)
            expected = ref.sharp_annihilate(q, tensors, kernel_matrix(spec, GRID)[q])
        else:
            got = sharp_annihilate(float(p), psi)
            expected = ref.sharp_annihilate(q, tensors)
        assert worst(got.sectors, ref.packed(GRID, expected).sectors) <= TOL


def sharp_each(idx, psi, spec=None):
    """Slot j of psi's first batch axis loses a particle at grid point idx[j], through
    the stacked (deformed) annihilator of the delta amplitudes."""
    deltas = _delta(psi.grid.points[idx], psi.grid)
    if spec is None:
        return fock.annihilate(deltas, psi)
    return annihilate_deformed((spec,) * len(idx), deltas, psi)


@pytest.mark.parametrize("grid", [GRID, rapidity_grid(1.0, 5, -1.0, 1.2)],
                         ids=["unequal-weights", "rapidity"])
@pytest.mark.parametrize("dressed", [False, True])
@pytest.mark.parametrize("inputs", ["one-sector", "batch"])
def test_batched_sharp_annihilator_slices(grid, dressed, inputs):
    """Slice j of the batched sharp annihilator is the unbatched one at p_j, bit
    for bit, and the tensor reference's up to rounding; slots may repeat a point."""
    r = rng()
    spec = KernelSpec(root=root(), mass=grid.mass)
    psi = random_fock_state(grid, N, r, 2)
    if inputs == "one-sector":
        start = fock._offsets(grid.size, N)
        coefs = np.zeros(start[-1], dtype=complex)
        coefs[start[2]:start[3]] = 1.0 - 0.5j  # sector 2 alone
        psi = fock.FockVector(grid, coefs, N)
    idx = np.array([grid.size - 1, 0, 2, 2])
    stacked = np.stack([psi.coefficients] * idx.size, axis=1)
    got = sharp_each(idx, fock.FockVector(grid, stacked, N), spec if dressed else None)
    columns = [psi] if inputs == "one-sector" else [
        fock.FockVector(grid, psi.coefficients[:, k], N) for k in range(2)]
    for j, q in enumerate(idx):
        p = float(grid.points[q])
        want = annihilate_deformed_sharp(spec, p, psi) if dressed else sharp_annihilate(p, psi)
        assert np.array_equal(got.coefficients[:, j], want.coefficients)
        row = kernel_matrix(spec, grid)[q] if dressed else None
        for k, column in enumerate(columns):
            expected = ref.packed(grid, ref.sharp_annihilate(q, ref.tower(column), row))
            slot = got.coefficients[:, j] if inputs == "one-sector" else got.coefficients[:, j, k]
            assert np.max(np.abs(slot - expected.coefficients)) <= TOL


@pytest.mark.parametrize("dressed", [False, True])
def test_batched_sharp_annihilator_zeros_and_nan(dressed):
    spec = KernelSpec(root=root(), mass=GRID.mass) if dressed else None
    idx = np.arange(GRID.size)
    dim = fock._offsets(GRID.size, N)[-1]
    zero = sharp_each(idx, fock.FockVector(GRID, np.zeros((dim, 6, 3)), N), spec)
    assert np.all(zero.coefficients == 0.0)
    coefs = np.stack([random_fock_state(GRID, N, rng()).coefficients] * 6, axis=1)
    coefs[:, 3] = np.nan
    out = sharp_each(idx, fock.FockVector(GRID, coefs, N), spec).coefficients
    assert np.all(np.isfinite(np.delete(out, 3, axis=1)))
    assert np.isnan(out[: fock._offsets(GRID.size, N)[-2], 3]).all()


def test_pair_phases_match_reference():
    """The union pair phase and the split-tower cross twist built from it."""
    r = rng()
    gmat = np.exp(1j * r.uniform(0, 2 * np.pi, (6, 6)))
    gmat = gmat * gmat.T
    psi = random_fock_state(GRID, N, r)
    expected = ref.pair_phase(gmat, ref.tower(psi))
    assert worst(fock.apply_pair_phase(gmat, psi).sectors,
                 ref.packed(GRID, expected).sectors) <= TOL
    xi = random_bifock_state(PAIR, N, r)
    cmat = gmat[3:, :3]
    tensors = ref.bitower(xi)
    twisted = {(a, b): ref.entrywise(t, lambda idx, a=a: np.prod(
        [cmat[i, j] for i in idx[:a] for j in idx[a:]])) for (a, b), t in tensors.items()}
    got = chiral.apply_cross_twist_matrix(PAIR, cmat, xi)
    assert bi_worst(got.components, ref.bipacked(PAIR, N, twisted).components) <= TOL


def test_translation_and_reflection_match_reference():
    psi = random_fock_state(GRID, N, rng())
    x = (0.7, -1.3)
    phases = np.exp(1j * (x[0] * GRID.omegas - x[1] * GRID.points))
    expected = ref.translation(phases, ref.tower(psi))
    assert worst(fock.apply_translation(x, psi).sectors,
                 ref.packed(GRID, expected).sectors) <= TOL
    expected = [np.conj(t) for t in ref.tower(psi)]
    assert worst(fock.apply_reflection(psi).sectors, ref.packed(GRID, expected).sectors) <= TOL


@pytest.mark.parametrize("grid", [rapidity_grid(1.0, 6), chiral_pair(3).union],
                         ids=["rapidity", "geometric"])
@pytest.mark.parametrize("shift", [-2, -1, 0, 1, 2])
def test_boost_matches_reference(grid, shift):
    psi = random_fock_state(grid, N, rng())
    expected = ref.boost(shift, boost_blocks(grid), ref.tower(psi))
    assert worst(fock.apply_boost(shift, psi).sectors, ref.packed(grid, expected).sectors) <= TOL


def test_merge_and_split_match_reference():
    r = rng()
    xi = random_bifock_state(PAIR, N, r)
    expected = ref.merge(PAIR, ref.bitower(xi), N)
    assert worst(chiral.merge_chiral(xi).sectors, ref.packed(GRID, expected).sectors) <= TOL
    psi = random_fock_state(GRID, N, r)
    expected = ref.split(PAIR, ref.tower(psi))
    assert bi_worst(chiral.split_chiral(psi, PAIR).components,
                    ref.bipacked(PAIR, N, expected).components) <= TOL


@pytest.mark.parametrize("side", ["+", "-"])
def test_half_operators_match_reference(side):
    r = rng()
    xi = random_bifock_state(PAIR, N, r)
    g = amplitude(3, r)
    tensors = ref.bitower(xi)
    got = chiral.annihilate_half(side, g, xi)
    expected = ref.annihilate_half(side, g, tensors, PAIR)
    assert bi_worst(got.components, ref.bipacked(PAIR, N, expected).components) <= TOL
    got = chiral.create_half(side, g, xi)
    expected = ref.create_half(side, g, tensors)
    assert bi_worst(got.components, ref.bipacked(PAIR, N, expected).components) <= TOL


def test_exponential_vectors_match_reference():
    r = rng()
    xi = amplitude(6, r)
    assert worst(fock.exponential_vector(GRID, xi, N).sectors,
                 ref.packed(GRID, ref.exponential(xi, N)).sectors) <= TOL
    psi, phi = amplitude(3, r), amplitude(3, r)
    pos, neg = ref.exponential(psi, N), ref.exponential(phi, N)
    expected = {(a, b): np.multiply.outer(pos[a], neg[b]) for (a, b) in chiral._component_keys(N)}
    assert bi_worst(chiral.exponential_pair(PAIR, psi, phi, N).components,
                    ref.bipacked(PAIR, N, expected).components) <= TOL


def test_merge_matrix_is_a_unit_permutation():
    mat = dense.operator_matrix(chiral.merge_chiral, dense.BiFockBasis(PAIR, N),
                                dense.FockBasis(GRID, N))
    assert np.all((mat == 0.0) | (mat == 1.0))
    assert np.all(np.sum(mat == 1.0, axis=0) == 1) and np.all(np.sum(mat == 1.0, axis=1) == 1)


def test_reference_kernel_is_nontrivial():
    """The deformed cases above compare against a kernel far from 1."""
    kmat = kernel_matrix(KernelSpec(root=root(), mass=0.0), GRID)
    assert np.max(np.abs(kmat - 1.0)) > 0.1


# Inputs that the ladders' live-range gather treats differently: the sectors
# (total degrees on the split tower) holding nonzero coefficients, or a batch
INPUTS = {"sector0": (0,), "sector1": (1,), "sector2": (2,), "sector3": (3,),
          "sectors1-2": (1, 2), "batch3": None}
AMPLITUDES = ("point", "half-line")


def live_input(vec_fn, kind):
    """A random vector supported on the sectors of ``kind``, or a batch of 3."""
    vec = vec_fn(rng(), 3 if INPUTS[kind] is None else None)
    if INPUTS[kind] is not None:
        for n, part in parts(vec):
            if n not in INPUTS[kind]:
                part[...] = 0.0
    return vec


def parts(vec):
    """(total degree, view) of each sector or split-tower component."""
    if isinstance(vec, fock.FockVector):
        return enumerate(vec.sectors)
    return ((a + b, comp) for (a, b), comp in vec.components.items())


def columns(vec):
    return [vec._with(vec.coefficients[:, c]) for c in range(vec.batch_shape[0])] \
        if vec.batch_shape else [vec]


def assert_matches_reference(op, reference, vec):
    got = op(vec)
    for col, out in zip(columns(vec), columns(got), strict=True):
        if isinstance(col, fock.FockVector):
            expected = ref.packed(GRID, reference(ref.tower(col)))
            assert worst(out.sectors, expected.sectors) <= TOL
        else:
            expected = ref.bipacked(PAIR, N, reference(ref.bitower(col)))
            assert bi_worst(out.components, expected.components) <= TOL


def supported(size, kind):
    """An amplitude on one grid point (the last), or on the first three points:
    the negative half-line of GRID, the whole of a half-grid."""
    out = np.zeros(size, dtype=complex)
    pick = slice(size - 1, size) if kind == "point" else slice(0, 3)
    out[pick] = amplitude(size, np.random.default_rng(9))[pick]
    return out


def union_operators(xi):
    """name -> (operator, reference on the tensors) on the union tower."""
    spec = KernelSpec(root=root(), mass=0.0)
    kmat = kernel_matrix(spec, GRID)
    q = int(np.flatnonzero(xi)[-1])
    p = float(GRID.points[q])
    w = GRID.weights
    return {
        "annihilate": (lambda v: fock.annihilate(xi, v), lambda t: ref.annihilate(xi, t, w)),
        "create": (lambda v: fock.create(xi, v), lambda t: ref.create(xi, t)),
        "annihilate_deformed": (lambda v: annihilate_deformed(spec, xi, v),
                                lambda t: ref.annihilate(xi, t, w, kmat)),
        "create_deformed": (lambda v: create_deformed(spec, xi, v),
                            lambda t: ref.create(xi, t, np.conj(kmat))),
        "sharp_annihilate": (lambda v: sharp_annihilate(p, v),
                             lambda t: ref.sharp_annihilate(q, t)),
        "annihilate_deformed_sharp": (lambda v: annihilate_deformed_sharp(spec, p, v),
                                      lambda t: ref.sharp_annihilate(q, t, kmat[q])),
    }


def half_operators(g):
    """name -> (operator, reference on the components) on the split tower."""
    return {f"{name}{side}": pair for side in "+-" for name, pair in {
        "annihilate_half": (lambda v, s=side: chiral.annihilate_half(s, g, v),
                            lambda t, s=side: ref.annihilate_half(s, g, t, PAIR)),
        "create_half": (lambda v, s=side: chiral.create_half(s, g, v),
                        lambda t, s=side: ref.create_half(s, g, t)),
    }.items()}


UNION_OPS = tuple(union_operators(supported(6, "point")))
HALF_OPS = tuple(half_operators(supported(3, "point")))


def random_union(generator, count):
    return random_fock_state(GRID, N, generator, count)


def random_split(generator, count):
    return random_bifock_state(PAIR, N, generator, count)


@pytest.mark.parametrize("amp", AMPLITUDES)
@pytest.mark.parametrize("kind", INPUTS)
@pytest.mark.parametrize("name", UNION_OPS)
def test_union_ladders_match_reference_on_live_ranges(name, kind, amp):
    op, reference = union_operators(supported(6, amp))[name]
    assert_matches_reference(op, reference, live_input(random_union, kind))


@pytest.mark.parametrize("amp", AMPLITUDES)
@pytest.mark.parametrize("kind", INPUTS)
@pytest.mark.parametrize("name", HALF_OPS)
def test_half_ladders_match_reference_on_live_ranges(name, kind, amp):
    op, reference = half_operators(supported(3, amp))[name]
    assert_matches_reference(op, reference, live_input(random_split, kind))


ALL_OPS = [(union_operators, 6, random_union, name) for name in UNION_OPS] + \
    [(half_operators, 3, random_split, name) for name in HALF_OPS]


@pytest.mark.parametrize("operators, size, draw, name", ALL_OPS,
                         ids=[case[-1] for case in ALL_OPS])
def test_ladders_map_zero_to_exact_zero(operators, size, draw, name):
    op, _ = operators(supported(size, "half-line"))[name]
    for count in (None, 3):
        vec = draw(rng(), count)
        out = op(vec._with(np.zeros_like(vec.coefficients)))
        assert out.coefficients.shape == vec.coefficients.shape
        assert np.all(out.coefficients == 0.0)


@pytest.mark.parametrize("operators, size, draw, name", ALL_OPS,
                         ids=[case[-1] for case in ALL_OPS])
def test_ladders_keep_a_nan_in_its_batch_column(operators, size, draw, name):
    op, _ = operators(supported(size, "half-line"))[name]
    vec = draw(rng(), 3)
    vec.coefficients[-1, 1] = np.nan  # a top-sector (or top-degree) coefficient of column 1
    vec.coefficients[5, 1] = np.nan
    out = op(vec).coefficients
    assert np.all(np.isfinite(out[:, [0, 2]]))
