"""Orthonormal bases and matrix oracles for the truncated towers."""

import functools
import itertools
import math
import operator

import numpy as np
import pytest

import tensor_reference as ref
from dense_reference import (basis_labels, basis_vectors, hermiticity_defect, sharp_annihilate,
                             unitarity_defect)
from fockdeform import chiral, dense, fock
from fockdeform.deformation import (KernelSpec, SharpTwistVariant, annihilate_deformed,
                                    apply_kernel_phases, sharp_momentum_twist)
from fockdeform.grids import chiral_pair, rapidity_grid
from fockdeform.inner import make_root, random_symmetric_blaschke
from random_states import random_bifock_state, random_fock_state


def test_fock_basis_orthonormal():
    grid = rapidity_grid(1.0, 3, -0.8, 1.2)
    basis = dense.FockBasis(grid, 2)
    gram = np.array([[fock.inner(u, v) for v in basis_vectors(basis)]
                     for u in basis_vectors(basis)])
    assert np.max(np.abs(gram - np.eye(len(basis)))) < 1e-13
    assert len(basis) == 1 + 3 + 6  # multisets of sizes 0, 1, 2 over 3 points


def test_fock_coefficients_match_explicit_inner():
    grid = rapidity_grid(1.0, 4)
    basis = dense.FockBasis(grid, 3)
    rng = np.random.default_rng(5)
    psi = random_fock_state(grid, 3, rng)
    fast = basis.coefficients(psi)
    slow = np.array([fock.inner(b, psi) for b in basis_vectors(basis)])
    assert np.max(np.abs(fast - slow)) < 1e-12


def test_coefficients_reconstruct_vector():
    grid = rapidity_grid(1.0, 3, -0.8, 1.2)
    basis = dense.FockBasis(grid, 2)
    rng = np.random.default_rng(6)
    psi = random_fock_state(grid, 2, rng)
    rebuilt = fock.zero_vector(grid, 2)
    for c, b in zip(basis.coefficients(psi), basis_vectors(basis)):
        rebuilt = rebuilt + complex(c) * b
    assert fock.norm(rebuilt - psi) < 1e-12


def test_bifock_basis_orthonormal_and_coefficients():
    pair = chiral_pair(2)
    basis = dense.BiFockBasis(pair, 2)
    gram = np.array([[chiral.bifock_inner(u, v) for v in basis_vectors(basis)]
                     for u in basis_vectors(basis)])
    assert np.max(np.abs(gram - np.eye(len(basis)))) < 1e-13
    rng = np.random.default_rng(7)
    xi = random_bifock_state(pair, 2, rng)
    fast = basis.coefficients(xi)
    slow = np.array([chiral.bifock_inner(b, xi) for b in basis_vectors(basis)])
    assert np.max(np.abs(fast - slow)) < 1e-12


def test_bifock_coefficients_are_in_union_label_order():
    """The split basis reads a state as its merge does, and writes it back."""
    pair = chiral_pair(3)
    basis = dense.BiFockBasis(pair, 3)
    xi = random_bifock_state(pair, 3, np.random.default_rng(9), 2)
    coefficients = basis.coefficients(xi)
    assert np.array_equal(coefficients, chiral.merge_chiral(xi).coefficients)
    assert np.array_equal(basis._vector(coefficients).coefficients, xi.coefficients)


def test_operator_matrix_identity_and_defects():
    grid = rapidity_grid(1.0, 3, -0.8, 1.2)
    basis = dense.FockBasis(grid, 2)
    eye = dense.operator_matrix(lambda v: v, basis)
    assert dense.matrix_deviation(eye, np.eye(len(basis))) < 1e-13
    assert unitarity_defect(eye) < 1e-13
    assert hermiticity_defect(eye) < 1e-13
    phase = dense.operator_matrix(lambda v: 1j * v, basis)
    assert unitarity_defect(phase) < 1e-13
    assert hermiticity_defect(phase) > 1.0


def test_operator_matrix_reproduces_action():
    """Matrix-vector product equals applying the operator, via coefficients."""
    grid = rapidity_grid(1.0, 3, -0.8, 1.2)
    basis = dense.FockBasis(grid, 3)
    rng = np.random.default_rng(8)
    xi = fock.random_one_particle(grid, rng)
    mat = dense.operator_matrix(lambda v: fock.create(xi, v), basis)
    psi = random_fock_state(grid, 3, rng)
    coef_out = mat @ basis.coefficients(psi)
    direct = basis.coefficients(fock.create(xi, psi))
    assert np.max(np.abs(coef_out - direct)) < 1e-12


def symmetric_unit_tensor(m, kappa):
    """Per-label reference: 1 on every distinct rearrangement of kappa, 0 elsewhere."""
    t = np.zeros((m,) * len(kappa), dtype=complex)
    for perm in set(itertools.permutations(kappa)):
        t[perm] = 1.0
    return t


def test_multiset_norm_matches_tensor_norm():
    grid = rapidity_grid(1.0, 3, -0.8, 1.2)
    t = symmetric_unit_tensor(3, (0, 0, 2))
    w = grid.weights
    raw_sq = 0.0
    for idx in np.ndindex(t.shape):
        raw_sq += (w[idx[0]] * w[idx[1]] * w[idx[2]]) * abs(t[idx]) ** 2
    tower = fock._tower(3, 3)
    norms = fock._norms(w, 3)[0]
    row = tower.index(np.array([0, 0, 2])) - tower.start[3]
    assert abs(math.sqrt(raw_sq) - norms[row]) < 1e-13


def loop_coefficients(basis, vec):
    """The per-label loop that the concatenation replaces: label i reads its own entry."""
    out = np.empty(len(basis), dtype=complex)
    for i, label in enumerate(basis_labels(basis)):
        if isinstance(basis, dense.FockBasis):
            n, kappa = label
            m = basis.grid.size
            entry = vec.sectors[n][list(itertools.combinations_with_replacement(range(m), n))
                                   .index(kappa)]
        else:
            kpos, kneg = label
            pair = basis.pair
            rows = list(itertools.combinations_with_replacement(range(pair.n_positive),
                                                                len(kpos)))
            cols = list(itertools.combinations_with_replacement(range(pair.n_negative),
                                                                len(kneg)))
            entry = vec.components[(len(kpos), len(kneg))][rows.index(kpos), cols.index(kneg)]
        out[i] = entry
    return out


def test_coefficients_equal_per_label_loop_exactly():
    rng = np.random.default_rng(8)
    grid = rapidity_grid(1.0, 4)
    basis = dense.FockBasis(grid, 3)
    psi = random_fock_state(grid, 3, rng)
    assert np.all(basis.coefficients(psi) == loop_coefficients(basis, psi))
    # a non-contiguous coefficient array (column 1 of a batch) is read the same way
    psi = fock.FockVector(grid, np.stack([-psi.coefficients, psi.coefficients], axis=1)[:, 1], 3)
    assert np.all(basis.coefficients(psi) == loop_coefficients(basis, psi))
    pair = chiral_pair(3)
    bbasis = dense.BiFockBasis(pair, 3)
    xi = random_bifock_state(pair, 3, rng)
    assert np.all(bbasis.coefficients(xi) == loop_coefficients(bbasis, xi))
    xi = chiral.BiFockVector(pair, 3, np.stack([-xi.coefficients, xi.coefficients], axis=1)[:, 1])
    assert np.all(bbasis.coefficients(xi) == loop_coefficients(bbasis, xi))


def reference_vectors(basis):
    """Basis vectors built label by label from the per-label unit tensors and
    packed through the tensor-layout reference."""
    out = []
    for label in basis_labels(basis):
        if isinstance(basis, dense.FockBasis):
            n, kappa = label
            m, w = basis.grid.size, basis.grid.weights
            secs = [np.zeros((m,) * k, dtype=complex) for k in range(basis.truncation + 1)]
            secs[n] = symmetric_unit_tensor(m, kappa) / ref.multiset_norm(w, kappa)
            out.append(ref.packed(basis.grid, secs))
        else:
            kpos, kneg = label
            pair = basis.pair
            tpos = (symmetric_unit_tensor(pair.n_positive, kpos)
                    / ref.multiset_norm(pair.positive_weights, kpos))
            tneg = (symmetric_unit_tensor(pair.n_negative, kneg)
                    / ref.multiset_norm(pair.negative_weights, kneg))
            tensors = {key: np.zeros((pair.n_positive,) * key[0] + (pair.n_negative,) * key[1],
                                     dtype=complex)
                       for key in chiral._component_keys(basis.truncation)}
            tensors[(len(kpos), len(kneg))] = np.multiply.outer(tpos, tneg)
            out.append(ref.bipacked(pair, basis.truncation, tensors))
    return out


def column_loop(op, domain, codomain=None):
    """The oracle that the batched blocks replace: one application per basis vector."""
    cod = domain if codomain is None else codomain
    return np.stack([cod.coefficients(op(v)) for v in basis_vectors(domain)], axis=1)


def test_basis_vectors_equal_per_label_reference():
    pair = chiral_pair(2)
    for basis in (dense.FockBasis(pair.union, 3), dense.BiFockBasis(pair, 3)):
        for got, want in zip(basis_vectors(basis), reference_vectors(basis), strict=True):
            if isinstance(basis, dense.FockBasis):
                assert all(np.max(np.abs(a - b)) < 1e-14
                           for a, b in zip(got.sectors, want.sectors))
            else:
                assert all(np.max(np.abs(got.components[k] - want.components[k])) < 1e-14
                           for k in want.components)


ORACLE_TRUNCATION = 4


def oracle_case(name):
    """(op, domain, codomain) for one operator."""
    rng = np.random.default_rng(11)
    root = make_root(random_symmetric_blaschke(rng))
    pair = chiral_pair(3)
    grid = rapidity_grid(1.0, 6)
    basis = dense.FockBasis(grid, ORACLE_TRUNCATION)
    spec = KernelSpec(root=root, mass=grid.mass)
    xi = fock.random_one_particle(grid, rng)
    if name == "create":
        return (lambda v: fock.create(xi, v)), basis, None
    if name == "annihilate_deformed":
        return (lambda v: annihilate_deformed(spec, xi, v)), basis, None
    if name == "sharp_momentum_twist":
        p = float(grid.points[2])
        return (lambda v: sharp_momentum_twist(spec, SharpTwistVariant.SIGN_SPLIT, p, v,
                                               adjoint=True)), basis, None
    if name == "dressed_sum":
        def dressed_sum(v):
            return functools.reduce(operator.add, (
                grid.weights[idx] * np.conj(xi[idx])
                * sharp_annihilate(float(q), apply_kernel_phases(spec, q, v))
                for idx, q in enumerate(grid.points)))
        return dressed_sum, basis, None
    union = dense.FockBasis(pair.union, ORACLE_TRUNCATION)
    if name == "merge_chiral":
        return chiral.merge_chiral, dense.BiFockBasis(pair, ORACLE_TRUNCATION), union
    amp = np.zeros(pair.union.size, dtype=complex)
    amp[:pair.n_negative] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    return (lambda v: chiral.twisted_annihilator(root, amp, pair, v, "split")), union, None


@pytest.mark.parametrize("name", ["create", "annihilate_deformed", "sharp_momentum_twist",
                                  "merge_chiral", "twisted_annihilator_split",
                                  "dressed_sum"])
def test_operator_matrix_equals_column_loop(name, monkeypatch):
    op, domain, codomain = oracle_case(name)
    cod = domain if codomain is None else codomain
    # small blocks, so that several block boundaries are crossed
    monkeypatch.setattr(dense, "_BLOCK_ENTRIES", 7 * max(len(domain), len(cod)))
    assert len(domain) > 3 * 7
    batched = dense.operator_matrix(op, domain, codomain)
    assert np.max(np.abs(batched - column_loop(op, domain, codomain))) <= 1e-14


@pytest.mark.parametrize("entries", [1, 2, 5, 13])
def test_block_runs_without_sectors_are_strided_ranges(entries, monkeypatch):
    """The one block rule: a run holds block_width(entries) items, at most _BLOCK_ENTRIES
    entries or one item, and without sectors the runs are the ranges of that stride."""
    monkeypatch.setattr(dense, "_BLOCK_ENTRIES", 12)
    width = dense.block_width(entries)
    assert width == max(1, 12 // entries)
    for count in (0, 1, 5, 12, 13, 30):
        assert list(dense.block_runs(count, width)) == [
            (first, min(first + width, count)) for first in range(0, count, width)]


def test_vectors_reject_disagreeing_batch_shapes():
    grid = rapidity_grid(1.0, 3, -0.8, 1.2)
    with pytest.raises(ValueError):  # D = 1 + 3 + 6 coefficients
        fock.FockVector(grid, np.zeros((9, 2)), 2)
    batched = fock.FockVector(grid, np.zeros((10, 2)), 2)
    other = fock.FockVector(grid, np.zeros((10, 4)), 2)
    with pytest.raises(ValueError):
        batched + other
    with pytest.raises(ValueError):  # no silent broadcast of a single vector over a batch
        batched + fock.zero_vector(grid, 2)
    pair = chiral_pair(2)
    dim = len(chiral.bifock_zero(pair, 2).coefficients)
    batched = chiral.BiFockVector(pair, 2, np.zeros((dim, 2)))
    with pytest.raises(ValueError):
        chiral.BiFockVector(pair, 2, np.zeros((dim - 1, 2)))
    with pytest.raises(ValueError):
        batched + chiral.BiFockVector(pair, 2, np.zeros((dim, 3)))
