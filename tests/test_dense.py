"""Orthonormal bases and matrix oracles for the truncated towers."""

import math

import numpy as np

from fockdeform import chiral, dense, fock
from fockdeform.grids import chiral_pair, rapidity_grid


def test_fock_basis_orthonormal():
    grid = rapidity_grid(1.0, 3, -0.8, 1.2)
    basis = dense.FockBasis(grid, 2)
    gram = np.array([[fock.inner(u, v) for v in basis.vectors] for u in basis.vectors])
    assert np.max(np.abs(gram - np.eye(len(basis)))) < 1e-13
    assert len(basis) == 1 + 3 + 6  # multisets of sizes 0, 1, 2 over 3 points


def test_fock_coefficients_match_explicit_inner():
    grid = rapidity_grid(1.0, 4)
    basis = dense.FockBasis(grid, 3)
    rng = np.random.default_rng(5)
    psi = fock.random_fock_vector(grid, 3, rng)
    fast = basis.coefficients(psi)
    slow = np.array([fock.inner(b, psi) for b in basis.vectors])
    assert np.max(np.abs(fast - slow)) < 1e-12


def test_coefficients_reconstruct_vector():
    grid = rapidity_grid(1.0, 3, -0.8, 1.2)
    basis = dense.FockBasis(grid, 2)
    rng = np.random.default_rng(6)
    psi = fock.random_fock_vector(grid, 2, rng)
    rebuilt = fock.zero_vector(grid, 2)
    for c, b in zip(basis.coefficients(psi), basis.vectors):
        rebuilt = rebuilt + complex(c) * b
    assert fock.norm(rebuilt - psi) < 1e-12


def test_bifock_basis_orthonormal_and_coefficients():
    pair = chiral_pair(2)
    basis = dense.BiFockBasis(pair, 2)
    gram = np.array([[chiral.bifock_inner(u, v) for v in basis.vectors]
                     for u in basis.vectors])
    assert np.max(np.abs(gram - np.eye(len(basis)))) < 1e-13
    rng = np.random.default_rng(7)
    xi = chiral.random_bifock(pair, 2, rng)
    fast = basis.coefficients(xi)
    slow = np.array([chiral.bifock_inner(b, xi) for b in basis.vectors])
    assert np.max(np.abs(fast - slow)) < 1e-12


def test_operator_matrix_identity_and_defects():
    grid = rapidity_grid(1.0, 3, -0.8, 1.2)
    basis = dense.FockBasis(grid, 2)
    eye = dense.operator_matrix(lambda v: v, basis)
    assert dense.matrix_deviation(eye, np.eye(len(basis))) < 1e-13
    assert dense.unitarity_defect(eye) < 1e-13
    assert dense.hermiticity_defect(eye) < 1e-13
    phase = dense.operator_matrix(lambda v: 1j * v, basis)
    assert dense.unitarity_defect(phase) < 1e-13
    assert dense.hermiticity_defect(phase) > 1.0


def test_operator_matrix_reproduces_action():
    """Matrix-vector product equals applying the operator, via coefficients."""
    grid = rapidity_grid(1.0, 3, -0.8, 1.2)
    basis = dense.FockBasis(grid, 3)
    rng = np.random.default_rng(8)
    xi = fock.random_one_particle(grid, rng)
    mat = dense.operator_matrix(lambda v: fock.create(xi, v), basis)
    psi = fock.random_fock_vector(grid, 3, rng)
    coef_out = mat @ basis.coefficients(psi)
    direct = basis.coefficients(fock.create(xi, psi))
    assert np.max(np.abs(coef_out - direct)) < 1e-12


def test_multiset_norm_matches_tensor_norm():
    grid = rapidity_grid(1.0, 3, -0.8, 1.2)
    t = dense._symmetric_unit_tensor(3, (0, 0, 2))
    w = grid.weights
    raw_sq = 0.0
    for idx in np.ndindex(t.shape):
        raw_sq += (w[idx[0]] * w[idx[1]] * w[idx[2]]) * abs(t[idx]) ** 2
    assert abs(math.sqrt(raw_sq) - dense._multiset_norm(w, (0, 0, 2))) < 1e-13


def loop_coefficients(basis, vec):
    """The per-label loop that the sector gathers replace: factor * representative entry."""
    out = np.empty(len(basis), dtype=complex)
    for i, label in enumerate(basis.labels):
        if isinstance(basis, dense.FockBasis):
            n, kappa = label
            entry = vec.sectors[n][kappa]
            factor = dense._multiset_norm(basis.grid.weights, kappa)
        else:
            kpos, kneg = label
            entry = vec.components[(len(kpos), len(kneg))][kpos + kneg]
            factor = (dense._multiset_norm(basis.pair.positive_weights, kpos)
                      * dense._multiset_norm(basis.pair.negative_weights, kneg))
        out[i] = factor * entry
    return out


def test_coefficients_equal_per_label_loop_exactly():
    rng = np.random.default_rng(8)
    grid = rapidity_grid(1.0, 4)
    basis = dense.FockBasis(grid, 3)
    psi = fock.random_fock_vector(grid, 3, rng)
    # a non-contiguous sector view must be read the same way
    psi = fock.FockVector(grid, psi.sectors[:3] + (np.swapaxes(psi.sectors[3], 0, 2),))
    assert np.all(basis.coefficients(psi) == loop_coefficients(basis, psi))
    pair = chiral_pair(3)
    bbasis = dense.BiFockBasis(pair, 3)
    xi = chiral.random_bifock(pair, 3, rng)
    assert np.all(bbasis.coefficients(xi) == loop_coefficients(bbasis, xi))
