"""Dense-matrix oracles over orthonormal bases of the truncated spaces.

Multisets of grid indices label an orthogonal basis of each symmetric sector;
normalizing against the weighted inner product gives an orthonormal basis of
the whole truncated tower.  Any operator given as a callable can then be
certified on the entire space by its matrix: adjointness is a conjugate
transpose, unitarity is A*A = 1, and operator identities are entrywise
matrix equalities.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import chiral
from .chiral import BiFockVector
from .fock import FockVector
from .grids import ChiralGridPair, MomentumGrid


def _symmetric_unit_tensor(m: int, kappa: tuple[int, ...]) -> np.ndarray:
    """Sum of basis tensors over all distinct rearrangements of kappa."""
    n = len(kappa)
    if n == 0:
        return np.array(1.0 + 0.0j)
    t = np.zeros((m,) * n, dtype=complex)
    for perm in set(itertools.permutations(kappa)):
        t[perm] = 1.0
    return t


def _multiset_norm(weights: np.ndarray, kappa: tuple[int, ...]) -> float:
    count = len(set(itertools.permutations(kappa)))
    w = 1.0
    for k in kappa:
        w *= weights[k]
    return math.sqrt(count * w)


def _index_arrays(labels, n: int) -> tuple[np.ndarray, ...]:
    """The n index arrays that read entry kappa of an n-index tensor, per label."""
    return tuple(np.array(labels, dtype=np.intp).reshape(len(labels), n).T)


class FockBasis:
    """Orthonormal basis of the truncated tower, labelled by index multisets."""

    def __init__(self, grid: MomentumGrid, truncation: int):
        self.grid = grid
        self.truncation = truncation
        self.labels: list[tuple[int, tuple[int, ...]]] = []
        self.vectors: list[FockVector] = []
        # per sector: (n, representative-entry index arrays, normalizations)
        self._gather: list[tuple[int, tuple[np.ndarray, ...], np.ndarray]] = []
        m = grid.size
        for n in range(truncation + 1):
            kappas = list(itertools.combinations_with_replacement(range(m), n))
            factors = np.array([_multiset_norm(grid.weights, kappa) for kappa in kappas])
            for kappa, nrm in zip(kappas, factors):
                secs = [np.zeros((m,) * k, dtype=complex) for k in range(truncation + 1)]
                secs[n] = _symmetric_unit_tensor(m, kappa) / nrm
                self.labels.append((n, kappa))
                self.vectors.append(FockVector(grid, tuple(secs)))
            self._gather.append((n, _index_arrays(kappas, n), factors))

    def __len__(self) -> int:
        return len(self.vectors)

    def coefficients(self, psi: FockVector) -> np.ndarray:
        """Expansion coefficients <b_i, psi> of a symmetric vector.

        Reads one representative entry per multiset, one gather per sector;
        equals the weighted inner product because psi's sectors are symmetric.
        """
        return np.concatenate([factors * psi.sectors[n][index]
                               for n, index, factors in self._gather])


class BiFockBasis:
    """Orthonormal basis of the split tower, labelled by multiset pairs."""

    def __init__(self, pair: ChiralGridPair, truncation: int):
        self.pair = pair
        self.truncation = truncation
        self.labels: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        self.vectors: list[BiFockVector] = []
        # per component: ((a, b), representative-entry index arrays, normalizations)
        self._gather: list[tuple[tuple[int, int], tuple[np.ndarray, ...], np.ndarray]] = []
        p, q = pair.n_positive, pair.n_negative
        wp, wn = pair.positive_weights, pair.negative_weights
        for (a, b) in chiral._component_keys(truncation):
            entries, factors = [], []
            for kpos in itertools.combinations_with_replacement(range(p), a):
                npos = _multiset_norm(wp, kpos)
                tpos = _symmetric_unit_tensor(p, kpos) / npos
                for kneg in itertools.combinations_with_replacement(range(q), b):
                    nneg = _multiset_norm(wn, kneg)
                    tneg = _symmetric_unit_tensor(q, kneg) / nneg
                    vec = chiral.bifock_zero(pair, truncation)
                    vec.components[(a, b)] = np.multiply.outer(tpos, tneg)
                    self.labels.append((kpos, kneg))
                    self.vectors.append(vec)
                    entries.append(kpos + kneg)
                    factors.append(npos * nneg)
            self._gather.append(((a, b), _index_arrays(entries, a + b), np.array(factors)))

    def __len__(self) -> int:
        return len(self.vectors)

    def coefficients(self, xi: BiFockVector) -> np.ndarray:
        """Expansion coefficients <b_i, xi> of a factorwise-symmetric vector,
        one gather per component."""
        return np.concatenate([factors * xi.components[key][index]
                               for key, index, factors in self._gather])


def operator_matrix(op, domain, codomain=None) -> np.ndarray:
    """Matrix [<b_i, op(b_j)>] of an operator between (bases of) the towers.

    ``domain``/``codomain`` are FockBasis or BiFockBasis instances; the
    codomain defaults to the domain.  Since the bases are orthonormal this is
    a genuine matrix representation.  Columns are extracted with
    ``coefficients``, so op must map into (factorwise-)symmetric vectors, as
    every operator in this package does.
    """
    cod = domain if codomain is None else codomain
    out = np.empty((len(cod), len(domain)), dtype=complex)
    for j, v in enumerate(domain.vectors):
        out[:, j] = cod.coefficients(op(v))
    return out


def unitarity_defect(a: np.ndarray) -> float:
    """Max entry of |A* A - 1|."""
    eye = np.eye(a.shape[1])
    return float(np.max(np.abs(a.conj().T @ a - eye)))


def hermiticity_defect(a: np.ndarray) -> float:
    return float(np.max(np.abs(a - a.conj().T)))


def matrix_deviation(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)))
