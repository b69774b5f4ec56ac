"""Dense-matrix oracles over the orthonormal bases of the truncated spaces.

States are stored as coefficients over orthonormal bases: index multisets
for the tower and multiset pairs for the split tower (see :mod:`fock` and
:mod:`chiral`).  The coefficient vector of a state is the concatenation of
its sectors, so any operator given as a callable can be certified on the
entire space by its matrix, read off its action on identity columns:
adjointness is a conjugate transpose, unitarity is A*A = 1, and operator
identities are entrywise matrix equalities.
"""

from __future__ import annotations

import numpy as np

from . import chiral, fock
from .chiral import BiFockVector
from .fock import FockVector
from .grids import ChiralGridPair, MomentumGrid


# Batch entries (columns times basis size) of one block that operator_matrix
# applies its operator to; bounds the memory of the block and of the
# operator's intermediates.
_BLOCK_ENTRIES = 131_072


class _Basis:
    """What the two bases share: ``labels``, and the state ``_vector(c)`` with
    coefficient vector c (a trailing batch axis gives a batched state)."""

    labels: list

    def __len__(self) -> int:
        return len(self.labels)

    def block(self, start: int, stop: int):
        """Basis vectors start..stop-1 as one vector with batch shape (stop - start,)."""
        return self._vector(np.eye(len(self), stop - start, -start, dtype=complex))

    @property
    def vectors(self) -> list:
        """The basis vectors one by one, built on demand."""
        return [self._vector(column) for column in np.eye(len(self), dtype=complex)]


class FockBasis(_Basis):
    """Orthonormal basis of the truncated tower, labelled by index multisets.

    ``labels[i]`` is (n, kappa) for coefficient i of the concatenated sectors.
    """

    def __init__(self, grid: MomentumGrid, truncation: int):
        self.grid = grid
        self.truncation = truncation
        tables = fock._ladder(grid.size, truncation)
        self.labels: list[tuple[int, tuple[int, ...]]] = [
            (n, tuple(kappa)) for n, tab in enumerate(tables) for kappa in tab.labels.tolist()]
        self._sizes = [len(tab.labels) for tab in tables]

    def _vector(self, flat: np.ndarray) -> FockVector:
        return FockVector(self.grid, tuple(np.split(flat, np.cumsum(self._sizes)[:-1])))

    def coefficients(self, psi: FockVector) -> np.ndarray:
        """Expansion coefficients <b_i, psi>: the concatenated sectors.

        A vector of batch shape B gives coefficients of shape (len(self),) + B.
        """
        return np.concatenate(psi.sectors)


class BiFockBasis(_Basis):
    """Orthonormal basis of the split tower, labelled by multiset pairs.

    ``labels[i]`` is (kappa_+, kappa_-) for coefficient i of the concatenated,
    row-major raveled components.
    """

    def __init__(self, pair: ChiralGridPair, truncation: int):
        self.pair = pair
        self.truncation = truncation
        pos = fock._ladder(pair.n_positive, truncation)
        neg = fock._ladder(pair.n_negative, truncation)
        self.labels: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        self._shapes = {}
        for (a, b) in chiral._component_keys(truncation):
            self.labels.extend((tuple(kpos), tuple(kneg)) for kpos in pos[a].labels.tolist()
                               for kneg in neg[b].labels.tolist())
            self._shapes[(a, b)] = (len(pos[a].labels), len(neg[b].labels))

    def _vector(self, flat: np.ndarray) -> BiFockVector:
        rows = np.split(flat, np.cumsum([p * q for p, q in self._shapes.values()])[:-1])
        return BiFockVector(self.pair, self.truncation, {
            key: r.reshape(shape + flat.shape[1:])
            for (key, shape), r in zip(self._shapes.items(), rows)})

    def coefficients(self, xi: BiFockVector) -> np.ndarray:
        """Expansion coefficients <b_i, xi>: the concatenated raveled components,
        with a trailing batch axis as in :meth:`FockBasis.coefficients`."""
        return np.concatenate([c.reshape((-1,) + xi.batch_shape)
                               for c in xi.components.values()])


def operator_matrix(op, domain, codomain=None) -> np.ndarray:
    """Matrix [<b_i, op(b_j)>] of an operator between (bases of) the towers.

    ``domain``/``codomain`` are FockBasis or BiFockBasis instances; the
    codomain defaults to the domain.  Since the bases are orthonormal this is
    a genuine matrix representation.

    ``op`` is applied once per block of identity columns: it receives a
    vector with batch shape (k,) and must be linear and act column by
    column, so that column j of its result is op(b_j), as every operator in
    this package does.  A block holds at most ``_BLOCK_ENTRIES`` coefficients
    over its columns.
    """
    cod = domain if codomain is None else codomain
    out = np.empty((len(cod), len(domain)), dtype=complex)
    step = max(1, _BLOCK_ENTRIES // max(len(domain), len(cod)))
    for start in range(0, len(domain), step):
        stop = min(start + step, len(domain))
        out[:, start:stop] = cod.coefficients(op(domain.block(start, stop)))
    return out


def unitarity_defect(a: np.ndarray) -> float:
    """Max entry of |A* A - 1|."""
    eye = np.eye(a.shape[1])
    return float(np.max(np.abs(a.conj().T @ a - eye)))


def hermiticity_defect(a: np.ndarray) -> float:
    return float(np.max(np.abs(a - a.conj().T)))


def matrix_deviation(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)))
