"""Dense-matrix oracles over orthonormal bases of the truncated spaces.

Multisets of grid indices label an orthogonal basis of each symmetric sector;
normalizing against the weighted inner product gives an orthonormal basis of
the whole truncated tower.  Any operator given as a callable can then be
certified on the entire space by its matrix: adjointness is a conjugate
transpose, unitarity is A*A = 1, and operator identities are entrywise
matrix equalities.
"""

from __future__ import annotations

import collections
import itertools
import math
from typing import NamedTuple

import numpy as np

from . import chiral
from .chiral import BiFockVector
from .fock import FockVector
from .grids import ChiralGridPair, MomentumGrid


# Batch entries (columns times tower entries) of one block that
# operator_matrix applies its operator to; bounds the memory of the block and
# of the operator's intermediates.
_BLOCK_ENTRIES = 131_072


def _multiset_norm(weights: np.ndarray, kappa: tuple[int, ...]) -> float:
    """Weighted norm of the unit tensor that is 1 on every rearrangement of kappa."""
    count = math.factorial(len(kappa))
    for multiplicity in collections.Counter(kappa).values():
        count //= math.factorial(multiplicity)
    w = 1.0
    for k in kappa:
        w *= weights[k]
    return math.sqrt(count * w)


def _index_arrays(labels, n: int) -> tuple[np.ndarray, ...]:
    """The n index arrays that read entry kappa of an n-index tensor, per label."""
    return tuple(np.array(labels, dtype=np.intp).reshape(len(labels), n).T)


class _Sector(NamedTuple):
    """The basis vectors of one sector (or split-tower component).

    Label j has the representative entry ``index[.][j]`` and multiset norm
    ``factors[j]``; its normalized basis tensor equals ``units[j]`` on every
    rearrangement of that entry within each of the symmetric axis ``groups``
    and 0 elsewhere.
    """

    key: object
    shape: tuple[int, ...]
    groups: tuple[tuple[int, ...], ...]
    index: tuple[np.ndarray, ...]
    factors: np.ndarray
    units: np.ndarray


def _read_coefficients(sectors: list[_Sector], store, batch: tuple[int, ...]) -> np.ndarray:
    """<b_i, psi> for every label: factor times the representative entry, one
    gather per sector; a batch of vectors gives one column each."""
    return np.concatenate([s.factors.reshape(s.factors.shape + (1,) * len(batch))
                           * store[s.key][s.index] for s in sectors])


def _unit_block(sectors: list[_Sector], start: int, stop: int) -> dict:
    """Basis vectors start..stop-1 as arrays per sector key, columns on a trailing axis.

    Each sector is one scatter of ``units`` over every rearrangement of the
    labels' representative entries.
    """
    out = {}
    offset = 0
    for key, shape, groups, index, factors, units in sectors:
        block = np.zeros(shape + (stop - start,), dtype=complex)
        lo, hi = max(start, offset), min(stop, offset + len(factors))
        if lo < hi:
            sel = slice(lo - offset, hi - offset)
            orders = [sum(parts, ()) for parts in
                      itertools.product(*(itertools.permutations(g) for g in groups))]
            where = tuple(np.stack([index[order[ax]][sel] for order in orders])
                          for ax in range(len(shape)))
            block[where + (np.arange(lo - start, hi - start),)] = units[sel]
        out[key] = block
        offset += len(factors)
    return out


class FockBasis:
    """Orthonormal basis of the truncated tower, labelled by index multisets.

    Basis vectors are not stored; :meth:`block` builds a batch of them and
    :attr:`vectors` lists them one by one.
    """

    def __init__(self, grid: MomentumGrid, truncation: int):
        self.grid = grid
        self.truncation = truncation
        self.labels: list[tuple[int, tuple[int, ...]]] = []
        self._sectors: list[_Sector] = []
        m = grid.size
        for n in range(truncation + 1):
            kappas = list(itertools.combinations_with_replacement(range(m), n))
            factors = np.array([_multiset_norm(grid.weights, kappa) for kappa in kappas])
            self.labels.extend((n, kappa) for kappa in kappas)
            self._sectors.append(_Sector(n, (m,) * n, (tuple(range(n)),),
                                         _index_arrays(kappas, n), factors, 1.0 / factors))
        self.tower_size = sum(m ** n for n in range(truncation + 1))

    def __len__(self) -> int:
        return len(self.labels)

    def block(self, start: int, stop: int) -> FockVector:
        """Basis vectors start..stop-1 as one vector with batch shape (stop - start,)."""
        return FockVector(self.grid, tuple(_unit_block(self._sectors, start, stop).values()))

    @property
    def vectors(self) -> list[FockVector]:
        """The basis vectors one by one, built on demand."""
        return [FockVector(self.grid, tuple(s[..., 0] for s in self.block(j, j + 1).sectors))
                for j in range(len(self))]

    def coefficients(self, psi: FockVector) -> np.ndarray:
        """Expansion coefficients <b_i, psi> of a symmetric vector.

        Reads one representative entry per multiset, one gather per sector;
        equals the weighted inner product because psi's sectors are symmetric.
        A vector of batch shape B gives coefficients of shape (len(self),) + B.
        """
        return _read_coefficients(self._sectors, psi.sectors, psi.batch_shape)


class BiFockBasis:
    """Orthonormal basis of the split tower, labelled by multiset pairs.

    Like :class:`FockBasis`, it stores no basis vectors.
    """

    def __init__(self, pair: ChiralGridPair, truncation: int):
        self.pair = pair
        self.truncation = truncation
        self.labels: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        self._sectors: list[_Sector] = []
        p, q = pair.n_positive, pair.n_negative
        wp, wn = pair.positive_weights, pair.negative_weights
        for (a, b) in chiral._component_keys(truncation):
            entries, factors, units = [], [], []
            for kpos in itertools.combinations_with_replacement(range(p), a):
                npos = _multiset_norm(wp, kpos)
                for kneg in itertools.combinations_with_replacement(range(q), b):
                    nneg = _multiset_norm(wn, kneg)
                    self.labels.append((kpos, kneg))
                    entries.append(kpos + kneg)
                    factors.append(npos * nneg)
                    units.append((1.0 / npos) * (1.0 / nneg))
            self._sectors.append(_Sector(
                (a, b), (p,) * a + (q,) * b, (tuple(range(a)), tuple(range(a, a + b))),
                _index_arrays(entries, a + b), np.array(factors), np.array(units)))
        self.tower_size = sum(p ** a * q ** b for a, b in chiral._component_keys(truncation))

    def __len__(self) -> int:
        return len(self.labels)

    def block(self, start: int, stop: int) -> BiFockVector:
        """Basis vectors start..stop-1 as one vector with batch shape (stop - start,)."""
        return BiFockVector(self.pair, self.truncation, _unit_block(self._sectors, start, stop))

    @property
    def vectors(self) -> list[BiFockVector]:
        """The basis vectors one by one, built on demand."""
        return [BiFockVector(self.pair, self.truncation,
                             {k: v[..., 0] for k, v in self.block(j, j + 1).components.items()})
                for j in range(len(self))]

    def coefficients(self, xi: BiFockVector) -> np.ndarray:
        """Expansion coefficients <b_i, xi> of a factorwise-symmetric vector,
        one gather per component, with a trailing batch axis as in
        :meth:`FockBasis.coefficients`."""
        return _read_coefficients(self._sectors, xi.components, xi.batch_shape)


def operator_matrix(op, domain, codomain=None) -> np.ndarray:
    """Matrix [<b_i, op(b_j)>] of an operator between (bases of) the towers.

    ``domain``/``codomain`` are FockBasis or BiFockBasis instances; the
    codomain defaults to the domain.  Since the bases are orthonormal this is
    a genuine matrix representation.

    ``op`` is applied once per block of basis columns: it receives a vector
    with batch shape (k,) and must be linear and act column by column, so
    that column j of its result is op(b_j), as every operator in this package
    does.  A block holds at most ``_BLOCK_ENTRIES`` tower entries over its
    columns.  Columns are extracted with ``coefficients``, so op must map into
    (factorwise-)symmetric vectors.
    """
    cod = domain if codomain is None else codomain
    out = np.empty((len(cod), len(domain)), dtype=complex)
    step = max(1, _BLOCK_ENTRIES // max(domain.tower_size, cod.tower_size))
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
