"""Exhaustive operator oracles over the orthonormal bases of the truncated spaces.

States are stored as coefficients over orthonormal bases: index multisets
for the tower and multiset pairs for the split tower (see :mod:`fock` and
:mod:`chiral`).  The coefficient vector of a state is the concatenation of
its sectors, so an operator given as a callable has a matrix, and its
identities are matrix identities.

The suites certify them with the probe oracle (column grouping for sparse
Jacobians, Curtis, Powell & Reid 1974).  Every operator they compare has a
declared :class:`Pattern`: a one-particle move (sector degree -1, +1 or
+-1), a removal at one fixed momentum, or a diagonal operator or label
bijection.  Labels are read as multisets over the union grid (split-tower
pairs through the merge relabelling).  A free move gets one probe column per
sector and colour, the colour of label kappa being sum(kappa) mod M: two
multisets of one size that share a row of a move differ by one swap
q -> q', so their colours differ by q' - q != 0 mod M.  Every other pattern
gets one column per sector.  Each label enters its column with a fixed unit
phase, so inside the pattern every entry of the probe image is exactly one
matrix entry times a unit phase (:func:`probe_image`), and an entry outside
the pattern lands in a cell the pattern leaves empty or mixes into a read
one.  Comparisons take max |A R - B R| over the image; adjointness,
hermiticity and unitarity read the entries back as COO arrays
(:class:`Entries`) and count every image cell the pattern says must vanish.
That is (N + 1) * M probe columns instead of D basis columns.

The dense oracle (:func:`operator_matrix` with :func:`unitarity_defect`,
:func:`hermiticity_defect` and :func:`matrix_deviation`) reads the full
D x D matrix off identity columns; the tests keep it as the reference.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from . import chiral, fock
from .chiral import BiFockVector
from .fock import FockVector
from .grids import ChiralGridPair, MomentumGrid


# Batch entries (columns times basis size) of one block that operator_matrix
# and probe_image apply their operator to; bounds the memory of the block and
# of the operator's intermediates.
_BLOCK_ENTRIES = 524_288


class _Basis:
    """What the two bases share: ``labels`` (built when first read), the state
    ``_vector(c)`` with coefficient vector c (a trailing batch axis gives a
    batched state), and ``union_order``: coefficient j is label
    ``union_order[j]`` of the tower over the ``union_size``-point union grid."""

    truncation: int
    union_size: int
    union_order: np.ndarray

    def __len__(self) -> int:
        return len(self.union_order)

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
        self._sizes = [len(tab.labels) for tab in fock._ladder(grid.size, truncation)]
        self.union_size = grid.size
        self.union_order = np.arange(sum(self._sizes))

    @functools.cached_property
    def labels(self) -> list[tuple[int, tuple[int, ...]]]:
        tables = fock._ladder(self.grid.size, self.truncation)
        return [(n, tuple(kappa)) for n, tab in enumerate(tables) for kappa in tab.labels.tolist()]

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
        self._shapes = {(a, b): (len(pos[a].labels), len(neg[b].labels))
                        for (a, b) in chiral._component_keys(truncation)}
        self.union_size = pair.union.size
        start = _layout(self.union_size, truncation).start
        index = chiral._union_index(pair.n_positive, pair.n_negative, truncation)
        self.union_order = np.concatenate([start[a + b] + index[(a, b)].ravel()
                                           for (a, b) in self._shapes])

    @functools.cached_property
    def labels(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        pos = fock._ladder(self.pair.n_positive, self.truncation)
        neg = fock._ladder(self.pair.n_negative, self.truncation)
        return [(tuple(kpos), tuple(kneg)) for (a, b) in self._shapes
                for kpos in pos[a].labels.tolist() for kneg in neg[b].labels.tolist()]

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
    """Max entry of |A - B|, for matrices and probe images alike."""
    return float(np.max(np.abs(a - b)))


class Pattern(NamedTuple):
    """Where an operator's matrix may be nonzero, in union labels.

    ``degrees`` lists the sector steps of its entries: -1 removes one
    particle, +1 adds one, 0 keeps the label (diagonal operators, and
    relabellings such as the merge).  ``removed`` pins the grid index that a
    removal takes out (the sharp annihilators); a free move may add or
    remove any index.
    """

    degrees: tuple[int, ...]
    removed: int | None = None

    @property
    def coloured(self) -> bool:
        """Whether the probe columns split each sector by colour: only a free
        move maps several labels of one sector to a row."""
        return self.removed is None and self.degrees != (0,)


LOWER = Pattern((-1,))
RAISE = Pattern((1,))
FIELD = Pattern((-1, 1))
DIAGONAL = Pattern((0,))


def removal(index: int) -> Pattern:
    """The pattern of an annihilator at the one grid point ``index``."""
    return Pattern((-1,), index)


class _Layout(NamedTuple):
    """Per label of the tower over an m-point grid, concatenated sectors:
    sector n starts at ``start[n]``; ``sector``, ``by_colour`` (the probe
    column under the colouring) and the unit ``phase`` it enters with."""

    start: np.ndarray
    sector: np.ndarray
    by_colour: np.ndarray
    phase: np.ndarray

    def column(self, pattern: Pattern) -> np.ndarray:
        return self.by_colour if pattern.coloured else self.sector


@functools.lru_cache(maxsize=16)
def _layout(m: int, truncation: int) -> _Layout:
    tables = fock._ladder(m, truncation)
    sizes = [len(tab.labels) for tab in tables]
    sector = np.repeat(np.arange(truncation + 1), sizes)
    colour = np.concatenate([tab.labels.sum(axis=1) % m for tab in tables])
    by_colour = np.unique(sector * m + colour, return_inverse=True)[1].reshape(-1)
    # fixed phases, seeded by the basis alone
    phase = np.exp(2j * np.pi * np.random.default_rng((m, truncation)).random(sector.size))
    out = _Layout(np.cumsum([0] + sizes), sector, by_colour, phase)
    for arr in out:
        arr.setflags(write=False)
    return out


@functools.lru_cache(maxsize=32)
def _positions(m: int, truncation: int, pattern: Pattern) -> tuple[np.ndarray, np.ndarray]:
    """(row, column) labels of every entry the pattern allows, in a fixed order.

    A move pairs label lam of sector n with lam + q of sector n + 1 through
    the ladder's up table; a removal reads one column of it.
    """
    tables = fock._ladder(m, truncation)
    start = _layout(m, truncation).start
    rows, cols = [], []
    for degree in pattern.degrees:
        if degree == 0:
            rows.append(np.arange(start[-1]))
            cols.append(rows[-1])
            continue
        for n, tab in enumerate(tables[:-1]):
            up = tab.up if pattern.removed is None else tab.up[:, [pattern.removed]]
            low = np.repeat(np.arange(start[n], start[n + 1]), up.shape[1])
            high = start[n + 1] + up.ravel()
            rows.append(low if degree < 0 else high)
            cols.append(high if degree < 0 else low)
    out = (np.concatenate(rows), np.concatenate(cols))
    for arr in out:
        arr.setflags(write=False)
    return out


def _blocks(sector: np.ndarray, step: int):
    """(first, last) ranges over probe columns of the given sectors (ascending):
    whole sectors together while they fit in ``step`` columns, a wider sector
    in pieces of ``step``.  A block of one sector leaves the other sectors of
    the probe vector zero, and the ladder operators skip zero sectors."""
    edges = [0, *(np.flatnonzero(np.diff(sector)) + 1).tolist(), len(sector)]
    first = 0
    for low, high in zip(edges[:-1], edges[1:]):
        if high - first > step and low > first:
            yield first, low
            first = low
        while high - first > step:
            yield first, first + step
            first += step
    yield first, len(sector)


def probe_image(op, pattern: Pattern, domain, codomain=None) -> np.ndarray:
    """op applied to the pattern's probe columns: shape (D, K), rows in union label order.

    Probe column k is the sum of the labels of its sector (and colour) times
    their phases.  ``op`` must be linear and act column by column, as for
    :func:`operator_matrix`; it is applied once per block of at most
    ``_BLOCK_ENTRIES`` coefficients (see :func:`_blocks`).  Domain and
    codomain are bases over the same union grid and truncation.
    """
    cod = domain if codomain is None else codomain
    layout = _layout(domain.union_size, domain.truncation)
    column = layout.column(pattern)
    width = int(column.max()) + 1
    column_sector = np.empty(width, dtype=int)
    column_sector[column] = layout.sector
    column, phase = column[domain.union_order], layout.phase[domain.union_order]
    out = np.empty((len(cod), width), dtype=complex)
    step = max(1, _BLOCK_ENTRIES // max(len(domain), len(cod)))
    for first, last in _blocks(column_sector, step):
        probes = np.zeros((len(domain), last - first), dtype=complex)
        inside = (column >= first) & (column < last)
        probes[inside, column[inside] - first] = phase[inside]
        out[cod.union_order, first:last] = cod.coefficients(op(domain._vector(probes)))
    return out


def probe_deviation(op_a, op_b, pattern: Pattern, domain, codomain=None) -> float:
    """Max |A R - B R| over the probe image; equals the dense max |A - B| up to
    rounding when both operators fit the pattern."""
    return matrix_deviation(probe_image(op_a, pattern, domain, codomain),
                            probe_image(op_b, pattern, domain, codomain))


class Entries(NamedTuple):
    """The matrix entries a pattern allows, as COO arrays over union labels, and
    ``residual``: the largest probe-image cell that the pattern says must vanish."""

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    residual: float

    def adjoint(self) -> "Entries":
        return Entries(self.cols, self.rows, np.conj(self.values), self.residual)

    def deviation(self, other: "Entries") -> float:
        """Max |A - B| over the positions, and both residuals; NaN if any is NaN."""
        mine = np.lexsort((self.cols, self.rows))
        theirs = np.lexsort((other.cols, other.rows))
        if not (np.array_equal(self.rows[mine], other.rows[theirs])
                and np.array_equal(self.cols[mine], other.cols[theirs])):
            raise ValueError("the entries cover different positions")
        diff = np.abs(self.values[mine] - other.values[theirs])
        return float(np.max([np.max(diff, initial=0.0), self.residual, other.residual]))

    def unitarity_defect(self) -> float:
        """Max | |v|^2 - 1 | and the residual: A* A = diag(|v|^2) for a bijection."""
        defect = np.abs(self.values.real ** 2 + self.values.imag ** 2 - 1.0)
        return float(np.max([np.max(defect, initial=0.0), self.residual]))


def probe_entries(op, pattern: Pattern, domain, codomain=None) -> Entries:
    """The entries of op that ``pattern`` allows, read off its probe image.

    Inside the pattern each image cell holds one entry times its column
    label's phase; every other cell counts toward the residual.
    """
    image = probe_image(op, pattern, domain, codomain)
    layout = _layout(domain.union_size, domain.truncation)
    rows, cols = _positions(domain.union_size, domain.truncation, pattern)
    probe = layout.column(pattern)[cols]
    allowed = np.zeros(image.shape, dtype=bool)
    allowed[rows, probe] = True
    return Entries(rows, cols, image[rows, probe] / layout.phase[cols],
                   float(np.max(np.abs(image[~allowed]), initial=0.0)))
