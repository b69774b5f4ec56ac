"""Exhaustive operator oracles over the orthonormal bases of the truncated spaces.

States are stored as one coefficient array over orthonormal bases: index
multisets for the tower and multiset pairs for the split tower (see
:mod:`fock` and :mod:`chiral`).  A basis reads and writes coefficients in
union-label order (the split basis gathers through the merge), so an operator
given as a callable has a matrix, and its identities are matrix identities.

The suites certify them with the probe oracle (column grouping for sparse
Jacobians, Curtis, Powell & Reid 1974).  Every operator they compare has a
declared :class:`Pattern`: a one-particle move (sector degree -1, +1 or
+-1), a removal at one fixed momentum, or a diagonal operator or label
bijection.  Labels are read as multisets over the union grid (split-tower
pairs through the merge relabelling), of colour sum(kappa) mod M.  The probe
columns (:meth:`Pattern.width`, instead of D basis columns): M for a move of
one degree, one per colour across all sectors, since it reaches row lam from
lam + q (or lam less one q) alone, whose colour fixes q mod M; 1 + N M for a
field, one per sector and colour, since two multisets of one size that share
a row differ by one swap q -> q', of colour q' - q != 0 mod M; N + 1, one per
sector, for every other pattern.  Each label enters its column with a fixed
unit phase, so inside the pattern every entry of the probe image is exactly
one matrix entry times a unit phase.  An entry outside the pattern lands in a
cell the pattern leaves empty, or mixes into a read one: a lowering entry
kappa -> lam that drops two sectors shares its cell with lam + q -> lam, of
kappa's colour.  Comparisons take max |A R - B R| over the image; adjointness,
hermiticity and unitarity read the entries back as COO arrays (:class:`Entries`)
with a residual, the largest image cell the pattern says must vanish: a fault
of the first kind shows there, one of the second in the entries.  A fault eps kappa' -> kappa
within a diagonal sector shares a read cell: a comparison (``merged-twist-lemma``) reads eps,
a unitarity defect only 2 eps Re(conj(phi_kappa) phi_kappa'), which the phases can make small.

No full image is held: :func:`probe_blocks` applies several operators to each
block of columns of a cached O(D) plan (:func:`_plan`) in turn, and every consumer
reduces block by block (a maximum of block maxima, NaN if any is NaN: for a
comparison, :func:`probe_deviations`).  P operators of one layout (P roots, or P
(root, momentum) pairs, one slot each of the copies axis) share the columns
(:func:`copy_chunks`).

The dense oracle :func:`operator_matrix` reads the full D x D matrix off blocks
of identity columns (``_vector(np.eye(D, k, -first))``); the tests keep it as
the reference, beside the basis labels, the basis vectors and the matrix
defects of ``tests/dense_reference.py``.  No suite holds a basis vector alone:
the fock suite's CCR check applies its commutator to such identity blocks.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from . import chiral, fock
from .chiral import BiFockVector
from .fock import FockVector
from .grids import ChiralGridPair, MomentumGrid


_BLOCK_ENTRIES = 524_288


def block_width(entries: int) -> int:
    """Items (columns, vectors, slots) of ``entries`` batch entries each in one block: at most
    ``_BLOCK_ENTRIES`` entries or one item, a bound on the memory of the operators' temporaries."""
    return max(1, _BLOCK_ENTRIES // entries)


class _Basis:
    """What the two bases share: the state ``_vector(c)`` with coefficient vector c
    (a trailing batch axis gives a batched state) and its inverse ``coefficients(v)``,
    both in union-label order: coefficient j is label j of the tower over the
    ``union_size``-point union grid (:func:`fock._tower`).  ``random(rng, count)`` is
    a batch of ``count`` random unit vectors, drawn as ``len(self)`` complex Gaussian
    coefficients each."""

    truncation: int
    union_size: int

    def __len__(self) -> int:
        return fock._offsets(self.union_size, self.truncation)[-1]


class FockBasis(_Basis):
    """Orthonormal basis of the truncated tower, labelled by index multisets: coefficient
    i of a state is the label in row i of :func:`fock._tower`."""

    def __init__(self, grid: MomentumGrid, truncation: int):
        self.grid = grid
        self.truncation = truncation
        self.union_size = grid.size

    def _vector(self, flat: np.ndarray) -> FockVector:
        return FockVector(self.grid, flat, self.truncation)

    def random(self, rng: fock.Draws, count: int) -> FockVector:
        return fock.random_fock_vector(self.grid, self.truncation, rng, count)

    def coefficients(self, psi: FockVector) -> np.ndarray:
        """Expansion coefficients <b_i, psi>, shape (len(self),) + B: the state's own array."""
        return psi.coefficients


class BiFockBasis(_Basis):
    """Orthonormal basis of the split tower, labelled by multiset pairs (kappa_+, kappa_-):
    coefficient i is the pair whose union is union label i (:func:`chiral._layout`)."""

    def __init__(self, pair: ChiralGridPair, truncation: int):
        self.pair = pair
        self.truncation = truncation
        self.union_size = pair.union.size
        self.layout = chiral._layout(pair.n_positive, pair.n_negative, truncation)

    def _vector(self, flat: np.ndarray) -> BiFockVector:
        """The state of union-label coefficients ``flat``: one gather, as in a split."""
        return BiFockVector(self.pair, self.truncation, flat[self.layout.order])

    def random(self, rng: fock.Draws, count: int) -> BiFockVector:
        return chiral.random_bifock(self.pair, self.truncation, rng, count)

    def coefficients(self, xi: BiFockVector) -> np.ndarray:
        """Expansion coefficients <b_i, xi> in union-label order: one gather, as in a merge."""
        return xi.coefficients[self.layout.merge]


def operator_matrix(op, domain, codomain=None) -> np.ndarray:
    """Matrix [<b_i, op(b_j)>] of an operator between (bases of) the towers.

    ``domain``/``codomain`` are FockBasis or BiFockBasis instances; the
    codomain defaults to the domain.  Since the bases are orthonormal this is
    a genuine matrix representation.

    ``op`` is applied once per block of identity columns: it receives a
    vector with batch shape (k,) and must be linear and act column by
    column, so that column j of its result is op(b_j), as every operator in
    this package does.  A block holds at most ``_BLOCK_ENTRIES`` coefficients
    over its columns (:func:`block_width`).
    """
    cod = domain if codomain is None else codomain
    out = np.empty((len(cod), len(domain)), dtype=complex)
    for first, last in block_runs(len(domain), block_width(max(len(domain), len(cod)))):
        eye = np.eye(len(domain), last - first, -first, dtype=complex)
        out[:, first:last] = cod.coefficients(op(domain._vector(eye)))
    return out


def matrix_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Max entry of |A - B|, for matrices and probe images alike."""
    return float(np.max(np.abs(a - b)))


class Pattern(NamedTuple):
    """Where an operator's matrix may be nonzero, in union labels.

    ``degrees`` lists the sector steps of its entries: -1 removes one
    particle, +1 adds one, 0 keeps the label (diagonal operators, and
    relabellings such as the merge).  ``removed`` pins the grid index that a
    removal takes out (the sharp annihilators); a free move may add or
    remove any index.  A removal's probe columns are the sector columns, so only
    :func:`probe_entries` reads ``removed``, and one image may remove several momenta.
    """

    degrees: tuple[int, ...]
    removed: int | None = None

    @property
    def columns(self) -> str:
        """The :class:`_Layout` field that numbers the probe columns (module docstring)."""
        free = self.removed is None and self.degrees != (0,)
        return ("colour" if len(self.degrees) == 1 else "by_colour") if free else "sector"

    def width(self, m: int, n: int) -> int:
        """The number of probe columns over an m-point grid at truncation n: m, 1 + n m or n + 1."""
        return {"colour": m, "by_colour": 1 + n * m, "sector": n + 1}[self.columns]


LOWER = Pattern((-1,))
RAISE = Pattern((1,))
FIELD = Pattern((-1, 1))
DIAGONAL = Pattern((0,))


def removal(index: int) -> Pattern:
    """The pattern of an annihilator at the one grid point ``index`` (:class:`Pattern`)."""
    return Pattern((-1,), index)


class _Layout(NamedTuple):
    """Per label of the m-point tower, in coefficient order: its ``sector``, ``colour``, their
    pair ``by_colour`` (numbered in order) and the unit ``phase`` it enters with."""

    sector: np.ndarray
    colour: np.ndarray
    by_colour: np.ndarray
    phase: np.ndarray


@functools.lru_cache(maxsize=16)
def _layout(m: int, truncation: int) -> _Layout:
    tower = fock._tower(m, truncation)
    colour = tower.labels.sum(axis=1) % m  # the pad label m adds nothing mod m
    pair = tower.sector * m + colour
    by_colour = np.cumsum(np.bincount(pair) > 0)[pair] - 1  # rank among the pairs present
    # fixed phases, seeded by the basis alone
    phase = np.exp(2j * np.pi * fock.Draws(f"phase/{m}/{truncation}").random(len(colour)))
    out = _Layout(tower.sector, colour, by_colour, phase)
    for arr in out:
        arr.setflags(write=False)
    return out


@functools.lru_cache(maxsize=32)
def _positions(m: int, truncation: int, pattern: Pattern) -> tuple[np.ndarray, np.ndarray]:
    """(row, column) labels of every entry the pattern allows, in a fixed order.

    A move pairs label lam with lam + q through the tower's up table; a
    removal reads one column of it.
    """
    tower = fock._tower(m, truncation)
    up = tower.up if pattern.removed is None else tower.up[:, [pattern.removed]]
    low, high = np.repeat(np.arange(len(up)), up.shape[1]), up.ravel()
    pairs = {-1: (low, high), 1: (high, low), 0: (np.arange(tower.start[-1]),) * 2}
    rows, cols = zip(*(pairs[degree] for degree in pattern.degrees))
    out = (np.concatenate(rows), np.concatenate(cols))
    for arr in out:
        arr.setflags(write=False)
    return out


def block_runs(count: int, width: int, sector=None):
    """(first, last) runs over items 0..count-1, in order, of at most ``width`` items each.
    Items of the given ``sector``s (ascending) go whole sectors together while they fit, a
    wider sector in pieces of ``width``: a probe block of one sector leaves the other sectors
    of the probe vector zero, and a ladder operator computes only what it reaches."""
    edges = [] if sector is None else (np.flatnonzero(np.diff(sector)) + 1).tolist()
    first = 0
    for low, high in zip([0, *edges], [*edges, count]):
        if high - first > width and low > first:
            yield first, low
            first = low
        while high - first > width:
            yield first, first + width
            first += width
    if first < count:
        yield first, count


def random_batches(basis: _Basis, count: int, rng: fock.Draws, group: int = 1):
    """``count`` groups of ``group`` successive random unit vectors, batch by batch.

    Each batch is one tuple of ``group`` batched vectors; member i holds vector
    i of each group of the batch, so reading column 0 of every member, then
    column 1, and so on gives the vectors in the order that single draws from
    ``rng`` would.  A batch is one draw of whole groups, at most
    ``_BLOCK_ENTRIES`` coefficients (``len(basis)`` per vector) or one group
    (:func:`block_width`), as for a probe block.
    """
    for first, last in block_runs(count, block_width(group * len(basis))):
        vec = basis.random(rng, group * (last - first))
        yield tuple(vec._with(vec.coefficients[:, i::group]) for i in range(group))


@functools.lru_cache(maxsize=32)
def _plan(m: int, truncation: int, columns: str, step: int) -> tuple:
    """Per probe block (:func:`block_runs`, at most ``step`` columns, in column order) of the
    m-point union labels: columns first..last-1 and scatter ``rows``, ``cols``,
    ``phases``.  Patterns of one :attr:`Pattern.columns` share the plan."""
    layout = _layout(m, truncation)
    column = getattr(layout, columns)
    column_sector = np.empty(int(column.max()) + 1, dtype=int)
    column_sector[column] = layout.sector if columns != "colour" else 0  # spans every sector
    blocks = []
    for first, last in block_runs(len(column_sector), step, column_sector):
        rows = np.flatnonzero((column >= first) & (column < last))
        scatter = (rows, column[rows] - first, layout.phase[rows])
        for arr in scatter:
            arr.setflags(write=False)
        blocks.append((first, last, *scatter))
    return tuple(blocks)


def probe_blocks(ops, pattern: Pattern, domain, codomain=None, *, copies: int = 1):
    """Per block of the cached :func:`_plan`, (first, images): images[i], shape (D, P, k), is
    the codomain's coefficients (:class:`_Basis`) of ops[i] on probe columns first..first+k-1.

    Probe column k is the sum of the labels of its sector (and colour) times
    their phases.  Each op must be linear and act column by column, as for
    :func:`operator_matrix`; a block holds at most ``_BLOCK_ENTRIES`` coefficients.
    Domain and codomain are bases over the same union grid and truncation.

    Each op gets the block repeated over a leading batch axis of ``copies`` = P
    slots (batch shape (P, k)), so that P operators of one column layout share
    the columns; an operator that is not stacked acts on every slot alike.
    """
    cod = domain if codomain is None else codomain
    step = block_width(max(len(domain), len(cod)) * copies)
    for first, last, rows, cols, phases in _plan(domain.union_size, domain.truncation,
                                                 pattern.columns, step):
        probes = np.zeros((len(domain), copies, last - first), dtype=complex)
        probes[rows, :, cols] = phases[:, None]
        probes.setflags(write=False)  # the ops share it
        yield first, [cod.coefficients(op(domain._vector(probes))) for op in ops]


def copy_chunks(count: int, domain, pattern: Pattern) -> list[np.ndarray]:
    """Slots 0..count-1 in runs (index arrays) of at least one slot, whose P copies of the
    K = ``pattern.width`` probe columns, each charged the widest term count g behind it, hold
    at most ``_BLOCK_ENTRIES`` entries, D * P * K * g: g = 1 for a removal or diagonal
    operator, g = max(m, N) for a free move (m momenta or N slots per label).  A ladder step
    streams its g terms (:func:`fock._ladder_step`): g charges its (rows, g, P) coefficient
    and (rows, N, g, P) kernel-factor tables, not a gather of g terms."""
    m, n = domain.union_size, domain.truncation
    terms = 1 if pattern.columns == "sector" else max(m, n)
    runs = block_runs(count, block_width(len(domain) * pattern.width(m, n) * terms))
    return [np.arange(first, last) for first, last in runs]


def probe_deviations(ops, pattern: Pattern, domain, codomain=None, *, copies: int = 1) -> list:
    """Per op after the first, max |op R - ops[0] R| over the probe blocks (:func:`probe_blocks`)
    of all P slots, NaN if any is NaN; equals the dense max |A - B| up to rounding when both
    operators fit the pattern."""
    return np.max([[matrix_deviation(image, target) for image in images] for _, (target, *images)
                   in probe_blocks(ops, pattern, domain, codomain, copies=copies)], axis=0).tolist()


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


def probe_entries(op, pattern: Pattern, domain, codomain=None, *, copies: int = 1) -> Entries:
    """The entries of op that ``pattern`` allows, read off its probe blocks.

    Inside the pattern each image cell holds one entry times its column label's phase;
    every other cell counts toward the residual.  Rows and columns are union labels;
    the values have shape (E, P), one column per slot of :func:`probe_blocks`.
    """
    layout = _layout(domain.union_size, domain.truncation)
    rows, cols = _positions(domain.union_size, domain.truncation, pattern)
    probe = getattr(layout, pattern.columns)[cols]
    values, residuals = np.empty((len(rows), copies), dtype=complex), []
    for first, (image,) in probe_blocks((op,), pattern, domain, codomain, copies=copies):
        mine = np.flatnonzero((probe >= first) & (probe < first + image.shape[-1]))
        values[mine] = image[rows[mine], :, probe[mine] - first]
        outside = np.ones((len(image), 1, image.shape[-1]), dtype=bool)
        outside[rows[mine], 0, probe[mine] - first] = False
        # the residual is a reduction under a mask: no gather of the cells
        residuals.append(np.max(np.abs(image), where=outside, initial=0.0))
    return Entries(rows, cols, values / layout.phase[cols, None], float(np.max(residuals)))
