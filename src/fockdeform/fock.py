"""Truncated bosonic state space over a momentum grid, in occupation numbers.

Sector n is the symmetric n-particle space.  Its orthonormal basis is
labelled by the sorted multisets kappa = (k_1 <= ... <= k_n) of grid indices,
in lexicographic order: basis vector kappa is the symmetric tensor equal to
1/|kappa| on every rearrangement of kappa, with |kappa|^2 = (n! / prod_q m_q!)
prod_i w_{k_i} (m_q the multiplicity of q, w the quadrature weights of the
measure dp/omega_m(p)).  A state stores its coefficients over these bases in
one array, sector after sector (offsets from :func:`_offsets`), so sector n
has D_n = binom(M + n - 1, n) entries, inner products and diagonal
multipliers are single array operations, and each ladder operator is a sum of
gathers over the whole array, streamed term by term.  The layout is held once
per (M, N), as flat tables with one row per label in coefficient order and the
slots padded to N (:func:`_tower`), so no operation loops over sectors.  Operators act
exactly as their untruncated counterparts on sectors below the truncation:
annihilation reads the (vanishing) sector N+1 as zero, and creation out of
the top sector is dropped.  All values are treated as immutable; every
operation returns a fresh vector.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grids import MomentumGrid, boost_blocks


def _codes(labels: np.ndarray, m: int) -> np.ndarray:
    """Sector, then base-(m + 1) value of each label (last axis) padded by label
    m: ascending in coefficient order over all sectors."""
    n = labels.shape[-1]
    digits = (m + 1) ** np.arange(n, -1, -1, dtype=np.int64)
    return np.sum(labels < m, axis=-1) * digits[0] + labels @ digits[1:]


@functools.lru_cache(maxsize=32)
def _offsets(m: int, truncation: int) -> tuple[int, ...]:
    """Where each sector 0..truncation starts in the coefficients, then their length D;
    sector n holds the binom(m + n - 1, n) multisets of n of the m grid points."""
    return tuple(itertools.accumulate((math.comb(m + n - 1, n) for n in range(truncation + 1)),
                                      initial=0))


class _Tower(NamedTuple):
    """Index tables of sectors 0..N over an m-point grid, one row per label in
    coefficient order, its slots padded to N by label m; ``start`` is
    :func:`_offsets`.

    ``labels[j]`` is basis label j, ``sector[j]`` its size n, ``codes[j]`` its
    :func:`_codes` and ``mfact[j]`` prod_q m_q! over its multiplicities.  Below
    the top sector, ``up[j, q]`` is the coefficient index of labels[j] + q and
    ``up_mult[j, q]`` the multiplicity of q there.  ``down[j, i]`` is the
    coefficient index of labels[j] with slot i removed and ``slot_mult[j, i]``
    the multiplicity of labels[j, i] in labels[j]: 0 and 1 on a pad slot.
    """

    m: int
    start: tuple
    labels: np.ndarray
    sector: np.ndarray
    codes: np.ndarray
    mfact: np.ndarray
    up: np.ndarray
    up_mult: np.ndarray
    down: np.ndarray
    slot_mult: np.ndarray

    def index(self, labels: np.ndarray) -> np.ndarray:
        """Coefficient index of each sorted label (last axis, padded to N by label m)."""
        return np.searchsorted(self.codes, _codes(labels, self.m))


@functools.lru_cache(maxsize=32)
def _tower(m: int, truncation: int) -> _Tower:
    """Built once per (m, truncation), sector by sector: label kappa of sector n is a label
    lam of sector n - 1 followed by q >= last(lam), in lexicographic order (lam, then q).
    Kappa less its last slot is lam; less an earlier slot i it is mu = lam less slot i
    followed by q, child q - last(mu) of mu.  The up table inverts the down table: kappa
    less slot i is lam, so lam + k_i is kappa, where k_i has multiplicity m_{k_i}."""
    start = _offsets(m, truncation)
    labels = np.full((start[-1], truncation), m, dtype=np.intp)
    down = np.zeros(labels.shape, dtype=np.intp)
    slot_mult = np.ones(labels.shape, dtype=np.min_scalar_type(truncation + 1))
    mfact = np.ones(start[-1])
    last = np.zeros(start[-1], dtype=np.intp)  # last(lam), 0 for the vacuum
    child = np.zeros(start[-1], dtype=np.intp)  # index of lam followed by last(lam)
    for n in range(1, truncation + 1):
        lams, kappas = slice(start[n - 1], start[n]), slice(start[n], start[n + 1])
        count = m - last[lams]
        child[lams] = start[n] + np.cumsum(count) - count
        lam = np.repeat(np.arange(start[n - 1], start[n]), count)
        q = last[kappas] = np.arange(start[n], start[n + 1]) - child[lam] + last[lam]
        labels[kappas, :n - 1] = labels[lam, :n - 1]
        labels[kappas, n - 1] = q
        shorter = down[lam, :n - 1]
        down[kappas, :n] = np.column_stack((child[shorter] + (q[:, None] - last[shorter]), lam))
        same = labels[kappas, :n] == q[:, None]
        slot_mult[kappas, :n - 1] = slot_mult[lam, :n - 1] + same[:, :n - 1]
        slot_mult[kappas, n - 1] = mult = same.sum(axis=1)
        mfact[kappas] = mfact[lam] * mult
    codes = _codes(labels, m)
    slots = labels < m
    up = np.empty((start[-2], m), dtype=np.intp)
    up[down[slots], labels[slots]] = np.nonzero(slots)[0]
    up_mult = np.empty(up.shape, dtype=slot_mult.dtype)
    up_mult[down[slots], labels[slots]] = slot_mult[slots]
    sector = np.repeat(np.arange(truncation + 1), np.diff(start))
    out = _Tower(m, start, labels, sector, codes, mfact, up, up_mult, down, slot_mult)
    for arr in out[2:]:
        arr.setflags(write=False)
    return out


@functools.lru_cache(maxsize=16)
def _tensor_ranks(m: int, n: int) -> np.ndarray:
    """Index in sector n of the sorted multi-index of each (raveled) tensor entry."""
    digits = np.sort(np.indices((m,) * n).reshape(n, m ** n).T, axis=1)
    ranks = _tower(m, n).index(digits) - _offsets(m, n)[n]
    ranks.setflags(write=False)
    return ranks


def _scale(arr: np.ndarray, vec: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """arr times vec, vec broadcast over arr's leading axes (the rest is a batch)."""
    return np.multiply(arr, vec.reshape(vec.shape + (1,) * (arr.ndim - vec.ndim)), out=out)


def _scale_adjoint(arr: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """:func:`_scale` by conj(vec), as conj(conj(arr) vec): no conjugate of vec is held."""
    out = np.conj(arr)
    return np.conj(_scale(out, vec, out=out), out=out)


def _padded(arr: np.ndarray, fill: complex, axes: int | None = None) -> np.ndarray:
    """``arr`` with ``fill`` at the pad label (one past the end) of each of its
    last ``axes`` axes, all by default: a stack's leading axis stays as it is."""
    lead = 0 if axes is None else arr.ndim - axes
    out = np.full(arr.shape[:lead] + tuple(size + 1 for size in arr.shape[lead:]), fill,
                  dtype=arr.dtype)
    out[tuple(slice(size) for size in arr.shape)] = arr
    return out


def _slot_products(vec: np.ndarray, truncation: int) -> np.ndarray:
    """prod_i vec[k_i], a one-body multiplier, per label of sectors 0..truncation
    over the m-point grid, in coefficient order, from the padded labels: shape (D,)
    for a vec of shape (m,), (D, P) for a stack of shape (P, m), column p from row p."""
    padded = np.concatenate([vec, np.ones(vec.shape[:-1] + (1,), dtype=vec.dtype)], axis=-1)
    # take keeps C order (padded[:, labels] would not), so each row rounds as alone
    slots = padded.take(_tower(vec.shape[-1], truncation).labels, axis=-1)
    return np.prod(slots, axis=-1).T


def _norms(weights: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """|kappa| and prod_q m_q! for every label of sector n, the top rows of its tower."""
    tower = _tower(weights.size, n)
    top = slice(tower.start[n], None)
    mfact = tower.mfact[top]
    return np.sqrt(math.factorial(n) / mfact * _slot_products(weights, n)[top]), mfact


def _ladder_terms(src: np.ndarray, step: int, amp: np.ndarray, tower: _Tower,
                  kmat: np.ndarray | None = None, split: tuple | None = None):
    """The terms of a ladder operator on a coefficient array ``src`` (any trailing
    batch), read from the tables of ``tower``: ``(rows, index, coef)``, so that

        out[rows] = sum_j coef[:, j] src[index[:, j]]

    over the g term columns of ``index`` (g = the momenta q read, or N slots), or,
    for a removal, ``index`` a pair of index arrays and out[rows] = coef src[index]
    with no sum; None when src reaches no output sector.

    Lowering (``step`` -1), [a Psi]_n = sqrt(n+1) sum_q w_q conj(xi_q) prod_k
    K(q, p_k) Psi_{n+1}(q, ...), reads only the q with amp_q != 0:

        out[lam] = sum_q amp_q sqrt(m_q(lam + q)) prod_{k in lam} K[q, k] src[lam + q]

    with amp = sqrt(w) conj(xi).  Raising (+1) is its adjoint, [a* Psi]_n =
    sqrt(n) Symm(xi(p_1) prod_{k>=2} K(p_1, p_k) Psi_{n-1}), with amp = sqrt(w) xi:

        out[kappa] = sum_i amp_{k_i} / sqrt(m_{k_i}) prod_{j != i} K[k_i, k_j] src[kappa - k_i].

    An amplitude of shape (m,) (and kernel (m, m)) acts on every column.  A stack
    of shape (P, m) (and (P, m, m)) holds one operator per slot of src's first
    batch axis, of length P: slot j is amp[j] (and kmat[j]) applied to slot j,
    bit for bit as alone on finite input.  Lowering sums over the q nonzero in any
    slot, or, when every slot has exactly one nonzero entry q_j (sharp
    annihilators), gathers column q_j for slot j alone: a (rows, P) index, no sum.

    ``split`` = (start, index, label_rows) reads ``index[r]`` into row r of
    the split tower (degrees at ``start``), labelled by row ``label_rows[r]``
    of ``tower``.  Only the sectors that the range of nonzero input sectors
    reaches are computed, their slots padded to the highest of them.
    """
    start, index, label_rows = split or (tower.start, tower.up if step < 0 else tower.down, None)
    sectors = range(len(start) - 1)
    first = next((n for n in sectors if src[start[n]:start[n + 1]].any()), None)
    if first is None:  # e.g. a block of probe columns from another sector
        return None
    last = next(n for n in reversed(sectors) if n == first or src[start[n]:start[n + 1]].any())
    low, high = max(first + step, 0), min(last + step, len(start) - 2)
    if low > high:
        return None
    rows = slice(start[low], start[high + 1])
    # per-label coefficients: of these rows, or of the whole factor tower, read per row
    labelled = rows if label_rows is None else slice(None)
    labels = tower.labels[labelled, :high]
    # the slot axis of a stack goes after the label and term axes, as in src: .T
    # moves it last (amplitudes [q, slot], a padded kernel [k, q, slot])
    slot = (1,) * (amp.ndim - 1)
    removal = step < 0 and amp.ndim > 1 and bool(np.all(np.count_nonzero(amp, axis=-1) == 1))
    if removal:  # K_j[q_j, k] at [lam, j, k]: contiguous in k, as alone
        q, each = np.argmax(amp != 0, axis=-1), np.arange(len(amp))
        coef = np.sqrt(tower.up_mult[labelled][:, q], dtype=float) * amp[each, q]
        if kmat is not None:
            kernel = _padded(kmat, 1.0, 2)[each[:, None], q[:, None], labels[:, None]]
            coef = coef * np.prod(kernel, axis=-1)
        index = (index[rows][:, q], each)
    elif step < 0:
        q = np.flatnonzero(amp.any(axis=0) if slot else amp)  # nonzero in any slot
        # np.take keeps C order (a[:, q] would not), so the sums run as for all q
        mult = np.sqrt(np.take(tower.up_mult[labelled], q, axis=1), dtype=float)
        coef = mult.reshape(mult.shape + slot) * amp.take(q, axis=-1).T
        if kmat is not None:
            coef = coef * np.prod(_padded(kmat, 1.0, 2).T[labels[:, :, None], q], axis=1)
        index = np.take(index[rows], q, axis=1)
    else:
        mult = np.sqrt(tower.slot_mult[labelled, :high], dtype=float)
        coef = _padded(amp, 0.0, 1).T[labels] / mult.reshape(mult.shape + slot)
        if kmat is not None:
            # K[k_i, k_j] at [lam, (slot,) j], 1 at j = i, gathered for one i at a time; each
            # product runs over contiguous j (a slot rounds as alone), and all stay one
            # temporary, which numpy multiplies coef into (coef[:, i] *= rounds otherwise)
            padded, eye = _padded(kmat, 1.0, 2), np.eye(high, dtype=bool)
            at = [(np.arange(len(kmat))[:, None], labels[:, i, None, None], labels[:, None])
                  if slot else (labels[:, i, None], labels) for i in range(high)]
            coef = coef * np.stack([np.where(eye[i], 1.0, padded[at[i]]).prod(axis=-1)
                                    for i in range(high)], axis=1)
        index = index[rows, :high]
    return rows, index, coef if label_rows is None else coef[label_rows[rows]]


def _ladder_step(src: np.ndarray, step: int, amp: np.ndarray, tower: _Tower,
                 kmat: np.ndarray | None = None, split: tuple | None = None) -> np.ndarray:
    """The ladder operator of :func:`_ladder_terms` on ``src``, streamed term by
    term: each term column is gathered, scaled in place and added into the output
    rows, the first assigned, so a batched step adds its terms in the order of a
    sum over the term axis and each slot stays bit for bit as alone.  A step holds
    src, its output, two terms and its coefficient tables, never the g terms at once.
    """
    out = np.zeros(src.shape, dtype=complex)
    terms = _ladder_terms(src, step, amp, tower, kmat, split)
    if terms is None:
        return out
    rows, index, coef = terms
    if isinstance(index, tuple):  # a removal: one term per slot, no sum
        term = src[index]
        out[rows] = _scale(term, coef, out=term)
        return out
    for j in range(index.shape[1]):
        term = src[index[:, j]]
        _scale(term, coef[:, j], out=term)
        if j:
            out[rows] += term
        else:
            out[rows] = term
    return out


class _Coefficients:
    """The states of both towers: ``coefficients`` of shape (D,) + B, so that a
    sum, difference or multiple is one array operation; ``_with(c)`` is the
    state with coefficients c on the same space."""

    coefficients: np.ndarray

    def _store(self, dim: int):
        """Keep the coefficients as a complex array of length ``dim``, not copied."""
        coefs = np.asarray(self.coefficients, dtype=complex)
        if coefs.ndim == 0 or len(coefs) != dim:
            raise ValueError(f"coefficients have shape {coefs.shape}, expected ({dim},) + batch")
        object.__setattr__(self, "coefficients", coefs)

    @property
    def batch_shape(self) -> tuple[int, ...]:
        return self.coefficients.shape[1:]

    def _combine(self, other, fn):
        self._check_compatible(other)
        if self.batch_shape != other.batch_shape:
            raise ValueError(f"batch shapes {self.batch_shape} and {other.batch_shape} differ")
        return self._with(fn(self.coefficients, other.coefficients))

    def __add__(self, other):
        return self._combine(other, np.add)

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def __mul__(self, scalar):
        return self._with(complex(scalar) * self.coefficients)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)


@dataclass(frozen=True)
class FockVector(_Coefficients):
    """Coefficients over the multiset bases, one array of shape (D,) + B.

    Sector n is ``coefficients[start[n]:start[n + 1]]`` (:func:`_offsets`),
    read through the view ``sectors[n]`` of shape (D_n,) + B: a write to it lands
    in ``coefficients``.  B is a trailing batch shape, () for a single
    vector: a batched vector holds one vector per batch entry, and every
    operator of the package acts on it column by column, since they all
    address the leading label axis only.  Sums need equal batch shapes;
    reductions (:func:`inner`, :func:`norm`) refuse batches.
    """

    grid: MomentumGrid
    coefficients: np.ndarray
    truncation: int

    def __post_init__(self):
        self._store(_offsets(self.grid.size, self.truncation)[-1])

    @functools.cached_property
    def sectors(self) -> tuple[np.ndarray, ...]:
        start = _offsets(self.grid.size, self.truncation)
        return tuple(self.coefficients[a:b] for a, b in zip(start[:-1], start[1:]))

    def _check_compatible(self, other: "FockVector"):
        if not self.grid.same_as(other.grid):
            raise ValueError("vectors live on different grids")
        if self.truncation != other.truncation:
            raise ValueError("vectors have different truncations")

    def _with(self, coefficients: np.ndarray) -> "FockVector":
        return FockVector(self.grid, coefficients, self.truncation)


def zero_vector(grid: MomentumGrid, truncation: int) -> FockVector:
    return FockVector(grid, np.zeros(_offsets(grid.size, truncation)[-1], dtype=complex),
                      truncation)


def vacuum(grid: MomentumGrid, truncation: int) -> FockVector:
    out = zero_vector(grid, truncation)
    out.sectors[0][0] = 1.0
    return out


def inner(psi: _Coefficients, phi: _Coefficients) -> complex:
    """Inner product, antilinear in the first argument; single vectors only, of
    either tower."""
    psi._check_compatible(phi)
    if psi.batch_shape + phi.batch_shape:
        raise ValueError("reductions take single vectors, not a batch of shape "
                         f"{psi.batch_shape or phi.batch_shape}")
    return complex(np.vdot(psi.coefficients, phi.coefficients))


def norm(psi: _Coefficients) -> float:
    return math.sqrt(max(inner(psi, psi).real, 0.0))


def symmetrize(tensor: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """Coefficients of the symmetric part of a tensor over its leading n axes.

    ``tensor`` has shape (M,)*n + B and the result (D_n,) + B; trailing axes
    are a batch.  Basis vector kappa is 1/|kappa| on each of the
    n!/prod m_q! rearrangements of kappa, so

        c_kappa = |kappa| Symm(T)(kappa) = |kappa| prod_q m_q! / n! * sum_r T(r)

    over the distinct rearrangements r of kappa: one sum per label.
    """
    t = np.asarray(tensor, dtype=complex)
    m = weights.size
    batch = math.prod(t.shape[n:])
    ranks = _tensor_ranks(m, n)
    # np.add.at is fast only on 1-D operands: fold the batch into the index,
    # which keeps each column's sum in the order of its rearrangements
    index = ranks if batch == 1 else (ranks[:, None] * batch + np.arange(batch)).reshape(-1)
    norms, mfact = _norms(weights, n)
    sums = np.zeros(len(norms) * batch, dtype=complex)
    np.add.at(sums, index, t.reshape(-1))
    sums = sums.reshape((len(norms),) + t.shape[n:])
    return _scale(sums, norms * mfact / math.factorial(n))


def sector_tensor(sector: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """The symmetric tensor, shape (M,)*n + B, whose coefficients are ``sector``.

    :func:`symmetrize` inverts it.
    """
    m = weights.size
    values = _scale(sector, 1.0 / _norms(weights, n)[0])
    return values[_tensor_ranks(m, n)].reshape((m,) * n + sector.shape[1:])


@functools.lru_cache(maxsize=8)
def _pair_multipliers(gmat: bytes, m: int, truncation: int) -> np.ndarray:
    """prod_{i<j} gmat[k_i, k_j] per label, in coefficient order and read-only
    (the empty product 1 on sectors 0 and 1), from the padded labels.  ``gmat``
    is the bytes of one complex m x m matrix, giving shape (D,), or of a stack of
    P > 1, giving shape (D, P), column p bit for bit that of matrix p alone."""
    # the stack axis last, each matrix padded by 1.0, so a gather is (D, P)
    g = _padded(np.moveaxis(np.frombuffer(gmat, dtype=complex).reshape(-1, m, m), 0, -1),
                1.0)[..., :-1]
    slots = _tower(m, truncation).labels.T
    out = np.ones((slots.shape[1], g.shape[-1]), dtype=complex)
    # pair by pair in lexicographic order: a (D, N(N-1)/2) factor table is large at scale
    for i, j in itertools.combinations(range(truncation), 2):
        out *= g[slots[i], slots[j]]
    out = out[:, 0] if out.shape[1] == 1 else out
    out.setflags(write=False)
    return out


def apply_pair_phase(gmat: np.ndarray, psi: FockVector, adjoint: bool = False) -> FockVector:
    """Sector-diagonal multiplier: label kappa of sector n times prod_{i<j} gmat[k_i, k_j].

    ``gmat`` must be symmetric.  The pair twists, the sharp-momentum twists
    and the union-grid cross twist are all of this form; sectors n <= 1 are
    untouched.  The multipliers are built once per (gmat, M, N); the adjoint
    multiplies by their conjugate, which equals the multipliers of conj(gmat)
    up to the sign of a zero.  A stack of P matrices acts slot by slot on psi's
    first batch axis, of length P.
    """
    mults = _pair_multipliers(np.asarray(gmat, dtype=complex).tobytes(), psi.grid.size,
                              psi.truncation)
    return psi._with((_scale_adjoint if adjoint else _scale)(psi.coefficients, mults))


def _one_particle(xi, grid: MomentumGrid) -> np.ndarray:
    """An amplitude over the grid, or a stack of them, one per slot (shape (P, M))."""
    xi = np.asarray(xi, dtype=complex)
    if xi.ndim not in (1, 2) or xi.shape[-1:] != grid.points.shape:
        raise ValueError("one-particle amplitude does not match the grid")
    return xi


def _annihilate_with_kernel(xi, psi: FockVector, kmat: np.ndarray | None) -> FockVector:
    amp = np.sqrt(psi.grid.weights) * np.conj(_one_particle(xi, psi.grid))
    return psi._with(_ladder_step(psi.coefficients, -1, amp,
                                  _tower(psi.grid.size, psi.truncation), kmat))


def _create_with_kernel(xi, psi: FockVector, kmat: np.ndarray | None) -> FockVector:
    amp = np.sqrt(psi.grid.weights) * _one_particle(xi, psi.grid)
    return psi._with(_ladder_step(psi.coefficients, 1, amp,
                                  _tower(psi.grid.size, psi.truncation), kmat))


def annihilate(xi, psi: FockVector) -> FockVector:
    """Remove one particle: [a Psi]_n = sqrt(n+1) sum_q w_q conj(xi_q) Psi_{n+1}(q, ...).

    Antilinear in xi; the adjoint of :func:`create` with the same amplitude.
    """
    return _annihilate_with_kernel(xi, psi, None)


def create(xi, psi: FockVector) -> FockVector:
    """Add one particle: [a* Psi]_n = sqrt(n) Symm(xi o Psi_{n-1}).

    The weighted adjoint of :func:`annihilate` with the same amplitude (the
    test suite verifies this against the dense conjugate-transpose).
    """
    return _create_with_kernel(xi, psi, None)


def _monomials(amp: np.ndarray, truncation: int) -> np.ndarray:
    """Coefficients of amp^(x n) / sqrt(n!) for amp = sqrt(w) xi, sectors 0..truncation.

    Label kappa of sector n has |kappa| prod_i xi_{k_i} / sqrt(n!) =
    prod_i amp_{k_i} / sqrt(prod_q m_q!).
    """
    return _slot_products(amp, truncation) / np.sqrt(_tower(amp.size, truncation).mfact)


def exponential_vector(grid: MomentumGrid, xi, truncation: int) -> FockVector:
    """Truncated coherent-style vector with sector n = xi^(x n) / sqrt(n!)."""
    amp = np.sqrt(grid.weights) * np.asarray(xi, dtype=complex)
    return FockVector(grid, _monomials(amp, truncation), truncation)


@dataclass(frozen=True)
class TestFunctionData:
    """Momentum-space one-particle data (f_plus, f_minus) defining a field.

    ``real`` asserts f_minus = conj(f_plus) pointwise, the momentum-space
    expression of a real test function.
    """

    fplus: np.ndarray
    fminus: np.ndarray
    real: bool = False

    def __post_init__(self):
        fp = np.asarray(self.fplus, dtype=complex)
        fm = np.asarray(self.fminus, dtype=complex)
        if fp.shape != fm.shape:
            raise ValueError("fplus and fminus must have the same shape")
        if self.real and np.max(np.abs(fm - np.conj(fp))) > 1e-12:
            raise ValueError("real data requires fminus = conj(fplus)")
        object.__setattr__(self, "fplus", fp)
        object.__setattr__(self, "fminus", fm)


def real_test_function(fplus) -> TestFunctionData:
    fp = np.asarray(fplus, dtype=complex)
    return TestFunctionData(fplus=fp, fminus=np.conj(fp), real=True)


def field(fd: TestFunctionData, psi: FockVector) -> FockVector:
    """Free field create(fplus) + annihilate(conj(fminus)); hermitian for real data."""
    return create(fd.fplus, psi) + annihilate(np.conj(fd.fminus), psi)


def apply_translation(x, psi: FockVector) -> FockVector:
    """Spacetime translation: label kappa picks up prod_i exp(i(x0*omega - x1*p)).

    A pointwise unimodular multiplier, hence exactly norm preserving; fixes
    the vacuum.
    """
    x0, x1 = float(x[0]), float(x[1])
    phases = np.exp(1j * (x0 * psi.grid.omegas - x1 * psi.grid.points))
    return psi._with(_scale(psi.coefficients, _slot_products(phases, psi.truncation)))


def apply_reflection(psi: _Coefficients) -> _Coefficients:
    """Antiunitary spacetime reflection: componentwise complex conjugation.

    The basis vectors are real tensors, so this conjugates the tensors too;
    on the split tower it is the factorized reflection.
    """
    return psi._with(np.conj(psi.coefficients))


@dataclass(frozen=True)
class BoostResult:
    """Boosted vector plus a flag marking amplitude pushed off the grid."""

    vector: FockVector
    truncated: bool


def apply_boost(shift: int, psi: FockVector) -> BoostResult:
    """Exact boost index shift on an adapted grid.

    A one-particle basis vector at rapidity slot k moves to slot k - shift
    (blockwise per sign half-line for the massless geometric layout), so
    label kappa moves to kappa - shift; the adapted layouts have equal
    weights, so the shift maps basis vectors to basis vectors.  Amplitude
    whose target leaves the grid is dropped and flagged.
    """
    grid = psi.grid
    target = np.append(np.full(grid.size, -1), grid.size)  # each slot's, -1 off the grid
    for s, e in boost_blocks(grid):
        moving = np.arange(max(s, s + shift), min(e, e + shift))
        target[moving] = moving - shift
    tower = _tower(grid.size, psi.truncation)
    moved = target[tower.labels]  # still sorted: the shift keeps the order
    kept = np.all(moved >= 0, axis=1)
    src = psi.coefficients
    out = np.zeros_like(src)
    out[tower.index(moved[kept])] = src[kept]
    return BoostResult(psi._with(out), bool(np.any(src[~kept] != 0)))


class Draws:
    """Seeded draws in numpy's call forms (``size`` None: a scalar) from the standard library's
    Mersenne Twister (Matsumoto & Nishimura 1998).  A uniform is a 53-bit double in [0, 1)
    from a 64-bit word of one ``getrandbits`` call, a normal takes two (the cosine branch of
    Box & Muller 1958), so n draws then m give the n + m draws of one call, per method."""

    def __init__(self, key: str):
        self._mt = random.Random(key)

    def _draw(self, size, per: int, transform):
        """``transform`` of the (per, n) uniforms, n = prod(size), shaped to ``size``."""
        n = per * (1 if size is None else math.prod(size) if isinstance(size, tuple) else size)
        words = np.frombuffer(self._mt.getrandbits(64 * n).to_bytes(8 * n, "little"), np.uint64)
        out = transform((words >> 11).reshape(-1, per).T * 2.0 ** -53)
        return out[0] if size is None else out.reshape(size)

    def _uniform(self) -> float:
        """One uniform as a Python float, by the same operations as :meth:`_draw`."""
        return (self._mt.getrandbits(64) >> 11) * 2.0 ** -53

    def random(self, size=None):
        return self._uniform() if size is None else self._draw(size, 1, lambda u: u[0])

    def uniform(self, low: float, high: float, size=None):
        if size is None:
            return low + (high - low) * self._uniform()
        return self._draw(size, 1, lambda u: low + (high - low) * u[0])

    def standard_normal(self, size=None):
        return self._draw(size, 2, lambda u: np.sqrt(-2.0 * np.log1p(-u[0]))
                          * np.cos(2 * np.pi * u[1]))

    def integers(self, low: int, high: int) -> int:
        return self._mt.randrange(low, high)

    def choice(self, a, size=None, replace: bool = True):
        """Entries of ``a``, or of ``range(a)`` for an int."""
        pool = np.arange(a) if isinstance(a, int) else np.asarray(a)
        if not replace:
            return pool[self._mt.sample(range(len(pool)), size)]
        if size is None:
            return pool[int(self._uniform() * len(pool))]
        return self._draw(size, 1, lambda u: pool[(u[0] * len(pool)).astype(np.intp)])


def _unit_gaussians(rng: Draws, scales: np.ndarray, sizes, count: int):
    """``count`` columns of complex Gaussians ``scales * (N + iN)``, each scaled
    to unit norm, shape (D, count), from one ``standard_normal`` call.

    ``sizes`` cuts the D coefficients into blocks (sectors, or split-tower
    components).  Column j reads row j of the draw, and a row holds the real
    and then the imaginary part of each block in turn: the normals that
    ``count`` successive single draws would give.
    """
    raw = rng.standard_normal((count, 2 * scales.size)).T
    # coefficient j of the block starting at s reads rows s + j and s + size + j
    re = np.arange(scales.size) + np.repeat(np.cumsum(sizes) - sizes, sizes)
    coefs = raw[re] + 1j * raw[re + np.repeat(sizes, sizes)]
    _scale(coefs, scales, out=coefs)
    coefs *= 1.0 / np.linalg.norm(coefs, axis=0)
    return coefs


def random_fock_vector(grid: MomentumGrid, truncation: int, rng: Draws,
                       count: int | None = None) -> FockVector:
    """Random vector of unit norm: the coefficients of a symmetrized complex
    Gaussian tensor per sector, drawn directly.

    Projecting (:func:`symmetrize`) a tensor of independent standard complex
    Gaussians sums the n!/prod m_q! entries at the rearrangements of label
    kappa, times |kappa| prod m_q! / n!: independent coefficients of variance
    2 prod_i w_{k_i}, drawn here with the scale sqrt(prod_i w_{k_i}).

    The normals come from one ``standard_normal`` call, sector by sector, real
    part before imaginary part.  With ``count`` the result is a batch of shape
    (count,) whose column j is the j-th of ``count`` successive single draws,
    each column scaled to unit norm; without, column 0 of a batch of one.
    """
    coefs = _unit_gaussians(rng, _slot_products(np.sqrt(grid.weights), truncation),
                            np.diff(_offsets(grid.size, truncation)), count or 1)
    return FockVector(grid, coefs if count else coefs[:, 0], truncation)


def random_one_particle(grid: MomentumGrid, rng: Draws) -> np.ndarray:
    """Random one-particle amplitude."""
    return rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
