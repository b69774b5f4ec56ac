"""Massless chiral splitting, the exponential-vector merge, and cross twists.

For mass 0 the one-particle space splits by momentum sign, realizing the
state space as a tensor product of a positive-half and a negative-half tower.
The unitary identification with the single tower over the union grid is
fixed on exponential vectors, merge(e^psi (x) e^phi) = e^(psi (+) phi).  It
is the second quantization of the one-particle identification of the two
half-lines with the union grid, so it maps occupation-number basis vectors
to occupation-number basis vectors: the pair of multisets (kappa_+, kappa_-)
goes to their union, with coefficient 1, so merge and split are one gather
each through the permutation of :func:`_layout`, which also holds each
coefficient's row in both half-line towers.  Multipliers and one-factor
ladders on the split tower gather over those rows, never the permutation, so
the split route stays an independent check of the union one.  The cross
twist multiplies each (positive, negative) momentum pair by a root kernel
R(-p q); conjugating it through the merge gives a sector-diagonal twist on
the union tower.  These two twists implement the same deformation of the
annihilators and fields as :mod:`deformation`.  This module never imports
that one: the two schemes meet only in :mod:`suites`, whose ``_equivalence``
compares them.

Every twist and twisted operator that takes a root also takes a tuple of P
roots, one per slot of the state's first batch axis (of length P), with a
(P, M) stack of amplitudes where it takes one: slot j is then the operator
of root j applied to slot j, through (D, P) multipliers whose column j is bit
for bit that of root j alone.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import fock
from .fock import FockVector, TestFunctionData
from .grids import ChiralGridPair
from .inner import Root, eval_root_at_zero_one


def _component_keys(truncation: int):
    return [(a, n - a) for n in range(truncation + 1) for a in range(n + 1)]


class _Layout(NamedTuple):
    """The coefficients of the split tower over P positive and Q negative points.

    Component k = (a, b) of :func:`_component_keys` is ``coefficients[start[k]:
    start[k+1]]`` raveled row-major from ``shapes[k]`` = (D_a(P), D_b(Q)): rows
    are the multisets of a positive-half indices, columns those of b
    negative-half indices.  Coefficient j is the label pair of rows
    ``pos_row[j]`` and ``neg_row[j]`` of the two factors' :func:`fock._tower`,
    and label ``order[j]`` of the tower over the P + Q union points, whose
    coefficient u is ``merge[u]`` here.
    """

    start: tuple
    shapes: tuple
    pos_row: np.ndarray
    neg_row: np.ndarray
    order: np.ndarray
    merge: np.ndarray


@functools.lru_cache(maxsize=16)
def _layout(n_positive: int, n_negative: int, truncation: int) -> _Layout:
    """Built once per (P, Q, N).  Union indices below ``n_negative`` are the
    negative half-line, so the union of (kappa_+, kappa_-) is kappa_- followed
    by kappa_+ + n_negative, and the pads (label P + Q) sort last."""
    pos, neg = fock._tower(n_positive, truncation), fock._tower(n_negative, truncation)
    a, b = np.array(_component_keys(truncation)).T
    rows, cols = np.diff(pos.start)[a], np.diff(neg.start)[b]
    start = tuple(itertools.accumulate((rows * cols).tolist(), initial=0))
    k = np.repeat(np.arange(len(a)), rows * cols)  # each coefficient's component
    place = np.arange(start[-1]) - np.array(start)[k]  # row-major within it
    pos_row = np.array(pos.start)[a[k]] + place // cols[k]
    neg_row = np.array(neg.start)[b[k]] + place % cols[k]
    pad = n_positive + n_negative
    neg_labels = neg.labels[neg_row]
    union = np.sort(np.concatenate([np.where(neg_labels < n_negative, neg_labels, pad),
                                    pos.labels[pos_row] + n_negative], axis=1), axis=1)
    order = fock._tower(pad, truncation).index(union[:, :truncation])
    out = _Layout(start, tuple(zip(rows.tolist(), cols.tolist())), pos_row, neg_row, order,
                  np.argsort(order))
    for arr in out[2:]:
        arr.setflags(write=False)
    return out


@dataclass(frozen=True)
class BiFockVector(fock._Coefficients):
    """Doubly graded coefficients over (positive half)^a x (negative half)^b,
    one array of shape (D,) + B in the order of :func:`_layout`.

    ``components[(a, b)]`` is a view of shape (D_a(P), D_b(Q)) + B, present
    exactly for a + b <= truncation, the truncation of the merged tower: a
    write to it lands in ``coefficients``.  B is a trailing batch shape with
    the column-wise contract of :class:`fock.FockVector`.
    """

    pair: ChiralGridPair
    truncation: int
    coefficients: np.ndarray

    def __post_init__(self):
        self._store(self.layout.start[-1])

    @property
    def layout(self) -> _Layout:
        return _layout(self.pair.n_positive, self.pair.n_negative, self.truncation)

    @functools.cached_property
    def components(self) -> dict:
        start, shapes = self.layout.start, self.layout.shapes
        return {key: self.coefficients[start[k]:start[k + 1]].reshape(shapes[k] + self.batch_shape)
                for k, key in enumerate(_component_keys(self.truncation))}

    def _check_compatible(self, other: "BiFockVector"):
        if self.truncation != other.truncation or not self.pair.union.same_as(other.pair.union):
            raise ValueError("incompatible split-space vectors")

    def _with(self, coefficients: np.ndarray) -> "BiFockVector":
        return BiFockVector(self.pair, self.truncation, coefficients)


def bifock_zero(pair: ChiralGridPair, truncation: int) -> BiFockVector:
    dim = _layout(pair.n_positive, pair.n_negative, truncation).start[-1]
    return BiFockVector(pair, truncation, np.zeros(dim, dtype=complex))


def bifock_vacuum(pair: ChiralGridPair, truncation: int) -> BiFockVector:
    out = bifock_zero(pair, truncation)
    out.components[(0, 0)][0, 0] = 1.0
    return out


# a sum over the coefficients, as on the union tower
bifock_inner, bifock_norm = fock.inner, fock.norm


def _outer_products(pair: ChiralGridPair, pos_vec, neg_vec, truncation: int) -> np.ndarray:
    """prod_i pos_vec[k_i] prod_j neg_vec[l_j] per label pair (kappa_+, kappa_-),
    in coefficient order: a one-body multiplier of each factor."""
    layout = _layout(pair.n_positive, pair.n_negative, truncation)
    return (fock._slot_products(pos_vec, truncation)[layout.pos_row]
            * fock._slot_products(neg_vec, truncation)[layout.neg_row])


def random_bifock(pair: ChiralGridPair, truncation: int, rng: fock.Draws,
                  count: int | None = None) -> BiFockVector:
    """Random split-tower vector of unit norm: the coefficients of a complex
    Gaussian tensor per component, symmetrized within each factor, drawn
    directly; label pair (kappa_+, kappa_-) scales by the product of the two
    halves' scales in :func:`fock.random_fock_vector`.

    The normals come from one ``standard_normal`` call, component by
    component, and ``count`` works as in :func:`fock.random_fock_vector`.
    """
    scales = _outer_products(pair, np.sqrt(pair.positive_weights),
                             np.sqrt(pair.negative_weights), truncation)
    coefs = fock._unit_gaussians(rng, scales, np.diff(
        _layout(pair.n_positive, pair.n_negative, truncation).start), count or 1)
    return BiFockVector(pair, truncation, coefs if count else coefs[:, 0])


def exponential_pair(pair: ChiralGridPair, psi_pos, phi_neg,
                     truncation: int) -> BiFockVector:
    """e^psi (x) e^phi with component (a, b) = psi^(x a) (x) phi^(x b) / sqrt(a! b!)."""
    pos = fock._monomials(np.sqrt(pair.positive_weights) * np.asarray(psi_pos, dtype=complex),
                          truncation)
    neg = fock._monomials(np.sqrt(pair.negative_weights) * np.asarray(phi_neg, dtype=complex),
                          truncation)
    layout = _layout(pair.n_positive, pair.n_negative, truncation)
    return BiFockVector(pair, truncation, pos[layout.pos_row] * neg[layout.neg_row])


def annihilate_half(side: str, g, xi: BiFockVector) -> BiFockVector:
    """Annihilator on one tensor factor: a(g) (x) 1 for '+', 1 (x) a(g) for '-'."""
    return _one_factor(side, np.conj(g), xi, -1)


def create_half(side: str, g, xi: BiFockVector) -> BiFockVector:
    """Creator on one tensor factor; the weighted adjoint of :func:`annihilate_half`."""
    return _one_factor(side, g, xi, 1)


@functools.lru_cache(maxsize=16)
def _half_ladder(n_positive: int, n_negative: int, truncation: int, side: str, step: int):
    """The ``split`` tables (start, index, label_rows) of :func:`fock._ladder_step`
    for the ladder of ``step`` on the ``side`` factor, built once per (P, Q,
    N, side, step) from the factors' :func:`fock._tower` and the rows of
    :func:`_layout`, never through the merge; read-only.  The label rows are
    ``pos_row`` or ``neg_row``, and the pair (kappa_+, kappa_-) reads the pair
    with that factor's label moved by its up or down table.  Lowering reads
    no coefficient of degree N + 1, so it covers the prefix below union
    sector N."""
    layout = _layout(n_positive, n_negative, truncation)
    pos, neg = fock._tower(n_positive, truncation), fock._tower(n_negative, truncation)
    start = fock._offsets(n_positive + n_negative, truncation)
    rows = slice(start[-2] if step < 0 else start[-1])
    pos_row, neg_row = layout.pos_row[rows], layout.neg_row[rows]
    factor, label_rows = (pos, pos_row) if side == "+" else (neg, neg_row)
    moved = (factor.up if step < 0 else factor.down)[label_rows]
    r, s = (moved, neg_row[:, None]) if side == "+" else (pos_row[:, None], moved)
    # the coefficient of the pair in rows (r, s), in component n (n + 1) / 2 + a, n = a + b
    a, b = pos.sector[r], neg.sector[s]
    index = (np.array(layout.start[:-1])[(a + b) * (a + b + 1) // 2 + a]
             + (r - np.array(pos.start)[a]) * np.diff(neg.start)[b] + s - np.array(neg.start)[b])
    if step > 0:  # a pad slot reads coefficient 0
        index = np.where(factor.labels[label_rows] < factor.m, index, 0)
    index.setflags(write=False)
    return start, index, label_rows


def _one_factor(side: str, g, xi: BiFockVector, step: int) -> BiFockVector:
    """The ladder of ``step`` (-1 lowers, +1 raises) with amplitude sqrt(w) g
    on the ``side`` factor, one gather over :func:`_half_ladder`; a component
    whose source does not exist is zero."""
    if side not in ("+", "-"):
        raise ValueError("side must be '+' or '-'")
    w = xi.pair.positive_weights if side == "+" else xi.pair.negative_weights
    g = np.asarray(g, dtype=complex)
    if g.ndim not in (1, 2) or g.shape[-1:] != w.shape:
        raise ValueError("amplitude does not match the half-grid")
    split = _half_ladder(xi.pair.n_positive, xi.pair.n_negative, xi.truncation, side, step)
    return xi._with(fock._ladder_step(xi.coefficients, step, np.sqrt(w) * g,
                                      fock._tower(w.size, xi.truncation), split=split))


def chiral_field(side: str, g, xi: BiFockVector) -> BiFockVector:
    """One-light-ray field create_half(g) + annihilate_half(g) on the chosen factor.

    With the antilinear annihilator convention this is hermitian below
    truncation; g is the momentum restriction of a real one-sided test
    function to its half-line.
    """
    return create_half(side, g, xi) + annihilate_half(side, g, xi)


def cross_matrix(points: np.ndarray, values_fn) -> np.ndarray:
    """Symmetric cross kernel on union-grid points: values_fn(-p q) where p q < 0, else 1.

    This is S = B o B^T for the ordered kernel B (values_fn(-p q) for
    p > 0 > q, else 1).  In prod_{i,j} B[k_i, k_j] each opposite-sign pair
    meets B's nontrivial entry exactly once and every other factor is 1, so

        prod_{i,j=1..n} B[k_i, k_j] = prod_{i<j} S[k_i, k_j].

    The union twist is therefore the pair phase of S, and the split twist
    reads its (positive, negative) block S[q:, :q].
    """
    args = -np.multiply.outer(points, points)
    mask = args > 0.0
    smat = np.ones(args.shape, dtype=complex)
    if np.any(mask):
        smat[mask] = values_fn(args[mask])
    return smat


@functools.lru_cache(maxsize=16)
def _root_cross_matrix(root: Root, points: bytes) -> np.ndarray:
    """:func:`cross_matrix` of the root on the union grid with these points'
    bytes, built once and read-only: R(0) := 1 stands for the 1 where p q > 0."""
    pts = np.frombuffer(points)
    args = -np.multiply.outer(pts, pts)
    smat = eval_root_at_zero_one(root, np.where(args > 0.0, args, 0.0))
    smat.setflags(write=False)
    return smat


def _cross_matrices(root, points: np.ndarray) -> np.ndarray:
    """:func:`_root_cross_matrix` of a root, or the (P, M, M) stack of a tuple of P roots."""
    if isinstance(root, tuple):
        return np.array([_root_cross_matrix(r, points.tobytes()) for r in root])
    return _root_cross_matrix(root, points.tobytes())


@functools.lru_cache(maxsize=8)
def _cross_multipliers(cmat: bytes, n_positive: int, n_negative: int,
                       truncation: int) -> np.ndarray:
    """prod_{i,j} cmat[p_i, q_j] per label pair (kappa_+, kappa_-), in
    coefficient order and read-only.  ``cmat`` is the bytes of one complex P x Q
    matrix, giving shape (D,), or of a stack of S > 1, giving shape (D, S), column
    s bit for bit that of matrix s alone."""
    c = fock._padded(np.frombuffer(cmat, dtype=complex).reshape(-1, n_positive, n_negative),
                     1.0, 2)
    layout = _layout(n_positive, n_negative, truncation)
    pos, neg = fock._tower(n_positive, truncation), fock._tower(n_negative, truncation)
    # a b <= floor(N/2) ceil(N/2) cross pairs per label pair, pair t at slots (t // b, t % b)
    # (row-major, as the product over the a x b block rounds); the rest read the pad's 1
    i, j = np.divmod(np.arange(truncation // 2 * (truncation - truncation // 2)),
                     np.maximum(neg.sector[layout.neg_row, None], 1))
    rows = pos.labels[layout.pos_row[:, None], np.minimum(i, truncation - 1)][:, None]
    cols = neg.labels[layout.neg_row[:, None], j][:, None]
    out = np.prod(c[np.arange(len(c))[:, None], rows, cols], axis=-1)  # (D, S, pairs)
    out = out[:, 0] if out.shape[1] == 1 else out
    out.setflags(write=False)
    return out


def apply_cross_twist_matrix(pair: ChiralGridPair, cmat: np.ndarray, xi: BiFockVector,
                             adjoint: bool = False) -> BiFockVector:
    """Diagonal multiplier prod_{i,j} cmat[p_i, q_j] over all cross pairs.

    ``cmat`` is P x Q; label pair (kappa_+, kappa_-) of component (a, b)
    takes the product over its a * b cross pairs.  The multipliers are built
    once per (cmat, P, Q, N), on the half-line labels; the adjoint multiplies
    by their conjugate, as :func:`fock.apply_pair_phase` does.  A stack of S
    matrices acts slot by slot on the first batch axis, of length S.
    """
    mults = _cross_multipliers(np.asarray(cmat, dtype=complex).tobytes(), pair.n_positive,
                               pair.n_negative, xi.truncation)
    return xi._with((fock._scale_adjoint if adjoint else fock._scale)(xi.coefficients, mults))


def apply_cross_twist(root: Root | tuple, xi: BiFockVector,
                      adjoint: bool = False) -> BiFockVector:
    """Cross twist: component (a, b) is multiplied by prod_{i,j} R(-p_i q_j).

    A sector-diagonal unitary fixing the vacuum and every one-sided
    component; its square is the twist of the squared root.
    """
    q = xi.pair.n_negative
    cmat = _cross_matrices(root, xi.pair.union.points)[..., q:, :q]
    return apply_cross_twist_matrix(xi.pair, cmat, xi, adjoint)


def merge_chiral(xi: BiFockVector) -> FockVector:
    """Unitary identification of the split tower with the union-grid tower.

    [merge Xi]_n = sum_k binom(n, k)^(1/2) Symm_n(embedded Xi_{k, n-k}); maps
    exponential tensor pairs to exponential vectors of the direct sum.

    On basis vectors it is the relabelling (kappa_+, kappa_-) -> kappa_+ u
    kappa_- with coefficient 1: the two sides have the same multiplicities
    and weights, and n! / (a! b!) = binom(n, a) rearrangements of the union
    cancel the binomial.  One gather through the permutation of
    :func:`_layout`; a batch rides along on the trailing axes.
    """
    return FockVector(xi.pair.union, xi.coefficients[xi.layout.merge], xi.truncation)


def split_chiral(psi: FockVector, pair: ChiralGridPair) -> BiFockVector:
    """Inverse of :func:`merge_chiral`: one gather."""
    if not psi.grid.same_as(pair.union):
        raise ValueError("vector does not live on the pair's union grid")
    order = _layout(pair.n_positive, pair.n_negative, psi.truncation).order
    return BiFockVector(pair, psi.truncation, psi.coefficients[order])


def apply_cross_twist_fock(root: Root | tuple, psi: FockVector,
                           adjoint: bool = False) -> FockVector:
    """The cross twist conjugated through the merge, as a sector-diagonal multiplier.

    Label kappa of sector n is multiplied by prod_{i<j} S[k_i, k_j] with S
    from :func:`cross_matrix`; sectors n <= 1 are untouched.
    """
    smat = _cross_matrices(root, psi.grid.points)
    return fock.apply_pair_phase(smat, psi, adjoint)


def apply_translation_bifock(x, xi: BiFockVector) -> BiFockVector:
    """Light-ray translations on the split tower: e^(i p x_-) and e^(-i p x_+)."""
    x0, x1 = float(x[0]), float(x[1])
    ph_pos = np.exp(1j * xi.pair.positive_points * (x0 - x1))
    ph_neg = np.exp(-1j * xi.pair.negative_points * (x0 + x1))
    return xi._with(fock._scale(xi.coefficients,
                                _outer_products(xi.pair, ph_pos, ph_neg, xi.truncation)))


apply_reflection_bifock = fock.apply_reflection


def _support_side(pair: ChiralGridPair, amplitude: np.ndarray) -> str:
    amp = np.asarray(amplitude, dtype=complex)
    q = pair.n_negative
    on_neg = bool(np.any(amp[..., :q] != 0.0))
    on_pos = bool(np.any(amp[..., q:] != 0.0))
    if on_pos == on_neg:
        raise ValueError("amplitude must be supported on exactly one half-line")
    return "+" if on_pos else "-"


def _twist_sandwich(root: Root | tuple, amplitude, pair: ChiralGridPair, psi: FockVector,
                    route: str, union_op, half_op) -> FockVector:
    """Conjugate an operator by the cross twist, sign-adapted.

    Positive-half amplitudes are sandwiched as twist* op twist, negative-half
    ones as twist op twist*.  "direct" applies ``union_op`` between the
    sector-diagonal union twists; "split" applies ``half_op(side, g, xi)``,
    with g the amplitude on its half-line, between bi-Fock twists through
    split/merge.
    """
    side = _support_side(pair, amplitude)
    outer_adjoint = side == "+"
    if route == "direct":
        out = union_op(apply_cross_twist_fock(root, psi, adjoint=not outer_adjoint))
        return apply_cross_twist_fock(root, out, adjoint=outer_adjoint)
    if route == "split":
        q = pair.n_negative
        g = amplitude[..., q:] if side == "+" else amplitude[..., :q]
        xi = apply_cross_twist(root, split_chiral(psi, pair), adjoint=not outer_adjoint)
        xi = half_op(side, g, xi)
        return merge_chiral(apply_cross_twist(root, xi, adjoint=outer_adjoint))
    raise ValueError("route must be 'direct' or 'split'")


def twisted_annihilator(root: Root | tuple, amplitude, pair: ChiralGridPair,
                        psi: FockVector, route: str = "direct") -> FockVector:
    """Undeformed annihilator conjugated by the cross twist, sign-adapted.

    ``route`` selects the realization: "direct" uses the sector-diagonal
    twist on the union tower, "split" conjugates the one-factor annihilator
    through merge/split (see :func:`_twist_sandwich`).
    """
    return _twist_sandwich(root, amplitude, pair, psi, route,
                           lambda v: fock.annihilate(amplitude, v), annihilate_half)


def twisted_field(root: Root | tuple, fd: TestFunctionData, pair: ChiralGridPair,
                  psi: FockVector, route: str = "direct") -> FockVector:
    """One-light-ray field conjugated by the cross twist, sign-adapted like
    :func:`twisted_annihilator`."""
    if _support_side(pair, fd.fplus) != _support_side(pair, np.conj(fd.fminus)):
        raise ValueError("field data must be supported on a single half-line")
    return _twist_sandwich(root, fd.fplus, pair, psi, route,
                           lambda v: fock.field(fd, v), chiral_field)
