"""Massless chiral splitting, the exponential-vector merge, and cross twists.

For mass 0 the one-particle space splits by momentum sign, realizing the
state space as a tensor product of a positive-half and a negative-half tower.
The unitary identification with the single tower over the union grid is
fixed on exponential vectors, merge(e^psi (x) e^phi) = e^(psi (+) phi).  It
is the second quantization of the one-particle identification of the two
half-lines with the union grid, so it maps occupation-number basis vectors
to occupation-number basis vectors: the pair of multisets (kappa_+, kappa_-)
goes to their union, with coefficient 1.  The cross twist multiplies each
(positive, negative) momentum pair by a root kernel R(-p q); conjugating it
through the merge gives a sector-diagonal twist on the union tower.  These
two twists implement the same deformation of the annihilators, which is what
:func:`check_annihilator_equivalence` and :func:`check_field_equivalence`
machine-check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import fock
from .deformation import KernelSpec, annihilate_deformed, field_deformed
from .fock import FockVector, TestFunctionData
from .grids import ChiralGridPair
from .inner import Root, eval_root


@dataclass(frozen=True)
class BiFockVector:
    """Doubly graded coefficients over (positive half)^a x (negative half)^b.

    ``components[(a, b)]`` has shape (D_a(P), D_b(Q)) + B: rows are the
    multisets of a positive-half indices, columns those of b negative-half
    indices, each in the order of :mod:`fock`.  A component is present
    exactly for a + b <= truncation (total particle number), matching the
    truncation of the merged tower.  B is a trailing batch shape shared by
    all components, () for a single vector, with the same column-wise
    contract as :class:`fock.FockVector`.
    """

    pair: ChiralGridPair
    truncation: int
    components: dict

    def __post_init__(self):
        p, q = self.pair.n_positive, self.pair.n_negative
        comps = {}
        for (a, b) in _component_keys(self.truncation):
            if (a, b) not in self.components:
                raise ValueError(f"missing component {(a, b)}")
            comps[(a, b)] = np.asarray(self.components[(a, b)], dtype=complex)
        batch = comps[(0, 0)].shape[2:]
        for (a, b), arr in comps.items():
            if arr.shape != (fock._dim(p, a), fock._dim(q, b)) + batch:
                raise ValueError(f"component {(a, b)} has shape {arr.shape}")
        object.__setattr__(self, "components", comps)

    @property
    def batch_shape(self) -> tuple[int, ...]:
        return self.components[(0, 0)].shape[2:]

    def _check_compatible(self, other: "BiFockVector"):
        if self.truncation != other.truncation or not self.pair.union.same_as(other.pair.union):
            raise ValueError("incompatible split-space vectors")
        if self.batch_shape != other.batch_shape:
            raise ValueError(f"batch shapes {self.batch_shape} and {other.batch_shape} differ")

    def _combine(self, other: "BiFockVector", fn) -> "BiFockVector":
        self._check_compatible(other)
        return BiFockVector(self.pair, self.truncation,
                            {k: fn(v, other.components[k]) for k, v in self.components.items()})

    def __add__(self, other: "BiFockVector") -> "BiFockVector":
        return self._combine(other, np.add)

    def __sub__(self, other: "BiFockVector") -> "BiFockVector":
        return self._combine(other, np.subtract)

    def __mul__(self, scalar) -> "BiFockVector":
        c = complex(scalar)
        return BiFockVector(self.pair, self.truncation,
                            {k: c * v for k, v in self.components.items()})

    __rmul__ = __mul__


def _component_keys(truncation: int):
    return [(a, n - a) for n in range(truncation + 1) for a in range(n + 1)]


def bifock_zero(pair: ChiralGridPair, truncation: int) -> BiFockVector:
    p, q = pair.n_positive, pair.n_negative
    comps = {(a, b): np.zeros((fock._dim(p, a), fock._dim(q, b)), dtype=complex)
             for (a, b) in _component_keys(truncation)}
    return BiFockVector(pair, truncation, comps)


def bifock_vacuum(pair: ChiralGridPair, truncation: int) -> BiFockVector:
    out = bifock_zero(pair, truncation)
    out.components[(0, 0)][0, 0] = 1.0
    return out


def bifock_inner(xi: BiFockVector, eta: BiFockVector) -> complex:
    """Inner product on the split tower; single vectors only."""
    xi._check_compatible(eta)
    fock._refuse_batch(xi.batch_shape)
    return complex(sum(np.vdot(u, eta.components[k]) for k, u in xi.components.items()))


def bifock_norm(xi: BiFockVector) -> float:
    return math.sqrt(max(bifock_inner(xi, xi).real, 0.0))


def random_bifock(pair: ChiralGridPair, truncation: int,
                  rng: np.random.Generator) -> BiFockVector:
    """Random split-tower vector of unit norm: a complex Gaussian tensor per
    component, symmetrized within each factor."""
    p, q = pair.n_positive, pair.n_negative
    comps = {}
    for (a, b) in _component_keys(truncation):
        shape = (p,) * a + (q,) * b
        raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        pos = np.moveaxis(fock.symmetrize(raw, pair.positive_weights, a), 0, -1)
        comps[(a, b)] = np.moveaxis(fock.symmetrize(pos, pair.negative_weights, b), -1, 0)
    out = BiFockVector(pair, truncation, comps)
    return out * (1.0 / bifock_norm(out))


def exponential_pair(pair: ChiralGridPair, psi_pos, phi_neg,
                     truncation: int) -> BiFockVector:
    """e^psi (x) e^phi with component (a, b) = psi^(x a) (x) phi^(x b) / sqrt(a! b!)."""
    pos = fock._monomials(np.sqrt(pair.positive_weights) * np.asarray(psi_pos, dtype=complex),
                          truncation)
    neg = fock._monomials(np.sqrt(pair.negative_weights) * np.asarray(phi_neg, dtype=complex),
                          truncation)
    return BiFockVector(pair, truncation, {(a, b): np.multiply.outer(pos[a], neg[b])
                                           for (a, b) in _component_keys(truncation)})


def annihilate_half(side: str, g, xi: BiFockVector) -> BiFockVector:
    """Annihilator on one tensor factor: a(g) (x) 1 for '+', 1 (x) a(g) for '-'."""
    return _one_factor(side, np.conj(g), xi, fock._lower, 1)


def create_half(side: str, g, xi: BiFockVector) -> BiFockVector:
    """Creator on one tensor factor; the weighted adjoint of :func:`annihilate_half`."""
    return _one_factor(side, g, xi, fock._raise, -1)


def _one_factor(side: str, g, xi: BiFockVector, ladder, step: int) -> BiFockVector:
    """A sector ladder of :mod:`fock` with amplitude sqrt(w) g on the rows ('+')
    or columns ('-') of each component; (a, b) reads (a + step, b), resp.
    (a, b + step), and is zero where that component does not exist."""
    if side not in ("+", "-"):
        raise ValueError("side must be '+' or '-'")
    w = xi.pair.positive_weights if side == "+" else xi.pair.negative_weights
    g = np.asarray(g, dtype=complex)
    if g.shape != w.shape:
        raise ValueError("amplitude does not match the half-grid")
    amp = np.sqrt(w) * g
    tables = fock._ladder(w.size, xi.truncation)
    out = {}
    for (a, b) in _component_keys(xi.truncation):
        n, src = (a, (a + step, b)) if side == "+" else (b, (a, b + step))
        if src not in xi.components:
            out[(a, b)] = np.zeros_like(xi.components[(a, b)])
        elif side == "+":
            out[(a, b)] = ladder(xi.components[src], amp, tables[n])
        else:
            comp = np.moveaxis(xi.components[src], 1, 0)
            out[(a, b)] = np.moveaxis(ladder(comp, amp, tables[n]), 0, 1)
    return BiFockVector(xi.pair, xi.truncation, out)


def chiral_field(side: str, g, xi: BiFockVector) -> BiFockVector:
    """One-light-ray field create_half(g) + annihilate_half(g) on the chosen factor.

    With the antilinear annihilator convention this is hermitian below
    truncation; g is the momentum restriction of a real one-sided test
    function to its half-line.
    """
    return create_half(side, g, xi) + annihilate_half(side, g, xi)


def cross_matrix(grid, values_fn) -> np.ndarray:
    """Symmetric cross kernel on a union grid: values_fn(-p q) where p q < 0, else 1.

    This is S = B o B^T for the ordered kernel B (values_fn(-p q) for
    p > 0 > q, else 1).  In prod_{i,j} B[k_i, k_j] each opposite-sign pair
    meets B's nontrivial entry exactly once and every other factor is 1, so

        prod_{i,j=1..n} B[k_i, k_j] = prod_{i<j} S[k_i, k_j].

    The union twist is therefore the pair phase of S, and the split twist
    reads its (positive, negative) block S[q:, :q].
    """
    pts = grid.points
    args = -np.multiply.outer(pts, pts)
    mask = args > 0.0
    smat = np.ones(args.shape, dtype=complex)
    if np.any(mask):
        smat[mask] = values_fn(args[mask])
    return smat


@functools.lru_cache(maxsize=16)
def _union_index(n_positive: int, n_negative: int, truncation: int) -> dict:
    """Per component (a, b), the union-sector index of each label pair, shape (D_a, D_b).

    Union indices below ``n_negative`` are the negative half-line, so the
    union of (kappa_+, kappa_-) is kappa_- followed by kappa_+ + n_negative,
    already sorted.  Over all components this is a bijection onto the union
    labels: the relabelling that merge and split read.
    """
    pos = fock._ladder(n_positive, truncation)
    neg = fock._ladder(n_negative, truncation)
    union = fock._ladder(n_positive + n_negative, truncation)
    out = {}
    for (a, b) in _component_keys(truncation):
        la, lb = pos[a].labels, neg[b].labels
        joined = np.concatenate(
            [np.broadcast_to(lb[None, :, :], (len(la), len(lb), b)),
             np.broadcast_to(la[:, None, :] + n_negative, (len(la), len(lb), a))], axis=2)
        out[(a, b)] = union[a + b].index(joined)
        out[(a, b)].setflags(write=False)
    return out


def apply_cross_twist_matrix(pair: ChiralGridPair, cmat: np.ndarray,
                             xi: BiFockVector) -> BiFockVector:
    """Diagonal multiplier prod_{i,j} cmat[p_i, q_j] over all cross pairs.

    ``cmat`` is P x Q; label pair (kappa_+, kappa_-) of component (a, b)
    takes the product over its a * b cross pairs.
    """
    pos = fock._ladder(pair.n_positive, xi.truncation)
    neg = fock._ladder(pair.n_negative, xi.truncation)
    return BiFockVector(xi.pair, xi.truncation, {
        (a, b): fock._scale(comp, np.prod(cmat[pos[a].labels[:, None, :, None],
                                               neg[b].labels[None, :, None, :]], axis=(2, 3)))
        for (a, b), comp in xi.components.items()})


def apply_cross_twist(root: Root, xi: BiFockVector, adjoint: bool = False) -> BiFockVector:
    """Cross twist: component (a, b) is multiplied by prod_{i,j} R(-p_i q_j).

    A sector-diagonal unitary fixing the vacuum and every one-sided
    component; its square is the twist of the squared root.
    """
    q = xi.pair.n_negative
    cmat = cross_matrix(xi.pair.union, lambda args: eval_root(root, args))[q:, :q]
    return apply_cross_twist_matrix(xi.pair, np.conj(cmat) if adjoint else cmat, xi)


def merge_chiral(xi: BiFockVector) -> FockVector:
    """Unitary identification of the split tower with the union-grid tower.

    [merge Xi]_n = sum_k binom(n, k)^(1/2) Symm_n(embedded Xi_{k, n-k}); maps
    exponential tensor pairs to exponential vectors of the direct sum.

    On basis vectors it is the relabelling (kappa_+, kappa_-) -> kappa_+ u
    kappa_- with coefficient 1: the two sides have the same multiplicities
    and weights, and n! / (a! b!) = binom(n, a) rearrangements of the union
    cancel the binomial.  One scatter per component through
    :func:`_union_index`; a batch rides along on the trailing axes.
    """
    pair = xi.pair
    index = _union_index(pair.n_positive, pair.n_negative, xi.truncation)
    secs = []
    for n in range(xi.truncation + 1):
        out = np.empty((fock._dim(pair.union.size, n),) + xi.batch_shape, dtype=complex)
        for a in range(n + 1):
            out[index[(a, n - a)]] = xi.components[(a, n - a)]
        secs.append(out)
    return FockVector(pair.union, tuple(secs))


def split_chiral(psi: FockVector, pair: ChiralGridPair) -> BiFockVector:
    """Inverse of :func:`merge_chiral`: one gather per component."""
    if not psi.grid.same_as(pair.union):
        raise ValueError("vector does not live on the pair's union grid")
    index = _union_index(pair.n_positive, pair.n_negative, psi.truncation)
    return BiFockVector(pair, psi.truncation, {
        (a, b): psi.sectors[a + b][idx] for (a, b), idx in index.items()})


def apply_cross_twist_fock(root: Root, psi: FockVector, adjoint: bool = False) -> FockVector:
    """The cross twist conjugated through the merge, as a sector-diagonal multiplier.

    Label kappa of sector n is multiplied by prod_{i<j} S[k_i, k_j] with S
    from :func:`cross_matrix`; sectors n <= 1 are untouched.
    """
    smat = cross_matrix(psi.grid, lambda args: eval_root(root, args))
    return fock.apply_pair_phase(np.conj(smat) if adjoint else smat, psi)


def apply_translation_bifock(x, xi: BiFockVector) -> BiFockVector:
    """Light-ray translations on the split tower: e^(i p x_-) and e^(-i p x_+)."""
    x0, x1 = float(x[0]), float(x[1])
    ph_pos = np.exp(1j * xi.pair.positive_points * (x0 - x1))
    ph_neg = np.exp(-1j * xi.pair.negative_points * (x0 + x1))
    pos = fock._ladder(xi.pair.n_positive, xi.truncation)
    neg = fock._ladder(xi.pair.n_negative, xi.truncation)
    return BiFockVector(xi.pair, xi.truncation, {
        (a, b): fock._scale(comp, np.multiply.outer(fock._slot_product(ph_pos, pos[a].labels),
                                                    fock._slot_product(ph_neg, neg[b].labels)))
        for (a, b), comp in xi.components.items()})


def apply_reflection_bifock(xi: BiFockVector) -> BiFockVector:
    """Factorized antiunitary reflection: componentwise complex conjugation."""
    return BiFockVector(xi.pair, xi.truncation,
                        {k: np.conj(v) for k, v in xi.components.items()})


def _support_side(pair: ChiralGridPair, amplitude: np.ndarray) -> str:
    amp = np.asarray(amplitude, dtype=complex)
    q = pair.n_negative
    on_neg = bool(np.any(amp[:q] != 0.0))
    on_pos = bool(np.any(amp[q:] != 0.0))
    if on_pos == on_neg:
        raise ValueError("amplitude must be supported on exactly one half-line")
    return "+" if on_pos else "-"


def _twist_sandwich(root: Root, amplitude, pair: ChiralGridPair, psi: FockVector,
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
        g = amplitude[q:] if side == "+" else amplitude[:q]
        xi = apply_cross_twist(root, split_chiral(psi, pair), adjoint=not outer_adjoint)
        xi = half_op(side, g, xi)
        return merge_chiral(apply_cross_twist(root, xi, adjoint=outer_adjoint))
    raise ValueError("route must be 'direct' or 'split'")


def twisted_annihilator(root: Root, amplitude, pair: ChiralGridPair,
                        psi: FockVector, route: str = "direct") -> FockVector:
    """Undeformed annihilator conjugated by the cross twist, sign-adapted.

    ``route`` selects the realization: "direct" uses the sector-diagonal
    twist on the union tower, "split" conjugates the one-factor annihilator
    through merge/split (see :func:`_twist_sandwich`).
    """
    return _twist_sandwich(root, amplitude, pair, psi, route,
                           lambda v: fock.annihilate(amplitude, v), annihilate_half)


def twisted_field(root: Root, fd: TestFunctionData, pair: ChiralGridPair,
                  psi: FockVector, route: str = "direct") -> FockVector:
    """One-light-ray field conjugated by the cross twist, sign-adapted like
    :func:`twisted_annihilator`."""
    if _support_side(pair, fd.fplus) != _support_side(pair, np.conj(fd.fminus)):
        raise ValueError("field data must be supported on a single half-line")
    return _twist_sandwich(root, fd.fplus, pair, psi, route,
                           lambda v: fock.field(fd, v), chiral_field)


@dataclass(frozen=True)
class EquivalenceReport:
    """Deviations between a kernel-deformed operator and its twist conjugation."""

    side: str
    max_vector_direct: float
    max_vector_split: float
    max_matrix_direct: float
    max_matrix_split: float

    @property
    def max_deviation(self) -> float:
        """Largest of the four deviations; NaN if any of them is NaN."""
        return float(np.max([self.max_vector_direct, self.max_vector_split,
                             self.max_matrix_direct, self.max_matrix_split]))


def _check_equivalence(side: str, deformed, twisted, pattern, pair: ChiralGridPair,
                       truncation: int, rng: np.random.Generator,
                       n_vectors: int) -> EquivalenceReport:
    """Compare ``deformed`` with ``twisted(v, route)`` on both twist routes: on
    ``n_vectors`` random vectors per route, and over the probe image of the
    operators' ``pattern`` (:mod:`dense`), the deformed one's built once."""
    from .dense import FockBasis, matrix_deviation, probe_image

    basis = FockBasis(pair.union, truncation)
    target = probe_image(deformed, pattern, basis)
    devs = {}
    for route in ("direct", "split"):
        dev_vec = 0.0
        for _ in range(n_vectors):
            probe = fock.random_fock_vector(pair.union, truncation, rng)
            diff = deformed(probe) - twisted(probe, route)
            dev_vec = float(np.maximum(dev_vec, fock.norm(diff)))
        image = probe_image(lambda v: twisted(v, route), pattern, basis)
        devs[route] = (dev_vec, matrix_deviation(image, target))
    return EquivalenceReport(side=side, max_vector_direct=devs["direct"][0],
                             max_vector_split=devs["split"][0],
                             max_matrix_direct=devs["direct"][1],
                             max_matrix_split=devs["split"][1])


def check_annihilator_equivalence(root: Root, amplitude, pair: ChiralGridPair,
                                  truncation: int, rng: np.random.Generator,
                                  n_vectors: int = 10) -> EquivalenceReport:
    """Compare the kernel-deformed annihilator with its twist conjugation.

    For an amplitude supported on one half-line the two must agree on the
    whole truncated space; both twist realizations are exercised.
    """
    from .dense import LOWER

    amplitude = np.asarray(amplitude, dtype=complex)
    spec = KernelSpec(root=root, mass=0.0)
    return _check_equivalence(
        _support_side(pair, amplitude),
        lambda v: annihilate_deformed(spec, amplitude, v),
        lambda v, route: twisted_annihilator(root, amplitude, pair, v, route),
        LOWER, pair, truncation, rng, n_vectors)


def check_field_equivalence(root: Root, fd: TestFunctionData, pair: ChiralGridPair,
                            truncation: int, rng: np.random.Generator,
                            n_vectors: int = 10) -> EquivalenceReport:
    """Compare the kernel-deformed field with the twisted one-light-ray field.

    Requires real one-sided data, for which both operators are hermitian and
    generate the same deformed observables.
    """
    if not fd.real:
        raise ValueError("field equivalence is formulated for real data")
    from .dense import FIELD

    spec = KernelSpec(root=root, mass=0.0)
    return _check_equivalence(
        _support_side(pair, fd.fplus),
        lambda v: field_deformed(spec, fd, v),
        lambda v, route: twisted_field(root, fd, pair, v, route),
        FIELD, pair, truncation, rng, n_vectors)
