"""Massless chiral splitting, the exponential-vector merge, and cross twists.

For mass 0 the one-particle space splits by momentum sign, realizing the
state space as a tensor product of a positive-half and a negative-half tower.
The unitary identification with the single tower over the union grid is
fixed on exponential vectors, merge(e^psi (x) e^phi) = e^(psi (+) phi), and
acts componentwise by

    [merge Xi]_n = sum_k binom(n, k)^(1/2) Symm_n Xi_{k, n-k}

with the sign-pattern embeddings understood.  The cross twist multiplies each
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
from .fock import FockVector, TestFunctionData, symmetrize_axes
from .grids import ChiralGridPair
from .inner import Root, eval_root


@dataclass(frozen=True)
class BiFockVector:
    """Doubly graded tower over (positive half)^a x (negative half)^b.

    ``components[(a, b)]`` has shape (P,)*a + (Q,)*b + B, symmetric within
    each factor, and is present exactly for a + b <= truncation (total
    particle number), matching the truncation of the merged tower.  B is a
    trailing batch shape shared by all components, () for a single vector,
    with the same column-wise contract as :class:`fock.FockVector`.
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
        batch = comps[(0, 0)].shape
        for (a, b), arr in comps.items():
            if arr.shape != (p,) * a + (q,) * b + batch:
                raise ValueError(f"component {(a, b)} has shape {arr.shape}")
        object.__setattr__(self, "components", comps)

    @property
    def batch_shape(self) -> tuple[int, ...]:
        return self.components[(0, 0)].shape

    def _check_compatible(self, other: "BiFockVector"):
        if self.truncation != other.truncation or not self.pair.union.same_as(other.pair.union):
            raise ValueError("incompatible split-space vectors")

    def _combine(self, other: "BiFockVector", fn) -> "BiFockVector":
        self._check_compatible(other)
        return BiFockVector(self.pair, self.truncation, {
            k: fn(*fock._broadcast_batch(v, self.batch_shape,
                                         other.components[k], other.batch_shape))
            for k, v in self.components.items()})

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
    comps = {(a, b): np.zeros((p,) * a + (q,) * b, dtype=complex)
             for (a, b) in _component_keys(truncation)}
    return BiFockVector(pair, truncation, comps)


def bifock_vacuum(pair: ChiralGridPair, truncation: int) -> BiFockVector:
    out = bifock_zero(pair, truncation)
    out.components[(0, 0)] = np.array(1.0 + 0.0j)
    return out


def bifock_inner(xi: BiFockVector, eta: BiFockVector) -> complex:
    """Weighted inner product on the split tower; single vectors only."""
    xi._check_compatible(eta)
    fock._refuse_batch(xi.batch_shape)
    fock._refuse_batch(eta.batch_shape)
    wp, wn = xi.pair.positive_weights, xi.pair.negative_weights
    total = 0.0 + 0.0j
    for (a, b), u in xi.components.items():
        prod = np.conj(u) * eta.components[(a, b)]
        total += complex(np.sum(fock._axis_multiply(prod, [wp] * a + [wn] * b)))
    return total


def bifock_norm(xi: BiFockVector) -> float:
    return math.sqrt(max(bifock_inner(xi, xi).real, 0.0))


def random_bifock(pair: ChiralGridPair, truncation: int,
                  rng: np.random.Generator) -> BiFockVector:
    """Random split-tower vector of unit norm, symmetric within each factor."""
    p, q = pair.n_positive, pair.n_negative
    comps = {}
    for (a, b) in _component_keys(truncation):
        shape = (p,) * a + (q,) * b
        raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        raw = symmetrize_axes(raw, range(a))
        comps[(a, b)] = symmetrize_axes(raw, range(a, a + b))
    out = BiFockVector(pair, truncation, comps)
    return out * (1.0 / bifock_norm(out))


def exponential_pair(pair: ChiralGridPair, psi_pos, phi_neg,
                     truncation: int) -> BiFockVector:
    """e^psi (x) e^phi with component (a, b) = psi^(x a) (x) phi^(x b) / sqrt(a! b!)."""
    psi_pos = np.asarray(psi_pos, dtype=complex)
    phi_neg = np.asarray(phi_neg, dtype=complex)
    comps = {}
    for (a, b) in _component_keys(truncation):
        t = np.array(1.0 + 0.0j)
        for _ in range(a):
            t = np.multiply.outer(t, psi_pos)
        for _ in range(b):
            t = np.multiply.outer(t, phi_neg)
        comps[(a, b)] = t / math.sqrt(math.factorial(a) * math.factorial(b))
    return BiFockVector(pair, truncation, comps)


def annihilate_half(side: str, g, xi: BiFockVector) -> BiFockVector:
    """Annihilator on one tensor factor: a(g) (x) 1 for '+', 1 (x) a(g) for '-'."""
    pair = xi.pair
    if side == "+":
        w, size = pair.positive_weights, pair.n_positive
    elif side == "-":
        w, size = pair.negative_weights, pair.n_negative
    else:
        raise ValueError("side must be '+' or '-'")
    g = np.asarray(g, dtype=complex)
    if g.shape != (size,):
        raise ValueError("amplitude does not match the half-grid")
    wg = w * np.conj(g)
    out = {}
    for (a, b) in _component_keys(xi.truncation):
        if side == "+":
            src_key, axis, factor = (a + 1, b), 0, math.sqrt(a + 1)
        else:
            src_key, axis, factor = (a, b + 1), a, math.sqrt(b + 1)
        if src_key in xi.components:
            out[(a, b)] = factor * np.tensordot(wg, xi.components[src_key], axes=([0], [axis]))
        else:
            out[(a, b)] = np.zeros_like(xi.components[(a, b)])
    return BiFockVector(pair, xi.truncation, out)


def create_half(side: str, g, xi: BiFockVector) -> BiFockVector:
    """Creator on one tensor factor; the weighted adjoint of :func:`annihilate_half`."""
    pair = xi.pair
    if side == "+":
        size = pair.n_positive
    elif side == "-":
        size = pair.n_negative
    else:
        raise ValueError("side must be '+' or '-'")
    g = np.asarray(g, dtype=complex)
    if g.shape != (size,):
        raise ValueError("amplitude does not match the half-grid")
    out = {}
    for (a, b) in _component_keys(xi.truncation):
        if side == "+" and a >= 1:
            raw = np.multiply.outer(g, xi.components[(a - 1, b)])
            out[(a, b)] = math.sqrt(a) * fock._coset_step(raw, 0, range(a))
        elif side == "-" and b >= 1:
            raw = np.multiply.outer(g, xi.components[(a, b - 1)])
            raw = np.moveaxis(raw, 0, a)
            out[(a, b)] = math.sqrt(b) * fock._coset_step(raw, a, range(a, a + b))
        else:
            out[(a, b)] = np.zeros_like(xi.components[(a, b)])
    return BiFockVector(pair, xi.truncation, out)


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


def apply_cross_twist_matrix(pair: ChiralGridPair, cmat: np.ndarray,
                             xi: BiFockVector) -> BiFockVector:
    """Diagonal multiplier prod_{i,j} cmat[p_i, q_j] over all cross pairs."""
    out_components = {}
    for (a, b), comp in xi.components.items():
        pairs = [(i, a + j) for i in range(a) for j in range(b)]
        out_components[(a, b)] = fock._pair_multiply(comp, cmat, pairs)
    return BiFockVector(xi.pair, xi.truncation, out_components)


def apply_cross_twist(root: Root, xi: BiFockVector, adjoint: bool = False) -> BiFockVector:
    """Cross twist: component (a, b) is multiplied by prod_{i,j} R(-p_i q_j).

    A sector-diagonal unitary fixing the vacuum and every one-sided
    component; its square is the twist of the squared root.
    """
    q = xi.pair.n_negative
    cmat = cross_matrix(xi.pair.union, lambda args: eval_root(root, args))[q:, :q]
    return apply_cross_twist_matrix(xi.pair, np.conj(cmat) if adjoint else cmat, xi)


@functools.lru_cache(maxsize=16)
def _merge_plan(n_positive: int, n_negative: int, truncation: int) -> tuple:
    """Per sector n, the gather that :func:`merge_chiral` reads through.

    Entry n is (source, factor), both of shape (M,)*n over union
    multi-indices.  ``source`` is the flat position, in the concatenation of
    the raveled components (0, n), (1, n-1), ..., (n, 0), of component
    (a, n-a) read at the positive slots in order, then the negative slots,
    where a is the number of positive slots; ``factor`` is sqrt(binom(n, a)).
    Union indices below ``n_negative`` are the negative half-line.
    """
    p, q = n_positive, n_negative
    m = p + q
    plan = []
    for n in range(truncation + 1):
        digits = np.indices((m,) * n).reshape(n, m ** n)
        positive = digits >= q
        a = positive.sum(axis=0)
        # positive slots first, each group in slot order
        order = np.argsort(~positive, axis=0, kind="stable")
        local = np.take_along_axis(np.where(positive, digits - q, digits), order, axis=0)
        flat = np.zeros(m ** n, dtype=np.intp)
        for i in range(n):
            flat = flat * np.where(i < a, p, q) + local[i]
        sizes = [p ** k * q ** (n - k) for k in range(n + 1)]
        offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.intp)
        factors = np.sqrt([float(math.comb(n, k)) for k in range(n + 1)])
        source = (flat + offsets[a]).reshape((m,) * n)
        factor = factors[a].reshape((m,) * n)
        source.setflags(write=False)
        factor.setflags(write=False)
        plan.append((source, factor))
    return tuple(plan)


def merge_chiral(xi: BiFockVector) -> FockVector:
    """Unitary identification of the split tower with the union-grid tower.

    [merge Xi]_n = sum_k binom(n, k)^(1/2) Symm_n(embedded Xi_{k, n-k}); maps
    exponential tensor pairs to exponential vectors of the direct sum.

    The sum collapses by sign pattern: on a union multi-index with a positive
    slots only the k = a term is nonzero, and Symm_n of the embedded
    component there equals Xi_{a, n-a}(positive slots, negative slots) /
    binom(n, a), since a! (n-a)! of the n! permutations carry the pattern
    back to (positive first) and Xi is symmetric within each factor.  Hence

        [merge Xi]_n(k_1..k_n) = Xi_{a, n-a}(k_pos..., k_neg...) / binom(n, a)^(1/2),

    one gather per sector through :func:`_merge_plan`; a batch rides along
    on the trailing axes.
    """
    pair = xi.pair
    plan = _merge_plan(pair.n_positive, pair.n_negative, xi.truncation)
    batch = xi.batch_shape
    secs = []
    for n, (source, factor) in enumerate(plan):
        flat = np.concatenate([xi.components[(a, n - a)].reshape((-1,) + batch)
                               for a in range(n + 1)])
        secs.append(flat[source] / factor.reshape(factor.shape + (1,) * len(batch)))
    return FockVector(pair.union, tuple(secs))


def split_chiral(psi: FockVector, pair: ChiralGridPair) -> BiFockVector:
    """Inverse of :func:`merge_chiral`: sign-pattern slices with binomial unweighting."""
    if not psi.grid.same_as(pair.union):
        raise ValueError("vector does not live on the pair's union grid")
    pos, neg = slice(pair.n_negative, pair.union.size), slice(0, pair.n_negative)
    comps = {(a, b): math.sqrt(math.comb(a + b, a)) * psi.sectors[a + b][(pos,) * a + (neg,) * b]
             for (a, b) in _component_keys(psi.truncation)}
    return BiFockVector(pair, psi.truncation, comps)


def apply_cross_twist_fock(root: Root, psi: FockVector, adjoint: bool = False) -> FockVector:
    """The cross twist conjugated through the merge, as a sector-diagonal multiplier.

    Sector n is multiplied by prod_{i<j} S[k_i, k_j] with S from
    :func:`cross_matrix`; sectors n <= 1 are untouched.
    """
    smat = cross_matrix(psi.grid, lambda args: eval_root(root, args))
    return fock.apply_pair_phase(np.conj(smat) if adjoint else smat, psi)


def apply_translation_bifock(x, xi: BiFockVector) -> BiFockVector:
    """Light-ray translations on the split tower: e^(i p x_-) and e^(-i p x_+)."""
    x0, x1 = float(x[0]), float(x[1])
    ph_pos = np.exp(1j * xi.pair.positive_points * (x0 - x1))
    ph_neg = np.exp(-1j * xi.pair.negative_points * (x0 + x1))
    return BiFockVector(xi.pair, xi.truncation,
                        {(a, b): fock._axis_multiply(comp, [ph_pos] * a + [ph_neg] * b)
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
    tolerance: float

    @property
    def max_deviation(self) -> float:
        """Largest of the four deviations; NaN if any of them is NaN."""
        return float(np.max([self.max_vector_direct, self.max_vector_split,
                             self.max_matrix_direct, self.max_matrix_split]))

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance


def _compare_operators(op_a, op_b, pair: ChiralGridPair, truncation: int,
                       rng: np.random.Generator, n_vectors: int) -> tuple[float, float]:
    from .dense import FockBasis, operator_matrix

    dev_vec = 0.0
    for _ in range(n_vectors):
        probe = fock.random_fock_vector(pair.union, truncation, rng)
        dev_vec = float(np.maximum(dev_vec, fock.norm(op_a(probe) - op_b(probe))))
    basis = FockBasis(pair.union, truncation)
    dev_mat = float(np.max(np.abs(operator_matrix(op_a, basis)
                                  - operator_matrix(op_b, basis))))
    return dev_vec, dev_mat


def _check_equivalence(side: str, deformed, twisted, pair: ChiralGridPair,
                       truncation: int, rng: np.random.Generator, n_vectors: int,
                       tolerance: float) -> EquivalenceReport:
    """Compare ``deformed`` with ``twisted(v, route)`` on both twist routes."""
    vec_d, mat_d = _compare_operators(deformed, lambda v: twisted(v, "direct"),
                                      pair, truncation, rng, n_vectors)
    vec_s, mat_s = _compare_operators(deformed, lambda v: twisted(v, "split"),
                                      pair, truncation, rng, n_vectors)
    return EquivalenceReport(side=side, max_vector_direct=vec_d, max_vector_split=vec_s,
                             max_matrix_direct=mat_d, max_matrix_split=mat_s,
                             tolerance=tolerance)


def check_annihilator_equivalence(root: Root, amplitude, pair: ChiralGridPair,
                                  truncation: int, rng: np.random.Generator,
                                  n_vectors: int = 10,
                                  tolerance: float = 1e-10) -> EquivalenceReport:
    """Compare the kernel-deformed annihilator with its twist conjugation.

    For an amplitude supported on one half-line the two must agree on the
    whole truncated space; both twist realizations are exercised.
    """
    amplitude = np.asarray(amplitude, dtype=complex)
    spec = KernelSpec(root=root, mass=0.0)
    return _check_equivalence(
        _support_side(pair, amplitude),
        lambda v: annihilate_deformed(spec, amplitude, v),
        lambda v, route: twisted_annihilator(root, amplitude, pair, v, route),
        pair, truncation, rng, n_vectors, tolerance)


def check_field_equivalence(root: Root, fd: TestFunctionData, pair: ChiralGridPair,
                            truncation: int, rng: np.random.Generator,
                            n_vectors: int = 10,
                            tolerance: float = 1e-10) -> EquivalenceReport:
    """Compare the kernel-deformed field with the twisted one-light-ray field.

    Requires real one-sided data, for which both operators are hermitian and
    generate the same deformed observables.
    """
    if not fd.real:
        raise ValueError("field equivalence is formulated for real data")
    spec = KernelSpec(root=root, mass=0.0)
    return _check_equivalence(
        _support_side(pair, fd.fplus),
        lambda v: field_deformed(spec, fd, v),
        lambda v, route: twisted_field(root, fd, pair, v, route),
        pair, truncation, rng, n_vectors, tolerance)
