"""Tensor-layout reference for the packed occupation-number operators.

Here a state is a tower of full symmetric tensors: sector n has shape (M,)*n,
and component (a, b) of the split tower has shape (P,)*a + (Q,)*b.  Each
operator is written from its textbook formula with explicit permutation sums,
entry loops and tensordot, not from the ladder tables of the package, so the
tests can hold every packed operator against it at small sizes (N <= 3 on
6 points).  Conversions to and from the packed coefficients go through the
basis tensors, 1/|kappa| on every rearrangement of the multiset kappa.
"""

import itertools
import math

import numpy as np

from fockdeform import chiral, fock


def labels(m, n):
    return list(itertools.combinations_with_replacement(range(m), n))


def multiset_norm(weights, kappa):
    """|kappa|: the weighted norm of the tensor that is 1 on every rearrangement of kappa."""
    count = len(set(itertools.permutations(kappa)))
    return math.sqrt(count * math.prod(weights[k] for k in kappa))


def unit_tensors(weights, n):
    """The orthonormal basis tensors of sector n, shape (D_n,) + (M,)*n."""
    m = len(weights)
    out = np.zeros((math.comb(m + n - 1, n),) + (m,) * n)
    for j, kappa in enumerate(labels(m, n)):
        for r in set(itertools.permutations(kappa)):
            out[(j,) + r] = 1.0 / multiset_norm(weights, kappa)
    return out


def weight_tensor(weights, n):
    out = np.ones(())
    for _ in range(n):
        out = np.multiply.outer(out, weights)
    return out


def tensor(coeffs, weights, n):
    """The symmetric tensor with the given coefficients."""
    return np.tensordot(coeffs, unit_tensors(weights, n), axes=([0], [0]))


def coeffs(t, weights, n):
    """<b_kappa, t> in the weighted inner product, for every label."""
    basis = unit_tensors(weights, n) * weight_tensor(weights, n)
    return np.tensordot(basis, t, axes=(list(range(1, n + 1)), list(range(n))))


def pair_tensor(comp, wp, wn, a, b):
    """Split-tower component (a, b) as a tensor of shape (P,)*a + (Q,)*b."""
    rows = np.tensordot(comp, unit_tensors(wp, a), axes=([0], [0]))
    return np.tensordot(rows, unit_tensors(wn, b), axes=([0], [0]))


def pair_coeffs(t, wp, wn, a, b):
    neg = unit_tensors(wn, b) * weight_tensor(wn, b)
    cols = np.tensordot(t, neg, axes=(list(range(a, a + b)), list(range(1, b + 1))))
    pos = unit_tensors(wp, a) * weight_tensor(wp, a)
    return np.tensordot(pos, cols, axes=(list(range(1, a + 1)), list(range(a))))


def tower(psi):
    return [tensor(s, psi.grid.weights, n) for n, s in enumerate(psi.sectors)]


def packed(grid, tensors):
    return fock.FockVector(grid, np.concatenate([coeffs(t, grid.weights, n)
                                                 for n, t in enumerate(tensors)]), len(tensors) - 1)


def bitower(xi):
    wp, wn = xi.pair.positive_weights, xi.pair.negative_weights
    return {(a, b): pair_tensor(c, wp, wn, a, b) for (a, b), c in xi.components.items()}


def bipacked(pair, truncation, tensors):
    wp, wn = pair.positive_weights, pair.negative_weights
    return chiral.BiFockVector(pair, truncation, np.concatenate([
        pair_coeffs(tensors[(a, b)], wp, wn, a, b).ravel()
        for (a, b) in chiral._component_keys(truncation)]))


def symmetrize(t, axes):
    """Average over all permutations of ``axes``, fixing the other axes."""
    axes = tuple(axes)
    perms = list(itertools.permutations(axes))
    out = np.zeros(t.shape, dtype=complex)
    for perm in perms:
        order = list(range(t.ndim))
        for src, dst in zip(axes, perm):
            order[src] = dst
        out += np.transpose(t, order)
    return out / len(perms)


def entrywise(t, factor):
    """t times factor(index) at every index."""
    out = np.array(t, dtype=complex)
    for idx in np.ndindex(*t.shape):
        out[idx] *= factor(idx)
    return out


def annihilate(xi, tensors, weights, kmat=None):
    """[a Psi]_n = sqrt(n+1) sum_q w_q conj(xi_q) prod_k K[q, p_k] Psi_{n+1}(q, p_1..p_n)."""
    out = []
    for n in range(len(tensors) - 1):
        src = tensors[n + 1]
        if kmat is not None:
            src = entrywise(src, lambda idx: math.prod(kmat[idx[0], k] for k in idx[1:]))
        out.append(math.sqrt(n + 1) * np.tensordot(weights * np.conj(xi), src, axes=([0], [0])))
    return out + [np.zeros_like(tensors[-1])]


def create(xi, tensors, kmat=None):
    """[a* Psi]_n = sqrt(n) Symm(xi(p_1) prod_{k>=2} K[p_1, p_k] Psi_{n-1}(p_2..p_n))."""
    out = [np.zeros_like(tensors[0])]
    for n in range(1, len(tensors)):
        raw = np.multiply.outer(xi, tensors[n - 1])
        if kmat is not None:
            raw = entrywise(raw, lambda idx: math.prod(kmat[idx[0], k] for k in idx[1:]))
        out.append(math.sqrt(n) * symmetrize(raw, range(n)))
    return out


def sharp_annihilate(q, tensors, row=None):
    """sqrt(n+1) Psi_{n+1}(q, p_1..p_n), times prod_k row[p_k] when given."""
    out = []
    for n in range(len(tensors) - 1):
        sec = math.sqrt(n + 1) * tensors[n + 1][q]
        if row is not None:
            sec = entrywise(sec, lambda idx: math.prod(row[k] for k in idx))
        out.append(sec)
    return out + [np.zeros_like(tensors[-1])]


def pair_phase(gmat, tensors):
    return [entrywise(t, lambda idx: math.prod(gmat[idx[i], idx[j]]
                                               for i, j in itertools.combinations(range(n), 2)))
            for n, t in enumerate(tensors)]


def translation(phases, tensors):
    return [entrywise(t, lambda idx: math.prod(phases[k] for k in idx)) for t in tensors]


def boost(shift, blocks, tensors):
    """Entry (k_1..k_n) reads (k_1 + shift, ..., k_n + shift) if every slot stays in its block."""
    def moved(k):
        return next((k + shift for s, e in blocks if s <= k < e and s <= k + shift < e), None)

    out = []
    for t in tensors:
        o = np.zeros_like(t)
        for idx in np.ndindex(*t.shape):
            src = tuple(moved(k) for k in idx)
            if None not in src:
                o[idx] = t[src]
        out.append(o)
    return out


def merge(pair, components, truncation):
    """[merge Xi]_n = sum_a binom(n, a)^(1/2) Symm_n(Xi_{a, n-a} embedded in the union)."""
    m, q = pair.union.size, pair.n_negative
    out = [np.zeros((m,) * n, dtype=complex) for n in range(truncation + 1)]
    for (a, b), comp in components.items():
        embedded = np.zeros((m,) * (a + b), dtype=complex)
        embedded[np.ix_(*([range(q, m)] * a + [range(q)] * b))] = comp
        out[a + b] += math.sqrt(math.comb(a + b, a)) * symmetrize(embedded, range(a + b))
    return out


def split(pair, tensors):
    """Component (a, b) = binom(a + b, a)^(1/2) Psi_{a+b}(positive slots, negative slots)."""
    m, q = pair.union.size, pair.n_negative
    return {(a, b): math.sqrt(math.comb(a + b, a))
            * tensors[a + b][np.ix_(*([range(q, m)] * a + [range(q)] * b))]
            for (a, b) in chiral._component_keys(len(tensors) - 1)}


def annihilate_half(side, g, components, pair):
    w = pair.positive_weights if side == "+" else pair.negative_weights
    out = {}
    for (a, b), comp in components.items():
        src_key, axis, n = ((a + 1, b), 0, a) if side == "+" else ((a, b + 1), a, b)
        if src_key in components:
            out[(a, b)] = math.sqrt(n + 1) * np.tensordot(w * np.conj(g), components[src_key],
                                                          axes=([0], [axis]))
        else:
            out[(a, b)] = np.zeros_like(comp)
    return out


def create_half(side, g, components):
    out = {}
    for (a, b), comp in components.items():
        if side == "+" and a >= 1:
            raw = np.multiply.outer(g, components[(a - 1, b)])
            out[(a, b)] = math.sqrt(a) * symmetrize(raw, range(a))
        elif side == "-" and b >= 1:
            raw = np.moveaxis(np.multiply.outer(g, components[(a, b - 1)]), 0, a)
            out[(a, b)] = math.sqrt(b) * symmetrize(raw, range(a, a + b))
        else:
            out[(a, b)] = np.zeros_like(comp)
    return out


def exponential(xi, truncation):
    """Sector n = xi^(x n) / sqrt(n!)."""
    out, power = [], np.ones((), dtype=complex)
    for n in range(truncation + 1):
        out.append(power / math.sqrt(math.factorial(n)))
        power = np.multiply.outer(power, xi)
    return out
