"""References for the streamed kernels of :mod:`fockdeform`.

The package never holds a full probe image: every consumer reduces block by
block.  The tests assemble one here, to compare images across block budgets
and slot by slot.  Nor does a ladder step hold all of its terms: it adds them
into the output one term column at a time.  The tests gather them all here and
sum them over the term axis, to compare the two.

Nor does the package name a basis label or build a basis vector alone: the
tests enumerate them here, with the defects of dense matrices from
:func:`dense.operator_matrix`.
"""

import numpy as np

from fockdeform import deformation, dense, fock


def multisets(m, truncation):
    """The label of each row of :func:`fock._tower`, without its pads."""
    tower = fock._tower(m, truncation)
    return [tuple(row[:n]) for row, n in zip(tower.labels.tolist(), tower.sector.tolist())]


def basis_labels(basis):
    """Label i of a basis, for coefficient i: (n, kappa) on the tower, and on the
    split tower the pair (kappa_+, kappa_-) whose union is union label i."""
    if isinstance(basis, dense.FockBasis):
        return [(len(kappa), kappa) for kappa in multisets(basis.grid.size, basis.truncation)]
    pos = multisets(basis.pair.n_positive, basis.truncation)
    neg = multisets(basis.pair.n_negative, basis.truncation)
    rows = basis.layout.pos_row[basis.layout.merge], basis.layout.neg_row[basis.layout.merge]
    return [(pos[r], neg[s]) for r, s in zip(*(row.tolist() for row in rows))]


def basis_vectors(basis):
    """The basis vectors one by one, each built when it is reached: no D x D array."""
    return (basis._vector(np.eye(1, len(basis), j, dtype=complex)[0]) for j in range(len(basis)))


def unitarity_defect(a):
    """Max entry of |A* A - 1|."""
    return float(np.max(np.abs(a.conj().T @ a - np.eye(a.shape[1]))))


def hermiticity_defect(a):
    """Max entry of |A - A*|."""
    return float(np.max(np.abs(a - a.conj().T)))


def sharp_annihilate(p, psi):
    """Sharp-momentum annihilator a(p): [a(p) Psi]_n = sqrt(n+1) Psi_{n+1}(p, ...),
    in distributional normalization (no quadrature weight); p must be a grid point."""
    return fock.annihilate(deformation._delta(p, psi.grid), psi)


def annihilate_deformed_sharp(spec, p, psi):
    """Sharp deformed annihilator a_K(p) = a(p) dressed with prod_k K(p, p_k): delta_p
    removes only the grid index q of p, so only row q of the kernel matrix is read."""
    return deformation.annihilate_deformed(spec, deformation._delta(p, psi.grid), psi)


def probe_image(op, pattern, domain, codomain=None, *, copies=1):
    """op applied to every probe column of ``pattern``: shape (D, P, K), rows in
    union label order, the blocks of :func:`dense.probe_blocks` side by side."""
    blocks = sorted(((first, image) for first, (image,) in
                     dense.probe_blocks((op,), pattern, domain, codomain, copies=copies)),
                    key=lambda block: block[0])
    widths = [image.shape[-1] for _, image in blocks]
    assert [first for first, _ in blocks] == np.cumsum([0] + widths[:-1]).tolist()
    return np.concatenate([image for _, image in blocks], axis=-1)


def raising_coefficients_gathered(amp, tower, kmat, rows):
    """The raising coefficients of :func:`fock._ladder_terms` on ``rows`` of ``tower``,
    amp[k_i] / sqrt(m_{k_i}) prod_{j != i} K[k_i, k_j] per label and slot i, from one
    gather of all the kernel factors, shape (rows, N, (P,) N)."""
    high = tower.labels.shape[1]
    labels = tower.labels[rows]
    slot = (1,) * (amp.ndim - 1)
    mult = np.sqrt(tower.slot_mult[rows], dtype=float)
    coef = fock._padded(amp, 0.0, 1).T[labels] / mult.reshape(mult.shape + slot)
    at = ((np.arange(len(kmat))[:, None], labels[:, :, None, None], labels[:, None, None])
          if slot else (labels[:, :, None], labels[:, None, :]))
    eye = np.eye(high, dtype=bool).reshape((high,) + slot + (high,))
    return coef * np.where(eye, 1.0, fock._padded(kmat, 1.0, 2)[at]).prod(axis=-1)


def ladder_step_gathered(src, step, amp, tower, kmat=None, split=None):
    """:func:`fock._ladder_step` as one gather of all its terms, (rows, g) + batch,
    one scale and one sum over the term axis."""
    out = np.zeros(src.shape, dtype=complex)
    found = fock._ladder_terms(src, step, amp, tower, kmat, split)
    if found is None:
        return out
    rows, index, coef = found
    terms = src[index]
    fock._scale(terms, coef, out=terms)
    out[rows] = terms if isinstance(index, tuple) else terms.sum(axis=1)
    return out
