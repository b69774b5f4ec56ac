"""References for the index tables of :func:`fock._tower` and :func:`dense._layout`.

The package builds sector n of a tower from sector n - 1 and numbers the (sector,
colour) pairs by a cumulative count.  The tests build the same tables the direct
way here: every label from ``itertools.combinations_with_replacement``, each down
slot by deleting the slot and looking the shorter label up by its code, the
multiplicities from a count of every label, and the pairs by ``np.unique``.
"""

import itertools
import math

import numpy as np

from fockdeform import fock


def tower(m, truncation):
    """The fields of :class:`fock._Tower` after ``m`` and ``start``, in order."""
    start = fock._offsets(m, truncation)
    labels = np.full((start[-1], truncation), m, dtype=np.intp)
    for n in range(1, truncation + 1):
        labels[start[n]:start[n + 1], :n] = list(
            itertools.combinations_with_replacement(range(m), n))
    codes = fock._codes(labels, m)
    slots = labels < m
    counts = np.bincount((np.arange(start[-1])[:, None] * (m + 1) + labels).ravel(),
                         minlength=start[-1] * (m + 1)).reshape(start[-1], m + 1)
    slot_mult = np.where(slots, np.take_along_axis(counts, labels, axis=1), 1).astype(
        np.min_scalar_type(truncation + 1))
    fact = np.array([math.factorial(k) for k in range(truncation + 1)], dtype=float)
    mfact = np.prod(fact[counts[:, :m]], axis=1)
    down = np.zeros(labels.shape, dtype=np.intp)
    for i in range(truncation):
        shrunk = np.pad(np.delete(labels, i, axis=1), ((0, 0), (0, 1)), constant_values=m)
        down[slots[:, i], i] = np.searchsorted(codes, fock._codes(shrunk[slots[:, i]], m))
    up = np.empty((start[-2], m), dtype=np.intp)
    up[down[slots], labels[slots]] = np.nonzero(slots)[0]
    up_mult = np.empty(up.shape, dtype=slot_mult.dtype)
    up_mult[down[slots], labels[slots]] = slot_mult[slots]
    sector = np.repeat(np.arange(truncation + 1), np.diff(start))
    return {"labels": labels, "sector": sector, "codes": codes, "mfact": mfact, "up": up,
            "up_mult": up_mult, "down": down, "slot_mult": slot_mult}


def layout(m, truncation):
    """The fields of :class:`dense._Layout`, in order; the (sector, colour) pairs are
    numbered in order by ``np.unique``."""
    table = tower(m, truncation)
    colour = table["labels"].sum(axis=1) % m
    by_colour = np.unique(table["sector"] * m + colour, return_inverse=True)[1].reshape(-1)
    phase = np.exp(2j * np.pi * fock.Draws(f"phase/{m}/{truncation}").random(len(colour)))
    return {"sector": table["sector"], "colour": colour, "by_colour": by_colour, "phase": phase}
