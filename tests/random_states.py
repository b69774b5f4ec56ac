"""Random unit states for the tests: independent complex Gaussian coefficients from a
numpy Generator, each vector (each column of a batch of ``count``) scaled to unit norm."""

import numpy as np

from fockdeform import chiral, fock


def _unit_columns(rng: np.random.Generator, dim: int, count: int | None) -> np.ndarray:
    coefs = rng.standard_normal((dim, count or 1)) + 1j * rng.standard_normal((dim, count or 1))
    coefs /= np.linalg.norm(coefs, axis=0)
    return coefs if count else coefs[:, 0]


def random_fock_state(grid, truncation: int, rng, count: int | None = None) -> fock.FockVector:
    dim = fock._offsets(grid.size, truncation)[-1]
    return fock.FockVector(grid, _unit_columns(rng, dim, count), truncation)


def random_bifock_state(pair, truncation: int, rng, count: int | None = None):
    dim = len(chiral.bifock_zero(pair, truncation).coefficients)
    return chiral.BiFockVector(pair, truncation, _unit_columns(rng, dim, count))
