"""Truncated bosonic state space over a momentum grid.

A state is a finite tower (Psi_0, ..., Psi_N) of totally symmetric complex
tensors over the grid points; sector n carries n particles, and one-particle
amplitudes are plain complex arrays of grid length.  Inner products weight
every tensor factor with the quadrature weights, realizing the measure
dp/omega_m(p).  Operators act exactly as their untruncated counterparts on
sectors below the truncation: annihilation reads the (vanishing) sector N+1 as
zero, and creation out of the top sector is dropped.  All values are treated
as immutable; every operation returns a fresh vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import MomentumGrid, boost_blocks


@dataclass(frozen=True)
class FockVector:
    """Tower of symmetric complex tensors; sectors[n] has shape (M,)*n + B.

    B is a trailing batch shape shared by all sectors, () for a single
    vector: a batched vector holds one vector per batch entry, and every
    operator of the package acts on it column by column, since they all
    address the leading particle axes only.  Adding an unbatched vector to a
    batched one adds it to every column; reductions (:func:`inner`,
    :func:`norm`) refuse batches.
    """

    grid: MomentumGrid
    sectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        m = self.grid.size
        secs = [np.asarray(s, dtype=complex) for s in self.sectors]
        batch = secs[0].shape if secs else ()
        for n, s in enumerate(secs):
            if s.shape != (m,) * n + batch:
                raise ValueError(f"sector {n} has shape {s.shape}, expected {(m,) * n + batch}")
        object.__setattr__(self, "sectors", tuple(secs))

    @property
    def truncation(self) -> int:
        return len(self.sectors) - 1

    @property
    def batch_shape(self) -> tuple[int, ...]:
        return self.sectors[0].shape

    def _check_compatible(self, other: "FockVector"):
        if not self.grid.same_as(other.grid):
            raise ValueError("vectors live on different grids")
        if self.truncation != other.truncation:
            raise ValueError("vectors have different truncations")

    def _combine(self, other: "FockVector", fn) -> "FockVector":
        self._check_compatible(other)
        return FockVector(self.grid, tuple(
            fn(*_broadcast_batch(a, self.batch_shape, b, other.batch_shape))
            for a, b in zip(self.sectors, other.sectors)))

    def __add__(self, other: "FockVector") -> "FockVector":
        return self._combine(other, np.add)

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self._combine(other, np.subtract)

    def __mul__(self, scalar) -> "FockVector":
        c = complex(scalar)
        return FockVector(self.grid, tuple(c * s for s in self.sectors))

    __rmul__ = __mul__

    def __neg__(self) -> "FockVector":
        return self * (-1.0)


def _broadcast_batch(a: np.ndarray, batch_a: tuple, b: np.ndarray, batch_b: tuple):
    """Give the unbatched one of two tensors trailing unit axes for the other's batch.

    Two batched tensors must have the same batch shape.
    """
    if batch_a and batch_b and batch_a != batch_b:
        raise ValueError(f"batch shapes {batch_a} and {batch_b} differ")
    if not batch_a:
        a = a.reshape(a.shape + (1,) * len(batch_b))
    if not batch_b:
        b = b.reshape(b.shape + (1,) * len(batch_a))
    return a, b


def _refuse_batch(batch: tuple):
    if batch:
        raise ValueError(f"reductions take single vectors, not a batch of shape {batch}")


def vacuum(grid: MomentumGrid, truncation: int) -> FockVector:
    secs = [np.zeros((grid.size,) * n, dtype=complex) for n in range(truncation + 1)]
    secs[0] = np.array(1.0 + 0.0j)
    return FockVector(grid, tuple(secs))


def zero_vector(grid: MomentumGrid, truncation: int) -> FockVector:
    return FockVector(grid, tuple(np.zeros((grid.size,) * n, dtype=complex)
                                  for n in range(truncation + 1)))


def inner(psi: FockVector, phi: FockVector) -> complex:
    """Weighted inner product, antilinear in the first argument; single vectors only."""
    psi._check_compatible(phi)
    _refuse_batch(psi.batch_shape)
    _refuse_batch(phi.batch_shape)
    w = psi.grid.weights
    total = 0.0 + 0.0j
    for n, (a, b) in enumerate(zip(psi.sectors, phi.sectors)):
        total += complex(np.sum(_axis_multiply(np.conj(a) * b, [w] * n)))
    return total


def norm(psi: FockVector) -> float:
    return math.sqrt(max(inner(psi, psi).real, 0.0))


def _coset_step(tensor: np.ndarray, axis: int, axes) -> np.ndarray:
    """Symm over ``axes`` of a tensor already symmetric in ``axes`` minus ``axis``.

    The permutations of ``axes`` that fix ``axis`` leave the tensor unchanged,
    and the transpositions (axis b), b in ``axes``, represent their k cosets
    (b == axis is the identity).  So the average over all k! permutations
    collapses to k terms:

        Symm_axes T = (1/k) sum_{b in axes} swapaxes(T, axis, b).
    """
    axes = tuple(axes)
    out = np.array(tensor, dtype=complex)
    for b in axes:
        if b != axis:
            out += np.swapaxes(tensor, axis, b)
    out /= len(axes)
    return out


def symmetrize(tensor: np.ndarray) -> np.ndarray:
    """Average over all index permutations; projects onto symmetric tensors."""
    return symmetrize_axes(tensor, range(np.ndim(tensor)))


def symmetrize_axes(tensor: np.ndarray, axes) -> np.ndarray:
    """Average over permutations of a subset of axes, fixing the others.

    Built up one axis at a time: once the first i axes are symmetric, one
    :func:`_coset_step` makes the first i + 1 symmetric, so k axes take
    O(k^2) tensor passes instead of k!.
    """
    t = np.array(tensor, dtype=complex)
    axes = tuple(axes)
    for i in range(1, len(axes)):
        t = _coset_step(t, axes[i], axes[:i + 1])
    return t


def _axis_multiply(tensor: np.ndarray, vecs) -> np.ndarray:
    """Multiply an n-index tensor by prod_i vecs[i][k_i] (one vector per axis)."""
    out = tensor
    n = tensor.ndim
    for ax, vec in enumerate(vecs):
        out = out * vec.reshape((1,) * ax + (vec.size,) + (1,) * (n - ax - 1))
    return out


def _pair_multiply(tensor: np.ndarray, mat: np.ndarray, pairs) -> np.ndarray:
    """Multiply by prod over (i, j) in pairs, i < j, of mat[k_i, k_j].

    ``mat`` may be rectangular when the tensor mixes factor spaces.
    """
    out = tensor
    n = tensor.ndim
    shape = tensor.shape
    mat = np.ascontiguousarray(mat)
    for i, j in pairs:
        out = out * mat.reshape(
            (1,) * i + (shape[i],) + (1,) * (j - i - 1) + (shape[j],) + (1,) * (n - j - 1))
    return out


def _row_kernel_multiply(sector: np.ndarray, kmat: np.ndarray, n: int) -> np.ndarray:
    """Multiply sector(q, p_1..p_n) by prod_k kmat[q, p_k] over the n particle axes after q."""
    return _pair_multiply(sector, kmat, [(0, ax) for ax in range(1, n + 1)])


def apply_pair_phase(gmat: np.ndarray, psi: FockVector) -> FockVector:
    """Sector-diagonal multiplier: sector n times prod_{i<j} gmat[k_i, k_j].

    The pair twists, the sharp-momentum twists and the union-grid cross twist
    are all of this form; sectors n <= 1 are untouched.
    """
    secs = [psi.sectors[0].copy()]
    for n in range(1, psi.truncation + 1):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        secs.append(_pair_multiply(psi.sectors[n], gmat, pairs))
    return FockVector(psi.grid, tuple(secs))


def _annihilate_with_kernel(xi, psi: FockVector, kmat: np.ndarray | None) -> FockVector:
    grid = psi.grid
    wxi = grid.weights * np.conj(np.asarray(xi, dtype=complex))
    if wxi.shape != grid.points.shape:
        raise ValueError("one-particle amplitude does not match the grid")
    secs = []
    for n in range(psi.truncation):
        src = psi.sectors[n + 1]
        if kmat is not None:
            src = _row_kernel_multiply(src, kmat, n)
        secs.append(math.sqrt(n + 1) * np.tensordot(wxi, src, axes=([0], [0])))
    secs.append(np.zeros_like(psi.sectors[-1]))
    return FockVector(grid, tuple(secs))


def _create_with_kernel(xi, psi: FockVector, kmat: np.ndarray | None) -> FockVector:
    grid = psi.grid
    xi = np.asarray(xi, dtype=complex)
    if xi.shape != grid.points.shape:
        raise ValueError("one-particle amplitude does not match the grid")
    secs = [np.zeros_like(psi.sectors[0])]
    for n in range(1, psi.truncation + 1):
        raw = np.multiply.outer(xi, psi.sectors[n - 1])
        if kmat is not None:
            raw = _row_kernel_multiply(raw, kmat, n - 1)
        # raw is symmetric in every axis but the new one (axis 0)
        secs.append(math.sqrt(n) * _coset_step(raw, 0, range(n)))
    return FockVector(grid, tuple(secs))


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


def exponential_vector(grid: MomentumGrid, xi, truncation: int) -> FockVector:
    """Truncated coherent-style vector with sector n = xi^(x n) / sqrt(n!)."""
    xi = np.asarray(xi, dtype=complex)
    secs = [np.array(1.0 + 0.0j)]
    power = np.array(1.0 + 0.0j)
    for n in range(1, truncation + 1):
        power = np.multiply.outer(power, xi) if n > 1 else xi.copy()
        secs.append(power / math.sqrt(math.factorial(n)))
    return FockVector(grid, tuple(secs))


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
    """Spacetime translation: sector n picks up prod_i exp(i(x0*omega - x1*p)).

    A pointwise unimodular multiplier, hence exactly norm preserving; fixes
    the vacuum.
    """
    x0, x1 = float(x[0]), float(x[1])
    phases = np.exp(1j * (x0 * psi.grid.omegas - x1 * psi.grid.points))
    return FockVector(psi.grid, tuple(_axis_multiply(s, [phases] * n)
                                      for n, s in enumerate(psi.sectors)))


def apply_reflection(psi: FockVector) -> FockVector:
    """Antiunitary spacetime reflection: componentwise complex conjugation."""
    return FockVector(psi.grid, tuple(np.conj(s) for s in psi.sectors))


@dataclass(frozen=True)
class BoostResult:
    """Boosted vector plus a flag marking amplitude pushed off the grid."""

    vector: FockVector
    truncated: bool


def apply_boost(shift: int, psi: FockVector) -> BoostResult:
    """Exact boost index shift on an adapted grid.

    A one-particle basis vector at rapidity slot k moves to slot k - shift
    (blockwise per sign half-line for the massless geometric layout).
    Amplitude whose target leaves the grid is dropped and flagged.
    """
    grid = psi.grid
    out_ids, src_ids = [], []
    for s, e in boost_blocks(grid):
        for i in range(s, e):
            k = i + shift
            if s <= k < e:
                out_ids.append(i)
                src_ids.append(k)
    kept = np.zeros(grid.size, dtype=bool)
    kept[src_ids] = True
    truncated = False
    secs = [psi.sectors[0].copy()]
    for n in range(1, psi.truncation + 1):
        src = psi.sectors[n]
        if not np.all(kept):
            mask = _axis_multiply(np.ones(src.shape, dtype=bool), [kept] * n)
            truncated = truncated or bool(np.any(src[~mask] != 0))
        out = np.zeros_like(src)
        if out_ids:
            out[np.ix_(*([out_ids] * n))] = src[np.ix_(*([src_ids] * n))]
        secs.append(out)
    return BoostResult(FockVector(grid, tuple(secs)), truncated)


def random_fock_vector(grid: MomentumGrid, truncation: int,
                       rng: np.random.Generator) -> FockVector:
    """Random symmetric vector of unit norm."""
    secs = []
    for n in range(truncation + 1):
        shape = (grid.size,) * n
        raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        secs.append(symmetrize(raw))
    psi = FockVector(grid, tuple(secs))
    return psi * (1.0 / norm(psi))


def random_one_particle(grid: MomentumGrid, rng: np.random.Generator) -> np.ndarray:
    """Random one-particle amplitude."""
    return rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
