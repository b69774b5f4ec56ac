"""Kernel-deformed creation/annihilation operators and momentum twists.

The deformation is driven by a unimodular two-momentum kernel built from a
root R, K(p, q) = R(w(p, q)) with the invariant w(p, q) = (omega(q) p -
omega(p) q) / 2 at every mass m >= 0.  At m = 0, w is exactly -pq for
p > 0 > q, pq for p < 0 < q and 0 for equal signs (sqrt(p^2) = |p| and
(-q) p = -(p q) in floating point), whose kernel 1 may be replaced by
same-sign extras R1(p/q) (p, q > 0) and R2(-p/q) (p, q < 0).

The wedge argument vanishes on the diagonal p = q (and for equal-sign
massless pairs); the root's value there is not determined by its defining
relations, and K uses the fixed convention R(0) := 1, which keeps the kernel
symmetry K(q, p) K(p, q) = 1 and the sharp-momentum conjugation identities
exact on the grid.

Every operator that takes a :class:`KernelSpec` also takes a tuple of P specs,
one per slot of the state's first batch axis (of length P), with a (P, M)
stack of amplitudes where it takes one: slot j is then the operator of spec j
(and amplitude j) applied to slot j, from the (P, M, M) stack of the cached
kernel matrices (:func:`_kernels`).  So the operators of several roots, or at
a stack of sharp momenta (:func:`_delta`, twist tables from one root
evaluation in :func:`_sharp_twist_tables`), share one application to the
probe columns (:mod:`dense`).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import fock
from .fock import FockVector
from .grids import MomentumGrid, omega
from .inner import Root, check_inversion_symmetry, eval_root, eval_root_at_zero_one

_g = np.geomspace(0.05, 20.0, 33)
_EXTRA_SYMMETRY_SAMPLES = np.concatenate([_g, -_g])
del _g


def wedge_invariant(p, q, mass: float):
    """Boost-invariant antisymmetric form (omega(q)*p - omega(p)*q) / 2."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return 0.5 * (omega(q, mass) * p - omega(p, mass) * q)


@dataclass(frozen=True)
class KernelSpec:
    """Root plus mass selecting the deformation kernel.

    For m = 0 the same-sign blocks may carry extra roots with the inversion
    symmetry conj(R_k(t)) = R_k(1/t); ``extra_pos`` acts on (p>0, q>0) pairs,
    ``extra_neg`` on (p<0, q<0) pairs.
    """

    root: Root
    mass: float
    extra_pos: Root | None = None
    extra_neg: Root | None = None

    def __post_init__(self):
        if self.mass < 0.0:
            raise ValueError("mass must be >= 0")
        if self.mass > 0.0 and (self.extra_pos is not None or self.extra_neg is not None):
            raise ValueError("same-sign extras are only defined for mass 0")
        for extra in (self.extra_pos, self.extra_neg):
            if extra is not None:
                defect = check_inversion_symmetry(extra, _EXTRA_SYMMETRY_SAMPLES)
                if defect > 1e-8:
                    raise ValueError(
                        f"extra root violates conj(R(t)) = R(1/t) (defect {defect:.2e})")


def _kernel_values(spec: KernelSpec, p, q) -> np.ndarray:
    """K(p, q) = R(w(p, q)) on broadcast momentum arrays, R(0) := 1, for every mass;
    the m = 0 same-sign extras overwrite their pairs.  Raises if any momentum is zero."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    if (p == 0.0).any() or (q == 0.0).any():
        raise ValueError("kernel arguments must be nonzero")
    out = eval_root_at_zero_one(spec.root, wedge_invariant(p, q, spec.mass))
    if spec.extra_pos is None and spec.extra_neg is None:
        return out
    # R_+(p / q) on p, q > 0 and R_-(-p / q) on p, q < 0: |p / q| signed as p
    p, q = np.broadcast_arrays(p, q)
    for root, positive in ((spec.extra_pos, True), (spec.extra_neg, False)):
        mask = root is not None and ((p > 0.0) == positive) & ((q > 0.0) == positive)
        if np.any(mask):
            pm = p[mask]
            out[mask] = eval_root(root, np.copysign(pm / q[mask], pm))
    return out


def kernel(spec: KernelSpec, p: float, q: float) -> complex:
    """Unimodular kernel value K(p, q); raises if p or q is zero."""
    return complex(_kernel_values(spec, p, q))


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@functools.lru_cache(maxsize=16)
def _kernel_table(spec: KernelSpec, points: bytes) -> np.ndarray:
    pts = np.frombuffer(points)
    return _read_only(_kernel_values(spec, pts[:, None], pts[None, :]))


def _points(spec: KernelSpec, grid: MomentumGrid) -> np.ndarray:
    """The grid's points, where the kernel of ``spec`` is read: raises unless the masses agree."""
    if grid.mass != spec.mass:
        raise ValueError("grid mass does not match the kernel spec")
    return grid.points


def kernel_matrix(spec: KernelSpec, grid: MomentumGrid) -> np.ndarray:
    """K evaluated on all ordered grid pairs: K[a, b] = kernel(p_a, p_b).

    Built once per (spec, grid points) and shared: the result is read-only.
    """
    return _kernel_table(spec, _points(spec, grid).tobytes())


def _kernels(spec, grid: MomentumGrid) -> np.ndarray:
    """:func:`kernel_matrix` of a spec, or the (P, M, M) stack of a tuple of P specs."""
    if isinstance(spec, tuple):
        return np.array([kernel_matrix(s, grid) for s in spec])
    return kernel_matrix(spec, grid)


def apply_kernel_phases(spec: KernelSpec, p: float, psi: FockVector) -> FockVector:
    """Dress every particle with the kernel phase against reference momentum p.

    Label kappa of sector n is multiplied by prod_i K(p, p_{k_i}); a diagonal
    unitary fixing the vacuum.
    """
    row = _kernel_values(spec, p, _points(spec, psi.grid))
    return psi._with(fock._scale(psi.coefficients, fock._slot_products(row, psi.truncation)))


def annihilate_deformed(spec: KernelSpec | tuple, xi, psi: FockVector) -> FockVector:
    """Deformed annihilator: the removed momentum q contributes prod_k K(q, p_k).

    [a_K Psi]_n(p_1..p_n) = sqrt(n+1) sum_q w_q conj(xi_q) prod_k K(q, p_k)
    Psi_{n+1}(q, p_1..p_n).  Coincides with :func:`fock.annihilate` bit for
    bit when K is identically 1.
    """
    return fock._annihilate_with_kernel(xi, psi, _kernels(spec, psi.grid))


def create_deformed(spec: KernelSpec | tuple, xi, psi: FockVector) -> FockVector:
    """Weighted adjoint of :func:`annihilate_deformed` with the same amplitude.

    Closed form: [a_K* Psi]_n = sqrt(n) Symm(xi(p_1) prod_{k>=2}
    conj(K(p_1, p_k)) Psi_{n-1}(p_2..p_n)); creates xi from the vacuum.
    """
    return fock._create_with_kernel(xi, psi, np.conj(_kernels(spec, psi.grid)))


def field_deformed(spec: KernelSpec | tuple, f, psi: FockVector) -> FockVector:
    """Deformed field of real data f, create_deformed(f) + annihilate_deformed(f)."""
    return create_deformed(spec, f, psi) + annihilate_deformed(spec, f, psi)


def apply_pair_twist(root_of_unity: Root, psi: FockVector) -> FockVector:
    """Multiply label kappa by prod_{i<j} K_r(p_{k_i}, p_{k_j}) for a +-1-valued root r.

    The multiplier is real symmetric, hence a unitary that preserves the
    symmetric sectors, fixes the vacuum, and commutes with translations.
    Raises when r fails to be +-1-valued on the grid-induced arguments.
    """
    spec = KernelSpec(root=root_of_unity, mass=psi.grid.mass)
    rmat = kernel_matrix(spec, psi.grid)
    if np.max(np.abs(rmat * rmat - 1.0)) > 1e-10:
        raise ValueError("root is not +-1-valued on the grid-induced arguments")
    return fock.apply_pair_phase(rmat, psi)


class SharpTwistVariant(Enum):
    """The two sector-diagonal realizations of the sharp-momentum twist."""

    PAIRWISE_SUM = "pairwise-sum"
    SIGN_SPLIT = "sign-split"


@functools.lru_cache(maxsize=16)
def _sharp_twist_tables(spec: KernelSpec, variant: SharpTwistVariant, momenta: bytes,
                        points: bytes) -> np.ndarray:
    """The variant's pair phases G[j] at each of the P ``momenta`` on the grid with
    these points, shape (P, M, M) and read-only, from one root evaluation; slot j
    is bit for bit the table of momentum j alone."""
    pts, ps = np.frombuffer(points), np.frombuffer(momenta)[:, None]
    if variant is SharpTwistVariant.PAIRWISE_SUM:
        # argument for the pair (p_i, p_j): w(p_i, p) + w(p_j, p), the wedge of
        # the summed on-shell two-momentum against p
        wvec = wedge_invariant(pts, ps, spec.mass)
        args = wvec[:, :, None] + wvec[:, None, :]
    else:
        # sign-split: sgn(max(p_i, p_j) - p) * |w(p_i, p_j)| with sgn(0) := -1
        wpair = wedge_invariant(pts[:, None], pts[None, :], spec.mass)
        sgn = np.where(np.maximum(pts[:, None], pts[None, :]) - ps[:, :, None] > 0.0, 1.0, -1.0)
        args = sgn * np.abs(wpair)
    return _read_only(eval_root_at_zero_one(spec.root, args))


def sharp_momentum_twist(spec: KernelSpec, variant: SharpTwistVariant, p: float,
                         psi: FockVector, adjoint: bool = False) -> FockVector:
    """Sector-diagonal unitary whose adjoint action turns a(p) into a_K(p).

    Label kappa of sector n is multiplied by prod_{i<j} of the variant's pair
    phase; sectors n <= 1 and the vacuum are untouched.  The one-slot
    :func:`_sharp_twist_each`: a (1, M, M) stack has the bytes of the table
    alone, so it acts on every column of psi.
    """
    return _sharp_twist_each(spec, variant, [float(p)], psi, adjoint)


def _sharp_twist_each(spec, variant: SharpTwistVariant, momenta, psi: FockVector,
                      adjoint: bool = False) -> FockVector:
    """Slice j of psi's first batch axis twisted as by :func:`sharp_momentum_twist` at
    ``momenta[j]``, with ``spec`` or its j-th entry, bit for bit: one stacked
    :func:`fock.apply_pair_phase` of a :func:`_sharp_twist_tables` stack per run of slots
    with one spec."""
    momenta = np.asarray(momenta, dtype=float)
    specs = spec if isinstance(spec, tuple) else (spec,) * momenta.size
    runs = [list(run) for _, run in itertools.groupby(range(momenta.size), key=specs.__getitem__)]
    gmats = np.concatenate([_sharp_twist_tables(specs[run[0]], variant, momenta[run].tobytes(),
                                                _points(specs[run[0]], psi.grid).tobytes())
                            for run in runs])
    return fock.apply_pair_phase(gmats, psi, adjoint)


def _delta(momenta, grid: MomentumGrid) -> np.ndarray:
    """delta_p as an amplitude, e_q / w_q at the index q of p, per grid momentum p of
    ``momenta``: shape (M,) for one, (P, M) for P.  Its weighted pairing reads the
    value at q, so its annihilator is the sharp one at p (a stack's, one per slot)."""
    hits = grid.points == np.asarray(momenta, dtype=float)[..., None]
    if not np.all(np.count_nonzero(hits, axis=-1) == 1):
        raise ValueError(f"momenta {momenta} are not all grid points")
    return np.where(hits, 1.0 / grid.weights, 0.0)

