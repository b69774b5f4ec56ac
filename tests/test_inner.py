"""Boundary-value symmetries of Blaschke products and their roots."""

import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import root_reference
from fockdeform.fock import Draws
from fockdeform.inner import (BlaschkeSpec, PoleProximityError, check_inversion_symmetry,
                              eval_inner, eval_root, eval_root_at_zero_one, make_root,
                              merge_flip_sets, random_symmetric_blaschke, scattering_from_inner,
                              trivial_root)
from fockdeform.suites import FLIP_ATOMS

TOL = 1e-10


def boundary_defects(spec, t):
    """max |conj(phi) - 1/phi| and max |1/phi - phi(-t)| on nonzero samples t, as the
    inner suite's boundary-symmetry check reads them."""
    t = np.asarray(t, dtype=float)
    phi = eval_inner(spec, t)
    inverse = 1.0 / phi
    return (np.max(np.abs(np.conj(phi) - inverse)),
            np.max(np.abs(inverse - eval_inner(spec, -t))))


def ratio_defects(r1, r2, t):
    """max |r^2 - 1| and max |r(-t) - r(t)| of r = R1 / R2 on nonzero samples t, as the
    inner suite's ratio checks read them."""
    t = np.asarray(t, dtype=float)
    ratio = eval_root(r1, t) / eval_root(r2, t)
    return (np.max(np.abs(ratio ** 2 - 1.0)),
            np.max(np.abs(eval_root(r1, -t) / eval_root(r2, -t) - ratio)))


def symmetric(spec, t):
    """The boundary symmetries hold to TOL."""
    return max(boundary_defects(spec, t)) <= TOL


def same_square(r1, r2, t):
    """The root ratio is a +-1-valued symmetric function to TOL."""
    return max(ratio_defects(r1, r2, t)) <= TOL


def test_eval_inner_single_zero_at_origin():
    # (0 - i)/(0 + i) = -1, the symmetry-forced value at the reflection fixed point
    spec = BlaschkeSpec(zeros=(1j,), sign=1)
    assert abs(eval_inner(spec, 0.0) - (-1.0)) < 1e-14


def test_eval_inner_single_zero_at_one():
    spec = BlaschkeSpec(zeros=(1j,), sign=1)
    expected = (1.0 - 1j) / (1.0 + 1j)  # independent complex arithmetic
    assert abs(eval_inner(spec, 1.0) - expected) < 1e-14


def test_eval_inner_empty_product_is_one():
    spec = BlaschkeSpec(zeros=(), sign=1)
    for z in (0.3, -2.0, 1.5 + 0.7j):
        assert eval_inner(spec, z) == 1.0 + 0.0j


def test_eval_inner_rejects_lower_half_plane():
    spec = BlaschkeSpec(zeros=(1j,), sign=1)
    with pytest.raises(ValueError):
        eval_inner(spec, -0.5j)


def test_eval_inner_pole_proximity():
    spec = BlaschkeSpec(zeros=(1e-9j,), sign=1)
    with pytest.raises(PoleProximityError):
        eval_inner(spec, 0.0)


def test_blaschke_rejects_bad_zero_and_sign():
    with pytest.raises(ValueError):
        BlaschkeSpec(zeros=(1.0 + 0.0j,), sign=1)
    with pytest.raises(ValueError):
        BlaschkeSpec(zeros=(1j,), sign=2)
    for bad in (complex(math.nan, 1.0), complex(0.5, math.inf), complex(math.inf, 1.0)):
        with pytest.raises(ValueError):
            BlaschkeSpec(zeros=(bad,), sign=1)


def test_flips_must_be_pairs():
    spec = BlaschkeSpec(zeros=(), sign=1)
    with pytest.raises(ValueError):
        make_root(spec, [(0.3,)])
    with pytest.raises(ValueError):
        make_root(spec, [(0.3, 0.9, 5.0), (-0.9, -0.3)])


def test_boundary_symmetry_holds_for_symmetric_spec():
    spec = BlaschkeSpec(zeros=(1j,), sign=1)
    t = np.linspace(-5, 5, 101)[np.linspace(-5, 5, 101) != 0]
    assert symmetric(spec, t)
    conjugation, reflection = boundary_defects(spec, t)
    assert conjugation <= 1e-12
    assert reflection <= 1e-12


def test_boundary_symmetry_fails_for_unpaired_zero():
    # {1+i} is not closed under a -> -conj(a); the reflection law must break
    spec = BlaschkeSpec(zeros=(1 + 1j,), sign=1)
    t = [1.0, -1.0, 2.0, -2.0]
    assert not symmetric(spec, t)
    assert boundary_defects(spec, t)[1] > 1e-3


def test_boundary_symmetry_of_constant_minus_one():
    spec = BlaschkeSpec(zeros=(), sign=-1)
    assert symmetric(spec, [0.5, -0.5, 3.0])


def test_make_root_trivial_cases():
    r = make_root(BlaschkeSpec(zeros=(), sign=1))
    assert eval_root(r, 3.7) == 1.0 + 0.0j
    flipped = make_root(BlaschkeSpec(zeros=(), sign=1), [(1.0, 2.0), (-2.0, -1.0)])
    assert eval_root(flipped, 1.5) == -1.0 + 0.0j
    assert eval_root(flipped, -1.5) == -1.0 + 0.0j
    assert eval_root(flipped, 0.5) == 1.0 + 0.0j


def test_root_square_matches_inner_at_one():
    spec = BlaschkeSpec(zeros=(1j,), sign=1)
    r = make_root(spec)
    val = eval_root(r, 1.0)
    assert abs(val ** 2 - eval_inner(spec, 1.0)) < 1e-14
    assert abs(val ** 2 - (-1j)) < 1e-14


def test_eval_root_reflection_product():
    spec = random_symmetric_blaschke(np.random.default_rng(1))
    r = make_root(spec, [(0.4, 0.8), (-0.8, -0.4)])
    for t in (0.3, 0.6, 1.7, 4.2):
        assert abs(eval_root(r, -t) * eval_root(r, t) - 1.0) < 1e-12


def test_eval_root_rejects_zero():
    r = trivial_root()
    with pytest.raises(ValueError):
        eval_root(r, 0.0)
    with pytest.raises(ValueError):
        eval_root(r, np.array([1.0, 0.0]))


def test_make_root_rejects_asymmetric_flips():
    spec = BlaschkeSpec(zeros=(), sign=1)
    with pytest.raises(ValueError):
        make_root(spec, [(1.0, 2.0)])
    with pytest.raises(ValueError):
        make_root(spec, [(1.0, 2.0), (1.5, 3.0), (-3.0, -1.5), (-2.0, -1.0)])
    with pytest.raises(ValueError):
        make_root(spec, [(-1.0, 1.0)])


def test_make_root_rejects_unpaired_zeros():
    with pytest.raises(ValueError):
        make_root(BlaschkeSpec(zeros=(1 + 1j,), sign=1))


def test_scattering_values_and_crossing():
    spec = BlaschkeSpec(zeros=(1j,), sign=1)
    # sinh(0) = 0, so the strip function at 0 is phi(0) = -1
    assert abs(scattering_from_inner(spec, 0.0) - (-1.0)) < 1e-14
    theta = np.linspace(-2.0, 2.0, 41)
    crossed = scattering_from_inner(spec, 1j * math.pi + theta)
    reflected = scattering_from_inner(spec, -theta)
    assert np.max(np.abs(crossed - reflected)) < 1e-12
    with pytest.raises(ValueError):
        scattering_from_inner(spec, -0.2j)


def test_scattering_trivial():
    spec = BlaschkeSpec(zeros=(), sign=1)
    zeta = np.array([0.3, 0.1 + 0.5j, 1j * math.pi])
    assert np.all(scattering_from_inner(spec, zeta) == 1.0)


def test_root_ratio_same_root():
    r = make_root(BlaschkeSpec(zeros=(1j,), sign=1))
    t = [0.5, 1.0, -2.0]
    assert same_square(r, r, t)
    assert ratio_defects(r, r, t)[0] < 1e-14


def test_root_ratio_flip_variants():
    spec = BlaschkeSpec(zeros=(0.5 + 1j, -0.5 + 1j), sign=1)
    r1 = make_root(spec, [(0.3, 0.9), (-0.9, -0.3)])
    r2 = make_root(spec, [(1.3, 2.1), (-2.1, -1.3)])
    t = np.array([0.5, 0.7, 1.5, 3.0, -0.5, -1.7])
    assert same_square(r1, r2, t)
    # and the ratio is genuinely -1 somewhere on the flip set
    assert abs(eval_root(r1, 0.5) / eval_root(r2, 0.5) - (-1.0)) < 1e-12


def test_root_ratio_distinct_squares():
    r1 = make_root(BlaschkeSpec(zeros=(1j,), sign=1))
    r2 = make_root(BlaschkeSpec(zeros=(0.7 + 1.2j, -0.7 + 1.2j), sign=1))
    t = np.linspace(0.2, 4.0, 25)
    assert not same_square(r1, r2, t)
    assert ratio_defects(r1, r2, t)[0] > 1e-3


def test_root_ratio_iff_squares_agree():
    """The ratio's defects vanish exactly when the squares agree samplewise."""
    rng = np.random.default_rng(7)
    t = np.concatenate([np.linspace(0.1, 6.0, 40), -np.linspace(0.1, 6.0, 40)])
    spec = random_symmetric_blaschke(rng)
    cases = [
        (make_root(spec), make_root(spec, [(0.5, 1.0), (-1.0, -0.5)])),
        (make_root(spec), make_root(random_symmetric_blaschke(rng))),
    ]
    for r1, r2 in cases:
        sq_gap = float(np.max(np.abs(eval_root(r1, t) ** 2 - eval_root(r2, t) ** 2)))
        assert same_square(r1, r2, t) == (sq_gap <= TOL)


def test_merge_flip_sets():
    a = ((0.3, 0.9), (-0.9, -0.3), (1.3, 2.1), (-2.1, -1.3))
    b = ((1.3, 2.1), (-2.1, -1.3), (2.8, 5.5), (-5.5, -2.8))
    merged = merge_flip_sets(a, b)
    assert set(merged) == {(0.3, 0.9), (-0.9, -0.3), (2.8, 5.5), (-5.5, -2.8)}
    with pytest.raises(ValueError):
        merge_flip_sets(((0.3, 0.9), (-0.9, -0.3)), ((0.5, 1.2), (-1.2, -0.5)))


def test_inversion_symmetry_checker():
    good = make_root(BlaschkeSpec(zeros=(), sign=1), [(0.5, 2.0), (-2.0, -0.5)])
    t = np.array([0.3, 0.7, 1.0, 1.4, 3.0, -0.3, -1.4])
    assert check_inversion_symmetry(good, t) < 1e-12
    bad = make_root(BlaschkeSpec(zeros=(), sign=1), [(0.5, 1.2), (-1.2, -0.5)])
    assert check_inversion_symmetry(bad, t) > 1.0


@st.composite
def symmetric_specs(draw):
    n_pairs = draw(st.integers(1, 3))
    zeros = []
    for _ in range(n_pairs):
        alpha = draw(st.floats(0.2, 2.0))
        beta = draw(st.floats(0.3, 2.0))
        zeros += [complex(alpha, beta), complex(-alpha, beta)]
    sign = draw(st.sampled_from([1, -1]))
    return BlaschkeSpec(zeros=tuple(zeros), sign=sign)


nonzero_t = st.floats(0.02, 30.0).flatmap(
    lambda x: st.sampled_from([x, -x]))


@settings(max_examples=50, deadline=None)
@given(spec=symmetric_specs(), t=nonzero_t)
def test_boundary_identities_property(spec, t):
    """|phi| = 1 and conj(phi(t)) = phi(t)^-1 = phi(-t) on the real line."""
    v = eval_inner(spec, t)
    assert abs(abs(v) - 1.0) < TOL
    assert abs(np.conj(v) - 1.0 / v) < TOL
    assert abs(1.0 / v - eval_inner(spec, -t)) < TOL


@settings(max_examples=50, deadline=None)
@given(spec=symmetric_specs(), t=nonzero_t)
def test_root_identities_property(spec, t):
    """R^2 = phi, R(-t) R(t) = 1, |R| = 1 for the principal branch."""
    r = make_root(spec)
    v = eval_root(r, t)
    assert abs(v ** 2 - eval_inner(spec, t)) < TOL
    assert abs(v * eval_root(r, -t) - 1.0) < TOL
    assert abs(abs(v) - 1.0) < TOL


def test_package_attribute_inner_is_the_module():
    import fockdeform
    assert isinstance(fockdeform.inner, types.ModuleType)
    assert fockdeform.inner.eval_root is eval_root


# ---- one evaluator, bit for bit the reference's separate passes and mask path

def reference_roots():
    """Random roots of both signs with no flips, each FLIP_ATOMS set and two sets at
    once, a root with zeros 1e-3 from the real axis, and the trivial root."""
    flip_sets = ((),) + FLIP_ATOMS + (FLIP_ATOMS[0] + FLIP_ATOMS[2],)
    roots = [trivial_root(), make_root(BlaschkeSpec((complex(2, 1e-3), complex(-2, 1e-3))))]
    for k, flips in enumerate(flip_sets):
        spec = random_symmetric_blaschke(Draws(f"reference-root/{k}"))
        roots += [make_root(BlaschkeSpec(spec.zeros, sign), flips) for sign in (1, -1)]
    return roots


ROOTS = reference_roots()


def log_uniform_args(key: str, shape) -> np.ndarray:
    """Arguments of both signs with |t| log-uniform over [1e-9, 1e4], about one in ten
    exactly 0, and the flip-atom ends exactly."""
    rng = Draws(key)
    t = np.exp(rng.uniform(math.log(1e-9), math.log(1e4), shape)) * rng.choice([-1.0, 1.0], shape)
    t[rng.random(shape) < 0.1] = 0.0
    ends = np.ravel(FLIP_ATOMS)
    t.flat[:ends.size] = ends[:t.size]
    return t


@pytest.mark.parametrize("k", range(len(ROOTS)))
def test_root_evaluator_equals_the_reference_bit_for_bit(k):
    """On vectors, products of a column and a row, a stride-0 broadcast, a transposed
    view and 0-d arguments, the one-pass evaluator and eval_root give the reference's
    values bit for bit, with R(0) = 1 exactly."""
    root = ROOTS[k]
    vector = log_uniform_args(f"args/{k}", 400)
    rows, cols = log_uniform_args("rows", (30, 1)), log_uniform_args("cols", (1, 20))
    for t in (vector, rows * cols, np.broadcast_to(rows, (30, 20)), vector.reshape(20, 20).T):
        got = eval_root_at_zero_one(root, t)
        assert got.shape == t.shape and got.dtype == complex
        assert np.array_equal(got, root_reference.eval_root_at_zero_one(root, t))
        assert np.all(got[t == 0.0] == 1.0)
        nonzero = t[t != 0.0]
        assert np.array_equal(eval_root(root, nonzero), root_reference.eval_root(root, nonzero))
    for t in vector[:40]:
        got = eval_root_at_zero_one(root, t)
        assert got.shape == () and got == root_reference.eval_root_at_zero_one(root, t)
        if t != 0.0:
            value = eval_root(root, t)
            assert type(value) is complex and value == root_reference.eval_root(root, t)
