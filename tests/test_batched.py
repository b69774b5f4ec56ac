"""Batched root-derived tables against their one-momentum or one-sample forms, bit
for bit, and the number of root evaluations and boosts a suite makes."""

import functools
import operator
import sys

import numpy as np
import pytest

from fockdeform import deformation, dense, fock, grids, suites
from fockdeform.deformation import (KernelSpec, SharpTwistVariant, _sharp_twist_each,
                                    annihilate_deformed, apply_kernel_phases, sharp_annihilate,
                                    sharp_momentum_twist)
from fockdeform.inner import make_root, random_symmetric_blaschke
from fockdeform.suites import SuiteConfig

N = 3
CFG = SuiteConfig()
GRIDS = {"massive": CFG.massive_grid(), "massless": CFG.massless_pair().union}


def spec_on(grid, seed=17):
    return KernelSpec(root=make_root(random_symmetric_blaschke(np.random.default_rng(seed))),
                      mass=grid.mass)


def batch(grid, count, seed=5):
    return fock.random_fock_vector(grid, N, np.random.default_rng(seed), count)


@pytest.mark.parametrize("name", GRIDS)
@pytest.mark.parametrize("variant", list(SharpTwistVariant))
@pytest.mark.parametrize("adjoint", [False, True])
def test_stacked_sharp_twist_slots_equal_the_one_point_twists(name, variant, adjoint):
    grid = GRIDS[name]
    spec = spec_on(grid)
    psi = batch(grid, 2)
    for idx in (np.arange(grid.size), np.array([4, 1, 1])):
        stacked = psi._with(np.stack([psi.coefficients] * idx.size, axis=1))
        got = _sharp_twist_each(spec, variant, idx, stacked, adjoint=adjoint).coefficients
        for j, q in enumerate(idx):
            want = sharp_momentum_twist(spec, variant, grid.points[q], psi, adjoint=adjoint)
            assert np.array_equal(got[:, j], want.coefficients)


def test_stacked_pair_multipliers_are_the_columns_of_single_ones():
    grid = GRIDS["massless"]
    gmats = deformation._sharp_twist_tables(spec_on(grid), SharpTwistVariant.SIGN_SPLIT,
                                            grid.points.tobytes(), grid.points.tobytes())
    stacked = fock._pair_multipliers(gmats.tobytes(), grid.size, N)
    assert stacked.shape == (fock._offsets(grid.size, N)[-1], grid.size)
    for j, gmat in enumerate(gmats):
        assert np.array_equal(stacked[:, j],
                              fock._pair_multipliers(gmat.tobytes(), grid.size, N))


@pytest.mark.parametrize("name", GRIDS)
def test_stacked_kernel_phases_equal_the_per_momentum_dressings(name):
    grid = GRIDS[name]
    spec = spec_on(grid)
    psi = batch(grid, 3)
    momenta = np.concatenate([grid.points, [0.37, -1.9]])
    got = apply_kernel_phases(spec, momenta, psi).coefficients
    assert got.shape == (len(psi.coefficients), momenta.size, 3)
    for j, p in enumerate(momenta):
        assert np.array_equal(got[:, j], apply_kernel_phases(spec, p, psi).coefficients)


@pytest.mark.parametrize("mass", [0.0, 1.0])
def test_boosting_arrays_equals_scalar_boosts(mass):
    rng = np.random.default_rng(9)
    p = rng.uniform(0.1, 3.0, 200) * rng.choice([-1.0, 1.0], 200)
    lam = rng.uniform(-1.5, 1.5, 200)
    got = grids.boost_momentum(p, lam, mass)
    assert np.array_equal(got, [grids.boost_momentum(x, y, mass) for x, y in zip(p, lam)])
    assert np.array_equal(grids.boost_momentum(p, lam[0], mass),
                          [grids.boost_momentum(x, lam[0], mass) for x in p])


def per_momentum_dressed_sum(spec, xi, v):
    grid = v.grid
    return functools.reduce(operator.add, (
        grid.weights[idx] * np.conj(xi[idx]) * sharp_annihilate(q, apply_kernel_phases(spec, q, v))
        for idx, q in enumerate(grid.points)))


@pytest.mark.parametrize("name", GRIDS)
@pytest.mark.parametrize("budget", [dense._BLOCK_ENTRIES, 1])
def test_dressed_sum_keeps_its_own_route(monkeypatch, name, budget):
    """It reads no kernel table, equals the per-momentum sum bit for bit, also in
    runs of one momentum, and agrees with the deformed annihilator."""
    grid = GRIDS[name]
    spec = spec_on(grid)
    xi = fock.random_one_particle(grid, np.random.default_rng(2))
    v = batch(grid, 4)
    want = per_momentum_dressed_sum(spec, xi, v)
    deformed = annihilate_deformed(spec, xi, v)

    def refuse(*args):
        raise AssertionError("the dressed-sum reference read the kernel table")

    monkeypatch.setattr(deformation, "kernel_matrix", refuse)
    monkeypatch.setattr(deformation, "_kernel_table", refuse)
    monkeypatch.setattr(dense, "_BLOCK_ENTRIES", budget)
    got = suites._dressed_sum(spec, xi, v)
    assert np.array_equal(got.coefficients, want.coefficients)
    assert np.max(np.abs(got.coefficients - deformed.coefficients)) <= 1e-13


def counting(monkeypatch, module, name, record):
    """Wrap module.name so that each call appends record(args) to the returned list."""
    calls, original = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(record(*args))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def in_twist_tables():
    frame = sys._getframe(2)
    while frame is not None and frame.f_code.co_name != "_sharp_twist_tables":
        frame = frame.f_back
    return frame is not None


def test_sharp_suite_evaluates_each_root_once_per_variant_and_chunk(monkeypatch):
    for cache in (deformation._sharp_twist_tables, deformation._kernel_table,
                  fock._pair_multipliers):
        cache.cache_clear()
    calls = counting(monkeypatch, deformation, "eval_root",
                     lambda root, t: (root, in_twist_tables()))
    list(suites.suite_sharp(CFG, suites._suite_rng(CFG.seed, "sharp")))
    twist_calls = [root for root, twist in calls if twist]
    chunks = {name: len(dense.copy_chunks(grid.size, dense.FockBasis(grid, CFG.truncation)))
              for name, grid in GRIDS.items()}
    variants = len(SharpTwistVariant)
    # the configured roots on each grid, the control root and the one-point twists
    keys = variants * (CFG.root_count * chunks["massive"] + 2 * chunks["massless"]
                       + chunks["massive"] + 1)
    assert 0 < len(twist_calls) <= keys
    assert len(twist_calls) < len(calls)  # the kernel tables are counted apart


def test_kernel_suite_boosts_whole_sample_arrays(monkeypatch):
    calls = counting(monkeypatch, suites, "boost_momentum",
                     lambda p, rapidity, mass: np.size(rapidity))
    list(suites.suite_kernel(CFG, suites._suite_rng(CFG.seed, "kernel")))
    assert calls and min(calls) >= 50
    assert len(calls) <= 18
