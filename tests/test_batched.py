"""Batched root-derived tables against their one-momentum or one-sample forms, bit
for bit, the number of root evaluations and boosts a suite makes, and the streamed
ladder step against its gathered sum."""

import functools
import math
import operator
import sys
import tracemalloc

import numpy as np
import pytest

from dense_reference import (annihilate_deformed_sharp, ladder_step_gathered, probe_image,
                             raising_coefficients_gathered, sharp_annihilate)
from fockdeform import chiral, deformation, dense, fock, grids, suites
from fockdeform.deformation import (KernelSpec, SharpTwistVariant, _sharp_twist_each,
                                    annihilate_deformed, apply_kernel_phases,
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
        got = _sharp_twist_each(spec, variant, grid.points[idx], stacked,
                                adjoint=adjoint).coefficients
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
    """It reads no kernel table, equals the per-momentum sum bit for bit at any
    block budget, and agrees with the deformed annihilator."""
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
    tables = [suites._dressings(spec, grid, N)]
    got = suites._dressed_sum(tables, xi[None], slots(v, 1)).coefficients[:, 0]
    assert np.array_equal(got, want.coefficients)
    assert np.max(np.abs(got - deformed.coefficients)) <= 1e-13


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
    calls = counting(monkeypatch, deformation, "eval_root_at_zero_one",
                     lambda root, t: (root, in_twist_tables()))
    list(suites.suite_sharp(CFG, *suites._suite_streams(CFG.seed, "sharp")))
    twist_calls = [root for root, twist in calls if twist]

    def root_runs(grid, roots):
        """(root, run) pairs over the runs of (root, momentum) slots of the grid."""
        chunks = dense.copy_chunks(roots * grid.size, dense.FockBasis(grid, CFG.truncation),
                                   dense.DIAGONAL)
        return sum(len({int(k) // grid.size for k in chunk}) for chunk in chunks)

    # the configured roots on each grid, the control root and the one-point twists
    keys = len(SharpTwistVariant) * (root_runs(GRIDS["massive"], CFG.root_count)
                                     + root_runs(GRIDS["massless"], 2)
                                     + root_runs(GRIDS["massive"], 1) + 1)
    assert 0 < len(twist_calls) <= keys
    assert len(twist_calls) < len(calls)  # the kernel tables are counted apart


def test_kernel_suite_boosts_whole_sample_arrays(monkeypatch):
    calls = counting(monkeypatch, suites, "boost_momentum",
                     lambda p, rapidity, mass: np.size(rapidity))
    list(suites.suite_kernel(CFG, *suites._suite_streams(CFG.seed, "kernel")))
    assert calls and min(calls) >= 50
    assert len(calls) <= 18


# ---- the roots axis: P roots share one application, slot j as root j alone

ROOTS = tuple(make_root(random_symmetric_blaschke(np.random.default_rng(seed)), flips)
              for seed, flips in ((17, ()), (23, suites.FLIP_ATOMS[0]), (31, suites.FLIP_ATOMS[1])))
PAIR = CFG.massless_pair()


def slots(psi, count):
    """psi repeated over a leading slot axis of length count."""
    return psi._with(np.stack([psi.coefficients] * count, axis=1))


@pytest.mark.parametrize("name", GRIDS)
def test_stacked_kernel_slots_equal_the_single_root_tables(name):
    grid = GRIDS[name]
    specs = tuple(KernelSpec(root=r, mass=grid.mass) for r in ROOTS)
    stack = deformation._kernels(specs, grid)
    assert stack.shape == (len(specs), grid.size, grid.size)
    for j, spec in enumerate(specs):
        assert np.array_equal(stack[j], deformation.kernel_matrix(spec, grid))


@pytest.mark.parametrize("variant", list(SharpTwistVariant))
@pytest.mark.parametrize("adjoint", [False, True])
def test_sharp_twist_slots_over_roots_and_momenta_equal_the_one_point_twists(variant, adjoint):
    """Slots (root, momentum) as the sharp suite lays them out, a run cutting a root."""
    grid = GRIDS["massive"]
    specs = [KernelSpec(root=r, mass=grid.mass) for r in ROOTS]
    layout = [(spec, q) for spec in specs for q in range(grid.size)][4:15]
    psi = batch(grid, 2)
    got = _sharp_twist_each(tuple(spec for spec, _ in layout), variant,
                            grid.points[[q for _, q in layout]], slots(psi, len(layout)),
                            adjoint=adjoint).coefficients
    for j, (spec, q) in enumerate(layout):
        want = sharp_momentum_twist(spec, variant, grid.points[q], psi, adjoint=adjoint)
        assert np.array_equal(got[:, j], want.coefficients)


def test_stacked_cross_multipliers_are_the_columns_of_single_ones():
    q = PAIR.n_negative
    smats = [chiral._root_cross_matrix(r, PAIR.union.points.tobytes()) for r in ROOTS]
    cmats = np.stack(smats)[:, q:, :q]
    split = chiral._cross_multipliers(cmats.tobytes(), PAIR.n_positive, q, N)
    union = fock._pair_multipliers(np.stack(smats).tobytes(), PAIR.union.size, N)
    for j, smat in enumerate(smats):
        assert np.array_equal(split[:, j], chiral._cross_multipliers(
            np.ascontiguousarray(smat[q:, :q]).tobytes(), PAIR.n_positive, q, N))
        assert np.array_equal(union[:, j], fock._pair_multipliers(smat.tobytes(),
                                                                  PAIR.union.size, N))


@pytest.mark.parametrize("adjoint", [False, True])
def test_stacked_cross_twists_equal_the_single_root_twists(adjoint):
    psi = batch(PAIR.union, 3)
    xi = chiral.random_bifock(PAIR, N, np.random.default_rng(4), 3)
    union = chiral.apply_cross_twist_fock(ROOTS, slots(psi, len(ROOTS)), adjoint=adjoint)
    split = chiral.apply_cross_twist(ROOTS, slots(xi, len(ROOTS)), adjoint=adjoint)
    for j, r in enumerate(ROOTS):
        assert np.array_equal(union.coefficients[:, j],
                              chiral.apply_cross_twist_fock(r, psi, adjoint).coefficients)
        assert np.array_equal(split.coefficients[:, j],
                              chiral.apply_cross_twist(r, xi, adjoint).coefficients)


def one_sided_stack(side, count, seed=6):
    rng = np.random.default_rng(seed)
    return np.stack([suites._one_sided_amplitude(PAIR, side, rng) for _ in range(count)])


@pytest.mark.parametrize("side", ["+", "-"])
@pytest.mark.parametrize("route", ["direct", "split"])
def test_stacked_operators_equal_the_single_root_operators(side, route):
    """Deformed and twisted annihilators, creators and fields, slot j bit for bit
    root j's operator with amplitude j, on a batch riding in every slot."""
    specs = tuple(KernelSpec(root=r, mass=0.0) for r in ROOTS)
    amp = one_sided_stack(side, len(ROOTS))
    psi = batch(PAIR.union, 4)
    stacked = slots(psi, len(ROOTS))
    fd = fock.real_test_function(amp)
    got = {"annihilate": annihilate_deformed(specs, amp, stacked),
           "create": deformation.create_deformed(specs, amp, stacked),
           "field": deformation.field_deformed(specs, fd, stacked),
           "twisted": chiral.twisted_annihilator(ROOTS, amp, PAIR, stacked, route),
           "twisted-field": chiral.twisted_field(ROOTS, fd, PAIR, stacked, route)}
    for j, (spec, r) in enumerate(zip(specs, ROOTS)):
        one = fock.real_test_function(amp[j])
        want = {"annihilate": annihilate_deformed(spec, amp[j], psi),
                "create": deformation.create_deformed(spec, amp[j], psi),
                "field": deformation.field_deformed(spec, one, psi),
                "twisted": chiral.twisted_annihilator(r, amp[j], PAIR, psi, route),
                "twisted-field": chiral.twisted_field(r, one, PAIR, psi, route)}
        for key, vec in want.items():
            assert np.array_equal(got[key].coefficients[:, j], vec.coefficients), key


@pytest.mark.parametrize("name", GRIDS)
def test_stacked_sharp_annihilators_and_dressed_sums_equal_the_single_root_ones(name):
    grid = GRIDS[name]
    specs = tuple(KernelSpec(root=r, mass=grid.mass) for r in ROOTS)
    psi = batch(grid, 3)
    idx = np.array([4, 1, 1])
    xi = np.stack([fock.random_one_particle(grid, np.random.default_rng(s)) for s in range(3)])
    deltas = deformation._delta(grid.points[idx], grid)
    sharp = annihilate_deformed(specs, deltas, slots(psi, 3)).coefficients
    tables = [suites._dressings(spec, grid, N) for spec in specs]
    dressed = suites._dressed_sum(tables, xi, slots(psi, 3)).coefficients
    for j, spec in enumerate(specs):
        alone = annihilate_deformed_sharp(spec, grid.points[idx[j]], psi)
        assert np.array_equal(sharp[:, j], alone.coefficients)
        one = suites._dressed_sum(tables[j:j + 1], xi[j:j + 1], slots(psi, 1))
        assert np.array_equal(dressed[:, j], one.coefficients[:, 0])


def test_delta_of_an_array_stacks_the_single_deltas():
    grid = GRIDS["massive"]
    idx = np.array([4, 1, 1, 0])
    stack = deformation._delta(grid.points[idx], grid)
    assert stack.shape == (idx.size, grid.size)
    for j, q in enumerate(idx):
        assert np.array_equal(stack[j], deformation._delta(grid.points[q], grid))
        assert np.flatnonzero(stack[j]).tolist() == [q]
    with pytest.raises(ValueError):
        deformation._delta(np.append(grid.points[:2], 0.5 * (grid.points[0] + grid.points[1])),
                           grid)


@pytest.mark.parametrize("name", GRIDS)
@pytest.mark.parametrize("kernel", [False, True])
def test_one_removal_per_slot_equals_each_slot_alone(name, kernel):
    """A stack whose slots each have one nonzero amplitude lowers slot j as
    amplitude j alone, bit for bit: slot 0 reads only labels holding its own
    momentum, so a NaN at a label that only another slot's momentum reaches stays
    out of it."""
    grid = GRIDS[name]
    rng = np.random.default_rng(8)
    q = np.array([0, 3, 3, grid.size - 1])
    xi = np.zeros((q.size, grid.size), dtype=complex)
    xi[np.arange(q.size), q] = rng.standard_normal(q.size) + 1j * rng.standard_normal(q.size)
    stacked = slots(batch(grid, 2), q.size)
    tower = fock._tower(grid.size, N)
    poisoned = np.flatnonzero((tower.sector == 2) & np.all(tower.labels != q[0], axis=1)
                              & np.any(tower.labels == q[1], axis=1))[0]
    stacked.coefficients[poisoned, 0] = np.nan
    specs = tuple(spec_on(grid, seed) for seed in range(q.size))
    if kernel:
        got = annihilate_deformed(specs, xi, stacked)
    else:
        got = fock.annihilate(xi, stacked)
    for j in range(q.size):
        column = stacked._with(stacked.coefficients[:, j])
        alone = annihilate_deformed(specs[j], xi[j], column) if kernel else fock.annihilate(
            xi[j], column)
        assert np.array_equal(got.coefficients[:, j], alone.coefficients)
    assert np.all(np.isfinite(got.coefficients[:, 0]))


@pytest.mark.parametrize("name", GRIDS)
def test_removals_of_different_momenta_share_one_probe_image(name):
    """A removal's probe columns do not depend on its index: one image whose slots
    remove different momenta is, slot by slot, each slot's own removal(q) image."""
    grid = GRIDS[name]
    basis = dense.FockBasis(grid, N)
    specs = tuple(KernelSpec(root=r, mass=grid.mass) for r in ROOTS + ROOTS[:1])
    idx = np.array([4, 1, 1, 0])
    deltas = deformation._delta(grid.points[idx], grid)
    image = probe_image(lambda v: annihilate_deformed(specs, deltas, v),
                        dense.removal(int(idx[0])), basis, copies=idx.size)
    for j, (spec, q) in enumerate(zip(specs, idx)):
        own = probe_image(lambda v: annihilate_deformed(spec, deltas[j], v),
                          dense.removal(int(q)), basis)
        assert np.array_equal(image[:, j], own[:, 0])


def test_dressing_tables_are_read_only_and_column_exact():
    grid = GRIDS["massless"]
    spec = spec_on(grid)
    table = suites._dressings(spec, grid, N)
    assert not table.flags.writeable
    ones = fock.FockVector(grid, np.ones(len(table)), N)
    for q, p in enumerate(grid.points):
        assert np.array_equal(table[:, q], apply_kernel_phases(spec, p, ones).coefficients)


def test_default_run_batches_the_root_loops(monkeypatch):
    """Each operator family runs once per run of roots: a default run applies operators
    to probe blocks at most 70 times (counting those of probe_entries and
    probe_deviations)."""
    calls, real = [], dense.probe_blocks

    def probe_blocks(ops, *args, **kwargs):
        return real([lambda v, op=op: calls.append(None) or op(v) for op in ops],
                    *args, **kwargs)

    monkeypatch.setattr(dense, "probe_blocks", probe_blocks)
    suites.run_suite(CFG)
    assert 0 < len(calls) <= 70


def test_inner_suite_evaluates_each_sample_set_once(monkeypatch):
    """No root or inner function is evaluated twice on one sample array by the suite
    itself (a root without flips is its own principal branch)."""
    def key(fn, t):
        return fn, np.asarray(t).tobytes()

    roots = counting(monkeypatch, suites, "eval_root", key)
    phis = counting(monkeypatch, suites, "eval_inner", key)
    list(suites.suite_inner(CFG, *suites._suite_streams(CFG.seed, "inner")))
    assert len(roots) >= 2 * CFG.root_count and len(set(roots)) == len(roots)
    assert len(phis) >= CFG.root_count and len(set(phis)) == len(phis)


def test_kernel_suite_evaluates_each_pair_family_in_one_call(monkeypatch):
    calls = counting(monkeypatch, suites, "_kernel_values", lambda spec, p, q: np.size(p))
    list(suites.suite_kernel(CFG, *suites._suite_streams(CFG.seed, "kernel")))
    roots = CFG.root_count
    # inverse symmetry per (mass, root), boost invariance per (mass, first 3 roots), the
    # massive definition, the 4 massless values and the generalized kernel's 3 families
    assert len(calls) == 2 * roots + 2 * min(roots, 3) + 1 + 4 + 1
    assert sorted(set(calls)) == [50, 200, 300]


def ladder_cases(src, amp, kmat):
    """(step, amp, kmat) of the lowering and raising steps on ``src``, undeformed and
    deformed (creation with the conjugate kernel, as create_deformed), each with the
    one-slot amplitude and the stacked amplitudes when src has a slot axis."""
    stacks = [(amp[0], kmat[0])] + ([(amp, kmat)] if src.ndim > 2 else [])
    return [(step, a, k) for step in (-1, 1) for a, km in stacks
            for k in (None, km if step < 0 else np.conj(km))]


def assert_streamed_equals_gathered(src, cases, tower, split=None):
    for step, amp, kmat in cases:
        got = fock._ladder_step(src, step, amp, tower, kmat, split)
        want = ladder_step_gathered(src, step, amp, tower, kmat, split)
        if src.ndim > 1:
            assert np.array_equal(got, want), (step, amp.ndim, kmat is None)
        else:  # the sum over the term axis of a 1-D src is numpy's pairwise sum
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want)), step


@pytest.mark.parametrize("name", GRIDS)
@pytest.mark.parametrize("batch_shape", [(), (4,), (3, 2)])
def test_streamed_ladder_steps_equal_the_gathered_sum(name, batch_shape):
    """Lowering and raising, with and without kernels, one amplitude or a stack of
    three: the streamed step equals the gather-then-sum reference bit for bit on a
    batch, and within 1e-15 of the largest entry on one vector."""
    grid = GRIDS[name]
    rng = np.random.default_rng(9)
    count = math.prod(batch_shape) or None
    src = fock.random_fock_vector(grid, N, rng, count).coefficients.reshape((-1,) + batch_shape)
    xi = np.stack([fock.random_one_particle(grid, rng) for _ in range(3)])
    amp = np.sqrt(grid.weights) * xi
    kmat = deformation._kernels(tuple(KernelSpec(root=r, mass=grid.mass) for r in ROOTS), grid)
    assert_streamed_equals_gathered(src, ladder_cases(src, amp, kmat), fock._tower(grid.size, N))


@pytest.mark.parametrize("side", ["+", "-"])
@pytest.mark.parametrize("batch_shape", [(), (4,)])
def test_streamed_split_tower_steps_equal_the_gathered_sum(side, batch_shape):
    """The half-line ladders of the split tower (chiral._half_ladder), as above."""
    rng = np.random.default_rng(10)
    count = math.prod(batch_shape) or None
    src = chiral.random_bifock(PAIR, N, rng, count).coefficients
    w = PAIR.positive_weights if side == "+" else PAIR.negative_weights
    amp = np.sqrt(w) * (rng.standard_normal(w.size) + 1j * rng.standard_normal(w.size))
    tower = fock._tower(w.size, N)
    for step in (-1, 1):
        split = chiral._half_ladder(PAIR.n_positive, PAIR.n_negative, N, side, step)
        assert_streamed_equals_gathered(src, [(step, amp, None)], tower, split)


@pytest.mark.parametrize("stacked", [False, True])
def test_raising_kernel_factors_equal_one_gather_of_all(stacked):
    """N=5 on 16 massive points (D = 20,349): a raising step into every sector gathers
    its kernel factors one slot at a time, and its coefficients equal those from one
    gather of all the factors bit for bit, at a size where numpy multiplies the
    coefficients into the temporary product."""
    grid = SuiteConfig(truncation=5, massive_size=16).massive_grid()
    tower = fock._tower(grid.size, 5)
    rng = np.random.default_rng(12)
    specs = tuple(KernelSpec(root=r, mass=grid.mass) for r in ROOTS[:2])
    amp = np.sqrt(grid.weights) * np.stack([fock.random_one_particle(grid, rng) for _ in specs])
    kmat = np.conj(deformation._kernels(specs, grid))
    if not stacked:
        amp, kmat = amp[0], kmat[0]
    src = np.zeros((tower.start[-1],) + amp.shape[:-1] + (1,), dtype=complex)
    src[:tower.start[-2]] = 1.0
    rows, _, coef = fock._ladder_terms(src, 1, amp, tower, kmat)
    assert rows == slice(1, tower.start[-1])
    assert np.array_equal(coef, raising_coefficients_gathered(amp, tower, kmat, rows))


@pytest.mark.parametrize("step", [-1, 1])
def test_a_ladder_step_holds_two_terms_not_all_of_them(step):
    """N=4 on 12 massive points (D = 1,820): one lowering or raising step with a stack
    of two kernels on the coloured probe block of a field (49 columns in 2 slots).  Its
    traced peak stays below src + out + two terms + the step's coefficient tables,
    (rows, g, P) coefficients and (rows, N, g, P) kernel factors: gathering all g terms
    at once (g = 12 momenta, or N = 4 slots) would not."""
    truncation, grid = 4, SuiteConfig(truncation=4, massive_size=12).massive_grid()
    blocks = []
    for _ in dense.probe_blocks((lambda v: blocks.append(v.coefficients) or v,), dense.FIELD,
                                dense.FockBasis(grid, truncation), copies=2):
        pass
    src, = blocks
    assert src.shape == (math.comb(12 + 4, 4), 2, 1 + 4 * 12)
    rng = np.random.default_rng(11)
    amp = np.sqrt(grid.weights) * np.stack([fock.random_one_particle(grid, rng) for _ in ROOTS[:2]])
    kmat = deformation._kernels(tuple(KernelSpec(root=r, mass=grid.mass) for r in ROOTS[:2]), grid)
    tower = fock._tower(grid.size, truncation)
    rows, index, coef = fock._ladder_terms(src, step, amp, tower, kmat)
    term = (rows.stop - rows.start) * src[0].nbytes
    tables = coef.nbytes * (1 + truncation)
    tracemalloc.start()
    try:
        fock._ladder_step(src, step, amp, tower, kmat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * src.nbytes + 2 * term + tables  # src and out, two terms, the tables
    assert index.shape[1] * term > src.nbytes + 2 * term + tables  # all terms would not fit
