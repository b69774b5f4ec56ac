"""The memoized phase and index tables: keys by value, read-only entries, tables equal to a
direct build, unchanged records."""

import itertools
import json

import numpy as np
import pytest

import table_reference
from fockdeform import chiral, dense, deformation, fock
from fockdeform.cliconfig import report_to_json
from fockdeform.deformation import (KernelSpec, SharpTwistVariant, apply_pair_twist,
                                    kernel, kernel_matrix, sharp_momentum_twist)
from fockdeform.grids import chiral_pair
from fockdeform.inner import BlaschkeSpec, make_root, merge_flip_sets
from fockdeform.suites import FLIP_ATOMS, SuiteConfig, run_suite
from random_states import random_bifock_state, random_fock_state

CACHES = (deformation._kernel_table, deformation._sharp_twist_tables,
          chiral._root_cross_matrix, fock._pair_multipliers, chiral._cross_multipliers,
          fock._tower, chiral._half_ladder, dense._plan)


def clear_caches():
    for cache in CACHES:
        cache.cache_clear()


@pytest.fixture(autouse=True)
def cold_caches():
    clear_caches()
    yield
    clear_caches()


@pytest.fixture(scope="module")
def cfg():
    return SuiteConfig()


@pytest.fixture(scope="module")
def grids(cfg):
    """The default massive grid and massless union grid: 6 points each."""
    return cfg.massive_grid(), cfg.massless_pair().union


@pytest.fixture(scope="module")
def base():
    return BlaschkeSpec(zeros=(0.8 + 0.6j, -0.8 + 0.6j), sign=1)


@pytest.fixture(scope="module")
def root(base):
    return make_root(base)


def probe_vector(grid, truncation=3, seed=3):
    return random_fock_state(grid, truncation, np.random.default_rng(seed))


def test_default_grids_have_equal_sizes_and_distinct_tables(grids, root):
    massive, massless = grids
    assert massive.size == massless.size == 6
    mats = [kernel_matrix(KernelSpec(root=root, mass=g.mass), g) for g in grids]
    assert not np.array_equal(*mats)
    for grid, mat in zip(grids, mats):
        spec = KernelSpec(root=root, mass=grid.mass)
        scalar = np.array([[kernel(spec, p, q) for q in grid.points] for p in grid.points])
        assert np.max(np.abs(mat - scalar)) == 0.0
    assert deformation._kernel_table.cache_info().currsize == 2


def test_equal_size_massless_grids_share_no_entry(root):
    """Same spec, same size, different points: the key is the points, not M."""
    narrow, wide = chiral_pair(3, 0.5, 2.0).union, chiral_pair(3, 0.25, 4.0).union
    spec = KernelSpec(root=root, mass=0.0)
    p = float(narrow.points[1])
    warm = []
    for grid in (narrow, wide):
        psi = probe_vector(grid)
        warm.append((kernel_matrix(spec, grid),
                     sharp_momentum_twist(spec, SharpTwistVariant.PAIRWISE_SUM, p, psi),
                     chiral.apply_cross_twist_fock(root, psi)))
    assert deformation._kernel_table.cache_info().currsize == 2
    assert deformation._sharp_twist_tables.cache_info().currsize == 2
    assert chiral._root_cross_matrix.cache_info().currsize == 2
    assert not np.array_equal(warm[0][0], warm[1][0])
    clear_caches()  # the wide grid alone, cold
    psi = probe_vector(wide)
    cold = (kernel_matrix(spec, wide),
            sharp_momentum_twist(spec, SharpTwistVariant.PAIRWISE_SUM, p, psi),
            chiral.apply_cross_twist_fock(root, psi))
    assert np.array_equal(warm[1][0], cold[0])
    for got, want in zip(warm[1][1:], cold[1:]):
        for a, b in zip(got.sectors, want.sectors):
            assert np.array_equal(a, b)


def test_sharp_suite_grids_get_their_own_twist_tables(grids, root):
    """The sharp suite twists on both 6-point grids at the same p index."""
    tables = []
    for grid in grids:
        spec = KernelSpec(root=root, mass=grid.mass)
        sharp_momentum_twist(spec, SharpTwistVariant.SIGN_SPLIT, float(grid.points[2]),
                             probe_vector(grid))
        tables.append(deformation._sharp_twist_tables(
            spec, SharpTwistVariant.SIGN_SPLIT, grid.points[2:3].tobytes(),
            grid.points.tobytes()))
    info = deformation._sharp_twist_tables.cache_info()
    assert (info.hits, info.currsize) == (2, 2)
    assert not np.array_equal(*tables)


def test_roots_differing_only_in_flips_get_distinct_entries(grids, base):
    r1, r2 = make_root(base, FLIP_ATOMS[0]), make_root(base, FLIP_ATOMS[1])
    assert r1 != r2 and r1.base == r2.base
    for grid in grids:
        mats = [kernel_matrix(KernelSpec(root=r, mass=grid.mass), grid) for r in (r1, r2)]
        assert not np.array_equal(*mats)
    massless = grids[1]
    crosses = [chiral._root_cross_matrix(r, massless.points.tobytes()) for r in (r1, r2)]
    assert not np.array_equal(*crosses)
    psi = probe_vector(massless)
    outs = [chiral.apply_cross_twist_fock(r, psi) for r in (r1, r2)]
    assert not np.array_equal(outs[0].sectors[2], outs[1].sectors[2])
    assert deformation._kernel_table.cache_info().currsize == 4
    assert chiral._root_cross_matrix.cache_info().currsize == 2


def test_adjoint_twists_share_the_twists_multipliers(grids, root):
    grid = grids[0]
    spec = KernelSpec(root=root, mass=grid.mass)
    psi = probe_vector(grid)
    p = float(grid.points[1])
    twist = sharp_momentum_twist(spec, SharpTwistVariant.PAIRWISE_SUM, p, psi)
    adj = sharp_momentum_twist(spec, SharpTwistVariant.PAIRWISE_SUM, p, psi, adjoint=True)
    assert deformation._sharp_twist_tables.cache_info().currsize == 1
    assert fock._pair_multipliers.cache_info().currsize == 1
    assert not np.array_equal(twist.sectors[3], adj.sectors[3])
    back = sharp_momentum_twist(spec, SharpTwistVariant.PAIRWISE_SUM, p, twist, adjoint=True)
    assert np.max(np.abs(back.sectors[3] - psi.sectors[3])) <= 1e-14
    union = grids[1]
    phi = probe_vector(union)
    cross = chiral.apply_cross_twist_fock(root, phi)
    cross_adj = chiral.apply_cross_twist_fock(root, phi, adjoint=True)
    assert chiral._root_cross_matrix.cache_info().currsize == 1
    assert fock._pair_multipliers.cache_info().currsize == 2
    assert not np.array_equal(cross.sectors[2], cross_adj.sectors[2])


def test_split_route_cross_multipliers_are_cached_per_matrix(root):
    """The split tower's twist reads one flat multiplier per (cmat, P, Q, N),
    built from cmat on the half-line labels; its adjoint reads the same one.  It
    is not derived from the union twist's pair multipliers, so it matches them
    through the merge permutation only up to rounding."""
    pair = chiral_pair(3)
    q = pair.n_negative
    xi = random_bifock_state(pair, 4, np.random.default_rng(5))
    twisted = chiral.apply_cross_twist(root, xi)
    again = chiral.apply_cross_twist(root, xi)
    adj = chiral.apply_cross_twist(root, xi, adjoint=True)
    info = chiral._cross_multipliers.cache_info()
    assert (info.hits, info.currsize) == (2, 1)
    assert np.array_equal(twisted.coefficients, again.coefficients)
    assert not np.array_equal(twisted.coefficients, adj.coefficients)
    smat = chiral._root_cross_matrix(root, pair.union.points.tobytes())
    split = chiral._cross_multipliers(smat[q:, :q].tobytes(), pair.n_positive, q, 4)
    assert chiral._cross_multipliers.cache_info().hits == 3
    # label pair ((0, 1), (2,)) of component (2, 1) meets S[p_0, q_2] and S[p_1, q_2]
    layout = chiral._layout(pair.n_positive, q, 4)
    k = chiral._component_keys(4).index((2, 1))
    assert split[layout.start[k] + 1 * layout.shapes[k][1] + 2] == smat[q, 2] * smat[q + 1, 2]
    union = fock._pair_multipliers(smat.tobytes(), pair.union.size, 4)
    assert not np.all(split == 1.0)
    assert np.max(np.abs(split - union[layout.order])) <= 1e-14


def test_adjoint_of_a_stacked_twist_conjugates_its_one_table(cfg, grids, base):
    """Twist and adjoint cost one multiplier miss per twist, and the adjoint equals,
    under ==, the multipliers built from conj(G) on a batch with a slot axis: a union
    pair-phase stack, a split cross matrix and a sharp-twist stack of two slots."""
    massive, union = grids
    pair, roots = cfg.massless_pair(), (make_root(base), make_root(base, FLIP_ATOMS[0]))
    q, rng = pair.n_negative, np.random.default_rng(8)
    smats = np.stack([chiral._root_cross_matrix(r, union.points.tobytes()) for r in roots])
    spec = KernelSpec(root=roots[0], mass=massive.mass)
    momenta = massive.points[[1, 4]]
    gmats = deformation._sharp_twist_tables(spec, SharpTwistVariant.SIGN_SPLIT,
                                            momenta.tobytes(), massive.points.tobytes())

    def slots(vec):
        return vec._with(np.stack([vec.coefficients] * 2, axis=1))

    psi, phi = (slots(random_fock_state(g, 3, rng, 3)) for g in (union, massive))
    xi = slots(random_bifock_state(pair, 3, rng, 3))
    cases = [
        (fock._pair_multipliers, psi, smats, (union.size, 3),
         lambda adj: chiral.apply_cross_twist_fock(roots, psi, adj)),
        (chiral._cross_multipliers, xi, smats[:, q:, :q], (pair.n_positive, q, 3),
         lambda adj: chiral.apply_cross_twist(roots, xi, adj)),
        (fock._pair_multipliers, phi, gmats, (massive.size, 3),
         lambda adj: deformation._sharp_twist_each(spec, SharpTwistVariant.SIGN_SPLIT,
                                                   momenta, phi, adj)),
    ]
    for cache, vec, mats, shape, twist in cases:
        cache.cache_clear()
        twist(False)
        adj = twist(True)
        info = cache.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        want = fock._scale(vec.coefficients, cache.__wrapped__(np.conj(mats).tobytes(), *shape))
        assert np.all(adj.coefficients == want)


def cached_results(grids, root):
    """One result from each cache, keyed by its cache."""
    massive, massless = grids
    spec = KernelSpec(root=root, mass=massive.mass)
    gmat = chiral._root_cross_matrix(root, massless.points.tobytes())
    q = int(np.sum(massless.points < 0.0))
    return {
        deformation._kernel_table: kernel_matrix(spec, massive),
        deformation._sharp_twist_tables: deformation._sharp_twist_tables(
            spec, SharpTwistVariant.SIGN_SPLIT, massive.points[3:4].tobytes(),
            massive.points.tobytes()),
        chiral._root_cross_matrix: gmat,
        fock._pair_multipliers: fock._pair_multipliers(gmat.tobytes(), massless.size, 4),
        chiral._cross_multipliers: chiral._cross_multipliers(gmat[q:, :q].tobytes(),
                                                             massless.size - q, q, 4),
        fock._tower: fock._tower(massless.size, 4).up,
        chiral._half_ladder: chiral._half_ladder(massless.size - q, q, 4, "-", 1)[1],
        dense._plan: dense._plan(massless.size, 4, dense.FIELD.columns, 7)[1][2],
    }


def test_cached_results_equal_a_recompute(grids, root):
    first = cached_results(grids, root)
    assert all(cache.cache_info().currsize >= 1 for cache in CACHES)
    again = cached_results(grids, root)
    clear_caches()
    fresh = cached_results(grids, root)
    for cache in CACHES:
        assert again[cache] is first[cache]  # a hit returns the entry itself
        assert fresh[cache] is not first[cache]
        assert np.array_equal(first[cache], fresh[cache])


def test_cached_arrays_are_read_only(grids, root):
    cached = list(cached_results(grids, root).values())
    assert len(cached) == len(CACHES)
    for arr in cached:
        with pytest.raises(ValueError):
            arr[0] = 0.0
    twist = make_root(BlaschkeSpec((), 1), merge_flip_sets(FLIP_ATOMS[0], FLIP_ATOMS[1]))
    psi = probe_vector(grids[1])
    out = apply_pair_twist(twist, psi)  # a fresh vector, writable, over a cached table
    out.sectors[2][0] = 0.0
    with pytest.raises(ValueError):
        kernel_matrix(KernelSpec(root=twist, mass=0.0), grids[1])[0, 0] = 2.0


def test_default_run_is_the_same_with_cold_and_warm_caches(cfg):
    docs = []
    for _ in range(2):  # the fixture leaves the caches cold for the first run
        doc = report_to_json(run_suite(cfg))
        doc.pop("runtime_seconds")
        docs.append(json.dumps(doc, sort_keys=True))
        assert all(cache.cache_info().currsize > 0 for cache in CACHES)
    assert docs[0] == docs[1]


@pytest.mark.parametrize("m, truncation", [(6, 4), (3, 1), (4, 0), (1, 3)])
def test_tower_tables_are_flat_and_consistent(m, truncation):
    """One flat table per tower: codes sort the rows of all sectors, index
    finds every label, the up and down tables invert each other, and every
    field is read-only."""
    tower = fock._tower(m, truncation)
    dim = tower.start[-1]
    assert np.all(np.diff(tower.codes) > 0)
    assert np.array_equal(tower.index(tower.labels), np.arange(dim))
    slots = tower.labels < m
    assert np.array_equal(np.sum(slots, axis=1), tower.sector)
    assert np.all(tower.down[~slots] == 0) and np.all(tower.slot_mult[~slots] == 1)
    # a label less slot i, plus the label of slot i, is the label again ...
    assert np.array_equal(tower.up[tower.down[slots], tower.labels[slots]], np.nonzero(slots)[0])
    # ... and lam + q, less a slot that holds q, is lam
    lam = np.arange(tower.start[-2])[:, None, None]
    hit = (tower.labels[tower.up] == np.arange(m)[:, None]) & (tower.down[tower.up] == lam)
    assert np.all(hit.any(axis=-1))
    for name, arr in tower._asdict().items():
        if isinstance(arr, np.ndarray):
            assert not arr.flags.writeable, name


@pytest.mark.parametrize("m, truncation", [*itertools.product(range(2, 9), range(2, 7)), (16, 5)])
def test_tower_and_layout_tables_equal_the_direct_build(m, truncation):
    """The tower built sector by sector and the (sector, colour) pairs numbered by a
    cumulative count equal the direct build of :mod:`table_reference`, array and dtype."""
    for built, reference in ((fock._tower(m, truncation), table_reference.tower),
                             (dense._layout(m, truncation), table_reference.layout)):
        for name, want in reference(m, truncation).items():
            got = getattr(built, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name


@pytest.mark.parametrize("side", ["+", "-"])
@pytest.mark.parametrize("step", [-1, 1])
def test_half_ladder_tables_are_read_only(side, step):
    tables = chiral._half_ladder(3, 2, 3, side, step)
    for arr in tables[1:]:  # the gather index and the factor's label rows
        with pytest.raises(ValueError):
            arr[0] = 0
    assert chiral._half_ladder(3, 2, 3, side, step) is tables


@pytest.mark.parametrize("pattern", [dense.DIAGONAL, dense.LOWER, dense.FIELD])
def test_probe_plan_is_read_only_and_keyed_by_the_block_width(grids, pattern):
    """The plan holds O(D) scatter indices per block, never a probe block, in
    ascending column order; the patterns of one column kind share one plan."""
    basis = dense.FockBasis(grids[1], 3)
    plan = dense._plan(basis.union_size, 3, pattern.columns, 3)
    width = {dense.DIAGONAL: 4, dense.LOWER: 6, dense.FIELD: 1 + 3 * 6}[pattern]
    ranges = [(first, last) for first, last, *_ in plan]
    assert len(plan) > 1 and ranges[0][0] == 0 and ranges[-1][1] == width
    assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
    for first, last, *arrays in plan:
        assert all(not arr.flags.writeable and arr.shape == arrays[0].shape for arr in arrays)
        assert arrays[1].max() < last - first
    assert sum(arrays[0].size for _, _, *arrays in plan) == len(basis)
    lower, raising, field = (dense._plan(basis.union_size, 3, p.columns, 3)
                             for p in (dense.LOWER, dense.RAISE, dense.FIELD))
    assert lower is raising and lower is not field
    assert (plan is lower) == (pattern == dense.LOWER)
    assert (plan is field) == (pattern == dense.FIELD)
    assert dense._plan(basis.union_size, 3, pattern.columns, 3) is plan
    assert len(dense._plan(basis.union_size, 3, pattern.columns, 84)) == 1
