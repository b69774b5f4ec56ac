"""The probe oracle against the dense oracle: colouring, equality, faults, exact zeros."""

import functools
import operator

import numpy as np
import pytest

from dense_reference import (annihilate_deformed_sharp, basis_labels, hermiticity_defect,
                             probe_image, sharp_annihilate, unitarity_defect)
from fockdeform import chiral, dense, fock
from fockdeform.deformation import (KernelSpec, SharpTwistVariant, annihilate_deformed,
                                    apply_kernel_phases, create_deformed, field_deformed,
                                    sharp_momentum_twist)
from fockdeform.grids import ChiralGridPair, MomentumGrid, chiral_pair, rapidity_grid
from fockdeform.inner import make_root, random_symmetric_blaschke, trivial_root
from fockdeform.suites import SuiteConfig, run_suite

N = 4
EPS = 1e-9


def half_line_pair(n_positive, n_negative):
    """A massless pair with unequal half-lines."""
    pos = 0.4 * 1.5 ** np.arange(n_positive)
    neg = -0.3 * 1.7 ** np.arange(n_negative)[::-1]
    points = np.concatenate([neg, pos])
    return ChiralGridPair(union=MomentumGrid(points, np.full(points.size, 0.4), 0.0),
                          n_negative=n_negative)


def union_multisets(basis):
    """Each basis label as a multiset over the union grid, by index."""
    if isinstance(basis, dense.FockBasis):
        return [kappa for _, kappa in basis_labels(basis)]
    q = basis.pair.n_negative
    return [tuple(sorted(kneg + tuple(k + q for k in kpos)))
            for kpos, kneg in basis_labels(basis)]


def reached(kappa, degrees, m, truncation):
    """The rows that one-particle moves of the given degrees reach from multiset kappa."""
    rows = set()
    if -1 in degrees:
        rows |= {kappa[:i] + kappa[i + 1:] for i in range(len(kappa))}
    if 1 in degrees and len(kappa) < truncation:
        rows |= {tuple(sorted(kappa + (q,))) for q in range(m)}
    return rows


@pytest.mark.parametrize("m", range(2, 9))
def test_no_row_is_reached_twice_from_one_probe_column(m):
    """Exhaustive for M <= 8, N <= 5: under LOWER, RAISE and FIELD no row is reached
    from two labels of one probe column, across all sectors, on the tower and on every
    split of its grid, so each image cell of a move holds one matrix entry.  A colour
    column holds every sector: a +-1 move reaches a row from one sector, and there
    from the one colour colour(row) + q mod M."""
    for n in range(1, 6):
        layout = dense._layout(m, n)
        bases = [dense.FockBasis(rapidity_grid(1.0, m, -1.25, 1.0), n)]
        bases += [dense.BiFockBasis(half_line_pair(p, m - p), n) for p in range(1, m)]
        for basis in bases:
            labels = union_multisets(basis)
            index = {kappa: j for j, kappa in enumerate(labels)}
            for pattern in (dense.LOWER, dense.RAISE, dense.FIELD):
                column = getattr(layout, pattern.columns).tolist()
                cells = [(index[row], column[j]) for j, kappa in enumerate(labels)
                         for row in reached(kappa, pattern.degrees, m, n)]
                assert len(cells) > 0 and len(set(cells)) == len(cells)


def test_colour_columns_count():
    """M colour columns, 1 + N M (sector, colour) columns, N + 1 sector columns:
    ``Pattern.width`` counts the columns of the layout."""
    for m, n in ((2, 2), (6, 3), (16, 5)):
        layout = dense._layout(m, n)
        for pattern, width in ((dense.LOWER, m), (dense.RAISE, m), (dense.FIELD, 1 + n * m),
                               (dense.DIAGONAL, n + 1), (dense.removal(1), n + 1)):
            assert pattern.width(m, n) == width == getattr(layout, pattern.columns).max() + 1
            assert np.unique(getattr(layout, pattern.columns)).size == width
        assert np.allclose(np.abs(layout.phase), 1.0)


# --------------------------------------------------------------------------
# probe deviations equal the dense ones
# --------------------------------------------------------------------------

def setting():
    rng = np.random.default_rng(2024)
    root = make_root(random_symmetric_blaschke(rng))
    pair = chiral_pair(3)
    massive = rapidity_grid(1.0, 4)
    return rng, root, pair, massive


def cases():
    """(name, op_a, op_b, pattern, domain, codomain): pairs the suites compare,
    and pairs in one pattern that differ."""
    rng, root, pair, massive = setting()
    union = dense.FockBasis(pair.union, N)
    mbasis = dense.FockBasis(massive, N)
    split = dense.BiFockBasis(pair, N)
    xi, eta = fock.random_one_particle(massive, rng), fock.random_one_particle(massive, rng)
    spec = KernelSpec(root=root, mass=massive.mass)
    fd = fock.real_test_function(xi)
    amp = np.zeros(pair.union.size, dtype=complex)
    amp[pair.n_negative:] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    uspec = KernelSpec(root=root, mass=0.0)
    p = float(massive.points[2])

    def dressed_sum(v):
        return functools.reduce(operator.add, (
            massive.weights[idx] * np.conj(xi[idx])
            * sharp_annihilate(q, apply_kernel_phases(spec, q, v))
            for idx, q in enumerate(massive.points.tolist())))

    def conjugation(variant):
        def op(v):
            out = sharp_momentum_twist(spec, variant, p, v, adjoint=True)
            return sharp_momentum_twist(spec, variant, p, sharp_annihilate(p, out))
        return op

    def twist(variant):
        return lambda v: sharp_momentum_twist(spec, variant, p, v)

    return [
        ("annihilate", lambda v: fock.annihilate(xi, v), lambda v: fock.annihilate(eta, v),
         dense.LOWER, mbasis, None),
        ("create", lambda v: fock.create(xi, v), lambda v: fock.create(eta, v),
         dense.RAISE, mbasis, None),
        ("free-vs-deformed-field", lambda v: fock.field(fd, v),
         lambda v: field_deformed(spec, fd, v), dense.FIELD, mbasis, None),
        ("twisted-annihilator-direct", lambda v: annihilate_deformed(uspec, amp, v),
         lambda v: chiral.twisted_annihilator(root, amp, pair, v, "direct"),
         dense.LOWER, union, None),
        ("twisted-annihilator-split", lambda v: fock.annihilate(amp, v),
         lambda v: chiral.twisted_annihilator(root, amp, pair, v, "split"),
         dense.LOWER, union, None),
        ("dressed-sum", lambda v: annihilate_deformed(spec, xi, v), dressed_sum,
         dense.LOWER, mbasis, None),
        ("dressed-sum-vs-free", lambda v: fock.annihilate(xi, v), dressed_sum,
         dense.LOWER, mbasis, None),
        ("sharp-conjugation", lambda v: annihilate_deformed_sharp(spec, p, v),
         conjugation(SharpTwistVariant.SIGN_SPLIT), dense.removal(2), mbasis, None),
        ("sharp-conjugation-vs-free", lambda v: sharp_annihilate(p, v),
         conjugation(SharpTwistVariant.PAIRWISE_SUM), dense.removal(2), mbasis, None),
        ("sharp-twists", twist(SharpTwistVariant.PAIRWISE_SUM),
         twist(SharpTwistVariant.SIGN_SPLIT), dense.DIAGONAL, mbasis, None),
        ("cross-twists", lambda v: chiral.apply_cross_twist_fock(root, v),
         lambda v: chiral.merge_chiral(
             chiral.apply_cross_twist(root, chiral.split_chiral(v, pair))),
         dense.DIAGONAL, union, None),
        ("cross-twist-vs-identity", lambda v: chiral.apply_cross_twist_fock(root, v),
         lambda v: v, dense.DIAGONAL, union, None),
        ("merge", chiral.merge_chiral,
         lambda v: chiral.merge_chiral(chiral.apply_cross_twist(root, v)),
         dense.DIAGONAL, split, union),
    ]


CASES = {case[0]: case for case in cases()}


@pytest.mark.parametrize("name", list(CASES))
def test_probe_deviation_equals_dense(name):
    _, op_a, op_b, pattern, domain, codomain = CASES[name]
    want = dense.matrix_deviation(dense.operator_matrix(op_a, domain, codomain),
                                  dense.operator_matrix(op_b, domain, codomain))
    got, = dense.probe_deviations((op_a, op_b), pattern, domain, codomain)
    assert abs(got - want) <= 1e-14


@pytest.mark.parametrize("name", list(CASES))
def test_entries_reproduce_the_dense_matrix(name):
    """Scattered back, the COO entries are the dense matrix, with zero residual."""
    _, op_a, _, pattern, domain, codomain = CASES[name]
    cod = domain if codomain is None else codomain
    entries = dense.probe_entries(op_a, pattern, domain, codomain)
    rebuilt = np.zeros((len(cod), len(domain)), dtype=complex)
    assert entries.values.shape == (len(entries.rows), 1)
    rebuilt[entries.rows, entries.cols] = entries.values[:, 0]
    matrix = dense.operator_matrix(op_a, domain, codomain)
    assert np.max(np.abs(rebuilt - matrix)) <= 1e-14
    assert entries.residual == 0.0


def adjoint_pairs():
    rng, root, pair, massive = setting()
    basis = dense.FockBasis(massive, N)
    xi, eta = fock.random_one_particle(massive, rng), fock.random_one_particle(massive, rng)
    spec = KernelSpec(root=root, mass=massive.mass)
    return basis, [
        (lambda v: fock.create(xi, v), lambda v: fock.annihilate(xi, v)),
        (lambda v: fock.create(xi, v), lambda v: fock.annihilate(eta, v)),
        (lambda v: create_deformed(spec, xi, v), lambda v: annihilate_deformed(spec, xi, v)),
        (lambda v: create_deformed(spec, xi, v), lambda v: fock.annihilate(xi, v)),
    ]


def test_adjoint_defect_equals_dense():
    basis, pairs = adjoint_pairs()
    for create, annihilate in pairs:
        want = dense.matrix_deviation(dense.operator_matrix(create, basis),
                                      dense.operator_matrix(annihilate, basis).conj().T)
        got = dense.probe_entries(create, dense.RAISE, basis).deviation(
            dense.probe_entries(annihilate, dense.LOWER, basis).adjoint())
        assert abs(got - want) <= 1e-14


def test_hermiticity_defect_equals_dense():
    rng, root, pair, massive = setting()
    basis = dense.FockBasis(massive, N)
    xi, eta = fock.random_one_particle(massive, rng), fock.random_one_particle(massive, rng)
    spec = KernelSpec(root=root, mass=massive.mass)
    g = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    split = dense.BiFockBasis(pair, N)
    for op, domain in (
            (lambda v: fock.field(fock.real_test_function(xi), v), basis),
            (lambda v: field_deformed(spec, fock.real_test_function(xi), v), basis),
            (lambda v: fock.field(fock.TestFunctionData(xi, eta), v), basis),  # not real
            (lambda v: chiral.chiral_field("+", g, v), split),
            (lambda v: chiral.create_half("-", g, v) + chiral.annihilate_half("-", 2 * g, v),
             split)):
        want = hermiticity_defect(dense.operator_matrix(op, domain))
        entries = dense.probe_entries(op, dense.FIELD, domain)
        assert abs(entries.deviation(entries.adjoint()) - want) <= 1e-14


def test_unitarity_defect_equals_dense():
    _, root, pair, massive = setting()
    spec = KernelSpec(root=root, mass=massive.mass)
    p = float(massive.points[1])
    union = dense.FockBasis(pair.union, N)
    split = dense.BiFockBasis(pair, N)
    for op, domain, codomain in (
            (lambda v: sharp_momentum_twist(spec, SharpTwistVariant.PAIRWISE_SUM, p, v),
             dense.FockBasis(massive, N), None),
            (lambda v: chiral.apply_cross_twist_fock(root, v), union, None),
            (lambda v: 1.5 * chiral.apply_cross_twist_fock(root, v), union, None),
            (chiral.merge_chiral, split, union),
            (lambda v: chiral.merge_chiral(v) * np.exp(0.3j), split, union)):
        want = unitarity_defect(dense.operator_matrix(op, domain, codomain))
        got = dense.probe_entries(op, dense.DIAGONAL, domain, codomain).unitarity_defect()
        assert abs(got - want) <= 1e-14


# --------------------------------------------------------------------------
# faults outside the pattern
# --------------------------------------------------------------------------

def inject(op, domain, codomain, row, col):
    """op plus EPS times the map taking basis label ``col`` of the domain to
    label ``row`` of the codomain."""
    def faulty(v):
        out = codomain.coefficients(op(v))
        out[row] = out[row] + EPS * domain.coefficients(v)[col]
        return codomain._vector(out)
    return faulty


def fock_index(basis, kappa):
    return basis_labels(basis).index((len(kappa), tuple(kappa)))


@pytest.fixture(scope="module")
def fault_setting():
    rng = np.random.default_rng(99)
    root = make_root(random_symmetric_blaschke(rng))
    grid = rapidity_grid(1.0, 5, -1.25, 1.0)
    basis = dense.FockBasis(grid, N)
    xi = fock.random_one_particle(grid, rng)
    return rng, root, grid, basis, xi


def test_two_particle_move_is_caught(fault_setting):
    """(0, 1, 2) -> (0, 3): one particle removed and one more swapped."""
    _, _, grid, basis, xi = fault_setting
    annihilate = lambda v: fock.annihilate(xi, v)  # noqa: E731
    faulty = inject(annihilate, basis, basis, fock_index(basis, (0, 3)),
                    fock_index(basis, (0, 1, 2)))
    assert dense.probe_deviations((annihilate, faulty), dense.LOWER, basis)[0] >= EPS / 2
    create = dense.probe_entries(lambda v: fock.create(xi, v), dense.RAISE, basis)
    assert create.deviation(dense.probe_entries(faulty, dense.LOWER, basis).adjoint()) >= EPS / 2


def test_two_sector_drop_in_an_annihilator_is_caught(fault_setting):
    """(0, 1, 2) -> (3,): a degree -2 entry.  Its colour-3 probe column also holds
    (0, 3), which lowers to (3,), so the fault mixes into a read cell: the comparisons
    see it, and the residual does not."""
    _, _, grid, basis, xi = fault_setting
    annihilate = lambda v: fock.annihilate(xi, v)  # noqa: E731
    faulty = inject(annihilate, basis, basis, fock_index(basis, (3,)),
                    fock_index(basis, (0, 1, 2)))
    assert dense.probe_deviations((annihilate, faulty), dense.LOWER, basis)[0] >= EPS / 2
    lowered = dense.probe_entries(faulty, dense.LOWER, basis)
    create = dense.probe_entries(lambda v: fock.create(xi, v), dense.RAISE, basis)
    assert create.deviation(lowered.adjoint()) >= EPS / 2
    assert lowered.residual == 0.0


def test_sector_skipping_map_is_caught(fault_setting):
    """(0, 1, 2) -> (4,): two sectors down."""
    _, _, grid, basis, xi = fault_setting
    fd = fock.real_test_function(xi)
    field = lambda v: fock.field(fd, v)  # noqa: E731
    faulty = inject(field, basis, basis, fock_index(basis, (4,)),
                    fock_index(basis, (0, 1, 2)))
    assert dense.probe_deviations((field, faulty), dense.FIELD, basis)[0] >= EPS / 2
    entries = dense.probe_entries(faulty, dense.FIELD, basis)
    assert entries.residual >= EPS / 2
    assert entries.deviation(entries.adjoint()) >= EPS / 2


def test_off_diagonal_twist_entry_is_caught(fault_setting):
    """The first label of the top sector reads the last one."""
    _, root, grid, basis, _ = fault_setting
    spec = KernelSpec(root=root, mass=grid.mass)
    p = float(grid.points[1])
    twist = lambda v: sharp_momentum_twist(spec, SharpTwistVariant.SIGN_SPLIT, p, v)  # noqa: E731
    top = [i for i, (n, _) in enumerate(basis_labels(basis)) if n == N]
    faulty = inject(twist, basis, basis, top[0], top[-1])
    assert dense.probe_deviations((twist, faulty), dense.DIAGONAL, basis)[0] >= EPS / 2
    assert dense.probe_entries(faulty, dense.DIAGONAL, basis).unitarity_defect() >= EPS / 2
    # across sectors the entry lands where the pattern says zero
    across = inject(twist, basis, basis, top[0], fock_index(basis, (1, 2, 3)))
    assert dense.probe_entries(across, dense.DIAGONAL, basis).residual >= EPS / 2


def test_non_injective_merge_is_caught():
    """Split label of the last union label of the top sector also lands on the first.

    Both labels share the top sector's probe column, so the fault adds EPS phi_col to
    the cell of entry (row, row), phi the labels' phases: the unitarity defect reads
    only 2 EPS Re(conj(phi_row) phi_col) + EPS^2, which the phases alone decide, and the
    comparison with the merge reads EPS whatever they are."""
    pair = chiral_pair(3)
    union = dense.FockBasis(pair.union, N)
    split = dense.BiFockBasis(pair, N)
    top = [i for i, (n, _) in enumerate(basis_labels(union)) if n == N]
    faulty = inject(chiral.merge_chiral, split, union, top[0], top[-1])
    phase = dense._layout(union.union_size, N).phase
    predicted = abs(2 * EPS * (np.conj(phase[top[0]]) * phase[top[-1]]).real + EPS ** 2)
    assert dense.probe_entries(faulty, dense.DIAGONAL, split, union).unitarity_defect() \
        == pytest.approx(predicted, rel=1e-6)
    assert dense.probe_deviations((chiral.merge_chiral, faulty), dense.DIAGONAL, split,
                                  union)[0] >= EPS / 2


def late_nan(basis, annihilate):
    """annihilate with a NaN in the column of one label of the plan's last block,
    under blocks of 2 columns (several of them)."""
    plan = dense._plan(basis.union_size, N, dense.LOWER.columns, 2)
    assert len(plan) > 2
    label = plan[-1][2][0]

    def op(v):
        out = annihilate(v)
        coefficients = out.coefficients.copy()
        coefficients[0][v.coefficients[label] != 0] = np.nan
        return out._with(coefficients)

    return op


@pytest.mark.parametrize("late", [False, True])
def test_non_finite_entries_propagate(fault_setting, late, monkeypatch):
    """NaN in every cell, or (late) only in a block after the first: a maximum over
    the blocks must not drop it, in the reference image or only in a later one."""
    _, _, grid, basis, xi = fault_setting
    annihilate = lambda v: fock.annihilate(xi, v)  # noqa: E731
    nan_op = lambda v: annihilate(v) * float("nan")  # noqa: E731
    if late:
        monkeypatch.setattr(dense, "_BLOCK_ENTRIES", 2 * len(basis))
        nan_op = late_nan(basis, annihilate)
    assert np.isnan(dense.probe_deviations((nan_op, annihilate), dense.LOWER, basis)[0])
    devs = dense.probe_deviations((annihilate, annihilate, nan_op), dense.LOWER, basis)
    assert devs[0] == 0.0 and np.isnan(devs[1])
    entries = dense.probe_entries(nan_op, dense.LOWER, basis)
    assert np.isnan(entries.deviation(entries))


def test_entries_with_different_positions_refuse():
    basis = dense.FockBasis(rapidity_grid(1.0, 4), 2)
    xi = np.ones(4)
    lower = dense.probe_entries(lambda v: fock.annihilate(xi, v), dense.LOWER, basis)
    with pytest.raises(ValueError):
        lower.deviation(dense.probe_entries(lambda v: v, dense.DIAGONAL, basis))


# --------------------------------------------------------------------------
# exact zeros
# --------------------------------------------------------------------------

def test_trivial_root_operators_give_exactly_zero():
    rng = np.random.default_rng(5)
    triv = trivial_root()
    pair = chiral_pair(3)
    basis = dense.FockBasis(pair.union, N)
    spec = KernelSpec(root=triv, mass=0.0)
    for side in (slice(pair.n_negative, None), slice(None, pair.n_negative)):
        amp = np.zeros(pair.union.size, dtype=complex)
        amp[side] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert dense.probe_deviations((
            lambda v, amp=amp: fock.annihilate(amp, v),
            lambda v, amp=amp: annihilate_deformed(spec, amp, v),
            lambda v, amp=amp: chiral.twisted_annihilator(triv, amp, pair, v, "direct")),
            dense.LOWER, basis) == [0.0, 0.0]
    massive = dense.FockBasis(rapidity_grid(1.0, 4), N)
    mspec = KernelSpec(root=triv, mass=1.0)
    xi = rng.standard_normal(4)
    create = dense.probe_entries(lambda v: create_deformed(mspec, xi, v), dense.RAISE, massive)
    assert create.deviation(dense.probe_entries(
        lambda v: fock.create(xi, v), dense.RAISE, massive)) == 0.0


def test_tower_probe_images_are_the_operators_own_arrays():
    """On the tower an image is the operator's output array itself: no copy, no row gather."""
    basis = dense.FockBasis(rapidity_grid(1.0, 4), N)
    outputs = []

    def op(v):
        outputs.append(2.0 * v)
        return outputs[-1]

    for _, (image,) in dense.probe_blocks((op,), dense.FIELD, basis):
        assert image is outputs[-1].coefficients


@pytest.mark.parametrize("name", ["annihilate", "free-vs-deformed-field", "sharp-conjugation",
                                  "merge"])
def test_probe_image_does_not_depend_on_the_blocks(name, monkeypatch):
    """Blocks of 5 columns cut sectors into pieces; the image is the same."""
    _, op_a, _, pattern, domain, codomain = CASES[name]
    whole = probe_image(op_a, pattern, domain, codomain)
    monkeypatch.setattr(dense, "_BLOCK_ENTRIES", 5 * len(domain))
    assert np.array_equal(probe_image(op_a, pattern, domain, codomain), whole)


@pytest.mark.parametrize("columns", [5, 3])
@pytest.mark.parametrize("suite", ["main_relation", "field_equivalence", "sharp"])
def test_batched_checks_do_not_depend_on_the_blocks(suite, columns, monkeypatch):
    """Budgets of 5 and 3 columns of the default D = 84 tower: an equivalence
    check's probe columns come in several blocks, and the sharp suite takes its
    momenta one per chunk, in several blocks at 3.  The records are the same."""
    cfg = SuiteConfig(suites=(suite,))
    whole = run_suite(cfg).records
    basis = dense.FockBasis(cfg.massless_pair().union, cfg.truncation)
    monkeypatch.setattr(dense, "_BLOCK_ENTRIES", columns * len(basis))
    assert len(dense.copy_chunks(basis.union_size, basis, dense.DIAGONAL)) == basis.union_size

    def blocks(pattern):
        return len(dense._plan(basis.union_size, basis.truncation, pattern.columns, columns))

    assert blocks(dense.LOWER) > 1 and blocks(dense.DIAGONAL) == (1 if columns > 3 else 2)
    assert run_suite(cfg).records == whole
