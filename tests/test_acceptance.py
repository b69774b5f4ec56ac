"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and are not configurable.
"""

import math
import time

import numpy as np

from dense_reference import (annihilate_deformed_sharp, basis_labels, basis_vectors,
                             sharp_annihilate, unitarity_defect)
from fockdeform import chiral, cli, dense, fock
from fockdeform.deformation import (KernelSpec, SharpTwistVariant, annihilate_deformed,
                                    apply_pair_twist, field_deformed, kernel,
                                    sharp_momentum_twist)
from fockdeform.grids import boost_momentum, chiral_pair, rapidity_grid
from fockdeform.inner import (BlaschkeSpec, eval_inner, eval_root, make_root,
                              merge_flip_sets, random_symmetric_blaschke, trivial_root)
from random_states import random_bifock_state, random_fock_state

TOL = 1e-10
SEED = 20120911


def _report(criterion: int, description: str, deviation: float, tolerance: float,
            passed: bool | None = None) -> None:
    ok = deviation <= tolerance if passed is None else passed
    line = (f"criterion {criterion:2d} {'PASS' if ok else 'FAIL'}: {description} "
            f"(max_dev={deviation:.3e}, tol={tolerance:.1e})")
    print(line)
    assert ok, line


def _worst(*deviations, pick=np.max) -> float:
    """``pick`` over the deviations; NaN if any is NaN.

    Builtin max/min keep a NaN only when it comes first.
    """
    return float(pick(deviations))


def _random_roots(rng, count=5):
    return [make_root(random_symmetric_blaschke(rng)) for _ in range(count)]


def _one_sided(pair, side, rng):
    amp = np.zeros(pair.union.size, dtype=complex)
    sl = slice(pair.n_negative, None) if side == "+" else slice(0, pair.n_negative)
    n = pair.n_positive if side == "+" else pair.n_negative
    amp[sl] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return amp


def test_criterion_1_inner_function_axioms():
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    t = rng.uniform(0.02, 30.0, 1000) * rng.choice([-1.0, 1.0], 1000)
    dev = 0.0
    for _ in range(5):
        spec = random_symmetric_blaschke(rng)
        vals = eval_inner(spec, t)
        dev = _worst(dev, float(np.max(np.abs(np.abs(vals) - 1.0))))
        dev = _worst(dev, float(np.max(np.abs(np.conj(vals) - 1.0 / vals))))
        dev = _worst(dev, float(np.max(np.abs(1.0 / vals - eval_inner(spec, -t)))))
        root = make_root(spec)
        rvals = eval_root(root, t)
        rneg = eval_root(root, -t)
        dev = _worst(dev, float(np.max(np.abs(rvals ** 2 - vals))))
        dev = _worst(dev, float(np.max(np.abs(rvals * rneg - 1.0))))
        dev = _worst(dev, float(np.max(np.abs(np.conj(rvals) - rneg))))
    elapsed = time.perf_counter() - start
    _report(1, "inner-function and root axioms on 1000 samples", dev, TOL)
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s (limit 1s)"


def test_criterion_2_ccr_adjointness():
    rng = np.random.default_rng(SEED + 1)
    start = time.perf_counter()
    grid = rapidity_grid(1.0, 4)
    n_top = 3
    basis = dense.FockBasis(grid, n_top)
    xi = fock.random_one_particle(grid, rng)
    eta = fock.random_one_particle(grid, rng)
    mc = dense.operator_matrix(lambda v: fock.create(xi, v), basis)
    ma = dense.operator_matrix(lambda v: fock.annihilate(xi, v), basis)
    dev_adj = dense.matrix_deviation(mc, ma.conj().T)
    pairing = complex(np.sum(grid.weights * np.conj(xi) * eta))
    dev_ccr = 0.0
    for (n, _), vec in zip(basis_labels(basis), basis_vectors(basis)):
        if n > n_top - 2:
            continue
        comm = (fock.annihilate(xi, fock.create(eta, vec))
                - fock.create(eta, fock.annihilate(xi, vec)))
        dev_ccr = _worst(dev_ccr, fock.norm(comm - pairing * vec))
    elapsed = time.perf_counter() - start
    _report(2, "create/annihilate conjugate transposes at M=4, N=3", dev_adj, 1e-12)
    _report(2, "CCR on sectors below truncation", dev_ccr, TOL)
    assert elapsed < 1.0, f"criterion 2 took {elapsed:.2f}s (limit 1s)"


def test_criterion_3_kernel_laws():
    rng = np.random.default_rng(SEED + 2)
    root = make_root(random_symmetric_blaschke(rng))
    extra = make_root(BlaschkeSpec((), 1), [(0.5, 2.0), (-2.0, -0.5)])
    dev_sym = 0.0
    dev_boost = 0.0
    for mass in (0.0, 1.0):
        specs = [KernelSpec(root=root, mass=mass)]
        if mass == 0.0:
            specs.append(KernelSpec(root=root, mass=0.0, extra_pos=extra, extra_neg=extra))
        for spec in specs:
            for _ in range(100):
                p = float(rng.uniform(0.1, 3.0) * rng.choice([-1, 1]))
                q = float(rng.uniform(0.1, 3.0) * rng.choice([-1, 1]))
                lam = float(rng.uniform(-1.5, 1.5))
                dev_sym = _worst(dev_sym, abs(kernel(spec, q, p) * kernel(spec, p, q) - 1.0))
                pb, qb = boost_momentum(p, lam, mass), boost_momentum(q, lam, mass)
                dev_boost = _worst(dev_boost, abs(kernel(spec, pb, qb) - kernel(spec, p, q)))
    _report(3, "kernel inverse symmetry, 100 triples, m in {0,1}", dev_sym, TOL)
    _report(3, "kernel boost invariance, 100 triples, m in {0,1}", dev_boost, TOL)


def test_criterion_4_chiral_isomorphism():
    rng = np.random.default_rng(SEED + 3)
    pair = chiral_pair(3)
    n_top = 3
    fb = dense.FockBasis(pair.union, n_top)
    bb = dense.BiFockBasis(pair, n_top)
    mat = dense.operator_matrix(chiral.merge_chiral, bb, fb)
    dev_uni = unitarity_defect(mat)
    psi = 0.7 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
    phi = 0.7 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
    merged = chiral.merge_chiral(chiral.exponential_pair(pair, psi, phi, n_top))
    amp = np.zeros(6, dtype=complex)
    amp[3:] = psi
    amp[:3] = phi
    dev_exp = fock.norm(merged - fock.exponential_vector(pair.union, amp, n_top))
    _report(4, "merge unitary on the full 3+3, N=3 basis", dev_uni, TOL)
    _report(4, "merge maps exponential pairs to exponential vectors", dev_exp, TOL)


def test_criterion_5_merged_twist_lemma():
    rng = np.random.default_rng(SEED + 4)
    pair = chiral_pair(3)
    fb = dense.FockBasis(pair.union, 3)
    dev = 0.0
    for root in _random_roots(rng):
        m_direct = dense.operator_matrix(
            lambda v: chiral.apply_cross_twist_fock(root, v), fb)
        m_comp = dense.operator_matrix(
            lambda v: chiral.merge_chiral(
                chiral.apply_cross_twist(root, chiral.split_chiral(v, pair))), fb)
        dev = _worst(dev, dense.matrix_deviation(m_direct, m_comp))
    _report(5, "sector-diagonal twist equals merge-conjugated twist, 5 roots", dev, TOL)


def test_criterion_6_main_relation():
    rng = np.random.default_rng(SEED + 5)
    pair = chiral_pair(3)
    n_top = 3
    basis = dense.FockBasis(pair.union, n_top)
    dev = 0.0
    for root in _random_roots(rng):
        spec = KernelSpec(root=root, mass=0.0)
        for side in ("+", "-"):
            amp = _one_sided(pair, side, rng)
            m_deformed = dense.operator_matrix(
                lambda v: annihilate_deformed(spec, amp, v), basis)
            for route in ("direct", "split"):
                m_twisted = dense.operator_matrix(
                    lambda v: chiral.twisted_annihilator(root, amp, pair, v, route), basis)
                dev = _worst(dev, dense.matrix_deviation(m_twisted, m_deformed))
    _report(6, "annihilator equivalence, both sign cases and routes, 5 roots", dev, TOL)

    triv = trivial_root()
    spec = KernelSpec(root=triv, mass=0.0)
    dev_exact = 0.0
    dev_round = 0.0
    for side in ("+", "-"):
        amp = _one_sided(pair, side, rng)
        m_plain = dense.operator_matrix(lambda v: fock.annihilate(amp, v), basis)
        m_deformed = dense.operator_matrix(
            lambda v: annihilate_deformed(spec, amp, v), basis)
        m_direct = dense.operator_matrix(
            lambda v: chiral.twisted_annihilator(triv, amp, pair, v, "direct"), basis)
        m_split = dense.operator_matrix(
            lambda v: chiral.twisted_annihilator(triv, amp, pair, v, "split"), basis)
        dev_exact = _worst(dev_exact, dense.matrix_deviation(m_deformed, m_plain),
                        dense.matrix_deviation(m_direct, m_plain))
        dev_round = _worst(dev_round, dense.matrix_deviation(m_split, m_plain))
    _report(6, "identity-kernel degeneration is exact (deviation 0)", dev_exact, 0.0)
    _report(6, "identity-kernel merge/split roundtrip at rounding level",
            dev_round, 1e-12)


def test_criterion_7_field_equivalence():
    rng = np.random.default_rng(SEED + 6)
    pair = chiral_pair(3)
    basis = dense.FockBasis(pair.union, 3)
    dev = 0.0
    for root in _random_roots(rng):
        spec = KernelSpec(root=root, mass=0.0)
        for side in ("+", "-"):
            f = _one_sided(pair, side, rng)
            m_deformed = dense.operator_matrix(lambda v: field_deformed(spec, f, v), basis)
            for route in ("direct", "split"):
                m_twisted = dense.operator_matrix(
                    lambda v: chiral.twisted_field(root, f, pair, v, route), basis)
                dev = _worst(dev, dense.matrix_deviation(m_twisted, m_deformed))
    _report(7, "twisted one-ray field equals deformed field, both routes, dense", dev, TOL)


def test_criterion_8_root_independence():
    rng = np.random.default_rng(SEED + 7)
    atom_a = ((0.3, 0.9), (-0.9, -0.3))
    atom_b = ((1.3, 2.1), (-2.1, -1.3))
    spec_base = random_symmetric_blaschke(rng)
    r1 = make_root(spec_base, atom_a)
    r2 = make_root(spec_base, atom_b)
    twist = make_root(BlaschkeSpec((), 1), merge_flip_sets(atom_a, atom_b))
    grids = (rapidity_grid(1.0, 6), chiral_pair(3).union)
    dev = 0.0
    for grid in grids:
        basis = dense.FockBasis(grid, 3)
        k1 = KernelSpec(root=r1, mass=grid.mass)
        k2 = KernelSpec(root=r2, mass=grid.mass)
        f = fock.random_one_particle(grid, rng)
        m_conj = dense.operator_matrix(
            lambda v: apply_pair_twist(twist, field_deformed(
                k2, f, apply_pair_twist(twist, v))), basis)
        m_target = dense.operator_matrix(lambda v: field_deformed(k1, f, v), basis)
        dev = _worst(dev, dense.matrix_deviation(m_conj, m_target))
    _report(8, "pair twist maps equal-square deformed fields, m in {0,1}", dev, TOL)

    grid = grids[0]
    basis = dense.FockBasis(grid, 3)
    ka = KernelSpec(root=make_root(random_symmetric_blaschke(rng)), mass=grid.mass)
    kb = KernelSpec(root=make_root(random_symmetric_blaschke(rng)), mass=grid.mass)
    f = fock.random_one_particle(grid, rng)
    m_target = dense.operator_matrix(lambda v: field_deformed(ka, f, v), basis)
    candidates = [trivial_root(), make_root(BlaschkeSpec((), 1), atom_a),
                  make_root(BlaschkeSpec((), 1), atom_b)]
    min_dev = math.inf
    for cand in candidates:
        m_conj = dense.operator_matrix(
            lambda v: apply_pair_twist(cand, field_deformed(
                kb, f, apply_pair_twist(cand, v))), basis)
        min_dev = _worst(min_dev, dense.matrix_deviation(m_conj, m_target), pick=np.min)
    _report(8, "unequal squares detectably fail under every candidate twist",
            min_dev, 1e-3, passed=min_dev > 1e-3)


def test_criterion_9_sharp_momentum():
    rng = np.random.default_rng(SEED + 8)
    grid = rapidity_grid(1.0, 6)
    basis = dense.FockBasis(grid, 3)
    roots = _random_roots(rng, 3)
    dev_conj = 0.0
    dev_agree = 0.0
    dev_differ = 0.0
    for root in roots:
        spec = KernelSpec(root=root, mass=1.0)
        for p in grid.points:
            p = float(p)
            m_target = dense.operator_matrix(
                lambda v: annihilate_deformed_sharp(spec, p, v), basis)
            m_by_variant = {}
            for variant in SharpTwistVariant:
                def conj_op(v, variant=variant):
                    out = sharp_momentum_twist(spec, variant, p, v, adjoint=True)
                    out = sharp_annihilate(p, out)
                    return sharp_momentum_twist(spec, variant, p, out)
                m = dense.operator_matrix(conj_op, basis)
                m_by_variant[variant] = m
                dev_conj = _worst(dev_conj, dense.matrix_deviation(m, m_target))
            dev_agree = _worst(dev_agree, dense.matrix_deviation(
                m_by_variant[SharpTwistVariant.PAIRWISE_SUM],
                m_by_variant[SharpTwistVariant.SIGN_SPLIT]))
            m1 = dense.operator_matrix(
                lambda v: sharp_momentum_twist(spec, SharpTwistVariant.PAIRWISE_SUM, p, v),
                basis)
            m2 = dense.operator_matrix(
                lambda v: sharp_momentum_twist(spec, SharpTwistVariant.SIGN_SPLIT, p, v),
                basis)
            dev_differ = _worst(dev_differ, dense.matrix_deviation(m1, m2))
    _report(9, "twist(p) a(p) twist(p)* = a_K(p), both variants, all grid p", dev_conj, TOL)
    _report(9, "variants induce the same adjoint action", dev_agree, TOL)
    _report(9, "variants differ as operators for some root", dev_differ, 1e-3,
            passed=dev_differ > 1e-3)


def test_criterion_10_modular_compatibility():
    rng = np.random.default_rng(SEED + 9)
    pair = chiral_pair(3)
    n_top = 3
    dev_j = 0.0
    dev_sq = 0.0
    for root in _random_roots(rng):
        for _ in range(3):
            psi = random_fock_state(pair.union, n_top, rng)
            lhs = fock.apply_reflection(chiral.apply_cross_twist_fock(root, psi))
            rhs = chiral.apply_cross_twist_fock(root, fock.apply_reflection(psi),
                                                adjoint=True)
            dev_j = _worst(dev_j, fock.norm(lhs - rhs))
            xi = random_bifock_state(pair, n_top, rng)
            twice = chiral.apply_cross_twist(root, chiral.apply_cross_twist(root, xi))
            cmat_sq = np.asarray(eval_inner(root.base, -np.multiply.outer(
                pair.positive_points, pair.negative_points)))
            squared = chiral.apply_cross_twist_matrix(pair, cmat_sq, xi)
            dev_sq = _worst(dev_sq, chiral.bifock_norm(twice - squared))
    _report(10, "reflection conjugation flips the twist to its adjoint", dev_j, TOL)
    _report(10, "twist squared equals the squared-root twist", dev_sq, TOL)


REQUIRED_ANCHORS = {
    "def:1.1(i)", "def:1.1(ii)", "def:1.1(iii)", "sec1:sinh-correspondence",
    "eq:U1", "eq:R_m", "eq:R0", "eq:R0-generalized", "sec1:T_Rm",
    "eq:a_R-explicit", "sec1:adjoint-aR", "sec1:phi_Rm", "sec1:phi_m",
    "sec1:CCR", "sec1:ccr-adjoint", "sec1:kernel-symmetry",
    "sec1:chiral-splitting", "eqn_Saction", "eqn_isoexpo", "eqn_isoexpli",
    "eq:Shat", "eq:Mainrel", "thm:Algeq", "eq:fpm", "eq:Yr",
    "eq:UnitaryEquivalenceOfFields", "lemma:RootEquivalence",
    "proposition:ChoiceOfRootDoesntMatter", "sec2:J-compat",
    "sec2:boost-invariance", "sec2:S-squared", "sec2:exponential-vectors",
    "sec3:sharp-twist", "sec3:sharp-twist-sign-split", "sec3:wedge",
}


def test_criterion_11_cli_end_to_end(tmp_path):
    import json

    report_path = tmp_path / "report.json"
    start = time.perf_counter()
    rc = cli.main(["--report", str(report_path)])
    elapsed = time.perf_counter() - start
    _report(11, f"default CLI run, all suites, {elapsed:.1f}s", float(rc), 0.0,
            passed=(rc == 0 and elapsed < 30.0))
    assert rc == 0
    assert elapsed < 30.0
    doc = json.loads(report_path.read_text())
    anchors = {c["anchor"] for c in doc["checks"]}
    assert all(c["anchor"] for c in doc["checks"])
    missing = REQUIRED_ANCHORS - anchors
    assert not missing, f"anchors not covered: {sorted(missing)}"
