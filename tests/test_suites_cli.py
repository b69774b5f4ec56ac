"""Suite runner determinism, report schema, and the verify CLI contract."""

import copy
import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fockdeform
from fockdeform import chiral, cli, deformation, dense, fock, grids, inner, suites
from fockdeform.cliconfig import (config_from_json, config_to_json, emit_report,
                                  report_to_json, root_from_json, root_to_json)
from fockdeform.inner import BlaschkeSpec, eval_root, make_root, random_symmetric_blaschke
from fockdeform.suites import (CHECKS, REPORT_SCHEMA, SUITE_NAMES, ConfigError, SuiteConfig,
                               memory_estimate, run_suite)

FAST = SuiteConfig(suites=("inner", "fock", "kernel"), seed=11)


def test_suite_names_stable():
    assert SUITE_NAMES == ("inner", "fock", "kernel", "deformed", "root_equivalence",
                           "chiral", "main_relation", "field_equivalence", "sharp")


def test_check_table_stable():
    """The catalogue of checks; a run lists its records in table order."""
    assert list(CHECKS) == [
        ("inner", "boundary-symmetry", "def:1.1(i)", None, False),
        ("inner", "root-reflection-symmetry", "def:1.1(ii)", None, False),
        ("inner", "root-squaring", "def:1.1(ii)", None, False),
        ("inner", "scattering-boundary-symmetry", "def:1.1(iii)", None, False),
        ("inner", "strip-crossing-via-sinh", "sec1:sinh-correspondence", None, False),
        ("inner", "ratio-classifies-same-square",
         "proposition:ChoiceOfRootDoesntMatter", None, False),
        ("inner", "ratio-rejects-distinct-squares",
         "proposition:ChoiceOfRootDoesntMatter", 1e-3, True),
        ("fock", "creation-is-weighted-adjoint", "sec1:ccr-adjoint", 1e-12, False),
        ("fock", "ccr-below-truncation", "sec1:CCR", None, False),
        ("fock", "translation-multiplier", "eq:U1", None, False),
        ("fock", "boost-index-shift", "eq:U1", None, False),
        ("fock", "reflection-antiunitary", "eq:U1", None, False),
        ("fock", "field-hermitian", "sec1:phi_m", None, False),
        ("fock", "exponential-inner", "sec2:exponential-vectors", None, False),
        ("fock", "symmetrizer-projects", "eqn_isoexpli", None, False),
        ("kernel", "kernel-inverse-symmetry", "sec1:kernel-symmetry", None, False),
        ("kernel", "kernel-boost-invariance", "sec2:boost-invariance", None, False),
        ("kernel", "wedge-antisymmetric-invariant", "sec3:wedge", None, False),
        ("kernel", "massive-kernel-definition", "eq:R_m", None, False),
        ("kernel", "massless-kernel-values", "eq:R0", None, False),
        ("kernel", "generalized-kernel-symmetry", "eq:R0-generalized", None, False),
        ("deformed", "phase-dressing-unitary", "sec1:T_Rm", None, False),
        ("deformed", "annihilator-equals-dressed-sum", "eq:a_R-explicit", None, False),
        ("deformed", "deformed-adjoint-pair", "sec1:adjoint-aR", 1e-12, False),
        ("deformed", "deformed-field-hermitian", "sec1:phi_Rm", None, False),
        ("deformed", "trivial-root-degeneration", "eq:a_R-explicit", 0.0, False),
        ("root_equivalence", "pair-twist-unitary", "eq:Yr", None, False),
        ("root_equivalence", "pair-twist-maps-annihilators", "lemma:RootEquivalence", None, False),
        ("root_equivalence", "field-conjugation", "eq:UnitaryEquivalenceOfFields", None, False),
        ("root_equivalence", "detects-square-mismatch",
         "proposition:ChoiceOfRootDoesntMatter", 1e-3, True),
        ("chiral", "merge-unitary", "eqn_isoexpli", None, False),
        ("chiral", "merge-exponentials", "eqn_isoexpo", None, False),
        ("chiral", "split-roundtrip", "eqn_isoexpli", None, False),
        ("chiral", "translation-intertwining", "sec1:chiral-splitting", None, False),
        ("chiral", "cross-twist-unitary", "eqn_Saction", None, False),
        ("chiral", "twist-square-is-squared-root", "sec2:S-squared", None, False),
        ("chiral", "merged-twist-lemma", "eq:Shat", None, False),
        ("chiral", "reflection-compatibility", "sec2:J-compat", None, False),
        ("chiral", "twist-boost-kernel-invariance", "sec2:boost-invariance", None, False),
        ("main_relation", "annihilator-equivalence-positive", "eq:Mainrel", None, False),
        ("main_relation", "annihilator-equivalence-negative", "eq:Mainrel", None, False),
        ("main_relation", "trivial-root-exact", "eq:Mainrel", 0.0, False),
        ("main_relation", "trivial-root-roundtrip", "eq:Mainrel", 1e-12, False),
        ("field_equivalence", "field-equivalence-positive", "thm:Algeq", None, False),
        ("field_equivalence", "field-equivalence-negative", "thm:Algeq", None, False),
        ("field_equivalence", "one-sided-data-realization", "eq:fpm", None, False),
        ("sharp", "conjugation-pairwise-sum", "sec3:sharp-twist", None, False),
        ("sharp", "conjugation-sign-split", "sec3:sharp-twist-sign-split", None, False),
        ("sharp", "variants-same-adjoint-action", "sec3:sharp-twist", None, False),
        ("sharp", "variants-differ-as-operators", "sec3:sharp-twist-sign-split", 1e-3, True),
        ("sharp", "twist-unitary-low-sectors", "sec3:sharp-twist", None, False),
    ]
    assert {c.suite for c in CHECKS} == set(SUITE_NAMES)
    records = run_suite(SuiteConfig()).records
    assert [(r.suite, r.check, r.anchor) for r in records] == [c[:3] for c in CHECKS]


def test_run_suite_records_and_anchors():
    report = run_suite(FAST)
    assert report.overall_pass
    assert all(r.anchor for r in report.records)
    assert all(r.suite in ("inner", "fock", "kernel") for r in report.records)


def test_run_suite_deterministic_per_suite():
    """Records depend only on seed and suite identity, not on the selection."""
    solo = run_suite(SuiteConfig(suites=("kernel",), seed=11)).records
    combined = [r for r in run_suite(FAST).records if r.suite == "kernel"]
    assert solo == tuple(combined)
    again = run_suite(SuiteConfig(suites=("kernel",), seed=11)).records
    assert solo == again


def test_report_json_schema(tmp_path):
    report = run_suite(SuiteConfig(suites=("inner",), seed=3))
    doc = report_to_json(report)
    assert doc["schema"] == REPORT_SCHEMA
    assert doc["overall_pass"] is True
    assert isinstance(doc["runtime_seconds"], float)
    for check in doc["checks"]:
        assert set(check) == {"suite", "check", "anchor", "max_deviation",
                              "tolerance", "pass", "control"}
        assert check["anchor"]
    path = tmp_path / "report.json"
    emit_report(report, path)
    assert json.loads(path.read_text())["schema"] == REPORT_SCHEMA


def test_default_run_marks_the_negative_controls(tmp_path, capsys):
    """The report and the CLI lines tell a negative control from a positive check."""
    report_path = tmp_path / "report.json"
    assert cli.main(["--report", str(report_path)]) == 0
    doc = json.loads(report_path.read_text())
    controls = {(c["suite"], c["check"]) for c in doc["checks"] if c["control"]}
    assert controls == {("inner", "ratio-rejects-distinct-squares"),
                        ("root_equivalence", "detects-square-mismatch"),
                        ("sharp", "variants-differ-as-operators")}
    lines = [line for line in capsys.readouterr().out.splitlines() if "max_dev=" in line]
    assert len(lines) == len(doc["checks"])
    for line, check in zip(lines, doc["checks"]):
        assert f"{check['suite']}/{check['check']}" in line
        if check["control"]:
            assert "must exceed 1.0e-03" in line and "tol=" not in line
        else:
            assert "must exceed" not in line and "tol=" in line


def test_report_bit_identical_modulo_runtime(tmp_path):
    cfg = SuiteConfig(suites=("inner", "kernel"), seed=5)
    docs = []
    for name in ("a.json", "b.json"):
        emit_report(run_suite(cfg), tmp_path / name)
        doc = json.loads((tmp_path / name).read_text())
        doc.pop("runtime_seconds")
        docs.append(json.dumps(doc, sort_keys=True))
    assert docs[0] == docs[1]


def test_config_from_json_defaults_and_overrides():
    cfg = config_from_json({})
    assert cfg.tolerance == 1e-10 and cfg.seed == 7
    cfg = config_from_json({
        "seed": 42,
        "tolerance": 1e-9,
        "suites": ["inner"],
        "massless_grid": {"points_per_side": 4, "p_min": 0.25, "p_max": 4.0},
        "massive_grid": {"mass": 2.0, "size": 8},
    })
    assert cfg.seed == 42 and cfg.massive_mass == 2.0
    assert cfg.massless_pair().n_positive == 4
    rebuilt = config_from_json(copy.deepcopy(config_to_json(cfg)))
    assert config_to_json(rebuilt) == config_to_json(cfg)


def test_config_roundtrip_every_key_non_default():
    flipped = make_root(BlaschkeSpec(zeros=(0.5 + 1j, -0.5 + 1j), sign=-1),
                        [(0.3, 0.9), (-0.9, -0.3)])
    plain = make_root(BlaschkeSpec(zeros=(1j,), sign=1))
    cfg = SuiteConfig(
        tolerance=1e-9, seed=13, truncation=4, root_count=2,
        roots=(flipped, plain), ratio_roots=(plain, flipped),
        suites=("chiral", "inner"),
        massless_points_per_side=4, massless_p_min=0.25, massless_p_max=3.0,
        massive_mass=2.0, massive_size=8, massive_theta_min=-1.5, massive_theta_max=1.0)
    defaults = SuiteConfig()
    assert all(getattr(cfg, f.name) != getattr(defaults, f.name)
               for f in dataclasses.fields(SuiteConfig))
    doc = json.loads(json.dumps(config_to_json(cfg)))
    assert config_from_json(doc) == cfg


def test_blaschke_roundtrip():
    spec = BlaschkeSpec(zeros=(0.5 + 1j, -0.5 + 1j), sign=-1)
    doc = root_to_json(make_root(spec))
    assert doc == {"zeros": [[0.5, 1.0], [-0.5, 1.0]], "sign": -1, "flips": []}
    again = root_from_json(json.loads(json.dumps(doc)))
    assert again.base == spec
    assert root_from_json({"zeros": [[0.5, 1.0], [-0.5, 1.0]], "sign": -1}) == again


def test_root_roundtrip_preserves_values():
    spec = random_symmetric_blaschke(np.random.default_rng(0))
    root = make_root(spec, [(0.3, 0.9), (-0.9, -0.3)])
    again = root_from_json(json.loads(json.dumps(root_to_json(root))))
    t = np.array([0.5, 1.5, -0.4, 2.2])
    assert np.max(np.abs(eval_root(root, t) - eval_root(again, t))) == 0.0


def test_config_errors():
    with pytest.raises(ConfigError):
        config_from_json({"bogus": 1})
    with pytest.raises(ConfigError):
        config_from_json({"tolerance": -1.0})
    with pytest.raises(ConfigError):
        config_from_json({"suites": ["nope"]})
    with pytest.raises(ConfigError):
        config_from_json({"truncation": 1})
    with pytest.raises(ConfigError):
        config_from_json({"roots": [{"zeros": [[1.0, -1.0]], "sign": 1}]})
    with pytest.raises(ConfigError):
        config_from_json({"ratio_roots": [{"zeros": [], "sign": 1}]})


def test_explicit_config_roots_are_used():
    root = make_root(BlaschkeSpec(zeros=(1j,), sign=1))
    cfg = config_from_json({"roots": [root_to_json(root)], "suites": ["kernel"]})
    report = run_suite(cfg)
    assert report.overall_pass


def test_trivial_root_config_all_suites_pass():
    """With the identity root every deformation degenerates and all checks pass."""
    cfg = config_from_json({"roots": [{"zeros": [], "sign": 1}]})
    report = run_suite(cfg)
    assert report.overall_pass
    degenerate = [r for r in report.records
                  if r.check in ("trivial-root-degeneration", "trivial-root-exact")]
    assert degenerate and all(r.max_deviation == 0.0 for r in degenerate)


def test_single_root_chiral_suites_pass():
    """One explicit root on the 3+3 grid at N=3 clears all twist suites."""
    root = make_root(BlaschkeSpec(zeros=(1j,), sign=1))
    cfg = config_from_json({
        "roots": [root_to_json(root)],
        "suites": ["chiral", "main_relation", "field_equivalence"],
    })
    report = run_suite(cfg)
    assert report.overall_pass
    assert max(r.max_deviation for r in report.records
               if r.tolerance == 1e-10) <= 1e-10


def test_cli_list_suites(capsys):
    assert cli.main(["--list-suites"]) == 0
    out = capsys.readouterr().out.split()
    assert out == list(SUITE_NAMES)


def test_cli_pass_and_report(tmp_path, capsys):
    report_path = tmp_path / "out.json"
    rc = cli.main(["--suite", "inner", "--suite", "kernel", "--seed", "9",
                   "--report", str(report_path)])
    assert rc == 0
    doc = json.loads(report_path.read_text())
    assert doc["overall_pass"] is True
    assert doc["seed"] == 9
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL " not in out


def test_cli_mismatched_ratio_roots_fail_exit_1(tmp_path, capsys):
    """Config-supplied roots of different squares make the ratio check fail."""
    r1 = make_root(BlaschkeSpec(zeros=(1j,), sign=1))
    r2 = make_root(BlaschkeSpec(zeros=(0.7 + 1.2j, -0.7 + 1.2j), sign=1))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "suites": ["inner"],
        "ratio_roots": [root_to_json(r1), root_to_json(r2)],
    }))
    report_path = tmp_path / "out.json"
    rc = cli.main(["--config", str(cfg_path), "--report", str(report_path)])
    assert rc == 1
    doc = json.loads(report_path.read_text())
    assert doc["overall_pass"] is False
    failed = [c for c in doc["checks"] if not c["pass"]]
    assert any(c["check"] == "ratio-classifies-same-square" for c in failed)


def test_cli_two_point_massive_grid_exit_0(tmp_path, capsys):
    """The smallest massive grid that validation admits runs every suite: the
    sharp suite's low-sector twist reads a momentum of the grid."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"massive_grid": {"size": 2}}))
    assert cli.main(["--config", str(cfg_path)]) == 0
    assert "PASS: 51/51" in capsys.readouterr().out


def test_cli_config_error_exit_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"unknown_key": True}))
    assert cli.main(["--config", str(cfg_path)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert cli.main(["--config", str(tmp_path / "missing.json")]) == 2
    cfg_path.write_text("{not json")
    assert cli.main(["--config", str(cfg_path)]) == 2


@pytest.mark.parametrize("text", [
    '{"truncation": "abc"}',
    '{"tolerance": null}',
    '{"massless_grid": 3}',
    '{"seed": -1}',
    '{"tolerance": NaN}',
    '{"roots": [3]}',
    '{"ratio_roots": {"a": 1}}',
    '{"truncation": 2.7}',
    '{"seed": 7.9}',
    '{"massless_grid": {"points_per_side": 3.5}}',
    '{"repetitions": 20}',
    '{"roots": [{"zeros": [], "sign": 1.5}]}',
    '{"seed": Infinity}',
    '{"suites": []}',
    '{"roots": [{"zeros": [[0.5, 1.0], [-0.5, 1.0]], "flip": [[0.3, 0.9], [-0.9, -0.3]]}]}',
    '{"roots": []}',
    '{"massive_grid": {"mass": Infinity}}',
    '{"massless_grid": {"p_max": 1e308}}',
    '{"massive_grid": {"theta_max": 1000}}',
    '{"massless_grid": {"p_min": 1e-320}}',
    '{"roots": [{"flips": [[0.3]]}]}',
    '{"roots": [{"flips": [[0.3, 0.9, 5], [-0.9, -0.3]]}]}',
    '{"roots": [{"zeros": [[NaN, 1.0]]}]}',
    '{"roots": [{"zeros": [[0.5, Infinity], [-0.5, Infinity]]}]}',
    '{"roots": [{"zeros": [[true, 1.0], [-1, 1.0]]}]}',
    '{"roots": [{"zeros": [[1, 1e-9], [-1, 1e-9]]}]}',
    '{"seed": 1' + '0' * 5000 + '}',
], ids=["truncation-abc", "tolerance-null", "massless-grid-int", "seed-negative",
        "tolerance-nan", "root-not-object", "ratio-roots-not-list", "truncation-float",
        "seed-float", "points-per-side-float", "repetitions-unknown", "root-sign-float",
        "seed-infinite", "suites-empty", "root-unknown-key", "roots-empty",
        "mass-infinite", "p-max-ratio-overflows", "theta-max-overflows", "p-min-subnormal",
        "flip-one-number", "flip-three-numbers", "zero-nan", "zero-infinite", "zero-bool",
        "zero-within-pole-margin", "seed-over-4300-digits"])
def test_cli_malformed_config_exit_2(text, tmp_path, capsys):
    """Bad types and values are configuration errors (exit 2) before any suite
    starts, not tracebacks; grids that overflow are refused with no
    RuntimeWarning on the way (Tier-1 makes one an error)."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    assert cli.main(["--config", str(cfg_path)]) == 2
    out = capsys.readouterr()
    assert out.err.startswith("configuration error:") and out.out == ""


def test_a_zero_within_the_pole_margin_is_refused_and_one_at_it_admitted():
    """Im a < POLE_EPSILON is refused for ratio roots too; at Im a = POLE_EPSILON,
    |t - conj a| >= Im a keeps every real t outside the margin, so phi evaluates."""
    with pytest.raises(ConfigError, match="Im a"):
        config_from_json({"ratio_roots": [{"zeros": [[1.0, 1e-9], [-1.0, 1e-9]]}] * 2})
    edge = root_from_json({"zeros": [[1.0, inner.POLE_EPSILON], [-1.0, inner.POLE_EPSILON]]})
    assert np.all(np.isfinite(inner.eval_inner(edge.base, np.array([-1.0, 1.0]))))


@pytest.mark.parametrize("text", [
    '{"massive_grid": {"theta_max": 300}}',
    '{"massless_grid": {"p_max": 1e150}}',
    '{"massless_grid": {"p_min": 1e-150}}',
    '{"massive_grid": {"mass": 1e100}}',
    '{"massive_grid": {"mass": 1e-8}}',
    '{"massive_grid": {"theta_min": -6, "theta_max": 6}}',
    '{"massless_grid": {"p_max": 1e6}}',
    '{"massless_grid": {"p_min": 1e-8}}',
    '{"massless_grid": {"points_per_side": 2, "p_min": 1.0, "p_max": 1e4}}',
], ids=["theta-max-300", "p-max-1e150", "p-min-1e-150", "mass-1e100", "mass-1e-8",
        "theta-6", "p-max-1e6", "p-min-1e-8", "weight-5000"])
def test_cli_refuses_grids_too_extreme_for_absolute_deviations(text, tmp_path, capsys,
                                                                monkeypatch):
    """Finite grids at scales where correct code was measured to fail checks exit 2
    before any suite starts."""
    monkeypatch.setattr(suites, "SUITES", {})  # running any suite would raise KeyError
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    assert cli.main(["--config", str(cfg_path)]) == 2
    assert "too extreme for absolute deviations" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    {},
    {"truncation": 5, "massless_grid": {"points_per_side": 8}, "massive_grid": {"size": 16}},
    {"truncation": 6, "massless_grid": {"points_per_side": 8}, "massive_grid": {"size": 16}},
    {"massive_grid": {"mass": 100.0, "theta_min": -4.0, "theta_max": 4.0, "size": 2}},
    {"massive_grid": {"mass": 1e-4}},
    {"massless_grid": {"p_min": 1e-2, "p_max": 1e4}},
    {"massless_grid": {"points_per_side": 2, "p_min": 10.0, "p_max": 1e4}},
], ids=["default", "ceiling", "n6", "heavy-wide-massive", "light-massive", "wide-massless",
        "two-point-massless"])
def test_grids_inside_the_scale_bounds_are_admitted(doc):
    """The bounds admit the default, ceiling and N=6 configs and their own corners."""
    config_from_json(doc)


@pytest.mark.parametrize("doc", [
    {"truncation": 4, "massless_grid": {"points_per_side": 2, "p_min": 0.5, "p_max": 380.0}},
    {"truncation": 4, "massless_grid": {"points_per_side": 4, "p_min": 1e-4, "p_max": 1e4}},
], ids=["n4-weight-380", "n4-wide-massless"])
def test_admitted_n4_grids_with_a_large_massless_weight_pass_every_check(doc):
    """Admitted N=4 grids of massless weight about 380: every check passes on seeds 0-9.
    With amplitudes unscaled by the weight, merge-exponentials read up to 1.6e-10 here."""
    cfg = config_from_json(doc)
    for seed in range(10):
        failed = [(r.check, r.max_deviation)
                  for r in run_suite(dataclasses.replace(cfg, seed=seed)).records if not r.passed]
        assert failed == [], seed


def test_cli_refuses_report_in_missing_directory_before_any_suite(tmp_path, capsys,
                                                                  monkeypatch):
    """An unwritable report path is a configuration error, not a traceback after the run."""
    monkeypatch.setattr(suites, "SUITES", {})  # running any suite would raise KeyError
    missing = tmp_path / "no-such-dir" / "report.json"
    assert cli.main(["--report", str(missing)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "does not exist" in err
    assert not missing.parent.exists()
    assert cli.main(["--report", str(tmp_path)]) == 2
    assert "is a directory" in capsys.readouterr().err


def test_cli_non_utf8_config_exit_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(b"\xff\xfe\x7b")
    assert cli.main(["--config", str(cfg_path)]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_late_nan_fails_the_aggregated_check(monkeypatch):
    """A NaN in the second root's split route must fail the check, not vanish in a max."""
    real = chiral.twisted_annihilator
    roots = []

    def injected(root, amplitude, pair, psi, route="direct"):
        out = real(root, amplitude, pair, psi, route)
        if root not in roots:
            roots.append(root)
        if isinstance(root, tuple) and route == "split":
            out.coefficients[:, 1] = math.nan  # the second root's slot
        return out

    monkeypatch.setattr(chiral, "twisted_annihilator", injected)
    report = run_suite(SuiteConfig(root_count=2, suites=("main_relation",)))
    # the two random roots share one run, then the trivial one
    assert [len(r) if isinstance(r, tuple) else None for r in roots] == [2, None]
    rec = next(r for r in report.records if r.check == "annihilator-equivalence-positive")
    assert math.isnan(rec.max_deviation) and not rec.passed


def test_a_non_unitary_merge_fails_the_merge_checks(monkeypatch):
    """merge split = 1 and split merge = 1 are read on the probe columns of both towers,
    and the merge's entries too, so a non-unitary merge is caught by both checks."""
    real = chiral.merge_chiral
    monkeypatch.setattr(chiral, "merge_chiral", lambda xi: real(xi) * 1.5)
    records = {r.check: r for r in run_suite(SuiteConfig(suites=("chiral",))).records}
    for check in ("split-roundtrip", "merge-unitary"):
        assert records[check].max_deviation > 0.1 and not records[check].passed


def test_the_removed_repetitions_key_is_an_unknown_key():
    """No check draws random vectors, so a config naming their count is refused."""
    with pytest.raises(ConfigError, match=r"unknown config keys: \['repetitions'\]"):
        config_from_json({"repetitions": 20})


def test_nan_in_a_probe_image_fails_the_check(monkeypatch):
    """A NaN in the top-sector probe column of the translated probes reaches the record."""
    real = fock.apply_translation

    def injected(x, psi):
        out = real(x, psi)
        if not psi.batch_shape:  # the vacuum and the one-particle state
            return out
        coefs = out.coefficients.copy()
        coefs[-1, 0, -1] = np.nan
        return fock.FockVector(out.grid, coefs, out.truncation)

    monkeypatch.setattr(fock, "apply_translation", injected)
    report = run_suite(SuiteConfig(suites=("fock",)))
    rec = next(r for r in report.records if r.check == "translation-multiplier")
    assert math.isnan(rec.max_deviation) and not rec.passed


def _stub_records(monkeypatch, *yields) -> dict:
    """The inner suite's records when the suite yields just these pairs."""
    monkeypatch.setitem(suites.SUITES, "inner", lambda cfg, rng: iter(yields))
    return {r.check: r for r in run_suite(SuiteConfig(suites=("inner",))).records}


def test_runner_pass_rule(monkeypatch):
    """At most the bound passes; a control passes only above its bound."""
    recs = _stub_records(monkeypatch, ("boundary-symmetry", 1e-16), ("boundary-symmetry", 0.0),
                         ("ratio-rejects-distinct-squares", 1.0))
    assert recs["boundary-symmetry"].max_deviation == 1e-16
    assert recs["boundary-symmetry"].passed and recs["boundary-symmetry"].tolerance == 1e-10
    control = recs["ratio-rejects-distinct-squares"]
    assert control.passed and control.tolerance == 1e-3
    recs = _stub_records(monkeypatch, ("boundary-symmetry", 2e-10),
                         ("ratio-rejects-distinct-squares", 1e-3))
    assert not recs["boundary-symmetry"].passed
    assert not recs["ratio-rejects-distinct-squares"].passed


def test_runner_late_nan_fails(monkeypatch):
    recs = _stub_records(monkeypatch, ("boundary-symmetry", 1e-16), ("boundary-symmetry", 1e-17),
                         ("boundary-symmetry", math.nan), ("boundary-symmetry", 1e-16))
    assert math.isnan(recs["boundary-symmetry"].max_deviation)
    assert not recs["boundary-symmetry"].passed


def test_rec_non_finite_deviation_never_passes(monkeypatch):
    """A NaN or infinite record fails, for a bounded check and for a control alike."""
    for dev in (math.nan, math.inf):
        recs = _stub_records(monkeypatch, ("boundary-symmetry", dev),
                             ("ratio-rejects-distinct-squares", dev))
        for rec in recs.values():
            assert not math.isfinite(rec.max_deviation)
        assert not recs["boundary-symmetry"].passed
        assert not recs["ratio-rejects-distinct-squares"].passed  # above the bound, not finite


def test_runner_nan_control_fails(monkeypatch):
    recs = _stub_records(monkeypatch, ("ratio-rejects-distinct-squares", 1.0),
                         ("ratio-rejects-distinct-squares", math.nan))
    assert math.isnan(recs["ratio-rejects-distinct-squares"].max_deviation)
    assert not recs["ratio-rejects-distinct-squares"].passed


def test_runner_check_without_yields_records_nan(monkeypatch):
    """A check that yields nothing fails with NaN; it never reads as a vacuous 0.0."""
    recs = _stub_records(monkeypatch, ("boundary-symmetry", 0.0))
    assert list(recs) == [c.name for c in CHECKS if c.suite == "inner"]
    assert recs["boundary-symmetry"].passed
    silent = [r for name, r in recs.items() if name != "boundary-symmetry"]
    assert all(math.isnan(r.max_deviation) and not r.passed for r in silent)


def test_runner_rejects_unlisted_check(monkeypatch):
    with pytest.raises(KeyError):
        _stub_records(monkeypatch, ("boundary-symmetry", 0.0), ("no-such-check", 0.0))
    with pytest.raises(KeyError):  # another suite's entry is not this suite's check
        _stub_records(monkeypatch, ("merge-unitary", 0.0))


def test_ratio_check_records_the_reflection_defect(monkeypatch):
    """A broken reflection law fails the same-square check, and its record says by how much.

    The ratio roots are sign flips of phi = 1, so R1 / R2 is exactly +-1; the first of
    them is negated on the negative half-line, R1(-t) = -conj(R1(t)), so r(-t) = -r(t)."""
    r1, r2 = (make_root(BlaschkeSpec((), 1), atoms) for atoms in suites.FLIP_ATOMS[:2])
    real = suites.eval_root
    calls = []

    def injected(root, t):
        if root != r1:
            return real(root, t)
        calls.append(t)
        return real(root, t) * np.where(np.asarray(t) < 0.0, -1.0, 1.0)

    monkeypatch.setattr(suites, "eval_root", injected)
    recs = {r.check: r for r in run_suite(SuiteConfig(suites=("inner",),
                                                      ratio_roots=(r1, r2))).records}
    assert len(calls) == 2  # R1 at t and at -t
    assert recs["ratio-classifies-same-square"].max_deviation == 2.0
    assert not recs["ratio-classifies-same-square"].passed
    assert recs["ratio-rejects-distinct-squares"].passed


def test_dressed_sum_check_reads_the_sharp_annihilators(monkeypatch):
    """A sharp annihilator that removes nothing, as one that reads the wrong grid point
    does, fails the dressed-sum check: its reference never takes the removal path."""
    real = fock._ladder_terms

    def no_removal(src, step, amp, *args, **kwargs):
        terms = real(src, step, amp, *args, **kwargs)
        return None if terms is not None and isinstance(terms[1], tuple) else terms

    monkeypatch.setattr(fock, "_ladder_terms", no_removal)
    recs = {r.check: r for r in run_suite(SuiteConfig(suites=("deformed",))).records}
    assert not recs["annihilator-equals-dressed-sum"].passed


def test_cli_tolerance_override_can_fail(capsys):
    # an absurdly small tolerance flips roundoff-level checks to FAIL -> exit 1
    rc = cli.main(["--suite", "inner", "--tolerance", "1e-18"])
    assert rc == 1


def test_cli_refuses_config_over_memory_before_any_suite(tmp_path, capsys, monkeypatch):
    """truncation 8 on 16 points per side: D = binom(40, 8), about 7.7e7 basis vectors."""
    monkeypatch.setattr(suites, "SUITES", {})  # running any suite would raise KeyError
    doc = {"truncation": 8, "massless_grid": {"points_per_side": 16}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli.main(["--config", str(cfg_path)]) == 2
    assert "physical memory" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="physical memory"):
        config_from_json(doc)
    # the same grids are admitted when the selected suites build no dense oracle, also
    # when the selection comes from the command line
    config_from_json({**doc, "suites": ["inner", "kernel"]})
    ran = []
    monkeypatch.setattr(cli, "run_suite",
                        lambda cfg: ran.append(cfg) or suites.SuiteReport((), 0.0, 0, {}))
    assert cli.main(["--config", str(cfg_path), "--suite", "inner", "--suite", "kernel"]) == 0
    assert [cfg.suites for cfg in ran] == [("inner", "kernel")]


@pytest.mark.parametrize("doc", [
    {"massive_grid": {"size": 10 ** 12}},
    {"massless_grid": {"points_per_side": 10 ** 12}},
    {"massive_grid": {"size": 10 ** 12}, "suites": ["inner", "kernel"]},
    {"massless_grid": {"points_per_side": 10 ** 12}, "suites": ["inner", "kernel"]},
    {"massive_grid": {"size": 4_000_000}},  # the grid fits, the run does not
    {"truncation": 10 ** 39},
    {"massive_grid": {"size": 10 ** 400}},
    {"root_count": 10 ** 9},  # each root's 1,000 samples in suite_inner
    {"root_count": 10 ** 400},
], ids=["massive-1e12", "massless-1e12", "massive-1e12-inner", "massless-1e12-inner",
        "massive-4e6", "truncation-1e39", "massive-1e400", "roots-1e9", "roots-1e400"])
def test_cli_refuses_an_oversized_grid_before_building_it(doc, tmp_path, capsys, monkeypatch):
    """A run that does not fit in physical memory is refused (exit 2, one line, no
    traceback) by the config itself, before any grid is built: config_from_json traces
    under 1 MiB on its way to the refusal."""
    def no_grid(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(suites, "rapidity_grid", no_grid)
    monkeypatch.setattr(suites, "chiral_pair", no_grid)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli.main(["--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "physical memory" in err and err.count("\n") == 1 and "Traceback" not in err
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="physical memory"):
            config_from_json(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_memory_estimate_counts_the_grids():
    cfg = config_from_json({"suites": ["inner", "kernel"]})
    assert memory_estimate(cfg) == (suites.GRID_POINT_BYTES * (2 * 3 + 6 + 4)
                                    + suites.ROOT_BYTES * 5) > 0
    assert memory_estimate(config_from_json({})) > memory_estimate(cfg)


def test_default_and_deep_tower_configs_are_admitted():
    deep = json.loads((Path(__file__).parent.parent / "perfbench" / "workloads"
                       / "deep-tower.json").read_text())
    for doc in ({}, deep):
        config_from_json(doc)


def test_admission_counts_the_pair_multiplier_cache(monkeypatch):
    """The cache's maxsize enters the estimate: a huge one refuses the default config."""
    config_from_json({})
    monkeypatch.setattr(fock, "_pair_multipliers",
                        functools.lru_cache(maxsize=10 ** 12)(lambda gmat, m, n: ()))
    with pytest.raises(ConfigError, match="physical memory"):
        config_from_json({})


def fresh_python(code: str) -> str:
    """What a fresh Python process that runs ``code`` on this package prints."""
    package_root = str(Path(fockdeform.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [package_root] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True, timeout=300).stdout


def peak_rss_bytes(statement: str) -> int:
    """Peak resident set of a fresh Python process that runs ``statement``.

    Read from VmHWM, the high-water mark of the process image: ``ru_maxrss``
    would also count the forking test process, which it keeps across exec.
    """
    return int(fresh_python(f"{statement}\nimport re\nprint(re.search(r'VmHWM:\\s*(\\d+) kB',"
                            " open('/proc/self/status').read()).group(1))").split()[-1]) * 1024


def test_importing_the_cli_leaves_numpy_random_and_ma_unloaded():
    """numpy.random would be the slowest import of a run (about 15 ms on a 2-core machine),
    and numpy.ma about 10 ms: importing the CLI, the config reader and the runner imports
    neither, and neither does a full default ``verify`` run, which draws from
    ``fock.Draws``."""
    out = fresh_python("import sys\n"
                       "import fockdeform.cli, fockdeform.cliconfig, fockdeform.suites\n"
                       "loaded = lambda: sorted({'numpy.random', 'numpy.ma'} & set(sys.modules))\n"
                       "before = loaded()\n"
                       "rc = fockdeform.cli.main([])\n"
                       "print(before, rc, loaded())").splitlines()
    assert out[-1] == "[] 0 []"


def test_a_config_per_suite_builds_no_grid(monkeypatch):
    """Grids are shared values: a config per suite from ``dataclasses.replace``, as
    ``perfbench/child.py`` builds them, and the suites' own grid calls build none."""
    cfg = SuiteConfig()
    built = []
    post_init = grids.MomentumGrid.__post_init__
    monkeypatch.setattr(grids.MomentumGrid, "__post_init__",
                        lambda grid: built.append(grid) or post_init(grid))
    for name in SUITE_NAMES:
        one = dataclasses.replace(cfg, suites=(name,))
        one.massless_pair(), one.massive_grid(), one.massive_grid(size=4)
    assert built == []


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_admission_estimate_covers_the_measured_peak(tmp_path):
    """verify on N=4, 6 points per side, 12 massive points (D = 1,820) in a fresh
    process: its peak RSS above that of a process that only imports the
    package is at most :func:`memory_estimate`."""
    doc = {"truncation": 4, "massless_grid": {"points_per_side": 6},
           "massive_grid": {"size": 12}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    bare = peak_rss_bytes("import fockdeform")
    run = peak_rss_bytes("from fockdeform.cli import main\n"
                         f"assert main(['--config', {str(cfg_path)!r}]) == 0")
    assert 0 < run - bare <= memory_estimate(config_from_json(doc))


def traced_peak(cfg: SuiteConfig) -> int:
    """Traced peak bytes of one :func:`run_suite` of ``cfg``, from the first allocation."""
    tracemalloc.start()
    try:
        run_suite(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def clear_package_caches():
    for module in (chiral, dense, deformation, fock, grids, inner, suites):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


@pytest.mark.parametrize("columns", [5, 50])
@pytest.mark.parametrize("suite", ["fock", "deformed", "root_equivalence", "chiral",
                                   "main_relation", "field_equivalence", "sharp"])
def test_probe_oracle_memory_is_block_sized(suite, columns, monkeypatch):
    """The memory rule: every array of a run is a table or a block.  N=4 on 6 points per
    side and 12 massive points (D = 1,820) under blocks of 5 and 50 columns: the suite's
    traced peak, cold (every cache empty) and warm, is at most :func:`memory_estimate` under
    the same block budget.  Under blocks of 5 columns the warm peak also stays below three
    full probe images of a field, 3 D (1 + N M) complex entries: a consumer that
    assembled whole images would hold up to four."""
    cfg = config_from_json({"truncation": 4, "massless_grid": {"points_per_side": 6},
                            "massive_grid": {"size": 12}, "suites": [suite]})
    d = math.comb(12 + 4, 4)
    monkeypatch.setattr(dense, "_BLOCK_ENTRIES", columns * d)
    clear_package_caches()
    cold = traced_peak(cfg)
    warm = traced_peak(cfg)
    assert max(cold, warm) <= memory_estimate(cfg)
    if columns == 5:
        assert warm < 3 * d * (1 + 4 * 12) * np.dtype(complex).itemsize


def test_fock_suite_holds_no_square_array():
    """N=12 on 2 points per side and 2 massive points: the ccr check reads the 1,001 labels
    of sectors 0..10 of the D_4 = 1,820-label 4-point tower in identity blocks of 24 columns,
    so the fock suite's traced peak stays below one D_4 x D_4 complex array (50.5 MiB)."""
    cfg = config_from_json({"truncation": 12, "massless_grid": {"points_per_side": 2},
                            "massive_grid": {"size": 2}, "suites": ["fock"]})
    clear_package_caches()
    assert traced_peak(cfg) < math.comb(4 + 12, 12) ** 2 * np.dtype(complex).itemsize


def ccr_yields(cfg: SuiteConfig) -> list[float]:
    """The deviations that the fock suite yields for ccr-below-truncation, one per block."""
    return [dev for name, dev in suites.suite_fock(cfg, suites._suite_stream(cfg.seed, "fock"))
            if name == "ccr-below-truncation"]


@pytest.mark.parametrize("truncation", [3, 4])
def test_ccr_check_reads_the_last_label_of_sector_n_minus_2(truncation, monkeypatch):
    """A creator that misreads only the last label of sector N-2, the top sector that
    [a(xi), a*(eta)] = <xi, eta> holds on below the truncation, fails the check."""
    cfg = SuiteConfig(truncation=truncation, suites=("fock",))
    last = fock._offsets(4, truncation)[truncation - 1] - 1
    real = fock.create

    def create(amp, psi):
        coefficients = psi.coefficients.copy()
        coefficients[last] *= 1.0 + 1e-6
        return real(amp, psi._with(coefficients))

    monkeypatch.setattr(fock, "create", create)
    rec = next(r for r in run_suite(cfg).records if r.check == "ccr-below-truncation")
    assert rec.max_deviation > 1e-8 and not rec.passed


def test_ccr_blocks_keep_the_record_bit_for_bit(monkeypatch):
    """At N=4 the check covers the 15 labels of sectors 0..2 of the 4-point tower (D = 70);
    in blocks of 4 columns it yields 4 block maxima, whose maximum is the one-block record."""
    cfg = SuiteConfig(truncation=4, suites=("fock",))
    whole = ccr_yields(cfg)
    monkeypatch.setattr(dense, "_BLOCK_ENTRIES", 4 * 70 * 4)  # D max(M, N) per column
    blocks = ccr_yields(cfg)
    assert len(whole) == 1 and len(blocks) == 4
    assert max(blocks) == whole[0]


def test_square_mismatch_control_detects_at_an_extreme_mass():
    """At mass 100 the grid's wedge arguments lie far above the control roots' drawn zeros
    (|a| about 0.3-3); with both zero sets scaled to the grid, the two roots still differ
    there.  Unscaled, seed 5 read 1.3e-4, below the control's 1e-3 bound."""
    cfg = SuiteConfig(seed=5, massive_mass=100.0, suites=("root_equivalence",))
    rec = next(r for r in run_suite(cfg).records if r.check == "detects-square-mismatch")
    assert rec.passed and rec.max_deviation > 0.5


def test_ceiling_config_is_admitted():
    """N=5 on 8 points per side and 16 massive points: D = 20,349, no D x D matrix."""
    config_from_json({"truncation": 5, "massless_grid": {"points_per_side": 8},
                      "massive_grid": {"size": 16}})


def test_default_run_builds_no_symmetrizer_table_beyond_the_counted_ones(monkeypatch):
    """Random vectors are drawn as coefficients, so the only symmetrizer tables
    (fock._tensor_ranks, M^n entries) a run builds are small: the fock suite's on its
    4-point tower and two-particle ones, M^2 entries like the kernel matrices, which
    memory_estimate does not count."""
    built = []
    real = fock._tensor_ranks
    monkeypatch.setattr(fock, "_tensor_ranks", lambda m, n: built.append((m, n)) or real(m, n))
    run_suite(SuiteConfig())
    assert built
    assert [(m, n) for m, n in built if n >= 3 and m > 4] == []


def test_fock_suite_builds_no_symmetrizer_table_above_the_raw_tensor_degree(monkeypatch):
    """At N=6 the fock suite round-trips the sectors up to degree 3 only, so its
    memory does not grow as 4^N."""
    built = []
    real = fock._tensor_ranks
    monkeypatch.setattr(fock, "_tensor_ranks", lambda m, n: built.append((m, n)) or real(m, n))
    cfg = SuiteConfig(truncation=6, suites=("fock",))
    list(suites.suite_fock(cfg, suites._suite_stream(cfg.seed, "fock")))
    assert (4, 3) in built
    assert [(m, n) for m, n in built if n > 3] == []
