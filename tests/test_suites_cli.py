"""Suite runner determinism, report schema, and the verify CLI contract."""

import copy
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from fockdeform import chiral, cli, suites
from fockdeform.cliconfig import (config_from_json, config_to_json, emit_report,
                                  report_to_json, root_from_json, root_to_json)
from fockdeform.inner import BlaschkeSpec, eval_root, make_root, random_symmetric_blaschke
from fockdeform.suites import (CHECKS, REPORT_SCHEMA, SUITE_NAMES, ConfigError, SuiteConfig,
                               check_memory, run_suite)

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
                              "tolerance", "pass"}
        assert check["anchor"]
    path = tmp_path / "report.json"
    emit_report(report, path)
    assert json.loads(path.read_text())["schema"] == REPORT_SCHEMA


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
        tolerance=1e-9, seed=13, repetitions=4, truncation=4, root_count=2,
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
    '{"repetitions": true}',
    '{"roots": [{"zeros": [], "sign": 1.5}]}',
    '{"seed": Infinity}',
    '{"suites": []}',
    '{"roots": [{"zeros": [[0.5, 1.0], [-0.5, 1.0]], "flip": [[0.3, 0.9], [-0.9, -0.3]]}]}',
    '{"roots": []}',
], ids=["truncation-abc", "tolerance-null", "massless-grid-int", "seed-negative",
        "tolerance-nan", "root-not-object", "ratio-roots-not-list", "truncation-float",
        "seed-float", "points-per-side-float", "repetitions-bool", "root-sign-float",
        "seed-infinite", "suites-empty", "root-unknown-key", "roots-empty"])
def test_cli_malformed_config_exit_2(text, tmp_path, capsys):
    """Bad types and values are configuration errors (exit 2), not tracebacks."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    assert cli.main(["--config", str(cfg_path)]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_non_utf8_config_exit_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(b"\xff\xfe\x7b")
    assert cli.main(["--config", str(cfg_path)]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_late_nan_fails_the_aggregated_check(monkeypatch):
    """A NaN in the second root's report must fail the check, not vanish in a max."""
    real = chiral.check_annihilator_equivalence
    calls = []

    def injected(*args, **kwargs):
        rep = real(*args, **kwargs)
        calls.append(rep)
        return dataclasses.replace(rep, max_vector_direct=math.nan) if len(calls) == 2 else rep

    monkeypatch.setattr(chiral, "check_annihilator_equivalence", injected)
    report = run_suite(SuiteConfig(root_count=2, suites=("main_relation",)))
    rec = next(r for r in report.records if r.check == "annihilator-equivalence-positive")
    assert math.isnan(rec.max_deviation) and not rec.passed


def test_split_roundtrip_probes_with_one_repetition(monkeypatch):
    """repetitions = 1 still takes a probe, so a non-unitary merge is caught."""
    real = chiral.merge_chiral
    monkeypatch.setattr(chiral, "merge_chiral", lambda xi: real(xi) * 1.5)
    report = run_suite(SuiteConfig(repetitions=1, suites=("chiral",)))
    rec = next(r for r in report.records if r.check == "split-roundtrip")
    assert rec.max_deviation > 0.1 and not rec.passed


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
    """A broken reflection law fails the same-square check, and its record says by how much."""
    real = suites.root_ratio
    calls = []

    def injected(*args):
        calls.append(args)
        rep = real(*args)
        return dataclasses.replace(rep, max_reflection_defect=1.0) if len(calls) == 1 else rep

    monkeypatch.setattr(suites, "root_ratio", injected)
    recs = {r.check: r for r in run_suite(SuiteConfig(suites=("inner",))).records}
    assert len(calls) == 2
    assert recs["ratio-classifies-same-square"].max_deviation == 1.0
    assert not recs["ratio-classifies-same-square"].passed
    assert recs["ratio-rejects-distinct-squares"].passed


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
    # the same grids are admitted when the selected suites build no dense oracle
    check_memory(dataclasses.replace(config_from_json(doc), suites=("inner", "kernel")))


def test_default_and_deep_tower_configs_are_admitted():
    deep = json.loads((Path(__file__).parent.parent / "perfbench" / "workloads"
                       / "deep-tower.json").read_text())
    for doc in ({}, deep):
        check_memory(config_from_json(doc))


def test_ceiling_config_is_admitted():
    """N=5 on 8 points per side and 16 massive points: D = 20,349, no D x D matrix."""
    check_memory(config_from_json({"truncation": 5, "massless_grid": {"points_per_side": 8},
                                   "massive_grid": {"size": 16}}))
