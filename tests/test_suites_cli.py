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
from fockdeform.suites import (REPORT_SCHEMA, SUITE_NAMES, ConfigError, SuiteConfig,
                               _rec, check_memory, run_suite)

FAST = SuiteConfig(suites=("inner", "fock", "kernel"), seed=11)


def test_suite_names_stable():
    assert SUITE_NAMES == ("inner", "fock", "kernel", "deformed", "root_equivalence",
                           "chiral", "main_relation", "field_equivalence", "sharp")


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


def test_rec_non_finite_deviation_never_passes():
    for dev in (float("nan"), math.inf):
        assert not _rec("s", "c", "a", dev, 1e-10).passed
        assert not _rec("s", "c", "a", dev, 1e-10, passed=True).passed
    assert _rec("s", "c", "a", 1e-16, 1e-10).passed
    assert _rec("s", "c", "a", 1.0, 1e-3, passed=True).passed


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
