"""Config-file and report JSON for the verification CLI."""

from __future__ import annotations

import json
from pathlib import Path

from .serialization import root_from_json, root_to_json
from .suites import REPORT_SCHEMA, ConfigError, SuiteConfig, SuiteReport

_TOP_LEVEL_KEYS = {
    "tolerance", "seed", "repetitions", "truncation", "root_count",
    "roots", "ratio_roots", "suites", "massless_grid", "massive_grid",
}
# grid section -> {key: (SuiteConfig field, type)}
_GRID_KEYS = {
    "massless_grid": {
        "points_per_side": ("massless_points_per_side", int),
        "p_min": ("massless_p_min", float),
        "p_max": ("massless_p_max", float),
    },
    "massive_grid": {
        "mass": ("massive_mass", float),
        "size": ("massive_size", int),
        "theta_min": ("massive_theta_min", float),
        "theta_max": ("massive_theta_max", float),
    },
}


def _convert(kind, value, where: str):
    """kind(value), with a bad type or value reported as a ConfigError."""
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: expected {kind.__name__}, got {value!r}") from exc


def config_from_json(data: dict) -> SuiteConfig:
    """Build a validated SuiteConfig from a config document; all keys optional."""
    if not isinstance(data, dict):
        raise ConfigError("config document must be a JSON object")
    unknown = set(data) - _TOP_LEVEL_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {}
    for key, kind in (("tolerance", float), ("seed", int), ("repetitions", int),
                      ("truncation", int), ("root_count", int)):
        if key in data:
            kwargs[key] = _convert(kind, data[key], key)
    try:
        if data.get("roots") is not None:
            kwargs["roots"] = tuple(root_from_json(r) for r in data["roots"])
        if data.get("ratio_roots") is not None:
            pair = [root_from_json(r) for r in data["ratio_roots"]]
            if len(pair) != 2:
                raise ConfigError("ratio_roots must hold exactly two roots")
            kwargs["ratio_roots"] = (pair[0], pair[1])
    except (ValueError, KeyError, TypeError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid root data: {exc}") from exc
    if data.get("suites") is not None:
        if not isinstance(data["suites"], list):
            raise ConfigError("suites must be a JSON list of suite names")
        kwargs["suites"] = tuple(str(s) for s in data["suites"])
    for name, fields in _GRID_KEYS.items():
        if name not in data:
            continue
        g = data[name]
        if not isinstance(g, dict):
            raise ConfigError(f"{name} must be a JSON object")
        unknown = set(g) - set(fields)
        if unknown:
            raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
        for key, value in g.items():
            field, kind = fields[key]
            kwargs[field] = _convert(kind, value, f"{name}.{key}")
    try:
        return SuiteConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def config_to_json(cfg: SuiteConfig) -> dict:
    return {
        "tolerance": cfg.tolerance,
        "seed": cfg.seed,
        "repetitions": cfg.repetitions,
        "truncation": cfg.truncation,
        "root_count": cfg.root_count,
        "roots": [root_to_json(r) for r in cfg.roots] if cfg.roots else None,
        "ratio_roots": ([root_to_json(r) for r in cfg.ratio_roots]
                        if cfg.ratio_roots else None),
        "suites": list(cfg.suites) if cfg.suites is not None else None,
        "massless_grid": {
            "points_per_side": cfg.massless_points_per_side,
            "p_min": cfg.massless_p_min,
            "p_max": cfg.massless_p_max,
        },
        "massive_grid": {
            "mass": cfg.massive_mass,
            "size": cfg.massive_size,
            "theta_min": cfg.massive_theta_min,
            "theta_max": cfg.massive_theta_max,
        },
    }


def report_to_json(report: SuiteReport) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "overall_pass": report.overall_pass,
        "runtime_seconds": report.runtime_seconds,
        "seed": report.seed,
        "config": report.config,
        "checks": [
            {
                "suite": r.suite,
                "check": r.check,
                "anchor": r.anchor,
                "max_deviation": r.max_deviation,
                "tolerance": r.tolerance,
                "pass": r.passed,
            }
            for r in report.records
        ],
    }


def emit_report(report: SuiteReport, path) -> None:
    """Write the report document; key order and float formatting are stable."""
    Path(path).write_text(
        json.dumps(report_to_json(report), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
