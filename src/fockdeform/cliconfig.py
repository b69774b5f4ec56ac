"""Config-file and report JSON for the verification CLI.

A root travels as ``{"zeros": [[re, im], ...], "sign": +-1, "flips": [[a, b],
...]}``; ``zeros`` defaults to none, ``sign`` to 1 and ``flips`` to none.  A
zero and a flip are each exactly two JSON numbers.
"""

from __future__ import annotations

import json
from pathlib import Path

from .inner import POLE_EPSILON, BlaschkeSpec, Root, make_root
from .suites import REPORT_SCHEMA, ConfigError, SuiteConfig, SuiteReport

# top-level scalar key -> type; the key is also the SuiteConfig field
_SCALAR_KEYS = {"tolerance": float, "seed": int, "truncation": int, "root_count": int}
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
_LIST_KEYS = ("roots", "ratio_roots", "suites")
_TOP_LEVEL_KEYS = {*_SCALAR_KEYS, *_LIST_KEYS, *_GRID_KEYS}


def _convert(kind, value, where: str):
    """kind(value) if that changes no value: 2.7, "3" and true are ConfigErrors."""
    try:
        out = kind(value)
        exact = out == value and not isinstance(value, bool)
    except (TypeError, ValueError, OverflowError):
        exact = False
    if not exact:
        raise ConfigError(f"{where}: expected {kind.__name__}, got {value!r}")
    return out


def root_to_json(root: Root) -> dict:
    return {"zeros": [[a.real, a.imag] for a in root.base.zeros],
            "sign": root.base.sign,
            "flips": [[a, b] for a, b in root.flips]}


def root_from_json(data) -> Root:
    """Validated root from its JSON object; bad data is a ConfigError."""
    if not isinstance(data, dict):
        raise ConfigError(f"a root must be a JSON object, got {data!r}")
    unknown = set(data) - {"zeros", "sign", "flips"}
    if unknown:
        raise ConfigError(f"unknown root keys: {sorted(unknown)}")
    zeros = tuple(complex(re, im) for re, im in _number_pairs(data, "zeros"))
    # |z - conj a| >= Im a for Im z >= 0, so no evaluation comes within POLE_EPSILON of a pole
    if any(a.imag < POLE_EPSILON for a in zeros):
        raise ConfigError(f"root zeros need Im a >= {POLE_EPSILON}, got {zeros!r}")
    flips = _number_pairs(data, "flips")
    try:
        spec = BlaschkeSpec(zeros=zeros, sign=_convert(int, data.get("sign", 1), "sign"))
        return make_root(spec, flips)
    except ValueError as exc:
        raise ConfigError(f"invalid root data: {exc}") from exc


def _number_pairs(data: dict, key: str) -> tuple[tuple[float, float], ...]:
    """A root's ``zeros`` or ``flips``: a list of [x, y], each a JSON number."""
    items = data.get(key, [])
    if not (isinstance(items, list) and all(isinstance(i, list) and len(i) == 2 for i in items)):
        raise ConfigError(f"root {key} must be a list of [x, y] number pairs, got {items!r}")
    return tuple(tuple(_convert(float, x, f"root {key}") for x in item) for item in items)


def config_from_json(data: dict) -> SuiteConfig:
    """Build a validated SuiteConfig from a config document; all keys optional."""
    if not isinstance(data, dict):
        raise ConfigError("config document must be a JSON object")
    unknown = set(data) - _TOP_LEVEL_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {key: _convert(kind, data[key], key)
              for key, kind in _SCALAR_KEYS.items() if key in data}
    lists = {key: data[key] for key in _LIST_KEYS if data.get(key) is not None}
    for key, value in lists.items():
        if not isinstance(value, list):
            raise ConfigError(f"{key} must be a JSON list")
    if "roots" in lists:
        kwargs["roots"] = tuple(root_from_json(r) for r in lists["roots"])
    if "ratio_roots" in lists:
        kwargs["ratio_roots"] = tuple(root_from_json(r) for r in lists["ratio_roots"])
        if len(kwargs["ratio_roots"]) != 2:
            raise ConfigError("ratio_roots must hold exactly two roots")
    if "suites" in lists:
        kwargs["suites"] = tuple(str(s) for s in lists["suites"])
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
    """The config document that config_from_json reads back to ``cfg``."""
    out = {key: getattr(cfg, key) for key in _SCALAR_KEYS}
    for key in ("roots", "ratio_roots"):
        roots = getattr(cfg, key)
        out[key] = [root_to_json(r) for r in roots] if roots else None
    out["suites"] = list(cfg.suites) if cfg.suites is not None else None
    for name, fields in _GRID_KEYS.items():
        out[name] = {key: getattr(cfg, field) for key, (field, _) in fields.items()}
    return out


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
                "control": r.control,
            }
            for r in report.records
        ],
    }


def emit_report(report: SuiteReport, path) -> None:
    """Write the report document; key order and float formatting are stable."""
    Path(path).write_text(
        json.dumps(report_to_json(report), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
