"""Correctness gate: compare a verify report with a workload's expected records.

The expected file lists ``(suite, check, anchor, pass)`` for every check the
workload runs.  A check fails the gate when its record is missing from the
report, its anchor or pass flag differs, it did not pass, or its deviation is
not finite.  The exact-zero checks must read exactly 0.0.  Records the report
has beyond the expected ones are returned as notes, not failures.
"""

from __future__ import annotations

import math

EXACT_ZERO_CHECKS = ("trivial-root-exact", "trivial-root-degeneration")


def check_report(report: dict, expected: list[dict]) -> tuple[list[str], list[str]]:
    """Return (failures, notes) for one report document; one failure per bad check."""
    got = {(r["suite"], r["check"]): r for r in report.get("checks", [])}
    failures = []
    for exp in expected:
        key = (exp["suite"], exp["check"])
        name = "/".join(key)
        rec = got.pop(key, None)
        if rec is None:
            failures.append(f"{name}: missing from the report")
        elif rec.get("anchor") != exp["anchor"]:
            failures.append(f"{name}: anchor {rec.get('anchor')!r}, expected {exp['anchor']!r}")
        elif rec.get("pass") is not True or exp["pass"] is not True:
            failures.append(f"{name}: pass={rec.get('pass')!r}, expected {exp['pass']!r}")
        elif not isinstance(rec.get("max_deviation"), (int, float)) \
                or not math.isfinite(rec["max_deviation"]):
            failures.append(f"{name}: deviation {rec.get('max_deviation')!r} is not finite")
        elif key[1] in EXACT_ZERO_CHECKS and rec["max_deviation"] != 0.0:
            failures.append(f"{name}: deviation {rec['max_deviation']!r} is not exactly 0.0")
    notes = [f"{s}/{c}: not in the expected records" for s, c in got]
    return failures, notes

