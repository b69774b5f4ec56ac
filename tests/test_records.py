"""Golden records: every check of the default config, of the deep-tower workload
and of N=4 on 6 points per side and 12 massive points ("n4") on seeds 0-9, and of
N=5 on 8 points per side and 16 massive points ("ceiling", where the probe blocks
of a move are cut into several) on seeds 0-2, as (suite, check, anchor, pass,
max_deviation) rows in ``tests/data/records.json``.

A run matches its golden rows when the suites, checks, anchors and pass flags
are equal and each deviation lies within 1e-14 + 1e-12 |golden| of the golden
one; the exact-zero checks read exactly 0.0.  Tier-1 runs default seeds 0-2,
deep seed 0 and n4 seed 0 in process.  A written report compares with

    python3 tests/test_records.py default 3 report.json

which exits 1 and lists the mismatches.  With ``--one-slot-runs`` it also runs
that config and seed in process with every run of roots (and of (root, momentum)
pairs in the sharp suite) cut to one slot, and requires the same records, every
deviation bit for bit:

    PYTHONPATH=src python3 tests/test_records.py --one-slot-runs default 3 report.json

Regenerate the file only for a change that moves records on purpose, and say
which and why in CHANGES.md:

    PYTHONPATH=src python3 tests/test_records.py --write
"""

import contextlib
import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

from fockdeform import dense
from fockdeform.cliconfig import config_from_json, report_to_json
from fockdeform.suites import run_suite

GOLDEN = Path(__file__).parent / "data" / "records.json"
CONFIGS = {
    "default": {},
    "deep": json.loads((Path(__file__).parent.parent / "perfbench" / "workloads"
                        / "deep-tower.json").read_text()),
    "n4": {"truncation": 4, "massless_grid": {"points_per_side": 6}, "massive_grid": {"size": 12}},
    "ceiling": {"truncation": 5, "massless_grid": {"points_per_side": 8},
                "massive_grid": {"size": 16}},
}
SEEDS = {name: range(3 if name == "ceiling" else 10) for name in CONFIGS}
EXACT_ZERO = {"trivial-root-exact", "trivial-root-degeneration"}


def records(doc: dict) -> list[list]:
    """The golden fields of each check of a report document, in report order."""
    return [[r["suite"], r["check"], r["anchor"], r["pass"], r["max_deviation"]]
            for r in doc["checks"]]


def run_records(name: str, seed: int) -> list[list]:
    cfg = dataclasses.replace(config_from_json(CONFIGS[name]), seed=seed)
    return records(report_to_json(run_suite(cfg)))


@contextlib.contextmanager
def one_slot_runs():
    """Every :func:`dense.copy_chunks` run holds one slot: the chunk rule runs under
    a budget of D (N + 1) entries, the sector columns of one slot.  Probe blocks and
    random batches keep the normal budget (random batches of another size round
    differently, which is no property of the root runs)."""
    real = dense.copy_chunks

    def chunks(count, domain, pattern):
        budget = dense._BLOCK_ENTRIES
        dense._BLOCK_ENTRIES = len(domain) * (domain.truncation + 1)
        try:
            return real(count, domain, pattern)
        finally:
            dense._BLOCK_ENTRIES = budget

    dense.copy_chunks = chunks
    try:
        yield
    finally:
        dense.copy_chunks = real


def mismatches(got: list[list], want: list[list]) -> list[str]:
    """Each row of ``got`` that does not match its golden row, as a message."""
    if [row[:4] for row in got] != [row[:4] for row in want]:
        return [f"checks or pass flags differ: {[row[:4] for row in got]}"]
    out = []
    for (suite, check, _, _, dev), (*_, golden) in zip(got, want):
        exact = check in EXACT_ZERO
        if not (dev == 0.0 if exact else
                math.isfinite(dev) and abs(dev - golden) <= 1e-14 + 1e-12 * abs(golden)):
            out.append(f"{suite}/{check}: {dev!r}, golden {golden!r}")
    return out


def golden(name: str, seed: int) -> list[list]:
    return json.loads(GOLDEN.read_text())[name][str(seed)]


@pytest.mark.parametrize("name, seed", [("default", 0), ("default", 1), ("default", 2),
                                        ("deep", 0), ("n4", 0)])
def test_records_match_the_golden_file(name, seed):
    assert mismatches(run_records(name, seed), golden(name, seed)) == []


def test_golden_file_covers_every_config_on_seeds_0_to_9():
    """Seeds 0-9 of each config, 0-2 of the ceiling."""
    doc = json.loads(GOLDEN.read_text())
    assert list(doc) == list(CONFIGS)
    for name, by_seed in doc.items():
        assert sorted(by_seed, key=int) == [str(s) for s in SEEDS[name]]
        assert all(row[3] for rows in by_seed.values() for row in rows)
        assert all(row[4] == 0.0 for rows in by_seed.values() for row in rows
                   if row[1] in EXACT_ZERO)


@pytest.mark.parametrize("seed", [0, 7])
def test_records_do_not_depend_on_the_root_runs(seed):
    """The batched suites (deformed, chiral, main_relation, field_equivalence, sharp)
    give the same records, bit for bit, with one root per run as with all roots in
    one run; the exact-zero checks read 0.0 both ways."""
    whole = run_records("default", seed)
    with one_slot_runs():
        assert len(dense.copy_chunks(5, dense.FockBasis(config_from_json({}).massive_grid(), 3),
                                     dense.LOWER)) == 5
        single = run_records("default", seed)
    assert single == whole
    assert all(row[4] == 0.0 for row in whole if row[1] in EXACT_ZERO)


def test_a_moved_deviation_is_reported():
    want = golden("deep", 0)
    moved = [row[:4] + [row[4] * (1 + 1e-9) + 1e-13] for row in want]
    assert len(mismatches(moved, want)) == len(want)
    assert mismatches(want, want) == []


def write_golden() -> None:
    doc = {name: {str(s): run_records(name, s) for s in SEEDS[name]} for name in CONFIGS}
    lines = ["{"]
    for i, (name, by_seed) in enumerate(doc.items()):
        lines.append(f"  {json.dumps(name)}: {{")
        for j, (seed, rows) in enumerate(by_seed.items()):
            lines.append(f"    {json.dumps(seed)}: [")
            lines.extend(f"      {json.dumps(row)}" + ("," if k < len(rows) - 1 else "")
                         for k, row in enumerate(rows))
            lines.append("    ]" + ("," if j < len(by_seed) - 1 else ""))
        lines.append("  }" + ("," if i < len(doc) - 1 else ""))
    lines.append("}")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    args = sys.argv[1:]
    if args == ["--write"]:
        write_golden()
    else:
        one_slot = args[0] == "--one-slot-runs"
        name, seed, report = args[one_slot:]
        got = records(json.loads(Path(report).read_text()))
        found = mismatches(got, golden(name, seed))
        if one_slot:
            with one_slot_runs():
                single = run_records(name, int(seed))
            found += [f"one slot per run: {row!r}, report {want!r}"
                      for row, want in zip(single, got) if row != want]
            found += [] if len(single) == len(got) else ["one slot per run: record count"]
        print("\n".join(found) or f"{name} seed {seed}: records match {GOLDEN.name}"
                                   + (" and the one-slot runs" if one_slot else ""))
        sys.exit(1 if found else 0)
