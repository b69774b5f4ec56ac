"""Batch verification driver.

    verify [--config cfg.json] [--suite NAME ...] [--tolerance X]
           [--seed N] [--report out.json] [--list-suites]

Runs the selected suites against the configured grids, roots, and truncation,
prints one line per check, optionally writes the JSON report, and exits 0 on
overall pass, 1 on any check failure, 2 on configuration errors, including a
run whose ``suites.memory_estimate`` exceeds physical memory (refused by
``SuiteConfig`` itself before it builds any grid; ``--suite``, ``--seed`` and
``--tolerance`` override the config's keys before it is read, so the run
admitted is the run made), a grid too extreme for absolute deviations, and a
report path that is a directory or lies in a missing one.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .cliconfig import config_from_json, emit_report
from .suites import SUITE_NAMES, ConfigError, run_suite


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Run the operator-identity verification suites and report "
                    "pass/fail per check.")
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON config file (defaults apply for missing keys)")
    parser.add_argument("--suite", action="append", dest="suites", metavar="NAME",
                        help="run only this suite (repeatable); default: all")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="override the default deviation tolerance")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the random seed")
    parser.add_argument("--report", type=Path, default=None,
                        help="write the JSON report to this path")
    parser.add_argument("--list-suites", action="store_true",
                        help="list available suite names and exit")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_suites:
        for name in SUITE_NAMES:
            print(name)
        return 0

    try:
        data = {}
        if args.config is not None:
            data = json.loads(Path(args.config).read_text(encoding="utf-8"))
        overrides = {"suites": args.suites, "seed": args.seed, "tolerance": args.tolerance}
        if isinstance(data, dict):  # read as config keys: the run admitted is the run made
            data = {**data, **{key: value for key, value in overrides.items() if value is not None}}
        cfg = config_from_json(data)
        if args.report is not None and not args.report.parent.is_dir():
            raise ConfigError(f"report directory {args.report.parent} does not exist")
        if args.report is not None and args.report.is_dir():
            raise ConfigError(f"report path {args.report} is a directory")
    except (OSError, ValueError) as exc:  # ValueError: ConfigError, JSON and text decoding
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    report = run_suite(cfg)
    for rec in report.records:
        status = "PASS" if rec.passed else "FAIL"
        bound = (f"must exceed {rec.tolerance:.1e}" if rec.control
                 else f"tol={rec.tolerance:.1e}")
        print(f"{status}  {rec.suite}/{rec.check}  [{rec.anchor}]  "
              f"max_dev={rec.max_deviation:.3e}  {bound}")
    n_pass = sum(r.passed for r in report.records)
    print(f"{'PASS' if report.overall_pass else 'FAIL'}: "
          f"{n_pass}/{len(report.records)} checks in {report.runtime_seconds:.2f}s "
          f"(seed {report.seed})")
    if args.report is not None:
        emit_report(report, args.report)
    return 0 if report.overall_pass else 1


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
