"""Benchmark of the ``verify`` workflow: time to a verified report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each verify run is a fresh Python
process (``child.py``) that imports the package from ``src/``, parses the
workload config with the given seed, runs the suites one at a time and writes
the JSON report, as ``verify --config perfbench/workloads/NAME.json --seed N
--report out.json`` would.  Runs are sequential (a closed loop with one
client) and start no worker pool.  Every report is checked against the
workload's expected records (``gate.py``).

``--trace 0`` starts verify runs while another is expected to end within
``--seconds`` (at least one) and reports the end-to-end metrics as medians.
The time to a verified report is reported as ``verify_ref``, counted in runs
of a reference loop timed alongside it (see ``child.py``) and chosen per
workload in ``WORKLOADS``; wall seconds are printed for information.
``--trace 1`` runs pairs of an untraced and a traced verify run on the same
rule and reports per-layer metrics from the traced run (``tracer.py``) and
the tracing overhead.

Output: a readable summary, an ``env`` line, and as the last line one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
# The package is single-threaded Python; its BLAS calls are on matrices of at
# most a few hundred rows, where extra BLAS threads only spin and take a second
# processor.  Set before numpy loads here and inherited by every child process.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import gate  # noqa: E402

# workload -> speed-gauge loop (child.py): the kind of work the workload mostly does
WORKLOADS = {"desk-default": "python", "deep-tower": "mixed"}
SETUP_PROBES = 4       # set-up-only processes before each verify run and after the last
DEADLINE_S = 170.0     # no process is started later, so a run ends within 180 s


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _blas():
    """(name and version, thread count) of the BLAS numpy loaded, None where unknown."""
    import numpy
    import numpy.linalg  # noqa: F401  loads the BLAS library
    try:
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError, ValueError):
        name = None
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, int(fn())
    return name, None


def _git(*args):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout if out.returncode == 0 else None


def environment(seed: int) -> dict:
    import numpy
    blas, threads = _blas()
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if commit else None
    return {
        "git_commit": commit.strip() if commit else None,
        "git_dirty": bool(status.strip()) if status is not None else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def spawn(config: Path, seed: int, report: Path, timeout: float, *flags):
    """Run child.py once; returns (timings or None, error or None)."""
    cmd = [sys.executable, str(HERE / "child.py"), str(config), str(seed), str(report), *flags]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, f"exit {proc.returncode}: {tail[0]}"
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(out["package"]).resolve() != (ROOT / "src" / "fockdeform" / "__init__.py").resolve():
        return None, f"imported fockdeform from {out['package']}, not from src/"
    out["setup_s"] = out["suites_start"] - spawned
    return out, None


def layer_metrics(traced: dict, untraced: dict) -> dict[str, float]:
    """Per-layer metric values from one traced and one untraced run."""
    t = traced["trace"]
    stats, groups, counters = t["stats"], t["groups"], t["counters"]
    out = {}
    for name, (calls, members) in groups.items():
        if members:
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = sum(stats[m][1] for m in members)
    for name in ("inner.eval_root", "deformation.kernel_matrix",
                 "deformation.sharp_momentum_twist"):
        if name in t["absent"]:
            continue
        calls = groups[name][0]
        out[f"{name}.distinct_frac"] = t["distinct"].get(name, 0) / calls if calls else 0.0
    for name in ("inner.eval_root.points", "fock.symmetrize.bytes_in", "fock.sector_bytes_max",
                 "dense.basis_dim_max", "dense.op_applications"):
        if name.rsplit(".", 1)[0] not in t["absent"]:
            out[name] = counters.get(name, 0.0)
    for layer, self_s in t["layers"].items():
        out[f"{layer}.self_s"] = self_s
    for suite, wall_s in untraced["suite_wall_s"].items():
        out[f"suites.{suite}.wall_s"] = wall_s
    out["suites.checks"] = traced["checks"]
    out["cliconfig.config_from_json_s"] = untraced["config_from_json_s"]
    out["cliconfig.emit_report_s"] = untraced["emit_report_s"]
    out["trace.verify_s"] = traced["verify_s"]
    out["trace.attributed_frac"] = sum(t["layers"].values()) / traced["verify_s"]
    out["trace.harness_frac"] = t["harness_s"] / traced["verify_s"]
    out["trace.overhead_frac"] = traced["verify_ref"] / untraced["verify_ref"] - 1.0
    return out


def unit_of(metric: str, spec: dict) -> str:
    return spec.get(metric, {}).get("unit", "count")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "fockdeform" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'fockdeform'}; "
              "run from the root of a fockdeform checkout", file=sys.stderr)
        return 2
    started = time.monotonic()
    deadline = started + DEADLINE_S
    config = HERE / "workloads" / f"{args.workload}.json"
    expected_path = HERE / "expected" / f"{args.workload}.json"
    expected = json.loads(expected_path.read_text(encoding="utf-8"))["checks"]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    env = environment(args.seed)

    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    attempted = failed = 0
    errors: list[str] = []
    setup, pairs = [], []
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        report = Path(tmp) / "report.json"

        def probe_setup():
            for _ in range(SETUP_PROBES):
                out, err = spawn(config, args.seed, report, deadline - time.monotonic(),
                                 "--setup-only")
                if out is None:
                    errors.append(f"set-up run: {err}")
                    return
                setup.append(out["setup_s"])

        # untimed warm-up: fills the page cache and, unless Python is told not
        # to, the bytecode cache; costs a user pays once, not on every run
        spawn(config, args.seed, report, deadline - time.monotonic(), "--setup-only")
        gauge = ("--gauge", WORKLOADS[args.workload])
        modes = [gauge] if args.trace == 0 else [gauge, (*gauge, "--trace")]
        measure_start = time.monotonic()
        durations = []
        # start another run only while it is expected to end within --seconds
        while not durations or (time.monotonic() - measure_start
                                + statistics.median(durations) <= args.seconds):
            run_start = time.monotonic()
            probe_setup()  # set-up samples spread over the run, not bunched at its start
            pair = []
            for flags in modes:
                report.unlink(missing_ok=True)
                out, err = spawn(config, args.seed, report,
                                 deadline - time.monotonic(), *flags)
                doc = json.loads(report.read_text(encoding="utf-8")) if out else None
                attempted += len(expected)
                if doc is None:
                    failed += len(expected)
                    errors.append(f"verify run: {err}")
                    break
                fails, notes = gate.check_report(doc, expected)
                failed += len(fails)
                errors.extend(fails)
                for note in notes:
                    print(f"note: {note}")
                out["checks"] = len(doc["checks"])
                pair.append(out)
            if len(pair) != len(modes):
                break
            setup.append(pair[0]["setup_s"])
            pairs.append(pair)
            durations.append(time.monotonic() - run_start)
            if time.monotonic() > deadline:
                break
        probe_setup()

    for err in errors:
        print(f"FAILED: {err}")
    if not pairs:
        print("perfbench: no verify run completed", file=sys.stderr)
        return 1
    runs = [pair[0] for pair in pairs]
    med = statistics.median
    if args.trace == 0:
        samples = {"verify_ref": [r["verify_ref"] for r in runs], "setup_s": setup,
                   "peak_rss_mb": [r["peak_rss_mb"] for r in runs]}
        metrics = {k: med(v) for k, v in samples.items()}
        wall = [r["verify_s"] for r in runs]
    else:
        per_pair = [layer_metrics(traced, untraced) for untraced, traced in pairs]
        metrics = {k: med(p[k] for p in per_pair) for k in per_pair[0]}
        absent = pairs[0][1]["trace"]["absent"]
        if absent:
            print(f"absent (not in the package): {', '.join(absent)}")
    frac = failed / attempted
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(runs)} verify run(s), {len(setup)} set-up sample(s), "
          f"{time.monotonic() - started:.1f} s")
    if args.trace == 0:
        for name, value in metrics.items():
            vals = samples[name]
            print(f"  {name:<20} {value:12.4f} {unit_of(name, spec):<6} median of {len(vals)}, "
                  f"range {min(vals):.4f} .. {max(vals):.4f}")
        print(f"  {'verify_s':<20} {med(wall):12.4f} {'s':<6} median of {len(wall)}, "
              f"range {min(wall):.4f} .. {max(wall):.4f} (wall time, not bounded)")
        print(f"  {'checks_failed_frac':<20} {frac:12.4f} ratio  {failed} of {attempted} "
              "checks failed")
    else:
        for name, value in metrics.items():
            print(f"  {name:<44} {value:14.6g} {unit_of(name, spec)}")
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k, spec)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
