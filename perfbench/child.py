"""One benchmark run in a fresh process: set up, verify, write the report.

    python3 perfbench/child.py CONFIG SEED REPORT [--gauge python|mixed]
                               [--trace] [--setup-only]

Drives the package's public API the way ``verify --config CONFIG --seed SEED
--report REPORT`` does, one suite at a time so that each suite is timed.
Prints one JSON line of timings; clock readings are ``time.monotonic()``,
which the parent compares with its own spawn time.

While the suites run, a speed gauge times a fixed reference loop every
``GAUGE_INTERVAL_S`` and counts the verify run's wall time in runs of that
loop (``verify_ref``).  The machine's speed changes from second to second;
the count cancels it, because the loop slows down with the program.  The
slow state slows Python dispatch over small arrays more than strided numpy
sums over large ones, so a workload is gauged with a loop that matches the
work it does: ``python`` does the first, ``mixed`` both.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import itertools
import json
import resource
import signal
import time
from pathlib import Path

import numpy as np

GAUGE_INTERVAL_S = 0.1
_SMALL = np.arange(216, dtype=complex).reshape(6, 6, 6)
_LARGE = np.arange(7776, dtype=complex).reshape(6, 6, 6, 6, 6)
_PERMS = list(itertools.permutations(range(5)))[::15]


def python_loop():
    """Python dispatch over small arrays."""
    for i in range(24):
        b = np.transpose(_SMALL, (1, 0, 2)) + _SMALL
        abs(np.exp(1j * b[0, 0]).sum()) + sum({k: k * i for k in range(8)}.values())


def numpy_loop():
    """Strided sums over a 7776-entry tensor, as in symmetrisation."""
    out = np.zeros_like(_LARGE)
    for p in _PERMS:
        out += np.transpose(_LARGE, p)


def mixed_loop():
    python_loop()
    numpy_loop()


GAUGE_LOOPS = {"python": python_loop, "mixed": mixed_loop}


def timed_warm(loop) -> float:
    """Seconds one run of loop takes, timed on a second run so that its code
    and data are warm."""
    loop()
    t0 = time.perf_counter()
    loop()
    return time.perf_counter() - t0


class SpeedGauge:
    """Wall time in runs of the reference loop, sampled on SIGALRM.

    Each tick times the loop and adds the wall time since the previous tick,
    divided by the loop's time, to ``ref``.  The loop's own time is left out.
    ``harness`` runs each tick, so that a tracer can keep it out of its spans.
    """

    def __init__(self, loop, harness=None):
        self.loop = loop
        self.harness = harness or (lambda fn: fn())
        self.ref = 0.0
        self._last = 0.0

    def _tick(self, *_):
        def measure():
            loop_s = timed_warm(self.loop)
            self.ref += (now - self._last) / loop_s

        now = time.perf_counter()
        self.harness(measure)
        self._last = time.perf_counter()

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        self._last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, GAUGE_INTERVAL_S, GAUGE_INTERVAL_S)

    def stop(self) -> float:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._tick()
        return self.ref


def main(argv=None) -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("config", type=Path)
    parser.add_argument("seed", type=int)
    parser.add_argument("report", type=Path)
    parser.add_argument("--gauge", choices=sorted(GAUGE_LOOPS), default="python")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cliconfig = importlib.import_module("fockdeform.cliconfig")
    suites = importlib.import_module("fockdeform.suites")
    data = json.loads(args.config.read_text(encoding="utf-8"))
    data["seed"] = args.seed
    t0 = time.perf_counter()
    cfg = cliconfig.config_from_json(data)
    out = {"package": importlib.import_module("fockdeform").__file__,
           "config_from_json_s": time.perf_counter() - t0}
    if args.setup_only:
        out["suites_start"] = time.monotonic()
        print(json.dumps(out))
        return

    tracer = None
    if args.trace:
        import tracer as tracing  # the benchmark's own module, beside this file
        tracer = tracing.Tracer()
        tracing.install(tracer)
    gauge = SpeedGauge(GAUGE_LOOPS[args.gauge], tracer.harness if tracer is not None else None)

    selected = cfg.suites if cfg.suites is not None else suites.SUITE_NAMES
    out["suites_start"] = start = time.monotonic()
    gauge.start()
    records, wall = [], dict.fromkeys(suites.SUITE_NAMES, 0.0)
    for name in suites.SUITE_NAMES:
        if name in selected:
            s0 = time.perf_counter()
            part = suites.run_suite(dataclasses.replace(cfg, suites=(name,)))
            wall[name] = time.perf_counter() - s0
            records.extend(part.records)
    report = suites.SuiteReport(records=tuple(records), runtime_seconds=sum(wall.values()),
                                seed=cfg.seed, config=cliconfig.config_to_json(cfg))
    e0 = time.perf_counter()
    cliconfig.emit_report(report, args.report)
    emit_s = time.perf_counter() - e0
    verify_ref = gauge.stop()
    out.update(verify_s=time.monotonic() - start, verify_ref=verify_ref,
               emit_report_s=emit_s, suite_wall_s=wall,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        out["trace"] = {
            "stats": {k: [s.calls, s.self_s] for k, s in tracer.stats.items()},
            "groups": {k: [g.calls, g.members] for k, g in tracer.groups.items()},
            "layers": tracer.layer_self_s(),
            "harness_s": tracer.harness_s,
            "counters": tracer.counters,
            "distinct": {k: len(v) for k, v in tracer.distinct.items()},
            "absent": tracer.absent,
        }
    print(json.dumps(out))


if __name__ == "__main__":
    main()
