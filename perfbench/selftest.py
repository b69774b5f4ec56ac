"""Self-tests of the benchmark harness, kept apart from the package's tests.

    python3 perfbench/selftest.py

Checks the tracer's self-time arithmetic on a toy nested call with a fake
clock, that hook time is kept out of every span, the tracer's binding-site
patching on the real package, and that the correctness gate rejects a
flipped pass flag, a changed anchor, a NaN deviation, a missing record and a
nonzero exact-zero check.
"""

from __future__ import annotations

import copy
import importlib
import sys
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gate  # noqa: E402
import tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TracerArithmetic(unittest.TestCase):
    def test_self_time_of_nested_calls(self):
        clock = FakeClock()
        tr = tracer.Tracer(clock=clock)

        def leaf():
            clock.now += 2.0

        def middle():
            clock.now += 1.0
            wrapped_leaf()
            clock.now += 0.5
            wrapped_leaf()

        def outer():
            clock.now += 3.0
            wrapped_middle()
            clock.now += 0.25

        wrapped_leaf = tr.wrap("dense:leaf", leaf)
        wrapped_middle = tr.wrap("fock:middle", middle)
        wrapped_outer = tr.wrap("suites:outer", outer)
        wrapped_outer()

        self.assertEqual(tr.stats["dense:leaf"].calls, 2)
        self.assertEqual(tr.stats["dense:leaf"].self_s, 4.0)
        self.assertEqual(tr.stats["fock:middle"].self_s, 1.5)
        self.assertEqual(tr.stats["suites:outer"].self_s, 3.25)
        layers = tr.layer_self_s()
        self.assertEqual(sum(layers.values()), clock.now)
        self.assertEqual(layers["dense"], 4.0)

    def test_hook_time_is_booked_to_the_harness(self):
        clock = FakeClock()
        tr = tracer.Tracer(clock=clock)

        def hook(args, kwargs):
            clock.now += 5.0

        def leaf():
            clock.now += 2.0

        def outer():
            clock.now += 1.0
            wrapped_leaf()

        wrapped_leaf = tr.wrap("dense:leaf", leaf, pre=hook)
        tr.wrap("suites:outer", outer)()
        self.assertEqual(tr.stats["suites:outer"].self_s, 1.0)
        self.assertEqual(tr.stats["dense:leaf"].self_s, 2.0)
        self.assertEqual(tr.harness_s, 5.0)
        self.assertEqual(sum(tr.layer_self_s().values()) + tr.harness_s, clock.now)

    def test_span_closes_when_the_call_raises(self):
        clock = FakeClock()
        tr = tracer.Tracer(clock=clock)

        def failing():
            clock.now += 1.0
            raise ValueError("boom")

        def caller():
            with self.assertRaises(ValueError):
                wrapped_failing()
            clock.now += 1.0

        wrapped_failing = tr.wrap("inner:failing", failing)
        tr.wrap("suites:caller", caller)()
        self.assertEqual(tr.stats["inner:failing"].self_s, 1.0)
        self.assertEqual(tr.stats["suites:caller"].self_s, 1.0)
        self.assertEqual(tr._child_s, [])

    def test_group_counts_outermost_entries_only(self):
        tr = tracer.Tracer()
        tr.groups["fock.ladder"].members[:] = ["fock:annihilate", "fock:_annihilate_with_kernel"]
        inner_fn = tr.wrap("fock:_annihilate_with_kernel", lambda: None)
        outer_fn = tr.wrap("fock:annihilate", lambda: inner_fn())
        outer_fn()
        inner_fn()
        self.assertEqual(tr.groups["fock.ladder"].calls, 2)
        self.assertEqual(tr.stats["fock:_annihilate_with_kernel"].calls, 2)


class TracerInstall(unittest.TestCase):
    def test_patches_every_binding_site_and_restores(self):
        inner_mod = importlib.import_module("fockdeform.inner")
        suites = importlib.import_module("fockdeform.suites")
        deformation = importlib.import_module("fockdeform.deformation")
        dense = importlib.import_module("fockdeform.dense")
        original = inner_mod.eval_root
        tr = tracer.Tracer()
        uninstall = tracer.install(tr)
        try:
            for module in (inner_mod, suites, deformation, importlib.import_module("fockdeform")):
                self.assertIs(module.eval_root.__wrapped__, original)
            self.assertEqual(tr.absent, [])
            root = inner_mod.trivial_root()
            grid = importlib.import_module("fockdeform.grids").rapidity_grid(1.0, 4)
            basis = dense.FockBasis(grid, 2)
            spec = deformation.KernelSpec(root=root, mass=1.0)
            deformation.kernel_matrix(spec, grid)
            deformation.kernel_matrix(spec, grid)
        finally:
            uninstall()
        self.assertIs(inner_mod.eval_root, original)
        self.assertIs(suites.eval_root, original)
        self.assertEqual(tr.groups["deformation.kernel_matrix"].calls, 2)
        self.assertEqual(len(tr.distinct["deformation.kernel_matrix"]), 1)
        self.assertEqual(tr.counters["dense.basis_dim_max"], len(basis))

    def test_missing_function_is_absent_not_an_error(self):
        fake = types.ModuleType("fakepkg")
        fake_inner = types.ModuleType("fakepkg.inner")
        fake_inner.__file__ = "fake_inner.py"
        sys.modules["fakepkg"] = fake
        sys.modules["fakepkg.inner"] = fake_inner
        try:
            tr = tracer.Tracer()
            tracer.install(tr, package="fakepkg")()
        finally:
            del sys.modules["fakepkg"], sys.modules["fakepkg.inner"]
        self.assertIn("fock.symmetrize", tr.absent)
        self.assertIn("inner.eval_root", tr.absent)


def _report():
    return {"checks": [
        {"suite": "inner", "check": "root-squaring", "anchor": "def:1.1(ii)",
         "max_deviation": 1e-16, "tolerance": 1e-10, "pass": True},
        {"suite": "main_relation", "check": "trivial-root-exact", "anchor": "eq:Mainrel",
         "max_deviation": 0.0, "tolerance": 0.0, "pass": True},
    ]}


class Gate(unittest.TestCase):
    def setUp(self):
        self.expected = [{k: r[k] for k in ("suite", "check", "anchor", "pass")}
                         for r in _report()["checks"]]

    def failures(self, report):
        return gate.check_report(report, self.expected)[0]

    def test_accepts_the_recorded_report(self):
        self.assertEqual(gate.check_report(_report(), self.expected), ([], []))

    def test_rejects_a_flipped_pass_flag(self):
        report = _report()
        report["checks"][0]["pass"] = False
        self.assertEqual(len(self.failures(report)), 1)

    def test_rejects_a_changed_anchor(self):
        report = _report()
        report["checks"][0]["anchor"] = "def:1.1(i)"
        self.assertEqual(len(self.failures(report)), 1)

    def test_rejects_a_nan_deviation(self):
        report = _report()
        report["checks"][0]["max_deviation"] = float("nan")
        self.assertEqual(len(self.failures(report)), 1)

    def test_rejects_a_missing_record(self):
        report = _report()
        del report["checks"][1]
        self.assertEqual(len(self.failures(report)), 1)

    def test_exact_zero_check_must_read_zero(self):
        report = _report()
        report["checks"][1]["max_deviation"] = 1e-300
        self.assertEqual(len(self.failures(report)), 1)

    def test_extra_record_is_a_note(self):
        report = _report()
        report["checks"].append(dict(copy.deepcopy(report["checks"][0]), check="new-check"))
        failures, notes = gate.check_report(report, self.expected)
        self.assertEqual((failures, len(notes)), ([], 1))


if __name__ == "__main__":
    unittest.main()
