"""Each check that reads a diagonal multiplier, a relabelling, the reflection or the
trivial-root ladders through the probe oracle fails on a one-line fault of the operator
it certifies: each fault is one that a sample of random vectors also catches, and one
that no random vector of the boost check reached, since those were boosted at shift 0
only."""

import numpy as np
import pytest

from fockdeform import chiral, fock, suites
from fockdeform.suites import CHECKS, SuiteConfig, run_suite


def scaled(real, factor=1 + 1e-6):
    return lambda *args, **kwargs: real(*args, **kwargs) * factor


def split_dropping_one_coefficient(real):
    def split(psi, pair):
        out = real(psi, pair)
        coefficients = out.coefficients.copy()
        coefficients[1] = 0.0
        return out._with(coefficients)
    return split


def scaling_the_last_label_after_a_shift(real):
    """The top sector's last label, (M-1, ..., M-1), scaled by 1.001 when the shift is
    nonzero: no one-particle state reaches it."""
    def boost(shift, psi):
        out = real(shift, psi)
        coefficients = out.coefficients.copy()
        if shift:
            coefficients[-1] *= 1.001
        return out._with(coefficients)
    return boost


# case (the check, then "/" and a name where a check has several) -> (module, function,
# fault built from the real function)
FAULTS = {
    "translation-multiplier": (fock, "apply_translation", scaled),
    "boost-index-shift": (fock, "apply_boost", scaled),
    "boost-index-shift/top-label-after-a-shift": (fock, "apply_boost",
                                                  scaling_the_last_label_after_a_shift),
    "reflection-antiunitary": (fock, "apply_reflection",
                               lambda real: lambda psi: psi._with(psi.coefficients.copy())),
    "symmetrizer-projects": (fock, "sector_tensor", lambda real: scaled(real, 1.5)),
    "phase-dressing-unitary": (suites, "apply_kernel_phases", scaled),
    "trivial-root-degeneration": (suites, "create_deformed",
                                  lambda real: lambda spec, xi, psi: real(
                                      spec, np.asarray(xi) * (1 + 1e-15), psi)),
    "pair-twist-unitary": (suites, "apply_pair_twist", scaled),
    "merge-unitary": (chiral, "merge_chiral", scaled),
    "split-roundtrip": (chiral, "split_chiral", split_dropping_one_coefficient),
    "translation-intertwining": (chiral, "apply_translation_bifock",
                                 lambda real: lambda x, xi: real((x[0], -x[1]), xi)),
    "cross-twist-unitary": (chiral, "apply_cross_twist", scaled),
    "twist-square-is-squared-root": (chiral, "cross_matrix", lambda real: lambda points, fn: real(
        points, lambda a: np.conj(fn(a)))),
    "merged-twist-lemma": (chiral, "apply_cross_twist_fock",
                           lambda real: scaled(real, np.exp(0.1j))),
    "reflection-compatibility": (chiral, "apply_cross_twist_fock",
                                 lambda real: lambda root, psi, adjoint=False: real(root, psi)),
    "twist-unitary-low-sectors": (suites, "sharp_momentum_twist",
                                  lambda real: scaled(real, np.exp(0.1j))),
}


@pytest.mark.parametrize("case", FAULTS)
def test_a_fault_of_the_read_operator_fails_the_check(case, monkeypatch):
    module, name, fault = FAULTS[case]
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    check = case.split("/")[0]
    suite = next(c.suite for c in CHECKS if c.name == check)
    (rec,) = [r for r in run_suite(SuiteConfig(suites=(suite,))).records if r.check == check]
    assert not rec.passed and rec.max_deviation > 0.0


def test_each_suite_draws_from_its_one_stream(monkeypatch):
    """Suite i reads the stream keyed "{seed}/{i}" and no other; the probe phases
    have their own keys, fixed by the basis alone."""
    keys, real = [], fock.Draws.__init__
    monkeypatch.setattr(fock.Draws, "__init__",
                        lambda self, key: keys.append(key) or real(self, key))
    run_suite(SuiteConfig(seed=3))
    assert [k for k in keys if not k.startswith("phase/")] == [
        f"3/{i}" for i in range(len(suites.SUITE_NAMES))]


def test_a_merge_reading_one_coefficient_twice_fails_the_merge_checks(monkeypatch):
    """Two labels of one sector share a DIAGONAL probe column, so the merge's entries see
    such a fault only through their phases; the comparison with the identity relabelling
    and merge split = 1 read it whole."""
    def merge(xi):
        index = xi.layout.merge.copy()
        index[-1] = index[-2]  # the last two labels of the top sector
        return fock.FockVector(xi.pair.union, xi.coefficients[index], xi.truncation)

    monkeypatch.setattr(chiral, "merge_chiral", merge)
    records = {r.check: r for r in run_suite(SuiteConfig(suites=("chiral",))).records}
    for check in ("merge-unitary", "split-roundtrip"):
        assert not records[check].passed and records[check].max_deviation > 0.1
