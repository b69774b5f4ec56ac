"""The seeded draws of :class:`fock.Draws`: keyed streams, prefix consistency, the
moments and ranges of its draws, and the suites' child streams for vectors."""

import dataclasses
import math

import numpy as np
import pytest

from fockdeform.cliconfig import config_from_json
from fockdeform.fock import Draws
from fockdeform.suites import SuiteConfig, run_suite

SIZE = 100_000


def test_equal_keys_give_equal_streams_and_different_keys_different_ones():
    assert np.array_equal(Draws("7/3").standard_normal(50), Draws("7/3").standard_normal(50))
    assert np.array_equal(Draws("7/3").random((4, 5)), Draws("7/3").random(20).reshape(4, 5))
    streams = [Draws(key).random(8) for key in ("7/3", "7/4", "8/3", "7/3/vectors")]
    assert len({tuple(s) for s in streams}) == len(streams)


@pytest.mark.parametrize("method, args", [("random", ()), ("uniform", (-1.5, 2.5)),
                                          ("standard_normal", ())])
@pytest.mark.parametrize("first", [0, 1, 7])
def test_n_draws_then_m_equal_n_plus_m_draws(method, args, first):
    """Scalar and array draws, of any shape, read the one stream in order."""
    split, whole = Draws("prefix"), Draws("prefix")
    head = [getattr(split, method)(*args) for _ in range(first)]
    tail = getattr(split, method)(*args, size=(3, 4)).ravel()
    joined = getattr(whole, method)(*args, size=first + 12)
    assert np.array_equal(np.concatenate([head, tail]), joined)
    assert split.random() == whole.random()


def test_normals_have_mean_zero_and_unit_variance():
    """Within 5 sigma over 10^5 draws: sigma 1/sqrt(n) for the mean, sqrt(2/n) for the
    variance."""
    z = Draws("moments").standard_normal(SIZE)
    assert np.all(np.isfinite(z))
    assert abs(np.mean(z)) < 5 / np.sqrt(SIZE)
    assert abs(np.var(z) - 1.0) < 5 * np.sqrt(2 / SIZE)


@pytest.mark.parametrize("low, high", [(0.0, 1.0), (-1.5, 1.5), (0.02, 30.0)])
def test_uniforms_lie_in_the_half_open_interval(low, high):
    u = Draws(f"uniform/{low}").uniform(low, high, size=SIZE)
    assert low <= u.min() and u.max() < high
    assert abs(np.mean(u) - (low + high) / 2) < 5 * (high - low) / np.sqrt(12 * SIZE)


def test_integers_and_choice_stay_in_range():
    draws = Draws("choice")
    assert {draws.integers(1, 4) for _ in range(200)} == {1, 2, 3}
    assert {int(draws.choice([-1, 1])) for _ in range(200)} == {-1, 1}
    signs = draws.choice([-1.0, 1.0], size=1000)
    assert signs.shape == (1000,) and set(signs.tolist()) == {-1.0, 1.0}


@pytest.mark.parametrize("n, size", [(3, 1), (3, 2), (3, 3), (10, 10), (50, 7)])
def test_choice_without_replacement_is_distinct(n, size):
    for k in range(20):
        picked = Draws(f"sample/{k}").choice(n, size=size, replace=False)
        assert len(picked) == size and len(set(picked.tolist())) == size
        assert 0 <= picked.min() and picked.max() < n


class ArrayDraws(Draws):
    """Reference: every draw, scalar ones too, through one ``getrandbits`` call read as
    an array of 64-bit words, as :meth:`Draws._draw` makes the vector draws."""

    def _draw(self, size, per: int, transform):
        n = per * (1 if size is None else math.prod(size) if isinstance(size, tuple) else size)
        words = np.frombuffer(self._mt.getrandbits(64 * n).to_bytes(8 * n, "little"), np.uint64)
        out = transform((words >> 11).reshape(-1, per).T * 2.0 ** -53)
        return out[0] if size is None else out.reshape(size)

    def random(self, size=None):
        return self._draw(size, 1, lambda u: u[0])

    def uniform(self, low, high, size=None):
        return self._draw(size, 1, lambda u: low + (high - low) * u[0])

    def choice(self, a, size=None, replace=True):
        pool = np.arange(a) if isinstance(a, int) else np.asarray(a)
        if not replace:
            return pool[self._mt.sample(range(len(pool)), size)]
        return self._draw(size, 1, lambda u: pool[(u[0] * len(pool)).astype(np.intp)])


CALLS = [("random", (), {}), ("uniform", (0.2, 2.0), {}), ("uniform", (-2, 2), {}),
         ("choice", ([-1, 1],), {}), ("choice", (7,), {}), ("choice", ([-1.0, 1.0],), {}),
         ("integers", (1, 4), {}), ("standard_normal", (), {}),
         ("random", (), {"size": 5}), ("uniform", (-1.5, 1.5), {"size": (2, 3)}),
         ("standard_normal", (), {"size": (3, 4)}), ("choice", ([-1.0, 1.0],), {"size": 6}),
         ("choice", (5,), {"size": 3, "replace": False})]


@pytest.mark.parametrize("key", ["0/3", "7/1", "scalars"])
def test_scalar_draws_equal_the_array_path_bit_for_bit(key):
    """Scalar ``random``, ``uniform`` and ``choice`` read one word as a Python float; an
    interleaved stream of scalar and vector draws gives the reference's values and
    entry types, and leaves both streams at the same place."""
    draws, reference = Draws(key), ArrayDraws(key)
    order = ArrayDraws(f"order/{key}").choice(len(CALLS), size=300)
    for name, args, kwargs in (CALLS[k] for k in order):
        got = getattr(draws, name)(*args, **kwargs)
        want = getattr(reference, name)(*args, **kwargs)
        assert np.array_equal(got, want) and np.shape(got) == np.shape(want)
        assert np.asarray(got).dtype == np.asarray(want).dtype
    assert draws.random() == reference.random()


# checks that read no random vector, drawn in their suite after some that do
VECTOR_FREE = {"root_equivalence": ("pair-twist-maps-annihilators", "field-conjugation",
                                    "detects-square-mismatch"),
               "chiral": ("merge-exponentials", "twist-boost-kernel-invariance")}


@pytest.mark.parametrize("suite", sorted(VECTOR_FREE))
def test_one_more_vector_moves_no_root_or_amplitude_draw(suite):
    """Vectors come from each suite's child stream: one more repetition draws more
    vectors, and every check that reads roots and amplitudes alone keeps its record
    bit for bit."""
    def records(repetitions):
        cfg = SuiteConfig(suites=(suite,), repetitions=repetitions)
        return {r.check: r.max_deviation for r in run_suite(cfg).records}

    base, more = records(20), records(21)
    for check in VECTOR_FREE[suite]:
        assert more[check] == base[check]


def test_a_control_root_scaled_to_the_grid_separates_the_sharp_variants():
    """At mass 1e-4 the massive grid's |w(p_i, p_j)| lies far below the drawn zeros;
    scaled by their median, the control root still separates the two variants on
    seeds 0-9."""
    cfg = config_from_json({"massive_grid": {"mass": 1e-4}, "suites": ["sharp"]})
    for seed in range(10):
        (rec,) = [r for r in run_suite(dataclasses.replace(cfg, seed=seed)).records
                  if r.check == "variants-differ-as-operators"]
        assert rec.passed
