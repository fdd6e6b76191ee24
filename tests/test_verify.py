"""The verify suites' instance generators draw exactly what numpy's scalar
``Generator.uniform`` would, from the same stream, and each suite names a
failing instance by its index, in the text that ``verify`` prints."""

import hashlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from risingbandits import verify
from risingbandits.cli import main
from risingbandits.curves import RewardCurve, StaircaseCurve, TabulatedCurve
from risingbandits.harness import RegretReport
from risingbandits.verify import ConcaveCase, _uniform

# The bounds each generator draws between.  Three depend on earlier draws
# (initial + 0.15 .. 0.95, start + 0.3 .. 0.97, v1 + 0.002 .. v2 - 0.002):
# one value of each is listed, and the property below covers the rest.
CALL_SITE_BOUNDS = [
    (0.4 + 0.15, 0.95),
    (0.5 + 0.3, 0.97),
    (0.87 + 0.002, 0.89 - 0.002),
    (0.3, 0.8),
    (0.8, 2.0),
    (0.2, 0.98),
    (0.05, 0.9),
    (0.25, 0.6),
    (0.3, 0.97),
    (0.2, 0.9),
    (0.4, 0.6),
    (0.88, 0.95),
    (0.02, 0.08),
    (0.3, 0.9),
    (0.2, 0.8),
    (0.35, 0.78),
    (0.3, 0.7),
]


def _same_draws(low, high, seed, draws=5):
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(draws):
        assert _uniform(a, low, high) == b.uniform(low, high)
    assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("low, high", CALL_SITE_BOUNDS)
def test_uniform_draws_what_generator_uniform_draws(low, high):
    _same_draws(low, high, seed=20240611, draws=1000)


# Bounds whose difference stays finite: numpy refuses a wider range.
_bound = st.floats(-1e300, 1e300)


@given(bounds=st.tuples(_bound, _bound).map(sorted), seed=st.integers(0, 2**32 - 1))
def test_uniform_matches_for_any_finite_bounds(bounds, seed):
    low, high = bounds
    _same_draws(low, high, seed)


def _digest(texts):
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
    return h.hexdigest()


def _first_instances(generator, seed, count=200):
    rng = np.random.default_rng(seed)
    return _digest(repr(generator(rng)) for _ in range(count))


# Recorded from the generators as they drew through rng.uniform.
@pytest.mark.parametrize(
    "generator, seed, digest",
    [
        (
            verify.random_small_instance,
            verify.LEMMA1_SEED,
            "0bea000b33298a3350a6b10692c5ca64dc30421622db0c744dda294fa8bad3de",
        ),
        (
            verify.random_dominant_instance,
            verify.CONCAVE_BATTERY_SEED,
            "013d2da46239460ec7d44c59eedcc61243e9a4b3553cf1e4b81b6c7c7e7bc7db",
        ),
        (
            verify.theorem2_instance,
            verify.THEOREM2_SEED,
            "fea8806479acb00347f90843e2366c1a8d1c45cdb05f67aa31ff677bd498fe46",
        ),
    ],
    ids=["small", "dominant", "theorem2"],
)
def test_generators_make_the_recorded_instances(generator, seed, digest):
    assert _first_instances(generator, seed) == digest


def test_allocation_instance_is_the_recorded_one():
    digest = "f3582403991053ec09b64b8ef0ccdcd6e715e121d90b5395718146c889bc8316"
    assert _digest([repr(verify.allocation_instance())]) == digest


def _case(condition_holds, regret, avg_policy_regret):
    report = RegretReport(
        horizon=10,
        policies={},
        regrets={"rising_bandit": regret},
        corollary1_condition_holds=condition_holds,
        avg_policy_regret=avg_policy_regret,
    )
    return ConcaveCase((1,), report)


def test_corollary1_names_the_battery_index():
    # Case 0 does not apply, so case 1 is the first applicable one: a suite
    # that numbered applicable cases would call it instance 0.
    battery = [_case(False, 0.5, 0.0), _case(True, 0.5, 0.1), _case(True, 0.0, 0.1)]
    result = verify.suite_corollary1(battery)
    assert result.total == 2
    assert result.failures == ["instance 1: regret 0.5 exceeds round-robin regret 0.1"]


def test_safety_names_the_eliminated_oracle_arm():
    # Case 0 kept its oracle arm 1; case 1 dropped its oracle arm 2.
    battery = [
        ConcaveCase((1, 2), RegretReport(horizon=10, policies={}, oracle_arm=1)),
        ConcaveCase((1,), RegretReport(horizon=10, policies={}, oracle_arm=2)),
    ]
    result = verify.suite_safety(battery)
    assert result.total == 2
    assert result.failures == ["instance 1: optimal arm 2 eliminated"]


def _bound_case(regret, bound):
    report = RegretReport(horizon=10, policies={}, regrets={"rising_bandit": regret}, theorem1_bound=bound)
    return ConcaveCase((1,), report)


def test_theorem1_names_a_regret_above_the_bound():
    # A regret equal to its bound holds; one above it fails.
    battery = [_bound_case(0.2, 0.2), _bound_case(0.3, 0.2)]
    result = verify.suite_theorem1(battery)
    assert result.total == 2
    assert result.failures == ["instance 1: regret 0.3 exceeds bound 0.2"]


class _PeakedCurve(RewardCurve):
    """Best at its first pull: no curve of the package falls, but then the
    best reward a pull sequence observes is not the value at the horizon."""

    limit = 0.9

    def eval(self, n):
        return 0.9 if n == 1 else 0.5


def test_lemma1_names_an_exact_maximum_off_the_analytic_one(monkeypatch):
    instances = iter([([TabulatedCurve([0.5])], 4), ([_PeakedCurve()], 4)])
    monkeypatch.setattr(verify, "random_small_instance", lambda rng: next(instances))
    result = verify.suite_lemma1(count=2)
    assert result.total == 2
    assert result.failures == ["instance 1: exact maximum 0.9 != analytic 0.5"]


def test_theorem2_names_a_wrongly_returned_arm(monkeypatch):
    # Flat arms meet the ratio condition, and arm 1 is the oracle's argmax.
    curves = [TabulatedCurve([0.9]), TabulatedCurve([0.5])]
    monkeypatch.setattr(verify, "theorem2_instance", lambda rng: (curves, 30, 1))
    returned = iter([1, 2])
    monkeypatch.setattr(verify, "rising_bandit_run", lambda arms, config: SimpleNamespace(best_arm=next(returned)))
    result = verify.suite_theorem2(count=2)
    assert result.total == 2
    assert result.failures == ["instance 1: returned arm 2, optimal is 1"]


# Flat arms have no bias, so they meet the ratio condition; a staircase with
# plateaus shorter than the smooth window does not.
THEOREM2_BROKEN_FIXTURES = {
    "leader_not_the_argmax": (
        [TabulatedCurve([0.5]), TabulatedCurve([0.9])],
        "the generator made arm 1 the leader, but the oracle picks arm 2",
    ),
    "bias_ratio": (
        [TabulatedCurve([0.95]), StaircaseCurve(0.1, 0.9, plateau_length=3, jump_fraction=0.5)],
        "arm 2 fails the bias-ratio condition",
    ),
}


@pytest.mark.parametrize("name", THEOREM2_BROKEN_FIXTURES)
def test_theorem2_fixture_break_is_a_fixture_error(name, monkeypatch, capsys):
    # A broken fixture stops the suite, as in the battery, rather than
    # counting as a failure of the algorithm.
    curves, message = THEOREM2_BROKEN_FIXTURES[name]
    monkeypatch.setattr(verify, "theorem2_instance", lambda rng: (curves, 30, 1))
    with pytest.raises(verify.FixtureError, match=f"^theorem2 instance 0: {message}$"):
        verify.suite_theorem2(count=3)
    assert main(["verify", "theorem2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"invariant violation: theorem2 instance 0: {message}\n"
    assert captured.out == ""
