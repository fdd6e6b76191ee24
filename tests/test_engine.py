"""Properties of the one simulation engine, over every policy and both horizons."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risingbandits import (
    BanditConfig,
    ConfigurationError,
    CurveArmSpec,
    ExponentialCurve,
    HpoArmSpec,
    InstanceSpec,
    Policy,
    PowerCurve,
    TabulatedCurve,
    make_instance,
    make_policy,
    run_policy,
    simulate,
)
from risingbandits.arms import HPO_COST_HIGH
from risingbandits.hpo import SEARCH_STRATEGIES
from risingbandits.policies import POLICY_NAMES

ARM = ExponentialCurve(limit=0.9, initial=0.5, decay=0.5)


@st.composite
def arm_specs(draw):
    limit = draw(st.floats(0.2, 0.98))
    initial = draw(st.floats(0.05, 0.95)) * limit
    if draw(st.booleans()):
        curve = ExponentialCurve(limit=limit, initial=initial, decay=draw(st.floats(0.2, 0.9)))
    else:
        curve = PowerCurve(limit=limit, scale=limit - initial, exponent=draw(st.floats(0.5, 2.0)))
    cost = draw(st.sampled_from([0.3, 1.0, 2.5, 10.0]))
    if draw(st.booleans()):
        return CurveArmSpec(curve, noise_amplitude=draw(st.floats(0.01, 0.1)), cost=cost)
    return CurveArmSpec(curve, cost=cost)


@st.composite
def hpo_arm_specs(draw):
    return HpoArmSpec(
        objective=draw(st.sampled_from(["sphere", "rosenbrock", "quadratic"])),
        dimension=draw(st.integers(2, 3)),
        strategy=draw(st.sampled_from(SEARCH_STRATEGIES)),
        mean_cost=draw(st.sampled_from([0.5, 1.0, 2.5])),
    )


def _dearest_pull(spec):
    return HPO_COST_HIGH * spec.mean_cost if isinstance(spec, HpoArmSpec) else spec.cost


@st.composite
def experiments(draw, arms=arm_specs()):
    instance = InstanceSpec(draw(st.lists(arms, min_size=1, max_size=4)))
    growth = draw(st.sampled_from(["last", "smooth"]))
    window = draw(st.integers(1, 5))
    if draw(st.booleans()):
        config = BanditConfig(trials=draw(st.integers(1, 40)), growth=growth, smooth_window=window)
    else:
        # At least the dearest arm's cost, so every policy's first pull fits.
        most = max(map(_dearest_pull, instance.arms))
        budget = most * draw(st.floats(1.0, 12.0))
        config = BanditConfig(budget=budget, growth=growth, smooth_window=window)
    return instance, config, draw(st.integers(0, 2**16))


def _rounds(steps):
    """Index of the elimination round each step belongs to.

    Within a round candidates are pulled in increasing id order, so a step
    whose arm is not above the previous step's arm opens the next round.
    """
    out, r, prev = [], 0, 0
    for step in steps:
        if step.arm <= prev:
            r += 1
        out.append(r)
        prev = step.arm
    return out


@settings(max_examples=60, deadline=None)
@given(experiments())
def test_engine_invariants(case):
    instance, config, seed = case
    for name in POLICY_NAMES:
        steps = []
        trace = simulate(make_policy(name), instance, config, seed=seed, sink=steps.append)
        n = len(steps)
        assert trace.horizon == n
        if config.trials is not None:
            assert n == config.trials
        else:
            assert trace.total_cost <= config.budget + 1e-12
        assert sum(trace.pull_counts) == n
        assert [s.t for s in steps] == list(range(1, n + 1))
        assert trace.final_j == max(s.reward for s in steps)
        assert steps[trace.best_step - 1].reward == trace.final_j
        assert steps[trace.best_step - 1].arm == trace.best_arm
        assert all(s.reward < trace.final_j for s in steps[: trace.best_step - 1])

        history = trace.candidate_history
        assert history[0] == tuple(range(1, instance.k + 1))
        for before, after in zip(history, history[1:]):
            assert set(after) <= set(before)
        if name != "rising_bandit":
            assert len(history) == 1
            assert all(s.candidate_set_size == instance.k for s in steps)
            continue
        rounds = _rounds(steps)
        for step, r in zip(steps, rounds):
            assert step.arm in history[r]
            assert step.candidate_set_size == len(history[r])
        if config.trials is not None:
            # No sweep follows the round that uses up the trials.
            assert len(history) == rounds[-1] + 1
        else:
            # The run ends only when no candidate's next pull fits.
            assert len(history) == rounds[-1] + 2
            left = config.budget - trace.total_cost
            assert all(instance.arms[a - 1].cost > left - 1e-9 for a in history[-1])


@settings(max_examples=40, deadline=None)
@given(experiments(st.one_of(arm_specs(), hpo_arm_specs())))
def test_a_sink_does_not_change_the_run(case):
    instance, config, seed = case
    for name in POLICY_NAMES:
        steps = []
        with_sink = simulate(make_policy(name), instance, config, seed=seed, sink=steps.append)
        assert simulate(make_policy(name), instance, config, seed=seed) == with_sink
        assert len(steps) == with_sink.horizon


def _sum_left_to_right(values):
    total = 0.0
    for value in values:
        total += value
    return total


@settings(max_examples=40, deadline=None)
@given(experiments())
def test_reward_sums_match_histories(case):
    instance, config, seed = case
    for name in POLICY_NAMES:
        policy = make_policy(name)
        runs = []
        start = policy.start

        def capture(states, config, horizon):
            runs.append(states)
            start(states, config, horizon)

        policy.start = capture
        simulate(policy, instance, config, seed=seed)
        for state in runs[0]:
            # Up to Python 3.11 sum() adds left to right, as the engine does;
            # from 3.12 it compensates rounding, so compare with a plain loop.
            expected = sum(state.history) if sys.version_info < (3, 12) else _sum_left_to_right(state.history)
            assert state.reward_sum == expected
            assert len(state.history) == state.pulls


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_budget_below_every_cost_is_a_configuration_error(name):
    instance = InstanceSpec([CurveArmSpec(ARM, cost=1.0), CurveArmSpec(ARM, cost=2.0)])
    with pytest.raises(ConfigurationError, match="budget too small"):
        simulate(make_policy(name), instance, BanditConfig(budget=0.5))


@pytest.mark.parametrize("name", ["average", "ucb", "softmax", "thompson"])
@pytest.mark.parametrize(
    "second_cost, message",
    [
        # Another arm fits: the baseline still stops at its first pick, and the message says so.
        (1.0, r"policy '{name}' chose arm 1 for its first pull, at cost 1e\+300, above the budget 3.0"),
        (4.0, "budget too small for a single pull"),
    ],
    ids=["another_arm_fits", "no_arm_fits"],
)
def test_unaffordable_first_pick_message(name, second_cost, message):
    expensive = CurveArmSpec(TabulatedCurve([0.5]), cost=1e300)
    instance = InstanceSpec([expensive, CurveArmSpec(TabulatedCurve([0.2]), cost=second_cost)])
    with pytest.raises(ConfigurationError, match=f"^{message.format(name=name)}$"):
        simulate(make_policy(name), instance, BanditConfig(budget=3.0))


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_budget_fits_within_epsilon(name):
    # 0.1 + 0.1 + 0.1 > 0.3 in floating point; the third pull still fits.
    instance = InstanceSpec([CurveArmSpec(ARM, cost=0.1)])
    trace = simulate(make_policy(name), instance, BanditConfig(budget=0.3))
    assert trace.pull_counts == [3]


def test_invalid_selection_is_a_configuration_error():
    class OutOfRange(Policy):
        name = "out_of_range"

        def select(self, states, t):
            return len(states) + 1

    arms = make_instance(InstanceSpec([CurveArmSpec(ARM)]), 0)
    with pytest.raises(ConfigurationError, match="invalid arm 2"):
        run_policy(OutOfRange(), arms, BanditConfig(trials=3))


def test_one_select_and_one_observe_per_pull():
    class Counting(Policy):
        name = "counting"

        def __init__(self):
            self.selects = self.observes = 0

        def select(self, states, t):
            self.selects += 1
            return 1

        def observe(self, state):
            self.observes += 1

    policy = Counting()
    arms = make_instance(InstanceSpec([CurveArmSpec(ARM)]), 0)
    run_policy(policy, arms, BanditConfig(trials=7))
    assert (policy.selects, policy.observes) == (7, 7)
