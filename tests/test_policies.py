import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from risingbandits import (
    ArmState,
    AveragePolicy,
    BanditConfig,
    CurveArmSpec,
    ExponentialCurve,
    InstanceSpec,
    RisingBanditPolicy,
    SoftmaxPolicy,
    ThompsonPolicy,
    UCBPolicy,
    make_policy,
    simulate,
)
from risingbandits.policies import POLICIES, POLICY_NAMES

CURVE = ExponentialCurve(limit=0.9, initial=0.5, decay=0.5)


def _states(*histories):
    out = []
    for i, history in enumerate(histories, start=1):
        out.append(ArmState(arm_id=i, pulls=len(history), history=list(history), reward_sum=sum(history)))
    return out


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestAveragePolicy:
    def test_round_robin_order(self):
        policy = AveragePolicy()
        states = _states([], [], [])
        assert [policy.select(states, t) for t in range(1, 7)] == [1, 2, 3, 1, 2, 3]

    def test_equal_pull_counts_on_divisible_horizon(self):
        instance = InstanceSpec([CurveArmSpec(CURVE), CurveArmSpec(CURVE)])
        trace = simulate(AveragePolicy(), instance, BanditConfig(trials=4))
        assert trace.pull_counts == [2, 2]


class TestUCBPolicy:
    def test_forces_initial_pulls(self):
        policy = UCBPolicy()
        states = _states([0.9], [], [0.1])
        assert policy.select(states, 3) == 2

    def test_prefers_higher_mean_at_equal_counts(self):
        policy = UCBPolicy(exploration_coefficient=1.0)
        states = _states([0.9], [0.1])
        assert policy.select(states, 3) == 1

    def test_bonus_pulls_undersampled_arm(self):
        policy = UCBPolicy(exploration_coefficient=10.0)
        states = _states([0.9] * 50, [0.85])
        assert policy.select(states, 52) == 2

    def test_rejects_nonpositive_coefficient(self):
        with pytest.raises(ValueError):
            UCBPolicy(exploration_coefficient=0.0)


def _softmax_by_choice(states, temperature, rng):
    """The softmax draw made through ``Generator.choice``."""
    logits = np.array([state.reward_sum / state.pulls / temperature for state in states])
    logits -= logits.max()
    probs = np.exp(logits)
    probs /= probs.sum()
    return int(rng.choice(len(states), p=probs)) + 1


class TestSoftmaxPolicy:
    def test_forces_initial_pulls(self):
        policy = SoftmaxPolicy()
        policy.reset(_rng())
        states = _states([0.5], [])
        assert policy.select(states, 2) == 2

    def test_near_uniform_at_high_temperature(self):
        policy = SoftmaxPolicy(temperature=1e6)
        policy.reset(_rng(1))
        states = _states([0.9], [0.1], [0.5])
        draws = [policy.select(states, 4) for _ in range(3000)]
        counts = [draws.count(i) for i in (1, 2, 3)]
        assert stats.chisquare(counts).pvalue > 0.01

    def test_concentrates_at_low_temperature(self):
        policy = SoftmaxPolicy(temperature=0.01)
        policy.reset(_rng(2))
        states = _states([0.9], [0.1])
        draws = [policy.select(states, 3) for _ in range(200)]
        assert draws.count(1) == 200

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            SoftmaxPolicy(temperature=0.0)

    @pytest.mark.parametrize("temperature", [1e-310, 5e-324, float("nan")])
    def test_rejects_temperature_without_a_finite_inverse(self, temperature):
        # A mean over a subnormal temperature overflows to inf, and the
        # probabilities to NaN.
        with pytest.raises(ValueError, match="inverse is not finite"):
            SoftmaxPolicy(temperature=temperature)

    def test_smallest_normal_temperature_draws_the_best_arm(self):
        policy = SoftmaxPolicy(temperature=2.3e-308)
        policy.reset(_rng(5))
        assert policy.select(_states([0.9], [1.0], [0.2]), 4) == 2

    @settings(max_examples=200, deadline=None)
    @given(
        means=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=20),
        pulls=st.integers(1, 50),
        temperature=st.sampled_from([1e-3, 0.01, 0.1, 1.0, 10.0]) | st.floats(1e-3, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_draws_the_arm_generator_choice_draws(self, means, pulls, temperature, seed):
        states = [
            ArmState(arm_id=i, pulls=pulls, reward_sum=mean * pulls) for i, mean in enumerate(means, start=1)
        ]
        policy = SoftmaxPolicy(temperature=temperature)
        policy.reset(_rng(seed))
        reference = _rng(seed)
        for t in range(5):
            assert policy.select(states, len(means) + t) == _softmax_by_choice(states, temperature, reference)


class TestThompsonPolicy:
    def test_mostly_picks_clearly_better_arm(self):
        policy = ThompsonPolicy()
        policy.reset(_rng(3))
        states = _states([0.95] * 30, [0.05] * 30)
        draws = [policy.select(states, 61) for _ in range(300)]
        assert draws.count(1) > 280

    def test_unpulled_arms_draw_from_prior(self):
        policy = ThompsonPolicy()
        policy.reset(_rng(4))
        states = _states([], [])
        draws = {policy.select(states, 1) for _ in range(50)}
        assert draws == {1, 2}

    def test_rejects_nonpositive_prior(self):
        with pytest.raises(ValueError):
            ThompsonPolicy(prior_alpha=0.0)
        with pytest.raises(ValueError):
            ThompsonPolicy(prior_beta=-1.0)


class TestRisingBanditPolicy:
    def test_delegates_to_elimination_run(self):
        arm1 = ExponentialCurve(limit=0.9, initial=0.5, decay=0.5)
        arm2 = ExponentialCurve(limit=0.95, initial=0.3, decay=0.8)
        instance = InstanceSpec([CurveArmSpec(arm1), CurveArmSpec(arm2)])
        trace = simulate(RisingBanditPolicy(), instance, BanditConfig(trials=5))
        assert trace.best_arm == 1
        assert trace.final_j == pytest.approx(0.8, abs=1e-12)

    def test_takes_no_parameters(self):
        with pytest.raises(ValueError):
            make_policy("rising_bandit", growth="smooth")


class TestMakePolicy:
    def test_builds_each_known_policy(self):
        for name in ("average", "ucb", "softmax", "thompson", "rising_bandit"):
            assert make_policy(name).name == name

    def test_policy_names_keep_their_order(self):
        # The order in which error messages list the policies.
        assert POLICY_NAMES == ("average", "ucb", "softmax", "thompson", "rising_bandit")
        assert all(POLICIES[name].name == name for name in POLICY_NAMES)

    def test_forwards_parameters(self):
        assert make_policy("ucb", exploration_coefficient=1.5).exploration_coefficient == 1.5
        assert make_policy("softmax", temperature=0.5).temperature == 0.5

    def test_rejects_unknown_name_and_parameters(self):
        with pytest.raises(ValueError):
            make_policy("epsilon_greedy")
        with pytest.raises(ValueError):
            make_policy("average", temperature=0.5)
