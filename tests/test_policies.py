import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risingbandits import (
    ArmState,
    AveragePolicy,
    BanditConfig,
    CurveArmSpec,
    ExponentialCurve,
    HpoArmSpec,
    InstanceSpec,
    Policy,
    PowerCurve,
    RisingBanditPolicy,
    SoftmaxPolicy,
    ThompsonPolicy,
    UCBPolicy,
    list_sink,
    make_instance,
    make_policy,
    run_policy,
    simulate,
)
from risingbandits.arms import HPO_COST_HIGH
from risingbandits.bandit import Horizon
from risingbandits.hpo import SEARCH_STRATEGIES
from risingbandits.policies import POLICIES, POLICY_NAMES

from conftest import sum_left_to_right

CURVE = ExponentialCurve(limit=0.9, initial=0.5, decay=0.5)


def _rng(seed=0):
    return np.random.default_rng(seed)


def _observed(policy, *histories):
    """The arm states of a run whose arms have paid out ``histories``: the
    policy is started on fresh states and observes each reward, arm by arm,
    with the pull counted in the arm's state, as the engine passes it."""
    states = [ArmState(arm_id=i) for i in range(1, len(histories) + 1)]
    config = BanditConfig(trials=sum(map(len, histories)) + 1)
    policy.start(states, config, Horizon(config, []))
    for state, history in zip(states, histories):
        for reward in history:
            state.pulls += 1
            policy.observe(state, reward, 1.0)
    return states


class TestAveragePolicy:
    def test_round_robin_order(self):
        policy = AveragePolicy()
        states = [ArmState(arm_id=i) for i in (1, 2, 3)]
        assert [policy.select(states, t) for t in range(1, 7)] == [1, 2, 3, 1, 2, 3]

    def test_equal_pull_counts_on_divisible_horizon(self):
        instance = InstanceSpec([CurveArmSpec(CURVE), CurveArmSpec(CURVE)])
        trace = simulate(AveragePolicy(), instance, BanditConfig(trials=4))
        assert trace.pull_counts == [2, 2]


class TestUCBPolicy:
    def test_forces_initial_pulls(self):
        # At step t <= K a run has pulled arms 1..t-1 once each and no other.
        policy = UCBPolicy()
        states = _observed(policy, [0.9], [], [])
        assert policy.select(states, 2) == 2

    def test_prefers_higher_mean_at_equal_counts(self):
        policy = UCBPolicy()
        states = _observed(policy, [0.9], [0.1])
        assert policy.select(states, 3) == 1

    def test_bonus_pulls_undersampled_arm(self):
        policy = UCBPolicy()
        states = _observed(policy, [0.9] * 50, [0.85])
        assert policy.select(states, 52) == 2


def _softmax_by_choice(histories, rng):
    """The softmax draw made through ``Generator.choice`` over arms that
    have paid out ``histories``."""
    temperature = SoftmaxPolicy.temperature
    logits = np.array([sum_left_to_right(history) / len(history) / temperature for history in histories])
    logits -= logits.max()
    probs = np.exp(logits)
    probs /= probs.sum()
    return int(rng.choice(len(histories), p=probs)) + 1


class _FixedDraw(np.random.Generator):
    """A generator whose every ``random()`` returns ``value``; its
    ``choice`` draws through that override."""

    def __init__(self, value):
        super().__init__(np.random.PCG64(0))
        self.value = value

    def random(self, size=None, dtype=np.float64, out=None):
        return self.value


class TestSoftmaxPolicy:
    def test_forces_initial_pulls(self):
        policy = SoftmaxPolicy()
        policy.rng = _rng()
        states = _observed(policy, [0.5], [])
        assert policy.select(states, 2) == 2

    @settings(max_examples=200, deadline=None)
    @given(
        means=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=20),
        pulls=st.integers(1, 50),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_draws_the_arm_generator_choice_draws(self, means, pulls, seed):
        histories = [[mean] * pulls for mean in means]
        policy = SoftmaxPolicy()
        policy.rng = _rng(seed)
        states = _observed(policy, *histories)
        reference = _rng(seed)
        # The step that follows the pulls the states record.
        step = len(means) * pulls + 1
        for _ in range(5):
            assert policy.select(states, step) == _softmax_by_choice(histories, reference)

    def test_normalises_the_probabilities_before_accumulating_them(self):
        # Accumulating the unnormalised exponentials and scaling the CDF
        # afterwards rounds differently: at this draw it picks arm 1, where
        # Generator.choice on the normalised probabilities picks arm 2.
        draw = 0.9974964563848677
        histories = [[0.9], [0.1], [0.1], [0.25], [0.1]]
        policy = SoftmaxPolicy()
        policy.rng = _FixedDraw(draw)
        states = _observed(policy, *histories)
        assert policy.select(states, 6) == _softmax_by_choice(histories, _FixedDraw(draw)) == 2


class TestThompsonPolicy:
    def test_mostly_picks_clearly_better_arm(self):
        policy = ThompsonPolicy()
        policy.rng = _rng(3)
        states = _observed(policy, [0.95] * 30, [0.05] * 30)
        draws = [policy.select(states, 61) for _ in range(300)]
        assert draws.count(1) > 280

    def test_unpulled_arms_draw_from_prior(self):
        policy = ThompsonPolicy()
        policy.rng = _rng(4)
        states = _observed(policy, [], [])
        draws = {policy.select(states, 1) for _ in range(50)}
        assert draws == {1, 2}


class TestRisingBanditPolicy:
    def test_delegates_to_elimination_run(self):
        arm1 = ExponentialCurve(limit=0.9, initial=0.5, decay=0.5)
        arm2 = ExponentialCurve(limit=0.95, initial=0.3, decay=0.8)
        instance = InstanceSpec([CurveArmSpec(arm1), CurveArmSpec(arm2)])
        trace = simulate(RisingBanditPolicy(), instance, BanditConfig(trials=5))
        assert trace.best_arm == 1
        assert trace.final_j == pytest.approx(0.8, abs=1e-12)

    def test_takes_no_parameters(self):
        with pytest.raises(TypeError):
            make_policy("rising_bandit", growth="smooth")


class TestMakePolicy:
    def test_builds_each_known_policy(self):
        for name in ("average", "ucb", "softmax", "thompson", "rising_bandit"):
            assert make_policy(name).name == name

    def test_policy_names_keep_their_order(self):
        # The order in which error messages list the policies.
        assert POLICY_NAMES == ("average", "ucb", "softmax", "thompson", "rising_bandit")
        assert all(POLICIES[name].name == name for name in POLICY_NAMES)

    def test_rejects_unknown_name_and_parameters(self):
        with pytest.raises(ValueError):
            make_policy("epsilon_greedy")
        with pytest.raises(TypeError):
            make_policy("average", temperature=0.5)
        # The baselines' settings are class constants, not arguments.
        for name in ("ucb", "softmax", "thompson"):
            with pytest.raises(TypeError):
                POLICIES[name](1.0)


def _argmax(scores):
    best, best_score = 1, scores[0]
    for idx, score in enumerate(scores[1:], start=2):
        if score > best_score:
            best, best_score = idx, score
    return best


def _first_unpulled(states):
    for state in states:
        if state.pulls == 0:
            return state.arm_id
    return None


class _KeepsEveryReward(Policy):
    """Keeps each arm's rewards in pull order, and sums them only when a
    select asks: none of the baselines' own per-arm arrays or sums."""

    def start(self, states, config, horizon):
        Policy.start(self, states, config, horizon)
        self._rewards = [[] for _ in states]

    def observe(self, state, reward, cost):
        self._rewards[state.arm_id - 1].append(reward)

    def _sum(self, state):
        return sum_left_to_right(self._rewards[state.arm_id - 1])


class _ReferenceUCB(_KeepsEveryReward, UCBPolicy):
    """UCB scored from every arm's rewards at each select, as before the
    policy kept per-arm arrays."""

    def select(self, states, t):
        forced = _first_unpulled(states)
        if forced is not None:
            return forced
        coefficient, log_t = self.exploration_coefficient, math.log(t)
        scores = [self._sum(st) / st.pulls + coefficient * math.sqrt(log_t / st.pulls) for st in states]
        return _argmax(scores)


class _ReferenceSoftmax(_KeepsEveryReward, SoftmaxPolicy):
    """Softmax with its logits rebuilt from the arms' rewards at each select."""

    def select(self, states, t):
        forced = _first_unpulled(states)
        if forced is not None:
            return forced
        logits = np.array([self._sum(st) / st.pulls / self.temperature for st in states])
        logits -= logits.max()
        probs = np.exp(logits)
        probs /= probs.sum()
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        return int(cdf.searchsorted(self.rng.random(), side="right")) + 1


class _ReferenceThompson(_KeepsEveryReward, ThompsonPolicy):
    """Thompson sampling with one scalar Beta draw per arm at each select."""

    def select(self, states, t):
        beta, alpha0, beta0 = self.rng.beta, self.prior_alpha, self.prior_beta
        draws = []
        for st in states:
            successes = self._sum(st)
            draws.append(beta(alpha0 + successes, beta0 + (st.pulls - successes)))
        return _argmax(draws)


REFERENCES = {"ucb": _ReferenceUCB, "softmax": _ReferenceSoftmax, "thompson": _ReferenceThompson}

# A few shared curves, so that equal arms, and so ties between scores, are common.
REFERENCE_CURVES = (
    ExponentialCurve(limit=0.9, initial=0.5, decay=0.5),
    ExponentialCurve(limit=0.8, initial=0.2, decay=0.9),
    PowerCurve(limit=0.95, scale=0.6, exponent=0.7),
)


@st.composite
def reference_arms(draw):
    kind = draw(st.sampled_from(["exact", "noisy", "hpo"]))
    cost = draw(st.sampled_from([0.5, 1.0, 2.5]))
    if kind == "hpo":
        return HpoArmSpec(strategy=draw(st.sampled_from(SEARCH_STRATEGIES)), mean_cost=cost)
    curve = draw(st.sampled_from(REFERENCE_CURVES))
    amplitude = draw(st.sampled_from([0.02, 0.2])) if kind == "noisy" else 0.0
    return CurveArmSpec(curve, cost=cost, noise_amplitude=amplitude)


@st.composite
def reference_runs(draw):
    k = draw(st.integers(1, 40))
    instance = InstanceSpec(draw(st.lists(reference_arms(), min_size=k, max_size=k)))
    # Past the forced first pulls, so that most selects score the arms.
    pulls = k + draw(st.integers(0, 60))
    if draw(st.sampled_from(["trials", "budget"])) == "trials":
        config = BanditConfig(trials=pulls)
    else:
        # The dearest pull fits, so the first select's arm always does.
        dearest = max(
            HPO_COST_HIGH * spec.mean_cost if isinstance(spec, HpoArmSpec) else spec.cost
            for spec in instance.arms
        )
        config = BanditConfig(budget=dearest * draw(st.floats(1.0, pulls)))
    return instance, config, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=100, deadline=None)
@given(reference_runs())
def test_baselines_select_what_the_state_reading_reference_selects(case):
    # The per-arm arrays and sums that observe keeps give the same pulls, the
    # same trace and the same draws as summing every arm's rewards at each
    # select.
    instance, config, seed = case
    for name, reference in REFERENCES.items():
        runs = []
        for cls in (POLICIES[name], reference):
            policy, rng, steps = cls(), _rng(seed), []
            policy.rng = rng
            trace = run_policy(policy, make_instance(instance, seed), config, list_sink(steps))
            runs.append((steps, trace, rng.bit_generator.state))
        assert runs[0] == runs[1], name
