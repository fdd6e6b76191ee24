import math
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from risingbandits import (
    ArmState,
    BanditConfig,
    ConfigurationError,
    CurveArmSpec,
    ExponentialCurve,
    InstanceSpec,
    PowerCurve,
    RisingBanditPolicy,
    TabulatedCurve,
    eliminate,
    growth_rate,
    make_instance,
    offline_max_run,
    rising_bandit_run,
    run_policy,
    upper_bound,
)
from risingbandits.bandit import DEFAULT_EPSILON, Horizon, list_sink

from conftest import AlwaysSweeping, record_plans

ARM1 = ExponentialCurve(limit=0.9, initial=0.5, decay=0.5)
ARM2 = ExponentialCurve(limit=0.95, initial=0.3, decay=0.8)


def _arms(*curves, costs=None, seed=0):
    costs = costs or [1.0] * len(curves)
    spec = InstanceSpec([CurveArmSpec(c, cost=k) for c, k in zip(curves, costs)])
    return make_instance(spec, seed)


class TestBanditConfig:
    def test_requires_exactly_one_horizon(self):
        with pytest.raises(ConfigurationError):
            BanditConfig()
        with pytest.raises(ConfigurationError):
            BanditConfig(trials=5, budget=10.0)

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            BanditConfig(trials=0)
        with pytest.raises(ConfigurationError):
            BanditConfig(budget=0.0)
        with pytest.raises(ConfigurationError):
            BanditConfig(trials=5, growth="cubic")
        with pytest.raises(ConfigurationError):
            BanditConfig(trials=5, smooth_window=0)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"budget": math.inf}, "budget must be positive and finite"),
            ({"budget": math.nan}, "budget must be positive and finite"),
            ({"trials": math.inf}, "trials must be an integer >= 1"),
            ({"trials": math.nan}, "trials must be an integer >= 1"),
            ({"trials": 2.5}, "trials must be an integer >= 1"),
            ({"trials": 5, "smooth_window": 2.5}, "smooth window must be an integer >= 1"),
        ],
        ids=["budget_inf", "budget_nan", "trials_inf", "trials_nan", "trials_fraction", "smooth_window_fraction"],
    )
    def test_rejects_numbers_made_in_code(self, fields, message):
        # A configuration file cannot give these: it refuses non-finite
        # numbers and parses counts as integers.
        with pytest.raises(ConfigurationError, match=message):
            BanditConfig(**fields)

    def test_counts_are_what_operator_index_accepts(self):
        # numpy integers are counts; 3.0 is not, though it equals one.
        config = BanditConfig(trials=np.int64(5), smooth_window=np.int32(3))
        assert (config.trials, config.smooth_window) == (5, 3)
        with pytest.raises(ConfigurationError, match="trials must be an integer >= 1, got 3.0"):
            BanditConfig(trials=3.0)

    def test_window_is_one_under_last_growth(self):
        # Last growth is the smooth rate over one increment, whatever smooth_window says.
        assert BanditConfig(trials=5, growth="last", smooth_window=5).window == 1
        assert BanditConfig(trials=5, growth="smooth", smooth_window=5).window == 5


class TestGrowthRate:
    def test_last_mode_is_final_increment(self):
        assert growth_rate([0.1, 0.4, 0.5], 1) == pytest.approx(0.1)

    def test_smooth_mode_averages_window(self):
        history = [0.0, 0.1, 0.3, 0.6, 1.0]
        assert growth_rate(history, 3) == pytest.approx((1.0 - 0.1) / 3)

    def test_smooth_mode_fallback_below_window(self):
        history = [0.2, 0.5, 0.6]
        assert growth_rate(history, 7) == pytest.approx((0.6 - 0.2) / 2)

    def test_requires_two_observations(self):
        with pytest.raises(ValueError, match=r"^growth rate needs >= 2 observations, got 1$"):
            growth_rate([0.5], 1)

    @settings(max_examples=100, deadline=None)
    @given(history=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=30))
    def test_window_of_one_is_the_last_increment_exactly(self, history):
        # x / 1 == x: a window of one is the last increment, to the bit.
        assert growth_rate(history, 1) == history[-1] - history[-2]

    @settings(max_examples=50, deadline=None)
    @given(
        increments=st.lists(st.floats(0.0, 0.1), min_size=1, max_size=20),
        window=st.integers(1, 10),
    )
    def test_smooth_rate_nonnegative_for_rising_history(self, increments, window):
        history = list(np.cumsum([0.1] + increments))
        assert growth_rate(history, window) >= 0.0

    @settings(max_examples=100, deadline=None)
    @given(
        history=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=30),
        window=st.integers(1, 12),
    )
    def test_reads_only_the_last_window_plus_one(self, history, window):
        # A run keeps each arm's last window + 1 rewards in a list that drops
        # its oldest once it holds that many: the rewards this deque holds.
        kept = deque(history, maxlen=window + 1)
        assert growth_rate(kept, window) == growth_rate(history, window)


class TestUpperBound:
    def test_linear_extrapolation(self):
        assert upper_bound(0.6, omega=0.1, pulls_left=3) == pytest.approx(0.9)

    def test_capped_at_one(self):
        assert upper_bound(0.9, omega=0.4, pulls_left=98) == 1.0

    def test_zero_growth_pins_upper_to_lower(self):
        assert upper_bound(0.95, omega=0.0, pulls_left=497) == pytest.approx(0.95)

    @pytest.mark.parametrize(
        "config", [BanditConfig(trials=6), BanditConfig(budget=6.0)], ids=["trials", "budget"]
    )
    def test_upper_stays_one_after_first_pull(self, config):
        # One observation gives no growth rate, so 1 is the only sound bound.
        seen = []

        class Recording(RisingBanditPolicy):
            def observe(self, state, reward, cost):
                super().observe(state, reward, cost)
                if state.pulls == 1:
                    seen.append(state.upper)

        run_policy(Recording(), _arms(ARM1, ARM2), config)
        assert seen == [1.0, 1.0]

    def test_rejects_step_beyond_horizon(self):
        with pytest.raises(ValueError):
            upper_bound(0.5, omega=0.1, pulls_left=-1)
        horizon = Horizon(BanditConfig(trials=5), _arms(ARM1))
        horizon.t = 6
        with pytest.raises(ValueError):
            horizon.upper(ArmState(arm_id=1, pulls=2, history=[0.5, 0.6]), 0.1)

    def test_trial_horizon_extrapolates_over_trials_left(self):
        horizon = Horizon(BanditConfig(trials=5), _arms(ARM1))
        horizon.t = 2
        state = ArmState(arm_id=1, pulls=2, history=[0.5, 0.6])
        assert horizon.upper(state, 0.1) == pytest.approx(0.9)


class TestCostAwareUpperBound:
    """The budget-mode bound of ``Horizon.upper``: pulls left are the budget
    left at the arm's mean pull cost so far."""

    def _upper(self, state, omega, budget, spent=0.0):
        horizon = Horizon(BanditConfig(budget=budget), _arms(ARM1))
        horizon.spent = spent
        return horizon.upper(state, omega)

    def test_affordable_pulls_scale_extrapolation(self):
        state = ArmState(arm_id=1, pulls=2, history=[0.5, 0.6], total_cost=4.0)
        # Mean cost 2, budget 10 -> five affordable pulls of growth 0.05 each.
        assert self._upper(state, 0.05, budget=14.0, spent=4.0) == pytest.approx(0.85)

    def test_capped_at_one(self):
        state = ArmState(arm_id=1, pulls=2, history=[0.5, 0.9], total_cost=2.0)
        assert self._upper(state, 0.5, budget=100.0) == 1.0

    def test_spend_past_budget_within_epsilon_leaves_no_pulls(self):
        state = ArmState(arm_id=1, pulls=3, history=[0.5, 0.6, 0.7], total_cost=3.0)
        assert self._upper(state, 0.1, budget=3.0, spent=3.0 + 1e-13) == 0.7


def _eliminate_pairwise(candidates, states, epsilon):
    """The sweep by its definition: compare every candidate with every other, O(K^2)."""
    return [
        j
        for j in candidates
        if not any(states[i - 1].lower > states[j - 1].upper + epsilon for i in candidates if i != j)
    ]


# A few shared values make ties between bounds likely; negative values stand
# in for bounds below every reward.
BOUNDS = st.one_of(st.sampled_from([-1.0, -0.25, 0.0, 0.3, 0.5, 0.7, 1.0]), st.floats(-2.0, 1.0))


@st.composite
def sweeps(draw):
    """(candidates, per-arm (lower, upper)) for one sweep, each with lower <=
    upper, as every state of a run has (see test_engine_invariants)."""
    k = draw(st.integers(1, 40))
    lowers = draw(st.lists(BOUNDS, min_size=k, max_size=k))
    uppers = draw(st.lists(BOUNDS, min_size=k, max_size=k))
    # Put some lower bounds on another arm's upper + DEFAULT_EPSILON, the
    # edge where domination starts, or just past it.
    edges = st.tuples(st.integers(0, k - 1), st.integers(0, k - 1), st.sampled_from([0.0, 1e-13, 1e-11]))
    for i, j, past in draw(st.lists(edges, max_size=6)):
        lowers[i] = uppers[j] + DEFAULT_EPSILON + past
    if draw(st.booleans()):
        # A tie for the top lower bound.
        top = max(range(k), key=lowers.__getitem__)
        lowers[draw(st.integers(0, k - 1))] = lowers[top]
    uppers = [max(lower, upper) for lower, upper in zip(lowers, uppers)]
    order = draw(st.permutations(range(1, k + 1)))
    candidates = list(order[: draw(st.integers(1, k))])
    return candidates, list(zip(lowers, uppers))


class _CountingState(ArmState):
    """An arm state that counts reads of its lower and upper bounds."""

    def __init__(self, **kwargs):
        self.reads = {"lower": 0, "upper": 0}
        super().__init__(**kwargs)

    @property
    def lower(self):
        self.reads["lower"] += 1
        return self._lower

    @lower.setter
    def lower(self, value):
        self._lower = value

    @property
    def upper(self):
        self.reads["upper"] += 1
        return self._upper

    @upper.setter
    def upper(self, value):
        self._upper = value


class TestEliminate:
    def _state(self, arm_id, lower, upper):
        return ArmState(arm_id=arm_id, lower=lower, upper=upper)

    def test_drops_dominated_arm(self):
        states = [self._state(1, 0.8, 0.9), self._state(2, 0.3, 0.7)]
        assert eliminate([1, 2], states) == [1]

    def test_keeps_overlapping_arms(self):
        states = [self._state(1, 0.5, 0.9), self._state(2, 0.4, 0.8)]
        assert eliminate([1, 2], states) == [1, 2]

    def test_epsilon_slack_keeps_an_arm_on_a_tie(self):
        # Arm 2 is dropped only when arm 1's lower bound is above its upper
        # bound by more than DEFAULT_EPSILON.
        cases = [(0.7, [1, 2]), (0.7 - DEFAULT_EPSILON / 2, [1, 2]), (0.7 - 2 * DEFAULT_EPSILON, [1])]
        for upper, survivors in cases:
            states = [self._state(1, 0.7, 1.0), self._state(2, 0.2, upper)]
            assert eliminate([1, 2], states) == survivors

    def test_sweep_uses_snapshot_not_survivors(self):
        # Arm 2 dominates 3, arm 1 dominates 2; decisions are simultaneous,
        # so arm 3 is judged against arm 2 even though arm 2 also leaves.
        states = [self._state(1, 0.8, 1.0), self._state(2, 0.5, 0.7), self._state(3, 0.1, 0.4)]
        assert eliminate([1, 2, 3], states) == [1]

    def test_the_top_lower_bound_survives_an_all_tie_sweep(self):
        # Every upper bound ties with the top lower bound: no arm is dropped,
        # and none by its id.
        states = [self._state(1, 0.5, 0.5), self._state(2, 0.5, 0.5), self._state(3, 0.5, 0.5)]
        assert eliminate([3, 1, 2], states) == [3, 1, 2]
        # The arm that holds the top has lower == upper, and dominates the rest.
        states = [self._state(1, 0.2, 0.3), self._state(2, 0.7, 0.7), self._state(3, 0.0, 0.0)]
        assert eliminate([1, 2, 3], states) == [2]

    def test_inactive_candidates_not_consulted(self):
        states = [self._state(1, 0.9, 1.0), self._state(2, 0.1, 0.2)]
        assert eliminate([2], states) == [2]

    @settings(max_examples=400, deadline=None)
    @given(sweeps())
    # Every bound ties: no arm is dropped.
    @example(([3, 1, 2], [(0.5, 0.5)] * 3))
    # Two arms tie for the top lower bound; negative upper bounds.
    @example(([2, 1, 3], [(0.7, 0.9), (0.7, 0.8), (-0.5, -0.25)]))
    def test_matches_pairwise_definition(self, sweep):
        candidates, bounds = sweep
        states = [self._state(i, lower, upper) for i, (lower, upper) in enumerate(bounds, start=1)]
        assert eliminate(candidates, states) == _eliminate_pairwise(candidates, states, DEFAULT_EPSILON)

    def test_reads_each_bound_a_constant_number_of_times(self):
        k = 512
        rng = np.random.default_rng(3)
        lowers = rng.uniform(0.0, 0.8, size=k)
        states = [_CountingState(arm_id=i, lower=lo, upper=lo + 0.15) for i, lo in enumerate(lowers, start=1)]
        candidates = list(range(1, k + 1))
        survivors = eliminate(candidates, states)
        assert 1 < len(survivors) < k
        assert max(st.reads["lower"] for st in states) <= 2
        assert max(st.reads["upper"] for st in states) <= 2
        assert survivors == _eliminate_pairwise(candidates, states, DEFAULT_EPSILON)


class TestRisingBanditRunTrials:
    def test_single_arm_pulled_to_horizon(self):
        trace = rising_bandit_run(_arms(ARM1), BanditConfig(trials=10))
        assert trace.pull_counts == [10]
        assert trace.final_j == ARM1.eval(10)
        assert trace.best_arm == 1

    def test_two_arm_example(self, record_sweeps):
        # Frozen from the enumeration-backed oracle run: arm 2 is eliminated
        # after round 2 and arm 1 finishes with its three-pull value.  Round 3
        # uses up the trials, so no sweep follows it.
        with record_sweeps() as sweeps:
            trace = rising_bandit_run(_arms(ARM1, ARM2), BanditConfig(trials=5))
        assert trace.pull_counts == [3, 2]
        assert trace.best_arm == 1
        assert trace.final_j == pytest.approx(0.8, abs=1e-12)
        assert sweeps == [((1, 2), (1, 2)), ((1, 2), (1,))]
        assert trace.candidates == (1,)

    def test_identical_arms_never_eliminated(self, record_sweeps):
        with record_sweeps() as sweeps:
            trace = rising_bandit_run(_arms(ARM1, ARM1), BanditConfig(trials=6))
        assert trace.pull_counts == [3, 3]
        assert sweeps == [((1, 2), (1, 2))] * 2
        assert trace.candidates == (1, 2)
        assert trace.final_j == ARM1.eval(3)

    def test_mid_round_truncation(self):
        # T=5 with two live arms: the last round pulls only the first arm.
        trace = rising_bandit_run(_arms(ARM1, ARM1), BanditConfig(trials=5))
        assert trace.pull_counts == [3, 2]
        assert trace.horizon == 5

    def test_exact_trial_count(self):
        for trials in (1, 2, 7, 13):
            trace = rising_bandit_run(_arms(ARM1, ARM2, ARM1), BanditConfig(trials=trials))
            assert trace.horizon == trials
            assert sum(trace.pull_counts) == trials

    def test_rejects_empty_instance(self):
        with pytest.raises(ConfigurationError):
            rising_bandit_run([], BanditConfig(trials=5))

    def test_best_arm_is_the_earliest_maximum(self):
        # Two copies of one curve, pulled in turn: arm 1's second pull
        # reaches the best reward first, and arm 2's ties it a step later.
        steps = []
        trace = run_policy(RisingBanditPolicy(), _arms(ARM1, ARM1), BanditConfig(trials=4), list_sink(steps))
        first = next(s for s in steps if s.reward == trace.final_j)
        assert (first.t, first.arm) == (3, 1)
        assert steps[3].reward == trace.final_j
        assert trace.best_arm == first.arm


class TestRisingBanditRunBudget:
    def test_budget_never_exceeded(self):
        trace = rising_bandit_run(
            _arms(ARM1, ARM2, costs=[3.0, 2.0]), BanditConfig(budget=20.0)
        )
        assert trace.total_cost <= 20.0 + 1e-12

    def test_unaffordable_arm_skipped_not_fatal(self):
        # Budget 7: arm 1 (cost 5) fits once, then only arm 2 (cost 1) fits.
        trace = rising_bandit_run(
            _arms(ARM1, ARM2, costs=[5.0, 1.0]), BanditConfig(budget=7.0)
        )
        assert trace.pull_counts[0] == 1
        assert trace.pull_counts[1] == 2
        assert trace.total_cost == pytest.approx(7.0)

    def test_total_cost_is_the_spend_summed_in_pull_order(self):
        # Three arms at cost 0.1, pulled twice each, in turn: summed pull by
        # pull the spend is 0.6, while the per-arm totals of 0.2 sum to
        # 0.6000000000000001.
        steps = []
        trace = run_policy(
            RisingBanditPolicy(), _arms(ARM1, ARM1, ARM1, costs=[0.1] * 3), BanditConfig(budget=0.6), list_sink(steps)
        )
        assert [step.arm for step in steps] == [1, 2, 3, 1, 2, 3]
        spent = 0.0
        for step in steps:
            spent += step.cost
        assert trace.total_cost == spent == 0.6

    def test_cheaper_identical_arm_gets_more_pulls(self):
        trace = rising_bandit_run(
            _arms(ARM1, ARM1, costs=[10.0, 1.0]), BanditConfig(budget=115.0)
        )
        assert trace.pull_counts[1] > trace.pull_counts[0]

    def test_a_sweep_reads_the_lower_bound_of_an_arm_never_pulled(self, record_sweeps):
        # Arm 2's one pull never fits after arm 1's first, so every sweep
        # takes arm 2 at no pulls, with no history and its initial lower
        # bound of 0: ArmState.lower is not always the last reward.  One
        # sweep precedes each of rounds 2 to 10; none follows the tenth,
        # after which no candidate's pull fits.
        with record_sweeps() as sweeps:
            trace = rising_bandit_run(_arms(ARM1, ARM1, costs=[1.0, 10.0]), BanditConfig(budget=10.5))
        assert trace.pull_counts == [10, 0]
        assert trace.candidates == (1, 2)
        assert sweeps == [((1, 2), (1, 2))] * 9


@st.composite
def elimination_cases(draw):
    """An instance of 1-6 exact or noisy curve arms with mixed costs, and a
    trial or budget horizon; fast-saturating curves settle the set early."""
    specs = []
    for _ in range(draw(st.integers(1, 6))):
        limit = draw(st.floats(0.2, 0.98))
        initial = draw(st.floats(0.05, 0.95)) * limit
        if draw(st.booleans()):
            curve = ExponentialCurve(limit=limit, initial=initial, decay=draw(st.floats(0.05, 0.9)))
        else:
            curve = PowerCurve(limit=limit, scale=limit - initial, exponent=draw(st.floats(0.5, 3.0)))
        noise = draw(st.sampled_from([0.0, 0.0, 0.02, 0.1]))
        specs.append(CurveArmSpec(curve, cost=draw(st.sampled_from([0.3, 1.0, 2.5, 10.0])), noise_amplitude=noise))
    instance = InstanceSpec(specs)
    growth = draw(st.sampled_from(["last", "smooth"]))
    window = draw(st.integers(1, 5))
    if draw(st.booleans()):
        config = BanditConfig(trials=draw(st.integers(1, 80)), growth=growth, smooth_window=window)
    else:
        # At least the dearest arm's cost, so the first round pulls every arm.
        budget = max(spec.cost for spec in specs) * draw(st.floats(1.0, 25.0))
        config = BanditConfig(budget=budget, growth=growth, smooth_window=window)
    return instance, config, draw(st.integers(0, 2**16))


def _run_recording_plans(policy, instance, config, seed):
    plans = record_plans(policy)
    steps = []
    trace = run_policy(policy, make_instance(instance, seed), config, list_sink(steps))
    return trace, steps, plans


class TestSettledCandidateSet:
    @settings(max_examples=150, deadline=None)
    @given(case=elimination_cases())
    def test_matches_the_always_sweeping_policy(self, record_sweeps, case):
        instance, config, seed = case
        with record_sweeps() as sweeps:
            trace, steps, plans = _run_recording_plans(RisingBanditPolicy(), instance, config, seed)
        with record_sweeps() as expected_sweeps:
            expected, expected_steps, _ = _run_recording_plans(AlwaysSweeping(), instance, config, seed)
        assert steps == expected_steps
        assert trace == expected
        # The same sweeps until one candidate is left; the reference then
        # sweeps once per round and keeps that arm, the policy not at all.
        assert sweeps == expected_sweeps[: len(sweeps)]
        assert all(len(before) > 1 for before, _ in sweeps)
        assert all(len(before) == 1 and after == before for before, after in expected_sweeps[len(sweeps) :])
        # Each plan is the set in force for one of the reference's rounds,
        # down to one that makes no pull, if any.  The first set of one arm
        # is planned once, repeated to the end of the run.
        rounds = [list(range(1, len(instance.arms) + 1))] + [list(after) for _, after in expected_sweeps]
        settled = next((i for i, arms in enumerate(rounds) if len(arms) == 1), None)
        if settled is not None:
            rounds[settled:] = [f"repeat({rounds[settled][0]})"]
        assert plans == rounds

    def test_settled_set_ends_a_budget_run_when_its_arm_no_longer_fits(self, record_sweeps):
        # Arm 2 stops growing and is dropped after round 2, with 6.5 of the
        # budget left; arm 1 (cost 3) fits twice more, in one settled plan
        # with no sweep, which ends at its first pull that does not fit.
        with record_sweeps() as sweeps:
            trace, _, plans = _run_recording_plans(
                RisingBanditPolicy(),
                InstanceSpec([CurveArmSpec(ARM1, cost=3.0), CurveArmSpec(TabulatedCurve([0.1]), cost=1.0)]),
                BanditConfig(budget=14.5),
                0,
            )
        assert trace.pull_counts == [4, 2]
        assert sweeps == [((1, 2), (1, 2)), ((1, 2), (1,))]
        assert trace.candidates == (1,)
        assert plans == [[1, 2], [1, 2], "repeat(1)"]


class TestOfflineMaxRun:
    def test_two_arm_example(self):
        assert offline_max_run([ARM1, ARM2], 5) == (1, 0.875)

    def test_ties_go_to_lowest_id(self):
        arm, value = offline_max_run([ARM1, ARM1], 8)
        assert arm == 1
        assert value == ARM1.eval(8)

    def test_single_arm(self):
        assert offline_max_run([ARM2], 3) == (1, ARM2.eval(3))

    def test_rejects_degenerate_input(self):
        with pytest.raises(ConfigurationError):
            offline_max_run([], 5)
        with pytest.raises(ValueError):
            offline_max_run([ARM1], 0)
