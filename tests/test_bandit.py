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
    InsufficientHistoryError,
    InstanceSpec,
    Policy,
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
from risingbandits.bandit import MAX_EPSILON, Horizon

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
        with pytest.raises(ConfigurationError):
            BanditConfig(trials=5, epsilon=-1e-9)

    def test_epsilon_capped(self):
        # A budget admits a pull while spend + cost <= budget + epsilon.
        assert BanditConfig(budget=10.0, epsilon=MAX_EPSILON).epsilon == MAX_EPSILON
        for value in (2 * MAX_EPSILON, 5.0, 1e9, float("nan")):
            with pytest.raises(ConfigurationError, match="epsilon"):
                BanditConfig(budget=10.0, epsilon=value)


class TestGrowthRate:
    def test_last_mode_is_final_increment(self):
        assert growth_rate([0.1, 0.4, 0.5], mode="last") == pytest.approx(0.1)

    def test_smooth_mode_averages_window(self):
        history = [0.0, 0.1, 0.3, 0.6, 1.0]
        assert growth_rate(history, mode="smooth", window=3) == pytest.approx((1.0 - 0.1) / 3)

    def test_smooth_mode_fallback_below_window(self):
        history = [0.2, 0.5, 0.6]
        assert growth_rate(history, mode="smooth", window=7) == pytest.approx((0.6 - 0.2) / 2)

    def test_requires_two_observations(self):
        with pytest.raises(InsufficientHistoryError):
            growth_rate([0.5], mode="last")

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            growth_rate([0.1, 0.2], mode="median")

    @settings(max_examples=50, deadline=None)
    @given(
        increments=st.lists(st.floats(0.0, 0.1), min_size=1, max_size=20),
        window=st.integers(1, 10),
    )
    def test_smooth_rate_nonnegative_for_rising_history(self, increments, window):
        history = list(np.cumsum([0.1] + increments))
        assert growth_rate(history, mode="smooth", window=window) >= 0.0


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
            def observe(self, state):
                super().observe(state)
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
    survivors = [
        j
        for j in candidates
        if not any(states[i - 1].lower >= states[j - 1].upper - epsilon for i in candidates if i != j)
    ]
    return survivors or [min(candidates)]


# A few shared values make ties for the top lower bound and mutual dominance
# likely; negative values stand in for bounds below every reward.
BOUNDS = st.one_of(st.sampled_from([-1.0, -0.25, 0.0, 0.3, 0.5, 0.7, 1.0]), st.floats(-2.0, 1.0))


@st.composite
def sweeps(draw):
    """(candidates, per-arm (lower, upper), epsilon) for one sweep."""
    k = draw(st.integers(1, 40))
    epsilon = draw(st.sampled_from([0.0, 1e-12]))
    lowers = draw(st.lists(BOUNDS, min_size=k, max_size=k))
    uppers = draw(st.lists(BOUNDS, min_size=k, max_size=k))
    # Put some lower bounds exactly on another arm's upper - epsilon, the
    # edge where domination starts.
    for i, j in draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)), max_size=6)):
        lowers[i] = uppers[j] - epsilon
    if draw(st.booleans()):
        # A tie for the top lower bound.
        top = max(range(k), key=lowers.__getitem__)
        lowers[draw(st.integers(0, k - 1))] = lowers[top]
    order = draw(st.permutations(range(1, k + 1)))
    candidates = list(order[: draw(st.integers(1, k))])
    return candidates, list(zip(lowers, uppers)), epsilon


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

    def test_epsilon_slack_triggers_elimination_on_ties(self):
        states = [self._state(1, 0.7, 1.0), self._state(2, 0.2, 0.7)]
        assert eliminate([1, 2], states, epsilon=1e-12) == [1]

    def test_sweep_uses_snapshot_not_survivors(self):
        # Arm 2 dominates 3, arm 1 dominates 2; decisions are simultaneous,
        # so arm 3 is judged against arm 2 even though arm 2 also leaves.
        states = [self._state(1, 0.8, 1.0), self._state(2, 0.5, 0.7), self._state(3, 0.1, 0.4)]
        assert eliminate([1, 2, 3], states) == [1]

    def test_lowest_id_survives_mutual_dominance(self):
        states = [self._state(1, 0.5, 0.5), self._state(2, 0.5, 0.5)]
        assert eliminate([1, 2], states) == [1]

    def test_inactive_candidates_not_consulted(self):
        states = [self._state(1, 0.9, 1.0), self._state(2, 0.1, 0.2)]
        assert eliminate([2], states) == [2]

    @settings(max_examples=400, deadline=None)
    @given(sweeps())
    # Mutual dominance empties the set: the lowest id survives.
    @example(([3, 1, 2], [(0.5, 0.5)] * 3, 0.0))
    # Two arms tie for the top lower bound; negative upper bounds.
    @example(([2, 1, 3], [(0.7, 0.9), (0.7, 0.8), (-0.5, -0.25)], 1e-12))
    def test_matches_pairwise_definition(self, sweep):
        candidates, bounds, epsilon = sweep
        states = [self._state(i, lower, upper) for i, (lower, upper) in enumerate(bounds, start=1)]
        assert eliminate(candidates, states, epsilon) == _eliminate_pairwise(candidates, states, epsilon)

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
        assert survivors == _eliminate_pairwise(candidates, states, 1e-12)


class TestRisingBanditRunTrials:
    def test_single_arm_pulled_to_horizon(self):
        trace = rising_bandit_run(_arms(ARM1), BanditConfig(trials=10))
        assert trace.pull_counts == [10]
        assert trace.final_j == ARM1.eval(10)
        assert trace.best_arm == 1

    def test_two_arm_example(self):
        # Frozen from the enumeration-backed oracle run: arm 2 is eliminated
        # after round 2 and arm 1 finishes with its three-pull value.
        trace = rising_bandit_run(_arms(ARM1, ARM2), BanditConfig(trials=5))
        assert trace.pull_counts == [3, 2]
        assert trace.best_arm == 1
        assert trace.final_j == pytest.approx(0.8, abs=1e-12)
        assert trace.candidate_history == [(1, 2), (1, 2), (1,)]

    def test_identical_arms_never_eliminated(self):
        trace = rising_bandit_run(_arms(ARM1, ARM1), BanditConfig(trials=6))
        assert trace.pull_counts == [3, 3]
        assert all(snapshot == (1, 2) for snapshot in trace.candidate_history)
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

    def test_best_step_is_earliest_maximum(self):
        steps = []
        trace = run_policy(RisingBanditPolicy(), _arms(ARM1), BanditConfig(trials=4), steps.append)
        assert trace.best_step == 4
        assert steps[trace.best_step - 1].reward == trace.final_j


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

    def test_cheaper_identical_arm_gets_more_pulls(self):
        trace = rising_bandit_run(
            _arms(ARM1, ARM1, costs=[10.0, 1.0]), BanditConfig(budget=115.0)
        )
        assert trace.pull_counts[1] > trace.pull_counts[0]


class _AlwaysSweeping(Policy):
    """Reference elimination policy: every round ends with a sweep and every
    pull from an arm's second on updates its upper bound, however many
    candidates are left."""

    name = "rising_bandit"

    def start(self, states, config, horizon):
        super().start(states, config, horizon)
        self._config, self._horizon = config, horizon
        self._next, self._round_pulled = 0, False

    def select(self, states, t):
        while True:
            while self._next < len(self.candidates):
                arm_id = self.candidates[self._next]
                self._next += 1
                if self._horizon.fits(arm_id):
                    self._round_pulled = True
                    return arm_id
            if not self._round_pulled:
                return None
            self.candidates = eliminate(self.candidates, states, self._config.epsilon)
            self.candidate_history.append(tuple(self.candidates))
            self._next, self._round_pulled = 0, False

    def observe(self, state):
        if state.pulls >= 2:
            omega = growth_rate(state.history, self._config.growth, self._config.smooth_window)
            state.upper = self._horizon.upper(state, omega)


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


def _run_recording_selects(policy, instance, config, seed):
    selected = []
    select = policy.select

    def recording(states, t):
        selected.append(select(states, t))
        return selected[-1]

    policy.select = recording
    steps = []
    trace = run_policy(policy, make_instance(instance, seed), config, steps.append)
    return trace, steps, selected


class TestSettledCandidateSet:
    @settings(max_examples=150, deadline=None)
    @given(elimination_cases())
    def test_matches_the_always_sweeping_policy(self, case):
        instance, config, seed = case
        trace, steps, selected = _run_recording_selects(RisingBanditPolicy(), instance, config, seed)
        expected, expected_steps, expected_selected = _run_recording_selects(
            _AlwaysSweeping(), instance, config, seed
        )
        assert steps == expected_steps
        assert trace.pull_counts == expected.pull_counts
        assert trace.final_j == expected.final_j
        assert trace.candidate_history == expected.candidate_history
        # Down to the last select, which ends a budget run with None.
        assert selected == expected_selected
        history = trace.candidate_history
        assert all(after is before for before, after in zip(history, history[1:]) if len(before) == 1)

    def test_settled_set_ends_a_budget_run_when_its_arm_no_longer_fits(self):
        # Arm 2 stops growing and is dropped after round 2, with 6.5 of the
        # budget left; arm 1 (cost 3) fits twice more, then no candidate fits.
        trace, _, selected = _run_recording_selects(
            RisingBanditPolicy(),
            InstanceSpec([CurveArmSpec(ARM1, cost=3.0), CurveArmSpec(TabulatedCurve([0.1]), cost=1.0)]),
            BanditConfig(budget=14.5),
            0,
        )
        assert trace.pull_counts == [4, 2]
        assert trace.candidate_history == [(1, 2), (1, 2), (1,), (1,), (1,)]
        assert selected == [1, 2, 1, 2, 1, 1, None]


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
