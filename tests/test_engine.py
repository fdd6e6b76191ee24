"""Properties of the one simulation engine, over every policy and both horizons."""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    build_report,
    list_sink,
    make_instance,
    make_policy,
    run_policy,
    simulate,
)
from risingbandits.arms import HPO_COST_HIGH, ArmProcess
from risingbandits.bandit import DEFAULT_EPSILON, ArmState, Horizon, PolicyTrace, RisingBanditPolicy, StepSink
from risingbandits.hpo import SEARCH_STRATEGIES
from risingbandits.policies import POLICY_NAMES

from conftest import AlwaysSweeping, record_plans, sum_left_to_right

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
@given(case=experiments())
def test_engine_invariants(record_sweeps, case):
    instance, config, seed = case
    everyone = tuple(range(1, len(instance.arms) + 1))
    for name in POLICY_NAMES:
        steps, bounds = [], []
        policy = make_policy(name)
        observe = policy.observe

        def recording(state, reward, cost):
            observe(state, reward, cost)
            bounds.append((state.lower, state.upper))

        policy.observe = recording
        with record_sweeps() as sweeps:
            trace = simulate(policy, instance, config, seed=seed, sink=list_sink(steps))
        n = len(steps)
        # Only observe writes the bounds, and every state starts at lower 0.0
        # and upper 1.0.  So every state keeps lower <= upper, and the arm
        # that holds a sweep's top lower bound survives it: no set empties.
        assert len(bounds) == n
        assert all(lower <= upper for lower, upper in bounds)
        assert trace.horizon == n
        if config.trials is not None:
            assert n == config.trials
        else:
            assert trace.total_cost <= config.budget + 1e-12
        assert sum(trace.pull_counts) == n
        assert [s.t for s in steps] == list(range(1, n + 1))
        assert trace.final_j == max(s.reward for s in steps)
        # Only a strictly greater reward moves the best arm.
        assert trace.best_arm == next(s.arm for s in steps if s.reward == trace.final_j)

        if name != "rising_bandit":
            assert sweeps == []
            assert trace.candidates == everyone
            assert all(s.candidate_set_size == len(instance.arms) for s in steps)
            continue
        # The set in force after each sweep: each sweep starts from the set
        # the last one left, keeps a subset of it, and none runs once one
        # candidate is left.
        sets = [everyone] + [after for _, after in sweeps]
        for (before, after), previous in zip(sweeps, sets):
            assert before == previous
            assert len(before) > 1
            assert set(after) <= set(before)
        assert trace.candidates == sets[-1]
        rounds = _rounds(steps)
        for step, r in zip(steps, rounds):
            in_force = sets[min(r, len(sweeps))]
            assert step.arm in in_force
            assert step.candidate_set_size == len(in_force)

        def fits(arm):
            # Horizon.fits at the end of the run; a trials run has used up its trials.
            cost = instance.arms[arm - 1].cost
            return config.budget is not None and trace.total_cost + cost <= config.budget + 1e-12

        # The run ends when no candidate's next pull fits, or at a plan that
        # makes no pull: one whose sweep dropped every arm that still fits.
        assert not any(map(fits, trace.candidates))
        swept_last = any(map(fits, sets[min(rounds[-1], len(sweeps))]))
        # Every round but the last ends with a sweep, until the set is
        # settled.  The last ends with one only while some candidate's pull
        # still fits, and the plan that sweep makes ends the run unpulled.
        due = rounds[-1] + swept_last
        assert len(sweeps) == due or (len(sweeps) < due and len(trace.candidates) == 1)


@settings(max_examples=40, deadline=None)
@given(experiments(st.one_of(arm_specs(), hpo_arm_specs())))
def test_a_sink_does_not_change_the_run(case):
    instance, config, seed = case
    for name in POLICY_NAMES:
        steps = []
        with_sink = simulate(make_policy(name), instance, config, seed=seed, sink=list_sink(steps))
        assert simulate(make_policy(name), instance, config, seed=seed) == with_sink
        assert len(steps) == with_sink.horizon


@settings(max_examples=40, deadline=None)
@given(experiments(st.one_of(arm_specs(), hpo_arm_specs())))
def test_a_plan_is_requested_only_while_some_candidates_pull_fits(case):
    # The same rule in both modes: before each plan the engine asks whether
    # some candidate's next pull fits, so a trials run requests no plan once
    # t == trials, and a budget run none once every candidate would overspend.
    instance, config, seed = case
    real = Horizon.fits
    for name in POLICY_NAMES:
        policy = make_policy(name)
        start, plan = policy.start, policy.plan
        checked, horizons, fitting = [], [], []

        def capture(states, config, horizon):
            horizons.append(horizon)
            start(states, config, horizon)

        def planning(states, t):
            assert horizons[0].t == t - 1
            fitting.append([arm for arm in policy.candidates if real(horizons[0], arm)])
            return plan(states, t)

        def fits(horizon, arm_id):
            checked.append(arm_id)
            return real(horizon, arm_id)

        policy.start, policy.plan = capture, planning
        with mock.patch.object(Horizon, "fits", fits):
            trace = simulate(policy, instance, config, seed=seed)
        assert fitting and all(fitting), name
        if config.trials is None:
            continue
        assert len(fitting) <= config.trials, name
        if name != "rising_bandit":
            # A baseline's run: one check before each plan and one before
            # its pull, then one per arm, none of which fits.
            assert trace.horizon == len(fitting) == config.trials
            assert len(checked) == 2 * config.trials + len(instance.arms), name


@settings(max_examples=40, deadline=None)
@given(experiments())
def test_each_policy_keeps_the_arm_state_it_reads(case):
    # The engine counts pulls and writes nothing else to an arm's state.  A
    # baseline's sums are its arms' rewards added left to right; elimination
    # records each arm's last rewards, lower bound and spend up to the pull
    # at which its set settled, and no further.
    instance, config, seed = case
    for name in POLICY_NAMES:
        policy = make_policy(name)
        runs = []
        start = policy.start

        def capture(states, config, horizon):
            runs.append(states)
            start(states, config, horizon)

        policy.start = capture
        steps = []
        simulate(policy, instance, config, seed=seed, sink=list_sink(steps))
        states = runs[0]
        pulled = [[step for step in steps if step.arm == state.arm_id] for state in states]
        assert [state.pulls for state in states] == list(map(len, pulled))
        if name in ("ucb", "softmax", "thompson"):
            expected = [sum_left_to_right(step.reward for step in arm_steps) for arm_steps in pulled]
            assert [float(total) for total in policy._sums] == expected, name
        if name != "rising_bandit":
            assert all(
                (list(state.history), state.upper, state.lower, state.total_cost) == ([], 1.0, 0.0, 0.0)
                for state in states
            ), name
            continue
        for state, arm_steps in zip(states, pulled):
            unsettled = [step for step in arm_steps if step.candidate_set_size > 1]
            rewards = [step.reward for step in unsettled]
            # The state keeps only the rewards growth_rate reads.
            assert list(state.history) == rewards[-(config.window + 1) :]
            assert state.lower == (rewards[-1] if rewards else 0.0)
            assert state.total_cost == sum_left_to_right(step.cost for step in unsettled)


@st.composite
def curve_instances(draw):
    """2-6 curve arms, a growth setting and a seed: a run's inputs but its horizon."""
    specs = draw(st.lists(arm_specs(), min_size=2, max_size=6))
    growth = dict(growth=draw(st.sampled_from(["last", "smooth"])), smooth_window=draw(st.integers(1, 5)))
    return specs, growth, draw(st.integers(0, 2**16))


def _run(name, specs, config, seed):
    steps = []
    trace = simulate(make_policy(name), InstanceSpec(specs), config, seed=seed, sink=list_sink(steps))
    return steps, trace


@settings(max_examples=100, deadline=None)
@given(
    case=curve_instances(),
    costs=st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0]), min_size=6, max_size=6),
    horizon=st.integers(1, 150),
)
def test_scaling_every_cost_and_the_budget_changes_no_choice(case, costs, horizon):
    # Scaling by a power of two is exact, so every spend, fit and pulls-left
    # ratio scales exactly too, and no policy reads a cost otherwise.
    specs, growth, seed = case
    specs = [replace(s, cost=cost) for s, cost in zip(specs, costs)]
    # About `horizon` pulls, and at least the dearest arm's cost, so every policy's first pull fits.
    budget = max(horizon * sum(s.cost for s in specs) / len(specs), max(s.cost for s in specs))
    for name in POLICY_NAMES:
        steps, trace = _run(name, specs, BanditConfig(budget=budget, **growth), seed)
        for factor in (2.0, 0.5):
            scaled = [replace(s, cost=s.cost * factor) for s in specs]
            scaled_steps, scaled_trace = _run(name, scaled, BanditConfig(budget=budget * factor, **growth), seed)
            assert scaled_steps == [s._replace(cost=s.cost * factor) for s in steps], name
            assert scaled_trace.pull_counts == trace.pull_counts
            assert scaled_trace.final_j == trace.final_j
            assert scaled_trace.best_arm == trace.best_arm
            assert scaled_trace.candidates == trace.candidates


@settings(max_examples=100, deadline=None)
@given(case=curve_instances(), horizon=st.integers(1, 150))
def test_a_unit_cost_budget_runs_as_that_many_trials(case, horizon):
    specs, growth, seed = case
    unit = [replace(s, cost=1.0) for s in specs]
    for name in POLICY_NAMES:
        steps, trace = _run(name, unit, BanditConfig(trials=horizon, **growth), seed)
        budget_steps, budget_trace = _run(name, unit, BanditConfig(budget=float(horizon), **growth), seed)
        assert budget_steps == steps, name
        assert budget_trace == trace, name


@st.composite
def zero_arm_runs(draw):
    """1-5 curve arms with an arm that always pays 0 inserted among them, a
    growth setting, and a trials horizon of two full rounds and at least one
    pull more."""
    specs = draw(st.lists(arm_specs(), min_size=1, max_size=5))
    zero = draw(st.integers(1, len(specs) + 1))
    specs.insert(zero - 1, CurveArmSpec(TabulatedCurve([0.0])))
    k = len(specs)
    config = BanditConfig(
        trials=draw(st.integers(2 * k + 1, 2 * k + 60)),
        growth=draw(st.sampled_from(["last", "smooth"])),
        smooth_window=draw(st.integers(1, 5)),
    )
    return InstanceSpec(specs), zero, config, draw(st.integers(0, 2**16))


# Every bound ties at 0 at the second sweep: the noisy arm's first two rewards
# are 0, as the zero arm's are.
TIED_ZERO_ARMS = InstanceSpec(
    [
        CurveArmSpec(TabulatedCurve([0.0])),
        CurveArmSpec(ExponentialCurve(limit=0.2, initial=0.0125, decay=0.75), noise_amplitude=0.0625),
    ]
)


@settings(max_examples=200, deadline=None)
@given(case=zero_arm_runs())
@example(case=(TIED_ZERO_ARMS, 1, BanditConfig(trials=60), 12))
def test_an_arm_that_pays_nothing_is_pulled_twice_and_dropped(record_sweeps, case):
    # After one pull every upper bound is 1.0, which no lower bound passes,
    # so the first sweep keeps every arm.  The zero arm's second pull gives a
    # growth rate of 0 and an upper bound of 0, so the second sweep drops it,
    # unless no other arm's lower bound is above 0 either: a tie drops no arm.
    instance, zero, config, seed = case
    policy, uppers, steps = RisingBanditPolicy(), [], []
    observe = policy.observe

    def recording(state, reward, cost):
        observe(state, reward, cost)
        if state.arm_id == zero:
            uppers.append(state.upper)

    policy.observe = recording
    with record_sweeps() as sweeps:
        trace = simulate(policy, instance, config, seed=seed, sink=list_sink(steps))
    rewards = {}
    for step in steps:
        rewards.setdefault(step.arm, []).append(step.reward)
    others = [history for arm, history in rewards.items() if arm != zero]
    assert uppers[:2] == [1.0, 0.0]
    assert sweeps[0][1] == sweeps[0][0] == sweeps[1][0]
    if zero in sweeps[1][1]:
        # Every other arm's second reward was 0 too (noise clamped at 0), so
        # every bound was 0, and the sweep kept every arm.
        assert max(history[1] for history in others) <= DEFAULT_EPSILON
        assert sweeps[1][1] == sweeps[1][0]
    else:
        assert len(rewards[zero]) == 2
        assert zero not in trace.candidates


# CASH: one hpo arm per algorithm.  An hpo arm's first reward is always 0,
# and at seed 6 no arm's second trial improves on its first.
CASH_ARMS = InstanceSpec(
    [
        HpoArmSpec(objective=objective, dimension=dimension, strategy="density_estimator", mean_cost=1.0)
        for objective, dimension in [("sphere", 2), ("rosenbrock", 3), ("quadratic", 2)]
    ]
)


def test_a_tie_at_zero_does_not_settle_a_cash_run(record_sweeps):
    steps = []
    with record_sweeps() as sweeps:
        trace = simulate(
            RisingBanditPolicy(), CASH_ARMS, BanditConfig(trials=120), seed=6, sink=list_sink(steps)
        )
    # After round 2 every reward is 0, so every bound is 0: a tie, which
    # drops no arm.  A sweep that dropped on it would keep arm 1 alone.
    assert [step.reward for step in steps[:6]] == [0.0] * 6
    assert sweeps[1] == ((1, 2, 3), (1, 2, 3))
    assert steps[6].candidate_set_size == 3
    assert trace.pull_counts == [3, 3, 114]
    assert trace.final_j > 0.9


def test_a_tie_at_zero_keeps_the_zero_arm_until_another_arm_pays(record_sweeps):
    # The example above: both arms' first two rewards are 0, so the second
    # sweep keeps both.  The noisy arm's third reward is above 0, so the
    # third sweep drops the zero arm, and the run does not settle on 0.
    with record_sweeps() as sweeps:
        trace = simulate(RisingBanditPolicy(), TIED_ZERO_ARMS, BanditConfig(trials=60), seed=12)
    assert sweeps == [((1, 2), (1, 2)), ((1, 2), (1, 2)), ((1, 2), (2,))]
    assert trace.pull_counts == [3, 57]
    assert trace.final_j == pytest.approx(0.199, abs=5e-4)


@settings(max_examples=200, deadline=None)
@given(experiments())
def test_a_tabulated_curve_runs_as_its_curve(case):
    # A run reads an arm's curve only at the pull counts it reaches, so a
    # table of the first N values, with N at least the most pulls the
    # horizon allows any arm, gives the same pulls, noise and all.
    instance, config, seed = case
    if config.trials is not None:
        most = config.trials
    else:
        # One more than the budget over the cheapest cost, for the rounding of the running spend.
        most = math.floor(config.budget / min(spec.cost for spec in instance.arms)) + 1
    tables = [TabulatedCurve([spec.curve.eval(n) for n in range(1, most + 1)]) for spec in instance.arms]
    tabulated = InstanceSpec([replace(spec, curve=table) for spec, table in zip(instance.arms, tables)])
    results = {}
    for name in POLICY_NAMES:
        runs = []
        for spec in (instance, tabulated):
            steps = []
            runs.append((simulate(make_policy(name), spec, config, seed=seed, sink=list_sink(steps)), steps))
        assert runs[0] == runs[1], name
        results[name] = [runs[0][0].final_j]
    if config.trials is not None:
        assert build_report(tabulated, config, results).to_dict() == build_report(instance, config, results).to_dict()


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
            self.selects = 0
            self.observed = []

        def select(self, states, t):
            self.selects += 1
            return 1

        def observe(self, state, reward, cost):
            self.observed.append((state.pulls, reward, cost))

    policy, steps = Counting(), []
    arms = make_instance(InstanceSpec([CurveArmSpec(ARM, cost=2.5)]), 0)
    run_policy(policy, arms, BanditConfig(trials=7), list_sink(steps))
    assert policy.selects == 7
    # Each observe sees the pull counted, and the reward and cost the sink gets.
    assert policy.observed == [(step.t, step.reward, step.cost) for step in steps]
    assert len(steps) == 7


class _Quits(Policy):
    name = "quits"

    def select(self, states, t):
        return None


@pytest.mark.parametrize(
    "config", [BanditConfig(trials=5), BanditConfig(budget=3.0)], ids=["trials", "budget"]
)
def test_a_policy_that_quits_before_its_first_pull_is_named(config):
    # A pull would fit, so the budget is not what ended the run.
    arms = make_instance(InstanceSpec([CurveArmSpec(ARM, cost=1.0), CurveArmSpec(ARM, cost=2.0)]), 0)
    with pytest.raises(ConfigurationError, match="^policy 'quits' ended the run before its first pull$"):
        run_policy(_Quits(), arms, config)


class _PlansNothing(Policy):
    name = "plans_nothing"

    def plan(self, states, t):
        return ()


@pytest.mark.parametrize(
    "config", [BanditConfig(trials=5), BanditConfig(budget=3.0)], ids=["trials", "budget"]
)
def test_an_empty_first_plan_ends_the_run_before_its_first_pull(config):
    # A plan that makes no pull is the one way a policy ends a run.
    arms = make_instance(InstanceSpec([CurveArmSpec(ARM, cost=1.0), CurveArmSpec(ARM, cost=2.0)]), 0)
    with pytest.raises(ConfigurationError, match="^policy 'plans_nothing' ended the run before its first pull$"):
        run_policy(_PlansNothing(), arms, config)


def test_a_policy_that_quits_when_no_pull_fits_meets_the_budget_message():
    arms = make_instance(InstanceSpec([CurveArmSpec(ARM, cost=1.0)]), 0)
    with pytest.raises(ConfigurationError, match="^budget too small for a single pull$"):
        run_policy(_Quits(), arms, BanditConfig(budget=0.5))


class _EndlessArmOne(Policy):
    """Plans arm 1 without end: only the engine's fit check ends the plan.
    The plan raises after 100 arms, so an engine that never ends it fails
    rather than hangs."""

    name = "endless_arm_one"

    def plan(self, states, t):
        for _ in range(100):
            yield 1
        raise AssertionError("the engine did not end an endless plan")


@pytest.mark.parametrize(
    "config, pulls, spent",
    [(BanditConfig(trials=5), [5, 0], 10.0), (BanditConfig(budget=5.0), [2, 0], 4.0)],
    ids=["trials", "budget"],
)
def test_an_endless_plan_ends_at_its_first_pull_that_does_not_fit(config, pulls, spent):
    # In budget mode arm 2 still fits after arm 1's third pull does not, so
    # a new plan is asked for; its first pull does not fit and ends the run.
    arms = make_instance(InstanceSpec([CurveArmSpec(ARM, cost=2.0), CurveArmSpec(ARM, cost=1.0)]), 0)
    trace = run_policy(_EndlessArmOne(), arms, config)
    assert trace.pull_counts == pulls
    assert trace.total_cost == spent


def test_an_elimination_round_checks_each_candidate_when_its_turn_comes():
    # After round 1 (spend 4 of 6), arm 2's pull (cost 2) would fit when the
    # round is planned but not once arm 1 has been pulled; arm 3 still fits.
    # A round whose fits were checked when planned would end at arm 2, and
    # the next would pull arm 1 again.
    curve = ExponentialCurve(0.9, 0.3, 0.9)
    arms = make_instance(
        InstanceSpec([CurveArmSpec(curve, cost=1.0), CurveArmSpec(curve, cost=2.0), CurveArmSpec(curve, cost=1.0)]), 0
    )
    steps = []
    trace = run_policy(RisingBanditPolicy(), arms, BanditConfig(budget=6.0), list_sink(steps))
    assert [step.arm for step in steps] == [1, 2, 3, 1, 3]
    assert trace.total_cost == 6.0


def _reference_run_policy(
    policy: Policy, arms: list[ArmProcess], config: BanditConfig, sink: StepSink | None = None
) -> PolicyTrace:
    """The engine as it was before policies planned their pulls: ``select``
    and ``observe`` once per pull, to the end of every run.  It counts each
    pull in the arm's state and writes nothing else there."""
    k = len(arms)
    if k == 0:
        raise ConfigurationError("an instance needs at least one arm")
    states = [ArmState(arm_id=i) for i in range(1, k + 1)]
    horizon = Horizon(config, arms)
    policy.start(states, config, horizon)
    # Bound once per run: the loop body runs once per pull.
    select, observe, fits = policy.select, policy.observe, horizon.fits
    t, arm_id = 0, None
    # Only a strictly greater reward moves the best, so best_arm is the arm
    # of the first step that reaches final_j.
    final_j, best_arm = -math.inf, 0
    while any(map(fits, policy.candidates)):
        arm_id = select(states, t + 1)
        if arm_id is None:
            break
        if not 1 <= arm_id <= k:
            raise ConfigurationError(f"policy {policy.name!r} selected invalid arm {arm_id}")
        # Ends the run at a selected pull that does not fit, which a
        # baseline may select in a budget run.
        if not fits(arm_id):
            break
        reward, cost = arms[arm_id - 1].pull()
        t += 1
        horizon.t = t
        horizon.spent += cost
        st = states[arm_id - 1]
        st.pulls += 1
        if reward > final_j:
            final_j, best_arm = reward, arm_id
        if sink is not None:
            sink(t, arm_id, reward, cost, len(policy.candidates))
        observe(st, reward, cost)
    if t == 0:
        if not any(map(fits, range(1, k + 1))):
            raise ConfigurationError("budget too small for a single pull")
        # A pull would fit: the policy ended the run, or (a baseline in budget
        # mode) picked an arm that does not fit, even though another arm would.
        if arm_id is None:
            raise ConfigurationError(f"policy {policy.name!r} ended the run before its first pull")
        raise ConfigurationError(
            f"policy {policy.name!r} chose arm {arm_id} for its first pull, at cost "
            f"{arms[arm_id - 1].next_cost}, above the budget {config.budget}"
        )
    return PolicyTrace(
        horizon=t,
        pull_counts=[st.pulls for st in states],
        total_cost=horizon.spent,
        best_arm=best_arm,
        final_j=final_j,
        candidates=tuple(policy.candidates),
    )


@st.composite
def settling_cases(draw):
    """1-6 exact or noisy curve arms, fast-saturating enough that many trials
    runs settle on one arm early, with a trials horizon of 1-80."""
    specs = []
    for _ in range(draw(st.integers(1, 6))):
        limit = draw(st.floats(0.2, 0.98))
        initial = draw(st.floats(0.05, 0.95)) * limit
        if draw(st.booleans()):
            curve = ExponentialCurve(limit=limit, initial=initial, decay=draw(st.floats(0.05, 0.9)))
        else:
            curve = PowerCurve(limit=limit, scale=limit - initial, exponent=draw(st.floats(0.5, 3.0)))
        specs.append(CurveArmSpec(curve, noise_amplitude=draw(st.sampled_from([0.0, 0.0, 0.02, 0.1]))))
    config = BanditConfig(
        trials=draw(st.integers(1, 80)),
        growth=draw(st.sampled_from(["last", "smooth"])),
        smooth_window=draw(st.integers(1, 5)),
    )
    return InstanceSpec(specs), config, draw(st.integers(0, 2**16))


def _run_with(engine, policy, instance, config, seed):
    steps, rng = [], np.random.default_rng(seed)
    policy.rng = rng
    trace = engine(policy, make_instance(instance, seed), config, list_sink(steps))
    return steps, trace, rng.bit_generator.state


@settings(max_examples=150, deadline=None)
@given(case=st.one_of(experiments(st.one_of(arm_specs(), hpo_arm_specs())), settling_cases()))
def test_a_settled_run_matches_the_select_and_observe_loop(case):
    # The steps, the trace and what the policy drew from its stream are
    # those of a loop that asks the policy for every pull.  Elimination
    # there is the reference policy, which selects one arm at a time.
    instance, config, seed = case
    for name in POLICY_NAMES:
        reference = AlwaysSweeping() if name == "rising_bandit" else make_policy(name)
        expected = _run_with(_reference_run_policy, reference, instance, config, seed)
        assert _run_with(run_policy, make_policy(name), instance, config, seed) == expected, name


def test_a_settled_trials_run_asks_for_no_further_plan(record_sweeps):
    # Arm 2 is flat: the sweep before step 5 drops it, and the plan after
    # that sweep is arm 1 to the horizon.
    policy = RisingBanditPolicy()
    plans = record_plans(policy)
    arms = make_instance(InstanceSpec([CurveArmSpec(ARM), CurveArmSpec(TabulatedCurve([0.1]))]), 0)
    with record_sweeps() as sweeps:
        trace = run_policy(policy, arms, BanditConfig(trials=50))
    assert trace.pull_counts == [48, 2]
    assert trace.candidates == (1,)
    assert plans == [[1, 2], [1, 2], "repeat(1)"]
    assert sweeps == [((1, 2), (1, 2)), ((1, 2), (1,))]
