import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risingbandits import (
    AveragePolicy,
    BanditConfig,
    ConfigurationError,
    CurveArmSpec,
    ExponentialCurve,
    InstanceSpec,
    PowerCurve,
    SoftmaxPolicy,
    StaircaseCurve,
    TabulatedCurve,
    brute_force_optimal,
    build_report,
    compute_gamma,
    corollary1_check,
    least_concave_majorant,
    list_sink,
    offline_max_run,
    regret,
    simulate,
    theorem1_bound,
    theorem2_condition_check,
    upper_bound,
)
from risingbandits.bandit import DEFAULT_EPSILON
from risingbandits.harness import InvariantViolation, derive_seed, theorem1_is_vacuous
from risingbandits import verify
from risingbandits.verify import LEMMA1_COUNT, LEMMA1_SEED, random_small_instance

ARM1 = ExponentialCurve(limit=0.9, initial=0.5, decay=0.5)
ARM2 = ExponentialCurve(limit=0.95, initial=0.3, decay=0.8)


class TestDeriveSeed:
    def test_distinct_per_policy_and_replication(self):
        seeds = {
            derive_seed(0, name, rep).spawn_key
            for name in ("average", "ucb", "softmax")
            for rep in (0, 1)
        }
        assert len(seeds) == 6

    def test_policy_stream_stable_across_experiments(self):
        assert derive_seed(7, "softmax", 3).spawn_key == derive_seed(7, "softmax", 3).spawn_key


class TestSimulate:
    def test_deterministic_per_seed(self):
        instance = InstanceSpec([CurveArmSpec(ARM1, noise_amplitude=0.1), CurveArmSpec(ARM2)])
        config = BanditConfig(trials=20)
        a, b = [], []
        simulate(SoftmaxPolicy(), instance, config, seed=5, replication=1, sink=list_sink(a))
        simulate(SoftmaxPolicy(), instance, config, seed=5, replication=1, sink=list_sink(b))
        assert a == b

    def test_replications_differ(self):
        instance = InstanceSpec([CurveArmSpec(ARM1, noise_amplitude=0.2), CurveArmSpec(ARM2)])
        config = BanditConfig(trials=20)
        a, b = [], []
        simulate(SoftmaxPolicy(), instance, config, seed=5, replication=0, sink=list_sink(a))
        simulate(SoftmaxPolicy(), instance, config, seed=5, replication=1, sink=list_sink(b))
        assert a != b

    def test_budget_mode_stops_before_overshoot(self):
        instance = InstanceSpec([CurveArmSpec(ARM1, cost=3.0)])
        trace = simulate(AveragePolicy(), instance, BanditConfig(budget=10.0), seed=0)
        assert trace.pull_counts == [3]
        assert trace.total_cost == pytest.approx(9.0)

    def test_policy_trace_accounting(self):
        instance = InstanceSpec([CurveArmSpec(ARM1), CurveArmSpec(ARM2)])
        steps = []
        trace = simulate(AveragePolicy(), instance, BanditConfig(trials=6), seed=0, sink=list_sink(steps))
        assert trace.pull_counts == [3, 3]
        assert trace.final_j == max(s.reward for s in steps)
        assert trace.best_arm == next(s.arm for s in steps if s.reward == trace.final_j)


class TestComputeGamma:
    def test_two_arm_example_golden(self):
        # Frozen from the first oracle run on the enumeration example.
        assert compute_gamma([ARM1, ARM2], 5) == (0, 2)

    def test_optimal_arm_gets_zero(self):
        curves = [ARM2, ARM1]
        oracle_arm, _ = offline_max_run(curves, 5)
        assert compute_gamma(curves, 5)[oracle_arm - 1] == 0

    def test_unseparated_arm_flagged(self):
        # Identical curves never separate; the suboptimal copy gets the horizon.
        assert compute_gamma([ARM1, ARM1], 10) == (0, 10)


class TestTheorem1Bound:
    def test_two_arm_example(self):
        want = ARM1.eval(5) - ARM1.eval(5 - 2)
        assert theorem1_bound([ARM1, ARM2], 5, gamma=2) == pytest.approx(want, abs=1e-12)

    def test_vacuous_bound_is_one(self):
        assert theorem1_is_vacuous(k=3, gamma=5, horizon=10)
        assert theorem1_bound([ARM1, ARM2, ARM1], 10, gamma=5) == 1.0

    def test_nonvacuous_bound_below_one(self):
        assert not theorem1_is_vacuous(k=2, gamma=2, horizon=5)
        assert theorem1_bound([ARM1, ARM2], 5, gamma=2) < 1.0


class TestCorollary1Check:
    def test_spec_condition_example(self):
        condition, _ = corollary1_check([ARM1, ARM2], 100, gamma=10)
        assert condition  # 10 <= (2*100 - 100) / (2*1) = 50

    def test_condition_fails_for_large_gamma(self):
        condition, _ = corollary1_check([ARM1, ARM2], 100, gamma=60)
        assert not condition

    def test_round_robin_regret_value(self):
        _, avg_regret = corollary1_check([ARM1, ARM2], 10, gamma=2)
        want = offline_max_run([ARM1, ARM2], 10)[1] - max(ARM1.eval(5), ARM2.eval(5))
        assert avg_regret == pytest.approx(want, abs=1e-12)

    def test_round_robin_short_of_the_arms_reaches_only_the_first_t(self):
        # T = 2 < K = 3: round-robin pulls arms 1 and 2 once each, never arm 3.
        curves = [TabulatedCurve([0.1, 0.2]), TabulatedCurve([0.2, 0.3]), TabulatedCurve([0.5, 0.6])]
        _, avg_regret = corollary1_check(curves, 2, gamma=1)
        assert avg_regret == pytest.approx(0.6 - 0.2, abs=1e-12)


# A few shared values make equal neighbours, and so flat runs, likely.
UNIT_VALUES = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))


def _majorant_by_chords(observed):
    """The least concave majorant by its definition: at x, the largest of y_x
    and every chord y_i + (y_j - y_i)(x - i)/(j - i) with i <= x <= j."""
    n = len(observed)
    out = []
    for x in range(1, n + 1):
        best = observed[x - 1]
        for i in range(1, x + 1):
            for j in range(max(x, i + 1), n + 1):
                y_i, y_j = observed[i - 1], observed[j - 1]
                best = max(best, y_i + (y_j - y_i) * (x - i) / (j - i))
        out.append(best)
    return out


class TestLeastConcaveMajorant:
    def test_dominates_observations(self):
        observed = [0.1, 0.1, 0.5, 0.5, 0.9]
        hull = least_concave_majorant(observed)
        assert all(h >= y - 1e-12 for h, y in zip(hull, observed))

    def test_concave_input_is_fixed_point(self):
        observed = [ARM1.eval(n) for n in range(1, 20)]
        hull = least_concave_majorant(observed)
        assert hull == pytest.approx(observed, abs=1e-12)

    def test_hull_is_concave(self):
        observed = [0.1, 0.1, 0.1, 0.6, 0.6, 0.6, 0.8, 0.8]
        hull = least_concave_majorant(observed)
        increments = [b - a for a, b in zip(hull, hull[1:])]
        assert all(b <= a + 1e-12 for a, b in zip(increments, increments[1:]))

    def test_endpooints_touch_observations(self):
        observed = [0.2, 0.2, 0.7, 0.7]
        hull = least_concave_majorant(observed)
        assert hull[0] == pytest.approx(0.2)
        assert hull[-1] == pytest.approx(0.7)

    def test_single_observation_is_its_own_majorant(self):
        assert least_concave_majorant([0.4]) == [0.4]

    def test_rejects_an_empty_sequence(self):
        with pytest.raises(ValueError):
            least_concave_majorant([])

    @pytest.mark.parametrize(
        "observed",
        [
            [0.1, 0.1, 0.5, 0.5, 0.9],
            [0.1, 0.1, 0.1, 0.6, 0.6, 0.6, 0.8, 0.8],
            [0.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.6, 0.6, 0.6],
            [0.0, 0.0, 0.0, 0.0, 1.0],
            # Convex runs, which the hull must bridge with one chord.
            [0.0, 0.2, 0.5],
            [0.0, 0.0, 0.2, 0.5],
        ],
    )
    def test_is_the_least_majorant_on_fixed_sequences(self, observed):
        expected = _majorant_by_chords(observed)
        assert least_concave_majorant(observed) == pytest.approx(expected, abs=DEFAULT_EPSILON)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(UNIT_VALUES, min_size=1, max_size=40))
    def test_is_the_least_majorant(self, values):
        # Non-decreasing, as every best-so-far sequence is.
        observed = sorted(values)
        expected = _majorant_by_chords(observed)
        assert least_concave_majorant(observed) == pytest.approx(expected, abs=DEFAULT_EPSILON)


class TestTheorem2ConditionCheck:
    def test_concave_sequence_satisfies(self):
        observed = [ARM1.eval(n) for n in range(1, 30)]
        hull = least_concave_majorant(observed)
        assert theorem2_condition_check(hull, observed, window=7)

    def test_late_bias_reappearance_violates(self):
        # Bias vanishes then returns: a later plateau after the ratio already
        # hit zero must be rejected.
        observed = [0.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.6, 0.6, 0.6]
        hull = least_concave_majorant(observed)
        assert not theorem2_condition_check(hull, observed, window=3)

    def test_bias_ratio_above_its_bound_violates(self):
        # Every bias is 0.1, so each ratio is 1, above (T - t) / (T - t + C) < 1.
        assert not theorem2_condition_check([0.6, 0.7, 0.8, 0.9], [0.5, 0.6, 0.7, 0.8], window=1)
        # Biases 0.1, 0.01, 0.001, 0: ratios 0.1, 0.1 and 0 stay within 2/3, 1/2 and 0.
        assert theorem2_condition_check([0.6, 0.51, 0.501, 0.5], [0.5] * 4, window=1)

    def test_the_last_pulls_are_checked(self):
        # Biases 0.1, 0.05, 0.02 and 0.01 over T = 4: the ratios 1/2 and 2/5
        # at t = 2 and 3 stay within 2/3 and 1/2, but at t = T the bound is 0.
        observed = [0.5] * 4
        assert not theorem2_condition_check([0.6, 0.55, 0.52, 0.51], observed, window=1)
        # With no bias at t = T every ratio is within its bound.
        assert theorem2_condition_check([0.6, 0.55, 0.52, 0.5], observed, window=1)

    def test_rejects_observation_above_majorant(self):
        with pytest.raises(ValueError):
            theorem2_condition_check([0.1, 0.1], [0.5, 0.5], window=1)

    def test_majorant_below_an_observation_by_more_than_epsilon_is_rejected(self):
        # The package's one tolerance: 1e-10 below the data is refused, and a
        # gap within DEFAULT_EPSILON counts as no bias.
        with pytest.raises(ValueError, match="exceeds the majorant"):
            theorem2_condition_check([0.5 - 1e-10, 0.5], [0.5, 0.5], window=1)
        assert theorem2_condition_check([0.5 - DEFAULT_EPSILON / 10, 0.5], [0.5, 0.5], window=1)


def _enumerate_optimal(curves, horizon):
    """Reference oracle: walk all K^T sequences, keep the best reward observed."""
    k = len(curves)
    tables = [[curve.eval(n) for n in range(1, horizon + 1)] for curve in curves]
    best_j = -1.0

    def recurse(depth, counts, running_max):
        nonlocal best_j
        if depth == horizon:
            best_j = max(best_j, running_max)
            return
        for arm in range(k):
            counts[arm] += 1
            reward = tables[arm][counts[arm] - 1]
            recurse(depth + 1, counts, max(running_max, reward))
            counts[arm] -= 1

    recurse(0, [0] * k, -1.0)
    return best_j


class _ListCurve:
    """Duck-typed curve that may go down; TabulatedCurve rejects dips."""

    def __init__(self, values):
        self.values = values

    def eval(self, n):
        return self.values[n - 1]


# A few exact values, so that rewards tie within and across arms.
_LEVELS = st.sampled_from([0.0, 0.125, 0.25, 0.5, 0.75, 1.0])


@st.composite
def _oracle_instances(draw):
    horizon = draw(st.integers(1, 8))
    curves = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["exponential", "power", "tabulated", "non-monotone"]))
        limit = draw(st.floats(0.2, 0.98))
        initial = draw(st.floats(0.05, 0.95)) * limit
        if kind == "exponential":
            curve = ExponentialCurve(limit=limit, initial=initial, decay=draw(st.floats(0.2, 0.9)))
        elif kind == "power":
            curve = PowerCurve(limit=limit, scale=limit - initial, exponent=draw(st.floats(0.5, 2.0)))
        elif kind == "tabulated":
            # Non-decreasing but not concave: plateaus and jumps at any pull.
            curve = TabulatedCurve(sorted(draw(st.lists(_LEVELS, min_size=1, max_size=horizon))))
        else:
            curve = _ListCurve(draw(st.lists(_LEVELS, min_size=horizon, max_size=horizon)))
        curves.append(curve)
    return curves, horizon


@st.composite
def _rising_instances(draw):
    """Exponential and power curves, K from 2 to 5 and T from 1 to 20: past
    what the K**T enumeration can check in a test."""
    curves = []
    for _ in range(draw(st.integers(2, 5))):
        limit = draw(st.floats(0.2, 0.98))
        initial = draw(st.floats(0.05, 0.95)) * limit
        if draw(st.booleans()):
            curve = ExponentialCurve(limit=limit, initial=initial, decay=draw(st.floats(0.2, 0.9)))
        else:
            curve = PowerCurve(limit=limit, scale=limit - initial, exponent=draw(st.floats(0.5, 2.0)))
        curves.append(curve)
    return curves, draw(st.integers(1, 20))


def _reference_gamma(curves, horizon, epsilon):
    """``compute_gamma`` as it was, four ``eval`` calls per step, kept as its
    reference.  Returns the per-arm times and the arms it finds unseparated."""
    k_star, _ = offline_max_run(curves, horizon)
    star_curve = curves[k_star - 1]
    per_arm, unseparated = [], []
    for idx, curve in enumerate(curves, start=1):
        if idx == k_star:
            per_arm.append(0)
            continue
        gamma_k = None
        n = 1
        while 2 * n <= horizon:
            if n >= 2:
                omega = curve.eval(n) - curve.eval(n - 1)
                u = upper_bound(curve.eval(n), omega, horizon - (2 * n - 1))
                if u <= star_curve.eval(n) + epsilon:
                    gamma_k = n
                    break
            n += 1
        if gamma_k is None:
            gamma_k = horizon
            unseparated.append(idx)
        per_arm.append(gamma_k)
    return tuple(per_arm), unseparated


@st.composite
def _gamma_instances(draw):
    curves = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["exponential", "power", "staircase", "tabulated"]))
        limit = draw(st.floats(0.2, 0.98))
        initial = draw(st.floats(0.05, 0.95)) * limit
        if kind == "exponential":
            curve = ExponentialCurve(limit=limit, initial=initial, decay=draw(st.floats(0.2, 0.9)))
        elif kind == "power":
            curve = PowerCurve(limit=limit, scale=limit - initial, exponent=draw(st.floats(0.5, 2.0)))
        elif kind == "staircase":
            curve = StaircaseCurve(initial, limit, draw(st.integers(1, 4)), draw(st.floats(0.1, 1.0)))
        else:
            # Exact levels, so bounds and lower values can tie.
            curve = TabulatedCurve(sorted(draw(st.lists(_LEVELS, min_size=1, max_size=12))))
        curves.append(curve)
    return curves, draw(st.integers(1, 60))


class TestComputeGammaReference:
    @settings(max_examples=300, deadline=None)
    @given(_gamma_instances())
    def test_matches_the_four_eval_loop(self, case):
        curves, horizon = case
        per_arm, unseparated = _reference_gamma(curves, horizon, DEFAULT_EPSILON)
        assert compute_gamma(curves, horizon) == per_arm
        # build_report names the unseparated arms as those whose time is the horizon.
        assert unseparated == [arm for arm, gamma_k in enumerate(per_arm, start=1) if gamma_k == horizon]


class TestBruteForceOptimal:
    def test_enumeration_example(self):
        assert brute_force_optimal([ARM1, ARM2], 5) == 0.875

    def test_single_arm(self):
        assert brute_force_optimal([ARM1], 5) == ARM1.eval(5)

    def test_rejects_no_curves_and_a_horizon_below_one(self):
        with pytest.raises(ConfigurationError, match="^an instance needs at least one arm$"):
            brute_force_optimal([], 5)
        with pytest.raises(ValueError, match="^horizon must be >= 1, got 0$"):
            brute_force_optimal([ARM1], 0)

    def test_agrees_with_analytic_optimum(self):
        curves = [ARM1, ARM2, PowerCurve(limit=0.85, scale=0.5, exponent=1.3)]
        value = brute_force_optimal(curves, 7)
        assert value == pytest.approx(offline_max_run(curves, 7)[1], abs=1e-12)

    def test_long_horizon_meets_the_best_single_arm(self):
        # 2 arms over 1000 pulls: 2^1000 sequences and C(1002, 2) = 501501
        # count vectors, none of which the oracle has to visit.
        curves = [ARM1, ARM2]
        assert brute_force_optimal(curves, 1000) == offline_max_run(curves, 1000)[1]

    @settings(deadline=None)
    @given(_rising_instances())
    def test_rising_curves_meet_the_best_single_arm(self, instance):
        # Lemma 1: on non-decreasing curves no sequence beats the best arm
        # pulled T times.
        curves, horizon = instance
        value = brute_force_optimal(curves, horizon)
        assert value == pytest.approx(offline_max_run(curves, horizon)[1], abs=1e-12)

    @settings(deadline=None)
    @given(_oracle_instances())
    def test_matches_enumeration(self, instance):
        curves, horizon = instance
        assert brute_force_optimal(curves, horizon) == _enumerate_optimal(curves, horizon)

    def test_non_monotone_curves(self):
        # The best reward is arm 2's second pull, above every value arm 1
        # reaches and above arm 2's value at the horizon.
        curves = [_ListCurve([0.5, 0.0, 0.5, 0.0]), _ListCurve([0.25, 0.75, 0.0, 0.0])]
        assert brute_force_optimal(curves, 4) == _enumerate_optimal(curves, 4) == 0.75

    def test_matches_enumeration_on_lemma1_instances(self):
        rng = np.random.default_rng(LEMMA1_SEED)
        for _ in range(LEMMA1_COUNT):
            curves, horizon = random_small_instance(rng)
            assert brute_force_optimal(curves, horizon) == _enumerate_optimal(curves, horizon)

    def test_deep_instance_needs_no_recursion(self):
        assert brute_force_optimal([ARM2], 2000) == ARM2.eval(2000)


class TestRegret:
    def test_plain_gap(self):
        assert regret(0.7, 0.9) == pytest.approx(0.2)

    def test_clamped_at_zero_within_tolerance(self):
        assert regret(0.9 + 1e-15, 0.9) == 0.0


class TestBatteryInvariants:
    def test_no_negative_regret(self, concave_battery):
        # build_report refuses a run above the oracle while the battery is
        # built; each regret it reports is the oracle gap, clamped at zero.
        for case in concave_battery:
            report = case.report
            gap = report.j_oracle - report.policies["rising_bandit"][0]
            assert report.regrets["rising_bandit"] == max(gap, 0.0)

    def test_bounds_nonnegative(self, concave_battery):
        assert all(case.report.theorem1_bound >= 0.0 for case in concave_battery)

    def test_generator_inconsistency_raises(self, monkeypatch):
        real = verify.random_dominant_instance

        def misnamed(rng):
            curves, horizon, k_star = real(rng)
            return curves, horizon, k_star % len(curves) + 1

        # A check that raises, not an assert, so it holds under python -O too.
        monkeypatch.setattr(verify, "random_dominant_instance", misnamed)
        with pytest.raises(verify.FixtureError, match="^battery instance 0: the generator made arm"):
            verify.concave_battery(count=3)


class TestBuildReport:
    def _results(self):
        return {"rising_bandit": [0.8]}

    def test_curve_instance_gets_full_report(self):
        instance = InstanceSpec([CurveArmSpec(ARM1), CurveArmSpec(ARM2)])
        report = build_report(instance, BanditConfig(trials=5), self._results())
        assert report.j_oracle == 0.875
        assert report.oracle_arm == 1
        assert report.gamma == 2
        assert report.regrets["rising_bandit"] == pytest.approx(0.075, abs=1e-12)
        assert report.theorem1_bound == pytest.approx(0.075, abs=1e-12)
        assert report.corollary1_condition_holds is True
        assert json.loads(json.dumps(report.to_dict()))["gamma_per_arm"] == [0, 2]

    def test_policy_above_the_oracle_raises(self):
        # By Lemma 1 no run observes more than the oracle's 0.875 here.
        instance = InstanceSpec([CurveArmSpec(ARM1), CurveArmSpec(ARM2)])
        results = {"average": [0.8], "rising_bandit": [0.9, 0.95]}
        with pytest.raises(
            InvariantViolation, match=r"^policy 'rising_bandit' mean value 0\.925 exceeds the oracle 0\.875$"
        ):
            build_report(instance, BanditConfig(trials=5), results)

    def test_hpo_instance_skips_oracle_with_note(self):
        from risingbandits import HpoArmSpec

        instance = InstanceSpec([HpoArmSpec()])
        report = build_report(instance, BanditConfig(trials=5), self._results())
        assert report.j_oracle is None
        assert any("no analytic oracle" in note for note in report.interpretation_notes)

    def test_unseparated_arm_gets_a_note(self):
        # Identical curves never separate (see TestComputeGamma::test_unseparated_arm_flagged).
        instance = InstanceSpec([CurveArmSpec(ARM1), CurveArmSpec(ARM1)])
        report = build_report(instance, BanditConfig(trials=10), self._results())
        assert report.gamma_per_arm == (0, 10)
        assert any("arms [2] not separated within the horizon" in note for note in report.interpretation_notes)

    def test_budget_mode_skips_oracle_with_note(self):
        instance = InstanceSpec([CurveArmSpec(ARM1)])
        report = build_report(instance, BanditConfig(budget=5.0), self._results())
        assert report.j_oracle is None
        assert any("budget" in note for note in report.interpretation_notes)

    def test_bound_interpretation_note_always_present_with_oracle(self):
        instance = InstanceSpec([CurveArmSpec(ARM1), CurveArmSpec(ARM2)])
        report = build_report(instance, BanditConfig(trials=5), self._results())
        assert any("arm multiplicity" in note for note in report.interpretation_notes)
