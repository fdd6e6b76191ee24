import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risingbandits import (
    AveragePolicy,
    BanditConfig,
    CurveArmSpec,
    ExponentialCurve,
    GammaResult,
    InstanceSpec,
    PowerCurve,
    RisingBanditPolicy,
    SoftmaxPolicy,
    TabulatedCurve,
    brute_force_optimal,
    build_report,
    compute_gamma,
    corollary1_check,
    least_concave_majorant,
    offline_max_run,
    regret,
    simulate,
    theorem1_bound,
    theorem2_condition_check,
)
from risingbandits.harness import PolicyResult, derive_seed, theorem1_is_vacuous
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
        simulate(SoftmaxPolicy(), instance, config, seed=5, replication=1, sink=a.append)
        simulate(SoftmaxPolicy(), instance, config, seed=5, replication=1, sink=b.append)
        assert a == b

    def test_replications_differ(self):
        instance = InstanceSpec([CurveArmSpec(ARM1, noise_amplitude=0.2), CurveArmSpec(ARM2)])
        config = BanditConfig(trials=20)
        a, b = [], []
        simulate(SoftmaxPolicy(), instance, config, seed=5, replication=0, sink=a.append)
        simulate(SoftmaxPolicy(), instance, config, seed=5, replication=1, sink=b.append)
        assert a != b

    def test_budget_mode_stops_before_overshoot(self):
        instance = InstanceSpec([CurveArmSpec(ARM1, cost=3.0)])
        trace = simulate(AveragePolicy(), instance, BanditConfig(budget=10.0), seed=0)
        assert trace.pull_counts == [3]
        assert trace.total_cost == pytest.approx(9.0)

    def test_policy_trace_accounting(self):
        instance = InstanceSpec([CurveArmSpec(ARM1), CurveArmSpec(ARM2)])
        steps = []
        trace = simulate(AveragePolicy(), instance, BanditConfig(trials=6), seed=0, sink=steps.append)
        assert trace.pull_counts == [3, 3]
        assert trace.final_j == max(s.reward for s in steps)
        assert steps[trace.best_step - 1].reward == trace.final_j


class TestComputeGamma:
    def test_two_arm_example_golden(self):
        # Frozen from the first oracle run on the enumeration example.
        result = compute_gamma([ARM1, ARM2], 5)
        assert result == GammaResult(
            gamma=2, per_arm=(0, 2), optimal_arm=1, non_identifiable_arms=()
        )

    def test_optimal_arm_gets_zero(self):
        result = compute_gamma([ARM2, ARM1], 5)
        assert result.per_arm[result.optimal_arm - 1] == 0

    def test_unseparated_arm_flagged(self):
        # Identical curves never separate; the suboptimal copy gets the horizon.
        result = compute_gamma([ARM1, ARM1], 10)
        assert result.per_arm == (0, 10)
        assert result.non_identifiable_arms == (2,)
        assert not result.identifiable


class TestTheorem1Bound:
    def test_two_arm_example(self):
        want = ARM1.eval(5) - ARM1.eval(5 - 2)
        assert theorem1_bound([ARM1, ARM2], 5, gamma=2, k=2) == pytest.approx(want, abs=1e-12)

    def test_vacuous_bound_is_one(self):
        assert theorem1_is_vacuous(k=3, gamma=5, horizon=10)
        assert theorem1_bound([ARM1, ARM2, ARM1], 10, gamma=5, k=3) == 1.0

    def test_nonvacuous_bound_below_one(self):
        assert not theorem1_is_vacuous(k=2, gamma=2, horizon=5)
        assert theorem1_bound([ARM1, ARM2], 5, gamma=2, k=2) < 1.0


class TestCorollary1Check:
    def test_spec_condition_example(self):
        condition, _ = corollary1_check([ARM1, ARM2], 100, k=2, gamma=10)
        assert condition  # 10 <= (2*100 - 100) / (2*1) = 50

    def test_condition_fails_for_large_gamma(self):
        condition, _ = corollary1_check([ARM1, ARM2], 100, k=2, gamma=60)
        assert not condition

    def test_round_robin_regret_value(self):
        _, avg_regret = corollary1_check([ARM1, ARM2], 10, k=2, gamma=2)
        want = offline_max_run([ARM1, ARM2], 10)[1] - max(ARM1.eval(5), ARM2.eval(5))
        assert avg_regret == pytest.approx(want, abs=1e-12)


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

    def test_rejects_empty_and_limit_violations(self):
        with pytest.raises(ValueError):
            least_concave_majorant([])
        with pytest.raises(ValueError):
            least_concave_majorant([0.5, 0.9], limit=0.6)


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

    def test_rejects_observation_above_majorant(self):
        with pytest.raises(ValueError):
            theorem2_condition_check([0.1, 0.1], [0.5, 0.5], window=1)

    def test_rejects_horizon_beyond_history(self):
        with pytest.raises(ValueError):
            theorem2_condition_check([0.1, 0.2], [0.1, 0.2], window=1, horizon=5)


def _enumerate_optimal(curves, horizon):
    """Reference oracle: walk all K^T sequences, keep the first strict best."""
    k = len(curves)
    tables = [[curve.eval(n) for n in range(1, horizon + 1)] for curve in curves]
    best_j = -1.0
    witness = ()

    def recurse(depth, counts, running_max, prefix):
        nonlocal best_j, witness
        if depth == horizon:
            if running_max > best_j:
                best_j = running_max
                witness = tuple(prefix)
            return
        for arm in range(k):
            counts[arm] += 1
            reward = tables[arm][counts[arm] - 1]
            prefix.append(arm + 1)
            recurse(depth + 1, counts, max(running_max, reward), prefix)
            prefix.pop()
            counts[arm] -= 1

    recurse(0, [0] * k, -1.0, [])
    return best_j, witness


class _ListCurve:
    """Duck-typed curve that may go down; TabulatedCurve rejects dips."""

    def __init__(self, values):
        self.values = values

    def eval(self, n):
        return self.values[n - 1]


# A few exact values, so that rewards tie within and across arms and the
# witness has to break ties the way the enumeration does.
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


class TestBruteForceOptimal:
    def test_enumeration_example(self):
        value, witness = brute_force_optimal([ARM1, ARM2], 5)
        assert value == 0.875
        assert witness == (1, 1, 1, 1, 1)

    def test_single_arm(self):
        value, witness = brute_force_optimal([ARM1], 5)
        assert value == ARM1.eval(5)
        assert witness == (1, 1, 1, 1, 1)

    def test_agrees_with_analytic_optimum(self):
        curves = [ARM1, ARM2, PowerCurve(limit=0.85, scale=0.5, exponent=1.3)]
        value, _ = brute_force_optimal(curves, 7)
        assert value == pytest.approx(offline_max_run(curves, 7)[1], abs=1e-12)

    def test_refuses_oversized_instance(self):
        # 2 arms over 1000 pulls span C(1002, 2) = 501501 lattice states.
        with pytest.raises(ValueError, match="too large"):
            brute_force_optimal([ARM1, ARM2], 1000)

    @settings(deadline=None)
    @given(_oracle_instances())
    def test_matches_enumeration(self, instance):
        curves, horizon = instance
        assert brute_force_optimal(curves, horizon) == _enumerate_optimal(curves, horizon)

    def test_non_monotone_curves(self):
        # The best reward is arm 2's second pull. The first sequence, in
        # lexicographic order, that reaches it spends two pulls on arm 1
        # before it, though arm 1 gains nothing from the second.
        curves = [_ListCurve([0.5, 0.0, 0.5, 0.0]), _ListCurve([0.25, 0.75, 0.0, 0.0])]
        assert brute_force_optimal(curves, 4) == _enumerate_optimal(curves, 4) == (0.75, (1, 1, 2, 2))

    def test_matches_enumeration_on_lemma1_instances(self):
        rng = np.random.default_rng(LEMMA1_SEED)
        for _ in range(LEMMA1_COUNT):
            curves, horizon = random_small_instance(rng)
            assert brute_force_optimal(curves, horizon) == _enumerate_optimal(curves, horizon)

    def test_deep_instance_needs_no_recursion(self):
        value, witness = brute_force_optimal([ARM2], 2000)
        assert value == ARM2.eval(2000)
        assert witness == (1,) * 2000


class TestRegret:
    def test_plain_gap(self):
        assert regret(0.7, 0.9) == pytest.approx(0.2)

    def test_clamped_at_zero_within_tolerance(self):
        assert regret(0.9 + 1e-15, 0.9) == 0.0

    def test_warns_when_policy_beats_oracle(self):
        with pytest.warns(UserWarning):
            regret(0.95, 0.9)


class TestBatteryInvariants:
    def test_no_negative_regret(self, concave_battery):
        # The elimination run beating the offline oracle means an oracle bug;
        # inside the invariant battery this is a hard failure, not a warning.
        # The report clamps regret at zero, so check the unclamped gap.
        assert all(
            case.report.j_oracle - case.report.policies["rising_bandit"].j_values[0] >= -1e-12
            for case in concave_battery
        )

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
        return {"rising_bandit": PolicyResult(j_values=[0.8])}

    def test_curve_instance_gets_full_report(self):
        instance = InstanceSpec([CurveArmSpec(ARM1), CurveArmSpec(ARM2)])
        report = build_report(instance, BanditConfig(trials=5), self._results())
        assert report.j_oracle == 0.875
        assert report.oracle_arm == 1
        assert report.gamma == 2
        assert report.regrets["rising_bandit"] == pytest.approx(0.075, abs=1e-12)
        assert report.theorem1_bound == pytest.approx(0.075, abs=1e-12)
        assert report.corollary1_condition_holds is True
        assert report.to_dict()["gamma_per_arm"] == [0, 2]

    def test_hpo_instance_skips_oracle_with_note(self):
        from risingbandits import HpoArmSpec

        instance = InstanceSpec([HpoArmSpec()])
        report = build_report(instance, BanditConfig(trials=5), self._results())
        assert report.j_oracle is None
        assert any("no analytic oracle" in note for note in report.interpretation_notes)

    def test_uses_the_configured_epsilon(self):
        # The run drops arm 2 after two pulls at epsilon 1e-7 (0.6 + 1e-7 >=
        # 0.60000005); the report's separation times must use the same epsilon.
        instance = InstanceSpec(
            [CurveArmSpec(TabulatedCurve([0.6, 0.6, 0.9])), CurveArmSpec(TabulatedCurve([0.60000005]))]
        )
        config = BanditConfig(trials=6, epsilon=1e-7)
        trace = simulate(RisingBanditPolicy(), instance, config)
        assert trace.pull_counts == [4, 2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = build_report(instance, config, {"rising_bandit": PolicyResult([0.9 + 5e-8])})
        assert report.to_dict()["gamma_per_arm"] == [0, 2]
        assert report.gamma_per_arm == compute_gamma(instance.curves(), 6, 1e-7).per_arm
        assert report.regrets["rising_bandit"] == 0.0

    def test_budget_mode_skips_oracle_with_note(self):
        instance = InstanceSpec([CurveArmSpec(ARM1)])
        report = build_report(instance, BanditConfig(budget=5.0), self._results())
        assert report.j_oracle is None
        assert any("budget" in note for note in report.interpretation_notes)

    def test_bound_interpretation_note_always_present_with_oracle(self):
        instance = InstanceSpec([CurveArmSpec(ARM1), CurveArmSpec(ARM2)])
        report = build_report(instance, BanditConfig(trials=5), self._results())
        assert any("arm multiplicity" in note for note in report.interpretation_notes)
