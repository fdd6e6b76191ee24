"""Fixed-seed verification suites.

Each suite empirically checks one analytic claim about the elimination
algorithm on generated synthetic instances: oracle equivalence of the
offline argmax, safety of elimination, the regret bound, the round-robin
comparison, and best-arm identification under the smooth growth rate.

The generators are deliberately constrained so that the claims are actually
expected to hold: for the safety and regret suites, the arm that is best at
the horizon is also the best reachable arm throughout the run (an
unconstrained distribution contains late-crossing slow risers that any
sound algorithm correctly discards once their potential becomes
unreachable).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .arms import CurveArmSpec, InstanceSpec
from .bandit import BanditConfig, offline_max_run, rising_bandit_run
from .curves import ExponentialCurve, PowerCurve, RewardCurve, StaircaseCurve, TabulatedCurve
from .harness import (
    PolicyResult,
    RegretReport,
    brute_force_optimal,
    build_report,
    least_concave_majorant,
    theorem2_condition_check,
)

TOLERANCE = 1e-12
SMOOTH_WINDOW = 7

LEMMA1_SEED = 1083914
CONCAVE_BATTERY_SEED = 552701
THEOREM2_SEED = 90417

LEMMA1_COUNT = 200
CONCAVE_BATTERY_COUNT = 1000
THEOREM2_COUNT = 100

# 16-arm allocation fixture: dominant-arm pull share measured on the first
# oracle run and frozen; the acceptance threshold is the structural 40%.
ALLOCATION_HORIZON = 500
ALLOCATION_DOMINANT_ARM = 7
ALLOCATION_GOLDEN_SHARE = 0.596
ALLOCATION_SHARE_THRESHOLD = 0.40


class FixtureError(RuntimeError):
    """A generator made an instance that breaks the guarantee its suites rely on."""


@dataclass
class SuiteResult:
    name: str
    total: int
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> int:
        return self.total - len(self.failures)

    @property
    def ok(self) -> bool:
        return not self.failures


def _random_concave_curve(rng: np.random.Generator, initial: float, limit: float) -> RewardCurve:
    if rng.random() < 0.5:
        return ExponentialCurve(limit=limit, initial=initial, decay=rng.uniform(0.3, 0.8))
    return PowerCurve(limit=limit, scale=limit - initial, exponent=rng.uniform(0.8, 2.0))


def random_small_instance(rng: np.random.Generator) -> tuple[list[RewardCurve], int]:
    """Unconstrained concave instance small enough for the exact oracle."""
    k = int(rng.integers(2, 4))
    horizon = int(rng.integers(4, 11))
    curves = []
    for _ in range(k):
        limit = rng.uniform(0.2, 0.98)
        initial = rng.uniform(0.05, 0.9) * limit
        curves.append(_random_concave_curve(rng, initial, limit))
    return curves, horizon


def random_dominant_instance(rng: np.random.Generator) -> tuple[list[RewardCurve], int, int]:
    """Strictly concave instance whose horizon-best arm leads throughout.

    One arm is sampled freely; every other limit is capped below the leading
    arm's value after its guaranteed floor(T/K) pulls, which is sufficient
    for that arm to stay dominant at every elimination sweep.
    """
    k = int(rng.integers(2, 9))
    horizon = int(rng.integers(10, 201))
    k_star = int(rng.integers(1, k + 1))
    initial = rng.uniform(0.25, 0.6)
    limit = rng.uniform(initial + 0.15, 0.95)
    dominant = _random_concave_curve(rng, initial, limit)
    floor_value = dominant.eval(max(1, horizon // k))
    curves: list[RewardCurve] = []
    for arm in range(1, k + 1):
        if arm == k_star:
            curves.append(dominant)
            continue
        other_limit = rng.uniform(0.3, 0.97) * floor_value
        other_initial = rng.uniform(0.2, 0.9) * other_limit
        curves.append(_random_concave_curve(rng, other_initial, other_limit))
    return curves, horizon, k_star


@dataclass
class ConcaveCase:
    """One battery instance: the elimination run's candidate sets and the
    report the CLI would write."""

    candidate_history: list[tuple[int, ...]]
    report: RegretReport


def concave_battery(count: int = CONCAVE_BATTERY_COUNT, seed: int = CONCAVE_BATTERY_SEED) -> list[ConcaveCase]:
    """Shared instance set for the safety / regret-bound / round-robin suites."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        curves, horizon, k_star = random_dominant_instance(rng)
        instance = InstanceSpec([CurveArmSpec(c) for c in curves])
        config = BanditConfig(trials=horizon)
        trace = rising_bandit_run([spec.build(rng) for spec in instance.arms], config)
        report = build_report(instance, config, {"rising_bandit": PolicyResult([trace.final_j])})
        if report.oracle_arm != k_star:
            raise FixtureError(
                f"battery instance {i}: the generator made arm {k_star} dominant, "
                f"but the oracle picks arm {report.oracle_arm}"
            )
        cases.append(ConcaveCase(trace.candidate_history, report))
    return cases


def suite_lemma1(count: int = LEMMA1_COUNT, seed: int = LEMMA1_SEED) -> SuiteResult:
    """The exact maximum over all pull sequences equals the single-best-arm value."""
    rng = np.random.default_rng(seed)
    result = SuiteResult(name="lemma1", total=count)
    for i in range(count):
        curves, horizon = random_small_instance(rng)
        enumerated, _ = brute_force_optimal(curves, horizon)
        _, analytic = offline_max_run(curves, horizon)
        if abs(enumerated - analytic) > TOLERANCE:
            result.failures.append(
                f"instance {i}: enumeration {enumerated} != analytic {analytic}"
            )
    return result


def suite_safety(battery: list[ConcaveCase] | None = None) -> SuiteResult:
    """The horizon-best arm is never removed from the candidate set."""
    battery = concave_battery() if battery is None else battery
    result = SuiteResult(name="safety", total=len(battery))
    for i, case in enumerate(battery):
        optimal_arm = case.report.oracle_arm
        if any(optimal_arm not in snapshot for snapshot in case.candidate_history):
            result.failures.append(f"instance {i}: optimal arm {optimal_arm} eliminated")
    return result


def suite_theorem1(battery: list[ConcaveCase] | None = None) -> SuiteResult:
    """Measured regret never exceeds the separation-time bound."""
    battery = concave_battery() if battery is None else battery
    result = SuiteResult(name="theorem1", total=len(battery))
    for i, case in enumerate(battery):
        regret, bound = case.report.regrets["rising_bandit"], case.report.theorem1_bound
        if regret > bound + TOLERANCE:
            result.failures.append(f"instance {i}: regret {regret} exceeds bound {bound}")
    return result


def suite_corollary1(battery: list[ConcaveCase] | None = None) -> SuiteResult:
    """Where the separation condition holds, elimination beats round-robin."""
    battery = concave_battery() if battery is None else battery
    applicable = [case.report for case in battery if case.report.corollary1_condition_holds]
    result = SuiteResult(name="corollary1", total=len(applicable))
    for i, report in enumerate(applicable):
        regret = report.regrets["rising_bandit"]
        if regret > report.avg_policy_regret + TOLERANCE:
            result.failures.append(
                f"instance {i}: regret {regret} exceeds round-robin regret {report.avg_policy_regret}"
            )
    return result


def _ramp_curve(start: float, slope: float, peak: float, length: int) -> TabulatedCurve:
    """Concave piecewise-linear curve: constant slope up to a flat peak."""
    values = []
    for n in range(length):
        values.append(min(start + slope * n, peak))
    return TabulatedCurve(values)


def theorem2_instance(rng: np.random.Generator) -> tuple[list[RewardCurve], int, int]:
    """Staircase instance whose bias sequences satisfy the ratio condition.

    The leading arm is a staircase with plateau length equal to the smooth
    window, so its bias against its own concave majorant shrinks by exactly
    (1 - jump_fraction) per window; jump fractions >= 0.88 keep that ratio
    under the condition's threshold everywhere.  An optional concave ramp
    arm briefly overtakes the leader mid-run, which defeats the last-step
    growth rate but not the smooth one.
    """
    horizon = int(rng.integers(60, 141))
    start = rng.uniform(0.4, 0.6)
    limit = rng.uniform(start + 0.3, 0.97)
    q = rng.uniform(0.88, 0.95)
    dominant = StaircaseCurve(initial=start, limit=limit, plateau_length=SMOOTH_WINDOW, jump_fraction=q)
    gap = limit - start
    v1 = limit - gap * (1.0 - q)  # value after the first jump
    v2 = limit - gap * (1.0 - q) ** 2
    curves: list[RewardCurve] = [dominant]

    if rng.random() < 0.7:
        # Ramp arm that crosses above the leader's second plateau and forces
        # the smooth growth rate to carry the leader through.
        ramp_start = rng.uniform(0.02, 0.08)
        peak = rng.uniform(v1 + 0.002, v2 - 0.002)
        slope_cap = (start - 0.02 - ramp_start) / 6.0
        cross_pull = int(rng.integers(10, 15))
        slope = min(slope_cap, (peak - ramp_start) / (cross_pull - 1))
        curves.append(_ramp_curve(ramp_start, slope, peak, horizon))
    if rng.random() < 0.5:
        low_limit = rng.uniform(0.3, 0.9) * start
        curves.append(
            ExponentialCurve(
                limit=low_limit,
                initial=rng.uniform(0.2, 0.8) * low_limit,
                decay=rng.uniform(0.3, 0.8),
            )
        )
    order = rng.permutation(len(curves))
    curves = [curves[i] for i in order]
    k_star = int(np.where(order == 0)[0][0]) + 1
    return curves, horizon, k_star


def suite_theorem2(count: int = THEOREM2_COUNT, seed: int = THEOREM2_SEED) -> SuiteResult:
    """Smooth-growth identification on condition-satisfying loose-concave arms."""
    rng = np.random.default_rng(seed)
    result = SuiteResult(name="theorem2", total=count)
    for i in range(count):
        curves, horizon, k_star = theorem2_instance(rng)
        for arm_idx, curve in enumerate(curves, start=1):
            observed = [curve.eval(n) for n in range(1, horizon + 1)]
            majorant = least_concave_majorant(observed, limit=curve.limit)
            if not theorem2_condition_check(majorant, observed, SMOOTH_WINDOW, horizon):
                result.failures.append(f"instance {i}: arm {arm_idx} fails the bias-ratio condition")
                break
        else:
            arms = [CurveArmSpec(c).build(rng) for c in curves]
            config = BanditConfig(trials=horizon, growth="smooth", smooth_window=SMOOTH_WINDOW)
            trace = rising_bandit_run(arms, config)
            expected, _ = offline_max_run(curves, horizon)
            if expected != k_star:
                result.failures.append(f"instance {i}: fixture inconsistency, argmax {expected}")
            elif trace.best_arm != k_star:
                result.failures.append(
                    f"instance {i}: returned arm {trace.best_arm}, optimal is {k_star}"
                )
    return result


def allocation_instance() -> InstanceSpec:
    """16 arms with one clearly dominant algorithm, mirroring a wide search."""
    rng = np.random.default_rng(424242)
    specs = []
    for arm in range(1, 17):
        if arm == ALLOCATION_DOMINANT_ARM:
            curve: RewardCurve = ExponentialCurve(limit=0.95, initial=0.5, decay=0.8)
        else:
            limit = rng.uniform(0.35, 0.78)
            curve = ExponentialCurve(
                limit=limit,
                initial=rng.uniform(0.2, 0.8) * limit,
                decay=rng.uniform(0.3, 0.7),
            )
        specs.append(CurveArmSpec(curve))
    return InstanceSpec(specs)


SUITES = {
    "lemma1": suite_lemma1,
    "safety": suite_safety,
    "theorem1": suite_theorem1,
    "corollary1": suite_corollary1,
    "theorem2": suite_theorem2,
}
