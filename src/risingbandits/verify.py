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

Every scalar draw between two bounds goes through :func:`_uniform`, which
computes ``low + (high - low) * rng.random()``: the float that numpy's
``Generator.uniform(low, high)`` returns, from the same step of the same
stream, without the scalar call's argument handling, which costs about
three times as much.  The battery's generator makes about 15 such draws
per instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .arms import CurveArmSpec, InstanceSpec
from .bandit import DEFAULT_EPSILON, BanditConfig, rising_bandit_run
from .curves import ExponentialCurve, PowerCurve, RewardCurve, StaircaseCurve, TabulatedCurve
from .harness import (
    InvariantViolation,
    RegretReport,
    brute_force_optimal,
    build_report,
    least_concave_majorant,
    offline_max_run,
    theorem2_condition_check,
)

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


class FixtureError(InvariantViolation):
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


def _uniform(rng: np.random.Generator, low: float, high: float) -> float:
    """``rng.uniform(low, high)``, the same float from the same stream (see
    the module docstring)."""
    return low + (high - low) * rng.random()


def _random_concave_curve(rng: np.random.Generator, initial: float, limit: float) -> RewardCurve:
    if rng.random() < 0.5:
        return ExponentialCurve(limit=limit, initial=initial, decay=_uniform(rng, 0.3, 0.8))
    return PowerCurve(limit=limit, scale=limit - initial, exponent=_uniform(rng, 0.8, 2.0))


def random_small_instance(rng: np.random.Generator) -> tuple[list[RewardCurve], int]:
    """Unconstrained concave instance small enough for the exact oracle."""
    k = int(rng.integers(2, 4))
    horizon = int(rng.integers(4, 11))
    curves = []
    for _ in range(k):
        limit = _uniform(rng, 0.2, 0.98)
        initial = _uniform(rng, 0.05, 0.9) * limit
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
    initial = _uniform(rng, 0.25, 0.6)
    limit = _uniform(rng, initial + 0.15, 0.95)
    dominant = _random_concave_curve(rng, initial, limit)
    floor_value = dominant.eval(max(1, horizon // k))
    curves: list[RewardCurve] = []
    for arm in range(1, k + 1):
        if arm == k_star:
            curves.append(dominant)
            continue
        other_limit = _uniform(rng, 0.3, 0.97) * floor_value
        other_initial = _uniform(rng, 0.2, 0.9) * other_limit
        curves.append(_random_concave_curve(rng, other_initial, other_limit))
    return curves, horizon, k_star


@dataclass(slots=True)
class ConcaveCase:
    """One battery instance: the elimination run's final candidate set and
    the report the CLI would write."""

    candidates: tuple[int, ...]
    report: RegretReport


def concave_battery(count: int = CONCAVE_BATTERY_COUNT, seed: int = CONCAVE_BATTERY_SEED) -> list[ConcaveCase]:
    """Shared instance set for the safety / regret-bound / round-robin suites."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        curves, horizon, k_star = random_dominant_instance(rng)
        instance = InstanceSpec([CurveArmSpec(c) for c in curves])
        config = BanditConfig(trials=horizon)
        # Exact arms draw nothing, so they get no stream: a noisy arm would fail
        # to build, not shift every later instance by the draws it takes.
        trace = rising_bandit_run([spec.build(None) for spec in instance.arms], config)
        report = build_report(instance, config, {"rising_bandit": [trace.final_j]})
        if report.oracle_arm != k_star:
            raise FixtureError(
                f"battery instance {i}: the generator made arm {k_star} dominant, "
                f"but the oracle picks arm {report.oracle_arm}"
            )
        cases.append(ConcaveCase(trace.candidates, report))
    return cases


def suite_lemma1(count: int = LEMMA1_COUNT, seed: int = LEMMA1_SEED) -> SuiteResult:
    """The exact maximum over all pull sequences, the largest reward any
    sequence observes within the horizon, equals the single-best-arm value."""
    rng = np.random.default_rng(seed)
    result = SuiteResult(name="lemma1", total=count)
    for i in range(count):
        curves, horizon = random_small_instance(rng)
        exact = brute_force_optimal(curves, horizon)
        _, analytic = offline_max_run(curves, horizon)
        if abs(exact - analytic) > DEFAULT_EPSILON:
            result.failures.append(
                f"instance {i}: exact maximum {exact} != analytic {analytic}"
            )
    return result


def suite_safety(battery: list[ConcaveCase]) -> SuiteResult:
    """The horizon-best arm is never removed from the candidate set."""
    result = SuiteResult(name="safety", total=len(battery))
    for i, case in enumerate(battery):
        oracle_arm = case.report.oracle_arm
        # Candidate sets only shrink: an arm in the last was in every one.
        if oracle_arm not in case.candidates:
            result.failures.append(f"instance {i}: optimal arm {oracle_arm} eliminated")
    return result


def suite_theorem1(battery: list[ConcaveCase]) -> SuiteResult:
    """Measured regret never exceeds the separation-time bound."""
    result = SuiteResult(name="theorem1", total=len(battery))
    for i, case in enumerate(battery):
        regret, bound = case.report.regrets["rising_bandit"], case.report.theorem1_bound
        if regret > bound + DEFAULT_EPSILON:
            result.failures.append(f"instance {i}: regret {regret} exceeds bound {bound}")
    return result


def suite_corollary1(battery: list[ConcaveCase]) -> SuiteResult:
    """Where the separation condition holds, elimination beats round-robin."""
    # Numbered by battery index, as the other battery suites number theirs.
    applicable = [(i, case.report) for i, case in enumerate(battery) if case.report.corollary1_condition_holds]
    result = SuiteResult(name="corollary1", total=len(applicable))
    for i, report in applicable:
        regret = report.regrets["rising_bandit"]
        if regret > report.avg_policy_regret + DEFAULT_EPSILON:
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
    start = _uniform(rng, 0.4, 0.6)
    limit = _uniform(rng, start + 0.3, 0.97)
    q = _uniform(rng, 0.88, 0.95)
    dominant = StaircaseCurve(initial=start, limit=limit, plateau_length=SMOOTH_WINDOW, jump_fraction=q)
    gap = limit - start
    v1 = limit - gap * (1.0 - q)  # value after the first jump
    v2 = limit - gap * (1.0 - q) ** 2
    curves: list[RewardCurve] = [dominant]

    if rng.random() < 0.7:
        # Ramp arm that crosses above the leader's second plateau and forces
        # the smooth growth rate to carry the leader through.
        ramp_start = _uniform(rng, 0.02, 0.08)
        peak = _uniform(rng, v1 + 0.002, v2 - 0.002)
        slope_cap = (start - 0.02 - ramp_start) / 6.0
        cross_pull = int(rng.integers(10, 15))
        slope = min(slope_cap, (peak - ramp_start) / (cross_pull - 1))
        curves.append(_ramp_curve(ramp_start, slope, peak, horizon))
    if rng.random() < 0.5:
        low_limit = _uniform(rng, 0.3, 0.9) * start
        curves.append(
            ExponentialCurve(
                limit=low_limit,
                initial=_uniform(rng, 0.2, 0.8) * low_limit,
                decay=_uniform(rng, 0.3, 0.8),
            )
        )
    order = rng.permutation(len(curves))
    curves = [curves[i] for i in order]
    k_star = int(np.where(order == 0)[0][0]) + 1
    return curves, horizon, k_star


def suite_theorem2(count: int = THEOREM2_COUNT, seed: int = THEOREM2_SEED) -> SuiteResult:
    """Smooth-growth identification on condition-satisfying loose-concave arms.

    An instance whose arms break the bias-ratio condition, or whose oracle
    argmax is not the generator's leader, raises :class:`FixtureError`, as
    the battery does: the suite checks the algorithm, not its generator.
    """
    rng = np.random.default_rng(seed)
    result = SuiteResult(name="theorem2", total=count)
    for i in range(count):
        curves, horizon, k_star = theorem2_instance(rng)
        for arm_idx, curve in enumerate(curves, start=1):
            observed = [curve.eval(n) for n in range(1, horizon + 1)]
            majorant = least_concave_majorant(observed)
            if not theorem2_condition_check(majorant, observed, SMOOTH_WINDOW):
                raise FixtureError(f"theorem2 instance {i}: arm {arm_idx} fails the bias-ratio condition")
        expected, _ = offline_max_run(curves, horizon)
        if expected != k_star:
            raise FixtureError(
                f"theorem2 instance {i}: the generator made arm {k_star} the leader, "
                f"but the oracle picks arm {expected}"
            )
        arms = [CurveArmSpec(c).build(None) for c in curves]
        config = BanditConfig(trials=horizon, growth="smooth", smooth_window=SMOOTH_WINDOW)
        trace = rising_bandit_run(arms, config)
        if trace.best_arm != k_star:
            result.failures.append(f"instance {i}: returned arm {trace.best_arm}, optimal is {k_star}")
    return result


def allocation_instance() -> InstanceSpec:
    """16 arms with one clearly dominant algorithm, mirroring a wide search."""
    rng = np.random.default_rng(424242)
    specs = []
    for arm in range(1, 17):
        if arm == ALLOCATION_DOMINANT_ARM:
            curve: RewardCurve = ExponentialCurve(limit=0.95, initial=0.5, decay=0.8)
        else:
            limit = _uniform(rng, 0.35, 0.78)
            curve = ExponentialCurve(
                limit=limit,
                initial=_uniform(rng, 0.2, 0.8) * limit,
                decay=_uniform(rng, 0.3, 0.7),
            )
        specs.append(CurveArmSpec(curve))
    return InstanceSpec(specs)


# The suites that `rising-bandits verify` runs by name; each battery suite builds its own battery.
SUITES = {
    "lemma1": suite_lemma1,
    "safety": lambda: suite_safety(concave_battery()),
    "theorem1": lambda: suite_theorem1(concave_battery()),
    "corollary1": lambda: suite_corollary1(concave_battery()),
    "theorem2": suite_theorem2,
}
