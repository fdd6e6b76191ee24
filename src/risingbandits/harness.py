"""Simulation and verification machinery.

Runs policies on instances, computes the best-observed-reward objective and
its regret against the offline oracle (the best single arm), and provides the
desk-scale checks: the exact maximum over all pull sequences, the
separation-time quantity gamma, the regret-bound evaluation, the
average-policy comparison condition, and the bias-ratio condition for the
smooth growth rate.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, fields

import numpy as np

from .arms import ConfigurationError, InstanceSpec, make_instance
from .bandit import (
    DEFAULT_EPSILON,
    BanditConfig,
    Policy,
    PolicyTrace,
    StepSink,
    run_policy,
    upper_bound,
)
from .curves import RewardCurve

# Interpretation caveat carried into every report: the regret bound's arm
# multiplicity is read as the number of arms K.
BOUND_INTERPRETATION_NOTE = (
    "regret bound evaluated as r*(T) - r*(T - (K-1)*gamma(T)) with the arm "
    "multiplicity taken to be K, the number of arms"
)


def derive_seed(
    base_seed: int, policy_name: str, replication: int
) -> np.random.SeedSequence:
    """Splittable stream for one (policy, replication) run.

    The policy name enters through a stable CRC32 key, so adding a policy to
    an experiment never perturbs the streams of the others.
    """
    policy_key = zlib.crc32(policy_name.encode("utf-8"))
    return np.random.SeedSequence(entropy=base_seed, spawn_key=(policy_key, replication))


def simulate(
    policy: Policy,
    instance: InstanceSpec,
    config: BanditConfig,
    seed: int = 0,
    replication: int = 0,
    sink: StepSink | None = None,
) -> PolicyTrace:
    """Run one policy on a fresh copy of the instance, passing each pull to ``sink``.

    Every run builds its own arm processes from the spec, so policies never
    share arm state; arm and policy RNG streams derive from (seed, policy
    name, replication).
    """
    run_seed = derive_seed(seed, policy.name, replication)
    arms = make_instance(instance, run_seed)
    policy_stream = np.random.SeedSequence(entropy=run_seed.entropy, spawn_key=run_seed.spawn_key + (0,))
    policy.rng = np.random.Generator(np.random.PCG64(policy_stream))
    return run_policy(policy, arms, config, sink)


def compute_gamma(curves: list[RewardCurve], horizon: int) -> tuple[int, ...]:
    """Separation times gamma_k from lockstep two-arm simulation on ground truth.

    For each suboptimal arm k, arm k and the optimal arm are pulled strictly
    alternately (k first) on their true values; gamma_k is the first per-arm
    pull count at which k's extrapolated upper bound falls to the optimal
    arm's lower bound.  An arm not separated within the horizon gets
    gamma_k = horizon, which no separated arm reaches: separation at n needs
    2n <= horizon.  The optimal arm gets 0.  Theorem 1's gamma is their maximum.
    """
    k_star, _ = offline_max_run(curves, horizon)
    star_curve = curves[k_star - 1]
    epsilon = DEFAULT_EPSILON
    per_arm = []
    for idx, curve in enumerate(curves, start=1):
        if idx == k_star:
            per_arm.append(0)
            continue
        gamma_k = horizon
        # Each value is evaluated once: this step's is the next step's previous one.
        previous = curve.eval(1)
        n = 2
        while 2 * n <= horizon:
            value = curve.eval(n)
            # Arm k's upper bound is computed at its own pull moment,
            # global step 2n - 1 in the alternating schedule.
            u = upper_bound(value, value - previous, horizon - (2 * n - 1))
            if u <= star_curve.eval(n) + epsilon:
                gamma_k = n
                break
            previous = value
            n += 1
        per_arm.append(gamma_k)
    return tuple(per_arm)


def theorem1_is_vacuous(k: int, gamma: int, horizon: int) -> bool:
    return (k - 1) * gamma >= horizon


def theorem1_bound(curves: list[RewardCurve], horizon: int, gamma: int) -> float:
    """Regret bound r*(T) - r*(T - (K-1)*gamma), with K = len(curves); 1.0 when vacuous."""
    k = len(curves)
    if theorem1_is_vacuous(k, gamma, horizon):
        return 1.0
    k_star, star_value = offline_max_run(curves, horizon)
    return star_value - curves[k_star - 1].eval(horizon - (k - 1) * gamma)


def corollary1_check(curves: list[RewardCurve], horizon: int, gamma: int) -> tuple[bool, float]:
    """Condition under which elimination beats round-robin, plus the analytic
    round-robin regret from ground truth, with K = len(curves).

    Uses floor(T/K) pulls per arm when the horizon does not divide evenly.
    """
    k = len(curves)
    k_star, star_value = offline_max_run(curves, horizon)
    if k == 1:
        return True, 0.0
    condition = gamma <= (k * horizon - horizon) / (k * (k - 1))
    per_arm_pulls = horizon // k
    if per_arm_pulls >= 1:
        avg_j = max(curve.eval(per_arm_pulls) for curve in curves)
    else:
        # Fewer pulls than arms: round-robin reaches only the first T arms once.
        avg_j = max(curve.eval(1) for curve in curves[:horizon])
    return condition, star_value - avg_j


def least_concave_majorant(observed: list[float]) -> list[float]:
    """Least concave majorant of an observed sequence (upper concave hull).

    The hull is over the points (n, y(n)).  Values are clamped from below by
    the observations so floating-point chord evaluation never dips under the
    data.
    """
    n = len(observed)
    if n == 0:
        raise ValueError("observed sequence is empty")
    # Monotone-chain upper hull over x = 1..n.
    hull: list[tuple[int, float]] = []
    for x, y in enumerate(observed, start=1):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (x - x2) <= (y - y2) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append((x, y))
    out = [0.0] * n
    seg = 0
    for x in range(1, n + 1):
        while seg + 1 < len(hull) and hull[seg + 1][0] < x:
            seg += 1
        x1, y1 = hull[seg]
        if seg + 1 < len(hull):
            x2, y2 = hull[seg + 1]
            value = y1 + (y2 - y1) * (x - x1) / (x2 - x1)
        else:
            value = y1
        out[x - 1] = max(value, observed[x - 1])
    return out


def theorem2_condition_check(majorant: list[float], observed: list[float], window: int) -> bool:
    """Bias-ratio condition for the smooth growth rate, over T = len(observed).

    With bias delta(t) = majorant(t) - observed(t), checks
    delta(t) / delta(t - C) <= (T - t) / (T - t + C) for every t in (C, T].
    A bias within ``DEFAULT_EPSILON`` counts as zero, and a ratio may exceed
    its bound by as much.  A zero earlier bias with a positive later bias
    counts as a violation; both zero counts as satisfied.  A majorant more
    than ``DEFAULT_EPSILON`` below an observation raises ``ValueError``.
    """
    horizon = len(observed)
    deltas = []
    for n in range(horizon):
        d = majorant[n] - observed[n]
        if d < -DEFAULT_EPSILON:
            raise ValueError(
                f"observed value {observed[n]} at pull {n + 1} exceeds the majorant {majorant[n]}"
            )
        deltas.append(0.0 if d <= DEFAULT_EPSILON else d)
    for t in range(window + 1, horizon + 1):
        d_now = deltas[t - 1]
        d_prev = deltas[t - window - 1]
        if d_prev == 0.0:
            if d_now > 0.0:
                return False
            continue
        bound = (horizon - t) / (horizon - t + window)
        if d_now / d_prev > bound + DEFAULT_EPSILON:
            return False
    return True


def offline_max_run(curves: list[RewardCurve], horizon: int) -> tuple[int, float]:
    """Best single arm when the curves are known: argmax of the horizon value.

    Returns (arm_id, value); ties go to the lowest arm id.
    """
    if not curves:
        raise ConfigurationError("an instance needs at least one arm")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    best_arm, best_value = 1, curves[0].eval(horizon)
    for idx, curve in enumerate(curves[1:], start=2):
        value = curve.eval(horizon)
        if value > best_value:
            best_arm, best_value = idx, value
    return best_arm, best_value


def brute_force_optimal(curves: list[RewardCurve], horizon: int) -> float:
    """Exact maximum, over all K^T pull sequences, of the best-observed reward.

    A sequence observes r_a(n) exactly when it pulls arm a at least n times,
    and pulling arm a alone reaches every n <= T, so the maximum is the
    largest r_a(n) with n <= T. This assumes neither monotone nor concave
    curves, and takes O(K·T).
    """
    if not curves:
        raise ConfigurationError("an instance needs at least one arm")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    return max(curve.eval(n) for curve in curves for n in range(1, horizon + 1))


def regret(trace_j: float, j_oracle: float) -> float:
    """Oracle value minus achieved value, clamped at zero.

    A value above the oracle beyond tolerance is refused by ``build_report``,
    not here.
    """
    return max(j_oracle - trace_j, 0.0)


class InvariantViolation(RuntimeError):
    """A result that the paper's guarantees rule out: the checking code is wrong."""


@dataclass(slots=True)
class RegretReport:
    """Summary of one experiment on a curve-backed instance."""

    horizon: int | None
    policies: dict[str, list[float]]  # each policy's final J, one per replication
    j_oracle: float | None = None
    oracle_arm: int | None = None
    regrets: dict[str, float] = field(default_factory=dict)
    gamma: int | None = None
    gamma_per_arm: tuple[int, ...] | None = None
    theorem1_bound: float | None = None
    theorem1_vacuous: bool | None = None
    corollary1_condition_holds: bool | None = None
    avg_policy_regret: float | None = None
    interpretation_notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["policies"] = {
            name: {"j_mean": sum(values) / len(values), "j_per_replication": values}
            for name, values in self.policies.items()
        }
        return out


def build_report(
    instance: InstanceSpec,
    config: BanditConfig,
    results: dict[str, list[float]],
) -> RegretReport:
    """Assemble the analytic comparisons available for this instance.

    Oracle-dependent fields need ground-truth curves and a trial-count
    horizon; otherwise they stay None with an explanatory note.  A policy
    mean above the oracle beyond tolerance raises :class:`InvariantViolation`.
    """
    report = RegretReport(horizon=config.trials, policies=results)
    curves = instance.curves()
    if curves is None:
        report.interpretation_notes.append(
            "no analytic oracle: instance contains arms without ground-truth curves"
        )
        return report
    if config.trials is None:
        report.interpretation_notes.append(
            "no analytic oracle: budget-mode horizon has no closed-form optimum"
        )
        return report
    horizon = config.trials
    k = len(curves)
    oracle_arm, j_oracle = offline_max_run(curves, horizon)
    report.oracle_arm = oracle_arm
    report.j_oracle = j_oracle
    for name, values in results.items():
        mean = sum(values) / len(values)
        # Lemma 1: no pull sequence observes more than the best single arm.
        if mean > j_oracle + DEFAULT_EPSILON:
            raise InvariantViolation(f"policy {name!r} mean value {mean} exceeds the oracle {j_oracle}")
        report.regrets[name] = regret(mean, j_oracle)
    per_arm = compute_gamma(curves, horizon)
    gamma = max(per_arm)
    report.gamma, report.gamma_per_arm = gamma, per_arm
    unseparated = [arm for arm, gamma_k in enumerate(per_arm, start=1) if gamma_k == horizon]
    if unseparated:
        report.interpretation_notes.append(
            f"arms {unseparated} not separated within the "
            "horizon; their separation time is reported as the horizon itself"
        )
    report.theorem1_vacuous = theorem1_is_vacuous(k, gamma, horizon)
    report.theorem1_bound = theorem1_bound(curves, horizon, gamma)
    if report.theorem1_vacuous:
        report.interpretation_notes.append(
            "regret bound vacuous: (K-1)*gamma reaches the horizon; reported as 1.0"
        )
    condition, avg_regret = corollary1_check(curves, horizon, gamma)
    report.corollary1_condition_holds = condition
    report.avg_policy_regret = avg_regret
    if horizon % k != 0:
        report.interpretation_notes.append(
            "horizon not divisible by the arm count; round-robin regret uses floor(T/K) pulls"
        )
    report.interpretation_notes.append(BOUND_INTERPRETATION_NOTE)
    return report
