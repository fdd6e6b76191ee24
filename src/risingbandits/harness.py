"""Simulation and verification machinery.

Runs policies on instances, computes the best-observed-reward objective and
its regret against the offline oracle, and provides the desk-scale checks:
an exact oracle over all pull sequences, the separation-time quantity gamma, the
regret-bound evaluation, the average-policy comparison condition, and the
bias-ratio condition for the smooth growth rate.
"""

from __future__ import annotations

import itertools
import math
import operator
import warnings
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
    offline_max_run,
    run_policy,
    upper_bound,
)
from .curves import RewardCurve

# Count vectors the exact oracle may visit. At the cap, one instance with 1
# to 20 arms took under 1.5 s and under 40 MB on a 2-CPU VM; more arms at a
# small horizon cost more per state.
BRUTE_FORCE_STATE_CAP = 250_000

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
    policy.reset(np.random.Generator(np.random.PCG64(policy_stream)))
    return run_policy(policy, arms, config, sink)


@dataclass(frozen=True)
class GammaResult:
    gamma: int
    per_arm: tuple[int, ...]
    optimal_arm: int
    non_identifiable_arms: tuple[int, ...]

    @property
    def identifiable(self) -> bool:
        return not self.non_identifiable_arms


def compute_gamma(
    curves: list[RewardCurve], horizon: int, epsilon: float = DEFAULT_EPSILON
) -> GammaResult:
    """Separation times from lockstep two-arm simulation on ground truth.

    For each suboptimal arm k, arm k and the optimal arm are pulled strictly
    alternately (k first) on their true values; gamma_k is the first per-arm
    pull count at which k's extrapolated upper bound falls to the optimal
    arm's lower bound.  An arm not separated within the horizon gets
    gamma_k = horizon and is flagged non-identifiable.
    """
    k_star, _ = offline_max_run(curves, horizon)
    star_curve = curves[k_star - 1]
    per_arm = []
    non_identifiable = []
    for idx, curve in enumerate(curves, start=1):
        if idx == k_star:
            per_arm.append(0)
            continue
        gamma_k = None
        n = 1
        while 2 * n <= horizon:
            if n >= 2:
                omega = curve.eval(n) - curve.eval(n - 1)
                # Arm k's upper bound is computed at its own pull moment,
                # global step 2n - 1 in the alternating schedule.
                u = upper_bound(curve.eval(n), omega, horizon - (2 * n - 1))
                if u <= star_curve.eval(n) + epsilon:
                    gamma_k = n
                    break
            n += 1
        if gamma_k is None:
            gamma_k = horizon
            non_identifiable.append(idx)
        per_arm.append(gamma_k)
    return GammaResult(
        gamma=max(per_arm),
        per_arm=tuple(per_arm),
        optimal_arm=k_star,
        non_identifiable_arms=tuple(non_identifiable),
    )


def theorem1_is_vacuous(k: int, gamma: int, horizon: int) -> bool:
    return (k - 1) * gamma >= horizon


def theorem1_bound(curves: list[RewardCurve], horizon: int, gamma: int, k: int) -> float:
    """Regret bound r*(T) - r*(T - (K-1)*gamma); 1.0 when vacuous."""
    if theorem1_is_vacuous(k, gamma, horizon):
        return 1.0
    k_star, star_value = offline_max_run(curves, horizon)
    return star_value - curves[k_star - 1].eval(horizon - (k - 1) * gamma)


def corollary1_check(
    curves: list[RewardCurve], horizon: int, k: int, gamma: int
) -> tuple[bool, float]:
    """Condition under which elimination beats round-robin, plus the analytic
    round-robin regret from ground truth.

    Uses floor(T/K) pulls per arm when the horizon does not divide evenly.
    """
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


def least_concave_majorant(observed: list[float], limit: float | None = None) -> list[float]:
    """Least concave majorant of an observed sequence (upper concave hull).

    The hull is over the points (n, y(n)); the known curve limit, when given,
    only validates that no observation exceeds it.  Values are clamped from
    below by the observations so floating-point chord evaluation never dips
    under the data.
    """
    n = len(observed)
    if n == 0:
        raise ValueError("observed sequence is empty")
    if limit is not None:
        for i, y in enumerate(observed):
            if y > limit + 1e-9:
                raise ValueError(f"observation {y} at pull {i + 1} exceeds the stated limit {limit}")
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


def theorem2_condition_check(
    majorant: list[float],
    observed: list[float],
    window: int,
    horizon: int | None = None,
    zero_tol: float = 1e-12,
) -> bool:
    """Bias-ratio condition for the smooth growth rate.

    With bias delta(t) = majorant(t) - observed(t), checks
    delta(t) / delta(t - C) <= (T - t) / (T - t + C) for every t in (C, T].
    A zero earlier bias with a positive later bias counts as a violation;
    both zero counts as satisfied.
    """
    horizon = len(observed) if horizon is None else horizon
    if horizon > len(observed):
        raise ValueError(f"horizon {horizon} beyond observed length {len(observed)}")
    deltas = []
    for n in range(horizon):
        d = majorant[n] - observed[n]
        if d < -1e-9:
            raise ValueError(
                f"observed value {observed[n]} at pull {n + 1} exceeds the majorant {majorant[n]}"
            )
        deltas.append(0.0 if d <= zero_tol else d)
    for t in range(window + 1, horizon + 1):
        d_now = deltas[t - 1]
        d_prev = deltas[t - window - 1]
        if d_prev == 0.0:
            if d_now > 0.0:
                return False
            continue
        bound = (horizon - t) / (horizon - t + window)
        if d_now / d_prev > bound + zero_tol:
            return False
    return True


def brute_force_optimal(curves: list[RewardCurve], horizon: int) -> tuple[float, tuple[int, ...]]:
    """Exact maximum, over all K^T pull sequences, of the best-observed reward.

    A sequence's rewards depend only on how many times each arm has been
    pulled so far, so the best value reachable from a count vector c obeys
    V(c) = max over arms a of max(r_a(c_a + 1), V(c + e_a)), with V = -1.0
    once the counts sum to the horizon, and the optimum is V(0). This is the
    maximum over the same sequences the definition ranges over, and it
    assumes neither monotone nor concave curves. It is computed on the count
    lattice, C(T+K, K) states, in O(C(T+K, K)·K). The witness is the
    lexicographically first optimal sequence. Intended for desk-scale
    instances; refuses a lattice above the cap.
    """
    k = len(curves)
    if k == 0:
        raise ConfigurationError("an instance needs at least one arm")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    states = math.comb(horizon + k, k)
    if states > BRUTE_FORCE_STATE_CAP:
        raise ValueError(
            f"instance too large: {k} arms over {horizon} pulls span {states} lattice states, "
            f"above the cap {BRUTE_FORCE_STATE_CAP}"
        )
    tables = [[curve.eval(n) for n in range(1, horizon + 1)] for curve in curves]
    weights = [(horizon + 1) ** a for a in range(k - 1)]
    columns = _lattice_values(tables, horizon, weights)
    best_j = columns[0][0]

    # Walk forward, taking at each step the smallest arm whose branch still
    # attains the optimum. Every branch value is a max over the same table
    # entries as best_j, so == is exact.
    counts = [0] * k
    running_max = -1.0
    witness = []
    for _ in range(horizon):
        for arm in range(k):
            counts[arm] += 1
            reward = tables[arm][counts[arm] - 1]
            later = columns[sum(map(operator.mul, counts, weights))][counts[-1]]
            if max(running_max, reward, later) == best_j:
                break
            counts[arm] -= 1
        running_max = max(running_max, reward)
        witness.append(arm + 1)
    return best_j, tuple(witness)


def _lattice_values(
    tables: list[list[float]], horizon: int, weights: list[int]
) -> dict[int, list[float]]:
    """V on the count lattice, one column per count vector of all arms but the last.

    The column of counts p = (c_1, ..., c_{k-1}) sits at key sum(p_a *
    weights[a]) and holds V at (*p, j) for j = 0, ..., horizon - sum(p); its
    last entry is the terminal -1.0.
    """
    k = len(tables)
    last = tables[-1]
    columns: dict[int, list[float]] = {}
    # Each cut list splits the horizon into k gaps: the pulls left for the
    # last arm at j = 0, then c_1, ..., c_{k-1}. The lists come in
    # lexicographic order, so by pulls left ascending: every column comes
    # after the columns of p + e_a, which have one pull fewer left.
    for cuts in itertools.combinations_with_replacement(range(horizon + 1), k - 1):
        edges = (0, *cuts, horizon)
        free, *prefix = map(operator.sub, edges[1:], edges)
        key = sum(map(operator.mul, prefix, weights))
        if free == 0:
            columns[key] = [-1.0]
            continue
        # Pulling arm a < k moves to the column of p + e_a at the same j, and
        # earns r_a(p_a + 1) whatever j is.
        nexts = [columns[key + w] for w in weights]
        floor = max([tables[a][prefix[a]] for a in range(k - 1)], default=-1.0)
        # Pulling the last arm moves from j to j + 1 in this column, so V is a
        # running max from the terminal entry back to j = 0.
        branch = list(map(max, itertools.repeat(floor, free), last, *nexts))
        column = list(itertools.accumulate(reversed(branch), max, initial=-1.0))
        column.reverse()
        columns[key] = column
    return columns


def regret(trace_j: float, j_oracle: float, epsilon: float = DEFAULT_EPSILON) -> float:
    """Oracle value minus achieved value, clamped at zero.

    A policy beating the oracle beyond tolerance indicates an oracle bug and
    is surfaced as a warning.
    """
    gap = j_oracle - trace_j
    if gap < -epsilon:
        warnings.warn(
            f"policy value {trace_j} exceeds oracle {j_oracle} beyond tolerance", stacklevel=2
        )
    return max(gap, 0.0)


@dataclass
class PolicyResult:
    j_values: list[float] = field(default_factory=list)

    @property
    def j_mean(self) -> float:
        return sum(self.j_values) / len(self.j_values)


@dataclass
class RegretReport:
    """Summary of one experiment on a curve-backed instance."""

    horizon: int | None
    policies: dict[str, PolicyResult]
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
            name: {"j_mean": res.j_mean, "j_per_replication": res.j_values}
            for name, res in self.policies.items()
        }
        if self.gamma_per_arm is not None:
            out["gamma_per_arm"] = list(self.gamma_per_arm)
        return out


def build_report(
    instance: InstanceSpec,
    config: BanditConfig,
    results: dict[str, PolicyResult],
) -> RegretReport:
    """Assemble the analytic comparisons available for this instance.

    Oracle-dependent fields need ground-truth curves and a trial-count
    horizon; otherwise they stay None with an explanatory note.
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
    for name, res in results.items():
        report.regrets[name] = regret(res.j_mean, j_oracle, config.epsilon)
    gamma_result = compute_gamma(curves, horizon, config.epsilon)
    report.gamma = gamma_result.gamma
    report.gamma_per_arm = gamma_result.per_arm
    if not gamma_result.identifiable:
        report.interpretation_notes.append(
            f"arms {list(gamma_result.non_identifiable_arms)} not separated within the "
            "horizon; their separation time is reported as the horizon itself"
        )
    report.theorem1_vacuous = theorem1_is_vacuous(k, gamma_result.gamma, horizon)
    report.theorem1_bound = theorem1_bound(curves, horizon, gamma_result.gamma, k)
    if report.theorem1_vacuous:
        report.interpretation_notes.append(
            "regret bound vacuous: (K-1)*gamma reaches the horizon; reported as 1.0"
        )
    condition, avg_regret = corollary1_check(curves, horizon, k, gamma_result.gamma)
    report.corollary1_condition_holds = condition
    report.avg_policy_regret = avg_regret
    if horizon % k != 0:
        report.interpretation_notes.append(
            "horizon not divisible by the arm count; round-robin regret uses floor(T/K) pulls"
        )
    report.interpretation_notes.append(BOUND_INTERPRETATION_NOTE)
    return report
