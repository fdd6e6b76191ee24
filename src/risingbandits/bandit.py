"""Elimination-based selection for rising reward processes.

The algorithm keeps a candidate set of arms, pulls every candidate once per
round, brackets each arm's achievable final reward between the last observed
value (lower) and a linear extrapolation of the growth rate (upper), and
drops any arm whose upper bound falls below another candidate's lower bound.
Supports a trial-count horizon and a cost-aware budget horizon.

One engine, :func:`run_policy`, runs the elimination algorithm and the
baselines alike: each is a :class:`Policy` that selects the next arm and
observes each pull.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .arms import ArmProcess, ConfigurationError
from .curves import RewardCurve

DEFAULT_EPSILON = 1e-12
# A budget admits a pull while spend + cost <= budget + epsilon, so a large
# epsilon would let a run overspend, or never end.
MAX_EPSILON = 1e-6
DEFAULT_SMOOTH_WINDOW = 7

GROWTH_MODES = ("last", "smooth")


class InsufficientHistoryError(ValueError):
    """Raised when a growth rate is requested from fewer than two observations."""


@dataclass
class ArmState:
    """Per-arm bookkeeping maintained by a run."""

    arm_id: int
    pulls: int = 0
    history: list[float] = field(default_factory=list)
    upper: float = 1.0
    lower: float = 0.0
    total_cost: float = 0.0
    # Running sum of ``history``, added left to right as ``sum()`` does on
    # Python 3.11, so means match ``sum(history)`` exactly there; from 3.12
    # ``sum()`` compensates float rounding and may differ in the last bit.
    reward_sum: float = 0.0


@dataclass(frozen=True)
class BanditConfig:
    """Run configuration: exactly one of ``trials`` or ``budget`` must be set."""

    trials: int | None = None
    budget: float | None = None
    growth: str = "last"
    smooth_window: int = DEFAULT_SMOOTH_WINDOW
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self) -> None:
        if (self.trials is None) == (self.budget is None):
            raise ConfigurationError("exactly one of trials or budget must be set")
        if self.trials is not None and self.trials < 1:
            raise ConfigurationError(f"trials must be >= 1, got {self.trials}")
        if self.budget is not None and self.budget <= 0.0:
            raise ConfigurationError(f"budget must be positive, got {self.budget}")
        if self.growth not in GROWTH_MODES:
            raise ConfigurationError(f"growth mode must be one of {GROWTH_MODES}, got {self.growth!r}")
        if self.smooth_window < 1:
            raise ConfigurationError(f"smooth window must be >= 1, got {self.smooth_window}")
        if not 0.0 <= self.epsilon <= MAX_EPSILON:
            raise ConfigurationError(f"epsilon must lie in [0, {MAX_EPSILON}], got {self.epsilon}")


class StepRecord(NamedTuple):
    """One pull of a run, as a sink receives it; a named tuple, since one is built per pull."""

    t: int
    arm: int
    reward: float
    cost: float
    candidate_set_size: int


# Receives each pull of a run as it happens, e.g. ``steps.append``.
StepSink = Callable[[StepRecord], object]


@dataclass
class PolicyTrace:
    """Summary of one run; its steps go to the run's sink, if one is given."""

    horizon: int  # pulls made
    pull_counts: list[int]
    total_cost: float
    best_arm: int
    best_step: int
    final_j: float
    candidate_history: list[tuple[int, ...]] = field(default_factory=list)


def growth_rate(history: list[float], mode: str = "last", window: int = DEFAULT_SMOOTH_WINDOW) -> float:
    """Growth rate of an observed reward sequence.

    ``last`` is the most recent increment; ``smooth`` averages the last
    ``window`` increments, falling back to the mean increment over the whole
    history while fewer than ``window`` increments exist.
    """
    n = len(history)
    if n < 2:
        raise InsufficientHistoryError(f"growth rate needs >= 2 observations, got {n}")
    if mode == "last":
        return history[-1] - history[-2]
    if mode == "smooth":
        if n > window:
            return (history[-1] - history[-1 - window]) / window
        return (history[-1] - history[0]) / (n - 1)
    raise ValueError(f"growth mode must be one of {GROWTH_MODES}, got {mode!r}")


def upper_bound(last: float, omega: float, pulls_left: float) -> float:
    """Optimistic final reward: last value plus omega per pull left, capped at 1."""
    if pulls_left < 0:
        raise ValueError(f"pulls left must be >= 0, got {pulls_left}")
    return min(last + omega * pulls_left, 1.0)


def eliminate(candidates: list[int], states: list[ArmState], epsilon: float = DEFAULT_EPSILON) -> list[int]:
    """One elimination sweep over the candidate set, in O(|candidates|).

    Arm j is dropped iff some other candidate's lower bound reaches j's upper
    bound (within epsilon).  All removals are decided against the set as it
    stood at sweep start; if mutual dominance would empty the set, the
    lowest-numbered candidate survives.
    """
    # The largest lower bound among the candidates other than j is the top
    # one, or the runner-up when j holds the top; a tie for the top makes
    # the two equal.  One pass finds both, a second decides each arm.
    top = runner_up = -math.inf
    top_arm = None
    for i in candidates:
        lower = states[i - 1].lower
        if lower > top:
            top, runner_up, top_arm = lower, top, i
        elif lower > runner_up:
            runner_up = lower
    survivors = []
    for j in candidates:
        best_other = runner_up if j == top_arm else top
        if not best_other >= states[j - 1].upper - epsilon:
            survivors.append(j)
    if not survivors:
        survivors = [min(candidates)]
    return survivors


class Horizon:
    """A trial count or a spend budget, and how much of it a run has used.

    The only place where the two modes differ: whether the next pull fits,
    and how many pulls are left for an arm's upper bound.  A pull fits a
    budget within ``epsilon``, so float rounding in the running spend cannot
    refuse a pull that fits exactly.
    """

    def __init__(self, config: BanditConfig, arms: list[ArmProcess]) -> None:
        self.trials = config.trials
        self.budget = config.budget
        self.epsilon = config.epsilon
        self.arms = arms
        self.t = 0
        self.spent = 0.0

    def fits(self, arm_id: int | None = None) -> bool:
        """Whether one more pull, of ``arm_id`` when given, stays within the horizon."""
        if self.trials is not None:
            return self.t < self.trials
        return arm_id is None or self.spent + self.arms[arm_id - 1].peek_cost() <= self.budget + self.epsilon

    def upper(self, state: ArmState, omega: float) -> float:
        """Upper bound of ``state``, growing at ``omega`` per pull, over the
        pulls left after step t: trials left, or budget left at the arm's
        mean pull cost so far."""
        if self.trials is not None:
            pulls_left = self.trials - self.t
        else:
            # The spend may pass the budget by up to epsilon: no pulls left.
            pulls_left = max(self.budget - self.spent, 0.0) / (state.total_cost / state.pulls)
        return upper_bound(state.history[-1], omega, pulls_left)


class Policy:
    """An arm-selection policy run by :func:`run_policy`.

    ``select`` names the next arm, or None to end the run.  ``candidates`` is
    the arm set in force, which only the elimination policy shrinks.
    """

    name = "policy"

    def reset(self, rng: np.random.Generator) -> None:
        """Install the run-local RNG stream; deterministic policies ignore it."""

    def start(self, states: list[ArmState], config: BanditConfig, horizon: Horizon) -> None:
        """Begin a run over ``states``."""
        self.candidates = [st.arm_id for st in states]
        self.candidate_history = [tuple(self.candidates)]

    def select(self, states: list[ArmState], t: int) -> int | None:
        raise NotImplementedError

    def observe(self, state: ArmState) -> None:
        """Called after every pull with the pulled arm's updated state."""


class RisingBanditPolicy(Policy):
    """The elimination algorithm.

    Each round pulls the candidates in id order, skipping those whose next
    pull does not fit, and ends with a sweep when the next pull is requested:
    with no pulls left a sweep could only drop arms that tie at equality.  A
    round with no pull ends the run.

    Once one candidate is left the set is settled: a sweep would keep it, so
    none runs, and the bounds only a sweep reads are no longer updated.
    """

    name = "rising_bandit"

    def start(self, states: list[ArmState], config: BanditConfig, horizon: Horizon) -> None:
        super().start(states, config, horizon)
        self._config = config
        self._horizon = horizon
        self._next = 0
        self._round_pulled = False

    def select(self, states: list[ArmState], t: int) -> int | None:
        while True:
            while self._next < len(self.candidates):
                arm_id = self.candidates[self._next]
                self._next += 1
                if self._horizon.fits(arm_id):
                    self._round_pulled = True
                    return arm_id
            if not self._round_pulled:
                return None
            if len(self.candidates) > 1:
                self.candidates = eliminate(self.candidates, states, self._config.epsilon)
                self.candidate_history.append(tuple(self.candidates))
            else:
                # Settled: one snapshot per round still, the same one.
                self.candidate_history.append(self.candidate_history[-1])
            self._next, self._round_pulled = 0, False

    def observe(self, state: ArmState) -> None:
        # Only a sweep reads upper, and none follows once one candidate is
        # left.  With one observation the growth rate is unknowable, so upper
        # keeps its initial 1.0, the only sound bound.
        if len(self.candidates) == 1 or state.pulls < 2:
            return
        omega = growth_rate(state.history, self._config.growth, self._config.smooth_window)
        state.upper = self._horizon.upper(state, omega)


def run_policy(
    policy: Policy, arms: list[ArmProcess], config: BanditConfig, sink: StepSink | None = None
) -> PolicyTrace:
    """Run ``policy`` on ``arms``: the one loop that pulls arms.

    Each pull is passed to ``sink`` as a :class:`StepRecord`; with no sink no
    record is built.  The run ends when the horizon is used up, when the
    policy returns None, or at the first selected pull that does not fit.
    """
    k = len(arms)
    if k == 0:
        raise ConfigurationError("an instance needs at least one arm")
    states = [ArmState(arm_id=i) for i in range(1, k + 1)]
    horizon = Horizon(config, arms)
    policy.start(states, config, horizon)
    # Bound once per run: the loop body runs once per pull.
    select, observe, fits = policy.select, policy.observe, horizon.fits
    t, arm_id = 0, None
    # Only a strictly greater reward moves the best, so best_step is the
    # first step that reaches final_j.
    final_j, best_step, best_arm = -math.inf, 0, 0
    while fits():
        arm_id = select(states, t + 1)
        if arm_id is None:
            break
        if not 1 <= arm_id <= k:
            raise ConfigurationError(f"policy {policy.name!r} selected invalid arm {arm_id}")
        if not fits(arm_id):
            break
        reward, cost = arms[arm_id - 1].pull()
        t += 1
        horizon.t = t
        horizon.spent += cost
        st = states[arm_id - 1]
        st.pulls += 1
        st.history.append(reward)
        st.reward_sum += reward
        st.lower = reward
        st.total_cost += cost
        if reward > final_j:
            final_j, best_step, best_arm = reward, t, arm_id
        if sink is not None:
            sink(StepRecord(t, arm_id, reward, cost, len(policy.candidates)))
        observe(st)
    if t == 0:
        # A baseline ends at its first pick that does not fit, even when another arm would.
        if arm_id is not None and any(map(fits, range(1, k + 1))):
            raise ConfigurationError(
                f"policy {policy.name!r} chose arm {arm_id} for its first pull, at cost "
                f"{arms[arm_id - 1].peek_cost()}, above the budget {config.budget}"
            )
        raise ConfigurationError("budget too small for a single pull")
    return PolicyTrace(
        horizon=t,
        pull_counts=[st.pulls for st in states],
        total_cost=sum(st.total_cost for st in states),
        best_arm=best_arm,
        best_step=best_step,
        final_j=final_j,
        candidate_history=policy.candidate_history,
    )


def rising_bandit_run(arms: list[ArmProcess], config: BanditConfig) -> PolicyTrace:
    """Run the elimination algorithm to the configured horizon."""
    return run_policy(RisingBanditPolicy(), arms, config)


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
