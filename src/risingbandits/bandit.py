"""Elimination-based selection for rising reward processes.

The algorithm keeps a candidate set of arms, pulls every candidate once per
round, brackets each arm's achievable final reward between the last observed
value (lower) and a linear extrapolation of the growth rate (upper), and
drops any arm whose upper bound falls below another candidate's lower bound.
The horizon is a trial count or a cost-aware spend budget; only
:class:`Horizon` tells the two apart, and in both a run ends when no
candidate's next pull fits.

One engine, :func:`run_policy`, runs the elimination algorithm and the
baselines alike: each is a :class:`Policy` that plans the next arms to pull
and observes each pull.  An elimination plan is a round of the candidates; a
baseline's is the one arm it selects.  The engine counts each arm's pulls;
every other piece of per-arm state is kept by the policy that reads it.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

from .arms import ArmProcess, ConfigurationError, check_positive, is_integer

# The package's one float tolerance: budget fit, elimination ties, and the
# harness's and verify suites' comparisons with oracle values and bounds.
DEFAULT_EPSILON = 1e-12
DEFAULT_SMOOTH_WINDOW = 7

GROWTH_MODES = ("last", "smooth")


@dataclass(slots=True)
class ArmState:
    """Per-arm state of a run.  The engine counts ``pulls``; the elimination
    policy's ``observe`` writes the rest, keeping in the list ``history`` the
    last ``window + 1`` rewards, oldest first, all that ``growth_rate`` reads."""

    arm_id: int
    pulls: int = 0
    history: list[float] = field(default_factory=list)
    upper: float = 1.0
    # The last reward, or 0.0 before the first pull: not always history[-1],
    # since a budget-mode sweep can read an arm that no pull has fitted.
    lower: float = 0.0
    total_cost: float = 0.0


@dataclass(frozen=True)
class BanditConfig:
    """Run configuration: exactly one of ``trials`` or ``budget`` must be set."""

    trials: int | None = None
    budget: float | None = None
    growth: str = "last"
    smooth_window: int = DEFAULT_SMOOTH_WINDOW

    def __post_init__(self) -> None:
        if (self.trials is None) == (self.budget is None):
            raise ConfigurationError("exactly one of trials or budget must be set")
        if self.trials is not None and not (is_integer(self.trials) and self.trials >= 1):
            raise ConfigurationError(f"trials must be an integer >= 1, got {self.trials}")
        if self.budget is not None:
            check_positive("budget", self.budget)
        if self.growth not in GROWTH_MODES:
            raise ConfigurationError(f"growth mode must be one of {GROWTH_MODES}, got {self.growth!r}")
        if not (is_integer(self.smooth_window) and self.smooth_window >= 1):
            raise ConfigurationError(f"smooth window must be an integer >= 1, got {self.smooth_window}")

    @property
    def window(self) -> int:
        """The increments the growth rate averages: ``smooth_window`` under
        ``smooth`` growth; under ``last``, the most recent one alone."""
        return self.smooth_window if self.growth == "smooth" else 1


class StepRecord(NamedTuple):
    """One pull of a run, with the fields a sink receives, in that order: a
    list sink (see :func:`list_sink`) keeps one per pull."""

    t: int
    arm: int
    reward: float
    cost: float
    candidate_set_size: int


# Receives each pull of a run as it happens, as ``sink(t, arm, reward, cost,
# candidate_set_size)``: the fields of a StepRecord, which it need not build.
StepSink = Callable[[int, int, float, float, int], object]


def list_sink(steps: list[StepRecord]) -> StepSink:
    """A sink that appends each pull to ``steps`` as a :class:`StepRecord`."""

    def keep(*fields) -> None:
        steps.append(StepRecord(*fields))

    return keep


@dataclass(slots=True)
class PolicyTrace:
    """Summary of one run; its steps go to the run's sink, if one is given.
    ``total_cost`` is the spend the budget checks compared, summed pull by
    pull.  ``final_j`` is the best reward observed, and ``best_arm`` the arm
    of the earliest pull that observed it.  ``candidates`` is the final
    candidate set: sets only shrink, so an arm in it was a candidate
    throughout the run."""

    horizon: int  # pulls made
    pull_counts: list[int]
    total_cost: float
    best_arm: int
    final_j: float
    candidates: tuple[int, ...]


def growth_rate(history: Sequence[float], window: int) -> float:
    """Growth rate of an observed reward sequence: the mean of the last
    ``window`` increments, or of every increment while there are fewer.  A
    window of 1 gives the most recent increment exactly, as ``x / 1 == x``.
    """
    n = len(history)
    if n < 2:
        raise ValueError(f"growth rate needs >= 2 observations, got {n}")
    if n > window:
        return (history[-1] - history[-1 - window]) / window
    return (history[-1] - history[0]) / (n - 1)


def upper_bound(last: float, omega: float, pulls_left: float) -> float:
    """Optimistic final reward: last value plus omega per pull left, capped at 1."""
    if pulls_left < 0:
        raise ValueError(f"pulls left must be >= 0, got {pulls_left}")
    return min(last + omega * pulls_left, 1.0)


def eliminate(candidates: list[int], states: list[ArmState]) -> list[int]:
    """One elimination sweep over the candidate set, in O(|candidates|).

    Arm j is dropped iff the top lower bound among the candidates is above
    j's upper bound by more than ``DEFAULT_EPSILON``, so a tie drops no arm.
    Removals are decided against the set at sweep start.  Every state has
    lower <= upper, so the arm with the top lower bound survives.
    """
    top = -math.inf
    for i in candidates:
        lower = states[i - 1].lower
        if lower > top:
            top = lower
    survivors = []
    for j in candidates:
        if states[j - 1].upper + DEFAULT_EPSILON >= top:
            survivors.append(j)
    return survivors


class Horizon:
    """A trial count or a spend budget, and how much of it a run has used.

    The only place where the two modes differ: whether an arm's next pull
    fits, and how many pulls are left for an arm's upper bound.  A pull fits
    a budget within ``DEFAULT_EPSILON``, so float rounding in the running
    spend cannot refuse a pull that fits exactly.
    """

    __slots__ = ("trials", "budget", "arms", "t", "spent")

    def __init__(self, config: BanditConfig, arms: list[ArmProcess]) -> None:
        self.trials = config.trials
        self.budget = config.budget
        self.arms = arms
        self.t = 0
        self.spent = 0.0

    def fits(self, arm_id: int) -> bool:
        """Whether one more pull of ``arm_id`` stays within the horizon."""
        if self.trials is not None:
            return self.t < self.trials
        return self.spent + self.arms[arm_id - 1].next_cost <= self.budget + DEFAULT_EPSILON

    def upper(self, state: ArmState, omega: float) -> float:
        """Upper bound of ``state``, growing at ``omega`` per pull, over the
        pulls left after step t: trials left, or budget left at the arm's
        mean pull cost so far."""
        if self.trials is not None:
            pulls_left = self.trials - self.t
        else:
            # The spend may pass the budget by up to DEFAULT_EPSILON: no pulls left.
            pulls_left = max(self.budget - self.spent, 0.0) / (state.total_cost / state.pulls)
        return upper_bound(state.history[-1], omega, pulls_left)


class Policy:
    """An arm-selection policy run by :func:`run_policy`.

    ``plan`` returns the next arms to pull, in order; a plan that makes no
    pull ends the run.  By default it is the one arm ``select`` names, or
    none.  Only a plan made when one candidate is left may be endless: the
    engine ends it at the first pull that does not fit.  ``rng`` is the
    run-local RNG stream, which ``simulate`` sets and only the sampling
    policies draw from.  ``candidates`` is the arm set in force, which only
    the elimination policy shrinks, and only in ``plan``.
    """

    name = "policy"

    def start(self, states: list[ArmState], config: BanditConfig, horizon: Horizon) -> None:
        """Begin a run over ``states``."""
        self.candidates = [st.arm_id for st in states]

    def plan(self, states: list[ArmState], t: int) -> Iterable[int]:
        """The arms to pull from step ``t`` on, in order; none ends the run."""
        arm_id = self.select(states, t)
        return () if arm_id is None else (arm_id,)

    def select(self, states: list[ArmState], t: int) -> int | None:
        """The arm to pull at step ``t``, or None to end the run."""
        raise NotImplementedError

    def observe(self, state: ArmState, reward: float, cost: float) -> None:
        """Called after every pull with the pulled arm's counted state and the pull's reward and cost."""


class RisingBanditPolicy(Policy):
    """The elimination algorithm.

    Each plan is a round: the candidates in id order, of which the engine
    skips those whose next pull does not fit.  Every plan after the first
    begins with a sweep.  The engine asks for a plan only while some
    candidate's next pull fits, so no sweep runs once no pull is left.

    Once one candidate is left the set is settled: a sweep would keep it, so
    none runs, and ``observe`` stops recording the history, bounds and spend
    that only a sweep reads.  The plan is that arm, repeated until its next
    pull does not fit.  Sweeps only remove arms, so the sets are nested.
    """

    name = "rising_bandit"

    def start(self, states: list[ArmState], config: BanditConfig, horizon: Horizon) -> None:
        super().start(states, config, horizon)
        self._upper = horizon.upper
        self._window = config.window

    def plan(self, states: list[ArmState], t: int) -> Iterable[int]:
        if t > 1 and len(self.candidates) > 1:
            self.candidates = eliminate(self.candidates, states)
        candidates = self.candidates
        if len(candidates) == 1:
            return repeat(candidates[0])
        return candidates

    def observe(self, state: ArmState, reward: float, cost: float) -> None:
        # Only a sweep reads the state, and none follows once one candidate is
        # left.  After one pull no growth rate is known: 1.0 is the only sound upper.
        if len(self.candidates) == 1:
            return
        # growth_rate reads at most the last window + 1 rewards: once the
        # history holds that many, the oldest goes before the next is kept.
        history = state.history
        if len(history) > self._window:
            del history[0]
        history.append(reward)
        state.lower = reward
        state.total_cost += cost
        if state.pulls >= 2:
            state.upper = self._upper(state, growth_rate(history, self._window))


def run_policy(
    policy: Policy, arms: list[ArmProcess], config: BanditConfig, sink: StepSink | None = None
) -> PolicyTrace:
    """Run ``policy`` on ``arms``: the one loop that pulls arms.

    The engine asks ``plan`` for the next arms only while some candidate's
    next pull fits, and pulls them in order.  It checks each planned pull
    and skips one that does not fit, or, when one candidate is left, ends
    the plan there.  It counts each pull in the arm's state, its only write
    to it, and passes the pull to ``observe`` and to ``sink``, as
    ``sink(t, arm, reward, cost, candidate_set_size)``.  The run ends when
    no candidate's pull fits, or at a plan that makes no pull.
    """
    k = len(arms)
    if k == 0:
        raise ConfigurationError("an instance needs at least one arm")
    states = [ArmState(arm_id=i) for i in range(1, k + 1)]
    horizon = Horizon(config, arms)
    policy.start(states, config, horizon)
    # Bound once per run: the loop body runs once per pull.
    observe, fits = policy.observe, horizon.fits
    pulls = [arm.pull for arm in arms]
    t, arm_id = 0, None
    # Only a strictly greater reward moves the best, so best_arm is the arm
    # of the first step that reaches final_j.
    final_j, best_arm = -math.inf, 0
    while any(map(fits, policy.candidates)):
        plan = policy.plan(states, t + 1)
        # Read once per plan: only plan changes the candidate set.
        size = len(policy.candidates)
        planned_at = t
        for arm_id in plan:
            if not 1 <= arm_id <= k:
                raise ConfigurationError(f"policy {policy.name!r} planned invalid arm {arm_id}")
            if not fits(arm_id):
                # A lone candidate's plan may repeat its arm without end.
                if size == 1:
                    break
                continue
            reward, cost = pulls[arm_id - 1]()
            t += 1
            horizon.t = t
            horizon.spent += cost
            st = states[arm_id - 1]
            st.pulls += 1
            if reward > final_j:
                final_j, best_arm = reward, arm_id
            if sink is not None:
                sink(t, arm_id, reward, cost, size)
            observe(st, reward, cost)
        if t == planned_at:
            # The plan was empty, or no planned pull fitted: nothing the
            # next plan would read has changed.
            break
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


def rising_bandit_run(arms: list[ArmProcess], config: BanditConfig) -> PolicyTrace:
    """Run the elimination algorithm to the configured horizon."""
    return run_policy(RisingBanditPolicy(), arms, config)
