"""Baseline selection policies sharing one interface with elimination.

A run calls a policy's ``start`` once with the arm states, then asks its
``plan`` for the next arms to pull and passes each pull to ``observe``, with
the arm's state, in which the engine counts pulls and writes nothing else.
A baseline's plan is the one arm its ``select`` names.  The baselines score
arms from per-arm arrays, and sums of rewards added left to right, that
``observe`` updates one slot at a time, so a ``select`` reads no arm state.
UCB and softmax pull arm t at step t <= K: a run pulls the arm ``select``
returns or ends, so arms 1..t-1 are pulled then and t..K not.
Policies only ever see observed histories, never ground-truth curves.  Ties
break towards the lowest arm id.  ``Policy`` and the elimination policy live
in :mod:`bandit`, next to the engine that runs them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arms import check_positive
from .bandit import ArmState, BanditConfig, Horizon, Policy, RisingBanditPolicy


class AveragePolicy(Policy):
    """Round-robin: pull each arm in turn, T/K pulls each over a full horizon."""

    name = "average"

    def select(self, states: list[ArmState], t: int) -> int:
        return (t - 1) % len(states) + 1


@dataclass
class UCBPolicy(Policy):
    """Stationary-bandit baseline: empirical mean plus an exploration bonus."""

    exploration_coefficient: float = math.sqrt(2.0)
    name = "ucb"

    def __post_init__(self) -> None:
        check_positive("exploration coefficient", self.exploration_coefficient)

    def start(self, states: list[ArmState], config: BanditConfig, horizon: Horizon) -> None:
        super().start(states, config, horizon)
        self._sums = np.zeros(len(states))
        self._pulls = np.zeros(len(states))

    def select(self, states: list[ArmState], t: int) -> int:
        if t <= len(states):
            return t
        scores = self._sums / self._pulls + self.exploration_coefficient * np.sqrt(math.log(t) / self._pulls)
        return int(scores.argmax()) + 1

    def observe(self, state: ArmState, reward: float, cost: float) -> None:
        i = state.arm_id - 1
        self._sums[i] += reward
        self._pulls[i] = state.pulls


@dataclass
class SoftmaxPolicy(Policy):
    """Samples arms with probability proportional to exp(mean / temperature)."""

    temperature: float = 0.1
    name = "softmax"

    def __post_init__(self) -> None:
        check_positive("temperature", self.temperature)
        # A mean in [0, 1] over the temperature is finite when this is.
        if not math.isfinite(1.0 / self.temperature):
            raise ValueError(f"temperature {self.temperature!r} is too small: its inverse is not finite")

    def start(self, states: list[ArmState], config: BanditConfig, horizon: Horizon) -> None:
        super().start(states, config, horizon)
        self._sums = [0.0] * len(states)
        self._logits = np.zeros(len(states))

    def select(self, states: list[ArmState], t: int) -> int:
        if t <= len(states):
            return t
        logits = self._logits
        probs = np.exp(logits - logits.max())
        probs /= np.add.reduce(probs)
        # The inverse-CDF draw that Generator.choice(K, p=probs) makes from
        # one random(), without its checks of p.
        cdf = np.add.accumulate(probs)
        cdf /= cdf[-1]
        return int(cdf.searchsorted(self._rng.random(), side="right")) + 1

    def observe(self, state: ArmState, reward: float, cost: float) -> None:
        i = state.arm_id - 1
        self._sums[i] += reward
        self._logits[i] = self._sums[i] / state.pulls / self.temperature


@dataclass
class ThompsonPolicy(Policy):
    """Beta-Bernoulli sampling with fractional pseudo-counts.

    Each reward r contributes r to the success count and 1 - r to the failure
    count, the standard continuous-reward adaptation of Thompson sampling.
    One ``Generator.beta`` call over the per-arm parameter arrays draws the
    values that one scalar call per arm, in arm order, would draw.
    """

    prior_alpha: float = 1.0
    prior_beta: float = 1.0
    name = "thompson"

    def __post_init__(self) -> None:
        check_positive("Beta prior alpha", self.prior_alpha)
        check_positive("Beta prior beta", self.prior_beta)

    def start(self, states: list[ArmState], config: BanditConfig, horizon: Horizon) -> None:
        super().start(states, config, horizon)
        self._sums = [0.0] * len(states)
        self._alpha = np.full(len(states), self.prior_alpha, dtype=np.float64)
        self._beta = np.full(len(states), self.prior_beta, dtype=np.float64)

    def select(self, states: list[ArmState], t: int) -> int:
        return int(self._rng.beta(self._alpha, self._beta).argmax()) + 1

    def observe(self, state: ArmState, reward: float, cost: float) -> None:
        i = state.arm_id - 1
        successes = self._sums[i] = self._sums[i] + reward
        self._alpha[i] = self.prior_alpha + successes
        self._beta[i] = self.prior_beta + (state.pulls - successes)


POLICIES = {
    cls.name: cls for cls in (AveragePolicy, UCBPolicy, SoftmaxPolicy, ThompsonPolicy, RisingBanditPolicy)
}
POLICY_NAMES = tuple(POLICIES)


def make_policy(name: str, **params) -> Policy:
    """Build a policy by name; unknown names or parameters raise ValueError."""
    if name not in POLICIES:
        raise ValueError(f"unknown policy {name!r}, expected one of {POLICY_NAMES}")
    try:
        return POLICIES[name](**params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for policy {name!r}: {exc}") from exc
