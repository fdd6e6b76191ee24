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

import numpy as np

from .bandit import ArmState, BanditConfig, Horizon, Policy, RisingBanditPolicy


class AveragePolicy(Policy):
    """Round-robin: pull each arm in turn, T/K pulls each over a full horizon."""

    name = "average"

    def select(self, states: list[ArmState], t: int) -> int:
        return (t - 1) % len(states) + 1


class UCBPolicy(Policy):
    """Stationary-bandit baseline: empirical mean plus an exploration bonus."""

    name = "ucb"
    exploration_coefficient = math.sqrt(2.0)

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


class SoftmaxPolicy(Policy):
    """Samples arms with probability proportional to exp(mean / temperature)."""

    name = "softmax"
    temperature = 0.1

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
        return int(cdf.searchsorted(self.rng.random(), side="right")) + 1

    def observe(self, state: ArmState, reward: float, cost: float) -> None:
        i = state.arm_id - 1
        self._sums[i] += reward
        self._logits[i] = self._sums[i] / state.pulls / self.temperature


class ThompsonPolicy(Policy):
    """Beta-Bernoulli sampling with fractional pseudo-counts.

    Each reward r contributes r to the success count and 1 - r to the failure
    count, the standard continuous-reward adaptation of Thompson sampling.
    One ``Generator.beta`` call over the per-arm parameter arrays draws the
    values that one scalar call per arm, in arm order, would draw.
    """

    name = "thompson"
    prior_alpha = 1.0
    prior_beta = 1.0

    def start(self, states: list[ArmState], config: BanditConfig, horizon: Horizon) -> None:
        super().start(states, config, horizon)
        self._sums = [0.0] * len(states)
        self._alpha = np.full(len(states), self.prior_alpha, dtype=np.float64)
        self._beta = np.full(len(states), self.prior_beta, dtype=np.float64)

    def select(self, states: list[ArmState], t: int) -> int:
        return int(self.rng.beta(self._alpha, self._beta).argmax()) + 1

    def observe(self, state: ArmState, reward: float, cost: float) -> None:
        i = state.arm_id - 1
        successes = self._sums[i] = self._sums[i] + reward
        self._alpha[i] = self.prior_alpha + successes
        self._beta[i] = self.prior_beta + (state.pulls - successes)


POLICIES = {
    cls.name: cls for cls in (AveragePolicy, UCBPolicy, SoftmaxPolicy, ThompsonPolicy, RisingBanditPolicy)
}
POLICY_NAMES = tuple(POLICIES)


def make_policy(name: str) -> Policy:
    """Build a policy by name; an unknown name raises ValueError."""
    if name not in POLICIES:
        raise ValueError(f"unknown policy {name!r}, expected one of {POLICY_NAMES}")
    return POLICIES[name]()
