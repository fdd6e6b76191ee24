"""Baseline selection policies sharing one interface with elimination.

A policy maps the observed arm states and the step index to the next arm to
pull.  Policies only ever see observed histories, never ground-truth curves.
Ties break towards the lowest arm id.  ``Policy`` and the elimination
policy live in :mod:`bandit`, next to the engine that runs them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bandit import ArmState, Policy, RisingBanditPolicy


class AveragePolicy(Policy):
    """Round-robin: pull each arm in turn, T/K pulls each over a full horizon."""

    name = "average"

    def select(self, states: list[ArmState], t: int) -> int:
        return (t - 1) % len(states) + 1


def _argmax(scores: list[float]) -> int:
    best, best_score = 1, scores[0]
    for idx, score in enumerate(scores[1:], start=2):
        if score > best_score:
            best, best_score = idx, score
    return best


def _first_unpulled(states: list[ArmState]) -> int | None:
    for st in states:
        if st.pulls == 0:
            return st.arm_id
    return None


@dataclass
class UCBPolicy(Policy):
    """Stationary-bandit baseline: empirical mean plus an exploration bonus."""

    exploration_coefficient: float = math.sqrt(2.0)
    name = "ucb"

    def __post_init__(self) -> None:
        if self.exploration_coefficient <= 0.0:
            raise ValueError("exploration coefficient must be positive")

    def select(self, states: list[ArmState], t: int) -> int:
        forced = _first_unpulled(states)
        if forced is not None:
            return forced
        coefficient, log_t = self.exploration_coefficient, math.log(t)
        scores = [st.reward_sum / st.pulls + coefficient * math.sqrt(log_t / st.pulls) for st in states]
        return _argmax(scores)


@dataclass
class SoftmaxPolicy(Policy):
    """Samples arms with probability proportional to exp(mean / temperature)."""

    temperature: float = 0.1
    name = "softmax"

    def __post_init__(self) -> None:
        if self.temperature <= 0.0:
            raise ValueError("temperature must be positive")
        # A mean in [0, 1] over the temperature is finite when this is.
        if not math.isfinite(1.0 / self.temperature):
            raise ValueError(f"temperature {self.temperature!r} is too small: its inverse is not finite")
        self._rng: np.random.Generator | None = None

    def reset(self, rng: np.random.Generator) -> None:
        self._rng = rng

    def select(self, states: list[ArmState], t: int) -> int:
        forced = _first_unpulled(states)
        if forced is not None:
            return forced
        temperature = self.temperature
        logits = np.array([st.reward_sum / st.pulls / temperature for st in states])
        logits -= logits.max()
        probs = np.exp(logits)
        probs /= probs.sum()
        # The inverse-CDF draw that Generator.choice(K, p=probs) makes from
        # one random(), without its checks of p.
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        return int(cdf.searchsorted(self._rng.random(), side="right")) + 1


@dataclass
class ThompsonPolicy(Policy):
    """Beta-Bernoulli sampling with fractional pseudo-counts.

    Each reward r contributes r to the success count and 1 - r to the failure
    count, the standard continuous-reward adaptation of Thompson sampling.
    """

    prior_alpha: float = 1.0
    prior_beta: float = 1.0
    name = "thompson"

    def __post_init__(self) -> None:
        if self.prior_alpha <= 0.0 or self.prior_beta <= 0.0:
            raise ValueError("Beta prior parameters must be positive")
        self._rng: np.random.Generator | None = None

    def reset(self, rng: np.random.Generator) -> None:
        self._rng = rng

    def select(self, states: list[ArmState], t: int) -> int:
        beta, alpha0, beta0 = self._rng.beta, self.prior_alpha, self.prior_beta
        draws = []
        for st in states:
            successes = st.reward_sum
            draws.append(beta(alpha0 + successes, beta0 + (st.pulls - successes)))
        return _argmax(draws)


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
