"""Stateful arm processes and instance construction.

An arm process yields a non-decreasing best-so-far reward sequence in [0, 1]
on successive pulls, together with a positive per-pull cost.  Three kinds are
provided: exact curve playback, noisy (monotone but non-concave) playback,
and a toy hyperparameter-tuning process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hpo
from .curves import RewardCurve, is_integer


class ConfigurationError(ValueError):
    """Invalid instance or experiment configuration."""


# An hpo arm's pull costs its mean cost times U(HPO_COST_LOW, HPO_COST_HIGH).
HPO_COST_LOW, HPO_COST_HIGH = 0.8, 1.2


class ArmProcess:
    """Base class: a reward source with best-so-far semantics.

    ``next_cost`` holds the exact cost of the next ``pull``, which lets
    budgeted runs refuse a pull that would overshoot.  An arm whose cost
    varies draws the following pull's cost in ``_raw_reward``.
    """

    __slots__ = ("pulls_so_far", "_best", "next_cost")

    def __init__(self, cost: float) -> None:
        self.pulls_so_far = 0
        self._best = 0.0
        self.next_cost = cost

    def pull(self) -> tuple[float, float]:
        """Consume one unit of resource; return (reward, cost)."""
        cost = self.next_cost
        n = self.pulls_so_far + 1
        self.pulls_so_far = n
        raw = self._raw_reward(n)
        # max(best, clamp(raw, 0, 1)) for best in [0, 1]: a raw below best,
        # NaN or -0.0 keeps best, and one above 1 (or +inf) gives 1.0.
        if raw > self._best:
            self._best = raw if raw < 1.0 else 1.0
        return self._best, cost

    def _raw_reward(self, n: int) -> float:
        raise NotImplementedError


class CurveArm(ArmProcess):
    """Plays back a reward curve exactly, at a constant per-pull cost."""

    __slots__ = ("curve",)

    def __init__(self, curve: RewardCurve, cost: float) -> None:
        super().__init__(float(cost))
        self.curve = curve

    def _raw_reward(self, n: int) -> float:
        return self.curve.eval(n)


class NoisyCurveArm(CurveArm):
    """Curve playback with downward uniform noise, kept monotone.

    Output is max(previous output, clamp(curve(n) - U(0, amplitude))), which
    preserves the best-so-far invariant while breaking exact concavity.
    """

    __slots__ = ("noise_amplitude", "_random")

    def __init__(
        self, curve: RewardCurve, noise_amplitude: float, rng: np.random.Generator, cost: float
    ) -> None:
        super().__init__(curve, cost)
        self.noise_amplitude = float(noise_amplitude)
        self._random = rng.random

    def _raw_reward(self, n: int) -> float:
        # rng.uniform(0, a) returns 0 + (a - 0) * rng.random(), the same
        # draw from the same stream; a bare random() call costs less.
        return self.curve.eval(n) - self.noise_amplitude * self._random()


class HpoArm(ArmProcess):
    """Toy tuning process: reward is the normalized best loss so far.

    A trial's raw reward is 1 - loss / first_loss (every objective here has
    its minimum at 0).  It never rises with the loss, so the best so far that
    ``pull`` keeps is 1 - best_loss / first_loss, clamped to [0, 1].
    Per-pull cost is mean_cost scaled by U(0.8, 1.2), drawn one pull ahead
    from a stream of its own so that ``next_cost`` is exact.
    """

    __slots__ = (
        "strategy", "mean_cost", "_search_rng", "_cost_random", "objective", "_state", "_first_loss",
    )

    def __init__(
        self, objective: str, dimension: int, rng: np.random.Generator, strategy: str, mean_cost: float
    ) -> None:
        self.strategy = strategy
        self.mean_cost = float(mean_cost)
        self._search_rng = rng
        self._cost_random = np.random.Generator(np.random.PCG64(rng.integers(0, 2**63))).random
        super().__init__(self._draw_cost())
        self.objective = hpo.make_objective(objective, dimension, rng)
        self._state = hpo.SearchState()
        self._first_loss: float | None = None

    def _draw_cost(self) -> float:
        # rng.uniform(low, high) returns low + (high - low) * rng.random(),
        # the same draw from the same stream.
        return self.mean_cost * (HPO_COST_LOW + (HPO_COST_HIGH - HPO_COST_LOW) * self._cost_random())

    def _raw_reward(self, n: int) -> float:
        self.next_cost = self._draw_cost()
        point = hpo.propose(self._state, self.objective, self.strategy, self._search_rng)
        loss = self.objective.loss(point)
        self._state.add(point, loss)
        if self._first_loss is None:
            self._first_loss = loss
        if self._first_loss <= 0.0:
            return 1.0
        return 1.0 - loss / self._first_loss


def check_positive(what: str, value: float) -> None:
    """Refuse a value that is not positive and finite; NaN fails the comparison too."""
    if not 0.0 < value < math.inf:
        raise ConfigurationError(f"{what} must be positive and finite, got {value}")


@dataclass(frozen=True, slots=True)
class CurveArmSpec:
    """Curve playback: exact at amplitude 0, noisy above it."""

    curve: RewardCurve
    cost: float = 1.0
    noise_amplitude: float = 0.0

    def __post_init__(self) -> None:
        check_positive("per-pull cost", self.cost)
        # Finite too: a pull subtracts amplitude times a draw in [0, 1).
        if not (self.noise_amplitude >= 0.0 and math.isfinite(self.noise_amplitude)):
            raise ConfigurationError(f"noise amplitude must be finite and >= 0, got {self.noise_amplitude}")

    @property
    def min_cost(self) -> float:
        """The cheapest pull this arm can make."""
        return self.cost

    @property
    def draws(self) -> bool:
        """Whether the arm's pulls draw randomness: only noisy playback does."""
        return self.noise_amplitude > 0.0

    def build(self, rng: np.random.Generator | None) -> ArmProcess:
        """The arm process; ``rng`` is its stream, which only an arm that draws needs."""
        if self.draws:
            return NoisyCurveArm(self.curve, self.noise_amplitude, rng, cost=self.cost)
        return CurveArm(self.curve, cost=self.cost)


@dataclass(frozen=True, slots=True)
class HpoArmSpec:
    objective: str = "sphere"
    dimension: int = 2
    strategy: str = "random"
    mean_cost: float = 1.0

    def __post_init__(self) -> None:
        if self.objective not in hpo.OBJECTIVE_NAMES:
            raise ConfigurationError(
                f"unknown objective {self.objective!r}, expected one of {hpo.OBJECTIVE_NAMES}"
            )
        if not (is_integer(self.dimension) and 2 <= self.dimension <= 5):
            raise ConfigurationError(f"objective dimension must be in [2, 5], got {self.dimension}")
        if self.strategy not in hpo.SEARCH_STRATEGIES:
            raise ConfigurationError(
                f"unknown search strategy {self.strategy!r}, expected one of {hpo.SEARCH_STRATEGIES}"
            )
        check_positive("mean cost", self.mean_cost)
        if not math.isfinite(HPO_COST_HIGH * self.mean_cost):
            raise ConfigurationError(
                f"mean cost {self.mean_cost} overflows: a pull may cost up to "
                f"{HPO_COST_HIGH} times the mean cost, which must stay finite"
            )

    @property
    def min_cost(self) -> float:
        """The cheapest pull this arm can make."""
        return HPO_COST_LOW * self.mean_cost

    # Every search proposes from the stream, and every pull draws its cost.
    draws = True

    def build(self, rng: np.random.Generator) -> ArmProcess:
        return HpoArm(self.objective, self.dimension, rng, self.strategy, self.mean_cost)


ArmSpec = CurveArmSpec | HpoArmSpec


@dataclass(frozen=True)
class InstanceSpec:
    """The K-arm problem definition: one spec per arm, in arm-id order."""

    arms: tuple[ArmSpec, ...]

    def __init__(self, arms) -> None:
        object.__setattr__(self, "arms", tuple(arms))
        if not self.arms:
            raise ConfigurationError("an instance needs at least one arm")

    def curves(self) -> list[RewardCurve] | None:
        """Ground-truth curves, or None if any arm draws randomness, and so has no exact curve."""
        if any(spec.draws for spec in self.arms):
            return None
        return [spec.curve for spec in self.arms]


def make_instance(spec: InstanceSpec, seed: int | np.random.SeedSequence = 0) -> list[ArmProcess]:
    """Build the arm processes with one derived RNG stream per arm that draws.

    Arm k (1-based) gets the stream spawned at key (k,) from the given seed,
    so adding or reordering other arms never perturbs its randomness.  An
    arm that never draws (exact curve playback) gets no stream.
    """
    base = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    arms = []
    for idx, arm_spec in enumerate(spec.arms, start=1):
        rng = None
        if arm_spec.draws:
            stream = np.random.SeedSequence(entropy=base.entropy, spawn_key=base.spawn_key + (idx,))
            rng = np.random.Generator(np.random.PCG64(stream))
        arms.append(arm_spec.build(rng))
    return arms
