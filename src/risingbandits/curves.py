"""Ground-truth reward curves.

A reward curve maps a pull count n = 1, 2, ... to a deterministic reward in
[0, 1].  All curves are non-decreasing and bounded; the exponential and power
families are additionally concave, while the staircase family deliberately
violates concavity (it holds a plateau and then jumps).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence


class RewardCurve:
    """Base class for deterministic reward functions of the pull count.

    Subclasses expose ``eval(n)`` for n >= 1.
    """

    __slots__ = ()

    def eval(self, n: int) -> float:
        raise NotImplementedError


def is_integer(value: object) -> bool:
    """Whether ``operator.index`` accepts ``value``: an int or a numpy integer, not 2.5, NaN or 3.0."""
    try:
        operator.index(value)
    except TypeError:
        return False
    return True


def _bad_pull_index(n: int) -> ValueError:
    # Each ``eval`` tests n < 1 inline, since it runs once per pull.
    return ValueError(f"pull index must be >= 1, got {n}")


@dataclass(frozen=True, slots=True)
class ExponentialCurve(RewardCurve):
    """r(n) = limit - (limit - initial) * decay**(n - 1)."""

    limit: float
    initial: float
    decay: float

    def __post_init__(self) -> None:
        if not (0.0 < self.initial <= self.limit <= 1.0):
            raise ValueError(
                f"exponential curve needs 0 < initial <= limit <= 1, "
                f"got initial={self.initial}, limit={self.limit}"
            )
        if not (0.0 < self.decay < 1.0):
            raise ValueError(f"exponential decay must lie in (0, 1), got {self.decay}")

    def eval(self, n: int) -> float:
        if n < 1:
            raise _bad_pull_index(n)
        return self.limit - (self.limit - self.initial) * self.decay ** (n - 1)


@dataclass(frozen=True, slots=True)
class PowerCurve(RewardCurve):
    """r(n) = limit - scale * n**(-exponent)."""

    limit: float
    scale: float
    exponent: float

    def __post_init__(self) -> None:
        if not (self.scale > 0.0 and self.exponent > 0.0):
            raise ValueError(
                f"power curve needs scale > 0 and exponent > 0, "
                f"got scale={self.scale}, exponent={self.exponent}"
            )
        if not (self.limit - self.scale >= 0.0 and self.limit <= 1.0):
            raise ValueError(
                f"power curve needs 0 <= limit - scale and limit <= 1, "
                f"got limit={self.limit}, scale={self.scale}"
            )

    def eval(self, n: int) -> float:
        if n < 1:
            raise _bad_pull_index(n)
        return self.limit - self.scale * float(n) ** (-self.exponent)


@dataclass(frozen=True, slots=True)
class TabulatedCurve(RewardCurve):
    """Explicit table of rewards; pulls beyond the table hold the last value."""

    values: tuple[float, ...]

    def __init__(self, values: Sequence[float]) -> None:
        object.__setattr__(self, "values", tuple(float(v) for v in values))
        if not self.values:
            raise ValueError("tabulated curve needs at least one value")
        for i, v in enumerate(self.values):
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"tabulated value {v} at position {i} outside [0, 1]")
            if i > 0 and v < self.values[i - 1]:
                raise ValueError(f"tabulated values must be non-decreasing, dip at position {i}")

    def eval(self, n: int) -> float:
        if n < 1:
            raise _bad_pull_index(n)
        return self.values[min(n, len(self.values)) - 1]


@dataclass(frozen=True, slots=True)
class StaircaseCurve(RewardCurve):
    """Non-concave curve: flat for ``plateau_length`` pulls, then a jump.

    Starting from ``initial``, each jump closes a fraction ``jump_fraction``
    of the remaining gap to ``limit``.  The result is non-decreasing and
    bounded but has plateaus followed by jumps, so its first differences are
    not monotone.
    """

    initial: float
    limit: float
    plateau_length: int
    jump_fraction: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.initial <= self.limit <= 1.0):
            raise ValueError(
                f"staircase curve needs 0 <= initial <= limit <= 1, "
                f"got initial={self.initial}, limit={self.limit}"
            )
        if not (is_integer(self.plateau_length) and self.plateau_length >= 1):
            raise ValueError(f"plateau_length must be an integer >= 1, got {self.plateau_length}")
        if not (0.0 < self.jump_fraction <= 1.0):
            raise ValueError(f"jump_fraction must lie in (0, 1], got {self.jump_fraction}")

    def eval(self, n: int) -> float:
        if n < 1:
            raise _bad_pull_index(n)
        jumps = (n - 1) // self.plateau_length
        return self.limit - (self.limit - self.initial) * (1.0 - self.jump_fraction) ** jumps
