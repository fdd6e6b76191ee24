"""Toy hyperparameter-optimization objectives and search strategies.

These stand in for a real tuning engine: each objective is a cheap synthetic
loss over a small box, and the search strategies (uniform random, and a
minimal density-ratio sampler) produce the familiar rising, saturating
best-so-far reward shape without any ML dependencies.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

OBJECTIVE_NAMES = ("sphere", "rosenbrock", "quadratic")
SEARCH_STRATEGIES = ("random", "density_estimator")

# Random exploration before the density model has anything to fit.
_WARMUP_TRIALS = 8
_N_CANDIDATES = 24
# Trials the history buffer holds before it first doubles.
_INITIAL_CAPACITY = 64


@dataclass(slots=True)
class ToyObjective:
    """A synthetic loss over the box [-halfwidth, halfwidth]^dim with minimum 0."""

    name: str
    dimension: int
    halfwidth: float
    _optimum: np.ndarray | None = None
    _matrix: np.ndarray | None = None

    def loss(self, x: np.ndarray) -> float:
        if self.name == "sphere":
            return float(np.sum((x - self._optimum) ** 2))
        if self.name == "rosenbrock":
            return float(
                np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2)
            )
        d = x - self._optimum  # quadratic, the only name left
        return float(d @ self._matrix @ d)


def make_objective(name: str, dimension: int, rng: np.random.Generator) -> ToyObjective:
    """The objective ``name`` in ``dimension``, as an ``HpoArmSpec`` checks them."""
    if name == "sphere":
        obj = ToyObjective(name, dimension, halfwidth=5.0)
        obj._optimum = rng.uniform(-2.0, 2.0, size=dimension)
    elif name == "rosenbrock":
        obj = ToyObjective(name, dimension, halfwidth=2.0)
    else:  # quadratic with a seeded optimum and random PD matrix
        obj = ToyObjective(name, dimension, halfwidth=3.0)
        m = rng.normal(size=(dimension, dimension))
        obj._matrix = m.T @ m / dimension + 0.1 * np.eye(dimension)
        obj._optimum = rng.uniform(-2.0, 2.0, size=dimension)
    return obj


class SearchState:
    """Trial history of one tuning process.

    ``points`` holds the trials best first: sorted by loss, equal losses in
    arrival order (the order a stable argsort of the losses gives), so each
    half of the sampler's split is a slice, not a gather. It is a view of a
    buffer that doubles when full, so recording a trial never re-stacks the
    history.
    """

    __slots__ = ("_ranked", "_sorted_losses")

    def __init__(self) -> None:
        self._ranked = np.empty((0, 0))
        self._sorted_losses: list[float] = []

    @property
    def points(self) -> np.ndarray:
        return self._ranked[: len(self._sorted_losses)]

    def add(self, point: np.ndarray, loss: float) -> None:
        """Record one trial."""
        n = len(self._sorted_losses)
        if n == len(self._ranked):
            ranked = np.empty((max(2 * n, _INITIAL_CAPACITY), len(point)))
            if n:
                ranked[:n] = self._ranked
            self._ranked = ranked
        # bisect_right puts the new trial after every equal loss.
        i = bisect.bisect_right(self._sorted_losses, loss)
        self._sorted_losses.insert(i, loss)
        self._ranked[i + 1 : n + 1] = self._ranked[i:n]
        self._ranked[i] = point


def propose(
    state: SearchState,
    objective: ToyObjective,
    strategy: str,
    rng: np.random.Generator,
) -> np.ndarray:
    """Pick the next trial point by ``strategy``, one of SEARCH_STRATEGIES."""
    hw = objective.halfwidth
    dim = objective.dimension
    n = len(state._sorted_losses)
    if strategy == "random" or n < _WARMUP_TRIALS:
        return rng.uniform(-hw, hw, size=dim)

    # Split trials at the median loss, model the good half with an
    # axis-aligned Gaussian kernel density, and keep the candidate with the
    # best good/bad density ratio. Past the warm-up each half holds at least
    # _WARMUP_TRIALS // 2 points.
    n_good = n // 2
    good = state._ranked[:n_good]
    bad = state._ranked[n_good:n]

    good_bw = _bandwidths(good, hw)
    bad_bw = _bandwidths(bad, hw)

    centers = good[rng.integers(0, n_good, size=_N_CANDIDATES)]
    candidates = centers + rng.normal(size=(_N_CANDIDATES, dim)) * good_bw
    # np.clip's result, without its wrapper: clipping only selects values.
    np.maximum(candidates, -hw, out=candidates)
    np.minimum(candidates, hw, out=candidates)
    scores = _log_density(candidates, good, good_bw)
    scores -= _log_density(candidates, bad, bad_bw)
    return candidates[int(np.argmax(scores))]


def _bandwidths(points: np.ndarray, halfwidth: float) -> np.ndarray:
    # Scott-style per-dimension bandwidth with a floor so the kernel never
    # collapses. The standard deviation is np.std(points, axis=0) computed by
    # the ufunc steps np.std runs, without its wrapper. Both sums run down
    # the columns of the (n, dim) C-order array, which adds the rows one at a
    # time, as np.std does. A sum along a contiguous row (say, of a transposed
    # copy) adds pairwise, and np.add.reduceat over both halves adds in yet
    # another order: each rounds differently and moves the sampler's choices.
    n = len(points)
    mean = np.add.reduce(points, axis=0)
    mean /= n
    dev = points - mean
    dev *= dev
    var = np.add.reduce(dev, axis=0)
    var /= n
    sigma = np.sqrt(var, out=var)
    sigma *= n ** (-0.2)
    return np.maximum(sigma, 1e-3 * halfwidth, out=sigma)


def _log_density(query: np.ndarray, data: np.ndarray, bw: np.ndarray) -> np.ndarray:
    # Product of per-axis Gaussian KDEs, evaluated in log space in one
    # (queries, data) array that is updated in place, with one scratch array
    # for the other axes. The squared scaled distances are summed one axis at
    # a time, left to right (d0 + d1, then + d2, ...): that is the order
    # numpy's sum over a short last axis takes, so the result is bit for bit
    # that of summing a (queries, data, dim) broadcast. Another order, such as
    # d0 + (d1 + d2), rounds differently and moves the sampler's choices.
    shape = (len(query), len(data))
    log_kernels = np.empty(shape)
    d = np.empty(shape)
    for k in range(data.shape[1]):
        out = log_kernels if k == 0 else d
        np.subtract(query[:, k, None], data[None, :, k], out=out)
        out /= bw[k]
        out *= out
        if k:
            log_kernels += d
    log_kernels *= -0.5
    log_kernels -= np.add.reduce(np.log(bw))
    m = np.maximum.reduce(log_kernels, axis=1)
    log_kernels -= m[:, None]
    np.exp(log_kernels, out=log_kernels)
    sums = np.add.reduce(log_kernels, axis=1)
    sums /= len(data)
    np.log(sums, out=sums)
    sums += m
    return sums
