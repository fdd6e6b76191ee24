"""Seeded workload generators.

Each generator turns the benchmark seed into the only inputs the program
receives: an experiment configuration text for the run workloads, or suite
seed triples for ``verify_suites``.  Sizes, arm kinds and policies are
fixed per workload; the seed only draws parameters, so the amount of work
stays close to constant across seeds and the run-to-run spread measures the
machine, not the input.
"""

from __future__ import annotations

import random

WORKLOADS = ("wide_elim", "long_baselines", "hpo_budget", "verify_suites")

# Shipped suite sizes (risingbandits.verify); instances_per_s counts these.
LEMMA1_COUNT = 200
CONCAVE_BATTERY_COUNT = 1000
THEOREM2_COUNT = 100
VERIFY_INSTANCES = LEMMA1_COUNT + CONCAVE_BATTERY_COUNT + THEOREM2_COUNT


def _rng(workload: str, seed: int) -> random.Random:
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return random.Random(f"{workload}:{seed}")


def _f(x: float) -> str:
    return format(x, ".6f")


def _header(rng: random.Random, **settings) -> list[str]:
    lines = [f"{key} = {value}" for key, value in settings.items()]
    lines.append(f"base_seed = {rng.randrange(2**31)}")
    return lines


def _exponential(rng: random.Random, decay: tuple[float, float]) -> list[str]:
    limit = rng.uniform(0.5, 0.95)
    return [
        "kind = exponential",
        f"limit = {_f(limit)}",
        f"initial = {_f(limit * rng.uniform(0.2, 0.7))}",
        f"decay = {_f(rng.uniform(*decay))}",
    ]


def _power(rng: random.Random, exponent: tuple[float, float]) -> list[str]:
    limit = rng.uniform(0.5, 0.95)
    return [
        "kind = power",
        f"limit = {_f(limit)}",
        f"scale = {_f(limit * rng.uniform(0.3, 0.8))}",
        f"exponent = {_f(rng.uniform(*exponent))}",
    ]


def _staircase(rng: random.Random) -> list[str]:
    initial = rng.uniform(0.1, 0.5)
    return [
        "kind = staircase",
        f"initial = {_f(initial)}",
        f"limit = {_f(rng.uniform(initial + 0.2, 0.95))}",
        f"plateau_length = {rng.randint(2, 5)}",
        f"jump_fraction = {_f(rng.uniform(0.2, 0.6))}",
    ]


def wide_elim(seed: int) -> str:
    """1024 curve arms, rising_bandit only, smooth growth, 20000 trials."""
    rng = _rng("wide_elim", seed)
    lines = _header(
        rng, horizon_trials=20000, growth="smooth", smooth_window=7,
        policies="rising_bandit", replications=1,
    )
    for i in range(1024):
        # Kinds cycle by position (2 exponential, 2 power, 1 staircase in
        # every 5 arms) and every fifth arm is noisy, so only parameters vary.
        slot = i % 5
        if slot < 2:
            arm = _exponential(rng, (0.85, 0.98))
        elif slot < 4:
            arm = _power(rng, (0.3, 1.0))
        else:
            arm = _staircase(rng)
        if slot == 3:
            arm.append(f"noise_amplitude = {_f(rng.uniform(0.01, 0.05))}")
        lines += ["", "[arm]", *arm]
    return "\n".join(lines) + "\n"


def long_baselines(seed: int) -> str:
    """16 exact exponential/power arms, all five policies, 8000 trials.

    Selects cost O(t), so a run costs O(T**2); 8000 trials keep a run near
    two seconds, so a measurement gets enough runs for a steady median.
    """
    rng = _rng("long_baselines", seed)
    lines = _header(
        rng, horizon_trials=8000, growth="last",
        policies="rising_bandit, average, ucb, softmax, thompson", replications=1,
    )
    for i in range(16):
        arm = _exponential(rng, (0.6, 0.95)) if i % 2 == 0 else _power(rng, (0.5, 1.5))
        lines += ["", "[arm]", *arm]
    return "\n".join(lines) + "\n"


HPO_OBJECTIVES = ("sphere", "rosenbrock", "quadratic") * 2


def hpo_budget(seed: int) -> str:
    """6 density-estimator tuning arms under a spend budget.

    Elimination settles on one arm within a few rounds, and a propose costs
    time linear in that arm's history, so the run's cost grows with the
    square of the survivor's pull count.  Every arm therefore has the same
    dimension and mean cost (each pull's cost is still drawn around it), so
    whichever arm survives gets about the same number of pulls.
    """
    rng = _rng("hpo_budget", seed)
    lines = _header(
        rng, horizon_budget=1200.0, growth="smooth", smooth_window=7,
        policies="rising_bandit, average", replications=1,
    )
    for objective in HPO_OBJECTIVES:
        lines += [
            "", "[arm]", "kind = hpo", f"objective = {objective}",
            "dimension = 3", "strategy = density_estimator", "mean_cost = 1.0",
        ]
    return "\n".join(lines) + "\n"


# The suite counts are fixed, but the work they do depends on the instances
# a suite seed draws (exhaustive enumeration grows as K**T); cycling several
# seed triples per workload seed keeps that out of the run-to-run spread.
SUITE_TRIPLES = 4


def verify_seeds(seed: int) -> list[dict[str, int]]:
    """Seed triples for suite_lemma1, the shared concave battery and suite_theorem2."""
    rng = _rng("verify_suites", seed)
    return [
        {name: rng.randrange(2**31) for name in ("lemma1", "battery", "theorem2")}
        for _ in range(SUITE_TRIPLES)
    ]


CONFIG_GENERATORS = {
    "wide_elim": wide_elim,
    "long_baselines": long_baselines,
    "hpo_budget": hpo_budget,
}
