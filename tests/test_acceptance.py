"""Acceptance gate: the eight analytic and structural guarantees.

Each test prints one PASS line so a -s run reads as a checklist.  Tolerances
are ``bandit.DEFAULT_EPSILON`` (1e-12) throughout; the allocation share and
the budget fixture carry golden values frozen from the first oracle run.
"""

import json
import os
import pathlib
import time

import pytest

from risingbandits import (
    BanditConfig,
    CurveArmSpec,
    ExponentialCurve,
    InstanceSpec,
    make_instance,
    rising_bandit_run,
    simulate,
    verify,
)
from risingbandits.bandit import DEFAULT_EPSILON
from risingbandits.cli import main
from risingbandits.policies import make_policy


def test_criterion_1_offline_oracle_equivalence():
    """The exact maximum over all pull sequences equals the single-best-arm
    value on 200 small concave instances, exactly."""
    start = time.monotonic()
    result = verify.suite_lemma1()
    elapsed = time.monotonic() - start
    assert result.total == 200
    assert result.failures == []
    assert elapsed < 60.0
    print(f"\ncriterion 1 (offline oracle equivalence): PASS [{result.total} instances, {elapsed:.1f}s]")


def test_criterion_2_elimination_safety(concave_battery):
    """The horizon-best arm survives every elimination sweep on 1000 concave
    instances."""
    result = verify.suite_safety(concave_battery)
    assert result.total == 1000
    assert result.failures == []
    print(f"\ncriterion 2 (elimination safety): PASS [{result.total} instances]")


def test_criterion_3_regret_bound(concave_battery):
    """Measured regret never exceeds the separation-time bound."""
    result = verify.suite_theorem1(concave_battery)
    assert result.total == 1000
    assert result.failures == []
    print(f"\ncriterion 3 (regret bound): PASS [{result.total} instances]")


def test_criterion_4_beats_round_robin(concave_battery):
    """Wherever the separation condition holds, elimination regret is at most
    round-robin regret."""
    result = verify.suite_corollary1(concave_battery)
    assert result.total > 0
    assert result.failures == []
    print(
        f"\ncriterion 4 (beats round-robin): PASS "
        f"[{result.total} applicable of {len(concave_battery)} instances]"
    )


def test_criterion_5_smooth_growth_identification():
    """On 100 plateau-and-jump instances satisfying the bias-ratio condition,
    smooth-growth elimination returns the horizon-best arm every time."""
    result = verify.suite_theorem2()
    assert result.total == 100
    assert result.failures == []
    print(f"\ncriterion 5 (smooth-growth identification): PASS [{result.total} instances]")


def test_criterion_6_allocation_share():
    """On the shipped 16-arm fixture the dominant arm receives the frozen
    golden share of pulls, above both the uniform share and round-robin."""
    spec = verify.allocation_instance()
    horizon = verify.ALLOCATION_HORIZON
    config = BanditConfig(trials=horizon, growth="smooth", smooth_window=7)
    dominant = verify.ALLOCATION_DOMINANT_ARM

    trace = simulate(make_policy("rising_bandit"), spec, config, seed=0)
    share = trace.pull_counts[dominant - 1] / horizon
    average_trace = simulate(make_policy("average"), spec, config, seed=0)
    average_share = average_trace.pull_counts[dominant - 1] / horizon

    assert trace.best_arm == dominant
    assert share > 1.0 / 16.0
    assert share > average_share
    assert share > verify.ALLOCATION_SHARE_THRESHOLD
    assert share == pytest.approx(verify.ALLOCATION_GOLDEN_SHARE, abs=DEFAULT_EPSILON)
    print(
        f"\ncriterion 6 (allocation share): PASS "
        f"[dominant {share:.3f} vs round-robin {average_share:.3f}]"
    )


def test_criterion_7_cost_aware_budget():
    """Identical curves at 10:1 costs under a budget: the cheap arm gets
    strictly more pulls, the budget is respected, and the achieved value is at
    least the trial-mode value at the cheap arm's pull count."""
    curve = ExponentialCurve(limit=0.9, initial=0.5, decay=0.9)
    spec = InstanceSpec([CurveArmSpec(curve, cost=10.0), CurveArmSpec(curve, cost=1.0)])
    budget = 115.0

    trace = rising_bandit_run(make_instance(spec, 0), BanditConfig(budget=budget))
    expensive_pulls, cheap_pulls = trace.pull_counts
    assert cheap_pulls > expensive_pulls
    assert trace.total_cost <= budget + DEFAULT_EPSILON

    trials_trace = rising_bandit_run(make_instance(spec, 0), BanditConfig(trials=cheap_pulls))
    assert trace.final_j >= trials_trace.final_j - DEFAULT_EPSILON
    print(
        f"\ncriterion 7 (cost-aware budget): PASS "
        f"[pulls {expensive_pulls}:{cheap_pulls}, cost {trace.total_cost:.1f} <= {budget}]"
    )


def test_criterion_8_byte_identical_reruns(tmp_path):
    """The CLI reproduces byte-identical CSV and JSON artifacts for a fixed
    seed, and verification suites reproduce identical outcomes."""
    config_path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "demo.cfg")
    outputs = []
    for run in ("a", "b"):
        out = str(tmp_path / run)
        assert main(["run", config_path, "--output", out, "--seed", "11"]) == 0
        outputs.append(out)

    for name in ("trace.csv", "report.json"):
        first = pathlib.Path(outputs[0], name).read_bytes()
        second = pathlib.Path(outputs[1], name).read_bytes()
        assert first == second, f"{name} differs between identical runs"

    manifests = [json.loads(pathlib.Path(out, "manifest.json").read_text()) for out in outputs]
    for manifest in manifests:
        manifest.pop("timestamp")
    assert manifests[0] == manifests[1]

    first = verify.suite_lemma1(count=50)
    second = verify.suite_lemma1(count=50)
    assert (first.total, first.failures) == (second.total, second.failures)
    print("\ncriterion 8 (byte-identical reruns): PASS")
