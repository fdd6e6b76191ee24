"""Per-arm and per-run records hold their fields in slots, with no per-instance ``__dict__``."""

import pickle

import pytest

from risingbandits import BanditConfig, CurveArmSpec, HpoArmSpec, InstanceSpec, make_instance
from risingbandits.bandit import ArmState, PolicyTrace
from risingbandits.config import ExperimentConfig
from risingbandits.curves import ExponentialCurve, PowerCurve, StaircaseCurve, TabulatedCurve
from risingbandits.harness import RegretReport
from risingbandits.hpo import SearchState
from risingbandits.verify import ConcaveCase

CURVES = (
    ExponentialCurve(limit=0.9, initial=0.4, decay=0.8),
    PowerCurve(limit=0.8, scale=0.3, exponent=1.2),
    TabulatedCurve([0.1, 0.5, 0.6]),
    StaircaseCurve(initial=0.2, limit=0.9, plateau_length=3, jump_fraction=0.5),
)

# One spec of each arm kind: each curve exact, one noisy, and an hpo arm.
SPECS = (
    *(CurveArmSpec(curve, cost=1.5) for curve in CURVES),
    CurveArmSpec(CURVES[0], noise_amplitude=0.05),
    HpoArmSpec(objective="quadratic", dimension=3, strategy="density_estimator", mean_cost=2.0),
)


def slotted_instances():
    exact, noisy, hpo = make_instance(InstanceSpec(SPECS[3:]), seed=3)
    yield from CURVES
    yield SPECS[0]
    yield SPECS[-1]
    yield from (exact, noisy, hpo)
    yield hpo.objective
    yield SearchState()
    yield ArmState(arm_id=1)
    yield PolicyTrace(horizon=1, pull_counts=[1], total_cost=1.0, best_arm=1, final_j=0.5, candidates=(1,))
    yield RegretReport(horizon=1, policies={})
    yield ConcaveCase(candidates=(1,), report=RegretReport(horizon=1, policies={}))


@pytest.mark.parametrize("obj", slotted_instances(), ids=lambda obj: type(obj).__name__)
def test_instance_has_no_dict(obj):
    assert not hasattr(obj, "__dict__")


def test_experiment_config_with_every_arm_kind_survives_pickle():
    # --jobs sends the config to its worker processes by pickle.
    config = ExperimentConfig(
        instance=InstanceSpec(SPECS),
        bandit=BanditConfig(budget=40.0, growth="smooth", smooth_window=3),
        policy_names=["rising_bandit", "ucb"],
        replications=2,
        base_seed=9,
    )
    copy = pickle.loads(pickle.dumps(config))
    assert copy == config
    assert [type(spec.curve) for spec in copy.instance.arms[:4]] == list(map(type, CURVES))
