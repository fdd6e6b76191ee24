"""Best-arm identification for rising reward processes.

A reward process is "rising" when each pull improves a bounded, saturating
best-so-far score, as in iterative hyperparameter tuning.  This package
provides synthetic rising reward curves and arm processes, an
elimination-based selection algorithm with smooth-growth and cost-aware
variants, classical bandit baselines, and a harness that empirically checks
the algorithm's analytic guarantees.
"""

__version__ = "0.1.0"

from .arms import (
    ArmProcess,
    ConfigurationError,
    CurveArm,
    CurveArmSpec,
    HpoArm,
    HpoArmSpec,
    InstanceSpec,
    NoisyCurveArm,
    make_instance,
)
from .bandit import (
    ArmState,
    BanditConfig,
    PolicyTrace,
    StepRecord,
    eliminate,
    growth_rate,
    list_sink,
    rising_bandit_run,
    run_policy,
    upper_bound,
)
from .curves import (
    ExponentialCurve,
    PowerCurve,
    RewardCurve,
    StaircaseCurve,
    TabulatedCurve,
)
from .harness import (
    RegretReport,
    brute_force_optimal,
    build_report,
    compute_gamma,
    least_concave_majorant,
    offline_max_run,
    regret,
    simulate,
    theorem2_condition_check,
)
from .policies import (
    AveragePolicy,
    Policy,
    RisingBanditPolicy,
    SoftmaxPolicy,
    ThompsonPolicy,
    UCBPolicy,
    make_policy,
)
