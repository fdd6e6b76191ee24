"""What the benchmark in ``perfbench/`` relies on in the package.

The benchmark runs ``perfbench/child.py`` in fresh interpreters, names each
pull span after the arm process class, and counts the elimination runs of
the verify suites by patching ``verify.rising_bandit_run``.  These tests run
the same programs on a small configuration, and ``perfbench/selfcheck.py``
on the benchmark's own, so a change to the package that would break a
benchmark run fails here first.
"""

import importlib.util
import os
import subprocess
import sys

import pytest

from risingbandits import verify

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
PERFBENCH = os.path.join(ROOT, "perfbench")

# One arm of every kind the benchmark traces: exact, noisy, staircase,
# tabulated and hpo.
CONFIG = """
horizon_trials = 40
growth = smooth
smooth_window = 3
policies = rising_bandit, average, ucb, softmax, thompson

[arm]
kind = exponential
limit = 0.9
initial = 0.4
decay = 0.7

[arm]
kind = power
limit = 0.85
scale = 0.4
exponent = 1.2
noise_amplitude = 0.05

[arm]
kind = staircase
initial = 0.3
limit = 0.92
plateau_length = 3
jump_fraction = 0.4

[arm]
kind = tabulated
values = 0.2, 0.45, 0.6, 0.7

[arm]
kind = hpo
objective = sphere
dimension = 2
"""


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", os.path.join(PERFBENCH, "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _child(*args):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "child.py"), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "contract.cfg"
    path.write_text(CONFIG)
    return str(path)


def test_setup_builds_every_arm_kind(config_path):
    done = _child("setup", "wide_elim", config_path)
    assert done.returncode == 0, done.stderr


def test_traced_run_counts_pulls_of_every_arm_kind(config_path, tmp_path):
    spans = tmp_path / "spans.npz"
    done = _child("run", config_path, str(tmp_path / "out"), "--spans", str(spans))
    assert done.returncode == 0, done.stderr
    tracer = _tracer()
    recorded = tracer.load_spans(str(spans))
    metrics = tracer.layer_metrics(recorded)
    for kind in ("curve", "noisy", "hpo"):
        assert metrics[f"arms.{kind}.pull.calls"] > 0, kind
    # Every curve-arm pull evaluates its curve through the traced ``eval``,
    # and the elimination policy reaches these through ``bandit``'s module
    # globals; a pull path that bypassed either would blind the tracer.
    assert metrics["curves.eval.calls"] == metrics["arms.curve.pull.calls"] + metrics["arms.noisy.pull.calls"]
    assert metrics["bandit.growth_rate.calls"] > 0
    assert metrics["bandit.eliminate.calls"] > 0
    assert metrics["bandit.upper_bound.s"] > 0
    # The tracer wraps each baseline's select as (self, states, t): each
    # run of the 40 trials makes one traced select per pull.
    for name in ("average", "ucb", "softmax", "thompson"):
        assert metrics[f"policies.{name}.select.calls"] == 40, name
    # A sweep span's ``a`` is the candidate-set size: a settled set of one
    # candidate is never swept.
    names = [str(name) for name in recorded["names"]]
    sweep_sizes = recorded["a"][recorded["name"] == names.index("bandit.eliminate")]
    assert (sweep_sizes >= 2).all(), sweep_sizes.tolist()


def test_suites_run_elimination_through_the_module_global(monkeypatch):
    # ``child.py suites`` counts the pulls of every elimination run this way.
    calls = []
    run = verify.rising_bandit_run

    def counted(arms, config):
        calls.append(config)
        return run(arms, config)

    monkeypatch.setattr(verify, "rising_bandit_run", counted)
    verify.concave_battery(count=3)
    assert len(calls) == 3
    assert verify.suite_theorem2(count=3).ok
    assert len(calls) == 6


def test_perfbench_selfcheck_passes():
    # Two traced runs of every workload, checked against
    # ``perfbench/reference.json``; it writes only under ``.perfbench/``.
    done = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "selfcheck.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
