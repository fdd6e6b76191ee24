import csv
import hashlib
import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risingbandits import ConfigurationError, CurveArmSpec, HpoArmSpec, InstanceSpec, cli, verify
from risingbandits import config as config_module
from risingbandits.bandit import BanditConfig
from risingbandits.cli import main, worker_count
from risingbandits.config import parse_experiment
from risingbandits.curves import ExponentialCurve
from risingbandits.harness import simulate
from risingbandits.hpo import SEARCH_STRATEGIES
from risingbandits.policies import POLICY_NAMES, make_policy

DEMO_CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "demo.cfg")

# SHA-256 of the demo artifacts at --seed 11, recorded before the pull loops
# were merged into one engine; any change to them is a behaviour change.
DEMO_SEED_11_DIGESTS = {
    "trace.csv": "79f2ecae942002af546fd371821749afb58d20fb71e41f1fdf45e040d917c61d",
    "report.json": "04ecc0da62dff9fc9872c87ee1e9b26bb53d021af9afea5bc175a32b7e0bccff",
}

# The same for a budget-mode config: costs 10, 1 and 2.5 (exact in binary, so
# the budget's epsilon tolerance cannot move a pull), one noisy arm and every
# policy, recorded before the cost-aware bound moved into Horizon.upper.
BUDGET_CONFIG = """
horizon_budget = 115
policies = rising_bandit, average, ucb, softmax, thompson
replications = 2
base_seed = 5

[arm]
kind = exponential
limit = 0.9
initial = 0.4
decay = 0.8
cost = 10

[arm]
kind = power
limit = 0.85
scale = 0.4
exponent = 1.2
cost = 1

[arm]
kind = exponential
limit = 0.7
initial = 0.3
decay = 0.6
noise_amplitude = 0.05
cost = 2.5
"""

BUDGET_DIGESTS = {
    "trace.csv": "a20517ab14aece86d954bcc73bcfc25411a6134f12d47f3690fc80d26c0f942b",
    "report.json": "3ddf831b38dc7ffc3c4349d512d5b8b92558de15126205a8c273eecaf21c8fa3",
}

# The same for three density_estimator tuning arms under a budget, so the
# sampler's outputs are pinned at dimensions 2, 3 and 5 under every policy;
# recorded before the sampler kept its history incrementally.
HPO_CONFIG = """
horizon_budget = 300
policies = rising_bandit, average, ucb, softmax, thompson
replications = 1
base_seed = 17

[arm]
kind = hpo
objective = sphere
dimension = 2
strategy = density_estimator
mean_cost = 1

[arm]
kind = hpo
objective = rosenbrock
dimension = 3
strategy = density_estimator
mean_cost = 1.5

[arm]
kind = hpo
objective = quadratic
dimension = 5
strategy = density_estimator
mean_cost = 2
"""

HPO_DIGESTS = {
    "trace.csv": "543ab7454d92c09c261084387e73c60f8db67a29fef42294b2e8c7453edb4233",
    "report.json": "9b364f439c48a15948ef5c9044944704545c63945c0081031f776431fc989a6b",
}

# The same for a staircase, a tabulated and a noisy power arm under the smooth
# growth rate, recorded before the staircase stopped wrapping a base curve and
# the noisy spec merged into CurveArmSpec.
STAIRCASE_CONFIG = """
horizon_trials = 40
growth = smooth
smooth_window = 3
policies = rising_bandit, average, ucb, softmax, thompson
replications = 2
base_seed = 9

[arm]
kind = staircase
initial = 0.3
limit = 0.92
plateau_length = 3
jump_fraction = 0.4

[arm]
kind = tabulated
values = 0.2, 0.45, 0.6, 0.7, 0.75, 0.78, 0.8

[arm]
kind = power
limit = 0.85
scale = 0.4
exponent = 1.2
noise_amplitude = 0.05
"""

STAIRCASE_DIGESTS = {
    "trace.csv": "dc3dee2a1d7efb550257cee931532539868834d683b4b34d9b2e124b06aa734a",
    "report.json": "b3aba378dceb925c2be8cd2415e4b3681e1bcc7bb39d977ebe5a9293aaf758b8",
}

CONFIG = """
horizon_trials = 10
policies = rising_bandit, average
replications = 2
base_seed = 3

[arm]
kind = exponential
limit = 0.9
initial = 0.5
decay = 0.5

[arm]
kind = exponential
limit = 0.95
initial = 0.3
decay = 0.8
"""


def _subprocess_env():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "experiment.cfg"
    path.write_text(CONFIG)
    return str(path)


class TestRunCommand:
    def test_writes_all_artifacts(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "results")
        assert main(["run", config_path, "--output", out]) == 0
        for name in ("trace.csv", "report.json", "manifest.json"):
            assert os.path.exists(os.path.join(out, name))

    def test_trace_has_expected_shape(self, config_path, tmp_path):
        out = str(tmp_path / "results")
        main(["run", config_path, "--output", out])
        lines = pathlib.Path(out, "trace.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header == [
            "step",
            "policy",
            "replication",
            "arm",
            "reward",
            "cost",
            "candidate_set_size",
            "best_so_far",
        ]
        # 2 policies x 2 replications x 10 steps.
        assert len(lines) == 1 + 40

    def test_report_contents(self, config_path, tmp_path):
        out = str(tmp_path / "results")
        main(["run", config_path, "--output", out])
        report = json.loads(pathlib.Path(out, "report.json").read_text())
        assert report["horizon"] == 10
        assert report["oracle_arm"] == 1
        assert set(report["policies"]) == {"rising_bandit", "average"}
        assert report["regrets"]["rising_bandit"] >= 0.0

    def test_manifest_echoes_config_and_seed(self, config_path, tmp_path):
        out = str(tmp_path / "results")
        main(["run", config_path, "--output", out, "--seed", "77"])
        manifest = json.loads(pathlib.Path(out, "manifest.json").read_text())
        assert manifest["base_seed"] == 77
        assert manifest["config_echo"] == CONFIG
        assert manifest["replications"] == 2

    def test_seed_env_override(self, config_path, tmp_path, monkeypatch):
        monkeypatch.setenv("RB_SEED", "123")
        out = str(tmp_path / "results")
        main(["run", config_path, "--output", out])
        manifest = json.loads(pathlib.Path(out, "manifest.json").read_text())
        assert manifest["base_seed"] == 123

    # The HPO arms draw a cost per pull, so the steps that cross the process
    # pool carry costs that vary within an arm.
    @pytest.mark.parametrize(
        "config_text", [pathlib.Path(DEMO_CONFIG).read_text(), HPO_CONFIG], ids=["demo", "hpo"]
    )
    def test_parallel_jobs_match_serial(self, config_text, tmp_path):
        config_path = tmp_path / "experiment.cfg"
        config_path.write_text(config_text)
        serial = str(tmp_path / "serial")
        parallel = str(tmp_path / "parallel")
        main(["run", str(config_path), "--output", serial])
        main(["run", str(config_path), "--output", parallel, "--jobs", "2"])
        serial_trace = pathlib.Path(serial, "trace.csv").read_bytes()
        assert pathlib.Path(parallel, "trace.csv").read_bytes() == serial_trace

    def test_config_file_read_once(self, config_path, tmp_path, monkeypatch):
        opened = []
        real_open = open

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        out = str(tmp_path / "results")
        assert main(["run", config_path, "--output", out]) == 0
        assert opened.count(config_path) == 1
        with real_open(os.path.join(out, "manifest.json")) as handle:
            manifest = json.load(handle)
        assert manifest["config_echo"] == CONFIG

    def test_leaves_only_the_artifacts(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "results")
        assert main(["run", config_path, "--output", out]) == 0
        assert sorted(os.listdir(out)) == ["manifest.json", "report.json", "trace.csv"]

    def test_failed_report_keeps_the_previous_artifacts(self, config_path, tmp_path, monkeypatch, capsys):
        out = tmp_path / "results"
        assert main(["run", config_path, "--output", str(out), "--seed", "1"]) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}

        real_dump = json.dump

        def failing_dump(obj, handle, **kwargs):
            if "interpretation_notes" in obj:
                raise OSError("no space left on device")
            return real_dump(obj, handle, **kwargs)

        # A longer horizon and another seed, so every new artifact would differ.
        with open(config_path, "w") as handle:
            handle.write(CONFIG.replace("horizon_trials = 10", "horizon_trials = 12"))
        monkeypatch.setattr(cli.json, "dump", failing_dump)
        assert main(["run", config_path, "--output", str(out), "--seed", "2"]) == 1
        assert "no space left on device" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_failed_run_keeps_the_previous_artifacts(self, config_path, tmp_path, monkeypatch, capsys):
        out = tmp_path / "results"
        assert main(["run", config_path, "--output", str(out), "--seed", "1"]) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}

        real_run_one = cli._run_one
        started = []

        def failing_second_run(config, policy_name, replication, sink):
            started.append((policy_name, replication))
            if len(started) == 2:
                raise ConfigurationError("the second run failed")
            return real_run_one(config, policy_name, replication, sink)

        # The first run's rows are already in the staged trace when the second fails.
        monkeypatch.setattr(cli, "_run_one", failing_second_run)
        assert main(["run", config_path, "--output", str(out), "--seed", "2"]) == 1
        assert "the second run failed" in capsys.readouterr().err
        assert len(started) == 2
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_serial_run_holds_no_steps(self, tmp_path, capsys):
        # 100,000 pulls: held as step records they would take about 15 MB.
        path = tmp_path / "long.cfg"
        path.write_text("horizon_trials = 100000\npolicies = rising_bandit\n[arm]\nkind = tabulated\nvalues = 0.5\n")
        tracemalloc.start()
        try:
            assert main(["run", str(path), "--output", str(tmp_path / "results")]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # What still grows with the pulls: the arm's reward history, and one
        # candidate set per elimination round, which with one arm is one per
        # pull; about 1.6 MB of lists here.
        assert peak < 3_000_000

    def test_a_run_builds_only_its_policy(self, monkeypatch):
        config = parse_experiment(CONFIG)
        built = []
        real = config_module.make_policy

        def counting(name, **params):
            built.append(name)
            return real(name, **params)

        monkeypatch.setattr(config_module, "make_policy", counting)
        cli._run_one(config, "average", 0)
        assert built == ["average"]

    def test_serial_run_imports_no_process_pool(self, config_path, tmp_path):
        out = str(tmp_path / "results")
        code = (
            "import sys\n"
            "from risingbandits import cli\n"
            f"assert cli.main(['run', {config_path!r}, '--output', {out!r}]) == 0\n"
            "assert 'concurrent.futures' not in sys.modules, 'a --jobs 1 run imported the process pool'\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], env=_subprocess_env(), capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert sorted(os.listdir(out)) == ["manifest.json", "report.json", "trace.csv"]

    def test_sigterm_keeps_the_previous_artifacts(self, config_path, tmp_path):
        out = tmp_path / "results"
        assert main(["run", config_path, "--output", str(out)]) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        long_path = tmp_path / "long.cfg"
        # Minutes of runs: the signal always arrives mid-experiment.
        long_path.write_text(
            "horizon_trials = 200000\nreplications = 1000\n[arm]\nkind = tabulated\nvalues = 0.5\n"
        )
        argv = [sys.executable, "-m", "risingbandits.cli", "run", str(long_path), "--output", str(out)]
        proc = subprocess.Popen(
            argv, env=_subprocess_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        try:
            # The staged trace exists once the runs have started streaming into it.
            deadline = time.monotonic() + 60
            while not any(path.name.endswith(".tmp") for path in out.iterdir()):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 143, err
        assert "Traceback" not in err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_main_restores_the_sigterm_handler(self, config_path, tmp_path, capsys):
        def handler(signum, frame):
            pass

        previous = signal.signal(signal.SIGTERM, handler)
        try:
            assert main(["run", config_path, "--output", str(tmp_path / "results")]) == 0
            assert signal.getsignal(signal.SIGTERM) is handler
            assert main(["verify", "no_such_suite"]) == 1
            assert signal.getsignal(signal.SIGTERM) is handler
        finally:
            signal.signal(signal.SIGTERM, previous)

    def test_main_runs_outside_the_main_thread(self, config_path, tmp_path, capsys):
        # Only the main thread may set a signal handler, so main sets none there.
        codes = []
        worker = threading.Thread(
            target=lambda: codes.append(main(["run", config_path, "--output", str(tmp_path / "results")]))
        )
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert codes == [0]

    def test_missing_config_exits_one(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.cfg")]) == 1

    def test_invalid_config_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("horizon_trials = 5\n")
        assert main(["run", str(path)]) == 1


class TestGoldenArtifacts:
    def _check(self, argv, digests):
        assert main(argv) == 0
        out = argv[argv.index("--output") + 1]
        for name, digest in digests.items():
            with open(os.path.join(out, name), "rb") as handle:
                assert hashlib.sha256(handle.read()).hexdigest() == digest, name

    def test_demo_seed_11_digests(self, tmp_path, capsys):
        out = str(tmp_path / "results")
        self._check(["run", DEMO_CONFIG, "--output", out, "--seed", "11"], DEMO_SEED_11_DIGESTS)

    def test_budget_digests(self, tmp_path, capsys):
        path = tmp_path / "budget.cfg"
        path.write_text(BUDGET_CONFIG)
        self._check(["run", str(path), "--output", str(tmp_path / "results")], BUDGET_DIGESTS)

    def test_hpo_density_digests(self, tmp_path, capsys):
        path = tmp_path / "hpo.cfg"
        path.write_text(HPO_CONFIG)
        self._check(["run", str(path), "--output", str(tmp_path / "results")], HPO_DIGESTS)

    def test_staircase_tabulated_digests(self, tmp_path, capsys):
        path = tmp_path / "staircase.cfg"
        path.write_text(STAIRCASE_CONFIG)
        self._check(["run", str(path), "--output", str(tmp_path / "results")], STAIRCASE_DIGESTS)


def _reference_write_trace(path, runs):
    """The per-row trace writer ``cli._write_trace`` replaced, kept as its
    reference: ``_fmt`` of reward, cost and ``max(best, reward)`` on every row."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(cli.TRACE_COLUMNS)
        for policy_name, replication, steps in runs:
            best = 0.0
            for step in steps:
                best = max(best, step.reward)
                writer.writerow(
                    (
                        step.t,
                        policy_name,
                        replication,
                        step.arm,
                        cli._fmt(step.reward),
                        cli._fmt(step.cost),
                        step.candidate_set_size,
                        cli._fmt(best),
                    )
                )


@st.composite
def arm_specs(draw):
    if draw(st.booleans()):
        # hpo arms draw a fresh cost for every pull, and start at reward 0.
        return HpoArmSpec(
            objective=draw(st.sampled_from(["sphere", "rosenbrock", "quadratic"])),
            dimension=draw(st.integers(2, 3)),
            strategy=draw(st.sampled_from(SEARCH_STRATEGIES)),
            mean_cost=draw(st.sampled_from([0.5, 1.0, 2.5])),
        )
    limit = draw(st.floats(0.2, 1.0))
    curve = ExponentialCurve(limit, draw(st.floats(0.05, 1.0)) * limit, draw(st.floats(0.1, 0.9)))
    # Few distinct costs, so arms often share one.
    cost = draw(st.sampled_from([0.25, 1.0, 2.5]))
    return CurveArmSpec(curve, cost=cost, noise_amplitude=draw(st.sampled_from([0.0, 0.05])))


@st.composite
def trace_runs(draw):
    instance = InstanceSpec(draw(st.lists(arm_specs(), min_size=1, max_size=3)))
    if draw(st.booleans()):
        config = BanditConfig(trials=draw(st.integers(1, 25)))
    else:
        # Above every cost an arm can draw, so each run makes a pull.
        config = BanditConfig(budget=draw(st.floats(4.0, 30.0)))
    names = draw(st.lists(st.sampled_from(POLICY_NAMES), min_size=2, max_size=3, unique=True))
    replications, seed = draw(st.integers(2, 3)), draw(st.integers(0, 2**16))
    runs = []
    for name in names:
        for rep in range(replications):
            steps = []
            simulate(make_policy(name), instance, config, seed, rep, steps.append)
            runs.append((name, rep, steps))
    return runs


def _replay(runs):
    """``runs`` as ``cli._write_trace`` takes them: a function that passes each run's steps on."""

    def replay(rows):
        for policy_name, replication, steps in runs:
            sink = rows(policy_name, replication)
            for step in steps:
                sink(step)

    return replay


class TestTraceWriter:
    @settings(max_examples=40, deadline=None)
    @given(trace_runs())
    def test_matches_the_per_row_reference(self, runs):
        with tempfile.TemporaryDirectory() as tmp:
            written, expected = os.path.join(tmp, "written.csv"), os.path.join(tmp, "expected.csv")
            cli._write_trace(written, _replay(runs))
            _reference_write_trace(expected, runs)
            with open(written, "rb") as a, open(expected, "rb") as b:
                assert a.read() == b.read()


def test_policy_names_need_no_csv_quoting():
    # cli._write_trace writes each policy name into the trace unquoted.
    assert all(re.fullmatch(r"[a-z_]+", name) for name in POLICY_NAMES)


class TestErrorBoundary:
    """Bad input ends in exit code 1 and one line on stderr, never a traceback."""

    def _one_line_error(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err
        return err

    def test_elimination_budget_below_every_cost(self, tmp_path, capsys):
        path = tmp_path / "tiny.cfg"
        path.write_text(
            "horizon_budget = 0.5\npolicies = rising_bandit\n"
            "[arm]\nkind = exponential\nlimit = 0.9\ninitial = 0.5\ndecay = 0.5\n"
        )
        err = self._one_line_error(["run", str(path), "--output", str(tmp_path / "out")], capsys)
        assert "budget too small" in err

    def test_non_integer_seed_env(self, config_path, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RB_SEED", "abc")
        err = self._one_line_error(["run", config_path, "--output", str(tmp_path / "out")], capsys)
        assert "RB_SEED" in err

    def test_negative_seed_env(self, config_path, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RB_SEED", "-4")
        err = self._one_line_error(["run", config_path, "--output", str(tmp_path / "out")], capsys)
        assert "base seed" in err

    def test_negative_seed_flag(self, config_path, tmp_path, capsys):
        err = self._one_line_error(
            ["run", config_path, "--output", str(tmp_path / "out"), "--seed", "-1"], capsys
        )
        assert "base seed" in err

    def test_negative_base_seed_in_config(self, tmp_path, capsys):
        path = tmp_path / "neg.cfg"
        path.write_text(CONFIG.replace("base_seed = 3", "base_seed = -2"))
        err = self._one_line_error(["run", str(path), "--output", str(tmp_path / "out")], capsys)
        assert "base seed" in err

    def test_jobs_below_one(self, config_path, tmp_path, capsys):
        err = self._one_line_error(
            ["run", config_path, "--output", str(tmp_path / "out"), "--jobs", "0"], capsys
        )
        assert "--jobs" in err

    @pytest.mark.parametrize(
        "setting, jobs",
        [
            ("policies = ucb\nucb_coefficient = -1", "1"),
            ("policies = softmax\nsoftmax_temperature = 0", "1"),
            ("policies = thompson\nthompson_alpha = 0", "1"),
            ("policies = average, thompson\nthompson_beta = -2", "2"),
        ],
    )
    def test_invalid_policy_parameter(self, setting, jobs, tmp_path, capsys):
        path = tmp_path / "policy.cfg"
        path.write_text(CONFIG.replace("policies = rising_bandit, average", setting))
        out = tmp_path / "out"
        err = self._one_line_error(["run", str(path), "--output", str(out), "--jobs", jobs], capsys)
        assert "must be positive" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "policies, message",
        [("policies = ,", "names no policy"), ("policies = ucb, ucb", "listed twice")],
    )
    def test_empty_or_repeated_policy_list(self, policies, message, tmp_path, capsys):
        path = tmp_path / "policies.cfg"
        path.write_text(CONFIG.replace("policies = rising_bandit, average", policies))
        out = tmp_path / "out"
        err = self._one_line_error(["run", str(path), "--output", str(out)], capsys)
        assert "'policies'" in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "arm, message",
        [
            ("kind = hpo\ndimension = 7", "dimension must be in [2, 5]"),
            ("kind = hpo\nobjective = cubic", "unknown objective"),
            ("kind = hpo\nstrategy = grid", "unknown search strategy"),
            ("kind = hpo\nmean_cost = 0", "mean cost must be positive"),
            ("kind = exponential\nlimit = 0.9\ninitial = 0.5\ndecay = 0.5\ncost = -1", "per-pull cost"),
            ("kind = power\nlimit = 0.9\nscale = 0.5\nexponent = 1\nnoise_amplitude = -0.1", "noise amplitude"),
        ],
    )
    def test_invalid_arm_parameter(self, arm, message, tmp_path, capsys):
        path = tmp_path / "arm.cfg"
        path.write_text(CONFIG + "\n[arm]\n" + arm + "\n")
        out = tmp_path / "out"
        err = self._one_line_error(["run", str(path), "--output", str(out)], capsys)
        assert "arm 3: " in err and message in err
        assert not out.exists()

    def test_replications_above_the_cap(self, tmp_path, capsys):
        path = tmp_path / "replications.cfg"
        path.write_text(CONFIG.replace("replications = 2", "replications = 100000000000000000000"))
        out = tmp_path / "out"
        err = self._one_line_error(["run", str(path), "--output", str(out)], capsys)
        assert "'replications'" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["1e-310", "5e-324"])
    def test_subnormal_softmax_temperature(self, value, tmp_path, capsys):
        path = tmp_path / "softmax.cfg"
        path.write_text(
            CONFIG.replace("policies = rising_bandit, average", f"policies = softmax\nsoftmax_temperature = {value}")
        )
        out = tmp_path / "out"
        err = self._one_line_error(["run", str(path), "--output", str(out)], capsys)
        assert "softmax_temperature" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "horizon, field",
        [("horizon_trials = 99999999999999", "'horizon_trials'"), ("horizon_budget = 1e308", "'horizon_budget'")],
    )
    def test_horizon_above_the_cap(self, horizon, field, tmp_path, capsys):
        path = tmp_path / "horizon.cfg"
        path.write_text(CONFIG.replace("horizon_trials = 10", horizon))
        out = tmp_path / "out"
        err = self._one_line_error(["run", str(path), "--output", str(out)], capsys)
        assert field in err and "cap" in err
        assert not out.exists()

    def test_budget_stretched_by_epsilon(self, tmp_path, capsys):
        # Within the 1e-12 epsilon a pull of cost 1e-300 always fits: about
        # 1e288 pulls, which used to pass parsing and never end.
        path = tmp_path / "stretched.cfg"
        path.write_text("horizon_budget = 1e-300\n[arm]\nkind = tabulated\nvalues = 0.5\ncost = 1e-300\n")
        out = tmp_path / "out"
        err = self._one_line_error(["run", str(path), "--output", str(out)], capsys)
        assert "'horizon_budget'" in err and "cap" in err
        assert not out.exists()

    def test_epsilon_above_the_cap(self, tmp_path, capsys):
        # A budget admits a pull within epsilon: 5 let a budget of 10 spend 15
        # (and 1e9, which BanditConfig's test covers, never ended the run).
        path = tmp_path / "epsilon.cfg"
        path.write_text(
            "horizon_budget = 10\nepsilon = 5\npolicies = rising_bandit, average\n"
            "[arm]\nkind = exponential\nlimit = 0.9\ninitial = 0.5\ndecay = 0.5\n"
        )
        out = tmp_path / "out"
        err = self._one_line_error(["run", str(path), "--output", str(out)], capsys)
        assert "epsilon" in err
        assert not out.exists()

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(CONFIG.encode() + b"# caf\xe9\n")
        err = self._one_line_error(["run", str(path), "--output", str(tmp_path / "out")], capsys)
        assert "utf-8" in err

    def test_config_path_is_a_directory(self, tmp_path, capsys):
        err = self._one_line_error(["run", str(tmp_path), "--output", str(tmp_path / "out")], capsys)
        assert "directory" in err

    def test_output_below_a_regular_file(self, config_path, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        err = self._one_line_error(["run", config_path, "--output", str(blocker / "out")], capsys)
        assert "blocker" in err

    def test_non_integer_seed_flag(self, config_path, tmp_path, capsys):
        err = self._one_line_error(
            ["run", config_path, "--output", str(tmp_path / "out"), "--seed", "abc"], capsys
        )
        assert "--seed" in err

    def test_missing_subcommand(self, capsys):
        err = self._one_line_error([], capsys)
        assert "required" in err


class TestWorkerCount:
    def test_capped_by_tasks_and_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert worker_count(1000, 15) == 8
        assert worker_count(3, 15) == 3
        assert worker_count(4, 2) == 2
        assert worker_count(1, 15) == 1

    def test_unknown_cpu_count_means_one(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert worker_count(16, 15) == 1

    def test_rejects_below_one(self):
        with pytest.raises(ConfigurationError):
            worker_count(0, 15)
        with pytest.raises(ConfigurationError):
            worker_count(-3, 15)


class TestVerifyCommand:
    def test_lemma1_suite_passes(self, capsys):
        assert main(["verify", "lemma1"]) == 0
        out = capsys.readouterr().out
        assert "lemma1: 200/200 checks passed" in out

    def test_unknown_suite_exits_one(self, capsys):
        assert main(["verify", "no_such_suite"]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "invalid choice: 'no_such_suite'" in err

    def test_inconsistent_battery_exits_two(self, monkeypatch, capsys):
        real = verify.random_dominant_instance

        def misnamed(rng):
            curves, horizon, k_star = real(rng)
            return curves, horizon, k_star % len(curves) + 1

        monkeypatch.setattr(verify, "random_dominant_instance", misnamed)
        assert main(["verify", "safety"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invariant violation: battery instance 0:")
        assert len(err.strip().splitlines()) == 1
