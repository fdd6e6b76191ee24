import contextlib
import csv
import hashlib
import json
import multiprocessing
import os
import pathlib
import pickle
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

from risingbandits import ConfigurationError, CurveArmSpec, HpoArmSpec, InstanceSpec, cli, harness, verify
from risingbandits import config as config_module
from risingbandits.bandit import BanditConfig, list_sink
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
# recorded before the sampler kept its history incrementally, and again when
# a tie stopped dropping an arm: rising_bandit's rewards are all 0 after
# round 2, and its sweep keeps all three arms.
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
    "trace.csv": "a0740ec663f4720b4075741621e2e1e75ae9c5bc84ee0931e420bb6b6240d05c",
    "report.json": "60020ef3e684f3ba71c0b5abdbffdf4526d9dc30f67fb278a9e7db82e99c73b9",
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

# The same for four exact curve arms under a trial horizon that 4 does not
# divide, so the report's oracle half is pinned: regrets, separation times,
# the regret bound, the round-robin comparison and the floor(T/K) note.  The
# same under either tie rule: no sweep here meets a tie.
EXACT_CONFIG = """
horizon_trials = 50
policies = rising_bandit, average, ucb, softmax, thompson
replications = 2
base_seed = 13

[arm]
kind = exponential
limit = 0.92
initial = 0.4
decay = 0.8

[arm]
kind = power
limit = 0.75
scale = 0.45
exponent = 1.0

[arm]
kind = exponential
limit = 0.55
initial = 0.2
decay = 0.6

[arm]
kind = tabulated
values = 0.1, 0.25, 0.3, 0.32, 0.33
"""

EXACT_DIGESTS = {
    "trace.csv": "99954762592a81767fcf6a93e21e84c47d2a75ec4b8933e63d7b7c72093323f5",
    "report.json": "895d25d9ac86f19b5d0dd3ef1a25d0395f2ff2932e469cf5f42e022a3e16dc17",
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


def _tabulated_configs(policy):
    """One-arm tabulated configs for ``policy`` at 100 and 100,000 trials."""
    return {
        trials: parse_experiment(
            f"horizon_trials = {trials}\npolicies = {policy}\n[arm]\nkind = tabulated\nvalues = 0.5\n"
        )
        for trials in (100, 100000)
    }


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

    def test_byte_order_mark_changes_no_artifact(self, tmp_path):
        # Some editors save UTF-8 with a byte-order mark first.
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_text(BUDGET_CONFIG, encoding="utf-8")
        marked.write_text(BUDGET_CONFIG, encoding="utf-8-sig")
        assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        written = []
        for path in (plain, marked):
            out = tmp_path / f"{path.stem}-results"
            assert main(["run", str(path), "--output", str(out)]) == 0
            written.append({name: (out / name).read_bytes() for name in ("trace.csv", "report.json")})
            written[-1]["config_echo"] = json.loads((out / "manifest.json").read_text())["config_echo"]
        assert written[0] == written[1]
        assert written[1]["config_echo"] == BUDGET_CONFIG

    def test_report_contents(self, config_path, tmp_path):
        out = str(tmp_path / "results")
        main(["run", config_path, "--output", out])
        report = json.loads(pathlib.Path(out, "report.json").read_text())
        assert report["horizon"] == 10
        assert report["oracle_arm"] == 1
        assert set(report["policies"]) == {"rising_bandit", "average"}
        assert report["regrets"]["rising_bandit"] >= 0.0

    def test_policy_above_the_oracle_exits_two(self, config_path, tmp_path, monkeypatch, capsys):
        out = tmp_path / "results"
        assert main(["run", config_path, "--output", str(out)]) == 0
        previous = {name: (out / name).read_bytes() for name in cli.ARTIFACTS}
        # The same seed gives the same runs, so the same mean.
        mean = json.loads(previous["report.json"])["policies"]["rising_bandit"]["j_mean"]
        capsys.readouterr()
        # An oracle below every policy: build_report refuses the first one.
        monkeypatch.setattr(harness, "offline_max_run", lambda curves, horizon: (1, 0.0))
        assert main(["run", config_path, "--output", str(out)]) == 2
        captured = capsys.readouterr()
        # The check stops at the first policy, before any artifact moves.
        assert captured.err == (
            f"invariant violation: policy 'rising_bandit' mean value {mean} exceeds the oracle 0.0\n"
        )
        assert "wrote" not in captured.out
        assert {name: (out / name).read_bytes() for name in cli.ARTIFACTS} == previous
        assert sorted(os.listdir(out)) == sorted(cli.ARTIFACTS)

    @pytest.mark.parametrize(
        "made",
        ["", "new", "new/deeper", "new/deeper/", "missing/../new"],
        ids=["existing", "new", "new_deeper", "trailing_slash", "through_a_missing_parent"],
    )
    def test_a_failed_run_removes_each_directory_it_made(
        self, made, config_path, tmp_path, monkeypatch, capsys
    ):
        out = tmp_path / "out"
        out.mkdir()
        monkeypatch.setattr(harness, "offline_max_run", lambda curves, horizon: (1, 0.0))
        assert main(["run", config_path, "--output", str(out / made)]) == 2
        assert "invariant violation" in capsys.readouterr().err
        # The directory that was there before the run stays, and stays empty.
        assert os.listdir(out) == []

    def test_manifest_echoes_config_and_seed(self, config_path, tmp_path):
        out = str(tmp_path / "results")
        main(["run", config_path, "--output", out, "--seed", "77"])
        manifest = json.loads(pathlib.Path(out, "manifest.json").read_text())
        assert manifest["base_seed"] == 77
        assert manifest["config_echo"] == CONFIG
        assert manifest["replications"] == 2

    def test_seed_env_changes_no_artifact(self, tmp_path, monkeypatch):
        # --seed is the one seed override: an RB_SEED in the environment is
        # not read.  The budget config has a noisy arm, so a seed moves its rows.
        path = tmp_path / "budget.cfg"
        path.write_text(BUDGET_CONFIG)
        written = []
        for env in (None, "123"):
            if env is not None:
                monkeypatch.setenv("RB_SEED", env)
            out = tmp_path / f"results-{env}"
            assert main(["run", str(path), "--output", str(out)]) == 0
            artifacts = {name: (out / name).read_bytes() for name in ("trace.csv", "report.json")}
            manifest = json.loads((out / "manifest.json").read_text())
            del manifest["timestamp"]
            written.append((artifacts, manifest))
        assert written[0] == written[1]
        assert written[1][1]["base_seed"] == 5

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
        # 100,000 pulls: held as step records they would take about 15 MB,
        # and a list of every reward, or of one candidate set per round,
        # about 0.8 MB each. A run keeps the last window + 1 rewards
        # per arm and its current candidate set, so nothing grows with them.
        for policy in ("rising_bandit", "average"):
            paths = {}
            for trials in (100, 100000):
                paths[trials] = tmp_path / f"{policy}-{trials}.cfg"
                paths[trials].write_text(
                    f"horizon_trials = {trials}\npolicies = {policy}\n[arm]\nkind = tabulated\nvalues = 0.5\n"
                )
            # A short run first, so the traced one pays for no first-use imports.
            assert main(["run", str(paths[100]), "--output", str(tmp_path / "warm-up")]) == 0
            tracemalloc.start()
            try:
                assert main(["run", str(paths[100000]), "--output", str(tmp_path / policy)]) == 0
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 400_000, policy

    def test_worker_run_holds_only_its_rows(self):
        # A --jobs worker returns its run's trace rows as one bytes block:
        # under Python 3.11, 100,000 pulls peaked at 32 bytes a pull for
        # average and 39 for rising_bandit, where a list of row strings took
        # 88 and 94, and a list of step records 128.
        for policy in ("rising_bandit", "average"):
            configs = _tabulated_configs(policy)
            # A short run first, so the traced one pays for no first-use imports.
            cli._run_rows(configs[100], policy, 0)
            tracemalloc.start()
            try:
                final_j, rows = cli._run_rows(configs[100000], policy, 0)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert (final_j, rows.count(b"\r\n")) == (0.5, 100000)
            assert peak < 110 * 100000, policy

    def test_worker_run_and_its_pickle_stay_small(self):
        # The pool pickles a worker's result for the parent while the worker
        # still holds it.  Under Python 3.11, 100,000 pulls with the pickle
        # peaked at 77 bytes a pull for average and 92 for rising_bandit; a
        # list of row strings took 192 and 197.
        for policy in ("rising_bandit", "average"):
            configs = _tabulated_configs(policy)
            pickle.dumps(cli._run_rows(configs[100], policy, 0))
            tracemalloc.start()
            try:
                pickle.dumps(cli._run_rows(configs[100000], policy, 0))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 130 * 100000, policy

    def test_huge_smooth_window_matches_one_spanning_the_horizon(self, tmp_path, capsys):
        # Either window exceeds every arm's increments, so the smooth growth
        # rate is always the mean increment so far; the huge one must not
        # reach a container size.
        traces = []
        for window in ("100000000000000000000", "60"):
            path = tmp_path / f"window-{len(window)}.cfg"
            with open(DEMO_CONFIG) as handle:
                path.write_text(handle.read().replace("smooth_window = 7", f"smooth_window = {window}"))
            out = tmp_path / f"out-{len(window)}"
            assert main(["run", str(path), "--output", str(out)]) == 0
            traces.append((out / "trace.csv").read_bytes())
        assert traces[0] == traces[1]

    def test_a_run_builds_only_its_policy(self, monkeypatch):
        config = parse_experiment(CONFIG)
        built = []
        real = cli.make_policy

        def counting(name):
            built.append(name)
            return real(name)

        monkeypatch.setattr(cli, "make_policy", counting)
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

    def test_run_imports_no_verify_suites(self, config_path, tmp_path):
        out = str(tmp_path / "results")
        code = (
            "import sys\n"
            "from risingbandits import cli\n"
            f"assert cli.main(['run', {config_path!r}, '--output', {out!r}]) == 0\n"
            "assert 'risingbandits.verify' not in sys.modules, 'a run imported the verify suites'\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], env=_subprocess_env(), capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr

    def _stop_mid_run(self, config_path, tmp_path, signum, jobs=1):
        """Exit code and stderr of a long run stopped by ``signum`` once its
        staged trace holds a megabyte of rows, after checking that it left
        the artifacts of an earlier run as they were.  The signal goes to the run's whole process
        group, as a terminal sends Ctrl-C, so worker processes get it too."""
        out = tmp_path / "results"
        assert main(["run", config_path, "--output", str(out)]) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        long_path = tmp_path / "long.cfg"
        # Minutes of runs: the signal always arrives mid-experiment.
        long_path.write_text(
            "horizon_trials = 200000\nreplications = 1000\n[arm]\nkind = tabulated\nvalues = 0.5\n"
        )
        argv = [sys.executable, "-m", "risingbandits.cli", "run", str(long_path), "--output", str(out)]
        argv += ["--jobs", str(jobs)]
        proc = subprocess.Popen(
            argv,
            env=_subprocess_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            # Rows stream into the staged trace as runs end: once it holds a
            # megabyte, the run is writing rows, not waiting for a worker.
            deadline = time.monotonic() + 60
            while not any(path.name.endswith(".tmp") and path.stat().st_size > 2**20 for path in out.iterdir()):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
            os.killpg(proc.pid, signum)
            _, err = proc.communicate(timeout=60)
        finally:
            # Whatever of the run is left, its workers included.
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before
        return proc.returncode, err

    def test_sigterm_keeps_the_previous_artifacts(self, config_path, tmp_path):
        code, err = self._stop_mid_run(config_path, tmp_path, signal.SIGTERM)
        assert code == 143, err
        assert "Traceback" not in err

    def test_sigint_ends_in_one_line_and_keeps_the_previous_artifacts(self, config_path, tmp_path):
        # Ctrl-C: an exit code, not a KeyboardInterrupt traceback.
        code, err = self._stop_mid_run(config_path, tmp_path, signal.SIGINT)
        assert code == 130, err
        assert "Traceback" not in err

    def test_ctrl_c_stops_a_parallel_run_without_waiting_for_every_run(self, config_path, tmp_path):
        # The parent starts no more runs and waits only for those in
        # progress: well within the timeout, where all 1000 take minutes.
        code, err = self._stop_mid_run(config_path, tmp_path, signal.SIGINT, jobs=2)
        assert code == 130, err
        assert "Traceback" not in err

    def test_workers_exit_when_the_parent_is_killed(self, tmp_path):
        # SIGKILL runs no cleanup in the parent: each worker must notice by
        # itself that its parent is gone.
        if not pathlib.Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists():
            pytest.skip("needs /proc/<pid>/task/<tid>/children to find the workers")
        # Under another start method the CLI's children include helpers (a
        # forkserver, a resource tracker) that also exit with the parent.
        if multiprocessing.get_all_start_methods()[0] != "fork":
            pytest.skip("finds the workers as the CLI's forked children")

        def running(pid):
            # A worker that has exited may stay a zombie until its new parent reaps it.
            try:
                stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
            except FileNotFoundError:
                return False
            return stat.rsplit(")", 1)[1].split()[0] != "Z"

        long_path = tmp_path / "long.cfg"
        long_path.write_text("horizon_trials = 20000\nreplications = 200\n[arm]\nkind = tabulated\nvalues = 0.5\n")
        out = tmp_path / "results"
        argv = [sys.executable, "-m", "risingbandits.cli", "run", str(long_path), "--output", str(out), "--jobs", "2"]
        proc = subprocess.Popen(
            argv, env=_subprocess_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True
        )
        workers = []
        try:
            # Once the staged trace holds a run's rows, every worker has started.
            deadline = time.monotonic() + 60
            while not (out.exists() and any(path.stat().st_size > 2**16 for path in out.iterdir())):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
            for task in pathlib.Path(f"/proc/{proc.pid}/task").iterdir():
                workers += map(int, (task / "children").read_text().split())
            assert len(workers) == worker_count(2, 200)
            # A forked worker keeps the CLI's command line; an exec'd helper would not.
            cmdline = pathlib.Path(f"/proc/{proc.pid}/cmdline").read_bytes()
            assert all(pathlib.Path(f"/proc/{pid}/cmdline").read_bytes() == cmdline for pid in workers)
            proc.kill()
            proc.wait()
            deadline = time.monotonic() + 5
            while any(map(running, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(running, workers))
        finally:
            for pid in filter(running, workers):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()

    def test_main_restores_the_sigterm_handler(self, config_path, tmp_path, capsys):
        def handler(signum, frame):
            pass

        # And the SIGINT one, which main also replaces while it runs.
        stops = (signal.SIGTERM, signal.SIGINT)
        previous = {signum: signal.signal(signum, handler) for signum in stops}
        try:
            assert main(["run", config_path, "--output", str(tmp_path / "results")]) == 0
            assert all(signal.getsignal(signum) is handler for signum in stops)
            assert main(["verify", "no_such_suite"]) == 1
            assert all(signal.getsignal(signum) is handler for signum in stops)
        finally:
            for signum, restored in previous.items():
                signal.signal(signum, restored)

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

    def test_exact_curve_digests(self, tmp_path, capsys):
        path = tmp_path / "exact.cfg"
        path.write_text(EXACT_CONFIG)
        self._check(["run", str(path), "--output", str(tmp_path / "results")], EXACT_DIGESTS)
        report = json.loads((tmp_path / "results" / "report.json").read_text())
        assert report["theorem1_vacuous"] is False
        assert report["interpretation_notes"][0].startswith("horizon not divisible by the arm count")


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
            simulate(make_policy(name), instance, config, seed, rep, list_sink(steps))
            runs.append((name, rep, steps))
    return runs


def _replay(runs):
    """``runs`` as ``cli._write_trace`` takes them: a function that passes each
    run's steps to its own ``cli._rows`` sink."""

    def replay(handle):
        for policy_name, replication, steps in runs:
            sink = cli._rows(handle.write, policy_name, replication)
            for step in steps:
                sink(*step)

    return replay


class TestTraceWriter:
    @settings(max_examples=40, deadline=None)
    @given(trace_runs())
    def test_matches_the_per_row_reference(self, runs):
        with tempfile.TemporaryDirectory() as tmp:
            expected, written = os.path.join(tmp, "expected.csv"), os.path.join(tmp, "written.csv")
            _reference_write_trace(expected, runs)
            cli._write_trace(written, _replay(runs))
            with open(written, "rb") as a, open(expected, "rb") as b:
                assert a.read() == b.read()


def test_policy_names_need_no_csv_quoting():
    # cli._write_trace writes each policy name into the trace unquoted.
    assert all(re.fullmatch(r"[a-z_]+", name) for name in POLICY_NAMES)


# Keys an edit may insert: every global and arm key, and one no block knows.
EDIT_KEYS = sorted(
    {
        *config_module.GLOBAL_KEYS,
        *("kind", "limit", "initial", "decay", "scale", "exponent", "values", "plateau_length"),
        *("jump_fraction", "cost", "noise_amplitude", "objective", "dimension", "strategy", "mean_cost"),
        "colour",
    }
)
# Odd values for any key.  No large valid count is among them, so no edit
# makes a long run.
ODD_VALUES = (
    *("nan", "inf", "-inf", "-1", "0", "1", "0.5", "-0.0", "1e308", "-1e308", "5e-324", "1e-320"),
    *("abc", "", "=", "1,2", ",", "0x10", "1_0", "smooth", "hpo", "density_estimator", "rising_bandit"),
)


@st.composite
def edited_demo_configs(draw):
    """``configs/demo.cfg`` with one to four lines inserted, deleted,
    duplicated or given an odd value."""
    with open(DEMO_CONFIG, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(lines)))
        edit = draw(st.sampled_from(("insert", "delete", "duplicate", "set")))
        if edit == "insert" or at == len(lines):
            key = draw(st.sampled_from(EDIT_KEYS))
            lines.insert(at, draw(st.sampled_from(("[arm]", f"{key} = {draw(st.sampled_from(ODD_VALUES))}"))))
        elif edit == "delete":
            del lines[at]
        elif edit == "duplicate":
            lines.insert(at, lines[at])
        else:
            key = lines[at].partition("=")[0].strip() or draw(st.sampled_from(EDIT_KEYS))
            lines[at] = f"{key} = {draw(st.sampled_from(ODD_VALUES))}"
    return "\n".join(lines) + "\n"


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

    def test_budget_below_every_cost_leaves_no_output_directory(self, tmp_path, capsys):
        path = tmp_path / "tiny.cfg"
        path.write_text(
            "horizon_budget = 0.5\npolicies = rising_bandit\n"
            "[arm]\nkind = exponential\nlimit = 0.9\ninitial = 0.5\ndecay = 0.5\n"
        )
        out = tmp_path / "out"
        err = self._one_line_error(["run", str(path), "--output", str(out)], capsys)
        assert "field 'horizon_budget': budget too small for a single pull" in err
        assert not out.exists()

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

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_run_time_error_in_a_run(self, jobs, tmp_path, capsys):
        # rising_bandit skips the arm that does not fit; average's first pull
        # is arm 1, which costs more than the whole budget.  With --jobs 2 the
        # error is raised in a worker and reaches the parent as it is.
        path = tmp_path / "costly.cfg"
        path.write_text(
            "horizon_budget = 5\npolicies = rising_bandit, average\nreplications = 2\n"
            "[arm]\nkind = tabulated\nvalues = 0.5\ncost = 10\n"
            "[arm]\nkind = tabulated\nvalues = 0.4\ncost = 1\n"
        )
        out = tmp_path / "out"
        err = self._one_line_error(["run", str(path), "--output", str(out), "--jobs", jobs], capsys)
        assert err == (
            "configuration error: policy 'average' chose arm 1 for its first pull, "
            "at cost 10.0, above the budget 5.0\n"
        )
        assert not out.exists()

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
        # The baselines' settings are fixed: a file that sets one is refused
        # for the key, whatever its value.
        path = tmp_path / "policy.cfg"
        path.write_text(CONFIG.replace("policies = rising_bandit, average", setting))
        key = setting.splitlines()[1].split(" = ")[0]
        out = tmp_path / "out"
        err = self._one_line_error(["run", str(path), "--output", str(out), "--jobs", jobs], capsys)
        assert f"unknown global fields ['{key}']" in err
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
            ("kind = hpo\nmean_cost = 1.6e308", "mean cost 1.6e+308 overflows"),
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

    @pytest.mark.parametrize(
        "horizon, field",
        # The hpo arm's cheapest pull costs 0.8: 12800.8 buys 16001 of them.
        [("horizon_trials = 16001", "'horizon_trials'"), ("horizon_budget = 12800.8", "'horizon_budget'")],
    )
    def test_density_estimator_pulls_above_the_cap(self, horizon, field, tmp_path, capsys):
        path = tmp_path / "density.cfg"
        path.write_text(
            CONFIG.replace("horizon_trials = 10", horizon) + "\n[arm]\nkind = hpo\nstrategy = density_estimator\n"
        )
        out = tmp_path / "out"
        err = self._one_line_error(["run", str(path), "--output", str(out)], capsys)
        assert field in err and "density_estimator" in err and "cap of 16000 " in err
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

    def test_epsilon_is_not_a_key(self, tmp_path, capsys):
        # The budget tolerance is the fixed bandit.DEFAULT_EPSILON, even at its own value.
        path = tmp_path / "epsilon.cfg"
        path.write_text(
            "horizon_budget = 10\nepsilon = 1e-12\npolicies = rising_bandit, average\n"
            "[arm]\nkind = exponential\nlimit = 0.9\ninitial = 0.5\ndecay = 0.5\n"
        )
        out = tmp_path / "out"
        err = self._one_line_error(["run", str(path), "--output", str(out)], capsys)
        assert err == "configuration error: unknown global fields ['epsilon']\n"
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

    @settings(max_examples=150, deadline=None)
    @given(edited_demo_configs())
    def test_no_edit_of_the_demo_escapes_the_boundary(self, text):
        # A traceback is always a bug: any edit ends in an exit code.
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "edited.cfg")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            assert main(["run", path, "--output", os.path.join(tmp, "out")]) in (0, 1, 2)


class TestWorkerCount:
    def test_capped_by_tasks_and_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        assert worker_count(1000, 15) == 8
        assert worker_count(3, 15) == 3
        assert worker_count(4, 2) == 2
        assert worker_count(1, 15) == 1

    def test_capped_by_the_affinity_set_not_the_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert worker_count(4, 10) == 1

    def test_capped_by_cpu_count_where_there_is_no_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert worker_count(1000, 15) == 8

    def test_unknown_cpu_count_means_one(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert worker_count(16, 15) == 1

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
    def test_a_process_pinned_to_one_cpu_gets_one_worker(self):
        # As under ``taskset -c <cpu>``: the child pins itself before asking.
        code = (
            "import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
            "from risingbandits.cli import worker_count; print(worker_count(4, 10))"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=_subprocess_env(), capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "1"

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

    def test_failing_suite_prints_each_failure_and_exits_two(self, monkeypatch, capsys):
        failures = ["instance 0: optimal arm 2 eliminated", "instance 2: optimal arm 1 eliminated"]
        monkeypatch.setitem(verify.SUITES, "safety", lambda: verify.SuiteResult("safety", 3, failures))
        assert main(["verify", "safety"]) == 2
        captured = capsys.readouterr()
        assert captured.out == (
            "FAIL safety: instance 0: optimal arm 2 eliminated\n"
            "FAIL safety: instance 2: optimal arm 1 eliminated\n"
            "safety: 1/3 checks passed\n"
        )
        assert captured.err == ""

    def test_unknown_suite_exits_one(self, capsys):
        assert main(["verify", "no_such_suite"]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "invalid choice: 'no_such_suite'" in err

    @pytest.mark.parametrize("suite", ["safety", "theorem1", "corollary1"])
    def test_policy_above_the_oracle_exits_two(self, suite, monkeypatch, capsys):
        # Each battery case's report is built by build_report, which refuses
        # the first instance's run once the oracle reads below it.
        monkeypatch.setattr(harness, "offline_max_run", lambda curves, horizon: (1, 0.0))
        assert main(["verify", suite]) == 2
        captured = capsys.readouterr()
        assert re.fullmatch(
            r"invariant violation: policy 'rising_bandit' mean value \S+ exceeds the oracle 0\.0\n", captured.err
        )
        assert captured.out == ""

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
