"""The mutation catalogue in ``tools/``: its entries still apply, its
runner refuses a tree it cannot list, and it leaves nothing running or on
disk when stopped."""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
TOOLS = os.path.join(ROOT, "tools")


def test_every_catalogue_entry_applies():
    # A stranded entry otherwise shows only in a full catalogue run.
    with open(os.path.join(TOOLS, "mutants.json"), encoding="utf-8") as handle:
        entries = json.load(handle)
    problems = []
    for entry in entries:
        with open(os.path.join(ROOT, entry["file"]), encoding="utf-8") as handle:
            count = handle.read().count(entry["old"])
        if count != 1:
            problems.append(f"{entry['name']}: old text occurs {count} times in {entry['file']}")
        if entry["new"] == entry["old"]:
            problems.append(f"{entry['name']}: new text equals old text")
        for test in entry["tests"]:
            if not os.path.isfile(os.path.join(ROOT, test.split("::")[0])):
                problems.append(f"{entry['name']}: no file for test {test}")
    assert problems == []


def test_mutants_outside_a_git_checkout_exits_with_one_line(tmp_path):
    export = tmp_path / "export"
    shutil.copytree(TOOLS, export / "tools", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(export / "tools" / "mutants.py")], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"mutants: no git repository at the checkout root {export}\n"


# A catalogue of one entry whose named test records its pid, then sleeps
# long past the time the test below allows.
SLOW_CATALOGUE = [
    {
        "name": "slow",
        "file": "src/target.py",
        "old": "VALUE = 1",
        "new": "VALUE = 2",
        "tests": ["tests/test_slow.py"],
        "expect": "killed",
    }
]
# The runner loads this hypothesis profile, which a checkout's conftest registers.
SLOW_CONFTEST = """from hypothesis import settings

settings.register_profile("deterministic-no-shrink")
"""
SLOW_TEST = """import os, time

def test_sleeps():
    with open("started.tmp", "w") as handle:
        handle.write(str(os.getpid()))
    os.replace("started.tmp", "started")
    time.sleep(120)
"""


def _wait_for(predicate, timeout):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.05)


def _running(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_mutants_stopped_by_sigterm_leaves_no_copy_and_no_tests_running(tmp_path):
    checkout, temp = tmp_path / "checkout", tmp_path / "tmp"
    (checkout / "tools").mkdir(parents=True)
    (checkout / "src").mkdir()
    (checkout / "tests").mkdir()
    temp.mkdir()
    shutil.copy(os.path.join(TOOLS, "mutants.py"), checkout / "tools")
    (checkout / "tools" / "mutants.json").write_text(json.dumps(SLOW_CATALOGUE))
    (checkout / "src" / "target.py").write_text("VALUE = 1\n")
    (checkout / "tests" / "conftest.py").write_text(SLOW_CONFTEST)
    (checkout / "tests" / "test_slow.py").write_text(SLOW_TEST)
    subprocess.run(["git", "init", "-q", str(checkout)], check=True)
    env = dict(os.environ, TMPDIR=str(temp))
    runner = subprocess.Popen(
        [sys.executable, str(checkout / "tools" / "mutants.py")],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    pid = None
    try:
        _wait_for(lambda: list(temp.glob("mutant-*/started")), timeout=60)
        (started,) = temp.glob("mutant-*/started")
        pid = int(started.read_text())
        runner.send_signal(signal.SIGTERM)
        assert runner.wait(timeout=30) == 128 + signal.SIGTERM
        assert list(temp.glob("mutant-*")) == []
        assert not _running(pid)
    finally:
        runner.kill()
        runner.wait()
        if pid is not None and _running(pid):
            os.killpg(pid, signal.SIGKILL)
