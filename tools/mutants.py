"""Run the mutation catalogue: each entry breaks the package on purpose, and
the tests must notice.

    python3 tools/mutants.py

Each catalogue entry (``tools/mutants.json``) names a file, an exact old text
that must occur there once, its replacement, the tests expected to fail, and
the outcome expected: ``killed``, ``timeout`` (a mutant that makes a run
never end) or ``survived`` (the no-op control).  For each entry the checkout
is copied into a fresh temporary directory and the entry applied there;
``pytest -x -q`` runs the named tests under a timeout and, if they pass,
the whole suite but the check that every entry's old text occurs.  Both
runs load the hypothesis profile ``deterministic-no-shrink``, which the
checkout's ``tests/conftest.py`` registers: a failing property is reported
as soon as it fails, not after it has been shrunk.  An
entry whose old text does not occur exactly once is reported as stale,
never skipped.  The exit code is 0 when every entry's outcome is the
expected one, else 1.  Outside a git checkout (a ``git archive`` export,
say) it prints one line and exits 1 before any entry runs.  Stopped by
``SIGTERM`` or Ctrl-C, it stops the running tests, removes the mutant copy
and exits with 128 plus the signal number.  Uses the standard library only.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Time allowed for an entry's named tests (a timeout is the expected
# outcome of a mutant that makes a run never end), and for the whole suite
# once they pass.
NAMED_TIMEOUT = 60
SUITE_TIMEOUT = 600
# The tests' deterministic examples without the shrink phase, which can take
# most of NAMED_TIMEOUT and turn a kill into a timeout.
PROFILE_OPTION = "--hypothesis-profile=deterministic-no-shrink"
# Checks that every entry's old text occurs in the checkout: a mutant tree
# has replaced its own entry's, so the whole-suite run leaves it out.
LIVENESS_TEST = "tests/test_tools.py::test_every_catalogue_entry_applies"


def copy_tree(dest: str) -> None:
    """Copy the checkout's tracked files, and its untracked files that git does not ignore."""
    listed = subprocess.run(
        ["git", "-C", ROOT, "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        capture_output=True,
        check=True,
    ).stdout
    for name in filter(None, listed.decode().split("\0")):
        source = os.path.join(ROOT, name)
        if os.path.isfile(source):
            os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
            shutil.copy2(source, os.path.join(dest, name))


def pytest(tree: str, targets: list[str], timeout: float) -> str:
    """``passed``, ``failed``, ``timeout`` or ``error``.  Only pytest's exit
    codes 1 (a test failed) and 2 (collection failed: the mutant does not
    import) mean failed, so a misspelt test id (4) or none collected (5)
    cannot pass for a kill.  The run gets its own process group, so a
    timeout also stops any process a test started."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", PROFILE_OPTION, *targets],
        cwd=tree,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        return {0: "passed", 1: "failed", 2: "failed"}.get(proc.wait(timeout=timeout), "error")
    except subprocess.TimeoutExpired:
        return "timeout"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def run_entry(entry: dict) -> str:
    """The outcome of one entry: ``killed``, ``survived``, ``timeout``, ``stale`` or ``error``."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tree:
        copy_tree(tree)
        path = os.path.join(tree, entry["file"])
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        if text.count(entry["old"]) != 1:
            return "stale"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text.replace(entry["old"], entry["new"]))
        named = pytest(tree, entry["tests"], NAMED_TIMEOUT)
        if named == "passed":
            named = pytest(tree, ["--deselect", LIVENESS_TEST], SUITE_TIMEOUT)
        return {"passed": "survived", "failed": "killed"}.get(named, named)


def _stop(signum, frame):
    # Unwinds the stack, so the finally in pytest() kills the running
    # tests' process group and the mutant copy's TemporaryDirectory is removed.
    raise SystemExit(128 + signum)


def main() -> int:
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, _stop)
    if not os.path.exists(os.path.join(ROOT, ".git")):
        # copy_tree asks git which files make up the checkout.
        print(f"mutants: no git repository at the checkout root {ROOT}", file=sys.stderr)
        return 1
    with open(os.path.join(ROOT, "tools", "mutants.json"), encoding="utf-8") as handle:
        entries = json.load(handle)
    unexpected = 0
    start = time.monotonic()
    for entry in entries:
        began = time.monotonic()
        outcome = run_entry(entry)
        expected = outcome == entry["expect"]
        unexpected += not expected
        mark = "ok  " if expected else "FAIL"
        print(
            f"{mark} {outcome:<8} (expected {entry['expect']}) {time.monotonic() - began:6.1f}s  {entry['name']}",
            flush=True,
        )
    print(f"{len(entries) - unexpected}/{len(entries)} as expected in {time.monotonic() - start:.0f}s")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
