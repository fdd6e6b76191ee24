"""Command-line front end.

``run`` executes a configured experiment and writes three artifacts into the
output directory: a per-pull trace CSV, a summary report JSON, and a run
manifest (seeds, config echo, timestamp).  ``verify`` executes one of the
named invariant suites.  Outputs are byte-for-byte reproducible for a fixed
base seed, except for the manifest's timestamp field.

Exit codes: 0 success, 1 configuration, usage or file error, 2 invariant
violation, 130 stopped by ``SIGINT`` (Ctrl-C), 143 stopped by ``SIGTERM``.
``main`` turns each signal into ``SystemExit(128 + signal)``, so a stopped
run prints no traceback, removes its staged files and leaves the previous
artifacts as they were; the caller's handlers are restored on return.  An
invariant violation (``harness.InvariantViolation``: a policy above the
oracle in ``build_report``, or a broken suite fixture) exits 2 with one
line, from ``run`` and ``verify`` alike, before any artifact moves.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import signal
import sys
import threading
import time
from collections.abc import Callable
from functools import partial
from typing import TextIO

from . import __version__
from .arms import ConfigurationError
from .bandit import PolicyTrace, StepSink
from .config import ExperimentConfig, parse_experiment
from .harness import InvariantViolation, build_report, simulate
from .policies import make_policy

TRACE_COLUMNS = (
    "step",
    "policy",
    "replication",
    "arm",
    "reward",
    "cost",
    "candidate_set_size",
    "best_so_far",
)

ARTIFACTS = ("trace.csv", "report.json", "manifest.json")


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _run_one(
    config: ExperimentConfig, policy_name: str, replication: int, sink: StepSink | None = None
) -> PolicyTrace:
    return simulate(make_policy(policy_name), config.instance, config.bandit, config.base_seed, replication, sink)


def _rows(write: Callable[[str], object], policy_name: str, replication: int) -> StepSink:
    """The sink that passes each pull of one run to ``write`` as a ``trace.csv`` row.

    Each row is one template, with the ``\r\n`` terminator ``csv.writer``
    uses.  No field ever needs CSV quoting: each is an int, a ``.17g`` float
    text or a name from ``POLICY_NAMES``, all free of commas, quotes and line
    breaks.  An arm's cost is formatted again only when it differs from that
    arm's previous cost in the run: a memo per arm stays small, where one
    keyed by value would keep a text for every pull of an hpo arm, whose cost
    is drawn afresh each pull.  The best-so-far is formatted only when it
    rises: ``reward > best`` holds exactly when ``max(best, reward)`` would
    return ``reward``.
    """
    prefix = f"{policy_name},{replication},"
    best, best_text = 0.0, _fmt(0.0)
    cost_memo: dict[int, tuple[float, str]] = {}

    def row(t: int, arm: int, reward: float, cost: float, candidate_set_size: int) -> None:
        nonlocal best, best_text
        reward_text = f"{reward:.17g}"
        if reward > best:
            best, best_text = reward, reward_text
        memo = cost_memo.get(arm)
        if memo is None or memo[0] != cost:
            memo = cost_memo[arm] = (cost, _fmt(cost))
        write(f"{t},{prefix}{arm},{reward_text},{memo[1]},{candidate_set_size},{best_text}\r\n")

    return row


def _run_rows(config: ExperimentConfig, policy_name: str, replication: int) -> tuple[float, bytes]:
    """One run in a worker process: its final J and its trace rows, encoded
    into one block for the parent to write.  The block holds the rows' own
    bytes, where a list of row strings adds an object to each row.  It is
    ``bytes``, which the pool pickles without a copy, where a ``bytearray``
    is first copied into one."""
    rows = io.BytesIO()
    sink = _rows(lambda row: rows.write(row.encode()), policy_name, replication)
    return _run_one(config, policy_name, replication, sink).final_j, rows.getvalue()


def _write_trace(path: str, runs: Callable[[TextIO], None]) -> None:
    """Write ``trace.csv`` at ``path``: its header, then what ``runs(handle)``
    writes to the open file as it makes the runs, in task order."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(TRACE_COLUMNS) + "\r\n")
        runs(handle)


def _run_tasks(
    config: ExperimentConfig,
    tasks: list[tuple[str, int]],
    workers: int,
    results: dict[str, list[float]],
    handle: TextIO,
) -> None:
    """Make each task's run, writing its trace rows to ``handle`` in task
    order and recording its final J into ``results``.  A serial run writes
    each row as its pull is made, so it builds no step record; a worker
    returns its run's rows, which are written here."""
    if workers > 1:
        # Imported here only: a serial run never needs it, and it costs milliseconds and loads logging.
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker
        ) as pool:
            outcomes = pool.map(_run_rows, [config] * len(tasks), *zip(*tasks))
            try:
                for policy_name, _ in tasks:
                    final_j, rows = next(outcomes)
                    results.setdefault(policy_name, []).append(final_j)
                    handle.write(rows.decode())
            except BaseException:
                # An error or a stop signal: start no more runs.  Leaving the
                # block waits only for the runs already in progress.
                pool.shutdown(wait=False, cancel_futures=True)
                raise
    else:
        for policy_name, replication in tasks:
            sink = _rows(handle.write, policy_name, replication)
            final_j = _run_one(config, policy_name, replication, sink).final_j
            results.setdefault(policy_name, []).append(final_j)


def worker_count(jobs: int, tasks: int) -> int:
    """Worker processes for ``tasks`` runs: ``jobs``, capped by tasks and by
    the CPUs this process may run on.  Those are its affinity set where the
    platform has one (``taskset``, a cpuset), else every CPU, else one."""
    if jobs < 1:
        raise ConfigurationError(f"--jobs must be >= 1, got {jobs}")
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(jobs, tasks, cpus)


def run_experiment(config_path: str, output_dir: str, jobs: int = 1, seed: int | None = None) -> int:
    # utf-8-sig: the manifest echoes the text without a byte-order mark.
    with open(config_path, "r", encoding="utf-8-sig") as handle:
        config_text = handle.read()
    config = parse_experiment(config_text)
    if seed is not None:
        config.base_seed = seed
    if config.base_seed < 0:
        raise ConfigurationError(f"base seed must be >= 0, got {config.base_seed}")

    tasks = [
        (policy_name, replication)
        for policy_name in config.policy_names
        for replication in range(config.replications)
    ]
    workers = worker_count(jobs, len(tasks))

    # Each artifact goes to a temporary file, and all three move into place
    # only once all are written: a failed run cannot leave a new trace.csv
    # next to an old report.json.  Rows go into the staged trace as the pulls
    # are made, so a run that fails mid-experiment is cleaned up here too, as
    # is each directory it made (``made``, deepest first) and left empty.
    # The path is walked as given, not folded: ``os.makedirs`` makes
    # ``missing`` for ``missing/../out``.
    made, path = [], output_dir
    while path and not os.path.exists(path):
        if os.path.basename(path) not in ("", os.curdir, os.pardir):
            made.append(path)
        path = os.path.dirname(path)
    staged = {name: os.path.join(output_dir, f".{name}.{os.getpid()}.tmp") for name in ARTIFACTS}
    results: dict[str, list[float]] = {}
    try:
        os.makedirs(output_dir, exist_ok=True)
        _write_trace(staged["trace.csv"], partial(_run_tasks, config, tasks, workers, results))
        report = build_report(config.instance, config.bandit, results)
        for note in report.interpretation_notes:
            print(f"note: {note}")
        manifest = {
            "version": __version__,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "base_seed": config.base_seed,
            "seed_scheme": "SeedSequence(base_seed, spawn_key=(crc32(policy), replication, arm))",
            "policies": config.policy_names,
            "replications": config.replications,
            "config_echo": config_text,
        }
        for name, obj in (("report.json", report.to_dict()), ("manifest.json", manifest)):
            with open(staged[name], "w", encoding="utf-8") as handle:
                json.dump(obj, handle, indent=2, sort_keys=True)
                handle.write("\n")
        for name, path in staged.items():
            os.replace(path, os.path.join(output_dir, name))
    finally:
        for path in staged.values():
            if os.path.exists(path):
                os.remove(path)
        with contextlib.suppress(OSError):  # Not empty: the artifacts are in place.
            for path in made:
                os.rmdir(path)

    print(f"wrote trace.csv, report.json, manifest.json to {output_dir}")
    return 0


def run_verify(suite_name: str) -> int:
    # Imported here only: a run never needs the suites.
    from .verify import SUITES

    if suite_name not in SUITES:
        choices = ", ".join(map(repr, sorted(SUITES)))
        raise _UsageError(
            f"rising-bandits verify: argument suite: invalid choice: {suite_name!r} (choose from {choices})"
        )
    result = SUITES[suite_name]()
    for failure in result.failures:
        print(f"FAIL {result.name}: {failure}")
    print(f"{result.name}: {result.passed}/{result.total} checks passed")
    return 0 if result.ok else 2


class _UsageError(Exception):
    """A bad command line; ``main`` reports it with exit 1, not argparse's 2."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):
        raise _UsageError(f"{self.prog}: {message}")


# Each ends main with SystemExit(128 + signal): 130 for Ctrl-C, 143 for kill.
_STOP_SIGNALS = (signal.SIGINT, signal.SIGTERM)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def _init_worker() -> None:
    """Make a worker process ignore Ctrl-C and ``SIGTERM``, and end once its
    parent is gone.  A terminal sends Ctrl-C to every process in its group,
    but only ``main`` acts on it: it starts no more runs and waits for those
    in progress.  A worker stopped while sending a run's rows would leave
    part of a message in the pipe the pool reads from.  A parent that dies
    without cleaning up (``SIGKILL``) cannot stop its workers, so a daemon
    thread in each ends it once its parent changes."""
    for signum in _STOP_SIGNALS:
        signal.signal(signum, signal.SIG_IGN)
    parent = os.getppid()

    def exit_when_orphaned() -> None:
        while os.getppid() == parent:
            time.sleep(0.25)
        os._exit(1)

    threading.Thread(target=exit_when_orphaned, daemon=True).start()


def main(argv: list[str] | None = None) -> int:
    parser = _ArgumentParser(
        prog="rising-bandits",
        description="Elimination-based selection for rising reward processes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run a configured experiment")
    run_parser.add_argument("config", help="experiment configuration file")
    run_parser.add_argument("--output", default="results", help="output directory")
    run_parser.add_argument("--jobs", type=int, default=1, help="parallel runs, one per (policy, replication)")
    run_parser.add_argument("--seed", type=int, default=None, help="override the base seed")

    verify_parser = sub.add_parser("verify", help="run a named invariant suite")
    # No argparse choices: run_verify checks the name, so that a run need not import verify.
    verify_parser.add_argument("suite", help="the suite to run; an unknown name lists them")

    # Every run and suite needs it, and numpy imports it on first use, where C
    # code can lose the exception the handler raises: import it first.
    import numpy.random  # noqa: F401

    # Only the main thread may set a handler, and it is the one Python runs handlers in.
    in_main_thread = threading.current_thread() is threading.main_thread()
    previous = {}
    if in_main_thread:
        for signum in _STOP_SIGNALS:
            previous[signum] = signal.signal(signum, _terminate)
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return run_experiment(args.config, args.output, jobs=args.jobs, seed=args.seed)
        return run_verify(args.suite)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError, _UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


if __name__ == "__main__":
    sys.exit(main())
