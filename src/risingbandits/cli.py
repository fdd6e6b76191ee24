"""Command-line front end.

``run`` executes a configured experiment and writes three artifacts into the
output directory: a per-pull trace CSV, a summary report JSON, and a run
manifest (seeds, config echo, timestamp).  ``verify`` executes one of the
named invariant suites.  Outputs are byte-for-byte reproducible for a fixed
base seed, except for the manifest's timestamp field.

Exit codes: 0 success, 1 configuration, usage or file error, 2 invariant
violation, 143 stopped by ``SIGTERM``.  ``main`` turns ``SIGTERM`` into
``SystemExit(143)``, so a stopped run removes its staged files and leaves the
previous artifacts as they were; the caller's handler is restored on return.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
import time
from collections.abc import Callable
from functools import partial

from . import __version__
from .arms import ConfigurationError
from .bandit import PolicyTrace, StepRecord, StepSink
from .config import ExperimentConfig, parse_experiment
from .harness import PolicyResult, build_report, simulate
from .verify import SUITES, FixtureError

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
    policy = config.build_policy(policy_name)
    return simulate(policy, config.instance, config.bandit, config.base_seed, replication, sink)


def _run_listed(
    config: ExperimentConfig, policy_name: str, replication: int
) -> tuple[float, list[StepRecord]]:
    """One run in a worker process: its final J and its steps, for the parent to write."""
    steps: list[StepRecord] = []
    return _run_one(config, policy_name, replication, steps.append).final_j, steps


RowSinks = Callable[[str, int], StepSink]


def _write_trace(path: str, runs: Callable[[RowSinks], None]) -> None:
    """Write ``trace.csv`` at ``path`` while ``runs(rows)`` makes the runs.

    ``runs`` calls ``rows(policy_name, replication)`` as each run starts, in
    task order, and passes the run's steps to the sink it returns.  Each row
    is written as its step arrives, so no step record outlives its pull.

    Each row is one template, with the ``\r\n`` terminator ``csv.writer``
    uses.  No field ever needs CSV quoting: each is an int, a ``.17g`` float
    text or a name from ``POLICY_NAMES``, all free of commas, quotes and line
    breaks.  An arm's cost is formatted again only when it differs from that
    arm's previous cost: a memo per arm stays small, where one keyed by value
    would keep a text for every pull of an hpo arm, whose cost is drawn
    afresh each pull.  The best-so-far is formatted only when it rises:
    ``reward > best`` holds exactly when ``max(best, reward)`` would return
    ``reward``.
    """
    cost_memo: dict[int, tuple[float, str]] = {}
    with open(path, "w", encoding="utf-8", newline="") as handle:
        write = handle.write
        write(",".join(TRACE_COLUMNS) + "\r\n")

        def rows(policy_name: str, replication: int) -> StepSink:
            prefix = f"{policy_name},{replication},"
            best, best_text = 0.0, _fmt(0.0)

            def row(step: StepRecord) -> None:
                nonlocal best, best_text
                t, arm, reward, cost, candidate_set_size = step
                reward_text = f"{reward:.17g}"
                if reward > best:
                    best, best_text = reward, reward_text
                memo = cost_memo.get(arm)
                if memo is None or memo[0] != cost:
                    memo = cost_memo[arm] = (cost, _fmt(cost))
                write(f"{t},{prefix}{arm},{reward_text},{memo[1]},{candidate_set_size},{best_text}\r\n")

            return row

        runs(rows)


def _run_tasks(
    config: ExperimentConfig,
    tasks: list[tuple[str, int]],
    workers: int,
    results: dict[str, PolicyResult],
    rows: RowSinks,
) -> None:
    """Make each task's run, in task order, passing its steps to ``rows(policy, replication)``
    and recording its final J into ``results``.  A serial run passes each step
    on as it is made; a worker's run returns its steps, which are passed on here."""
    if workers > 1:
        # Imported here only: a serial run never needs it, and it costs milliseconds and loads logging.
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = pool.map(_run_listed, [config] * len(tasks), *zip(*tasks))
            for policy_name, replication in tasks:
                final_j, steps = next(outcomes)
                results.setdefault(policy_name, PolicyResult()).j_values.append(final_j)
                sink = rows(policy_name, replication)
                for step in steps:
                    sink(step)
    else:
        for policy_name, replication in tasks:
            final_j = _run_one(config, policy_name, replication, rows(policy_name, replication)).final_j
            results.setdefault(policy_name, PolicyResult()).j_values.append(final_j)


def worker_count(jobs: int, tasks: int) -> int:
    """Worker processes for ``tasks`` runs: ``jobs``, capped by tasks and CPUs."""
    if jobs < 1:
        raise ConfigurationError(f"--jobs must be >= 1, got {jobs}")
    return min(jobs, tasks, os.cpu_count() or 1)


def run_experiment(config_path: str, output_dir: str, jobs: int = 1, seed: int | None = None) -> int:
    with open(config_path, "r", encoding="utf-8") as handle:
        config_text = handle.read()
    config = parse_experiment(config_text)
    if seed is None and "RB_SEED" in os.environ:
        raw = os.environ["RB_SEED"]
        try:
            seed = int(raw)
        except ValueError:
            raise ConfigurationError(f"RB_SEED must be an integer, got {raw!r}") from None
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
    os.makedirs(output_dir, exist_ok=True)

    # Each artifact goes to a temporary file, and all three move into place
    # only once all are written: a failed run cannot leave a new trace.csv
    # next to an old report.json.  Rows go into the staged trace as the pulls
    # are made, so a run that fails mid-experiment is cleaned up here too.
    staged = {name: os.path.join(output_dir, f".{name}.{os.getpid()}.tmp") for name in ARTIFACTS}
    results: dict[str, PolicyResult] = {}
    try:
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

    # Sanity gate: no policy may beat the analytic oracle beyond tolerance.
    if report.j_oracle is not None:
        for name, res in report.policies.items():
            if res.j_mean > report.j_oracle + config.bandit.epsilon:
                print(
                    f"invariant violation: policy {name!r} mean value {res.j_mean} "
                    f"exceeds the oracle {report.j_oracle}",
                    file=sys.stderr,
                )
                return 2
    print(f"wrote trace.csv, report.json, manifest.json to {output_dir}")
    return 0


def run_verify(suite_name: str) -> int:
    try:
        result = SUITES[suite_name]()
    except FixtureError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    for failure in result.failures:
        print(f"FAIL {result.name}: {failure}")
    print(f"{result.name}: {result.passed}/{result.total} checks passed")
    return 0 if result.ok else 2


class _UsageError(Exception):
    """A bad command line; ``main`` reports it with exit 1, not argparse's 2."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):
        raise _UsageError(f"{self.prog}: {message}")


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = _ArgumentParser(
        prog="rising-bandits",
        description="Elimination-based selection for rising reward processes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run a configured experiment")
    run_parser.add_argument("config", help="experiment configuration file")
    run_parser.add_argument("--output", default="results", help="output directory")
    run_parser.add_argument("--jobs", type=int, default=1, help="parallel replications")
    run_parser.add_argument("--seed", type=int, default=None, help="override the base seed")

    verify_parser = sub.add_parser("verify", help="run a named invariant suite")
    verify_parser.add_argument("suite", choices=sorted(SUITES))

    # Every run and suite needs it, and numpy imports it on first use, where C
    # code can lose the exception the handler raises: import it first.
    import numpy.random  # noqa: F401

    # Only the main thread may set a handler, and it is the one Python runs handlers in.
    in_main_thread = threading.current_thread() is threading.main_thread()
    if in_main_thread:
        previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return run_experiment(args.config, args.output, jobs=args.jobs, seed=args.seed)
        return run_verify(args.suite)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError, _UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if in_main_thread:
            signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
