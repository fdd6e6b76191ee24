"""Programs the benchmark runs in fresh interpreters.

    child.py setup <workload> <input>            import, load, build; no pulls
    child.py run <config> <outdir> --spans F     traced ``rising-bandits run``
    child.py suites <seeds.json> <result.json> [--spans F]

``setup`` imports ``risingbandits``, loads the workload's input and builds
what a run builds before its first pull: for a configuration, its policies
and one arm instance per (policy, replication).  ``suites`` runs the five
``verify`` suites for one seed triple (one concave battery shared by the
safety, theorem1 and corollary1 suites) and writes their totals, failures
and the number of arm pulls the elimination runs made.  With ``--spans`` the
package's public functions are traced and the spans are written to F when
the program ends.  Untraced ``run`` workloads call the package's own CLI
instead of this file.
"""

from __future__ import annotations

import argparse
import json
import sys


def setup(workload: str, path: str) -> None:
    import risingbandits  # noqa: F401  (the import is part of what is timed)

    if workload == "verify_suites":
        from risingbandits import verify  # noqa: F401

        with open(path, encoding="utf-8") as handle:
            json.load(handle)
        return
    from risingbandits.arms import make_instance
    from risingbandits.config import load_experiment
    from risingbandits.harness import derive_seed

    config = load_experiment(path)
    for policy in config.build_policies():
        for replication in range(config.replications):
            make_instance(config.instance, derive_seed(config.base_seed, policy.name, replication))


def suites(seeds_path: str, result_path: str) -> None:
    from risingbandits import verify

    with open(seeds_path, encoding="utf-8") as handle:
        seeds = json.load(handle)
    pulls = 0
    run = verify.rising_bandit_run

    def counted(arms, config):
        nonlocal pulls
        trace = run(arms, config)
        pulls += trace.horizon
        return trace

    verify.rising_bandit_run = counted
    results = [verify.suite_lemma1(seed=seeds["lemma1"])]
    battery = verify.concave_battery(seed=seeds["battery"])
    results += [verify.suite_safety(battery), verify.suite_theorem1(battery), verify.suite_corollary1(battery)]
    results.append(verify.suite_theorem2(seed=seeds["theorem2"]))
    out = {
        "suites": [[r.name, r.total, len(r.failures)] for r in results],
        "failures": [f"{r.name}: {f}" for r in results for f in r.failures][:20],
        "pulls": pulls,
    }
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(out, handle)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run", "suites"))
    parser.add_argument("first")
    parser.add_argument("second")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    if args.mode == "setup":
        setup(args.first, args.second)
        return 0

    recorder = None
    if args.spans:
        import tracer

        recorder = tracer.Recorder()
        tracer.install(recorder)
    try:
        if args.mode == "suites":
            suites(args.first, args.second)
            code = 0
        else:
            from risingbandits import cli

            code = cli.main(["run", args.first, "--output", args.second, "--jobs", "1"])
    finally:
        if recorder is not None:
            recorder.dump(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
