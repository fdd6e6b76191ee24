"""Record the reference outputs that ``run.py`` checks every run against.

    python3 perfbench/make_reference.py

For every workload and every input seed below ``run.REFERENCE_SEEDS`` this
runs the program once, untraced, exactly as ``run.py`` does and stores the
SHA-256 of the generated configuration, ``trace.csv`` and ``report.json``
(or, for ``verify_suites``, every suite's total and failure count and the
pull count of each seed triple) in ``reference.json``, which it rewrites.  Run it on the commit whose outputs
are to be kept byte-identical.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def record(workload: str, seed: int) -> list[dict]:
    work = run.ROOT / ".perfbench" / "reference" / f"{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    entries = []
    for index, input_path in enumerate(run.write_inputs(workload, seed, work)):
        out = work / f"run-{index}"
        out.mkdir()
        _, code, _ = run.run_child(run.workload_argv(workload, input_path, out, None), out / "log.txt")
        if code != 0:
            raise SystemExit(f"{workload} seed {seed} input {index} exited {code}; see {out / 'log.txt'}")
        got = run.outcome(workload, input_path, out)
        error = run.check(workload, got, None)
        if error is not None:
            raise SystemExit(f"{workload} seed {seed} input {index}: {error}")
        keys = ("suites", "pulls") if workload == "verify_suites" else ("config", "trace.csv", "report.json")
        entries.append({key: got[key] for key in keys})
    shutil.rmtree(work)
    return entries


def main() -> int:
    reference: dict = {}
    for workload in workloads.WORKLOADS:
        for seed in range(run.REFERENCE_SEEDS):
            entries = record(workload, seed)
            reference.setdefault(workload, {})[str(seed)] = entries if len(entries) > 1 else entries[0]
            print(f"{workload} seed {seed}: recorded", flush=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
