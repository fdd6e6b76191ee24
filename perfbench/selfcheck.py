"""Checks of the benchmark's own code.

    python3 perfbench/selfcheck.py

Kept outside ``tests/`` so the package's test suite never collects it.  It
checks that the generators are deterministic per seed, that
``BENCHMARK.json`` is well formed and its metric names match what the code
computes and what ``metric_map.json`` documents, that self time is duration
minus child spans on a hand-built span tree, and that the exact counts
repeat across two traced runs of the same input.  Exits 1 on the first
failed check.
"""

from __future__ import annotations

import json
import re
import shutil
import sys

import numpy as np

import run
import tracer
import workloads

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
EXACT_COUNTS = (
    "bandit.eliminate.calls",
    "bandit.eliminate.pairs",
    "policies.select.history_reads",
    "harness.brute_force_optimal.sequences",
    "hpo.propose.calls",
    "curves.eval.calls",
    "cli.write_trace.bytes",
    "trace.spans",
)


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL {message}")
        raise SystemExit(1)


def check_generators() -> None:
    for name, generate in workloads.CONFIG_GENERATORS.items():
        expect(generate(3) == generate(3), f"{name}: same seed, different config")
        expect(generate(3) != generate(4), f"{name}: different seeds, same config")
    expect(workloads.verify_seeds(3) == workloads.verify_seeds(3), "verify_suites: same seed, different seeds")
    expect(workloads.verify_seeds(3) != workloads.verify_seeds(4), "verify_suites: seeds ignore the seed")
    print("ok generators are deterministic per seed")


def check_spec() -> None:
    text = (run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8")
    spec = json.loads(text)
    expect(len(text.encode()) <= 64 * 1024, "BENCHMARK.json is over 64 KiB")
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
           "BENCHMARK.json top-level keys")
    expect(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60, "run_seconds")
    expect(2 <= len(spec["workloads"]) <= 8, "workload count")
    for workload in spec["workloads"]:
        expect(set(workload) == {"name", "why"}, f"workload keys {sorted(workload)}")
        expect(len(workload["why"]) <= 200 and "\n" not in workload["why"], f"why of {workload['name']}")
    for metric in spec["end_to_end"]:
        expect(set(metric) == {"name", "unit", "better", "bound"}, f"end_to_end keys of {metric['name']}")
        expect(0 < metric["bound"] <= 0.25, f"bound of {metric['name']}")
    for metric in spec["per_layer"]:
        expect(set(metric) == {"name", "unit", "better"}, f"per_layer keys of {metric['name']}")
    setup = next((m for m in spec["end_to_end"] if m["name"] == "setup_s"), None)
    expect(setup is not None and setup["unit"] == "s" and setup["better"] == "lower", "setup_s metric")
    expect(setup["bound"] == max(m["bound"] for m in spec["end_to_end"]), "setup_s has the largest bound")

    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics + spec["workloads"]]
    for name in names:
        expect(NAME.fullmatch(name) is not None, f"bad name {name!r}")
    expect(len(names) == len(set(names)), "a name is used twice")
    for metric in metrics:
        expect(UNIT.fullmatch(metric["unit"]) is not None, f"bad unit {metric['unit']!r}")
        expect(metric["better"] in ("lower", "higher"), f"better of {metric['name']}")
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS), "workloads differ from the generators")

    empty = {key: np.zeros(0, dtype=dtype) for key, dtype in
             (("name", np.int32), ("parent", np.int32), ("start", float), ("end", float), ("a", np.int64), ("b", np.int64))}
    computed = set(tracer.layer_metrics({**empty, "names": np.array([], dtype=str)})) | {"trace.overhead_s"}
    per_layer = {m["name"] for m in spec["per_layer"]}
    expect(per_layer == computed, f"per_layer and tracer differ: {sorted(per_layer ^ computed)}")

    mapped = [name for entry in json.loads((run.HERE / "metric_map.json").read_text(encoding="utf-8"))
              for name in entry["metrics"]]
    expect(sorted(mapped) == sorted(per_layer), f"metric_map.json differs: {sorted(set(mapped) ^ per_layer)}")
    print("ok BENCHMARK.json is well formed and agrees with tracer.py and metric_map.json")


def check_self_time() -> None:
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3].
    spans = {
        "names": np.array(["root", "a", "b", "c"]),
        "name": np.array([0, 1, 2, 3], dtype=np.int32),
        "parent": np.array([-1, 0, 0, 1], dtype=np.int32),
        "start": np.array([0.0, 1.0, 5.0, 2.0]),
        "end": np.array([10.0, 4.0, 9.0, 3.0]),
        "a": np.zeros(4, dtype=np.int64),
        "b": np.zeros(4, dtype=np.int64),
    }
    dur, own = tracer.span_times(spans)
    expect(np.allclose(dur, [10, 3, 4, 1]), f"durations {dur}")
    expect(np.allclose(own, [3, 2, 4, 1]), f"self times {own}")
    expect(tracer.top_self_times(spans, 2) == [["b", 4.0], ["root", 3.0]], "top self times")
    print("ok self time is duration minus child spans")


def check_exact_counts() -> None:
    for workload in workloads.WORKLOADS:
        work = run.ROOT / ".perfbench" / "selfcheck" / workload
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        bench = run.Bench(workload, 5, True, work, run.reference_for(workload, 5))
        first, second = bench.run_once(0, "traced"), bench.run_once(0, "traced")
        expect(first["error"] is None and second["error"] is None, f"{workload}: traced run failed")
        for name in EXACT_COUNTS:
            expect(first["layers"][name] == second["layers"][name],
                   f"{workload}: {name} {first['layers'][name]} != {second['layers'][name]}")
        shutil.rmtree(work)
        print(f"ok exact counts repeat across two traced runs of {workload}")


def main() -> int:
    check_generators()
    check_spec()
    check_self_time()
    check_exact_counts()
    return 0


if __name__ == "__main__":
    sys.exit(main())
