"""Benchmark for the ``risingbandits`` package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  The seed, taken modulo ``REFERENCE_SEEDS``, is turned
into the workload's inputs (``workloads.py``), and the program runs in
fresh processes, one after the other, until ``--seconds`` have passed:

* ``--trace 0``: each iteration times one set-up run (import, load the
  input, build policies and arm instances), a start-up probe, a compute
  probe (``probe.py``, in this process, before and after the run) and one
  whole workload run (``python -m risingbandits.cli run <config> --jobs 1``,
  or the five ``verify`` suites).  The end-to-end metrics are medians over
  iterations, with each iteration's times scaled by its probes
  (``Bench.values``).
* ``--trace 1``: each iteration makes one untraced and one traced run of the
  same input; the per-layer metrics are medians over the traced runs
  (``tracer.py``) and ``trace.overhead_s`` is the median traced-minus-
  untraced wall time.

Every run's outputs are checked: exit code, the SHA-256 of ``trace.csv`` and
``report.json`` (or the suite totals) against ``reference.json``, which
holds every input seed, plus the pull count or spend the configuration
implies.  A failed run is counted in ``failed`` and never timed.  The last
line of standard output is the result object; the line before it, and
``.perfbench/<run>/result.json``, hold the seed, the environment, the
unscaled medians and every iteration.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import workloads
from probe import probe

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
CHILD = HERE / "child.py"
# Host-speed probes (see ``Bench.values``): the compute probe is two calls
# of ``probe.probe``, the start-up probe a fresh interpreter importing
# numpy.  The nominal times are about theirs on a 2-CPU Xeon VM.
PROBE_NOMINAL_S = 0.25
STARTUP_NOMINAL_S = 0.15
REFERENCE = HERE / "reference.json"
# reference.json holds input seeds 0 .. REFERENCE_SEEDS - 1; any --seed maps
# onto one of them, so every run is checked against the recorded outputs.
REFERENCE_SEEDS = 64

MIN_ITERATIONS = 2
CHILD_TIMEOUT_S = 150.0

NOTES = [
    "times are wall-clock (time.perf_counter) around whole child processes",
    "end-to-end times are scaled by nominal over measured probe times per iteration "
    "(set-up by the start-up probe, the rest by the compute probe); 'measured' holds them unscaled",
    "no hardware counters are read and the page cache is not dropped between runs: "
    "the benchmark needs no privileges",
    "per-layer times include the span wrappers; trace.overhead_s is their total cost",
]


def run_child(argv: list[str], log: Path) -> tuple[float, int, float]:
    """Run one fresh process; return (wall seconds, exit code, peak RSS in MB)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(log, "w", encoding="utf-8") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def config_settings(text: str) -> dict[str, str]:
    """Global ``key = value`` lines of a generated configuration."""
    settings = {}
    for line in text.split("[arm]", 1)[0].splitlines():
        key, sep, value = line.partition("=")
        if sep:
            settings[key.strip()] = value.strip()
    return settings


def write_inputs(workload: str, seed: int, work: Path) -> list[Path]:
    """Generate the workload's input files; the program only sees these."""
    if workload == "verify_suites":
        paths = []
        for j, seeds in enumerate(workloads.verify_seeds(seed)):
            path = work / f"suites-{j}.json"
            path.write_text(json.dumps(seeds) + "\n", encoding="utf-8")
            paths.append(path)
        return paths
    path = work / f"{workload}.cfg"
    path.write_text(workloads.CONFIG_GENERATORS[workload](seed), encoding="utf-8")
    return [path]


def workload_argv(workload: str, input_path: Path, out: Path, spans: Path | None) -> list[str]:
    if workload == "verify_suites":
        argv = [sys.executable, str(CHILD), "suites", str(input_path), str(out / "suites.json")]
    elif spans is None:
        argv = [sys.executable, "-m", "risingbandits.cli", "run", str(input_path),
                "--output", str(out), "--jobs", "1"]
    else:
        argv = [sys.executable, str(CHILD), "run", str(input_path), str(out)]
    return argv + (["--spans", str(spans)] if spans is not None else [])


def outcome(workload: str, input_path: Path, out: Path) -> dict:
    """What a finished run produced: digests or suite totals, and work done."""
    if workload == "verify_suites":
        result = json.loads((out / "suites.json").read_text(encoding="utf-8"))
        return {"suites": result["suites"], "pulls": result["pulls"],
                "instances": workloads.VERIFY_INSTANCES, "failures": result["failures"]}
    settings = config_settings(input_path.read_text(encoding="utf-8"))
    policies = [p.strip() for p in settings["policies"].split(",")]
    with open(out / "trace.csv", encoding="utf-8", newline="") as handle:
        pulls = sum(1 for _ in handle) - 1
    spent: dict[tuple[str, str], float] = {}
    if "horizon_budget" in settings:
        with open(out / "trace.csv", encoding="utf-8", newline="") as handle:
            for row in csv.DictReader(handle):
                key = (row["policy"], row["replication"])
                spent[key] = spent.get(key, 0.0) + float(row["cost"])
    return {
        "config": sha256(input_path),
        "trace.csv": sha256(out / "trace.csv"),
        "report.json": sha256(out / "report.json"),
        "pulls": pulls,
        "instances": len(policies) * int(settings["replications"]),
        "settings": settings,
        "spent": spent,
    }


def check(workload: str, got: dict, expected: dict | None) -> str | None:
    """Return why a run is wrong, or None when it is correct.

    ``expected`` is the run's entry in ``reference.json``; it is None only
    while ``make_reference.py`` records that entry.
    """
    if workload == "verify_suites":
        if got["failures"] or any(failed for _, _, failed in got["suites"]):
            return f"suite failures: {got['failures'][:3]}"
        totals = {name: total for name, total, _ in got["suites"]}
        shipped = {"lemma1": workloads.LEMMA1_COUNT, "safety": workloads.CONCAVE_BATTERY_COUNT,
                   "theorem1": workloads.CONCAVE_BATTERY_COUNT, "theorem2": workloads.THEOREM2_COUNT}
        if any(totals.get(name) != count for name, count in shipped.items()):
            return f"suite totals {totals} differ from the shipped counts"
        if expected is not None and (got["suites"], got["pulls"]) != (expected["suites"], expected["pulls"]):
            return f"suite totals {got['suites']} / pulls {got['pulls']} differ from the reference"
        return None
    settings = got["settings"]
    if got["pulls"] <= 0:
        return "trace has no pulls"
    if "horizon_trials" in settings:
        want = int(settings["horizon_trials"]) * got["instances"]
        if got["pulls"] != want:
            return f"trace has {got['pulls']} pulls, expected {want}"
    elif max(got["spent"].values()) > float(settings["horizon_budget"]):
        return f"a run spent {max(got['spent'].values())}, over the budget {settings['horizon_budget']}"
    if expected is not None:
        for key in ("config", "trace.csv", "report.json"):
            if got[key] != expected[key]:
                return f"{key} digest {got[key][:12]} differs from the reference {expected[key][:12]}"
    return None


def reference_for(workload: str, seed: int) -> list[dict] | None:
    """The recorded outputs of each input of ``seed``, or None if none are stored."""
    if not REFERENCE.is_file():
        return None
    stored = json.loads(REFERENCE.read_text(encoding="utf-8")).get(workload, {}).get(str(seed))
    if stored is None:
        return None
    return stored if isinstance(stored, list) else [stored]


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


class Bench:
    def __init__(self, workload: str, seed: int, trace: bool, work: Path, reference: list[dict]) -> None:
        self.workload = workload
        self.trace = trace
        self.work = work
        self.inputs = write_inputs(workload, seed, work)
        self.reference = reference
        self.iterations: list[dict] = []
        self.attempted = 0
        self.failed = 0

    def run_once(self, index: int, kind: str) -> dict:
        """One program run of input ``index``; ``kind`` is setup, run or traced."""
        workload, input_path = self.workload, self.inputs[index]
        out = self.work / f"{kind}-{index}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        if kind == "setup":
            argv = [sys.executable, str(CHILD), "setup", workload, str(input_path)]
        elif kind == "startup":
            argv = [sys.executable, "-c", "import numpy"]
        else:
            spans = out / "spans.npz" if kind == "traced" else None
            argv = workload_argv(workload, input_path, out, spans)
        wall, code, rss = run_child(argv, out / "log.txt")
        record = {"kind": kind, "input": index, "wall_s": wall, "rss_mb": rss, "exit": code}
        if kind in ("setup", "startup"):
            record["error"] = None if code == 0 else f"{kind} exited {code}"
            return record
        self.attempted += 1
        error = None if code == 0 else f"exited {code}"
        if error is None:
            try:
                got = outcome(workload, input_path, out)
                error = check(workload, got, self.reference[index])
            except (OSError, ValueError, KeyError) as exc:
                error = f"unreadable output: {exc!r}"
            else:
                if error is None:
                    record.update(pulls=got["pulls"], instances=got["instances"])
        if error is None and kind == "traced":
            # Imported only here: a child's peak RSS includes the parent's
            # at the moment it was spawned, so untraced runs keep numpy and
            # the span arrays out of this process.
            import tracer

            spans = tracer.load_spans(str(out / "spans.npz"))
            record["layers"] = tracer.layer_metrics(spans)
            record["top_self_s"] = tracer.top_self_times(spans)
        if error is not None:
            self.failed += 1
            log = (out / "log.txt").read_text(encoding="utf-8", errors="replace")[-2000:]
            print(f"run failed ({workload}, input {index}, {kind}): {error}\n{log}", file=sys.stderr)
        record["error"] = error
        return record

    def iterate(self, index: int) -> dict:
        if self.trace:
            plain, traced = self.run_once(index, "run"), self.run_once(index, "traced")
            return {"run": plain, "traced": traced}
        setup, startup = self.run_once(index, "setup"), self.run_once(index, "startup")
        before = probe()
        run = self.run_once(index, "run")
        compute = {"wall_s": before + probe(), "error": None}
        return {"setup": setup, "startup": startup, "probe": compute, "run": run}

    def measure(self, seconds: float) -> None:
        """Iterate over the inputs in turn until another iteration would overrun."""
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            self.iterations.append(self.iterate(len(self.iterations) % len(self.inputs)))
            took = time.perf_counter() - began
            if len(self.iterations) >= MIN_ITERATIONS and time.perf_counter() - start + took > seconds:
                break

    def values(self, scaled: bool) -> dict[str, float]:
        """Medians over the iterations whose runs were all correct.

        With ``scaled``, each iteration's times are first multiplied by a
        nominal probe time over that iteration's: the run's by the compute
        probe, timed right before and after it, and the set-up's by the
        start-up probe, which like it mostly starts an interpreter and
        imports modules.  A shared host's speed swings by tens of percent
        within seconds and drifts over minutes; the probes swing with it,
        and they use no part of the package, so the scaled times keep
        little of the host's drift and all of the program's.
        """
        good = [it for it in self.iterations if all(r["error"] is None for r in it.values())]
        if not good:
            return {}
        if self.trace:
            values = {name: statistics.median(it["traced"]["layers"][name] for it in good)
                      for name in good[0]["traced"]["layers"]}
            values["trace.overhead_s"] = statistics.median(
                it["traced"]["wall_s"] - it["run"]["wall_s"] for it in good)
            return values
        compute = [PROBE_NOMINAL_S / it["probe"]["wall_s"] if scaled else 1.0 for it in good]
        startup = [STARTUP_NOMINAL_S / it["startup"]["wall_s"] if scaled else 1.0 for it in good]
        setup = [it["setup"]["wall_s"] * f for it, f in zip(good, startup)]
        wall = [it["run"]["wall_s"] * f for it, f in zip(good, compute)]
        busy = [(it["run"]["wall_s"] - it["setup"]["wall_s"]) * f for it, f in zip(good, compute)]
        return {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(wall),
            "pulls_per_s": statistics.median(it["run"]["pulls"] / b for it, b in zip(good, busy)),
            "instances_per_s": statistics.median(it["run"]["instances"] / b for it, b in zip(good, busy)),
            "peak_rss_mb": statistics.median(it["run"]["rss_mb"] for it in good),
            "probe_s": statistics.median(it["probe"]["wall_s"] for it in good),
            "startup_s": statistics.median(it["startup"]["wall_s"] for it in good),
        }


def load_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit for the section of BENCHMARK.json this run reports."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "risingbandits" / "__init__.py").is_file():
        print(f"error: no risingbandits sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    input_seed = args.seed % REFERENCE_SEEDS
    reference = reference_for(args.workload, input_seed)
    if reference is None:
        print(f"error: {REFERENCE} has no {args.workload} entry for input seed {input_seed}",
              file=sys.stderr)
        return 2
    units = load_units(bool(args.trace))

    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(args.workload, input_seed, bool(args.trace), work, reference)
    # Compile the package's bytecode once, so no timed run pays for it.
    _, code, _ = run_child([sys.executable, "-c", "import risingbandits.cli, risingbandits.verify"],
                           work / "warmup.txt")
    if code != 0:
        print(f"error: importing risingbandits failed, see {work / 'warmup.txt'}", file=sys.stderr)
        return 2
    bench.measure(args.seconds)
    values = bench.values(scaled=not args.trace)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()} if values else {}

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "input_seed": input_seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(),
        "notes": NOTES,
        "measured": bench.values(scaled=False),
        # A child's peak RSS includes this process's at spawn time; this
        # shows that it stayed below the children's own.
        "parent_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "iterations": bench.iterations,
    }
    (work / "result.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    summary = {k: v for k, v in detail.items() if k != "iterations"}
    if args.trace:
        # Summed over the traced runs, since one run covers only one input.
        top: dict[str, float] = {}
        for it in bench.iterations:
            for name, seconds in it["traced"].get("top_self_s") or []:
                top[name] = top.get(name, 0.0) + seconds
        summary["top_self_s"] = sorted(top.items(), key=lambda item: -item[1])[:5]
    print(json.dumps(summary))
    print(json.dumps({
        "correct": bench.failed == 0 and bool(metrics),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
