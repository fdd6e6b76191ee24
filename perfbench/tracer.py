"""Span tracing around the public functions of ``risingbandits``.

``install`` replaces, in every package module that binds them, the public
functions and the hot public methods with wrappers that record one span per
call: name, start, end, parent span and two integer attributes (``a``,
``b``) that carry exact work counts such as the candidate-set size of an
elimination sweep.  Spans live in compact arrays in memory and are written
once, at the end, by ``Recorder.dump``.  Nothing under ``src/`` changes.

``layer_metrics`` turns a span file into the per-layer metrics named in
``BENCHMARK.json``.  A span's self time is its duration minus the durations
of its direct children.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
from array import array
from time import perf_counter

import numpy as np

MODULES = ("curves", "arms", "hpo", "bandit", "policies", "harness", "verify", "config", "cli")

POLICY_SELECTS = ("average", "ucb", "softmax", "thompson")
ARM_KINDS = {"CurveArm": "curve", "NoisyCurveArm": "noisy", "HpoArm": "hpo"}


class Recorder:
    """In-memory span store; one per traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.a = array("q")
        self.b = array("q")
        self._stack = [-1]

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int, start: float, a: int = 0) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.a.append(a)
        self.b.append(0)
        self.start.append(start)
        self.end.append(0.0)
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    def dump(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            a=np.frombuffer(self.a, dtype=np.int64),
            b=np.frombuffer(self.b, dtype=np.int64),
        )


def _traced(rec: Recorder, fn, name, arg=None, result=None):
    """Wrap ``fn``; ``name`` is a string or a callable of the first argument."""
    fixed = None if callable(name) else rec.intern(name)

    def traced(*args, **kwargs):
        # The clock starts before the span's bookkeeping, so that cost is
        # charged to this span and not to its parent's self time.
        start = perf_counter()
        name_id = fixed if fixed is not None else rec.intern(name(args[0]))
        index = rec.open(name_id, start, arg(*args, **kwargs) if arg else 0)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            rec.close(index)
            raise
        rec.close(index)
        if result:
            rec.b[index] = result(out, *args, **kwargs)
        return out

    traced.__wrapped__ = fn
    return traced


def _history_reads(self, states, t):
    return sum(len(st.history) for st in states)


class _TracedJson:
    """Stands in for ``json`` inside ``cli`` so the artifact writers get spans."""

    def __init__(self, rec: Recorder) -> None:
        self._dump = _traced(
            rec,
            json.dump,
            lambda obj: "cli.write_report" if "interpretation_notes" in obj else "cli.write_manifest",
        )

    def dump(self, *args, **kwargs):
        return self._dump(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(json, attr)


def install(rec: Recorder) -> None:
    """Wrap the package's public functions and hot methods with spans."""
    mods = {short: importlib.import_module(f"risingbandits.{short}") for short in MODULES}
    namespaces = [vars(m) for m in mods.values()] + [vars(sys.modules["risingbandits"])]

    special = {
        ("bandit", "eliminate"): dict(
            arg=lambda candidates, *_, **__: len(candidates),
            result=lambda out, *_, **__: len(out),
        ),
        ("hpo", "propose"): dict(arg=lambda state, *_, **__: len(state.points)),
        ("harness", "brute_force_optimal"): dict(arg=lambda curves, horizon: len(curves) ** horizon),
    }
    replaced = {}
    for short, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            replaced[id(obj)] = _traced(rec, obj, f"{short}.{attr}", **special.get((short, attr), {}))
    write_trace = mods["cli"]._write_trace
    replaced[id(write_trace)] = _traced(
        rec, write_trace, "cli.write_trace", result=lambda out, path, runs: os.path.getsize(path)
    )
    # Modules bind each other's functions by name, so rebind every copy.
    for ns in namespaces:
        for attr, obj in list(ns.items()):
            if id(obj) in replaced:
                ns[attr] = replaced[id(obj)]
    mods["cli"].json = _TracedJson(rec)

    curves = mods["curves"]
    for cls in (curves.ExponentialCurve, curves.PowerCurve, curves.TabulatedCurve, curves.StaircaseCurve):
        cls.eval = _traced(rec, cls.eval, "curves.eval")
    arms = mods["arms"]
    arms.ArmProcess.pull = _traced(
        rec, arms.ArmProcess.pull, lambda self: f"arms.{ARM_KINDS[type(self).__name__]}.pull"
    )
    hpo = mods["hpo"]
    hpo.ToyObjective.loss = _traced(rec, hpo.ToyObjective.loss, "hpo.loss")
    policies = mods["policies"]
    for cls in (policies.AveragePolicy, policies.UCBPolicy, policies.SoftmaxPolicy, policies.ThompsonPolicy):
        cls.select = _traced(
            rec, cls.select, f"policies.{cls.name}.select",
            arg=lambda self, states, t: t, result=lambda out, *args: _history_reads(*args),
        )


def load_spans(path: str) -> dict:
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def layer_metrics(spans: dict) -> dict[str, float]:
    """Per-layer metrics (without the tracing-overhead ones) from one span file."""
    names = [str(n) for n in spans["names"]]
    name, parent = spans["name"], spans["parent"]
    a, b = spans["a"].astype(np.float64), spans["b"].astype(np.float64)
    dur, self_time = span_times(spans)
    parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)

    def ids(span_names) -> list[int]:
        return [names.index(s) for s in span_names if s in names]

    def mask(*span_names: str) -> np.ndarray:
        return np.isin(name, ids(span_names))

    def calls(*span_names: str) -> float:
        return float(mask(*span_names).sum())

    def total(*span_names: str) -> float:
        # Outermost time only, so a span nested in one of the same name
        # (a staircase curve evaluating its base curve) is not counted twice.
        outer = mask(*span_names) & ~np.isin(parent_name, ids(span_names))
        return float(dur[outer].sum())

    def own(*span_names: str) -> float:
        return float(self_time[mask(*span_names)].sum())

    def ratio(x: float, y: float) -> float:
        return x / y if y else 0.0

    m: dict[str, float] = {}
    elim = mask("bandit.eliminate")
    m["bandit.eliminate.calls"] = calls("bandit.eliminate")
    m["bandit.eliminate.s"] = total("bandit.eliminate")
    pairs = float((a[elim] * (a[elim] - 1)).sum())
    m["bandit.eliminate.pairs"] = pairs
    m["bandit.eliminate.s_per_pair"] = ratio(m["bandit.eliminate.s"], pairs)
    m["bandit.eliminate.drop_ratio"] = ratio(float((a[elim] - b[elim]).sum()), float(a[elim].sum()))
    m["bandit.growth_rate.calls"] = calls("bandit.growth_rate")
    m["bandit.growth_rate.s"] = total("bandit.growth_rate")
    m["bandit.upper_bound.s"] = total("bandit.upper_bound", "bandit.cost_aware_upper_bound")
    m["bandit.rising_bandit_run.s"] = total("bandit.rising_bandit_run")
    m["harness.simulate.self_s"] = own("harness.simulate")

    select_names = [f"policies.{p}.select" for p in POLICY_SELECTS]
    for policy, span_name in zip(POLICY_SELECTS, select_names):
        m[f"policies.{policy}.select.calls"] = calls(span_name)
        m[f"policies.{policy}.select.s"] = total(span_name)
    sel = mask(*select_names)
    m["policies.select.history_reads"] = float(b[sel].sum())
    m["policies.select.late_early_ratio"] = _late_early(dur[sel], a[sel], parent[sel])

    for kind in ARM_KINDS.values():
        m[f"arms.{kind}.pull.calls"] = calls(f"arms.{kind}.pull")
        m[f"arms.{kind}.pull.self_s"] = own(f"arms.{kind}.pull")
    m["arms.make_instance.s"] = total("arms.make_instance")
    m["curves.eval.calls"] = calls("curves.eval")
    m["curves.eval.s"] = total("curves.eval")

    prop = mask("hpo.propose")
    m["hpo.propose.calls"] = calls("hpo.propose")
    m["hpo.propose.s"] = total("hpo.propose")
    m["hpo.propose.history_mean"] = float(a[prop].mean()) if prop.any() else 0.0
    m["hpo.propose.late_early_ratio"] = _late_early(dur[prop], a[prop], np.zeros(int(prop.sum())))
    m["hpo.loss.s"] = total("hpo.loss")

    brute = mask("harness.brute_force_optimal")
    m["harness.brute_force_optimal.s"] = total("harness.brute_force_optimal")
    m["harness.brute_force_optimal.sequences"] = float(a[brute].sum())
    for fn in ("compute_gamma", "least_concave_majorant", "theorem2_condition_check", "build_report"):
        m[f"harness.{fn}.s"] = total(f"harness.{fn}")
    for fn in ("suite_lemma1", "concave_battery", "suite_theorem2"):
        m[f"verify.{fn}.s"] = total(f"verify.{fn}")
    m["config.load_experiment.s"] = total("config.load_experiment")
    m["cli.write_trace.s"] = total("cli.write_trace")
    m["cli.write_trace.bytes"] = float(b[mask("cli.write_trace")].sum())
    m["cli.write_report.s"] = total("cli.write_report")
    m["trace.spans"] = float(len(dur))
    return m


def span_times(spans: dict) -> tuple[np.ndarray, np.ndarray]:
    """Durations and self times: duration minus the durations of direct children."""
    parent = spans["parent"]
    dur = spans["end"] - spans["start"]
    nested = parent >= 0
    self_time = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    return dur, self_time


def _late_early(dur: np.ndarray, pos: np.ndarray, group: np.ndarray) -> float:
    """Mean duration in the last quarter of each group's range of ``pos``
    divided by the mean in the first quarter; 0 when there are no spans."""
    if len(dur) == 0:
        return 0.0
    _, inverse = np.unique(group, return_inverse=True)
    top = np.zeros(inverse.max() + 1)
    np.maximum.at(top, inverse, pos)
    rel = pos / top[inverse]
    early, late = rel <= 0.25, rel > 0.75
    if not early.any() or not late.any():
        return 0.0
    return float(dur[late].mean() / dur[early].mean())


def top_self_times(spans: dict, count: int = 5) -> list[list]:
    """The span names with the largest total self time, largest first."""
    _, self_time = span_times(spans)
    per_name = np.bincount(spans["name"], weights=self_time, minlength=len(spans["names"]))
    order = np.argsort(per_name)[::-1][:count]
    return [[str(spans["names"][i]), float(per_name[i])] for i in order]
