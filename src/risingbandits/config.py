"""Flat key = value experiment configuration.

Grammar (diff-friendly, one assignment per line):

    # comment
    key = value            global settings
    [arm]                  starts the next arm block; keys below it
    key = value            belong to that arm until the next [arm]

Global keys: horizon_trials | horizon_budget, growth, smooth_window,
policies (comma list), replications, base_seed.

Arm keys: kind (exponential | power | tabulated | staircase | hpo, the keys
of ARM_KINDS), then one key per field of the dataclass the kind builds, under
the field's name and parsed by its annotation: the curve class, followed by
CurveArmSpec's fields after ``curve`` (cost, noise_amplitude), or HpoArmSpec.
A key is optional exactly when its field has a default, which then applies.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields

from .arms import (
    ArmSpec,
    ConfigurationError,
    CurveArmSpec,
    HpoArmSpec,
    InstanceSpec,
)
from .bandit import DEFAULT_EPSILON, BanditConfig
from .curves import ExponentialCurve, PowerCurve, StaircaseCurve, TabulatedCurve
from .policies import POLICY_NAMES, Policy, make_policy

# run_experiment lists every (policy, replication) task before the first run,
# so the count bounds the task list and the time a file may ask for.
MAX_REPLICATIONS = 10_000
# A serial run holds no step records: each row goes to the trace as its pull
# is made.  The cap bounds a run's rows in the trace: one noisy arm at the
# cap took about 8 s on a 2-CPU VM and wrote 68 MB of rows.  It bounds the
# run's time only where a pull costs the same at any history length: a
# density_estimator hpo arm's propose is linear in its trials (0.4 ms at
# 1,000, 7.4 ms at 16,000), so one such arm at the cap would run for days.
# With --jobs > 1 a worker returns its run's trace rows as one bytes block:
# 100,000 pulls of one noisy arm peaked at about 78 bytes a pull
# (tracemalloc), and at about 172 once the result was pickled for the
# parent, so there the cap also bounds a worker's peak to about 172 MB.
MAX_PULLS_PER_RUN = 1_000_000
# Pulls of one density_estimator arm in one run: its proposes took 65 s of
# process time in all at 16,000 trials (sphere, dimension 3, 2-CPU VM).
MAX_DENSITY_PULLS_PER_RUN = 16_000

# Optional global key -> (BanditConfig field, type).
BANDIT_FIELDS = {
    "horizon_trials": ("trials", int),
    "horizon_budget": ("budget", float),
    "growth": ("growth", str),
    "smooth_window": ("smooth_window", int),
}

GLOBAL_KEYS = {*BANDIT_FIELDS, "policies", "replications", "base_seed"}

# Arm kind -> the class its block builds. A curve kind wraps its curve in a
# CurveArmSpec, whose fields after ``curve`` the block may set as well.
ARM_KINDS = {
    "exponential": ExponentialCurve,
    "power": PowerCurve,
    "tabulated": TabulatedCurve,
    "staircase": StaircaseCurve,
    "hpo": HpoArmSpec,
}


@dataclass
class ExperimentConfig:
    instance: InstanceSpec
    bandit: BanditConfig
    policy_names: list[str]
    replications: int = 1
    base_seed: int = 0

    def build_policies(self) -> list[Policy]:
        return [make_policy(name) for name in self.policy_names]


def _parse_scalar(key: str, raw: str, kind: type) -> float | int | str:
    try:
        value = kind(raw)
    except ValueError as exc:
        raise ConfigurationError(f"field {key!r}: cannot parse {raw!r} as {kind.__name__}") from exc
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigurationError(f"field {key!r}: value must be finite, got {raw!r}")
    return value


# The parser of each annotation an arm field may carry; the annotations are
# strings, as the dataclass modules import annotations from __future__.
_PARSERS = {
    "int": lambda key, raw: _parse_scalar(key, raw, int),
    "float": lambda key, raw: _parse_scalar(key, raw, float),
    "str": lambda key, raw: raw,
    "tuple[float, ...]": lambda key, raw: tuple(_parse_scalar(key, v.strip(), float) for v in raw.split(",")),
}


def _field_keys(cls_fields) -> tuple[tuple[str, object, bool], ...]:
    """(key, parser, required) for each field: required exactly when it has no default."""
    return tuple(
        (f.name, _PARSERS[f.type], f.default is MISSING and f.default_factory is MISSING) for f in cls_fields
    )


# Listed once, at import, so an annotation without a parser fails here.
_ARM_FIELDS = {cls: _field_keys(fields(cls)) for cls in ARM_KINDS.values()}
_ARM_FIELDS[CurveArmSpec] = _field_keys(fields(CurveArmSpec)[1:])


def _parse_blocks(text: str) -> tuple[dict[str, str], list[dict[str, str]]]:
    global_block: dict[str, str] = {}
    arm_blocks: list[dict[str, str]] = []
    current = global_block
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "[arm]":
            current = {}
            arm_blocks.append(current)
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected 'key = value' or '[arm]', got {line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if not key or not raw:
            raise ConfigurationError(f"line {lineno}: empty key or value")
        if key in current:
            raise ConfigurationError(f"line {lineno}: duplicate key {key!r}")
        current[key] = raw
    return global_block, arm_blocks


def _read_fields(cls: type, block: dict[str, str], index: int, **given):
    """Build ``cls`` from the keys of ``block`` named after its fields, read in
    field order so a bad block names its first bad field; ``cls`` checks its
    fields when made, also in field order.  Only the keys the block sets are
    passed on, so an omitted optional key takes the default."""
    for key, parse, required in _ARM_FIELDS[cls]:
        if key in block:
            given[key] = parse(f"arm {index}.{key}", block.pop(key))
        elif required:
            raise ConfigurationError(f"arm {index}: missing field {key!r}")
    try:
        return cls(**given)
    except ValueError as exc:
        raise ConfigurationError(f"arm {index}: {exc}") from exc


def _build_arm(block: dict[str, str], index: int) -> ArmSpec:
    block = dict(block)
    kind = block.pop("kind", None)
    if kind is None:
        raise ConfigurationError(f"arm {index}: missing field 'kind'")
    if kind not in ARM_KINDS:
        raise ConfigurationError(f"arm {index}: unknown kind {kind!r}")
    cls = ARM_KINDS[kind]
    spec = _read_fields(cls, block, index)
    if cls is not HpoArmSpec:
        spec = _read_fields(CurveArmSpec, block, index, curve=spec)
    if block:
        raise ConfigurationError(f"arm {index}: unknown fields {sorted(block)}")
    return spec


def _check_horizon(bandit: BanditConfig, instance: InstanceSpec) -> None:
    """Reject a horizon that lets one run make more pulls of an arm than its
    cap: MAX_DENSITY_PULLS_PER_RUN for a density_estimator search, else
    MAX_PULLS_PER_RUN.  The cheapest arm's figure is the run's largest, so
    the caps also bound a run's pulls of all arms together.  Reject as well a
    budget that no arm's cheapest pull fits, as the first run would."""
    field_name = "horizon_trials" if bandit.trials else "horizon_budget"
    for index, spec in enumerate(instance.arms, start=1):
        # A pull fits within DEFAULT_EPSILON of the budget, so the tolerance buys pulls too.
        pulls = bandit.trials or (bandit.budget + DEFAULT_EPSILON) / spec.min_cost
        density = isinstance(spec, HpoArmSpec) and spec.strategy == "density_estimator"
        cap = MAX_DENSITY_PULLS_PER_RUN if density else MAX_PULLS_PER_RUN
        if pulls > cap:
            raise ConfigurationError(
                f"field {field_name!r}: lets arm {index}{', a density_estimator search,' if density else ''} "
                f"make {pulls:.10g} pulls in one run, above its cap of {cap} pulls"
            )
    if bandit.budget is not None and bandit.budget + DEFAULT_EPSILON < min(s.min_cost for s in instance.arms):
        raise ConfigurationError("field 'horizon_budget': budget too small for a single pull of any arm")


def parse_experiment(text: str) -> ExperimentConfig:
    global_block, arm_blocks = _parse_blocks(text)
    if not arm_blocks:
        raise ConfigurationError("configuration defines no [arm] blocks")
    # Checked first, so a misspelt key is named rather than reported as the
    # setting it fails to make (a horizon, say).
    unknown = sorted(set(global_block) - GLOBAL_KEYS)
    if unknown:
        raise ConfigurationError(f"unknown global fields {unknown}")

    # Only the keys the file sets reach BanditConfig, so its defaults apply.
    bandit = BanditConfig(
        **{
            name: _parse_scalar(key, global_block[key], kind)
            for key, (name, kind) in BANDIT_FIELDS.items()
            if key in global_block
        }
    )

    raw_policies = global_block.get("policies", "rising_bandit")
    policy_names = [name.strip() for name in raw_policies.split(",") if name.strip()]
    if not policy_names:
        raise ConfigurationError("field 'policies': names no policy")
    for i, name in enumerate(policy_names):
        if name not in POLICY_NAMES:
            raise ConfigurationError(
                f"field 'policies': unknown policy {name!r}, expected one of {POLICY_NAMES}"
            )
        if name in policy_names[:i]:
            raise ConfigurationError(f"field 'policies': policy {name!r} is listed twice")

    replications = int(_parse_scalar("replications", global_block.get("replications", "1"), int))
    if not 1 <= replications <= MAX_REPLICATIONS:
        raise ConfigurationError(
            f"field 'replications': must lie in [1, {MAX_REPLICATIONS}], got {replications}"
        )
    base_seed = int(_parse_scalar("base_seed", global_block.get("base_seed", "0"), int))
    if base_seed < 0:
        raise ConfigurationError(f"field 'base_seed': base seed must be >= 0, got {base_seed}")

    instance = InstanceSpec([_build_arm(block, i) for i, block in enumerate(arm_blocks, start=1)])
    _check_horizon(bandit, instance)
    return ExperimentConfig(
        instance=instance,
        bandit=bandit,
        policy_names=policy_names,
        replications=replications,
        base_seed=base_seed,
    )


def load_experiment(path: str) -> ExperimentConfig:
    # utf-8-sig: some editors save UTF-8 with a byte-order mark first.
    with open(path, "r", encoding="utf-8-sig") as handle:
        return parse_experiment(handle.read())
