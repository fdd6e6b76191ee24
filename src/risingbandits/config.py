"""Flat key = value experiment configuration.

Grammar (diff-friendly, one assignment per line):

    # comment
    key = value            global settings
    [arm]                  starts the next arm block; keys below it
    key = value            belong to that arm until the next [arm]

Global keys: horizon_trials | horizon_budget, growth, smooth_window,
epsilon, policies (comma list), replications, base_seed, and optional
policy parameters (ucb_coefficient, softmax_temperature, thompson_alpha,
thompson_beta).

Arm keys: kind (exponential | power | tabulated | staircase | hpo, the keys
of ARM_KINDS), then one key per field of the dataclass the kind builds, under
the field's name and parsed by its annotation: the curve class, followed by
CurveArmSpec's fields after ``curve`` (cost, noise_amplitude), or HpoArmSpec.
A key is optional exactly when its field has a default, which then applies.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields

from .arms import (
    ArmSpec,
    ConfigurationError,
    CurveArmSpec,
    HpoArmSpec,
    InstanceSpec,
)
from .bandit import BanditConfig
from .curves import ExponentialCurve, PowerCurve, StaircaseCurve, TabulatedCurve
from .policies import POLICY_NAMES, Policy, make_policy

# run_experiment lists every (policy, replication) task before the first run,
# so the count bounds the task list and the time a file may ask for.
MAX_REPLICATIONS = 10_000
# A serial run holds no step records: each row goes to the trace as its pull
# is made.  The cap bounds a run's time and its rows in the trace: one noisy
# arm at the cap took about 8 s on a 2-CPU VM and wrote 68 MB of rows.  With
# --jobs > 1 a worker returns its run's steps as a list, about 150 bytes a
# pull, so there the cap also bounds each run's list to about 150 MB.
MAX_PULLS_PER_RUN = 1_000_000

# Optional global key -> (BanditConfig field, type).
BANDIT_FIELDS = {
    "horizon_trials": ("trials", int),
    "horizon_budget": ("budget", float),
    "growth": ("growth", str),
    "smooth_window": ("smooth_window", int),
    "epsilon": ("epsilon", float),
}

# Optional global key -> (policy, keyword argument of that policy).
POLICY_PARAMS = {
    "ucb_coefficient": ("ucb", "exploration_coefficient"),
    "softmax_temperature": ("softmax", "temperature"),
    "thompson_alpha": ("thompson", "prior_alpha"),
    "thompson_beta": ("thompson", "prior_beta"),
}

GLOBAL_KEYS = {*BANDIT_FIELDS, *POLICY_PARAMS, "policies", "replications", "base_seed"}

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
    policy_params: dict[str, float] = field(default_factory=dict)

    def build_policies(self) -> list[Policy]:
        return [self.build_policy(name) for name in self.policy_names]

    def build_policy(self, name: str) -> Policy:
        """The named policy, with the parameters this experiment sets for it."""
        keys = [
            key
            for key, (policy, _) in POLICY_PARAMS.items()
            if policy == name and key in self.policy_params
        ]
        params = {POLICY_PARAMS[key][1]: self.policy_params[key] for key in keys}
        try:
            return make_policy(name, **params)
        except ValueError as exc:
            given = "".join(f", {key} = {self.policy_params[key]}" for key in keys)
            raise ConfigurationError(f"policy {name!r}{given}: {exc}") from exc


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
    "tuple[float, ...]": lambda key, raw: tuple(_parse_scalar(key, v, float) for v in raw.split(",")),
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
    field order so a bad block names its first bad field.  Only the keys the
    block sets are passed on, so an omitted optional key takes the default."""
    for key, parse, required in _ARM_FIELDS[cls]:
        if key in block:
            given[key] = parse(f"arm {index}.{key}", block.pop(key))
        elif required:
            raise ConfigurationError(f"arm {index}: missing field {key!r}")
    return cls(**given)


def _build_arm(block: dict[str, str], index: int) -> ArmSpec:
    block = dict(block)
    kind = block.pop("kind", None)
    if kind is None:
        raise ConfigurationError(f"arm {index}: missing field 'kind'")
    if kind not in ARM_KINDS:
        raise ConfigurationError(f"arm {index}: unknown kind {kind!r}")
    cls = ARM_KINDS[kind]
    try:
        spec = _read_fields(cls, block, index)
        if cls is not HpoArmSpec:
            spec = _read_fields(CurveArmSpec, block, index, curve=spec)
    except ConfigurationError:
        raise
    except ValueError as exc:
        raise ConfigurationError(f"arm {index}: {exc}") from exc
    if block:
        raise ConfigurationError(f"arm {index}: unknown fields {sorted(block)}")
    return spec


def _check_horizon(bandit: BanditConfig, instance: InstanceSpec) -> None:
    """Reject a horizon that lets one run make more than MAX_PULLS_PER_RUN pulls."""
    if bandit.trials is not None:
        if bandit.trials > MAX_PULLS_PER_RUN:
            raise ConfigurationError(
                f"field 'horizon_trials': must be at most the cap of {MAX_PULLS_PER_RUN} pulls per run, "
                f"got {bandit.trials}"
            )
        return
    # A pull fits while spend + cost <= budget + epsilon, so the epsilon buys pulls too.
    cheapest = min(spec.min_cost for spec in instance.arms)
    pulls = (bandit.budget + bandit.epsilon) / cheapest
    if pulls > MAX_PULLS_PER_RUN:
        raise ConfigurationError(
            f"field 'horizon_budget': {bandit.budget} (+ epsilon {bandit.epsilon}) buys {pulls:.10g} pulls "
            f"at the cheapest pull cost {cheapest}, above the cap of {MAX_PULLS_PER_RUN} pulls per run"
        )


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

    policy_params = {}
    for key in POLICY_PARAMS:
        if key in global_block:
            policy_params[key] = float(_parse_scalar(key, global_block[key], float))

    instance = InstanceSpec([_build_arm(block, i) for i, block in enumerate(arm_blocks, start=1)])
    instance.check()  # reject bad arm parameters before any output exists
    _check_horizon(bandit, instance)
    config = ExperimentConfig(
        instance=instance,
        bandit=bandit,
        policy_names=policy_names,
        replications=replications,
        base_seed=base_seed,
        policy_params=policy_params,
    )
    config.build_policies()  # reject bad policy parameters before any run starts
    return config


def load_experiment(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_experiment(handle.read())
