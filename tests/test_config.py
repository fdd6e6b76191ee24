import dataclasses
import math

import pytest

from risingbandits import ConfigurationError, CurveArmSpec, HpoArmSpec, arms
from risingbandits.bandit import DEFAULT_EPSILON, BanditConfig
from risingbandits.config import (
    MAX_DENSITY_PULLS_PER_RUN,
    MAX_PULLS_PER_RUN,
    MAX_REPLICATIONS,
    load_experiment,
    parse_experiment,
)
from risingbandits.config import ARM_KINDS

GOOD = """
horizon_trials = 12
growth = smooth
smooth_window = 5
policies = rising_bandit, average, ucb
replications = 2
base_seed = 9

[arm]
kind = exponential
limit = 0.9
initial = 0.4
decay = 0.8

[arm]
kind = power
limit = 0.7
scale = 0.3
exponent = 1.2
cost = 2.0
noise_amplitude = 0.05

[arm]
kind = hpo
objective = sphere
dimension = 3
strategy = density_estimator
"""


class TestParseExperiment:
    def test_loads_a_file_with_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "marked.cfg"
        path.write_text(GOOD, encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_experiment(str(path)) == parse_experiment(GOOD)

    def test_parses_complete_config(self):
        config = parse_experiment(GOOD)
        assert config.bandit.trials == 12
        assert config.bandit.growth == "smooth"
        assert config.bandit.smooth_window == 5
        assert config.policy_names == ["rising_bandit", "average", "ucb"]
        assert config.replications == 2
        assert config.base_seed == 9
        assert isinstance(config.instance.arms[0], CurveArmSpec)
        assert isinstance(config.instance.arms[1], CurveArmSpec)
        assert config.instance.arms[1].noise_amplitude == 0.05
        assert config.instance.arms[1].cost == 2.0
        assert isinstance(config.instance.arms[2], HpoArmSpec)
        assert config.instance.arms[2].dimension == 3

    def test_policy_parameters_reach_policies(self):
        # A file names the policies; each runs with its class's fixed settings.
        policies = {p.name: p for p in parse_experiment(GOOD).build_policies()}
        assert policies["ucb"].exploration_coefficient == math.sqrt(2.0)
        assert set(policies) == {"rising_bandit", "average", "ucb"}

    def test_comments_and_blank_lines_ignored(self):
        config = parse_experiment(
            "horizon_trials = 3  # inline comment\n\n# full comment\n[arm]\nkind = tabulated\nvalues = 0.1, 0.5\n"
        )
        assert config.bandit.trials == 3
        assert config.instance.arms[0].curve.eval(2) == 0.5

    def test_staircase_arm(self):
        config = parse_experiment(
            "horizon_trials = 3\n[arm]\nkind = staircase\ninitial = 0.4\nlimit = 0.9\n"
            "plateau_length = 7\njump_fraction = 0.9\n"
        )
        curve = config.instance.arms[0].curve
        assert curve.eval(1) == pytest.approx(0.4)
        assert curve.eval(8) == pytest.approx(0.9 - 0.5 * 0.1)

    def test_budget_horizon(self):
        config = parse_experiment("horizon_budget = 25.5\n[arm]\nkind = exponential\nlimit = 0.9\ninitial = 0.4\ndecay = 0.8\n")
        assert config.bandit.budget == 25.5
        assert config.bandit.trials is None

    def test_omitted_bandit_settings_take_the_library_defaults(self, monkeypatch):
        text = "horizon_trials = 12\n[arm]\nkind = hpo\n"
        assert parse_experiment(text).bandit == BanditConfig(trials=12)
        # Only the keys the file sets are passed on, so a changed default
        # in BanditConfig reaches every file that omits the key.
        passed = []

        def recording(**kwargs):
            passed.append(kwargs)
            return BanditConfig(**kwargs)

        monkeypatch.setattr("risingbandits.config.BanditConfig", recording)
        parse_experiment(text)
        assert passed == [{"trials": 12}]


class TestParseErrors:
    def _bad(self, text, match):
        with pytest.raises(ConfigurationError, match=match):
            parse_experiment(text)

    def test_no_arms(self):
        self._bad("horizon_trials = 5\n", "no \\[arm\\] blocks")

    def test_both_horizons(self):
        self._bad(
            "horizon_trials = 5\nhorizon_budget = 10\n[arm]\nkind = exponential\n"
            "limit = 0.9\ninitial = 0.4\ndecay = 0.8\n",
            "exactly one",
        )

    def test_duplicate_key_reports_line(self):
        self._bad("horizon_trials = 5\nhorizon_trials = 6\n[arm]\nkind = hpo\n", "line 2")

    def test_unknown_global_field(self):
        self._bad("horizon_trials = 5\nwat = 1\n[arm]\nkind = hpo\n", "unknown global fields")

    def test_misspelt_horizon_key_is_named(self):
        # Not "exactly one of trials or budget must be set", the horizon it fails to set.
        self._bad("horizon_trial = 5\n[arm]\nkind = hpo\n", r"unknown global fields \['horizon_trial'\]")

    def test_unknown_arm_field(self):
        self._bad(
            "horizon_trials = 5\n[arm]\nkind = exponential\nlimit = 0.9\ninitial = 0.4\n"
            "decay = 0.8\nwat = 1\n",
            "arm 1: unknown fields",
        )

    def test_missing_arm_kind(self):
        self._bad("horizon_trials = 5\n[arm]\nlimit = 0.9\n", "missing field 'kind'")

    def test_unknown_arm_kind(self):
        self._bad("horizon_trials = 5\n[arm]\nkind = cubic\n", "unknown kind")

    def test_unknown_policy(self):
        self._bad(
            "horizon_trials = 5\npolicies = greedy\n[arm]\nkind = hpo\n", "unknown policy"
        )

    def test_empty_policy_list(self):
        self._bad("horizon_trials = 5\npolicies = ,\n[arm]\nkind = hpo\n", "'policies': names no policy")

    def test_repeated_policy(self):
        self._bad(
            "horizon_trials = 5\npolicies = ucb, average, ucb\n[arm]\nkind = hpo\n",
            "'policies': policy 'ucb' is listed twice",
        )

    @pytest.mark.parametrize(
        "key, value",
        [
            ("ucb_coefficient", "-1"),
            ("softmax_temperature", "0"),
            ("softmax_temperature", "1e-310"),
            ("thompson_alpha", "0"),
            ("thompson_beta", "-2"),
        ],
    )
    def test_invalid_policy_parameter_names_the_field(self, key, value):
        # The baselines' settings are fixed: a file that sets one names it
        # among the unknown keys, whatever its value.
        self._bad(
            f"horizon_trials = 5\npolicies = ucb, softmax, thompson\n{key} = {value}\n[arm]\nkind = hpo\n",
            rf"^unknown global fields \['{key}'\]$",
        )

    def test_unparseable_value(self):
        self._bad(
            "horizon_trials = five\n[arm]\nkind = hpo\n", "cannot parse"
        )

    def test_bad_curve_parameters_name_the_arm(self):
        self._bad(
            "horizon_trials = 5\n[arm]\nkind = exponential\nlimit = 0.9\ninitial = 0.95\ndecay = 0.5\n",
            "arm 1",
        )

    @pytest.mark.parametrize("values", ["0.1, x, 0.5", "0.1, nan", "0.2,,0.3"])
    def test_bad_tabulated_value_names_the_field(self, values):
        self._bad(f"horizon_trials = 5\n[arm]\nkind = tabulated\nvalues = {values}\n", "'arm 1.values'")

    @pytest.mark.parametrize(
        "values, message",
        [("0.1, nan", "value must be finite, got 'nan'"), ("0.1,  x , 0.5", "cannot parse 'x' as float")],
    )
    def test_bad_tabulated_value_is_quoted_without_its_spaces(self, values, message):
        text = f"horizon_trials = 5\n[arm]\nkind = tabulated\nvalues = {values}\n"
        with pytest.raises(ConfigurationError) as caught:
            parse_experiment(text)
        assert str(caught.value) == f"field 'arm 1.values': {message}"

    def test_negative_base_seed(self):
        # Refused here, not by the run it would seed: numpy's seed sequence
        # takes no negative entropy.
        assert parse_experiment(GOOD.replace("base_seed = 9", "base_seed = 0")).base_seed == 0
        self._bad(
            GOOD.replace("base_seed = 9", "base_seed = -1"), "field 'base_seed': base seed must be >= 0, got -1"
        )

    def test_bad_staircase_bounds_name_the_arm(self):
        self._bad(
            "horizon_trials = 5\n[arm]\nkind = staircase\ninitial = 0.9\nlimit = 0.5\n"
            "plateau_length = 3\njump_fraction = 0.5\n",
            "arm 1: staircase curve needs 0 <= initial <= limit <= 1",
        )

    def test_replications_bounded(self):
        text = GOOD.replace("replications = 2", f"replications = {MAX_REPLICATIONS}")
        assert parse_experiment(text).replications == MAX_REPLICATIONS
        for value in (MAX_REPLICATIONS + 1, 10**20, 0):
            self._bad(GOOD.replace("replications = 2", f"replications = {value}"), "'replications'")

    def test_horizon_trials_bounded(self):
        # A random search, so that only the cap on all pulls applies.
        good = GOOD.replace("strategy = density_estimator", "strategy = random")
        text = good.replace("horizon_trials = 12", f"horizon_trials = {MAX_PULLS_PER_RUN}")
        assert parse_experiment(text).bandit.trials == MAX_PULLS_PER_RUN
        for value in (MAX_PULLS_PER_RUN + 1, 99999999999999):
            self._bad(good.replace("horizon_trials = 12", f"horizon_trials = {value}"), "'horizon_trials'")

    def test_density_estimator_pulls_bounded_by_trials(self):
        cap = MAX_DENSITY_PULLS_PER_RUN
        text = GOOD.replace("horizon_trials = 12", f"horizon_trials = {cap}")
        assert parse_experiment(text).bandit.trials == cap
        self._bad(
            GOOD.replace("horizon_trials = 12", f"horizon_trials = {cap + 1}"),
            f"^field 'horizon_trials': lets arm 3, a density_estimator search, make {cap + 1} pulls .* cap of {cap} ",
        )

    def test_density_estimator_pulls_bounded_by_budget(self):
        # Each arm's own cheapest pull counts: the hpo arm's is 0.8 * 2.5 = 2,
        # and the tabulated arm's, 0.25, does not limit the hpo arm.
        cap = MAX_DENSITY_PULLS_PER_RUN
        arms = (
            "[arm]\nkind = tabulated\nvalues = 0.5\ncost = 0.25\n"
            "[arm]\nkind = hpo\nstrategy = density_estimator\nmean_cost = 2.5\n"
        )
        assert parse_experiment(f"horizon_budget = {2 * cap}\n" + arms).bandit.budget == 2 * cap
        self._bad(
            f"horizon_budget = {2 * (cap + 1)}\n" + arms,
            f"^field 'horizon_budget': lets arm 2, a density_estimator search, make {cap + 1} pulls .* cap of {cap} ",
        )

    @pytest.mark.parametrize(
        "arms, cheapest",
        [
            # An hpo pull costs at least 0.8 times its mean cost.
            ("[arm]\nkind = hpo\nmean_cost = 2.5\n[arm]\nkind = hpo\nmean_cost = 5\n", 2.0),
            (
                "[arm]\nkind = tabulated\nvalues = 0.5\ncost = 0.25\n"
                "[arm]\nkind = hpo\nmean_cost = 0.5\n",
                0.25,
            ),
        ],
    )
    def test_horizon_budget_bounded_by_the_cheapest_pull(self, arms, cheapest):
        budget = cheapest * MAX_PULLS_PER_RUN
        assert parse_experiment(f"horizon_budget = {budget}\n" + arms).bandit.budget == budget
        for value in (budget * 1.000001, 1e308):
            self._bad(f"horizon_budget = {value}\n" + arms, "'horizon_budget'")

    @pytest.mark.parametrize(
        "settings, cost",
        [
            # Only the tolerance buys pulls: about 1e288 of them.
            ("horizon_budget = 1e-300\n", "1e-300"),
        ],
    )
    def test_epsilon_counts_toward_the_budget_cap(self, settings, cost):
        self._bad(f"{settings}[arm]\nkind = tabulated\nvalues = 0.5\ncost = {cost}\n", "'horizon_budget'")

    @pytest.mark.parametrize(
        "arm, cheapest",
        [
            ("kind = tabulated\nvalues = 0.5\ncost = 0.3", 0.3),
            # An hpo pull costs at least 0.8 times its mean cost.
            ("kind = hpo\nmean_cost = 0.7", 0.8 * 0.7),
        ],
        ids=["curve", "hpo"],
    )
    def test_budget_that_no_pull_fits_is_refused(self, arm, cheapest):
        # Refused exactly where the engine's first check, 0.0 + cost <= budget
        # + DEFAULT_EPSILON, would fail, but before the output directory exists.
        text = "horizon_budget = {}\npolicies = average, rising_bandit\n[arm]\n" + arm + "\n"
        budget = cheapest - DEFAULT_EPSILON
        for _ in range(4):
            budget = math.nextafter(budget, 0.0)
        outcomes = set()
        for _ in range(9):
            fits = 0.0 + cheapest <= budget + DEFAULT_EPSILON
            if fits:
                assert parse_experiment(text.format(budget)).bandit.budget == budget
            else:
                self._bad(text.format(budget), "^field 'horizon_budget': budget too small for a single pull")
            outcomes.add(fits)
            budget = math.nextafter(budget, math.inf)
        # The budgets span the boundary: some are refused and some admitted.
        assert outcomes == {False, True}

    def test_subnormal_cost_cannot_stretch_a_budget(self):
        self._bad("horizon_budget = 1\n[arm]\nkind = tabulated\nvalues = 0.5\ncost = 1e-320\n", "'horizon_budget'")

    @pytest.mark.parametrize(
        "old, new, arm, message",
        [
            ("cost = 2.0", "cost = -1", 2, "per-pull cost must be positive"),
            ("noise_amplitude = 0.05", "noise_amplitude = -0.05", 2, "noise amplitude"),
            ("dimension = 3", "dimension = 7", 3, "dimension must be in"),
            ("objective = sphere", "objective = cubic", 3, "unknown objective"),
            ("strategy = density_estimator", "strategy = grid", 3, "unknown search strategy"),
            ("strategy = density_estimator", "mean_cost = 0", 3, "mean cost"),
            ("strategy = density_estimator", "mean_cost = 1.6e308", 3, "mean cost .* overflows"),
        ],
    )
    def test_bad_arm_parameters_name_the_arm(self, old, new, arm, message):
        self._bad(GOOD.replace(old, new), f"arm {arm}: .*{message}")

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                GOOD.replace("cost = 2.0", "cost = -1").replace("noise_amplitude = 0.05", "noise_amplitude = -1"),
                "arm 2: per-pull cost",
            ),
            (
                GOOD.replace("objective = sphere", "objective = cubic").replace(
                    "strategy = density_estimator", "strategy = grid"
                ),
                "arm 3: unknown objective",
            ),
            (
                "horizon_trials = 5\n[arm]\nkind = tabulated\nvalues = 0.5\ncost = -1\n"
                "[arm]\nkind = exponential\nlimit = 0.5\ninitial = 0.9\ndecay = 0.5\n",
                "arm 1: per-pull cost",
            ),
            (
                "horizon_trials = 5\n[arm]\nkind = tabulated\nvalues = 0.5\ncost = -1\n"
                "[arm]\nkind = tabulated\nvalues = 0.5\nbogus = 1\n",
                "arm 1: per-pull cost",
            ),
            (
                "horizon_trials = 5\n[arm]\nkind = tabulated\nvalues = 0.5\ncost = -1\nbogus = 1\n",
                "arm 1: per-pull cost",
            ),
        ],
        ids=[
            "cost_before_noise",
            "objective_before_strategy",
            "arm_before_later_curve",
            "arm_before_later_key",
            "field_before_unknown_key",
        ],
    )
    def test_first_bad_key_in_the_file_is_named(self, text, message):
        self._bad(text, f"^{message}")

    def test_arm_checks_build_no_arm(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("parse_experiment built an arm process")

        for cls in (arms.CurveArm, arms.NoisyCurveArm, arms.HpoArm):
            monkeypatch.setattr(cls, "__init__", refuse)
        assert len(parse_experiment(GOOD).instance.arms) == 3

    def test_missing_equals(self):
        self._bad("horizon_trials 5\n[arm]\nkind = hpo\n", "line 1")


# Every key of each arm kind, in field order, as (text, parsed value); each
# optional value differs from the dataclass default.
CURVE_SPEC_KEYS = {"cost": ("2.5", 2.5), "noise_amplitude": ("0.05", 0.05)}
ARM_KEYS = {
    "exponential": {"limit": ("0.9", 0.9), "initial": ("0.4", 0.4), "decay": ("0.8", 0.8), **CURVE_SPEC_KEYS},
    "power": {"limit": ("0.7", 0.7), "scale": ("0.3", 0.3), "exponent": ("1.2", 1.2), **CURVE_SPEC_KEYS},
    "tabulated": {"values": ("0.2, 0.5", (0.2, 0.5)), **CURVE_SPEC_KEYS},
    "staircase": {
        "initial": ("0.4", 0.4),
        "limit": ("0.9", 0.9),
        "plateau_length": ("7", 7),
        "jump_fraction": ("0.9", 0.9),
        **CURVE_SPEC_KEYS,
    },
    "hpo": {
        "objective": ("rosenbrock", "rosenbrock"),
        "dimension": ("3", 3),
        "strategy": ("density_estimator", "density_estimator"),
        "mean_cost": ("2.5", 2.5),
    },
}
# Stand-in defaults for the optional fields, patched into the constructors.
PATCHED_DEFAULTS = {
    CurveArmSpec: {"cost": 0.25, "noise_amplitude": 0.125},
    HpoArmSpec: {
        "objective": "quadratic",
        "dimension": 4,
        "strategy": "density_estimator",
        "mean_cost": 3.0,
    },
}


class TestArmKeys:
    """Arm keys are the fields of the spec and curve dataclasses."""

    @staticmethod
    def _parse(kind, keys):
        lines = "".join(f"{key} = {text}\n" for key, (text, _) in keys.items())
        return parse_experiment(f"horizon_trials = 5\n[arm]\nkind = {kind}\n{lines}").instance.arms[0]

    @pytest.mark.parametrize("kind", sorted(ARM_KINDS))
    def test_keys_are_the_dataclass_fields(self, kind, monkeypatch):
        cls = ARM_KINDS[kind]
        owner = HpoArmSpec if cls is HpoArmSpec else CurveArmSpec  # holds the optional fields
        classes = (cls,) if cls is owner else (cls, owner)
        fields = [f for c in classes for f in dataclasses.fields(c) if f.name != "curve"]
        keys = ARM_KEYS[kind]
        assert list(keys) == [f.name for f in fields]

        # Every field is accepted as a key of the same name and reaches the spec.
        spec = self._parse(kind, keys)
        for f in fields:
            holder = spec if f.name in PATCHED_DEFAULTS[owner] else spec.curve
            assert getattr(holder, f.name) == keys[f.name][1]

        # An omitted required key is named.
        required = [f.name for f in fields if f.default is dataclasses.MISSING]
        for name in required:
            with pytest.raises(ConfigurationError, match=f"^arm 1: missing field '{name}'$"):
                self._parse(kind, {key: value for key, value in keys.items() if key != name})

        # An omitted optional key takes the dataclass default in force when the file is parsed.
        monkeypatch.setattr(owner.__init__, "__defaults__", tuple(PATCHED_DEFAULTS[owner].values()))
        spec = self._parse(kind, {name: keys[name] for name in required})
        for name, default in PATCHED_DEFAULTS[owner].items():
            assert getattr(spec, name) == default
