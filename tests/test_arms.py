import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from risingbandits import (
    ConfigurationError,
    CurveArm,
    CurveArmSpec,
    ExponentialCurve,
    HpoArmSpec,
    InstanceSpec,
    NoisyCurveArm,
    TabulatedCurve,
    hpo,
    make_instance,
)

CURVE = ExponentialCurve(limit=0.9, initial=0.5, decay=0.5)


def _rng(seed=0):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


class TestCurveArm:
    def test_plays_back_curve_exactly(self):
        arm = CurveArmSpec(CURVE, cost=2.5).build(_rng())
        for n in range(1, 8):
            reward, cost = arm.pull()
            assert reward == CURVE.eval(n)
            assert cost == 2.5

    def test_next_cost_matches_pull_cost(self):
        arm = CurveArmSpec(CURVE, cost=3.0).build(_rng())
        assert arm.next_cost == 3.0
        _, cost = arm.pull()
        assert cost == 3.0

    def test_rejects_nonpositive_cost(self):
        with pytest.raises(ConfigurationError, match="per-pull cost must be positive"):
            CurveArmSpec(CURVE, cost=0.0)

    @pytest.mark.parametrize("cost", [math.nan, math.inf])
    def test_rejects_non_finite_cost(self, cost):
        with pytest.raises(ConfigurationError, match="per-pull cost must be positive and finite"):
            CurveArmSpec(CURVE, cost=cost)


class _Playback:
    """A duck-typed curve that plays back raw values, out-of-range ones too."""

    limit = 1.0

    def __init__(self, values):
        self.values = values

    def eval(self, n):
        return self.values[n - 1]


RAW = st.one_of(
    st.sampled_from([-0.5, 1.5, math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0]),
    st.floats(-0.5, 1.5),
    st.floats(),
)


class TestPullClamp:
    """A pull's reward is max(best, clamp(raw, 0, 1)), whatever raw is."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(RAW, min_size=1, max_size=30))
    @example([-0.5, 1.5, math.nan, math.inf, -0.0])
    @example([-0.0, math.nan, -0.5, 0.25, math.nan, -0.0, 0.25, 0.5])
    @example([math.inf])
    @example([0.9, 1.0, 1.5])
    def test_matches_max_of_clamp(self, values):
        arm = CurveArm(_Playback(values), cost=1.0)
        best = 0.0
        for raw in values:
            best = max(best, min(1.0, max(0.0, raw)))
            reward, _ = arm.pull()
            assert reward == best
            assert math.copysign(1.0, reward) == 1.0


class TestNoisyCurveArm:
    def test_monotone_and_below_curve(self):
        arm = CurveArmSpec(CURVE, noise_amplitude=0.1).build(_rng(3))
        prev = -1.0
        for n in range(1, 50):
            reward, _ = arm.pull()
            assert reward >= prev
            assert reward <= CURVE.eval(n) + 1e-12
            assert 0.0 <= reward <= 1.0
            prev = reward

    def test_zero_amplitude_reduces_to_exact_playback(self):
        arm = CurveArmSpec(CURVE, noise_amplitude=0.0).build(_rng())
        for n in range(1, 6):
            reward, _ = arm.pull()
            assert reward == CURVE.eval(n)

    def test_deterministic_for_fixed_stream(self):
        a = CurveArmSpec(CURVE, noise_amplitude=0.1).build(_rng(7))
        b = CurveArmSpec(CURVE, noise_amplitude=0.1).build(_rng(7))
        assert [a.pull() for _ in range(10)] == [b.pull() for _ in range(10)]

    def test_build_picks_the_process_by_amplitude(self):
        assert type(CurveArmSpec(CURVE, noise_amplitude=0.1).build(_rng())) is NoisyCurveArm
        assert type(CurveArmSpec(CURVE, noise_amplitude=0.0).build(_rng())) is CurveArm
        assert type(CurveArmSpec(CURVE).build(_rng())) is CurveArm

    def test_rejects_negative_amplitude(self):
        with pytest.raises(ConfigurationError, match="noise amplitude must be finite and >= 0"):
            CurveArmSpec(CURVE, noise_amplitude=-0.1)

    @pytest.mark.parametrize("amplitude", [math.inf, math.nan])
    def test_rejects_non_finite_amplitude(self, amplitude):
        with pytest.raises(ConfigurationError, match="noise amplitude must be finite"):
            CurveArmSpec(CURVE, noise_amplitude=amplitude)

    @settings(max_examples=60, deadline=None)
    @given(amplitude=st.floats(1e-9, 2.0), seed=st.integers(0, 2**63))
    def test_noise_is_a_uniform_draw_from_the_arm_stream(self, amplitude, seed):
        # The arm draws amplitude * random(); Generator.uniform(0, a) returns
        # 0 + (a - 0) * random() from the same stream, the same float.
        arm = NoisyCurveArm(CURVE, amplitude, _rng(seed), cost=1.0)
        twin = _rng(seed)
        best = 0.0
        for n in range(1, 40):
            best = max(best, min(max(CURVE.eval(n) - twin.uniform(0.0, amplitude), 0.0), 1.0))
            assert arm.pull()[0] == best


class TestHpoArm:
    # Frozen from the first run at SeedSequence(12345); guards the search,
    # normalization, and cost-stream wiring against silent drift.
    GOLDEN_REWARDS = (
        0.0,
        0.919069124013854,
        0.919069124013854,
        0.919069124013854,
        0.919069124013854,
        0.919069124013854,
    )
    GOLDEN_COSTS = (
        2.074524975268069,
        1.7186212022494962,
        2.2328044994694043,
        2.2981076658963673,
        2.3012513881312398,
        2.1147207650777844,
    )

    def test_golden_sequence(self):
        arm = HpoArmSpec(objective="sphere", dimension=2, strategy="random", mean_cost=2.0).build(
            _rng(12345)
        )
        for want_r, want_c in zip(self.GOLDEN_REWARDS, self.GOLDEN_COSTS):
            reward, cost = arm.pull()
            assert reward == pytest.approx(want_r, abs=1e-12)
            assert cost == pytest.approx(want_c, abs=1e-12)

    # SHA-256 over 150 density_estimator pulls at SeedSequence(2024), one
    # "reward cost" line of float.hex per pull, recorded before the sampler
    # kept its history incrementally (dimensions 3 and 4: before it kept a
    # loss-ordered copy of the points); any change is a change of the sampler.
    DENSITY_DIGESTS = {
        (2, "sphere"): "053fefe28f35cbde760b2e42b5736c5a2b51dcbf70d6429369a8a4b76c16316f",
        (2, "rosenbrock"): "c0fc7d7397ad37b4e2e421cfad01c89840fb8dc8fc9cf3f008f472a777b68724",
        (2, "quadratic"): "b28567b2a013cd4b9d16f0b6bfe88045c14c86de1be2ef37f765b5ce7f3fecd4",
        (3, "sphere"): "aa05d9aa6eb14cc7b00f1f708f23056ee1c6bf7cc5e0be4949ba246c737faf86",
        (3, "rosenbrock"): "3610e86968b36ae892cebb9d3b2db0ada4ef81ecb0b44d8f9e6f6c3f689a51b2",
        (3, "quadratic"): "4d8ae9fb91719b345ea3559352119c77cca7b14610ce44bcef9181908b936d16",
        (4, "sphere"): "547088b1441928964ebaf60aae584e540654e4cc1cd4932ee29a0a4b0baa8a70",
        (4, "rosenbrock"): "06c1ac3b95d988525f7ca84935f2fd040bced7e5deb232313d7b5988e7031150",
        (4, "quadratic"): "01ee05ba9c2b664de884d970b69e0d4c640b3d424085122fceb60832ff5854a2",
        (5, "sphere"): "7dafde3f8a8e094eff93ac3689580cc14d1096d1f249299940a91b19669642ff",
        (5, "rosenbrock"): "9591053dcf35f19faa3d24fac9a076d292fe0f2dfaee0cc78a5b9b2fa2dead03",
        (5, "quadratic"): "28c48fadc45a182d0984db81d8af74e78d0c0330b65feccf049c627396d8913e",
    }

    @staticmethod
    def _density_digest(dimension, objective, pulls):
        arm = HpoArmSpec(
            objective=objective, dimension=dimension, strategy="density_estimator", mean_cost=1.5
        ).build(_rng(2024))
        digest = hashlib.sha256()
        for _ in range(pulls):
            reward, cost = arm.pull()
            digest.update(f"{float(reward).hex()} {float(cost).hex()}\n".encode())
        return digest.hexdigest()

    @pytest.mark.parametrize("dimension, objective", sorted(DENSITY_DIGESTS))
    def test_density_golden_digests(self, dimension, objective):
        assert self._density_digest(dimension, objective, 150) == self.DENSITY_DIGESTS[dimension, objective]

    def test_density_golden_digest_long_history(self):
        # The history lengths a budget run's surviving arm reaches (about a
        # thousand trials at dimension 3), past four doublings of the buffers.
        assert self._density_digest(3, "rosenbrock", 1000) == (
            "378651a4816f6f832fa3a6d8747a2af375fdc420c4908c01e12fbefd177e5e1e"
        )

    def test_reward_monotone_and_in_unit_interval(self):
        for objective in ("sphere", "rosenbrock", "quadratic"):
            for strategy in ("random", "density_estimator"):
                arm = HpoArmSpec(objective=objective, dimension=3, strategy=strategy).build(_rng(1))
                prev = -1.0
                for _ in range(30):
                    reward, cost = arm.pull()
                    assert 0.0 <= reward <= 1.0
                    assert reward >= prev
                    assert cost > 0.0
                    prev = reward

    def test_first_reward_is_zero(self):
        # The first trial is the normalization reference, so it scores zero.
        arm = HpoArmSpec(objective="sphere", dimension=2).build(_rng(9))
        reward, _ = arm.pull()
        assert reward == 0.0

    def test_zero_first_loss_scores_one_on_every_pull(self, monkeypatch):
        # A first trial already at the minimum leaves no loss to normalise by.
        monkeypatch.setattr(hpo.ToyObjective, "loss", lambda self, x: 0.0)
        arm = HpoArmSpec(objective="sphere", dimension=2).build(_rng(9))
        assert [arm.pull()[0] for _ in range(5)] == [1.0] * 5

    def test_next_cost_is_exact_and_varies(self):
        arm = HpoArmSpec(objective="sphere", dimension=2, mean_cost=5.0).build(_rng(4))
        costs = []
        for _ in range(10):
            peeked = arm.next_cost
            _, cost = arm.pull()
            assert cost == peeked
            assert 0.8 * 5.0 <= cost <= 1.2 * 5.0
            costs.append(cost)
        assert len(set(costs)) > 1

    @settings(max_examples=40, deadline=None)
    @given(mean_cost=st.floats(1e-6, 1e6), seed=st.integers(0, 2**63))
    def test_costs_are_uniform_draws_from_the_cost_stream(self, mean_cost, seed):
        # The cost stream is seeded by the arm's first draw; the arm draws
        # low + (high - low) * random(), which is what Generator.uniform returns.
        arm = HpoArmSpec(objective="sphere", dimension=2, mean_cost=mean_cost).build(_rng(seed))
        twin = np.random.Generator(np.random.PCG64(_rng(seed).integers(0, 2**63)))
        for _ in range(12):
            assert arm.next_cost == mean_cost * twin.uniform(0.8, 1.2)
            arm.pull()

    def test_rejects_bad_configuration(self):
        with pytest.raises(ConfigurationError, match="unknown objective"):
            HpoArmSpec(objective="nope", dimension=2)
        with pytest.raises(ConfigurationError, match="unknown search strategy"):
            HpoArmSpec(objective="sphere", dimension=2, strategy="nope")
        with pytest.raises(ConfigurationError, match="mean cost must be positive"):
            HpoArmSpec(objective="sphere", dimension=2, mean_cost=0.0)

    @pytest.mark.parametrize("mean_cost", [math.nan, math.inf])
    def test_rejects_non_finite_mean_cost_as_such(self, mean_cost):
        # Checked before the overflow test, which would misname a NaN.
        with pytest.raises(ConfigurationError, match="^mean cost must be positive and finite"):
            HpoArmSpec(mean_cost=mean_cost)

    def test_largest_mean_cost_draws_finite_costs(self):
        # 1.6e308 is rejected (tests/test_config.py): 1.2 times it overflows.
        arm = HpoArmSpec(objective="sphere", dimension=2, mean_cost=1.4e308).build(_rng(3))
        assert all(math.isfinite(arm.pull()[1]) for _ in range(20))


class TestInstanceSpec:
    def test_curves_returns_ground_truth_for_curve_arms(self):
        spec = InstanceSpec([CurveArmSpec(CURVE), CurveArmSpec(CURVE)])
        assert len(spec.arms) == 2
        assert spec.curves() == [CURVE, CURVE]

    def test_curves_is_none_with_any_nondeterministic_arm(self):
        spec = InstanceSpec([CurveArmSpec(CURVE), HpoArmSpec()])
        assert spec.curves() is None
        spec = InstanceSpec([CurveArmSpec(CURVE, noise_amplitude=0.1)])
        assert spec.curves() is None

    def test_zero_amplitude_counts_as_exact(self):
        spec = InstanceSpec([CurveArmSpec(CURVE, noise_amplitude=0.0), CurveArmSpec(CURVE, cost=2.0)])
        assert spec.curves() == [CURVE, CURVE]


class TestMakeInstance:
    def test_rejects_empty_instance(self):
        # The spec refuses when it is made, so make_instance never sees one.
        with pytest.raises(ConfigurationError, match="at least one arm"):
            InstanceSpec([])

    def test_deterministic_per_seed(self):
        spec = InstanceSpec(
            [CurveArmSpec(CURVE, noise_amplitude=0.1), HpoArmSpec(objective="sphere")]
        )
        runs = []
        for _ in range(2):
            arms = make_instance(spec, 42)
            runs.append([arm.pull() for arm in arms for _ in range(5)])
        assert runs[0] == runs[1]

    def test_arm_streams_independent_of_other_arms(self):
        noisy = CurveArmSpec(CURVE, noise_amplitude=0.1)
        alone = make_instance(InstanceSpec([CurveArmSpec(CURVE), noisy]), 5)[1]
        crowded = make_instance(InstanceSpec([HpoArmSpec(), noisy, HpoArmSpec()]), 5)
        # Same position, same seed: the neighbouring arms changed but not the stream.
        assert [alone.pull() for _ in range(8)] == [crowded[1].pull() for _ in range(8)]

    def test_wraps_build_errors_with_arm_index(self):
        # A dimension that is not an integer is refused when the spec is made,
        # so every spec that is made also builds and no build error is wrapped.
        for dimension in (2.5, 3.0):
            message = rf"^objective dimension must be in \[2, 5\], got {dimension}$"
            with pytest.raises(ConfigurationError, match=message):
                HpoArmSpec(dimension=dimension)
        make_instance(InstanceSpec([HpoArmSpec(dimension=np.int64(3))]), 0)

    @pytest.mark.parametrize(
        "kinds, keys",
        [
            (["exact", "exact", "exact"], []),
            (["exact", "noisy", "hpo", "exact"], [(2,), (3,)]),
        ],
        ids=["exact_only", "mixed"],
    )
    def test_builds_a_stream_only_for_each_arm_that_draws(self, monkeypatch, kinds, keys):
        # An exact arm never draws, so it gets no PCG64; one that draws keeps
        # its spawn key (idx,).  The hpo arm seeds its cost stream's PCG64
        # with an integer from its own stream.
        specs = {
            "exact": CurveArmSpec(CURVE),
            "noisy": CurveArmSpec(CURVE, noise_amplitude=0.1),
            "hpo": HpoArmSpec(objective="sphere"),
        }
        seeds = []
        real = np.random.PCG64

        def counted(seed):
            seeds.append(seed)
            return real(seed)

        monkeypatch.setattr(np.random, "PCG64", counted)
        make_instance(InstanceSpec([specs[kind] for kind in kinds]), 5)
        streams = [seed for seed in seeds if isinstance(seed, np.random.SeedSequence)]
        assert [seed.spawn_key for seed in streams] == keys
        assert len(seeds) == len(keys) + kinds.count("hpo")

    def test_accepts_seed_sequence(self):
        seq = np.random.SeedSequence(7, spawn_key=(1, 2))
        spec = InstanceSpec([CurveArmSpec(CURVE, noise_amplitude=0.1)])
        a = make_instance(spec, seq)[0]
        b = make_instance(spec, seq)[0]
        assert a.pull() == b.pull()
