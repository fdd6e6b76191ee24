import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from risingbandits import hpo


def _broadcast_log_density(query, data, bw):
    # The sampler's original formula: one (queries, data, dim) broadcast,
    # reduced over its last axis. Kept here as the reference the per-axis
    # accumulation in hpo._log_density must equal bit for bit.
    diff = (query[:, None, :] - data[None, :, :]) / bw
    log_kernels = -0.5 * np.sum(diff**2, axis=2) - np.sum(np.log(bw))
    m = np.max(log_kernels, axis=1)
    return m + np.log(np.sum(np.exp(log_kernels - m[:, None]), axis=1) / len(data))


def _reference_propose(points, losses, objective, strategy, rng):
    # The sampler before SearchState kept its points in loss order: the trials
    # in arrival order, each half gathered through a stable argsort of the
    # losses, bandwidths from np.std, candidates through np.clip, densities
    # from the broadcast formula (which test_log_density_matches_broadcast_formula
    # holds equal to the per-axis sum). Kept here as the reference
    # hpo.propose must equal bit for bit.
    hw = objective.halfwidth
    dim = objective.dimension
    if strategy == "random" or len(points) < hpo._WARMUP_TRIALS:
        return rng.uniform(-hw, hw, size=dim)
    order = np.argsort(losses, kind="stable")
    pts = np.stack(points)
    n_good = max(2, len(order) // 2)
    good = pts[order[:n_good]]
    bad = pts[order[n_good:]]
    if len(bad) < 2:
        return rng.uniform(-hw, hw, size=dim)
    good_bw = _reference_bandwidths(good, hw)
    bad_bw = _reference_bandwidths(bad, hw)
    centers = good[rng.integers(0, len(good), size=hpo._N_CANDIDATES)]
    candidates = centers + rng.normal(size=(hpo._N_CANDIDATES, dim)) * good_bw
    candidates = np.clip(candidates, -hw, hw)
    scores = _broadcast_log_density(candidates, good, good_bw) - _broadcast_log_density(candidates, bad, bad_bw)
    return candidates[int(np.argmax(scores))]


def _reference_bandwidths(points, hw):
    return np.maximum(np.std(points, axis=0) * len(points) ** (-0.2), 1e-3 * hw)


def _at_edge_lengths(test):
    # History lengths where the sampler's behaviour changes: the end of the
    # warm-up, and the buffers doubling.
    for n in (7, 8, 9, 63, 64, 65, 127, 128, 129, 255, 256, 257):
        test = example(
            objective=hpo.OBJECTIVE_NAMES[n % 3], dim=2 + n % 4, n=n, levels=3, spread=1.0, seed=n
        )(test)
    return test


@_at_edge_lengths
@settings(max_examples=120, deadline=None)
@given(
    objective=st.sampled_from(hpo.OBJECTIVE_NAMES),
    dim=st.integers(2, 5),
    n=st.integers(0, 400),
    levels=st.sampled_from([None, 1, 3, 16]),
    spread=st.sampled_from([1.0, 1e-6]),
    seed=st.integers(0, 2**32 - 1),
)
def test_propose_matches_the_reference_sampler(objective, dim, n, levels, spread, seed):
    rng = np.random.default_rng(seed)
    obj = hpo.make_objective(objective, dim, rng)
    state = hpo.SearchState()
    points, losses = [], []
    for _ in range(n):
        # A narrow spread puts every bandwidth on its floor; a few loss
        # levels make many equal losses.
        point = rng.uniform(-obj.halfwidth, obj.halfwidth, size=dim) * spread
        loss = obj.loss(point) if levels is None else float(rng.integers(levels))
        state.add(point, loss)
        points.append(point)
        losses.append(loss)
    got_rng = np.random.default_rng(seed + 1)
    want_rng = np.random.default_rng(seed + 1)
    got = hpo.propose(state, obj, "density_estimator", got_rng)
    want = _reference_propose(points, losses, obj, "density_estimator", want_rng)
    assert np.array_equal(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@settings(max_examples=150, deadline=None)
@given(
    dim=st.integers(2, 5),
    n=st.integers(1, 700),
    spread=st.sampled_from([1.0, 1e-6]),
    seed=st.integers(0, 2**32 - 1),
)
@example(dim=3, n=600, spread=1.0, seed=0)
def test_bandwidths_match_np_std(dim, n, spread, seed):
    rng = np.random.default_rng(seed)
    hw = float(rng.choice([2.0, 3.0, 5.0]))
    # A loss-ordered half is a row slice of the store: C-order (n, dim).
    points = rng.uniform(-hw, hw, size=(n, dim)) * spread
    assert np.array_equal(hpo._bandwidths(points, hw), _reference_bandwidths(points, hw))


def test_warmup_leaves_two_points_in_each_half():
    # propose splits the history at n // 2 once n >= _WARMUP_TRIALS, so each
    # half then holds at least _WARMUP_TRIALS // 2 points; a bandwidth needs
    # two, and propose no longer checks.
    assert hpo._WARMUP_TRIALS // 2 >= 2


@settings(max_examples=150, deadline=None)
@given(
    dim=st.integers(2, 5),
    n=st.integers(2, 700),
    bandwidth=st.sampled_from(["scott", "floor", "mixed"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(dim=5, n=700, bandwidth="floor", seed=0)
@example(dim=2, n=2, bandwidth="scott", seed=1)
def test_log_density_matches_broadcast_formula(dim, n, bandwidth, seed):
    rng = np.random.default_rng(seed)
    hw = float(rng.choice([2.0, 3.0, 5.0]))
    data = rng.uniform(-hw, hw, size=(n, dim))
    bw = hpo._bandwidths(data, hw)
    floor = np.full(dim, 1e-3 * hw)
    if bandwidth == "floor":
        bw = floor
    elif bandwidth == "mixed":
        bw = np.where(rng.random(dim) < 0.5, floor, bw)
    # Candidates drawn around data points and clipped to the box, as propose does.
    centers = data[rng.integers(0, n, size=hpo._N_CANDIDATES)]
    query = np.clip(centers + rng.normal(size=(hpo._N_CANDIDATES, dim)) * bw, -hw, hw)
    assert np.array_equal(hpo._log_density(query, data, bw), _broadcast_log_density(query, data, bw))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from([0.0, 0.25, 1.0, 3.5, 1e9]), min_size=1, max_size=200))
def test_order_is_a_stable_argsort_of_the_losses(losses):
    # Trial i is the point (i, -i), so the store's rows name their trials.
    state = hpo.SearchState()
    for i, loss in enumerate(losses):
        state.add(np.array([float(i), -float(i)]), loss)
        order = np.argsort(losses[: i + 1], kind="stable")
        assert np.array_equal(state.points, np.stack([order, -order], axis=1).astype(float))


@settings(max_examples=20, deadline=None)
@given(dim=st.integers(2, 5), count=st.integers(0, 5 * hpo._INITIAL_CAPACITY + 1))
def test_buffer_keeps_every_point_as_it_grows(dim, count):
    rng = np.random.default_rng(count)
    state = hpo.SearchState()
    added = [rng.normal(size=dim) for _ in range(count)]
    losses = [float(rng.random()) for _ in range(count)]
    for point, loss in zip(added, losses):
        state.add(point, loss)
    assert len(state.points) == count
    if count:
        assert np.array_equal(state.points, np.stack(added)[np.argsort(losses, kind="stable")])


def test_buffer_holds_copies_of_the_points():
    state = hpo.SearchState()
    point = np.array([1.0, 2.0])
    state.add(point, 0.5)
    point[0] = 9.0
    assert state.points.tolist() == [[1.0, 2.0]]
