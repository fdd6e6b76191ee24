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
    state = hpo.SearchState()
    for i, loss in enumerate(losses):
        state.add(np.array([float(i), -float(i)]), loss)
        assert np.array_equal(state.order, np.argsort(losses[: i + 1], kind="stable"))


@settings(max_examples=20, deadline=None)
@given(dim=st.integers(2, 5), count=st.integers(0, 5 * hpo._INITIAL_CAPACITY + 1))
def test_buffer_keeps_every_point_as_it_grows(dim, count):
    rng = np.random.default_rng(count)
    state = hpo.SearchState()
    added = [rng.normal(size=dim) for _ in range(count)]
    for point in added:
        state.add(point, float(rng.random()))
    assert len(state.points) == len(state.order) == count
    if count:
        assert np.array_equal(state.points, np.stack(added))


def test_buffer_holds_copies_of_the_points():
    state = hpo.SearchState()
    point = np.array([1.0, 2.0])
    state.add(point, 0.5)
    point[0] = 9.0
    assert state.points.tolist() == [[1.0, 2.0]]
