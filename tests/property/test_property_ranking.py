"""Property tests for head-only ranking (``ranking_order``, lazy ``KairosPlan.ranked``).

The planner sorts only the head of the upper-bound ranking that selection reads.
The head must be exactly the stable full argsort's prefix, tie order included, and
the full ranking a plan builds on demand must equal ``rank_configs``.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cloud.config import HeterogeneousConfig
from repro.core.config_space import config_space
from repro.core.kairos import KairosPlanner
from repro.core.upper_bound import ranking_order

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
random_bounds = st.lists(finite, min_size=1, max_size=60)
# a handful of distinct values (signed zeros included): most bounds tie
tie_heavy_bounds = st.lists(
    st.sampled_from((0.0, -0.0, 1.5, 3.0, 7.25)), min_size=1, max_size=60
)
all_equal_bounds = st.tuples(finite, st.integers(1, 60)).map(lambda p: [p[0]] * p[1])
any_bounds = st.one_of(random_bounds, tie_heavy_bounds, all_equal_bounds)


def full_order(bounds):
    return np.argsort(-np.asarray(bounds, dtype=float), kind="stable")


@settings(max_examples=200, deadline=None)
@given(bounds=any_bounds, k=st.integers(1, 80))
def test_head_is_the_stable_argsort_prefix(bounds, k):
    values = np.asarray(bounds, dtype=float)
    head = ranking_order(values, k)
    full = full_order(values)
    assert len(head) >= min(k, len(values))
    assert np.array_equal(head, full[: len(head)])
    if len(head) < len(values):
        # everything left out ranks strictly below the k-th bound
        assert values[full[len(head):]].max() < values[head[k - 1]]


@settings(max_examples=50, deadline=None)
@given(bounds=any_bounds)
def test_k_at_or_past_the_length_orders_everything(bounds):
    values = np.asarray(bounds, dtype=float)
    for k in (len(values), len(values) + 5, None):
        assert np.array_equal(ranking_order(values, k), full_order(values))


def test_nan_bounds_sort_last_like_argsort():
    values = np.asarray([np.nan, 2.0, np.nan, 5.0, 2.0])
    full = full_order(values)
    for k in range(1, 6):
        head = ranking_order(values, k)
        assert np.array_equal(head, full[: len(head)])


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    mean=st.floats(min_value=5.0, max_value=900.0),
    picks=st.lists(st.integers(0, 10_000), min_size=1, max_size=40),
)
def test_lazy_ranking_matches_rank_configs(profiles, catalog, seed, mean, picks):
    rng = np.random.default_rng(seed)
    samples = np.clip(rng.normal(mean, mean / 3.0, size=800), 1, 1000).astype(int)
    planner = KairosPlanner("RM2", 2.5, profiles=profiles, batch_samples=samples)
    space = config_space(2.5, catalog)
    # an explicit list with repeats: every repeat ties with its twin
    explicit = [space[i % len(space)] for i in picks] + [HeterogeneousConfig.empty(catalog)]
    for configs in (None, explicit):
        plan = planner.plan(configs)
        ranked_space = space if configs is None else configs
        expected = tuple(planner.estimator.rank_configs(ranked_space))
        head = len(plan.head)
        assert plan.head == expected[:head]
        assert plan.selected_upper_bound == dict(plan.head)[plan.selected_config]
        assert plan.top(head + 7) == list(expected[: head + 7])  # past the head
        assert plan.ranked == expected
        assert plan.top(3) == list(expected[:3])
