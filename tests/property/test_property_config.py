"""Property-based tests for configurations and the configuration space."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cloud.config import HeterogeneousConfig, parse_config
from repro.core.config_space import _space, enumerate_configs

count_vectors = st.tuples(
    st.integers(0, 8), st.integers(0, 8), st.integers(0, 8), st.integers(0, 8)
)


@settings(max_examples=200, deadline=None)
@given(counts=count_vectors)
def test_cost_is_linear_in_counts(counts):
    config = HeterogeneousConfig(counts)
    prices = config.catalog.price_vector()
    expected = sum(c * p for c, p in zip(counts, prices))
    assert config.cost_per_hour() == np.float64(expected) or abs(
        config.cost_per_hour() - expected
    ) < 1e-9


@settings(max_examples=200, deadline=None)
@given(counts=count_vectors)
def test_string_roundtrip(counts):
    config = HeterogeneousConfig(counts)
    assert parse_config(str(config)).counts == config.counts


@settings(max_examples=200, deadline=None)
@given(a=count_vectors, b=count_vectors)
def test_sub_config_relation_is_antisymmetric(a, b):
    config_a, config_b = HeterogeneousConfig(a), HeterogeneousConfig(b)
    if config_a.is_sub_config_of(config_b):
        assert not config_b.is_sub_config_of(config_a)
        assert config_a.total_instances < config_b.total_instances
        assert config_a.cost_per_hour() <= config_b.cost_per_hour() + 1e-9


@settings(max_examples=200, deadline=None)
@given(a=count_vectors, extra=count_vectors)
def test_adding_instances_creates_super_config(a, extra):
    config = HeterogeneousConfig(a)
    bigger = config
    for name, count in zip(config.catalog.names, extra):
        if count:
            bigger = bigger.add(name, count)
    if bigger != config:
        assert config.is_sub_config_of(bigger)


@settings(max_examples=200, deadline=None)
@given(a=count_vectors, b=count_vectors)
def test_distance_is_symmetric_and_non_negative(a, b):
    config_a, config_b = HeterogeneousConfig(a), HeterogeneousConfig(b)
    d_ab = config_a.distance_squared(config_b)
    assert d_ab >= 0
    assert d_ab == config_b.distance_squared(config_a)
    assert config_a.distance_squared(config_a) == 0


@settings(max_examples=20, deadline=None)
@given(budget=st.floats(min_value=0.2, max_value=3.0))
def test_enumeration_is_budget_feasible_and_complete_at_boundary(budget):
    configs = enumerate_configs(budget, max_per_type=6)
    for config in configs:
        assert config.cost_per_hour() <= budget + 1e-9
        assert config.total_instances >= 1
    # every single-instance config of an affordable type must be present
    for itype in HeterogeneousConfig.empty().catalog.types:
        if itype.price_per_hour <= budget:
            single = HeterogeneousConfig.from_mapping({itype.name: 1})
            assert any(c.counts == single.counts for c in configs)


@settings(max_examples=40, deadline=None)
@given(
    budget=st.floats(0.1, 2.0, allow_nan=False, allow_infinity=False),
    max_per_type=st.one_of(st.none(), st.integers(0, 4)),
    min_base_count=st.integers(0, 3),
    min_total_instances=st.integers(0, 4),
)
def test_memoized_space_equals_an_uncached_enumeration(
    budget, max_per_type, min_base_count, min_total_instances
):
    kwargs = dict(
        min_base_count=min_base_count,
        min_total_instances=min_total_instances,
        max_per_type=max_per_type,
    )
    catalog = HeterogeneousConfig.empty().catalog
    fresh = _space.__wrapped__(
        budget,
        catalog,
        tuple(catalog.price_vector()),
        min_base_count,
        min_total_instances,
        max_per_type,
    )
    # First call may build the entry, the second is served from the memo: both must
    # match a fresh enumeration in content and order.
    for _ in range(2):
        configs = enumerate_configs(budget, **kwargs)
        assert configs == list(fresh.configs)
        assert [list(c.counts) for c in configs] == fresh.counts.tolist()
    assert all(c.fits_budget(budget) for c in configs)
