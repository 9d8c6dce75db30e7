"""Tests for repro.core.config_space."""

import itertools

import numpy as np
import pytest

from repro.cloud.instances import DEFAULT_INSTANCE_CATALOG, InstanceCatalog
from repro.core.config_space import (
    SPACE_CACHE_SIZE,
    ConfigSpace,
    _space,
    config_space,
    enumerate_configs,
    homogeneous_configs,
    search_space_size,
)


class TestEnumerateConfigs:
    def test_all_within_budget(self):
        configs = enumerate_configs(2.5)
        assert configs
        assert all(c.fits_budget(2.5) for c in configs)

    def test_no_empty_config(self):
        configs = enumerate_configs(2.5)
        assert all(c.total_instances >= 1 for c in configs)

    def test_no_duplicates(self):
        configs = enumerate_configs(2.5)
        keys = {c.counts for c in configs}
        assert len(keys) == len(configs)

    def test_complete_against_brute_force_small_budget(self):
        budget = 1.2
        configs = {c.counts for c in enumerate_configs(budget)}
        prices = DEFAULT_INSTANCE_CATALOG.price_vector()
        maxes = [int(budget // p) + 1 for p in prices]
        brute = set()
        for counts in itertools.product(*[range(m + 1) for m in maxes]):
            cost = sum(c * p for c, p in zip(counts, prices))
            if cost <= budget + 1e-9 and sum(counts) >= 1:
                brute.add(counts)
        assert configs == brute

    def test_default_budget_search_space_order_of_hundreds(self):
        # The paper quotes an order-of-1000 search space at the 2.5 $/hr budget.
        size = search_space_size(2.5)
        assert 300 <= size <= 3000

    def test_min_base_count(self):
        configs = enumerate_configs(2.5, min_base_count=2)
        assert all(c.base_count >= 2 for c in configs)

    def test_min_total_instances(self):
        configs = enumerate_configs(2.5, min_total_instances=5)
        assert all(c.total_instances >= 5 for c in configs)

    def test_max_per_type(self):
        configs = enumerate_configs(2.5, max_per_type=2)
        assert all(max(c.counts) <= 2 for c in configs)

    def test_budget_scaling_grows_space(self):
        assert search_space_size(10.0, max_per_type=6) > search_space_size(2.5, max_per_type=6)

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            enumerate_configs(0.0)

    def test_invalid_min_base(self):
        with pytest.raises(ValueError):
            enumerate_configs(2.5, min_base_count=-1)


class TestHomogeneousConfigs:
    def test_one_per_affordable_type(self):
        configs = homogeneous_configs(2.5)
        assert len(configs) == 4
        by_type = {c.catalog.names[i]: c for c in configs for i, n in enumerate(c.counts) if n}
        assert by_type["g4dn.xlarge"].counts == (4, 0, 0, 0)
        assert by_type["r5n.large"].counts == (0, 0, 16, 0)

    def test_small_budget_excludes_unaffordable_types(self):
        configs = homogeneous_configs(0.2)
        names = {c.catalog.names[i] for c in configs for i, n in enumerate(c.counts) if n}
        assert names == {"r5n.large", "t3.xlarge"}


def _uncached(budget, catalog=DEFAULT_INSTANCE_CATALOG, *, min_base_count=0,
              min_total_instances=1, max_per_type=None):
    """A fresh enumeration that bypasses (and leaves untouched) the memo."""
    return _space.__wrapped__(
        float(budget),
        catalog,
        tuple(catalog.price_vector()),
        min_base_count,
        min_total_instances,
        max_per_type,
    )


class TestMemoizedSpace:
    def test_memoized_space_matches_uncached_enumeration(self):
        fresh = _uncached(2.5, max_per_type=5)
        for _ in range(2):  # the first call may build, the second must hit
            assert enumerate_configs(2.5, max_per_type=5) == list(fresh.configs)

    def test_repeat_call_hits_the_cache(self):
        _space.cache_clear()
        first = config_space(2.5)
        second = config_space(2.5)
        assert first is second
        info = _space.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_returned_list_is_fresh_and_mutation_safe(self):
        first = enumerate_configs(2.5)
        second = enumerate_configs(2.5)
        assert first == second and first is not second
        expected = list(second)
        first.reverse()
        first.pop()
        first.append(first[0])
        assert enumerate_configs(2.5) == expected

    def test_shared_space_is_read_only(self):
        space = config_space(2.5)
        assert isinstance(space.configs, tuple)
        with pytest.raises(ValueError):
            space.counts[0, 0] = 99

    def test_count_matrix_matches_configs(self):
        space = config_space(2.5, max_per_type=4)
        assert space.counts.shape == (len(space), len(DEFAULT_INSTANCE_CATALOG))
        assert space.counts.dtype == np.asarray([1], dtype=int).dtype
        np.testing.assert_array_equal(space.counts, [c.counts for c in space])

    def test_empty_space_has_an_empty_matrix(self):
        space = config_space(0.1)  # below the cheapest type's price
        assert len(space) == 0 and not space
        assert space.counts.shape == (0, len(DEFAULT_INSTANCE_CATALOG))

    def test_distinct_catalogs_never_share_an_entry(self):
        twin = InstanceCatalog(DEFAULT_INSTANCE_CATALOG.types, base_type="g4dn.xlarge")
        ours = config_space(2.5)
        theirs = config_space(2.5, twin)
        assert theirs is not ours
        assert [c.counts for c in theirs] == [c.counts for c in ours]
        assert all(c.catalog is twin for c in theirs)
        assert all(c.catalog is DEFAULT_INSTANCE_CATALOG for c in ours)

    def test_key_covers_every_bound(self):
        base = config_space(2.5)
        assert config_space(2.5, min_base_count=1) is not base
        assert config_space(2.5, min_total_instances=0) is not base
        assert config_space(2.5, max_per_type=3) is not base
        assert config_space(2.6) is not base

    def test_price_override_pins_unoffered_types_at_zero(self):
        prices = [None, 0.2, None, 0.1]
        space = config_space(1.0, prices=prices, min_total_instances=0)
        assert space[0].is_empty()
        assert all(c.counts[0] == 0 and c.counts[2] == 0 for c in space)
        assert all(0.2 * c.counts[1] + 0.1 * c.counts[3] <= 1.0 + 1e-9 for c in space)
        with pytest.raises(ValueError):
            config_space(1.0, prices=[0.2, 0.1])

    def test_cache_is_bounded(self):
        _space.cache_clear()
        for k in range(SPACE_CACHE_SIZE + 3):
            config_space(1.0 + 0.01 * k, max_per_type=2)
        assert _space.cache_info().currsize == SPACE_CACHE_SIZE

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"budget_per_hour": 0.0},
            {"budget_per_hour": -1.0},
            {"budget_per_hour": 2.5, "min_base_count": -1},
            {"budget_per_hour": 2.5, "min_total_instances": -1},
        ],
    )
    def test_invalid_input_raises_on_every_call(self, kwargs):
        config_space(2.5)  # a valid entry for the same budget is already cached
        for _ in range(3):
            with pytest.raises(ValueError):
                enumerate_configs(**kwargs)
            with pytest.raises(ValueError):
                config_space(**kwargs)

    def test_config_space_is_a_sequence_of_configs(self):
        space = config_space(2.5, max_per_type=2)
        assert isinstance(space, ConfigSpace)
        assert list(space) == list(space.configs)
        assert space[3] is space.configs[3]
        assert search_space_size(2.5, max_per_type=2) == len(space)
