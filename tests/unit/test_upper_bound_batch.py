"""Equivalence of the vectorized planner fast path with the scalar upper bound.

``upper_bounds_batch`` must be *bit-identical* to per-config ``upper_bound`` over the
whole configuration space — the planner's ranking (and therefore every selected
configuration) is exactly the seed behaviour, only cheaper.
"""

import numpy as np
import pytest

from repro.cloud.config import HeterogeneousConfig
from repro.cloud.instances import InstanceCatalog
from repro.cloud.profiles import ProfileRegistry, TabulatedLatencyProfile
from repro.core.config_space import ConfigSpace, _space, config_space, enumerate_configs
from repro.core.kairos import KairosPlanner
from repro.core.upper_bound import ThroughputUpperBoundEstimator
from repro.workload.batch_sizes import (
    GaussianBatchSizes,
    production_batch_distribution,
)


@pytest.fixture
def estimator(profiles, rm2):
    samples = production_batch_distribution().sample(3000, np.random.default_rng(42))
    return ThroughputUpperBoundEstimator(profiles, rm2, samples)


def random_configs(catalog, rng, count=300, max_count=6):
    """A randomized space including the degenerate corners the branches care about."""
    configs = [
        HeterogeneousConfig(tuple(int(c) for c in row), catalog)
        for row in rng.integers(0, max_count + 1, size=(count, len(catalog)))
    ]
    configs.append(HeterogeneousConfig.empty(catalog))  # all-zero
    configs.append(HeterogeneousConfig.homogeneous(catalog.base_type.name, 3, catalog))
    for aux in catalog.auxiliary_types:
        configs.append(HeterogeneousConfig.homogeneous(aux.name, 4, catalog))  # base-free
    return configs


class TestBatchEquivalence:
    def test_bit_identical_over_randomized_space(self, estimator, catalog, rng):
        configs = random_configs(catalog, rng)
        batch = estimator.upper_bounds_batch(configs)
        scalar = np.asarray([estimator.upper_bound(c) for c in configs], dtype=float)
        assert np.array_equal(batch, scalar)  # exact, not approx

    def test_bit_identical_over_budget_space(self, estimator, catalog):
        space = enumerate_configs(2.5, catalog)
        batch = estimator.upper_bounds_batch(space)
        scalar = np.asarray([estimator.upper_bound(c) for c in space], dtype=float)
        assert np.array_equal(batch, scalar)
        # the memoized space ranks its cached count matrix: same bits
        assert np.array_equal(estimator.upper_bounds_batch(config_space(2.5, catalog)), scalar)

    def test_foreign_catalog_space_takes_the_scalar_path(self, estimator, catalog):
        reordered = InstanceCatalog(list(reversed(catalog.types)), base_type="g4dn.xlarge")
        space = config_space(1.5, reordered)
        scalar = np.asarray([estimator.upper_bound(c) for c in space], dtype=float)
        assert np.array_equal(estimator.upper_bounds_batch(space), scalar)

    def test_upper_bounds_routes_through_batch(self, estimator, catalog, rng):
        configs = random_configs(catalog, rng, count=40)
        assert np.array_equal(
            estimator.upper_bounds(configs), estimator.upper_bounds_batch(configs)
        )

    def test_rank_configs_preserves_seed_ordering(self, estimator, catalog):
        space = enumerate_configs(1.5, catalog)
        ranked = estimator.rank_configs(space)
        bounds = np.asarray([estimator.upper_bound(c) for c in space], dtype=float)
        order = np.argsort(-bounds, kind="stable")
        expected = [(space[int(i)], float(bounds[int(i)])) for i in order]
        assert ranked == expected
        assert estimator.rank_configs(config_space(1.5, catalog)) == expected

    def test_empty_input(self, estimator):
        out = estimator.upper_bounds_batch([])
        assert out.shape == (0,)


class TestUpdateSamples:
    def test_matches_freshly_built_estimator(self, estimator, profiles, rm2, catalog, rng):
        new_samples = GaussianBatchSizes(mean=600, std=150).sample(2000, 7)
        estimator.update_samples(new_samples)
        fresh = ThroughputUpperBoundEstimator(profiles, rm2, new_samples)
        configs = random_configs(catalog, rng, count=120)
        assert np.array_equal(
            estimator.upper_bounds_batch(configs), fresh.upper_bounds_batch(configs)
        )

    def test_cutoff_table_is_kept(self, estimator, catalog):
        cutoffs_before = {t.name: estimator.cutoff_of(t.name) for t in catalog.types}
        estimator.update_samples([1, 2, 3] * 50)
        assert {t.name: estimator.cutoff_of(t.name) for t in catalog.types} == cutoffs_before

    def test_invalid_samples_rejected(self, estimator):
        with pytest.raises(ValueError):
            estimator.update_samples([])
        with pytest.raises(ValueError):
            estimator.update_samples([0, 5])

    def test_planner_updates_in_place(self, profiles):
        planner = KairosPlanner(
            "RM2", 2.5, profiles=profiles,
            batch_distribution=production_batch_distribution(), rng=0,
        )
        before = planner.estimator
        planner.update_batch_samples([10, 50, 200, 900] * 100)
        # the estimator (and its cutoff table) survives; only the window is swapped
        assert planner.estimator is before
        rebuilt = ThroughputUpperBoundEstimator(
            profiles, planner.model, planner.batch_samples, catalog=planner.catalog
        )
        space = enumerate_configs(2.5, planner.catalog)
        assert np.array_equal(
            planner.estimator.upper_bounds_batch(space), rebuilt.upper_bounds_batch(space)
        )


def tabulated_registry(profiles, model):
    """The default profiles resampled as bent piecewise-linear tables (extrapolating)."""
    table = {}
    for itype in profiles.catalog.types:
        linear = profiles.profile(model, itype.name)
        points = (1.0, 24.0, 96.0, 250.0, 640.0)
        table[(model.name, itype.name)] = TabulatedLatencyProfile(
            batch_points=points,
            latency_points_ms=tuple(
                float(linear.latency_ms(b)) * (1.0 + 0.1 * np.sin(b)) for b in points
            ),
        )
    return ProfileRegistry(table, profiles.catalog, profiles.models)


class TestEstimatorCaches:
    @pytest.mark.parametrize("kind", ["linear", "tabulated"])
    def test_table_gathered_rates_equal_profile_evaluation(self, profiles, rm2, kind):
        registry = profiles if kind == "linear" else tabulated_registry(profiles, rm2)
        rng = np.random.default_rng(5)
        # sizes past the model's maximum grow the tables beyond the profiled range
        first = rng.integers(1, rm2.max_batch_size // 2, size=700)
        second = rng.integers(1, 3 * rm2.max_batch_size, size=900)
        estimator = ThroughputUpperBoundEstimator(registry, rm2, first)
        for samples in (first, second):
            estimator.update_samples(samples)
            for itype in registry.catalog.types:
                below = samples <= estimator.cutoff_of(itype.name)
                for batches in (samples, samples[below], samples[~below]):
                    if batches.size == 0:
                        continue
                    direct = np.asarray(
                        registry.latency_ms(rm2, itype.name, batches), dtype=float
                    )
                    expected = 1000.0 / float(np.mean(direct))
                    assert estimator._mean_rate(itype.name, batches) == expected

    def test_layout_cached_bounds_match_a_fresh_estimator(self, profiles, rm2, catalog):
        space = config_space(2.5, catalog)
        estimator = ThroughputUpperBoundEstimator(profiles, rm2, [8, 64, 300] * 40)
        estimator.upper_bounds_batch(space)
        for mean in (30, 250, 700):
            samples = GaussianBatchSizes(mean=mean, std=mean / 3).sample(1500, mean)
            estimator.update_samples(samples)
            fresh = ThroughputUpperBoundEstimator(profiles, rm2, samples)
            assert np.array_equal(
                estimator.upper_bounds_batch(space), fresh.upper_bounds_batch(space)
            )
            scalar = np.asarray([fresh.upper_bound(c) for c in space], dtype=float)
            assert np.array_equal(estimator.upper_bounds_batch(space), scalar)

    def test_a_new_space_object_never_reuses_a_stale_layout(self, estimator, catalog):
        space = config_space(2.5, catalog)
        expected = np.asarray([estimator.upper_bound(c) for c in space], dtype=float)
        assert np.array_equal(estimator.upper_bounds_batch(space), expected)
        # same length, rows reversed: a layout reused by size or shape would misgroup
        reversed_space = ConfigSpace(
            catalog, tuple(reversed(space.configs)), space.counts[::-1].copy()
        )
        assert np.array_equal(estimator.upper_bounds_batch(reversed_space), expected[::-1])
        # the memo evicts and re-enumerates: an equal space in a new object
        _space.cache_clear()
        again = config_space(2.5, catalog)
        assert again is not space
        assert np.array_equal(estimator.upper_bounds_batch(again), expected)
        assert np.array_equal(estimator.upper_bounds_batch(space), expected)
