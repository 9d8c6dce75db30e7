"""Equivalence of the vectorized planner fast path with the scalar upper bound.

``upper_bounds_batch`` must be *bit-identical* to per-config ``upper_bound`` over the
whole configuration space — the planner's ranking (and therefore every selected
configuration) is exactly the seed behaviour, only cheaper.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cloud.config import HeterogeneousConfig
from repro.cloud.instances import InstanceCatalog
from repro.cloud.profiles import ProfileRegistry, TabulatedLatencyProfile
from repro.core.config_space import ConfigSpace, _space, config_space, enumerate_configs
from repro.core.controller import BatchWindow, ElasticKairosController
from repro.core.kairos import KairosPlanner
from repro.core.upper_bound import (
    ThroughputUpperBoundEstimator,
    _grouped_bounds,
    upper_bound_from_rates,
)
from repro.workload.batch_sizes import (
    GaussianBatchSizes,
    production_batch_distribution,
)
from repro.workload.query import Query


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

    @pytest.mark.parametrize(
        "window",
        [
            [600, 900],  # RM2's cutoffs 525/796/947 see f = 0, 1/2 and 1 in one call
            [1, 1, 2],  # f = 1 for every cutoff
            [1000, 999],  # f = 0 for every cutoff
            [300, 600, 800, 1000],  # every f strictly between 0 and 1
        ],
    )
    def test_bit_identical_when_groups_take_different_branches(
        self, profiles, rm2, catalog, rng, window
    ):
        estimator = ThroughputUpperBoundEstimator(profiles, rm2, window)
        configs = random_configs(catalog, rng)
        space = config_space(2.5, catalog)
        for configs in (configs, space):
            batch = estimator.upper_bounds_batch(configs)
            scalar = np.asarray([estimator.upper_bound(c) for c in configs], dtype=float)
            assert batch.tobytes() == scalar.tobytes()

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

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=6),  # base count, 0 included
                st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e4)),
                st.floats(min_value=1e-3, max_value=1e4),  # Q_b^{s+}
                st.one_of(
                    st.sampled_from([0.0, 1.0, 1.0 - 1e-13, 1e-9, 5e-324, 0.5]),
                    st.floats(min_value=0.0, max_value=1.0),
                ),
            ),
            min_size=1,
            max_size=40,
        ),
        st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e4)),  # q_b
    )
    def test_one_pass_matches_the_scalar_case_for_case(self, rows, q_b):
        """Every branch of Eq. 15 (no base, no aux rate, f = 0, f = 1 and the two
        bottlenecks), mixed in one call, gets the scalar's bits."""
        rows = sorted(rows, key=lambda row: row[0] != 0)  # the base-less rows first
        base, rate, q_b_splus, f = (np.asarray(col, dtype=float) for col in zip(*rows))
        baseless = int(np.count_nonzero(base == 0))
        batch = _grouped_bounds(base, rate, q_b, q_b_splus, f, baseless)
        scalar = np.asarray(
            [
                upper_bound_from_rates(int(u), q_b, splus, [(1, r)], share)
                for u, r, splus, share in rows
            ]
        )
        assert batch.tobytes() == scalar.tobytes()


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


    @given(
        st.lists(st.integers(min_value=1, max_value=1000), min_size=1, max_size=160),
        st.lists(
            st.one_of(
                st.integers(min_value=0, max_value=200),  # rotate the multiset
                st.lists(  # or a new window, small batches included
                    st.integers(min_value=1, max_value=1000), min_size=1, max_size=160
                ),
            ),
            min_size=1,
            max_size=5,
        ),
    )
    def test_replanned_windows_match_fresh_and_scalar(self, profiles, multiset, windows):
        """Re-planned bounds, over any sequence of windows (rotations of one
        multiset among them), equal a fresh estimator's and the scalar bound's
        bit for bit, and every cutoff's rates equal np.mean over the profiles."""
        rm2 = profiles.models["RM2"]
        space = config_space(2.5, profiles.catalog)
        estimator = ThroughputUpperBoundEstimator(profiles, rm2, multiset)
        estimator.upper_bounds_batch(space)  # cache the layout
        for window in windows:
            if isinstance(window, int):
                shift = window % len(multiset)
                window = multiset[shift:] + multiset[:shift]
            samples = np.asarray(window)
            estimator.update_samples(samples)
            fresh = ThroughputUpperBoundEstimator(profiles, rm2, samples)
            bounds = estimator.upper_bounds_batch(space)
            assert bounds.tobytes() == fresh.upper_bounds_batch(space).tobytes()
            scalar = np.asarray([fresh.upper_bound(c) for c in space], dtype=float)
            assert bounds.tobytes() == scalar.tobytes()
            for s in sorted({estimator.cutoff_of(t.name) for t in profiles.catalog.types}):
                f, q_b_splus, q_a_by_type = estimator._rates_for_cutoff(s)
                below = samples[samples <= s]
                above = samples[samples > s]
                assert f == below.size / samples.size
                base = profiles.catalog.base_type.name
                if above.size:
                    assert q_b_splus == _np_mean_rate(profiles, rm2, base, above)
                for name, q_a in q_a_by_type.items():
                    if below.size and estimator.cutoff_of(name):
                        assert q_a == _np_mean_rate(profiles, rm2, name, below)
                    else:
                        assert q_a == 0.0

    @given(
        st.integers(min_value=0, max_value=12),
        st.lists(
            st.one_of(
                st.integers(min_value=1, max_value=1000),  # an arrival
                st.lists(st.integers(min_value=1, max_value=1000), max_size=30),  # a prime
            ),
            max_size=40,
        ),
    )
    def test_ring_window_lists_the_deque_order(self, capacity, steps):
        """The ring buffer lists its window as ``deque(maxlen=capacity)`` would,
        after priming (into a filled ring too), after wrap-around and at every
        step in between."""
        window = BatchWindow(capacity)
        reference = deque(maxlen=capacity)
        samples = window.samples()
        for step in steps:
            version = window.version
            listed = samples.tolist()
            if isinstance(step, int):
                window.append(step)
                reference.append(step)
                assert window.version == version + 1
            else:
                window.extend(step)
                reference.extend(step)
                assert window.version == version + len(step)
            assert samples.tolist() == listed  # a listed window is the caller's own
            assert len(window) == len(reference)
            samples = window.samples()
            assert samples.tolist() == list(reference)

    def test_controller_window_after_prime_and_wrap(self, profiles):
        controller = ElasticKairosController(
            "RM2", 2.5, 100.0, profiles=profiles, monitor_window=50, rng=0
        )
        reference = deque(maxlen=50)
        primed = list(range(1, 41))
        controller.prime_monitor(primed)
        reference.extend(primed)
        plan = controller.initial_plan()
        assert controller._batch_window.samples().tolist() == list(reference)
        assert plan.selected_config == KairosPlanner(
            "RM2", plan.budget_per_hour, profiles=profiles, batch_samples=list(reference)
        ).plan().selected_config
        for t, b in enumerate(range(500, 530)):  # wraps the 50-slot ring
            query = Query(query_id=t, arrival_time_ms=float(t), batch_size=b)
            controller.observe_arrival(query, float(t))
            reference.append(b)
        assert controller._batch_window.samples().tolist() == list(reference)


def _np_mean_rate(profiles, model, type_name, batches):
    """The rate the seed computed: 1000 over ``np.mean`` of the profiled latencies."""
    latencies = np.asarray(profiles.latency_ms(model, type_name, batches), dtype=float)
    return 1000.0 / float(np.mean(latencies))


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
