"""The vectorized cost-matrix fast path: call counts, golden equivalence, empty cases.

The optimization contract is strict: one ``predict_many_ms`` call per instance *type*
per scheduling round (instead of one per server), and an ``L`` matrix element-wise
identical to the seed per-server implementation (reproduced here as
``reference_build_cost_matrix``).  Single-query rounds that mask ineligible servers
on the full column layout must decide exactly as a from-scratch round over the
eligible servers (``reference_single_round`` / ``reference_joint_single_round``),
with the same estimator calls and noisy-estimator RNG stream.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from repro.cloud.config import HeterogeneousConfig
from repro.core.cost_matrix import CostMatrix, build_cost_matrix
from repro.core.latency_model import (
    LatencyEstimator,
    OnlineLatencyEstimator,
    PerfectLatencyEstimator,
)
from repro.schedulers.kairos_policy import KairosPolicy
from repro.sim.cluster import Cluster
from repro.workload.query import Query


class CountingEstimator(LatencyEstimator):
    """Delegates to an inner estimator, counting ``predict_many_ms`` calls per type."""

    def __init__(self, inner: LatencyEstimator):
        self.inner = inner
        self.many_calls = Counter()
        self.scalar_calls = Counter()

    def predict_ms(self, instance_type, batch_size):
        self.scalar_calls[instance_type] += 1
        return self.inner.predict_ms(instance_type, batch_size)

    def predict_many_ms(self, instance_type, batch_sizes):
        self.many_calls[instance_type] += 1
        return self.inner.predict_many_ms(instance_type, batch_sizes)

    def observe(self, instance_type, batch_size, latency_ms):
        self.inner.observe(instance_type, batch_size, latency_ms)


def reference_build_cost_matrix(queries, servers, estimator, now_ms, qos_ms, coefficients):
    """The seed implementation: one estimator call per *server*, per-column assembly."""
    m, n = len(queries), len(servers)
    batches = np.asarray([q.batch_size for q in queries], dtype=int)
    waits = np.asarray([q.waiting_time_ms(now_ms) for q in queries], dtype=float)
    usage = np.empty((m, n), dtype=float)
    weights = np.empty(n, dtype=float)
    for j, server in enumerate(servers):
        predicted = estimator.predict_many_ms(server.type_name, batches)
        usage[:, j] = (
            server.remaining_busy_ms(now_ms) + server.dispatch_overhead_ms + predicted
        )
        weights[j] = coefficients[server.type_name]
    feasible = (usage + waits[:, None]) <= 0.98 * qos_ms + 1e-9
    penalized = np.where(feasible, usage, 10.0 * qos_ms)
    weighted = penalized * weights[None, :]
    return usage, penalized, weighted, feasible


@pytest.fixture
def mixed_cluster(profiles, rm2, catalog):
    """3 instance types, multiple servers each, staggered busy times."""
    config = HeterogeneousConfig((3, 2, 4, 0), catalog)
    cluster = Cluster(config, rm2, profiles)
    for i, server in enumerate(cluster):
        server.busy_until_ms = float((i * 13) % 50)
    return cluster


COEFFS = {"g4dn.xlarge": 1.0, "c5n.2xlarge": 0.5, "r5n.large": 0.2, "t3.xlarge": 0.1}


def _queries(rng, count, max_batch=1000):
    batches = rng.integers(1, max_batch + 1, size=count)
    return [Query(i, int(b), float(i)) for i, b in enumerate(batches)]


class TestEstimatorCallCounts:
    def test_one_predict_many_call_per_type(self, mixed_cluster, profiles, rm2, rng):
        counting = CountingEstimator(PerfectLatencyEstimator(profiles, rm2))
        queries = _queries(rng, 12)
        build_cost_matrix(queries, mixed_cluster.servers, counting, 100.0, rm2.qos_ms, COEFFS)
        present_types = set(mixed_cluster.type_names())
        assert set(counting.many_calls) == present_types
        assert all(count == 1 for count in counting.many_calls.values())

    def test_one_call_per_type_per_scheduling_round(self, mixed_cluster, profiles, rm2, rng):
        counting = CountingEstimator(PerfectLatencyEstimator(profiles, rm2))
        policy = KairosPolicy(estimator=counting)
        policy.bind(mixed_cluster, rm2.qos_ms)
        counting.many_calls.clear()
        queries = _queries(rng, 6)
        for round_idx in range(3):
            policy.schedule(50.0 * round_idx, queries, mixed_cluster)
        present_types = set(mixed_cluster.type_names())
        assert set(counting.many_calls) == present_types
        assert all(count == 3 for count in counting.many_calls.values())

    def test_empty_pending_short_circuits(self, mixed_cluster, profiles, rm2):
        counting = CountingEstimator(PerfectLatencyEstimator(profiles, rm2))
        policy = KairosPolicy(estimator=counting)
        policy.bind(mixed_cluster, rm2.qos_ms)
        counting.many_calls.clear()
        counting.scalar_calls.clear()
        assert policy.schedule(0.0, [], mixed_cluster) == []
        assert not counting.many_calls and not counting.scalar_calls


class TestGoldenEquivalence:
    @pytest.mark.parametrize("estimator_kind", ["perfect", "online"])
    def test_identical_to_seed_implementation(
        self, mixed_cluster, profiles, rm2, rng, estimator_kind
    ):
        if estimator_kind == "perfect":
            estimator = PerfectLatencyEstimator(profiles, rm2)
        else:
            estimator = OnlineLatencyEstimator()
            for server in mixed_cluster:
                profile = profiles.profile(rm2, server.instance_type)
                for batch in (1, 100, 700):
                    estimator.observe(
                        server.type_name, batch, float(profile.latency_ms(batch))
                    )
        for trial in range(5):
            queries = _queries(np.random.default_rng(trial), 1 + 7 * trial)
            now_ms = 37.0 * trial
            matrix = build_cost_matrix(
                queries, mixed_cluster.servers, estimator, now_ms, rm2.qos_ms, COEFFS
            )
            usage, penalized, weighted, feasible = reference_build_cost_matrix(
                queries, mixed_cluster.servers, estimator, now_ms, rm2.qos_ms, COEFFS
            )
            # element-wise identical, not approximately equal
            assert np.array_equal(matrix.usage_ms, usage)
            assert np.array_equal(matrix.penalized_ms, penalized)
            assert np.array_equal(matrix.weighted, weighted)
            assert np.array_equal(matrix.qos_feasible, feasible)

    def test_non_contiguous_type_layout(self, profiles, rm2, catalog, rng):
        """Interleaved types (elastic clusters after scale events) take the fancy path."""
        config = HeterogeneousConfig((2, 0, 2, 0), catalog)
        cluster = Cluster(config, rm2, profiles)
        cluster.add_server("g4dn.xlarge")  # base type appended after r5n servers
        servers = cluster.servers
        assert servers[-1].type_name == servers[0].type_name  # interleaved layout
        estimator = PerfectLatencyEstimator(profiles, rm2)
        queries = _queries(rng, 9)
        matrix = build_cost_matrix(queries, servers, estimator, 0.0, rm2.qos_ms, COEFFS)
        usage, penalized, weighted, feasible = reference_build_cost_matrix(
            queries, servers, estimator, 0.0, rm2.qos_ms, COEFFS
        )
        assert np.array_equal(matrix.usage_ms, usage)
        assert np.array_equal(matrix.weighted, weighted)


class TestMultiModelFastPath:
    """The joint matrix keeps the PR-2 contract, generalized per model:
    one ``predict_many_ms`` call per (model, type) pair per round, and with one
    registered model the output is element-wise identical to ``build_cost_matrix``."""

    def _mm_inputs(self, profiles, catalog, rng, *, n_queries=10):
        from repro.cloud.models import get_model
        from repro.sim.server import ServerInstance

        rm2, wnd = get_model("RM2"), get_model("WND")
        servers, server_models = [], []
        for i, (model, type_name) in enumerate(
            [
                (rm2, "g4dn.xlarge"),
                (rm2, "r5n.large"),
                (rm2, "r5n.large"),
                (wnd, "g4dn.xlarge"),
                (wnd, "c5n.2xlarge"),
            ]
        ):
            itype = catalog[type_name]
            server = ServerInstance(
                server_id=i,
                instance_type=itype,
                profile=profiles.profile(model, itype),
                busy_until_ms=float((i * 13) % 50),
            )
            servers.append(server)
            server_models.append(model.name)
        batches = rng.integers(1, 1001, size=n_queries)
        queries = [
            Query(i, int(b), float(i), model_name="RM2" if i % 3 else "WND")
            for i, b in enumerate(batches)
        ]
        estimators = {
            "RM2": CountingEstimator(PerfectLatencyEstimator(profiles, rm2)),
            "WND": CountingEstimator(PerfectLatencyEstimator(profiles, wnd)),
        }
        coefficients = {
            "RM2": {"g4dn.xlarge": 1.0, "r5n.large": 0.2},
            "WND": {"g4dn.xlarge": 1.0, "c5n.2xlarge": 0.5},
        }
        qos = {"RM2": rm2.qos_ms, "WND": wnd.qos_ms}
        return queries, servers, server_models, estimators, coefficients, qos

    def test_one_predict_many_call_per_model_type_pair(self, profiles, catalog, rng):
        from repro.core.cost_matrix import build_multi_model_cost_matrix

        queries, servers, server_models, estimators, coefficients, qos = self._mm_inputs(
            profiles, catalog, rng
        )
        build_multi_model_cost_matrix(
            queries, servers, server_models, estimators, 100.0, qos, coefficients
        )
        assert dict(estimators["RM2"].many_calls) == {"g4dn.xlarge": 1, "r5n.large": 1}
        assert dict(estimators["WND"].many_calls) == {"g4dn.xlarge": 1, "c5n.2xlarge": 1}

    def test_model_without_pending_queries_gets_no_estimator_traffic(
        self, profiles, catalog, rng
    ):
        from repro.core.cost_matrix import build_multi_model_cost_matrix

        queries, servers, server_models, estimators, coefficients, qos = self._mm_inputs(
            profiles, catalog, rng
        )
        rm2_only = [q for q in queries if q.model_name == "RM2"]
        matrix = build_multi_model_cost_matrix(
            rm2_only, servers, server_models, estimators, 100.0, qos, coefficients
        )
        assert not estimators["WND"].many_calls
        # the whole WND column block is cross-model for RM2 rows
        assert matrix.cross_model[:, 3:].all()

    def test_single_model_identical_to_seed_build(self, mixed_cluster, profiles, rm2, rng):
        from repro.core.cost_matrix import build_multi_model_cost_matrix

        estimator = PerfectLatencyEstimator(profiles, rm2)
        for trial in range(5):
            queries = _queries(np.random.default_rng(trial), 1 + 7 * trial)
            now_ms = 37.0 * trial
            single = build_cost_matrix(
                queries, mixed_cluster.servers, estimator, now_ms, rm2.qos_ms, COEFFS
            )
            multi = build_multi_model_cost_matrix(
                queries,
                mixed_cluster.servers,
                ["RM2"] * len(mixed_cluster),
                {"RM2": estimator},
                now_ms,
                {"RM2": rm2.qos_ms},
                {"RM2": COEFFS},
            )
            assert np.array_equal(multi.usage_ms, single.usage_ms)
            assert np.array_equal(multi.penalized_ms, single.penalized_ms)
            assert np.array_equal(multi.weighted, single.weighted)
            assert np.array_equal(multi.qos_feasible, single.qos_feasible)

    def test_policy_round_counts_one_call_per_model_type(self, profiles, catalog, rng):
        """The full policy path keeps the per-(model, type) call contract per round."""
        from repro.cloud.config import HeterogeneousConfig
        from repro.schedulers.kairos_policy import MultiModelKairosPolicy
        from repro.sim.cluster import MultiModelCluster

        configs = {
            "RM2": HeterogeneousConfig((1, 0, 2, 0), catalog),
            "WND": HeterogeneousConfig((1, 1, 0, 0), catalog),
        }
        cluster = MultiModelCluster(configs, profiles)
        estimators = {
            "RM2": CountingEstimator(PerfectLatencyEstimator(profiles, profiles.models["RM2"])),
            "WND": CountingEstimator(PerfectLatencyEstimator(profiles, profiles.models["WND"])),
        }
        policy = MultiModelKairosPolicy(estimators)
        view = cluster.active_view()
        policy.bind(view)
        for counting in estimators.values():
            counting.many_calls.clear()
        batches = rng.integers(1, 1001, size=8)
        queries = [
            Query(i, int(b), float(i), model_name="RM2" if i % 2 else "WND")
            for i, b in enumerate(batches)
        ]
        for round_idx in range(3):
            policy.schedule(50.0 * round_idx, queries, view)
        assert dict(estimators["RM2"].many_calls) == {"g4dn.xlarge": 3, "r5n.large": 3}
        assert dict(estimators["WND"].many_calls) == {"g4dn.xlarge": 3, "c5n.2xlarge": 3}


class TestEmptyCases:
    def test_no_queries_allocates_nothing(self, mixed_cluster, profiles, rm2):
        estimator = CountingEstimator(PerfectLatencyEstimator(profiles, rm2))
        matrix = build_cost_matrix(
            [], mixed_cluster.servers, estimator, 0.0, rm2.qos_ms, COEFFS
        )
        assert matrix.shape == (0, len(mixed_cluster))
        assert matrix.usage_ms.size == 0
        assert matrix.qos_feasible.dtype == bool
        assert not estimator.many_calls  # no estimator traffic for the empty matrix
        assert matrix.feasible_fraction() == 0.0

    def test_no_servers(self, profiles, rm2, rng):
        estimator = PerfectLatencyEstimator(profiles, rm2)
        matrix = build_cost_matrix(_queries(rng, 3), [], estimator, 0.0, rm2.qos_ms, COEFFS)
        assert matrix.shape == (3, 0)
        assert matrix.usage_ms.size == 0
        assert isinstance(matrix, CostMatrix)


# ---------------------------------------------------------------------------------------
# Masked single-query rounds: the full column layout with ineligible columns at +inf
# ---------------------------------------------------------------------------------------


class RecordingEstimator(LatencyEstimator):
    """Delegates to an inner estimator, logging every prediction call in order."""

    def __init__(self, inner: LatencyEstimator):
        self.inner = inner
        self.calls = []

    def predict_ms(self, instance_type, batch_size):
        self.calls.append(("one", instance_type))
        return self.inner.predict_ms(instance_type, batch_size)

    def predict_many_ms(self, instance_type, batch_sizes):
        self.calls.append(("many", instance_type, len(batch_sizes)))
        return self.inner.predict_many_ms(instance_type, batch_sizes)

    def observe(self, instance_type, batch_size, latency_ms):
        self.inner.observe(instance_type, batch_size, latency_ms)


def _noisy(profiles, model, seed):
    from repro.core.latency_model import NoisyLatencyEstimator

    return RecordingEstimator(
        NoisyLatencyEstimator(PerfectLatencyEstimator(profiles, model), 0.2, rng=seed)
    )


def _rng_state(recording):
    return recording.inner._rng.bit_generator.state


def _twin(recording):
    """An independent copy of a noisy recording estimator at the same RNG position
    (the deterministic inner estimator is shared)."""
    noisy = recording.inner
    twin = RecordingEstimator(type(noisy)(noisy.inner, noisy.relative_std, rng=0))
    twin.inner._rng.bit_generator.state = _rng_state(recording)
    return twin


def _hopeless(query, type_names, estimator, now_ms, qos_ms):
    """The defer rule's escape hatch: no type could meet the deadline even idle."""
    budget = 0.98 * qos_ms - query.waiting_time_ms(now_ms)
    if budget <= 0:
        return True
    return not any(
        estimator.predict_ms(name, query.batch_size) <= budget
        for name in dict.fromkeys(type_names)
    )


def reference_single_round(query, servers, depths, estimator, now_ms, qos_ms, coefficients):
    """From scratch: ``build_cost_matrix`` over the eligible servers, the first-minimum
    argmin, then the defer/hopeless rule.  Returns ``[(query_id, server index)]``."""
    eligible = [j for j, depth in enumerate(depths) if depth <= 1]
    if not eligible:
        return []
    matrix = build_cost_matrix(
        [query], [servers[j] for j in eligible], estimator, now_ms, qos_ms, coefficients
    )
    col = int(np.argmin(matrix.weighted[0]))
    if not matrix.qos_feasible[0, col] and not _hopeless(
        query, [s.type_name for s in servers], estimator, now_ms, qos_ms
    ):
        return []
    return [(query.query_id, eligible[col])]


def reference_joint_single_round(
    query, servers, server_models, depths, estimators, now_ms, qos_by_model, coefficients
):
    """The multi-model counterpart over the eligible servers' joint single row."""
    from repro.core.cost_matrix import build_multi_model_cost_matrix

    eligible = [j for j, depth in enumerate(depths) if depth <= 1]
    if not eligible:
        return []
    matrix = build_multi_model_cost_matrix(
        [query],
        [servers[j] for j in eligible],
        [server_models[j] for j in eligible],
        estimators,
        now_ms,
        qos_by_model,
        coefficients,
    )
    col = int(np.argmin(matrix.weighted[0]))
    if matrix.cross_model[0, col]:
        return []
    model = query.model_name
    own_types = [s.type_name for s, m in zip(servers, server_models) if m == model]
    if not matrix.qos_feasible[0, col] and not _hopeless(
        query, own_types, estimators[model], now_ms, qos_by_model[model]
    ):
        return []
    return [(query.query_id, eligible[col])]


def _apply_depths(servers, depths, now_ms, rng):
    """Install queue depths (and matching busy horizons) on the servers that change."""
    for server, depth in zip(servers, depths):
        depth = int(depth)
        if depth == server.local_queue_depth and rng.random() < 0.5:
            continue  # untouched servers keep their state version
        server.local_queue_depth = depth
        server.busy_until_ms = now_ms + float(rng.uniform(1.0, 60.0)) if depth else 0.0
        server.state_version += 1


def _non_contiguous_cluster(profiles, rm2, catalog):
    """g4dn, g4dn, r5n, r5n, g4dn, r5n: both type blocks are index arrays."""
    cluster = Cluster(HeterogeneousConfig((2, 0, 2, 0), catalog), rm2, profiles)
    cluster.add_server("g4dn.xlarge")
    cluster.add_server("r5n.large")
    return cluster


def _single_model_twins(profiles, rm2, cluster):
    policy = KairosPolicy(
        estimator=_noisy(profiles, rm2, 7), coefficient_refresh_interval=10**9
    )
    policy.bind(cluster, rm2.qos_ms)
    policy.estimator.calls.clear()
    return policy, _twin(policy.estimator)


def _check_single_round(policy, twin, cluster, depths, query, now_ms, qos_ms):
    got = [(q.query_id, j) for q, j in policy.schedule(now_ms, [query], cluster)]
    want = reference_single_round(
        query, cluster.servers, depths, twin, now_ms, qos_ms, policy.coefficients
    )
    assert got == want
    # same estimator calls, in the same order, and the same RNG stream position
    assert policy.estimator.calls == twin.calls
    assert _rng_state(policy.estimator) == _rng_state(twin)
    policy.estimator.calls.clear()
    twin.calls.clear()
    return got


class TestMaskedSingleQueryRounds:
    """Single-query rounds score the full layout and mask ineligible columns; every
    decision must equal the from-scratch round over the eligible servers."""

    @pytest.mark.parametrize("layout", ["contiguous", "non_contiguous"])
    def test_random_depths_match_reference(self, profiles, rm2, catalog, layout):
        if layout == "contiguous":
            cluster = Cluster(HeterogeneousConfig((3, 2, 4, 0), catalog), rm2, profiles)
        else:
            cluster = _non_contiguous_cluster(profiles, rm2, catalog)
        policy, twin = _single_model_twins(profiles, rm2, cluster)
        rng = np.random.default_rng(11)
        now_ms = 1000.0
        outcomes = Counter()
        for round_idx in range(300):
            now_ms += float(rng.uniform(0.5, 15.0))
            depths = rng.choice([0, 1, 2, 3], size=len(cluster), p=[0.3, 0.3, 0.3, 0.1])
            _apply_depths(cluster.servers, depths, now_ms, rng)
            query = Query(
                round_idx,
                int(rng.integers(1, 1001)),
                now_ms - float(rng.uniform(0.0, 1.2 * rm2.qos_ms)),
            )
            got = _check_single_round(
                policy, twin, cluster, depths, query, now_ms, rm2.qos_ms
            )
            masked = bool((depths > 1).any())
            outcomes[(masked, bool(got))] += 1
        # non-vacuous: masked rounds both dispatch and defer, unmasked rounds occur
        assert outcomes[(True, True)] and outcomes[(True, False)]
        assert outcomes[(False, True)] + outcomes[(False, False)]

    @pytest.mark.parametrize(
        "depths",
        [
            (2, 2, 0, 1, 1, 2),  # leading g4dn servers masked: r5n is called first
            (2, 2, 1, 0, 2, 1),  # whole g4dn type ineligible
            (0, 2, 2, 2, 2, 2),  # all but one ineligible
            (2, 2, 2, 2, 2, 3),  # none eligible
        ],
    )
    def test_edge_masks_non_contiguous(self, profiles, rm2, catalog, depths):
        cluster = _non_contiguous_cluster(profiles, rm2, catalog)
        policy, twin = _single_model_twins(profiles, rm2, cluster)
        depths = np.asarray(depths)
        now_ms = 1000.0
        _apply_depths(cluster.servers, depths, now_ms, np.random.default_rng(0))
        for k, batch in enumerate((1, 64, 400, 1000)):
            query = Query(k, batch, now_ms - 0.3 * k * rm2.qos_ms)
            got = _check_single_round(policy, twin, cluster, depths, query, now_ms, rm2.qos_ms)
            if not (depths <= 1).any():
                assert got == []
                assert not twin.calls  # nothing eligible: no estimator traffic at all

    def test_whole_type_ineligible_contiguous(self, profiles, rm2, catalog):
        cluster = Cluster(HeterogeneousConfig((3, 2, 4, 0), catalog), rm2, profiles)
        policy, twin = _single_model_twins(profiles, rm2, cluster)
        depths = np.asarray([0, 1, 0, 2, 2, 1, 0, 1, 0])  # every c5n.2xlarge queued
        _apply_depths(cluster.servers, depths, 5.0, np.random.default_rng(0))
        for k in range(6):
            _check_single_round(
                policy, twin, cluster, depths, Query(k, 50 + 150 * k, 5.0), 5.0, rm2.qos_ms
            )
        # the fully masked type issues no batched prediction
        policy.schedule(5.0, [Query(99, 10, 5.0)], cluster)
        many = [call[1] for call in policy.estimator.calls if call[0] == "many"]
        assert many == ["g4dn.xlarge", "r5n.large"]

    def test_multi_model_random_depths_match_reference(self, profiles, catalog):
        from repro.schedulers.kairos_policy import MultiModelKairosPolicy
        from repro.sim.cluster import MultiModelCluster

        cluster = MultiModelCluster(
            {
                "RM2": HeterogeneousConfig((1, 1, 2, 0), catalog),
                "WND": HeterogeneousConfig((1, 1, 1, 0), catalog),
            },
            profiles,
        )
        # an appended base server makes the RM2 g4dn block non-contiguous
        cluster.add_server("RM2", "g4dn.xlarge")
        view = cluster.active_view()
        estimators = {
            name: _noisy(profiles, profiles.models[name], seed)
            for seed, name in enumerate(("RM2", "WND"))
        }
        policy = MultiModelKairosPolicy(estimators, coefficient_refresh_interval=10**9)
        policy.bind(view)
        twins = {name: _twin(est) for name, est in estimators.items()}
        servers, server_models = view.servers, view.server_models()
        qos = view.qos_by_model()
        rng = np.random.default_rng(5)
        now_ms = 1000.0
        outcomes = Counter()
        for round_idx in range(300):
            for est in (*estimators.values(), *twins.values()):
                est.calls.clear()
            now_ms += float(rng.uniform(0.5, 15.0))
            depths = rng.choice([0, 1, 2], size=len(servers), p=[0.3, 0.3, 0.4])
            _apply_depths(servers, depths, now_ms, rng)
            model = "RM2" if rng.random() < 0.5 else "WND"
            query = Query(
                round_idx,
                int(rng.integers(1, 1001)),
                now_ms - float(rng.uniform(0.0, 1.2 * qos[model])),
                model_name=model,
            )
            got = [(q.query_id, j) for q, j in policy.schedule(now_ms, [query], view)]
            want = reference_joint_single_round(
                query,
                servers,
                server_models,
                depths,
                twins,
                now_ms,
                qos,
                policy.coefficients_by_model,
            )
            assert got == want
            for name in estimators:
                assert estimators[name].calls == twins[name].calls
                assert _rng_state(estimators[name]) == _rng_state(twins[name])
            outcomes[(bool((depths > 1).any()), bool(got))] += 1
        assert outcomes[(True, True)] and outcomes[(True, False)]


class TestEligibilityMask:
    """The persistent mask and per-group counts track ``depths > 1`` exactly."""

    @pytest.mark.parametrize("multi_key", [False, True])
    def test_mask_counts_and_views_follow_transitions(
        self, profiles, rm2, catalog, multi_key
    ):
        from repro.core.cost_matrix import RoundColumnState, group_columns

        cluster = _non_contiguous_cluster(profiles, rm2, catalog)
        cluster.add_server("c5n.2xlarge")
        servers = cluster.servers
        keys = (
            [(("A", "B")[j % 2], s.type_name) for j, s in enumerate(servers)]
            if multi_key
            else [s.type_name for s in servers]
        )
        state = RoundColumnState(servers, keys=keys)
        full_groups = group_columns(keys)
        rng = np.random.default_rng(3)
        now_ms = 1000.0
        full = None
        for _ in range(200):
            now_ms += float(rng.uniform(0.5, 10.0))
            depths = rng.choice([0, 1, 2, 3], size=len(servers), p=[0.3, 0.3, 0.3, 0.1])
            _apply_depths(servers, depths, now_ms, rng)
            view = state.refresh(now_ms)
            eligible = np.flatnonzero(depths <= 1)
            if eligible.size == 0:
                assert view is None
                continue
            full = view if full is None else full
            assert view is full  # one stable full-layout object per bind
            assert np.array_equal(state.ineligible, depths > 1)
            assert state.masked == bool((depths > 1).any())
            assert state.eligible_count == eligible.size
            if eligible.size == 1:
                assert state.sole_eligible() == (int(eligible[0]), keys[eligible[0]])
            assert state.eligible_counts == [
                int((depths[np.arange(len(servers))[cols]] <= 1).sum())
                for _, cols in full_groups
            ]
            expected_offsets = np.asarray(
                [max(0.0, s.busy_until_ms - now_ms) + s.dispatch_overhead_ms for s in servers]
            )
            assert np.array_equal(view.offsets, expected_offsets)
            filtered = state.eligible_view()
            assert filtered.indices == eligible.tolist()
            assert np.array_equal(filtered.offsets, expected_offsets[eligible])
            want_groups = group_columns([keys[j] for j in eligible])
            assert [k for k, _ in filtered.groups] == [k for k, _ in want_groups]
            for (_, got_cols), (_, want_cols) in zip(filtered.groups, want_groups):
                assert np.array_equal(
                    np.arange(len(eligible))[got_cols], np.arange(len(eligible))[want_cols]
                )
            # the masked call order lists exactly the filtered view's blocks
            assert [view.groups[g][0] for g in state.call_order()] == [
                k for k, _ in want_groups
            ]


# Without the explain phase: it re-renders each failing example's traceback, which
# takes minutes here and would hide a real failure behind an apparent hang.
@settings(
    max_examples=40,
    phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink),
)
@given(
    rounds=st.lists(
        st.tuples(
            st.lists(st.integers(0, 3), min_size=6, max_size=6),
            st.integers(1, 1000),
            st.floats(0.0, 40.0),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_masked_single_round_property(profiles, catalog, rounds):
    """Any sequence of queue depths: masked decisions equal the from-scratch round,
    with identical estimator calls and RNG stream on a noisy twin."""
    from repro.cloud.models import get_model

    rm2 = get_model("RM2")
    cluster = _non_contiguous_cluster(profiles, rm2, catalog)
    policy, twin = _single_model_twins(profiles, rm2, cluster)
    rng = np.random.default_rng(0)
    now_ms = 1000.0
    for k, (depths, batch, wait) in enumerate(rounds):
        now_ms += 5.0
        depths = np.asarray(depths)
        _apply_depths(cluster.servers, depths, now_ms, rng)
        _check_single_round(
            policy, twin, cluster, depths, Query(k, batch, now_ms - wait), now_ms, rm2.qos_ms
        )


# ---------------------------------------------------------------------------------------
# The shared single-query scorer, per estimator class
# ---------------------------------------------------------------------------------------


class VersionedRecordingEstimator(RecordingEstimator):
    """A :class:`RecordingEstimator` that keeps its inner estimator's belief version,
    so the scorer treats it exactly like the estimator it wraps."""

    @property
    def belief_version(self):
        return self.inner.belief_version


def _scorer_estimator(kind, profiles, model, seed):
    """The policy's recording estimator of class ``kind`` for one model."""
    if kind == "noisy":
        return _noisy(profiles, model, seed)
    if kind == "perfect":
        return VersionedRecordingEstimator(PerfectLatencyEstimator(profiles, model))
    return VersionedRecordingEstimator(OnlineLatencyEstimator())


def _reference_estimator(kind, estimator):
    """The from-scratch reference's estimator, taken after the policy's bind.

    A noisy estimator gets an independent twin at its RNG position (the bind's
    coefficient probes drew from it).  A deterministic one is shared: the reference
    reads the very beliefs the policy holds, through vector predictions.
    """
    return _twin(estimator) if kind == "noisy" else estimator.inner


#: Batch sizes the online histories repeat, so queries hit the lookup table.
_SEEN_BATCHES = (1, 7, 64, 400)


def _learn(estimators, type_names_of, profiles, rng):
    """Feed a random observation to a random online estimator, if any."""
    online = [
        (name, est)
        for name, est in estimators.items()
        if isinstance(getattr(est, "inner", est), OnlineLatencyEstimator)
    ]
    if not online or rng.random() < 0.4:
        return
    name, est = online[int(rng.integers(len(online)))]
    types = type_names_of[name]
    type_name = types[int(rng.integers(len(types)))]
    batch = int(rng.choice(_SEEN_BATCHES))
    true_ms = profiles.latency_ms(name, type_name, batch)
    est.observe(type_name, batch, float(true_ms * rng.uniform(0.8, 1.2)))


def _query_batch(rng):
    return int(rng.choice(_SEEN_BATCHES)) if rng.random() < 0.4 else int(rng.integers(1, 1001))


def _check_estimator_traffic(kind, policy_estimator, twin):
    if kind == "noisy":
        # same per-block vector calls, in the same order, and the same RNG position
        assert policy_estimator.calls == twin.calls
        assert _rng_state(policy_estimator) == _rng_state(twin)
        twin.calls.clear()
    else:
        # versioned beliefs are read as scalars only
        assert all(call[0] == "one" for call in policy_estimator.calls)
    policy_estimator.calls.clear()


class TestSharedScorerExactness:
    """Both policies' single-query rounds go through one scorer; its decision must
    equal the from-scratch round over the eligible servers for every estimator
    class, on random queue depths and random online histories."""

    @pytest.mark.parametrize("layout", ["contiguous", "non_contiguous"])
    @pytest.mark.parametrize("kind", ["online", "perfect", "noisy"])
    def test_single_model(self, profiles, rm2, catalog, kind, layout):
        if layout == "contiguous":
            cluster = Cluster(HeterogeneousConfig((3, 2, 4, 0), catalog), rm2, profiles)
        else:
            cluster = _non_contiguous_cluster(profiles, rm2, catalog)
        estimator = _scorer_estimator(kind, profiles, rm2, 7)
        policy = KairosPolicy(estimator=estimator, coefficient_refresh_interval=10**9)
        policy.bind(cluster, rm2.qos_ms)
        estimator.calls.clear()
        reference = _reference_estimator(kind, estimator)
        types = {rm2.name: list(dict.fromkeys(cluster.type_names()))}
        rng = np.random.default_rng(23)
        now_ms = 1000.0
        outcomes = Counter()
        for round_idx in range(250):
            _learn({rm2.name: estimator}, types, profiles, rng)
            now_ms += float(rng.uniform(0.5, 15.0))
            depths = rng.choice([0, 1, 2, 3], size=len(cluster), p=[0.3, 0.3, 0.3, 0.1])
            _apply_depths(cluster.servers, depths, now_ms, rng)
            query = Query(
                round_idx,
                _query_batch(rng),
                now_ms - float(rng.uniform(0.0, 1.2 * rm2.qos_ms)),
            )
            got = [(q.query_id, j) for q, j in policy.schedule(now_ms, [query], cluster)]
            want = reference_single_round(
                query, cluster.servers, depths, reference, now_ms, rm2.qos_ms,
                policy.coefficients,
            )
            assert got == want
            _check_estimator_traffic(kind, estimator, reference)
            outcomes[(bool((depths > 1).any()), bool(got))] += 1
        # non-vacuous: masked rounds both dispatch and defer, unmasked rounds occur
        assert outcomes[(True, True)] and outcomes[(True, False)]
        assert outcomes[(False, True)] + outcomes[(False, False)]

    def test_coefficients_replaced_by_a_subclass(self, profiles, rm2, catalog):
        """The coefficient ablation swaps the distributor's mapping after each
        rebuild; single-query rounds must score with the mapping it installed."""
        from repro.analysis.ablations import _UnweightedKairosPolicy

        cluster = Cluster(HeterogeneousConfig((3, 2, 4, 0), catalog), rm2, profiles)
        policy = _UnweightedKairosPolicy(
            PerfectLatencyEstimator(profiles, rm2), coefficient_refresh_interval=7
        )
        policy.bind(cluster, rm2.qos_ms)
        rng = np.random.default_rng(31)
        now_ms = 1000.0
        for round_idx in range(120):
            now_ms += float(rng.uniform(0.5, 15.0))
            depths = rng.choice([0, 1, 2], size=len(cluster), p=[0.4, 0.3, 0.3])
            _apply_depths(cluster.servers, depths, now_ms, rng)
            query = Query(round_idx, _query_batch(rng), now_ms - float(rng.uniform(0, 60)))
            got = [(q.query_id, j) for q, j in policy.schedule(now_ms, [query], cluster)]
            assert set(policy.coefficients.values()) == {1.0}
            assert got == reference_single_round(
                query, cluster.servers, depths, policy.estimator, now_ms, rm2.qos_ms,
                policy.coefficients,
            )

    @pytest.mark.parametrize("kind", ["online", "perfect", "noisy"])
    def test_multi_model(self, profiles, catalog, kind):
        from repro.schedulers.kairos_policy import MultiModelKairosPolicy
        from repro.sim.cluster import MultiModelCluster

        cluster = MultiModelCluster(
            {
                "RM2": HeterogeneousConfig((1, 1, 2, 0), catalog),
                "WND": HeterogeneousConfig((1, 1, 1, 0), catalog),
            },
            profiles,
        )
        # an appended base server makes the RM2 g4dn block non-contiguous
        cluster.add_server("RM2", "g4dn.xlarge")
        view = cluster.active_view()
        estimators = {
            name: _scorer_estimator(kind, profiles, profiles.models[name], seed)
            for seed, name in enumerate(("RM2", "WND"))
        }
        policy = MultiModelKairosPolicy(estimators, coefficient_refresh_interval=10**9)
        policy.bind(view)
        for est in estimators.values():
            est.calls.clear()
        references = {
            name: _reference_estimator(kind, est) for name, est in estimators.items()
        }
        servers, server_models = view.servers, view.server_models()
        types = {
            name: list(
                dict.fromkeys(
                    s.type_name for s, m in zip(servers, server_models) if m == name
                )
            )
            for name in estimators
        }
        qos = view.qos_by_model()
        rng = np.random.default_rng(29)
        now_ms = 1000.0
        outcomes = Counter()
        for round_idx in range(250):
            _learn(estimators, types, profiles, rng)
            now_ms += float(rng.uniform(0.5, 15.0))
            depths = rng.choice([0, 1, 2], size=len(servers), p=[0.3, 0.3, 0.4])
            _apply_depths(servers, depths, now_ms, rng)
            model = "RM2" if rng.random() < 0.5 else "WND"
            query = Query(
                round_idx,
                _query_batch(rng),
                now_ms - float(rng.uniform(0.0, 1.2 * qos[model])),
                model_name=model,
            )
            got = [(q.query_id, j) for q, j in policy.schedule(now_ms, [query], view)]
            want = reference_joint_single_round(
                query, servers, server_models, depths, references, now_ms, qos,
                policy.coefficients_by_model,
            )
            assert got == want
            for name in estimators:
                _check_estimator_traffic(kind, estimators[name], references[name])
            outcomes[(bool((depths > 1).any()), bool(got))] += 1
        assert outcomes[(True, True)] and outcomes[(True, False)]


# ---------------------------------------------------------------------------------------
# Multi-row rounds with one eligible server: a one-column argmin, no matrix or solver
# ---------------------------------------------------------------------------------------


def reference_matrix_round(distributor, state, queries, now_ms, qos_ms):
    """The gathered-view round: ``distribute_prepared`` over
    :meth:`RoundColumnState.eligible_view`, then the defer/hopeless rule.

    Returns ``([(query_id, server index)], outcome)``, the outcome naming what the
    matching's pick led to: ``"feasible"``, ``"deferred"``, ``"hopeless"``
    (dispatched although infeasible) or ``"none"`` (nothing eligible).
    """
    if state.refresh(now_ms) is None:
        return [], "none"
    considered = queries[: distributor.max_queries_per_round]
    batches = np.asarray([q.batch_size for q in considered], dtype=int)
    waits = np.asarray([q.waiting_time_ms(now_ms) for q in considered], dtype=float)
    view = state.eligible_view()
    result = distributor.distribute_prepared(considered, batches, waits, view)
    decisions, outcome = [], "feasible"
    for assignment in result.assignments:
        if not assignment.predicted_feasible:
            if not _hopeless(
                assignment.query, state.unique_keys(), distributor.estimator, now_ms, qos_ms
            ):
                outcome = "deferred"
                continue
            outcome = "hopeless"
        decisions.append((assignment.query.query_id, view.indices[assignment.server_index]))
    return decisions, outcome


def _one_eligible_depths(rng, n):
    """Queue depths leaving exactly one server eligible (depth 0 or 1)."""
    depths = rng.choice([2, 3], size=n)
    depths[int(rng.integers(n))] = int(rng.integers(2))
    return depths


def _tied_backlog(rng, first_id, now_ms, qos_ms):
    """2-100 pending queries (past the 64-row cap at times) in arrival order.

    Batches come from a few sizes and arrivals repeat, so many rows tie exactly;
    waits reach past the QoS target, so rows are feasible, deferred or hopeless.
    A third of the backlogs hold only short-waiting maximum batches, which only
    the base type serves in time: on an auxiliary instance every row defers.
    """
    m = int(rng.choice([2, 3, 9, 64, 65, 100]))
    if rng.random() < 0.3:
        batches, spread = np.full(m, 1000), 0.3 * qos_ms
    else:
        batches, spread = rng.choice([1, 64, 64, 400, 1000], size=m), 1.3 * qos_ms
    arrivals = np.sort(now_ms - rng.choice(rng.uniform(0.0, spread, size=4), size=m))
    return [
        Query(first_id + i, int(b), float(t))
        for i, (b, t) in enumerate(zip(batches, arrivals))
    ]


class TestSingleServerRounds:
    """A multi-row round with one eligible server scores the capped rows against
    that one column; its decision, estimator calls and RNG stream must equal the
    gathered-view matrix round's."""

    @pytest.mark.parametrize("layout", ["contiguous", "non_contiguous"])
    @pytest.mark.parametrize("kind", ["noisy", "perfect"])
    def test_random_backlogs_match_the_matrix_round(
        self, profiles, rm2, catalog, kind, layout
    ):
        from repro.core.cost_matrix import RoundColumnState
        from repro.core.distributor import QueryDistributor

        if layout == "contiguous":
            cluster = Cluster(HeterogeneousConfig((3, 2, 4, 0), catalog), rm2, profiles)
        else:
            cluster = _non_contiguous_cluster(profiles, rm2, catalog)
        estimator = _scorer_estimator(kind, profiles, rm2, 7)
        policy = KairosPolicy(estimator=estimator, coefficient_refresh_interval=10**9)
        policy.bind(cluster, rm2.qos_ms)
        estimator.calls.clear()
        twin = _twin(estimator) if kind == "noisy" else RecordingEstimator(estimator.inner)
        reference = QueryDistributor(twin, policy.coefficients, rm2.qos_ms)
        state = RoundColumnState(cluster.servers)
        matrix_rounds = Counter()
        distribute = policy._distributor.distribute_prepared

        def counting_distribute(*args):
            matrix_rounds["policy"] += 1
            return distribute(*args)

        policy._distributor.distribute_prepared = counting_distribute
        rng = np.random.default_rng(17)
        now_ms, next_id = 1000.0, 0
        outcomes = Counter()
        for _ in range(240):
            now_ms += float(rng.uniform(0.5, 15.0))
            shape = rng.random()
            if shape < 0.8:
                depths = _one_eligible_depths(rng, len(cluster))
            else:  # a wider round, or none eligible
                depths = rng.choice([0, 1, 2] if shape < 0.9 else [2, 3], size=len(cluster))
            _apply_depths(cluster.servers, depths, now_ms, rng)
            queries = _tied_backlog(rng, next_id, now_ms, rm2.qos_ms)
            next_id += len(queries)
            before = matrix_rounds["policy"]
            got = [(q.query_id, j) for q, j in policy.schedule(now_ms, queries, cluster)]
            want, outcome = reference_matrix_round(
                reference, state, queries, now_ms, rm2.qos_ms
            )
            assert got == want
            assert estimator.calls == twin.calls
            if kind == "noisy":
                assert _rng_state(estimator) == _rng_state(twin)
            estimator.calls.clear()
            twin.calls.clear()
            if int((depths <= 1).sum()) == 1:
                assert matrix_rounds["policy"] == before  # no matrix was built
                outcomes[(outcome, len(queries) > 64)] += 1
        # non-vacuous: every outcome occurs, with and without the 64-row cap
        for outcome in ("feasible", "deferred", "hopeless"):
            assert outcomes[(outcome, False)] and outcomes[(outcome, True)], outcomes

    def test_tied_rows_take_the_first_minimum(self, profiles, rm2, catalog):
        cluster = _non_contiguous_cluster(profiles, rm2, catalog)
        policy = KairosPolicy(
            PerfectLatencyEstimator(profiles, rm2), coefficient_refresh_interval=10**9
        )
        policy.bind(cluster, rm2.qos_ms)
        depths = np.asarray([2, 2, 3, 2, 2, 0])  # the appended r5n.large
        _apply_depths(cluster.servers, depths, 50.0, np.random.default_rng(0))
        # rows 1-3 tie on the column's minimum (same batch, all feasible)
        queries = [Query(0, 300, 50.0)] + [Query(k, 8, 50.0) for k in range(1, 4)]
        assert [(q.query_id, j) for q, j in policy.schedule(50.0, queries, cluster)] == [
            (1, 5)
        ]

    def test_coefficient_and_cost_checks_are_kept(self, profiles, rm2, catalog):
        from repro.core.cost_matrix import RoundColumnState
        from repro.core.distributor import QueryDistributor

        cluster = Cluster(HeterogeneousConfig((3, 2, 4, 0), catalog), rm2, profiles)
        estimator = PerfectLatencyEstimator(profiles, rm2)
        policy = KairosPolicy(estimator, coefficient_refresh_interval=10**9)
        policy.bind(cluster, rm2.qos_ms)
        depths = np.asarray([2, 2, 2, 2, 1, 2, 2, 2, 2])  # one c5n.2xlarge
        _apply_depths(cluster.servers, depths, 50.0, np.random.default_rng(0))
        queries = [Query(k, 10 + 90 * k, 40.0) for k in range(3)]
        coefficients = policy._distributor.coefficients
        # an infinite weight makes the column non-finite: the solver's error
        coefficients["c5n.2xlarge"] = np.inf
        reference = QueryDistributor(estimator, coefficients, rm2.qos_ms)
        state = RoundColumnState(cluster.servers)
        for round_ in (
            lambda: policy.schedule(50.0, queries, cluster),
            lambda: reference_matrix_round(reference, state, queries, 50.0, rm2.qos_ms),
        ):
            with pytest.raises(ValueError, match="finite"):
                round_()
        coefficients["c5n.2xlarge"] = 0.0
        with pytest.raises(ValueError, match="positive"):
            policy.schedule(50.0, queries, cluster)
        del coefficients["c5n.2xlarge"]
        with pytest.raises(KeyError, match="c5n.2xlarge"):
            policy.schedule(50.0, queries, cluster)


def _estimator_factories(profiles, rm2):
    """One instance factory per estimator class of ``repro.core.latency_model``."""
    from repro.core import latency_model

    factories = {
        PerfectLatencyEstimator: lambda: PerfectLatencyEstimator(profiles, rm2),
        OnlineLatencyEstimator: lambda: OnlineLatencyEstimator(cold_start_prior_ms=3.0),
        latency_model.NoisyLatencyEstimator: lambda: latency_model.NoisyLatencyEstimator(
            PerfectLatencyEstimator(profiles, rm2), 0.05, rng=0
        ),
    }
    classes = {
        cls
        for cls in vars(latency_model).values()
        if isinstance(cls, type)
        and issubclass(cls, LatencyEstimator)
        and cls is not LatencyEstimator
    }
    assert classes == set(factories), "add a factory for every estimator class"
    return factories


_TYPES = ("g4dn.xlarge", "c5n.2xlarge", "r5n.large")
_observation = st.tuples(
    st.sampled_from(_TYPES),
    st.one_of(st.sampled_from((1, 2, 64, 1000)), st.integers(1, 1000)),
    st.floats(0.01, 500.0),
)
_probe = st.tuples(
    st.sampled_from(_TYPES),
    st.one_of(st.sampled_from((1, 2, 64, 1000)), st.integers(1, 1000)),
)


@settings(max_examples=60, phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink))
@given(
    steps=st.lists(
        st.tuples(st.lists(_observation, max_size=3), st.lists(_probe, min_size=1, max_size=4)),
        min_size=1,
        max_size=8,
    )
)
@example(steps=[([], [("g4dn.xlarge", 64)])])  # cold start
@example(steps=[([("r5n.large", 64, 40.0)], [("r5n.large", 64), ("r5n.large", 1000)])])
@example(
    steps=[
        ([("c5n.2xlarge", 2, 3.5), ("c5n.2xlarge", 64, 9.0)], [("c5n.2xlarge", 7)]),
        ([("c5n.2xlarge", 64, 11.0)], [("c5n.2xlarge", 64), ("c5n.2xlarge", 900)]),
    ]
)
def test_versioned_scalar_prediction_matches_vector(profiles, steps):
    """Every versioned estimator predicts bit-equal scalars and 1-element vectors
    under any observation history: cold start, one distinct batch (proportional
    scaling), the linear fit, and lookup-table hits — in either call order."""
    from repro.cloud.models import get_model

    versioned = [
        make()
        for make in _estimator_factories(profiles, get_model("RM2")).values()
    ]
    versioned = [est for est in versioned if est.belief_version is not None]
    assert {type(est) for est in versioned} == {PerfectLatencyEstimator, OnlineLatencyEstimator}
    for observations, probes in steps:
        for est in versioned:
            for type_name, batch, latency_ms in observations:
                est.observe(type_name, batch, latency_ms)
            for k, (type_name, batch) in enumerate(probes):
                vector = np.asarray([batch])
                if k % 2:  # vector first: a memoized vector must not change the scalar
                    many = est.predict_many_ms(type_name, vector)[0]
                    one = est.predict_ms(type_name, batch)
                else:
                    one = est.predict_ms(type_name, batch)
                    many = est.predict_many_ms(type_name, vector)[0]
                assert np.float64(one).tobytes() == np.float64(many).tobytes()
