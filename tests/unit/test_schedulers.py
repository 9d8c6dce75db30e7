"""Tests for the query-distribution policies in repro.schedulers."""

import numpy as np
import pytest

from repro.cloud.config import HeterogeneousConfig
from repro.schedulers.base import SchedulingPolicy
from repro.schedulers.clockwork import ClockworkPolicy
from repro.schedulers.fcfs import RibbonFCFSPolicy
from repro.schedulers.kairos_policy import KairosPolicy
from repro.schedulers.oracle import OracleScheduler, oracle_throughput
from repro.schedulers.threshold import DRSThresholdPolicy
from repro.sim.cluster import Cluster
from repro.sim.simulation import simulate_serving
from repro.workload.generator import queries_from_batches
from repro.workload.query import Query


@pytest.fixture
def mixed_cluster(rm2, profiles, catalog):
    config = HeterogeneousConfig((1, 0, 2, 0), catalog)
    return Cluster(config, rm2, profiles)


class TestSchedulingPolicyBase:
    def test_bind_required(self, mixed_cluster):
        policy = RibbonFCFSPolicy()
        with pytest.raises(RuntimeError):
            policy._require_bound()
        policy.bind(mixed_cluster, 350.0)
        assert policy._require_bound() is mixed_cluster

    def test_invalid_qos(self, mixed_cluster):
        with pytest.raises(ValueError):
            RibbonFCFSPolicy().bind(mixed_cluster, 0.0)

    def test_schedule_not_implemented(self, mixed_cluster):
        policy = SchedulingPolicy()
        policy.bind(mixed_cluster, 10.0)
        with pytest.raises(NotImplementedError):
            policy.schedule(0.0, [], mixed_cluster)


class TestRibbonFCFS:
    def test_prefers_base_when_idle(self, mixed_cluster):
        policy = RibbonFCFSPolicy()
        policy.bind(mixed_cluster, 350.0)
        decisions = policy.schedule(0.0, [Query(0, 100, 0.0)], mixed_cluster)
        assert len(decisions) == 1
        assert mixed_cluster[decisions[0][1]].type_name == "g4dn.xlarge"

    def test_fills_aux_when_base_busy(self, mixed_cluster):
        policy = RibbonFCFSPolicy()
        policy.bind(mixed_cluster, 350.0)
        mixed_cluster[0].dispatch(Query(99, 100, 0.0), 0.0)
        decisions = policy.schedule(0.0, [Query(0, 100, 0.0)], mixed_cluster)
        assert mixed_cluster[decisions[0][1]].type_name == "r5n.large"

    def test_respects_per_type_qos_limit(self, mixed_cluster, profiles, rm2):
        policy = RibbonFCFSPolicy()
        policy.bind(mixed_cluster, rm2.qos_ms)
        mixed_cluster[0].dispatch(Query(99, 100, 0.0), 0.0)  # base busy
        big = profiles.qos_cutoff_batch(rm2, "r5n.large") + 50
        decisions = policy.schedule(0.0, [Query(0, big, 0.0)], mixed_cluster)
        assert decisions == []  # waits rather than violating on the aux instance

    def test_no_idle_servers_returns_empty(self, mixed_cluster):
        policy = RibbonFCFSPolicy()
        policy.bind(mixed_cluster, 350.0)
        for server in mixed_cluster:
            server.dispatch(Query(server.server_id, 10, 0.0), 0.0)
        assert policy.schedule(0.0, [Query(5, 10, 0.0)], mixed_cluster) == []


class TestDRSThreshold:
    def test_default_threshold_from_cluster(self, mixed_cluster, profiles, rm2):
        policy = DRSThresholdPolicy()
        policy.bind(mixed_cluster, rm2.qos_ms)
        assert policy.threshold == profiles.qos_cutoff_batch(rm2, "r5n.large")

    def test_large_query_routed_to_base(self, mixed_cluster, rm2):
        policy = DRSThresholdPolicy(threshold=200)
        policy.bind(mixed_cluster, rm2.qos_ms)
        decisions = policy.schedule(0.0, [Query(0, 500, 0.0)], mixed_cluster)
        assert mixed_cluster[decisions[0][1]].type_name == "g4dn.xlarge"

    def test_small_query_routed_to_aux(self, mixed_cluster, rm2):
        policy = DRSThresholdPolicy(threshold=200)
        policy.bind(mixed_cluster, rm2.qos_ms)
        decisions = policy.schedule(0.0, [Query(0, 50, 0.0)], mixed_cluster)
        assert mixed_cluster[decisions[0][1]].type_name == "r5n.large"

    def test_waits_when_designated_class_busy(self, mixed_cluster, rm2):
        policy = DRSThresholdPolicy(threshold=200)
        policy.bind(mixed_cluster, rm2.qos_ms)
        for idx in (1, 2):  # occupy both aux servers
            mixed_cluster[idx].dispatch(Query(90 + idx, 50, 0.0), 0.0)
        decisions = policy.schedule(0.0, [Query(0, 50, 0.0)], mixed_cluster)
        assert decisions == []

    def test_fallback_when_class_missing(self, rm2, profiles, catalog):
        config = HeterogeneousConfig((2, 0, 0, 0), catalog)  # no aux at all
        cluster = Cluster(config, rm2, profiles)
        policy = DRSThresholdPolicy(threshold=200)
        policy.bind(cluster, rm2.qos_ms)
        decisions = policy.schedule(0.0, [Query(0, 50, 0.0)], cluster)
        assert len(decisions) == 1

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            DRSThresholdPolicy(threshold=0)


class TestClockwork:
    def test_assigns_every_pending_query(self, mixed_cluster, rm2):
        policy = ClockworkPolicy()
        policy.bind(mixed_cluster, rm2.qos_ms)
        pending = [Query(i, 50, 0.0) for i in range(5)]
        decisions = policy.schedule(0.0, pending, mixed_cluster)
        assert len(decisions) == 5

    def test_prefers_feasible_instance(self, mixed_cluster, rm2, profiles):
        policy = ClockworkPolicy()
        policy.bind(mixed_cluster, rm2.qos_ms)
        big = profiles.qos_cutoff_batch(rm2, "r5n.large") + 100
        decisions = policy.schedule(0.0, [Query(0, big, 0.0)], mixed_cluster)
        assert mixed_cluster[decisions[0][1]].type_name == "g4dn.xlarge"

    def test_tracks_queue_build_up(self, mixed_cluster, rm2):
        policy = ClockworkPolicy()
        policy.bind(mixed_cluster, rm2.qos_ms)
        first = policy.schedule(0.0, [Query(0, 800, 0.0)], mixed_cluster)
        # the controller's mirror now shows the chosen server busy; an identical query
        # scheduled immediately after must go elsewhere or later
        second = policy.schedule(0.0, [Query(1, 800, 0.0)], mixed_cluster)
        assert first[0][1] == second[0][1] or first[0][1] != second[0][1]
        assert policy._queue_free_ms[first[0][1]] > 0.0


class TestOracle:
    def test_oracle_serves_all_queries(self, profiles, rm2):
        config = HeterogeneousConfig((2, 0, 4, 0))
        batches = [10, 50, 900, 400, 30, 700] * 20
        result = OracleScheduler(profiles, rm2).pack(config, batches)
        assert result.queries_served == len(batches)
        assert result.throughput_qps > 0
        assert result.makespan_ms > 0

    def test_large_queries_served_by_base(self, profiles, rm2):
        config = HeterogeneousConfig((1, 0, 2, 0))
        cutoff = profiles.qos_cutoff_batch(rm2, "r5n.large")
        batches = [cutoff + 100] * 10 + [10] * 10
        result = OracleScheduler(profiles, rm2).pack(config, batches)
        assert result.served_by_type["g4dn.xlarge"] >= 10

    def test_zero_throughput_without_base_for_large_queries(self, profiles, rm2):
        config = HeterogeneousConfig((0, 0, 3, 0))
        batches = [999] * 5
        assert oracle_throughput(config, rm2, profiles, batches) == 0.0

    def test_aux_only_config_with_small_queries(self, profiles, rm2):
        config = HeterogeneousConfig((0, 0, 3, 0))
        assert oracle_throughput(config, rm2, profiles, [10, 20, 30]) > 0

    def test_more_instances_more_throughput(self, profiles, rm2, rng):
        batches = rng.integers(1, 900, size=400)
        small = oracle_throughput(HeterogeneousConfig((1, 0, 2, 0)), rm2, profiles, batches)
        large = oracle_throughput(HeterogeneousConfig((2, 0, 4, 0)), rm2, profiles, batches)
        assert large > small

    def test_best_configuration(self, profiles, rm2, rng):
        batches = rng.integers(1, 900, size=200)
        configs = [HeterogeneousConfig(c) for c in [(1, 0, 1, 0), (2, 0, 4, 0), (1, 0, 6, 0)]]
        best_config, best_qps = OracleScheduler(profiles, rm2).best_configuration(configs, batches)
        assert best_config in configs
        assert best_qps == max(
            oracle_throughput(c, rm2, profiles, batches) for c in configs
        )

    def test_empty_inputs_rejected(self, profiles, rm2):
        oracle = OracleScheduler(profiles, rm2)
        with pytest.raises(ValueError):
            oracle.pack(HeterogeneousConfig((1, 0, 0, 0)), [])
        with pytest.raises(ValueError):
            oracle.best_configuration([], [10])


class TestKairosPolicy:
    def test_learns_latencies_online(self, mixed_cluster, rm2, small_workload):
        policy = KairosPolicy()
        report = simulate_serving(
            mixed_cluster.config, rm2, mixed_cluster.profiles, policy, small_workload
        )
        assert report.completed_all
        assert policy.estimator.observations("g4dn.xlarge") > 0 or policy.estimator.observations(
            "r5n.large"
        ) > 0

    def test_coefficients_available_after_bind(self, mixed_cluster, rm2):
        policy = KairosPolicy(use_perfect_estimator=True)
        policy.bind(mixed_cluster, rm2.qos_ms)
        coeffs = policy.coefficients
        assert coeffs["g4dn.xlarge"] == 1.0
        assert 0 < coeffs["r5n.large"] < 1.0

    def test_schedule_before_bind_raises(self, mixed_cluster):
        with pytest.raises(RuntimeError):
            KairosPolicy().schedule(0.0, [Query(0, 10, 0.0)], mixed_cluster)

    def test_skips_fully_queued_servers(self, mixed_cluster, rm2):
        policy = KairosPolicy(use_perfect_estimator=True)
        policy.bind(mixed_cluster, rm2.qos_ms)
        # fill every server with two dispatched queries -> nothing is eligible
        for server in mixed_cluster:
            server.dispatch(Query(100 + server.server_id, 50, 0.0), 0.0)
            server.dispatch(Query(200 + server.server_id, 50, 0.0), 0.0)
        assert policy.schedule(0.0, [Query(0, 50, 0.0)], mixed_cluster) == []

    def test_prefers_busy_base_over_violating_aux(self, rm2, profiles, catalog):
        # One GPU busy for a short while; a large query that would violate on the idle
        # CPU must wait for the GPU instead of being committed to the CPU.
        config = HeterogeneousConfig((1, 0, 1, 0), catalog)
        cluster = Cluster(config, rm2, profiles)
        policy = KairosPolicy(use_perfect_estimator=True)
        policy.bind(cluster, rm2.qos_ms)
        cluster[0].dispatch(Query(50, 300, 0.0), 0.0)  # GPU busy for ~92 ms
        big = profiles.qos_cutoff_batch(rm2, "r5n.large") + 100
        decisions = policy.schedule(1.0, [Query(0, big, 1.0)], cluster)
        # GPU is eligible (depth 1) and still meets QoS including its remaining time;
        # the idle CPU cannot serve this batch within QoS at all.
        assert len(decisions) == 1
        assert cluster[decisions[0][1]].type_name == "g4dn.xlarge"

    def test_defers_when_no_feasible_slot_yet(self, rm2, profiles, catalog):
        # Both instances are currently infeasible for the query (the GPU because of its
        # backlog, the CPU intrinsically), but the GPU could serve it once free: the
        # policy must defer rather than lock in a violation.
        config = HeterogeneousConfig((1, 0, 1, 0), catalog)
        cluster = Cluster(config, rm2, profiles)
        policy = KairosPolicy(use_perfect_estimator=True)
        policy.bind(cluster, rm2.qos_ms)
        cluster[0].dispatch(Query(50, 1000, 0.0), 0.0)  # GPU busy for ~210 ms
        big = profiles.qos_cutoff_batch(rm2, "r5n.large") + 100
        decisions = policy.schedule(1.0, [Query(0, big, 1.0)], cluster)
        assert decisions == []

    def test_hopeless_queries_are_flushed(self, rm2, profiles, catalog):
        config = HeterogeneousConfig((1, 0, 1, 0), catalog)
        cluster = Cluster(config, rm2, profiles)
        policy = KairosPolicy(use_perfect_estimator=True)
        policy.bind(cluster, rm2.qos_ms)
        # a query that has already waited longer than the QoS target can never meet it
        stale = Query(0, 100, 0.0)
        decisions = policy.schedule(400.0, [stale], cluster)
        assert len(decisions) == 1

    def test_simulation_end_to_end_meets_qos_at_low_load(self, rm2, profiles, catalog):
        config = HeterogeneousConfig((1, 0, 2, 0), catalog)
        queries = queries_from_batches(
            [100, 400, 50, 800, 20, 300] * 10,
            list(np.arange(60) * 200.0),
        )
        report = simulate_serving(config, rm2, profiles, KairosPolicy(), queries)
        assert report.metrics.qos_violation_rate() <= 0.05


class TestEmptyContainerRounds:
    """Scheduling against an empty server container returns [] (no argmin crash)."""

    def test_kairos_single_query_empty_view(self, rm2_cluster):
        from repro.sim.cluster import ClusterView
        from repro.workload.query import Query

        policy = KairosPolicy(use_perfect_estimator=True)
        policy.bind(rm2_cluster, rm2_cluster.model.qos_ms)
        empty = ClusterView(rm2_cluster, [])
        assert policy.schedule(0.0, [Query(0, 8, 0.0)], empty) == []
        # multi-query rounds through the same empty container also decline
        assert policy.schedule(0.0, [Query(1, 8, 0.0), Query(2, 4, 0.0)], empty) == []
