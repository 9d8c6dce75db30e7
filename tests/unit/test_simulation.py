"""Tests for repro.sim.simulation (static runs of the serving kernel)."""

import numpy as np
import pytest

from repro.cloud.config import HeterogeneousConfig
from repro.schedulers.fcfs import RibbonFCFSPolicy
from repro.schedulers.kairos_policy import KairosPolicy
from repro.sim.elasticity import ElasticServingSimulation
from repro.sim.simulation import simulate_serving
from repro.sim.cluster import Cluster
from repro.workload.generator import queries_from_batches
from repro.workload.query import Query


@pytest.fixture
def single_gpu_config(catalog):
    return HeterogeneousConfig((1, 0, 0, 0), catalog)


class TestSimulateServing:
    def test_all_queries_served(self, single_gpu_config, rm2, profiles, small_workload):
        report = simulate_serving(
            single_gpu_config, rm2, profiles, RibbonFCFSPolicy(), small_workload
        )
        assert report.completed_all
        assert len(report.metrics) == len(small_workload)
        assert report.dispatched_queries == len(small_workload)

    def test_latency_matches_profile_when_uncontended(self, single_gpu_config, rm2, profiles):
        # Widely spaced arrivals: no queueing, so latency == service latency == profile.
        queries = queries_from_batches([100, 200, 300], [0.0, 10_000.0, 20_000.0])
        report = simulate_serving(
            single_gpu_config, rm2, profiles, RibbonFCFSPolicy(), queries
        )
        for record in report.metrics.records:
            expected = profiles.latency_ms(rm2, "g4dn.xlarge", record.query.batch_size)
            assert record.latency_ms == pytest.approx(expected)
            assert record.waiting_ms == pytest.approx(0.0)

    def test_fcfs_queueing_on_single_server(self, single_gpu_config, rm2, profiles):
        # Two queries arriving together: the second waits for the first.
        queries = queries_from_batches([100, 100], [0.0, 0.0])
        report = simulate_serving(
            single_gpu_config, rm2, profiles, RibbonFCFSPolicy(), queries
        )
        records = sorted(report.metrics.records, key=lambda r: r.query.query_id)
        service = profiles.latency_ms(rm2, "g4dn.xlarge", 100)
        assert records[0].latency_ms == pytest.approx(service)
        assert records[1].latency_ms == pytest.approx(2 * service)

    def test_dispatch_overhead_adds_latency(self, single_gpu_config, rm2, profiles):
        queries = queries_from_batches([100], [0.0])
        base = simulate_serving(
            single_gpu_config, rm2, profiles, RibbonFCFSPolicy(), queries
        ).metrics.records[0]
        with_overhead = simulate_serving(
            single_gpu_config, rm2, profiles, RibbonFCFSPolicy(), queries,
            dispatch_overhead_ms=3.0,
        ).metrics.records[0]
        assert with_overhead.latency_ms == pytest.approx(base.latency_ms + 3.0)

    def test_warmup_excludes_first_queries(self, single_gpu_config, rm2, profiles, small_workload):
        full = simulate_serving(
            single_gpu_config, rm2, profiles, KairosPolicy(), small_workload
        )
        warm = simulate_serving(
            single_gpu_config, rm2, profiles, KairosPolicy(), small_workload,
            warmup_queries=30,
        )
        assert len(full.metrics) == len(small_workload)
        assert len(warm.metrics) == len(small_workload) - 30

    def test_early_stop_on_violation_budget(self, single_gpu_config, rm2, profiles):
        # An absurd arrival rate forces violations; the run must stop early.
        queries = queries_from_batches([900] * 200, list(np.linspace(0, 10, 200)))
        report = simulate_serving(
            single_gpu_config, rm2, profiles, RibbonFCFSPolicy(), queries,
            max_violations=3,
        )
        assert report.early_stopped
        assert not report.completed_all
        assert len(report.metrics) < 200

    def test_empty_workload_is_a_valid_noop(self, single_gpu_config, rm2, profiles):
        report = simulate_serving(single_gpu_config, rm2, profiles, RibbonFCFSPolicy(), [])
        assert report.total_queries == 0
        assert report.dispatched_queries == 0
        assert report.completed_all
        assert len(report.metrics) == 0
        assert report.unserved_queries == 0

    def test_report_summary_and_utilization(self, small_config, rm2, profiles, small_workload):
        report = simulate_serving(small_config, rm2, profiles, KairosPolicy(), small_workload)
        summary = report.summary()
        assert summary["num_queries"] == len(small_workload)
        util = report.utilization_by_type()
        assert set(util) <= {"g4dn.xlarge", "c5n.2xlarge", "r5n.large", "t3.xlarge"}
        assert all(0.0 <= u <= 1.0 for u in util.values())

    def test_deterministic_given_seed(self, small_config, rm2, profiles, small_workload):
        def run():
            return simulate_serving(
                small_config, rm2, profiles, KairosPolicy(), small_workload, rng=5
            ).metrics.tail_latency_ms()

        assert run() == pytest.approx(run())


class _BadPolicy(RibbonFCFSPolicy):
    """Policy that assigns a query that is not pending (must be rejected)."""

    def schedule(self, now_ms, pending, cluster):
        rogue = Query(99999, 10, 0.0)
        return [(rogue, 0)]


class _BadServerPolicy(RibbonFCFSPolicy):
    """Policy that assigns to a non-existent server index."""

    def schedule(self, now_ms, pending, cluster):
        return [(pending[0], 999)]


class _LazyPolicy(RibbonFCFSPolicy):
    """Policy that never schedules anything (must trip the progress guard)."""

    def schedule(self, now_ms, pending, cluster):
        return []


class TestPolicyContractEnforcement:
    def test_unknown_query_rejected(self, single_gpu_config, rm2, profiles):
        queries = queries_from_batches([10], [0.0])
        with pytest.raises(ValueError):
            simulate_serving(single_gpu_config, rm2, profiles, _BadPolicy(), queries)

    def test_unknown_server_rejected(self, single_gpu_config, rm2, profiles):
        queries = queries_from_batches([10], [0.0])
        with pytest.raises(ValueError):
            simulate_serving(single_gpu_config, rm2, profiles, _BadServerPolicy(), queries)

    def test_no_progress_terminates(self, single_gpu_config, rm2, profiles):
        queries = queries_from_batches([10, 20], [0.0, 1.0])
        report = simulate_serving(single_gpu_config, rm2, profiles, _LazyPolicy(), queries)
        # the simulation ends without serving anything rather than hanging
        assert len(report.metrics) == 0
        assert not report.completed_all
        # both queries arrived before the run ended: the second is still in the
        # arrival stream when the first round declines, and must not be lost
        assert report.unserved_queries == 2

    def test_invalid_warmup(self, single_gpu_config, rm2, profiles, rm2_cluster):
        with pytest.raises(ValueError):
            ElasticServingSimulation(rm2_cluster, RibbonFCFSPolicy(), warmup_queries=-1)
