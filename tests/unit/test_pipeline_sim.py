"""Unit tests for the pipeline runtime and serving loop.

Covers the coordinator's release semantics in isolation (synthetic
``QueryRecord``\\ s, no event loop), then the full
:class:`~repro.pipeline.simulation.PipelineServingSimulation`: release timing,
doomed-graph shedding, admission expansion to whole graphs, dead-letter unit
cancellation, per-graph metrics, and the no-graphs byte-identity guarantee
(locked down more broadly by the regression suite).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.cloud.config import HeterogeneousConfig
from repro.core.latency_model import NoisyLatencyEstimator, PerfectLatencyEstimator
from repro.pipeline import (
    CriticalPathKairosPolicy,
    PipelineServingSimulation,
    chain_graph,
    diamond_graph,
    realize_graphs,
)
from repro.pipeline.runtime import (
    GRAPH_DEAD,
    GRAPH_SERVED,
    GRAPH_SHED,
    GRAPH_UNSERVED,
)
from repro.schedulers.kairos_policy import MultiModelKairosPolicy
from repro.sim.cluster import MultiModelCluster
from repro.sim.faults import AdmissionController, FaultInjector, FaultProfile, RetryPolicy
from repro.sim.metrics import QueryRecord
from repro.sim.multi_model import MultiModelServingSimulation
from repro.workload.batch_sizes import TruncatedLogNormalBatchSizes
from repro.workload.generator import (
    WorkloadGenerator,
    WorkloadSpec,
    interleave_model_streams,
)


def two_model_cluster(profiles, counts=(1, 1, 2, 0)):
    configs = {
        "RM2": HeterogeneousConfig(counts, profiles.catalog),
        "WND": HeterogeneousConfig(counts, profiles.catalog),
    }
    return MultiModelCluster(configs, profiles)


def two_model_stream(num_queries=40, rate_qps=120.0):
    # A moderate batch spread: the heavy tail of the production distribution can
    # legitimately strand one giant query in the defer-not-hopeless limbo the
    # base loop also has, which would only add noise to these structural tests.
    streams = {}
    for i, name in enumerate(("RM2", "WND")):
        spec = WorkloadSpec(
            batch_sizes=TruncatedLogNormalBatchSizes(median=60, sigma=0.6),
            num_queries=num_queries,
            model_name=name,
        )
        streams[name] = WorkloadGenerator(spec).generate(rate_qps=rate_qps, rng=100 + i)
    return interleave_model_streams(streams)


def record_for(query, start_ms, completion_ms):
    return QueryRecord(
        query=query,
        server_id=0,
        server_type="p3.2xlarge",
        start_ms=start_ms,
        completion_ms=completion_ms,
        service_ms=completion_ms - start_ms,
    )


class TestRealizeGraphs:
    def test_dense_ids_and_release_arrivals(self):
        graphs = [
            diamond_graph(0, ("RM2", 8), ("RM2", 4), ("WND", 2), ("WND", 1), 500.0),
            chain_graph(1, [("RM2", 2), ("WND", 2)], 500.0, release_ms=50.0),
        ]
        sources, coordinator = realize_graphs(graphs, first_query_id=1000)
        assert coordinator.active
        ids = [
            coordinator.runtimes[g].queries[s.name].query_id
            for g in range(2)
            for s in graphs[g].stages
        ]
        assert ids == list(range(1000, 1006))
        # only sources join the offered stream, stamped with the release instant
        assert [q.query_id for q in sources] == [1000, 1004]
        assert sources[0].arrival_time_ms == pytest.approx(0.0)
        assert sources[1].arrival_time_ms == pytest.approx(50.0)

    def test_duplicate_query_ids_rejected(self):
        graphs = [chain_graph(0, [("RM2", 2)], 100.0)]
        _, coordinator = realize_graphs(graphs, first_query_id=0)
        with pytest.raises(ValueError, match="registered twice"):
            coordinator.register(coordinator.runtimes[0])


class TestCoordinatorReleases:
    def build(self):
        graph = diamond_graph(
            7, ("RM2", 8), ("RM2", 4), ("WND", 2), ("WND", 1), deadline_ms=400.0
        )
        _, coordinator = realize_graphs([graph], first_query_id=0)
        coordinator.bind_predictor(lambda model, batch: 50.0)
        return graph, coordinator, coordinator.runtimes[0]

    def test_source_completion_releases_branches_restamped(self):
        _, coordinator, runtime = self.build()
        released = coordinator.complete_stage(
            record_for(runtime.queries["src"], 5.0, 30.0), now_ms=30.0
        )
        assert sorted(q.query_id for q in released) == [1, 2]
        for query in released:
            assert query.arrival_time_ms == pytest.approx(30.0)
        # slack recomputed at the release: deadline_abs - now - remaining path
        # (branch 50 + sink 50 = 100 remaining under the constant predictor)
        assert runtime.slack_ms == pytest.approx(400.0 - 30.0 - 100.0)

    def test_sink_waits_for_all_parents(self):
        _, coordinator, runtime = self.build()
        coordinator.complete_stage(record_for(runtime.queries["src"], 0.0, 10.0), 10.0)
        released = coordinator.complete_stage(
            record_for(runtime.queries["b0"], 10.0, 40.0), 40.0
        )
        assert released == []  # b1 still unserved: the sink must not release
        released = coordinator.complete_stage(
            record_for(runtime.queries["b1"], 10.0, 55.0), 55.0
        )
        assert [q.query_id for q in released] == [3]

    def test_full_service_marks_graph_served(self):
        _, coordinator, runtime = self.build()
        for name, end in (("src", 10.0), ("b0", 30.0), ("b1", 40.0), ("sink", 90.0)):
            coordinator.complete_stage(
                record_for(runtime.queries[name], end - 5.0, end), end
            )
        assert runtime.outcome == "served"
        assert runtime.end_ms == pytest.approx(90.0)
        assert runtime.slack_ms == pytest.approx(400.0 - 90.0)
        outcome = coordinator.outcomes()[0]
        assert outcome.deadline_met
        assert outcome.e2e_latency_ms == pytest.approx(90.0)
        assert outcome.served_stages == 4
        assert outcome.realized_span_ms == pytest.approx(90.0 - 5.0)

    def test_terminal_graph_releases_nothing(self):
        _, coordinator, runtime = self.build()
        coordinator.mark_graph_shed(runtime, 20.0)
        released = coordinator.complete_stage(
            record_for(runtime.queries["src"], 0.0, 25.0), 25.0
        )
        assert released == []
        assert runtime.outcome == GRAPH_SHED

    def test_dead_dominates_shed(self):
        _, coordinator, runtime = self.build()
        coordinator.mark_graph_shed(runtime, 20.0)
        coordinator.mark_stage_dead(runtime.queries["src"].query_id, 30.0)
        assert runtime.outcome == GRAPH_DEAD
        outcome = coordinator.outcomes()[0]
        assert outcome.outcome == GRAPH_DEAD
        assert outcome.dead_stages == 1

    def test_doomed_requires_predictor_and_negative_slack(self):
        graph = chain_graph(0, [("RM2", 8)] * 3, deadline_ms=120.0)
        _, coordinator = realize_graphs([graph], first_query_id=0)
        assert coordinator.doomed(0.0) == []  # predictor unbound: no doom calls
        coordinator.bind_predictor(lambda model, batch: 50.0)
        assert coordinator.doomed(0.0) == [coordinator.runtimes[0]]  # 150 > 120
        coordinator.bind_predictor(lambda model, batch: 30.0)
        assert coordinator.doomed(0.0) == []  # 90 < 120
        assert coordinator.doomed(40.0) == [coordinator.runtimes[0]]

    def test_doomed_margin_requires_a_meaningful_projected_miss(self):
        graph = chain_graph(0, [("RM2", 8)] * 3, deadline_ms=120.0)
        _, coordinator = realize_graphs([graph], first_query_id=0)
        coordinator.bind_predictor(lambda model, batch: 30.0)
        # At now=40 the projected miss is 10 ms (90 remaining vs 80 left): doomed
        # bare, but inside a 25% * 120 = 30 ms margin the graph keeps running.
        assert coordinator.doomed(40.0) == [coordinator.runtimes[0]]
        assert coordinator.doomed(40.0, margin_frac=0.25) == []
        # A miss projected beyond the margin is doomed either way.
        assert coordinator.doomed(70.0, margin_frac=0.25) == [
            coordinator.runtimes[0]
        ]

    def test_priority_scale_bounds(self):
        _, coordinator, runtime = self.build()
        qid = runtime.queries["src"].query_id
        # Slack-rich early on: cpr(src) = 50 + max(100, 100) = 150, so
        # laxity = 400 - 150 = 250 -> scale 0.1 + 0.9 * (250 / 400) = 0.6625
        assert coordinator.priority_scale(qid, 0.0, 0.1) == pytest.approx(0.6625)
        # Blown slack floors at min_scale; far-future laxity caps at 1.0.
        assert coordinator.priority_scale(qid, 1e6, 0.1) == pytest.approx(0.1)
        sink_qid = runtime.queries["sink"].query_id
        for name, end in (("src", 1.0), ("b0", 2.0), ("b1", 3.0)):
            # released stages carry their release instant as arrival, so the
            # synthetic record must start at or after it
            coordinator.complete_stage(
                record_for(runtime.queries[name], end - 0.5, end), end
            )
        assert coordinator.priority_scale(sink_qid, 3.0, 0.1) == pytest.approx(
            min(1.0, 0.1 + 0.9 * ((400.0 - 3.0 - 50.0) / 400.0))
        )
        # Non-stage rows keep their nominal cost.
        assert coordinator.priority_scale(999_999, 0.0, 0.1) == pytest.approx(1.0)

    def test_priority_scale_urgency_window(self):
        _, coordinator, runtime = self.build()
        qid = runtime.queries["src"].query_id
        # laxity 250 of a 400 ms deadline: outside a half-deadline urgency window
        # the row keeps its nominal cost; the full-window default interpolates.
        assert coordinator.priority_scale(qid, 0.0, 0.1, urgency_frac=0.5) == 1.0
        # Inside the window the boost interpolates over the window, not the whole
        # deadline: at now=100, laxity = 400 - 100 - 150 = 150 of the 200 ms
        # window -> 0.1 + 0.9 * (150 / 200).
        assert coordinator.priority_scale(
            qid, 100.0, 0.1, urgency_frac=0.5
        ) == pytest.approx(0.1 + 0.9 * 0.75)
        # Blown slack floors at min_scale regardless of the window.
        assert coordinator.priority_scale(
            qid, 1e6, 0.1, urgency_frac=0.5
        ) == pytest.approx(0.1)

    def test_finalize_labels_leftovers_unserved(self):
        _, coordinator, runtime = self.build()
        coordinator.finalize(500.0)
        assert runtime.outcome == GRAPH_UNSERVED
        outcome = coordinator.outcomes()[0]
        assert outcome.outcome == GRAPH_UNSERVED
        assert not outcome.deadline_met
        assert outcome.unserved_stages == 1  # the released source
        assert outcome.unreleased_stages == 3


class TestPipelineSimulation:
    def test_graphs_complete_with_precedence(self, profiles):
        graphs = [
            chain_graph(0, [("RM2", 4), ("WND", 4), ("RM2", 2)], 4000.0),
            diamond_graph(
                1, ("WND", 8), ("RM2", 4), ("WND", 2), ("RM2", 1), 4000.0,
                release_ms=30.0,
            ),
        ]
        queries = two_model_stream(num_queries=25)
        sources, coordinator = realize_graphs(graphs, first_query_id=len(queries))
        policy = CriticalPathKairosPolicy(coordinator)
        sim = PipelineServingSimulation(
            two_model_cluster(profiles), policy, rng=np.random.default_rng(3)
        )
        report = sim.run(sorted(queries + sources, key=lambda q: (q.arrival_time_ms, q.query_id)))

        assert sim.deadline_attainment() == pytest.approx(1.0)
        assert all(o.outcome == "served" for o in sim.graph_outcomes)
        # conservation: releases widen the offered count
        assert report.total_queries == len(queries) + len(sources) + len(
            sim.released_queries
        )
        assert len(sim.released_queries) == 3 + 2  # chain tail + diamond non-sources

        # stage precedence: every stage starts at or after each parent's completion,
        # and released arrivals equal the releasing completion instant
        by_qid = {}
        for metrics in report.metrics.per_model().values():
            for record in metrics.records:
                by_qid[record.query.query_id] = record
        # conservation over the widened offered count (the base loop's defer
        # semantics may legitimately strand a plain query at quiescence)
        assert report.total_queries == len(by_qid) + report.unserved_queries
        for runtime in coordinator.runtimes:
            for stage in runtime.graph.stages:
                record = by_qid[runtime.queries[stage.name].query_id]
                for parent in stage.parents:
                    parent_record = by_qid[runtime.queries[parent].query_id]
                    assert record.start_ms >= parent_record.completion_ms - 1e-6
                if stage.parents:
                    release = max(
                        by_qid[runtime.queries[p].query_id].completion_ms
                        for p in stage.parents
                    )
                    assert record.query.arrival_time_ms == pytest.approx(release)

    def test_doomed_graph_is_shed_whole(self, profiles):
        # A deadline far below any service-time belief: doomed at first admission.
        graph = chain_graph(0, [("RM2", 8)] * 3, deadline_ms=0.001)
        queries = two_model_stream(num_queries=10)
        sources, coordinator = realize_graphs(graphs=[graph], first_query_id=len(queries))
        policy = CriticalPathKairosPolicy(coordinator)
        sim = PipelineServingSimulation(
            two_model_cluster(profiles), policy, rng=np.random.default_rng(3)
        )
        sim.run(sorted(queries + sources, key=lambda q: (q.arrival_time_ms, q.query_id)))
        outcome = sim.graph_outcomes[0]
        assert outcome.outcome == GRAPH_SHED
        assert sim.deadline_attainment() == 0.0
        reasons = {e.reason for e in sim.shed_queries}
        assert reasons == {"pipeline-doomed"}
        assert outcome.shed_stages == 1  # the queued source; successors never released
        assert outcome.unreleased_stages == 2

    def test_graph_aware_off_keeps_doomed_graph(self, profiles):
        graph = chain_graph(0, [("RM2", 8)] * 3, deadline_ms=0.001)
        queries = two_model_stream(num_queries=10)
        sources, coordinator = realize_graphs([graph], first_query_id=len(queries))
        policy = CriticalPathKairosPolicy(coordinator)
        sim = PipelineServingSimulation(
            two_model_cluster(profiles),
            policy,
            graph_aware=False,
            rng=np.random.default_rng(3),
        )
        sim.run(sorted(queries + sources, key=lambda q: (q.arrival_time_ms, q.query_id)))
        outcome = sim.graph_outcomes[0]
        # stage-local serving still runs the graph to completion — it just misses
        assert outcome.outcome == "served"
        assert not outcome.deadline_met
        assert sim.shed_queries == []

    def test_value_weighted_attainment(self, profiles):
        graphs = [
            chain_graph(0, [("RM2", 2)], 4000.0, value=3.0),
            chain_graph(1, [("RM2", 8)] * 3, 0.001, value=1.0),  # doomed
        ]
        queries = two_model_stream(num_queries=10)
        sources, coordinator = realize_graphs(graphs, first_query_id=len(queries))
        policy = CriticalPathKairosPolicy(coordinator)
        sim = PipelineServingSimulation(
            two_model_cluster(profiles), policy, rng=np.random.default_rng(3)
        )
        sim.run(sorted(queries + sources, key=lambda q: (q.arrival_time_ms, q.query_id)))
        assert sim.deadline_attainment() == pytest.approx(0.5)
        assert sim.value_deadline_attainment() == pytest.approx(0.75)

    def test_dead_letter_cancels_graph_as_unit(self, profiles):
        # Every type crashes almost immediately and there are no retries: the
        # first dispatched stage dead-letters and the rest of its graph is shed.
        graph = chain_graph(0, [("RM2", 4), ("RM2", 4), ("RM2", 2)], 60_000.0)
        sources, coordinator = realize_graphs([graph], first_query_id=0)
        faults = FaultInjector(
            [
                FaultProfile(type_name=name, failures_per_hour=1e7)
                for name in profiles.catalog.names
            ],
            auto_replace=True,
        )
        policy = CriticalPathKairosPolicy(coordinator)
        sim = PipelineServingSimulation(
            two_model_cluster(profiles),
            policy,
            faults=faults,
            fault_rng=np.random.default_rng(5),
            retry=RetryPolicy(max_attempts=1),
            rng=np.random.default_rng(3),
        )
        sim.run(sources)
        outcome = sim.graph_outcomes[0]
        assert outcome.outcome == GRAPH_DEAD
        assert len(sim.dead_letters) >= 1
        assert outcome.dead_stages >= 1
        # nothing lingers: every stage is served, shed, dead, or never released
        assert outcome.unserved_stages == 0
        for entry in sim.shed_queries:
            assert entry.reason in ("pipeline-dead", "pipeline-unit")

    def test_admission_overflow_sheds_whole_graphs(self, profiles):
        # Stage queries carry batch_size 1 so they are the first shed victims;
        # the victim expands to its whole graph under graph-aware admission.
        graph = diamond_graph(0, ("RM2", 1), ("RM2", 1), ("WND", 1), ("WND", 1), 60_000.0)
        queries = two_model_stream(num_queries=60, rate_qps=2000.0)
        sources, coordinator = realize_graphs([graph], first_query_id=len(queries))
        policy = CriticalPathKairosPolicy(coordinator)
        admission = AdmissionController(
            target_latency_ms=50.0,
            initial_concurrency=1,
            max_concurrency=1,
            shed_backlog_factor=1.0,
        )
        sim = PipelineServingSimulation(
            two_model_cluster(profiles),
            policy,
            admission=admission,
            rng=np.random.default_rng(3),
        )
        sim.run(sorted(queries + sources, key=lambda q: (q.arrival_time_ms, q.query_id)))
        outcome = sim.graph_outcomes[0]
        assert outcome.outcome == GRAPH_SHED
        assert "pipeline-overload" in {e.reason for e in sim.shed_queries}
        # standalone victims keep the default reason
        assert "overload" in {e.reason for e in sim.shed_queries}

    def test_unknown_stage_model_rejected(self, profiles):
        graph = chain_graph(0, [("GHOST", 4)], 100.0)
        sources, coordinator = realize_graphs([graph], first_query_id=0)
        sim = PipelineServingSimulation(
            two_model_cluster(profiles),
            CriticalPathKairosPolicy(coordinator),
            rng=np.random.default_rng(3),
        )
        with pytest.raises(KeyError, match="GHOST"):
            sim.run(sources)

    @pytest.mark.parametrize("sharded", [False, True])
    def test_no_graphs_matches_multi_model_loop(self, profiles, sharded):
        queries = two_model_stream(num_queries=60)

        base = MultiModelServingSimulation(
            two_model_cluster(profiles),
            MultiModelKairosPolicy(sharded=sharded),
            rng=np.random.default_rng(7),
            sharded_events=sharded,
        )
        pipe = PipelineServingSimulation(
            two_model_cluster(profiles),
            CriticalPathKairosPolicy(sharded=sharded),
            rng=np.random.default_rng(7),
            sharded_events=sharded,
        )
        a, b = base.run(queries), pipe.run(queries)

        def digest(report):
            records = []
            for metrics in report.metrics.per_model().values():
                for r in metrics.records:
                    records.append(
                        (
                            r.query.query_id,
                            r.server_id,
                            repr(r.start_ms),
                            repr(r.completion_ms),
                            repr(r.service_ms),
                        )
                    )
            records.sort()
            return (
                report.scheduling_rounds,
                report.dispatched_queries,
                repr(report.simulated_duration_ms),
                repr(report.total_cost()),
                tuple(records),
            )

        assert digest(a) == digest(b)
        assert pipe.graph_outcomes == []
        assert pipe.released_queries == []


# ---------------------------------------------------------------------------------------
# Belief cache: memoized critical paths equal a from-scratch recomputation
# ---------------------------------------------------------------------------------------

MIN_SCALE, URGENCY = 0.1, 0.5


def belief_setup(profiles, *, perfect=False, estimators=None):
    """Three overlapping two-model graphs under a bound critical-path policy."""
    graphs = [
        diamond_graph(0, ("RM2", 8), ("WND", 4), ("RM2", 16), ("WND", 2), 600.0),
        chain_graph(1, [("WND", 32), ("RM2", 4), ("WND", 8)], 900.0, release_ms=20.0),
        diamond_graph(
            2, ("WND", 1), ("RM2", 64), ("WND", 16), ("RM2", 2), 300.0, release_ms=40.0
        ),
    ]
    _, coordinator = realize_graphs(graphs, first_query_id=0)
    cluster = two_model_cluster(profiles)
    policy = CriticalPathKairosPolicy(
        coordinator,
        use_perfect_estimator=perfect,
        estimators=estimators,
        min_scale=MIN_SCALE,
        urgency_frac=URGENCY,
    )
    policy.bind(cluster.active_view())
    return cluster, policy, coordinator


def reference_slack(runtime, predict, now_ms):
    """Slack from scratch: deadline minus the longest chain off the served frontier."""
    graph = runtime.graph
    cpr = graph.critical_path_remaining(predict)
    remaining = 0.0
    for stage in graph.stages:
        if stage.name not in runtime.served and all(
            p in runtime.served for p in stage.parents
        ):
            remaining = max(remaining, cpr[stage.name])
    return graph.deadline_abs_ms() - now_ms - remaining


def reference_scale(runtime, name, predict, now_ms):
    if runtime.outcome is not None and runtime.outcome != GRAPH_SERVED:
        return 1.0
    graph = runtime.graph
    laxity = graph.deadline_abs_ms() - now_ms - graph.critical_path_remaining(predict)[name]
    window = URGENCY * graph.deadline_ms
    return min(1.0, max(MIN_SCALE, MIN_SCALE + (1.0 - MIN_SCALE) * (laxity / window)))


def assert_matches_reference(coordinator, predict, now_ms):
    """Every cached belief the coordinator serves equals its from-scratch value."""
    for runtime in coordinator.runtimes:
        first_access = runtime.critical_path_initial is None
        for name, query in runtime.queries.items():
            assert coordinator.priority_scale(
                query.query_id, now_ms, MIN_SCALE, urgency_frac=URGENCY
            ) == reference_scale(runtime, name, predict, now_ms)
        if first_access and runtime.outcome in (None, GRAPH_SERVED):
            assert runtime.critical_path_initial == runtime.graph.critical_path_ms(predict)
        if runtime.outcome is None:
            assert runtime.slack_at(now_ms, *coordinator._belief()) == reference_slack(
                runtime, predict, now_ms
            )
    assert coordinator.doomed(now_ms) == [
        r
        for r in coordinator.runtimes
        if r.outcome is None and reference_slack(r, predict, now_ms) < 0
    ]


def open_stages(coordinator):
    """Released, not-yet-served stages of live graphs, in a deterministic order."""
    return [
        (runtime, name)
        for runtime in coordinator.runtimes
        if runtime.outcome is None
        for name in sorted(runtime.pending_released())
    ]


#: One step of a coordinator history: complete an open stage, feed an estimator an
#: observation, shed a live graph, or let time pass.
belief_ops = st.one_of(
    st.tuples(st.just("complete"), st.integers(0, 20)),
    st.tuples(
        st.just("observe"),
        st.sampled_from(("RM2", "WND")),
        st.sampled_from(("g4dn.xlarge", "c5n.2xlarge", "r5n.large")),
        st.integers(1, 96),
        st.floats(1.0, 400.0),
    ),
    st.tuples(st.just("shed"), st.integers(0, 2)),
    st.tuples(st.just("advance"), st.floats(0.0, 150.0)),
)


def replay_ops(coordinator, policy, ops):
    """Apply ``ops`` and check every cached belief after each one."""
    predict = policy._predict_stage_ms
    now = 0.0
    assert_matches_reference(coordinator, predict, now)
    for op in ops:
        if op[0] == "complete":
            stages = open_stages(coordinator)
            if stages:
                runtime, name = stages[op[1] % len(stages)]
                query = runtime.queries[name]
                start = max(now, query.arrival_time_ms)
                now = start + 1.0
                released = coordinator.complete_stage(
                    record_for(query, start, now), now
                )
                if released:
                    assert runtime.slack_ms == reference_slack(runtime, predict, now)
        elif op[0] == "observe":
            _, model, type_name, batch, latency = op
            policy.estimator_of(model).observe(type_name, batch, latency)
        elif op[0] == "shed":
            coordinator.mark_graph_shed(coordinator.runtimes[op[1]], now)
        else:
            now += op[1]
        assert_matches_reference(coordinator, predict, now)


class TestBeliefCacheExactness:
    @pytest.mark.parametrize("perfect", [True, False])
    def test_scripted_history_matches_reference(self, profiles, perfect):
        _, policy, coordinator = belief_setup(profiles, perfect=perfect)
        ops = [
            ("advance", 10.0),
            ("complete", 0),
            ("observe", "RM2", "c5n.2xlarge", 8, 30.0),
            ("complete", 1),
            ("observe", "WND", "g4dn.xlarge", 4, 3.0),
            ("observe", "WND", "g4dn.xlarge", 32, 9.0),
            ("advance", 120.0),
            ("complete", 0),
            ("complete", 2),
            ("shed", 2),
            ("observe", "RM2", "r5n.large", 16, 70.0),
            ("complete", 0),
            ("advance", 400.0),
        ]
        replay_ops(coordinator, policy, ops)

    def test_direct_observe_invalidates(self, profiles):
        _, policy, coordinator = belief_setup(profiles)
        runtime = coordinator.runtimes[0]
        qid = runtime.queries["src"].query_id
        before = coordinator.priority_scale(qid, 0.0, MIN_SCALE)
        # the cold-start prior is 1 ms everywhere: one slow observation on every
        # type of the source's model lengthens the whole critical path
        for type_name in ("g4dn.xlarge", "c5n.2xlarge", "r5n.large"):
            policy.estimator_of("RM2").observe(type_name, 8, 250.0)
        after = coordinator.priority_scale(qid, 0.0, MIN_SCALE)
        assert after < before
        assert after == reference_scale(runtime, "src", policy._predict_stage_ms, 0.0)

    def test_rebinding_a_predictor_starts_a_fresh_belief(self):
        graph = chain_graph(0, [("RM2", 8)] * 3, deadline_ms=120.0)
        _, coordinator = realize_graphs([graph], first_query_id=0)
        runtime = coordinator.runtimes[0]
        qid = runtime.queries["s0"].query_id
        # both predictors claim the same (constant) version: only the rebind
        # itself tells the coordinator its memoized beliefs are stale
        coordinator.bind_predictor(lambda model, batch: 50.0, lambda: 0)
        assert coordinator.doomed(0.0) == [runtime]  # 150 > 120
        assert coordinator.priority_scale(qid, 0.0, MIN_SCALE) == MIN_SCALE
        coordinator.bind_predictor(lambda model, batch: 30.0, lambda: 0)
        assert coordinator.doomed(0.0) == []  # 90 < 120
        assert runtime.slack_at(0.0, *coordinator._belief()) == 120.0 - 90.0
        assert coordinator.priority_scale(qid, 0.0, MIN_SCALE) == pytest.approx(
            MIN_SCALE + (1.0 - MIN_SCALE) * 30.0 / 120.0
        )

    def test_column_rebind_after_cluster_change(self, profiles):
        cluster, policy, coordinator = belief_setup(profiles, perfect=True)
        predict = policy._predict_stage_ms
        assert_matches_reference(coordinator, predict, 0.0)
        runtime = coordinator.runtimes[2]
        before = runtime.slack_at(0.0, *coordinator._belief())
        # c5n is RM2's fastest type: without it every RM2 stage predicts slower
        for server in list(cluster.cluster_of("RM2").active_servers()):
            if server.instance_type.name == "c5n.2xlarge":
                cluster.remove_server(server.server_id)
        policy.bind(cluster.active_view())
        assert_matches_reference(coordinator, predict, 0.0)
        assert runtime.slack_at(0.0, *coordinator._belief()) < before

    @given(ops=st.lists(belief_ops, max_size=30), perfect=st.booleans())
    def test_random_histories_match_reference(self, profiles, ops, perfect):
        _, policy, coordinator = belief_setup(profiles, perfect=perfect)
        replay_ops(coordinator, policy, ops)

    def test_noisy_estimators_bypass_the_cache(self, profiles):
        """A noisy belief is re-predicted on every query, in the from-scratch order:
        the same predictor calls, the same draws, the same values."""
        log = []

        class LoggingNoisy(NoisyLatencyEstimator):
            def predict_ms(self, instance_type, batch_size):
                log.append((self.tag, instance_type, batch_size))
                return super().predict_ms(instance_type, batch_size)

        def twin():
            estimators = {}
            for i, model in enumerate(("RM2", "WND")):
                estimators[model] = LoggingNoisy(
                    PerfectLatencyEstimator(profiles, model), 0.05, rng=7 + i
                )
                estimators[model].tag = model
            _, policy, coordinator = belief_setup(profiles, estimators=estimators)
            return policy, coordinator, estimators

        policy, coordinator, estimators = twin()
        ref_policy, ref, ref_estimators = twin()
        predict = ref_policy._predict_stage_ms
        ref._predict = None  # the reference predicts only where the test says

        def cached_round(now):
            doomed = coordinator.doomed(now)
            scales = [
                coordinator.priority_scale(q.query_id, now, MIN_SCALE, urgency_frac=URGENCY)
                for runtime in coordinator.runtimes
                for q in runtime.queries.values()
            ]
            return [coordinator.runtimes.index(r) for r in doomed], scales

        def reference_round(now):
            # per live graph: the first access's initial critical path, then the
            # remaining path for its slack; then one laxity per stage row
            doomed = []
            for i, runtime in enumerate(ref.runtimes):
                if runtime.outcome is None:
                    if runtime.critical_path_initial is None:
                        runtime.critical_path_initial = runtime.graph.critical_path_ms(
                            predict
                        )
                    if reference_slack(runtime, predict, now) < 0:
                        doomed.append(i)
            scales = [
                reference_scale(runtime, name, predict, now)
                for runtime in ref.runtimes
                for name in runtime.queries
            ]
            return doomed, scales

        for now, stage in ((0.0, "src"), (30.0, "b0"), (60.0, "b1"), (90.0, None)):
            log.clear()
            cached = cached_round(now)
            cached_log = list(log)
            log.clear()
            assert reference_round(now) == cached
            assert log == cached_log and log
            if stage is None:
                break
            log.clear()
            runtime = coordinator.runtimes[0]
            released = coordinator.complete_stage(
                record_for(runtime.queries[stage], now, now + 1.0), now + 1.0
            )
            cached_log = list(log)
            log.clear()
            ref_runtime = ref.runtimes[0]
            ref.complete_stage(
                record_for(ref_runtime.queries[stage], now, now + 1.0), now + 1.0
            )
            if released:  # the release refreshes the graph's slack once
                assert runtime.slack_ms == reference_slack(ref_runtime, predict, now + 1.0)
            assert log == cached_log
        for model in ("RM2", "WND"):
            assert (
                estimators[model]._rng.bit_generator.state
                == ref_estimators[model]._rng.bit_generator.state
            )
