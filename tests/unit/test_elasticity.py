"""Tests for the online-elasticity subsystem.

Covers the usage ledger, elastic cluster membership (draining, views, id stability),
the sliding-rate estimator and re-planning controller, and the elastic serving
simulation's provisioning-event lifecycle and determinism.
"""

import numpy as np
import pytest

from repro.cloud.billing import InstanceUsageLedger
from repro.cloud.config import HeterogeneousConfig
from repro.core.controller import (
    ArrivalRateEstimator,
    ElasticKairosController,
    migration_deltas,
)
from repro.schedulers.fcfs import RibbonFCFSPolicy
from repro.schedulers.kairos_policy import KairosPolicy
from repro.sim.cluster import Cluster
from repro.sim.elasticity import (
    ElasticServingSimulation,
    drain_cost_efficiency,
    scale_down_priority,
    select_drain_victims,
    simulate_elastic_serving,
)
from repro.sim.events import Event, EventKind, ScaleRequest
from repro.sim.faults import RetryPolicy
from repro.workload.batch_sizes import TruncatedLogNormalBatchSizes
from repro.workload.generator import WorkloadGenerator, WorkloadSpec
from repro.workload.phases import LoadPhase, PhasedTrace


@pytest.fixture
def small_stream(rng):
    spec = WorkloadSpec(
        batch_sizes=TruncatedLogNormalBatchSizes(median=80, sigma=1.1),
        num_queries=150,
    )
    return WorkloadGenerator(spec).generate(rate_qps=40.0, rng=rng)


# -- ledger ------------------------------------------------------------------------------


class TestInstanceUsageLedger:
    def test_cost_integral(self, catalog):
        ledger = InstanceUsageLedger(catalog)
        gpu = catalog["g4dn.xlarge"]
        ledger.start(0, gpu, 0.0)
        ledger.stop(0, 1_800_000.0)  # half an hour
        assert ledger.total_cost(3_600_000.0) == pytest.approx(gpu.price_per_hour / 2)

    def test_open_interval_accrues_to_horizon(self, catalog):
        ledger = InstanceUsageLedger(catalog)
        gpu = catalog["g4dn.xlarge"]
        ledger.start(0, gpu, 0.0)
        assert ledger.total_cost(3_600_000.0) == pytest.approx(gpu.price_per_hour)

    def test_windowed_cost(self, catalog):
        ledger = InstanceUsageLedger(catalog)
        gpu = catalog["g4dn.xlarge"]
        ledger.start(0, gpu, 1000.0)
        ledger.stop(0, 3000.0)
        # fully inside, partial overlap, and disjoint windows
        assert ledger.cost_in_window(0.0, 4000.0) == pytest.approx(
            gpu.price_per_hour * 2000.0 / 3_600_000.0
        )
        assert ledger.cost_in_window(2000.0, 4000.0) == pytest.approx(
            gpu.price_per_hour * 1000.0 / 3_600_000.0
        )
        assert ledger.cost_in_window(4000.0, 8000.0) == 0.0

    def test_double_start_and_missing_stop_rejected(self, catalog):
        ledger = InstanceUsageLedger(catalog)
        ledger.start(0, "g4dn.xlarge", 0.0)
        with pytest.raises(ValueError):
            ledger.start(0, "g4dn.xlarge", 10.0)
        with pytest.raises(ValueError):
            ledger.stop(1, 10.0)

    def test_concurrent_and_mean_rates(self, catalog):
        ledger = InstanceUsageLedger(catalog)
        gpu = catalog["g4dn.xlarge"]
        cpu = catalog["r5n.large"]
        ledger.start(0, gpu, 0.0)
        ledger.start(1, cpu, 0.0)
        ledger.stop(1, 1_800_000.0)
        assert ledger.concurrent_cost_per_hour(100.0) == pytest.approx(
            gpu.price_per_hour + cpu.price_per_hour
        )
        assert ledger.concurrent_cost_per_hour(2_000_000.0) == pytest.approx(
            gpu.price_per_hour
        )
        assert ledger.mean_cost_per_hour(3_600_000.0) == pytest.approx(
            gpu.price_per_hour + cpu.price_per_hour / 2
        )

    def test_close_all(self, catalog):
        ledger = InstanceUsageLedger(catalog)
        ledger.start(0, "g4dn.xlarge", 0.0)
        ledger.start(1, "r5n.large", 100.0)
        ledger.close_all(500.0)
        assert all(iv.end_ms == 500.0 for iv in ledger.intervals)


# -- elastic cluster membership ----------------------------------------------------------


class TestElasticCluster:
    def test_add_server_gets_fresh_id(self, rm2_cluster):
        n = len(rm2_cluster)
        server = rm2_cluster.add_server("g4dn.xlarge", now_ms=500.0)
        assert server.server_id == n
        assert server.commissioned_at_ms == 500.0
        assert len(rm2_cluster) == n + 1

    def test_ids_never_reused_after_removal(self, rm2_cluster):
        first = rm2_cluster.add_server("g4dn.xlarge")
        rm2_cluster.remove_server(first.server_id)
        second = rm2_cluster.add_server("g4dn.xlarge")
        assert second.server_id > first.server_id

    def test_server_by_id_after_removal(self, rm2_cluster):
        victim = rm2_cluster[1]
        rm2_cluster.remove_server(victim.server_id)
        with pytest.raises(KeyError):
            rm2_cluster.server_by_id(victim.server_id)
        # remaining ids still resolve even though indices shifted
        for s in rm2_cluster:
            assert rm2_cluster.server_by_id(s.server_id) is s

    def test_drain_prefers_idle_servers(self, rm2_cluster):
        servers = rm2_cluster.servers_of_type("r5n.large")
        busy, idle = servers[0], servers[1]
        busy.busy_until_ms = 500.0
        busy.local_queue_depth = 1
        victims = rm2_cluster.drain_servers("r5n.large", 1, now_ms=100.0)
        assert victims == [idle]
        assert idle.draining and not busy.draining

    def test_draining_server_rejects_dispatch(self, rm2_cluster, small_stream):
        server = rm2_cluster[0]
        server.start_draining()
        with pytest.raises(RuntimeError):
            server.dispatch(small_stream[0], 0.0)

    def test_active_view_excludes_draining(self, rm2_cluster):
        rm2_cluster[0].start_draining()
        view = rm2_cluster.active_view()
        assert len(view) == len(rm2_cluster) - 1
        assert all(not s.draining for s in view)
        # the view delegates the substrate accessors policies rely on
        assert view.model is rm2_cluster.model
        assert view.config is rm2_cluster.config
        assert view.profiles is rm2_cluster.profiles
        assert view.type_names() == [s.type_name for s in view]

    def test_current_config_tracks_membership(self, rm2_cluster):
        rm2_cluster.add_server("g4dn.xlarge")
        config = rm2_cluster.current_config()
        assert config.count_of("g4dn.xlarge") == 2

    def test_reset_clears_draining(self, rm2_cluster):
        rm2_cluster[0].start_draining()
        rm2_cluster.reset()
        assert all(not s.draining for s in rm2_cluster)


# -- cost-aware drain victim selection ----------------------------------------------------


class TestCostAwareDrainSelection:
    """ROADMAP item: when multiple types shrink at once, drain the victims freeing the
    most $/hr per unit of lost QoS-feasible serving capacity first."""

    def test_scores_rank_expensive_low_capacity_types_first(self, profiles, rm2):
        scores = {
            name: drain_cost_efficiency(profiles, rm2, name)
            for name in profiles.catalog.names
        }
        # For RM2 the GPU frees by far the most $/hr per qps given up (0.526$/hr at a
        # modest QoS-feasible rate), then c5n (0.432$/hr), then t3, then r5n — the
        # memory-optimized type is RM2's cheapest capacity and drains last.
        assert (
            scores["g4dn.xlarge"]
            > scores["c5n.2xlarge"]
            > scores["t3.xlarge"]
            > scores["r5n.large"]
        )

    def test_type_with_zero_feasible_capacity_drains_first(self, profiles, rm2):
        # a type that cannot serve any probed batch within QoS costs nothing to drain
        assert drain_cost_efficiency(
            profiles, rm2, "t3.xlarge", probe_batches=[1000]
        ) == float("inf")

    def test_priority_order_is_deterministic(self, profiles, rm2):
        order = scale_down_priority(profiles, rm2, list(profiles.catalog.names))
        assert order == ["g4dn.xlarge", "c5n.2xlarge", "t3.xlarge", "r5n.large"]
        # subsets keep the same relative order
        assert scale_down_priority(profiles, rm2, ["r5n.large", "c5n.2xlarge"]) == [
            "c5n.2xlarge",
            "r5n.large",
        ]

    def test_three_type_fixture_pins_the_chosen_victims(self, profiles, rm2, catalog):
        """3-type shrink: victims come out in cost-efficiency order across types and
        least-loaded-first within a type (pinned ids on a fixed fixture)."""
        config = HeterogeneousConfig((1, 1, 2, 0), catalog)  # ids 0=g4dn 1=c5n 2,3=r5n
        cluster = Cluster(config, rm2, profiles)
        # make r5n id=2 busy so id=3 is the least-loaded victim of that type
        cluster[2].busy_until_ms = 900.0
        cluster[2].local_queue_depth = 1
        victims = select_drain_victims(
            cluster,
            {"r5n.large": 1, "g4dn.xlarge": 1, "c5n.2xlarge": 1},
            now_ms=100.0,
        )
        # cross-type order: g4dn ($0.526/hr, ~13.7 qps) before c5n ($0.432, ~16.0)
        # before r5n ($0.149, ~13.9); within r5n the idle id=3 is preferred.
        assert [v.server_id for v in victims] == [0, 1, 3]
        assert all(v.draining for v in victims)
        assert not cluster[2].draining

    def test_replan_emits_scale_downs_in_cost_aware_order(self, profiles, rm2):
        """The elastic loop turns a multi-type shrink into SCALE_DOWN events that
        process most-cost-efficient-first within the same instant."""
        config = HeterogeneousConfig((2, 2, 3, 0))
        cluster = Cluster(config, rm2, profiles)
        sim = ElasticServingSimulation(cluster, KairosPolicy(), rng=0)
        from repro.core.kairos import KairosPlanner

        plan = KairosPlanner(rm2, 2.5, profiles=profiles, batch_samples=[64] * 50).plan()
        from repro.core.controller import ReplanDecision

        decision = ReplanDecision(
            time_ms=100.0,
            observed_rate_qps=10.0,
            provisioned_rate_qps=30.0,
            budget_per_hour=1.0,
            old_config=config,
            new_config=HeterogeneousConfig((1, 1, 2, 0)),
            plan=plan,
            scale_deltas={"g4dn.xlarge": -1, "c5n.2xlarge": -1, "r5n.large": -1},
        )
        from repro.sim.engine import EventQueue

        events = EventQueue()
        sim._emit_scale_events(decision, 100.0, events)
        popped = list(events.pop_until(100.0))
        assert [e.payload.type_name for e in popped] == [
            "g4dn.xlarge",
            "c5n.2xlarge",
            "r5n.large",
        ]


# -- rate estimation and the re-planning controller --------------------------------------


class TestArrivalRateEstimator:
    def test_steady_rate(self):
        est = ArrivalRateEstimator(window_ms=1000.0)
        for i in range(1, 101):
            est.observe(i * 10.0)  # 100 qps
        assert est.rate_qps(1000.0) == pytest.approx(100.0, rel=0.05)

    def test_window_eviction(self):
        est = ArrivalRateEstimator(window_ms=1000.0)
        for i in range(1, 101):
            est.observe(i * 10.0)
        # long silence: everything evicts, the rate collapses
        assert est.observations(5000.0) == 0
        assert est.rate_qps(5000.0) == 0.0

    def test_step_detected_after_window_turnover(self):
        est = ArrivalRateEstimator(window_ms=1000.0)
        t = 0.0
        for _ in range(100):
            t += 10.0
            est.observe(t)  # 100 qps
        for _ in range(400):
            t += 5.0
            est.observe(t)  # 200 qps for 2 windows
        assert est.rate_qps(t) == pytest.approx(200.0, rel=0.05)

    def test_rejects_time_travel(self):
        est = ArrivalRateEstimator()
        est.observe(100.0)
        with pytest.raises(ValueError):
            est.observe(50.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ArrivalRateEstimator(window_ms=0.0)


class TestArrivalRateEstimatorTimeOrigin:
    """Regression: the estimator must anchor on the first *observed* arrival.

    Pre-fix, ``rate_qps`` normalized by ``min(window_ms, max(now_ms, last))`` —
    absolute time — so any trace starting at ``t0 >> window_ms`` immediately read
    a full-window span and deflated the rate by ``observed_span / window``.
    """

    def test_rate_anchored_on_first_observed_arrival(self):
        est = ArrivalRateEstimator(window_ms=5_000.0)
        t0 = 1_000_000.0  # a committed trace slice starting ~17 minutes in
        for i in range(21):
            est.observe(t0 + i * 25.0)  # 40 qps over a 500 ms observed span
        now = t0 + 500.0
        # span is the 500 ms since the first arrival, not the full 5 s window:
        # 21 arrivals / 0.5 s = 42 qps.  Pre-fix this read 21 / 5 s = 4.2 qps.
        assert est.rate_qps(now) == pytest.approx(42.0)
        assert est.first_observed_ms == t0

    def test_offset_origin_matches_zero_origin(self):
        def rates(origin):
            est = ArrivalRateEstimator(window_ms=1_000.0)
            out = []
            for i in range(50):
                t = origin + i * 20.0
                est.observe(t)
                out.append(est.rate_qps(t))
            return out

        assert rates(600_000.0) == rates(0.0)

    def test_single_arrival_zero_span_reads_zero(self):
        est = ArrivalRateEstimator(window_ms=1_000.0)
        est.observe(750_000.0)
        assert est.rate_qps(750_000.0) == 0.0

    def test_window_elapsed_requires_an_observation(self):
        est = ArrivalRateEstimator(window_ms=1_000.0)
        # an untouched estimator never claims a trustworthy window, whatever the clock
        assert not est.window_elapsed(1e12)
        est.observe(600_000.0)
        assert not est.window_elapsed(600_999.0)
        assert est.window_elapsed(601_000.0)


class TestMigrationDeltas:
    def test_deltas(self, catalog):
        old = HeterogeneousConfig((2, 1, 3, 0), catalog)
        new = HeterogeneousConfig((3, 0, 3, 2), catalog)
        deltas = migration_deltas(old, new)
        assert deltas == {"g4dn.xlarge": 1, "c5n.2xlarge": -1, "t3.xlarge": 2}

    def test_identical_configs_no_deltas(self, catalog):
        config = HeterogeneousConfig((2, 1, 3, 0), catalog)
        assert migration_deltas(config, config) == {}


class TestElasticKairosController:
    def make_controller(self, profiles, **kw):
        defaults = dict(
            window_ms=1000.0,
            change_threshold=1.5,
            min_observations=20,
            cooldown_ms=2000.0,
            rng=0,
        )
        defaults.update(kw)
        return ElasticKairosController(
            "RM2", 2.5, 100.0, profiles=profiles, **defaults
        )

    def test_requires_initial_plan(self, profiles):
        ctrl = self.make_controller(profiles)
        with pytest.raises(RuntimeError):
            ctrl.maybe_replan(0.0)

    def test_initial_plan_sets_config(self, profiles):
        ctrl = self.make_controller(profiles)
        plan = ctrl.initial_plan()
        assert ctrl.current_config == plan.selected_config
        assert ctrl.provisioned_rate_qps == 100.0

    def test_steady_load_never_replans(self, profiles, rm2):
        ctrl = self.make_controller(profiles)
        ctrl.initial_plan()
        t = 0.0
        for i in range(300):
            t += 10.0  # 100 qps, exactly the provisioned rate
            ctrl.observe_arrival(_query(i, 64, t), t)
            assert ctrl.maybe_replan(t) is None
        assert ctrl.decisions == []

    def test_sustained_step_triggers_one_shot_replan(self, profiles):
        ctrl = self.make_controller(profiles)
        ctrl.initial_plan()
        t = 0.0
        for i in range(150):
            t += 10.0
            ctrl.observe_arrival(_query(i, 64, t), t)
            ctrl.maybe_replan(t)
        assert ctrl.decisions == []
        for i in range(150, 1000):
            t += 4.0  # 250 qps: a 2.5x step
            ctrl.observe_arrival(_query(i, 64, t), t)
            ctrl.maybe_replan(t)
            if ctrl.decisions:
                break
        assert len(ctrl.decisions) == 1
        decision = ctrl.decisions[0]
        assert decision.observed_rate_qps > 150.0
        assert decision.budget_per_hour > 2.5
        assert decision.is_scale_up
        assert decision.new_config.cost_per_hour() > decision.old_config.cost_per_hour()
        # the decision's deltas migrate old into new exactly
        migrated = decision.old_config
        for name, delta in decision.scale_deltas.items():
            migrated = migrated.add(name, delta)
        assert migrated == decision.new_config
        assert ctrl.provisioned_rate_qps == decision.observed_rate_qps

    def test_cooldown_blocks_immediate_second_replan(self, profiles):
        ctrl = self.make_controller(profiles, cooldown_ms=1e9)
        ctrl.initial_plan()
        t = 0.0
        for i in range(1000):
            t += 4.0
            ctrl.observe_arrival(_query(i, 64, t), t)
            ctrl.maybe_replan(t)
        assert len(ctrl.decisions) <= 1

    def test_budget_ceiling(self, profiles):
        ctrl = self.make_controller(profiles, max_budget_per_hour=3.0)
        ctrl.initial_plan()
        t = 0.0
        for i in range(2000):
            t += 1.0  # 1000 qps: 10x the provisioned load
            ctrl.observe_arrival(_query(i, 64, t), t)
            if ctrl.maybe_replan(t):
                break
        assert ctrl.decisions and ctrl.decisions[0].budget_per_hour <= 3.0

    def test_severe_drop_below_min_observations_still_replans(self, profiles):
        # 100 qps -> 2 qps: the 1s window holds only ~2 arrivals, far below
        # min_observations — but once a full window has elapsed, sparsity IS the
        # load-drop signal and must not block the down-replan.
        ctrl = self.make_controller(profiles, min_observations=20)
        ctrl.initial_plan()
        t = 0.0
        for i in range(150):
            t += 10.0
            ctrl.observe_arrival(_query(i, 64, t), t)
            ctrl.maybe_replan(t)
        assert ctrl.decisions == []
        for i in range(150, 170):
            t += 500.0  # 2 qps
            ctrl.observe_arrival(_query(i, 64, t), t)
            if ctrl.maybe_replan(t):
                break
        assert ctrl.decisions
        assert not ctrl.decisions[0].is_scale_up

    def test_scale_down_on_load_drop(self, profiles):
        ctrl = self.make_controller(profiles)
        ctrl.initial_plan()
        t = 0.0
        for i in range(300):
            t += 50.0  # 20 qps: a 5x drop from the provisioned 100 qps
            ctrl.observe_arrival(_query(i, 64, t), t)
            if ctrl.maybe_replan(t):
                break
        assert ctrl.decisions
        decision = ctrl.decisions[0]
        assert not decision.is_scale_up
        assert decision.budget_per_hour < 2.5


class TestElasticControllerOffsetTrace:
    """Regression: a trace whose first arrival is at ``t0 >> window_ms`` must not
    fire a spurious load-drop re-plan at trace start.

    Pre-fix, ``maybe_replan`` treated the window as elapsed once ``now_ms >=
    window_ms`` (absolute time), bypassing the ``min_observations`` gate, and the
    deflated early rate then looked like a severe load drop.
    """

    def make_controller(self, profiles, **kw):
        defaults = dict(
            window_ms=1000.0,
            change_threshold=1.5,
            min_observations=20,
            cooldown_ms=2000.0,
            rng=0,
        )
        defaults.update(kw)
        return ElasticKairosController(
            "RM2", 2.5, 100.0, profiles=profiles, **defaults
        )

    def test_no_spurious_replan_at_offset_trace_start(self, profiles):
        ctrl = self.make_controller(profiles)
        ctrl.initial_plan()
        t0 = 600_000.0  # first arrival ten minutes in, at the provisioned 100 qps
        for i in range(5):
            t = t0 + i * 10.0
            ctrl.observe_arrival(_query(i, 64, t), t)
            assert ctrl.maybe_replan(t) is None
        assert ctrl.decisions == []

    def test_offset_trace_still_detects_real_load_step(self, profiles):
        ctrl = self.make_controller(profiles)
        ctrl.initial_plan()
        t0 = 600_000.0
        t = t0
        for i in range(600):
            t += 4.0  # 250 qps: a 2.5x step, sustained past the window
            ctrl.observe_arrival(_query(i, 64, t), t)
            if ctrl.maybe_replan(t):
                break
        assert len(ctrl.decisions) == 1
        assert ctrl.decisions[0].is_scale_up

    def test_offset_trace_matches_zero_origin_decisions(self, profiles):
        # cooldown off: the initial cooldown is deliberately anchored at absolute
        # t=0 (the controller goes live when the run starts), which would shift
        # the first decision of the zero-origin twin — not what this test pins.
        def decide(origin):
            ctrl = self.make_controller(profiles, cooldown_ms=0.0)
            ctrl.initial_plan()
            t = origin
            fired_after = None
            for i in range(600):
                t += 4.0
                ctrl.observe_arrival(_query(i, 64, t), t)
                if ctrl.maybe_replan(t):
                    fired_after = t - origin
                    break
            return fired_after, [d.observed_rate_qps for d in ctrl.decisions]

        assert decide(600_000.0) == decide(0.0)


def _query(qid, batch, t):
    from repro.workload.query import Query

    return Query(query_id=qid, batch_size=batch, arrival_time_ms=t)


# -- elastic serving simulation ----------------------------------------------------------


class TestElasticServingSimulation:
    def test_static_cluster_serves_everything(self, rm2_cluster, small_stream):
        report = simulate_elastic_serving(
            rm2_cluster, KairosPolicy(), small_stream, rng=3
        )
        assert report.completed_all
        assert len(report.metrics) == len(small_stream)
        assert report.replans == [] and report.scale_log == []
        # every initial server billed for the whole run
        assert len(report.ledger.intervals) == len(rm2_cluster)

    def test_scripted_scale_up_adds_capacity_after_delay(self, rm2_cluster, small_stream):
        events = [Event(500.0, EventKind.SCALE_UP, ScaleRequest("g4dn.xlarge", 2))]
        report = simulate_elastic_serving(
            rm2_cluster,
            KairosPolicy(),
            small_stream,
            startup_delay_ms=250.0,
            scripted_events=events,
            rng=3,
        )
        assert report.completed_all
        kinds = [(e.kind, e.time_ms) for e in report.scale_log]
        assert (("scale_up"), 500.0) == (report.scale_log[0].kind, report.scale_log[0].time_ms)
        readies = [e for e in report.scale_log if e.kind == "instance_ready"]
        assert len(readies) == 2 and all(e.time_ms == 750.0 for e in readies)
        assert report.peak_instances == len(report.ledger.intervals) == 6
        # billing for the new instances starts at the request, not at readiness
        new_intervals = [iv for iv in report.ledger.intervals if iv.start_ms > 0]
        assert len(new_intervals) == 2
        assert all(iv.start_ms == 500.0 for iv in new_intervals)

    def test_scripted_scale_down_drains_and_decommissions(self, rm2_cluster, small_stream):
        events = [Event(1000.0, EventKind.SCALE_DOWN, ScaleRequest("r5n.large", 1))]
        report = simulate_elastic_serving(
            rm2_cluster, KairosPolicy(), small_stream, scripted_events=events, rng=3
        )
        assert report.completed_all
        assert len(report.cluster) == 3
        decommissions = [e for e in report.scale_log if e.kind == "decommission"]
        assert len(decommissions) == 1
        closed = [iv for iv in report.ledger.intervals if iv.end_ms is not None]
        drained = [iv for iv in closed if iv.end_ms < report.simulated_duration_ms]
        assert len(drained) == 1 and drained[0].type_name == "r5n.large"
        # draining never drops in-flight work: all queries completed exactly once
        assert len(report.metrics) == len(small_stream)

    def test_drain_to_zero_idles_instead_of_crashing(self, rm2_cluster, small_stream):
        # Draining every instance must not crash the policy re-bind; in-flight work
        # finishes, the rest is reported unserved.
        events = [
            Event(1000.0, EventKind.SCALE_DOWN, ScaleRequest(t, 99))
            for t in ("g4dn.xlarge", "c5n.2xlarge", "r5n.large")
        ]
        report = simulate_elastic_serving(
            rm2_cluster, KairosPolicy(), small_stream, scripted_events=events, rng=2
        )
        assert len(report.cluster) == 0
        assert not report.completed_all
        assert 0 < len(report.metrics) < len(small_stream)

    def test_drain_to_zero_then_scale_up_serves_stranded_queries(
        self, rm2_cluster, small_stream
    ):
        events = [
            Event(1000.0, EventKind.SCALE_DOWN, ScaleRequest(t, 99))
            for t in ("g4dn.xlarge", "c5n.2xlarge", "r5n.large")
        ]
        events.append(Event(1800.0, EventKind.SCALE_UP, ScaleRequest("g4dn.xlarge", 2)))
        report = simulate_elastic_serving(
            rm2_cluster,
            KairosPolicy(),
            small_stream,
            scripted_events=events,
            startup_delay_ms=200.0,
            rng=2,
        )
        assert report.completed_all
        assert len(report.metrics) == len(small_stream)
        assert len(report.cluster) == 2

    def test_unknown_scale_type_raises(self, rm2_cluster, small_stream):
        events = [Event(100.0, EventKind.SCALE_DOWN, ScaleRequest("no-such-type", 1))]
        with pytest.raises(ValueError, match="no-such-type"):
            simulate_elastic_serving(
                rm2_cluster, KairosPolicy(), small_stream, scripted_events=events, rng=3
            )

    def test_scripted_events_validated(self, rm2_cluster):
        with pytest.raises(ValueError):
            ElasticServingSimulation(
                rm2_cluster,
                KairosPolicy(),
                scripted_events=[Event(1.0, EventKind.QUERY_ARRIVAL, None)],
            )
        with pytest.raises(ValueError):
            ElasticServingSimulation(
                rm2_cluster,
                KairosPolicy(),
                scripted_events=[Event(1.0, EventKind.SCALE_UP, "not-a-request")],
            )

    def test_empty_stream_is_a_valid_noop(self, rm2_cluster):
        # Zero offered load is a legitimate scenario (the fuzzer draws it): the run
        # serves nothing, records nothing, and bills zero-length intervals.
        report = ElasticServingSimulation(rm2_cluster, KairosPolicy()).run([])
        assert report.total_queries == 0
        assert report.dispatched_queries == 0
        assert report.completed_all
        assert len(report.metrics) == 0
        assert report.billing_horizon_ms == 0.0
        assert report.total_cost() == 0.0

    def test_run_is_one_shot(self, rm2_cluster, small_stream):
        sim = ElasticServingSimulation(rm2_cluster, KairosPolicy(), rng=3)
        sim.run(small_stream)
        with pytest.raises(RuntimeError, match="one-shot"):
            sim.run(small_stream)

    def test_scale_down_cancels_booting_instances_first(self, rm2_cluster, small_stream):
        # A scale-down arriving while a scale-up of the same type is still booting
        # cancels the boot instead of draining a live server: membership ends where
        # the net delta says, and the cancelled instance never joins the cluster.
        n = len(rm2_cluster)
        events = [
            Event(500.0, EventKind.SCALE_UP, ScaleRequest("g4dn.xlarge", 2)),
            Event(600.0, EventKind.SCALE_DOWN, ScaleRequest("g4dn.xlarge", 1)),
        ]
        report = simulate_elastic_serving(
            rm2_cluster,
            KairosPolicy(),
            small_stream,
            startup_delay_ms=1000.0,  # still booting at 600 ms
            scripted_events=events,
            rng=3,
        )
        kinds = [e.kind for e in report.scale_log]
        assert "cancel_startup" in kinds
        assert "decommission" not in kinds  # no live server was drained
        assert len(report.cluster) == n + 1  # net +1 g4dn
        assert sum(1 for e in report.scale_log if e.kind == "instance_ready") == 1
        # the cancelled instance's billing stopped at the cancel, not the run end
        cancelled = [iv for iv in report.ledger.intervals if iv.end_ms == 600.0]
        assert len(cancelled) == 1 and cancelled[0].start_ms == 500.0

    def test_billing_horizon_covers_late_warmup_start(self, rm2_cluster, small_stream):
        # With warm-up queries excluded from metrics, the makespan starts late, but
        # billing must still integrate from t=0 to the run's end.
        report = simulate_elastic_serving(
            rm2_cluster, KairosPolicy(), small_stream, warmup_queries=50, rng=3
        )
        assert report.billing_horizon_ms > report.simulated_duration_ms
        # every initial server is billed over the full horizon
        for iv in report.ledger.intervals:
            assert iv.start_ms == 0.0 and iv.end_ms == report.billing_horizon_ms

    def test_deterministic_with_controller(self, profiles, rm2):
        def run_once():
            controller = ElasticKairosController(
                "RM2",
                2.5,
                60.0,
                profiles=profiles,
                window_ms=1000.0,
                change_threshold=1.5,
                min_observations=20,
                cooldown_ms=2000.0,
                rng=0,
            )
            plan = controller.initial_plan()
            cluster = Cluster(plan.selected_config, rm2, profiles)
            trace = PhasedTrace(
                [LoadPhase.step(60.0, 3000.0), LoadPhase.step(150.0, 3000.0)],
                WorkloadSpec(
                    batch_sizes=TruncatedLogNormalBatchSizes(median=80, sigma=1.1)
                ),
            )
            result = trace.generate(rng=5)
            report = simulate_elastic_serving(
                cluster,
                KairosPolicy(),
                list(result.queries),
                controller=controller,
                startup_delay_ms=300.0,
                rng=11,
            )
            return report

        a = run_once()
        b = run_once()
        assert a.summary() == b.summary()
        assert [
            (e.time_ms, e.kind, e.type_name, e.count) for e in a.scale_log
        ] == [(e.time_ms, e.kind, e.type_name, e.count) for e in b.scale_log]
        assert len(a.replans) == len(b.replans) >= 1
        # all elasticity traffic flowed through the event queue's ordering contract:
        # records are complete and the clock-dependent summary is reproducible
        assert a.completed_all


# -- equal-instant ordering of fresh arrivals -------------------------------------------


class _LoggedSimulation(ElasticServingSimulation):
    """Logs every handled event into ``log``, in order."""

    def __init__(self, log, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = log

    def _handle(self, event, now, *args):
        payload = event.payload
        tag = getattr(payload, "query", payload)
        tag = getattr(tag, "query_id", getattr(tag, "type_name", None))
        self.log.append((now, event.kind.name, tag))
        return super()._handle(event, now, *args)


class _ArrivalLog:
    """A controller stand-in that logs each fresh arrival it observes, never re-plans."""

    def __init__(self, log):
        self.log = log

    def observe_arrival(self, query, now_ms):
        self.log.append((now_ms, "fresh", query.query_id))

    def maybe_replan(self, now_ms):
        return None


class _PendingRecorder(RibbonFCFSPolicy):
    """FCFS that records the pending queue's order at every scheduling round."""

    def __init__(self):
        super().__init__()
        self.rounds = []

    def schedule(self, now_ms, pending, cluster):
        self.rounds.append((now_ms, [q.query_id for q in pending]))
        return super().schedule(now_ms, pending, cluster)


class TestEqualInstantArrivalOrder:
    """At t=30 ms a completion, a fresh arrival, a backoff re-queue and a scripted
    SCALE_UP coincide: they run in (time, kind, insertion) order, and a fresh
    arrival sorts as if pushed before every other event, so it joins the pending
    queue ahead of the re-queue."""

    def test_handling_and_pending_order(self, profiles, catalog):
        services = iter([50.0, 5.0])  # query 1, then query 2; 5 ms afterwards

        def service(latency_ms, rng):
            return next(services, 5.0)

        cluster = Cluster(
            HeterogeneousConfig((2, 0, 0, 0), catalog), profiles.models["RM2"], profiles
        )
        policy = _PendingRecorder()
        log = []
        sim = _LoggedSimulation(
            log,
            cluster,
            policy,
            controller=_ArrivalLog(log),
            noise=service,
            rng=0,
            # query 1's 50 ms attempt is abandoned at 10 ms and re-queued at 30 ms
            retry=RetryPolicy(
                max_attempts=2, backoff_base_ms=20.0, response_timeout_ms=10.0
            ),
            scripted_events=[
                Event(30.0, EventKind.SCALE_UP, ScaleRequest("r5n.large", 1))
            ],
        )
        report = sim.run([_query(1, 10, 0.0), _query(2, 10, 25.0), _query(3, 10, 30.0)])
        at_30 = [entry[1:] for entry in log if entry[0] == 30.0]
        assert at_30 == [
            ("SERVICE_COMPLETION", 2),  # query 2 ran 25 -> 30 ms
            ("fresh", 3),
            ("QUERY_ARRIVAL", 1),  # the re-queue, pushed at 10 ms
            ("SCALE_UP", "r5n.large"),
        ]
        assert (30.0, [3, 1]) in policy.rounds
        assert report.retries == 1
        assert report.completed_all


def test_a_finished_run_is_freed_without_the_cycle_collector(
    profiles, rm2, catalog, small_stream
):
    """Nothing a run builds (the handler table, the policy's column state) refers
    back to the simulation, so reference counting frees it and what it holds."""
    import gc
    import weakref

    gc.collect()
    gc.disable()
    try:
        sim = ElasticServingSimulation(
            Cluster(HeterogeneousConfig((2, 1, 2, 0), catalog), rm2, profiles),
            KairosPolicy(),
            retry=RetryPolicy(max_attempts=2, response_timeout_ms=4.0 * rm2.qos_ms),
            rng=np.random.default_rng(3),
        )
        sim.run(small_stream)
        alive = weakref.ref(sim)
        del sim
        assert alive() is None
    finally:
        gc.enable()
