"""Tests for preemption semantics: the warning -> drain -> re-queue -> re-provision
lifecycle of spot instances, served by the kernel given a market."""

import numpy as np
import pytest

from repro.cloud.config import HeterogeneousConfig
from repro.cloud.spot import MARKET_ON_DEMAND, MARKET_SPOT, SpotMarket
from repro.core.controller import ElasticKairosController
from repro.schedulers.kairos_policy import KairosPolicy
from repro.sim.cluster import Cluster, initial_spot_server_ids
from repro.sim.elasticity import (
    ElasticServingSimulation,
    scale_down_priority,
    simulate_elastic_serving,
)
from repro.sim.events import Event, EventKind, PreemptionBurst, ScaleRequest
from repro.sim.faults import FaultInjector, FaultProfile
from repro.sim.health import HealthConfig
from repro.workload.batch_sizes import TruncatedLogNormalBatchSizes
from repro.workload.generator import WorkloadGenerator, WorkloadSpec

SEED = 20230801


def _queries(num=150, rate=40.0, median=80, seed=SEED):
    spec = WorkloadSpec(
        batch_sizes=TruncatedLogNormalBatchSizes(median=median, sigma=1.1),
        num_queries=num,
    )
    return WorkloadGenerator(spec).generate(rate_qps=rate, rng=seed)


def _market(catalog, *, hazard=0.0, warning_ms=300.0, discount=0.65):
    return SpotMarket.uniform(
        catalog, discount=discount, preemptions_per_hour=hazard, warning_ms=warning_ms
    )


def _kinds(report):
    return [e.kind for e in report.scale_log]


class TestInitialSpotServerIds:
    def test_last_servers_of_each_type_block(self, profiles, rm2, catalog):
        cluster = Cluster(HeterogeneousConfig((2, 1, 3, 0), catalog), rm2, profiles)
        spot = HeterogeneousConfig((1, 0, 2, 0), catalog)
        ids = initial_spot_server_ids(cluster, spot)
        # ids 0-1 are g4dn, 2 is c5n, 3-5 are r5n: spot gets the tail of each block
        assert ids == [1, 4, 5]

    def test_overfull_spot_config_rejected(self, profiles, rm2, catalog):
        cluster = Cluster(HeterogeneousConfig((1, 0, 1, 0), catalog), rm2, profiles)
        with pytest.raises(ValueError):
            initial_spot_server_ids(cluster, HeterogeneousConfig((0, 0, 2, 0), catalog))


class TestConstruction:
    def test_spot_ids_require_a_market(self, rm2_cluster):
        with pytest.raises(ValueError, match="SpotMarket"):
            ElasticServingSimulation(
                rm2_cluster, KairosPolicy(), spot_server_ids=[0]
            )

    def test_unknown_spot_ids_rejected(self, small_config, rm2, profiles, catalog):
        cluster = Cluster(small_config, rm2, profiles)
        with pytest.raises(ValueError, match="not in the cluster"):
            ElasticServingSimulation(
                cluster,
                KairosPolicy(),
                market=_market(catalog),
                spot_server_ids=[99],
            )

    def test_spot_id_of_unoffered_type_rejected(self, small_config, rm2, profiles, catalog):
        cluster = Cluster(small_config, rm2, profiles)
        market = SpotMarket(
            [m for m in _market(catalog) if m.type_name == "r5n.large"],
            warning_ms=100.0,
        )
        with pytest.raises(KeyError):
            # server 0 is the g4dn base instance, which this market does not offer
            ElasticServingSimulation(
                cluster, KairosPolicy(), market=market, spot_server_ids=[0]
            )

    def test_scripted_burst_requires_market(self, rm2_cluster):
        events = [Event(10.0, EventKind.PREEMPTION_WARNING, PreemptionBurst(count=1))]
        with pytest.raises(ValueError, match="SpotMarket"):
            ElasticServingSimulation(
                rm2_cluster, KairosPolicy(), scripted_events=events
            )

    def test_scripted_burst_payload_validated(self, rm2_cluster, catalog):
        events = [Event(10.0, EventKind.PREEMPTION_WARNING, ("oops", 1))]
        with pytest.raises(ValueError, match="PreemptionBurst"):
            ElasticServingSimulation(
                rm2_cluster,
                KairosPolicy(),
                market=_market(catalog),
                scripted_events=events,
            )


class TestPreemptionLifecycle:
    """The full warning -> drain -> kill -> re-queue -> re-provision chain."""

    def _burst_run(self, profiles, rm2, catalog, *, warning_ms, rate=120.0, count=1):
        """One g4dn on-demand + one r5n spot, burst-preempted mid-run under load."""
        cluster = Cluster(HeterogeneousConfig((1, 0, 1, 0), catalog), rm2, profiles)
        queries = _queries(num=120, rate=rate, median=30)
        events = [Event(500.0, EventKind.PREEMPTION_WARNING, PreemptionBurst(count=count))]
        sim = ElasticServingSimulation(
            cluster,
            KairosPolicy(),
            market=_market(catalog, warning_ms=warning_ms),
            spot_server_ids=[1],
            scripted_events=events,
            startup_delay_ms=200.0,
            rng=np.random.default_rng(SEED),
        )
        return sim.run(queries), queries

    def test_busy_victim_is_killed_and_work_requeued(self, profiles, rm2, catalog):
        # warning far too short to drain a loaded queue: the kill re-queues work
        report, queries = self._burst_run(profiles, rm2, catalog, warning_ms=1.0)
        kinds = _kinds(report)
        assert "preemption_warning" in kinds
        assert "preempted" in kinds
        assert "requeue" in kinds
        # every query still completes exactly once, on the surviving capacity
        assert report.completed_all
        assert sorted(r.query.query_id for r in report.metrics.records) == sorted(
            q.query_id for q in queries
        )
        # the kill removed the instance: the victim is gone from the cluster
        assert all(s.server_id != 1 for s in report.cluster)

    def test_requeued_queries_pay_the_preemption_in_latency(self, profiles, rm2, catalog):
        report, _ = self._burst_run(profiles, rm2, catalog, warning_ms=1.0)
        requeued = [e for e in report.scale_log if e.kind == "requeue"]
        assert requeued and requeued[0].count >= 1
        # re-queued work re-enters the central queue at the kill instant; whoever
        # serves it starts no earlier than that
        kill_ms = next(e.time_ms for e in report.scale_log if e.kind == "preempted")
        victims = [
            r for r in report.metrics.records if r.start_ms >= kill_ms and r.query.arrival_time_ms < kill_ms
        ]
        assert victims  # some query actually waited through the preemption

    def test_billing_stops_at_the_kill(self, profiles, rm2, catalog):
        report, _ = self._burst_run(profiles, rm2, catalog, warning_ms=1.0)
        kill_ms = next(e.time_ms for e in report.scale_log if e.kind == "preempted")
        spot_initial = [
            iv for iv in report.ledger.intervals
            if iv.market == MARKET_SPOT and iv.start_ms == 0.0
        ]
        assert len(spot_initial) == 1
        assert spot_initial[0].end_ms == pytest.approx(kill_ms)
        assert spot_initial[0].price_multiplier == pytest.approx(0.35)

    def test_reactive_reprovision_replaces_the_victim(self, profiles, rm2, catalog):
        report, _ = self._burst_run(profiles, rm2, catalog, warning_ms=1.0)
        ups = [e for e in report.scale_log if e.kind == "scale_up"]
        assert ups and ups[0].reason == "reprovision"
        assert ups[0].time_ms == 500.0  # issued at the warning, not the kill
        ready = [e for e in report.scale_log if e.kind == "instance_ready"]
        assert ready and ready[0].time_ms == pytest.approx(700.0)  # startup delay 200ms
        # the replacement is billed as spot from the request instant
        replacement = [
            iv for iv in report.ledger.intervals
            if iv.market == MARKET_SPOT and iv.start_ms == 500.0
        ]
        assert len(replacement) == 1

    def test_idle_victim_decommissions_without_requeue(self, profiles, rm2, catalog):
        # a long warning lets the victim drain: the kill finds it already gone
        report, _ = self._burst_run(profiles, rm2, catalog, warning_ms=50_000.0, rate=10.0)
        kinds = _kinds(report)
        assert "preemption_warning" in kinds
        assert "requeue" not in kinds
        assert "preempted" not in kinds or "decommission" in kinds
        assert report.completed_all


class TestQuarantinedSpotInstances:
    def test_quarantined_spot_instance_is_still_warned_and_killed(
        self, profiles, rm2, catalog
    ):
        """A quarantine reported by a completion keeps the instance on the spot
        market: a later burst still warns it, and the kill removes it and stops
        its bill (it is not left serving past its reclaim, nor skipped)."""
        cluster = Cluster(HeterogeneousConfig((1, 0, 2, 0), catalog), rm2, profiles)
        events = [
            Event(
                1500.0,
                EventKind.PREEMPTION_WARNING,
                PreemptionBurst(count=2, type_name="r5n.large"),
            )
        ]
        sim = ElasticServingSimulation(
            cluster,
            KairosPolicy(),
            market=_market(catalog, warning_ms=100.0),
            spot_server_ids=[1, 2],
            scripted_events=events,
            faults=FaultInjector(
                [FaultProfile("r5n.large", degradations_per_hour=3600.0, degradation_factor=4.0)]
            ),
            health=HealthConfig(min_samples=3, degrade_ratio=1.8, probation_ms=60_000.0),
            gray_rng=np.random.default_rng(1),
            rng=np.random.default_rng(1),
        )
        report = sim.run(_queries(num=120, rate=60.0, median=30))
        quarantines = [e for e in report.scale_log if e.kind == "quarantine"]
        # non-vacuous: the spot instance was quarantined by a completion first
        assert [(e.reason, e.time_ms < 1500.0) for e in quarantines] == [
            ("server2:degraded", True)
        ]
        warned = [e for e in report.scale_log if e.kind == "preemption_warning"]
        assert [e.time_ms for e in warned] == [1500.0, 1500.0]
        assert _kinds(report).count("preempted") == 2
        assert not {1, 2} & {s.server_id for s in report.cluster}
        spot_ends = {
            iv.server_id: iv.end_ms for iv in report.ledger.intervals if iv.market == MARKET_SPOT
        }
        assert spot_ends[2] == pytest.approx(1600.0)
        assert report.completed_all


class TestBurstVictimOrdering:
    def test_burst_uses_drain_cost_efficiency_order(self, profiles, rm2, catalog):
        # spot portion spans two types; a partial burst must reclaim the type
        # scale_down_priority ranks first
        cluster = Cluster(HeterogeneousConfig((1, 1, 1, 0), catalog), rm2, profiles)
        events = [Event(200.0, EventKind.PREEMPTION_WARNING, PreemptionBurst(count=1))]
        report = simulate_elastic_serving(
            cluster,
            KairosPolicy(),
            _queries(num=60, rate=30.0),
            market=_market(catalog, warning_ms=1.0),
            spot_server_ids=[1, 2],  # the c5n and the r5n
            scripted_events=events,
            rng=np.random.default_rng(SEED),
        )
        expected_first = scale_down_priority(
            profiles, rm2, ["c5n.2xlarge", "r5n.large"]
        )[0]
        warned = [e for e in report.scale_log if e.kind == "preemption_warning"]
        assert warned[0].type_name == expected_first

    def test_burst_restricted_to_one_type(self, profiles, rm2, catalog):
        cluster = Cluster(HeterogeneousConfig((1, 1, 1, 0), catalog), rm2, profiles)
        events = [
            Event(
                200.0,
                EventKind.PREEMPTION_WARNING,
                PreemptionBurst(count=5, type_name="r5n.large"),
            )
        ]
        report = simulate_elastic_serving(
            cluster,
            KairosPolicy(),
            _queries(num=60, rate=30.0),
            market=_market(catalog, warning_ms=1.0),
            spot_server_ids=[1, 2],
            scripted_events=events,
            rng=np.random.default_rng(SEED),
        )
        warned = [e for e in report.scale_log if e.kind == "preemption_warning"]
        assert [e.type_name for e in warned] == ["r5n.large"]


class TestNaturalPreemptions:
    def test_hazard_drives_preemptions_and_run_terminates(self, profiles, rm2, catalog):
        cluster = Cluster(HeterogeneousConfig((1, 0, 2, 0), catalog), rm2, profiles)
        # ~ one preemption per spot instance per second of trace time
        report = simulate_elastic_serving(
            cluster,
            KairosPolicy(),
            _queries(num=150, rate=50.0, median=30),
            market=_market(catalog, hazard=3_600.0, warning_ms=20.0),
            spot_server_ids=[1, 2],
            startup_delay_ms=100.0,
            rng=np.random.default_rng(SEED),
            market_rng=np.random.default_rng(SEED + 5),
        )
        kinds = _kinds(report)
        assert kinds.count("preemption_warning") >= 2
        assert "scale_up" in kinds  # replacements kept coming while work remained
        assert report.completed_all

    def test_pending_timers_do_not_extend_the_billing_horizon(
        self, profiles, rm2, catalog
    ):
        """A reclaim timer drawn far beyond the trace must not keep the run (and
        every instance's billing) alive after the last query completes."""
        cluster = Cluster(HeterogeneousConfig((1, 0, 2, 0), catalog), rm2, profiles)
        baseline = simulate_elastic_serving(
            Cluster(HeterogeneousConfig((1, 0, 2, 0), catalog), rm2, profiles),
            KairosPolicy(),
            _queries(num=150, rate=60.0, median=30),
            rng=np.random.default_rng(SEED),
        )
        spotted = simulate_elastic_serving(
            cluster,
            KairosPolicy(),
            _queries(num=150, rate=60.0, median=30),
            market=_market(catalog, hazard=120.0, warning_ms=20.0),
            spot_server_ids=[1, 2],
            rng=np.random.default_rng(SEED),
            market_rng=np.random.default_rng(SEED + 5),
        )
        # hazard 120/hr over a ~2.5 s trace: timers land far beyond the makespan
        assert spotted.billing_horizon_ms <= baseline.billing_horizon_ms + 1e-6
        # discounted spot capacity can only make the same window cheaper
        assert spotted.total_cost() < baseline.total_cost()

    def test_declined_backlog_ends_with_reclaim_timers_queued(
        self, profiles, rm2, catalog, monkeypatch
    ):
        """The loop reads its idle-timer kinds once per run, and a market's
        widening still applies: with only reclaim timers left, a backlog the policy
        declines ends the run instead of cycling preemptions to the step guard."""
        calls = []
        idle_timer_kinds = ElasticServingSimulation._idle_timer_kinds

        def counting(sim):
            calls.append(sim)
            return idle_timer_kinds(sim)

        monkeypatch.setattr(ElasticServingSimulation, "_idle_timer_kinds", counting)

        class Declining(KairosPolicy):
            def schedule(self, now_ms, pending, cluster):
                return []

        report = simulate_elastic_serving(
            Cluster(HeterogeneousConfig((1, 0, 2, 0), catalog), rm2, profiles),
            Declining(),
            _queries(num=40, rate=50.0, median=30),
            market=_market(catalog, hazard=120.0, warning_ms=20.0),
            spot_server_ids=[1, 2],
            rng=np.random.default_rng(SEED),
            market_rng=np.random.default_rng(SEED + 5),
        )
        assert not report.completed_all
        assert len(calls) == 1

    def test_a_server_is_never_warned_twice(self, profiles, rm2, catalog):
        """Overlapping reclaim sources (two bursts, or a burst racing a natural
        timer) must produce one warning, one kill, one log entry per instance."""
        cluster = Cluster(HeterogeneousConfig((1, 0, 1, 0), catalog), rm2, profiles)
        events = [
            Event(400.0, EventKind.PREEMPTION_WARNING, PreemptionBurst(count=1)),
            Event(450.0, EventKind.PREEMPTION_WARNING, PreemptionBurst(count=1)),
        ]
        report = simulate_elastic_serving(
            cluster,
            KairosPolicy(),
            _queries(num=100, rate=80.0, median=30),
            market=_market(catalog, warning_ms=200.0),
            spot_server_ids=[1],
            scripted_events=events,
            startup_delay_ms=100.0,
            rng=np.random.default_rng(SEED),
        )
        kinds = _kinds(report)
        assert kinds.count("preemption_warning") == 1
        assert kinds.count("preempted") <= 1
        assert report.completed_all

    def test_zero_hazard_never_preempts(self, profiles, rm2, catalog):
        cluster = Cluster(HeterogeneousConfig((1, 0, 2, 0), catalog), rm2, profiles)
        report = simulate_elastic_serving(
            cluster,
            KairosPolicy(),
            _queries(num=100, rate=40.0),
            market=_market(catalog, hazard=0.0),
            spot_server_ids=[1, 2],
            rng=np.random.default_rng(SEED),
        )
        assert report.scale_log == []
        assert report.completed_all
        # billed as spot at the discounted rate nonetheless
        by_market = report.ledger.cost_by_market(report.billing_horizon_ms)
        assert by_market[MARKET_SPOT] > 0.0
        assert by_market[MARKET_ON_DEMAND] > 0.0


class TestControllerReprovisioning:
    def test_observe_preemption_books_loss_and_forces_replan(self, profiles):
        controller = ElasticKairosController(
            "RM2", 2.5, 60.0, profiles=profiles, window_ms=1000.0, cooldown_ms=1e9, rng=0
        )
        plan = controller.initial_plan()
        config = plan.selected_config
        victim_type = next(name for name, count in config if count > 0)
        controller.observe_preemption(victim_type, 50.0)
        assert controller.preemptions == [(50.0, victim_type, 1)]
        assert controller.current_config.count_of(victim_type) == config.count_of(victim_type) - 1
        # the next replan fires immediately (cooldown and thresholds bypassed) and
        # its deltas re-issue the lost capacity
        decision = controller.maybe_replan(60.0)
        assert decision is not None
        assert decision.scale_deltas.get(victim_type, 0) >= 1
        assert controller.current_config == decision.new_config
        # the provisioned rate is unchanged: capacity changed, not load
        assert controller.provisioned_rate_qps == 60.0
        # no pending preemption left: the next call is gated normally again
        assert controller.maybe_replan(70.0) is None

    def test_observe_preemption_validates_inputs(self, profiles):
        controller = ElasticKairosController("RM2", 2.5, 60.0, profiles=profiles, rng=0)
        with pytest.raises(RuntimeError):
            controller.observe_preemption("r5n.large", 0.0)
        controller.initial_plan()
        with pytest.raises(ValueError):
            controller.observe_preemption("g4dn.xlarge", 0.0, count=0)

    def test_observe_preemption_clamps_unplanned_losses(self, profiles):
        """A mixed cluster carries spot capacity beyond the controller's plan; losing
        it is recorded and still triggers re-provisioning, but can never drive the
        controller's configuration view negative."""
        controller = ElasticKairosController(
            "RM2", 2.5, 60.0, profiles=profiles, cooldown_ms=1e9, rng=0
        )
        config = controller.initial_plan().selected_config
        victim_type = next(name for name, count in config if count > 0)
        controller.observe_preemption(victim_type, 10.0, count=99)
        assert controller.current_config.count_of(victim_type) == 0
        assert controller.preemptions == [(10.0, victim_type, 99)]
        assert controller.maybe_replan(20.0) is not None  # forced re-provision

    def test_simulation_routes_preemptions_through_the_controller(self, profiles, catalog):
        model = profiles.models["RM2"]
        controller = ElasticKairosController(
            model,
            2.5,
            40.0,
            profiles=profiles,
            window_ms=800.0,
            min_observations=10,
            cooldown_ms=100.0,
            rng=0,
        )
        plan = controller.initial_plan()
        cluster = Cluster(plan.selected_config, model, profiles)
        spot_type = next(name for name, count in plan.selected_config if count > 0)
        spot_ids = [
            s.server_id for s in cluster if s.type_name == spot_type
        ][:1]
        events = [
            Event(
                600.0,
                EventKind.PREEMPTION_WARNING,
                PreemptionBurst(count=1, type_name=spot_type),
            )
        ]
        report = simulate_elastic_serving(
            cluster,
            KairosPolicy(),
            _queries(num=200, rate=40.0, median=30),
            market=_market(catalog, warning_ms=1.0),
            spot_server_ids=spot_ids,
            scripted_events=events,
            controller=controller,
            startup_delay_ms=150.0,
            rng=np.random.default_rng(SEED),
        )
        # the controller absorbed the loss and its forced replan re-provisioned
        assert controller.preemptions and controller.preemptions[0][1] == spot_type
        assert report.replans
        # the forced replan restores net capacity (not necessarily like-for-like:
        # the planner re-picks the cheapest shape from the live monitor window)
        forced = report.replans[0]
        assert sum(forced.scale_deltas.values()) >= 1
        # the simulator's own like-for-like replacement stays out of the way
        assert not any(
            e.kind == "scale_up" and e.reason == "reprovision" for e in report.scale_log
        )
        assert any(e.kind == "scale_up" and e.reason == "replan" for e in report.scale_log)


    def test_warning_after_last_arrival_still_replans(self, profiles, catalog):
        """Controller re-provisioning fires at the warning instant, so a reclaim
        after the final arrival (no future arrivals to piggyback on) still re-plans
        while the backlog drains."""
        model = profiles.models["RM2"]
        controller = ElasticKairosController(
            model,
            2.5,
            40.0,
            profiles=profiles,
            window_ms=800.0,
            min_observations=10,
            cooldown_ms=100.0,
            rng=0,
        )
        plan = controller.initial_plan()
        cluster = Cluster(plan.selected_config, model, profiles)
        spot_type = next(name for name, count in plan.selected_config if count > 0)
        spot_ids = [s.server_id for s in cluster if s.type_name == spot_type][:1]
        # a heavy backlog arrives almost at once and takes far longer to drain
        # than the arrival span; the burst fires after the last arrival but well
        # inside the drain
        queries = _queries(num=200, rate=400.0, median=400)
        last_arrival = max(q.arrival_time_ms for q in queries)
        burst_ms = last_arrival + 100.0
        events = [
            Event(
                burst_ms,
                EventKind.PREEMPTION_WARNING,
                PreemptionBurst(count=1, type_name=spot_type),
            )
        ]
        report = simulate_elastic_serving(
            cluster,
            KairosPolicy(),
            queries,
            market=_market(catalog, warning_ms=1.0),
            spot_server_ids=spot_ids,
            scripted_events=events,
            controller=controller,
            startup_delay_ms=150.0,
            rng=np.random.default_rng(SEED),
        )
        assert controller.preemptions
        replan_times = [d.time_ms for d in report.replans]
        assert any(t == pytest.approx(burst_ms) for t in replan_times)

    def test_controller_survives_preemption_of_unplanned_spot_capacity(
        self, profiles, catalog
    ):
        """The documented mixed-market wiring: the physical cluster carries spot
        capacity on top of the controller's planned configuration.  Reclaiming all
        of it must not crash the run — losses clamp against the planned view."""
        model = profiles.models["RM2"]
        controller = ElasticKairosController(
            model,
            2.5,
            40.0,
            profiles=profiles,
            window_ms=800.0,
            min_observations=10,
            cooldown_ms=100.0,
            rng=0,
        )
        plan = controller.initial_plan()
        combined = plan.selected_config.add("g4dn.xlarge", 2)
        cluster = Cluster(combined, model, profiles)
        spot_ids = [s.server_id for s in cluster if s.type_name == "g4dn.xlarge"][-2:]
        events = [
            Event(
                600.0,
                EventKind.PREEMPTION_WARNING,
                PreemptionBurst(count=2, type_name="g4dn.xlarge"),
            )
        ]
        report = simulate_elastic_serving(
            cluster,
            KairosPolicy(),
            _queries(num=200, rate=40.0, median=30),
            market=_market(catalog, warning_ms=1.0),
            spot_server_ids=spot_ids,
            scripted_events=events,
            controller=controller,
            startup_delay_ms=150.0,
            rng=np.random.default_rng(SEED),
        )
        assert len(controller.preemptions) == 2
        assert report.completed_all


class TestSpotScaleRequests:
    def test_scripted_spot_scale_up_bills_discounted_and_arms_preemption(
        self, profiles, rm2, catalog
    ):
        cluster = Cluster(HeterogeneousConfig((1, 0, 1, 0), catalog), rm2, profiles)
        events = [
            Event(
                300.0,
                EventKind.SCALE_UP,
                ScaleRequest("r5n.large", 1, market=MARKET_SPOT),
            )
        ]
        report = simulate_elastic_serving(
            cluster,
            KairosPolicy(),
            _queries(num=120, rate=50.0, median=30),
            market=_market(catalog, hazard=3_600.0, warning_ms=10.0),
            scripted_events=events,
            startup_delay_ms=100.0,
            rng=np.random.default_rng(SEED),
            market_rng=np.random.default_rng(SEED + 2),
        )
        spot_intervals = [iv for iv in report.ledger.intervals if iv.market == MARKET_SPOT]
        assert len(spot_intervals) >= 1
        assert spot_intervals[0].start_ms == 300.0
        assert spot_intervals[0].price_multiplier == pytest.approx(0.35)
        # the scaled-up spot instance is subject to the hazard
        assert any(e.kind == "preemption_warning" for e in report.scale_log)

    def test_spot_scale_up_without_market_rejected(self, profiles, rm2, catalog):
        cluster = Cluster(HeterogeneousConfig((1, 0, 1, 0), catalog), rm2, profiles)
        events = [
            Event(
                300.0,
                EventKind.SCALE_UP,
                ScaleRequest("r5n.large", 1, market=MARKET_SPOT),
            )
        ]
        with pytest.raises(ValueError, match="without a SpotMarket"):
            ElasticServingSimulation(cluster, KairosPolicy(), scripted_events=events)
