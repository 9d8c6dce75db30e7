"""Tests for the multi-model co-location subsystem.

Covers the model-partitioned cluster (global id space, views, routing), workload
tagging and interleaving, the joint shared-budget planner, the joint elastic
controller, the multi-model serving simulation — and the headline compatibility
contract: with exactly one registered model the multi-model pipeline is byte-identical
to the pre-existing single-model serving paths.
"""

import numpy as np
import pytest

from repro.cloud.config import HeterogeneousConfig
from repro.core.controller import MultiModelElasticController
from repro.core.kairos import KairosPlanner, MultiModelKairosPlanner
from repro.schedulers.kairos_policy import KairosPolicy, MultiModelKairosPolicy
from repro.sim.cluster import Cluster, MultiModelCluster, ServerIdAllocator
from repro.sim.elasticity import simulate_elastic_serving
from repro.sim.events import Event, EventKind, ScaleRequest
from repro.sim.multi_model import MultiModelServingSimulation, simulate_multi_model_serving
from repro.sim.simulation import simulate_serving
from repro.workload.batch_sizes import TruncatedLogNormalBatchSizes, production_batch_distribution
from repro.workload.generator import (
    WorkloadGenerator,
    WorkloadSpec,
    interleave_model_streams,
)
from repro.workload.phases import LoadPhase, MultiModelTrace, PhasedTrace
from repro.workload.query import Query

SEED = 20230715


@pytest.fixture
def two_model_configs(catalog):
    return {
        "RM2": HeterogeneousConfig((1, 1, 2, 0), catalog),
        "WND": HeterogeneousConfig((1, 0, 2, 0), catalog),
    }


@pytest.fixture
def mm_cluster(two_model_configs, profiles):
    return MultiModelCluster(two_model_configs, profiles)


def _tagged_streams(num_queries=80, rates=(30.0, 120.0), seed=SEED):
    streams = {}
    for i, name in enumerate(("RM2", "WND")):
        spec = WorkloadSpec(
            batch_sizes=TruncatedLogNormalBatchSizes(median=80, sigma=1.1),
            num_queries=num_queries,
            model_name=name,
        )
        streams[name] = WorkloadGenerator(spec).generate(rate_qps=rates[i], rng=seed + i)
    return streams


# -- workload tagging ---------------------------------------------------------------------


class TestWorkloadTagging:
    def test_generator_stamps_model_tags(self):
        spec = WorkloadSpec(num_queries=5, model_name="RM2")
        queries = WorkloadGenerator(spec).generate(rate_qps=10.0, rng=0)
        assert all(q.model_name == "RM2" for q in queries)

    def test_untagged_spec_generates_untagged_queries(self):
        queries = WorkloadGenerator(WorkloadSpec(num_queries=5)).generate(10.0, rng=0)
        assert all(q.model_name is None for q in queries)

    def test_interleave_orders_and_renumbers(self):
        streams = _tagged_streams(num_queries=40)
        merged = interleave_model_streams(streams)
        assert len(merged) == 80
        times = [q.arrival_time_ms for q in merged]
        assert times == sorted(times)
        assert [q.query_id for q in merged] == list(range(80))
        # both models present, tags preserved
        assert {q.model_name for q in merged} == {"RM2", "WND"}

    def test_interleave_tags_untagged_streams(self):
        untagged = [Query(0, 8, 1.0), Query(1, 16, 2.0)]
        merged = interleave_model_streams({"RM2": untagged})
        assert all(q.model_name == "RM2" for q in merged)

    def test_multi_model_trace_is_deterministic(self):
        spec = WorkloadSpec(batch_sizes=TruncatedLogNormalBatchSizes(median=80, sigma=1.1))
        def build():
            return MultiModelTrace(
                {
                    "RM2": PhasedTrace([LoadPhase.step(20.0, 2000.0)], spec),
                    "WND": PhasedTrace([LoadPhase.step(90.0, 2000.0)], spec),
                }
            ).generate(rng=5)

        a, b = build(), build()
        assert a.queries == b.queries
        assert a.model_names == ("RM2", "WND")
        assert len(a.queries_of_model("RM2")) == len(a.per_model["RM2"].queries)


# -- cluster partitioning -----------------------------------------------------------------


class TestMultiModelCluster:
    def test_global_ids_are_unique_across_models(self, mm_cluster):
        ids = [s.server_id for s in mm_cluster]
        assert len(ids) == len(set(ids)) == 7

    def test_id_routing(self, mm_cluster):
        for name in mm_cluster.model_names:
            for server in mm_cluster.cluster_of(name):
                assert mm_cluster.model_of_server(server.server_id) == name
                assert mm_cluster.server_by_id(server.server_id) is server

    def test_single_model_ids_match_plain_cluster(self, profiles, rm2, small_config):
        mm = MultiModelCluster({"RM2": small_config}, profiles)
        plain = Cluster(small_config, rm2, profiles)
        assert [s.server_id for s in mm] == [s.server_id for s in plain]
        assert [s.type_name for s in mm] == [s.type_name for s in plain]

    def test_add_and_remove_keep_global_uniqueness(self, mm_cluster):
        added = mm_cluster.add_server("WND", "g4dn.xlarge", now_ms=10.0)
        assert mm_cluster.model_of_server(added.server_id) == "WND"
        all_ids = [s.server_id for s in mm_cluster]
        assert len(all_ids) == len(set(all_ids))
        mm_cluster.remove_server(added.server_id)
        with pytest.raises(KeyError):
            mm_cluster.server_by_id(added.server_id)

    def test_reserved_ids_resolve_their_model(self, mm_cluster):
        server_id = mm_cluster.reserve_server_id("RM2")
        assert mm_cluster.model_of_server(server_id) == "RM2"

    def test_unknown_model_raises(self, mm_cluster):
        with pytest.raises(KeyError):
            mm_cluster.cluster_of("NCF")

    def test_view_concatenates_partitions_in_model_order(self, mm_cluster):
        view = mm_cluster.active_view()
        assert len(view) == 7
        models = view.server_models()
        assert models == ["RM2"] * 4 + ["WND"] * 3
        assert view.qos_by_model() == {"RM2": 350.0, "WND": 25.0}
        assert view.model("WND").name == "WND"

    def test_view_excludes_draining_servers(self, mm_cluster):
        mm_cluster.drain_servers("RM2", "r5n.large", 1, now_ms=0.0)
        view = mm_cluster.active_view()
        assert len(view) == 6
        assert all(not s.draining for s in view)

    def test_allocator_never_reuses_ids(self):
        allocator = ServerIdAllocator()
        assert [allocator.reserve() for _ in range(3)] == [0, 1, 2]
        with pytest.raises(ValueError):
            ServerIdAllocator(start=-1)


# -- joint planning -----------------------------------------------------------------------


class TestMultiModelKairosPlanner:
    def make_planner(self, profiles, budget=2.5, **kw):
        samples = {
            name: production_batch_distribution().sample(
                2000, np.random.default_rng(100 + i)
            )
            for i, name in enumerate(("RM2", "WND"))
        }
        return MultiModelKairosPlanner(
            ["RM2", "WND"],
            budget,
            profiles=profiles,
            batch_samples_by_model=samples,
            **kw,
        )

    def test_plan_covers_every_target_within_budget(self, profiles):
        planner = self.make_planner(profiles)
        plan = planner.plan_joint({"RM2": 20.0, "WND": 150.0})
        assert plan.within_budget and plan.meets_all_targets
        assert plan.total_cost_per_hour <= 2.5 + 1e-9
        for allocation in plan.allocations:
            assert allocation.upper_bound >= allocation.target_qps

    def test_cheapest_covering_config_is_selected(self, profiles):
        planner = self.make_planner(profiles)
        plan = planner.plan_joint({"RM2": 20.0, "WND": 150.0})
        # no strictly cheaper config in the space covers the same target
        space = planner.enumerate()
        for allocation in plan.allocations:
            bounds = planner.estimators[allocation.model_name].upper_bounds_batch(space)
            required = allocation.target_qps * planner.demand_headroom[
                allocation.model_name
            ]
            cheaper_covering = [
                c
                for c, b in zip(space, bounds)
                if b >= required - 1e-9
                and c.cost_per_hour() < allocation.cost_per_hour - 1e-9
            ]
            assert cheaper_covering == []

    def test_joint_beats_equal_budget_split(self, profiles):
        """The Fig. 17 claim at planning level: joint cost < independent cost."""
        budget = 2.5
        planner = self.make_planner(profiles, budget=budget, demand_headroom={"RM2": 1.6, "WND": 2.1})
        independent = {
            name: KairosPlanner(
                name,
                budget / 2,
                profiles=profiles,
                batch_samples=planner.batch_samples_by_model[name],
            ).plan()
            for name in ("RM2", "WND")
        }
        targets = {
            name: 0.45 * independent[name].selected_upper_bound
            for name in independent
        }
        joint = planner.plan_joint(targets)
        independent_cost = sum(
            p.selected_config.cost_per_hour() for p in independent.values()
        )
        assert joint.within_budget and joint.meets_all_targets
        assert joint.total_cost_per_hour < independent_cost

    def test_over_budget_falls_back_to_proportional_split(self, profiles):
        planner = self.make_planner(profiles, budget=1.0)
        plan = planner.plan_joint({"RM2": 500.0, "WND": 5000.0})
        assert not plan.within_budget
        assert plan.total_cost_per_hour <= 1.0 + min(
            t.price_per_hour for t in profiles.catalog.types
        ) * 2  # each model gets at least the cheapest instance
        assert not plan.meets_all_targets

    def test_headroom_scales_the_requirement(self, profiles):
        lax = self.make_planner(profiles).plan_joint({"RM2": 20.0, "WND": 150.0})
        strict = self.make_planner(profiles, demand_headroom=2.0).plan_joint(
            {"RM2": 20.0, "WND": 150.0}
        )
        assert strict.total_cost_per_hour >= lax.total_cost_per_hour

    def test_missing_target_rejected(self, profiles):
        planner = self.make_planner(profiles)
        with pytest.raises(KeyError):
            planner.plan_joint({"RM2": 20.0})

    def test_invalid_headroom_rejected(self, profiles):
        with pytest.raises(ValueError):
            self.make_planner(profiles, demand_headroom=0.5)


# -- joint elastic controller --------------------------------------------------------------


class TestMultiModelElasticController:
    def make_controller(self, profiles, **kw):
        defaults = dict(
            window_ms=1000.0,
            change_threshold=1.5,
            min_observations=20,
            cooldown_ms=2000.0,
            rng=0,
        )
        defaults.update(kw)
        return MultiModelElasticController(
            ["RM2", "WND"],
            2.5,
            {"RM2": 30.0, "WND": 200.0},
            profiles=profiles,
            **defaults,
        )

    def _drive(self, ctrl, name, rate_qps, n, t0=0.0, other=None):
        t = t0
        gap = 1000.0 / rate_qps
        qid = 0
        for _ in range(n):
            t += gap
            ctrl.observe_arrival(Query(qid, 64, t, model_name=name), t)
            qid += 1
            decision = ctrl.maybe_replan(t)
            if decision is not None:
                return decision, t
        return None, t

    def test_requires_initial_plan(self, profiles):
        ctrl = self.make_controller(profiles)
        with pytest.raises(RuntimeError):
            ctrl.maybe_replan(0.0)

    def test_steady_load_never_replans(self, profiles):
        ctrl = self.make_controller(profiles)
        ctrl.initial_plan()
        t = 0.0
        for i in range(600):
            t += 5.0
            name = "RM2" if i % 7 == 0 else "WND"  # ~ the provisioned mix
            ctrl.observe_arrival(Query(i, 64, t, model_name=name), t)
            assert ctrl.maybe_replan(t) is None
        assert ctrl.decisions == []

    def test_one_models_step_triggers_joint_replan(self, profiles):
        ctrl = self.make_controller(profiles)
        plan = ctrl.initial_plan()
        assert ctrl.current_configs == plan.configs()
        # RM2 steps 30 -> 90 qps while WND stays silent; the re-plan is joint and
        # RM2's partition grows.
        decision, _ = self._drive(ctrl, "RM2", 90.0, 2000)
        assert decision is not None and ctrl.decisions == [decision]
        assert decision.observed_rates_qps["RM2"] > 45.0
        # silent WND plans for its provisioned rate, not zero
        assert decision.observed_rates_qps["WND"] == pytest.approx(200.0)
        assert "RM2" in decision.scale_deltas
        migrated = decision.old_configs["RM2"]
        for type_name, delta in decision.scale_deltas["RM2"].items():
            migrated = migrated.add(type_name, delta)
        assert migrated == decision.new_configs["RM2"]
        assert ctrl.provisioned_rate_qps("RM2") == decision.observed_rates_qps["RM2"]

    def test_untrustworthy_window_keeps_other_models_provisioning(self, profiles):
        """A model whose window is too sparse to trust must not have its partition
        re-targeted to the noisy estimate when another model triggers a re-plan."""
        ctrl = self.make_controller(profiles, cooldown_ms=0.0)
        ctrl.initial_plan()
        # two early WND arrivals: far below min_observations, window not elapsed
        ctrl.observe_arrival(Query(9000, 64, 5.0, model_name="WND"), 5.0)
        ctrl.observe_arrival(Query(9001, 64, 10.0, model_name="WND"), 10.0)
        # RM2 bursts to 200 qps (provisioned 30): trusted once >= min_observations
        decision = None
        t = 10.0
        for i in range(60):
            t += 5.0
            ctrl.observe_arrival(Query(i, 64, t, model_name="RM2"), t)
            decision = ctrl.maybe_replan(t)
            if decision is not None:
                break
        assert decision is not None
        # WND's sparse window (2 arrivals) is not trusted: the joint plan keeps
        # provisioning it for the 200 qps it was planned for, and its recorded
        # provisioned rate is unchanged.
        assert decision.observed_rates_qps["WND"] == pytest.approx(200.0)
        assert ctrl.provisioned_rate_qps("WND") == pytest.approx(200.0)

    def test_untagged_arrival_rejected(self, profiles):
        ctrl = self.make_controller(profiles)
        ctrl.initial_plan()
        with pytest.raises(ValueError):
            ctrl.observe_arrival(Query(0, 64, 1.0), 1.0)

    def test_budget_scales_with_total_load_and_is_capped(self, profiles):
        ctrl = self.make_controller(profiles, max_budget_per_hour=3.0)
        ctrl.initial_plan()
        decision, _ = self._drive(ctrl, "WND", 2000.0, 4000)
        assert decision is not None
        assert decision.budget_per_hour <= 3.0


# -- multi-model serving -------------------------------------------------------------------


class TestMultiModelServingSimulation:
    def test_serves_both_models_and_attributes_cost(self, mm_cluster):
        queries = interleave_model_streams(_tagged_streams())
        report = simulate_multi_model_serving(
            mm_cluster, MultiModelKairosPolicy(), queries, rng=3
        )
        assert report.completed_all
        assert len(report.metrics.of_model("RM2")) == 80
        assert len(report.metrics.of_model("WND")) == 80
        by_model = report.cost_by_model()
        assert set(by_model) == {"RM2", "WND"}
        assert sum(by_model.values()) == pytest.approx(report.total_cost())
        assert all(cost > 0 for cost in by_model.values())

    def test_queries_never_cross_models(self, mm_cluster):
        queries = interleave_model_streams(_tagged_streams())
        report = simulate_multi_model_serving(
            mm_cluster, MultiModelKairosPolicy(), queries, rng=3
        )
        rm2_types = {s.server_id for s in report.cluster.cluster_of("RM2")}
        for record in report.metrics.of_model("RM2").records:
            assert record.server_id in rm2_types

    def test_cross_model_assignment_rejected_before_any_dispatch(self, mm_cluster):
        class CrossPolicy:
            def bind(self, view):
                self.wnd_server = view.server_models().index("WND")

            def schedule(self, now, pending, view):
                return [(q, self.wnd_server) for q in pending]

            def observe_completion(self, record):
                pass

        queries = [Query(0, 8, 0.0, model_name="WND"), Query(1, 8, 0.0, model_name="RM2")]
        sim = MultiModelServingSimulation(mm_cluster, CrossPolicy(), rng=3)
        with pytest.raises(ValueError, match="query 1 \\(RM2\\) to a server hosting WND"):
            sim.run(queries)
        assert all(server.local_queue_depth == 0 for server in mm_cluster)

    def test_untagged_queries_rejected_with_two_models(self, mm_cluster):
        with pytest.raises(ValueError):
            simulate_multi_model_serving(
                mm_cluster, MultiModelKairosPolicy(), [Query(0, 8, 0.0)], rng=3
            )

    def test_unknown_model_tag_rejected(self, mm_cluster):
        with pytest.raises(ValueError, match="'NCF'"):
            simulate_multi_model_serving(
                mm_cluster,
                MultiModelKairosPolicy(),
                [Query(0, 8, 0.0, model_name="NCF")],
                rng=3,
            )

    def test_scale_events_route_to_their_model_partition(self, mm_cluster):
        queries = interleave_model_streams(_tagged_streams())
        events = [
            Event(500.0, EventKind.SCALE_UP, ScaleRequest("g4dn.xlarge", 1, model_name="WND")),
            Event(900.0, EventKind.SCALE_DOWN, ScaleRequest("r5n.large", 1, model_name="RM2")),
        ]
        report = simulate_multi_model_serving(
            mm_cluster,
            MultiModelKairosPolicy(),
            queries,
            scripted_events=events,
            startup_delay_ms=200.0,
            rng=3,
        )
        assert report.completed_all
        configs = report.cluster.current_configs()
        assert configs["WND"].count_of("g4dn.xlarge") == 2
        assert configs["RM2"].count_of("r5n.large") == 1
        # the new WND instance is billed under the WND tag from the request instant
        wnd_intervals = [
            iv for iv in report.ledger.intervals if iv.tag == "WND" and iv.start_ms > 0
        ]
        assert len(wnd_intervals) == 1 and wnd_intervals[0].start_ms == 500.0

    def test_scale_request_without_model_rejected_when_ambiguous(self, mm_cluster):
        events = [Event(10.0, EventKind.SCALE_UP, ScaleRequest("g4dn.xlarge", 1))]
        with pytest.raises(ValueError):
            MultiModelServingSimulation(
                mm_cluster, MultiModelKairosPolicy(), scripted_events=events
            )

    def test_run_is_one_shot(self, mm_cluster):
        queries = interleave_model_streams(_tagged_streams(num_queries=10))
        sim = MultiModelServingSimulation(mm_cluster, MultiModelKairosPolicy(), rng=3)
        sim.run(queries)
        with pytest.raises(RuntimeError, match="one-shot"):
            sim.run(queries)

    def test_joint_replanning_end_to_end(self, profiles):
        ctrl = MultiModelElasticController(
            ["RM2", "WND"],
            2.5,
            {"RM2": 30.0, "WND": 200.0},
            profiles=profiles,
            window_ms=1000.0,
            change_threshold=1.5,
            min_observations=20,
            cooldown_ms=2000.0,
            demand_headroom={"RM2": 1.6, "WND": 2.1},
            rng=0,
        )
        plan = ctrl.initial_plan()
        cluster = MultiModelCluster(plan.configs(), profiles)
        spec = WorkloadSpec(batch_sizes=TruncatedLogNormalBatchSizes(median=80, sigma=1.1))
        trace = MultiModelTrace(
            {
                "RM2": PhasedTrace(
                    [LoadPhase.step(30.0, 2500.0), LoadPhase.step(80.0, 2500.0)], spec
                ),
                "WND": PhasedTrace([LoadPhase.step(200.0, 5000.0)], spec),
            }
        )
        result = trace.generate(rng=5)
        report = simulate_multi_model_serving(
            cluster,
            MultiModelKairosPolicy(),
            list(result.queries),
            controller=ctrl,
            startup_delay_ms=300.0,
            rng=11,
        )
        assert len(report.replans) >= 1
        # the step hit RM2, so at least one re-plan grows the RM2 partition
        assert any(
            sum(d.scale_deltas.get("RM2", {}).values()) > 0 for d in report.replans
        )
        initial_total = sum(c.total_instances for c in plan.configs().values())
        assert report.peak_instances > initial_total and report.scale_log


# -- single-model compatibility ------------------------------------------------------------


def _chaos_kwargs(case, catalog):
    """Fresh simulator keyword arguments (generators included) for one chaos case."""
    from repro.sim.events import CrashStorm
    from repro.sim.faults import FaultInjector, RetryPolicy
    from repro.sim.health import HealthConfig, HedgePolicy

    knobs = CHAOS_CASES[case]
    kwargs = {}
    hazards = knobs.get("faults")
    if hazards is not None:
        kwargs["faults"] = FaultInjector.uniform(catalog, **hazards)
        kwargs["fault_rng"] = np.random.default_rng([SEED, 505])
        kwargs["gray_rng"] = np.random.default_rng([SEED, 606])
    if "retry" in knobs:
        kwargs["retry"] = RetryPolicy(**knobs["retry"])
    if knobs.get("health"):
        kwargs["health"] = HealthConfig()
    if knobs.get("hedge"):
        kwargs["hedge"] = HedgePolicy()
    scripted = []
    if knobs.get("scale"):
        scripted += [
            Event(2_000.0, EventKind.SCALE_UP, ScaleRequest("c5n.2xlarge", 1)),
            Event(2_500.0, EventKind.SCALE_DOWN, ScaleRequest("c5n.2xlarge", 1)),
            Event(3_000.0, EventKind.SCALE_UP, ScaleRequest("g4dn.xlarge", 1)),
            Event(6_000.0, EventKind.SCALE_DOWN, ScaleRequest("r5n.large", 1)),
        ]
    if knobs.get("storm"):
        scripted.append(Event(4_000.0, EventKind.INSTANCE_FAILED, CrashStorm(2)))
    kwargs["scripted_events"] = scripted
    return kwargs


def _chaos_outcome(report):
    """Everything but the completions that both loops must agree on."""
    return (
        [(d.query.query_id, d.time_ms, d.reason, d.attempts) for d in report.dead_letters],
        report.retries,
        (report.hedges_launched, report.hedges_cancelled, report.hedge_wins),
        [
            (i.server_id, i.type_name, i.start_ms, i.end_ms, i.failed)
            for i in report.ledger.intervals
        ],
        [(s.server_id, s.kind, s.start_ms, s.end_ms) for s in report.ledger.spans],
        [(e.time_ms, e.kind, e.type_name, e.count) for e in report.scale_log],
        report.scheduling_rounds,
        report.billing_horizon_ms,
    )


_CRASH = {"failures_per_hour": 300.0}
_SLOW = {"slowdowns_per_hour": 600.0, "slowdown_factor": 3.0, "slowdown_duration_ms": 2_000.0}
_FLAKY = {"flaky_per_hour": 1_200.0, "flaky_factor": 3.0}
_ZOMBIE = {"zombies_per_hour": 200.0}

#: Chaos configurations on which the elastic and the one-model multi-model loop
#: must agree event for event.  Degradation with health monitoring, and heavier
#: load (40-50 qps on this stream), are left out: there ``MultiModelKairosPolicy``
#: and ``KairosPolicy`` already pick differently among identical pending queries
#: (equal batch sizes), a difference of the policies, not of the loops.
CHAOS_CASES = {
    "scripted-scale": {"scale": True},
    "crash-retry": {"faults": _CRASH, "retry": {}},
    "slowdown": {"faults": _SLOW},
    "flaky": {"faults": _FLAKY},
    "hedge-slowdown": {"faults": _SLOW, "hedge": True},
    "zombie-health": {"faults": _ZOMBIE, "health": True},
    "zombie-retry": {"faults": _ZOMBIE, "retry": {"response_timeout_ms": 400.0}},
    "storm-crash-retry-scale": {
        "faults": _CRASH, "retry": {}, "storm": True, "scale": True,
    },
    "crash-slowdown-flaky-hedge-retry-scale": {
        "faults": {**_CRASH, **_SLOW, **_FLAKY},
        "hedge": True,
        "retry": {},
        "scale": True,
    },
}


class TestSingleModelByteIdentity:
    """With one registered model the multi-model pipeline must not drift at all."""

    def _stream(self):
        spec = WorkloadSpec(
            batch_sizes=TruncatedLogNormalBatchSizes(median=80, sigma=1.1),
            num_queries=150,
        )
        return WorkloadGenerator(spec).generate(rate_qps=40.0, rng=SEED)

    @staticmethod
    def _tuples(records):
        return [
            (
                r.query.query_id,
                r.query.batch_size,
                r.query.arrival_time_ms,
                r.server_id,
                r.server_type,
                r.start_ms,
                r.completion_ms,
                r.service_ms,
            )
            for r in records
        ]

    @pytest.mark.parametrize("noisy", [False, True])
    def test_identical_to_static_and_elastic_single_model_paths(
        self, small_config, rm2, profiles, noisy
    ):
        from repro.sim.simulation import gaussian_service_noise

        noise = gaussian_service_noise(0.05) if noisy else None
        queries = self._stream()
        mm = MultiModelCluster({"RM2": small_config}, profiles)
        mm_report = simulate_multi_model_serving(
            mm,
            MultiModelKairosPolicy(),
            queries,
            noise=noise,
            rng=np.random.default_rng(SEED + 1),
        )
        static_report = simulate_serving(
            small_config,
            rm2,
            profiles,
            KairosPolicy(),
            queries,
            noise=noise,
            rng=np.random.default_rng(SEED + 1),
        )
        elastic_report = simulate_elastic_serving(
            Cluster(small_config, rm2, profiles),
            KairosPolicy(),
            queries,
            noise=noise,
            rng=np.random.default_rng(SEED + 1),
        )
        mm_tuples = self._tuples(mm_report.metrics.of_model("RM2").records)
        assert mm_tuples == self._tuples(static_report.metrics.records)
        assert mm_tuples == self._tuples(elastic_report.metrics.records)
        # summaries (derived statistics) agree byte for byte as well
        assert repr(mm_report.metrics.of_model("RM2").summary()) == repr(
            static_report.metrics.summary()
        )

    def test_untagged_queries_allowed_with_single_model(self, small_config, profiles):
        mm = MultiModelCluster({"RM2": small_config}, profiles)
        report = simulate_multi_model_serving(
            mm, MultiModelKairosPolicy(), self._stream(), rng=3
        )
        assert report.completed_all

    def test_warmup_counts_tagged_and_untagged_queries_as_one_model(
        self, small_config, rm2, profiles
    ):
        """An untagged query belongs to the sole model, so it warms that model up."""
        from dataclasses import replace

        queries = [
            replace(q, model_name="RM2" if q.query_id % 2 else None)
            for q in self._stream()[:60]
        ]
        elastic = simulate_elastic_serving(
            Cluster(small_config, rm2, profiles),
            KairosPolicy(),
            queries,
            rng=np.random.default_rng(SEED + 1),
            warmup_queries=10,
        )
        mm = simulate_multi_model_serving(
            MultiModelCluster({"RM2": small_config}, profiles),
            MultiModelKairosPolicy(),
            queries,
            rng=np.random.default_rng(SEED + 1),
            warmup_queries=10,
        )
        assert len(elastic.metrics) == 50
        assert self._tuples(mm.metrics.of_model("RM2").records) == self._tuples(
            elastic.metrics.records
        )

    @pytest.mark.parametrize("case", sorted(CHAOS_CASES))
    def test_chaos_identical_to_elastic_single_model_path(
        self, case, catalog, rm2, profiles
    ):
        """Faults, retries, health, hedging and scaling: one model, one run."""
        config = HeterogeneousConfig((2, 1, 2, 0), catalog)
        spec = WorkloadSpec(
            batch_sizes=TruncatedLogNormalBatchSizes(median=80, sigma=1.1),
            num_queries=600,
        )
        queries = WorkloadGenerator(spec).generate(rate_qps=30.0, rng=SEED)
        elastic = simulate_elastic_serving(
            Cluster(config, rm2, profiles),
            KairosPolicy(),
            queries,
            rng=np.random.default_rng(SEED + 1),
            **_chaos_kwargs(case, catalog),
        )
        mm = simulate_multi_model_serving(
            MultiModelCluster({"RM2": config}, profiles),
            MultiModelKairosPolicy(),
            queries,
            rng=np.random.default_rng(SEED + 1),
            **_chaos_kwargs(case, catalog),
        )
        assert self._tuples(mm.metrics.of_model("RM2").records) == self._tuples(
            elastic.metrics.records
        )
        assert _chaos_outcome(mm) == _chaos_outcome(elastic)


class TestSpotDisabledByteIdentity:
    """A market with nothing bought on it must not drift the kernel at all.

    Same contract as the single-model multi-model identity above: given a market but
    no spot instance (or a zero-hazard market), the kernel reproduces the market-less
    elastic and static serving paths bit for bit; only a spot purchase changes the
    bill.
    """

    def _stream(self):
        spec = WorkloadSpec(
            batch_sizes=TruncatedLogNormalBatchSizes(median=80, sigma=1.1),
            num_queries=150,
        )
        return WorkloadGenerator(spec).generate(rate_qps=40.0, rng=SEED)

    @pytest.mark.parametrize("noisy", [False, True])
    def test_unused_market_identical_to_elastic_and_static(
        self, small_config, rm2, profiles, catalog, noisy
    ):
        from repro.cloud.spot import SpotMarket
        from repro.sim.simulation import gaussian_service_noise

        noise = gaussian_service_noise(0.05) if noisy else None
        queries = self._stream()
        # a hazardous market, but no instance is bought on it: nothing is armed
        unused = simulate_elastic_serving(
            Cluster(small_config, rm2, profiles),
            KairosPolicy(),
            queries,
            noise=noise,
            rng=np.random.default_rng(SEED + 1),
            market=SpotMarket.uniform(catalog, discount=0.6, preemptions_per_hour=3600.0),
        )
        elastic = simulate_elastic_serving(
            Cluster(small_config, rm2, profiles),
            KairosPolicy(),
            queries,
            noise=noise,
            rng=np.random.default_rng(SEED + 1),
        )
        static = simulate_serving(
            small_config,
            rm2,
            profiles,
            KairosPolicy(),
            queries,
            noise=noise,
            rng=np.random.default_rng(SEED + 1),
        )
        tuples = TestSingleModelByteIdentity._tuples
        assert tuples(unused.metrics.records) == tuples(elastic.metrics.records)
        assert tuples(unused.metrics.records) == tuples(static.metrics.records)
        assert repr(unused.metrics.summary()) == repr(elastic.metrics.summary())
        assert unused.total_cost() == elastic.total_cost()
        assert unused.scale_log == [] and unused.replans == []

    def test_zero_hazard_market_identical_metrics_cheaper_bill(
        self, small_config, rm2, profiles, catalog
    ):
        """Zero hazard: no preemption events, no market-rng draws — only the bill
        changes (the spot portion is billed at the discounted rate)."""
        from repro.cloud.spot import SpotMarket

        queries = self._stream()
        market = SpotMarket.uniform(catalog, discount=0.6, preemptions_per_hour=0.0)
        spotted = simulate_elastic_serving(
            Cluster(small_config, rm2, profiles),
            KairosPolicy(),
            queries,
            market=market,
            spot_server_ids=[2, 3],
            rng=np.random.default_rng(SEED + 1),
        )
        elastic = simulate_elastic_serving(
            Cluster(small_config, rm2, profiles),
            KairosPolicy(),
            queries,
            rng=np.random.default_rng(SEED + 1),
        )
        tuples = TestSingleModelByteIdentity._tuples
        assert tuples(spotted.metrics.records) == tuples(elastic.metrics.records)
        assert repr(spotted.metrics.summary()) == repr(elastic.metrics.summary())
        assert spotted.scale_log == []
        assert spotted.total_cost() < elastic.total_cost()

    def test_multi_model_loop_rejects_a_market(self, profiles, catalog):
        """Spot serves single-model clusters only: a market handed to the multi-model
        loop is refused before the run instead of billing every instance on demand."""
        from repro.cloud.spot import SpotMarket

        cluster = MultiModelCluster(
            {"RM2": HeterogeneousConfig((1, 0, 1, 0), catalog)}, profiles
        )
        with pytest.raises(ValueError, match="single-model"):
            MultiModelServingSimulation(
                cluster,
                MultiModelKairosPolicy(),
                market=SpotMarket.uniform(catalog, discount=0.6),
            )

    def test_spot_scale_up_rejected_before_the_run(self, profiles, catalog):
        """With no market to buy from, a scripted spot scale-up is refused at
        construction instead of being billed on demand."""
        from repro.cloud.spot import MARKET_SPOT

        cluster = MultiModelCluster(
            {"RM2": HeterogeneousConfig((1, 0, 1, 0), catalog)}, profiles
        )
        request = ScaleRequest("r5n.large", 1, market=MARKET_SPOT)
        events = [Event(100.0, EventKind.SCALE_UP, request)]
        with pytest.raises(ValueError, match="without a SpotMarket"):
            MultiModelServingSimulation(
                cluster, MultiModelKairosPolicy(), scripted_events=events
            )


class TestShardedDispatch:
    """MultiModelKairosPolicy(sharded=True): per-model partitioned rounds."""

    def _burst_queries(self, per_model: int, models=("RM2", "WND")):
        queries = []
        qid = 0
        rng = np.random.default_rng(SEED)
        for name in models:
            for _ in range(per_model):
                queries.append(Query(qid, int(rng.integers(1, 64)), 0.0, name))
                qid += 1
        return queries

    def _cluster(self, catalog, profiles, counts=(2, 2, 3, 0)):
        return MultiModelCluster(
            {"RM2": HeterogeneousConfig(counts, catalog),
             "WND": HeterogeneousConfig(counts, catalog)},
            profiles,
        )

    def test_uncontended_round_matches_union_decisions(self, catalog, profiles):
        queries = self._burst_queries(4)  # 4 pending vs 7 eligible per model
        decisions = {}
        for sharded in (False, True):
            cluster = self._cluster(catalog, profiles)
            view = cluster.active_view()
            policy = MultiModelKairosPolicy(use_perfect_estimator=True, sharded=sharded)
            policy.bind(view)
            decisions[sharded] = {
                (q.query_id, idx) for q, idx in policy.schedule(0.0, queries, view)
            }
        assert decisions[True] == decisions[False]
        assert decisions[True]  # non-vacuous: the round committed work

    def test_contended_round_falls_back_to_union(self, catalog, profiles):
        queries = self._burst_queries(9)  # 9 pending vs 7 eligible per model
        cluster = self._cluster(catalog, profiles)
        view = cluster.active_view()
        policy = MultiModelKairosPolicy(use_perfect_estimator=True, sharded=True)
        policy.bind(view)
        union = MultiModelKairosPolicy(use_perfect_estimator=True, sharded=False)
        union.bind(view)
        got = {(q.query_id, i) for q, i in policy.schedule(0.0, queries, view)}
        want = {(q.query_id, i) for q, i in union.schedule(0.0, queries, view)}
        assert policy.union_rounds == 1 and policy.sharded_rounds == 0
        assert got == want  # the fallback IS the union matching

    def test_sharded_solves_fewer_cells(self, catalog, profiles):
        queries = self._burst_queries(4)
        cells = {}
        for sharded in (False, True):
            cluster = self._cluster(catalog, profiles)
            view = cluster.active_view()
            policy = MultiModelKairosPolicy(use_perfect_estimator=True, sharded=sharded)
            policy.bind(view)
            policy.schedule(0.0, queries, view)
            cells[sharded] = policy.solved_cells
        # 2 co-located models: the union solves every cross pair too, 2x the cells
        assert cells[False] == 2 * cells[True]

    def test_full_run_serves_same_queries_within_qos(self, catalog, profiles):
        streams = {}
        for i, (name, rate) in enumerate((("RM2", 40.0), ("WND", 120.0))):
            spec = WorkloadSpec(
                batch_sizes=TruncatedLogNormalBatchSizes(median=60, sigma=1.0),
                num_queries=120,
                model_name=name,
            )
            streams[name] = WorkloadGenerator(spec).generate(rate_qps=rate, rng=SEED + i)
        queries = interleave_model_streams(streams)
        reports = {}
        for sharded in (False, True):
            sim = MultiModelServingSimulation(
                self._cluster(catalog, profiles, counts=(2, 2, 4, 0)),
                MultiModelKairosPolicy(sharded=sharded),
                rng=np.random.default_rng(SEED + 1),
            )
            reports[sharded] = sim.run(queries)
        assert reports[True].dispatched_queries == reports[False].dispatched_queries
        assert reports[True].all_meet_qos() == reports[False].all_meet_qos()

    def test_sharded_default_off_preserves_byte_identity(self, catalog, profiles):
        # the constructor default must leave the union path untouched
        policy = MultiModelKairosPolicy()
        assert policy._sharded is False
