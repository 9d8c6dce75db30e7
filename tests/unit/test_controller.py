"""Tests for repro.core.controller (the KairosServingSystem facade)."""

from collections import deque

import numpy as np
import pytest

from repro.cloud.config import HeterogeneousConfig
from repro.core.config_space import _space
from repro.core.controller import ElasticKairosController, KairosServingSystem
from repro.core.kairos import KairosPlanner
from repro.schedulers.kairos_policy import KairosPolicy
from repro.workload.batch_sizes import FixedBatchSizes, production_batch_distribution
from repro.workload.generator import WorkloadGenerator, WorkloadSpec
from repro.workload.query import Query


@pytest.fixture
def system(profiles):
    return KairosServingSystem(
        "RM2", budget_per_hour=2.5, profiles=profiles, rng=11,
        batch_distribution=production_batch_distribution(),
    )


class TestKairosServingSystem:
    def test_plan_is_cached(self, system):
        first = system.plan()
        second = system.plan()
        assert first is second
        forced = system.plan(force=True)
        assert forced is not first

    def test_selected_config_within_budget(self, system):
        config = system.selected_config
        assert config.fits_budget(2.5)
        assert config.total_instances >= 1

    def test_simulate_serves_all_queries(self, system):
        spec = WorkloadSpec(batch_sizes=production_batch_distribution(), num_queries=150)
        queries = WorkloadGenerator(spec).generate(40.0, rng=4)
        report = system.simulate(queries)
        assert report.completed_all
        assert report.policy_name == "KAIROS"

    def test_simulate_on_explicit_config(self, system):
        spec = WorkloadSpec(batch_sizes=FixedBatchSizes(50), num_queries=50)
        queries = WorkloadGenerator(spec).generate(20.0, rng=4)
        report = system.simulate(queries, config=HeterogeneousConfig((1, 0, 1, 0)))
        assert len(report.cluster) == 2

    def test_measure_throughput(self, system):
        result = system.measure_throughput(num_queries=250, max_iterations=4)
        assert result.qps > 0
        assert result.model_name == "RM2"

    def test_build_policy_fresh_instances(self, system):
        a = system.build_policy()
        b = system.build_policy()
        assert isinstance(a, KairosPolicy)
        assert a is not b

    def test_perfect_estimator_switch(self, profiles):
        system = KairosServingSystem(
            "WND", profiles=profiles, use_online_latency_learning=False, rng=0
        )
        policy = system.build_policy()
        assert policy._use_perfect

    def test_refine_with_kairos_plus_improves_or_matches(self, system):
        plan = system.plan()
        # cheap surrogate evaluator so the test stays fast: upper bound itself
        bounds = {tuple(c.counts): b for c, b in plan.ranked}
        result = system.refine_with_kairos_plus(
            evaluator=lambda config: bounds[tuple(config.counts)] * 0.9,
            max_evaluations=5,
        )
        assert result.num_evaluations <= 5
        assert result.best_config is not None

    def test_accepts_model_object(self, profiles, rm2):
        system = KairosServingSystem(rm2, profiles=profiles, rng=0)
        assert system.model.name == "RM2"


#: A capacity-loss storm: every event forces a cooldown-bypassing re-plan at the
#: unchanged provisioned rate, so every re-plan runs at the base budget.
STORM = [
    ("observe_preemption", "g4dn.xlarge"),
    ("observe_quarantine", "r5n.large"),
    ("observe_failure", "c5n.2xlarge"),
    ("observe_readmit", "r5n.large"),
    ("observe_quarantine", "g4dn.xlarge"),
    ("observe_preemption", "r5n.large"),
]


def _drive_storm(profiles, rounds=4):
    controller = ElasticKairosController(
        "RM2",
        2.5,
        100.0,
        profiles=profiles,
        batch_distribution=production_batch_distribution(),
        num_monitor_samples=500,
        rng=3,
    )
    controller.initial_plan()
    for k, (method, type_name) in enumerate(STORM * rounds):
        now_ms = 250.0 * (k + 1)
        getattr(controller, method)(type_name, now_ms)
        assert controller.maybe_replan(now_ms) is not None
    return controller.decisions


def _fresh_space(planner):
    """An uncached enumeration of the planner's space (bypasses the memo)."""
    catalog = planner.catalog
    return _space.__wrapped__(
        planner.budget_per_hour,
        catalog,
        tuple(catalog.price_vector()),
        planner.min_base_count,
        1,
        planner.max_per_type,
    )


class TestReplanStormSharesOneSpace:
    def test_memoized_replans_match_freshly_enumerated_ones(self, profiles, monkeypatch):
        with monkeypatch.context() as patched:
            patched.setattr(KairosPlanner, "config_space", _fresh_space)
            fresh = _drive_storm(profiles)
        _space.cache_clear()
        memo = _drive_storm(profiles)

        assert len(memo) == len(fresh) == len(STORM) * 4
        assert {d.budget_per_hour for d in memo} == {2.5}
        for ours, theirs in zip(memo, fresh):
            assert ours.new_config == theirs.new_config
            assert ours.scale_deltas == theirs.scale_deltas
            assert [b for _, b in ours.plan.ranked] == [b for _, b in theirs.plan.ranked]
            assert [c for c, _ in ours.plan.ranked] == [c for c, _ in theirs.plan.ranked]

        # The initial plan and every re-plan ran at one budget: one enumeration,
        # every later plan served from the memo.
        info = _space.cache_info()
        assert info.misses == 1
        assert info.hits == len(memo)


#: (offered qps, median batch size) per second of the reuse scenario: load changes
#: move the budget, and the query-size mix shifts under every re-plan.
SHIFTS = [(100, 60), (210, 40), (210, 300), (60, 120), (60, 20), (140, 500)]


class TestPerBudgetPlannerReuse:
    def test_reused_planners_match_fresh_ones(self, profiles):
        generator = np.random.default_rng(8)
        controller = ElasticKairosController(
            "RM2",
            2.5,
            100.0,
            profiles=profiles,
            batch_distribution=production_batch_distribution(),
            num_monitor_samples=500,
            monitor_window=300,
            window_ms=1_000.0,
            cooldown_ms=0.0,
            min_observations=1,
            rng=generator,
        )
        # the initial plan and a re-plan before any arrival see an empty monitor:
        # each draws its window from the mix
        plans = [(2.5, None, controller.initial_plan())]
        controller.observe_failure("r5n.large", 0.0)
        plans.append((2.5, None, controller.maybe_replan(0.0).plan))
        window = deque(maxlen=300)
        sizes = np.random.default_rng(9)
        now_ms, query_id = 0.0, 0

        def arrivals(rate, median, count):
            nonlocal now_ms, query_id
            for b in np.clip(sizes.lognormal(np.log(median), 0.5, count), 1, 1000):
                now_ms += 1_000.0 / rate
                controller.observe_arrival(Query(query_id, int(b), now_ms), now_ms)
                window.append(int(b))
                query_id += 1

        for rate, median in SHIFTS:
            arrivals(rate, median, rate)
            decision = controller.maybe_replan(now_ms)  # a load change, if any
            if decision is not None:
                plans.append((decision.budget_per_hour, list(window), decision.plan))
            arrivals(rate, median, rate // 2)
            controller.observe_failure("r5n.large", now_ms)  # same budget, new window
            decision = controller.maybe_replan(now_ms)
            plans.append((decision.budget_per_hour, list(window), decision.plan))

        budgets = [budget for budget, samples, _ in plans if samples is not None]
        assert len(set(budgets)) >= 3  # the load changes moved the budget
        assert len(set(budgets)) < len(budgets)  # and planners were reused

        reference = np.random.default_rng(8)
        for budget, samples, plan in plans:
            fresh = KairosPlanner(
                "RM2",
                budget,
                profiles=profiles,
                batch_samples=samples,
                batch_distribution=production_batch_distribution(),
                num_monitor_samples=500,
                rng=reference,
            ).plan()
            assert plan.selected_config == fresh.selected_config
            assert plan.selection.rule == fresh.selection.rule
            assert plan.selection.candidates == fresh.selection.candidates
            assert plan.selection.distance_sums == fresh.selection.distance_sums
            assert plan.selected_upper_bound == fresh.selected_upper_bound
        # the reused path draws exactly what fresh planners drew from the generator
        assert generator.bit_generator.state == reference.bit_generator.state
