"""Tests for risk-aware mixed-market planning (SpotAwareKairosPlanner and the
multi-model ``plan_joint_mixed``)."""

import numpy as np
import pytest

from repro.cloud.instances import DEFAULT_INSTANCE_CATALOG
from repro.cloud.spot import SpotMarket, SpotTypeMarket
from repro.core.kairos import (
    MultiModelKairosPlanner,
    SpotAwareKairosPlanner,
    enumerate_spot_configs,
)
from repro.workload.batch_sizes import production_batch_distribution

BUDGET = 2.5
HORIZON_MS = 60_000.0


def _samples(seed=100):
    return production_batch_distribution().sample(2000, np.random.default_rng(seed))


def _market(discount=0.65, hazard=60.0, names=None):
    catalog = DEFAULT_INSTANCE_CATALOG
    offerings = [
        SpotTypeMarket(t.name, discount=discount, preemptions_per_hour=hazard)
        for t in catalog.types
        if names is None or t.name in names
    ]
    return SpotMarket(offerings, warning_ms=500.0)


def make_planner(profiles, *, market=None, **kw):
    defaults = dict(
        profiles=profiles,
        batch_samples=_samples(),
        planning_horizon_ms=HORIZON_MS,
        demand_headroom=1.6,
    )
    defaults.update(kw)
    return SpotAwareKairosPlanner("RM2", BUDGET, market=market, **defaults)


class TestEnumerateSpotConfigs:
    def test_discounted_budget_and_offered_types_only(self, profiles):
        market = _market(names=["r5n.large"])
        space = enumerate_spot_configs(0.2, DEFAULT_INSTANCE_CATALOG, market)
        # r5n at 0.149 * 0.35 = 0.05215 $/hr: 3 instances fit in 0.2
        counts = sorted(c.count_of("r5n.large") for c in space)
        assert counts == [0, 1, 2, 3]
        assert all(
            c.count_of(name) == 0
            for c in space
            for name in ("g4dn.xlarge", "c5n.2xlarge", "t3.xlarge")
        )

    def test_includes_the_empty_allocation(self, profiles):
        space = enumerate_spot_configs(1.0, DEFAULT_INSTANCE_CATALOG, _market())
        assert any(c.is_empty() for c in space)

    def test_same_catalog_object_for_fast_bound_path(self, profiles):
        space = enumerate_spot_configs(0.5, DEFAULT_INSTANCE_CATALOG, _market())
        assert all(c.catalog is DEFAULT_INSTANCE_CATALOG for c in space)


class TestPlanMixed:
    def test_no_market_degenerates_to_cheapest_covering_ondemand(self, profiles):
        planner = make_planner(profiles)
        plan = planner.plan_mixed(60.0)
        assert not plan.has_spot
        assert plan.availability == 1.0
        assert plan.demand_met and plan.floor_met
        required = 60.0 * 1.6
        assert plan.ondemand_bound >= required - 1e-9
        # no strictly cheaper on-demand config in the space covers the demand
        space = planner.enumerate()
        bounds = planner.estimator.upper_bounds_batch(space)
        cheaper = [
            c
            for c, b in zip(space, bounds)
            if b >= required - 1e-9 and c.cost_per_hour() < plan.cost_per_hour - 1e-9
        ]
        assert cheaper == []

    def test_mixed_plan_undercuts_all_ondemand(self, profiles):
        target = 60.0
        od = make_planner(profiles).plan_mixed(target)
        mixed = make_planner(profiles, market=_market()).plan_mixed(target)
        assert mixed.has_spot
        assert mixed.demand_met and mixed.floor_met
        assert mixed.cost_per_hour < od.cost_per_hour
        # the effective (risk-discounted) bound still covers the demand
        assert mixed.effective_bound >= target * 1.6 - 1e-9

    def test_effective_bound_discounts_spot_by_availability(self, profiles):
        mixed = make_planner(profiles, market=_market()).plan_mixed(60.0)
        assert 0.0 < mixed.availability < 1.0
        assert mixed.effective_bound == pytest.approx(
            mixed.ondemand_bound + mixed.availability * mixed.spot_bound
        )
        expected = _market()["r5n.large"].expected_availability(HORIZON_MS)
        # uniform market: every type shares one availability value
        assert mixed.availability == pytest.approx(expected)

    def test_ondemand_floor_is_enforced(self, profiles):
        target = 60.0
        required = target * 1.6
        for floor in (0.0, 0.4, 0.8):
            plan = make_planner(
                profiles, market=_market(), ondemand_floor=floor
            ).plan_mixed(target)
            assert plan.demand_met and plan.floor_met
            assert plan.ondemand_bound >= floor * required - 1e-9
        # a higher floor can only shift spend toward on-demand capacity
        lax = make_planner(profiles, market=_market(), ondemand_floor=0.0).plan_mixed(target)
        strict = make_planner(profiles, market=_market(), ondemand_floor=1.0).plan_mixed(target)
        assert strict.ondemand_cost_per_hour >= lax.ondemand_cost_per_hour

    def test_higher_hazard_shifts_spend_toward_ondemand(self, profiles):
        target = 60.0
        calm = make_planner(profiles, market=_market(hazard=1.0)).plan_mixed(target)
        stormy = make_planner(profiles, market=_market(hazard=600.0)).plan_mixed(target)
        # the market itself got flakier...
        assert _market(hazard=600.0)["r5n.large"].expected_availability(
            HORIZON_MS
        ) < _market(hazard=1.0)["r5n.large"].expected_availability(HORIZON_MS)
        # ...so the plan leans harder on reliable capacity and cannot get cheaper
        # (every stormy-feasible pair is calm-feasible: availability only shrinks)
        assert stormy.cost_per_hour >= calm.cost_per_hour - 1e-9
        assert stormy.spot_cost_per_hour <= calm.spot_cost_per_hour + 1e-9
        assert stormy.ondemand_cost_per_hour >= calm.ondemand_cost_per_hour - 1e-9

    def test_both_spaces_keep_their_cutoff_layouts(self, profiles, monkeypatch):
        """Each call ranks the on-demand and then the spot space through one
        estimator: both groupings stay cached, and the bounds match a fresh one."""
        planner = make_planner(profiles, market=_market())
        estimator = planner.estimator
        builds = []
        build_layout = estimator._cutoff_layout

        def counting_layout(counts):
            builds.append(len(counts))
            return build_layout(counts)

        ranked = []
        rank = estimator.upper_bounds_batch

        def recording_rank(space):
            bounds = rank(space)
            ranked.append((space, bounds))
            return bounds

        monkeypatch.setattr(estimator, "_cutoff_layout", counting_layout)
        monkeypatch.setattr(estimator, "upper_bounds_batch", recording_rank)
        targets = (20.0, 60.0, 100.0, 60.0, 150.0)
        plans = [planner.plan_mixed(target) for target in targets]
        assert len(ranked) == 10
        assert len(builds) == 2
        fresh = make_planner(profiles, market=_market())
        for space, bounds in ranked:
            assert np.array_equal(bounds, fresh.estimator.upper_bounds_batch(space))
        for target, plan in zip(targets, plans):
            assert fresh.plan_mixed(target).allocation == plan.allocation

    def test_infeasible_demand_degrades_to_best_effort(self, profiles):
        plan = make_planner(profiles, market=_market()).plan_mixed(100_000.0)
        assert not plan.demand_met
        assert plan.cost_per_hour <= BUDGET + 1e-9

    def test_combined_config_sums_markets(self, profiles):
        plan = make_planner(profiles, market=_market()).plan_mixed(60.0)
        combined = plan.combined_config
        for name, count in combined:
            assert count == plan.ondemand_config.count_of(name) + plan.spot_config.count_of(name)

    def test_deterministic(self, profiles):
        a = make_planner(profiles, market=_market()).plan_mixed(60.0)
        b = make_planner(profiles, market=_market()).plan_mixed(60.0)
        assert a.ondemand_config == b.ondemand_config
        assert a.spot_config == b.spot_config
        assert a.effective_bound == b.effective_bound

    def test_parameter_validation(self, profiles):
        with pytest.raises(ValueError):
            make_planner(profiles, ondemand_floor=1.5)
        with pytest.raises(ValueError):
            make_planner(profiles, demand_headroom=0.5)
        with pytest.raises(ValueError):
            make_planner(profiles, planning_horizon_ms=0.0)
        planner = make_planner(profiles)
        with pytest.raises(ValueError):
            planner.plan_mixed(-1.0)


class TestPlanJointMixed:
    def make_joint(self, profiles, budget=BUDGET, **kw):
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
            demand_headroom={"RM2": 1.6, "WND": 2.1},
            **kw,
        )

    def test_joint_mixed_covers_targets_and_undercuts_ondemand(self, profiles):
        planner = self.make_joint(profiles)
        targets = {"RM2": 40.0, "WND": 120.0}
        od = planner.plan_joint_mixed(targets, None, planning_horizon_ms=HORIZON_MS)
        mixed = planner.plan_joint_mixed(
            targets, _market(), planning_horizon_ms=HORIZON_MS
        )
        assert od.within_budget and od.meets_all_targets
        assert mixed.within_budget and mixed.meets_all_targets
        assert mixed.total_cost_per_hour < od.total_cost_per_hour
        assert any(not a.spot_config.is_empty() for a in mixed.allocations)
        for allocation in mixed.allocations:
            headroom = {"RM2": 1.6, "WND": 2.1}[allocation.model_name]
            assert allocation.effective_bound >= allocation.target_qps * headroom - 1e-9

    def test_over_budget_falls_back_to_proportional_split(self, profiles):
        planner = self.make_joint(profiles, budget=1.0)
        plan = planner.plan_joint_mixed(
            {"RM2": 500.0, "WND": 5000.0}, _market(), planning_horizon_ms=HORIZON_MS
        )
        assert not plan.within_budget
        assert not plan.meets_all_targets

    def test_missing_target_rejected(self, profiles):
        planner = self.make_joint(profiles)
        with pytest.raises(KeyError):
            planner.plan_joint_mixed({"RM2": 20.0}, _market())

    def test_allocation_lookup(self, profiles):
        planner = self.make_joint(profiles)
        plan = planner.plan_joint_mixed(
            {"RM2": 20.0, "WND": 150.0}, _market(), planning_horizon_ms=HORIZON_MS
        )
        assert plan.allocation_of("RM2").model_name == "RM2"
        with pytest.raises(KeyError):
            plan.allocation_of("NCF")
