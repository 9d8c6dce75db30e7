"""Spot-market experiments: risk-aware mixed-market serving vs. all-on-demand.

The paper's budget constraint prices everything at the on-demand rate; real clouds sell
the same instance types at a 60-90% discount as preemptible *spot* capacity.
``fig18_spot_savings`` quantifies what the reproduction gains from that second price
axis: one demand target, two arms —

* **all-on-demand**: the cheapest all-on-demand configuration whose Eq. 15 bound
  covers the demand (the :class:`~repro.core.kairos.SpotAwareKairosPlanner` with no
  market), pinned for the whole trace;
* **mixed (risk-aware)**: the cheapest on-demand + spot pair whose *risk-discounted*
  effective bound covers the demand, under a minimum on-demand floor.  The spot
  portion lives under a nonzero Poisson preemption hazard, the run includes a scripted
  worst-case **preemption burst** that reclaims every spot instance at once, and the
  preemption-tolerant loop (deadline-bounded draining, central re-queue, reactive
  like-for-like re-provisioning) absorbs both.

Both arms serve the identical query stream through the same serving kernel (only the
mixed arm is given the market), so the comparison isolates exactly one difference:
the market mix.  The table
reports per-arm planned and realized $/hr plus QoS attainment before, during, and
after the burst window — the headline being that the mixed arm serves QoS at a
measurably lower $/hr and recovers from the forced burst.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.multi_model import DEFAULT_DEMAND_HEADROOM
from repro.analysis.reporting import FigureTable
from repro.analysis.settings import ExperimentSettings
from repro.cloud.spot import MS_PER_HOUR, SpotMarket
from repro.core.kairos import KairosPlanner, SpotAwareKairosPlanner
from repro.sim.cluster import Cluster, initial_spot_server_ids
from repro.sim.elasticity import ElasticServingSimulation, ElasticSimulationReport
from repro.sim.events import Event, EventKind, PreemptionBurst
from repro.workload.generator import WorkloadSpec
from repro.workload.phases import LoadPhase, PhasedTrace


def attainment_in_window(
    report: ElasticSimulationReport, t0_ms: float, t1_ms: float
) -> float:
    """Fraction of the window's arrivals served within QoS (1.0 for an empty window)."""
    window = report.metrics.window(t0_ms, t1_ms)
    if len(window) == 0:
        return 1.0
    return 1.0 - window.qos_violation_rate()


def realized_cost_per_hour(report: ElasticSimulationReport, horizon_ms: float) -> float:
    """Mean $/hr burn rate over ``[0, horizon_ms]`` (the measured cost of an arm)."""
    return report.ledger.cost_in_window(0.0, horizon_ms) / (horizon_ms / MS_PER_HOUR)


def fig18_spot_savings(
    settings: Optional[ExperimentSettings] = None,
    *,
    model_name: str = "RM2",
    demand_frac: float = 0.5,
    discount: float = 0.65,
    expected_preemptions_per_instance: float = 0.6,
    ondemand_floor: float = 0.5,
    burst_at_frac: float = 0.5,
    total_queries_target: Optional[int] = None,
    use_online_latency_learning: bool = True,
) -> FigureTable:
    """Serve one demand target all-on-demand vs. on a risk-aware on-demand+spot mix.

    The demand is ``demand_frac`` of the budget-maximal plan's upper bound; both arms
    provision the cheapest allocation covering it (with the model's default demand
    headroom) under ``settings.budget_per_hour``.  The spot market discounts every
    catalog type by ``discount`` and preempts each spot instance
    ``expected_preemptions_per_instance`` times per trace on average; at
    ``burst_at_frac`` of the trace a scripted burst reclaims *all* remaining spot
    instances at once.  The mixed arm's planner sees the trace duration as its
    planning horizon, so the availability discount it applies matches the hazard the
    simulation actually draws from.
    """
    settings = settings or ExperimentSettings()
    registry = settings.registry()
    model = settings.model(model_name)
    monitored = settings.monitored_batches()
    budget = settings.budget_per_hour
    headroom = DEFAULT_DEMAND_HEADROOM.get(model.name, 2.0)

    # Demand target from the budget-maximal plan's bound (the paper's operating point).
    budget_plan = KairosPlanner(
        model, budget, profiles=registry, batch_samples=monitored
    ).plan()
    demand = demand_frac * budget_plan.selected_upper_bound

    target = (
        int(total_queries_target)
        if total_queries_target is not None
        else 3 * settings.num_queries
    )
    duration_ms = 1000.0 * target / demand
    startup_delay_ms = duration_ms / 12.0
    warning_ms = duration_ms / 50.0
    # Hazard calibrated to the trace: each spot instance is preempted
    # `expected_preemptions_per_instance` times per run in expectation.
    hazard_per_hour = expected_preemptions_per_instance * MS_PER_HOUR / duration_ms
    market = SpotMarket.uniform(
        registry.catalog,
        discount=discount,
        preemptions_per_hour=hazard_per_hour,
        warning_ms=warning_ms,
    )

    plan_od = SpotAwareKairosPlanner(
        model,
        budget,
        profiles=registry,
        batch_samples=monitored,
        demand_headroom=headroom,
    ).plan_mixed(demand)
    plan_mixed = SpotAwareKairosPlanner(
        model,
        budget,
        profiles=registry,
        batch_samples=monitored,
        market=market,
        planning_horizon_ms=duration_ms,
        ondemand_floor=ondemand_floor,
        demand_headroom=headroom,
    ).plan_mixed(demand)

    trace = PhasedTrace(
        [LoadPhase.step(demand, duration_ms, label="steady")],
        WorkloadSpec(batch_sizes=settings.distribution()),
    )
    trace_result = trace.generate(settings.rng(42))
    queries = list(trace_result.queries)
    burst_ms = burst_at_frac * duration_ms
    # The burst is fully absorbed once the victims are killed and their replacements
    # have booted; attainment is compared before the burst and after this point.
    recovered_ms = burst_ms + warning_ms + startup_delay_ms + duration_ms / 10.0

    def build_policy():
        from repro.schedulers.kairos_policy import KairosPolicy

        return KairosPolicy(use_perfect_estimator=not use_online_latency_learning)

    # All-on-demand arm: the same serving kernel, no market.
    od_sim = ElasticServingSimulation(
        Cluster(plan_od.combined_config, model, registry),
        build_policy(),
        startup_delay_ms=startup_delay_ms,
        rng=settings.rng(7),
    )
    od_report = od_sim.run(queries)

    # Mixed arm: spot portion armed with the preemption process plus the forced burst.
    mixed_cluster = Cluster(plan_mixed.combined_config, model, registry)
    spot_ids = initial_spot_server_ids(mixed_cluster, plan_mixed.spot_config)
    # Twice the initial spot fleet: the burst must also catch like-for-like
    # replacements spawned by natural preemptions before it fires.
    scripted = [
        Event(
            burst_ms,
            EventKind.PREEMPTION_WARNING,
            PreemptionBurst(count=max(1, 2 * len(spot_ids))),
        )
    ]
    mixed_sim = ElasticServingSimulation(
        mixed_cluster,
        build_policy(),
        market=market,
        spot_server_ids=spot_ids,
        scripted_events=scripted,
        startup_delay_ms=startup_delay_ms,
        rng=settings.rng(7),
        market_rng=settings.rng(11),
    )
    mixed_report = mixed_sim.run(queries)

    rows = []
    for arm, plan, report in (
        ("all-on-demand", plan_od, od_report),
        ("mixed", plan_mixed, mixed_report),
    ):
        preemptions = sum(1 for e in report.scale_log if e.kind == "preempted")
        warnings = sum(1 for e in report.scale_log if e.kind == "preemption_warning")
        reprovisions = sum(
            e.count for e in report.scale_log
            if e.kind == "scale_up" and e.reason == "reprovision"
        )
        rows.append(
            [
                arm,
                str(plan.ondemand_config),
                str(plan.spot_config),
                plan.cost_per_hour,
                realized_cost_per_hour(report, duration_ms),
                attainment_in_window(report, 0.0, duration_ms),
                attainment_in_window(report, 0.0, burst_ms),
                attainment_in_window(report, burst_ms, recovered_ms),
                attainment_in_window(report, recovered_ms, duration_ms),
                float(warnings),
                float(preemptions),
                float(reprovisions),
            ]
        )

    saved = 1.0 - realized_cost_per_hour(mixed_report, duration_ms) / realized_cost_per_hour(
        od_report, duration_ms
    )
    table = FigureTable(
        figure_id="fig18-spot",
        title=f"{model.name}: risk-aware on-demand+spot mix vs. all-on-demand at "
        f"{budget:g}$/hr budget, {discount:.0%} spot discount",
        headers=[
            "arm",
            "ondemand_config",
            "spot_config",
            "planned_cost_hr",
            "realized_cost_hr",
            "attainment",
            "attainment_pre_burst",
            "attainment_burst",
            "attainment_recovered",
            "warnings",
            "preemptions",
            "reprovisions",
        ],
        rows=rows,
        notes=[
            f"demand = {demand_frac:.2f} x budget-max bound = {demand:.1f} qps "
            f"(headroom {headroom:g})",
            f"spot hazard = {hazard_per_hour:.1f}/instance-hr "
            f"(~{expected_preemptions_per_instance:g} preemptions/instance/run), "
            f"warning window = {warning_ms:.0f} ms",
            f"forced burst at t={burst_ms:.0f} ms reclaims every spot instance; "
            f"recovery measured from t={recovered_ms:.0f} ms",
            f"realized spend: mixed arm {saved:.1%} below all-on-demand",
        ],
        extras={
            "plan_od": plan_od,
            "plan_mixed": plan_mixed,
            "od_report": od_report,
            "mixed_report": mixed_report,
            "market": market,
            "demand_qps": demand,
            "duration_ms": duration_ms,
            "burst_ms": burst_ms,
            "recovered_ms": recovered_ms,
            "realized_saving_frac": saved,
            "trace": trace_result,
        },
    )
    return table
