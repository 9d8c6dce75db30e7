"""repro: a reproduction of Kairos (HPDC 2023).

Kairos maximizes ML inference throughput under a QoS target and a cost budget on a
heterogeneous pool of cloud instances, by (1) distributing queries with a min-cost
bipartite matching and (2) choosing the heterogeneous configuration with a closed-form
throughput upper bound instead of online exploration.

Quick start::

    from repro import KairosServingSystem

    system = KairosServingSystem("RM2", budget_per_hour=2.5)
    plan = system.plan()
    print(plan.selected_config, plan.selected_upper_bound)
    result = system.measure_throughput(num_queries=800)
    print(result.qps)

Sub-packages
------------
``repro.cloud``     instance catalog, models, latency profiles, configurations, billing
``repro.workload``  queries, batch-size distributions, arrival processes, traces
``repro.sim``       discrete-event serving simulator and capacity measurement
``repro.solvers``   linear-sum-assignment solvers (canonical JV, Hungarian, greedy)
``repro.core``      the Kairos planner, distributor, upper bound, Kairos+ search
``repro.schedulers``query-distribution policies (Kairos, Ribbon, DRS, CLKWRK, Oracle)
``repro.search``    online configuration-search baselines (random, SA, GA, BO)
``repro.analysis``  experiment drivers reproducing every table and figure

Online elasticity data flow
---------------------------
The elasticity subsystem reacts to load changes mid-simulation (the online
generalization of the paper's Fig. 12 one-shot re-planning).  Data flows through
four layers::

    repro.workload.phases            LoadPhase / PhasedTrace
        |   trace-driven arrival-rate phases (step, ramp, diurnal, spike) composed
        |   into one query stream with per-phase windows
        v
    repro.sim.elasticity             ElasticServingSimulation
        |   one EventQueue carrying arrivals, completions, and the provisioning
        |   events SCALE_UP / SCALE_DOWN / INSTANCE_READY; draining semantics and
        |   an index-stable ClusterView for the scheduling policy; per-instance
        |   billing via repro.cloud.billing.InstanceUsageLedger
        v
    repro.core.controller            ElasticKairosController
        |   sliding ArrivalRateEstimator detects sustained load change; KairosPlanner
        |   re-plans in one shot under a load-scaled budget; migration_deltas emit
        |   the scale events that migrate the cluster
        v
    repro.analysis.elasticity        fig12_dynamic_replan
            per-phase QoS-met throughput and dollar spend, static plan vs. elastic

Quick elastic start::

    from repro.analysis.elasticity import fig12_dynamic_replan
    print(fig12_dynamic_replan().format())

Multi-model co-location data flow
---------------------------------
N models share one cluster and one dollar budget; every instance hosts one model
copy, and the central controller schedules the *union* of pending queries each
round.  Data flows through the same four layers::

    repro.workload                   model-tagged queries; interleave_model_streams /
        |                            MultiModelTrace merge per-model streams into one
        |                            arrival-ordered multi-tenant trace
        v
    repro.sim.cluster                MultiModelCluster / MultiModelClusterView
        |                            per-model partitions over one global server-id
        |   space; repro.sim.multi_model.MultiModelServingSimulation drives the
        |   joint event loop (per-model QoS metrics, model-tagged billing, scale
        |   events addressed to model partitions)
        v
    repro.core                       build_multi_model_cost_matrix (one predict per
        |                            (model, type) per round, cross-model pairs
        |   penalized), MultiModelKairosPlanner.plan_joint (cheapest demand-covering
        |   config per model under the shared budget), and
        |   MultiModelElasticController (joint re-planning on sustained load change)
        v
    repro.analysis.multi_model       fig17_multi_model_joint
            joint shared-budget plan vs. independently planned per-model clusters

Quick multi-model start::

    from repro.analysis.multi_model import fig17_multi_model_joint
    print(fig17_multi_model_joint().format())

Spot-market serving data flow
-----------------------------
Real clouds sell a second price axis: preemptible *spot* capacity at a 60-90%
discount that can be reclaimed after a short warning.  The spot subsystem threads
that through the same four layers::

    repro.cloud.spot                 SpotMarket / SpotTypeMarket
        |   per-type discounts, Poisson preemption hazards (optionally phased),
        |   the warning window, and the expected-availability discount; the
        |   billing ledger prices intervals per market (cost_by_market,
        |   discount_savings) so the on-demand/spot split is exact
        v
    repro.sim.preemption             PreemptibleElasticSimulation
        |   PREEMPTION_WARNING / PREEMPTED events on the elastic event loop:
        |   a warned spot instance enters deadline-bounded draining, unfinished
        |   work is re-queued through the central PendingQueue at the kill, and
        |   a replacement boots while the victim drains (PreemptionBurst scripts
        |   a correlated worst-case reclaim)
        v
    repro.core                       SpotAwareKairosPlanner.plan_mixed /
        |                            MultiModelKairosPlanner.plan_joint_mixed
        |   rank mixed on-demand+spot allocations via upper_bounds_batch, spot
        |   bounds discounted by expected availability, a minimum on-demand
        |   floor guarding QoS against a total spot reclaim;
        |   ElasticKairosController.observe_preemption books the loss and
        |   forces a one-shot re-provisioning re-plan
        v
    repro.analysis.spot              fig18_spot_savings
            risk-aware mix vs. all-on-demand: $/hr and QoS attainment before,
            during, and after a forced preemption burst

Quick spot start::

    from repro.analysis.spot import fig18_spot_savings
    print(fig18_spot_savings().format())
"""

from repro.cloud.config import HeterogeneousConfig
from repro.cloud.instances import DEFAULT_INSTANCE_CATALOG, InstanceType, get_instance_type
from repro.cloud.models import DEFAULT_MODEL_REGISTRY, MLModel, get_model
from repro.cloud.profiles import default_profile_registry
from repro.cloud.spot import SpotMarket, SpotTypeMarket
from repro.core.controller import KairosServingSystem
from repro.core.kairos import (
    KairosPlan,
    KairosPlanner,
    MixedMarketPlan,
    MultiModelKairosPlanner,
    MultiModelPlan,
    SpotAwareKairosPlanner,
)
from repro.core.kairos_plus import KairosPlusSearch
from repro.sim.capacity import measure_allowable_throughput
from repro.sim.cluster import MultiModelCluster
from repro.sim.multi_model import simulate_multi_model_serving
from repro.sim.simulation import simulate_serving
from repro.workload.generator import WorkloadGenerator, WorkloadSpec

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "HeterogeneousConfig",
    "InstanceType",
    "get_instance_type",
    "DEFAULT_INSTANCE_CATALOG",
    "MLModel",
    "get_model",
    "DEFAULT_MODEL_REGISTRY",
    "default_profile_registry",
    "KairosServingSystem",
    "KairosPlanner",
    "KairosPlan",
    "MultiModelKairosPlanner",
    "MultiModelPlan",
    "MixedMarketPlan",
    "SpotAwareKairosPlanner",
    "SpotMarket",
    "SpotTypeMarket",
    "MultiModelCluster",
    "KairosPlusSearch",
    "measure_allowable_throughput",
    "simulate_serving",
    "simulate_multi_model_serving",
    "WorkloadGenerator",
    "WorkloadSpec",
]
