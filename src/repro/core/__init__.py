"""Kairos core: the paper's primary contribution.

Two co-designed components:

* the **query-distribution mechanism** (Sec. 5.1): heterogeneity coefficients, the
  ``L`` cost matrix with the QoS penalty, and the min-cost bipartite-matching
  distributor (:mod:`repro.core.distributor`), driven by an online latency model;
* the **throughput upper-bound estimator and configuration selection** (Sec. 5.2):
  closed-form upper bounds (Eqs. 9-15), budget-constrained configuration enumeration,
  similarity-based selection, the one-shot :class:`~repro.core.kairos.KairosPlanner`,
  and the online :class:`~repro.core.kairos_plus.KairosPlusSearch` (Algorithm 1).

:mod:`repro.core.controller` ties both together into a runnable serving system.
"""

from repro.core.config_space import (
    ConfigSpace,
    config_space,
    enumerate_configs,
    search_space_size,
)
from repro.core.cost_matrix import CostMatrix, build_cost_matrix
from repro.core.distributor import Assignment, QueryDistributor
from repro.core.heterogeneity import heterogeneity_coefficients
from repro.core.kairos import (
    KairosPlan,
    KairosPlanner,
    MixedMarketPlan,
    MixedModelAllocation,
    MultiModelMixedPlan,
    SpotAwareKairosPlanner,
    enumerate_spot_configs,
)
from repro.core.kairos_plus import KairosPlusResult, KairosPlusSearch
from repro.core.latency_model import (
    LatencyEstimator,
    NoisyLatencyEstimator,
    OnlineLatencyEstimator,
    PerfectLatencyEstimator,
)
from repro.core.selection import SelectionResult, select_configuration
from repro.core.upper_bound import (
    ThroughputUpperBoundEstimator,
    UpperBoundInputs,
    upper_bound_from_rates,
)
from repro.core.controller import (
    ArrivalRateEstimator,
    ElasticKairosController,
    KairosServingSystem,
    ReplanDecision,
    migration_deltas,
)

__all__ = [
    "LatencyEstimator",
    "PerfectLatencyEstimator",
    "OnlineLatencyEstimator",
    "NoisyLatencyEstimator",
    "heterogeneity_coefficients",
    "CostMatrix",
    "build_cost_matrix",
    "Assignment",
    "QueryDistributor",
    "ThroughputUpperBoundEstimator",
    "UpperBoundInputs",
    "upper_bound_from_rates",
    "ConfigSpace",
    "config_space",
    "enumerate_configs",
    "search_space_size",
    "SelectionResult",
    "select_configuration",
    "KairosPlan",
    "KairosPlanner",
    "MixedMarketPlan",
    "MixedModelAllocation",
    "MultiModelMixedPlan",
    "SpotAwareKairosPlanner",
    "enumerate_spot_configs",
    "KairosPlusResult",
    "KairosPlusSearch",
    "KairosServingSystem",
    "ArrivalRateEstimator",
    "ElasticKairosController",
    "ReplanDecision",
    "migration_deltas",
]
