"""The Kairos one-shot configuration planner (paper Sec. 5.2).

Given a model, a cost budget, the latency profiles, and the observed query-size mix, the
planner enumerates every configuration under the budget, computes the closed-form
throughput upper bound of each, and applies the similarity-based selection rule — all
without a single online evaluation.  This is the component that lets Kairos react to
load changes "in one shot" (Fig. 12).
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cloud.config import HeterogeneousConfig
from repro.cloud.instances import DEFAULT_INSTANCE_CATALOG, InstanceCatalog
from repro.cloud.models import MLModel
from repro.cloud.profiles import ProfileRegistry, default_profile_registry
from repro.cloud.spot import MS_PER_HOUR, SpotMarket
from repro.core.config_space import ConfigSpace, config_space
from repro.core.selection import SelectionResult, select_configuration
from repro.core.upper_bound import (
    ThroughputUpperBoundEstimator,
    ranked_pairs,
    ranking_order,
)
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_non_negative, check_positive
from repro.workload.batch_sizes import BatchSizeDistribution, production_batch_distribution


@dataclass(frozen=True)
class KairosPlan:
    """Result of one planning pass.

    ``head`` is the prefix of the upper-bound ranking that selection reads (at least
    its top-k, widened over ties at the k-th bound).  The full ranking, ``ranked``,
    is built from ``configs`` and ``bounds`` on first access: only Kairos+ and the
    analyses read it, so a re-plan never lists and sorts the whole space.
    """

    model_name: str
    budget_per_hour: float
    selected_config: HeterogeneousConfig
    selection: SelectionResult
    head: Tuple[Tuple[HeterogeneousConfig, float], ...]
    search_space_size: int
    planning_seconds: float
    #: The ranked space, in enumeration order, and its Eq. 15 bound per configuration.
    configs: Sequence[HeterogeneousConfig] = field(repr=False, compare=False)
    bounds: np.ndarray = field(repr=False, compare=False)

    @property
    def selected_upper_bound(self) -> float:
        """Upper bound of the selected configuration (always inside the head)."""
        return self.head[self.selection.selected_rank][1]

    @functools.cached_property
    def ranked(self) -> Tuple[Tuple[HeterogeneousConfig, float], ...]:
        """Every configuration by decreasing upper bound (ties keep enumeration order)."""
        return tuple(ranked_pairs(self.configs, self.bounds, ranking_order(self.bounds)))

    def top(self, k: int) -> List[Tuple[HeterogeneousConfig, float]]:
        """The ``k`` highest-upper-bound configurations."""
        if 0 <= k <= len(self.head):
            return list(self.head[:k])
        return list(self.ranked[:k])


class KairosPlanner:
    """Enumerate, rank by upper bound, and select a configuration without evaluation.

    Parameters
    ----------
    profiles / model / catalog:
        The cloud substrate.
    budget_per_hour:
        The cost budget the configuration must fit.
    batch_samples:
        Observed query batch sizes (the query monitor's window).  Alternatively pass a
        ``batch_distribution`` and the planner draws ``num_monitor_samples`` from it,
        emulating the monitoring window.
    min_base_count / max_per_type:
        Forwarded to the configuration enumeration.
    """

    def __init__(
        self,
        model: Union[str, MLModel],
        budget_per_hour: float,
        *,
        profiles: Optional[ProfileRegistry] = None,
        catalog: Optional[InstanceCatalog] = None,
        batch_samples: Optional[Sequence[int]] = None,
        batch_distribution: Optional[BatchSizeDistribution] = None,
        num_monitor_samples: int = 10_000,
        rng: RngLike = None,
        min_base_count: int = 0,
        max_per_type: Optional[int] = None,
        top_k_base_check: int = 3,
        top_k_similarity: int = 10,
    ):
        check_positive(budget_per_hour, "budget_per_hour")
        self.profiles = profiles if profiles is not None else default_profile_registry()
        self.catalog = catalog if catalog is not None else self.profiles.catalog
        self.model = model if isinstance(model, MLModel) else self.profiles.models[model]
        self.budget_per_hour = float(budget_per_hour)
        self.min_base_count = min_base_count
        self.max_per_type = max_per_type
        self.top_k_base_check = top_k_base_check
        self.top_k_similarity = top_k_similarity

        if batch_samples is None:
            dist = (
                batch_distribution
                if batch_distribution is not None
                else production_batch_distribution(self.model.max_batch_size)
            )
            batch_samples = dist.sample(num_monitor_samples, ensure_rng(rng))
        self.batch_samples = np.asarray(batch_samples, dtype=int)
        self.estimator = ThroughputUpperBoundEstimator(
            self.profiles, self.model, self.batch_samples, catalog=self.catalog
        )

    def config_space(self) -> ConfigSpace:
        """The configuration search space under the budget (memoized, shared read-only)."""
        return config_space(
            self.budget_per_hour,
            self.catalog,
            min_base_count=self.min_base_count,
            max_per_type=self.max_per_type,
        )

    def enumerate(self) -> List[HeterogeneousConfig]:
        """The configuration search space under the budget, as a fresh list."""
        return list(self.config_space())

    def plan(self, configs: Optional[Sequence[HeterogeneousConfig]] = None) -> KairosPlan:
        """Run the full planning pass; returns the selected configuration and diagnostics.

        Without ``configs`` the pass ranks the budget's space, memoized per budget and
        shared read-only: every re-plan at an already-seen budget reuses one
        enumeration (configurations and count matrix) instead of rebuilding it.  Only
        the head selection reads is sorted; the plan ranks the rest on demand.
        """
        start = time.perf_counter()
        space = list(configs) if configs is not None else self.config_space()
        if not space:
            raise ValueError(
                f"no configuration fits the budget of {self.budget_per_hour}$/hr"
            )
        bounds = self.estimator.upper_bounds(space)
        bounds.flags.writeable = False
        k = max(self.top_k_base_check, self.top_k_similarity, 1)
        head = tuple(ranked_pairs(space, bounds, ranking_order(bounds, k)))
        selection = select_configuration(
            head,
            top_k_base_check=self.top_k_base_check,
            top_k_similarity=self.top_k_similarity,
        )
        elapsed = time.perf_counter() - start
        return KairosPlan(
            model_name=self.model.name,
            budget_per_hour=self.budget_per_hour,
            selected_config=selection.selected,
            selection=selection,
            head=head,
            search_space_size=len(space),
            planning_seconds=elapsed,
            configs=space,
            bounds=bounds,
        )

    def update_batch_samples(self, batch_samples: Sequence[int]) -> None:
        """Replace the monitored query-size window (load-change adaptation, Fig. 12).

        Updates the upper-bound estimator in place: the per-type QoS cutoff table is a
        function of the profiles alone and survives the window swap, so a re-plan only
        pays for the new mix's rates.
        """
        samples = np.asarray(batch_samples, dtype=int)
        self.estimator.update_samples(samples)
        self.batch_samples = samples


# ---------------------------------------------------------------------------------------
# Multi-model joint planning: split one budget across co-located models
# ---------------------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelAllocation:
    """One model's share of a joint multi-model plan."""

    model_name: str
    target_qps: float
    config: HeterogeneousConfig
    upper_bound: float
    cost_per_hour: float
    #: True when the selected configuration's upper bound covers the demand target.
    demand_met: bool


@dataclass(frozen=True)
class MultiModelPlan:
    """Result of one joint planning pass over N co-located models."""

    budget_per_hour: float
    allocations: Tuple[ModelAllocation, ...]
    search_space_size: int
    planning_seconds: float
    #: True when the joint selection fit the shared budget directly; False when the
    #: planner had to fall back to a proportional budget split.
    within_budget: bool

    @property
    def total_cost_per_hour(self) -> float:
        return sum(a.cost_per_hour for a in self.allocations)

    @property
    def meets_all_targets(self) -> bool:
        return all(a.demand_met for a in self.allocations)

    def allocation_of(self, model_name: str) -> ModelAllocation:
        for allocation in self.allocations:
            if allocation.model_name == model_name:
                return allocation
        raise KeyError(f"no allocation for model {model_name!r} in the joint plan")

    def configs(self) -> Dict[str, HeterogeneousConfig]:
        """Per-model configurations, in allocation order (feeds MultiModelCluster)."""
        return {a.model_name: a.config for a in self.allocations}


class MultiModelKairosPlanner:
    """Joint configuration planning for N models sharing one dollar budget.

    Where the single-model :class:`KairosPlanner` maximizes one model's throughput
    upper bound under the full budget, the joint planner answers the multi-tenant
    question: *given each model's offered load, what is the cheapest per-model
    allocation whose Eq. 15 upper bound still covers every model's demand?*  For each
    model it ranks the shared configuration space with the vectorized
    ``upper_bounds_batch`` and picks the cheapest demand-feasible configuration
    (ties: highest bound, then enumeration order).  Because co-located models only
    provision what their own demand needs, the joint plan undercuts independently
    planned per-model clusters that each spend a fixed budget share (the Fig. 17
    scenario).

    If the cheapest demand-feasible selections still exceed the shared budget, the
    planner falls back to a deterministic proportional split (budget shares
    proportional to demand targets) of single-model :class:`KairosPlanner` passes and
    flags the plan ``within_budget=False``.
    """

    def __init__(
        self,
        models: Sequence[Union[str, MLModel]],
        budget_per_hour: float,
        *,
        profiles: Optional[ProfileRegistry] = None,
        catalog: Optional[InstanceCatalog] = None,
        batch_samples_by_model: Optional[Dict[str, Sequence[int]]] = None,
        batch_distribution_by_model: Optional[Dict[str, BatchSizeDistribution]] = None,
        num_monitor_samples: int = 10_000,
        demand_headroom: Union[float, Mapping[str, float]] = 1.0,
        rng: RngLike = None,
        min_base_count: int = 0,
        max_per_type: Optional[int] = None,
    ):
        check_positive(budget_per_hour, "budget_per_hour")
        if not models:
            raise ValueError("need at least one model")
        self.profiles = profiles if profiles is not None else default_profile_registry()
        self.catalog = catalog if catalog is not None else self.profiles.catalog
        self.models: List[MLModel] = [
            m if isinstance(m, MLModel) else self.profiles.models[m] for m in models
        ]
        names = [m.name for m in self.models]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate models in the joint planner: {names}")
        self.budget_per_hour = float(budget_per_hour)
        # Per-model headroom over the demand target: Eq. 15 is an *upper* bound on the
        # allowable throughput, and how loose it is differs per model (tight-QoS models
        # lose more of the bound to queueing), so the factor may be a mapping.
        if isinstance(demand_headroom, Mapping):
            self.demand_headroom: Dict[str, float] = {
                name: float(demand_headroom.get(name, 1.0)) for name in names
            }
        else:
            self.demand_headroom = {name: float(demand_headroom) for name in names}
        for name, factor in self.demand_headroom.items():
            if factor < 1.0:
                raise ValueError(
                    f"demand_headroom for {name!r} must be >= 1 "
                    "(provision at least the demand)"
                )
        self.min_base_count = min_base_count
        self.max_per_type = max_per_type
        gen = ensure_rng(rng)
        samples_by_model = dict(batch_samples_by_model or {})
        dist_by_model = dict(batch_distribution_by_model or {})
        self.batch_samples_by_model: Dict[str, np.ndarray] = {}
        self.estimators: Dict[str, ThroughputUpperBoundEstimator] = {}
        for model in self.models:
            samples = samples_by_model.get(model.name)
            if samples is None:
                dist = dist_by_model.get(model.name)
                if dist is None:
                    dist = production_batch_distribution(model.max_batch_size)
                samples = dist.sample(num_monitor_samples, gen)
            samples = np.asarray(samples, dtype=int)
            self.batch_samples_by_model[model.name] = samples
            self.estimators[model.name] = ThroughputUpperBoundEstimator(
                self.profiles, model, samples, catalog=self.catalog
            )

    @property
    def model_names(self) -> List[str]:
        return [m.name for m in self.models]

    def config_space(self) -> ConfigSpace:
        """The shared configuration space: everything affordable under the full budget.

        One model alone may spend up to the whole budget (another model's demand can
        be near zero), so each model ranks the same space; the budget check applies to
        the *sum* of the selections.  Memoized per budget and shared read-only.
        """
        return config_space(
            self.budget_per_hour,
            self.catalog,
            min_base_count=self.min_base_count,
            max_per_type=self.max_per_type,
        )

    def enumerate(self) -> List[HeterogeneousConfig]:
        """The shared configuration space as a fresh list."""
        return list(self.config_space())

    def update_batch_samples(self, model_name: str, batch_samples: Sequence[int]) -> None:
        """Swap one model's monitored window in place (re-plans keep the cutoff table)."""
        samples = np.asarray(batch_samples, dtype=int)
        self.estimators[model_name].update_samples(samples)
        self.batch_samples_by_model[model_name] = samples

    def plan_joint(self, target_qps: Mapping[str, float]) -> MultiModelPlan:
        """Select per-model configurations covering every model's demand target.

        ``target_qps`` maps every registered model to its offered load; the effective
        requirement is ``target * demand_headroom``.
        """
        start = time.perf_counter()
        missing = [m.name for m in self.models if m.name not in target_qps]
        if missing:
            raise KeyError(f"no demand target for models: {missing}")
        space = self.config_space()
        if not space:
            raise ValueError(
                f"no configuration fits the budget of {self.budget_per_hour}$/hr"
            )
        costs = np.asarray([c.cost_per_hour() for c in space], dtype=float)
        order_keys = np.arange(len(space))

        allocations: List[ModelAllocation] = []
        for model in self.models:
            target = float(target_qps[model.name])
            check_non_negative(target, f"demand target for {model.name}")
            required = target * self.demand_headroom[model.name]
            bounds = self.estimators[model.name].upper_bounds_batch(space)
            feasible = bounds >= required - 1e-9
            if np.any(feasible):
                idx_pool = np.nonzero(feasible)[0]
                # cheapest first; ties by highest bound, then enumeration order
                pick = idx_pool[
                    np.lexsort(
                        (order_keys[idx_pool], -bounds[idx_pool], costs[idx_pool])
                    )[0]
                ]
                demand_met = True
            else:
                # demand not coverable even with the whole budget: best effort
                pick = int(np.lexsort((order_keys, costs, -bounds))[0])
                demand_met = False
            allocations.append(
                ModelAllocation(
                    model_name=model.name,
                    target_qps=target,
                    config=space[int(pick)],
                    upper_bound=float(bounds[int(pick)]),
                    cost_per_hour=float(costs[int(pick)]),
                    demand_met=demand_met,
                )
            )

        total = sum(a.cost_per_hour for a in allocations)
        within_budget = total <= self.budget_per_hour + 1e-9
        if not within_budget:
            allocations = self._proportional_split(target_qps)
        elapsed = time.perf_counter() - start
        return MultiModelPlan(
            budget_per_hour=self.budget_per_hour,
            allocations=tuple(allocations),
            search_space_size=len(space),
            planning_seconds=elapsed,
            within_budget=within_budget,
        )

    def _proportional_split(
        self, target_qps: Mapping[str, float]
    ) -> List[ModelAllocation]:
        """Fallback: split the budget proportionally to demand, plan each model alone."""
        cheapest = min(t.price_per_hour for t in self.catalog.types)
        total_target = sum(float(target_qps[m.name]) for m in self.models)
        allocations: List[ModelAllocation] = []
        for model in self.models:
            target = float(target_qps[model.name])
            share = target / total_target if total_target > 0 else 1.0 / len(self.models)
            budget = max(self.budget_per_hour * share, cheapest)
            planner = KairosPlanner(
                model,
                budget,
                profiles=self.profiles,
                catalog=self.catalog,
                batch_samples=self.batch_samples_by_model[model.name],
                min_base_count=self.min_base_count,
                max_per_type=self.max_per_type,
            )
            plan = planner.plan()
            required = target * self.demand_headroom[model.name]
            allocations.append(
                ModelAllocation(
                    model_name=model.name,
                    target_qps=target,
                    config=plan.selected_config,
                    upper_bound=plan.selected_upper_bound,
                    cost_per_hour=plan.selected_config.cost_per_hour(),
                    demand_met=plan.selected_upper_bound >= required - 1e-9,
                )
            )
        return allocations

    # -- mixed-market joint planning -----------------------------------------------------
    def plan_joint_mixed(
        self,
        target_qps: Mapping[str, float],
        market: Optional[SpotMarket],
        *,
        planning_horizon_ms: float = MS_PER_HOUR,
        ondemand_floor: float = 0.5,
        max_spot_per_type: Optional[int] = None,
    ) -> "MultiModelMixedPlan":
        """Joint risk-aware allocation over on-demand *and* spot capacity.

        The mixed-market generalization of :meth:`plan_joint`: every model picks the
        cheapest on-demand + spot pair whose risk-discounted effective bound covers
        its demand target (see :meth:`SpotAwareKairosPlanner.plan_mixed` for the
        selection semantics — same availability discount, same on-demand floor),
        and the shared budget check applies to the *sum* of effective $/hr burn
        rates.  Over-budget joint selections fall back to a deterministic
        proportional budget split, flagged ``within_budget=False``.
        """
        start = time.perf_counter()
        missing = [m.name for m in self.models if m.name not in target_qps]
        if missing:
            raise KeyError(f"no demand target for models: {missing}")
        if not 0.0 <= ondemand_floor <= 1.0:
            raise ValueError("ondemand_floor must lie in [0, 1]")
        space, costs, spot_space, spot_costs, availability = _mixed_candidates(
            self.budget_per_hour,
            self.catalog,
            market,
            planning_horizon_ms,
            max_per_type=self.max_per_type,
            max_spot_per_type=max_spot_per_type,
            min_base_count=self.min_base_count,
        )
        allocations: List[MixedModelAllocation] = []
        for model in self.models:
            target = float(target_qps[model.name])
            check_non_negative(target, f"demand target for {model.name}")
            required = target * self.demand_headroom[model.name]
            estimator = self.estimators[model.name]
            allocations.append(
                _mixed_allocation(
                    model.name,
                    target,
                    required,
                    required * ondemand_floor,
                    self.budget_per_hour,
                    estimator.upper_bounds_batch(space),
                    costs,
                    space,
                    estimator.upper_bounds_batch(spot_space),
                    spot_costs,
                    spot_space,
                    availability,
                )
            )
        total = math.fsum(a.cost_per_hour for a in allocations)
        within_budget = total <= self.budget_per_hour + 1e-9
        space_size = len(space) + len(spot_space)
        if not within_budget:
            allocations, space_size = self._proportional_split_mixed(
                target_qps,
                market,
                planning_horizon_ms,
                ondemand_floor,
                max_spot_per_type,
            )
        elapsed = time.perf_counter() - start
        return MultiModelMixedPlan(
            budget_per_hour=self.budget_per_hour,
            allocations=tuple(allocations),
            search_space_size=space_size,
            planning_seconds=elapsed,
            within_budget=within_budget,
        )

    def _proportional_split_mixed(
        self,
        target_qps: Mapping[str, float],
        market: Optional[SpotMarket],
        planning_horizon_ms: float,
        ondemand_floor: float,
        max_spot_per_type: Optional[int],
    ) -> Tuple[List["MixedModelAllocation"], int]:
        """Fallback: split the budget proportionally to demand, mixed-plan each alone.

        Returns the allocations plus the total size of the per-share candidate
        spaces actually searched (the full-budget spaces were abandoned).
        """
        cheapest = min(t.price_per_hour for t in self.catalog.types)
        total_target = sum(float(target_qps[m.name]) for m in self.models)
        allocations: List[MixedModelAllocation] = []
        space_size = 0
        for model in self.models:
            target = float(target_qps[model.name])
            share = target / total_target if total_target > 0 else 1.0 / len(self.models)
            budget = max(self.budget_per_hour * share, cheapest)
            required = target * self.demand_headroom[model.name]
            space, costs, spot_space, spot_costs, availability = _mixed_candidates(
                budget,
                self.catalog,
                market,
                planning_horizon_ms,
                max_per_type=self.max_per_type,
                max_spot_per_type=max_spot_per_type,
                min_base_count=self.min_base_count,
            )
            estimator = self.estimators[model.name]
            space_size += len(space) + len(spot_space)
            allocations.append(
                _mixed_allocation(
                    model.name,
                    target,
                    required,
                    required * ondemand_floor,
                    budget,
                    estimator.upper_bounds_batch(space),
                    costs,
                    space,
                    estimator.upper_bounds_batch(spot_space),
                    spot_costs,
                    spot_space,
                    availability,
                )
            )
        return allocations, space_size


# ---------------------------------------------------------------------------------------
# Risk-aware mixed-market planning: on-demand + discounted preemptible capacity
# ---------------------------------------------------------------------------------------

def enumerate_spot_configs(
    budget_per_hour: float,
    catalog: InstanceCatalog,
    market: SpotMarket,
    *,
    max_per_type: Optional[int] = None,
) -> List[HeterogeneousConfig]:
    """All spot allocations whose *discounted* cost fits ``budget_per_hour``.

    Counts range only over the types the market offers (zeros elsewhere, over the
    same catalog object so the vectorized bound path applies); the empty allocation
    is included — "buy no spot" is always a candidate.
    """
    return list(
        config_space(
            budget_per_hour,
            catalog,
            min_total_instances=0,
            max_per_type=max_per_type,
            prices=_spot_prices(catalog, market),
        )
    )


def _spot_prices(
    catalog: InstanceCatalog, market: Optional[SpotMarket]
) -> List[Optional[float]]:
    """Per-type discounted $/hr, ``None`` where the market (if any) offers no spot.

    The spot space is memoized on these prices rather than on the market object.
    """
    return [
        catalog[name].price_per_hour * market.price_multiplier(name)
        if market is not None and market.offers(name)
        else None
        for name in catalog.names
    ]


@dataclass(frozen=True)
class MixedModelAllocation:
    """One mixed on-demand + spot selection (one model's share of a joint plan).

    ``effective_bound`` is the planner's risk-discounted capacity estimate: the
    on-demand portion's full Eq. 15 bound plus the spot portion's bound scaled by
    its expected availability over the planning horizon.  ``cost_per_hour`` is the
    expected burn rate — on-demand at list price, spot at the discounted rate.
    """

    model_name: str
    target_qps: float
    ondemand_config: HeterogeneousConfig
    spot_config: HeterogeneousConfig
    ondemand_bound: float
    spot_bound: float
    availability: float
    effective_bound: float
    ondemand_cost_per_hour: float
    spot_cost_per_hour: float
    demand_met: bool
    floor_met: bool

    @property
    def cost_per_hour(self) -> float:
        """Total expected $/hr of the mixed allocation."""
        return self.ondemand_cost_per_hour + self.spot_cost_per_hour

    @property
    def has_spot(self) -> bool:
        return not self.spot_config.is_empty()

    @property
    def combined_config(self) -> HeterogeneousConfig:
        """On-demand + spot counts summed (what the cluster physically instantiates)."""
        combined = {
            name: od + spot
            for (name, od), (_, spot) in zip(self.ondemand_config, self.spot_config)
        }
        return HeterogeneousConfig.from_mapping(combined, self.ondemand_config.catalog)


@dataclass(frozen=True)
class MixedMarketPlan:
    """Result of one single-model risk-aware mixed-market planning pass.

    A thin wrapper over the selected :class:`MixedModelAllocation` (every selection
    field reads through to it) plus the pass-level diagnostics.
    """

    budget_per_hour: float
    allocation: MixedModelAllocation
    search_space_size: int
    planning_seconds: float

    # -- allocation delegation (the selection surface) -----------------------------------
    @property
    def model_name(self) -> str:
        return self.allocation.model_name

    @property
    def target_qps(self) -> float:
        return self.allocation.target_qps

    @property
    def ondemand_config(self) -> HeterogeneousConfig:
        return self.allocation.ondemand_config

    @property
    def spot_config(self) -> HeterogeneousConfig:
        return self.allocation.spot_config

    @property
    def ondemand_bound(self) -> float:
        return self.allocation.ondemand_bound

    @property
    def spot_bound(self) -> float:
        return self.allocation.spot_bound

    @property
    def availability(self) -> float:
        return self.allocation.availability

    @property
    def effective_bound(self) -> float:
        return self.allocation.effective_bound

    @property
    def ondemand_cost_per_hour(self) -> float:
        return self.allocation.ondemand_cost_per_hour

    @property
    def spot_cost_per_hour(self) -> float:
        return self.allocation.spot_cost_per_hour

    @property
    def demand_met(self) -> bool:
        return self.allocation.demand_met

    @property
    def floor_met(self) -> bool:
        return self.allocation.floor_met

    @property
    def cost_per_hour(self) -> float:
        return self.allocation.cost_per_hour

    @property
    def has_spot(self) -> bool:
        return self.allocation.has_spot

    @property
    def combined_config(self) -> HeterogeneousConfig:
        return self.allocation.combined_config


@dataclass(frozen=True)
class MultiModelMixedPlan:
    """Result of one joint mixed-market planning pass over N co-located models."""

    budget_per_hour: float
    allocations: Tuple[MixedModelAllocation, ...]
    search_space_size: int
    planning_seconds: float
    within_budget: bool

    @property
    def total_cost_per_hour(self) -> float:
        return math.fsum(a.cost_per_hour for a in self.allocations)

    @property
    def meets_all_targets(self) -> bool:
        return all(a.demand_met for a in self.allocations)

    def allocation_of(self, model_name: str) -> MixedModelAllocation:
        for allocation in self.allocations:
            if allocation.model_name == model_name:
                return allocation
        raise KeyError(f"no allocation for model {model_name!r} in the joint plan")


class _MixedSelection(NamedTuple):
    od_index: int
    spot_index: int
    effective_bound: float
    demand_met: bool
    floor_met: bool


def _spot_availability(
    spot_space: ConfigSpace,
    market: Optional[SpotMarket],
    horizon_ms: float,
) -> np.ndarray:
    """Per-config availability discount: the worst (minimum) over the types present.

    Conservative by construction — a mixed-type spot pool is only credited with the
    availability of its flakiest member.  The empty allocation scores 1.0.
    """
    if market is None:
        return np.ones(len(spot_space), dtype=float)
    per_type = np.asarray(
        [
            market.expected_availability(name, horizon_ms) if market.offers(name) else 1.0
            for name in spot_space.catalog.names
        ],
        dtype=float,
    )
    masked = np.where(spot_space.counts > 0, per_type[None, :], np.inf)
    values = masked.min(axis=1)
    return np.where(np.isfinite(values), values, 1.0)


def _mixed_candidates(
    budget_per_hour: float,
    catalog: InstanceCatalog,
    market: Optional[SpotMarket],
    planning_horizon_ms: float,
    *,
    max_per_type: Optional[int],
    max_spot_per_type: Optional[int],
    min_base_count: int,
) -> Tuple[ConfigSpace, np.ndarray, ConfigSpace, np.ndarray, np.ndarray]:
    """The two memoized candidate spaces of a mixed plan plus their cost/availability
    vectors."""
    space = config_space(
        budget_per_hour,
        catalog,
        min_base_count=min_base_count,
        max_per_type=max_per_type,
    )
    if not space:
        raise ValueError(f"no configuration fits the budget of {budget_per_hour}$/hr")
    costs = np.asarray([c.cost_per_hour() for c in space], dtype=float)
    # Without a (non-empty) market every price is None: the spot space is just the
    # empty allocation, at zero cost.
    spot_prices = _spot_prices(catalog, market)
    spot_space = config_space(
        budget_per_hour,
        catalog,
        min_total_instances=0,
        max_per_type=max_spot_per_type,
        prices=spot_prices,
    )
    spot_costs = spot_space.counts @ np.asarray(
        [0.0 if p is None else p for p in spot_prices], dtype=float
    )
    availability = _spot_availability(spot_space, market, planning_horizon_ms)
    return space, costs, spot_space, spot_costs, availability


def _select_mixed(
    bounds: np.ndarray,
    costs: np.ndarray,
    disc_spot_bounds: np.ndarray,
    spot_costs: np.ndarray,
    required: float,
    floor_required: float,
    budget_per_hour: float,
) -> _MixedSelection:
    """Pick the cheapest (on-demand, spot) pair covering ``required``.

    Fully vectorized: spot candidates are sorted by discounted cost with a running
    bound maximum, so "cheapest spot allocation reaching bound x" is one
    ``searchsorted``; each on-demand candidate then pairs with exactly that
    allocation for its shortfall.  Ties break toward the highest effective bound,
    then enumeration order.  When nothing covers the demand (or the floor), the
    selection degrades to best effort and flags ``demand_met=False``.
    """
    n_od = len(bounds)
    n_spot = len(spot_costs)
    od_keys = np.arange(n_od)
    spot_keys = np.arange(n_spot)
    order = np.lexsort((spot_keys, -disc_spot_bounds, spot_costs))
    sorted_costs = spot_costs[order]
    sorted_disc = disc_spot_bounds[order]
    run_max = np.maximum.accumulate(sorted_disc)

    shortfall = np.maximum(0.0, required - bounds)
    positions = np.searchsorted(run_max, np.maximum(shortfall - 1e-9, 0.0), side="left")
    coverable = positions < n_spot
    safe_pos = np.minimum(positions, n_spot - 1)
    totals = np.where(coverable, costs + sorted_costs[safe_pos], np.inf)
    effective = np.where(coverable, bounds + sorted_disc[safe_pos], bounds)

    feasible = (
        (bounds >= floor_required - 1e-9)
        & coverable
        & (totals <= budget_per_hour + 1e-9)
    )
    if np.any(feasible):
        pool = np.nonzero(feasible)[0]
        pick = pool[
            np.lexsort((od_keys[pool], -effective[pool], totals[pool]))[0]
        ]
        return _MixedSelection(
            od_index=int(pick),
            spot_index=int(order[safe_pos[pick]]),
            effective_bound=float(effective[pick]),
            demand_met=True,
            floor_met=True,
        )

    # Best effort: the highest-bound on-demand config (ties: cheapest, then order),
    # topped up with the best affordable spot allocation.
    od_pick = int(np.lexsort((od_keys, costs, -bounds))[0])
    remaining = budget_per_hour - costs[od_pick]
    affordable = spot_costs <= remaining + 1e-9
    if np.any(affordable):
        pool = np.nonzero(affordable)[0]
        spot_pick = int(
            pool[np.lexsort((spot_keys[pool], spot_costs[pool], -disc_spot_bounds[pool]))[0]]
        )
    else:  # pragma: no cover - the empty allocation always fits
        spot_pick = int(np.argmin(spot_costs))
    eff = float(bounds[od_pick] + disc_spot_bounds[spot_pick])
    return _MixedSelection(
        od_index=od_pick,
        spot_index=spot_pick,
        effective_bound=eff,
        demand_met=eff >= required - 1e-9,
        floor_met=bool(bounds[od_pick] >= floor_required - 1e-9),
    )


def _mixed_allocation(
    model_name: str,
    target: float,
    required: float,
    floor_required: float,
    budget_per_hour: float,
    bounds: np.ndarray,
    costs: np.ndarray,
    space: Sequence[HeterogeneousConfig],
    spot_bounds: np.ndarray,
    spot_costs: np.ndarray,
    spot_space: Sequence[HeterogeneousConfig],
    availability: np.ndarray,
) -> MixedModelAllocation:
    """Run the mixed selection and package one model's allocation."""
    selection = _select_mixed(
        bounds,
        costs,
        availability * spot_bounds,
        spot_costs,
        required,
        floor_required,
        budget_per_hour,
    )
    return MixedModelAllocation(
        model_name=model_name,
        target_qps=target,
        ondemand_config=space[selection.od_index],
        spot_config=spot_space[selection.spot_index],
        ondemand_bound=float(bounds[selection.od_index]),
        spot_bound=float(spot_bounds[selection.spot_index]),
        availability=float(availability[selection.spot_index]),
        effective_bound=selection.effective_bound,
        ondemand_cost_per_hour=float(costs[selection.od_index]),
        spot_cost_per_hour=float(spot_costs[selection.spot_index]),
        demand_met=selection.demand_met,
        floor_met=selection.floor_met,
    )


class SpotAwareKairosPlanner(KairosPlanner):
    """Rank mixed on-demand + spot allocations against a demand target.

    Where :class:`KairosPlanner` maximizes one market's throughput bound under the
    budget, the risk-aware planner answers the spot-market question: *what is the
    cheapest combination of reliable and preemptible capacity whose risk-discounted
    Eq. 15 bound still covers the demand?*  Spot capacity is cheap but revocable, so
    its bound is discounted by the market's expected availability over the planning
    horizon, and a **minimum on-demand floor** (``ondemand_floor`` of the required
    demand must be coverable by the on-demand portion alone) guarantees QoS survives
    a worst-case correlated preemption burst that reclaims every spot instance at
    once.  Both candidate spaces are ranked through the vectorized
    ``upper_bounds_batch`` path.

    With ``market=None`` (or an empty market) the planner degenerates to the
    cheapest all-on-demand allocation covering the demand — the baseline arm of the
    fig18 scenario.
    """

    def __init__(
        self,
        model: Union[str, MLModel],
        budget_per_hour: float,
        *,
        market: Optional[SpotMarket] = None,
        planning_horizon_ms: float = MS_PER_HOUR,
        ondemand_floor: float = 0.5,
        demand_headroom: float = 1.0,
        max_spot_per_type: Optional[int] = None,
        **kwargs,
    ):
        super().__init__(model, budget_per_hour, **kwargs)
        check_positive(planning_horizon_ms, "planning_horizon_ms")
        if not 0.0 <= ondemand_floor <= 1.0:
            raise ValueError("ondemand_floor must lie in [0, 1]")
        if demand_headroom < 1.0:
            raise ValueError("demand_headroom must be >= 1 (provision at least the demand)")
        self.market = market
        self.planning_horizon_ms = float(planning_horizon_ms)
        self.ondemand_floor = float(ondemand_floor)
        self.demand_headroom = float(demand_headroom)
        self.max_spot_per_type = max_spot_per_type

    def plan_mixed(self, target_qps: float) -> MixedMarketPlan:
        """Select the cheapest mixed allocation covering ``target_qps``."""
        start = time.perf_counter()
        target = float(target_qps)
        check_non_negative(target, "target_qps")
        required = target * self.demand_headroom
        space, costs, spot_space, spot_costs, availability = _mixed_candidates(
            self.budget_per_hour,
            self.catalog,
            self.market,
            self.planning_horizon_ms,
            max_per_type=self.max_per_type,
            max_spot_per_type=self.max_spot_per_type,
            min_base_count=self.min_base_count,
        )
        allocation = _mixed_allocation(
            self.model.name,
            target,
            required,
            required * self.ondemand_floor,
            self.budget_per_hour,
            self.estimator.upper_bounds_batch(space),
            costs,
            space,
            self.estimator.upper_bounds_batch(spot_space),
            spot_costs,
            spot_space,
            availability,
        )
        elapsed = time.perf_counter() - start
        return MixedMarketPlan(
            budget_per_hour=self.budget_per_hour,
            allocation=allocation,
            search_space_size=len(space) + len(spot_space),
            planning_seconds=elapsed,
        )
