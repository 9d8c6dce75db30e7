"""The end-to-end Kairos serving system (paper Fig. 4 / Sec. 6).

:class:`KairosServingSystem` ties the two design components together the way the
implementation section describes: the *resource allocator* (the one-shot planner, plus
optionally the Kairos+ online refinement) chooses the heterogeneous configuration under
the budget, and the *central controller* (the query-distribution policy) maps arriving
queries to the allocated instances.  The facade exposes exactly the operations the
examples and experiments need: ``plan``, ``build_policy``, ``simulate``, and
``measure_throughput``.

:class:`ElasticKairosController` extends the one-shot reaction of Fig. 12 to *online*
load changes: it keeps a sliding estimate of the offered arrival rate, and when the
rate departs durably from the rate the current plan was provisioned for, it re-runs
:class:`~repro.core.kairos.KairosPlanner` in one shot — against a budget scaled to the
new load and against the batch sizes the query monitor actually observed — and emits
the scale-up/scale-down deltas that migrate the cluster to the new plan.  The elastic
simulator (:mod:`repro.sim.elasticity`) turns those deltas into provisioning events.

The schedulers package is imported lazily inside the methods so that ``repro.core``
does not depend on ``repro.schedulers`` at import time (the scheduler baselines import
core components).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.cloud.config import HeterogeneousConfig
from repro.cloud.instances import InstanceCatalog
from repro.cloud.models import MLModel
from repro.cloud.profiles import ProfileRegistry, default_profile_registry
from repro.core.kairos import (
    KairosPlan,
    KairosPlanner,
    MultiModelKairosPlanner,
    MultiModelPlan,
)
from repro.core.kairos_plus import KairosPlusResult, KairosPlusSearch
from repro.sim.capacity import AllowableThroughputResult, measure_allowable_throughput
from repro.sim.elasticity import ElasticSimulationReport
from repro.sim.simulation import simulate_serving
from repro.utils.rng import RngLike, ensure_rng
from repro.workload.batch_sizes import BatchSizeDistribution, production_batch_distribution
from repro.workload.generator import WorkloadSpec
from repro.workload.query import Query


class KairosServingSystem:
    """High-level facade: plan a configuration and serve queries with Kairos.

    Parameters
    ----------
    model:
        The inference-service model (name or :class:`~repro.cloud.models.MLModel`).
    budget_per_hour:
        Cost budget in $/hr (the paper's default evaluation budget is 2.5).
    profiles / catalog:
        Cloud substrate; defaults to the calibrated synthetic registry and the
        Table 4 catalog.
    batch_distribution:
        Query-size mix the planner monitors; defaults to the production-like
        distribution.
    use_online_latency_learning:
        When True (default) the serving policy learns latencies online, matching the
        paper's "all results include this overhead"; when False it reads the true
        profiles.
    """

    def __init__(
        self,
        model: Union[str, MLModel],
        budget_per_hour: float = 2.5,
        *,
        profiles: Optional[ProfileRegistry] = None,
        catalog: Optional[InstanceCatalog] = None,
        batch_distribution: Optional[BatchSizeDistribution] = None,
        num_monitor_samples: int = 10_000,
        use_online_latency_learning: bool = True,
        solver_method: str = "jv",
        rng: RngLike = None,
    ):
        self.profiles = profiles if profiles is not None else default_profile_registry()
        self.catalog = catalog if catalog is not None else self.profiles.catalog
        self.model = model if isinstance(model, MLModel) else self.profiles.models[model]
        self.budget_per_hour = float(budget_per_hour)
        self.batch_distribution = (
            batch_distribution
            if batch_distribution is not None
            else production_batch_distribution(self.model.max_batch_size)
        )
        self.use_online_latency_learning = bool(use_online_latency_learning)
        self.solver_method = solver_method
        self._rng = ensure_rng(rng)
        self._plan: Optional[KairosPlan] = None

    # -- planning --------------------------------------------------------------------------
    def plan(self, *, force: bool = False) -> KairosPlan:
        """Run (or return the cached) one-shot configuration plan."""
        if self._plan is None or force:
            planner = KairosPlanner(
                self.model,
                self.budget_per_hour,
                profiles=self.profiles,
                catalog=self.catalog,
                batch_distribution=self.batch_distribution,
                rng=self._rng,
            )
            self._plan = planner.plan()
        return self._plan

    @property
    def selected_config(self) -> HeterogeneousConfig:
        """The configuration Kairos selects without online evaluation."""
        return self.plan().selected_config

    def refine_with_kairos_plus(
        self,
        evaluator: Optional[Callable[[HeterogeneousConfig], float]] = None,
        *,
        max_evaluations: Optional[int] = None,
        workload_spec: Optional[WorkloadSpec] = None,
    ) -> KairosPlusResult:
        """Run the Kairos+ online search seeded by the plan's upper-bound ranking.

        ``evaluator`` defaults to a capacity measurement of each candidate configuration
        under the Kairos policy (one "online evaluation" per call).
        """
        plan = self.plan()
        if evaluator is None:
            spec = workload_spec if workload_spec is not None else WorkloadSpec(
                batch_sizes=self.batch_distribution, num_queries=600
            )

            def evaluator(config: HeterogeneousConfig) -> float:
                return self.measure_throughput(config=config, workload_spec=spec).qps

        search = KairosPlusSearch(plan.ranked, evaluator, max_evaluations=max_evaluations)
        return search.run()

    # -- serving ---------------------------------------------------------------------------
    def build_policy(self):
        """A fresh Kairos query-distribution policy (one per serving run)."""
        from repro.schedulers.kairos_policy import KairosPolicy

        return KairosPolicy(
            use_perfect_estimator=not self.use_online_latency_learning,
            solver_method=self.solver_method,
        )

    def simulate(
        self,
        queries: Sequence[Query],
        *,
        config: Optional[HeterogeneousConfig] = None,
        dispatch_overhead_ms: float = 0.0,
        rng: RngLike = None,
    ) -> ElasticSimulationReport:
        """Serve a concrete query stream on the planned (or a given) configuration."""
        chosen = config if config is not None else self.selected_config
        return simulate_serving(
            chosen,
            self.model,
            self.profiles,
            self.build_policy(),
            queries,
            dispatch_overhead_ms=dispatch_overhead_ms,
            rng=rng if rng is not None else self._rng,
        )

    def measure_throughput(
        self,
        *,
        config: Optional[HeterogeneousConfig] = None,
        workload_spec: Optional[WorkloadSpec] = None,
        num_queries: Optional[int] = None,
        rng: RngLike = None,
        **capacity_kwargs,
    ) -> AllowableThroughputResult:
        """Measure the allowable throughput of the planned (or a given) configuration."""
        chosen = config if config is not None else self.selected_config
        spec = workload_spec if workload_spec is not None else WorkloadSpec(
            batch_sizes=self.batch_distribution
        )
        return measure_allowable_throughput(
            chosen,
            self.model,
            self.profiles,
            self.build_policy,
            workload_spec=spec,
            num_queries=num_queries,
            rng=rng if rng is not None else self._rng,
            **capacity_kwargs,
        )


# ---------------------------------------------------------------------------------------
# Online elasticity: load tracking and the re-planning controller
# ---------------------------------------------------------------------------------------

class ArrivalRateEstimator:
    """Sliding-window estimate of the offered arrival rate.

    Keeps the arrival timestamps of the last ``window_ms`` of trace time and reports
    ``count / window`` as the rate.  The estimate is intentionally simple — the paper's
    contribution is reacting in one shot once a change is detected, not the detector —
    but the window makes the detection *sustained*: a single burst cannot move the
    estimate for longer than the window.

    The estimator is anchored on the first *observed* arrival, not on simulated time
    zero: replayed traces (committed real-trace slices in particular) routinely start
    at an arbitrary time origin ``t0 >> window_ms``, and normalizing by absolute time
    would read the empty pre-trace span as a full window of silence — a spurious
    load-drop signal at trace start.
    """

    def __init__(self, window_ms: float = 5_000.0):
        if window_ms <= 0:
            raise ValueError("window_ms must be positive")
        self.window_ms = float(window_ms)
        self._arrivals: Deque[float] = deque()
        self._first_observed_ms: Optional[float] = None

    @property
    def first_observed_ms(self) -> Optional[float]:
        """Timestamp of the first arrival ever observed (``None`` before any)."""
        return self._first_observed_ms

    def window_elapsed(self, now_ms: float) -> bool:
        """True once a full window of trace time has passed *since the first arrival*.

        Before anything was observed this is False: an untouched estimator can never
        claim its window is trustworthy, whatever the absolute clock reads.
        """
        return (
            self._first_observed_ms is not None
            and now_ms - self._first_observed_ms >= self.window_ms
        )

    def observe(self, t_ms: float) -> None:
        if self._arrivals and t_ms < self._arrivals[-1] - 1e-9:
            raise ValueError("arrival timestamps must be non-decreasing")
        if self._first_observed_ms is None:
            self._first_observed_ms = float(t_ms)
        self._arrivals.append(float(t_ms))
        self._evict(t_ms)

    def _evict(self, now_ms: float) -> None:
        cutoff = now_ms - self.window_ms
        while self._arrivals and self._arrivals[0] < cutoff:
            self._arrivals.popleft()

    def observations(self, now_ms: float) -> int:
        self._evict(now_ms)
        return len(self._arrivals)

    def rate_qps(self, now_ms: float) -> float:
        """Arrivals per second over the trailing window (0 when the window is empty)."""
        self._evict(now_ms)
        if not self._arrivals:
            return 0.0
        # Normalizing by the full window (not the observed span) keeps the estimate
        # unbiased for a stationary process and makes an emptying window read as a
        # falling rate rather than a noisy one.  The span is anchored on the first
        # *observed* arrival: before one full window has elapsed since then, only the
        # trace time that actually carried observations divides the count.  Anchoring
        # on absolute time instead would bias every offset-origin trace (first arrival
        # at t0 >> window_ms) toward a near-zero rate at trace start.
        elapsed_ms = max(now_ms, self._arrivals[-1]) - self._first_observed_ms
        span_ms = min(self.window_ms, elapsed_ms)
        if span_ms <= 0:
            return 0.0
        return 1000.0 * len(self._arrivals) / span_ms


class BatchWindow:
    """The query monitor's window: the last ``capacity`` batch sizes, in a numpy ring.

    An arrival writes one slot.  :meth:`samples` lists the window oldest first —
    the order a ``deque(maxlen=capacity)`` fed the same arrivals would hold, which
    the planner's rate means depend on bit for bit — as a fresh array the planner
    may keep while the ring moves on.  ``version`` counts the arrivals; arrival
    ``v`` sits in slot ``v % capacity``.
    """

    __slots__ = ("_ring", "_capacity", "_slots", "version")

    def __init__(self, capacity: int):
        self._capacity = int(capacity)
        self._slots = max(self._capacity, 1)  # a zero-capacity window writes a dummy
        self._ring = np.empty(self._slots, dtype=int)
        self.version = 0

    def __len__(self) -> int:
        return min(self.version, self._capacity)

    def append(self, batch_size: int) -> None:
        self._ring[self.version % self._slots] = batch_size
        self.version += 1

    def extend(self, batch_sizes: Sequence[int]) -> None:
        """Append every batch size in order (only the last ``capacity`` stay)."""
        values = np.asarray(batch_sizes, dtype=int).reshape(-1)
        tail = values[-self._capacity :] if self._capacity else values[:0]
        start = (self.version + values.size - tail.size) % self._slots
        split = min(tail.size, self._slots - start)
        self._ring[start : start + split] = tail[:split]
        self._ring[: tail.size - split] = tail[split:]
        self.version += values.size

    def samples(self) -> np.ndarray:
        """The window, oldest first, as a new array."""
        ring = self._ring
        size = len(self)
        if size < self._capacity or not size:
            return ring[:size].copy()
        oldest = self.version % self._capacity
        return np.concatenate((ring[oldest:], ring[:oldest]))


@dataclass(frozen=True)
class ReplanDecision:
    """One re-planning action of the elastic controller.

    ``scale_deltas`` maps instance-type name to the signed instance-count change needed
    to migrate from ``old_config`` to ``new_config`` (positive = provision, negative =
    drain); the elastic simulator turns it into ``SCALE_UP`` / ``SCALE_DOWN`` events.
    """

    time_ms: float
    observed_rate_qps: float
    provisioned_rate_qps: float
    budget_per_hour: float
    old_config: HeterogeneousConfig
    new_config: HeterogeneousConfig
    plan: KairosPlan
    scale_deltas: Dict[str, int]

    @property
    def is_scale_up(self) -> bool:
        return sum(self.scale_deltas.values()) > 0


class ElasticKairosController:
    """Detect sustained load change and re-plan the configuration in one shot.

    Parameters
    ----------
    model / profiles / catalog:
        The cloud substrate (as for :class:`KairosServingSystem`).
    base_budget_per_hour:
        The budget the initial plan is provisioned under.
    base_rate_qps:
        The offered load that budget is provisioned for.  Re-planning scales the
        budget proportionally to the observed/provisioned rate ratio (provisioning-
        aware scaling): twice the load buys twice the cluster, half the load drains
        half the spend.
    window_ms / change_threshold / min_observations / cooldown_ms:
        Detection knobs: the sliding-window length, the sustained rate ratio that
        triggers a re-plan (1.5 = ±50%), the minimum arrivals the window must hold
        before it is trusted *while the first window is still filling* (after a full
        window of trace time a sparse window is itself a valid load-drop signal),
        and the minimum time between re-plans.
    max_budget_per_hour:
        Hard ceiling on the scaled budget (``None`` = 4x the base budget).
    batch_distribution:
        Fallback query-size mix for planning before the monitor has seen enough
        arrivals; once ``monitor_window`` batch sizes have been observed the re-plan
        uses the observed window instead (the paper's query monitor).
    """

    def __init__(
        self,
        model: Union[str, MLModel],
        base_budget_per_hour: float,
        base_rate_qps: float,
        *,
        profiles: Optional[ProfileRegistry] = None,
        catalog: Optional[InstanceCatalog] = None,
        batch_distribution: Optional[BatchSizeDistribution] = None,
        window_ms: float = 5_000.0,
        change_threshold: float = 1.5,
        min_observations: int = 30,
        cooldown_ms: float = 10_000.0,
        max_budget_per_hour: Optional[float] = None,
        monitor_window: int = 2_000,
        num_monitor_samples: int = 4_000,
        rng: RngLike = None,
    ):
        if base_budget_per_hour <= 0:
            raise ValueError("base_budget_per_hour must be positive")
        if base_rate_qps <= 0:
            raise ValueError("base_rate_qps must be positive")
        if change_threshold <= 1.0:
            raise ValueError("change_threshold must be > 1")
        if min_observations < 1:
            raise ValueError("min_observations must be >= 1")
        if cooldown_ms < 0:
            raise ValueError("cooldown_ms must be non-negative")
        self.profiles = profiles if profiles is not None else default_profile_registry()
        self.catalog = catalog if catalog is not None else self.profiles.catalog
        self.model = model if isinstance(model, MLModel) else self.profiles.models[model]
        self.base_budget_per_hour = float(base_budget_per_hour)
        self.base_rate_qps = float(base_rate_qps)
        self.batch_distribution = (
            batch_distribution
            if batch_distribution is not None
            else production_batch_distribution(self.model.max_batch_size)
        )
        self.change_threshold = float(change_threshold)
        self.min_observations = int(min_observations)
        self.cooldown_ms = float(cooldown_ms)
        self.max_budget_per_hour = (
            float(max_budget_per_hour)
            if max_budget_per_hour is not None
            else 4.0 * self.base_budget_per_hour
        )
        self.num_monitor_samples = int(num_monitor_samples)
        self._rng = ensure_rng(rng)
        self.rate_estimator = ArrivalRateEstimator(window_ms)
        self._batch_window = BatchWindow(monitor_window)
        self._provisioned_rate_qps = self.base_rate_qps
        self._last_replan_ms = 0.0
        self._current_config: Optional[HeterogeneousConfig] = None
        self._planners: Dict[float, KairosPlanner] = {}
        self.decisions: List[ReplanDecision] = []
        #: (time_ms, type_name, count) of every preemption this controller absorbed.
        self.preemptions: List[Tuple[float, str, int]] = []
        #: (time_ms, type_name, count) of every unannounced crash this controller absorbed.
        self.failures: List[Tuple[float, str, int]] = []
        #: (time_ms, type_name, count) of every gray-failure quarantine absorbed.
        self.quarantines: List[Tuple[float, str, int]] = []
        #: (time_ms, type_name, count) of every probation re-admission absorbed.
        self.readmits: List[Tuple[float, str, int]] = []
        self._pending_reprovision = False

    # -- planning ----------------------------------------------------------------------
    def _plan_at_budget(self, budget_per_hour: float) -> KairosPlan:
        """Plan against the monitored window with this budget's planner.

        Each budget keeps one planner, fed every new window in place, so a re-plan
        keeps its estimator's cutoffs, latency tables and cutoff grouping.  An
        empty monitor instead draws a fresh window from the fallback mix through a
        fresh planner, exactly as many draws from the controller's generator as
        before.
        """
        window = self._batch_window
        if not window:
            return self._new_planner(budget_per_hour, None).plan()
        planner = self._planners.get(budget_per_hour)
        if planner is None:
            planner = self._planners[budget_per_hour] = self._new_planner(
                budget_per_hour, window.samples()
            )
        else:
            planner.update_batch_samples(window.samples())
        return planner.plan()

    def _new_planner(
        self, budget_per_hour: float, batch_samples: Optional[Sequence[int]]
    ) -> KairosPlanner:
        return KairosPlanner(
            self.model,
            budget_per_hour,
            profiles=self.profiles,
            catalog=self.catalog,
            batch_samples=batch_samples,
            batch_distribution=self.batch_distribution,
            num_monitor_samples=self.num_monitor_samples,
            rng=self._rng,
        )

    def initial_plan(self) -> KairosPlan:
        """Plan for the base budget; remembers the selection as the live configuration."""
        plan = self._plan_at_budget(self.base_budget_per_hour)
        self._current_config = plan.selected_config
        return plan

    @property
    def current_config(self) -> Optional[HeterogeneousConfig]:
        return self._current_config

    @property
    def provisioned_rate_qps(self) -> float:
        """The offered rate the live configuration was last provisioned for."""
        return self._provisioned_rate_qps

    # -- online observation ------------------------------------------------------------
    def prime_monitor(self, batch_sizes: Sequence[int]) -> None:
        """Pre-fill the query monitor (e.g. with the window a prior system observed).

        Priming makes the initial plan reproducible against a known monitoring window —
        experiments prime both the static baseline's planner and the elastic controller
        with the same samples so the two arms start from the same configuration.
        """
        self._batch_window.extend(batch_sizes)

    def observe_arrival(self, query: Query, now_ms: float) -> None:
        """Feed one arriving query into the rate estimator and the query monitor."""
        self.rate_estimator.observe(now_ms)
        self._batch_window.append(query.batch_size)

    def observe_preemption(
        self, type_name: str, now_ms: float, *, count: int = 1
    ) -> None:
        """Absorb a spot-market preemption: an *uncontrolled* scale-down.

        The market reclaimed capacity the live plan still wanted, so the controller
        (a) books the loss against its view of the current configuration and (b) arms
        a reactive re-provisioning pass: the next :meth:`maybe_replan` call re-plans
        immediately — bypassing the cooldown and the load-change threshold, because
        the trigger is a capacity loss, not a load change — and its migration deltas
        re-issue the missing instances.

        Losses beyond the planned view (a mixed cluster typically carries spot
        capacity on top of the controller's configuration) are recorded and still
        trigger the re-plan, but can never shrink the view below zero.
        """
        if self._current_config is None:
            raise RuntimeError("call initial_plan() before observe_preemption()")
        if count <= 0:
            raise ValueError("preemption count must be positive")
        self._absorb_capacity_loss(type_name, count)
        self.preemptions.append((float(now_ms), type_name, int(count)))
        self._pending_reprovision = True

    def observe_failure(self, type_name: str, now_ms: float, *, count: int = 1) -> None:
        """Absorb an unannounced instance crash: the chaos twin of :meth:`observe_preemption`.

        Identical semantics — the fault process destroyed capacity the live plan
        still wanted, so the loss is booked against the controller's view of the
        current configuration and the next :meth:`maybe_replan` re-plans immediately
        (cooldown and load-change gates bypassed; the trigger is capacity loss, not a
        load change).  Crashes are recorded separately in :attr:`failures` so reports
        can distinguish market reclaims from hardware deaths.
        """
        if self._current_config is None:
            raise RuntimeError("call initial_plan() before observe_failure()")
        if count <= 0:
            raise ValueError("failure count must be positive")
        self._absorb_capacity_loss(type_name, count)
        self.failures.append((float(now_ms), type_name, int(count)))
        self._pending_reprovision = True

    def observe_quarantine(self, type_name: str, now_ms: float, *, count: int = 1) -> None:
        """Absorb a gray-failure quarantine: capacity isolated by an open breaker.

        Same semantics as :meth:`observe_failure` — the health layer parked
        capacity the live plan still wanted, so the loss is booked against the
        controller's view and the next :meth:`maybe_replan` re-plans immediately
        (cooldown and load-change gates bypassed).  Unlike a crash the instance
        still exists and still bills; if probation later re-admits it,
        :meth:`observe_readmit` books the capacity back.
        """
        if self._current_config is None:
            raise RuntimeError("call initial_plan() before observe_quarantine()")
        if count <= 0:
            raise ValueError("quarantine count must be positive")
        self._absorb_capacity_loss(type_name, count)
        self.quarantines.append((float(now_ms), type_name, int(count)))
        self._pending_reprovision = True

    def observe_readmit(self, type_name: str, now_ms: float, *, count: int = 1) -> None:
        """Absorb a probation re-admission: quarantined capacity returned to service.

        The inverse of :meth:`observe_quarantine`: the capacity is booked back
        into the controller's view and a cooldown-bypassing re-plan is armed so
        the next pass can shed whatever replacement capacity the quarantine
        forced it to buy.
        """
        if self._current_config is None:
            raise RuntimeError("call initial_plan() before observe_readmit()")
        if count <= 0:
            raise ValueError("readmit count must be positive")
        self._current_config = self._current_config.add(type_name, int(count))
        self.readmits.append((float(now_ms), type_name, int(count)))
        self._pending_reprovision = True

    def _absorb_capacity_loss(self, type_name: str, count: int) -> None:
        """Book an uncontrolled capacity loss, never shrinking the view below zero."""
        booked = min(int(count), self._current_config.count_of(type_name))
        if booked > 0:
            self._current_config = self._current_config.add(type_name, -booked)

    def maybe_replan(self, now_ms: float) -> Optional[ReplanDecision]:
        """Re-plan when the observed rate departs durably from the provisioned rate.

        Returns the decision (also appended to :attr:`decisions`) or ``None`` when the
        load is within threshold, the window is not yet trustworthy, or the controller
        is still in its post-replan cooldown.  A pending preemption
        (:meth:`observe_preemption`) overrides all three gates: lost capacity is
        re-provisioned for the currently provisioned rate in one shot.
        """
        if self._current_config is None:
            raise RuntimeError("call initial_plan() before maybe_replan()")
        if self._pending_reprovision:
            self._pending_reprovision = False
            return self._replan(
                now_ms,
                self._provisioned_rate_qps,
                provisioned_after=self._provisioned_rate_qps,
            )
        # The min_observations gate protects against acting on a window that simply
        # has not existed long enough to be meaningful.  Once a full window of trace
        # time has elapsed *since the first observed arrival*, a sparse window is
        # itself the signal (a severe load drop produces few arrivals by definition),
        # so the gate no longer applies.  The window is measured from the first
        # arrival, not from absolute time zero: an offset-origin trace must not
        # bypass the gate (and fire a spurious load-drop re-plan) at trace start.
        window_elapsed = self.rate_estimator.window_elapsed(now_ms)
        if not window_elapsed and self.rate_estimator.observations(now_ms) < self.min_observations:
            return None
        if now_ms < self._last_replan_ms + self.cooldown_ms:
            return None
        observed = self.rate_estimator.rate_qps(now_ms)
        if observed <= 0:
            return None
        ratio = observed / self._provisioned_rate_qps
        if 1.0 / self.change_threshold < ratio < self.change_threshold:
            return None
        return self._replan(now_ms, observed, provisioned_after=observed)

    def _replan(
        self, now_ms: float, rate_qps: float, *, provisioned_after: float
    ) -> ReplanDecision:
        """One planning pass at the budget scaled for ``rate_qps``; records the decision.

        ``provisioned_after`` is what the live configuration is considered provisioned
        for afterwards — the observed rate for load-change re-plans, the unchanged
        provisioned rate for preemption re-provisioning (capacity changed, not load).
        """
        budget = self.base_budget_per_hour * rate_qps / self.base_rate_qps
        budget = min(max(budget, self._cheapest_price()), self.max_budget_per_hour)
        plan = self._plan_at_budget(budget)
        old_config = self._current_config
        new_config = plan.selected_config
        decision = ReplanDecision(
            time_ms=float(now_ms),
            observed_rate_qps=rate_qps,
            provisioned_rate_qps=self._provisioned_rate_qps,
            budget_per_hour=budget,
            old_config=old_config,
            new_config=new_config,
            plan=plan,
            scale_deltas=migration_deltas(old_config, new_config),
        )
        self._current_config = new_config
        self._provisioned_rate_qps = float(provisioned_after)
        self._last_replan_ms = float(now_ms)
        self.decisions.append(decision)
        return decision

    def _cheapest_price(self) -> float:
        return min(t.price_per_hour for t in self.catalog.types)


@dataclass(frozen=True)
class MultiModelReplanDecision:
    """One joint re-planning action over all co-located models.

    ``scale_deltas`` maps model name to that partition's per-type signed deltas; the
    multi-model simulator turns them into model-tagged ``SCALE_UP`` / ``SCALE_DOWN``
    events (shrinks ordered by drain cost-efficiency).
    """

    time_ms: float
    observed_rates_qps: Dict[str, float]
    provisioned_rates_qps: Dict[str, float]
    budget_per_hour: float
    old_configs: Dict[str, HeterogeneousConfig]
    new_configs: Dict[str, HeterogeneousConfig]
    plan: MultiModelPlan
    scale_deltas: Dict[str, Dict[str, int]]

    @property
    def is_scale_up(self) -> bool:
        return sum(sum(d.values()) for d in self.scale_deltas.values()) > 0


class MultiModelElasticController:
    """Joint re-planning for N co-located models under one shared budget.

    Each model keeps its own sliding :class:`ArrivalRateEstimator` and query-size
    monitor window (arrivals route by the query's model tag).  When *any* model's
    observed rate departs durably from the rate its partition was provisioned for, the
    controller re-runs :class:`~repro.core.kairos.MultiModelKairosPlanner.plan_joint`
    over all models at once — the shared budget scales with the *total* observed load,
    and demand targets are the per-model observed rates — and emits per-model
    migration deltas.  Detection knobs have the same semantics as
    :class:`ElasticKairosController`, applied per model (cooldown is global: one joint
    re-plan replaces N per-model ones).
    """

    def __init__(
        self,
        models: Sequence[Union[str, MLModel]],
        base_budget_per_hour: float,
        base_rates_qps: Mapping[str, float],
        *,
        profiles: Optional[ProfileRegistry] = None,
        catalog: Optional[InstanceCatalog] = None,
        batch_distribution_by_model: Optional[Mapping[str, BatchSizeDistribution]] = None,
        window_ms: float = 5_000.0,
        change_threshold: float = 1.5,
        min_observations: int = 30,
        cooldown_ms: float = 10_000.0,
        max_budget_per_hour: Optional[float] = None,
        monitor_window: int = 2_000,
        num_monitor_samples: int = 4_000,
        demand_headroom: Union[float, Mapping[str, float]] = 1.0,
        rng: RngLike = None,
    ):
        if base_budget_per_hour <= 0:
            raise ValueError("base_budget_per_hour must be positive")
        if change_threshold <= 1.0:
            raise ValueError("change_threshold must be > 1")
        if min_observations < 1:
            raise ValueError("min_observations must be >= 1")
        if cooldown_ms < 0:
            raise ValueError("cooldown_ms must be non-negative")
        self.profiles = profiles if profiles is not None else default_profile_registry()
        self.catalog = catalog if catalog is not None else self.profiles.catalog
        self.models: List[MLModel] = [
            m if isinstance(m, MLModel) else self.profiles.models[m] for m in models
        ]
        names = [m.name for m in self.models]
        missing = [n for n in names if n not in base_rates_qps]
        if missing:
            raise KeyError(f"no base rate for models: {missing}")
        for name in names:
            if base_rates_qps[name] <= 0:
                raise ValueError(f"base rate for {name!r} must be positive")
        self.base_budget_per_hour = float(base_budget_per_hour)
        self.base_rates_qps: Dict[str, float] = {
            name: float(base_rates_qps[name]) for name in names
        }
        self.change_threshold = float(change_threshold)
        self.min_observations = int(min_observations)
        self.cooldown_ms = float(cooldown_ms)
        self.max_budget_per_hour = (
            float(max_budget_per_hour)
            if max_budget_per_hour is not None
            else 4.0 * self.base_budget_per_hour
        )
        self.planner = MultiModelKairosPlanner(
            self.models,
            self.max_budget_per_hour,
            profiles=self.profiles,
            catalog=self.catalog,
            batch_distribution_by_model=(
                dict(batch_distribution_by_model)
                if batch_distribution_by_model is not None
                else None
            ),
            num_monitor_samples=int(num_monitor_samples),
            demand_headroom=demand_headroom,
            rng=rng,
        )
        self.demand_headroom = dict(self.planner.demand_headroom)
        self.rate_estimators: Dict[str, ArrivalRateEstimator] = {
            name: ArrivalRateEstimator(window_ms) for name in names
        }
        self._batch_windows: Dict[str, BatchWindow] = {
            name: BatchWindow(monitor_window) for name in names
        }
        self._provisioned_rates: Dict[str, float] = dict(self.base_rates_qps)
        self._last_replan_ms = 0.0
        self._current_configs: Optional[Dict[str, HeterogeneousConfig]] = None
        self.decisions: List[MultiModelReplanDecision] = []

    # -- planning ----------------------------------------------------------------------
    @property
    def model_names(self) -> List[str]:
        return [m.name for m in self.models]

    def _plan_at_budget(
        self, budget_per_hour: float, targets: Mapping[str, float]
    ) -> MultiModelPlan:
        for name, window in self._batch_windows.items():
            if window:
                self.planner.update_batch_samples(name, window.samples())
        self.planner.budget_per_hour = float(budget_per_hour)
        return self.planner.plan_joint(targets)

    def initial_plan(self) -> MultiModelPlan:
        """Joint plan for the base rates; remembers the selection as live configs."""
        plan = self._plan_at_budget(self.base_budget_per_hour, self.base_rates_qps)
        self._current_configs = plan.configs()
        return plan

    @property
    def current_configs(self) -> Optional[Dict[str, HeterogeneousConfig]]:
        return dict(self._current_configs) if self._current_configs is not None else None

    def provisioned_rate_qps(self, model_name: str) -> float:
        return self._provisioned_rates[model_name]

    # -- online observation ------------------------------------------------------------
    def prime_monitor(self, model_name: str, batch_sizes: Sequence[int]) -> None:
        """Pre-fill one model's query monitor (see ElasticKairosController)."""
        self._batch_windows[model_name].extend(batch_sizes)

    def observe_arrival(self, query: Query, now_ms: float) -> None:
        name = query.model_name
        if name is None:
            if len(self.models) != 1:
                raise ValueError(
                    f"untagged arrival in a {len(self.models)}-model controller"
                )
            name = self.models[0].name
        self.rate_estimators[name].observe(now_ms)
        self._batch_windows[name].append(query.batch_size)

    def maybe_replan(self, now_ms: float) -> Optional[MultiModelReplanDecision]:
        """Joint re-plan when any model's load departs durably from its provisioning."""
        if self._current_configs is None:
            raise RuntimeError("call initial_plan() before maybe_replan()")
        if now_ms < self._last_replan_ms + self.cooldown_ms:
            return None
        triggered = False
        observed: Dict[str, float] = {}
        for name in self.model_names:
            estimator = self.rate_estimators[name]
            window_elapsed = estimator.window_elapsed(now_ms)
            trustworthy = window_elapsed or (
                estimator.observations(now_ms) >= self.min_observations
            )
            rate = estimator.rate_qps(now_ms)
            # A model whose window is not yet trustworthy (or empty) must neither
            # trigger nor have its partition re-targeted to the noisy estimate: the
            # joint plan keeps provisioning it for its current rate, exactly like the
            # single-model controller's min_observations gate.
            if not trustworthy or rate <= 0:
                observed[name] = self._provisioned_rates[name]
                continue
            observed[name] = rate
            ratio = rate / self._provisioned_rates[name]
            if ratio >= self.change_threshold or ratio <= 1.0 / self.change_threshold:
                triggered = True
        if not triggered:
            return None

        total_base = sum(self.base_rates_qps.values())
        budget = self.base_budget_per_hour * sum(observed.values()) / total_base
        budget = min(max(budget, self._cheapest_price()), self.max_budget_per_hour)
        plan = self._plan_at_budget(budget, observed)
        old_configs = dict(self._current_configs)
        new_configs = plan.configs()
        deltas = {
            name: migration_deltas(old_configs[name], new_configs[name])
            for name in self.model_names
        }
        decision = MultiModelReplanDecision(
            time_ms=float(now_ms),
            observed_rates_qps=dict(observed),
            provisioned_rates_qps=dict(self._provisioned_rates),
            budget_per_hour=budget,
            old_configs=old_configs,
            new_configs=new_configs,
            plan=plan,
            scale_deltas={name: d for name, d in deltas.items() if d},
        )
        self._current_configs = new_configs
        self._provisioned_rates = dict(observed)
        self._last_replan_ms = float(now_ms)
        self.decisions.append(decision)
        return decision

    def _cheapest_price(self) -> float:
        return min(t.price_per_hour for t in self.catalog.types)


def migration_deltas(
    old_config: HeterogeneousConfig, new_config: HeterogeneousConfig
) -> Dict[str, int]:
    """Signed per-type instance deltas migrating ``old_config`` into ``new_config``.

    Only types whose count changes appear in the result (positive = scale up,
    negative = scale down), in catalog order for deterministic event emission.
    """
    old_counts = old_config.as_mapping()
    new_counts = new_config.as_mapping()
    deltas: Dict[str, int] = {}
    for name in old_config.catalog.names:
        diff = new_counts.get(name, 0) - old_counts.get(name, 0)
        if diff != 0:
            deltas[name] = diff
    return deltas
