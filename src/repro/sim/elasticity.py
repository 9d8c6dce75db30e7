"""The serving kernel: one event loop for static, elastic, spot and fault-injected runs.

:class:`ElasticServingSimulation` serves a query stream on a cluster whose membership
may change mid-run.  With no controller and no scripted events it is the *static*
run the paper measures (:func:`~repro.sim.simulation.simulate_serving` and the
capacity probes drive it that way); provisioning events, faults and re-plans are
the same loop with more event kinds.  Everything except fresh arrivals flows through
one :class:`~repro.sim.engine.EventQueue` under its ordering contract (time, then
kind — completions before arrivals — then insertion), so every run is deterministic
per seed.

Fresh arrivals stream from the time-sorted input through a cursor instead of the
heap.  Each one sorts as if it had been pushed before every other event: at equal
``(time, kind)`` it comes ahead of any pushed event, so a backoff re-queue at the
same instant joins the pending queue after it.  The run ends only once the cursor
is exhausted.

Lifecycle of a scale action:

``SCALE_UP``
    An :class:`~repro.core.controller.ElasticKairosController` decision (or an explicit
    scripted event) requests ``count`` instances of a type.  Billing starts immediately
    (clouds charge for boot time) and an ``INSTANCE_READY`` event fires after
    ``startup_delay_ms``; only then does the instance join the schedulable set.

``SCALE_DOWN``
    The least-loaded instances of the type stop accepting work (*draining*).  An idle
    instance is decommissioned on the spot; a busy one finishes its local queue and is
    removed at its final completion.  Billing stops at decommission time.

A run given a :class:`~repro.cloud.spot.SpotMarket` is a spot run: an instance bought
on the market bills at its discounted rate and is spot while it is in the cluster.

``PREEMPTION_WARNING``
    The provider's reclaim notice for one spot instance (drawn from the market's
    Poisson hazard when the instance becomes active, or scripted as a correlated
    :class:`~repro.sim.events.PreemptionBurst`).  The warned instance enters
    *deadline-bounded draining*: it stops accepting work (even if quarantined) and
    has the market's ``warning_ms`` to finish its local queue.  A replacement boots
    while the victim drains: the controller re-plans through ``observe_preemption``,
    or, without one, the kernel re-provisions like-for-like.

``PREEMPTED``
    The kill at the end of the warning window.  Billing stops, and whatever the
    victim did not finish re-enters the central queue at once (no retry budget: the
    loss was announced).  A victim that drained before the deadline was already
    decommissioned, and the kill is a no-op.

Every voided attempt (a crash, a kill, a response timeout, a stuck zombie attempt,
a hedge race's loser) takes one path, :meth:`ElasticServingSimulation._void_attempt`:
a voided attempt's completion, if one is queued, is swallowed.

Scheduling happens on an index-stable :class:`~repro.sim.cluster.ClusterView` of the
currently accepting servers, rebuilt (and the policy re-bound) whenever membership
changes, so existing policies work unmodified.

The multi-model loop (:mod:`repro.sim.multi_model`) subclasses the kernel and
overrides only the hooks below (model scoping, billing, scripted events), so every
fault, retry, admission, health, hedge and spot handler exists once.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.cloud.billing import SPAN_HEDGE, SPAN_QUARANTINE, InstanceUsageLedger
from repro.cloud.spot import MARKET_ON_DEMAND, MARKET_SPOT, SpotMarket
from repro.sim.cluster import Cluster, ClusterView
from repro.sim.engine import (
    TIME_EPSILON_MS,
    EventQueue,
    SimulationClock,
    no_progress_error,
    step_budget,
)
from repro.sim.events import CrashStorm, Event, EventKind, PreemptionBurst, ScaleRequest
from repro.sim.faults import (
    AdmissionController,
    DeadLetterEntry,
    FaultInjector,
    RetryPolicy,
    ShedEntry,
    select_shed_victims,
)
from repro.sim.health import (
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    HealthConfig,
    HedgeManager,
    HedgePolicy,
    ServerHealthMonitor,
)
from repro.sim.metrics import QueryRecord, ServingMetrics
from repro.sim.pending import PendingQueue
from repro.sim.server import ServerInstance, ServiceNoiseModel
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_non_negative
from repro.workload.query import Query, check_serving_inputs

if TYPE_CHECKING:  # the controller layer imports the simulator for its own runs
    from repro.core.controller import ElasticKairosController, ReplanDecision


def _probe_batches(max_batch: int) -> List[int]:
    """Deterministic geometric batch ladder probing a type's QoS-feasible range."""
    ladder = []
    b = 1
    while b < max_batch:
        ladder.append(b)
        b *= 2
    ladder.append(max_batch)
    return ladder


def drain_cost_efficiency(
    profiles, model, type_name: str, *, probe_batches: Optional[Sequence[int]] = None
) -> float:
    """$/hr freed per unit of QoS-feasible serving capacity lost by draining one instance.

    Higher scores drain first: an expensive type contributing little within-QoS
    throughput frees the most budget per qps given up.  A type that cannot serve any
    probed batch within the model's QoS scores ``inf`` — draining it costs no serving
    capacity at all.  The probe mix is a fixed geometric ladder so the score depends
    only on the profiles, keeping elastic runs deterministic.
    """
    batches = (
        list(probe_batches) if probe_batches is not None else _probe_batches(model.max_batch_size)
    )
    qps = profiles.standalone_qps(model, type_name, batches)
    price = profiles.catalog[type_name].price_per_hour
    if qps <= 0.0:
        return float("inf")
    return price / qps


def scale_down_priority(profiles, model, type_names: Sequence[str]) -> List[str]:
    """Order instance types for draining, most cost-efficient-to-shed first.

    Ties (equal $/hr-per-qps scores) keep catalog order for determinism.
    """
    ranked = sorted(
        type_names,
        key=lambda name: (-drain_cost_efficiency(profiles, model, name),
                          profiles.catalog.index_of(name)),
    )
    return ranked


def select_drain_victims(
    cluster: Cluster, requests: Mapping[str, int], now_ms: float
) -> List[ServerInstance]:
    """Synchronously drain a multi-type shrink in cost-aware order (ROADMAP item).

    Types are processed by :func:`scale_down_priority` (most $/hr freed per lost qps
    first); within a type the cluster's least-loaded-first rule picks the instances.
    The returned list is ordered as drained; all victims are put into draining.

    This is the selection policy in callable form, for scripted scenarios and direct
    cluster surgery.  The event-driven simulators apply the *same* ordering by
    emitting their replan ``SCALE_DOWN`` events in :func:`scale_down_priority` order
    (cancellation of still-booting instances has to happen inside the event handler,
    so they cannot drain synchronously through this helper).
    """
    victims: List[ServerInstance] = []
    for type_name in scale_down_priority(cluster.profiles, cluster.model, list(requests)):
        count = int(requests[type_name])
        if count > 0:
            victims.extend(cluster.drain_servers(type_name, count, now_ms))
    return victims


@dataclass
class ScaleLogEntry:
    """One applied provisioning action (for reports and tests)."""

    time_ms: float
    #: provisioning: "scale_up", "cancel_startup", "instance_ready", "scale_down",
    #: "decommission"; crashes: "instance_failed", "void_inflight"; gray failures:
    #: "degradation_onset", "zombie_onset", "quarantine", "probation",
    #: "breaker_close"; spot: "preemption_warning", "preempted", "requeue"
    kind: str
    type_name: str
    count: int
    reason: str = ""


@dataclass
class ElasticSimulationReport:
    """Everything a serving run produced (static runs included)."""

    metrics: ServingMetrics
    cluster: Cluster
    ledger: InstanceUsageLedger
    policy_name: str
    scheduling_rounds: int
    dispatched_queries: int
    total_queries: int
    simulated_duration_ms: float
    #: Absolute sim time the run ended at (>= any ledger interval end).  The makespan
    #: in ``simulated_duration_ms`` is a *length* that can start after t=0 (warm-up),
    #: so billing integrals must use this absolute horizon instead.
    billing_horizon_ms: float = 0.0
    replans: List[ReplanDecision] = field(default_factory=list)
    scale_log: List[ScaleLogEntry] = field(default_factory=list)
    peak_instances: int = 0
    #: Queries dropped by admission control under overload (graceful degradation).
    shed_queries: List[ShedEntry] = field(default_factory=list)
    #: Queries that exhausted their retry budget — accounted, never silently lost.
    dead_letters: List[DeadLetterEntry] = field(default_factory=list)
    #: Re-admissions pushed by the retry layer (crash- or timeout-failed attempts).
    retries: int = 0
    #: Queries still pending when the run ended (the policy declined the remainder).
    unserved_queries: int = 0
    #: Speculative duplicate dispatches launched by the hedge layer.
    hedges_launched: int = 0
    #: Hedge attempts cancelled (every launched race resolves with exactly one).
    hedges_cancelled: int = 0
    #: Hedge races won by the duplicate (the speculation paid off).
    hedge_wins: int = 0
    #: The run stopped at the ``max_violations`` budget, before serving every query.
    early_stopped: bool = False

    @property
    def quarantine_events(self) -> int:
        """Breaker trips (quarantines) that fired during the run."""
        return sum(e.count for e in self.scale_log if e.kind == "quarantine")

    @property
    def completed_all(self) -> bool:
        return self.dispatched_queries == self.total_queries and not self.early_stopped

    @property
    def instance_failures(self) -> int:
        """Unannounced instance crashes that fired during the run."""
        return sum(e.count for e in self.scale_log if e.kind == "instance_failed")

    def total_cost(self) -> float:
        """Dollar spend over the whole run (ledger integral to the run's end)."""
        return self.ledger.total_cost(self.billing_horizon_ms)

    def utilization_by_type(self) -> Dict[str, float]:
        """Mean busy share of each present instance type over the makespan."""
        return self.cluster.utilization_by_type(self.simulated_duration_ms)

    def summary(self) -> Dict[str, float]:
        data = dict(self.metrics.summary())
        data["scheduling_rounds"] = float(self.scheduling_rounds)
        data["simulated_duration_ms"] = self.simulated_duration_ms
        data["num_replans"] = float(len(self.replans))
        data["total_cost"] = self.total_cost()
        data["peak_instances"] = float(self.peak_instances)
        return data


def _ignore_event(sim, event, now, metrics, ledger, scale_log, warmup_ids, events):
    return False, False


def _quiet(handler, logged: bool = False):
    """Adapt ``handler(sim, payload, now, events)`` (``scale_log`` in place of
    ``events`` when ``logged``) — a kind that changes no membership and admits
    nothing — to the handler table's signature."""

    def handle(sim, event, now, metrics, ledger, scale_log, warmup_ids, events):
        handler(sim, event.payload, now, scale_log if logged else events)
        return False, False

    return handle


class ElasticServingSimulation:
    """Serve a query stream on a cluster that can grow and shrink mid-run (the kernel).

    Parameters
    ----------
    cluster:
        The initial cluster (typically built from the controller's initial plan).
    policy:
        A query-distribution policy (:class:`~repro.schedulers.base.SchedulingPolicy`
        protocol).  It is re-bound on every membership change; policies that learn
        online (the Kairos estimator) keep their learned state across re-binds.
    controller:
        Optional :class:`~repro.core.controller.ElasticKairosController`.  Without one
        the simulation is *static through the elastic code path*: same event loop, no
        provisioning — the honest baseline for re-planning comparisons.
    startup_delay_ms:
        Provisioning delay between a scale-up request and the instance becoming
        schedulable (billing covers the delay).
    scripted_events:
        Optional pre-scheduled provisioning events (``SCALE_UP`` / ``SCALE_DOWN`` with a
        :class:`~repro.sim.events.ScaleRequest` payload, or ``INSTANCE_FAILED`` with a
        :class:`~repro.sim.events.CrashStorm` when fault injection is enabled), e.g.
        for tests or scenarios with known maintenance windows.
    faults:
        Optional :class:`~repro.sim.faults.FaultInjector` arming *unannounced* crash
        and transient-slowdown timers on every commissioned instance.  ``None`` (or a
        zero-hazard injector) leaves the run byte-identical to a fault-free one.
    fault_rng:
        Dedicated generator for fault-delay draws, separate from the service noise
        stream so arming injection never perturbs service times.
    retry:
        Optional :class:`~repro.sim.faults.RetryPolicy`: failed attempts (crash-voided
        or response-timed-out dispatches) re-enter the pending queue after exponential
        backoff until the retry budget is spent, then dead-letter.  Without one, a
        crash-voided query dead-letters immediately (the naive no-retry loop).
        Spot preemption keeps its own announced-loss re-queue path (immediate,
        unbounded) — the retry budget governs *unannounced* failures only.
    admission:
        Optional :class:`~repro.sim.faults.AdmissionController` throttling each
        scheduling round's admitted concurrency from observed latency and shedding
        the lowest-value backlog overflow under overload.
    max_violations:
        Optional early-stop budget: once more than this many measured (post-warm-up)
        completions have missed their QoS target, the run stops after the current
        timestamp batch and reports ``early_stopped`` — the capacity search's cut-off
        for probes that are already infeasible.
    warmup_queries:
        The first arrivals of each model are served but kept out of the metrics; they
        cover the online latency learner's cold start.
    market:
        Optional :class:`~repro.cloud.spot.SpotMarket` pricing and reclaiming the
        spot instances (see the module docstring).  ``None`` leaves every instance
        on demand and draws nothing from ``market_rng``.
    spot_server_ids:
        Ids of the initial servers bought on the market (see
        :func:`~repro.sim.cluster.initial_spot_server_ids`).  They bill at the
        discounted rate from t=0 and their reclaim timers arm immediately.
    market_rng:
        Dedicated generator for reclaim-delay draws, separate from the service noise
        stream so arming the market never perturbs service times.
    """

    def __init__(
        self,
        cluster: Cluster,
        policy,
        *,
        controller: Optional[ElasticKairosController] = None,
        qos_percentile: float = 99.0,
        startup_delay_ms: float = 2_000.0,
        noise: Optional[ServiceNoiseModel] = None,
        rng: RngLike = None,
        warmup_queries: int = 0,
        scripted_events: Sequence[Event] = (),
        faults: Optional[FaultInjector] = None,
        fault_rng: RngLike = None,
        retry: Optional[RetryPolicy] = None,
        admission: Optional[AdmissionController] = None,
        sharded_events: bool = False,
        gray_rng: RngLike = None,
        health: Optional[HealthConfig] = None,
        hedge: Optional[HedgePolicy] = None,
        max_violations: Optional[int] = None,
        market: Optional[SpotMarket] = None,
        spot_server_ids: Sequence[int] = (),
        market_rng: RngLike = None,
    ):
        check_non_negative(startup_delay_ms, "startup_delay_ms")
        if warmup_queries < 0:
            raise ValueError("warmup_queries must be non-negative")
        if faults is not None and any(p.zombies_per_hour > 0.0 for p in faults):
            # a zombie attempt has no completion event; without a recovery path the
            # query could never settle and conservation would break by construction
            if health is None and (retry is None or retry.response_timeout_ms is None):
                raise ValueError(
                    "zombie hazards need a recovery path: enable health monitoring "
                    "or a retry response timeout"
                )
        self.cluster = cluster
        self.policy = policy
        self.controller = controller
        self.qos_percentile = float(qos_percentile)
        self.startup_delay_ms = float(startup_delay_ms)
        self.noise = noise
        self.rng = ensure_rng(rng)
        self.warmup_queries = int(warmup_queries)
        self.max_violations = max_violations
        #: measured completions past their QoS target (counted only with a budget)
        self._violations = 0
        self.faults = faults
        self._fault_rng = ensure_rng(fault_rng)
        self.retry = retry
        self.admission = admission
        #: drive the run off a ShardedEventQueue (per-kind shard labels over the
        #: same single heap); byte-identical to the plain path (repro.sim.sharding)
        self.sharded_events = bool(sharded_events)
        # -- spot market (set before the scripted events are validated) ---------------
        self.market = market
        self._market_rng = ensure_rng(market_rng) if market is not None else None
        self._initial_spot_ids = frozenset(int(i) for i in spot_server_ids)
        if self._initial_spot_ids and market is None:
            raise ValueError("spot_server_ids requires a SpotMarket")
        #: ids of instances bought on the spot market (booting, live or gone)
        self._spot_purchases: Set[int] = set()
        #: servers already holding a reclaim notice — a warned instance is never
        #: warned twice (one warning, one kill, one log entry per reclaim)
        self._warned: Set[int] = set()
        # -- shared chaos/preemption machinery ------------------------------------------
        #: per-server records dispatched but not yet completed (the voiding source),
        #: in dispatch order and keyed by object id: attempts match by identity
        self._inflight: Dict[int, Dict[int, QueryRecord]] = {}
        #: object ids of voided attempts whose queued completion must be swallowed
        self._voided: Set[int] = set()
        #: query ids re-injected as arrivals (skip controller rate observation)
        self._requeued_ids: Set[int] = set()
        #: failed attempts per query id (drives the bounded retry budget)
        self._attempt_failures: Dict[int, int] = {}
        #: queries not yet terminally settled; gates replacement provisioning/timers
        self._outstanding = 0
        #: dispatches voided by a kill/crash/timeout (re-dispatches must not
        #: double-count in the report)
        self._voided_dispatches = 0
        #: re-plans forced by capacity loss (merged into the report's list)
        self._forced_replans: List = []
        self._retries = 0
        self.dead_letters: List[DeadLetterEntry] = []
        self.shed_queries: List[ShedEntry] = []
        # -- gray-failure machinery (health scoring, breakers, hedging) ----------------
        self.health = health
        self.monitor = ServerHealthMonitor(health) if health is not None else None
        self.hedge = hedge
        self.hedges = HedgeManager(hedge) if hedge is not None else None
        #: dedicated generator for gray-mode delay draws ([seed, 606] by convention);
        #: separate from the fault stream so gray hazards never perturb crash draws
        self._gray_rng = ensure_rng(gray_rng)
        #: per-server breaker state (created lazily at first trip)
        self._breakers: Dict[int, CircuitBreaker] = {}
        #: server ids that have gone zombie (accept work, never emit completions)
        self._zombie_ids: Set[int] = set()
        #: object ids of records dispatched into a zombie: no completion event exists,
        #: so a void must not mark one for swallowing
        self._zombie_attempts: Set[int] = set()
        #: query id -> (primary, duplicate) of an unresolved hedge race
        self._hedge_pairs: Dict[int, Tuple[QueryRecord, QueryRecord]] = {}
        #: open quarantine attribution spans per server id
        self._quarantine_spans: Dict[int, object] = {}
        #: hedge dispatches (not routed through _commit's counter)
        self._hedge_extra_dispatches = 0
        self.hedges_launched = 0
        self.hedges_cancelled = 0
        self.hedge_wins = 0
        #: whether dispatches must be tracked for voiding (crash, kill or timeout)
        self._track_inflight = (
            faults is not None
            or (retry is not None and retry.response_timeout_ms is not None)
            or health is not None
            or hedge is not None
            or market is not None
        )
        self.scripted_events = tuple(scripted_events)
        for event in self.scripted_events:
            self._validate_scripted(event)
        check_serving_inputs(
            (), self._model_names(), self.scripted_events, self._catalog()
        )
        if market is not None:
            known = {s.server_id for s in cluster}
            unknown = sorted(self._initial_spot_ids - known)
            if unknown:
                raise ValueError(f"spot_server_ids not in the cluster: {unknown}")
            for server in cluster:
                if server.server_id in self._initial_spot_ids:
                    market[server.type_name]  # raises if the type is not offered
        self._ran = False

    def _validate_scripted(self, event: Event) -> None:
        """Reject unsupported scripted events."""
        if event.kind == EventKind.PREEMPTION_WARNING:
            if not isinstance(event.payload, PreemptionBurst):
                raise ValueError(
                    "scripted preemption warnings must carry a PreemptionBurst payload"
                )
            if self.market is None:
                raise ValueError("scripted preemption bursts require a SpotMarket")
            return
        if event.kind == EventKind.INSTANCE_FAILED:
            if not isinstance(event.payload, CrashStorm):
                raise ValueError(
                    "scripted instance failures must carry a CrashStorm payload"
                )
            if self.faults is None:
                raise ValueError("scripted crash storms require a FaultInjector")
            return
        if event.kind not in (EventKind.SCALE_UP, EventKind.SCALE_DOWN):
            raise ValueError("scripted events must be SCALE_UP or SCALE_DOWN")
        if not isinstance(event.payload, ScaleRequest):
            raise ValueError("scripted scale events must carry a ScaleRequest payload")
        if (
            event.kind == EventKind.SCALE_UP
            and event.payload.market == MARKET_SPOT
            and self.market is None
        ):
            raise ValueError(
                f"spot scale-up for {event.payload.type_name!r} without a SpotMarket"
            )

    def run(self, queries: Sequence[Query]) -> ElasticSimulationReport:
        """Serve ``queries`` once.  The driver is one-shot: a run permanently mutates
        cluster membership and the controller's observation history, so repeat runs
        must build fresh objects."""
        if self._ran:
            raise RuntimeError(
                f"{type(self).__name__} is one-shot: cluster membership and "
                "controller state are consumed by run(); build a fresh simulation "
                "(and controller) for another run"
            )
        self._ran = True
        model_names = self._model_names()
        check_serving_inputs(self._input_stream(queries), model_names)
        # An empty stream is a valid no-op: zero offered load serves zero queries
        # with empty metrics (scripted provisioning events still apply).
        ordered = sorted(queries, key=lambda q: (q.arrival_time_ms, q.query_id))
        n = len(ordered)
        self._outstanding = n
        self.cluster.reset()
        metrics = self._new_metrics()
        scale_log: List[ScaleLogEntry] = []
        replans: List[ReplanDecision] = []

        clock = SimulationClock(0.0)
        events, pending = self._queues()
        events.push_all(self.scripted_events)
        ledger = InstanceUsageLedger(self._catalog())
        self._open_initial_billing(ledger, events)
        self._arm_initial_faults(events)

        # Warm-up is per model: each model's online learner has its own cold start, so
        # the first `warmup_queries` arrivals *of each model* are excluded from metrics
        # (an untagged query belongs to the sole model; with one model this is the
        # prefix of the stream).
        warmup_ids = set()
        if self.warmup_queries:
            sole = model_names[0] if len(model_names) == 1 else None
            seen: Dict[Optional[str], int] = {}
            for q in ordered:
                model = sole if q.model_name is None else q.model_name
                count = seen.get(model, 0)
                if count < self.warmup_queries:
                    warmup_ids.add(q.query_id)
                    seen[model] = count + 1
        # Scale-ups in flight: reserved ids per (model, type) that have not fired
        # INSTANCE_READY yet.  A scale-down cancels these (newest first) before draining
        # live servers, so a replan reversing a recent scale-up cannot strand booting
        # instances.
        self._booting: Dict[Tuple[Optional[str], str], List[int]] = {}
        self._cancelled: set = set()
        dispatched = 0
        rounds = 0
        peak = len(self.cluster)
        view = self.cluster.active_view()
        schedulable = len(view)
        self._bind(view)
        self._handlers = self._handler_table()
        max_steps = step_budget(n, self.retry)
        steps = 0
        # fixed for the run: every input (faults, retry, monitor, hedges, market)
        # is set at construction
        idle_kinds = frozenset(self._idle_timer_kinds())
        # fresh arrivals not yet admitted are ordered[cursor:] (see module docstring)
        arrival_times = [q.arrival_time_ms for q in ordered]
        cursor = 0
        early_stopped = False

        controller = self.controller
        max_violations = self.max_violations
        while cursor < n or events:
            steps += 1
            if steps > max_steps:
                raise no_progress_error(
                    self.policy, max_steps, clock.now_ms, pending, events, n - cursor
                )
            next_event = events.peek_time()
            if cursor < n and (next_event is None or arrival_times[cursor] <= next_event):
                now = clock.advance_to(arrival_times[cursor])
            else:
                now = clock.advance_to(next_event)
            # this instant's fresh arrivals: ordered[fresh:cursor]
            fresh = cursor
            limit = now + TIME_EPSILON_MS
            while cursor < n and arrival_times[cursor] <= limit:
                cursor += 1
            membership_changed = False
            saw_arrival = cursor > fresh

            # Drain the whole timestamp batch; handlers may push follow-up events at
            # `now` (a replan's scale requests), which the inner loop picks up before
            # the scheduling round so new decisions act in the same instant.
            batch = events.pop_batch(now)
            while True:
                pushed = events.pushed
                for event in batch:
                    if fresh < cursor:
                        # fresh arrivals sorting before this event go first: every
                        # one earlier in time, and at equal time all but completions
                        split = (
                            bisect_left
                            if event.kind == EventKind.SERVICE_COMPLETION
                            else bisect_right
                        )
                        stop = split(arrival_times, event.time_ms, fresh, cursor)
                        for query in ordered[fresh:stop]:
                            if controller is not None:
                                controller.observe_arrival(query, now)
                            pending.append(query)
                        fresh = stop
                    changed, arrival = self._handle(
                        event, now, metrics, ledger, scale_log, warmup_ids, events
                    )
                    if changed:
                        membership_changed = True
                    if arrival:
                        saw_arrival = True
                        pending.append(event.payload)
                # the rest of the instant's fresh arrivals; the controller observes
                # each as offered load (re-queues arrive through _handle, unobserved)
                while fresh < cursor:
                    query = ordered[fresh]
                    if controller is not None:
                        controller.observe_arrival(query, now)
                    pending.append(query)
                    fresh += 1
                # The controller reacts right after the arrivals of this instant are
                # observed — the one-shot re-plan (Fig. 12) happens inside the event
                # loop, not between runs.  Replan BEFORE re-popping: the decision's
                # same-instant scale events must land in the next inner batch, or an
                # empty re-pop would strand them past this round and the outer loop
                # would re-wake at the same `now` for a duplicate scheduling round.
                if controller is not None and saw_arrival:
                    decision = controller.maybe_replan(now)
                    if decision is not None:
                        replans.append(decision)
                        self._emit_scale_events(decision, now, events)
                    saw_arrival = False
                # a same-instant follow-up can only come from a push since the pop
                if events.pushed == pushed:
                    break
                batch = events.pop_batch(now)
            if max_violations is not None and self._violations > max_violations:
                early_stopped = True
                break

            if membership_changed:
                view = self.cluster.active_view()
                schedulable = len(view)
                # A fully drained fleet leaves nothing to bind or schedule; queries
                # wait centrally until an INSTANCE_READY brings capacity back (the
                # next membership change re-binds).
                if schedulable:
                    self._bind(view)
                peak = max(peak, len(self.cluster))

            # scheduling round over the accepting servers (behind the admission valve)
            if pending and schedulable:
                admitted = self._admit(pending, now, events)
                if admitted:
                    assignments = self.policy.schedule(now, admitted, view)
                    rounds += 1
                    if assignments:
                        dispatched += self._commit(
                            assignments, pending, view, now, events
                        )

            # Nothing left to fire and the policy declines the remainder: end the run.
            # Recurring fault/reclaim timers are not "something to fire" for this
            # purpose: once every queued event is a hazard timer, no completion,
            # arrival, boot, or scale action is in flight, so nothing the timers do
            # to an idle fleet can serve a backlog the policy already declined — the
            # run has quiesced exactly like the chaos-free case.  A zombie-held
            # attempt breaks that reasoning: it is in flight with NO completion
            # queued, and its recovery watchdog (health check or response timeout)
            # is itself an idle-kind timer — so the run must stay alive until the
            # watchdog voids the attempt to a terminal outcome.
            if (
                pending
                and cursor == n
                and not self._zombie_attempts
                and (not events or events.only_kinds(idle_kinds))
            ):
                break

        duration = metrics.makespan_ms() if len(metrics) else clock.now_ms
        # Completions flow through the event queue, so the clock ends at or after the
        # last completion; that is the absolute billing horizon.
        horizon = clock.now_ms
        ledger.close_all(horizon)
        # A voided dispatch never completed; its query re-dispatched (or settled
        # terminally) later, so only the dispatch that stood counts — completed_all
        # keeps its exact meaning.
        if self._forced_replans:
            replans = sorted(replans + self._forced_replans, key=lambda d: d.time_ms)
        return self._report_type(
            metrics=metrics,
            cluster=self.cluster,
            ledger=ledger,
            policy_name=getattr(self.policy, "name", type(self.policy).__name__),
            scheduling_rounds=rounds,
            dispatched_queries=dispatched
            + self._hedge_extra_dispatches
            - self._voided_dispatches,
            total_queries=n,
            simulated_duration_ms=duration,
            billing_horizon_ms=horizon,
            replans=replans,
            scale_log=scale_log,
            peak_instances=peak,
            shed_queries=self.shed_queries,
            dead_letters=self.dead_letters,
            retries=self._retries,
            unserved_queries=len(pending),
            hedges_launched=self.hedges_launched,
            hedges_cancelled=self.hedges_cancelled,
            hedge_wins=self.hedge_wins,
            early_stopped=early_stopped,
        )

    # -- subclass hooks -----------------------------------------------------------------
    # The multi-model simulator (repro.sim.multi_model) extends the loop through these
    # hooks instead of forking it; the defaults are the single-model behaviour
    # (locked down by the seed-stability suite).
    _report_type = ElasticSimulationReport

    def _model_names(self) -> Sequence[str]:
        """Models the cluster serves (the input contract and the warm-up rule)."""
        return (self.cluster.model.name,)

    def _catalog(self):
        """The instance catalog scale requests and billing resolve types against."""
        return self.cluster.config.catalog

    def _input_stream(self, queries: Sequence[Query]) -> Sequence[Query]:
        """Every query the run will admit, for the up-front input check."""
        return queries

    def _new_metrics(self) -> ServingMetrics:
        return ServingMetrics(self.cluster.model.qos_ms, self.qos_percentile)

    def _bind(self, view) -> None:
        self.policy.bind(view, self.cluster.model.qos_ms)

    def _queues(self) -> Tuple[EventQueue, PendingQueue]:
        """The run's event queue and central pending queue."""
        if self.sharded_events:
            from repro.sim.sharding import ShardedEventQueue, shard_key_by_kind

            return ShardedEventQueue(shard_key_by_kind), PendingQueue()
        return EventQueue(), PendingQueue()

    def _request_model(self, request: ScaleRequest) -> Optional[str]:
        """The model partition a scale request targets (one partition here)."""
        return None

    def _reason(self, reason: str, model_name: Optional[str]) -> str:
        """The scale-log reason of a provisioning entry for ``model_name``."""
        return reason

    def _reserve_server_id(self, model_name: Optional[str]) -> int:
        return self.cluster.reserve_server_id()

    def _add_server(
        self, model_name: Optional[str], type_name: str, now: float, server_id: int
    ) -> None:
        self.cluster.add_server(type_name, now_ms=now, server_id=server_id)

    def _drain_servers(
        self, model_name: Optional[str], type_name: str, count: int, now: float
    ) -> List[ServerInstance]:
        return self.cluster.drain_servers(type_name, count, now)

    def _partition_of(self, server_id: int) -> Cluster:
        """The capacity pool ``server_id`` belongs to: quarantine guard, hedges,
        like-for-like replacement."""
        return self.cluster

    def _open_initial_billing(self, ledger: InstanceUsageLedger, events: EventQueue) -> None:
        """Open billing for the initial fleet and arm its spot reclaim timers."""
        for server in self.cluster:
            if server.server_id in self._initial_spot_ids:
                self._start_spot_billing(ledger, server.server_id, server.instance_type, 0.0)
                if self._outstanding > 0:
                    self._arm_reclaim_timer(server.server_id, server.type_name, 0.0, events)
            else:
                ledger.start(server.server_id, server.instance_type, 0.0)

    def _start_billing(
        self,
        ledger: InstanceUsageLedger,
        server_id: int,
        itype,
        now: float,
        request: ScaleRequest,
    ) -> None:
        """Open billing for one scale-up instance, priced by its market."""
        if request.market == MARKET_SPOT:
            self._start_spot_billing(ledger, server_id, itype, now)
        else:
            ledger.start(server_id, itype, now)

    # -- spot market ---------------------------------------------------------------------
    def _start_spot_billing(
        self, ledger: InstanceUsageLedger, server_id: int, itype, now: float
    ) -> None:
        """Record one instance as bought on the market and bill it at the spot rate."""
        if self.market is None:
            raise ValueError(f"spot scale-up for {itype.name!r} without a SpotMarket")
        self._spot_purchases.add(server_id)
        ledger.start(
            server_id,
            itype,
            now,
            price_multiplier=self.market.price_multiplier(itype.name),
            market=MARKET_SPOT,
            price_schedule=self.market.price_schedule(itype.name),
        )

    def _arm_reclaim_timer(
        self, server_id: int, type_name: str, now: float, events: EventQueue
    ) -> None:
        """Draw this spot instance's time to its reclaim warning (zero hazard: none)."""
        delay = self.market.draw_preemption_delay_ms(type_name, now, self._market_rng)
        if delay is not None:
            events.push(
                Event(now + delay, EventKind.PREEMPTION_WARNING, (server_id, type_name))
            )

    def _handle_warning(
        self, payload, now: float, events: EventQueue, scale_log: List[ScaleLogEntry]
    ) -> bool:
        """Apply one ``PREEMPTION_WARNING``; returns True when membership changed."""
        if isinstance(payload, PreemptionBurst):
            changed = False
            for server in self._burst_victims(payload):
                changed = (
                    self._warn_server(server, now, events, scale_log, payload.reason)
                    or changed
                )
            return changed
        server_id, _type_name = payload
        if server_id in self._warned:
            return False  # already holding a notice
        try:
            server = self.cluster.server_by_id(server_id)
        except KeyError:
            return False  # decommissioned or crashed: nothing to reclaim
        return self._warn_server(server, now, events, scale_log, "market")

    def _warn_server(
        self,
        server: ServerInstance,
        now: float,
        events: EventQueue,
        scale_log: List[ScaleLogEntry],
        reason: str,
    ) -> bool:
        """Start deadline-bounded draining; returns True when membership changed."""
        self._warned.add(server.server_id)
        was_accepting = server.accepting
        if not server.draining:
            # a quarantined victim drains too, so a probation probe inside the
            # warning window cannot re-admit it
            server.start_draining()
        events.push(
            Event(
                now + self.market.warning_ms,
                EventKind.PREEMPTED,
                (server.server_id, server.type_name),
            )
        )
        scale_log.append(
            ScaleLogEntry(now, "preemption_warning", server.type_name, 1, reason)
        )
        # Reactive re-provisioning: only for instances the plan still wanted (an
        # already-draining victim was on its way out anyway) and only while work
        # remains — otherwise the replacement chain would outlive the trace.
        if was_accepting and self._outstanding > 0:
            observe = getattr(self.controller, "observe_preemption", None)
            if observe is not None:
                # Re-provision at the warning instant, not at the next arrival —
                # a reclaim after the last arrival would otherwise never re-plan.
                observe(server.type_name, now)
                decision = self.controller.maybe_replan(now)
                if decision is not None:
                    self._forced_replans.append(decision)
                    self._emit_scale_events(decision, now, events)
            else:
                request = ScaleRequest(
                    server.type_name, 1, reason="reprovision", market=MARKET_SPOT
                )
                events.push(Event(now, EventKind.SCALE_UP, request))
        return was_accepting

    def _burst_victims(self, burst: PreemptionBurst) -> List[ServerInstance]:
        """Pick the burst's victims in :func:`select_drain_victims` cost-aware order."""
        spot_servers = [
            s
            for s in self.cluster
            if s.server_id in self._spot_purchases
            and s.server_id not in self._warned
            and (burst.type_name is None or s.type_name == burst.type_name)
        ]
        present_types = sorted({s.type_name for s in spot_servers})
        victims: List[ServerInstance] = []
        for type_name in scale_down_priority(
            self.cluster.profiles, self.cluster.model, present_types
        ):
            of_type = [s for s in spot_servers if s.type_name == type_name]
            of_type.sort(key=lambda s: (s.local_queue_depth, s.busy_until_ms, s.server_id))
            victims.extend(of_type)
        return victims[: burst.count]

    def _handle_kill(
        self,
        payload,
        now: float,
        events: EventQueue,
        ledger: InstanceUsageLedger,
        scale_log: List[ScaleLogEntry],
    ) -> bool:
        """The reclaim deadline: kill the victim and re-queue its unfinished work."""
        server_id, _type_name = payload
        try:
            server = self.cluster.server_by_id(server_id)
        except KeyError:
            return False  # drained to empty before the deadline: already decommissioned
        voided, orphans = self._lose_server(server, now, ledger)
        scale_log.append(ScaleLogEntry(now, "preempted", server.type_name, 1))
        for query in orphans:
            # the loss was announced: re-queue at the kill instant, outside the
            # retry budget, for this instant's scheduling round to redistribute
            self._requeued_ids.add(query.query_id)
            events.push(Event(now, EventKind.QUERY_ARRIVAL, query))
        if voided:
            scale_log.append(ScaleLogEntry(now, "requeue", server.type_name, voided))
        return True

    # -- fault injection -----------------------------------------------------------------
    def _arm_initial_faults(self, events: EventQueue) -> None:
        """Arm crash/slowdown timers for the initial fleet (no-op without injection)."""
        if self.faults is None or self._outstanding <= 0:
            return
        for server in self.cluster:
            self._arm_fault_timers(server.server_id, server.type_name, 0.0, events)

    def _arm_fault_timers(
        self, server_id: int, type_name: str, now: float, events: EventQueue
    ) -> None:
        """Draw this instance's crash and first-slowdown delays (zero-hazard: no draw).

        Gated on outstanding work so a replacement that becomes ready after the trace
        is fully served cannot re-arm timers and drag the billing horizon past the
        work (the same contract as the spot reclaim timers).
        """
        if self.faults is None or self._outstanding <= 0:
            return
        delay = self.faults.draw_failure_delay_ms(type_name, self._fault_rng)
        if delay is not None:
            events.push(
                Event(now + delay, EventKind.INSTANCE_FAILED, (server_id, type_name))
            )
        delay = self.faults.draw_slowdown_delay_ms(type_name, self._fault_rng)
        if delay is not None:
            events.push(
                Event(now + delay, EventKind.SLOWDOWN_BEGIN, (server_id, type_name))
            )
        # gray modes draw from the dedicated gray stream, after the fault-stream
        # draws above, so arming them never perturbs crash/slowdown schedules
        delay = self.faults.draw_degradation_delay_ms(type_name, self._gray_rng)
        if delay is not None:
            events.push(
                Event(now + delay, EventKind.DEGRADATION_ONSET, (server_id, type_name))
            )
        delay = self.faults.draw_flaky_delay_ms(type_name, self._gray_rng)
        if delay is not None:
            events.push(
                Event(now + delay, EventKind.FLAKY_BEGIN, (server_id, type_name))
            )
        delay = self.faults.draw_zombie_delay_ms(type_name, self._gray_rng)
        if delay is not None:
            events.push(
                Event(now + delay, EventKind.ZOMBIE_ONSET, (server_id, type_name))
            )

    def _idle_timer_kinds(self) -> Set[EventKind]:
        """Event kinds that must not outlive the workload."""
        kinds: Set[EventKind] = set()
        if self.faults is not None:
            kinds |= {
                EventKind.INSTANCE_FAILED,
                EventKind.SLOWDOWN_BEGIN,
                EventKind.SLOWDOWN_END,
                EventKind.DEGRADATION_ONSET,
                EventKind.FLAKY_BEGIN,
                EventKind.FLAKY_END,
                EventKind.ZOMBIE_ONSET,
            }
        if self.retry is not None and self.retry.response_timeout_ms is not None:
            kinds.add(EventKind.RESPONSE_TIMEOUT)
        # Health checks and probes must not keep a settled run alive; a probe that is
        # discarded leaves its server quarantined through the horizon, which is the
        # correct billing outcome for capacity parked when the trace ended.
        if self.monitor is not None:
            kinds |= {EventKind.HEALTH_CHECK, EventKind.HEALTH_PROBE}
        if self.hedges is not None:
            kinds.add(EventKind.HEDGE_TIMER)
        if self.market is not None:
            kinds |= {EventKind.PREEMPTION_WARNING, EventKind.PREEMPTED}
        return kinds

    def _settle_outstanding(self, events: EventQueue) -> None:
        """One query reached a terminal outcome; at zero, drop lingering timers.

        Pending fault, timeout and reclaim timers must not keep the run — and therefore
        every instance's billing — alive once the trace is fully settled, exactly like
        a chaos-free run ending with its last completion.
        """
        self._outstanding -= 1
        if self._outstanding == 0:
            kinds = self._idle_timer_kinds()
            if kinds:
                events.discard(lambda e: e.kind in kinds)

    def _fail_attempt(
        self,
        query: Query,
        now: float,
        reason: str,
        events: EventQueue,
    ) -> None:
        """One dispatch attempt failed (crash-voided or timed out): retry or dead-letter.

        With retry budget left the query re-enters the pending queue after exponential
        backoff (re-injected as an arrival event, like the preemption re-queue, so the
        normal scheduling round redistributes it); exhausted queries go to the
        dead-letter account — every arrival ends in exactly one terminal outcome.
        """
        qid = query.query_id
        failures = self._attempt_failures.get(qid, 0) + 1
        self._attempt_failures[qid] = failures
        if self.retry is not None and failures < self.retry.max_attempts:
            self._requeued_ids.add(qid)
            self._retries += 1
            events.push(
                Event(
                    now + self.retry.backoff_ms(failures), EventKind.QUERY_ARRIVAL, query
                )
            )
        else:
            self.dead_letters.append(DeadLetterEntry(query, now, reason, failures))
            self._settle_outstanding(events)

    # -- admission control ---------------------------------------------------------------
    def _admit(self, pending: PendingQueue, now: float, events: EventQueue):
        """The admission valve before a scheduling round (identity without a controller).

        Sheds the lowest-value backlog overflow terminally (recorded, settled), then
        caps the round at the adaptive concurrency limit by handing the policy a
        prefix of the queue instead of the whole backlog.
        """
        if self.admission is None:
            return pending
        overflow = self.admission.to_shed(len(pending))
        if overflow > 0:
            for query in select_shed_victims(pending.snapshot(), overflow):
                pending.remove(query.query_id)
                self.shed_queries.append(ShedEntry(query, now))
                self._settle_outstanding(events)
            self.admission.record_shed(overflow)
        limit = self.admission.concurrency_limit
        if len(pending) > limit:
            return list(pending.snapshot()[:limit])
        return pending

    # -- crash / slowdown / timeout handling ---------------------------------------------
    def _handle_instance_failure(
        self,
        payload,
        now: float,
        events: EventQueue,
        ledger: InstanceUsageLedger,
        scale_log: List[ScaleLogEntry],
    ) -> bool:
        """Apply one ``INSTANCE_FAILED`` event; returns True when membership changed."""
        if isinstance(payload, CrashStorm):
            changed = False
            for server in self._storm_victims(payload):
                changed = (
                    self._crash_server(server, now, events, ledger, scale_log, payload.reason)
                    or changed
                )
            return changed
        server_id, _type_name = payload
        try:
            server = self.cluster.server_by_id(server_id)
        except KeyError:
            return False  # already decommissioned, killed, or cancelled
        return self._crash_server(server, now, events, ledger, scale_log, "hazard")

    def _storm_victims(self, storm: CrashStorm) -> List[ServerInstance]:
        """A scripted storm's victims: first ``count`` live servers in cluster order.

        A storm is indiscriminate (rack power loss takes whatever was racked there),
        so no cost-aware ordering applies — cluster iteration order is the
        deterministic stand-in for physical placement.
        """
        victims = [
            s
            for s in self.cluster
            if storm.type_name is None or s.type_name == storm.type_name
        ]
        return victims[: storm.count]

    def _crash_server(
        self,
        server: ServerInstance,
        now: float,
        events: EventQueue,
        ledger: InstanceUsageLedger,
        scale_log: List[ScaleLogEntry],
        reason: str,
    ) -> bool:
        """An unannounced crash: no warning window, no draining, in-flight work voided.

        Billing closes exactly at the failure instant with the interval tagged failed
        (clouds do not charge past a host death).  Replacement mirrors the preemption
        path — the controller absorbs the loss via ``observe_failure`` and force-replans,
        or the injector's ``auto_replace`` issues a like-for-like ``SCALE_UP`` — gated
        on outstanding work so the replacement chain cannot outlive the trace.  The
        attempts the crash voided go through the retry/dead-letter account (unlike the
        announced kill, which re-queues unconditionally).
        """
        server_id = server.server_id
        voided, orphans = self._lose_server(server, now, ledger, failed=True)
        scale_log.append(
            ScaleLogEntry(now, "instance_failed", server.type_name, 1, reason)
        )
        if self._outstanding > 0:
            observe = getattr(self.controller, "observe_failure", None)
            if observe is not None:
                observe(server.type_name, now)
                decision = self.controller.maybe_replan(now)
                if decision is not None:
                    self._forced_replans.append(decision)
                    self._emit_scale_events(decision, now, events)
            elif self.faults is not None and self.faults.auto_replace:
                events.push(
                    Event(
                        now,
                        EventKind.SCALE_UP,
                        ScaleRequest(
                            server.type_name,
                            1,
                            reason="replace_failed",
                            model_name=self._partition_of(server_id).model.name,
                            market=(
                                MARKET_SPOT
                                if server_id in self._spot_purchases
                                else MARKET_ON_DEMAND
                            ),
                        ),
                    )
                )
        for query in orphans:
            self._fail_attempt(query, now, "crash", events)
        if voided:
            scale_log.append(
                ScaleLogEntry(now, "void_inflight", server.type_name, voided, reason)
            )
        return True

    def _lose_server(
        self, server: ServerInstance, now: float, ledger, *, failed: bool = False
    ) -> Tuple[int, List[Query]]:
        """A server is gone without draining (a crash or a spot kill).

        Removes it, stops its bill, voids its in-flight attempts and forgets its
        gray-failure state.  Returns the number of voided attempts and the queries
        among them that no surviving hedge partner still serves (the caller decides
        their fate).
        """
        server_id = server.server_id
        self.cluster.remove_server(server_id)
        ledger.stop(server_id, now, failed=failed)
        voided = list(self._inflight.pop(server_id, {}).values())
        orphans = [r.query for r in voided if self._void_attempt(r)]
        if self.monitor is not None:
            self.monitor.forget(server_id)
        span = self._quarantine_spans.pop(server_id, None)
        if span is not None:
            span.end_ms = now
        self._zombie_ids.discard(server_id)
        self._breakers.pop(server_id, None)
        return len(voided), orphans

    def _void_attempt(self, record: QueryRecord) -> bool:
        """Void one dispatch attempt: the one path every void takes.

        Drops the attempt from the in-flight set, marks its queued completion for
        swallowing (a zombie attempt has none), counts the void and resolves its
        hedge race.  Returns True when the query needs a new path, False when the
        hedge partner still serves it.
        """
        inflight = self._inflight.get(record.server_id)
        if inflight is not None and inflight.pop(id(record), None) is not None:
            if not inflight:
                del self._inflight[record.server_id]
        if id(record) in self._zombie_attempts:
            self._zombie_attempts.discard(id(record))
        else:
            self._voided.add(id(record))
        self._voided_dispatches += 1
        if self._hedge_pairs.pop(record.query.query_id, None) is not None:
            self.hedges_cancelled += 1
            return False
        return True

    def _handle_slowdown_begin(
        self, payload, now: float, events: EventQueue
    ) -> None:
        server_id, type_name = payload
        try:
            server = self.cluster.server_by_id(server_id)
        except KeyError:
            return  # crashed/decommissioned before the slowdown started
        profile = self.faults[type_name]
        until = now + profile.slowdown_duration_ms
        server.begin_slowdown(profile.slowdown_factor, until)
        events.push(Event(until, EventKind.SLOWDOWN_END, (server_id, type_name)))

    def _handle_slowdown_end(
        self, payload, now: float, events: EventQueue
    ) -> None:
        server_id, type_name = payload
        try:
            server = self.cluster.server_by_id(server_id)
        except KeyError:
            return  # died mid-slowdown: nothing to restore, nothing to re-arm
        server.end_slowdown()
        if self._outstanding > 0:
            delay = self.faults.draw_slowdown_delay_ms(type_name, self._fault_rng)
            if delay is not None:
                events.push(
                    Event(now + delay, EventKind.SLOWDOWN_BEGIN, (server_id, type_name))
                )

    def _handle_response_timeout(self, record: QueryRecord, now: float, events: EventQueue) -> None:
        """The response deadline elapsed before the completion: abandon the attempt.

        The server still finishes the work (its local queue drains at the original
        completion time — the client has gone away, the GPU has not), but the
        dispatch is voided and the query retries elsewhere or dead-letters.
        """
        inflight = self._inflight.get(record.server_id)
        if inflight is None or id(record) not in inflight:
            return  # completed, crash-voided, or preempted before the deadline
        if self._void_attempt(record):
            self._fail_attempt(record.query, now, "timeout", events)

    # -- gray-failure injection handlers -------------------------------------------------
    def _handle_degradation_onset(
        self, payload, now: float, scale_log: List[ScaleLogEntry]
    ) -> None:
        server_id, type_name = payload
        try:
            server = self.cluster.server_by_id(server_id)
        except KeyError:
            return  # crashed/decommissioned before the onset
        server.begin_degradation(self.faults[type_name].degradation_factor)
        scale_log.append(
            ScaleLogEntry(now, "degradation_onset", type_name, 1, f"server{server_id}")
        )

    def _handle_flaky_begin(self, payload, now: float, events: EventQueue) -> None:
        server_id, type_name = payload
        try:
            server = self.cluster.server_by_id(server_id)
        except KeyError:
            return
        profile = self.faults[type_name]
        until = now + profile.flaky_duration_ms
        server.begin_slowdown(profile.flaky_factor, until)
        events.push(Event(until, EventKind.FLAKY_END, (server_id, type_name)))

    def _handle_flaky_end(self, payload, now: float, events: EventQueue) -> None:
        server_id, type_name = payload
        try:
            server = self.cluster.server_by_id(server_id)
        except KeyError:
            return
        server.end_slowdown()
        if self._outstanding > 0:
            delay = self.faults.draw_flaky_delay_ms(type_name, self._gray_rng)
            if delay is not None:
                events.push(
                    Event(now + delay, EventKind.FLAKY_BEGIN, (server_id, type_name))
                )

    def _handle_zombie_onset(
        self, payload, now: float, scale_log: List[ScaleLogEntry]
    ) -> None:
        server_id, type_name = payload
        try:
            self.cluster.server_by_id(server_id)
        except KeyError:
            return
        self._zombie_ids.add(server_id)
        scale_log.append(
            ScaleLogEntry(now, "zombie_onset", type_name, 1, f"server{server_id}")
        )

    # -- quarantine lifecycle ------------------------------------------------------------
    def _breaker(self, server_id: int) -> CircuitBreaker:
        return self._breakers.setdefault(server_id, CircuitBreaker())

    def _quarantine_server(
        self,
        server: ServerInstance,
        now: float,
        events: EventQueue,
        ledger: InstanceUsageLedger,
        scale_log: List[ScaleLogEntry],
        reason: str,
    ) -> bool:
        """Open the server's breaker: isolate, bill, notify, probe later.

        Returns True when membership changed.  The probation-liveness guard
        refuses to quarantine the last accepting server of its pool — a fully
        quarantined fleet could never serve the probe traffic that re-admits
        servers, so one (possibly unhealthy) server always stays eligible.
        """
        if server.draining or server.quarantined:
            return False
        accepting = sum(1 for s in self._partition_of(server.server_id) if s.accepting)
        if accepting <= 1:
            return False
        server_id = server.server_id
        breaker = self._breaker(server_id)
        breaker.trip(now)
        server.begin_quarantine()
        scale_log.append(
            ScaleLogEntry(
                now, "quarantine", server.type_name, 1, f"server{server_id}:{reason}"
            )
        )
        self._quarantine_spans[server_id] = ledger.record_span(
            server_id, SPAN_QUARANTINE, now
        )
        # stuck zombie attempts can never complete; abandon them now so their
        # queries re-enter the client path (retry/dead-letter) immediately
        stuck = [
            r
            for r in self._inflight.get(server_id, {}).values()
            if id(r) in self._zombie_attempts
        ]
        for record in stuck:
            self._void_stuck_attempt(record, now, events, "quarantine")
        if self._outstanding > 0:
            observe = getattr(self.controller, "observe_quarantine", None)
            if observe is not None:
                observe(server.type_name, now)
                decision = self.controller.maybe_replan(now)
                if decision is not None:
                    self._forced_replans.append(decision)
                    self._emit_scale_events(decision, now, events)
        events.push(
            Event(
                now + breaker.probation_delay_ms(self.health),
                EventKind.HEALTH_PROBE,
                (server_id, server.type_name),
            )
        )
        return True

    def _handle_health_probe(
        self,
        payload,
        now: float,
        events: EventQueue,
        scale_log: List[ScaleLogEntry],
    ) -> bool:
        """Probation dwell elapsed: breaker half-open, server re-admitted on trial."""
        server_id, type_name = payload
        breaker = self._breakers.get(server_id)
        if breaker is None or breaker.state != BREAKER_OPEN:
            return False
        try:
            server = self.cluster.server_by_id(server_id)
        except KeyError:
            return False  # crashed/decommissioned while quarantined
        if not server.quarantined:
            return False
        breaker.half_open()
        server.end_quarantine()
        span = self._quarantine_spans.pop(server_id, None)
        if span is not None:
            span.end_ms = now
        if self.monitor is not None:
            # fresh trial: old degraded samples must not instantly re-trip
            self.monitor.reset_server(server_id)
        scale_log.append(
            ScaleLogEntry(now, "probation", type_name, 1, f"server{server_id}")
        )
        if self._outstanding > 0:
            observe = getattr(self.controller, "observe_readmit", None)
            if observe is not None:
                observe(type_name, now)
                decision = self.controller.maybe_replan(now)
                if decision is not None:
                    self._forced_replans.append(decision)
                    self._emit_scale_events(decision, now, events)
        return True

    def _void_stuck_attempt(
        self, record: QueryRecord, now: float, events: EventQueue, reason: str
    ) -> None:
        """Abandon an attempt that can never complete (zombie-stuck or overdue)."""
        if self._void_attempt(record):
            self._fail_attempt(record.query, now, reason, events)

    def _handle_health_check(
        self,
        payload,
        now: float,
        events: EventQueue,
        ledger: InstanceUsageLedger,
        scale_log: List[ScaleLogEntry],
    ) -> bool:
        """An attempt's expected completion is overdue: accrue suspicion, isolate.

        Fires only for attempts that never resolved — a genuine completion always
        lands strictly before its check (the grace factor exceeds 1), so this path
        carries zero false positives from queueing delay.  Whether or not the
        breaker trips (the liveness guard may refuse), the overdue attempt itself
        is abandoned so its query re-enters the client path — conservation never
        depends on isolation succeeding.
        """
        record, expected_ms = payload
        if self.monitor is None:
            return False
        inflight = self._inflight.get(record.server_id)
        if inflight is None or id(record) not in inflight:
            return False  # resolved before the check fired
        overdue = now - record.completion_ms
        self.monitor.record_overdue(record.server_id, overdue, expected_ms)
        changed = False
        if self.monitor.is_suspect(record.server_id):
            try:
                server = self.cluster.server_by_id(record.server_id)
            except KeyError:
                server = None
            if server is not None:
                changed = self._quarantine_server(
                    server, now, events, ledger, scale_log, "suspect"
                )
        still = self._inflight.get(record.server_id)
        if still is not None and id(record) in still:
            self._void_stuck_attempt(record, now, events, "overdue")
        return changed

    # -- hedged dispatch -----------------------------------------------------------------
    def _arm_watchdogs(
        self, record: QueryRecord, now: float, completion: float, events: EventQueue
    ) -> None:
        """Arm the overdue health check and (maybe) the hedge timer for one dispatch."""
        if self.monitor is not None:
            expected = max(completion - now, 1e-6)
            events.push(
                Event(
                    now + self.health.overdue_grace_factor * expected,
                    EventKind.HEALTH_CHECK,
                    (record, expected),
                )
            )
        if self.hedges is not None and record.query.query_id not in self._hedge_pairs:
            delay = self.hedges.hedge_delay_ms(record.server_type)
            if delay is not None and (
                id(record) in self._zombie_attempts or completion - now > delay
            ):
                events.push(Event(now + delay, EventKind.HEDGE_TIMER, record))

    def _handle_hedge_timer(
        self, record: QueryRecord, now: float, events: EventQueue
    ) -> None:
        """The attempt outlived its hedge delay: duplicate onto the best idle server."""
        inflight = self._inflight.get(record.server_id)
        if inflight is None or id(record) not in inflight:
            return  # resolved before the timer fired
        qid = record.query.query_id
        if qid in self._hedge_pairs:
            return  # already hedged once
        candidates = [
            s
            for s in self._partition_of(record.server_id).active_servers()
            if s.accepting and s.is_idle(now) and s.server_id != record.server_id
        ]
        if not candidates:
            return  # no eligible idle capacity; the primary keeps its chance
        best = min(
            candidates,
            key=lambda s: (s.profile.latency_ms(record.query.batch_size), s.server_id),
        )
        start, completion, service = best.dispatch(
            record.query, now, noise=self.noise, rng=self.rng
        )
        duplicate = QueryRecord(
            query=record.query,
            server_id=best.server_id,
            server_type=best.type_name,
            start_ms=start,
            completion_ms=completion,
            service_ms=service,
        )
        self._hedge_extra_dispatches += 1
        self.hedges_launched += 1
        self._hedge_pairs[qid] = (record, duplicate)
        # the duplicate gets its own completion and recovery path (a hedge landing
        # on a zombie under timeout-only recovery would otherwise strand the query);
        # the open pair keeps it from being hedged again
        self._track_dispatch(duplicate, now, events)

    def _cancel_hedge_loser(
        self, loser: QueryRecord, now: float, ledger: InstanceUsageLedger
    ) -> None:
        """First completion won the race: cancel the loser, bill its partial work."""
        self._void_attempt(loser)  # resolves the race: the pair is still open
        # partial work: the loser occupied its server from service start (if it
        # started at all) until the cancellation instant
        span_start = min(loser.start_ms, now)
        if now > span_start:
            ledger.record_span(loser.server_id, SPAN_HEDGE, span_start, now)

    def _observe_health(
        self,
        record: QueryRecord,
        server: ServerInstance,
        now: float,
        events: EventQueue,
        ledger: InstanceUsageLedger,
        scale_log: List[ScaleLogEntry],
    ) -> bool:
        """Feed one genuine completion to the hedge/health layers; maybe quarantine."""
        if self.hedges is not None:
            self.hedges.observe(record.server_type, record.service_ms)
        if self.monitor is None:
            return False
        server_id = server.server_id
        breaker = self._breakers.get(server_id)
        if breaker is not None and breaker.state == BREAKER_OPEN:
            # in-flight work finishing behind an open breaker: not probe traffic,
            # and degraded-period samples must not poison the fresh trial
            return False
        if breaker is not None and breaker.state == BREAKER_HALF_OPEN:
            ratio = self.monitor.sample_ratio(
                record.server_type, record.service_ms, record.query.batch_size
            )
            self.monitor.observe_completion(
                server_id, record.server_type, record.service_ms, record.query.batch_size
            )
            if ratio >= self.health.degrade_ratio:
                return self._quarantine_server(
                    server, now, events, ledger, scale_log, "probe_failed"
                )
            breaker.probes_ok += 1
            if breaker.probes_ok >= self.health.probe_successes:
                breaker.close()
                scale_log.append(
                    ScaleLogEntry(
                        now, "breaker_close", record.server_type, 1, f"server{server_id}"
                    )
                )
            return False
        self.monitor.observe_completion(
            server_id, record.server_type, record.service_ms, record.query.batch_size
        )
        if server.accepting and self.monitor.is_degraded(server_id, record.server_type):
            return self._quarantine_server(
                server, now, events, ledger, scale_log, "degraded"
            )
        return False

    # -- event handling -----------------------------------------------------------------
    def _handle(
        self,
        event: Event,
        now: float,
        metrics: ServingMetrics,
        ledger: InstanceUsageLedger,
        scale_log: List[ScaleLogEntry],
        warmup_ids,
        events: EventQueue,
    ) -> Tuple[bool, bool]:
        """Apply one event; returns ``(membership_changed, was_arrival)``.

        The handler comes from the run's table (:meth:`_handler_table`), one
        indexed read instead of a chain of ``EventKind`` comparisons.
        """
        return self._handlers[event.kind](
            self, event, now, metrics, ledger, scale_log, warmup_ids, events
        )

    def _handler_table(self) -> List:
        """Each event kind's handler, indexed by the kind's value.  Built once per
        run from the class's functions: every handler takes the simulation and
        :meth:`_handle`'s arguments and returns its pair.  The table holds no
        reference to the simulation, so the run's objects are freed with it."""
        cls = type(self)
        table = [_ignore_event] * len(EventKind)  # CONTROL and future kinds: no-op
        table[EventKind.SERVICE_COMPLETION] = cls._on_completion
        table[EventKind.QUERY_ARRIVAL] = cls._on_arrival
        table[EventKind.SCALE_UP] = cls._on_scale_up
        table[EventKind.SCALE_DOWN] = cls._on_scale_down
        table[EventKind.INSTANCE_READY] = cls._on_instance_ready
        # the fault, gray-failure and spot handlers, each on the arguments it reads
        warn = EventKind.PREEMPTION_WARNING
        table[warn] = lambda sim, e, now, m, ledger, log, w, q: (
            sim._handle_warning(e.payload, now, q, log),
            False,
        )
        table[EventKind.PREEMPTED] = lambda sim, e, now, m, ledger, log, w, q: (
            sim._handle_kill(e.payload, now, q, ledger, log),
            False,
        )
        table[EventKind.INSTANCE_FAILED] = lambda sim, e, now, m, ledger, log, w, q: (
            sim._handle_instance_failure(e.payload, now, q, ledger, log),
            False,
        )
        table[EventKind.HEALTH_CHECK] = lambda sim, e, now, m, ledger, log, w, q: (
            sim._handle_health_check(e.payload, now, q, ledger, log),
            False,
        )
        table[EventKind.HEALTH_PROBE] = lambda sim, e, now, m, ledger, log, w, q: (
            sim._handle_health_probe(e.payload, now, q, log),
            False,
        )
        for kind, handler in (
            (EventKind.SLOWDOWN_BEGIN, cls._handle_slowdown_begin),
            (EventKind.SLOWDOWN_END, cls._handle_slowdown_end),
            (EventKind.RESPONSE_TIMEOUT, cls._handle_response_timeout),
            (EventKind.FLAKY_BEGIN, cls._handle_flaky_begin),
            (EventKind.FLAKY_END, cls._handle_flaky_end),
            (EventKind.HEDGE_TIMER, cls._handle_hedge_timer),
        ):
            table[kind] = _quiet(handler)
        table[EventKind.DEGRADATION_ONSET] = _quiet(
            cls._handle_degradation_onset, logged=True
        )
        table[EventKind.ZOMBIE_ONSET] = _quiet(cls._handle_zombie_onset, logged=True)
        return table

    def _on_completion(
        self, event, now, metrics, ledger, scale_log, warmup_ids, events
    ) -> Tuple[bool, bool]:
        """A ``SERVICE_COMPLETION``: settle the attempt, record it, learn from it."""
        record: QueryRecord = event.payload
        # Without in-flight tracking nothing can be voided or hedged, so every
        # completion is genuine and that bookkeeping is skipped (the static hot
        # path).
        swallowed = False
        if self._track_inflight:
            # a voided attempt's completion drains the server's local queue (the
            # GPU finished the work) but the client path already moved on
            swallowed = id(record) in self._voided
            if swallowed:
                self._voided.discard(id(record))
                try:
                    self.cluster.server_by_id(record.server_id)
                except KeyError:
                    # the server crashed or was killed: its queue went with it,
                    # and this completion never happened (ids are never reused)
                    return False, False
            else:
                inflight = self._inflight.get(record.server_id)
                if inflight is not None:
                    del inflight[id(record)]
                    if not inflight:
                        del self._inflight[record.server_id]
        server = self.cluster.server_by_id(record.server_id)
        server.complete_one()
        health_changed = False
        if not swallowed:
            if self._outstanding > 1:
                self._outstanding -= 1  # _settle_outstanding's common case
            else:
                self._settle_outstanding(events)
            if record.query.query_id not in warmup_ids:
                metrics.record(record)
                if self.max_violations is not None and not record.meets_qos(
                    self._partition_of(record.server_id).model.qos_ms
                ):
                    self._violations += 1
                if self.admission is not None:
                    self.admission.observe_latency(record.latency_ms)
            self.policy.observe_completion(record)
            if self._track_inflight:
                pair = self._hedge_pairs.get(record.query.query_id)
                if pair is not None:
                    # first genuine completion wins the race; the partner is
                    # cancelled and its partial occupancy billed as hedge cost
                    primary, duplicate = pair
                    if record is duplicate:
                        self.hedge_wins += 1
                        self._cancel_hedge_loser(primary, now, ledger)
                    else:
                        self._cancel_hedge_loser(duplicate, now, ledger)
                health_changed = self._observe_health(
                    record, server, now, events, ledger, scale_log
                )
        if server.drained:
            self.cluster.remove_server(server.server_id)
            ledger.stop(server.server_id, now)
            scale_log.append(
                ScaleLogEntry(now, "decommission", server.type_name, 1)
            )
            return True, False
        return health_changed, False

    def _on_arrival(
        self, event, now, metrics, ledger, scale_log, warmup_ids, events
    ) -> Tuple[bool, bool]:
        """A ``QUERY_ARRIVAL`` event: a re-queue, or an arrival for the controller."""
        query: Query = event.payload
        if query.query_id in self._requeued_ids:
            # a re-queue (preemption or retry backoff), not fresh offered load:
            # it joins the pending queue but must not inflate the controller's
            # arrival-rate estimate
            self._requeued_ids.discard(query.query_id)
            return False, True
        if self.controller is not None:
            self.controller.observe_arrival(query, now)
        return False, True

    def _on_scale_up(
        self, event, now, metrics, ledger, scale_log, warmup_ids, events
    ) -> Tuple[bool, bool]:
        """A ``SCALE_UP``: reserve and bill the instances; each boots after the delay."""
        request: ScaleRequest = event.payload
        model_name = self._request_model(request)
        itype = self._catalog()[request.type_name]
        for _ in range(request.count):
            # billing starts at the request; the instance is schedulable only
            # after the startup delay
            server_id = self._reserve_server_id(model_name)
            self._start_billing(ledger, server_id, itype, now, request)
            self._booting.setdefault((model_name, request.type_name), []).append(
                server_id
            )
            events.push(
                Event(
                    now + self.startup_delay_ms,
                    EventKind.INSTANCE_READY,
                    (server_id, request.type_name, model_name),
                )
            )
        scale_log.append(
            ScaleLogEntry(
                now,
                "scale_up",
                request.type_name,
                request.count,
                self._reason(request.reason, model_name),
            )
        )
        return False, False

    def _on_scale_down(
        self, event, now, metrics, ledger, scale_log, warmup_ids, events
    ) -> Tuple[bool, bool]:
        """A ``SCALE_DOWN``: cancel booting instances first, then drain live ones."""
        request = event.payload
        model_name = self._request_model(request)
        self._catalog()[request.type_name]  # raises on unknown type
        reason = self._reason(request.reason, model_name)
        remaining = request.count
        # cancel still-booting instances first (newest first): they have not
        # served anything, so reversing them is free apart from the boot billing
        booting = self._booting.get((model_name, request.type_name), [])
        while remaining > 0 and booting:
            server_id = booting.pop()
            self._cancelled.add(server_id)
            ledger.stop(server_id, now)
            scale_log.append(
                ScaleLogEntry(now, "cancel_startup", request.type_name, 1, reason)
            )
            remaining -= 1
        victims = (
            self._drain_servers(model_name, request.type_name, remaining, now)
            if remaining > 0
            else []
        )
        changed = False
        for server in victims:
            if server.drained:  # already idle: decommission on the spot
                self.cluster.remove_server(server.server_id)
                ledger.stop(server.server_id, now)
                scale_log.append(
                    ScaleLogEntry(now, "decommission", server.type_name, 1)
                )
            changed = True
        scale_log.append(
            ScaleLogEntry(now, "scale_down", request.type_name, len(victims), reason)
        )
        return changed, False

    def _on_instance_ready(
        self, event, now, metrics, ledger, scale_log, warmup_ids, events
    ) -> Tuple[bool, bool]:
        """An ``INSTANCE_READY``: a booted instance joins (unless cancelled)."""
        server_id, type_name, model_name = event.payload
        if server_id in self._cancelled:
            self._cancelled.discard(server_id)
            return False, False
        booting = self._booting.get((model_name, type_name), [])
        if server_id in booting:
            booting.remove(server_id)
        self._add_server(model_name, type_name, now, server_id)
        scale_log.append(
            ScaleLogEntry(
                now, "instance_ready", type_name, 1, self._reason("", model_name)
            )
        )
        self._arm_fault_timers(server_id, type_name, now, events)
        # a replacement ready after the trace is fully served arms no reclaim
        # timer: it would drag the billing horizon past the work
        if server_id in self._spot_purchases and self._outstanding > 0:
            self._arm_reclaim_timer(server_id, type_name, now, events)
        return True, False

    def _emit_scale_events(
        self, decision: ReplanDecision, now: float, events: EventQueue
    ) -> None:
        for type_name, delta in decision.scale_deltas.items():
            if delta > 0:
                events.push(
                    Event(
                        now,
                        EventKind.SCALE_UP,
                        ScaleRequest(type_name, delta, reason="replan"),
                    )
                )
        # When several types shrink at once, drain the most cost-efficient victims
        # first ($/hr freed per unit of lost QoS-feasible capacity): same-timestamp
        # SCALE_DOWN events process in insertion order, so the priority here decides
        # which types give up booting instances and live servers first.
        shrinking = [name for name, delta in decision.scale_deltas.items() if delta < 0]
        for type_name in scale_down_priority(
            self.cluster.profiles, self.cluster.model, shrinking
        ):
            events.push(
                Event(
                    now,
                    EventKind.SCALE_DOWN,
                    ScaleRequest(
                        type_name, -decision.scale_deltas[type_name], reason="replan"
                    ),
                )
            )

    def _commit(
        self,
        assignments: Sequence[Tuple[Query, int]],
        pending: PendingQueue,
        view: ClusterView,
        now: float,
        events: EventQueue,
    ) -> int:
        noise, rng, push = self.noise, self.rng, events.push
        completion_kind = EventKind.SERVICE_COMPLETION
        size = len(view)
        track = self._track_inflight
        for query, server_idx in assignments:
            if query.query_id not in pending:
                raise ValueError(
                    f"policy assigned query {query.query_id}, which is not pending"
                )
            if not 0 <= server_idx < size:
                raise ValueError(f"policy assigned an unknown server index {server_idx}")
            pending.remove(query.query_id)
            server = view[server_idx]
            start, completion, service = server.dispatch(query, now, noise=noise, rng=rng)
            record = QueryRecord(
                query=query,
                server_id=server.server_id,
                server_type=server.type_name,
                start_ms=start,
                completion_ms=completion,
                service_ms=service,
            )
            if track:
                self._track_dispatch(record, now, events)
            else:
                push(Event(completion, completion_kind, record))
        return len(assignments)

    def _track_dispatch(
        self, record: QueryRecord, now: float, events: EventQueue
    ) -> None:
        """Book one dispatch for voiding, schedule its completion, arm its timers.

        Only runs with in-flight tracking on: without it nothing can void an
        attempt, so there is no zombie, response deadline or watchdog to arm.
        """
        self._inflight.setdefault(record.server_id, {})[id(record)] = record
        completion = record.completion_ms
        zombie = record.server_id in self._zombie_ids
        if zombie:
            # a zombie accepts the dispatch but never emits its completion: the
            # attempt resolves only through a watchdog (health check, response
            # timeout, quarantine void, or a winning hedge partner)
            self._zombie_attempts.add(id(record))
        else:
            events.push(Event(completion, EventKind.SERVICE_COMPLETION, record))
        timeout = self.retry.response_timeout_ms if self.retry is not None else None
        if timeout is not None and (zombie or completion - now > timeout):
            # the deadline will elapse strictly before the completion: arm the
            # abandon timer (never armed when the attempt will make it in time; a
            # zombie attempt never makes it, so it is always armed)
            events.push(Event(now + timeout, EventKind.RESPONSE_TIMEOUT, record))
        if self.monitor is not None or self.hedges is not None:
            self._arm_watchdogs(record, now, completion, events)


def simulate_elastic_serving(
    cluster: Cluster,
    policy,
    queries: Sequence[Query],
    *,
    controller: Optional[ElasticKairosController] = None,
    **kwargs,
) -> ElasticSimulationReport:
    """Build an :class:`ElasticServingSimulation` (``kwargs`` are its options) and run it."""
    sim = ElasticServingSimulation(cluster, policy, controller=controller, **kwargs)
    return sim.run(queries)
