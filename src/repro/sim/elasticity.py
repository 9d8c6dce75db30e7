"""Elastic serving simulation: provisioning events, draining, and online re-planning.

:class:`ElasticServingSimulation` generalizes :class:`~repro.sim.simulation.ServingSimulation`
to clusters whose membership changes mid-run.  Everything — arrivals, completions, and
the new provisioning events — flows through one :class:`~repro.sim.engine.EventQueue`
under the existing ordering contract (completions before arrivals at equal
timestamps), so elastic runs are exactly as deterministic as static ones.

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

Scheduling happens on an index-stable :class:`~repro.sim.cluster.ClusterView` of the
currently accepting servers, rebuilt (and the policy re-bound) whenever membership
changes, so existing policies work unmodified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.cloud.billing import SPAN_HEDGE, SPAN_QUARANTINE, InstanceUsageLedger
from repro.core.controller import ElasticKairosController, ReplanDecision
from repro.sim.cluster import Cluster, ClusterView
from repro.sim.engine import EventQueue, SimulationClock, no_progress_error, step_budget
from repro.sim.events import CrashStorm, Event, EventKind, ScaleRequest
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
    kind: str  # "scale_up" | "scale_down" | "instance_ready" | "decommission"
    type_name: str
    count: int
    reason: str = ""


@dataclass
class ElasticSimulationReport:
    """Everything an elastic serving run produced."""

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

    @property
    def quarantine_events(self) -> int:
        """Breaker trips (quarantines) that fired during the run."""
        return sum(e.count for e in self.scale_log if e.kind == "quarantine")

    @property
    def completed_all(self) -> bool:
        return self.dispatched_queries == self.total_queries

    @property
    def instance_failures(self) -> int:
        """Unannounced instance crashes that fired during the run."""
        return sum(e.count for e in self.scale_log if e.kind == "instance_failed")

    def total_cost(self) -> float:
        """Dollar spend over the whole run (ledger integral to the run's end)."""
        return self.ledger.total_cost(self.billing_horizon_ms)

    def summary(self) -> Dict[str, float]:
        data = dict(self.metrics.summary())
        data["scheduling_rounds"] = float(self.scheduling_rounds)
        data["simulated_duration_ms"] = self.simulated_duration_ms
        data["num_replans"] = float(len(self.replans))
        data["total_cost"] = self.total_cost()
        data["peak_instances"] = float(self.peak_instances)
        return data


class ElasticServingSimulation:
    """Serve a query stream on a cluster that can grow and shrink mid-run.

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
    """

    def __init__(
        self,
        cluster: Cluster,
        policy,
        *,
        controller: Optional[ElasticKairosController] = None,
        qos_ms: Optional[float] = None,
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
        self.qos_ms = float(qos_ms) if qos_ms is not None else cluster.model.qos_ms
        self.qos_percentile = float(qos_percentile)
        self.startup_delay_ms = float(startup_delay_ms)
        self.noise = noise
        self.rng = ensure_rng(rng)
        self.warmup_queries = int(warmup_queries)
        self.faults = faults
        self._fault_rng = ensure_rng(fault_rng)
        self.retry = retry
        self.admission = admission
        #: drive the run off a ShardedEventQueue (per-kind shards); byte-identical
        #: to the single-heap path (see repro.sim.sharding)
        self.sharded_events = bool(sharded_events)
        # -- shared chaos/preemption machinery (subclasses reuse all of it) ------------
        #: per-server records dispatched but not yet completed (the voiding source)
        self._inflight: Dict[int, List[QueryRecord]] = {}
        #: object ids of records whose server crashed/was killed (completions are void)
        self._killed: Set[int] = set()
        #: object ids of records abandoned at their response deadline
        self._timed_out: Set[int] = set()
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
        #: so void paths must not expect one (unlike _killed/_timed_out bookkeeping)
        self._zombie_attempts: Set[int] = set()
        #: object ids of cancelled attempts whose queued completion must be silently
        #: absorbed (local queue popped, no metrics) — hedge losers, stuck-voids
        self._absorbed: Set[int] = set()
        #: query id -> (primary, duplicate) of an unresolved hedge race
        self._hedge_pairs: Dict[int, Tuple[QueryRecord, QueryRecord]] = {}
        #: open quarantine attribution spans per server id
        self._quarantine_spans: Dict[int, object] = {}
        #: hedge dispatches (not routed through _commit's counter)
        self._hedge_extra_dispatches = 0
        self.hedges_launched = 0
        self.hedges_cancelled = 0
        self.hedge_wins = 0
        #: whether dispatches must be tracked for voiding (crash or timeout possible)
        self._track_inflight = (
            faults is not None
            or (retry is not None and retry.response_timeout_ms is not None)
            or health is not None
            or hedge is not None
        )
        self.scripted_events = tuple(scripted_events)
        for event in self.scripted_events:
            self._validate_scripted(event)
        check_serving_inputs(
            (),
            (cluster.model.name,),
            self.scripted_events,
            cluster.config.catalog,
        )
        self._ran = False

    def _validate_scripted(self, event: Event) -> None:
        """Reject unsupported scripted events (subclasses widen the accepted kinds)."""
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

    def run(self, queries: Sequence[Query]) -> ElasticSimulationReport:
        """Serve ``queries`` once.  Unlike :class:`~repro.sim.simulation.ServingSimulation`
        this driver is one-shot: a run permanently mutates cluster membership and the
        controller's observation history, so repeat runs must build fresh objects."""
        if self._ran:
            raise RuntimeError(
                "ElasticServingSimulation is one-shot: cluster membership and "
                "controller state are consumed by run(); build a fresh simulation "
                "(and controller) for another run"
            )
        self._ran = True
        check_serving_inputs(queries, (self.cluster.model.name,))
        # An empty stream is a valid no-op: zero offered load serves zero queries
        # with empty metrics (scripted provisioning events still apply).
        ordered = sorted(queries, key=lambda q: (q.arrival_time_ms, q.query_id))
        n = len(ordered)
        self._outstanding = n
        self.cluster.reset()
        metrics = ServingMetrics(self.qos_ms, self.qos_percentile)
        scale_log: List[ScaleLogEntry] = []
        replans: List[ReplanDecision] = []

        clock = SimulationClock(0.0)
        if self.sharded_events:
            from repro.sim.sharding import ShardedEventQueue, shard_key_by_kind

            events = ShardedEventQueue(shard_key_by_kind)
        else:
            events = EventQueue()
        for q in ordered:
            events.push(Event(q.arrival_time_ms, EventKind.QUERY_ARRIVAL, q))
        events.push_all(self.scripted_events)
        ledger = InstanceUsageLedger(self.cluster.config.catalog)
        self._open_initial_billing(ledger, events)
        self._arm_initial_faults(events)

        pending = PendingQueue()
        warmup_ids = {q.query_id for q in ordered[: self.warmup_queries]}
        # Scale-ups in flight: reserved ids per type that have not fired INSTANCE_READY
        # yet.  A scale-down cancels these (newest first) before draining live servers,
        # so a replan reversing a recent scale-up cannot strand booting instances.
        self._booting: Dict[str, List[int]] = {}
        self._cancelled: set = set()
        dispatched = 0
        rounds = 0
        peak = len(self.cluster)
        view = self.cluster.active_view()
        self.policy.bind(view, self.qos_ms)
        max_steps = step_budget(n, self.retry)
        steps = 0

        while events:
            steps += 1
            if steps > max_steps:
                raise no_progress_error(
                    self.policy, max_steps, clock.now_ms, pending, events
                )
            now = clock.advance_to(events.peek_time())
            membership_changed = False
            saw_arrival = False

            # Drain the whole timestamp batch; handlers may push follow-up events at
            # `now` (a replan's scale requests), which the inner loop picks up before
            # the scheduling round so new decisions act in the same instant.
            batch = events.pop_batch(now)
            while batch:
                for event in batch:
                    kind_changed, kind_arrival = self._handle(
                        event, now, metrics, ledger, scale_log, warmup_ids, events
                    )
                    membership_changed = membership_changed or kind_changed
                    saw_arrival = saw_arrival or kind_arrival
                    if kind_arrival:
                        pending.append(event.payload)
                # The controller reacts right after the arrivals of this instant are
                # observed — the one-shot re-plan (Fig. 12) happens inside the event
                # loop, not between runs.  Replan BEFORE re-popping: the decision's
                # same-instant scale events must land in the next inner batch, or an
                # empty re-pop would strand them past this round and the outer loop
                # would re-wake at the same `now` for a duplicate scheduling round.
                if saw_arrival and self.controller is not None:
                    decision = self.controller.maybe_replan(now)
                    if decision is not None:
                        replans.append(decision)
                        self._emit_scale_events(decision, now, events)
                    saw_arrival = False
                batch = events.pop_batch(now)

            if membership_changed:
                view = self.cluster.active_view()
                # A fully drained fleet leaves nothing to bind or schedule; queries
                # wait centrally until an INSTANCE_READY brings capacity back (the
                # next membership change re-binds).
                if len(view):
                    self.policy.bind(view, self.qos_ms)
                peak = max(peak, len(self.cluster))

            # scheduling round over the accepting servers (behind the admission valve)
            if pending and len(view):
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
                and not self._zombie_attempts
                and (not events or events.only_kinds(self._idle_timer_kinds()))
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
        return ElasticSimulationReport(
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
        )

    # -- subclass hooks -----------------------------------------------------------------
    # The preemption simulator (repro.sim.preemption) extends the lifecycle through
    # these hooks instead of forking the event loop; all defaults reproduce the
    # pre-spot behaviour exactly (locked down by the seed-stability suite).
    def _open_initial_billing(self, ledger: InstanceUsageLedger, events: EventQueue) -> None:
        """Open billing for the initial fleet (``events`` lets subclasses arm timers)."""
        for server in self.cluster:
            ledger.start(server.server_id, server.instance_type, 0.0)

    def _start_billing(
        self,
        ledger: InstanceUsageLedger,
        server_id: int,
        itype,
        now: float,
        request: ScaleRequest,
    ) -> None:
        """Open billing for one scale-up instance (subclasses price by market)."""
        ledger.start(server_id, itype, now)

    def _after_instance_ready(
        self, server_id: int, type_name: str, now: float, events: EventQueue
    ) -> None:
        """Called once a provisioned instance joins the schedulable set."""
        self._arm_fault_timers(server_id, type_name, now, events)

    def _after_dispatch(self, record: QueryRecord) -> None:
        """Called for every committed dispatch, before its completion is scheduled."""
        if self._track_inflight:
            self._inflight.setdefault(record.server_id, []).append(record)

    def _market_label(self, server_id: int) -> str:
        """Purchase market of a crashed instance's like-for-like replacement."""
        return "on-demand"

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
        """Event kinds that must not outlive the workload (subclasses widen)."""
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
        return kinds

    def _settle_outstanding(self, events: EventQueue) -> None:
        """One query reached a terminal outcome; at zero, drop lingering timers.

        Pending fault/timeout (and, in subclasses, reclaim) timers must not keep the
        run — and therefore every instance's billing — alive once the trace is fully
        settled, exactly like a chaos-free run ending with its last completion.
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
        on outstanding work so the replacement chain cannot outlive the trace.
        """
        server_id = server.server_id
        self.cluster.remove_server(server_id)
        ledger.stop(server_id, now, failed=True)
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
                            market=self._market_label(server_id),
                        ),
                    )
                )
        voided = self._inflight.pop(server_id, [])
        for record in voided:
            # void the scheduled completion; the attempt failed with no warning, so
            # it goes through the retry/dead-letter account (unlike the announced
            # preemption path, which re-queues unconditionally)
            if id(record) in self._zombie_attempts:
                # a zombie attempt has no completion event to void
                self._zombie_attempts.discard(id(record))
            else:
                self._killed.add(id(record))
            self._voided_dispatches += 1
            pair = self._hedge_pairs.pop(record.query.query_id, None)
            if pair is not None:
                # the surviving hedge attempt still serves this query; the crash
                # resolved the race instead of failing the client path
                self.hedges_cancelled += 1
                continue
            self._fail_attempt(record.query, now, "crash", events)
        if voided:
            scale_log.append(
                ScaleLogEntry(now, "void_inflight", server.type_name, len(voided), reason)
            )
        # drop gray-failure state for the dead server
        if self.monitor is not None:
            self.monitor.forget(server_id)
        span = self._quarantine_spans.pop(server_id, None)
        if span is not None:
            span.end_ms = now  # the failed interval takes the whole cost anyway
        self._zombie_ids.discard(server_id)
        self._breakers.pop(server_id, None)
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
        if inflight is None or record not in inflight:
            return  # completed, crash-voided, or preempted before the deadline
        inflight.remove(record)
        if not inflight:
            del self._inflight[record.server_id]
        if id(record) in self._zombie_attempts:
            # a zombie attempt has no completion event to swallow
            self._zombie_attempts.discard(id(record))
        else:
            self._timed_out.add(id(record))
        self._voided_dispatches += 1
        pair = self._hedge_pairs.pop(record.query.query_id, None)
        if pair is not None:
            # the partner attempt is still in flight and will serve the query; the
            # timeout resolved the hedge race instead of failing the client path
            self.hedges_cancelled += 1
            return
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

    def _quarantine_pool(self, server: ServerInstance) -> List[ServerInstance]:
        """The capacity pool the liveness guard counts (subclasses scope per model)."""
        return list(self.cluster)

    def _hedge_targets(self, record: QueryRecord) -> List[ServerInstance]:
        """Candidate servers for a hedge duplicate (subclasses scope per model)."""
        return self.cluster.active_servers()

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
        accepting = sum(1 for s in self._quarantine_pool(server) if s.accepting)
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
            for r in self._inflight.get(server_id, ())
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
        inflight = self._inflight.get(record.server_id)
        if inflight is not None and record in inflight:
            inflight.remove(record)
            if not inflight:
                del self._inflight[record.server_id]
        self._voided_dispatches += 1
        if id(record) in self._zombie_attempts:
            self._zombie_attempts.discard(id(record))
        else:
            self._absorbed.add(id(record))
        pair = self._hedge_pairs.pop(record.query.query_id, None)
        if pair is not None:
            # the partner attempt still serves the query
            self.hedges_cancelled += 1
            return
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
        if inflight is None or record not in inflight:
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
        if still is not None and record in still:
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
        if inflight is None or record not in inflight:
            return  # resolved before the timer fired
        qid = record.query.query_id
        if qid in self._hedge_pairs:
            return  # already hedged once
        candidates = [
            s
            for s in self._hedge_targets(record)
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
        self._after_dispatch(duplicate)
        self._hedge_extra_dispatches += 1
        self.hedges_launched += 1
        self._hedge_pairs[qid] = (record, duplicate)
        if best.server_id in self._zombie_ids:
            self._zombie_attempts.add(id(duplicate))
        else:
            events.push(Event(completion, EventKind.SERVICE_COMPLETION, duplicate))
        timeout = self.retry.response_timeout_ms if self.retry is not None else None
        if timeout is not None and (
            best.server_id in self._zombie_ids or completion - now > timeout
        ):
            # the duplicate needs its own recovery path: without it, a hedge
            # landing on a zombie under timeout-only recovery strands the query
            events.push(Event(now + timeout, EventKind.RESPONSE_TIMEOUT, duplicate))
        if self.monitor is not None:
            expected = max(completion - now, 1e-6)
            events.push(
                Event(
                    now + self.health.overdue_grace_factor * expected,
                    EventKind.HEALTH_CHECK,
                    (duplicate, expected),
                )
            )

    def _cancel_hedge_loser(
        self, loser: QueryRecord, now: float, ledger: InstanceUsageLedger
    ) -> None:
        """First completion won the race: cancel the loser, bill its partial work."""
        inflight = self._inflight.get(loser.server_id)
        if inflight is not None and loser in inflight:
            inflight.remove(loser)
            if not inflight:
                del self._inflight[loser.server_id]
        self._voided_dispatches += 1
        self.hedges_cancelled += 1
        if id(loser) in self._zombie_attempts:
            self._zombie_attempts.discard(id(loser))
        else:
            self._absorbed.add(id(loser))
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
        """Apply one event; returns ``(membership_changed, was_arrival)``."""
        if event.kind == EventKind.SERVICE_COMPLETION:
            record: QueryRecord = event.payload
            if id(record) in self._killed:
                # the server died mid-service; the attempt was voided and this
                # completion never happened
                self._killed.discard(id(record))
                return False, False
            timed_out = id(record) in self._timed_out
            absorbed = id(record) in self._absorbed
            # a swallowed completion drains the server's local queue (the GPU
            # finished the work) but the client path already moved on — timeout
            # abandonments and cancelled hedge/stuck attempts alike
            swallowed = timed_out or absorbed
            if swallowed:
                self._timed_out.discard(id(record))
                self._absorbed.discard(id(record))
                try:
                    self.cluster.server_by_id(record.server_id)
                except KeyError:
                    # The abandoned attempt's server crashed after the timeout
                    # (the crash could not void the record: the timeout had
                    # already pulled it out of the in-flight set), so this
                    # phantom completion has no server left to account against.
                    return False, False
            else:
                inflight = self._inflight.get(record.server_id)
                if inflight is not None:
                    inflight.remove(record)
                    if not inflight:
                        del self._inflight[record.server_id]
                self._settle_outstanding(events)
            server = self.cluster.server_by_id(record.server_id)
            server.complete_one()
            health_changed = False
            if not swallowed:
                pair = self._hedge_pairs.pop(record.query.query_id, None)
                if pair is not None:
                    # first genuine completion wins the race; the partner is
                    # cancelled and its partial occupancy billed as hedge cost
                    primary, duplicate = pair
                    if record is duplicate:
                        self.hedge_wins += 1
                        self._cancel_hedge_loser(primary, now, ledger)
                    else:
                        self._cancel_hedge_loser(duplicate, now, ledger)
                if record.query.query_id not in warmup_ids:
                    metrics.record(record)
                    if self.admission is not None:
                        self.admission.observe_latency(record.latency_ms)
                self.policy.observe_completion(record)
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

        if event.kind == EventKind.QUERY_ARRIVAL:
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

        if event.kind == EventKind.INSTANCE_FAILED:
            return (
                self._handle_instance_failure(event.payload, now, events, ledger, scale_log),
                False,
            )

        if event.kind == EventKind.SLOWDOWN_BEGIN:
            self._handle_slowdown_begin(event.payload, now, events)
            return False, False

        if event.kind == EventKind.SLOWDOWN_END:
            self._handle_slowdown_end(event.payload, now, events)
            return False, False

        if event.kind == EventKind.RESPONSE_TIMEOUT:
            self._handle_response_timeout(event.payload, now, events)
            return False, False

        if event.kind == EventKind.DEGRADATION_ONSET:
            self._handle_degradation_onset(event.payload, now, scale_log)
            return False, False

        if event.kind == EventKind.FLAKY_BEGIN:
            self._handle_flaky_begin(event.payload, now, events)
            return False, False

        if event.kind == EventKind.FLAKY_END:
            self._handle_flaky_end(event.payload, now, events)
            return False, False

        if event.kind == EventKind.ZOMBIE_ONSET:
            self._handle_zombie_onset(event.payload, now, scale_log)
            return False, False

        if event.kind == EventKind.HEALTH_CHECK:
            return (
                self._handle_health_check(event.payload, now, events, ledger, scale_log),
                False,
            )

        if event.kind == EventKind.HEALTH_PROBE:
            return (
                self._handle_health_probe(event.payload, now, events, scale_log),
                False,
            )

        if event.kind == EventKind.HEDGE_TIMER:
            self._handle_hedge_timer(event.payload, now, events)
            return False, False

        if event.kind == EventKind.SCALE_UP:
            request: ScaleRequest = event.payload
            itype = self.cluster.config.catalog[request.type_name]
            for _ in range(request.count):
                # billing starts at the request; the instance is schedulable only
                # after the startup delay
                server_id = self.cluster.reserve_server_id()
                self._start_billing(ledger, server_id, itype, now, request)
                self._booting.setdefault(request.type_name, []).append(server_id)
                events.push(
                    Event(
                        now + self.startup_delay_ms,
                        EventKind.INSTANCE_READY,
                        (server_id, request.type_name),
                    )
                )
            scale_log.append(
                ScaleLogEntry(now, "scale_up", request.type_name, request.count, request.reason)
            )
            return False, False

        if event.kind == EventKind.SCALE_DOWN:
            request = event.payload
            self.cluster.config.catalog[request.type_name]  # raises on unknown type
            remaining = request.count
            # cancel still-booting instances first (newest first): they have not
            # served anything, so reversing them is free apart from the boot billing
            booting = self._booting.get(request.type_name, [])
            while remaining > 0 and booting:
                server_id = booting.pop()
                self._cancelled.add(server_id)
                ledger.stop(server_id, now)
                scale_log.append(
                    ScaleLogEntry(now, "cancel_startup", request.type_name, 1, request.reason)
                )
                remaining -= 1
            victims = (
                self.cluster.drain_servers(request.type_name, remaining, now)
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
                ScaleLogEntry(
                    now, "scale_down", request.type_name, len(victims), request.reason
                )
            )
            return changed, False

        if event.kind == EventKind.INSTANCE_READY:
            server_id, type_name = event.payload
            if server_id in self._cancelled:
                self._cancelled.discard(server_id)
                return False, False
            booting = self._booting.get(type_name, [])
            if server_id in booting:
                booting.remove(server_id)
            self.cluster.add_server(type_name, now_ms=now, server_id=server_id)
            scale_log.append(ScaleLogEntry(now, "instance_ready", type_name, 1))
            self._after_instance_ready(server_id, type_name, now, events)
            return True, False

        return False, False  # CONTROL and future kinds: no-op

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
        count = 0
        for query, server_idx in assignments:
            if query.query_id not in pending:
                raise ValueError(
                    f"policy assigned query {query.query_id}, which is not pending"
                )
            if not 0 <= server_idx < len(view):
                raise ValueError(f"policy assigned an unknown server index {server_idx}")
            pending.remove(query.query_id)
            server = view[server_idx]
            start, completion, service = server.dispatch(
                query, now, noise=self.noise, rng=self.rng
            )
            record = QueryRecord(
                query=query,
                server_id=server.server_id,
                server_type=server.type_name,
                start_ms=start,
                completion_ms=completion,
                service_ms=service,
            )
            self._after_dispatch(record)
            zombie = server.server_id in self._zombie_ids
            if zombie:
                # a zombie accepts the dispatch but never emits its completion:
                # the attempt resolves only through a watchdog (health check,
                # response timeout, quarantine void, or a winning hedge partner)
                self._zombie_attempts.add(id(record))
            else:
                events.push(Event(completion, EventKind.SERVICE_COMPLETION, record))
            timeout = self.retry.response_timeout_ms if self.retry is not None else None
            if timeout is not None and (zombie or completion - now > timeout):
                # the deadline will elapse strictly before the completion: arm the
                # abandon timer (never armed when the attempt will make it in time;
                # a zombie attempt never makes it, so it is always armed)
                events.push(Event(now + timeout, EventKind.RESPONSE_TIMEOUT, record))
            if self.monitor is not None or self.hedges is not None:
                self._arm_watchdogs(record, now, completion, events)
            count += 1
        return count


def simulate_elastic_serving(
    cluster: Cluster,
    policy,
    queries: Sequence[Query],
    *,
    controller: Optional[ElasticKairosController] = None,
    **kwargs,
) -> ElasticSimulationReport:
    """Convenience wrapper mirroring :func:`~repro.sim.simulation.simulate_serving`."""
    sim = ElasticServingSimulation(cluster, policy, controller=controller, **kwargs)
    return sim.run(queries)
