"""Multi-model serving: N co-located models, one event loop, one shared budget.

:class:`MultiModelServingSimulation` generalizes
:class:`~repro.sim.elasticity.ElasticServingSimulation` to a
:class:`~repro.sim.cluster.MultiModelCluster`: arrivals are tagged with the model they
target, scheduling rounds run over the *union* of pending queries and every partition's
accepting instances (the policy sees a
:class:`~repro.sim.cluster.MultiModelClusterView`), metrics aggregate per model against
per-model QoS targets, and the billing ledger tags every instance with its model so
spend is attributable per tenant.

Everything flows through the same :class:`~repro.sim.engine.EventQueue` ordering
contract as the single-model simulators; with exactly one registered model the run is
event-for-event identical to the single-model elastic path (locked down by the golden
and seed-stability tests).

Elasticity carries over: ``SCALE_UP`` / ``SCALE_DOWN`` requests name the model
partition they target, and an optional
:class:`~repro.core.controller.MultiModelElasticController` re-plans the *joint*
allocation of all models under the shared budget.  When a re-plan shrinks several
(model, type) pairs at once, scale-downs are emitted most-cost-efficient-first (the
same $/hr-per-capacity rule as :func:`~repro.sim.elasticity.scale_down_priority`).

Maintenance note: the event loop, handlers, and commit path deliberately mirror
:class:`~repro.sim.elasticity.ElasticServingSimulation` statement for statement (the
single-model loop stays untouched so its seed behaviour cannot drift); a semantic fix
in either loop must be mirrored in the other, and the byte-identity suite
(``test_multi_model.py::TestSingleModelByteIdentity``) fails if they diverge on the
shared single-model behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.cloud.billing import SPAN_HEDGE, SPAN_QUARANTINE, InstanceUsageLedger
from repro.sim.cluster import MultiModelCluster, MultiModelClusterView
from repro.sim.elasticity import ScaleLogEntry, drain_cost_efficiency
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
from repro.sim.metrics import MultiModelServingMetrics, QueryRecord
from repro.sim.pending import PendingQueue
from repro.sim.server import ServiceNoiseModel
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_non_negative
from repro.workload.query import Query, check_serving_inputs


@dataclass
class MultiModelSimulationReport:
    """Everything a multi-model serving run produced."""

    metrics: MultiModelServingMetrics
    cluster: MultiModelCluster
    ledger: InstanceUsageLedger
    policy_name: str
    scheduling_rounds: int
    dispatched_queries: int
    total_queries: int
    simulated_duration_ms: float
    billing_horizon_ms: float = 0.0
    replans: List = field(default_factory=list)
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
        """Dollar spend over the whole run (all models combined)."""
        return self.ledger.total_cost(self.billing_horizon_ms)

    def cost_by_model(self) -> Dict[str, float]:
        """Per-model attributed spend; sums to :meth:`total_cost` (ledger tags)."""
        by_tag = self.ledger.cost_by_tag(self.billing_horizon_ms)
        return {name: cost for name, cost in by_tag.items() if name is not None}

    def all_meet_qos(self) -> bool:
        return self.metrics.all_meet_qos()

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-model metric summaries plus run-level totals under ``"__run__"``."""
        data: Dict[str, Dict[str, float]] = dict(self.metrics.summary())
        cost_by_model = self.cost_by_model()
        for name in cost_by_model:
            data[name] = dict(data.get(name, {}))
            data[name]["attributed_cost"] = cost_by_model[name]
        data["__run__"] = {
            "scheduling_rounds": float(self.scheduling_rounds),
            "simulated_duration_ms": self.simulated_duration_ms,
            "num_replans": float(len(self.replans)),
            "total_cost": self.total_cost(),
            "peak_instances": float(self.peak_instances),
        }
        return data


class MultiModelServingSimulation:
    """Serve an interleaved multi-model query stream on one co-located cluster.

    Parameters mirror :class:`~repro.sim.elasticity.ElasticServingSimulation`; the
    policy must understand a :class:`~repro.sim.cluster.MultiModelClusterView`
    (:class:`~repro.schedulers.kairos_policy.MultiModelKairosPolicy` is the reference
    implementation).  Scripted scale events and controller decisions address model
    partitions via ``ScaleRequest.model_name`` (``None`` is only legal with a single
    registered model).  Like the elastic simulator this driver is one-shot.
    """

    def __init__(
        self,
        cluster: MultiModelCluster,
        policy,
        *,
        controller=None,
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
        #: drive the run off per-model sharded event/pending queues; byte-identical
        #: to the single-heap path (see repro.sim.sharding)
        self.sharded_events = bool(sharded_events)
        self.controller = controller
        self.qos_percentile = float(qos_percentile)
        self.startup_delay_ms = float(startup_delay_ms)
        self.noise = noise
        self.rng = ensure_rng(rng)
        self.warmup_queries = int(warmup_queries)
        self.faults = faults
        self._fault_rng = ensure_rng(fault_rng)
        self.retry = retry
        self.admission = admission
        # chaos machinery, mirroring repro.sim.elasticity statement for statement
        self._inflight: Dict[int, List[QueryRecord]] = {}
        self._killed: Set[int] = set()
        self._timed_out: Set[int] = set()
        self._requeued_ids: Set[int] = set()
        self._attempt_failures: Dict[int, int] = {}
        self._outstanding = 0
        self._voided_dispatches = 0
        self._retries = 0
        self.dead_letters: List[DeadLetterEntry] = []
        self.shed_queries: List[ShedEntry] = []
        # gray-failure machinery, mirroring repro.sim.elasticity statement for
        # statement (health scoring, breakers, hedging)
        self.health = health
        self.monitor = ServerHealthMonitor(health) if health is not None else None
        self.hedge = hedge
        self.hedges = HedgeManager(hedge) if hedge is not None else None
        self._gray_rng = ensure_rng(gray_rng)
        self._breakers: Dict[int, CircuitBreaker] = {}
        self._zombie_ids: Set[int] = set()
        self._zombie_attempts: Set[int] = set()
        self._absorbed: Set[int] = set()
        self._hedge_pairs: Dict[int, Tuple[QueryRecord, QueryRecord]] = {}
        self._quarantine_spans: Dict[int, object] = {}
        self._hedge_extra_dispatches = 0
        self.hedges_launched = 0
        self.hedges_cancelled = 0
        self.hedge_wins = 0
        self._track_inflight = (
            faults is not None
            or (retry is not None and retry.response_timeout_ms is not None)
            or health is not None
            or hedge is not None
        )
        self.scripted_events = tuple(scripted_events)
        for event in self.scripted_events:
            if event.kind == EventKind.INSTANCE_FAILED:
                if not isinstance(event.payload, CrashStorm):
                    raise ValueError(
                        "scripted instance failures must carry a CrashStorm payload"
                    )
                if self.faults is None:
                    raise ValueError("scripted crash storms require a FaultInjector")
                continue
            if event.kind not in (EventKind.SCALE_UP, EventKind.SCALE_DOWN):
                raise ValueError("scripted events must be SCALE_UP or SCALE_DOWN")
            if not isinstance(event.payload, ScaleRequest):
                raise ValueError("scripted scale events must carry a ScaleRequest payload")
        check_serving_inputs(
            (),
            cluster.model_names,
            self.scripted_events,
            cluster.profiles.catalog,
        )
        self._ran = False

    # -- helpers -----------------------------------------------------------------------
    def _input_stream(self, queries: Sequence[Query]) -> Sequence[Query]:
        """Every query the run will admit, for the up-front input check."""
        return queries

    def _request_model(self, request: ScaleRequest) -> str:
        """Resolve the model a scale request targets (sole-model fallback)."""
        if request.model_name is not None:
            self.cluster.cluster_of(request.model_name)  # raises on unknown model
            return request.model_name
        names = self.cluster.model_names
        if len(names) != 1:
            raise ValueError(
                f"scale request for type {request.type_name!r} carries no model tag "
                f"but {len(names)} models are co-located"
            )
        return names[0]

    def run(self, queries: Sequence[Query]) -> MultiModelSimulationReport:
        """Serve ``queries`` once (one-shot, like the elastic simulator)."""
        if self._ran:
            raise RuntimeError(
                "MultiModelServingSimulation is one-shot: cluster membership and "
                "controller state are consumed by run(); build fresh objects for "
                "another run"
            )
        self._ran = True
        # An empty stream is a valid no-op: zero offered load serves zero queries
        # with empty metrics (scripted provisioning events still apply).
        check_serving_inputs(self._input_stream(queries), self.cluster.model_names)
        ordered = sorted(queries, key=lambda q: (q.arrival_time_ms, q.query_id))
        n = len(ordered)
        self._outstanding = n
        self.cluster.reset()
        metrics = MultiModelServingMetrics(
            self.cluster.qos_by_model(), self.qos_percentile
        )
        ledger = InstanceUsageLedger(self.cluster.profiles.catalog)
        for name in self.cluster.model_names:
            for server in self.cluster.cluster_of(name):
                ledger.start(server.server_id, server.instance_type, 0.0, tag=name)
        scale_log: List[ScaleLogEntry] = []
        replans: List = []

        clock = SimulationClock(0.0)
        if self.sharded_events:
            from repro.sim.sharding import (
                ShardedEventQueue,
                ShardedPendingQueue,
                shard_key_by_model,
            )

            events = ShardedEventQueue(shard_key_by_model)
            pending = ShardedPendingQueue()
        else:
            events = EventQueue()
            pending = PendingQueue()
        for q in ordered:
            events.push(Event(q.arrival_time_ms, EventKind.QUERY_ARRIVAL, q))
        events.push_all(self.scripted_events)
        if self.faults is not None and self._outstanding > 0:
            for server in self.cluster:
                self._arm_fault_timers(server.server_id, server.type_name, 0.0, events)
        # Warm-up is per model: each model's online learner has its own cold start, so
        # the first `warmup_queries` arrivals *of each model* are excluded from metrics
        # (with one model this reduces to the single-model prefix rule).
        warmup_ids = set()
        if self.warmup_queries:
            seen: Dict[Optional[str], int] = {}
            for q in ordered:
                count = seen.get(q.model_name, 0)
                if count < self.warmup_queries:
                    warmup_ids.add(q.query_id)
                    seen[q.model_name] = count + 1
        # (model, type) -> reserved ids of instances still booting (see elasticity.py)
        self._booting: Dict[Tuple[str, str], List[int]] = {}
        self._cancelled: set = set()
        dispatched = 0
        rounds = 0
        peak = len(self.cluster)
        view = self.cluster.active_view()
        self.policy.bind(view)
        max_steps = step_budget(n, self.retry)
        steps = 0
        # fixed for the run: every input (faults, retry, monitor, hedges, a
        # subclass's market) is set at construction
        idle_kinds = frozenset(self._idle_timer_kinds())

        while events:
            steps += 1
            if steps > max_steps:
                raise no_progress_error(
                    self.policy, max_steps, clock.now_ms, pending, events
                )
            now = clock.advance_to(events.peek_time())
            membership_changed = False
            saw_arrival = False

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
                # Replan before re-popping so the decision's same-instant scale
                # events join the next inner batch instead of stranding past this
                # round (which would re-wake the outer loop at the same `now` for a
                # duplicate scheduling round — see the elastic loop).
                if saw_arrival and self.controller is not None:
                    decision = self.controller.maybe_replan(now)
                    if decision is not None:
                        replans.append(decision)
                        self._emit_scale_events(decision, now, events)
                    saw_arrival = False
                batch = events.pop_batch(now)

            if membership_changed:
                view = self.cluster.active_view()
                if len(view):
                    self.policy.bind(view)
                peak = max(peak, len(self.cluster))

            if pending and len(view):
                admitted = self._admit(pending, now, events)
                if admitted:
                    assignments = self.policy.schedule(now, admitted, view)
                    rounds += 1
                    if assignments:
                        dispatched += self._commit(
                            assignments, pending, view, now, events
                        )

            # Recurring fault timers are not "something to fire" here: once every
            # queued event is a hazard timer, no completion, arrival, boot, or scale
            # action is in flight, so nothing the timers do to an idle fleet can
            # serve a backlog the policy already declined — the run has quiesced
            # exactly like the chaos-free case.  A zombie-held attempt breaks that
            # reasoning: it is in flight with NO completion queued, and its recovery
            # watchdog (health check or response timeout) is itself an idle-kind
            # timer — so the run must stay alive until the watchdog voids the
            # attempt to a terminal outcome.
            if (
                pending
                and not self._zombie_attempts
                and (not events or events.only_kinds(idle_kinds))
            ):
                break

        duration = metrics.makespan_ms() if len(metrics) else clock.now_ms
        horizon = clock.now_ms
        ledger.close_all(horizon)
        return MultiModelSimulationReport(
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

    # -- fault injection (mirrors repro.sim.elasticity) ----------------------------------
    def _arm_fault_timers(
        self, server_id: int, type_name: str, now: float, events: EventQueue
    ) -> None:
        """Draw this instance's crash and first-slowdown delays (zero-hazard: no draw)."""
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
        """One query reached a terminal outcome; at zero, drop lingering timers."""
        self._outstanding -= 1
        if self._outstanding == 0:
            kinds = self._idle_timer_kinds()
            if kinds:
                events.discard(lambda e: e.kind in kinds)

    def _fail_attempt(
        self, query: Query, now: float, reason: str, events: EventQueue
    ) -> None:
        """One dispatch attempt failed: retry with backoff or dead-letter."""
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

    def _admit(self, pending: PendingQueue, now: float, events: EventQueue):
        """The admission valve before a scheduling round (identity without a controller)."""
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
            victims = [
                s
                for s in self.cluster
                if payload.type_name is None or s.type_name == payload.type_name
            ][: payload.count]
            changed = False
            for server in victims:
                changed = (
                    self._crash_server(server, now, events, ledger, scale_log, payload.reason)
                    or changed
                )
            return changed
        server_id, _type_name = payload
        try:
            server = self.cluster.server_by_id(server_id)
        except KeyError:
            return False  # already decommissioned or cancelled
        return self._crash_server(server, now, events, ledger, scale_log, "hazard")

    def _crash_server(
        self,
        server,
        now: float,
        events: EventQueue,
        ledger: InstanceUsageLedger,
        scale_log: List[ScaleLogEntry],
        reason: str,
    ) -> bool:
        """An unannounced crash: billing stops at the failure instant, work is voided."""
        server_id = server.server_id
        model_name = self.cluster.model_of_server(server_id)
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
                            model_name=model_name,
                        ),
                    )
                )
        voided = self._inflight.pop(server_id, [])
        for record in voided:
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

    def _handle_slowdown_begin(self, payload, now: float, events: EventQueue) -> None:
        server_id, type_name = payload
        try:
            server = self.cluster.server_by_id(server_id)
        except KeyError:
            return
        profile = self.faults[type_name]
        until = now + profile.slowdown_duration_ms
        server.begin_slowdown(profile.slowdown_factor, until)
        events.push(Event(until, EventKind.SLOWDOWN_END, (server_id, type_name)))

    def _handle_slowdown_end(self, payload, now: float, events: EventQueue) -> None:
        server_id, type_name = payload
        try:
            server = self.cluster.server_by_id(server_id)
        except KeyError:
            return
        server.end_slowdown()
        if self._outstanding > 0:
            delay = self.faults.draw_slowdown_delay_ms(type_name, self._fault_rng)
            if delay is not None:
                events.push(
                    Event(now + delay, EventKind.SLOWDOWN_BEGIN, (server_id, type_name))
                )

    def _handle_response_timeout(
        self, record: QueryRecord, now: float, events: EventQueue
    ) -> None:
        """The response deadline elapsed before the completion: abandon the attempt."""
        inflight = self._inflight.get(record.server_id)
        if inflight is None or record not in inflight:
            return  # completed or crash-voided before the deadline
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

    # -- gray-failure injection handlers (mirror repro.sim.elasticity) -------------------
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

    def _quarantine_pool(self, server) -> List:
        """The liveness guard counts the server's own model partition."""
        model_name = self.cluster.model_of_server(server.server_id)
        return list(self.cluster.cluster_of(model_name))

    def _hedge_targets(self, record: QueryRecord) -> List:
        """Hedge duplicates stay inside the primary server's model partition."""
        model_name = self.cluster.model_of_server(record.server_id)
        return self.cluster.cluster_of(model_name).active_servers()

    def _quarantine_server(
        self,
        server,
        now: float,
        events: EventQueue,
        ledger: InstanceUsageLedger,
        scale_log: List[ScaleLogEntry],
        reason: str,
    ) -> bool:
        """Open the server's breaker: isolate, bill, notify, probe later.

        Returns True when membership changed.  The probation-liveness guard
        refuses to quarantine the last accepting server of its model partition —
        a fully quarantined partition could never serve the probe traffic that
        re-admits servers, so one (possibly unhealthy) server always stays
        eligible.
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
        """An attempt's expected completion is overdue: accrue suspicion, isolate."""
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
        if self._track_inflight:
            self._inflight.setdefault(duplicate.server_id, []).append(duplicate)
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
        server,
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
        metrics: MultiModelServingMetrics,
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
                # a retry-backoff re-queue, not fresh offered load: it joins the
                # pending queue but must not inflate the controller's arrival-rate
                # estimate
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
            model_name = self._request_model(request)
            itype = self.cluster.profiles.catalog[request.type_name]
            for _ in range(request.count):
                server_id = self.cluster.reserve_server_id(model_name)
                ledger.start(server_id, itype, now, tag=model_name)
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
                    self._reason(request, model_name),
                )
            )
            return False, False

        if event.kind == EventKind.SCALE_DOWN:
            request = event.payload
            model_name = self._request_model(request)
            self.cluster.profiles.catalog[request.type_name]  # raises on unknown type
            remaining = request.count
            booting = self._booting.get((model_name, request.type_name), [])
            while remaining > 0 and booting:
                server_id = booting.pop()
                self._cancelled.add(server_id)
                ledger.stop(server_id, now)
                scale_log.append(
                    ScaleLogEntry(
                        now,
                        "cancel_startup",
                        request.type_name,
                        1,
                        self._reason(request, model_name),
                    )
                )
                remaining -= 1
            victims = (
                self.cluster.drain_servers(model_name, request.type_name, remaining, now)
                if remaining > 0
                else []
            )
            changed = False
            for server in victims:
                if server.drained:
                    self.cluster.remove_server(server.server_id)
                    ledger.stop(server.server_id, now)
                    scale_log.append(
                        ScaleLogEntry(now, "decommission", server.type_name, 1)
                    )
                changed = True
            scale_log.append(
                ScaleLogEntry(
                    now,
                    "scale_down",
                    request.type_name,
                    len(victims),
                    self._reason(request, model_name),
                )
            )
            return changed, False

        if event.kind == EventKind.INSTANCE_READY:
            server_id, type_name, model_name = event.payload
            if server_id in self._cancelled:
                self._cancelled.discard(server_id)
                return False, False
            booting = self._booting.get((model_name, type_name), [])
            if server_id in booting:
                booting.remove(server_id)
            self.cluster.add_server(
                model_name, type_name, now_ms=now, server_id=server_id
            )
            scale_log.append(
                ScaleLogEntry(now, "instance_ready", type_name, 1, model_name)
            )
            self._arm_fault_timers(server_id, type_name, now, events)
            return True, False

        return False, False  # CONTROL and future kinds: no-op

    @staticmethod
    def _reason(request: ScaleRequest, model_name: str) -> str:
        return f"{request.reason}:{model_name}" if request.reason else model_name

    def _emit_scale_events(self, decision, now: float, events: EventQueue) -> None:
        """Turn a joint re-plan into per-(model, type) provisioning events.

        Scale-ups go out in model/catalog order; scale-downs across all shrinking
        (model, type) pairs are ordered by drain cost-efficiency (most $/hr freed per
        unit of lost QoS-feasible capacity first), generalizing the single-model rule.
        """
        shrinking: List[Tuple[float, int, str, str, int]] = []
        for order, (model_name, deltas) in enumerate(decision.scale_deltas.items()):
            for type_name, delta in deltas.items():
                if delta > 0:
                    events.push(
                        Event(
                            now,
                            EventKind.SCALE_UP,
                            ScaleRequest(
                                type_name, delta, reason="replan", model_name=model_name
                            ),
                        )
                    )
                elif delta < 0:
                    score = drain_cost_efficiency(
                        self.cluster.profiles,
                        self.cluster.cluster_of(model_name).model,
                        type_name,
                    )
                    tie = self.cluster.profiles.catalog.index_of(type_name)
                    shrinking.append((-score, order, tie, type_name, model_name, -delta))
        for _, _, _, type_name, model_name, count in sorted(
            shrinking, key=lambda item: item[:3]
        ):
            events.push(
                Event(
                    now,
                    EventKind.SCALE_DOWN,
                    ScaleRequest(
                        type_name, count, reason="replan", model_name=model_name
                    ),
                )
            )

    def _commit(
        self,
        assignments,
        pending: PendingQueue,
        view: MultiModelClusterView,
        now: float,
        events: EventQueue,
    ) -> int:
        count = 0
        server_models = view.server_models()
        for query, server_idx in assignments:
            if query.query_id not in pending:
                raise ValueError(
                    f"policy assigned query {query.query_id}, which is not pending"
                )
            if not 0 <= server_idx < len(view):
                raise ValueError(f"policy assigned an unknown server index {server_idx}")
            if query.model_name is not None and server_models[server_idx] != query.model_name:
                raise ValueError(
                    f"policy assigned query {query.query_id} ({query.model_name}) to a "
                    f"server hosting {server_models[server_idx]}"
                )
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
            if self._track_inflight:
                self._inflight.setdefault(record.server_id, []).append(record)
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


def simulate_multi_model_serving(
    cluster: MultiModelCluster,
    policy,
    queries: Sequence[Query],
    *,
    controller=None,
    **kwargs,
) -> MultiModelSimulationReport:
    """Convenience wrapper mirroring :func:`~repro.sim.elasticity.simulate_elastic_serving`."""
    sim = MultiModelServingSimulation(cluster, policy, controller=controller, **kwargs)
    return sim.run(queries)
