"""End-to-end serving simulation.

``simulate_serving`` drives a :class:`~repro.sim.cluster.Cluster` through a query
stream under a pluggable query-distribution policy:

1. queries arrive at the central controller and join the pending queue;
2. whenever an event fires (arrival or a server finishing a query) the policy is asked
   to map pending queries to servers;
3. committed queries are dispatched to their server's local FIFO queue, their true
   service latency is drawn from the latency profile (plus optional noise), and a
   completion event is scheduled;
4. per-query records feed :class:`~repro.sim.metrics.ServingMetrics`.

A policy is any object implementing the small protocol documented in
:class:`repro.schedulers.base.SchedulingPolicy` (``bind``, ``schedule``,
``observe_completion``); the simulator itself only relies on duck typing so the Kairos
controller and all baselines plug in identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cloud.config import HeterogeneousConfig
from repro.cloud.models import MLModel
from repro.cloud.profiles import ProfileRegistry
from repro.sim.cluster import Cluster
from repro.sim.engine import (
    TIME_EPSILON_MS,
    EventQueue,
    SimulationClock,
    no_progress_error,
    step_budget,
)
from repro.sim.events import Event, EventKind
from repro.sim.faults import (
    AdmissionController,
    DeadLetterEntry,
    RetryPolicy,
    ShedEntry,
    select_shed_victims,
)
from repro.sim.metrics import QueryRecord, ServingMetrics
from repro.sim.pending import PendingQueue
from repro.sim.server import ServiceNoiseModel
from repro.utils.rng import RngLike, ensure_rng
from repro.workload.query import Query, check_serving_inputs


@dataclass
class SimulationReport:
    """Everything a serving run produced."""

    metrics: ServingMetrics
    cluster: Cluster
    policy_name: str
    scheduling_rounds: int
    dispatched_queries: int
    total_queries: int
    simulated_duration_ms: float
    early_stopped: bool = False
    shed_queries: List[ShedEntry] = field(default_factory=list)
    dead_letters: List[DeadLetterEntry] = field(default_factory=list)
    retries: int = 0
    unserved_queries: int = 0

    @property
    def completed_all(self) -> bool:
        return self.dispatched_queries == self.total_queries and not self.early_stopped

    def utilization_by_type(self) -> Dict[str, float]:
        return self.cluster.utilization_by_type(self.simulated_duration_ms)

    def summary(self) -> Dict[str, float]:
        data = dict(self.metrics.summary())
        data["scheduling_rounds"] = float(self.scheduling_rounds)
        data["simulated_duration_ms"] = self.simulated_duration_ms
        data["early_stopped"] = float(self.early_stopped)
        return data


class ServingSimulation:
    """Reusable serving-simulation driver (see module docstring)."""

    def __init__(
        self,
        cluster: Cluster,
        policy,
        *,
        qos_ms: Optional[float] = None,
        qos_percentile: float = 99.0,
        noise: Optional[ServiceNoiseModel] = None,
        rng: RngLike = None,
        max_violations: Optional[int] = None,
        warmup_queries: int = 0,
        retry: Optional[RetryPolicy] = None,
        admission: Optional[AdmissionController] = None,
        sharded_events: bool = False,
    ):
        self.cluster = cluster
        self.policy = policy
        #: drive the run off a ShardedEventQueue (per-kind shards); byte-identical
        #: to the single-heap path by the sequence-number merge argument in
        #: repro.sim.sharding
        self.sharded_events = bool(sharded_events)
        self.qos_ms = float(qos_ms) if qos_ms is not None else cluster.model.qos_ms
        self.qos_percentile = float(qos_percentile)
        self.noise = noise
        self.rng = ensure_rng(rng)
        self.max_violations = max_violations
        # Graceful-degradation knobs. ``retry.response_timeout_ms`` arms a per-attempt
        # response deadline: an attempt that would finish past it is abandoned at the
        # deadline and re-queued with exponential backoff until the budget is spent,
        # then dead-lettered. ``admission`` sheds lowest-value pending queries under
        # overload and caps each scheduling round at the adaptive concurrency limit.
        # The static loop has a fixed fleet, so crash injection lives only in the
        # elastic loops (see repro.sim.faults.FaultInjector).
        self.retry = retry
        self.admission = admission
        self._inflight_ids: set = set()
        self._timed_out_ids: set = set()
        if warmup_queries < 0:
            raise ValueError("warmup_queries must be non-negative")
        # Queries with an id below this threshold are served normally but excluded from
        # the QoS/throughput metrics — they cover the online latency learner's cold start
        # (the paper measures steady-state allowable throughput on long runs).
        self.warmup_queries = int(warmup_queries)

    def run(self, queries: Sequence[Query]) -> SimulationReport:
        """Serve ``queries`` to completion (or until the early-stop violation budget).

        An empty stream is a valid no-op and returns a report with empty metrics.
        """
        check_serving_inputs(queries, (self.cluster.model.name,))
        ordered = sorted(queries, key=lambda q: (q.arrival_time_ms, q.query_id))
        self.cluster.reset()
        if self.admission is not None:
            self.admission.reset()
        metrics = ServingMetrics(self.qos_ms, self.qos_percentile)
        self.policy.bind(self.cluster, self.qos_ms)

        clock = SimulationClock(0.0)
        # carries SERVICE_COMPLETION plus, under a retry policy, RESPONSE_TIMEOUT
        # deadlines and backoff re-queues (QUERY_ARRIVAL)
        if self.sharded_events:
            from repro.sim.sharding import ShardedEventQueue, shard_key_by_kind

            events = ShardedEventQueue(shard_key_by_kind)
        else:
            events = EventQueue()
        pending = PendingQueue()
        arrival_idx = 0
        n = len(ordered)
        dispatched = 0
        rounds = 0
        violations = 0
        early_stopped = False
        # every query ends exactly one way: served, shed, or dead-lettered — the run
        # ends when no query remains outstanding (or when the policy gives up)
        outstanding = n
        shed: List[ShedEntry] = []
        dead_letters: List[DeadLetterEntry] = []
        retries = 0
        voided = 0
        attempt_failures: Dict[int, int] = {}
        # live response deadlines: id(record) -> armed; a deadline whose attempt
        # already completed is stale and must no-op
        self._inflight_ids = set()
        self._timed_out_ids = set()
        # Queries in the warm-up window (earliest arrivals) are excluded from metrics.
        warmup_ids = {q.query_id for q in ordered[: self.warmup_queries]}
        max_steps = step_budget(n, self.retry)
        steps = 0

        # Hot-loop locals: the arrival-time column is read every iteration, and
        # repeated attribute lookups on `ordered` queries add up over long runs.
        arrival_times = [q.arrival_time_ms for q in ordered]

        while outstanding > 0 and not early_stopped:
            steps += 1
            if steps > max_steps:
                raise no_progress_error(
                    self.policy, max_steps, clock.now_ms, pending, events
                )

            next_arrival = arrival_times[arrival_idx] if arrival_idx < n else None
            next_event = events.peek_time()
            if next_arrival is None:
                if next_event is None:
                    # Pending queries but nothing scheduled and nothing in flight: the
                    # policy must act now or it never will.
                    if not pending:
                        break
                    now = clock.now_ms
                else:
                    now = clock.advance_to(next_event)
            elif next_event is None or next_arrival <= next_event:
                now = clock.advance_to(next_arrival)
            else:
                now = clock.advance_to(next_event)

            # 1. process events at `now` (frees servers before new work is placed);
            #    the whole equal-timestamp batch drains before the scheduling round
            for event in events.pop_batch(now):
                if event.kind == EventKind.QUERY_ARRIVAL:
                    # a retry re-queue surfacing after its backoff
                    pending.append(event.payload)
                    continue
                if event.kind == EventKind.RESPONSE_TIMEOUT:
                    record = event.payload
                    if id(record) not in self._inflight_ids:
                        continue  # the attempt completed before the deadline
                    self._inflight_ids.discard(id(record))
                    self._timed_out_ids.add(id(record))
                    voided += 1
                    failures = attempt_failures.get(record.query.query_id, 0) + 1
                    attempt_failures[record.query.query_id] = failures
                    if self.retry is not None and failures < self.retry.max_attempts:
                        retries += 1
                        events.push(
                            Event(
                                now + self.retry.backoff_ms(failures),
                                EventKind.QUERY_ARRIVAL,
                                record.query,
                            )
                        )
                    else:
                        dead_letters.append(
                            DeadLetterEntry(record.query, now, "timeout", failures)
                        )
                        outstanding -= 1
                    continue
                record: QueryRecord = event.payload
                timed_out = id(record) in self._timed_out_ids
                if timed_out:
                    self._timed_out_ids.discard(id(record))
                else:
                    self._inflight_ids.discard(id(record))
                    outstanding -= 1
                self.cluster[record.server_id].complete_one()
                if timed_out:
                    # the client already abandoned this attempt: the server's slot is
                    # freed but nothing is recorded or observed
                    continue
                if record.query.query_id not in warmup_ids:
                    if record.latency_ms > self.qos_ms + 1e-9:
                        violations += 1
                    metrics.record(record)
                    if self.admission is not None:
                        self.admission.observe_latency(record.latency_ms)
                self.policy.observe_completion(record)
                if self.max_violations is not None and violations > self.max_violations:
                    early_stopped = True
            if early_stopped:
                break

            # 2. admit arrivals at `now`
            limit = now + TIME_EPSILON_MS
            while arrival_idx < n and arrival_times[arrival_idx] <= limit:
                pending.append(ordered[arrival_idx])
                arrival_idx += 1

            # 3. ask the policy for assignments (through the admission valve)
            made_progress = False
            if pending:
                admitted = pending
                if self.admission is not None:
                    overflow = self.admission.to_shed(len(pending))
                    if overflow > 0:
                        for query in select_shed_victims(pending.snapshot(), overflow):
                            pending.remove(query.query_id)
                            shed.append(ShedEntry(query, now))
                            outstanding -= 1
                        self.admission.record_shed(overflow)
                    cap = self.admission.concurrency_limit
                    if len(pending) > cap:
                        admitted = list(pending.snapshot()[:cap])
                if admitted:
                    # the queue itself is handed over (it is Sequence-like): policies
                    # with an incremental fast path read its memoized snapshot arrays
                    assignments = self.policy.schedule(now, admitted, self.cluster)
                    rounds += 1
                    if assignments:
                        dispatched += self._commit(assignments, pending, now, events)
                        made_progress = True

            # 4. nothing in flight, nothing arriving, and the policy declines to place
            #    the remaining queries: end the run (the remainder counts as unserved).
            if (
                pending
                and not made_progress
                and arrival_idx >= n
                and len(events) == 0
            ):
                break

        duration = metrics.makespan_ms() if len(metrics) else clock.now_ms
        return SimulationReport(
            metrics=metrics,
            cluster=self.cluster,
            policy_name=getattr(self.policy, "name", type(self.policy).__name__),
            scheduling_rounds=rounds,
            dispatched_queries=dispatched - voided,
            total_queries=n,
            simulated_duration_ms=duration,
            early_stopped=early_stopped,
            shed_queries=shed,
            dead_letters=dead_letters,
            retries=retries,
            unserved_queries=outstanding,
        )

    # -- internals ------------------------------------------------------------------------
    def _commit(
        self,
        assignments: Sequence[Tuple[Query, int]],
        pending: PendingQueue,
        now: float,
        events: EventQueue,
    ) -> int:
        count = 0
        cluster = self.cluster
        cluster_size = len(cluster)
        noise = self.noise
        rng = self.rng
        push = events.push
        completion_kind = EventKind.SERVICE_COMPLETION
        timeout = self.retry.response_timeout_ms if self.retry is not None else None
        for query, server_idx in assignments:
            if query.query_id not in pending:
                raise ValueError(
                    f"policy assigned query {query.query_id}, which is not pending"
                )
            if not 0 <= server_idx < cluster_size:
                raise ValueError(f"policy assigned an unknown server index {server_idx}")
            pending.remove(query.query_id)
            server = cluster[server_idx]
            start, completion, service = server.dispatch(query, now, noise=noise, rng=rng)
            record = QueryRecord(
                query=query,
                server_id=server.server_id,
                server_type=server.type_name,
                start_ms=start,
                completion_ms=completion,
                service_ms=service,
            )
            if timeout is not None and completion - now > timeout:
                # the deadline will elapse strictly before the completion: arm the
                # abandon timer (never armed when the attempt will make it in time)
                self._inflight_ids.add(id(record))
                push(Event(now + timeout, EventKind.RESPONSE_TIMEOUT, record))
            push(Event(completion, completion_kind, record))
            count += 1
        return count


def simulate_serving(
    config: HeterogeneousConfig,
    model: MLModel,
    profiles: ProfileRegistry,
    policy,
    queries: Sequence[Query],
    *,
    qos_ms: Optional[float] = None,
    qos_percentile: float = 99.0,
    dispatch_overhead_ms: float = 0.0,
    noise: Optional[ServiceNoiseModel] = None,
    rng: RngLike = None,
    max_violations: Optional[int] = None,
    warmup_queries: int = 0,
) -> SimulationReport:
    """Convenience wrapper: build the cluster and run one serving simulation."""
    cluster = Cluster(config, model, profiles, dispatch_overhead_ms=dispatch_overhead_ms)
    sim = ServingSimulation(
        cluster,
        policy,
        qos_ms=qos_ms,
        qos_percentile=qos_percentile,
        noise=noise,
        rng=rng,
        max_violations=max_violations,
        warmup_queries=warmup_queries,
    )
    return sim.run(queries)


def gaussian_service_noise(relative_std: float) -> ServiceNoiseModel:
    """A multiplicative Gaussian service-time noise model (Fig. 16b uses 5%)."""
    if relative_std < 0:
        raise ValueError("relative_std must be non-negative")

    def noise(latency_ms: float, rng: np.random.Generator) -> float:
        return latency_ms * float(1.0 + relative_std * rng.standard_normal())

    return noise
