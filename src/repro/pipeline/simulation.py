"""The pipeline serving loop: the multi-model event loop plus graph releases.

:class:`PipelineServingSimulation` subclasses
:class:`~repro.sim.multi_model.MultiModelServingSimulation` and adds exactly three
behaviours, each gated on the coordinator actually holding graphs so a no-graphs
run stays byte-identical to the parent loop (sharded event queues and chaos
profiles included — locked down by the regression byte-identity suite):

* **Release semantics** — a graph's source stages arrive as normal queries; a
  *genuine* stage completion (not crash-voided, not timed out) releases every
  successor whose parents are all served as a same-instant
  ``QUERY_ARRIVAL``, re-using the ``PendingQueue`` / ``pop_batch`` machinery
  unchanged, and the graph's remaining slack is recomputed at each release.
* **Graph-aware admission** — whole doomed graphs are shed, never random stages:
  graphs whose slack is already blown under the current critical-path belief are
  shed as a unit before the round, admission-controller overflow expands any
  stage victim to its entire graph, and a dead-lettered stage cancels the rest of
  its graph (remaining released stages shed, unreleased stages never released).
* **Per-graph metrics** — after the run, :attr:`graph_outcomes` holds one
  :class:`~repro.pipeline.runtime.GraphOutcome` per registered graph (end-to-end
  latency, deadline attainment, predicted critical path vs realized span, and the
  stage outcome partition the graph-conservation invariant checks).

Released successors are *offered load discovered mid-run*: the report's
``total_queries`` is widened by the releases so outcome conservation
(``served + shed + dead + unserved == total``) keeps holding, and
:attr:`released_queries` exposes them (arrival = release instant) so harnesses can
account for the full realized query set.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.pipeline.runtime import (
    GRAPH_DEAD,
    GRAPH_SHED,
    GraphOutcome,
    GraphRuntime,
    PipelineCoordinator,
)
from repro.sim.events import Event, EventKind
from repro.sim.faults import ShedEntry, select_shed_victims
from repro.sim.metrics import QueryRecord
from repro.sim.multi_model import (
    MultiModelServingSimulation,
    MultiModelSimulationReport,
)
from repro.workload.query import Query


class PipelineServingSimulation(MultiModelServingSimulation):
    """Serve plain queries and task-graph stages on one co-located cluster.

    Parameters add to the parent's:

    coordinator:
        The stage registry produced by
        :func:`~repro.pipeline.runtime.realize_graphs`.  When omitted, the
        policy's own coordinator is used if it has one
        (:class:`~repro.pipeline.policy.CriticalPathKairosPolicy`), else an empty
        one — an empty coordinator makes this class behave exactly like its
        parent.
    graph_aware:
        Enables doomed-graph shedding at admission.  Off, the loop still applies
        release semantics and unit-cancellation (they are structural, not a
        policy), which is the "stage-local Kairos" arm of the fig20 comparison.
    doom_margin_frac:
        How far past hopeless a graph must be projected before it is shed, as a
        fraction of its deadline.  The critical-path belief is noisy, so graphs
        projected to miss by a hair frequently still make their deadline;
        shedding only beyond the margin keeps doom-shedding a strict win.
    """

    def __init__(
        self,
        cluster,
        policy,
        *,
        coordinator: Optional[PipelineCoordinator] = None,
        graph_aware: bool = True,
        doom_margin_frac: float = 0.25,
        **kwargs,
    ):
        super().__init__(cluster, policy, **kwargs)
        if coordinator is None:
            coordinator = getattr(policy, "coordinator", None)
        if coordinator is None:
            coordinator = PipelineCoordinator()
        self.coordinator = coordinator
        self.graph_aware = bool(graph_aware)
        if doom_margin_frac < 0.0:
            raise ValueError("doom_margin_frac must be >= 0")
        self.doom_margin_frac = float(doom_margin_frac)
        #: successor stage queries released during the run (arrival = release instant)
        self.released_queries: List[Query] = []
        #: per-graph results, populated by :meth:`run`
        self.graph_outcomes: List[GraphOutcome] = []
        self._pending_ref = None

    # -- run ----------------------------------------------------------------------------
    def _input_stream(self, queries: Sequence[Query]) -> Sequence[Query]:
        # successor stages join the stream mid-run under their registered ids
        successors = [
            r.queries[n] for r in self.coordinator.runtimes for n in r.unreleased()
        ]
        return [*queries, *successors]

    def run(self, queries: Sequence[Query]) -> MultiModelSimulationReport:
        report = super().run(queries)
        if self.released_queries:
            # Releases are offered load discovered mid-run: widen the offered count
            # so conservation (served + shed + dead + unserved == total) still holds.
            report.total_queries += len(self.released_queries)
        if self.coordinator.active:
            self.coordinator.finalize(report.billing_horizon_ms)
            self.graph_outcomes = self.coordinator.outcomes()
        return report

    # -- per-graph aggregate metrics ----------------------------------------------------
    def deadline_attainment(self) -> float:
        """Fraction of registered graphs fully served within their deadline."""
        outcomes = self.graph_outcomes
        if not outcomes:
            return 0.0
        return sum(1 for o in outcomes if o.deadline_met) / len(outcomes)

    def value_deadline_attainment(self) -> float:
        """Value-weighted deadline attainment (what graph-aware shedding optimizes)."""
        outcomes = self.graph_outcomes
        total = sum(o.value for o in outcomes)
        if total <= 0:
            return 0.0
        return sum(o.value for o in outcomes if o.deadline_met) / total

    # -- release semantics --------------------------------------------------------------
    def _handle(
        self, event, now, metrics, ledger, scale_log, warmup_ids, events
    ) -> Tuple[bool, bool]:
        released: List[Query] = []
        if (
            event.kind == EventKind.SERVICE_COMPLETION
            and self.coordinator.active
        ):
            record: QueryRecord = event.payload
            if id(record) not in self._voided:
                # A genuine completion (the parent handler will take the same
                # branch): release successors before delegating so the offered
                # count never dips to zero mid-graph — `_settle_outstanding`
                # inside the parent would otherwise drop the fault timers while
                # pipeline work is still due.
                released = self.coordinator.complete_stage(record, now)
                self._outstanding += len(released)
        result = super()._handle(
            event, now, metrics, ledger, scale_log, warmup_ids, events
        )
        for query in released:
            self.released_queries.append(query)
            events.push(Event(now, EventKind.QUERY_ARRIVAL, query))
        return result

    # -- unit-cancellation on dead letters ----------------------------------------------
    def _fail_attempt(self, query, now, reason, events) -> None:
        before = len(self.dead_letters)
        super()._fail_attempt(query, now, reason, events)
        if len(self.dead_letters) == before or not self.coordinator.active:
            return
        runtime = self.coordinator.mark_stage_dead(query.query_id, now)
        if runtime is not None and self._pending_ref is not None:
            # Dead-lettered as a unit: the graph can never complete, so its other
            # queued stages are shed now and unreleased stages never release.
            self._shed_graph_stages(
                runtime, self._pending_ref, now, events, reason="pipeline-dead"
            )

    # -- graph-aware admission ----------------------------------------------------------
    def _admit(self, pending, now, events):
        if not self.coordinator.active:
            return super()._admit(pending, now, events)
        self._pending_ref = pending
        # Sweep stages whose graph went terminal since the last round (a release
        # could have been in flight as an arrival event when the graph died).
        for runtime in self.coordinator.runtimes:
            if runtime.outcome in (GRAPH_SHED, GRAPH_DEAD):
                self._shed_graph_stages(
                    runtime, pending, now, events, reason="pipeline-unit"
                )
        if self.graph_aware:
            doomed = self.coordinator.doomed(now, margin_frac=self.doom_margin_frac)
            for runtime in doomed:
                # Nothing sheddable (every stage released and dispatched or
                # served): the graph is fully committed, so let it resolve
                # naturally rather than mislabel a fully-served graph as shed.
                queued = any(
                    runtime.queries[name].query_id in pending
                    for name in runtime.pending_released()
                )
                if not queued and not runtime.unreleased():
                    continue
                self.coordinator.mark_graph_shed(runtime, now)
                self._shed_graph_stages(
                    runtime, pending, now, events, reason="pipeline-doomed"
                )
        if self.admission is None:
            return pending
        overflow = self.admission.to_shed(len(pending))
        if overflow > 0:
            shed_count = 0
            for query in select_shed_victims(pending.snapshot(), overflow):
                if shed_count >= overflow:
                    break
                qid = query.query_id
                if qid not in pending:
                    continue  # removed by an earlier victim's graph expansion
                entry = self.coordinator.stage_of(qid)
                if entry is None:
                    pending.remove(qid)
                    self.shed_queries.append(ShedEntry(query, now))
                    self._settle_outstanding(events)
                    shed_count += 1
                else:
                    # Shed whole doomed graphs, not random stages: a stage victim
                    # expands to its entire graph (its siblings are sunk cost).
                    runtime, _name = entry
                    self.coordinator.mark_graph_shed(runtime, now)
                    shed_count += self._shed_graph_stages(
                        runtime, pending, now, events, reason="pipeline-overload"
                    )
            self.admission.record_shed(shed_count)
        limit = self.admission.concurrency_limit
        if len(pending) > limit:
            return list(pending.snapshot()[:limit])
        return pending

    def _shed_graph_stages(
        self, runtime: GraphRuntime, pending, now: float, events, *, reason: str
    ) -> int:
        """Remove a terminal graph's queued stages from the backlog; returns the count.

        In-flight stages are left to finish (dispatched work cannot be recalled);
        unreleased stages never materialize because a terminal graph releases
        nothing further.
        """
        removed = 0
        for name in runtime.pending_released():
            query = runtime.queries[name]
            if query.query_id in pending:
                pending.remove(query.query_id)
                runtime.shed[name] = now
                self.shed_queries.append(ShedEntry(query, now, reason))
                self._settle_outstanding(events)
                removed += 1
        return removed
