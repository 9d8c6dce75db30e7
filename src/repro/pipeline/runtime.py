"""Runtime bookkeeping for released task graphs.

:class:`GraphRuntime` tracks one released :class:`~repro.pipeline.graph.TaskGraph`
through the serving loop — which stages are released / served / shed / dead, the
graph's remaining slack, and its terminal outcome — while
:class:`PipelineCoordinator` is the side table shared by the simulation and the
scheduling policy: stage-queries are plain :class:`~repro.workload.query.Query`
objects (frozen, slotted — deliberately not subclassed), so the coordinator maps
``query_id`` back to ``(graph runtime, stage)`` and answers the two questions the
stack asks per round: *which successors does this completion release?* (the
simulation) and *how urgent is this pending stage?* (the policy's laxity term).

Slack is ``deadline_abs - now - critical_path_remaining``: the critical path of the
not-yet-served sub-DAG under the coordinator's current predictor (bound by the
policy to its online estimators), refreshed at every release.

The predictor is asked once per ``(model, batch)`` per *belief version*: the bind
count plus a token the binder supplies that changes whenever the predictor's
answers could (an online estimator's observation); the policy re-binds whenever a
model's instance types may change.  Per-stage
predictions, each graph's per-stage critical path and its remaining critical path
are memoized against that version, so the per-round slack checks cost a lookup per
live graph, and every value equals what a from-scratch recomputation gives.  A
predictor without a version (or whose version is ``None``, e.g. a noisy estimator)
is asked afresh on every query, with the same calls in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.pipeline.graph import StagePredictor, TaskGraph
from repro.sim.metrics import QueryRecord
from repro.workload.query import Query

#: Terminal graph outcomes (``None`` on a live runtime; "unserved" only at finalize).
GRAPH_SERVED = "served"
GRAPH_SHED = "shed"
GRAPH_DEAD = "dead"
GRAPH_UNSERVED = "unserved"


@dataclass
class GraphOutcome:
    """Per-graph result of one pipeline serving run (see ``PipelineServingSimulation``)."""

    graph_id: int
    value: float
    release_ms: float
    deadline_ms: float
    outcome: str
    end_ms: float
    deadline_met: bool
    e2e_latency_ms: float
    critical_path_ms: float
    realized_span_ms: float
    stages: int
    served_stages: int
    shed_stages: int
    dead_stages: int
    unserved_stages: int
    unreleased_stages: int


class GraphRuntime:
    """Mutable per-graph state: stage queries, outcomes, and slack."""

    __slots__ = (
        "graph",
        "queries",
        "released",
        "served",
        "shed",
        "dead",
        "outcome",
        "end_ms",
        "slack_ms",
        "critical_path_initial",
        "first_start_ms",
        "last_end_ms",
        "_cpr",
        "_cpr_key",
        "_remaining",
        "_remaining_key",
    )

    def __init__(self, graph: TaskGraph, queries: Dict[str, Query]):
        if set(queries) != {s.name for s in graph.stages}:
            raise ValueError(
                f"graph {graph.graph_id}: stage queries must cover every stage"
            )
        self.graph = graph
        #: stage name -> Query template (sources carry the real release arrival;
        #: successors are re-stamped with their release instant when released)
        self.queries = dict(queries)
        self.released = {s.name for s in graph.sources()}
        self.served: Dict[str, float] = {}
        self.shed: Dict[str, float] = {}
        self.dead: Dict[str, float] = {}
        self.outcome: Optional[str] = None
        self.end_ms = 0.0
        self.slack_ms = graph.deadline_ms
        self.critical_path_initial: Optional[float] = None
        self.first_start_ms: Optional[float] = None
        self.last_end_ms: Optional[float] = None
        # memoized critical paths and the belief keys they were computed under
        self._cpr: Dict[str, float] = {}
        self._cpr_key = None
        self._remaining = 0.0
        self._remaining_key = None

    # -- state probes -------------------------------------------------------------------
    def terminal_stage(self, name: str) -> bool:
        return name in self.served or name in self.shed or name in self.dead

    def pending_released(self) -> List[str]:
        """Released stages with no terminal outcome yet (queued or in flight)."""
        return [n for n in self.released if not self.terminal_stage(n)]

    def unreleased(self) -> List[str]:
        return [s.name for s in self.graph.stages if s.name not in self.released]

    def critical_path_remaining(
        self, predict: StagePredictor, key: Optional[Hashable] = None
    ) -> Dict[str, float]:
        """The graph's per-stage critical path under ``predict``, memoized per ``key``.

        ``key`` is the belief version ``predict`` answers under; ``None`` recomputes.
        A memoized dict is shared by every caller until the key changes: read it only.
        """
        if key is None:
            return self.graph.critical_path_remaining(predict)
        if self._cpr_key != key:
            self._cpr = self.graph.critical_path_remaining(predict)
            self._cpr_key = key
        return self._cpr

    def remaining_critical_path_ms(
        self, predict: StagePredictor, key: Optional[Hashable] = None
    ) -> float:
        """Critical path of the not-yet-served sub-DAG (0 when everything served).

        Completion is monotone along precedence, so the unserved set is closed
        under successors; the remaining path is the longest chain hanging off the
        frontier (unserved stages whose parents are all served).  Memoized per
        ``(key, stages served)`` like :meth:`critical_path_remaining`.
        """
        if self.outcome is not None and self.outcome != GRAPH_SERVED:
            return 0.0
        served = len(self.served)
        if key is not None and self._remaining_key == (key, served):
            return self._remaining
        cpr = None
        best = 0.0
        for stage in self.graph.stages:
            if stage.name in self.served:
                continue
            if any(p not in self.served for p in stage.parents):
                continue
            if cpr is None:
                cpr = self.critical_path_remaining(predict, key)
            best = max(best, cpr[stage.name])
        if key is not None:
            self._remaining = best
            self._remaining_key = (key, served)
        return best

    def slack_at(
        self, now_ms: float, predict: StagePredictor, key: Optional[Hashable] = None
    ) -> float:
        return (
            self.graph.deadline_abs_ms()
            - now_ms
            - self.remaining_critical_path_ms(predict, key)
        )


class PipelineCoordinator:
    """The shared stage-query registry: simulation-side releases, policy-side laxity."""

    def __init__(self):
        self._runtimes: List[GraphRuntime] = []
        self._stage_of: Dict[int, Tuple[GraphRuntime, str]] = {}
        self._predict: Optional[StagePredictor] = None
        self._version: Optional[Callable[[], Optional[Hashable]]] = None
        self._binds = 0
        # (model, batch) -> predicted stage ms, valid under belief key ``_memo_key``
        self._memo: Dict[Tuple[str, int], float] = {}
        self._memo_key: Optional[Tuple] = None

    # -- setup --------------------------------------------------------------------------
    def register(self, runtime: GraphRuntime) -> None:
        for name, query in runtime.queries.items():
            if query.query_id in self._stage_of:
                raise ValueError(
                    f"stage query id {query.query_id} registered twice"
                )
            self._stage_of[query.query_id] = (runtime, name)
        self._runtimes.append(runtime)

    def bind_predictor(
        self,
        predict: StagePredictor,
        version: Optional[Callable[[], Optional[Hashable]]] = None,
    ) -> None:
        """Install the per-stage service-time belief (the policy's estimators).

        ``version()`` returns a hashable token that changes whenever ``predict``
        could answer differently, or ``None`` while its answers are not a pure
        function of state; predictions are memoized per token.  Without
        ``version``, every belief is recomputed from scratch.  Each bind starts
        a fresh belief, so nothing memoized under an earlier one is reused.
        """
        self._predict = predict
        self._version = version
        self._binds += 1

    @property
    def active(self) -> bool:
        return bool(self._runtimes)

    @property
    def runtimes(self) -> Tuple[GraphRuntime, ...]:
        return tuple(self._runtimes)

    def predict(self, model_name: str, batch_size: int) -> float:
        if self._predict is None:
            return 0.0  # pre-bind: no belief yet, so no stage contributes slack pressure
        return self._predict(model_name, batch_size)

    def stage_of(self, query_id: int) -> Optional[Tuple[GraphRuntime, str]]:
        return self._stage_of.get(query_id)

    # -- belief cache -------------------------------------------------------------------
    def _belief(self) -> Tuple[StagePredictor, Optional[Tuple]]:
        """``(predict, key)`` for the current belief.

        A versioned belief yields the memoized predictor and its key, equal for
        as long as the belief holds; an unversioned one yields the bare predictor
        and ``None``.
        """
        token = self._version() if self._version is not None else None
        if token is None:
            return self.predict, None
        key = (self._binds, token)
        if key != self._memo_key:
            self._memo_key = key
            self._memo = {}
        return self._memoized_predict, key

    def _memoized_predict(self, model_name: str, batch_size: int) -> float:
        ms = self._memo.get((model_name, batch_size))
        if ms is None:
            ms = self._memo[(model_name, batch_size)] = self._predict(
                model_name, batch_size
            )
        return ms

    # -- release semantics --------------------------------------------------------------
    def complete_stage(self, record: QueryRecord, now_ms: float) -> List[Query]:
        """Mark one genuine stage completion; return the successors it releases.

        Released successors are re-stamped as same-instant arrivals
        (``arrival_time_ms = now_ms``); the graph's remaining slack is recomputed
        at each release.  Terminal (shed/dead) graphs release nothing — a straggler
        completion of an already-doomed graph is recorded but spawns no work.
        """
        entry = self._stage_of.get(record.query.query_id)
        if entry is None:
            return []
        runtime, name = entry
        if name in runtime.served:
            return []
        runtime.served[name] = record.completion_ms
        if runtime.first_start_ms is None or record.start_ms < runtime.first_start_ms:
            runtime.first_start_ms = record.start_ms
        if runtime.last_end_ms is None or record.completion_ms > runtime.last_end_ms:
            runtime.last_end_ms = record.completion_ms
        if runtime.outcome is not None:
            return []  # doomed graph: no further releases
        graph = runtime.graph
        if len(runtime.served) == len(graph):
            runtime.outcome = GRAPH_SERVED
            runtime.end_ms = record.completion_ms
            runtime.slack_ms = graph.deadline_abs_ms() - record.completion_ms
            return []
        released: List[Query] = []
        for child in graph.children(name):
            if child in runtime.released:
                continue
            stage = graph.stage(child)
            if any(p not in runtime.served for p in stage.parents):
                continue
            runtime.released.add(child)
            query = replace(runtime.queries[child], arrival_time_ms=now_ms)
            runtime.queries[child] = query
            released.append(query)
        if released:
            runtime.slack_ms = runtime.slack_at(now_ms, *self._belief())
        return released

    # -- doom / shed bookkeeping --------------------------------------------------------
    def ensure_initial_critical_path(
        self, runtime: GraphRuntime, belief: Optional[Tuple] = None
    ) -> float:
        """Snapshot the predicted end-to-end critical path (first scheduling access).

        ``belief`` is the caller's current ``(predict, key)`` from :meth:`_belief`.
        """
        if runtime.critical_path_initial is None:
            cpr = runtime.critical_path_remaining(*(belief or self._belief()))
            runtime.critical_path_initial = max(
                cpr[s.name] for s in runtime.graph.sources()
            )
        return runtime.critical_path_initial

    def doomed(self, now_ms: float, *, margin_frac: float = 0.0) -> List[GraphRuntime]:
        """Live graphs whose slack is already blown (negative under current belief).

        ``margin_frac`` demands the projected miss exceed that fraction of the
        graph's deadline before the graph counts as doomed.  The critical-path
        belief is a best case built from noisy online estimates, so a bare
        ``slack < 0`` is a coin flip right at the deadline — graphs projected to
        miss by a hair often still make it, and shedding them trades a certain
        miss for a probable hit.  A miss projected at a meaningful fraction of
        the deadline is beyond what estimate error can explain away.
        """
        if self._predict is None:
            return []
        belief = self._belief()
        doomed: List[GraphRuntime] = []
        for runtime in self._runtimes:
            if runtime.outcome is not None:
                continue
            self.ensure_initial_critical_path(runtime, belief)
            margin = margin_frac * runtime.graph.deadline_ms
            if runtime.slack_at(now_ms, *belief) < -margin:
                doomed.append(runtime)
        return doomed

    def mark_graph_shed(self, runtime: GraphRuntime, now_ms: float) -> None:
        if runtime.outcome is None:
            runtime.outcome = GRAPH_SHED
            runtime.end_ms = now_ms

    def mark_stage_shed(self, query_id: int, now_ms: float) -> Optional[GraphRuntime]:
        entry = self._stage_of.get(query_id)
        if entry is None:
            return None
        runtime, name = entry
        runtime.shed[name] = now_ms
        if runtime.outcome is None:
            runtime.outcome = GRAPH_SHED
            runtime.end_ms = now_ms
        return runtime

    def mark_stage_dead(self, query_id: int, now_ms: float) -> Optional[GraphRuntime]:
        entry = self._stage_of.get(query_id)
        if entry is None:
            return None
        runtime, name = entry
        runtime.dead[name] = now_ms
        # dead-letter dominates a prior shed label: the graph lost work for good
        if runtime.outcome in (None, GRAPH_SHED):
            runtime.outcome = GRAPH_DEAD
            runtime.end_ms = now_ms
        return runtime

    # -- policy-side laxity -------------------------------------------------------------
    def priority_scale(
        self,
        query_id: int,
        now_ms: float,
        min_scale: float,
        *,
        urgency_frac: float = 1.0,
    ) -> float:
        """Laxity-derived cost multiplier in ``[min_scale, 1.0]`` for one pending row.

        ``laxity = (deadline_abs - now) - critical_path_remaining(stage)``: stages on
        the longest remaining path have the smallest laxity, get the smallest
        multiplier, and therefore win ties in the min-cost matching.  Non-stage rows
        (and anything this coordinator does not know) keep scale 1.0.

        ``urgency_frac`` bounds the intervention window: the multiplier stays 1.0
        while laxity exceeds that fraction of the deadline and interpolates down to
        ``min_scale`` only inside it.  A slack-rich stage is best served wherever
        the nominal matching puts it — distorting its row while the deadline is not
        in danger costs placement quality for nothing.
        """
        entry = self._stage_of.get(query_id)
        if entry is None:
            return 1.0
        runtime, name = entry
        if runtime.outcome is not None and runtime.outcome != GRAPH_SERVED:
            return 1.0
        belief = self._belief()
        self.ensure_initial_critical_path(runtime, belief)
        cpr = runtime.critical_path_remaining(*belief)
        laxity = runtime.graph.deadline_abs_ms() - now_ms - cpr[name]
        window = urgency_frac * runtime.graph.deadline_ms
        scale = min_scale + (1.0 - min_scale) * (laxity / window)
        if scale < min_scale:
            return min_scale
        if scale > 1.0:
            return 1.0
        return scale

    # -- end of run ---------------------------------------------------------------------
    def finalize(self, now_ms: float) -> None:
        """Label graphs the run ended on (policy declined / loop quiesced) as unserved."""
        for runtime in self._runtimes:
            if runtime.outcome is None:
                runtime.outcome = GRAPH_UNSERVED
                runtime.end_ms = now_ms

    def outcomes(self) -> List[GraphOutcome]:
        """Per-graph summaries (call after :meth:`finalize`)."""
        results: List[GraphOutcome] = []
        for runtime in self._runtimes:
            graph = runtime.graph
            served_all = runtime.outcome == GRAPH_SERVED
            e2e = runtime.end_ms - graph.release_ms if served_all else 0.0
            span = 0.0
            if runtime.first_start_ms is not None and runtime.last_end_ms is not None:
                span = runtime.last_end_ms - runtime.first_start_ms
            pending = len(runtime.pending_released())
            results.append(
                GraphOutcome(
                    graph_id=graph.graph_id,
                    value=graph.value,
                    release_ms=graph.release_ms,
                    deadline_ms=graph.deadline_ms,
                    outcome=runtime.outcome or GRAPH_UNSERVED,
                    end_ms=runtime.end_ms,
                    deadline_met=served_all
                    and runtime.end_ms <= graph.deadline_abs_ms() + 1e-9,
                    e2e_latency_ms=e2e,
                    critical_path_ms=runtime.critical_path_initial or 0.0,
                    realized_span_ms=span,
                    stages=len(graph),
                    served_stages=len(runtime.served),
                    shed_stages=len(runtime.shed),
                    dead_stages=len(runtime.dead),
                    unserved_stages=pending,
                    unreleased_stages=len(runtime.unreleased()),
                )
            )
        return results


def realize_graphs(
    graphs: Sequence[TaskGraph], first_query_id: int
) -> Tuple[List[Query], PipelineCoordinator]:
    """Materialize stage queries for ``graphs`` and index them in a coordinator.

    Returns ``(source_queries, coordinator)``: the source-stage queries (arrival =
    the graph's release instant) join the offered stream handed to ``run()``;
    successor stages hold placeholder arrivals until their release re-stamps them.
    Query ids are allocated densely from ``first_query_id`` in (graph, declaration)
    order, matching the global-renumbering convention of
    :func:`~repro.workload.generator.interleave_model_streams`.
    """
    coordinator = PipelineCoordinator()
    sources: List[Query] = []
    next_id = first_query_id
    for graph in graphs:
        queries: Dict[str, Query] = {}
        for stage in graph.stages:
            queries[stage.name] = Query(
                query_id=next_id,
                batch_size=stage.batch_size,
                arrival_time_ms=graph.release_ms,
                model_name=stage.model_name,
            )
            next_id += 1
        runtime = GraphRuntime(graph, queries)
        coordinator.register(runtime)
        sources.extend(queries[s.name] for s in graph.sources())
    return sources, coordinator
