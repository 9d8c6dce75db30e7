"""Kairos's query-distribution policy: the runtime face of :mod:`repro.core.distributor`.

The policy re-solves the heterogeneity-weighted min-cost matching at every scheduling
point over the pending queries and the *eligible* instances.  Eligibility follows the
paper's ``L`` definition: an instance is considered if it is idle or currently serving
exactly one query (whose remaining time is then part of ``L``); instances that already
have a queued dispatch behind the running query are left out of the round so queries
keep waiting centrally, where later rounds can still place them better.

Latency prediction defaults to the online learner of
:class:`repro.core.latency_model.OnlineLatencyEstimator` — i.e. the evaluation includes
the paper's online-learning overhead — but a perfect or noisy estimator can be injected
(Fig. 16b).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core import cost_matrix as cost_matrix_lib
from repro.core.cost_matrix import RoundColumnState, resolve_query_models
from repro.core.distributor import QueryDistributor
from repro.core.heterogeneity import heterogeneity_coefficients
from repro.core.latency_model import (
    LatencyEstimator,
    OnlineLatencyEstimator,
    PerfectLatencyEstimator,
)
from repro.schedulers.base import Decision, SchedulingPolicy
from repro.sim.cluster import Cluster, MultiModelClusterView
from repro.sim.metrics import QueryRecord
from repro.solvers.assignment import round_solver
from repro.workload.query import Query


def _unique_type_names(type_names: Iterable[str]) -> Tuple[str, ...]:
    """Dedupe per-server type names preserving server (catalog) order.

    Never collapse type names through a ``set``: the hopeless-query check and the
    coefficient rebuild probe the estimator in this order, a stochastic estimator
    consumes one RNG draw per probe, and string-set iteration order varies with
    ``PYTHONHASHSEED`` — which once made the Fig. 16 noise rows irreproducible
    across interpreters (see TestHashSeedStability).
    """
    return tuple(dict.fromkeys(type_names))


def _round_rows(pending, cap: Optional[int]):
    """The round's considered queries plus their batch / arrival-time columns.

    A :class:`~repro.sim.pending.PendingQueue` serves its memoized snapshot arrays
    (rebuilt only when the queue changed); any other sequence takes the legacy
    per-query path.  Callers derive waiting times as ``max(0, now - arrival)``,
    exactly as ``Query.waiting_time_ms`` computes them.
    """
    snapshot_arrays = getattr(pending, "snapshot_arrays", None)
    if snapshot_arrays is not None:
        queries, batches, arrivals = snapshot_arrays()
    else:
        queries = list(pending)
        batches = np.asarray([q.batch_size for q in queries], dtype=int)
        arrivals = np.asarray([q.arrival_time_ms for q in queries], dtype=float)
    if cap is not None and len(queries) > cap:
        queries = queries[:cap]
        batches = batches[:cap]
        arrivals = arrivals[:cap]
    return queries, batches, arrivals


def _is_hopeless(
    estimator: LatencyEstimator, qos_budget_ms: float, query: Query, type_names, now_ms
) -> bool:
    """True when no instance type could meet the query's deadline even if idle now.

    ``qos_budget_ms`` is ``qos_headroom * qos_ms`` of the query's model and
    ``type_names`` the deduped, deterministically ordered types that serve it.
    """
    budget = qos_budget_ms - query.waiting_time_ms(now_ms)
    if budget <= 0:
        return True
    for type_name in type_names:
        if estimator.predict_ms(type_name, query.batch_size) <= budget:
            return False
    return True


class _SingleQueryPlan:
    """Constants and scratch of single-query rounds for one (layout, model) pair.

    Built once per bind and coefficient refresh — group validation, the per-column
    weights and the Eq. 8 penalty already multiplied by them — so a round allocates
    nothing.  ``model_name`` ``None`` is the single-model layout, keyed by type name;
    otherwise the layout is keyed by ``(model, type)`` and other models' blocks are
    cross-model: never predicted, never feasible.
    """

    def __init__(
        self, columns, coefficients_by_model, model_name, qos_ms, headroom, penalty_factor
    ):
        n = columns.offsets.shape[0]
        weights = np.empty(n)
        same_model = np.ones(n, dtype=bool)
        self.types: List[Optional[str]] = []
        for key, cols in columns.groups:
            group_model, type_name = (None, key) if model_name is None else key
            coefficients = coefficients_by_model.get(group_model)
            if coefficients is None or type_name not in coefficients:
                owner = "" if group_model is None else f"model {group_model!r} "
                raise KeyError(
                    f"no heterogeneity coefficient for {owner}type {type_name!r}"
                )
            if coefficients[type_name] <= 0:
                raise ValueError("heterogeneity coefficients must be positive")
            weights[cols] = coefficients[type_name]
            self.types.append(type_name if group_model == model_name else None)
            same_model[cols] = group_model == model_name
        qos_ms = float(qos_ms)
        self.hopeless_types = tuple(t for t in self.types if t is not None)
        self.same_model = None if same_model.all() else same_model
        self.weights = weights
        # the matrix path's ``np.where(feasible, usage, penalty) * weights`` value
        # of an infeasible column
        self.penalty_weights = (float(penalty_factor) * qos_ms) * weights
        self.qos_budget = float(headroom) * qos_ms
        self.threshold = self.qos_budget + 1e-9
        # zeros, not empty: blocks with no eligible server keep finite predictions,
        # so the masked columns' arithmetic never sees uninitialised memory
        self.by_group = np.zeros(len(self.types))
        self.usage = np.empty(n)
        self.scored = np.empty(n)
        self.infeasible = np.empty(n, dtype=bool)


class _SingleQueryScorer:
    """One-pending-query rounds of both Kairos policies, without matrix or solver.

    A single-query matching is an argmin over one weighted row (identical to the
    round solver's single-row fast path).  The scorer reproduces that row over the
    bind's full column layout with the matrix path's per-element operations —
    ``offset + prediction``, the Eq. 3 fold against ``qos_headroom * qos + 1e-9``,
    the Eq. 8 penalty and the Eq. 2 weighting — sets ineligible columns to
    ``+inf``, and takes the same first-minimum ``argmin``, so the decision is
    byte-identical to the round over the eligible servers.

    Predictions come one per eligible block, in
    :meth:`~repro.core.cost_matrix.RoundColumnState.call_order`, and are spread over
    the columns by one indexed read of the layout's group codes.  An estimator with
    a ``belief_version`` answers through :meth:`LatencyEstimator.predict_ms`, whose
    value equals its 1-element vector prediction by contract.  An unversioned one
    (a stochastic estimator) keeps the matrix path's per-block ``predict_many_ms``
    calls, so it draws exactly the same random numbers.  Blocks without an eligible
    server, and other models' blocks, issue no estimator call.
    """

    def __init__(self, qos_headroom: float, penalty_factor: float, defer: bool):
        self._qos_headroom = qos_headroom
        self._penalty_factor = penalty_factor
        self._defer = defer
        # (columns, coefficients_by_model, {model: plan}): plans hold until a rebind
        # installs new columns or a coefficient refresh a new mapping
        self._source: Optional[Tuple] = None

    def decide(
        self,
        query: Query,
        model_name: Optional[str],
        estimator: LatencyEstimator,
        qos_ms: float,
        coefficients_by_model: Mapping[Optional[str], Mapping[str, float]],
        columns,
        columns_state: RoundColumnState,
        now_ms: float,
    ) -> List[Decision]:
        """The round's decision for ``query`` on the refreshed full layout ``columns``."""
        source = self._source
        if (
            source is None
            or source[0] is not columns
            or source[1] is not coefficients_by_model
        ):
            source = self._source = (columns, coefficients_by_model, {})
        plan = source[2].get(model_name)
        if plan is None:
            plan = source[2][model_name] = _SingleQueryPlan(
                columns,
                coefficients_by_model,
                model_name,
                qos_ms,
                self._qos_headroom,
                self._penalty_factor,
            )

        types = plan.types
        by_group = plan.by_group
        if getattr(estimator, "belief_version", None) is None:
            batches = np.array([query.batch_size])
            predict_many = estimator.predict_many_ms
            for g in columns_state.call_order():
                if types[g] is not None:
                    by_group[g] = predict_many(types[g], batches)[0]
        else:
            predict = estimator.predict_ms
            batch = query.batch_size
            for g in columns_state.call_order():
                if types[g] is not None:
                    by_group[g] = predict(types[g], batch)

        usage, scored, infeasible = plan.usage, plan.scored, plan.infeasible
        by_group.take(columns_state.codes, out=usage, mode="clip")
        np.add(columns.offsets, usage, out=usage)
        np.add(usage, max(0.0, now_ms - query.arrival_time_ms), out=scored)
        np.less_equal(scored, plan.threshold, out=infeasible)  # feasible, for now
        same_model = plan.same_model
        if same_model is not None:
            infeasible &= same_model
        np.logical_not(infeasible, out=infeasible)
        np.multiply(usage, plan.weights, out=scored)
        np.copyto(scored, plan.penalty_weights, where=infeasible)
        if columns_state.masked:
            np.copyto(scored, np.inf, where=columns_state.ineligible)
        col = int(scored.argmin())
        if infeasible[col]:
            if same_model is not None and not same_model[col]:
                return []  # an instance of another model can never serve the query
            if self._defer and not _is_hopeless(
                estimator, plan.qos_budget, query, plan.hopeless_types, now_ms
            ):
                return []
        return [(query, columns.indices[col])]


class KairosPolicy(SchedulingPolicy):
    """The Kairos central controller's scheduling behaviour.

    Parameters
    ----------
    estimator:
        Latency predictor; ``None`` selects the online learner (no prior knowledge).
    use_perfect_estimator:
        Convenience switch: use the true profiles instead of online learning.
    solver_method:
        Assignment method for :func:`~repro.solvers.assignment.round_solver` (default
        ``"jv"``: the canonical Jonker-Volgenant solver).
    max_queries_per_round:
        Cap on the matching size per round (earliest arrivals first).
    coefficient_refresh_interval:
        Re-derive the heterogeneity coefficients from the estimator every N rounds, so
        the online learner's improving picture of the hardware feeds back into the
        weights.
    defer_predicted_violations:
        The matching maps every query it can (Eq. 7), including onto pairs that were
        penalized by the QoS condition (Eq. 8).  With this option (default) such
        assignments are not committed: the query stays in the central queue and is
        re-matched at the next scheduling point, unless it has become hopeless (no
        instance could meet its deadline even if idle), in which case it is dispatched
        anyway so it does not starve.  This realizes Eq. 5 as the hard constraint the
        formulation intends rather than locking in avoidable violations.
    """

    name = "KAIROS"

    def __init__(
        self,
        estimator: Optional[LatencyEstimator] = None,
        *,
        use_perfect_estimator: bool = False,
        solver_method: str = "jv",
        qos_headroom: float = 0.98,
        penalty_factor: float = 10.0,
        max_queries_per_round: Optional[int] = 64,
        coefficient_refresh_interval: int = 50,
        defer_predicted_violations: bool = True,
    ):
        super().__init__()
        self._estimator = estimator
        self._use_perfect = use_perfect_estimator
        self._solver_method = solver_method
        self._qos_headroom = qos_headroom
        self._penalty_factor = penalty_factor
        self._max_queries_per_round = max_queries_per_round
        self._refresh_interval = max(1, int(coefficient_refresh_interval))
        self._defer_violations = bool(defer_predicted_violations)
        self._distributor: Optional[QueryDistributor] = None
        # the distributor's coefficients as the scorer's one-model mapping
        self._coefficients_by_model: Dict[None, Mapping[str, float]] = {}
        self._rounds = 0
        self._columns: Optional[RoundColumnState] = None
        self._columns_source = None
        self._single = _SingleQueryScorer(
            qos_headroom, penalty_factor, self._defer_violations
        )

    # -- lifecycle -----------------------------------------------------------------------
    def on_bind(self) -> None:
        cluster = self._require_bound()
        if self._estimator is None:
            if self._use_perfect:
                self._estimator = PerfectLatencyEstimator(cluster.profiles, cluster.model)
            else:
                self._estimator = OnlineLatencyEstimator()
        self._rounds = 0
        self._columns = RoundColumnState(list(cluster))
        self._columns_source = cluster
        self._rebuild_distributor()

    def _rebuild_distributor(self) -> None:
        cluster = self._require_bound()
        assert self._estimator is not None
        type_names = list(_unique_type_names(cluster.type_names()))
        base_name = cluster.config.catalog.base_type.name
        if base_name not in type_names:
            # Degenerate configurations without base instances still need a reference
            # point; use the first type present.
            base_name = type_names[0]
        coefficients = heterogeneity_coefficients(
            self._estimator,
            type_names,
            base_name,
            reference_batch_size=cluster.model.max_batch_size,
        )
        self._distributor = QueryDistributor(
            self._estimator,
            coefficients,
            self.qos_ms,
            solver_method=self._solver_method,
            qos_headroom=self._qos_headroom,
            penalty_factor=self._penalty_factor,
            max_queries_per_round=self._max_queries_per_round,
        )

    # -- scheduling ---------------------------------------------------------------------
    def _columns_for(self, cluster) -> RoundColumnState:
        """The incremental column state for ``cluster`` (rebuilt on identity change).

        Simulators re-bind on every membership change (that is the :class:`ClusterView`
        contract), so within one bind the server list is fixed and the cached state
        holds; scheduling against a different container than the bound one (direct
        policy use in tests) transparently rebuilds.
        """
        columns = self._columns
        if (
            columns is None
            or cluster is not self._columns_source
            or len(cluster) != len(columns.servers)
        ):
            columns = RoundColumnState(list(cluster))
            self._columns = columns
            self._columns_source = cluster
        return columns

    def schedule(
        self, now_ms: float, pending: Sequence[Query], cluster: Cluster
    ) -> List[Decision]:
        if self._distributor is None:
            raise RuntimeError("policy used before bind()")
        if not pending:
            return []
        self._rounds += 1
        if self._rounds % self._refresh_interval == 0 and not self._use_perfect:
            self._rebuild_distributor()

        columns_state = self._columns_for(cluster)
        columns = columns_state.refresh(now_ms)
        if columns is None:
            return []
        if len(pending) == 1:
            # The dominant round shape at steady state: its query is read straight
            # from the queue and scored without snapshot arrays, matrix or solver.
            coefficients = self._distributor.coefficients
            if self._coefficients_by_model.get(None) is not coefficients:
                # new after a refresh, or after a subclass replaced the mapping
                self._coefficients_by_model = {None: coefficients}
            return self._single.decide(
                pending[0],
                None,
                self._estimator,
                self.qos_ms,
                self._coefficients_by_model,
                columns,
                columns_state,
                now_ms,
            )
        considered, batches, arrivals = _round_rows(
            pending, self._distributor.max_queries_per_round
        )
        # Masked penalty columns would join the matching and change its
        # tie-breaks, so multi-row rounds match over the gathered eligible view.
        columns = columns_state.eligible_view()
        waits = np.maximum(now_ms - arrivals, 0.0)
        round_result = self._distributor.distribute_prepared(
            considered, batches, waits, columns
        )
        eligible_indices = columns.indices
        decisions: List[Decision] = []
        # The cluster's type set is invariant within a round; derive it at most once
        # per round instead of per deferred assignment.
        round_types: Optional[Tuple[str, ...]] = None
        for assignment in round_result.assignments:
            if self._defer_violations and not assignment.predicted_feasible:
                if round_types is None:
                    round_types = columns_state.unique_keys()
                if not _is_hopeless(
                    self._estimator,
                    self._qos_headroom * self.qos_ms,
                    assignment.query,
                    round_types,
                    now_ms,
                ):
                    # Keep the query in the central queue; a better slot may open up
                    # before its deadline, and Eq. 3's waiting-time term will
                    # prioritize it then.
                    continue
            decisions.append((assignment.query, eligible_indices[assignment.server_index]))
        return decisions

    def observe_completion(self, record: QueryRecord) -> None:
        if self._estimator is not None:
            self._estimator.observe(
                record.server_type, record.query.batch_size, record.service_ms
            )

    # -- introspection --------------------------------------------------------------------
    @property
    def estimator(self) -> Optional[LatencyEstimator]:
        return self._estimator

    @property
    def coefficients(self) -> Optional[dict]:
        return dict(self._distributor.coefficients) if self._distributor else None


class MultiModelKairosPolicy(SchedulingPolicy):
    """Kairos scheduling over the union of N co-located models' pending queries.

    One joint matching per round: rows are the pending queries of every model (arrival
    order, capped at ``max_queries_per_round`` exactly like the single-model policy),
    columns the eligible instances of every model partition.  Same-model blocks are
    built by the per-(model, type) ``predict_many_ms`` fast path; cross-model pairs
    carry the Eq. 8 penalty and are *never* committed — a forced cross assignment from
    the rectangular matching simply defers the query to the next round.

    Per-model state mirrors :class:`KairosPolicy` exactly: an independent latency
    estimator (online learner by default), per-model heterogeneity coefficients
    refreshed on the same cadence, per-model QoS targets in the feasibility fold, and
    the same defer/hopeless semantics evaluated against the query's own model.  With a
    single registered model the round-by-round decisions are identical to
    :class:`KairosPolicy` (locked down by the golden tests).

    Sharded dispatch (``sharded=True``, the ROADMAP sharded-controller item)
    partitions a round per model: since an instance can only ever serve its own
    model's queries, the joint matching is block-diagonal whenever every model's
    pending backlog fits its own eligible capacity, and solving the per-model blocks
    independently cuts the solver cost from ``O((Σm)^2 Σn)`` to ``Σ O(m_k^2 n_k)``.
    Rounds where cross-model arbitration can matter fall back to the union
    matching: a contended model (more pending queries than its own eligible
    instances — which rows defer becomes a global choice) or a shard solution
    containing a QoS-penalized assignment (the union may exile such a row onto a
    cross-model column, displacing the other model's matching).  The mode is off
    by default.

    Tie-break rule.  Every solve is :func:`~repro.solvers.assignment.canonical_assignment`
    (identical columns dealt lowest index first, in ascending row order), and the
    union solve is followed by a per-model block re-match (:meth:`_rematch_blocks`),
    so a model's decisions depend only on its own block.  On every sharded round
    both paths therefore commit the same per-model matchings (asserted by
    the fig10-style benchmark; a >10x heterogeneity-coefficient spread across
    models could in principle still make the union prefer an exile over a feasible
    in-model slot, which is why the benchmark checks rather than assumes).
    """

    name = "KAIROS-MM"

    def __init__(
        self,
        estimators: Optional[Mapping[str, LatencyEstimator]] = None,
        *,
        use_perfect_estimator: bool = False,
        solver_method: str = "jv",
        qos_headroom: float = 0.98,
        penalty_factor: float = 10.0,
        max_queries_per_round: Optional[int] = 64,
        coefficient_refresh_interval: int = 50,
        defer_predicted_violations: bool = True,
        sharded: bool = False,
    ):
        super().__init__()
        self._estimators: Dict[str, LatencyEstimator] = (
            dict(estimators) if estimators is not None else {}
        )
        self._sharded = bool(sharded)
        #: Sharded-dispatch round accounting (for the fig10-style overhead benchmark):
        #: matrix cells actually solved, rounds solved sharded, union fallbacks.
        self.solved_cells = 0
        self.sharded_rounds = 0
        self.union_rounds = 0
        self._use_perfect = use_perfect_estimator
        self._solver_method = solver_method
        self._qos_headroom = qos_headroom
        self._penalty_factor = penalty_factor
        self._max_queries_per_round = max_queries_per_round
        self._refresh_interval = max(1, int(coefficient_refresh_interval))
        self._defer_violations = bool(defer_predicted_violations)
        self._coefficients: Dict[str, Dict[str, float]] = {}
        self._qos_by_model: Dict[str, float] = {}
        self._rounds = 0
        self._solver = round_solver(solver_method)
        self._columns: Optional[RoundColumnState] = None
        self._columns_source = None
        self._server_models_full: Tuple[str, ...] = ()
        self._round_types_of: Dict[str, Tuple[str, ...]] = {}
        self._single = _SingleQueryScorer(
            qos_headroom, penalty_factor, self._defer_violations
        )
        self._shard_plans: Optional[Tuple] = None

    # -- lifecycle -----------------------------------------------------------------------
    def bind(self, cluster: MultiModelClusterView, qos_ms: Optional[float] = None) -> None:
        """Attach to a multi-model view; per-model QoS targets come from the view.

        ``qos_ms`` exists for protocol compatibility and, when given, must match the
        strictest model target (it is otherwise ignored).
        """
        self.cluster = cluster
        self._qos_by_model = dict(cluster.qos_by_model())
        strictest = min(self._qos_by_model.values())
        if qos_ms is not None and abs(qos_ms - strictest) > 1e-9:
            raise ValueError(
                "multi-model policies derive per-model QoS from the cluster; "
                f"got qos_ms={qos_ms} but the strictest model target is {strictest}"
            )
        self.qos_ms = strictest
        self.on_bind()

    def on_bind(self) -> None:
        cluster = self._require_bound()
        for name in cluster.model_names:
            if name not in self._estimators:
                if self._use_perfect:
                    self._estimators[name] = PerfectLatencyEstimator(
                        cluster.profiles, cluster.model(name)
                    )
                else:
                    self._estimators[name] = OnlineLatencyEstimator()
        self._rounds = 0
        self._bind_columns(cluster)
        self._rebuild_coefficients()

    def _bind_columns(self, cluster: MultiModelClusterView) -> None:
        """(Re)derive the per-bind column state and static per-model type orders."""
        server_models = tuple(cluster.server_models())
        type_names = cluster.type_names()
        self._columns = RoundColumnState(
            list(cluster), keys=list(zip(server_models, type_names))
        )
        self._columns_source = cluster
        self._server_models_full = server_models
        # The hopeless check probes each model's types in full-view server order —
        # static per bind, so computed here rather than per round.
        self._round_types_of = {
            model_name: _unique_type_names(
                name
                for name, server_model in zip(type_names, server_models)
                if server_model == model_name
            )
            for model_name in dict.fromkeys(server_models)
        }

    def _rebuild_coefficients(self) -> None:
        cluster = self._require_bound()
        base_catalog_name = cluster.profiles.catalog.base_type.name
        server_models = cluster.server_models()
        type_names_of: Dict[str, List[str]] = {}
        for server, model_name in zip(cluster, server_models):
            names = type_names_of.setdefault(model_name, [])
            if server.type_name not in names:
                names.append(server.type_name)
        self._coefficients = {}
        for model_name, type_names in type_names_of.items():
            base_name = (
                base_catalog_name if base_catalog_name in type_names else type_names[0]
            )
            self._coefficients[model_name] = heterogeneity_coefficients(
                self._estimators[model_name],
                type_names,
                base_name,
                reference_batch_size=cluster.model(model_name).max_batch_size,
            )

    # -- scheduling ---------------------------------------------------------------------
    def schedule(
        self, now_ms: float, pending: Sequence[Query], cluster: MultiModelClusterView
    ) -> List[Decision]:
        if not self._qos_by_model:
            raise RuntimeError("policy used before bind()")
        if not pending:
            return []
        self._rounds += 1
        if self._rounds % self._refresh_interval == 0 and not self._use_perfect:
            self._rebuild_coefficients()

        if (
            self._columns is None
            or cluster is not self._columns_source
            or len(cluster) != len(self._columns.servers)
        ):
            self._bind_columns(cluster)
        columns_state = self._columns
        columns = columns_state.refresh(now_ms)
        if columns is None:
            return []

        if len(pending) == 1:
            # the joint single row: other models' columns keep the row's Eq. 8
            # penalty and are never committed (see _SingleQueryScorer)
            query = pending[0]
            model_name = resolve_query_models((query,), self._qos_by_model)[0]
            if model_name not in self._round_types_of:
                # every instance of this model is gone (crashed or drained): nothing
                # can serve the query this round — defer until replacement capacity
                # arrives (the multi-query path reaches the same outcome via its
                # cross-model guard)
                return []
            return self._single.decide(
                query,
                model_name,
                self._estimators[model_name],
                self._qos_by_model[model_name],
                self._coefficients,
                columns,
                columns_state,
                now_ms,
            )
        considered, batches, arrivals = _round_rows(pending, self._max_queries_per_round)
        # multi-row rounds match over the gathered eligible view (see KairosPolicy)
        columns = columns_state.eligible_view()
        eligible_indices = columns.indices
        waits = np.maximum(now_ms - arrivals, 0.0)
        query_models = resolve_query_models(considered, self._qos_by_model)
        row_scale = self._row_cost_scale(considered, now_ms)
        if self._sharded and row_scale is None:
            # Row-priority rounds (pipeline laxity) are inherently global — which
            # urgent row wins a contended column is cross-model arbitration — so they
            # always take the union matching; plain rounds shard as before.
            decisions = self._schedule_sharded(
                considered, query_models, batches, waits, columns, now_ms
            )
            if decisions is not None:
                return decisions
        full_models = self._server_models_full
        server_models = tuple(full_models[i] for i in eligible_indices)
        matrix = cost_matrix_lib.assemble_multi_model(
            considered,
            query_models,
            self._estimators,
            self._qos_by_model,
            self._coefficients,
            self._qos_headroom,
            self._penalty_factor,
            batches,
            waits,
            columns.offsets,
            columns.groups,
            columns.server_ids,
            server_models,
        )
        weighted = matrix.weighted
        if row_scale is not None:
            # Scale feasible cells only.  Infeasible cells carry a flat
            # penalty cost; discounting them too would make exiling an urgent
            # row onto a penalized (and therefore deferred) column the cheapest
            # assignment — the opposite of a priority boost.
            weighted = np.where(
                matrix.qos_feasible, weighted * row_scale[:, None], weighted
            )
        result_rows, result_cols = self._solver(weighted)
        result_cols = self._rematch_blocks(
            weighted, matrix.cross_model, matrix.query_models, result_rows, result_cols
        )
        self.union_rounds += 1
        self.solved_cells += matrix.weighted.size

        decisions: List[Decision] = []
        for row, col in zip(result_rows.tolist(), result_cols.tolist()):
            if matrix.cross_model[row, col]:
                # an instance of another model can never serve this query: always defer
                continue
            query = considered[row]
            model_name = matrix.query_models[row]
            if self._defer_violations and not matrix.qos_feasible[row, col]:
                if not _is_hopeless(
                    self._estimators[model_name],
                    self._qos_headroom * self._qos_by_model[model_name],
                    query,
                    self._round_types_of[model_name],
                    now_ms,
                ):
                    continue
            decisions.append((query, eligible_indices[col]))
        return decisions

    def _rematch_blocks(
        self,
        weighted: np.ndarray,
        cross_model: np.ndarray,
        query_models: Tuple[str, ...],
        rows: np.ndarray,
        cols: np.ndarray,
    ) -> np.ndarray:
        """Re-solve each model's in-model rows over its columns no other model claimed.

        The union optimum restricted to one model's block is optimal for that block,
        so the re-solve keeps the objective; it replaces the union solver's choice
        among equal-cost in-model matchings (any permutation of rows over same-type
        servers ties) with the block's own canonical matching, so a model's
        decisions depend only on its block — what the sharded path solves.  Returns
        the new column of each of ``rows``; cross-model pairs are unchanged.
        """
        cross = cross_model[rows, cols]
        claimed = np.zeros(weighted.shape[1], dtype=bool)
        claimed[cols[cross]] = True
        blocks: Dict[str, List[int]] = {}
        for pos in np.flatnonzero(~cross).tolist():
            blocks.setdefault(query_models[rows[pos]], []).append(pos)
        cols = cols.copy()
        for positions in blocks.values():
            block_rows = rows[positions]
            free = np.flatnonzero(~(cross_model[block_rows[0]] | claimed))
            if block_rows.size == weighted.shape[0] and free.size == weighted.shape[1]:
                continue  # the block is the whole matrix: already canonical
            sub_rows, sub_cols = self._solver(weighted[np.ix_(block_rows, free)])
            cols[np.asarray(positions)[sub_rows]] = free[sub_cols]
        return cols

    def _schedule_sharded(
        self,
        considered: Sequence[Query],
        query_models: Tuple[str, ...],
        batches: np.ndarray,
        waits: np.ndarray,
        columns,
        now_ms: float,
    ) -> Optional[List[Decision]]:
        """Solve the round per model partition; ``None`` falls back to the union.

        An instance only ever serves its own model, so whenever every model's pending
        rows fit into its own eligible columns the joint matrix is effectively
        block-diagonal and the blocks can be matched independently — each with the
        same single-model assembly (:func:`assemble_cost_matrix`, no cross-model
        fold needed) and the same defer/hopeless semantics.  Two round shapes make
        cross-model arbitration matter and fall back to the union matching:

        * a model's backlog exceeds its own eligible capacity (which rows defer is
          then a global choice), and
        * a shard's solution contains a QoS-penalized assignment — the union solve
          may exile such a row onto a cross-model column instead (deferring it
          *and* displacing that column from the other model's matching), so the
          per-model solves are no longer equivalent.
        """
        rows_by_model: Dict[str, List[int]] = {}
        for i, name in enumerate(query_models):
            rows_by_model.setdefault(name, []).append(i)

        shards = self._shard_structure(columns)
        for model_name, rows in rows_by_model.items():
            shard = shards.get(model_name)
            if shard is None or len(rows) > len(shard[0]):
                return None  # contended: the union matching arbitrates deferral

        offsets = columns.offsets
        indices = columns.indices
        decisions: List[Decision] = []
        cells = 0
        for model_name, rows in rows_by_model.items():
            positions, pos_arr, groups, server_ids_m = shards[model_name]
            queries_m = [considered[i] for i in rows]
            rows_arr = np.asarray(rows, dtype=np.intp)
            matrix = cost_matrix_lib.assemble_cost_matrix(
                queries_m,
                self._estimators[model_name],
                self._qos_by_model[model_name],
                self._coefficients[model_name],
                self._qos_headroom,
                self._penalty_factor,
                batches[rows_arr],
                waits[rows_arr],
                offsets[pos_arr],
                groups,
                server_ids_m,
            )
            result_rows, result_cols = self._solver(matrix.weighted)
            cells += matrix.weighted.size
            if not matrix.qos_feasible[result_rows, result_cols].all():
                # A penalized assignment inside a shard: the union matching may
                # prefer exiling that row cross-model (global arbitration), so the
                # block-diagonal decomposition no longer holds — fall back.
                return None
            for row, col in zip(result_rows.tolist(), result_cols.tolist()):
                decisions.append((queries_m[row], indices[positions[col]]))
        self.sharded_rounds += 1
        self.solved_cells += cells
        return decisions

    def _shard_structure(self, columns) -> Dict[str, tuple]:
        """Per-model column structure of a round: positions, groups, server ids.

        Memoized on the ``RoundColumns`` identity — stable across all fully-eligible
        rounds of one bind, so sharded rounds skip the per-round re-derivation.
        """
        cached = self._shard_plans
        if cached is not None and cached[0] is columns:
            return cached[1]
        full_models = self._server_models_full
        indices = columns.indices
        state = self._columns
        positions_by_model: Dict[str, List[int]] = {}
        for pos, view_idx in enumerate(indices):
            positions_by_model.setdefault(full_models[view_idx], []).append(pos)
        shards: Dict[str, tuple] = {}
        for model_name, positions in positions_by_model.items():
            type_names = [state.servers[indices[p]].type_name for p in positions]
            shards[model_name] = (
                positions,
                np.asarray(positions, dtype=np.intp),
                cost_matrix_lib.group_columns(type_names),
                tuple(columns.server_ids[p] for p in positions),
            )
        self._shard_plans = (columns, shards)
        return shards

    def _row_cost_scale(
        self, considered: Sequence[Query], now_ms: float
    ) -> Optional[np.ndarray]:
        """Optional per-row cost multipliers folded into the union matching.

        The base policy returns ``None`` — no scaling, no extra floating-point
        operations, so decisions stay byte-identical.  Subclasses (the pipeline's
        critical-path policy) return a vector of positive multipliers to make
        urgent rows win contended columns; a row's multiplier never changes which
        column that row prefers (a positive scalar preserves the row's argmin),
        only how the matching arbitrates between rows.
        """
        return None

    def observe_completion(self, record: QueryRecord) -> None:
        name = record.query.model_name
        if name is None:
            if len(self._estimators) != 1:
                raise ValueError(
                    "untagged completion record in a multi-model policy with "
                    f"{len(self._estimators)} models"
                )
            name = next(iter(self._estimators))
        self._estimators[name].observe(
            record.server_type, record.query.batch_size, record.service_ms
        )

    # -- introspection --------------------------------------------------------------------
    def estimator_of(self, model_name: str) -> LatencyEstimator:
        return self._estimators[model_name]

    @property
    def coefficients_by_model(self) -> Dict[str, Dict[str, float]]:
        return {name: dict(c) for name, c in self._coefficients.items()}
