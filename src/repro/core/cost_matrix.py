"""The ``L`` matrix of the query-distribution optimization (paper Table 2, Eqs. 2-8).

``L[i, j]`` is the time instance ``j`` is occupied if it serves query ``i`` from the
current scheduling instant ``t0``: the predicted service latency of the query's batch
size on the instance's type, plus the instance's remaining busy time (a query currently
being served must finish first), plus the dispatch overhead.

Two transformations turn the QoS-constrained matching into a plain assignment problem:

* the QoS constraint ``(L_ij + W_i) <= T_qos`` (Eq. 3, with the paper's noise headroom
  ``xi = 0.98``) is folded into the matrix by replacing violating entries with a large
  penalty ``10 * T_qos`` (Eq. 8);
* every entry is weighted by the instance's heterogeneity coefficient ``C_j``
  (Definition 1), producing the objective ``sum C_j * L_ij * P_ij`` of Eq. 2.

Incremental builds
------------------

Consecutive scheduling rounds see nearly identical inputs: the pending set changes by
a handful of arrivals/commits (tracked by
:attr:`~repro.sim.pending.PendingQueue.version`), and only servers that dispatched or
completed since the last round have new column data (tracked by
:attr:`~repro.sim.server.ServerInstance.state_version`).  :class:`RoundColumnState`
exploits this: it pins the column layout (type grouping, weights targets, dispatch
overheads, server ids) once per policy bind and, per round, re-reads *only* the
servers whose state version moved and refreshes the offset column in place.

Eligibility is a mask over that stable layout, not a re-gathered view: each depth
transition across 1 flips one mask bit and one per-group count.  Near capacity most
rounds have some server with a queued dispatch, and nine in ten rounds have one
pending query, so those rounds score the full layout (skipping blocks with no
eligible server, setting ineligible columns to ``+inf`` before the first-minimum
argmin) — the same decision, estimator calls and RNG stream as the round over the
eligible servers.  Multi-row rounds still match over a gathered eligible view,
since penalty columns in the matrix would join the matching and change its
tie-breaks.  The shared public assembly cores (:func:`assemble_cost_matrix` /
:func:`assemble_multi_model`) guarantee the incremental path is element-wise
identical to the from-scratch builders (locked down by the golden and fast-path
suites).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.latency_model import LatencyEstimator
from repro.sim.server import ServerInstance
from repro.utils.validation import check_positive
from repro.workload.query import Query

#: Paper Sec. 5.1 "Remarks": completion times predicted within 2% of the QoS target are
#: already treated as violations, as a safeguard against prediction noise.
DEFAULT_QOS_HEADROOM = 0.98

#: Paper Eq. 8: QoS-violating pairs are penalized with 10x the QoS target.
DEFAULT_PENALTY_FACTOR = 10.0

#: Column-index container used by the assembly cores: a basic slice for the common
#: contiguous same-type layout, an index array otherwise.
ColumnIndex = Union[slice, np.ndarray]


@dataclass(frozen=True)
class CostMatrix:
    """The assembled matrices for one scheduling round.

    Attributes
    ----------
    usage_ms:
        Raw ``L`` matrix (occupation time of each instance by each query), before the
        QoS penalty.
    penalized_ms:
        ``L`` after applying Eq. 8 (QoS-violating entries replaced by the penalty).
    weighted:
        ``C_j * penalized_ms`` — the matrix handed to the assignment solver.
    qos_feasible:
        Boolean mask: True where serving the query on the instance is predicted to meet
        QoS including the query's waiting time so far.
    """

    usage_ms: np.ndarray
    penalized_ms: np.ndarray
    weighted: np.ndarray
    qos_feasible: np.ndarray
    query_ids: Tuple[int, ...]
    server_ids: Tuple[int, ...]

    @property
    def shape(self) -> Tuple[int, int]:
        return self.weighted.shape

    def feasible_fraction(self) -> float:
        """Fraction of (query, instance) pairs predicted to meet QoS."""
        if self.qos_feasible.size == 0:
            return 0.0
        return float(np.mean(self.qos_feasible))


# ---------------------------------------------------------------------------------------
# Shared assembly core (single model)
# ---------------------------------------------------------------------------------------

def assemble_cost_matrix(
    queries: Sequence[Query],
    estimator: LatencyEstimator,
    qos_ms: float,
    coefficients: Mapping[str, float],
    qos_headroom: float,
    penalty_factor: float,
    batches: np.ndarray,
    waits: np.ndarray,
    offsets: np.ndarray,
    groups: Sequence[Tuple[str, ColumnIndex]],
    server_ids: Tuple[int, ...],
) -> CostMatrix:
    """Assemble one round's matrices from prepared row/column data.

    ``groups`` lists the instance-type column blocks in first-occurrence (server)
    order — the order estimator calls are issued in, which a stochastic estimator's
    RNG stream depends on.  Every floating-point operation matches the original
    from-scratch builder term for term, so both entry paths produce bit-identical
    matrices.
    """
    m = len(queries)
    n = len(server_ids)
    usage = np.empty((m, n), dtype=float)
    weights = np.empty(n, dtype=float)
    for type_name, cols in groups:
        if type_name not in coefficients:
            raise KeyError(f"no heterogeneity coefficient for instance type {type_name!r}")
        coefficient = coefficients[type_name]
        if coefficient <= 0:
            raise ValueError("heterogeneity coefficients must be positive")
        predicted = np.asarray(
            estimator.predict_many_ms(type_name, batches), dtype=float
        )
        usage[:, cols] = offsets[cols][None, :] + predicted[:, None]
        weights[cols] = coefficient

    # Eq. 3 with the xi headroom: completion time (usage) plus prior waiting time must
    # stay within xi * T_qos, otherwise the pair is penalized per Eq. 8.
    feasible = (usage + waits[:, None]) <= qos_headroom * qos_ms + 1e-9
    penalized = np.where(feasible, usage, penalty_factor * qos_ms)
    weighted = penalized * weights[None, :]

    return CostMatrix(
        usage_ms=usage,
        penalized_ms=penalized,
        weighted=weighted,
        qos_feasible=feasible,
        query_ids=tuple(q.query_id for q in queries),
        server_ids=server_ids,
    )


def _row_arrays(queries: Sequence[Query], now_ms: float) -> Tuple[np.ndarray, np.ndarray]:
    """The ``batches`` / ``waits`` row columns built from plain query objects."""
    batches = np.asarray([q.batch_size for q in queries], dtype=int)
    waits = np.asarray([q.waiting_time_ms(now_ms) for q in queries], dtype=float)
    return batches, waits


def group_columns(keys: Sequence) -> List[Tuple[object, ColumnIndex]]:
    """Column blocks per hashable key (an instance-type name, or a (model, type)
    pair), first-occurrence order, basic slices when a block is contiguous."""
    columns_by_type: Dict[object, List[int]] = {}
    for j, name in enumerate(keys):
        columns_by_type.setdefault(name, []).append(j)
    groups: List[Tuple[object, ColumnIndex]] = []
    for name, cols in columns_by_type.items():
        if cols[-1] - cols[0] + 1 == len(cols):
            # Same-type servers are contiguous in catalog order (the common layout):
            # basic slicing beats fancy indexing on the hot path.
            groups.append((name, slice(cols[0], cols[-1] + 1)))
        else:
            groups.append((name, np.asarray(cols, dtype=np.intp)))
    return groups


def _server_offsets(servers: Sequence[ServerInstance], now_ms: float) -> np.ndarray:
    """Per-server column offsets: remaining busy time plus dispatch overhead."""
    offsets_list = []
    for server in servers:
        busy_until = server.busy_until_ms
        remaining = busy_until - now_ms if busy_until > now_ms else 0.0
        offsets_list.append(remaining + server.dispatch_overhead_ms)
    return np.asarray(offsets_list, dtype=float)


def build_cost_matrix(
    queries: Sequence[Query],
    servers: Sequence[ServerInstance],
    estimator: LatencyEstimator,
    now_ms: float,
    qos_ms: float,
    coefficients: Mapping[str, float],
    *,
    qos_headroom: float = DEFAULT_QOS_HEADROOM,
    penalty_factor: float = DEFAULT_PENALTY_FACTOR,
) -> CostMatrix:
    """Assemble the cost matrix for one scheduling round.

    Parameters
    ----------
    queries / servers:
        The pending queries (rows) and the candidate instances (columns).
    estimator:
        Latency predictor used for the service-latency component of ``L``.
    now_ms:
        The scheduling instant ``t0``.
    qos_ms:
        The model's QoS target ``T_qos``.
    coefficients:
        Heterogeneity coefficients ``C_j`` keyed by instance-type name.
    qos_headroom:
        The paper's ``xi`` safeguard; a pair is flagged infeasible when the predicted
        completion time exceeds ``xi * T_qos``.
    penalty_factor:
        Eq. 8 penalty multiplier applied to infeasible entries.
    """
    check_positive(qos_ms, "qos_ms")
    check_positive(qos_headroom, "qos_headroom")
    check_positive(penalty_factor, "penalty_factor")
    if not queries or not servers:
        # Zero queries or zero servers means zero matrix elements; the (shared) arrays
        # carry only shape information, so one allocation serves all three float views.
        empty = np.zeros((len(queries), len(servers)))
        return CostMatrix(
            usage_ms=empty,
            penalized_ms=empty,
            weighted=empty,
            qos_feasible=np.zeros(empty.shape, dtype=bool),
            query_ids=tuple(q.query_id for q in queries),
            server_ids=tuple(s.server_id for s in servers),
        )

    # One estimator call per instance *type*, not per server: deterministic estimators
    # predict the same column for every same-type server, so it is computed once and
    # broadcast, with only the per-server terms (remaining busy time + dispatch
    # overhead) varying.  For a stochastic estimator (NoisyLatencyEstimator) this means
    # one noise draw per type per round, shared by its same-type columns — the paper's
    # prediction-noise model perturbs the controller's per-type latency belief, not
    # individual servers, so the robustness experiment is unaffected.
    batches, waits = _row_arrays(queries, now_ms)
    return assemble_cost_matrix(
        queries,
        estimator,
        qos_ms,
        coefficients,
        qos_headroom,
        penalty_factor,
        batches,
        waits,
        _server_offsets(servers, now_ms),
        group_columns([s.type_name for s in servers]),
        tuple(s.server_id for s in servers),
    )


# ---------------------------------------------------------------------------------------
# Incremental column-side state (one instance per policy bind)
# ---------------------------------------------------------------------------------------

@dataclass(frozen=True)
class RoundColumns:
    """A column view produced by :class:`RoundColumnState`.

    ``indices[k]`` maps column ``k`` of the round's matrix back to the bound
    container's server index (what scheduling decisions address).
    """

    indices: List[int]
    server_ids: Tuple[int, ...]
    offsets: np.ndarray
    groups: Sequence[Tuple[object, ColumnIndex]]


class RoundColumnState:
    """Round-over-round column cache for a fixed server list (one policy bind).

    The static layout — type grouping, dispatch overheads, server ids — is derived
    once, and :meth:`refresh` returns it as one stable full-layout view per bind.
    Per round only servers whose
    :attr:`~repro.sim.server.ServerInstance.state_version` moved are re-read (one
    attribute probe per unchanged server), and the offset column is evaluated as one
    whole-array operation into a persistent buffer.

    Eligibility (local queue depth <= 1) is kept as a mask over that stable layout
    instead of a re-gathered view: every depth transition across 1 updates the
    persistent :attr:`ineligible` mask and the per-group :attr:`eligible_counts`, so
    a round with queued dispatches costs nothing beyond the transitions themselves.
    Single-query rounds score the full layout and mask the ineligible columns;
    multi-row rounds ask :meth:`eligible_view` for the filtered view, whose group
    structure preserves first-occurrence order (and :meth:`call_order` gives the
    same order over the full layout's groups), so estimator call order — and
    therefore any stochastic estimator's RNG stream — is identical to the
    from-scratch build over the eligible servers.
    """

    __slots__ = (
        "servers",
        "_keys",
        "_versions",
        "_busy",
        "_depths",
        "_over_depth",
        "_overhead",
        "_offsets_buf",
        "_server_ids",
        "codes",
        "_code_list",
        "_keys_by_code",
        "_full_columns",
        "_contiguous",
        "_order",
        "_n",
        "ineligible",
        "eligible_counts",
    )

    def __init__(
        self,
        servers: Sequence[ServerInstance],
        keys: Optional[Sequence[object]] = None,
    ):
        self.servers = list(servers)
        n = len(self.servers)
        self._n = n
        self._keys = (
            [s.type_name for s in self.servers] if keys is None else list(keys)
        )
        if len(self._keys) != n:
            raise ValueError("keys must parallel the server list")
        self._versions: List[int] = [-1] * n
        self._busy = np.zeros(n, dtype=float)
        self._depths: List[int] = [0] * n
        self._over_depth = 0  # servers with local queue depth > 1 (ineligible)
        self._overhead = np.asarray(
            [s.dispatch_overhead_ms for s in self.servers], dtype=float
        )
        self._offsets_buf = np.empty(n, dtype=float)
        self._server_ids = [s.server_id for s in self.servers]
        code_of: Dict[object, int] = {}
        codes = [code_of.setdefault(key, len(code_of)) for key in self._keys]
        self._code_list = codes
        #: Per server of the full layout, the position of its block in ``groups``
        #: (codes number the keys in first-occurrence order).
        self.codes = np.asarray(codes, dtype=np.intp)
        self._keys_by_code = list(code_of)
        self._full_columns = RoundColumns(
            indices=list(range(n)),
            server_ids=tuple(self._server_ids),
            offsets=self._offsets_buf,
            groups=self._groups_of(self.codes),
        )
        self._contiguous = all(
            isinstance(cols, slice) for _, cols in self._full_columns.groups
        )
        self._order: Optional[List[int]] = None
        #: Persistent mask over the full layout: True where a server is ineligible.
        self.ineligible = np.zeros(n, dtype=bool)
        #: Eligible servers per group of the full layout (indexed like ``groups``).
        self.eligible_counts: List[int] = [0] * len(code_of)
        for code in codes:
            self.eligible_counts[code] += 1

    @property
    def masked(self) -> bool:
        """True when at least one server is ineligible this round."""
        return self._over_depth > 0

    def refresh(self, now_ms: float) -> Optional[RoundColumns]:
        """The full-layout view at ``now_ms``; ``None`` when nothing is eligible.

        The view is the same object for the whole bind, its ``offsets`` buffer is
        rewritten in place, and :attr:`ineligible` / :attr:`eligible_counts` say
        which of its columns are eligible — all valid until the next call only.
        """
        n = self._n
        if n == 0:
            return None  # an empty container has no eligible columns, ever
        versions = self._versions
        depths = self._depths
        busy = self._busy
        for k, s in enumerate(self.servers):
            ver = s.state_version
            if ver != versions[k]:
                versions[k] = ver
                busy[k] = s.busy_until_ms
                depth = s.local_queue_depth
                old = depths[k]
                if depth != old:
                    depths[k] = depth
                    out = depth > 1
                    if out != (old > 1):
                        # only transitions across 1 touch the mask and the counts,
                        # so a round costs nothing for servers whose eligibility held
                        self._over_depth += 1 if out else -1
                        self.ineligible[k] = out
                        self.eligible_counts[self._code_list[k]] -= 1 if out else -1
                        self._order = None

        if self._over_depth == n:
            return None
        offsets = self._offsets_buf
        np.subtract(busy, now_ms, out=offsets)
        np.maximum(offsets, 0.0, out=offsets)
        offsets += self._overhead
        return self._full_columns

    def call_order(self) -> List[int]:
        """Positions in the full layout's ``groups`` of the blocks holding eligible
        servers, in the order :meth:`eligible_view`'s groups list them.

        That order is each block's first *eligible* column, which matches the full
        layout's block order unless a non-contiguous block's leading servers are
        ineligible.  Recomputed only after an eligibility transition.
        """
        order = self._order
        if order is None:
            counts = self.eligible_counts
            order = [g for g in range(len(counts)) if counts[g]]
            if not self._contiguous and self._over_depth:
                # blocks in order of their first eligible server (codes number the
                # blocks, so a scan of the codes finds it)
                wanted = len(order)
                order = []
                for code, out in zip(self._code_list, self.ineligible.tolist()):
                    if not out and code not in order:
                        order.append(code)
                        if len(order) == wanted:
                            break
            self._order = order
        return order

    def eligible_view(self) -> RoundColumns:
        """The eligible columns of the last :meth:`refresh` as a filtered view.

        Multi-row rounds match over this view: the full layout itself when every
        server is eligible, otherwise a gather of the eligible columns (whose
        ``offsets`` is a copy, valid for the round).
        """
        full = self._full_columns
        if self._over_depth == 0:
            return full
        idx = np.flatnonzero(~self.ineligible)
        index_list = idx.tolist()
        ids = self._server_ids
        return RoundColumns(
            indices=index_list,
            server_ids=tuple(ids[i] for i in index_list),
            offsets=full.offsets[idx],
            groups=self._groups_of(self.codes[idx]),
        )

    def _groups_of(self, codes: np.ndarray) -> List[Tuple[object, ColumnIndex]]:
        """Column blocks per group key over ``codes``, first-occurrence order."""
        keys_by_code = self._keys_by_code
        if len(keys_by_code) == 1:
            # single-type pools: one contiguous block
            return [(keys_by_code[0], slice(0, len(codes)))]
        uniq, first = np.unique(codes, return_index=True)
        order = np.argsort(first, kind="stable")
        groups: List[Tuple[object, ColumnIndex]] = []
        for code in uniq[order]:
            cols = np.nonzero(codes == code)[0]
            if cols[-1] - cols[0] + 1 == len(cols):
                groups.append((keys_by_code[code], slice(int(cols[0]), int(cols[-1]) + 1)))
            else:
                groups.append((keys_by_code[code], cols))
        return groups

    # -- introspection helpers shared with the policies --------------------------------
    def unique_keys(self) -> Tuple[object, ...]:
        """Distinct group keys in first-occurrence (server) order over the full list."""
        return tuple(self._keys_by_code)


# ---------------------------------------------------------------------------------------
# Multi-model clusters: one joint matrix over the union of pending queries
# ---------------------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiModelCostMatrix(CostMatrix):
    """The joint ``L`` matrix of a co-located multi-model scheduling round.

    Rows are the union of pending queries across models, columns the union of eligible
    instances; ``cross_model[i, j]`` is True where query ``i`` targets a different
    model than instance ``j`` hosts.  Cross-model pairs can never serve (an instance
    hosts one model copy), so they carry the row model's Eq. 8 penalty, are flagged
    QoS-infeasible, and the policy never commits them; they exist only so one
    assignment solve covers the whole round.  With a single registered model every
    matrix is element-wise identical to :func:`build_cost_matrix`'s output.
    """

    cross_model: np.ndarray = None  # type: ignore[assignment]
    query_models: Tuple[str, ...] = ()
    server_models: Tuple[str, ...] = ()


def resolve_query_models(
    queries: Sequence[Query], qos_ms_by_model: Mapping[str, float]
) -> Tuple[str, ...]:
    """Per-query model names with the sole-model fallback and validation."""
    sole_model = next(iter(qos_ms_by_model)) if len(qos_ms_by_model) == 1 else None

    def row_model(query: Query) -> str:
        if query.model_name is not None:
            name = query.model_name
        elif sole_model is not None:
            name = sole_model
        else:
            raise ValueError(
                f"query {query.query_id} carries no model tag but "
                f"{len(qos_ms_by_model)} models are registered"
            )
        if name not in qos_ms_by_model:
            raise KeyError(f"query {query.query_id} targets unregistered model {name!r}")
        return name

    return tuple(row_model(q) for q in queries)


def assemble_multi_model(
    queries: Sequence[Query],
    query_models: Tuple[str, ...],
    estimators: Mapping[str, LatencyEstimator],
    qos_ms_by_model: Mapping[str, float],
    coefficients_by_model: Mapping[str, Mapping[str, float]],
    qos_headroom: float,
    penalty_factor: float,
    batches: np.ndarray,
    waits: np.ndarray,
    offsets: np.ndarray,
    groups: Sequence[Tuple[Tuple[str, str], ColumnIndex]],
    server_ids: Tuple[int, ...],
    server_models: Tuple[str, ...],
) -> MultiModelCostMatrix:
    """Assemble one joint round from prepared row/column data (see single-model core).

    ``groups`` lists (model, type) column blocks in first-occurrence order;
    estimator calls are issued per block *only when the model has pending rows*,
    matching the from-scratch builder's call sequence exactly.
    """
    m = len(queries)
    n = len(server_ids)
    qos_rows = np.asarray([qos_ms_by_model[name] for name in query_models], dtype=float)

    rows_by_model: Dict[str, List[int]] = {}
    for i, name in enumerate(query_models):
        rows_by_model.setdefault(name, []).append(i)

    # Start every entry at the row model's penalty: same-model blocks are overwritten
    # below, so only cross-model pairs keep it (their "usage" is the Eq. 8 penalty by
    # definition — serving the pair is impossible at any price).
    usage = np.broadcast_to((penalty_factor * qos_rows)[:, None], (m, n)).copy()
    weights = np.empty(n, dtype=float)
    col_arange: Optional[np.ndarray] = None
    for (model_name, type_name), cols in groups:
        coefficients = coefficients_by_model.get(model_name)
        if coefficients is None or type_name not in coefficients:
            raise KeyError(
                f"no heterogeneity coefficient for model {model_name!r} "
                f"type {type_name!r}"
            )
        coefficient = coefficients[type_name]
        if coefficient <= 0:
            raise ValueError("heterogeneity coefficients must be positive")
        weights[cols] = coefficient
        rows = rows_by_model.get(model_name)
        if not rows:
            continue  # no pending query targets this model: the block stays penalized
        predicted = np.asarray(
            estimators[model_name].predict_many_ms(type_name, batches[rows]),
            dtype=float,
        )
        if len(rows) == m:
            # Single-model rounds (and rounds where every pending query targets this
            # model): identical basic-slicing assembly to build_cost_matrix.
            usage[:, cols] = offsets[cols][None, :] + predicted[:, None]
        else:
            if col_arange is None:
                col_arange = np.arange(n)
            usage[np.ix_(rows, col_arange[cols])] = (
                offsets[cols][None, :] + predicted[:, None]
            )

    same_model = (
        np.asarray(query_models, dtype=object)[:, None]
        == np.asarray(server_models, dtype=object)[None, :]
    )
    feasible = ((usage + waits[:, None]) <= qos_headroom * qos_rows[:, None] + 1e-9)
    feasible &= same_model
    penalized = np.where(feasible, usage, (penalty_factor * qos_rows)[:, None])
    weighted = penalized * weights[None, :]

    return MultiModelCostMatrix(
        usage_ms=usage,
        penalized_ms=penalized,
        weighted=weighted,
        qos_feasible=feasible,
        query_ids=tuple(q.query_id for q in queries),
        server_ids=server_ids,
        cross_model=~same_model,
        query_models=query_models,
        server_models=server_models,
    )


def build_multi_model_cost_matrix(
    queries: Sequence[Query],
    servers: Sequence[ServerInstance],
    server_models: Sequence[str],
    estimators: Mapping[str, LatencyEstimator],
    now_ms: float,
    qos_ms_by_model: Mapping[str, float],
    coefficients_by_model: Mapping[str, Mapping[str, float]],
    *,
    qos_headroom: float = DEFAULT_QOS_HEADROOM,
    penalty_factor: float = DEFAULT_PENALTY_FACTOR,
) -> MultiModelCostMatrix:
    """Assemble the joint cost matrix of one multi-model scheduling round.

    Parameters mirror :func:`build_cost_matrix` with per-model plumbing:
    ``server_models[j]`` names the model instance ``j`` hosts, ``estimators`` /
    ``qos_ms_by_model`` / ``coefficients_by_model`` are keyed by model name.  Queries
    may leave ``model_name`` unset only when exactly one model is registered (the
    single-model compatibility path).

    The PR-2 fast path generalizes per model: one ``predict_many_ms`` call per
    (model, instance type) pair per round, over that model's pending batch vector,
    broadcast into the (model-rows x type-columns) block.
    """
    check_positive(qos_headroom, "qos_headroom")
    check_positive(penalty_factor, "penalty_factor")
    for model_name, qos in qos_ms_by_model.items():
        if qos <= 0:
            raise ValueError(f"qos_ms for model {model_name!r} must be positive")

    query_models = resolve_query_models(queries, qos_ms_by_model)
    server_models = tuple(server_models)
    if len(server_models) != len(servers):
        raise ValueError("server_models must parallel the server list")

    if not queries or not servers:
        empty = np.zeros((len(queries), len(servers)))
        return MultiModelCostMatrix(
            usage_ms=empty,
            penalized_ms=empty,
            weighted=empty,
            qos_feasible=np.zeros(empty.shape, dtype=bool),
            query_ids=tuple(q.query_id for q in queries),
            server_ids=tuple(s.server_id for s in servers),
            cross_model=np.zeros(empty.shape, dtype=bool),
            query_models=query_models,
            server_models=server_models,
        )

    batches, waits = _row_arrays(queries, now_ms)
    groups = group_multi_model_columns(server_models, [s.type_name for s in servers])
    return assemble_multi_model(
        queries,
        query_models,
        estimators,
        qos_ms_by_model,
        coefficients_by_model,
        qos_headroom,
        penalty_factor,
        batches,
        waits,
        _server_offsets(servers, now_ms),
        groups,
        tuple(s.server_id for s in servers),
        server_models,
    )


def group_multi_model_columns(
    server_models: Sequence[str], type_names: Sequence[str]
) -> List[Tuple[Tuple[str, str], ColumnIndex]]:
    """(model, type) column blocks, first-occurrence order, slices when contiguous."""
    return group_columns(list(zip(server_models, type_names)))
