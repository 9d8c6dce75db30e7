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
completed since the last round have new column data.  :class:`RoundColumnState`
exploits this: it pins the column layout (type grouping, weights targets, dispatch
overheads, server ids) once per policy bind, and servers push each change to it as it
happens (every :attr:`~repro.sim.server.ServerInstance.state_version` bump adds the
server to the state's dirty set), so a round re-reads only the servers that changed
and evaluates the offset column only when it reads it.

Eligibility is a mask over that stable layout, not a re-gathered view: each depth
transition across 1 flips one mask bit.  Near capacity most rounds have some server
with a queued dispatch, and nine in ten rounds have one pending query.  Those rounds
read each block's eligible servers in busy-horizon order (its *runs*): within a run
the single-query score is monotone in the horizon, so the first minimum of the
row is found block by block without scoring it — the same decision, estimator calls
and RNG stream as the round over the eligible servers.  A multi-row round with
exactly one eligible server is the transposed degenerate shape: its matching picks
the first-minimum row of one column, which the policy scores directly against that
server (:meth:`RoundColumnState.sole_eligible`).  Other multi-row rounds match over
a gathered eligible view, since penalty columns in the matrix would join the
matching and change its tie-breaks.  The shared public assembly cores
(:func:`assemble_cost_matrix` / :func:`assemble_multi_model`) guarantee the
incremental path is element-wise identical to the from-scratch builders (locked
down by the golden and fast-path suites).
"""

from __future__ import annotations

from bisect import bisect_left, insort
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
        coefficient = checked_coefficient(coefficients, type_name)
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


def checked_coefficient(coefficients: Mapping[str, float], type_name: str) -> float:
    """``C_j`` of ``type_name``; ``KeyError`` when missing, ``ValueError`` unless > 0."""
    if type_name not in coefficients:
        raise KeyError(f"no heterogeneity coefficient for instance type {type_name!r}")
    coefficient = coefficients[type_name]
    if coefficient <= 0:
        raise ValueError("heterogeneity coefficients must be positive")
    return coefficient


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

class RoundColumns:
    """A column view produced by :class:`RoundColumnState`.

    ``indices[k]`` maps column ``k`` of the round's matrix back to the bound
    container's server index (what scheduling decisions address).
    """

    __slots__ = ("indices", "server_ids", "offsets", "groups")

    def __init__(
        self,
        indices: List[int],
        server_ids: Tuple[int, ...],
        offsets: np.ndarray,
        groups: Sequence[Tuple[object, ColumnIndex]],
    ):
        self.indices = indices
        self.server_ids = server_ids
        self.offsets = offsets
        self.groups = groups


class _FullLayout(RoundColumns):
    """The bind's full-layout view; ``offsets`` is evaluated on its first read
    after each :meth:`RoundColumnState.refresh`, so rounds that never read it
    (single-query rounds) never compute it."""

    __slots__ = ("_busy", "_overhead", "_buffer", "_now", "_fresh")

    def __init__(self, indices, server_ids, groups, busy, overhead):
        self.indices = indices
        self.server_ids = server_ids
        self.groups = groups
        self._busy = busy  # the state's busy horizons, updated in place per refresh
        self._overhead = overhead
        self._buffer = np.empty(len(indices), dtype=float)
        self._now = 0.0
        self._fresh = False

    @property
    def offsets(self) -> np.ndarray:  # type: ignore[override]
        """Per-column remaining busy time plus dispatch overhead at the last refresh."""
        offsets = self._buffer
        if not self._fresh:
            np.subtract(self._busy, self._now, out=offsets)
            np.maximum(offsets, 0.0, out=offsets)
            offsets += self._overhead
            self._fresh = True
        return offsets


class _Run:
    """The eligible servers of one block that share a dispatch overhead.

    Their offsets, and so their single-query scores, are monotone in the busy
    horizon.  ``idle`` has bit ``k`` set for each server ``k`` already idle at the
    last refresh (all share the offset ``0.0 + overhead``), ``busy`` lists the
    others as ``(horizon, index)`` in ascending order, and ``bits`` has the bits of
    both.
    """

    __slots__ = ("code", "overhead", "idle_offset", "idle", "busy", "bits")

    def __init__(self, code: int, overhead: float):
        self.code = code
        self.overhead = overhead
        self.idle_offset = 0.0 + overhead
        self.idle = 0
        self.busy: List[Tuple[float, int]] = []
        self.bits = 0


#: ``RoundColumnState._place`` marker of an eligible server that is idle.
_IDLE = "idle"


class RoundColumnState:
    """Round-over-round column cache for a fixed server list (one policy bind).

    The static layout — type grouping, dispatch overheads, server ids — is derived
    once, and :meth:`refresh` returns it as one stable full-layout view per bind.
    Servers push their changes: the state registers a dirty set with each server
    (see :attr:`~repro.sim.server.ServerInstance.state_version`), every change adds
    the server's index, and a round re-reads only those servers.  A fresh state
    starts with every server dirty, so its first round reads them all.  The offset
    column is evaluated only when a round reads it.

    Eligibility (local queue depth <= 1) is kept as a mask over that stable layout
    instead of a re-gathered view: every depth transition across 1 updates the
    persistent :attr:`ineligible` mask and its run's bits (which
    :attr:`eligible_counts` counts), so a round with queued dispatches costs nothing
    beyond the transitions themselves.
    Single-query rounds read the eligible servers of each block from :attr:`runs`,
    ordered by busy horizon; multi-row rounds with one eligible server read it from
    :meth:`sole_eligible`;
    other multi-row rounds ask :meth:`eligible_view` for the filtered view, whose group
    structure preserves first-occurrence order (and :meth:`call_order` gives the
    same order over the full layout's groups), so estimator call order — and
    therefore any stochastic estimator's RNG stream — is identical to the
    from-scratch build over the eligible servers.
    """

    __slots__ = (
        "servers",
        "_keys",
        "_dirty",
        "_busy",
        "_over_depth",
        "_server_ids",
        "codes",
        "_keys_by_code",
        "_full_columns",
        "_contiguous",
        "_order",
        "_n",
        "ineligible",
        "runs",
        "group_runs",
        "_run_of",
        "_place",
        "_next_expiry",
        "now_ms",
    )

    def __init__(
        self,
        servers: Sequence[ServerInstance],
        keys: Optional[Sequence[object]] = None,
    ):
        self.servers = servers = list(servers)
        n = self._n = len(servers)
        keys = self._keys = (
            [s.type_name for s in servers] if keys is None else list(keys)
        )
        if len(keys) != n:
            raise ValueError("keys must parallel the server list")
        self._busy: List[float] = [0.0] * n
        self._over_depth = 0  # servers with local queue depth > 1 (ineligible)
        overhead = [s.dispatch_overhead_ms for s in servers]
        self._server_ids = [s.server_id for s in servers]
        #: One :class:`_Run` per (group, dispatch overhead), first-occurrence order,
        #: and each group's runs (indexed like ``groups``).  Codes number the keys
        #: in first-occurrence order.
        self.runs: List[_Run] = []
        self.group_runs: List[List[_Run]] = []
        run_of: List[_Run] = []
        code_of: Dict[object, int] = {}
        run_at: Dict[Tuple[int, float], _Run] = {}
        run = run_key = None
        # every server starts dirty, so a fresh state reads them all on its first
        # round, and pushes its later changes here
        dirty = self._dirty = set(range(n))
        for k, server in enumerate(servers):
            server._sinks += ((dirty, k),)
            key = keys[k]
            oh = overhead[k]
            # same-type servers are usually adjacent: look a run up only when
            # the (key, overhead) pair changes
            if run is None or key != run_key or oh != run.overhead:
                run_key = key
                code = code_of.get(key)
                if code is None:
                    code = code_of[key] = len(self.group_runs)
                    self.group_runs.append([])
                run = run_at.get((code, oh))
                if run is None:
                    run = run_at[(code, oh)] = _Run(code, oh)
                    self.runs.append(run)
                    self.group_runs[code].append(run)
            run.bits |= 1 << k
            run_of.append(run)
        self._run_of = run_of
        #: Per server of the full layout, the position of its block in ``groups``.
        self.codes = np.asarray([run.code for run in run_of], dtype=np.intp)
        self._keys_by_code = list(code_of)
        groups = group_columns(keys)
        self._full_columns = _FullLayout(
            list(range(n)),
            tuple(self._server_ids),
            groups,
            self._busy,
            np.asarray(overhead, dtype=float),
        )
        self._contiguous = all(isinstance(cols, slice) for _, cols in groups)
        self._order: Optional[List[int]] = None
        #: Persistent mask over the full layout: True where a server is ineligible.
        self.ineligible = np.zeros(n, dtype=bool)
        #: Per server: ``None`` when ineligible, else ``_IDLE`` or its entry in its
        #: run's ``busy`` list.  Every server starts idle and eligible (depth 0).
        self._place: List[object] = [_IDLE] * n
        for run in self.runs:
            run.idle = run.bits
        self._next_expiry = float("-inf")
        self.now_ms = float("-inf")

    def __del__(self):
        # stop the servers pushing to a state nobody reads any more
        dirty = getattr(self, "_dirty", None)
        for server in getattr(self, "servers", ()):
            server._sinks = tuple(e for e in server._sinks if e[0] is not dirty)

    @property
    def masked(self) -> bool:
        """True when at least one server is ineligible this round."""
        return self._over_depth > 0

    @property
    def eligible_count(self) -> int:
        """Eligible servers as of the last :meth:`refresh`."""
        return self._n - self._over_depth

    def sole_eligible(self) -> Tuple[int, object]:
        """The full-layout index and group key of the one eligible server.

        Meaningful only when :attr:`eligible_count` is 1: the index is then the
        mask's first (and only) clear bit.
        """
        k = int(self.ineligible.argmin())
        return k, self._keys[k]

    def offset(self, k: int) -> float:
        """Column ``k``'s entry of the offsets at the last refresh, as a scalar."""
        busy = self._busy[k]
        now_ms = self.now_ms
        return (busy - now_ms if busy > now_ms else 0.0) + self._run_of[k].overhead

    def refresh(self, now_ms: float) -> Optional[RoundColumns]:
        """The full-layout view at ``now_ms``; ``None`` when nothing is eligible.

        The view is the same object for the whole bind, its ``offsets`` are
        evaluated for ``now_ms`` on first read, and :attr:`ineligible` /
        :attr:`eligible_counts` / :attr:`runs` say which of its columns are
        eligible — all valid until the next call only.
        """
        n = self._n
        if n == 0:
            return None  # an empty container has no eligible columns, ever
        dirty = self._dirty
        if now_ms < self.now_ms:
            dirty.update(range(n))  # time went back: re-key every idle server
        self.now_ms = now_ms
        if dirty:
            self._reread(dirty, now_ms)
        if now_ms >= self._next_expiry:
            self._expire(now_ms)
        full = self._full_columns
        full._now = now_ms
        full._fresh = False
        if self._over_depth == n:
            return None
        return full

    def _reread(self, dirty, now_ms: float) -> None:
        """Re-read the servers in ``dirty`` (and empty it)."""
        servers = self.servers
        busy_of = self._busy
        place = self._place
        run_of = self._run_of
        expiry = self._next_expiry
        for k in dirty:
            s = servers[k]
            busy = busy_of[k] = s.busy_until_ms
            run = run_of[k]
            old = place[k]
            if old is _IDLE:
                run.idle ^= 1 << k
            elif old is not None:
                del run.busy[bisect_left(run.busy, old)]
            out = s.local_queue_depth > 1
            if out is not (old is None):
                # an eligibility transition across depth 1: the only change that
                # touches the mask, the counts and (when a block empties or
                # refills, or the layout is non-contiguous) the call order
                self._over_depth += 1 if out else -1
                self.ineligible[k] = out
                bits = run.bits = run.bits ^ (1 << k)
                if not bits or bits == 1 << k or not self._contiguous:
                    self._order = None
            if out:
                place[k] = None
            elif busy <= now_ms:
                run.idle |= 1 << k
                place[k] = _IDLE
            else:
                entry = place[k] = (busy, k)
                insort(run.busy, entry)
                if busy < expiry:
                    expiry = busy
        dirty.clear()
        self._next_expiry = expiry

    def _expire(self, now_ms: float) -> None:
        """Move to ``idle`` every eligible server whose busy horizon has passed."""
        place = self._place
        expiry = float("inf")
        for run in self.runs:
            busy = run.busy
            while busy and busy[0][0] <= now_ms:
                k = busy.pop(0)[1]
                run.idle |= 1 << k
                place[k] = _IDLE
            if busy and busy[0][0] < expiry:
                expiry = busy[0][0]
        self._next_expiry = expiry

    def call_order(self) -> List[int]:
        """Positions in the full layout's ``groups`` of the blocks holding eligible
        servers, in the order :meth:`eligible_view`'s groups list them.

        That order is each block's first *eligible* column, which matches the full
        layout's block order unless a non-contiguous block's leading servers are
        ineligible.  Recomputed only after an eligibility transition.
        """
        order = self._order
        if order is None:
            firsts = []
            for g, runs in enumerate(self.group_runs):
                bits = 0
                for run in runs:
                    bits |= run.bits
                if bits:
                    firsts.append(((bits & -bits).bit_length(), g))
            order = self._order = [g for _, g in sorted(firsts)]
        return order

    @property
    def eligible_counts(self) -> List[int]:
        """Eligible servers per group of the full layout (indexed like ``groups``)."""
        return [sum(run.bits.bit_count() for run in runs) for runs in self.group_runs]

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
        keys = self._keys
        return RoundColumns(
            indices=index_list,
            server_ids=tuple(ids[i] for i in index_list),
            offsets=full.offsets[idx],
            groups=group_columns([keys[i] for i in index_list]),
        )

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


def model_codes(
    models: Sequence[str], qos_ms_by_model: Mapping[str, float]
) -> np.ndarray:
    """Each model's position in ``qos_ms_by_model`` order (-1 when not registered):
    the integer codes :func:`assemble_multi_model`'s cross-model mask compares."""
    code_of = {name: code for code, name in enumerate(qos_ms_by_model)}
    return np.asarray([code_of.get(name, -1) for name in models], dtype=np.intp)


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
    server_codes: np.ndarray,
) -> MultiModelCostMatrix:
    """Assemble one joint round from prepared row/column data (see single-model core).

    ``groups`` lists (model, type) column blocks in first-occurrence order;
    estimator calls are issued per block *only when the model has pending rows*,
    matching the from-scratch builder's call sequence exactly.  ``server_codes``
    gives each column's model as its :func:`model_codes` code.
    """
    m = len(queries)
    n = len(server_ids)
    query_codes = model_codes(query_models, qos_ms_by_model)
    qos_rows = np.fromiter(qos_ms_by_model.values(), float)[query_codes]

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

    same_model = query_codes[:, None] == server_codes[None, :]
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
        model_codes(server_models, qos_ms_by_model),
    )


def group_multi_model_columns(
    server_models: Sequence[str], type_names: Sequence[str]
) -> List[Tuple[Tuple[str, str], ColumnIndex]]:
    """(model, type) column blocks, first-occurrence order, slices when contiguous."""
    return group_columns(list(zip(server_models, type_names)))
