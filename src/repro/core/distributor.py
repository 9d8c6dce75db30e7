"""Kairos's query-distribution mechanism (paper Sec. 5.1).

At every scheduling point the distributor builds the heterogeneity-weighted,
QoS-penalized cost matrix over (pending queries) x (instances) and solves the resulting
rectangular min-cost bipartite matching with the Jonker-Volgenant algorithm (scipy's
Crouse variant behind a canonical tie-break; see
:func:`repro.solvers.assignment.canonical_assignment`).  The matching maximizes the
future availability of all instances combined (Eq. 2), which is what lets Kairos keep
larger, higher-speedup queries on powerful instances and pack smaller queries onto the
cheaper auxiliary instances without violating QoS (Fig. 5).

Per Eq. 6 at most one query is assigned to each instance per round; unassigned queries
remain in the central queue and their accumulated waiting time ``W_i`` tightens their
QoS constraint in later rounds, which prevents starvation (Eq. 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core import cost_matrix as cost_matrix_lib
from repro.core.cost_matrix import (
    DEFAULT_PENALTY_FACTOR,
    DEFAULT_QOS_HEADROOM,
    CostMatrix,
    RoundColumns,
    build_cost_matrix,
)
from repro.core.latency_model import LatencyEstimator
from repro.sim.server import ServerInstance
from repro.solvers.assignment import round_solver
from repro.utils.validation import check_positive_int
from repro.workload.query import Query


@dataclass(frozen=True)
class Assignment:
    """One query-to-instance decision produced by a distribution round."""

    query: Query
    server_index: int
    predicted_usage_ms: float
    predicted_feasible: bool


@dataclass(frozen=True)
class DistributionRound:
    """Full outcome of one distribution round (assignments + the matrices behind them)."""

    assignments: Tuple[Assignment, ...]
    cost_matrix: CostMatrix
    objective_value: float

    def __len__(self) -> int:
        return len(self.assignments)


class QueryDistributor:
    """Solves the per-round query-to-instance matching.

    Parameters
    ----------
    estimator:
        Latency predictor used to build the ``L`` matrix.
    coefficients:
        Heterogeneity coefficients ``C_j`` keyed by instance-type name.
    qos_ms:
        The model's QoS target.
    solver_method:
        Assignment method resolved by :func:`repro.solvers.assignment.round_solver`
        (default ``"jv"``: the canonical Jonker-Volgenant solver).
    max_queries_per_round:
        Upper bound on how many pending queries enter one matching (earliest arrivals
        first).  The paper's controller solves 20x20 matchings in well under a
        millisecond; bounding the round size keeps the distributor's cost independent of
        transient queue build-up.
    """

    def __init__(
        self,
        estimator: LatencyEstimator,
        coefficients: Mapping[str, float],
        qos_ms: float,
        *,
        solver_method: str = "jv",
        qos_headroom: float = DEFAULT_QOS_HEADROOM,
        penalty_factor: float = DEFAULT_PENALTY_FACTOR,
        max_queries_per_round: Optional[int] = 64,
    ):
        if qos_ms <= 0:
            raise ValueError("qos_ms must be positive")
        self.estimator = estimator
        self.coefficients = dict(coefficients)
        self.qos_ms = float(qos_ms)
        self.solver_method = solver_method
        self.qos_headroom = float(qos_headroom)
        self.penalty_factor = float(penalty_factor)
        if max_queries_per_round is not None:
            check_positive_int(max_queries_per_round, "max_queries_per_round")
        self.max_queries_per_round = max_queries_per_round
        self._solver = round_solver(solver_method)

    def distribute(
        self,
        now_ms: float,
        pending: Sequence[Query],
        servers: Sequence[ServerInstance],
    ) -> DistributionRound:
        """Match pending queries to instances at time ``now_ms``.

        Queries beyond ``max_queries_per_round`` (in arrival order) are deferred to the
        next round.  Exactly ``min(#considered queries, #servers)`` assignments are
        produced (Eq. 7).
        """
        if not pending or not servers:
            empty_matrix = build_cost_matrix(
                [], [], self.estimator, now_ms, self.qos_ms, self.coefficients
            )
            return DistributionRound(assignments=(), cost_matrix=empty_matrix, objective_value=0.0)

        considered = list(pending)
        if self.max_queries_per_round is not None and len(considered) > self.max_queries_per_round:
            considered = considered[: self.max_queries_per_round]

        matrix = build_cost_matrix(
            considered,
            servers,
            self.estimator,
            now_ms,
            self.qos_ms,
            self.coefficients,
            qos_headroom=self.qos_headroom,
            penalty_factor=self.penalty_factor,
        )
        return self._solve_round(considered, matrix)

    def distribute_prepared(
        self,
        considered: Sequence[Query],
        batches,
        waits,
        columns: RoundColumns,
    ) -> DistributionRound:
        """The incremental entry point: match pre-capped queries to prepared columns.

        ``considered``/``batches``/``waits`` come from the pending queue's memoized
        snapshot arrays (already capped at ``max_queries_per_round``), ``columns``
        from :meth:`~repro.core.cost_matrix.RoundColumnState.eligible_view`.  Produces
        the exact round :meth:`distribute` would, element for element — only the
        Python-level re-materialization work is skipped.  Server indices in the
        result address ``columns``' filtered column space; callers map them back
        through ``columns.indices``.
        """
        matrix = cost_matrix_lib.assemble_cost_matrix(
            considered,
            self.estimator,
            self.qos_ms,
            self.coefficients,
            self.qos_headroom,
            self.penalty_factor,
            batches,
            waits,
            columns.offsets,
            columns.groups,
            columns.server_ids,
        )
        return self._solve_round(considered, matrix)

    def _solve_round(
        self, considered: Sequence[Query], matrix: CostMatrix
    ) -> DistributionRound:
        rows, cols = self._solver(matrix.weighted)
        if rows.size:
            objective = float(matrix.weighted[rows, cols].sum())
            usage_vals = matrix.usage_ms[rows, cols].tolist()
            feasible_vals = matrix.qos_feasible[rows, cols].tolist()
        else:
            objective = 0.0
            usage_vals = []
            feasible_vals = []
        assignments = tuple(
            Assignment(
                query=considered[int(row)],
                server_index=int(col),
                predicted_usage_ms=usage,
                predicted_feasible=feasible,
            )
            for row, col, usage, feasible in zip(rows, cols, usage_vals, feasible_vals)
        )
        return DistributionRound(
            assignments=assignments,
            cost_matrix=matrix,
            objective_value=objective,
        )
