"""Jonker-Volgenant shortest-augmenting-path solver: the test suite's assignment oracle.

A from-scratch implementation of the algorithm the paper uses for its query
distribution (Sec. 5.1 cites Jonker & Volgenant 1987 and Crouse 2016).  Scheduling
rounds are solved by :func:`repro.solvers.assignment.canonical_assignment` (scipy's
Crouse variant plus a canonical tie-break); this independent solver checks that every
round reaches the optimal objective.

For an ``m x n`` cost matrix with ``m <= n`` it maintains dual potentials ``u`` (rows)
and ``v`` (columns) and, for each row in turn, runs a Dijkstra-style search over
reduced costs to find a shortest augmenting path, then updates the potentials and flips
the assignments along the path.  Complexity is ``O(m^2 n)``.

The Dijkstra loop is a *flat-array* core: one persistent ``shortest`` vector holds the
tentative distances with an infinity sentinel for closed columns, so the per-step
column selection is a plain masked ``argmin``.  Improvements are written with
``np.copyto(..., where=...)``, the values frozen at column-closing time feed the (lazy,
end-of-row) dual updates, and :class:`JonkerVolgenantSolver` reuses its scratch
buffers across calls.  Its matching, including every tie-break, is identical to the
per-step re-materializing reference in ``tests/property/test_property_assignment.py``.

Matrices with more rows than columns are solved by transposing, which preserves the
matching.  All costs must be finite.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np


class JonkerVolgenantSolver:
    """A JV solver whose scratch buffers persist across calls.

    Per-instance buffers are grown to the largest problem seen (``_ensure``) and
    reset with ``fill``; the only per-call allocations are the two result arrays.
    Not thread-safe.
    """

    __slots__ = (
        "_row_capacity",
        "_col_capacity",
        "_u",
        "_v",
        "_col4row",
        "_row4col",
        "_shortest",
        "_closed_value",
        "_predecessor",
        "_open_cols",
        "_unassigned_cols",
        "_reduced",
        "_improved",
        "_ties",
        "_closed_order",
    )

    def __init__(self) -> None:
        self._row_capacity = 0
        self._col_capacity = 0

    # -- public API ---------------------------------------------------------------------
    def solve(self, cost: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Solve one matching; same contract as :func:`jonker_volgenant_assignment`."""
        cost = np.asarray(cost, dtype=float)
        if cost.ndim != 2:
            raise ValueError(f"cost matrix must be 2-D, got shape {cost.shape}")
        m, n = cost.shape
        if m == 0 or n == 0:
            return np.empty(0, dtype=int), np.empty(0, dtype=int)
        if not np.all(np.isfinite(cost)):
            raise ValueError(
                "cost matrix must be finite; encode forbidden pairs as large penalties"
            )

        # Single-row / single-column matchings are a plain argmin; np.argmin returns
        # the first minimum, which is exactly the tie-break the Dijkstra loop applies
        # on its first step (all columns open and unassigned), so the fast path is
        # identical.
        if m == 1:
            return np.zeros(1, dtype=int), np.asarray([np.argmin(cost[0])], dtype=int)
        if n == 1:
            return np.asarray([np.argmin(cost[:, 0])], dtype=int), np.zeros(1, dtype=int)

        if m > n:
            # Transposing preserves the matching: solve columns-as-rows, then report
            # pairs sorted by the original row index (as the recursive form did).
            rows = self._solve_checked(np.ascontiguousarray(cost.T))
            cols = np.arange(n)
            order = np.argsort(rows)
            return rows[order], cols[order]

        col4row = self._solve_checked(cost)
        return np.arange(m), col4row

    def solve_many(
        self, costs: Iterable[np.ndarray]
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Solve a sequence of matchings reusing one set of scratch buffers."""
        return [self.solve(cost) for cost in costs]

    def __call__(self, cost: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return self.solve(cost)

    # -- internals ----------------------------------------------------------------------
    def _ensure(self, m: int, n: int) -> None:
        """Grow the scratch buffers to cover an ``m x n`` problem (never shrinks)."""
        if m > self._row_capacity:
            self._row_capacity = max(m, 2 * self._row_capacity)
            self._u = np.empty(self._row_capacity)
            self._col4row = np.empty(self._row_capacity, dtype=np.intp)
        if n > self._col_capacity:
            self._col_capacity = max(n, 2 * self._col_capacity)
            c = self._col_capacity
            self._v = np.empty(c)
            self._row4col = np.empty(c, dtype=np.intp)
            self._shortest = np.empty(c)
            self._closed_value = np.empty(c)
            self._predecessor = np.empty(c, dtype=np.intp)
            self._open_cols = np.empty(c, dtype=bool)
            self._unassigned_cols = np.empty(c, dtype=bool)
            self._reduced = np.empty(c)
            self._improved = np.empty(c, dtype=bool)
            self._ties = np.empty(c, dtype=bool)
        self._closed_order: List[int] = []

    def _solve_checked(self, cost: np.ndarray) -> np.ndarray:
        """Core shortest-augmenting-path loop for a finite ``m <= n`` matrix.

        Returns a fresh copy of ``col4row``: for each row, its matched column.
        """
        m, n = cost.shape
        self._ensure(m, n)
        u = self._u[:m]
        v = self._v[:n]
        col4row = self._col4row[:m]
        row4col = self._row4col[:n]
        shortest = self._shortest[:n]
        closed_value = self._closed_value[:n]
        predecessor = self._predecessor[:n]
        open_cols = self._open_cols[:n]
        unassigned_cols = self._unassigned_cols[:n]
        reduced = self._reduced[:n]
        improved = self._improved[:n]
        ties = self._ties[:n]

        u.fill(0.0)
        v.fill(0.0)
        col4row.fill(-1)
        row4col.fill(-1)
        unassigned_cols.fill(True)
        inf = np.inf

        for cur_row in range(m):
            # Dijkstra over columns using reduced costs.  ``shortest`` doubles as the
            # open-set distance table (closed columns are pinned at the +inf sentinel,
            # their closing-time distances frozen in ``closed_value``), so the column
            # pick is one masked argmin over the flat array.
            shortest.fill(inf)
            predecessor.fill(-1)
            open_cols.fill(True)
            closed = self._closed_order
            closed.clear()

            min_val = 0.0
            i = cur_row
            while True:
                # candidate reduced path costs through row i, evaluated over the full
                # row: (min_val + cost[i, j]) - u[i] - v[j], term order as the
                # original implementation so float rounding is bit-identical
                np.add(cost[i], min_val, out=reduced)
                reduced -= u[i]
                reduced -= v
                np.less(reduced, shortest, out=improved)
                improved &= open_cols
                np.copyto(shortest, reduced, where=improved)
                np.copyto(predecessor, i, where=improved)

                # pick the open column with the smallest tentative distance (closed
                # columns sit at +inf), preferring an unassigned column on ties so
                # augmenting paths terminate promptly
                j = int(shortest.argmin())
                lowest = shortest[j]
                if row4col[j] != -1:
                    np.equal(shortest, lowest, out=ties)
                    ties &= unassigned_cols
                    k = int(ties.argmax())
                    if ties[k]:
                        j = k
                min_val = float(lowest)
                if not np.isfinite(min_val):  # pragma: no cover - guarded by finiteness check
                    raise RuntimeError("assignment problem is infeasible")

                open_cols[j] = False
                closed_value[j] = lowest
                shortest[j] = inf
                closed.append(j)
                if row4col[j] == -1:
                    sink = j
                    break
                i = int(row4col[j])

            # dual updates (applied lazily, once per augmenting path): every closed
            # column moves by its frozen closing-time distance, and each visited row
            # other than cur_row is the match of one non-sink closed column
            done = np.asarray(closed, dtype=np.intp)
            u[cur_row] += min_val
            if done.size > 1:
                through = done[:-1]  # the sink is closed last and is unmatched
                u[row4col[through]] += min_val - closed_value[through]
            v[done] -= min_val - closed_value[done]

            # augment along the path ending at `sink`
            j = sink
            unassigned_cols[j] = False
            while True:
                i = int(predecessor[j])
                row4col[j] = i
                jj = int(col4row[i])
                col4row[i] = j
                j = jj
                if i == cur_row:
                    break

        return col4row.copy()


def jonker_volgenant_assignment(cost: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Solve ``min sum(cost[i, j])`` over one-to-one matchings of rows to columns.

    Returns arrays of equal length ``min(m, n)`` giving matched pairs, sorted by row.
    """
    return JonkerVolgenantSolver().solve(cost)
