"""Facade over the assignment solvers with a uniform result object.

Every exact method name (``"jv"``, ``"jonker-volgenant"``, ``"scipy"``) resolves to one
solver, :func:`canonical_assignment`: :func:`scipy.optimize.linear_sum_assignment`
(Crouse's Jonker-Volgenant variant, which the paper cites beside Jonker & Volgenant
1987) followed by a canonical tie-break, so the decision is a property of the cost
matrix rather than of one solver's search order.  ``"hungarian"`` and ``"greedy"`` are
the from-scratch ablation baselines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.solvers.greedy import greedy_assignment
from repro.solvers.hungarian import hungarian_assignment


@dataclass(frozen=True)
class AssignmentResult:
    """Result of a bipartite matching.

    ``row_indices[k]`` is matched to ``col_indices[k]``; ``total_cost`` is the sum of the
    matched cost-matrix entries.
    """

    row_indices: np.ndarray
    col_indices: np.ndarray
    total_cost: float
    method: str

    def __len__(self) -> int:
        return int(self.row_indices.shape[0])

    def as_pairs(self) -> Tuple[Tuple[int, int], ...]:
        """Matched (row, col) pairs as plain tuples."""
        return tuple(
            (int(r), int(c)) for r, c in zip(self.row_indices, self.col_indices)
        )

    def column_of_row(self, row: int) -> int:
        """Column matched to ``row``; raises ``KeyError`` when the row is unmatched."""
        hits = np.nonzero(self.row_indices == row)[0]
        if hits.size == 0:
            raise KeyError(f"row {row} is not matched")
        return int(self.col_indices[hits[0]])


def _canonical_columns(cost: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Re-deal each identical-column class's columns to its rows (``m <= n``).

    ``cols[i]`` is row ``i``'s column.  Columns with equal entries in every row form a
    class; the rows a class serves get its lowest-index columns, in ascending row
    order.  Swapping identical columns leaves the objective unchanged.
    """
    n = cost.shape[1]
    order = np.lexsort(cost)  # stable: a class's columns stay in ascending index order
    ordered = cost[:, order]
    starts = np.empty(n, dtype=bool)
    starts[0] = True
    np.any(ordered[:, 1:] != ordered[:, :-1], axis=0, out=starts[1:])
    if starts.all():
        return cols  # no two columns are identical
    class_start = np.flatnonzero(starts)
    class_of_col = np.empty(n, dtype=np.intp)
    class_of_col[order] = np.cumsum(starts) - 1
    served = class_of_col[cols]
    by_class = np.argsort(served, kind="stable")  # rows ascending within a class
    grouped = served[by_class]
    first = np.searchsorted(grouped, grouped)
    rank = np.arange(grouped.size) - first
    canonical = np.empty_like(cols)
    canonical[by_class] = order[class_start[grouped] + rank]
    return canonical


def canonical_assignment(cost: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Min-cost matching with a tie-break that depends only on the cost matrix.

    Returns ``(row_indices, col_indices)`` of length ``min(m, n)``, sorted by row.

    * A single row or column takes the first minimum (``np.argmin``).
    * Otherwise scipy's optimum is re-dealt within each class of identical columns
      (identical rows when ``m > n``): the class's lowest-index columns go to the
      rows it serves in ascending row order (symmetrically, the class's
      lowest-index rows take its matched columns in ascending column order).
      Identical rows of a square or wide matrix are not re-dealt: which of them
      takes which column is scipy's choice.

    Raises ``ValueError`` for a non-2-D or non-finite cost matrix.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise ValueError(f"cost matrix must be 2-D, got shape {cost.shape}")
    m, n = cost.shape
    if m == 0 or n == 0:
        return np.empty(0, dtype=int), np.empty(0, dtype=int)
    if not np.isfinite(cost).all():
        raise ValueError(
            "cost matrix must be finite; encode forbidden pairs as large penalties"
        )
    if m == 1:
        return np.zeros(1, dtype=int), np.asarray([np.argmin(cost[0])], dtype=int)
    if n == 1:
        return np.asarray([np.argmin(cost[:, 0])], dtype=int), np.zeros(1, dtype=int)
    rows, cols = linear_sum_assignment(cost)
    if m <= n:
        return np.arange(m), _canonical_columns(cost, cols.astype(int))
    # columns-as-rows: each column's canonical row, reported sorted by row
    row_of_col = np.empty(n, dtype=int)
    row_of_col[cols] = rows
    row_of_col = _canonical_columns(cost.T, row_of_col)
    order = np.argsort(row_of_col)
    return row_of_col[order], order


_SOLVERS: Dict[str, Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]] = {
    "jv": canonical_assignment,
    "jonker-volgenant": canonical_assignment,
    "scipy": canonical_assignment,
    "hungarian": hungarian_assignment,
    "greedy": greedy_assignment,
}


def available_methods() -> Tuple[str, ...]:
    """Names accepted by :func:`solve_assignment`."""
    return tuple(sorted(set(_SOLVERS)))


def round_solver(method: str) -> Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]:
    """The ``cost -> (rows, cols)`` solver a scheduling pipeline calls every round."""
    key = method.lower()
    if key not in _SOLVERS:
        raise ValueError(
            f"unknown assignment method {method!r}; choose from {available_methods()}"
        )
    return _SOLVERS[key]


def solve_assignment(cost: np.ndarray, method: str = "jv") -> AssignmentResult:
    """Solve a (possibly rectangular) min-cost assignment problem.

    Parameters
    ----------
    cost:
        2-D array of finite costs; all ``min(m, n)`` assignments are made.
    method:
        ``"jv"`` (default), ``"jonker-volgenant"`` and ``"scipy"`` all name
        :func:`canonical_assignment`; ``"hungarian"`` and ``"greedy"`` are the
        ablation baselines.
    """
    solver = round_solver(method)
    cost = np.asarray(cost, dtype=float)
    rows, cols = solver(cost)  # every solver rejects a non-2-D or non-finite matrix
    if rows.size:
        total = float(cost[rows, cols].sum())
    else:
        total = 0.0
    return AssignmentResult(
        row_indices=np.asarray(rows, dtype=int),
        col_indices=np.asarray(cols, dtype=int),
        total_cost=total,
        method=method.lower(),
    )
