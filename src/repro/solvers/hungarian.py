"""Hungarian (Kuhn-Munkres) algorithm with dual potentials, O(n^2 m).

Kept as an independent reference implementation and ablation baseline: the test
suite cross-checks it against the round solver and a Jonker-Volgenant oracle on random
instances, and the solver ablation benchmark compares their runtime on the matching
sizes Kairos actually encounters (tens of queries x tens of instances).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def hungarian_assignment(cost: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Solve the rectangular min-cost assignment problem with the Hungarian method.

    Returns ``(row_indices, col_indices)`` of length ``min(m, n)``, sorted by row.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise ValueError(f"cost matrix must be 2-D, got shape {cost.shape}")
    m, n = cost.shape
    if m == 0 or n == 0:
        return np.empty(0, dtype=int), np.empty(0, dtype=int)
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix must be finite; encode forbidden pairs as large penalties")

    if m > n:
        cols, rows = hungarian_assignment(cost.T)
        order = np.argsort(rows)
        return rows[order], cols[order]

    # Classic potentials formulation (1-indexed sentinel column 0), rows <= columns.
    INF = np.inf
    u = np.zeros(m + 1)
    v = np.zeros(n + 1)
    p = np.zeros(n + 1, dtype=int)  # p[j] = row (1-based) matched to column j
    way = np.zeros(n + 1, dtype=int)

    for i in range(1, m + 1):
        p[0] = i
        j0 = 0
        minv = np.full(n + 1, INF)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = INF
            j1 = -1
            # vectorized relaxation over unused columns
            unused = np.nonzero(~used[1:])[0] + 1
            cur = cost[i0 - 1, unused - 1] - u[i0] - v[unused]
            better = cur < minv[unused]
            if np.any(better):
                cols_better = unused[better]
                minv[cols_better] = cur[better]
                way[cols_better] = j0
            # pick the unused column with the smallest minv
            k = int(np.argmin(minv[unused]))
            delta = float(minv[unused][k])
            j1 = int(unused[k])
            # update potentials
            used_idx = np.nonzero(used)[0]
            u[p[used_idx]] += delta
            v[used_idx] -= delta
            not_used_idx = np.nonzero(~used)[0]
            minv[not_used_idx] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        # augmenting
        while True:
            j1 = int(way[j0])
            p[j0] = p[j1]
            j0 = j1
            if j0 == 0:
                break

    rows = []
    cols = []
    for j in range(1, n + 1):
        if p[j] != 0:
            rows.append(p[j] - 1)
            cols.append(j - 1)
    rows_arr = np.asarray(rows, dtype=int)
    cols_arr = np.asarray(cols, dtype=int)
    order = np.argsort(rows_arr)
    return rows_arr[order], cols_arr[order]
