"""Property-based tests for the assignment solvers.

Invariants:

* the Jonker-Volgenant oracle (``tests/jv_oracle.py``) and the Hungarian solver
  always achieve exactly the optimal cost reported by SciPy's reference
  implementation;
* every solver produces a valid matching (unique rows/columns, min(m, n) pairs);
* the greedy matcher never beats the optimum;
* the oracle's flat-array JV core returns the *element-wise identical*
  assignment to a frozen copy of the pre-rewrite implementation — on tie-free and
  tie-heavy matrices alike — and matches the Hungarian solver's total cost on random
  rectangular matrices.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linear_sum_assignment

from jv_oracle import JonkerVolgenantSolver, jonker_volgenant_assignment
from repro.solvers.greedy import greedy_assignment
from repro.solvers.hungarian import hungarian_assignment


# ---------------------------------------------------------------------------------------
# Frozen copy of the pre-rewrite Jonker-Volgenant implementation (the per-step
# nonzero/fancy-indexing form the PR 5 flat-array core replaced).  Kept verbatim as the
# behavioural reference: the rewrite must reproduce its matching *including every
# tie-break*, because scheduling runs are asserted byte-identical per seed.
# ---------------------------------------------------------------------------------------
def _reference_jv(cost):
    cost = np.asarray(cost, dtype=float)
    m, n = cost.shape
    if m == 0 or n == 0:
        return np.empty(0, dtype=int), np.empty(0, dtype=int)
    if m == 1:
        return np.zeros(1, dtype=int), np.asarray([np.argmin(cost[0])], dtype=int)
    if n == 1:
        return np.asarray([np.argmin(cost[:, 0])], dtype=int), np.zeros(1, dtype=int)
    if m > n:
        cols, rows = _reference_jv(cost.T)
        order = np.argsort(rows)
        return rows[order], cols[order]
    return np.arange(m), _reference_jv_core(cost)


def _reference_jv_core(cost):
    m, n = cost.shape
    u = np.zeros(m)
    v = np.zeros(n)
    col4row = np.full(m, -1, dtype=int)
    row4col = np.full(n, -1, dtype=int)
    for cur_row in range(m):
        shortest = np.full(n, np.inf)
        predecessor = np.full(n, -1, dtype=int)
        done_cols = np.zeros(n, dtype=bool)
        visited_rows = np.zeros(m, dtype=bool)
        min_val = 0.0
        i = cur_row
        sink = -1
        while sink == -1:
            visited_rows[i] = True
            open_cols = ~done_cols
            reduced = min_val + cost[i, open_cols] - u[i] - v[open_cols]
            open_idx = np.nonzero(open_cols)[0]
            improved = reduced < shortest[open_idx]
            if np.any(improved):
                upd = open_idx[improved]
                shortest[upd] = reduced[improved]
                predecessor[upd] = i
            open_shortest = shortest[open_idx]
            lowest = open_shortest.min()
            tie_cols = open_idx[open_shortest == lowest]
            unassigned_ties = tie_cols[row4col[tie_cols] == -1]
            j = int(unassigned_ties[0]) if unassigned_ties.size else int(tie_cols[0])
            min_val = float(lowest)
            done_cols[j] = True
            if row4col[j] == -1:
                sink = j
            else:
                i = int(row4col[j])
        u[cur_row] += min_val
        other_visited = visited_rows.copy()
        other_visited[cur_row] = False
        if np.any(other_visited):
            rows_idx = np.nonzero(other_visited)[0]
            u[rows_idx] += min_val - shortest[col4row[rows_idx]]
        v[done_cols] -= min_val - shortest[done_cols]
        j = sink
        while True:
            i = int(predecessor[j])
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    return col4row

cost_matrices = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 7), st.integers(1, 7)),
    elements=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False),
)


def optimal_cost(cost):
    rows, cols = linear_sum_assignment(cost)
    return cost[rows, cols].sum()


def assert_valid_matching(cost, rows, cols):
    m, n = cost.shape
    assert len(rows) == len(cols) == min(m, n)
    assert len(set(rows.tolist())) == len(rows)
    assert len(set(cols.tolist())) == len(cols)
    assert np.all((0 <= rows) & (rows < m))
    assert np.all((0 <= cols) & (cols < n))


@settings(max_examples=60, deadline=None)
@given(cost=cost_matrices)
def test_jonker_volgenant_is_optimal(cost):
    rows, cols = jonker_volgenant_assignment(cost)
    assert_valid_matching(cost, rows, cols)
    assert cost[rows, cols].sum() == np.float64(cost[rows, cols].sum())
    assert abs(cost[rows, cols].sum() - optimal_cost(cost)) < 1e-6


@settings(max_examples=60, deadline=None)
@given(cost=cost_matrices)
def test_hungarian_is_optimal(cost):
    rows, cols = hungarian_assignment(cost)
    assert_valid_matching(cost, rows, cols)
    assert abs(cost[rows, cols].sum() - optimal_cost(cost)) < 1e-6


@settings(max_examples=60, deadline=None)
@given(cost=cost_matrices)
def test_greedy_is_valid_and_never_below_optimal(cost):
    rows, cols = greedy_assignment(cost)
    assert_valid_matching(cost, rows, cols)
    assert cost[rows, cols].sum() >= optimal_cost(cost) - 1e-6


tie_free_matrices = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(2, 9), st.integers(2, 9)),
    elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False),
    unique=True,  # pairwise-distinct entries: no equal path costs to tie-break
)

tie_heavy_matrices = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(2, 9), st.integers(2, 9)),
    elements=st.integers(0, 4).map(float),
)


@settings(max_examples=80, deadline=None)
@given(cost=cost_matrices)
def test_jv_rewrite_matches_hungarian_total_cost(cost):
    """The flat-array core is optimal: total cost equals the Hungarian solver's."""
    rows, cols = jonker_volgenant_assignment(cost)
    h_rows, h_cols = hungarian_assignment(cost)
    assert abs(cost[rows, cols].sum() - cost[h_rows, h_cols].sum()) < 1e-6


@settings(max_examples=80, deadline=None)
@given(cost=tie_free_matrices)
def test_jv_rewrite_identical_to_reference_on_tie_free_matrices(cost):
    """On tie-free matrices the rewritten core returns the exact same assignment."""
    ref_rows, ref_cols = _reference_jv(cost)
    rows, cols = jonker_volgenant_assignment(cost)
    np.testing.assert_array_equal(rows, ref_rows)
    np.testing.assert_array_equal(cols, ref_cols)


@settings(max_examples=80, deadline=None)
@given(cost=tie_heavy_matrices)
def test_jv_rewrite_identical_to_reference_including_tie_breaks(cost):
    """Stronger than the tie-free guarantee: every tie-break decision is preserved,
    which is what keeps optimized serving runs byte-identical per seed."""
    ref_rows, ref_cols = _reference_jv(cost)
    rows, cols = jonker_volgenant_assignment(cost)
    np.testing.assert_array_equal(rows, ref_rows)
    np.testing.assert_array_equal(cols, ref_cols)


@settings(max_examples=40, deadline=None)
@given(cost=cost_matrices)
def test_jv_scratch_reuse_is_stateless_across_solves(cost):
    """A persistent solver gives the same answer as a fresh one (scratch reuse leaks
    no state between solves), and ``solve_many`` equals per-call ``solve``."""
    persistent = JonkerVolgenantSolver()
    warmup = np.arange(12.0).reshape(3, 4) % 5  # dirty the scratch with another shape
    persistent.solve(warmup)
    rows, cols = persistent.solve(cost)
    f_rows, f_cols = JonkerVolgenantSolver().solve(cost)
    np.testing.assert_array_equal(rows, f_rows)
    np.testing.assert_array_equal(cols, f_cols)
    many = persistent.solve_many([cost, warmup])
    np.testing.assert_array_equal(many[0][0], rows)
    np.testing.assert_array_equal(many[0][1], cols)


@settings(max_examples=40, deadline=None)
@given(cost=cost_matrices, shift=st.floats(min_value=-50, max_value=50, allow_nan=False))
def test_jv_invariant_under_constant_column_shift(cost, shift):
    """Adding a constant to every entry shifts the optimal cost by min(m, n) * shift
    but must not change the optimal matching's structure cost relative to scipy."""
    shifted = cost + shift
    rows, cols = jonker_volgenant_assignment(shifted)
    assert abs(shifted[rows, cols].sum() - optimal_cost(shifted)) < 1e-6
