"""Tests for repro.solvers: the exact round solver, Hungarian, greedy, and the facade."""

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from repro.solvers.assignment import (
    AssignmentResult,
    available_methods,
    round_solver,
    solve_assignment,
)
from repro.solvers.greedy import greedy_assignment
from repro.solvers.hungarian import hungarian_assignment

# the exact "jv" method every scheduling round calls
jonker_volgenant_assignment = round_solver("jv")


def scipy_cost(cost):
    rows, cols = linear_sum_assignment(cost)
    return cost[rows, cols].sum()


def random_costs(rng, m, n, scale=100.0):
    return rng.random((m, n)) * scale


class TestJonkerVolgenant:
    @pytest.mark.parametrize("shape", [(1, 1), (3, 3), (5, 5), (8, 8)])
    def test_square_matches_scipy(self, rng, shape):
        for _ in range(5):
            cost = random_costs(rng, *shape)
            rows, cols = jonker_volgenant_assignment(cost)
            assert len(rows) == shape[0]
            assert cost[rows, cols].sum() == pytest.approx(scipy_cost(cost))

    @pytest.mark.parametrize("shape", [(2, 6), (5, 9), (7, 3), (10, 4)])
    def test_rectangular_matches_scipy(self, rng, shape):
        for _ in range(5):
            cost = random_costs(rng, *shape)
            rows, cols = jonker_volgenant_assignment(cost)
            assert len(rows) == min(shape)
            assert cost[rows, cols].sum() == pytest.approx(scipy_cost(cost))

    def test_unique_rows_and_columns(self, rng):
        cost = random_costs(rng, 6, 9)
        rows, cols = jonker_volgenant_assignment(cost)
        assert len(set(rows.tolist())) == len(rows)
        assert len(set(cols.tolist())) == len(cols)

    def test_known_small_instance(self):
        cost = np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])
        rows, cols = jonker_volgenant_assignment(cost)
        assert cost[rows, cols].sum() == pytest.approx(5.0)

    def test_handles_ties(self):
        cost = np.ones((4, 4))
        rows, cols = jonker_volgenant_assignment(cost)
        assert cost[rows, cols].sum() == pytest.approx(4.0)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (1, 24), (7, 1), (24, 1)])
    def test_single_row_or_column_fast_path(self, rng, shape):
        for _ in range(5):
            cost = random_costs(rng, *shape)
            rows, cols = jonker_volgenant_assignment(cost)
            assert len(rows) == 1
            assert cost[rows, cols].sum() == pytest.approx(scipy_cost(cost))

    def test_single_row_tie_break_is_first_minimum(self):
        # the fast path takes the first minimum
        cost = np.array([[3.0, 1.0, 1.0, 2.0, 1.0]])
        rows, cols = jonker_volgenant_assignment(cost)
        assert rows.tolist() == [0] and cols.tolist() == [1]
        cost_col = np.array([[5.0], [2.0], [2.0], [4.0]])
        rows, cols = jonker_volgenant_assignment(cost_col)
        assert rows.tolist() == [1] and cols.tolist() == [0]

    def test_empty_matrix(self):
        rows, cols = jonker_volgenant_assignment(np.zeros((0, 3)))
        assert rows.size == 0 and cols.size == 0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            jonker_volgenant_assignment(np.array([[1.0, np.inf]]))

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError):
            jonker_volgenant_assignment(np.ones(3))


class TestHungarian:
    @pytest.mark.parametrize("shape", [(3, 3), (4, 7), (7, 4), (9, 9)])
    def test_matches_scipy(self, rng, shape):
        for _ in range(5):
            cost = random_costs(rng, *shape)
            rows, cols = hungarian_assignment(cost)
            assert len(rows) == min(shape)
            assert cost[rows, cols].sum() == pytest.approx(scipy_cost(cost))

    def test_negative_costs(self, rng):
        cost = random_costs(rng, 5, 5) - 50.0
        rows, cols = hungarian_assignment(cost)
        assert cost[rows, cols].sum() == pytest.approx(scipy_cost(cost))

    def test_empty(self):
        rows, cols = hungarian_assignment(np.zeros((3, 0)))
        assert rows.size == 0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            hungarian_assignment(np.array([[np.nan, 1.0]]))


class TestGreedy:
    def test_complete_matching(self, rng):
        cost = random_costs(rng, 4, 6)
        rows, cols = greedy_assignment(cost)
        assert len(rows) == 4
        assert len(set(cols.tolist())) == 4

    def test_never_better_than_optimal(self, rng):
        for _ in range(10):
            cost = random_costs(rng, 6, 6)
            rows, cols = greedy_assignment(cost)
            assert cost[rows, cols].sum() >= scipy_cost(cost) - 1e-9

    def test_greedy_is_optimal_on_diagonal_structure(self):
        cost = np.array([[0.0, 10.0], [10.0, 0.0]])
        rows, cols = greedy_assignment(cost)
        assert cost[rows, cols].sum() == pytest.approx(0.0)

    def test_empty(self):
        rows, cols = greedy_assignment(np.zeros((0, 0)))
        assert rows.size == 0


class TestFacade:
    def test_available_methods(self):
        methods = available_methods()
        assert {"jv", "hungarian", "greedy", "scipy"} <= set(methods)

    @pytest.mark.parametrize("method", ["jv", "hungarian", "scipy"])
    def test_exact_methods_agree(self, rng, method):
        cost = random_costs(rng, 5, 8)
        result = solve_assignment(cost, method=method)
        assert isinstance(result, AssignmentResult)
        assert result.total_cost == pytest.approx(scipy_cost(cost))
        assert result.method in (method, "jv")

    def test_result_helpers(self, rng):
        cost = random_costs(rng, 3, 3)
        result = solve_assignment(cost)
        assert len(result) == 3
        pairs = result.as_pairs()
        assert len(pairs) == 3
        row0_col = result.column_of_row(0)
        assert (0, row0_col) in pairs
        with pytest.raises(KeyError):
            result.column_of_row(99)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            solve_assignment(np.ones((2, 2)), method="magic")

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            solve_assignment(np.ones(4))

    def test_empty_total_cost(self):
        result = solve_assignment(np.zeros((0, 2)))
        assert result.total_cost == 0.0
        assert len(result) == 0
