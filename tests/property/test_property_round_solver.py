"""Properties of the canonical assignment rule every scheduling round uses.

* The objective equals the Jonker-Volgenant oracle's (``tests/jv_oracle.py``) on
  random, tie-heavy and Eq. 8 penalty-plateau matrices.
* Within every class of identical columns (identical rows when ``m > n``) the
  matched columns are the class's lowest-index ones, dealt to its rows in
  ascending row order.
* A single row or column takes the first minimum, under every solver method.
* A joint multi-model round commits what per-model (sharded) solves commit on
  uncontended, all-feasible rounds.
* Every multi-row round of the regression corpus and of the three benchmark
  workloads reaches the oracle's objective.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import repro.core.distributor as distributor
import repro.schedulers.kairos_policy as kairos_policy
import repro.solvers.assignment as assignment
from jv_oracle import jonker_volgenant_assignment as oracle
from repro.cloud.config import HeterogeneousConfig
from repro.fuzz.runner import run_scenario
from repro.fuzz.spec import ScenarioSpec
from repro.schedulers.kairos_policy import MultiModelKairosPolicy
from repro.sim.cluster import MultiModelCluster
from repro.solvers.assignment import available_methods, canonical_assignment, round_solver
from repro.workload.query import Query

ROOT = Path(__file__).resolve().parents[2]
SCENARIOS = sorted((ROOT / "tests" / "regression" / "scenarios").glob("*.json"))


def _objective(cost, rows, cols) -> float:
    return float(cost[rows, cols].sum())


def assert_oracle_objective(cost):
    rows, cols = canonical_assignment(cost)
    assert len(rows) == len(cols) == min(cost.shape)
    assert len(set(rows.tolist())) == len(rows)
    assert len(set(cols.tolist())) == len(cols)
    assert np.all(np.diff(rows) > 0)  # sorted by row
    np.testing.assert_allclose(
        _objective(cost, rows, cols), _objective(cost, *oracle(cost)), rtol=1e-12
    )


def _classes(vectors) -> list:
    """Index lists of equal vectors, each ascending."""
    classes = {}
    for index, vector in enumerate(vectors):
        classes.setdefault(vector.tobytes(), []).append(index)
    return list(classes.values())


def assert_canonical(cost, rows, cols):
    """The class rule: each class's lowest-index members, in ascending order."""
    m, n = cost.shape
    if m <= n:
        col_of = dict(zip(rows.tolist(), cols.tolist()))
        for members in _classes(cost.T):
            served = sorted(r for r, c in col_of.items() if c in members)
            assert [col_of[r] for r in served] == members[: len(served)]
    else:
        row_of = dict(zip(cols.tolist(), rows.tolist()))
        for members in _classes(cost):
            served = sorted(c for c, r in row_of.items() if r in members)
            assert [row_of[c] for c in served] == members[: len(served)]


random_matrices = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 9), st.integers(1, 9)),
    elements=st.floats(0.0, 1_000.0, allow_nan=False, allow_infinity=False),
).map(lambda cost: cost + 0.0)  # no negative zeros: classes are by value


tie_heavy_matrices = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 9), st.integers(1, 9)),
    elements=st.integers(0, 3).map(float),
)


@st.composite
def classed_matrices(draw):
    """Columns drawn from a small pool, so identical-column classes are common;
    transposed half the time to put the classes on the rows of an ``m > n``."""
    m = draw(st.integers(1, 8))
    pool = draw(
        hnp.arrays(np.float64, (m, draw(st.integers(1, 4))), elements=st.integers(0, 3))
    )
    picks = draw(st.lists(st.integers(0, pool.shape[1] - 1), min_size=1, max_size=10))
    cost = pool[:, picks]
    return cost.T.copy() if draw(st.booleans()) else cost


@st.composite
def penalty_plateau_matrices(draw):
    """Eq. 8 shape: a flat QoS penalty on infeasible cells, feasible pockets of
    predicted usage, every column scaled by its type's coefficient."""
    m = draw(st.integers(1, 8))
    types = draw(st.lists(st.integers(0, 2), min_size=1, max_size=12))
    coefficients = np.asarray([1.0, 0.6, 0.35])[types]
    feasible = draw(hnp.arrays(bool, (m, len(types))))
    usage = draw(
        hnp.arrays(np.float64, (m, len(types)), elements=st.integers(10, 300).map(float))
    )
    return np.where(feasible, usage, 3_500.0) * coefficients


@settings(max_examples=80, deadline=None)
@given(cost=st.one_of(random_matrices, tie_heavy_matrices, penalty_plateau_matrices()))
def test_objective_equals_the_oracle(cost):
    assert_oracle_objective(cost)


@settings(max_examples=80, deadline=None)
@given(cost=st.one_of(classed_matrices(), tie_heavy_matrices, penalty_plateau_matrices()))
# scipy's own answers to these two deal a class's higher index first
@example(cost=np.array([[2.0, 2.0, 1.0], [2.0, 2.0, 1.0]]))
@example(cost=np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]]))
def test_identical_classes_are_dealt_lowest_index_first(cost):
    rows, cols = canonical_assignment(cost)
    assert_canonical(cost, rows, cols)


#: Tie-heavy one-row and one-column matrices (Eq. 8 penalty plateaus included).
degenerate_matrices = hnp.arrays(
    np.float64,
    st.one_of(
        st.tuples(st.just(1), st.integers(1, 12)),
        st.tuples(st.integers(1, 12), st.just(1)),
    ),
    elements=st.sampled_from([0.0, 1.0, 2.0, 3.0, 3_500.0]),
)


def assert_first_minimum(cost, rows, cols):
    first = int(np.argmin(cost.ravel()))
    if cost.shape[0] == 1:
        assert rows.tolist() == [0] and cols.tolist() == [first]
    else:
        assert rows.tolist() == [first] and cols.tolist() == [0]


@settings(max_examples=40, deadline=None)
@given(cost=degenerate_matrices)
def test_degenerate_shapes_take_the_first_minimum(cost):
    # the fast path answers without scipy's solver
    scipy_solver = mock.patch.object(
        assignment, "linear_sum_assignment", side_effect=AssertionError
    )
    with scipy_solver:
        rows, cols = canonical_assignment(cost)
    assert_first_minimum(cost, rows, cols)


@pytest.mark.parametrize("method", available_methods())
@settings(max_examples=40, deadline=None)
@given(cost=degenerate_matrices)
def test_every_solver_takes_the_first_minimum_on_degenerate_shapes(method, cost):
    """The policies' matrix-free scorers answer one-query (1 x n) and one-server
    (m x 1) rounds with the first minimum, whichever solver is configured."""
    assert_first_minimum(cost, *round_solver(method)(cost))


def test_every_exact_method_name_is_the_canonical_solver():
    for method in ("jv", "JV", "jonker-volgenant", "scipy"):
        assert round_solver(method) is canonical_assignment


def test_input_contract():
    with pytest.raises(ValueError, match="2-D"):
        canonical_assignment(np.ones(3))
    with pytest.raises(ValueError, match="finite"):
        canonical_assignment(np.array([[1.0, np.inf], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="finite"):
        canonical_assignment(np.array([[np.nan, 1.0]]))
    rows, cols = canonical_assignment(np.zeros((0, 4)))
    assert rows.size == cols.size == 0


# ---------------------------------------------------------------------------------------
# The joint round against per-model solves
# ---------------------------------------------------------------------------------------

MODELS = ("RM2", "WND", "DIEN")


@st.composite
def uncontended_rounds(draw):
    """Three models on small clusters; some servers already run one query,
    so same-type columns differ.  Batches come from two sizes, so a model's rows
    often repeat: swapping two identical rows ties exactly, and only the block
    re-match makes the union pick what the model's own solve picks.  Each model's
    backlog fits its eligible servers and every pair meets QoS."""
    counts = [
        draw(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(3, 8)))
        for _ in MODELS
    ]
    busy = [
        draw(st.lists(st.integers(1, 8), min_size=sum(c), max_size=sum(c)))
        for c in counts
    ]
    pending = [draw(st.integers(sum(c) - 2, sum(c))) for c in counts]
    batches = [
        draw(st.lists(st.sampled_from((2, 6)), min_size=k, max_size=k)) for k in pending
    ]
    return counts, busy, batches


def _joint_decisions(catalog, profiles, counts, busy, batches, sharded):
    cluster = MultiModelCluster(
        {
            name: HeterogeneousConfig((c[0], c[1], c[2], 0), catalog)
            for name, c in zip(MODELS, counts)
        },
        profiles,
    )
    view = cluster.active_view()
    next_id = 1_000
    for name, batches_busy in zip(MODELS, busy):
        servers = [s for s, m in zip(view, view.server_models()) if m == name]
        for server, batch in zip(servers, batches_busy):
            if batch > 4:  # about half the servers already run one query
                server.dispatch(Query(next_id, batch, 0.0, name), 0.0)
                next_id += 1
    queries = []
    for name, model_batches in zip(MODELS, batches):
        for batch in model_batches:
            queries.append(Query(len(queries), batch, 0.0, name))
    policy = MultiModelKairosPolicy(use_perfect_estimator=True, sharded=sharded)
    policy.bind(view)
    decisions = sorted((q.query_id, i) for q, i in policy.schedule(1.0, queries, view))
    return decisions, policy


@settings(max_examples=40, deadline=None)
@given(round_=uncontended_rounds())
def test_joint_round_commits_the_per_model_matchings(round_, profiles, catalog):
    counts, busy, batches = round_
    union, _ = _joint_decisions(catalog, profiles, counts, busy, batches, False)
    sharded, policy = _joint_decisions(catalog, profiles, counts, busy, batches, True)
    assert policy.sharded_rounds == 1  # every shard was feasible: no fallback
    assert union == sharded
    assert len(union) == sum(len(b) for b in batches)


# ---------------------------------------------------------------------------------------
# Every captured round against the oracle
# ---------------------------------------------------------------------------------------


def _captured_rounds(monkeypatch, spec):
    """Run ``spec`` and return every matrix the round solver saw, with its answer."""
    captured = []
    make_solver = kairos_policy.round_solver

    def recording_round_solver(method):
        solve = make_solver(method)

        def recording(cost):
            rows, cols = solve(cost)
            captured.append((np.array(cost), rows, cols))
            return rows, cols

        return recording

    monkeypatch.setattr(kairos_policy, "round_solver", recording_round_solver)
    monkeypatch.setattr(distributor, "round_solver", recording_round_solver)
    run_scenario(spec, check=False)
    return captured


def _assert_rounds_reach_the_oracle(captured):
    for cost, rows, cols in captured:
        np.testing.assert_allclose(
            _objective(cost, rows, cols), _objective(cost, *oracle(cost)), rtol=1e-12
        )


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_corpus_rounds_reach_the_oracle_objective(path, monkeypatch):
    spec = ScenarioSpec.load(path)
    _assert_rounds_reach_the_oracle(_captured_rounds(monkeypatch, spec))


def _benchmark_workloads():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "workload, sim_s", [("steady", 40.0), ("burst", 1.0), ("churn", 4.0)]
)
def test_benchmark_workload_rounds_reach_the_oracle_objective(
    workload, sim_s, monkeypatch
):
    spec = _benchmark_workloads().build(workload, seed=1, sim_s=sim_s)
    captured = _captured_rounds(monkeypatch, spec)
    assert sum(1 for cost, _, _ in captured if min(cost.shape) > 1) >= 5
    _assert_rounds_reach_the_oracle(captured)
