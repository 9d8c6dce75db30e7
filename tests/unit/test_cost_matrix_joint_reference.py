"""The joint cost matrix against an independent per-cell reference (paper Eqs. 2-8).

``reference_joint_matrix`` loops over rows x columns and applies the equations to
one (query, instance) pair at a time: a same-model pair occupies the instance for
its remaining busy time plus dispatch overhead plus the row model's predicted
latency, and is feasible when that plus the query's wait stays within
``xi * T_qos`` of the row's model (Eq. 3); every other pair carries the row
model's ``10 * T_qos`` penalty (Eq. 8); each column is weighted by its own model's
heterogeneity coefficient (Eq. 2).  ``build_multi_model_cost_matrix`` must agree
with it bit for bit on random rounds: 2-4 models, interleaved row models,
non-contiguous (model, type) column blocks, a model with servers but no pending
rows, and equal coefficients across models.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cloud.models import DEFAULT_MODEL_REGISTRY
from repro.core.cost_matrix import (
    DEFAULT_PENALTY_FACTOR,
    DEFAULT_QOS_HEADROOM,
    build_multi_model_cost_matrix,
)
from repro.core.latency_model import OnlineLatencyEstimator, PerfectLatencyEstimator
from repro.sim.server import ServerInstance
from repro.workload.query import Query

MODELS = [m.name for m in DEFAULT_MODEL_REGISTRY]
TYPES = ["g4dn.xlarge", "c5n.2xlarge", "r5n.large", "t3.xlarge"]
NOW_MS = 50.0


def reference_joint_matrix(
    queries, servers, server_models, estimators, now_ms, qos_by_model, coefficients
):
    """Per-cell Eqs. 2-8: ``(usage, penalized, weighted, feasible, cross)``."""
    shape = (len(queries), len(servers))
    usage, penalized, weighted = np.empty(shape), np.empty(shape), np.empty(shape)
    feasible, cross = np.empty(shape, dtype=bool), np.empty(shape, dtype=bool)
    for i, query in enumerate(queries):
        qos = qos_by_model[query.model_name]
        penalty = DEFAULT_PENALTY_FACTOR * qos
        wait = query.waiting_time_ms(now_ms)
        for j, (server, server_model) in enumerate(zip(servers, server_models)):
            busy = server.busy_until_ms
            offset = (busy - now_ms if busy > now_ms else 0.0) + server.dispatch_overhead_ms
            same = server_model == query.model_name
            if same:
                predicted = estimators[query.model_name].predict_ms(
                    server.type_name, query.batch_size
                )
                cell = offset + predicted
                ok = cell + wait <= DEFAULT_QOS_HEADROOM * qos + 1e-9
            else:
                cell, ok = penalty, False
            usage[i, j] = cell
            feasible[i, j] = ok
            cross[i, j] = not same
            penalized[i, j] = cell if ok else penalty
            weighted[i, j] = penalized[i, j] * coefficients[server_model][server.type_name]
    return usage, penalized, weighted, feasible, cross


def random_round(profiles, catalog, seed, n_models, idle_model, equal_coefficients):
    """One random joint round: ``(queries, servers, server_models, estimators, qos,
    coefficients)``; with ``idle_model`` the last model has servers but no rows."""
    rng = np.random.default_rng(seed)
    names = [MODELS[k] for k in rng.permutation(len(MODELS))[:n_models]]
    servers, server_models = [], []
    # every model gets one or two types; the servers are shuffled so (model, type)
    # blocks interleave instead of sitting in contiguous runs
    layout = [
        (name, type_name)
        for name in names
        for type_name in rng.choice(TYPES, size=rng.integers(1, 3), replace=False)
        for _ in range(rng.integers(1, 4))
    ]
    for server_id, k in enumerate(rng.permutation(len(layout))):
        name, type_name = layout[k]
        itype = catalog[type_name]
        servers.append(
            ServerInstance(
                server_id=server_id,
                instance_type=itype,
                profile=profiles.profile(name, itype),
                busy_until_ms=float(rng.choice([0.0, NOW_MS, rng.uniform(0.0, 400.0)])),
                dispatch_overhead_ms=float(rng.choice([0.0, rng.uniform(0.0, 3.0)])),
            )
        )
        server_models.append(name)
    row_models = names[:-1] if idle_model else names
    queries = [
        Query(
            i,
            int(rng.integers(1, 300)),
            float(rng.uniform(0.0, 2 * NOW_MS)),
            model_name=str(rng.choice(row_models)),
        )
        for i in range(int(rng.integers(1, 12)))
    ]
    estimators = {}
    for name in names:
        if rng.random() < 0.5:
            estimators[name] = PerfectLatencyEstimator(profiles, name)
        else:
            online = OnlineLatencyEstimator()
            for type_name in TYPES[: rng.integers(0, 4)]:
                for batch in rng.integers(1, 300, size=rng.integers(1, 4)):
                    online.observe(type_name, int(batch), float(rng.uniform(1.0, 200.0)))
            estimators[name] = online
    qos = {name: profiles.models[name].qos_ms for name in names}
    shared = {t: float(rng.choice([0.25, 0.5, 1.0, rng.uniform(0.1, 2.0)])) for t in TYPES}
    coefficients = {
        name: dict(shared)
        if equal_coefficients
        else {t: float(rng.uniform(0.1, 2.0)) for t in TYPES}
        for name in names
    }
    return queries, servers, server_models, estimators, qos, coefficients


def assert_matches_reference(profiles, catalog, *args):
    queries, servers, server_models, estimators, qos, coefficients = random_round(
        profiles, catalog, *args
    )
    matrix = build_multi_model_cost_matrix(
        queries, servers, server_models, estimators, NOW_MS, qos, coefficients
    )
    usage, penalized, weighted, feasible, cross = reference_joint_matrix(
        queries, servers, server_models, estimators, NOW_MS, qos, coefficients
    )
    # bitwise: equal values and equal dtypes (array_equal would accept 0.0 == -0.0)
    assert matrix.usage_ms.tobytes() == usage.tobytes()
    assert matrix.penalized_ms.tobytes() == penalized.tobytes()
    assert matrix.weighted.tobytes() == weighted.tobytes()
    assert matrix.qos_feasible.dtype == bool and matrix.cross_model.dtype == bool
    assert np.array_equal(matrix.qos_feasible, feasible)
    assert np.array_equal(matrix.cross_model, cross)
    assert matrix.query_models == tuple(q.model_name for q in queries)
    return matrix


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_models=st.integers(min_value=2, max_value=4),
    idle_model=st.booleans(),
    equal_coefficients=st.booleans(),
)
def test_random_rounds_match_the_per_cell_reference(
    profiles, catalog, seed, n_models, idle_model, equal_coefficients
):
    assert_matches_reference(
        profiles, catalog, seed, n_models, idle_model, equal_coefficients
    )


@pytest.mark.parametrize("n_models", [2, 3, 4])
@pytest.mark.parametrize("idle_model", [False, True])
@pytest.mark.parametrize("equal_coefficients", [False, True])
def test_every_named_case_matches_the_reference(
    profiles, catalog, n_models, idle_model, equal_coefficients
):
    for seed in range(8):
        matrix = assert_matches_reference(
            profiles, catalog, seed, n_models, idle_model, equal_coefficients
        )
        if idle_model:
            # the idle model's columns are cross-model for every row
            assert len(set(matrix.query_models)) <= n_models - 1


def test_random_rounds_exercise_both_sides_of_every_mask(profiles, catalog):
    feasible_seen, infeasible_same_model, cross_seen, non_contiguous = 0, 0, 0, 0
    for seed in range(40):
        queries, servers, server_models, estimators, qos, coefficients = random_round(
            profiles, catalog, seed, 3, False, False
        )
        matrix = build_multi_model_cost_matrix(
            queries, servers, server_models, estimators, NOW_MS, qos, coefficients
        )
        feasible_seen += int(matrix.qos_feasible.sum())
        infeasible_same_model += int((~matrix.qos_feasible & ~matrix.cross_model).sum())
        cross_seen += int(matrix.cross_model.sum())
        keys = list(zip(server_models, (s.type_name for s in servers)))
        non_contiguous += any(
            keys[j] in keys[:j] and keys[j - 1] != keys[j] for j in range(1, len(keys))
        )
    assert feasible_seen and infeasible_same_model and cross_seen and non_contiguous
