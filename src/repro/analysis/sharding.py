"""Sharded-controller round-cost characterization (ROADMAP sharded-controller item).

The joint multi-model scheduling round solves one matching over the *union* of every
co-located model's pending queries and instances, so its cost grows superlinearly with
the number of tenants (the JV solver is ``O(m^2 n)`` on the union sizes).  Because an
instance can only ever serve its own model, the joint matrix is block-diagonal
whenever no model's backlog exceeds its own eligible capacity — and
``MultiModelKairosPolicy(sharded=True)`` then solves the per-model blocks
independently, falling back to the union matching on contended rounds and on
rounds whose shard solutions contain a QoS-penalized assignment (where the union
may arbitrate cross-model).

``fig10_sharded_round_cost`` measures the scaling the way Fig. 10 measures evaluation
overhead: a fixed uncontended round shape (k pending queries per model, one shared
cluster), swept over the number of co-located models, reporting solved matrix cells
and wall time per scheduling round for the union and sharded paths — and asserting
they commit the same per-model matchings on these rounds.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.analysis.reporting import FigureTable
from repro.cloud.config import HeterogeneousConfig
from repro.cloud.profiles import default_profile_registry
from repro.schedulers.kairos_policy import MultiModelKairosPolicy
from repro.sim.cluster import MultiModelCluster
from repro.workload.query import Query

#: Co-location order for the sweep (all registered in the default profile set).
SHARDING_MODELS = ("RM2", "WND", "DIEN", "MT-WND")


def _round_inputs(model_names: Sequence[str], queries_per_model: int, seed: int):
    """One deterministic uncontended round: cluster view + pending queries."""
    profiles = default_profile_registry()
    cluster = MultiModelCluster(
        {name: HeterogeneousConfig((4, 4, 10, 0), profiles.catalog) for name in model_names},
        profiles,
    )
    rng = np.random.default_rng(seed)
    # a realistic mid-round state: some servers busy, all still eligible
    for i, server in enumerate(cluster):
        if i % 3 == 0:
            server.busy_until_ms = float(5 * (i % 7))
    queries = []
    qid = 0
    for name in model_names:
        for _ in range(queries_per_model):
            queries.append(Query(qid, int(rng.integers(1, 96)), 0.0, name))
            qid += 1
    return cluster, queries


def _policy(sharded: bool) -> MultiModelKairosPolicy:
    # Perfect estimators keep repeated rounds deterministic (no online learning
    # state), which is what lets wall time be measured over many identical rounds.
    return MultiModelKairosPolicy(use_perfect_estimator=True, sharded=sharded)


def _time_rounds(policy, view, queries, *, min_seconds: float) -> float:
    """Mean wall seconds per scheduling round (repeated identical rounds)."""
    policy.schedule(10.0, queries, view)  # warm caches outside the timed region
    rounds = 0
    total = 0.0
    while total < min_seconds:
        start = time.perf_counter()
        policy.schedule(10.0, queries, view)
        total += time.perf_counter() - start
        rounds += 1
    return total / rounds


def fig10_sharded_round_cost(
    *,
    max_models: int = 4,
    queries_per_model: int = 14,
    min_seconds: float = 0.2,
    seed: int = 20230715,
) -> FigureTable:
    """Round-cost scaling of union vs sharded dispatch over co-located model count."""
    if not 1 <= max_models <= len(SHARDING_MODELS):
        raise ValueError(f"max_models must be in [1, {len(SHARDING_MODELS)}]")
    rows = []
    for n_models in range(1, max_models + 1):
        model_names = SHARDING_MODELS[:n_models]
        cluster, queries = _round_inputs(model_names, queries_per_model, seed)
        view = cluster.active_view()

        union_policy = _policy(sharded=False)
        union_policy.bind(view)
        sharded_policy = _policy(sharded=True)
        sharded_policy.bind(view)

        union_decisions = union_policy.schedule(10.0, queries, view)
        sharded_decisions = sharded_policy.schedule(10.0, queries, view)
        union_cells = union_policy.solved_cells
        sharded_cells = sharded_policy.solved_cells
        if sharded_policy.union_rounds:
            raise RuntimeError("sharding fell back on an uncontended benchmark round")
        if {(q.query_id, s) for q, s in union_decisions} != {
            (q.query_id, s) for q, s in sharded_decisions
        }:
            raise RuntimeError(
                "sharded dispatch committed a different matching than the union "
                f"round at {n_models} models"
            )

        union_s = _time_rounds(union_policy, view, queries, min_seconds=min_seconds)
        sharded_s = _time_rounds(sharded_policy, view, queries, min_seconds=min_seconds)
        rows.append(
            [
                n_models,
                len(queries),
                union_cells,
                sharded_cells,
                union_s * 1e6,
                sharded_s * 1e6,
                union_s / sharded_s if sharded_s > 0 else float("inf"),
            ]
        )
    return FigureTable(
        figure_id="fig10-sharded",
        title="Scheduling-round cost: union matching vs per-model sharded dispatch",
        headers=[
            "models",
            "pending",
            "union_cells",
            "sharded_cells",
            "union_us_per_round",
            "sharded_us_per_round",
            "round_speedup",
        ],
        rows=rows,
        host_timed=["union_us_per_round", "sharded_us_per_round", "round_speedup"],
        notes=[
            f"uncontended rounds: {queries_per_model} pending queries per model, "
            "18 eligible instances per model partition (4,4,10,0)",
            "identical per-model matchings committed by both paths on every row "
            "(checked before timing); contended or penalty-containing rounds fall "
            "back to the union",
            "cells = solved cost-matrix entries per round; the union matrix grows "
            "with the tenant count squared, the sharded blocks stay constant",
            "us_per_round and round_speedup are host wall-clock: printed, not "
            "persisted",
        ],
    )
