"""Span tracing at layer entry points and the exclusive-time ledger built from it.

:func:`install` wraps the public entry points of each program layer (named after
its module) from outside the program.  Every wrapped call records one span —
layer, start, end, parent span — into flat in-memory arrays; nothing is written
until :meth:`Tracer.save` runs after the traced run ends.

A span's *self* time is its duration minus the durations of its child spans.
Spans of one thread nest strictly, so layer self times never overlap and
``loop.self_s`` — run wall time minus every layer's self time — is the serving
loop's own code: event handlers, dispatch commit, fault and preemption logic,
and the event-loop recording ``run_scenario`` wraps around the policy.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

#: Layer names, in ledger order (one per wrapped program module).
LAYERS = (
    "engine",
    "pending",
    "policy.schedule",
    "policy.observe",
    "cost_matrix.refresh",
    "cost_matrix.build",
    "latency.predict",
    "latency.observe",
    "solver",
    "planner",
    "controller",
    "health",
    "billing",
    "pipeline",
)


class Tracer:
    """Records spans of wrapped calls and per-layer counts on one thread."""

    def __init__(self) -> None:
        self.ids = {name: i for i, name in enumerate(LAYERS)}
        self.layer = array("b")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts: Dict[str, float] = {}
        self.round_rows: List[int] = []
        self._stack: List[int] = []

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, layer: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call; ``observe(args, result)`` adds counts."""
        lid = self.ids[layer]
        layers, parents, starts, ends = self.layer, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            parents.append(stack[-1] if stack else -1)
            layers.append(lid)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if observe is not None:
                observe(args, result)
            return result

        return traced

    # -- ledger ----------------------------------------------------------------------
    def arrays(self):
        layer = np.frombuffer(self.layer, dtype=np.int8).astype(np.intp)
        parent = np.frombuffer(self.parent, dtype=np.int64).astype(np.intp)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        return layer, parent, start, end

    def ledger(self) -> Dict[str, Dict[str, float]]:
        """Per layer: exclusive seconds, outermost entries, and inclusive durations."""
        layer, parent, start, end = self.arrays()
        dur = end - start
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_s = dur - child
        # An entry counts once per outermost call into its layer: a layer calling
        # itself (a sharded queue over per-shard queues) is one operation.
        outer = np.ones(len(layer), dtype=bool)
        outer[nested] = layer[parent[nested]] != layer[nested]
        out = {}
        for name, lid in self.ids.items():
            mine = layer == lid
            out[name] = {
                "self_s": float(self_s[mine].sum()),
                "calls": int((mine & outer).sum()),
                "durations": dur[mine & outer],
            }
        return out

    def save(self, path: Path) -> None:
        layer, parent, start, end = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            layers=np.asarray(LAYERS),
            layer=layer,
            parent=parent,
            start=start,
            end=end,
        )


def _patch(tracer: Tracer, layer: str, owner, name: str, observe=None) -> None:
    setattr(owner, name, tracer.wrap(layer, getattr(owner, name), observe))


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points; call before building a simulator."""
    from repro.cloud.billing import InstanceUsageLedger
    from repro.core import controller, cost_matrix, distributor, kairos, latency_model
    from repro.pipeline import runtime
    from repro.schedulers import kairos_policy
    from repro.sim import engine, health, pending, sharding

    for cls in (engine.EventQueue, sharding.ShardedEventQueue):
        _patch(tracer, "engine", cls, "push", lambda a, r: tracer.count("engine.events"))
        _patch(tracer, "engine", cls, "pop_batch")
    for cls in (pending.PendingQueue, sharding.ShardedPendingQueue):
        _patch(tracer, "pending", cls, "snapshot_arrays")

    def rows(args, result):
        policy, pending_queries = args[0], args[2]
        limit = getattr(policy, "_max_queries_per_round", None)
        n = len(pending_queries)
        tracer.round_rows.append(n if limit is None else min(n, limit))
        if n and not result:
            tracer.count("policy.empty_rounds")

    for cls in (kairos_policy.KairosPolicy, kairos_policy.MultiModelKairosPolicy):
        _patch(tracer, "policy.schedule", cls, "schedule", rows)
        _patch(tracer, "policy.observe", cls, "observe_completion")

    _patch(tracer, "cost_matrix.refresh", cost_matrix.RoundColumnState, "refresh")

    def cells(args, result):
        tracer.count("cost_matrix.cells", int(np.prod(result.weighted.shape)))

    for name in ("assemble_cost_matrix", "assemble_multi_model"):
        _patch(tracer, "cost_matrix.build", cost_matrix, name, cells)

    # Every estimator class that defines its own ``predict_many_ms`` / ``observe``.
    estimator_entries = (("predict_many_ms", "latency.predict"), ("observe", "latency.observe"))
    for cls in vars(latency_model).values():
        if isinstance(cls, type) and issubclass(cls, latency_model.LatencyEstimator):
            for name, layer in estimator_entries:
                if name in vars(cls):
                    _patch(tracer, layer, cls, name)

    # The policy asks ``round_solver`` for its per-round solver once per run, so
    # wrapping what it returns times whichever solver the policy is configured with.
    make_solver = kairos_policy.round_solver

    def solver_cells(args, result):
        tracer.count("solver.cells", int(np.prod(np.shape(args[0]))))

    def traced_round_solver(method):
        return tracer.wrap("solver", make_solver(method), solver_cells)

    kairos_policy.round_solver = traced_round_solver
    distributor.round_solver = traced_round_solver

    _patch(tracer, "planner", kairos.KairosPlanner, "plan")
    _patch(tracer, "planner", kairos.SpotAwareKairosPlanner, "plan_mixed")

    def replans(args, result):
        if result is not None:
            tracer.count("controller.replans")

    _patch(tracer, "controller", controller.ElasticKairosController, "maybe_replan", replans)
    _patch(tracer, "controller", controller.ElasticKairosController, "observe_arrival")

    _patch(tracer, "health", health.ServerHealthMonitor, "observe_completion")
    _patch(tracer, "health", health.HedgeManager, "hedge_delay_ms")

    for name in ("start", "stop", "record_span"):
        _patch(tracer, "billing", InstanceUsageLedger, name)

    coordinator = runtime.PipelineCoordinator
    for name, member in list(vars(coordinator).items()):
        if not name.startswith("_") and callable(member):  # methods, not properties
            _patch(tracer, "pipeline", coordinator, name)


def episode_counts(result) -> Dict[str, float]:
    """Outcome counts of one traced episode, read from its report after the run."""
    report = result.report
    log = getattr(report, "scale_log", ())
    counts = {
        "faults.retries": report.retries,
        "faults.dead_letters": len(report.dead_letters),
        "faults.shed": len(report.shed_queries),
        "faults.crashes": sum(e.count for e in log if e.kind == "instance_failed"),
        "spot.preemptions": sum(e.count for e in log if e.kind == "preempted"),
        "health.quarantines": sum(e.count for e in log if e.kind == "quarantine"),
        "hedge.launched": getattr(report, "hedges_launched", 0),
        "hedge.wins": getattr(report, "hedge_wins", 0),
        "graphs": len(result.graph_outcomes),
        "graphs_met": sum(1 for g in result.graph_outcomes if g.deadline_met),
        "cost": 0.0,
        "cost.hedge": 0.0,
        "cost.quarantine": 0.0,
    }
    ledger = getattr(report, "ledger", None)
    if ledger is not None:
        parts = ledger.attribution_partition(report.billing_horizon_ms)
        counts["cost"] = sum(parts.values())
        counts["cost.hedge"] = parts["hedge"]
        counts["cost.quarantine"] = parts["quarantine"]
    return counts


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def _pct(values, q: float, scale: float) -> float:
    return float(np.percentile(values, q)) * scale if len(values) else 0.0


def report(
    tracer: Tracer, episodes: Sequence[Dict[str, float]], wall_s: float, plain_wall_s: float
) -> Dict[str, float]:
    """The per-layer metrics of one traced run (``wall_s`` is its traced wall time)."""
    led = tracer.ledger()
    totals: Dict[str, float] = dict(tracer.counts)
    for ep in episodes:
        for key, value in ep.items():
            totals[key] = totals.get(key, 0) + value
    rows = np.asarray(tracer.round_rows)
    rounds = led["policy.schedule"]
    out = {
        "engine.events": totals.get("engine.events", 0),
        "engine.self_s": led["engine"]["self_s"],
        "pending.snapshots": led["pending"]["calls"],
        "pending.self_s": led["pending"]["self_s"],
        "policy.rounds": rounds["calls"],
        "policy.self_s": rounds["self_s"] + led["policy.observe"]["self_s"],
        "policy.round_us_p50": _pct(rounds["durations"], 50, 1e6),
        "policy.round_us_p99": _pct(rounds["durations"], 99, 1e6),
        "policy.rows_per_round": float(rows.mean()) if len(rows) else 0.0,
        "policy.single_row_share": float((rows == 1).mean()) if len(rows) else 0.0,
        "policy.empty_rounds": totals.get("policy.empty_rounds", 0),
        "cost_matrix.refreshes": led["cost_matrix.refresh"]["calls"],
        "cost_matrix.refresh_self_s": led["cost_matrix.refresh"]["self_s"],
        "cost_matrix.builds": led["cost_matrix.build"]["calls"],
        "cost_matrix.cells": totals.get("cost_matrix.cells", 0),
        "cost_matrix.build_self_s": led["cost_matrix.build"]["self_s"],
        "latency.predicts": led["latency.predict"]["calls"],
        "latency.predict_self_s": led["latency.predict"]["self_s"],
        "latency.observes": led["latency.observe"]["calls"],
        "latency.observe_self_s": led["latency.observe"]["self_s"],
        "solver.solves": led["solver"]["calls"],
        "solver.cells": totals.get("solver.cells", 0),
        "solver.self_s": led["solver"]["self_s"],
        "planner.plans": led["planner"]["calls"],
        "planner.plan_ms_p50": _pct(led["planner"]["durations"], 50, 1e3),
        "planner.self_s": led["planner"]["self_s"],
        "controller.calls": led["controller"]["calls"],
        "controller.replans": totals.get("controller.replans", 0),
        "controller.self_s": led["controller"]["self_s"],
        "health.observations": led["health"]["calls"],
        "health.self_s": led["health"]["self_s"],
        "health.quarantines": totals["health.quarantines"],
        "hedge.launched": totals["hedge.launched"],
        "hedge.win_ratio": _share(totals["hedge.wins"], totals["hedge.launched"]),
        "faults.retries": totals["faults.retries"],
        "faults.dead_letters": totals["faults.dead_letters"],
        "faults.shed": totals["faults.shed"],
        "faults.crashes": totals["faults.crashes"],
        "spot.preemptions": totals["spot.preemptions"],
        "billing.calls": led["billing"]["calls"],
        "billing.self_s": led["billing"]["self_s"],
        "billing.hedge_cost_share": _share(totals["cost.hedge"], totals["cost"]),
        "billing.quarantine_cost_share": _share(totals["cost.quarantine"], totals["cost"]),
        "pipeline.self_s": led["pipeline"]["self_s"],
        "pipeline.graph_attainment": _share(totals["graphs_met"], totals["graphs"]),
    }
    layer_self = sum(entry["self_s"] for entry in led.values())
    out["loop.self_s"] = wall_s - layer_self
    out["trace.wall_s"] = wall_s
    out["trace.overhead_ratio"] = wall_s / plain_wall_s
    return out
