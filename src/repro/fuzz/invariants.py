"""Machine-checkable system invariants over scenario runs.

Two families:

* **Per-run invariants** inspect one :class:`~repro.fuzz.runner.ScenarioResult`
  (its report, ledger, and the event-loop recording) and must hold for *every*
  scenario on *every* loop: ``query_conservation``, ``completion_causality``,
  ``round_separation``, ``budget_conservation``, ``ledger_partition_exactness``.
  ``check_run`` evaluates all of them and returns the violations.

* **Derived invariants** relate multiple runs or processes:
  ``qos_monotone_in_budget`` (planner-level QoS bound nondecreasing in budget),
  ``spot_disabled_identity`` (the kernel with no market is byte-identical to the
  elastic twin; a zero-hazard market changes billing but not one service outcome),
  and ``hashseed_independence`` (run digests agree across PYTHONHASHSEED values,
  via subprocess re-execution).

Every invariant is registered in :data:`ALL_INVARIANTS` so docs, the fuzz CLI, and
the coverage meta-test stay in sync with the code.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cloud.billing import MS_PER_HOUR
from repro.fuzz.spec import ScenarioSpec
from repro.sim.engine import TIME_EPSILON_MS

#: Relative/absolute tolerance for re-derived float aggregates (fsum vs fsum-of-groups).
_REL = 1e-9
_EXACT = 1e-12


@dataclass(frozen=True)
class Violation:
    """One invariant failure, carrying enough context to debug without the run."""

    invariant: str
    message: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.message}"


#: name -> (kind, one-line description).  ``run`` invariants apply to every single
#: scenario result; ``derived`` invariants compare runs / processes / budgets.
ALL_INVARIANTS: Dict[str, Tuple[str, str]] = {
    "query_conservation": (
        "run",
        "no query is lost or double-served, even across preemption re-queues",
    ),
    "completion_causality": (
        "run",
        "completion >= start >= arrival for every record; cumulative completions "
        "never exceed cumulative arrivals at any instant",
    ),
    "round_separation": (
        "run",
        "consecutive scheduling rounds are separated by more than TIME_EPSILON_MS "
        "(equal-instant event clusters coalesce into one round)",
    ),
    "budget_conservation": (
        "run",
        "billing intervals sit inside [0, horizon], never overlap per server, "
        "match commissioning events one-to-one, and integrate to the ledger total",
    ),
    "ledger_partition_exactness": (
        "run",
        "per-tag, per-market, and per-type cost partitions each sum to the total; "
        "discount savings equal full price minus charged price",
    ),
    "outcome_conservation": (
        "run",
        "every arrival ends exactly one of served / shed / dead-lettered / "
        "unserved, and the four counts balance the offered total",
    ),
    "failure_billing": (
        "run",
        "crashed instances are never billed past the failure instant; the "
        "failed/healthy cost partition sums exactly to the total bill",
    ),
    "retry_bounded": (
        "run",
        "no query is attempted more often than the retry budget allows; dead "
        "letters exhaust the budget exactly",
    ),
    "stage_precedence": (
        "run",
        "no pipeline stage starts before every parent stage has completed, and "
        "every released successor arrives exactly at its release instant",
    ),
    "graph_conservation": (
        "run",
        "every released task graph resolves as a unit: its stage partition "
        "(served / shed / dead / unserved / unreleased) balances the stage count "
        "and agrees with the graph's terminal outcome label",
    ),
    "hedge_exactly_once": (
        "run",
        "every hedge race resolves exactly once: each launched duplicate is "
        "cancelled or wins, no query is served twice, and a hedge-free spec "
        "records zero hedge activity",
    ),
    "gray_billing_partition": (
        "run",
        "the failed/quarantine/hedge/healthy attribution partition sums exactly "
        "to the ledger total; buckets are zero when their dimension is off",
    ),
    "probation_liveness": (
        "run",
        "quarantine/probation/close entries follow the breaker state machine "
        "per server, and at least one accepting server always remains",
    ),
    "qos_monotone_in_budget": (
        "derived",
        "the planner's selected QoS-satisfying throughput bound is nondecreasing "
        "in the budget",
    ),
    "spot_disabled_identity": (
        "derived",
        "a spot spec run with no market is byte-identical to its elastic twin; a "
        "zero-hazard market leaves the service stream untouched",
    ),
    "hashseed_independence": (
        "derived",
        "run digests are identical across PYTHONHASHSEED values (subprocess check)",
    ),
    "fault_determinism": (
        "derived",
        "chaos runs are byte-identical per seed on re-execution; zero-hazard "
        "fault injection leaves the run untouched",
    ),
}


# ---------------------------------------------------------------------------------------
# Per-run invariants
# ---------------------------------------------------------------------------------------

def check_query_conservation(result) -> List[Violation]:
    """No query lost, none double-served — the re-queue accounting invariant."""
    out: List[Violation] = []
    name = "query_conservation"
    submitted = {q.query_id for q in result.queries}
    completed = Counter(rec.query.query_id for rec in result.completions)

    doubles = [qid for qid, n in completed.items() if n > 1]
    if doubles:
        out.append(Violation(name, f"queries completed more than once: {sorted(doubles)[:10]}"))
    ghosts = sorted(set(completed) - submitted)
    if ghosts:
        out.append(Violation(name, f"completed queries never submitted: {ghosts[:10]}"))

    report = result.report
    if len(result.completions) != report.dispatched_queries:
        out.append(
            Violation(
                name,
                f"{len(result.completions)} recorded completions but the report "
                f"counts {report.dispatched_queries} standing dispatches",
            )
        )

    assigned = Counter(qid for r in result.rounds for qid in r.assigned_ids)
    unassigned = sorted(qid for qid in completed if assigned[qid] < completed[qid])
    if unassigned:
        out.append(Violation(name, f"queries completed more often than assigned: {unassigned[:10]}"))
    spec = result.spec
    may_reassign = (
        spec.loop == "spot" or spec.faults is not None or spec.retry is not None
    )
    if not may_reassign:
        reassigned = sorted(qid for qid, n in assigned.items() if n > 1)
        if reassigned:
            out.append(
                Violation(
                    name,
                    f"queries dispatched more than once without preemption or retry: "
                    f"{reassigned[:10]}",
                )
            )

    if report.completed_all:
        lost = sorted(submitted - set(completed))
        if lost:
            out.append(
                Violation(
                    name,
                    f"report claims all queries served but {len(lost)} never "
                    f"completed: {lost[:10]}",
                )
            )
    return out


def check_completion_causality(result) -> List[Violation]:
    """Temporal sanity of every record, plus completions <= arrivals at all instants."""
    out: List[Violation] = []
    name = "completion_causality"
    for rec in result.completions:
        q = rec.query
        if rec.completion_ms < rec.start_ms - _EXACT:
            out.append(
                Violation(name, f"query {q.query_id} completed before it started")
            )
        if rec.start_ms < q.arrival_time_ms - 1e-6:
            out.append(
                Violation(
                    name,
                    f"query {q.query_id} started {q.arrival_time_ms - rec.start_ms:.6f}ms "
                    "before it arrived",
                )
            )
        if rec.service_ms < 0:
            out.append(Violation(name, f"query {q.query_id} has negative service time"))

    # Merge arrivals (+1) and completions (-1); arrivals sort first at equal times.
    timeline = [(q.arrival_time_ms, 0) for q in result.queries]
    timeline.extend((rec.completion_ms, 1) for rec in result.completions)
    timeline.sort()
    in_flight = 0
    for t, kind in timeline:
        in_flight += 1 if kind == 0 else -1
        if in_flight < 0:
            out.append(
                Violation(
                    name,
                    f"cumulative completions exceed cumulative arrivals at t={t:.3f}ms",
                )
            )
            break

    times = [r.time_ms for r in result.rounds]
    if any(b < a for a, b in zip(times, times[1:])):
        out.append(Violation(name, "scheduling-round times are not nondecreasing"))
    return out


def check_round_separation(result) -> List[Violation]:
    """Equal-instant coalescing: no two rounds within TIME_EPSILON_MS of each other."""
    times = [r.time_ms for r in result.rounds]
    for a, b in zip(times, times[1:]):
        if b - a <= TIME_EPSILON_MS:
            return [
                Violation(
                    "round_separation",
                    f"scheduling rounds at {a!r} and {b!r} are within the "
                    f"{TIME_EPSILON_MS} equal-instant window",
                )
            ]
    return []


def _commissioned_instances(result) -> Optional[int]:
    """Initial fleet + every scale-up, from the report's scale log (None = no log)."""
    report = result.report
    scale_log = report.scale_log
    if scale_log is None:
        return None
    initial = len(result.spec.config_counts[0]) and sum(
        sum(counts) for counts in result.spec.config_counts
    )
    ups = sum(e.count for e in scale_log if e.kind == "scale_up")
    return initial + ups


def check_budget_conservation(result) -> List[Violation]:
    """The ledger is a conservative account of exactly the capacity that existed."""
    ledger = result.ledger
    out: List[Violation] = []
    name = "budget_conservation"
    horizon = float(result.report.billing_horizon_ms)

    def _end(iv) -> float:
        return iv.end_ms if iv.end_ms is not None else horizon

    by_server: Dict[int, List] = {}
    for iv in ledger.intervals:
        if _end(iv) < iv.start_ms:
            out.append(
                Violation(name, f"server {iv.server_id} interval ends before it starts")
            )
        if iv.start_ms < -_EXACT or _end(iv) > horizon + _EXACT:
            out.append(
                Violation(
                    name,
                    f"server {iv.server_id} billed [{iv.start_ms}, {iv.end_ms}] outside "
                    f"the horizon [0, {horizon}]",
                )
            )
        by_server.setdefault(iv.server_id, []).append(iv)
    for sid, ivs in by_server.items():
        ivs = sorted(ivs, key=lambda iv: iv.start_ms)
        for a, b in zip(ivs, ivs[1:]):
            if b.start_ms < _end(a) - _EXACT:
                out.append(
                    Violation(name, f"server {sid} has overlapping billing intervals")
                )
                break

    expected = _commissioned_instances(result)
    if expected is not None and len(ledger.intervals) != expected:
        out.append(
            Violation(
                name,
                f"{len(ledger.intervals)} billing intervals but "
                f"{expected} instances were commissioned (initial fleet + scale-ups)",
            )
        )

    def _rate_integral(iv, t0: float, t1: float) -> float:
        """Independently integrate the billed $/hr over ``[t0, t1)`` of one interval.

        Phased spot intervals carry a cyclic price schedule; the re-derivation walks
        it segment by segment from time 0 rather than trusting the ledger's own
        prefix-difference integral.
        """
        a = max(iv.start_ms, t0)
        b = min(_end(iv), t1)
        if b <= a:
            return 0.0
        if iv.price_schedule is None:
            return iv.effective_price_per_hour * (b - a) / MS_PER_HOUR
        acc = 0.0
        t = 0.0
        phases = list(iv.price_schedule)
        i = 0
        while t < b:
            duration, multiplier = phases[i % len(phases)]
            seg_end = t + duration
            lo, hi = max(t, a), min(seg_end, b)
            if hi > lo:
                acc += iv.price_per_hour * multiplier * (hi - lo) / MS_PER_HOUR
            t = seg_end
            i += 1
        return acc

    total = ledger.total_cost(horizon)
    rederived = math.fsum(
        _rate_integral(iv, 0.0, horizon)
        for iv in ledger.intervals
        if _end(iv) > iv.start_ms
    )
    if not math.isclose(total, rederived, rel_tol=_REL, abs_tol=_REL):
        out.append(
            Violation(
                name,
                f"ledger total {total} != re-derived interval integral {rederived}",
            )
        )

    if horizon > 0:
        mid = horizon / 2.0

        def window_cost(t0: float, t1: float) -> float:
            return math.fsum(_rate_integral(iv, t0, t1) for iv in ledger.intervals)

        split = window_cost(0.0, mid) + window_cost(mid, horizon)
        if not math.isclose(total, split, rel_tol=_REL, abs_tol=_REL):
            out.append(
                Violation(
                    name,
                    f"cost is not additive over windows: total {total} != "
                    f"[0,mid] + [mid,horizon] = {split}",
                )
            )
    return out


def check_ledger_partition_exactness(result) -> List[Violation]:
    """Every way of slicing the bill sums back to the same total."""
    ledger = result.ledger
    out: List[Violation] = []
    name = "ledger_partition_exactness"
    horizon = float(result.report.billing_horizon_ms)
    total = ledger.total_cost(horizon)

    partitions = {
        "cost_by_tag": ledger.cost_by_tag(horizon),
        "cost_by_type": ledger.cost_by_type(horizon),
        "cost_by_market": ledger.cost_by_market(horizon),
    }
    for label, parts in partitions.items():
        part_sum = math.fsum(parts.values())
        if not math.isclose(part_sum, total, rel_tol=_EXACT, abs_tol=_EXACT):
            out.append(
                Violation(
                    name,
                    f"{label} sums to {part_sum!r} but the ledger total is {total!r}",
                )
            )

    savings = ledger.discount_savings(horizon)
    full_price = math.fsum(
        iv.price_per_hour * iv.overlap_ms(0.0, horizon) / MS_PER_HOUR
        for iv in ledger.intervals
    )
    if not math.isclose(savings, full_price - total, rel_tol=_REL, abs_tol=_REL):
        out.append(
            Violation(
                name,
                f"discount savings {savings} != full price {full_price} - total {total}",
            )
        )
    return out


def check_outcome_conservation(result) -> List[Violation]:
    """Every arrival ends exactly one way; the terminal counts balance the total."""
    out: List[Violation] = []
    name = "outcome_conservation"
    report = result.report
    total = report.total_queries
    served_ids = Counter(rec.query.query_id for rec in result.completions)
    shed = report.shed_queries
    dead = report.dead_letters
    unserved = report.unserved_queries

    served = len(result.completions)
    balance = served + len(shed) + len(dead) + unserved
    if balance != total and not report.early_stopped:
        out.append(
            Violation(
                name,
                f"served {served} + shed {len(shed)} + dead {len(dead)} + "
                f"unserved {unserved} = {balance}, but {total} queries were offered",
            )
        )

    shed_ids = Counter(e.query.query_id for e in shed)
    dead_ids = Counter(e.query.query_id for e in dead)
    for label, ids in (("shed", shed_ids), ("dead-lettered", dead_ids)):
        doubles = sorted(qid for qid, n in ids.items() if n > 1)
        if doubles:
            out.append(Violation(name, f"queries {label} more than once: {doubles[:10]}"))
    for a, b, la, lb in (
        (served_ids, shed_ids, "served", "shed"),
        (served_ids, dead_ids, "served", "dead-lettered"),
        (shed_ids, dead_ids, "shed", "dead-lettered"),
    ):
        both = sorted(set(a) & set(b))
        if both:
            out.append(Violation(name, f"queries both {la} and {lb}: {both[:10]}"))
    return out


def check_failure_billing(result) -> List[Violation]:
    """Crashes stop the meter at the failure instant; the failure partition is exact."""
    ledger = result.ledger
    out: List[Violation] = []
    name = "failure_billing"
    report = result.report
    horizon = float(report.billing_horizon_ms)
    scale_log = report.scale_log
    failure_times = sorted(e.time_ms for e in scale_log if e.kind == "instance_failed")

    failed_intervals = [iv for iv in ledger.intervals if getattr(iv, "failed", False)]
    if failed_intervals and not failure_times:
        out.append(
            Violation(name, "failed billing intervals exist but no failures were logged")
        )
    for iv in failed_intervals:
        if iv.end_ms is None:
            out.append(
                Violation(
                    name,
                    f"server {iv.server_id} crashed but its billing interval is "
                    "still open (billed to the horizon)",
                )
            )
            continue
        if not any(abs(iv.end_ms - t) <= _EXACT for t in failure_times):
            out.append(
                Violation(
                    name,
                    f"server {iv.server_id} billing ends at {iv.end_ms!r}, which is "
                    f"not any logged failure instant {failure_times[:10]}",
                )
            )

    n_failures = sum(e.count for e in scale_log if e.kind == "instance_failed")
    if len(failed_intervals) != n_failures:
        out.append(
            Violation(
                name,
                f"{n_failures} instance failures logged but {len(failed_intervals)} "
                "billing intervals are marked failed",
            )
        )

    by_failure = ledger.cost_by_failure(horizon)
    total = ledger.total_cost(horizon)
    part_sum = math.fsum(by_failure.values())
    if not math.isclose(part_sum, total, rel_tol=_EXACT, abs_tol=_EXACT):
        out.append(
            Violation(
                name,
                f"cost_by_failure sums to {part_sum!r} but the ledger total is {total!r}",
            )
        )
    if not math.isclose(
        ledger.cost_of_failures(horizon),
        by_failure.get(True, 0.0),
        rel_tol=_EXACT,
        abs_tol=_EXACT,
    ):
        out.append(Violation(name, "cost_of_failures disagrees with the partition"))
    return out


def check_retry_bounded(result) -> List[Violation]:
    """Attempt counts never exceed the retry budget; dead letters exhaust it."""
    out: List[Violation] = []
    name = "retry_bounded"
    spec = result.spec
    max_attempts = spec.retry.max_attempts if spec.retry is not None else 1
    report = result.report
    dead = report.dead_letters

    # In the spot loop, announced preemptions re-queue outside the retry budget, so
    # assignment counts are only budget-bounded on the unannounced-failure loops.
    if spec.loop != "spot":
        assigned = Counter(qid for r in result.rounds for qid in r.assigned_ids)
        over = sorted(qid for qid, n in assigned.items() if n > max_attempts)
        if over:
            out.append(
                Violation(
                    name,
                    f"queries dispatched more than max_attempts={max_attempts} "
                    f"times: {over[:10]}",
                )
            )

    for entry in dead:
        if entry.attempts > max_attempts:
            out.append(
                Violation(
                    name,
                    f"query {entry.query.query_id} dead-lettered after "
                    f"{entry.attempts} attempts (budget {max_attempts})",
                )
            )
    if spec.retry is not None:
        under = [e.query.query_id for e in dead if e.attempts < max_attempts]
        if under:
            out.append(
                Violation(
                    name,
                    f"queries dead-lettered before exhausting the budget: {under[:10]}",
                )
            )
    elif dead:
        # No retry policy: a voided attempt dead-letters immediately (1 attempt).
        weird = [e.query.query_id for e in dead if e.attempts != 1]
        if weird:
            out.append(
                Violation(
                    name,
                    f"dead letters without a retry policy should record exactly one "
                    f"attempt: {weird[:10]}",
                )
            )

    retries = report.retries
    if retries and spec.retry is None:
        out.append(Violation(name, f"{retries} retries recorded without a retry policy"))
    return out


def check_stage_precedence(result) -> List[Violation]:
    """Causality along DAG edges: child stages wait for all parents, exactly."""
    coordinator = getattr(result, "coordinator", None)
    if coordinator is None or not coordinator.active:
        return []
    out: List[Violation] = []
    name = "stage_precedence"
    by_qid = {rec.query.query_id: rec for rec in result.completions}
    for runtime in coordinator.runtimes:
        graph = runtime.graph
        for stage in graph.stages:
            query = runtime.queries[stage.name]
            rec = by_qid.get(query.query_id)
            if rec is not None:
                for parent in stage.parents:
                    done = runtime.served.get(parent)
                    if done is None:
                        out.append(
                            Violation(
                                name,
                                f"graph {graph.graph_id} stage {stage.name!r} served "
                                f"but parent {parent!r} never completed",
                            )
                        )
                    elif rec.start_ms < done - 1e-6:
                        out.append(
                            Violation(
                                name,
                                f"graph {graph.graph_id} stage {stage.name!r} started "
                                f"at {rec.start_ms!r}, before parent {parent!r} "
                                f"completed at {done!r}",
                            )
                        )
            if not stage.parents:
                if abs(query.arrival_time_ms - graph.release_ms) > 1e-6:
                    out.append(
                        Violation(
                            name,
                            f"graph {graph.graph_id} source {stage.name!r} arrives at "
                            f"{query.arrival_time_ms!r}, not the release instant "
                            f"{graph.release_ms!r}",
                        )
                    )
            elif stage.name in runtime.released and all(
                p in runtime.served for p in stage.parents
            ):
                release_instant = max(runtime.served[p] for p in stage.parents)
                if abs(query.arrival_time_ms - release_instant) > 1e-6:
                    out.append(
                        Violation(
                            name,
                            f"graph {graph.graph_id} stage {stage.name!r} arrives at "
                            f"{query.arrival_time_ms!r}, not its release instant "
                            f"{release_instant!r} (last parent completion)",
                        )
                    )
    return out


def check_graph_conservation(result) -> List[Violation]:
    """Released graphs resolve as units; per-graph stage partitions are exact."""
    outcomes = getattr(result, "graph_outcomes", ())
    if not outcomes:
        return []
    out: List[Violation] = []
    name = "graph_conservation"
    backlogged = result.report.unserved_queries > 0
    for o in outcomes:
        balance = (
            o.served_stages
            + o.shed_stages
            + o.dead_stages
            + o.unserved_stages
            + o.unreleased_stages
        )
        if balance != o.stages:
            out.append(
                Violation(
                    name,
                    f"graph {o.graph_id}: served {o.served_stages} + shed "
                    f"{o.shed_stages} + dead {o.dead_stages} + unserved "
                    f"{o.unserved_stages} + unreleased {o.unreleased_stages} = "
                    f"{balance}, but the graph has {o.stages} stages",
                )
            )
        if o.outcome == "served":
            if o.served_stages != o.stages:
                out.append(
                    Violation(
                        name,
                        f"graph {o.graph_id} labelled served with only "
                        f"{o.served_stages}/{o.stages} stages served",
                    )
                )
        elif o.outcome == "dead":
            if o.dead_stages < 1:
                out.append(
                    Violation(
                        name, f"graph {o.graph_id} labelled dead with no dead stage"
                    )
                )
        elif o.outcome == "shed":
            if o.dead_stages:
                out.append(
                    Violation(
                        name,
                        f"graph {o.graph_id} labelled shed despite "
                        f"{o.dead_stages} dead-lettered stages (dead dominates)",
                    )
                )
            if o.shed_stages + o.unreleased_stages < 1:
                out.append(
                    Violation(
                        name,
                        f"graph {o.graph_id} labelled shed but no stage was shed "
                        "or withheld",
                    )
                )
        elif o.outcome == "unserved":
            if o.shed_stages or o.dead_stages or o.served_stages == o.stages:
                out.append(
                    Violation(
                        name,
                        f"graph {o.graph_id} labelled unserved with partition "
                        f"({o.served_stages}, {o.shed_stages}, {o.dead_stages})",
                    )
                )
        else:
            out.append(
                Violation(name, f"graph {o.graph_id} has unknown outcome {o.outcome!r}")
            )
        # A terminal graph resolves as a unit: nothing lingers in the backlog
        # (unless the whole run quiesced with a backlog it never drained).
        if o.outcome in ("served", "shed", "dead") and o.unserved_stages and not backlogged:
            out.append(
                Violation(
                    name,
                    f"graph {o.graph_id} is terminal ({o.outcome}) but "
                    f"{o.unserved_stages} released stages never resolved",
                )
            )

    coordinator = getattr(result, "coordinator", None)
    if coordinator is not None and coordinator.active:
        shed_ids = {e.query.query_id for e in result.report.shed_queries}
        dead_ids = {e.query.query_id for e in result.report.dead_letters}
        served_ids = Counter(rec.query.query_id for rec in result.completions)
        for runtime in coordinator.runtimes:
            gid = runtime.graph.graph_id
            overlap = (
                (set(runtime.served) & set(runtime.shed))
                | (set(runtime.served) & set(runtime.dead))
                | (set(runtime.shed) & set(runtime.dead))
            )
            if overlap:
                out.append(
                    Violation(
                        name,
                        f"graph {gid} stages with two terminal outcomes: "
                        f"{sorted(overlap)[:10]}",
                    )
                )
            for stage_name in runtime.shed:
                if runtime.queries[stage_name].query_id not in shed_ids:
                    out.append(
                        Violation(
                            name,
                            f"graph {gid} stage {stage_name!r} marked shed without a "
                            "shed entry in the report",
                        )
                    )
            for stage_name in runtime.dead:
                if runtime.queries[stage_name].query_id not in dead_ids:
                    out.append(
                        Violation(
                            name,
                            f"graph {gid} stage {stage_name!r} marked dead without a "
                            "dead-letter entry in the report",
                        )
                    )
            for stage_name in runtime.served:
                if served_ids[runtime.queries[stage_name].query_id] != 1:
                    out.append(
                        Violation(
                            name,
                            f"graph {gid} stage {stage_name!r} marked served without "
                            "exactly one completion record",
                        )
                    )
    return out


def check_hedge_exactly_once(result) -> List[Violation]:
    """Hedge races are zero-sum: one winner served, one loser cancelled and billed."""
    out: List[Violation] = []
    name = "hedge_exactly_once"
    report = result.report
    spec = result.spec
    launched = report.hedges_launched
    cancelled = report.hedges_cancelled
    wins = report.hedge_wins

    if spec.hedge is None and (launched or cancelled or wins):
        out.append(
            Violation(
                name,
                f"hedge activity ({launched} launched, {cancelled} cancelled, "
                f"{wins} wins) recorded without a HedgeSpec",
            )
        )
    if launched != cancelled:
        out.append(
            Violation(
                name,
                f"{launched} hedges launched but {cancelled} cancelled — every "
                "race must resolve with exactly one loser",
            )
        )
    if wins > launched:
        out.append(
            Violation(name, f"{wins} hedge wins exceed {launched} launched hedges")
        )

    # Each query still completes at most once (the race's core exactly-once claim).
    doubles = sorted(
        qid
        for qid, n in Counter(rec.query.query_id for rec in result.completions).items()
        if n > 1
    )
    if doubles:
        out.append(
            Violation(name, f"queries served more than once under hedging: {doubles[:10]}")
        )

    ledger = result.ledger
    if ledger is not None:
        hedge_spans = [s for s in getattr(ledger, "spans", ()) if s.kind == "hedge"]
        if spec.hedge is None and hedge_spans:
            out.append(
                Violation(name, f"{len(hedge_spans)} hedge spans without a HedgeSpec")
            )
        if len(hedge_spans) > cancelled:
            out.append(
                Violation(
                    name,
                    f"{len(hedge_spans)} hedge billing spans exceed the "
                    f"{cancelled} cancelled hedges (at most one span per loser)",
                )
            )
        still_open = [s for s in hedge_spans if s.end_ms is None]
        if still_open:
            out.append(
                Violation(
                    name,
                    f"{len(still_open)} hedge spans left open — losers are "
                    "cancelled at a definite instant",
                )
            )
    return out


def check_gray_billing_partition(result) -> List[Violation]:
    """The gray attribution partition re-labels the bill without creating or losing cost."""
    ledger = result.ledger
    out: List[Violation] = []
    name = "gray_billing_partition"
    spec = result.spec
    horizon = float(result.report.billing_horizon_ms)
    partition = ledger.attribution_partition(horizon)
    total = ledger.total_cost(horizon)

    part_sum = math.fsum(partition.values())
    if not math.isclose(part_sum, total, rel_tol=_EXACT, abs_tol=_EXACT):
        out.append(
            Violation(
                name,
                f"attribution partition sums to {part_sum!r} but the ledger "
                f"total is {total!r}",
            )
        )
    if not math.isclose(
        partition.get("failed", 0.0),
        ledger.cost_of_failures(horizon),
        rel_tol=_EXACT,
        abs_tol=_EXACT,
    ):
        out.append(
            Violation(
                name,
                "the attribution 'failed' bucket disagrees with cost_of_failures",
            )
        )
    for label, enabled in (
        ("quarantine", spec.health is not None),
        ("hedge", spec.hedge is not None),
        ("failed", spec.faults is not None or spec.loop == "spot"),
    ):
        if not enabled and partition.get(label, 0.0) != 0.0:
            out.append(
                Violation(
                    name,
                    f"attribution bucket {label!r} holds {partition[label]!r} "
                    "with its dimension disabled",
                )
            )
    return out


def check_probation_liveness(result) -> List[Violation]:
    """Breaker lifecycle entries are well-formed and never quarantine the whole fleet."""
    out: List[Violation] = []
    name = "probation_liveness"
    spec = result.spec
    report = result.report
    scale_log = report.scale_log
    lifecycle = [e for e in scale_log if e.kind in ("quarantine", "probation", "breaker_close")]

    if spec.health is None:
        if lifecycle:
            out.append(
                Violation(
                    name,
                    f"{len(lifecycle)} breaker lifecycle entries without a HealthSpec",
                )
            )
        ledger = result.ledger
        if ledger is not None and any(
            s.kind == "quarantine" for s in getattr(ledger, "spans", ())
        ):
            out.append(Violation(name, "quarantine billing spans without a HealthSpec"))
        return out

    # Per-server breaker state machine: closed -Q-> open -P-> half -C-> closed,
    # with half -Q-> open on a failed probe.  Crashed/decommissioned servers may
    # end in any state; they simply stop appearing.
    CLOSED, OPEN, HALF = 0, 1, 2
    state: Dict[int, int] = {}
    # Liveness bound: open breakers are distinct servers and the trip-time guard
    # keeps one accepting server, so net-open < everything ever commissioned.
    ever = sum(sum(counts) for counts in spec.config_counts)
    net_open = 0
    for e in scale_log:
        if e.kind == "scale_up":
            ever += e.count
            continue
        if e.kind not in ("quarantine", "probation", "breaker_close"):
            continue
        tag = e.reason.split(":", 1)[0]
        if not tag.startswith("server"):
            out.append(
                Violation(name, f"{e.kind} entry with unparseable reason {e.reason!r}")
            )
            continue
        sid = int(tag[len("server"):])
        current = state.get(sid, CLOSED)
        if e.kind == "quarantine":
            if current == OPEN:
                out.append(
                    Violation(
                        name, f"server {sid} quarantined while already quarantined"
                    )
                )
            state[sid] = OPEN
            net_open += 1
            if net_open >= ever:
                out.append(
                    Violation(
                        name,
                        f"all {ever} commissioned servers quarantined at "
                        f"t={e.time_ms!r} — no accepting server left for probes",
                    )
                )
        elif e.kind == "probation":
            if current != OPEN:
                out.append(
                    Violation(
                        name, f"server {sid} entered probation without being quarantined"
                    )
                )
            else:
                net_open -= 1
            state[sid] = HALF
        else:  # breaker_close
            if current != HALF:
                out.append(
                    Violation(
                        name, f"server {sid} closed its breaker without probation"
                    )
                )
            state[sid] = CLOSED
    return out


_RUN_CHECKS = (
    check_query_conservation,
    check_completion_causality,
    check_round_separation,
    check_budget_conservation,
    check_ledger_partition_exactness,
    check_outcome_conservation,
    check_failure_billing,
    check_retry_bounded,
    check_stage_precedence,
    check_graph_conservation,
    check_hedge_exactly_once,
    check_gray_billing_partition,
    check_probation_liveness,
)


def check_run(result) -> List[Violation]:
    """Evaluate every per-run invariant against one scenario result."""
    violations: List[Violation] = []
    for check in _RUN_CHECKS:
        violations.extend(check(result))
    return violations


# ---------------------------------------------------------------------------------------
# Derived invariants
# ---------------------------------------------------------------------------------------

def check_qos_monotone_in_budget(
    model_name: str,
    budgets: Sequence[float],
    *,
    seed: int = 0,
    n_samples: int = 400,
) -> List[Violation]:
    """More budget can never shrink the planner's QoS-satisfying throughput bound."""
    import numpy as np

    from repro.core.kairos import KairosPlanner
    from repro.fuzz.runner import _registry
    from repro.workload.batch_sizes import production_batch_distribution

    samples = production_batch_distribution().sample(
        n_samples, np.random.default_rng([seed, 7])
    )
    bounds = []
    for budget in sorted(budgets):
        plan = KairosPlanner(
            model_name, budget, profiles=_registry(), batch_samples=samples
        ).plan()
        bounds.append((budget, plan.selected_upper_bound))
    out: List[Violation] = []
    for (b1, u1), (b2, u2) in zip(bounds, bounds[1:]):
        if u2 < u1 - _REL * max(1.0, abs(u1)):
            out.append(
                Violation(
                    "qos_monotone_in_budget",
                    f"{model_name}: budget {b2}$/hr selects bound {u2} qps, below "
                    f"the {u1} qps selected at {b1}$/hr",
                )
            )
    return out


def check_spot_disabled_identity(spec: ScenarioSpec) -> List[Violation]:
    """Disabling the spot subsystem must not change anything it claims not to touch."""
    from repro.fuzz.runner import digest_spec

    if spec.loop != "spot":
        raise ValueError("spot_disabled_identity applies to spot-loop specs")
    out: List[Violation] = []
    elastic_twin = spec.without_spot()

    # The kernel with no market vs the elastic twin: byte-identical, billing included.
    market_off = replace(spec, spot=None)
    if digest_spec(market_off) != digest_spec(elastic_twin):
        out.append(
            Violation(
                "spot_disabled_identity",
                "a spot spec run with no market diverges from its elastic twin "
                f"(spec {spec.label or spec.seed})",
            )
        )

    # Zero-hazard market: prices change, the service stream must not.
    if spec.spot is not None:
        calm = replace(
            spec,
            spot=replace(spec.spot, preemptions_per_hour=0.0, bursts=()),
        )
        if digest_spec(calm, include_billing=False) != digest_spec(
            elastic_twin, include_billing=False
        ):
            out.append(
                Violation(
                    "spot_disabled_identity",
                    "a zero-hazard spot market changed the service stream "
                    f"(spec {spec.label or spec.seed})",
                )
            )
    return out


def check_fault_determinism(spec: ScenarioSpec) -> List[Violation]:
    """Chaos must be reproducible: same seed, same run — and zero hazard, no effect."""
    from repro.fuzz.runner import digest_spec

    out: List[Violation] = []
    if digest_spec(spec) != digest_spec(spec):
        out.append(
            Violation(
                "fault_determinism",
                f"two runs of the same chaos spec diverge (spec {spec.label or spec.seed})",
            )
        )
    if spec.loop != "static" and spec.faults is None:
        from repro.fuzz.spec import FaultSpec

        # A zero-hazard injector draws nothing and scripts nothing: attaching it must
        # leave the run byte-identical to no injector at all.
        calm = replace(
            spec, faults=FaultSpec(failures_per_hour=0.0, slowdowns_per_hour=0.0)
        )
        if digest_spec(calm) != digest_spec(spec):
            out.append(
                Violation(
                    "fault_determinism",
                    "a zero-hazard fault injector changed the run "
                    f"(spec {spec.label or spec.seed})",
                )
            )
    return out


def _src_root() -> str:
    import repro

    return str(Path(repro.__file__).resolve().parent.parent)


def check_hashseed_independence(
    spec: ScenarioSpec, *, hash_seeds: Sequence[int] = (1, 3)
) -> List[Violation]:
    """Re-run the scenario under different PYTHONHASHSEED values; digests must agree."""
    with tempfile.TemporaryDirectory() as tmp:
        spec_path = Path(tmp) / "spec.json"
        spec.save(spec_path)
        digests = {}
        for hs in hash_seeds:
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = str(hs)
            env["PYTHONPATH"] = _src_root() + os.pathsep + env.get("PYTHONPATH", "")
            proc = subprocess.run(
                [sys.executable, "-m", "repro.fuzz.runner", str(spec_path)],
                capture_output=True,
                text=True,
                env=env,
                check=False,
            )
            if proc.returncode != 0:
                return [
                    Violation(
                        "hashseed_independence",
                        f"subprocess run failed under PYTHONHASHSEED={hs}: "
                        f"{proc.stderr.strip()[-500:]}",
                    )
                ]
            digests[hs] = proc.stdout.strip()
    if len(set(digests.values())) > 1:
        return [
            Violation(
                "hashseed_independence",
                f"run digest depends on PYTHONHASHSEED: {digests}",
            )
        ]
    return []
