"""DAG pipelines: critical-path-aware matching vs. stage-local Kairos at equal budget.

Recommendation serving is rarely one query deep: a request fans through feature
lookup, candidate generation, and ranking stages, each a query against a different
co-located model, with one *end-to-end* deadline over the whole DAG.  The pipeline
subsystem (:mod:`repro.pipeline`) threads such task graphs through the multi-model
serving loop — completing a stage releases its successors as same-instant arrivals —
and ``fig20_pipeline_deadlines`` measures what graph-awareness in the *scheduler* is
worth once the release machinery is in place.  Two arms, identical cluster (so
provisioned $/hr is equal by construction), identical background streams, identical
graph fleet, identical service RNG:

* **stage-local**: plain :class:`~repro.schedulers.kairos_policy.MultiModelKairosPolicy`
  matching.  A stage query is just another pending query; the scheduler knows nothing
  of deadlines or remaining depth, so blown graphs keep consuming capacity and
  deep-but-feasible graphs lose ties to background traffic until their slack is gone;
* **graph-aware**: :class:`~repro.pipeline.CriticalPathKairosPolicy` folds each
  stage's laxity (end-to-end deadline minus critical-path-remaining) into the
  matching cost, so stages on the longest remaining path win ties, and graph-aware
  admission sheds *whole doomed graphs* — stages whose deadline the critical path
  already overruns — instead of letting them poison the backlog.

Attainment is per *graph*: a graph counts only if every stage was served and the sink
finished within the end-to-end deadline, so a shed graph is a miss by definition in
both arms.  The benchmark asserts the graph-aware arm strictly wins deadline
attainment at equal provisioned budget, per seed.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.analysis.reporting import FigureTable
from repro.analysis.settings import ExperimentSettings
from repro.core.kairos import KairosPlanner
from repro.pipeline import (
    CriticalPathKairosPolicy,
    PipelineServingSimulation,
    TaskGraph,
    chain_graph,
    diamond_graph,
    realize_graphs,
)
from repro.schedulers.kairos_policy import MultiModelKairosPolicy
from repro.sim.cluster import MultiModelCluster
from repro.workload.generator import (
    WorkloadGenerator,
    WorkloadSpec,
    interleave_model_streams,
)

ARMS = ("stage-local", "graph-aware")


def pipeline_fleet(
    num_graphs: int,
    model_names: Sequence[str],
    tight_deadline_ms: float,
    loose_deadline_ms: float,
    span_ms: float,
    *,
    wave_size: int = 4,
    release_window: Tuple[float, float] = (0.2, 0.7),
) -> List[TaskGraph]:
    """Mixed-urgency waves of chains and diamonds, released across the trace.

    Graphs arrive ``wave_size`` at a time on one instant — the contended case,
    where *which stage the scheduler serves next* decides who meets a deadline.
    Each wave mixes urgencies: half the graphs carry the tight end-to-end
    deadline (and double value), half the loose one, so laxity arbitration has a
    real trade to make — a scheduler that interleaves fairly blows the tight
    deadlines while the loose graphs had slack to spare.  Stages alternate
    between the two models so every graph crosses both model partitions.
    Releases span ``release_window`` of the background trace: late enough that
    the online learners have warmed up, early enough that sinks finish in-trace.
    """
    a = model_names[0]
    b = model_names[-1]
    lo, hi = release_window
    waves = max(1, (num_graphs + wave_size - 1) // wave_size)
    graphs: List[TaskGraph] = []
    for i in range(num_graphs):
        wave = i // wave_size
        frac = lo + (hi - lo) * (wave / max(1, waves - 1))
        release = span_ms * frac
        tight = i % 2 == 0
        deadline = tight_deadline_ms if tight else loose_deadline_ms
        value = 2.0 if tight else 1.0
        if i % 4 < 2:
            graphs.append(
                chain_graph(
                    i,
                    ((a, 24), (b, 16), (a, 8)),
                    deadline,
                    value=value,
                    release_ms=release,
                )
            )
        else:
            graphs.append(
                diamond_graph(
                    i,
                    (a, 24),
                    (b, 12),
                    (a, 12),
                    (b, 8),
                    deadline,
                    value=value,
                    release_ms=release,
                )
            )
    return graphs


def fig20_pipeline_deadlines(
    settings: Optional[ExperimentSettings] = None,
    *,
    model_names: Sequence[str] = ("RM2", "WND"),
    load_frac: float = 0.85,
    num_graphs: int = 32,
    tight_deadline_ms: float = 250.0,
    loose_deadline_ms: float = 1500.0,
    queries_per_model: Optional[int] = None,
    use_online_latency_learning: bool = True,
) -> FigureTable:
    """Serve one graph fleet over background contention, stage-local vs. graph-aware.

    Each model's cluster is its independently planned (half-budget) configuration
    and its background stream offers ``load_frac`` of that plan's Eq. 15 upper
    bound, so the pool has headroom for queries but *not* for the extra pipeline
    stages — the regime where scheduling order, not capacity, decides which graphs
    make their deadlines.  Both arms run the identical cluster, background stream,
    graph fleet, warm-up, and service RNG; the only difference is the policy and
    the ``graph_aware`` admission flag.
    """
    settings = settings or ExperimentSettings()
    registry = settings.registry()
    names: Tuple[str, ...] = tuple(model_names)
    if len(names) < 2:
        raise ValueError("the pipeline scenario needs at least two models")
    n_queries = (
        int(queries_per_model) if queries_per_model is not None else settings.num_queries
    )
    warmup = max(1, n_queries // 6)
    budget = settings.budget_per_hour

    plans = {
        name: KairosPlanner(
            name,
            budget / len(names),
            profiles=registry,
            batch_samples=settings.monitored_batches(offset=i),
        ).plan()
        for i, name in enumerate(names)
    }
    offered = {name: load_frac * plans[name].selected_upper_bound for name in names}
    configs = {name: plans[name].selected_config for name in names}
    provisioned_cost = sum(c.cost_per_hour() for c in configs.values())

    streams = {}
    for i, name in enumerate(names):
        spec = WorkloadSpec(
            batch_sizes=settings.distribution(),
            num_queries=n_queries,
            model_name=name,
        )
        streams[name] = WorkloadGenerator(spec).generate(
            rate_qps=offered[name], rng=settings.rng(50 + i)
        )
    background = interleave_model_streams(streams)
    span_ms = max(q.arrival_time_ms for q in background)
    graphs = pipeline_fleet(
        num_graphs, names, tight_deadline_ms, loose_deadline_ms, span_ms
    )

    def run_arm(graph_aware: bool):
        # Fresh realization per arm: runtimes and stage queries are stateful.
        sources, coordinator = realize_graphs(graphs, len(background))
        if graph_aware:
            policy = CriticalPathKairosPolicy(
                coordinator, use_perfect_estimator=not use_online_latency_learning
            )
        else:
            policy = MultiModelKairosPolicy(
                use_perfect_estimator=not use_online_latency_learning
            )
        sim = PipelineServingSimulation(
            MultiModelCluster(configs, registry),
            policy,
            coordinator=coordinator,
            graph_aware=graph_aware,
            rng=settings.rng(11),
            warmup_queries=warmup,
        )
        report = sim.run(
            sorted(background + sources, key=lambda q: q.arrival_time_ms)
        )
        return sim, report

    rows = []
    extras = {
        "graphs": graphs,
        "offered_qps": offered,
        "provisioned_cost_per_hour": provisioned_cost,
    }
    for arm in ARMS:
        graph_aware = arm == "graph-aware"
        sim, report = run_arm(graph_aware)
        outcomes = sim.graph_outcomes
        served = [o for o in outcomes if o.outcome == "served"]
        met = [o for o in served if o.deadline_met]
        mean_e2e = (
            sum(o.e2e_latency_ms for o in served) / len(served) if served else 0.0
        )
        rows.append(
            [
                arm,
                len(outcomes),
                len(met),
                sim.deadline_attainment(),
                sim.value_deadline_attainment(),
                len(served),
                sum(1 for o in outcomes if o.outcome == "shed"),
                sum(1 for o in outcomes if o.outcome == "dead"),
                sum(1 for o in outcomes if o.outcome == "unserved"),
                mean_e2e,
                report.total_cost(),
            ]
        )
        extras[arm] = {
            "report": report,
            "outcomes": outcomes,
            "attainment": sim.deadline_attainment(),
            "value_attainment": sim.value_deadline_attainment(),
        }

    table = FigureTable(
        figure_id="fig20-pipeline",
        title=f"{'+'.join(names)} task graphs: graph-aware vs. stage-local Kairos "
        f"at equal provisioned budget ({provisioned_cost:g}$/hr)",
        headers=[
            "arm",
            "graphs",
            "deadline_met",
            "attainment",
            "value_attainment",
            "served",
            "shed",
            "dead",
            "unserved",
            "mean_e2e_ms",
            "realized_cost",
        ],
        rows=rows,
        notes=[
            f"{num_graphs} graphs (chains + diamonds) in waves of 4, end-to-end "
            f"deadlines {tight_deadline_ms:g} ms (tight, 2x value) / "
            f"{loose_deadline_ms:g} ms (loose), released across the trace",
            f"background load = {load_frac:.2f} x each half-budget plan's upper bound",
            "both arms: identical cluster, streams, graph fleet, warm-up, and "
            "service RNG — the policy and the graph_aware flag are the only delta",
            "attainment counts whole graphs: shed / dead / unserved graphs are "
            "misses by definition",
            "tie-break sensitive: rounds commit the canonical one of several "
            "equal-cost matchings; seed 7's stage-local arm meets 23 graphs under "
            "it but 26 (above graph-aware's 25) when identical-column ties follow "
            "scipy's search order",
        ],
        extras=extras,
    )
    return table
