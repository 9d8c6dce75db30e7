"""The perf-benchmark definitions (see the package docstring for the catalog).

Every benchmark is a function ``(preset: str) -> BenchResult`` registered in
:data:`BENCHMARKS`.  Workloads are seeded, so two runs on the same code measure the same
work; only wall time varies.  Scale presets (:data:`PRESETS`) keep one benchmark
*identity* per (name, preset) pair — comparisons in ``BENCH_perf.json`` are only ever
made within the same preset.
"""

from __future__ import annotations

from typing import Callable, Dict, List

import numpy as np

from repro.bench.runner import BenchResult, time_throughput
from repro.cloud.config import HeterogeneousConfig
from repro.cloud.profiles import default_profile_registry
from repro.core.config_space import config_space
from repro.core.cost_matrix import build_cost_matrix
from repro.core.kairos import KairosPlanner
from repro.core.latency_model import OnlineLatencyEstimator
from repro.core.upper_bound import ThroughputUpperBoundEstimator
from repro.sim.cluster import Cluster
from repro.sim.elasticity import ElasticServingSimulation
from repro.workload.batch_sizes import (
    TruncatedLogNormalBatchSizes,
    production_batch_distribution,
)
from repro.workload.generator import WorkloadGenerator, WorkloadSpec

SEED = 20230715

#: Scale presets.  ``smoke`` exists for the unit tests of the harness itself; ``quick``
#: is what the CI ``bench-smoke`` stage runs; ``full`` is the committed reference scale.
PRESETS: Dict[str, Dict[str, float]] = {
    "smoke": dict(
        serving_queries=60,
        serving_rate_qps=60.0,
        serving_counts=(2, 2, 4, 0),
        cost_matrix_queries=16,
        cost_matrix_servers=8,
        cost_matrix_variants=4,
        jv_rows=8,
        jv_cols=12,
        jv_variants=4,
        rank_budget=1.0,
        rank_4x_budget=2.0,
        replan_budget=1.0,
        mm_queries=40,
        mm_rates=(25.0, 150.0),
        mm_counts=((1, 1, 2, 0), (1, 1, 2, 0)),
        pipe_queries=40,
        pipe_rates=(25.0, 150.0),
        pipe_counts=((1, 1, 2, 0), (1, 1, 2, 0)),
        pipe_graphs=4,
        spot_queries=60,
        spot_rate_qps=60.0,
        spot_counts=(2, 2, 4, 0),
        spot_portion=(1, 1, 2, 0),
        fleet_models=2,
        fleet_counts=(2, 2, 4, 0),
        fleet_queries=100,
        fleet_rate_qps=100.0,
        fleet_burst=8,
        min_seconds=0.05,
    ),
    "quick": dict(
        serving_queries=300,
        serving_rate_qps=150.0,
        serving_counts=(6, 6, 12, 0),
        cost_matrix_queries=48,
        cost_matrix_servers=16,
        cost_matrix_variants=8,
        jv_rows=32,
        jv_cols=48,
        jv_variants=8,
        rank_budget=2.5,
        rank_4x_budget=10.0,
        replan_budget=2.5,
        mm_queries=150,
        mm_rates=(60.0, 400.0),
        mm_counts=((3, 3, 6, 0), (3, 3, 6, 0)),
        pipe_queries=150,
        pipe_rates=(60.0, 400.0),
        pipe_counts=((3, 3, 6, 0), (3, 3, 6, 0)),
        pipe_graphs=12,
        spot_queries=300,
        spot_rate_qps=150.0,
        spot_counts=(6, 6, 12, 0),
        spot_portion=(3, 3, 6, 0),
        fleet_models=5,
        fleet_counts=(14, 14, 28, 0),
        fleet_queries=1000,
        fleet_rate_qps=400.0,
        fleet_burst=32,
        min_seconds=0.15,
    ),
    "full": dict(
        serving_queries=1000,
        serving_rate_qps=150.0,
        serving_counts=(6, 6, 12, 0),
        cost_matrix_queries=64,
        cost_matrix_servers=24,
        cost_matrix_variants=8,
        jv_rows=64,
        jv_cols=96,
        jv_variants=8,
        rank_budget=2.5,
        rank_4x_budget=10.0,
        replan_budget=5.0,
        mm_queries=500,
        mm_rates=(60.0, 400.0),
        mm_counts=((3, 3, 6, 0), (3, 3, 6, 0)),
        pipe_queries=500,
        pipe_rates=(60.0, 400.0),
        pipe_counts=((3, 3, 6, 0), (3, 3, 6, 0)),
        pipe_graphs=24,
        spot_queries=1000,
        spot_rate_qps=150.0,
        spot_counts=(6, 6, 12, 0),
        spot_portion=(3, 3, 6, 0),
        fleet_models=5,
        fleet_counts=(56, 56, 112, 0),
        fleet_queries=10_000,
        fleet_rate_qps=800.0,
        fleet_burst=64,
        min_seconds=0.4,
    ),
    # The ``fleet`` preset pairs with ``fleet_sim`` only (run it via
    # ``tools/bench.py --fleet``): all five models, 448 servers each (2,240 total),
    # 200k queries per model (10^6 total).  It carries no parameters for the other
    # benchmarks on purpose — they have nothing meaningful to measure at this scale.
    "fleet": dict(
        fleet_models=5,
        fleet_counts=(112, 112, 224, 0),
        fleet_queries=200_000,
        fleet_rate_qps=800.0,
        fleet_burst=64,
        min_seconds=0.4,
    ),
}

MODEL = "RM2"


def _params(preset: str) -> Dict[str, float]:
    try:
        return PRESETS[preset]
    except KeyError:
        raise KeyError(f"unknown preset {preset!r}; available: {sorted(PRESETS)}") from None


def bench_serving_sim(preset: str) -> BenchResult:
    """Macro: end-to-end serving-simulation throughput (simulated queries per second).

    The paper's default operating point: Kairos policy, online latency learning, a
    heterogeneous cluster, arrival rate high enough that the central queue stays busy —
    so the measurement is dominated by scheduling rounds, not event-queue idling.
    """
    p = _params(preset)
    profiles = default_profile_registry()
    config = HeterogeneousConfig(tuple(p["serving_counts"]), profiles.catalog)
    model = profiles.models[MODEL]
    spec = WorkloadSpec(
        batch_sizes=TruncatedLogNormalBatchSizes(median=80, sigma=1.1),
        num_queries=int(p["serving_queries"]),
    )
    queries = WorkloadGenerator(spec).generate(rate_qps=p["serving_rate_qps"], rng=SEED)

    def work() -> float:
        from repro.schedulers.kairos_policy import KairosPolicy

        cluster = Cluster(config, model, profiles)
        sim = ElasticServingSimulation(
            cluster, KairosPolicy(), rng=np.random.default_rng(SEED + 1)
        )
        report = sim.run(queries)
        return float(report.dispatched_queries)

    qps, wall = time_throughput(work, min_seconds=p["min_seconds"])
    return BenchResult(
        name="serving_sim",
        preset=preset,
        value=qps,
        unit="queries/s",
        wall_seconds=wall,
        extras={"num_queries": float(p["serving_queries"])},
    )


def bench_cost_matrix(preset: str) -> BenchResult:
    """Micro: scheduling-round ``L``-matrix builds per second.

    Uses a pre-trained online estimator (the steady-state case: the learner has seen
    each type) over a mixed-type server pool, cycling through several distinct pending
    sets and scheduling instants so the measurement covers both cold and memoized
    prediction vectors — the same mix a long serving run produces.
    """
    p = _params(preset)
    profiles = default_profile_registry()
    model = profiles.models[MODEL]
    catalog = profiles.catalog
    n_servers = int(p["cost_matrix_servers"])
    m_queries = int(p["cost_matrix_queries"])
    rng = np.random.default_rng(SEED)

    type_cycle = [t.name for t in catalog.types[:3]]
    cluster_counts = {name: 0 for name in catalog.names}
    for i in range(n_servers):
        cluster_counts[type_cycle[i % len(type_cycle)]] += 1
    config = HeterogeneousConfig.from_mapping(cluster_counts, catalog)
    cluster = Cluster(config, model, profiles)
    servers = cluster.servers
    for i, server in enumerate(servers):
        server.busy_until_ms = float((i * 7) % 40)

    estimator = OnlineLatencyEstimator()
    for name in type_cycle:
        profile = profiles.profile(model, catalog[name])
        for batch in (1, 64, 256, 512, model.max_batch_size):
            estimator.observe(name, batch, float(profile.latency_ms(batch)))

    coefficients = {name: 1.0 if i == 0 else 0.3 for i, name in enumerate(catalog.names)}
    from repro.workload.query import Query

    variants: List[List[Query]] = []
    for v in range(int(p["cost_matrix_variants"])):
        batches = rng.integers(1, model.max_batch_size + 1, size=m_queries)
        variants.append(
            [Query(v * m_queries + i, int(b), 0.0) for i, b in enumerate(batches)]
        )

    def work() -> float:
        builds = 0
        for round_idx, queries in enumerate(variants):
            build_cost_matrix(
                queries,
                servers,
                estimator,
                float(10 * round_idx),
                model.qos_ms,
                coefficients,
            )
            builds += 1
        return float(builds)

    builds_per_sec, wall = time_throughput(work, min_seconds=p["min_seconds"])
    return BenchResult(
        name="cost_matrix",
        preset=preset,
        value=builds_per_sec,
        unit="builds/s",
        wall_seconds=wall,
        extras={"queries": float(m_queries), "servers": float(n_servers)},
    )


def bench_jv_solver(preset: str) -> BenchResult:
    """Micro: round-solver matchings solved per second (the round's inner loop).

    Half the instances are dense uniform-random rectangular matrices, half are
    QoS-structured like a real scheduling round: a large Eq. 8 penalty on most
    entries (with heavy ties, exercising the canonical tie-break) and small
    feasible pockets.  Every solve goes through ``round_solver("jv")``, the solver
    each scheduling round calls.
    """
    p = _params(preset)
    from repro.solvers.assignment import round_solver

    m, n = int(p["jv_rows"]), int(p["jv_cols"])
    rng = np.random.default_rng(SEED)
    matrices: List[np.ndarray] = []
    for v in range(int(p["jv_variants"])):
        if v % 2 == 0:
            matrices.append(rng.uniform(1.0, 1_000.0, size=(m, n)))
        else:
            qos_like = np.full((m, n), 3_500.0)  # Eq. 8 penalty plateau (tie-heavy)
            feasible = rng.random((m, n)) < 0.25
            qos_like[feasible] = rng.uniform(10.0, 300.0, size=int(feasible.sum()))
            matrices.append(qos_like)
    solver = round_solver("jv")

    def work() -> float:
        results = [solver(cost) for cost in matrices]
        return float(len(results))

    solves_per_sec, wall = time_throughput(work, min_seconds=p["min_seconds"])
    return BenchResult(
        name="jv_solver",
        preset=preset,
        value=solves_per_sec,
        unit="solves/s",
        wall_seconds=wall,
        extras={"rows": float(m), "cols": float(n), "variants": float(p["jv_variants"])},
    )


def _rank_benchmark(name: str, preset: str, budget: float, min_seconds: float) -> BenchResult:
    profiles = default_profile_registry()
    samples = production_batch_distribution().sample(4000, np.random.default_rng(SEED))
    estimator = ThroughputUpperBoundEstimator(profiles, MODEL, samples)
    space = config_space(budget, profiles.catalog)  # what the planner ranks

    def work() -> float:
        estimator.rank_configs(space)
        return float(len(space))

    configs_per_sec, wall = time_throughput(work, min_seconds=min_seconds)
    return BenchResult(
        name=name,
        preset=preset,
        value=configs_per_sec,
        unit="configs/s",
        wall_seconds=wall,
        extras={"space_size": float(len(space)), "budget_per_hour": budget},
    )


def bench_planner_rank(preset: str) -> BenchResult:
    """Micro: configurations ranked per second at the default $2.5/hr budget."""
    p = _params(preset)
    return _rank_benchmark("planner_rank", preset, p["rank_budget"], p["min_seconds"])


def bench_planner_rank_4x(preset: str) -> BenchResult:
    """Macro: ranking the Fig. 15a-scale (4x budget) space — tens of thousands of configs."""
    p = _params(preset)
    return _rank_benchmark("planner_rank_4x", preset, p["rank_4x_budget"], p["min_seconds"])


def bench_elastic_replan(preset: str) -> BenchResult:
    """Macro: wall time of one full re-plan pass (memoized space + rank + select).

    This is the latency the elastic controller pays inside the serving loop every time
    :meth:`~repro.core.controller.ElasticKairosController.maybe_replan` fires at an
    already-seen budget, so it is reported as re-plans per second of the same planner
    pipeline the controller builds.
    """
    p = _params(preset)
    profiles = default_profile_registry()
    samples = production_batch_distribution().sample(2000, np.random.default_rng(SEED))
    planner = KairosPlanner(
        MODEL, p["replan_budget"], profiles=profiles, batch_samples=samples
    )

    def work() -> float:
        planner.plan()
        return 1.0

    plans_per_sec, wall = time_throughput(work, min_seconds=p["min_seconds"])
    return BenchResult(
        name="elastic_replan",
        preset=preset,
        value=plans_per_sec,
        unit="replans/s",
        wall_seconds=wall,
        extras={"budget_per_hour": p["replan_budget"]},
    )


MM_MODELS = ("RM2", "WND")


def bench_multi_model_sim(preset: str) -> BenchResult:
    """Macro: end-to-end multi-model serving throughput (simulated queries per second).

    The new scheduling-round shape of the co-location subsystem: two models share one
    cluster, every round solves one joint matching over the union of pending queries
    with model-aware columns (one ``predict_many_ms`` per (model, type) pair).  Rates
    keep both models' queues busy so the measurement is dominated by joint rounds.
    """
    p = _params(preset)
    profiles = default_profile_registry()
    from repro.cloud.config import HeterogeneousConfig as Config
    from repro.sim.cluster import MultiModelCluster
    from repro.sim.multi_model import MultiModelServingSimulation
    from repro.workload.generator import interleave_model_streams

    configs = {
        name: Config(tuple(counts), profiles.catalog)
        for name, counts in zip(MM_MODELS, p["mm_counts"])
    }
    streams = {}
    for i, name in enumerate(MM_MODELS):
        spec = WorkloadSpec(
            batch_sizes=TruncatedLogNormalBatchSizes(median=80, sigma=1.1),
            num_queries=int(p["mm_queries"]),
            model_name=name,
        )
        streams[name] = WorkloadGenerator(spec).generate(
            rate_qps=p["mm_rates"][i], rng=SEED + 10 + i
        )
    queries = interleave_model_streams(streams)

    def work() -> float:
        from repro.schedulers.kairos_policy import MultiModelKairosPolicy

        cluster = MultiModelCluster(configs, profiles)
        sim = MultiModelServingSimulation(
            cluster, MultiModelKairosPolicy(), rng=np.random.default_rng(SEED + 1)
        )
        report = sim.run(queries)
        return float(report.dispatched_queries)

    qps, wall = time_throughput(work, min_seconds=p["min_seconds"])
    return BenchResult(
        name="multi_model_sim",
        preset=preset,
        value=qps,
        unit="queries/s",
        wall_seconds=wall,
        extras={
            "num_queries": float(len(queries)),
            "num_models": float(len(MM_MODELS)),
        },
    )


def bench_pipeline_sim(preset: str) -> BenchResult:
    """Macro: end-to-end pipeline serving throughput (simulated queries per second).

    The task-graph subsystem's round shape on top of the multi-model loop: a fleet
    of chain and diamond graphs (stages alternating between the two co-located
    models) is released across a busy background trace and served by
    :class:`~repro.pipeline.CriticalPathKairosPolicy` under graph-aware admission.
    Every round therefore pays the full pipeline tax — laxity row-scaling folded
    into the joint matching, successor releases re-entering the central queue as
    same-instant arrivals, and per-admission doomed-graph sweeps — so this number
    gates the overhead graph-awareness adds to a scheduling round.
    """
    p = _params(preset)
    profiles = default_profile_registry()
    from repro.pipeline import (
        CriticalPathKairosPolicy,
        PipelineServingSimulation,
        chain_graph,
        diamond_graph,
        realize_graphs,
    )
    from repro.sim.cluster import MultiModelCluster
    from repro.workload.generator import interleave_model_streams

    configs = {
        name: HeterogeneousConfig(tuple(counts), profiles.catalog)
        for name, counts in zip(MM_MODELS, p["pipe_counts"])
    }
    streams = {}
    for i, name in enumerate(MM_MODELS):
        spec = WorkloadSpec(
            batch_sizes=TruncatedLogNormalBatchSizes(median=80, sigma=1.1),
            num_queries=int(p["pipe_queries"]),
            model_name=name,
        )
        streams[name] = WorkloadGenerator(spec).generate(
            rate_qps=p["pipe_rates"][i], rng=SEED + 30 + i
        )
    background = interleave_model_streams(streams)
    span_ms = max(q.arrival_time_ms for q in background)
    a, b = MM_MODELS
    n_graphs = int(p["pipe_graphs"])
    graphs = []
    for g in range(n_graphs):
        release = span_ms * (0.2 + 0.5 * g / max(1, n_graphs - 1))
        if g % 2 == 0:
            graphs.append(
                chain_graph(
                    g, ((a, 24), (b, 16), (a, 8)), 2_000.0, release_ms=release
                )
            )
        else:
            graphs.append(
                diamond_graph(
                    g, (a, 24), (b, 12), (a, 12), (b, 8), 2_000.0, release_ms=release
                )
            )

    def work() -> float:
        # Fresh realization per pass: runtimes and stage queries are stateful.
        sources, coordinator = realize_graphs(graphs, len(background))
        cluster = MultiModelCluster(configs, profiles)
        sim = PipelineServingSimulation(
            cluster,
            CriticalPathKairosPolicy(coordinator),
            coordinator=coordinator,
            graph_aware=True,
            rng=np.random.default_rng(SEED + 1),
        )
        queries = sorted(background + sources, key=lambda q: q.arrival_time_ms)
        report = sim.run(queries)
        return float(report.dispatched_queries)

    qps, wall = time_throughput(work, min_seconds=p["min_seconds"])
    return BenchResult(
        name="pipeline_sim",
        preset=preset,
        value=qps,
        unit="queries/s",
        wall_seconds=wall,
        extras={
            "num_queries": float(len(background)),
            "num_graphs": float(n_graphs),
            "num_models": float(len(MM_MODELS)),
        },
    )


def bench_spot_sim(preset: str) -> BenchResult:
    """Macro: end-to-end preemptible serving throughput (simulated queries per second).

    The spot subsystem's event-loop shape: half the cluster is spot capacity under an
    aggressive preemption hazard (~1 reclaim per spot instance per simulated second),
    so the measurement covers warning/kill events, deadline-bounded draining, central
    re-queues, and reactive like-for-like re-provisioning on top of the ordinary
    scheduling rounds.
    """
    p = _params(preset)
    profiles = default_profile_registry()
    model = profiles.models[MODEL]
    from repro.cloud.spot import SpotMarket
    from repro.sim.cluster import initial_spot_server_ids

    combined = HeterogeneousConfig(tuple(p["spot_counts"]), profiles.catalog)
    spot_portion = HeterogeneousConfig(tuple(p["spot_portion"]), profiles.catalog)
    market = SpotMarket.uniform(
        profiles.catalog, discount=0.65, preemptions_per_hour=3_600.0, warning_ms=20.0
    )
    spec = WorkloadSpec(
        batch_sizes=TruncatedLogNormalBatchSizes(median=80, sigma=1.1),
        num_queries=int(p["spot_queries"]),
    )
    queries = WorkloadGenerator(spec).generate(rate_qps=p["spot_rate_qps"], rng=SEED)

    def work() -> float:
        from repro.schedulers.kairos_policy import KairosPolicy

        cluster = Cluster(combined, model, profiles)
        sim = ElasticServingSimulation(
            cluster,
            KairosPolicy(),
            market=market,
            spot_server_ids=initial_spot_server_ids(cluster, spot_portion),
            startup_delay_ms=100.0,
            rng=np.random.default_rng(SEED + 1),
            market_rng=np.random.default_rng(SEED + 2),
        )
        report = sim.run(queries)
        return float(report.dispatched_queries)

    qps, wall = time_throughput(work, min_seconds=p["min_seconds"])
    return BenchResult(
        name="spot_sim",
        preset=preset,
        value=qps,
        unit="queries/s",
        wall_seconds=wall,
        extras={
            "num_queries": float(p["spot_queries"]),
            "spot_instances": float(spot_portion.total_instances),
        },
    )


def bench_fleet_sim(preset: str) -> BenchResult:
    """Macro: fleet-scale serving with sharded dispatch + sharded event queues.

    Every profiled model is co-located on one fleet and served through the sharded
    path: :class:`MultiModelKairosPolicy` with ``sharded=True`` (per-model matchings
    instead of one joint union matrix) on top of ``sharded_events=True`` (per-shard
    labels over the one event heap, at about the plain queue's cost).  Arrivals come
    in large bursts, so every scheduling round carries a wide multi-model cost matrix
    — the shape where the union matrix is most expensive and sharding pays.  The headline value is the
    sharded throughput; one unsharded pass of the same workload is timed into
    ``extras`` so the recorded speedup stays honest.
    """
    import time as _time

    p = _params(preset)
    profiles = default_profile_registry()
    from repro.schedulers.kairos_policy import MultiModelKairosPolicy
    from repro.sim.cluster import MultiModelCluster
    from repro.sim.multi_model import MultiModelServingSimulation
    from repro.workload.arrivals import BurstyArrivalProcess
    from repro.workload.generator import interleave_model_streams

    models = [m.name for m in profiles.models][: int(p["fleet_models"])]
    counts = tuple(int(c) for c in p["fleet_counts"])
    configs = {
        name: HeterogeneousConfig(counts, profiles.catalog) for name in models
    }
    streams = {}
    for i, name in enumerate(models):
        spec = WorkloadSpec(
            batch_sizes=TruncatedLogNormalBatchSizes(median=80, sigma=1.1),
            num_queries=int(p["fleet_queries"]),
            model_name=name,
            arrivals=BurstyArrivalProcess(burst_size=int(p["fleet_burst"])),
        )
        streams[name] = WorkloadGenerator(spec).generate(
            rate_qps=p["fleet_rate_qps"], rng=SEED + 20 + i
        )
    queries = interleave_model_streams(streams)

    def run_once(sharded: bool) -> float:
        cluster = MultiModelCluster(configs, profiles)
        sim = MultiModelServingSimulation(
            cluster,
            MultiModelKairosPolicy(sharded=sharded),
            rng=np.random.default_rng(SEED + 1),
            sharded_events=sharded,
        )
        return float(sim.run(queries).dispatched_queries)

    qps, wall = time_throughput(lambda: run_once(True), min_seconds=p["min_seconds"])
    start = _time.perf_counter()
    run_once(False)
    unsharded_wall = _time.perf_counter() - start
    sharded_wall = float(len(queries)) / qps  # per-pass wall from the measured rate
    return BenchResult(
        name="fleet_sim",
        preset=preset,
        value=qps,
        unit="queries/s",
        wall_seconds=wall,
        extras={
            "num_queries": float(len(queries)),
            "num_models": float(len(models)),
            "num_servers": float(sum(counts) * len(models)),
            "unsharded_wall_seconds": unsharded_wall,
            "sharded_speedup": unsharded_wall / sharded_wall,
        },
    )


#: Registry, in execution order.
BENCHMARKS: Dict[str, Callable[[str], BenchResult]] = {
    "serving_sim": bench_serving_sim,
    "cost_matrix": bench_cost_matrix,
    "jv_solver": bench_jv_solver,
    "multi_model_sim": bench_multi_model_sim,
    "pipeline_sim": bench_pipeline_sim,
    "spot_sim": bench_spot_sim,
    "fleet_sim": bench_fleet_sim,
    "planner_rank": bench_planner_rank,
    "planner_rank_4x": bench_planner_rank_4x,
    "elastic_replan": bench_elastic_replan,
}
