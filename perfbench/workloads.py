"""The benchmark's three named workloads, each one ``ScenarioSpec`` built from a seed.

Every workload is an open-loop arrival schedule: ``build_queries`` generates the
whole stream from the seed before the run, so queues build in simulated time and
the simulator times each query from its arrival (its due time).

``sim_s`` is the simulated length of one episode; the benchmark uses
:data:`SIM_SECONDS`, the smoke test a tiny fraction of it.  Cluster vectors are in
catalog order: (g4dn.xlarge, c5n.2xlarge, r5n.large, t3.xlarge).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.fuzz.spec import (
    FaultSpec,
    HealthSpec,
    HedgeSpec,
    PhaseSpec,
    PipelineSpec,
    RetrySpec,
    ScenarioSpec,
    SpotSpec,
    StageSpec,
    StreamSpec,
)

#: Simulated seconds of one episode, per workload.
SIM_SECONDS = {"steady": 40.0, "burst": 4.0, "churn": 8.0}


def steady(seed: int, sim_s: float) -> ScenarioSpec:
    """Static loop, RM2 at ~290 qps Poisson, just under the cluster's capacity."""
    return ScenarioSpec(
        loop="static",
        streams=(
            StreamSpec(
                model_name="RM2",
                phases=(PhaseSpec("step", 290.0, 1000.0 * sim_s),),
                arrival="poisson",
            ),
        ),
        config_counts=((6, 6, 12, 0),),
        seed=seed,
        noise_std=0.05,
        online_learning=True,
        label="steady",
    )


#: Models of the ``burst`` workload, one (12, 12, 24, 0) partition each.
BURST_MODELS = ("RM2", "WND", "DIEN")

#: Task graphs per simulated second of ``burst`` (40 over the 4 s prototype).
GRAPHS_PER_S = 10.0


def _graphs(rng: np.random.Generator, n: int, span_ms: float):
    """``n`` chain or diamond graphs whose stages span all three burst models."""
    graphs = []
    for i in range(n):
        models = rng.permutation(BURST_MODELS)
        batches = rng.integers(8, 96, size=4)
        if i % 2 == 0:  # chain over the three models
            stages = tuple(
                StageSpec(
                    f"s{k}",
                    str(models[k]),
                    int(batches[k]),
                    (f"s{k - 1}",) if k else (),
                )
                for k in range(3)
            )
        else:  # diamond: one model at the source and sink, two in the middle
            stages = (
                StageSpec("src", str(models[0]), int(batches[0])),
                StageSpec("left", str(models[1]), int(batches[1]), ("src",)),
                StageSpec("right", str(models[2]), int(batches[2]), ("src",)),
                StageSpec("sink", str(models[0]), int(batches[3]), ("left", "right")),
            )
        graphs.append(
            PipelineSpec(
                stages=stages,
                deadline_ms=float(rng.uniform(300.0, 1500.0)),
                value=1.0,
                release_ms=float(rng.uniform(0.0, span_ms)),
            )
        )
    return tuple(graphs)


def burst(seed: int, sim_s: float) -> ScenarioSpec:
    """Pipeline loop: three bursty streams plus cross-model task graphs."""
    span_ms = 1000.0 * sim_s
    rng = np.random.default_rng([seed, 11])
    return ScenarioSpec(
        loop="pipeline",
        streams=tuple(
            StreamSpec(
                model_name=name,
                phases=(PhaseSpec("step", 200.0, span_ms),),
                arrival="bursty",
                burst_size=32,
            )
            for name in BURST_MODELS
        ),
        config_counts=((12, 12, 24, 0),) * len(BURST_MODELS),
        seed=seed,
        sharded_events=True,
        max_queries_per_round=64,
        pipelines=_graphs(rng, max(1, round(GRAPHS_PER_S * sim_s)), span_ms),
        label="burst",
    )


def churn(seed: int, sim_s: float) -> ScenarioSpec:
    """Spot loop under preemptions, crashes and gray faults, re-planned at $2.5/hr."""
    span_ms = 1000.0 * sim_s
    return ScenarioSpec(
        loop="spot",
        streams=(
            StreamSpec(
                model_name="RM2",
                phases=(
                    PhaseSpec("step", 200.0, span_ms / 2.0),
                    PhaseSpec("spike", 200.0, span_ms / 2.0, factor=1.5),
                ),
                arrival="poisson",
            ),
        ),
        config_counts=((6, 6, 12, 0),),
        seed=seed,
        noise_std=0.05,
        online_learning=True,
        use_controller=True,
        budget_per_hour=2.5,
        startup_delay_ms=400.0,
        spot=SpotSpec(
            discount=0.65,
            preemptions_per_hour=360.0,
            warning_ms=200.0,
            spot_counts=(3, 3, 6, 0),
        ),
        faults=FaultSpec(
            failures_per_hour=120.0,
            degradations_per_hour=120.0,
            degradation_factor=4.0,
            flaky_per_hour=240.0,
            zombies_per_hour=60.0,
        ),
        retry=RetrySpec(max_attempts=3, response_timeout_ms=1400.0),
        health=HealthSpec(probation_ms=2_800.0),
        hedge=HedgeSpec(),
        label="churn",
    )


WORKLOADS = {"steady": steady, "burst": burst, "churn": churn}


def build(name: str, seed: int, sim_s: Optional[float] = None) -> ScenarioSpec:
    """The named workload's spec at ``seed`` (default length :data:`SIM_SECONDS`)."""
    return WORKLOADS[name](seed, SIM_SECONDS[name] if sim_s is None else sim_s)
