"""Allowable-throughput measurement.

The paper's metric (Sec. 3 / Sec. 7): the allowable throughput of a configuration is
the highest query arrival rate it sustains without violating the QoS target, found by
"gradually increasing the arrival rate of queries until the QoS is violated".  This
module performs that measurement on the simulator with a bracket-then-bisect search over
the Poisson arrival rate.  Each probe simulates a full serving run; an early-stop
violation budget aborts clearly-overloaded runs to keep capacity searches cheap.

Every call to :func:`measure_allowable_throughput` is what the paper calls *one online
evaluation* of a configuration (tens of seconds on the real cloud); the configuration
search experiments (Figs. 2, 10, 11, 12) count these calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.cloud.config import HeterogeneousConfig
from repro.cloud.models import MLModel
from repro.cloud.profiles import ProfileRegistry
from repro.sim.cluster import Cluster
from repro.sim.elasticity import ElasticServingSimulation
from repro.sim.server import ServiceNoiseModel
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_positive
from repro.workload.generator import WorkloadGenerator, WorkloadSpec

#: Signature of the policy factory: called once per probe simulation with no arguments.
PolicyFactory = Callable[[], object]


@dataclass(frozen=True)
class CapacityProbe:
    """One probed arrival rate and its outcome."""

    rate_qps: float
    feasible: bool
    tail_latency_ms: float
    early_stopped: bool


@dataclass(frozen=True)
class AllowableThroughputResult:
    """Result of an allowable-throughput measurement."""

    config: HeterogeneousConfig
    model_name: str
    qps: float
    probes: Tuple[CapacityProbe, ...]
    num_queries: int
    rel_tolerance: float

    @property
    def num_simulations(self) -> int:
        return len(self.probes)

    @property
    def feasible_rates(self) -> List[float]:
        return [p.rate_qps for p in self.probes if p.feasible]

    @property
    def infeasible_rates(self) -> List[float]:
        return [p.rate_qps for p in self.probes if not p.feasible]


def _initial_rate_guess(
    cluster: Cluster, spec: WorkloadSpec
) -> float:
    """Crude aggregate service-rate estimate used to seed the bracket search."""
    mean_batch = spec.batch_sizes.mean_batch()
    total = 0.0
    for server in cluster:
        latency = float(server.profile.latency_ms(mean_batch))
        total += 1000.0 / max(latency, 1e-6)
    return max(total, 1.0)


def measure_allowable_throughput(
    config: HeterogeneousConfig,
    model: MLModel,
    profiles: ProfileRegistry,
    policy_factory: PolicyFactory,
    *,
    workload_spec: Optional[WorkloadSpec] = None,
    num_queries: Optional[int] = None,
    rng: RngLike = None,
    qos_ms: Optional[float] = None,
    qos_percentile: float = 99.0,
    dispatch_overhead_ms: float = 0.0,
    noise: Optional[ServiceNoiseModel] = None,
    rel_tolerance: float = 0.04,
    max_iterations: int = 14,
    min_rate_qps: float = 0.25,
    max_rate_qps: float = 1e6,
    early_stop: bool = True,
    warmup_queries: Optional[int] = None,
) -> AllowableThroughputResult:
    """Measure the allowable throughput of ``config`` for ``model`` under a policy.

    Parameters
    ----------
    policy_factory:
        Zero-argument callable returning a *fresh* scheduling policy for each probe run
        (policies carry online-learning state that must not leak across probes).
    workload_spec / num_queries:
        Query-stream description; the same batch-size sequence (same derived seed) is
        used at every probed rate so probes differ only in arrival intensity.
    rel_tolerance / max_iterations:
        Bisection stops when the bracket width falls below ``rel_tolerance`` of the
        upper end or after ``max_iterations`` probes in the bisection phase.
    early_stop:
        Abort probe simulations as soon as more QoS violations have occurred than the
        QoS percentile permits (the run is already infeasible).
    warmup_queries:
        Earliest arrivals excluded from the QoS metric (they cover the online latency
        learner's cold start).  Defaults to 10% of the probe's query count.
    """
    check_positive(rel_tolerance, "rel_tolerance")
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    spec = workload_spec if workload_spec is not None else WorkloadSpec()
    if num_queries is not None:
        spec = spec.with_num_queries(num_queries)
    if qos_ms is not None:
        model = model.with_qos(qos_ms)
    qos = model.qos_ms

    master = ensure_rng(rng)
    workload_seed = int(master.integers(0, 2**62))
    noise_seed = int(master.integers(0, 2**62))

    warmup = (
        int(warmup_queries)
        if warmup_queries is not None
        else max(0, spec.num_queries // 10)
    )
    measured_queries = max(1, spec.num_queries - warmup)
    allowed_violations: Optional[int] = None
    if early_stop:
        allowed_violations = int(math.ceil((1.0 - qos_percentile / 100.0) * measured_queries)) + 1

    generator = WorkloadGenerator(spec)
    probes: List[CapacityProbe] = []

    def probe(rate: float) -> bool:
        queries = generator.generate(rate, np.random.default_rng(workload_seed))
        cluster = Cluster(config, model, profiles, dispatch_overhead_ms=dispatch_overhead_ms)
        sim = ElasticServingSimulation(
            cluster,
            policy_factory(),
            qos_percentile=qos_percentile,
            noise=noise,
            rng=np.random.default_rng(noise_seed),
            max_violations=allowed_violations,
            warmup_queries=warmup,
        )
        report = sim.run(queries)
        if report.early_stopped or not report.completed_all or len(report.metrics) == 0:
            # Overloaded, or the policy could not place every query (undeliverable
            # queries count against QoS just like violations).
            feasible = False
            tail = float("inf")
        else:
            tail = report.metrics.tail_latency_ms()
            feasible = tail <= qos + 1e-9
        probes.append(CapacityProbe(rate, feasible, tail, report.early_stopped))
        return feasible

    cluster_for_guess = Cluster(config, model, profiles)
    rate = _initial_rate_guess(cluster_for_guess, spec)
    rate = min(max(rate * 0.5, min_rate_qps), max_rate_qps)

    # --- bracket ------------------------------------------------------------------------
    lo: Optional[float] = None
    hi: Optional[float] = None
    if probe(rate):
        lo = rate
        while lo is not None and hi is None:
            candidate = min(lo * 2.0, max_rate_qps)
            if candidate <= lo * (1 + 1e-9):
                hi = candidate
                break
            if probe(candidate):
                lo = candidate
                if candidate >= max_rate_qps:
                    hi = candidate
            else:
                hi = candidate
    else:
        hi = rate
        while hi is not None and lo is None:
            candidate = hi / 2.0
            if candidate < min_rate_qps:
                break
            if probe(candidate):
                lo = candidate
            else:
                hi = candidate

    if lo is None:
        # Not even the minimum rate is feasible: allowable throughput is 0 (the paper's
        # "cannot serve standalone" case).
        return AllowableThroughputResult(
            config=config,
            model_name=model.name,
            qps=0.0,
            probes=tuple(probes),
            num_queries=spec.num_queries,
            rel_tolerance=rel_tolerance,
        )
    assert hi is not None

    # --- bisect ------------------------------------------------------------------------
    iterations = 0
    while (hi - lo) > rel_tolerance * hi and iterations < max_iterations:
        mid = 0.5 * (lo + hi)
        if probe(mid):
            lo = mid
        else:
            hi = mid
        iterations += 1

    return AllowableThroughputResult(
        config=config,
        model_name=model.name,
        qps=float(lo),
        probes=tuple(probes),
        num_queries=spec.num_queries,
        rel_tolerance=rel_tolerance,
    )
