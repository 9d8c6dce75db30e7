"""End-to-end static serving: one fixed fleet, one query stream, one run.

``simulate_serving`` drives a :class:`~repro.sim.cluster.Cluster` built from a
configuration through a query stream under a pluggable query-distribution policy:

1. queries arrive at the central controller and join the pending queue;
2. whenever an event fires (arrival or a server finishing a query) the policy is asked
   to map pending queries to servers;
3. committed queries are dispatched to their server's local FIFO queue, their true
   service latency is drawn from the latency profile (plus optional noise), and a
   completion event is scheduled;
4. per-query records feed :class:`~repro.sim.metrics.ServingMetrics`.

A static run is the serving kernel
(:class:`~repro.sim.elasticity.ElasticServingSimulation`) with no controller and no
scale events, so it reports like every other run: a billing ledger over the fixed
fleet (one ``[0, horizon]`` interval per server) included.  A policy is any object
implementing the small protocol documented in
:class:`repro.schedulers.base.SchedulingPolicy` (``bind``, ``schedule``,
``observe_completion``); the simulator relies only on duck typing, so the Kairos
controller and all baselines plug in identically.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cloud.config import HeterogeneousConfig
from repro.cloud.models import MLModel
from repro.cloud.profiles import ProfileRegistry
from repro.sim.cluster import Cluster
from repro.sim.elasticity import ElasticServingSimulation, ElasticSimulationReport
from repro.sim.server import ServiceNoiseModel
from repro.workload.query import Query


def simulate_serving(
    config: HeterogeneousConfig,
    model: MLModel,
    profiles: ProfileRegistry,
    policy,
    queries: Sequence[Query],
    *,
    dispatch_overhead_ms: float = 0.0,
    **kwargs,
) -> ElasticSimulationReport:
    """Build the fleet ``config`` and serve ``queries`` on it once.

    ``kwargs`` are :class:`~repro.sim.elasticity.ElasticServingSimulation` options
    (``noise``, ``rng``, ``warmup_queries``, ``max_violations``, ...).  The QoS target
    is the model's: serve ``model.with_qos(q)`` to measure against another one.
    """
    cluster = Cluster(config, model, profiles, dispatch_overhead_ms=dispatch_overhead_ms)
    return ElasticServingSimulation(cluster, policy, **kwargs).run(queries)


def gaussian_service_noise(relative_std: float) -> ServiceNoiseModel:
    """A multiplicative Gaussian service-time noise model (Fig. 16b uses 5%)."""
    if relative_std < 0:
        raise ValueError("relative_std must be non-negative")

    def noise(latency_ms: float, rng: np.random.Generator) -> float:
        return latency_ms * float(1.0 + relative_std * rng.standard_normal())

    return noise
