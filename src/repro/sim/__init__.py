"""Discrete-event simulator for heterogeneous inference serving.

This package replaces the paper's AWS deployment: a cluster of simulated inference
servers (one model copy each, one query at a time), a central queue, a pluggable
query-distribution policy, latency/QoS metrics, and the allowable-throughput capacity
search that defines the paper's headline metric.
"""

from repro.sim.cluster import Cluster, ClusterView, initial_spot_server_ids
from repro.sim.capacity import AllowableThroughputResult, measure_allowable_throughput
from repro.sim.elasticity import (
    ElasticServingSimulation,
    ElasticSimulationReport,
    ScaleLogEntry,
    simulate_elastic_serving,
)
from repro.sim.engine import EventQueue, SimulationClock
from repro.sim.events import Event, EventKind, PreemptionBurst, ScaleRequest
from repro.sim.faults import (
    AdmissionController,
    CrashStorm,
    DeadLetterEntry,
    FaultInjector,
    FaultProfile,
    RetryPolicy,
    ShedEntry,
)
from repro.sim.metrics import QueryRecord, ServingMetrics
from repro.sim.server import ServerInstance
from repro.sim.simulation import simulate_serving

__all__ = [
    "Event",
    "EventKind",
    "PreemptionBurst",
    "ScaleRequest",
    "EventQueue",
    "SimulationClock",
    "ServerInstance",
    "Cluster",
    "ClusterView",
    "QueryRecord",
    "ServingMetrics",
    "simulate_serving",
    "ElasticServingSimulation",
    "ElasticSimulationReport",
    "ScaleLogEntry",
    "simulate_elastic_serving",
    "initial_spot_server_ids",
    "AllowableThroughputResult",
    "measure_allowable_throughput",
    "FaultInjector",
    "FaultProfile",
    "CrashStorm",
    "RetryPolicy",
    "AdmissionController",
    "DeadLetterEntry",
    "ShedEntry",
]
