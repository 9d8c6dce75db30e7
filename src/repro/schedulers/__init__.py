"""Query-distribution policies: Kairos and the competing schemes of the paper.

Every policy implements the small :class:`~repro.schedulers.base.SchedulingPolicy`
protocol consumed by the serving kernel (:mod:`repro.sim.elasticity`):

* :class:`~repro.schedulers.fcfs.RibbonFCFSPolicy` — Ribbon's FCFS distribution that
  prefers base instances;
* :class:`~repro.schedulers.threshold.DRSThresholdPolicy` — DeepRecSys's static
  batch-size threshold;
* :class:`~repro.schedulers.clockwork.ClockworkPolicy` — Clockwork-inspired
  latency-predictive controller with per-instance FCFS queues;
* :class:`~repro.schedulers.oracle.OracleScheduler` — the clairvoyant reference scheme;
* :class:`~repro.schedulers.kairos_policy.KairosPolicy` — Kairos's bipartite-matching
  distribution mechanism.
"""

from repro.schedulers.base import SchedulingPolicy
from repro.schedulers.clockwork import ClockworkPolicy
from repro.schedulers.fcfs import RibbonFCFSPolicy
from repro.schedulers.kairos_policy import KairosPolicy
from repro.schedulers.oracle import OracleScheduler, oracle_throughput
from repro.schedulers.threshold import DRSThresholdPolicy

__all__ = [
    "SchedulingPolicy",
    "RibbonFCFSPolicy",
    "DRSThresholdPolicy",
    "ClockworkPolicy",
    "OracleScheduler",
    "oracle_throughput",
    "KairosPolicy",
]
