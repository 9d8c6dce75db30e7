"""Run a workload's episodes through ``run_scenario`` and turn results into metrics.

One benchmark run of a workload is a fixed set of *episodes*: independent
scenarios of the workload's shape whose seeds derive from the run's seed.
Pooling several short episodes keeps each scenario at the shape the workload
was designed at (a fixed number of task graphs, a controller window sized to
the episode) while giving the run enough queries and fault events for its
metrics to be steady across seeds.

Only the ``run_scenario`` call is timed.  Metric extraction, the determinism
comparison and the invariant check all run outside the timed region.
"""

from __future__ import annotations

import heapq
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import workloads
from repro.fuzz.runner import _registry, build_queries, result_digest, run_scenario

#: Episodes per run (``workloads.SIM_SECONDS`` sets each one's simulated length).
EPISODES = {"steady": 6, "burst": 16, "churn": 24}

#: Host seconds one :func:`reference_chunk` takes at the nominal host speed that
#: ``sim_qps`` is quoted at.  A constant: changing it rescales every ``sim_qps``.
REFERENCE_CHUNK_S = 0.040

#: Reference work run after each episode, as a share of that episode's host time.
REFERENCE_SHARE = 0.1

MS_PER_HOUR = 3_600_000.0


def host_slowdown(seconds: float = 0.3) -> float:
    """The host's current pace: reference chunk time over its nominal time (1.0 = nominal)."""
    chunks = [reference_chunk()]
    while sum(chunks) < seconds:
        chunks.append(reference_chunk())
    return float(np.mean(chunks)) / REFERENCE_CHUNK_S


class CorrectnessError(RuntimeError):
    """An invariant violation or a non-deterministic simulated outcome."""


def episode_seed(seed: int, k: int) -> int:
    return 1000 * seed + k


_REFERENCE_KEYS = np.random.default_rng(0).random(20_000).tolist()


def reference_chunk() -> float:
    """Host seconds of one fixed chunk of interpreter work: a heap, a dict, small arrays.

    The chunk is the benchmark's own code, so no change to the program moves it;
    only the host's speed does.  Timed between episodes, it tracks how fast the
    host runs the simulator's kind of work at that moment.
    """
    arr = np.arange(64.0)
    heap: list = []
    index: Dict[int, float] = {}
    t0 = time.perf_counter()
    for i, key in enumerate(_REFERENCE_KEYS):
        heapq.heappush(heap, (key, i))
        index[i] = key
        if i % 8 == 0:
            arr = np.add(arr, 1.0) * 0.5
    while heap:
        index.pop(heapq.heappop(heap)[1])
    return time.perf_counter() - t0


def _latencies(report, fallback_model: str):
    """Per completed query: (query id, latency ms, QoS ms)."""
    metrics = report.metrics
    per_model = (
        metrics.per_model() if hasattr(metrics, "per_model") else {fallback_model: metrics}
    )
    for m in per_model.values():
        for rec in m.records:
            yield rec.query.query_id, rec.latency_ms, m.qos_ms


def outcome(result) -> Dict:
    """The simulated outcome of one episode (all deterministic per seed)."""
    spec, report = result.spec, result.report
    best: Dict[int, float] = {}
    met = set()
    for qid, latency, qos in _latencies(report, spec.streams[0].model_name):
        best[qid] = min(latency, best.get(qid, latency))
        if latency <= qos + 1e-9:
            met.add(qid)
    failed = (
        len(getattr(report, "shed_queries", ()))
        + len(getattr(report, "dead_letters", ()))
        + report.unserved_queries
    )
    ledger = getattr(report, "ledger", None)
    if ledger is not None:
        horizon = report.billing_horizon_ms
        cost, hours = ledger.total_cost(horizon), horizon / MS_PER_HOUR
    else:  # static loop: the configuration's price over the simulated span
        hours = report.simulated_duration_ms / MS_PER_HOUR
        cost = report.cluster.config.cost_per_hour() * hours
    return {
        "digest": result_digest(result),
        "offered": len(result.queries),
        "met": len(met),
        "failed": failed,
        "latencies": sorted(best.values()),
        "sim_s": report.simulated_duration_ms / 1000.0,
        "cost": cost,
        "hours": hours,
    }


def pooled(outcomes: List[Dict]) -> Dict[str, float]:
    """The run's simulated end-to-end metrics, pooled over its episodes."""
    offered = sum(o["offered"] for o in outcomes)
    met = sum(o["met"] for o in outcomes)
    latencies = np.concatenate([o["latencies"] for o in outcomes])
    return {
        "qos_attainment": met / offered,
        "goodput_qps": met / sum(o["sim_s"] for o in outcomes),
        "p50_latency_ms": float(np.percentile(latencies, 50)),
        "p99_latency_ms": float(np.percentile(latencies, 99)),
        "cost_per_hour": sum(o["cost"] for o in outcomes)
        / sum(o["hours"] for o in outcomes),
        "served_frac": 1.0 - sum(o["failed"] for o in outcomes) / offered,
        "offered": offered,
        "completed": len(latencies),
    }


class Bench:
    """A workload's episodes, generated once from the run's seed."""

    def __init__(
        self,
        workload: str,
        seed: int,
        episodes: Optional[int] = None,
        sim_s: Optional[float] = None,
    ) -> None:
        _registry()  # the shared profile registry every run uses
        n = EPISODES[workload] if episodes is None else episodes
        self.specs = [
            workloads.build(workload, episode_seed(seed, k), sim_s) for k in range(n)
        ]
        self.queries = [build_queries(spec) for spec in self.specs]

    def _pass(self, reference: bool = False) -> tuple:
        """Run every episode once: host seconds and outcome per episode, and the
        reference chunk times measured after each episode (when ``reference``)."""
        times, outcomes, chunks = [], [], []
        for spec, queries in zip(self.specs, self.queries):
            t0 = time.perf_counter()
            result = run_scenario(spec, queries, check=False)
            times.append(time.perf_counter() - t0)
            outcomes.append(outcome(result))
            if reference:  # at least one chunk, then up to a tenth of the episode's time
                spent = 0.0
                while not spent or spent < REFERENCE_SHARE * times[-1]:
                    chunks.append(reference_chunk())
                    spent += chunks[-1]
        return times, outcomes, chunks

    def check(self) -> Dict:
        """Untimed run of the first episode with every invariant evaluated."""
        result = run_scenario(self.specs[0], self.queries[0], check=True)
        if result.violations:
            raise CorrectnessError(
                f"{len(result.violations)} invariant violations, first: "
                f"{result.violations[0]}"
            )
        return outcome(result)

    def measure(self, seconds: float) -> Dict:
        """Invariant check, then as many timed passes as fit in ``seconds`` (at least one)."""
        reference = self.check()
        start = time.perf_counter()
        times: List[List[float]] = []
        slowdowns: List[float] = []
        first: Optional[List[Dict]] = None
        while True:
            pass_start = time.perf_counter()
            pass_times, outcomes, chunks = self._pass(reference=True)
            times.append(pass_times)
            slowdowns.append(float(np.mean(chunks)) / REFERENCE_CHUNK_S)
            if first is None:
                first = outcomes
                if outcomes[0] != reference:
                    raise CorrectnessError("episode 0 differs from its checked run")
            elif outcomes != first:
                raise CorrectnessError("simulated outcome differs between passes")
            now = time.perf_counter()
            if now + (now - pass_start) > start + seconds:
                break
        # Host seconds per episode, rescaled to the nominal host speed by the
        # pass's reference chunks (a slow host slows both alike), then the
        # median over passes.  ``sim_qps`` is the median episode's rate: an
        # episode where a query starves behind the policy's deferral (every
        # later event then runs a round that assigns nothing) costs several
        # times a typical one, so a pooled rate would mostly count how many
        # such episodes a seed happens to draw.
        raw = np.asarray(times)
        scaled = np.median(raw / np.asarray(slowdowns)[:, None], axis=0)
        offered = np.asarray([o["offered"] for o in first])
        metrics = pooled(first)
        metrics["sim_qps"] = float(np.median(offered / scaled))
        metrics["sim_qps_unscaled"] = float(np.median(offered / np.median(raw, axis=0)))
        metrics["host_slowdown"] = float(np.median(slowdowns))
        metrics["passes"] = len(times)
        metrics["episodes"] = len(self.specs)
        metrics["runs"] = len(times) * len(self.specs) + 1
        return metrics

    def trace(self, out: Path) -> Dict:
        """Untraced pass, then a traced pass; the per-layer ledger of the latter."""
        import ledger as ledger_lib

        plain_times, _, _ = self._pass()
        tracer = ledger_lib.Tracer()
        ledger_lib.install(tracer)
        traced_times, counts = [], []
        for spec, queries in zip(self.specs, self.queries):
            t0 = time.perf_counter()
            result = run_scenario(spec, queries, check=False)
            traced_times.append(time.perf_counter() - t0)
            counts.append(ledger_lib.episode_counts(result))
        tracer.save(out)
        metrics = ledger_lib.report(
            tracer, counts, wall_s=sum(traced_times), plain_wall_s=sum(plain_times)
        )
        metrics["runs"] = 2 * len(self.specs)
        return metrics
