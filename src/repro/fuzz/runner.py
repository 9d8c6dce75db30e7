"""Materialize a :class:`ScenarioSpec` into a simulator run and record what happened.

``run_scenario`` is the single entry point the fuzzer, the property tests, the
regression replayer, and the CLI all share: spec in, :class:`ScenarioResult` out.
The result bundles the simulator report together with an event-loop recording
(every scheduling round and every completion, captured by wrapping the policy in a
:class:`RecordingPolicy`) that the invariant library inspects, plus a canonical
``result_digest`` used by the byte-identity and hash-seed-independence invariants.

Run as a module (``python -m repro.fuzz.runner spec.json``) it prints the digest of
one scenario — the subprocess primitive behind the PYTHONHASHSEED-independence check.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cloud.config import HeterogeneousConfig
from repro.cloud.instances import DEFAULT_INSTANCE_CATALOG
from repro.cloud.models import get_model
from repro.cloud.profiles import default_profile_registry
from repro.cloud.spot import SpotMarket
from repro.core.controller import ElasticKairosController
from repro.fuzz.spec import ScenarioSpec, StreamSpec
from repro.pipeline import (
    CriticalPathKairosPolicy,
    PipelineCoordinator,
    PipelineServingSimulation,
    realize_graphs,
)
from repro.schedulers.kairos_policy import KairosPolicy, MultiModelKairosPolicy
from repro.sim.cluster import Cluster, MultiModelCluster
from repro.sim.elasticity import ElasticServingSimulation
from repro.sim.events import CrashStorm, Event, EventKind, PreemptionBurst, ScaleRequest
from repro.sim.faults import AdmissionController, FaultInjector, RetryPolicy
from repro.sim.health import HealthConfig, HedgePolicy
from repro.sim.multi_model import MultiModelServingSimulation
from repro.sim.preemption import PreemptibleElasticSimulation, initial_spot_server_ids
from repro.sim.simulation import ServingSimulation, gaussian_service_noise
from repro.workload.arrivals import (
    BurstyArrivalProcess,
    DeterministicArrivalProcess,
    PoissonArrivalProcess,
)
from repro.workload.batch_sizes import TruncatedLogNormalBatchSizes
from repro.workload.generator import WorkloadSpec, interleave_model_streams
from repro.workload.phases import PhasedTrace
from repro.workload.query import Query


@lru_cache(maxsize=1)
def _registry():
    """One shared profile registry per process (building it is the expensive step)."""
    return default_profile_registry()


# ---------------------------------------------------------------------------------------
# Event-loop recording
# ---------------------------------------------------------------------------------------

@dataclass(frozen=True)
class SchedulingRound:
    """One observed call into the policy's ``schedule``."""

    time_ms: float
    assigned_ids: Tuple[int, ...]


class RecordingPolicy:
    """Transparent policy wrapper: the invariant checker's hook into the event loop.

    Forwards every call to the wrapped policy unchanged while recording (a) each
    scheduling round's time and assignments, and (b) every completion
    the simulator reports.  In the preemption loop, killed dispatches are voided
    *before* ``observe_completion`` fires, so the recorded completion stream is
    exactly the set of services that actually stood — which is what the conservation
    invariants must reason about.
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.rounds: List[SchedulingRound] = []
        self.completions: List = []

    @property
    def name(self) -> str:
        return getattr(self.inner, "name", type(self.inner).__name__)

    def bind(self, *args, **kwargs):
        bind = getattr(self.inner, "bind", None)
        if bind is not None:
            return bind(*args, **kwargs)
        return None

    def schedule(self, now, pending, view):
        assignments = self.inner.schedule(now, pending, view)
        self.rounds.append(
            SchedulingRound(float(now), tuple(q.query_id for q, _ in assignments))
        )
        return assignments

    def observe_completion(self, record):
        self.completions.append(record)
        observe = getattr(self.inner, "observe_completion", None)
        if observe is not None:
            return observe(record)
        return None

    def __getattr__(self, item):
        return getattr(self.inner, item)


@dataclass
class ScenarioResult:
    """Everything one scenario run produced, ready for invariant evaluation."""

    spec: ScenarioSpec
    queries: Tuple[Query, ...]
    report: object
    rounds: Tuple[SchedulingRound, ...]
    completions: Tuple[object, ...]
    controller: Optional[ElasticKairosController] = None
    coordinator: Optional[PipelineCoordinator] = None
    graph_outcomes: Tuple[object, ...] = ()
    violations: List = field(default_factory=list)

    @property
    def ledger(self):
        return getattr(self.report, "ledger", None)

    @property
    def ok(self) -> bool:
        return not self.violations


# ---------------------------------------------------------------------------------------
# Spec -> workload
# ---------------------------------------------------------------------------------------

def _arrival_process(stream: StreamSpec):
    if stream.arrival == "poisson":
        return PoissonArrivalProcess()
    if stream.arrival == "deterministic":
        return DeterministicArrivalProcess()
    return BurstyArrivalProcess(burst_size=stream.burst_size)


def _stream_rng(spec: ScenarioSpec, index: int) -> np.random.Generator:
    return np.random.default_rng([spec.seed, index])


def build_queries(spec: ScenarioSpec) -> List[Query]:
    """Generate the spec's full query stream, deterministically from ``spec.seed``."""
    streams: Dict[str, Sequence[Query]] = {}
    for i, stream in enumerate(spec.streams):
        wspec = WorkloadSpec(
            batch_sizes=TruncatedLogNormalBatchSizes(
                median=stream.batch_median, sigma=stream.batch_sigma
            ),
            arrivals=_arrival_process(stream),
        )
        trace = PhasedTrace([p.to_load_phase() for p in stream.phases], wspec)
        streams[stream.model_name] = trace.generate(_stream_rng(spec, i)).queries
    if spec.loop in ("multi_model", "pipeline"):
        queries = interleave_model_streams(streams)
    else:
        queries = list(next(iter(streams.values())))
    if spec.start_offset_ms:
        # Shift the whole stream to the spec's time origin.  The generators always
        # emit from t=0; the offset is applied after interleaving so the relative
        # structure (and the per-stream RNG draws) are untouched.
        queries = [
            replace(q, arrival_time_ms=q.arrival_time_ms + spec.start_offset_ms)
            for q in queries
        ]
    return queries


# ---------------------------------------------------------------------------------------
# Spec -> simulator
# ---------------------------------------------------------------------------------------

def _noise(spec: ScenarioSpec):
    return gaussian_service_noise(spec.noise_std) if spec.noise_std > 0 else None


def _service_rng(spec: ScenarioSpec) -> np.random.Generator:
    return np.random.default_rng([spec.seed, 101])


def _policy_kwargs(spec: ScenarioSpec) -> Dict:
    kwargs: Dict = {"use_perfect_estimator": not spec.online_learning}
    if spec.max_queries_per_round is not None:
        kwargs["max_queries_per_round"] = spec.max_queries_per_round
    return kwargs


def _single_model_policy(spec: ScenarioSpec) -> RecordingPolicy:
    return RecordingPolicy(KairosPolicy(**_policy_kwargs(spec)))


def _scripted_events(spec: ScenarioSpec) -> List[Event]:
    # Scripted times are spec-relative; the offset moves them with the arrivals so
    # an offset twin is the same scenario played at a different time origin.
    offset = spec.start_offset_ms
    events = [
        Event(
            e.time_ms + offset,
            EventKind.SCALE_UP if e.action == "up" else EventKind.SCALE_DOWN,
            ScaleRequest(e.type_name, e.count, reason="scripted", market=e.market),
        )
        for e in spec.scale_events
    ]
    if spec.spot is not None:
        events.extend(
            Event(
                b.time_ms + offset,
                EventKind.PREEMPTION_WARNING,
                PreemptionBurst(b.count, type_name=b.type_name),
            )
            for b in spec.spot.bursts
        )
    if spec.faults is not None:
        events.extend(
            Event(
                s.time_ms + offset,
                EventKind.INSTANCE_FAILED,
                CrashStorm(s.count, type_name=s.type_name),
            )
            for s in spec.faults.storms
        )
    return sorted(events, key=lambda e: e.time_ms)


def _chaos_kwargs(spec: ScenarioSpec) -> Dict:
    """The fault/retry/admission/gray knobs shared by the elastic-family simulators."""
    kwargs: Dict = {}
    if spec.faults is not None:
        f = spec.faults
        kwargs["faults"] = FaultInjector.uniform(
            DEFAULT_INSTANCE_CATALOG,
            failures_per_hour=f.failures_per_hour,
            slowdowns_per_hour=f.slowdowns_per_hour,
            slowdown_factor=f.slowdown_factor,
            slowdown_duration_ms=f.slowdown_duration_ms,
            degradations_per_hour=f.degradations_per_hour,
            degradation_factor=f.degradation_factor,
            flaky_per_hour=f.flaky_per_hour,
            flaky_factor=f.flaky_factor,
            flaky_duration_ms=f.flaky_duration_ms,
            zombies_per_hour=f.zombies_per_hour,
            auto_replace=f.auto_replace,
        )
        kwargs["fault_rng"] = np.random.default_rng([spec.seed, 505])
        # The gray substream is only materialized alongside a fault injector: a
        # gray-free spec builds neither, keeping the constructor byte-identical.
        kwargs["gray_rng"] = np.random.default_rng([spec.seed, 606])
    if spec.health is not None:
        h = spec.health
        kwargs["health"] = HealthConfig(
            ewma_alpha=h.ewma_alpha,
            degrade_ratio=h.degrade_ratio,
            min_samples=h.min_samples,
            suspicion_threshold=h.suspicion_threshold,
            overdue_grace_factor=h.overdue_grace_factor,
            probation_ms=h.probation_ms,
            probation_backoff=h.probation_backoff,
            probe_successes=h.probe_successes,
        )
    if spec.hedge is not None:
        g = spec.hedge
        kwargs["hedge"] = HedgePolicy(
            quantile=g.quantile,
            delay_factor=g.delay_factor,
            min_samples=g.min_samples,
        )
    kwargs.update(_degradation_kwargs(spec))
    return kwargs


def _degradation_kwargs(spec: ScenarioSpec) -> Dict:
    """Retry/admission knobs (legal on every loop, including static)."""
    kwargs: Dict = {}
    if spec.retry is not None:
        r = spec.retry
        kwargs["retry"] = RetryPolicy(
            max_attempts=r.max_attempts,
            backoff_base_ms=r.backoff_base_ms,
            backoff_factor=r.backoff_factor,
            response_timeout_ms=r.response_timeout_ms,
        )
    if spec.admission is not None:
        a = spec.admission
        kwargs["admission"] = AdmissionController(
            target_latency_ms=a.target_latency_ms,
            initial_concurrency=a.initial_concurrency,
            min_concurrency=a.min_concurrency,
            max_concurrency=a.max_concurrency,
            shed_backlog_factor=a.shed_backlog_factor,
            smoothing=a.smoothing,
        )
    return kwargs


def _controller(spec: ScenarioSpec, model, registry) -> Optional[ElasticKairosController]:
    if not spec.use_controller:
        return None
    stream = spec.streams[0]
    controller = ElasticKairosController(
        model,
        spec.budget_per_hour,
        stream.phases[0].rate_qps,
        profiles=registry,
        batch_distribution=TruncatedLogNormalBatchSizes(
            median=stream.batch_median, sigma=stream.batch_sigma
        ),
        window_ms=max(1_000.0, spec.duration_ms / 4.0),
        cooldown_ms=max(2_000.0, spec.duration_ms / 2.0),
        min_observations=20,
        rng=np.random.default_rng([spec.seed, 303]),
    )
    monitor = TruncatedLogNormalBatchSizes(
        median=stream.batch_median, sigma=stream.batch_sigma
    ).sample(256, np.random.default_rng([spec.seed, 404]))
    controller.prime_monitor([int(b) for b in monitor])
    controller.initial_plan()
    return controller


def run_scenario(
    spec: ScenarioSpec,
    queries: Optional[Sequence[Query]] = None,
    *,
    check: bool = True,
) -> ScenarioResult:
    """Run one scenario through its serving loop; optionally evaluate per-run invariants.

    ``queries`` overrides the generated workload — this is how ingested trace files
    (:mod:`repro.workload.trace_io`) replay through any of the serving loops.
    """
    registry = _registry()
    run_queries = list(queries) if queries is not None else build_queries(spec)
    controller = None

    if spec.loop == "static":
        model = get_model(spec.streams[0].model_name)
        cluster = Cluster(
            HeterogeneousConfig(tuple(spec.config_counts[0])), model, registry
        )
        policy = _single_model_policy(spec)
        sim = ServingSimulation(
            cluster,
            policy,
            noise=_noise(spec),
            rng=_service_rng(spec),
            warmup_queries=spec.warmup_queries,
            sharded_events=spec.sharded_events,
            **_degradation_kwargs(spec),
        )
        report = sim.run(run_queries)
    elif spec.loop in ("elastic", "spot"):
        model = get_model(spec.streams[0].model_name)
        cluster = Cluster(
            HeterogeneousConfig(tuple(spec.config_counts[0])), model, registry
        )
        policy = _single_model_policy(spec)
        controller = _controller(spec, model, registry)
        common = dict(
            controller=controller,
            startup_delay_ms=spec.startup_delay_ms,
            noise=_noise(spec),
            rng=_service_rng(spec),
            warmup_queries=spec.warmup_queries,
            scripted_events=_scripted_events(spec),
            sharded_events=spec.sharded_events,
            **_chaos_kwargs(spec),
        )
        if spec.loop == "elastic":
            sim = ElasticServingSimulation(cluster, policy, **common)
        else:
            spot = spec.spot
            market = None
            spot_ids: Sequence[int] = ()
            if spot is not None:
                market = SpotMarket.uniform(
                    DEFAULT_INSTANCE_CATALOG,
                    discount=spot.discount,
                    preemptions_per_hour=spot.preemptions_per_hour,
                    warning_ms=spot.warning_ms,
                )
                spot_ids = initial_spot_server_ids(
                    cluster, HeterogeneousConfig(tuple(spot.spot_counts))
                )
            sim = PreemptibleElasticSimulation(
                cluster,
                policy,
                market=market,
                spot_server_ids=spot_ids,
                market_rng=np.random.default_rng([spec.seed, 202]),
                **common,
            )
        report = sim.run(run_queries)
    else:  # multi_model / pipeline
        configs = {
            stream.model_name: HeterogeneousConfig(tuple(counts))
            for stream, counts in zip(spec.streams, spec.config_counts)
        }
        cluster = MultiModelCluster(configs, registry)
        common = dict(
            startup_delay_ms=spec.startup_delay_ms,
            noise=_noise(spec),
            rng=_service_rng(spec),
            warmup_queries=spec.warmup_queries,
            scripted_events=_scripted_events(spec),
            sharded_events=spec.sharded_events,
            **_chaos_kwargs(spec),
        )
        if spec.loop == "pipeline":
            # Graph releases are spec-relative like scripted events: the offset
            # moves them with the arrivals.  Stage query ids are allocated after
            # the stream's so the two id spaces never collide.
            graphs = [
                replace(p, release_ms=p.release_ms + spec.start_offset_ms).to_task_graph(
                    f"g{i}"
                )
                for i, p in enumerate(spec.pipelines)
            ]
            sources, coordinator = realize_graphs(
                graphs, 1 + max((q.query_id for q in run_queries), default=0)
            )
            policy = RecordingPolicy(
                CriticalPathKairosPolicy(
                    coordinator, sharded=spec.sharded, **_policy_kwargs(spec)
                )
            )
            sim = PipelineServingSimulation(
                cluster, policy, coordinator=coordinator, **common
            )
            run_queries = sorted(
                list(run_queries) + sources, key=lambda q: q.arrival_time_ms
            )
        else:
            coordinator = None
            policy = RecordingPolicy(
                MultiModelKairosPolicy(sharded=spec.sharded, **_policy_kwargs(spec))
            )
            sim = MultiModelServingSimulation(cluster, policy, **common)
        report = sim.run(run_queries)
        if spec.loop == "pipeline":
            run_queries = list(run_queries) + list(sim.released_queries)

    result = ScenarioResult(
        spec=spec,
        queries=tuple(run_queries),
        report=report,
        rounds=tuple(policy.rounds),
        completions=tuple(policy.completions),
        controller=controller,
        coordinator=coordinator if spec.loop == "pipeline" else None,
        graph_outcomes=tuple(getattr(sim, "graph_outcomes", ())),
    )
    if check:
        from repro.fuzz.invariants import check_run

        result.violations = check_run(result)
    return result


# ---------------------------------------------------------------------------------------
# Canonical digests
# ---------------------------------------------------------------------------------------

def result_digest(result: ScenarioResult, *, include_billing: bool = True) -> str:
    """A canonical sha256 over everything observable about a run.

    With ``include_billing=False`` the digest covers only the service stream
    (completions + dispatch counts), which is the part that must survive re-pricing
    — e.g. a zero-hazard spot market changes interval prices but no service outcome.
    Every float is rendered with ``repr`` so the digest is exact, and nothing
    iterates an unordered container, so the digest is PYTHONHASHSEED-independent
    *if the simulators are* (which is precisely what the invariant checks).
    """
    h = hashlib.sha256()

    def line(*parts) -> None:
        h.update("|".join(str(p) for p in parts).encode())
        h.update(b"\n")

    report = result.report
    line("policy", report.policy_name)
    line("counts", report.scheduling_rounds, report.dispatched_queries, report.total_queries)
    line("duration", repr(report.simulated_duration_ms))
    for rec in result.completions:
        q = rec.query
        line(
            "done",
            q.query_id,
            q.batch_size,
            repr(q.arrival_time_ms),
            q.model_name or "",
            rec.server_id,
            rec.server_type,
            repr(rec.start_ms),
            repr(rec.completion_ms),
            repr(rec.service_ms),
        )
    # Chaos outcomes: emitted only when present, so digests of fault-free runs are
    # byte-identical to what they hashed to before the chaos subsystem existed.
    for entry in getattr(report, "shed_queries", ()):
        line("shed", entry.query.query_id, repr(entry.time_ms), entry.reason)
    for entry in getattr(report, "dead_letters", ()):
        line(
            "dead",
            entry.query.query_id,
            repr(entry.time_ms),
            entry.reason,
            entry.attempts,
        )
    retries = getattr(report, "retries", 0)
    if retries:
        line("retries", retries)
    # Gray outcomes: emitted only when the hedge layer actually fired, so digests
    # of hedge-free runs are byte-identical to pre-gray digests.
    hedges_launched = getattr(report, "hedges_launched", 0)
    if hedges_launched:
        line(
            "hedges",
            hedges_launched,
            getattr(report, "hedges_cancelled", 0),
            getattr(report, "hedge_wins", 0),
        )
    # Task-graph outcomes: emitted only when graphs ran, so graph-free digests are
    # byte-identical to what they hashed to before the pipeline subsystem existed.
    for outcome in result.graph_outcomes:
        line(
            "graph",
            outcome.graph_id,
            outcome.outcome,
            int(outcome.deadline_met),
            repr(outcome.end_ms),
            repr(outcome.e2e_latency_ms),
            repr(outcome.critical_path_ms),
            repr(outcome.realized_span_ms),
        )
    if include_billing:
        ledger = result.ledger
        if ledger is not None:
            line("horizon", repr(getattr(report, "billing_horizon_ms", 0.0)))
            for iv in ledger.intervals:
                parts = [
                    "bill",
                    iv.server_id,
                    iv.type_name,
                    repr(iv.start_ms),
                    repr(iv.end_ms),
                    iv.tag or "",
                    iv.market,
                    repr(iv.price_multiplier),
                ]
                if getattr(iv, "failed", False):
                    parts.append("failed")
                line(*parts)
            # Attribution spans exist only when quarantine/hedging ran: absent,
            # the billing digest is byte-identical to pre-gray digests.
            for span in getattr(ledger, "spans", ()):
                line(
                    "span",
                    span.server_id,
                    span.kind,
                    repr(span.start_ms),
                    repr(span.end_ms),
                )
        for entry in getattr(report, "scale_log", ()):
            line(
                "scale",
                repr(entry.time_ms),
                entry.kind,
                entry.type_name,
                entry.count,
                entry.reason,
            )
    return h.hexdigest()


def digest_spec(spec: ScenarioSpec, *, include_billing: bool = True) -> str:
    """Run a spec (invariant checks off) and return its digest."""
    return result_digest(run_scenario(spec, check=False), include_billing=include_billing)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.fuzz.runner spec.json`` — print the run digest and exit."""
    args = list(sys.argv[1:] if argv is None else argv)
    if not args:
        print("usage: python -m repro.fuzz.runner <spec.json> [--no-billing]", file=sys.stderr)
        return 2
    include_billing = "--no-billing" not in args
    path = [a for a in args if not a.startswith("--")][0]
    spec = ScenarioSpec.load(path)
    print(digest_spec(spec, include_billing=include_billing))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
