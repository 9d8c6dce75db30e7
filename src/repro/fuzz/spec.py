"""Declarative scenario space: one JSON-serializable spec drives any serving loop.

A :class:`ScenarioSpec` composes everything that defines a fuzzable serving scenario —
arrival processes x load phases x model mixes x cluster shapes x spot markets x
preemption bursts x service noise x scripted provisioning — into a frozen, hashable,
JSON-round-trippable value.  ``repro.fuzz.runner.run_scenario`` materializes a spec
into the right simulator (static / elastic / multi-model / spot) and the hypothesis
strategies in ``repro.fuzz.strategies`` draw random specs, so the same object is at
once the fuzzer's search point, the shrunk counterexample the campaign serializes,
and the committed regression scenario CI replays.

Everything inside a spec is plain data (no live numpy generators, no profile
objects): determinism comes from the single ``seed`` field, from which the runner
derives every random stream it needs.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.cloud.instances import DEFAULT_INSTANCE_CATALOG

#: The five serving loops a spec can target (ROADMAP's simulator inventory).
LOOPS = ("static", "elastic", "multi_model", "spot", "pipeline")

#: Arrival-process names understood by :class:`StreamSpec`.
ARRIVALS = ("poisson", "deterministic", "bursty")

#: Phase shapes understood by :class:`PhaseSpec` (mirrors ``LoadPhase``'s constructors).
PHASE_SHAPES = ("step", "ramp", "spike", "diurnal")

#: Number of instance types in the (implicit) default catalog every spec refers to.
CATALOG_SIZE = len(DEFAULT_INSTANCE_CATALOG)


@dataclass(frozen=True)
class PhaseSpec:
    """One load phase: a shape, a base rate, and a duration.

    ``factor`` is the shape's single free parameter: the end/start rate ratio of a
    ramp, the burst multiplier of a spike, or the amplitude/mean ratio of a diurnal
    swing (clamped below 1 so the rate stays positive).  Steps ignore it.
    """

    shape: str = "step"
    rate_qps: float = 40.0
    duration_ms: float = 1_500.0
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.shape not in PHASE_SHAPES:
            raise ValueError(f"unknown phase shape {self.shape!r}; one of {PHASE_SHAPES}")
        if self.rate_qps <= 0:
            raise ValueError("rate_qps must be positive")
        if self.duration_ms <= 0:
            raise ValueError("duration_ms must be positive")
        if self.factor <= 0:
            raise ValueError("factor must be positive")

    def to_load_phase(self):
        """Materialize the corresponding :class:`~repro.workload.phases.LoadPhase`."""
        from repro.workload.phases import LoadPhase

        if self.shape == "step":
            return LoadPhase.step(self.rate_qps, self.duration_ms)
        if self.shape == "ramp":
            return LoadPhase.ramp(
                self.rate_qps, self.rate_qps * self.factor, self.duration_ms, segments=4
            )
        if self.shape == "spike":
            return LoadPhase.spike(
                self.rate_qps,
                self.duration_ms,
                spike_factor=max(1.0, self.factor),
                segments=6,
            )
        # diurnal: amplitude strictly below the mean keeps the rate positive
        amplitude = self.rate_qps * min(self.factor, 0.9)
        return LoadPhase.diurnal(self.rate_qps, amplitude, self.duration_ms, segments=6)

    @property
    def expected_queries(self) -> float:
        """Rough offered-query count of the phase (exact for steps)."""
        return self.rate_qps * self.duration_ms / 1000.0


@dataclass(frozen=True)
class StreamSpec:
    """One model's query stream: phases, batch-size mix, and arrival process."""

    model_name: str = "RM2"
    phases: Tuple[PhaseSpec, ...] = (PhaseSpec(),)
    batch_median: float = 80.0
    batch_sigma: float = 1.1
    arrival: str = "poisson"
    burst_size: int = 4

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("a stream needs at least one phase")
        if self.arrival not in ARRIVALS:
            raise ValueError(f"unknown arrival process {self.arrival!r}; one of {ARRIVALS}")
        if self.batch_median <= 0 or self.batch_sigma <= 0:
            raise ValueError("batch distribution parameters must be positive")
        if self.burst_size < 1:
            raise ValueError("burst_size must be >= 1")

    @property
    def duration_ms(self) -> float:
        return sum(p.duration_ms for p in self.phases)

    @property
    def expected_queries(self) -> float:
        return sum(p.expected_queries for p in self.phases)


@dataclass(frozen=True)
class ScaleEventSpec:
    """A scripted provisioning action at an absolute scenario time."""

    time_ms: float
    action: str  # "up" | "down"
    type_name: str = "g4dn.xlarge"
    count: int = 1
    market: str = "on-demand"

    def __post_init__(self) -> None:
        if self.time_ms < 0:
            raise ValueError("scale event time must be non-negative")
        if self.action not in ("up", "down"):
            raise ValueError(f"scale action must be 'up' or 'down', got {self.action!r}")
        if self.type_name not in DEFAULT_INSTANCE_CATALOG:
            raise ValueError(f"unknown instance type {self.type_name!r}")
        if self.count < 1:
            raise ValueError("scale event count must be >= 1")
        if self.market not in ("on-demand", "spot"):
            raise ValueError(f"unknown market {self.market!r}")


@dataclass(frozen=True)
class BurstSpec:
    """A scripted correlated preemption burst (spot loop only)."""

    time_ms: float
    count: int = 1
    type_name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.time_ms < 0:
            raise ValueError("burst time must be non-negative")
        if self.count < 1:
            raise ValueError("burst count must be >= 1")
        if self.type_name is not None and self.type_name not in DEFAULT_INSTANCE_CATALOG:
            raise ValueError(f"unknown instance type {self.type_name!r}")


@dataclass(frozen=True)
class SpotSpec:
    """The spot-market dimension: discount, hazard, grace window, spot fleet, bursts.

    ``spot_counts`` designates how many instances of each catalog type (catalog
    order, like ``HeterogeneousConfig.counts``) of the *initial* cluster are bought
    on the spot market; it must fit inside the scenario's config counts.
    """

    discount: float = 0.65
    preemptions_per_hour: float = 0.0
    warning_ms: float = 200.0
    spot_counts: Tuple[int, ...] = (0,) * CATALOG_SIZE
    bursts: Tuple[BurstSpec, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 < self.discount <= 1.0:
            raise ValueError("discount must be in (0, 1]")
        if self.preemptions_per_hour < 0:
            raise ValueError("preemptions_per_hour must be non-negative")
        if self.warning_ms < 0:
            raise ValueError("warning_ms must be non-negative")
        if len(self.spot_counts) != CATALOG_SIZE:
            raise ValueError(f"spot_counts must have {CATALOG_SIZE} entries")
        if any(c < 0 for c in self.spot_counts):
            raise ValueError("spot counts must be non-negative")


@dataclass(frozen=True)
class StormSpec:
    """A scripted correlated crash storm (unannounced; any elastic loop)."""

    time_ms: float
    count: int = 1
    type_name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.time_ms < 0:
            raise ValueError("storm time must be non-negative")
        if self.count < 1:
            raise ValueError("storm count must be >= 1")
        if self.type_name is not None and self.type_name not in DEFAULT_INSTANCE_CATALOG:
            raise ValueError(f"unknown instance type {self.type_name!r}")


@dataclass(frozen=True)
class FaultSpec:
    """The unplanned-failure dimension: crash hazards, slowdowns, scripted storms.

    Unlike :class:`SpotSpec` preemptions, these failures arrive with *no* warning
    window: in-flight work on the victim is voided.  ``auto_replace`` re-provisions
    a like-for-like replacement when no controller is attached.

    The ``degradations/flaky/zombies`` trio is the *gray-failure* dimension
    (servers that misbehave without dying): permanent degradation onsets,
    intermittent flaky latency windows, and zombie servers that accept work but
    never complete it.  All three draw from the dedicated gray RNG substream
    (``[seed, 606]``), and all-zero hazards draw nothing — byte-identity with a
    gray-free run.
    """

    failures_per_hour: float = 0.0
    slowdowns_per_hour: float = 0.0
    slowdown_factor: float = 2.0
    slowdown_duration_ms: float = 30_000.0
    degradations_per_hour: float = 0.0
    degradation_factor: float = 3.0
    flaky_per_hour: float = 0.0
    flaky_factor: float = 2.5
    flaky_duration_ms: float = 500.0
    zombies_per_hour: float = 0.0
    storms: Tuple[StormSpec, ...] = ()
    auto_replace: bool = True

    def __post_init__(self) -> None:
        if self.failures_per_hour < 0:
            raise ValueError("failures_per_hour must be non-negative")
        if self.slowdowns_per_hour < 0:
            raise ValueError("slowdowns_per_hour must be non-negative")
        if self.slowdown_factor < 1.0:
            raise ValueError("slowdown_factor must be >= 1")
        if self.slowdown_duration_ms <= 0:
            raise ValueError("slowdown_duration_ms must be positive")
        if self.degradations_per_hour < 0:
            raise ValueError("degradations_per_hour must be non-negative")
        if self.degradation_factor < 1.0:
            raise ValueError("degradation_factor must be >= 1")
        if self.flaky_per_hour < 0:
            raise ValueError("flaky_per_hour must be non-negative")
        if self.flaky_factor < 1.0:
            raise ValueError("flaky_factor must be >= 1")
        if self.flaky_duration_ms <= 0:
            raise ValueError("flaky_duration_ms must be positive")
        if self.zombies_per_hour < 0:
            raise ValueError("zombies_per_hour must be non-negative")

    @property
    def has_gray(self) -> bool:
        """True when any gray mode (degradation, flaky, zombie) can fire."""
        return (
            self.degradations_per_hour > 0.0
            or self.flaky_per_hour > 0.0
            or self.zombies_per_hour > 0.0
        )


@dataclass(frozen=True)
class RetrySpec:
    """The retry/timeout dimension: per-attempt deadlines and bounded backoff."""

    max_attempts: int = 3
    backoff_base_ms: float = 50.0
    backoff_factor: float = 2.0
    response_timeout_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base_ms < 0:
            raise ValueError("backoff_base_ms must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.response_timeout_ms is not None and self.response_timeout_ms <= 0:
            raise ValueError("response_timeout_ms must be positive")


@dataclass(frozen=True)
class AdmissionSpec:
    """The graceful-degradation dimension: adaptive concurrency + overload shedding."""

    target_latency_ms: float = 400.0
    initial_concurrency: int = 8
    min_concurrency: int = 1
    max_concurrency: int = 256
    shed_backlog_factor: float = 4.0
    smoothing: float = 0.3

    def __post_init__(self) -> None:
        if self.target_latency_ms <= 0:
            raise ValueError("target_latency_ms must be positive")
        if not 1 <= self.min_concurrency <= self.initial_concurrency <= self.max_concurrency:
            raise ValueError(
                "need 1 <= min_concurrency <= initial_concurrency <= max_concurrency"
            )
        if self.shed_backlog_factor < 1.0:
            raise ValueError("shed_backlog_factor must be >= 1")
        if not 0.0 < self.smoothing <= 1.0:
            raise ValueError("smoothing must lie in (0, 1]")


@dataclass(frozen=True)
class HealthSpec:
    """The gray-failure detection dimension: health scoring + quarantine breakers.

    A declarative twin of :class:`repro.sim.health.HealthConfig`: EWMA latency
    scoring against the per-type fleet baseline, phi-accrual overdue suspicion,
    and the circuit-breaker quarantine/probation lifecycle.
    """

    ewma_alpha: float = 0.3
    degrade_ratio: float = 2.0
    min_samples: int = 4
    suspicion_threshold: float = 1.0
    overdue_grace_factor: float = 3.0
    probation_ms: float = 10_000.0
    probation_backoff: float = 2.0
    probe_successes: int = 2

    def __post_init__(self) -> None:
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must lie in (0, 1]")
        if self.degrade_ratio <= 1.0:
            raise ValueError("degrade_ratio must be > 1")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if self.suspicion_threshold <= 0:
            raise ValueError("suspicion_threshold must be positive")
        if self.overdue_grace_factor <= 1.0:
            raise ValueError("overdue_grace_factor must be > 1")
        if self.probation_ms <= 0:
            raise ValueError("probation_ms must be positive")
        if self.probation_backoff < 1.0:
            raise ValueError("probation_backoff must be >= 1")
        if self.probe_successes < 1:
            raise ValueError("probe_successes must be >= 1")


@dataclass(frozen=True)
class HedgeSpec:
    """The hedged-dispatch dimension: tail-latency duplicate requests.

    A declarative twin of :class:`repro.sim.health.HedgePolicy`: an attempt
    outliving the per-type latency-quantile hedge delay is duplicated onto the
    best eligible idle server; first completion wins, the loser is cancelled
    with its partial work billed exactly.
    """

    quantile: float = 0.9
    delay_factor: float = 1.5
    min_samples: int = 8

    def __post_init__(self) -> None:
        if not 0.0 < self.quantile < 1.0:
            raise ValueError("quantile must lie in (0, 1)")
        if self.delay_factor <= 1.0:
            raise ValueError("delay_factor must be > 1")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")


@dataclass(frozen=True)
class StageSpec:
    """One pipeline stage: a named unit of work on one model's cluster partition."""

    name: str
    model_name: str = "RM2"
    batch_size: int = 32
    parents: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("stage name must be non-empty")
        if not self.model_name:
            raise ValueError("stage model_name must be non-empty")
        if self.batch_size < 1:
            raise ValueError("stage batch_size must be >= 1")
        object.__setattr__(self, "parents", tuple(self.parents))


@dataclass(frozen=True)
class PipelineSpec:
    """One DAG-structured inference request with an end-to-end deadline.

    A declarative twin of :class:`repro.pipeline.TaskGraph`: stages in declaration
    order, one deadline/value per graph, released into the stream at ``release_ms``.
    Construction validates by materializing the task graph, so every structural
    rule (acyclicity, single sink, known parents) holds for any spec that exists.
    """

    stages: Tuple[StageSpec, ...] = (StageSpec(name="s0"),)
    deadline_ms: float = 2_000.0
    value: float = 1.0
    release_ms: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "stages", tuple(self.stages))
        self.to_task_graph("spec-validate")  # raises on any structural violation

    def to_task_graph(self, graph_id: str):
        """Materialize the corresponding :class:`~repro.pipeline.TaskGraph`."""
        from repro.pipeline import TaskGraph, TaskStage

        return TaskGraph(
            graph_id=graph_id,
            stages=tuple(
                TaskStage(
                    name=s.name,
                    model_name=s.model_name,
                    batch_size=s.batch_size,
                    parents=s.parents,
                )
                for s in self.stages
            ),
            deadline_ms=self.deadline_ms,
            value=self.value,
            release_ms=self.release_ms,
        )

    @property
    def model_names(self) -> Tuple[str, ...]:
        return tuple(s.model_name for s in self.stages)


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete fuzzable serving scenario (see module docstring).

    Attributes
    ----------
    loop:
        Which serving loop runs the scenario (one of :data:`LOOPS`).
    streams:
        One :class:`StreamSpec` per model.  Single-model loops require exactly one;
        ``multi_model`` accepts one or more with distinct model names.
    config_counts:
        One instance-count vector (catalog order) per stream: the initial cluster
        partition serving that stream's model.
    seed:
        The single determinism root; the runner derives workload, service-noise,
        market, and controller generators from it.
    noise_std:
        Relative std of multiplicative Gaussian service noise (0 disables noise).
    online_learning:
        Use the online latency learner (True) or the perfect estimator (False).
    use_controller:
        Attach the re-planning elastic controller (elastic / spot loops only).
    budget_per_hour:
        The controller's base budget (also the reference budget for budget-driven
        invariant checks).
    scale_events / spot:
        Scripted provisioning actions (elastic / spot) and the spot-market dimension
        (spot loop only).
    faults / retry / admission:
        The chaos dimensions: unannounced failure injection (any elastic loop),
        bounded retry with response timeouts (any loop), and admission-controlled
        load shedding (any loop).
    health / hedge:
        The gray-resilience dimensions (elastic-family loops only): oracle-free
        server health scoring with quarantine circuit breakers, and hedged
        dispatch with exact cancellation accounting.  Zombie hazards require a
        recovery path — a health monitor or a retry response timeout.
    pipelines:
        DAG-structured inference requests (loop='pipeline' only): each
        :class:`PipelineSpec` is one task graph released on top of the streams'
        standalone queries, scheduled critical-path-aware against one
        end-to-end deadline.
    sharded_events:
        Drive the run off the sharded event/pending queues of
        :mod:`repro.sim.sharding`: the same single heap and admission order,
        with per-shard labels on top, so the run is byte-identical to the plain
        path at about the same cost.
    start_offset_ms:
        Shift the whole scenario — arrivals, scripted events, bursts, storms — to
        a non-zero time origin, as committed real-trace slices have.
    """

    loop: str = "static"
    streams: Tuple[StreamSpec, ...] = (StreamSpec(),)
    config_counts: Tuple[Tuple[int, ...], ...] = ((1, 1, 2, 0),)
    seed: int = 0
    noise_std: float = 0.0
    online_learning: bool = False
    use_controller: bool = False
    budget_per_hour: float = 2.5
    startup_delay_ms: float = 400.0
    warmup_queries: int = 0
    max_queries_per_round: Optional[int] = 64
    sharded: bool = False
    sharded_events: bool = False
    start_offset_ms: float = 0.0
    scale_events: Tuple[ScaleEventSpec, ...] = ()
    spot: Optional[SpotSpec] = None
    faults: Optional[FaultSpec] = None
    retry: Optional[RetrySpec] = None
    admission: Optional[AdmissionSpec] = None
    health: Optional[HealthSpec] = None
    hedge: Optional[HedgeSpec] = None
    pipelines: Tuple[PipelineSpec, ...] = ()
    label: str = ""

    def __post_init__(self) -> None:
        if self.loop not in LOOPS:
            raise ValueError(f"unknown loop {self.loop!r}; one of {LOOPS}")
        if not self.streams:
            raise ValueError("a scenario needs at least one stream")
        if self.loop not in ("multi_model", "pipeline") and len(self.streams) != 1:
            raise ValueError(f"loop {self.loop!r} serves exactly one stream")
        names = [s.model_name for s in self.streams]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate model names in streams: {names}")
        if len(self.config_counts) != len(self.streams):
            raise ValueError("config_counts must have one vector per stream")
        for counts in self.config_counts:
            if len(counts) != CATALOG_SIZE:
                raise ValueError(f"config vectors must have {CATALOG_SIZE} entries")
            if any(c < 0 for c in counts):
                raise ValueError("instance counts must be non-negative")
            if sum(counts) < 1:
                raise ValueError("every stream needs at least one instance")
        if self.noise_std < 0:
            raise ValueError("noise_std must be non-negative")
        if self.budget_per_hour <= 0:
            raise ValueError("budget_per_hour must be positive")
        if self.startup_delay_ms < 0:
            raise ValueError("startup_delay_ms must be non-negative")
        if self.warmup_queries < 0:
            raise ValueError("warmup_queries must be non-negative")
        if self.max_queries_per_round is not None and self.max_queries_per_round < 1:
            raise ValueError("max_queries_per_round must be >= 1 or None")
        if self.sharded and self.loop not in ("multi_model", "pipeline"):
            raise ValueError("sharded dispatch is a multi-model policy mode")
        if self.start_offset_ms < 0:
            raise ValueError("start_offset_ms must be non-negative")
        if self.spot is not None and self.loop != "spot":
            raise ValueError("a SpotSpec is only legal with loop='spot'")
        if self.scale_events and self.loop not in ("elastic", "spot"):
            raise ValueError("scripted scale events require the elastic or spot loop")
        if self.use_controller and self.loop not in ("elastic", "spot"):
            raise ValueError("the controller attaches to the elastic or spot loop")
        if self.faults is not None and self.loop == "static":
            raise ValueError(
                "fault injection needs an elastic loop (crashed capacity must be "
                "re-provisionable); use loop='elastic', 'spot', or 'multi_model'"
            )
        if (self.health is not None or self.hedge is not None) and self.loop == "static":
            raise ValueError(
                "health monitoring and hedged dispatch need an elastic loop "
                "(quarantined capacity must be replaceable); use loop='elastic', "
                "'spot', 'multi_model', or 'pipeline'"
            )
        if (
            self.faults is not None
            and self.faults.zombies_per_hour > 0.0
            and self.health is None
            and (self.retry is None or self.retry.response_timeout_ms is None)
        ):
            raise ValueError(
                "zombie hazards need a recovery path: attach a HealthSpec or a "
                "RetrySpec with response_timeout_ms, else zombie-held queries "
                "hang forever"
            )
        if self.pipelines and self.loop != "pipeline":
            raise ValueError("pipelines are only legal with loop='pipeline'")
        if self.loop == "pipeline" and not self.pipelines:
            raise ValueError("loop='pipeline' needs at least one PipelineSpec")
        if self.pipelines:
            served = set(s.model_name for s in self.streams)
            for pipe in self.pipelines:
                for name in pipe.model_names:
                    if name not in served:
                        raise ValueError(
                            f"pipeline stage targets model {name!r} with no stream "
                            f"(served models: {sorted(served)})"
                        )
        if self.spot is not None:
            for spot_c, conf_c in zip(self.spot.spot_counts, self.config_counts[0]):
                if spot_c > conf_c:
                    raise ValueError(
                        f"spot counts {self.spot.spot_counts} exceed the cluster "
                        f"config {self.config_counts[0]}"
                    )

    # -- derived views -------------------------------------------------------------------
    @property
    def model_names(self) -> Tuple[str, ...]:
        return tuple(s.model_name for s in self.streams)

    @property
    def duration_ms(self) -> float:
        return max(s.duration_ms for s in self.streams)

    @property
    def expected_queries(self) -> float:
        return sum(s.expected_queries for s in self.streams)

    def with_loop(self, loop: str, **overrides) -> "ScenarioSpec":
        """Copy retargeted at another serving loop (used by identity invariants)."""
        return replace(self, loop=loop, **overrides)

    def without_spot(self) -> "ScenarioSpec":
        """The spot-disabled twin: same workload and seeds through the elastic loop."""
        return replace(self, loop="elastic", spot=None, scale_events=tuple(
            e for e in self.scale_events if e.market == "on-demand"
        ))

    def without_chaos(self) -> "ScenarioSpec":
        """The chaos-disabled twin: same workload with every chaos dimension off."""
        return replace(
            self, faults=None, retry=None, admission=None, health=None, hedge=None
        )

    def without_gray(self) -> "ScenarioSpec":
        """The gray-disabled twin: crashes/slowdowns kept, gray modes zeroed.

        Drops the health and hedge layers and zeroes the gray hazards while
        keeping the classic crash/slowdown dimensions — the byte-identity
        reference for the gray no-draw contract.
        """
        faults = self.faults
        if faults is not None:
            faults = replace(
                faults,
                degradations_per_hour=0.0,
                flaky_per_hour=0.0,
                zombies_per_hour=0.0,
            )
        return replace(self, faults=faults, health=None, hedge=None)

    def without_pipelines(self) -> "ScenarioSpec":
        """The graph-free twin: same streams through the plain multi-model loop."""
        return replace(self, loop="multi_model", pipelines=())

    # -- JSON round trip -----------------------------------------------------------------
    def to_dict(self) -> Dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "ScenarioSpec":
        data = dict(data)
        data["streams"] = tuple(
            StreamSpec(
                model_name=s["model_name"],
                phases=tuple(PhaseSpec(**p) for p in s["phases"]),
                batch_median=s["batch_median"],
                batch_sigma=s["batch_sigma"],
                arrival=s["arrival"],
                burst_size=s["burst_size"],
            )
            for s in data["streams"]
        )
        data["config_counts"] = tuple(tuple(c) for c in data["config_counts"])
        data["scale_events"] = tuple(
            ScaleEventSpec(**e) for e in data.get("scale_events", ())
        )
        spot = data.get("spot")
        if spot is not None:
            data["spot"] = SpotSpec(
                discount=spot["discount"],
                preemptions_per_hour=spot["preemptions_per_hour"],
                warning_ms=spot["warning_ms"],
                spot_counts=tuple(spot["spot_counts"]),
                bursts=tuple(BurstSpec(**b) for b in spot.get("bursts", ())),
            )
        faults = data.get("faults")
        if faults is not None:
            faults = dict(faults)
            faults["storms"] = tuple(StormSpec(**s) for s in faults.get("storms", ()))
            data["faults"] = FaultSpec(**faults)
        retry = data.get("retry")
        if retry is not None:
            data["retry"] = RetrySpec(**retry)
        admission = data.get("admission")
        if admission is not None:
            data["admission"] = AdmissionSpec(**admission)
        health = data.get("health")
        if health is not None:
            data["health"] = HealthSpec(**health)
        hedge = data.get("hedge")
        if hedge is not None:
            data["hedge"] = HedgeSpec(**hedge)
        data["pipelines"] = tuple(
            PipelineSpec(
                stages=tuple(
                    StageSpec(
                        name=s["name"],
                        model_name=s["model_name"],
                        batch_size=s["batch_size"],
                        parents=tuple(s["parents"]),
                    )
                    for s in p["stages"]
                ),
                deadline_ms=p["deadline_ms"],
                value=p["value"],
                release_ms=p["release_ms"],
            )
            for p in data.get("pipelines", ())
        )
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ScenarioSpec":
        return cls.from_json(Path(path).read_text())
