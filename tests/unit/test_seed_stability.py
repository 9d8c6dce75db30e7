"""Seed-stability regression: serving runs are byte-identical per seed.

The elasticity subsystem added event kinds and cluster-membership machinery; this
suite locks down that the *static* serving path still produces bit-for-bit identical
``ServingMetrics`` for a fixed seed, run after run — including under service noise,
where the RNG draw sequence is part of the contract.  The multi-model subsystem adds
a co-located elastic scenario with the same guarantee per model, and the spot-market
subsystem a preemption scenario (hazard draws, a forced burst, re-queues, and
reactive re-provisioning) with the same byte-identity guarantee for metrics, scale
logs, and per-market billing.  The pipeline subsystem pins a burst-shaped and a
fig20-shaped task-graph run, records and per-graph outcomes.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro

from repro.cloud.config import HeterogeneousConfig
from repro.cloud.spot import SpotMarket
from repro.schedulers.kairos_policy import KairosPolicy, MultiModelKairosPolicy
from repro.sim.cluster import Cluster, MultiModelCluster
from repro.sim.events import Event, EventKind, PreemptionBurst, ScaleRequest
from repro.sim.multi_model import MultiModelServingSimulation
from repro.sim.preemption import PreemptibleElasticSimulation
from repro.sim.simulation import gaussian_service_noise, simulate_serving
from repro.workload.generator import (
    WorkloadGenerator,
    WorkloadSpec,
    interleave_model_streams,
)
from repro.workload.batch_sizes import TruncatedLogNormalBatchSizes

SEED = 20230627


def _record_tuple(record):
    """Every field that feeds metrics, as an exact (not approximate) tuple."""
    return (
        record.query.query_id,
        record.query.batch_size,
        record.query.arrival_time_ms,
        record.server_id,
        record.server_type,
        record.start_ms,
        record.completion_ms,
        record.service_ms,
    )


def _run(small_config, rm2, profiles, *, noise=None):
    spec = WorkloadSpec(
        batch_sizes=TruncatedLogNormalBatchSizes(median=80, sigma=1.1),
        num_queries=150,
    )
    queries = WorkloadGenerator(spec).generate(rate_qps=40.0, rng=SEED)
    return simulate_serving(
        small_config,
        rm2,
        profiles,
        KairosPolicy(),
        queries,
        noise=noise,
        rng=np.random.default_rng(SEED + 1),
    )


class TestSeedStability:
    def test_metrics_byte_identical_across_runs(self, small_config, rm2, profiles):
        first = _run(small_config, rm2, profiles)
        second = _run(small_config, rm2, profiles)
        r1 = [_record_tuple(r) for r in first.metrics.records]
        r2 = [_record_tuple(r) for r in second.metrics.records]
        assert r1 == r2  # exact float equality, not approx
        assert repr(first.metrics.summary()) == repr(second.metrics.summary())
        assert first.summary() == second.summary()

    def test_metrics_byte_identical_with_noise(self, small_config, rm2, profiles):
        noise = gaussian_service_noise(0.05)
        first = _run(small_config, rm2, profiles, noise=noise)
        second = _run(small_config, rm2, profiles, noise=noise)
        r1 = [_record_tuple(r) for r in first.metrics.records]
        r2 = [_record_tuple(r) for r in second.metrics.records]
        assert r1 == r2
        assert repr(first.metrics.summary()) == repr(second.metrics.summary())

    def test_different_seed_actually_changes_the_run(self, small_config, rm2, profiles):
        # guards against the stability assertions passing vacuously (e.g. a constant
        # workload that ignores the seed)
        spec = WorkloadSpec(
            batch_sizes=TruncatedLogNormalBatchSizes(median=80, sigma=1.1),
            num_queries=150,
        )
        a = WorkloadGenerator(spec).generate(rate_qps=40.0, rng=SEED)
        b = WorkloadGenerator(spec).generate(rate_qps=40.0, rng=SEED + 99)
        assert [q.arrival_time_ms for q in a] != [q.arrival_time_ms for q in b]


def _mm_elastic_run(profiles, catalog, *, noise=None, rates=(30.0, 110.0), policy=None):
    """A 2-model co-located elastic scenario: scripted per-model scale events."""
    cluster = MultiModelCluster(
        {
            "RM2": HeterogeneousConfig((1, 1, 2, 0), catalog),
            "WND": HeterogeneousConfig((1, 1, 1, 0), catalog),
        },
        profiles,
    )
    streams = {}
    for i, (name, rate) in enumerate(zip(("RM2", "WND"), rates)):
        spec = WorkloadSpec(
            batch_sizes=TruncatedLogNormalBatchSizes(median=80, sigma=1.1),
            num_queries=100,
            model_name=name,
        )
        streams[name] = WorkloadGenerator(spec).generate(rate_qps=rate, rng=SEED + i)
    queries = interleave_model_streams(streams)
    events = [
        Event(700.0, EventKind.SCALE_UP, ScaleRequest("r5n.large", 1, model_name="RM2")),
        Event(1400.0, EventKind.SCALE_DOWN, ScaleRequest("c5n.2xlarge", 1, model_name="WND")),
    ]
    sim = MultiModelServingSimulation(
        cluster,
        MultiModelKairosPolicy() if policy is None else policy,
        scripted_events=events,
        startup_delay_ms=250.0,
        noise=noise,
        rng=np.random.default_rng(SEED + 1),
    )
    return sim.run(queries)


class TestMultiModelSeedStability:
    """The co-located elastic path: per-model metrics byte-identical per seed."""

    def _per_model_tuples(self, report):
        return {
            name: [_record_tuple(r) for r in report.metrics.of_model(name).records]
            for name in report.metrics.model_names
        }

    def test_metrics_byte_identical_across_runs(self, profiles, catalog):
        first = _mm_elastic_run(profiles, catalog)
        second = _mm_elastic_run(profiles, catalog)
        assert self._per_model_tuples(first) == self._per_model_tuples(second)
        assert repr(first.metrics.summary()) == repr(second.metrics.summary())
        assert first.cost_by_model() == second.cost_by_model()
        assert [
            (e.time_ms, e.kind, e.type_name, e.count) for e in first.scale_log
        ] == [(e.time_ms, e.kind, e.type_name, e.count) for e in second.scale_log]
        # the scripted elasticity actually fired (non-vacuous scenario)
        assert any(e.kind == "instance_ready" for e in first.scale_log)
        assert any(e.kind == "scale_down" for e in first.scale_log)

    def test_metrics_byte_identical_with_noise(self, profiles, catalog):
        noise = gaussian_service_noise(0.05)
        first = _mm_elastic_run(profiles, catalog, noise=noise)
        second = _mm_elastic_run(profiles, catalog, noise=noise)
        assert self._per_model_tuples(first) == self._per_model_tuples(second)
        assert repr(first.metrics.summary()) == repr(second.metrics.summary())

    def test_noise_actually_perturbs_the_run(self, profiles, catalog):
        # non-vacuousness: the noisy run differs from the noiseless one
        clean = _mm_elastic_run(profiles, catalog)
        noisy = _mm_elastic_run(profiles, catalog, noise=gaussian_service_noise(0.05))
        assert self._per_model_tuples(clean) != self._per_model_tuples(noisy)


def _spot_run(profiles, catalog, *, noise=None):
    """A preemption scenario: nonzero hazard, a forced burst, and re-provisioning."""
    cluster = Cluster(HeterogeneousConfig((1, 0, 3, 0), catalog), profiles.models["RM2"], profiles)
    market = SpotMarket.uniform(
        catalog, discount=0.65, preemptions_per_hour=2_400.0, warning_ms=30.0
    )
    spec = WorkloadSpec(
        batch_sizes=TruncatedLogNormalBatchSizes(median=40, sigma=1.1),
        num_queries=150,
    )
    queries = WorkloadGenerator(spec).generate(rate_qps=60.0, rng=SEED)
    events = [Event(900.0, EventKind.PREEMPTION_WARNING, PreemptionBurst(count=2))]
    sim = PreemptibleElasticSimulation(
        cluster,
        KairosPolicy(),
        market=market,
        spot_server_ids=[2, 3],
        scripted_events=events,
        startup_delay_ms=150.0,
        noise=noise,
        rng=np.random.default_rng(SEED + 1),
        market_rng=np.random.default_rng(SEED + 2),
    )
    return sim.run(queries)


class TestSpotSeedStability:
    """The preemption path: metrics, scale log, and billing byte-identical per seed."""

    def _scale_tuples(self, report):
        return [
            (e.time_ms, e.kind, e.type_name, e.count, e.reason) for e in report.scale_log
        ]

    def test_metrics_byte_identical_across_runs(self, profiles, catalog):
        first = _spot_run(profiles, catalog)
        second = _spot_run(profiles, catalog)
        assert [_record_tuple(r) for r in first.metrics.records] == [
            _record_tuple(r) for r in second.metrics.records
        ]
        assert repr(first.metrics.summary()) == repr(second.metrics.summary())
        assert self._scale_tuples(first) == self._scale_tuples(second)
        assert first.ledger.cost_by_market(first.billing_horizon_ms) == (
            second.ledger.cost_by_market(second.billing_horizon_ms)
        )
        # non-vacuous: the preemption machinery actually fired
        kinds = [e.kind for e in first.scale_log]
        assert "preemption_warning" in kinds and "preempted" in kinds
        assert any(e.kind == "scale_up" and e.reason == "reprovision" for e in first.scale_log)

    def test_metrics_byte_identical_with_noise(self, profiles, catalog):
        noise = gaussian_service_noise(0.05)
        first = _spot_run(profiles, catalog, noise=noise)
        second = _spot_run(profiles, catalog, noise=noise)
        assert [_record_tuple(r) for r in first.metrics.records] == [
            _record_tuple(r) for r in second.metrics.records
        ]
        assert repr(first.metrics.summary()) == repr(second.metrics.summary())
        assert self._scale_tuples(first) == self._scale_tuples(second)

    def test_noise_actually_perturbs_the_run(self, profiles, catalog):
        clean = _spot_run(profiles, catalog)
        noisy = _spot_run(profiles, catalog, noise=gaussian_service_noise(0.05))
        assert [_record_tuple(r) for r in clean.metrics.records] != [
            _record_tuple(r) for r in noisy.metrics.records
        ]


# The Fig. 16 latency-noise measurement at the scale where deferred-violation
# handling fires, printed exactly.  Kept small enough that the subprocess
# runs below stay in the low seconds.
_HASH_SEED_SNIPPET = """\
from repro.analysis.robustness import _normalized_vs_homogeneous
from repro.analysis.settings import ExperimentSettings

settings = ExperimentSettings(num_queries=250, capacity_iterations=4, monitor_samples=1000)
rows = _normalized_vs_homogeneous(settings, ["RM2"], prediction_noise_std=0.05)
print(repr(rows))
"""


class TestHashSeedStability:
    """Results must not depend on ``PYTHONHASHSEED``.

    String-set iteration order is hash-randomized per interpreter, so any code
    that probes a stochastic estimator while iterating a ``set`` of type names
    (the hopeless-query check did, before being fixed) consumes RNG draws in a
    process-dependent order and produces irreproducible results files.  The
    in-process byte-identity tests above cannot see this — hash order is fixed
    within one interpreter — so this test compares fresh interpreters with
    several different hash seeds (1 vs 3 was observed to diverge pre-fix; the
    extra seeds guard against a future hash-order dependency whose particular
    string contents happen to agree on any one pair).
    """

    def test_noisy_measure_identical_across_hash_seeds(self):
        src_root = str(Path(repro.__file__).resolve().parents[1])
        outputs = []
        for hash_seed in ("1", "3", "42"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
            proc = subprocess.run(
                [sys.executable, "-c", _HASH_SEED_SNIPPET],
                capture_output=True,
                text=True,
                env=env,
                timeout=300,
                check=True,
            )
            outputs.append(proc.stdout)
        assert len(set(outputs)) == 1, outputs
        assert "RM2" in outputs[0]  # non-vacuous: the measurement actually ran


# ---------------------------------------------------------------------------------------
# PR 5 scheduling-round engine overhaul: byte-identity against the pre-overhaul code
# ---------------------------------------------------------------------------------------
#
# The digests below were captured by running these exact scenarios on the commit
# *before* the engine overhaul (flat-array JV core, equal-timestamp pop_batch
# coalescing, incremental cost matrices, single-query fast paths) through this
# module's own ``_digest_of``.  Asserting them here proves the rewritten paths
# reproduce the seed event-at-a-time loop's ServingMetrics (and scale logs) byte for
# byte — per seed, with and without service noise — not merely that repeat runs of
# the new code agree with each other.
_PRE_OVERHAUL_DIGESTS = {
    "single": "f67ab790c496cd9e",
    "single_noise": "cc785bb03df65671",
    "elastic": "1610351554e02bb5",
    "elastic_noise": "b92f5dffb59cc36f",
    "multi_model": "79423442308345fb",
    "multi_model_noise": "7e79891c2152b2b3",
    "preemption": "8331a67057e7551e",
    "preemption_noise": "8973360085b9cfc9",
}


def _digest_of(parts):
    import hashlib

    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()[:16]


class TestEngineOverhaulByteIdentity:
    """Coalesced + incremental + rewritten-solver paths vs the pre-PR implementation."""

    def _noise(self, noisy):
        return gaussian_service_noise(0.05) if noisy else None

    @pytest.mark.parametrize("noisy,key", [(False, "single"), (True, "single_noise")])
    def test_single_model(self, profiles, catalog, noisy, key):
        spec = WorkloadSpec(
            batch_sizes=TruncatedLogNormalBatchSizes(median=80, sigma=1.1),
            num_queries=150,
        )
        queries = WorkloadGenerator(spec).generate(rate_qps=40.0, rng=SEED)
        report = simulate_serving(
            HeterogeneousConfig((1, 1, 2, 0), catalog),
            profiles.models["RM2"],
            profiles,
            KairosPolicy(),
            queries,
            noise=self._noise(noisy),
            rng=np.random.default_rng(SEED + 1),
        )
        digest = _digest_of([_record_tuple(r) for r in report.metrics.records])
        assert digest == _PRE_OVERHAUL_DIGESTS[key]

    @pytest.mark.parametrize("noisy,key", [(False, "elastic"), (True, "elastic_noise")])
    def test_elastic(self, profiles, catalog, noisy, key):
        from repro.sim.elasticity import ElasticServingSimulation

        cluster = Cluster(
            HeterogeneousConfig((1, 1, 2, 0), catalog), profiles.models["RM2"], profiles
        )
        spec = WorkloadSpec(
            batch_sizes=TruncatedLogNormalBatchSizes(median=80, sigma=1.1),
            num_queries=150,
        )
        queries = WorkloadGenerator(spec).generate(rate_qps=50.0, rng=SEED)
        events = [
            Event(600.0, EventKind.SCALE_UP, ScaleRequest("r5n.large", 1)),
            Event(1500.0, EventKind.SCALE_DOWN, ScaleRequest("c5n.2xlarge", 1)),
        ]
        sim = ElasticServingSimulation(
            cluster,
            KairosPolicy(),
            scripted_events=events,
            startup_delay_ms=250.0,
            noise=self._noise(noisy),
            rng=np.random.default_rng(SEED + 1),
        )
        report = sim.run(queries)
        digest = _digest_of(
            [_record_tuple(r) for r in report.metrics.records]
            + [(e.time_ms, e.kind, e.type_name, e.count) for e in report.scale_log]
        )
        assert digest == _PRE_OVERHAUL_DIGESTS[key]
        # non-vacuous: the scripted elasticity actually fired
        assert any(e.kind == "instance_ready" for e in report.scale_log)

    @pytest.mark.parametrize(
        "noisy,key", [(False, "multi_model"), (True, "multi_model_noise")]
    )
    def test_multi_model(self, profiles, catalog, noisy, key):
        report = _mm_elastic_run(profiles, catalog, noise=self._noise(noisy))
        parts = []
        for name in report.metrics.model_names:
            parts.extend(_record_tuple(r) for r in report.metrics.of_model(name).records)
        parts.extend(
            (e.time_ms, e.kind, e.type_name, e.count) for e in report.scale_log
        )
        assert _digest_of(parts) == _PRE_OVERHAUL_DIGESTS[key]

    @pytest.mark.parametrize(
        "noisy,key", [(False, "preemption"), (True, "preemption_noise")]
    )
    def test_preemption(self, profiles, catalog, noisy, key):
        report = _spot_run(profiles, catalog, noise=self._noise(noisy))
        digest = _digest_of(
            [_record_tuple(r) for r in report.metrics.records]
            + [
                (e.time_ms, e.kind, e.type_name, e.count, e.reason)
                for e in report.scale_log
            ]
        )
        assert digest == _PRE_OVERHAUL_DIGESTS[key]
        # non-vacuous: the preemption machinery actually fired
        assert "preempted" in [e.kind for e in report.scale_log]


# ---------------------------------------------------------------------------------------
# Near-capacity rounds: single-query decisions over a masked column layout
# ---------------------------------------------------------------------------------------
#
# Captured with ``_digest_of`` on the commit before single-query rounds switched from
# a re-gathered eligible view to the stable full layout with ineligible columns
# masked.  Unlike the 40-qps pins above, these runs sit near capacity, so most
# single-query rounds see at least one server with a queued dispatch (asserted).
_MASKED_ROUND_DIGESTS = {
    "steady": "6c90e463b05b6843",
    "multi_model": "527d45363e4a656c",
}

# Captured with ``_digest_of`` on the commit before both policies' single-query
# rounds moved to one scorer on scalar predictions for versioned estimators.
_SINGLE_QUERY_DIGESTS = {
    "perfect": "8c1f01142b87d837",
    "noisy": "4c7a09a135537cc9",
}


def _mask_counting(base, **kwargs):
    """``base(**kwargs)`` policy that counts its non-empty rounds, the single-query
    ones among them, and those with a server holding a queued dispatch (local queue
    depth > 1, i.e. ineligible) — all read from the pending queue and the cluster,
    not from the policy's own code paths."""

    class MaskCounting(base):
        rounds = 0
        single_rounds = 0
        masked_rounds = 0

        def schedule(self, now_ms, pending, cluster):
            if pending:
                self.rounds += 1
            if len(pending) == 1:
                self.single_rounds += 1
                if any(s.local_queue_depth > 1 for s in cluster):
                    self.masked_rounds += 1
            return super().schedule(now_ms, pending, cluster)

    return MaskCounting(**kwargs)


def _steady_shaped_digest(profiles, catalog, policy):
    """The ``steady`` benchmark's shape at a tenth of its length: RM2 Poisson at
    290 qps on (6, 6, 12, 0), 5% service noise."""
    spec = WorkloadSpec(
        batch_sizes=TruncatedLogNormalBatchSizes(median=80, sigma=1.1),
        num_queries=400,
    )
    queries = WorkloadGenerator(spec).generate(rate_qps=290.0, rng=SEED)
    report = simulate_serving(
        HeterogeneousConfig((6, 6, 12, 0), catalog),
        profiles.models["RM2"],
        profiles,
        policy,
        queries,
        noise=gaussian_service_noise(0.05),
        rng=np.random.default_rng(SEED + 1),
    )
    return _digest_of([_record_tuple(r) for r in report.metrics.records])


class TestNearCapacityByteIdentity:
    def test_steady_shaped_static_run(self, profiles, catalog):
        """Online learning, as the benchmark runs it."""
        policy = _mask_counting(KairosPolicy)
        digest = _steady_shaped_digest(profiles, catalog, policy)
        assert digest == _MASKED_ROUND_DIGESTS["steady"]
        assert policy.masked_rounds >= 0.5 * policy.single_rounds > 0

    @pytest.mark.parametrize("estimator", ["perfect", "noisy"])
    def test_steady_shaped_run_other_estimators(self, profiles, catalog, estimator):
        """The oracle estimator (versioned beliefs: scalar predictions) and 5%
        prediction noise over it (unversioned: per-block vector predictions, whose
        RNG draws are part of the seed contract)."""
        from repro.core.latency_model import (
            NoisyLatencyEstimator,
            PerfectLatencyEstimator,
        )

        belief = PerfectLatencyEstimator(profiles, profiles.models["RM2"])
        if estimator == "noisy":
            belief = NoisyLatencyEstimator(belief, 0.05, rng=SEED + 2)
        policy = _mask_counting(KairosPolicy, estimator=belief)
        digest = _steady_shaped_digest(profiles, catalog, policy)
        assert digest == _SINGLE_QUERY_DIGESTS[estimator]
        # non-vacuous: most rounds take the single-query path
        assert policy.single_rounds >= 0.5 * policy.rounds > 0

    def test_multi_model_run(self, profiles, catalog):
        """The co-located elastic scenario above at twice its rates."""
        policy = _mask_counting(MultiModelKairosPolicy)
        report = _mm_elastic_run(profiles, catalog, rates=(60.0, 200.0), policy=policy)
        parts = []
        for name in report.metrics.model_names:
            parts.extend(_record_tuple(r) for r in report.metrics.of_model(name).records)
        parts.extend(
            (e.time_ms, e.kind, e.type_name, e.count) for e in report.scale_log
        )
        assert _digest_of(parts) == _MASKED_ROUND_DIGESTS["multi_model"]
        assert policy.masked_rounds >= 0.5 * policy.single_rounds > 0


# ---------------------------------------------------------------------------------------
# Pipeline runs: critical-path beliefs memoized per belief version
# ---------------------------------------------------------------------------------------
#
# Captured with ``_digest_of`` on the commit before the pipeline coordinator memoized
# stage predictions and critical paths per belief version.  Each run must examine
# live graphs for doom on many rounds (counted from the coordinator's runtimes,
# outside the cache), so the pins cannot pass with the slack checks idle.
#
# ``burst`` was re-captured once when joint rounds moved to the canonical assignment
# rule (scipy's solver, identical-column classes dealt lowest index first, per-model
# block re-match): its joint rounds pick different equal-cost matchings than the
# retired Python JV search did.  ``fig20_online`` did not move.
_PIPELINE_DIGESTS = {
    "burst": "c0e55ec813c5158f",
    "fig20_online": "3c86b05f3dee9804",
}


@pytest.fixture
def live_doom_checks(monkeypatch):
    """Live graphs examined per ``PipelineCoordinator.doomed`` call, in call order."""
    from repro.pipeline.runtime import PipelineCoordinator

    checks = []
    doomed = PipelineCoordinator.doomed

    def counting(self, now_ms, **kwargs):
        checks.append(sum(1 for r in self.runtimes if r.outcome is None))
        return doomed(self, now_ms, **kwargs)

    monkeypatch.setattr(PipelineCoordinator, "doomed", counting)
    return checks


def _pipeline_digest(report, graph_outcomes):
    parts = []
    for name in report.metrics.model_names:
        parts.extend(_record_tuple(r) for r in report.metrics.of_model(name).records)
    parts.extend(graph_outcomes)
    return _digest_of(parts)


def _burst_shaped_run():
    """The ``burst`` benchmark's shape, scaled down: three bursty models on their own
    partitions, chain and diamond graphs across all three, perfect estimators."""
    from repro.fuzz.runner import run_scenario
    from repro.fuzz.spec import (
        PhaseSpec,
        PipelineSpec,
        ScenarioSpec,
        StageSpec,
        StreamSpec,
    )

    models = ("RM2", "WND", "DIEN")
    span_ms = 1500.0
    rng = np.random.default_rng(SEED)
    graphs = []
    for i in range(16):
        order = [str(m) for m in rng.permutation(models)]
        batches = [int(b) for b in rng.integers(8, 96, size=4)]
        if i % 2 == 0:
            stages = tuple(
                StageSpec(f"s{k}", order[k], batches[k], (f"s{k - 1}",) if k else ())
                for k in range(3)
            )
        else:
            stages = (
                StageSpec("src", order[0], batches[0]),
                StageSpec("left", order[1], batches[1], ("src",)),
                StageSpec("right", order[2], batches[2], ("src",)),
                StageSpec("sink", order[0], batches[3], ("left", "right")),
            )
        graphs.append(
            PipelineSpec(
                stages=stages,
                deadline_ms=float(rng.uniform(300.0, 1500.0)),
                release_ms=float(rng.uniform(0.0, span_ms)),
            )
        )
    spec = ScenarioSpec(
        loop="pipeline",
        streams=tuple(
            StreamSpec(
                model_name=name,
                phases=(PhaseSpec("step", 200.0, span_ms),),
                arrival="bursty",
                burst_size=16,
            )
            for name in models
        ),
        config_counts=((1, 1, 4, 0),) * len(models),
        seed=SEED,
        sharded_events=True,
        pipelines=tuple(graphs),
    )
    result = run_scenario(spec, check=False)
    return result.report, result.graph_outcomes


def _fig20_shaped_run(profiles, catalog):
    """fig20's graph-aware arm, scaled down: mixed-urgency graph waves over two
    models' background streams, with online latency learning."""
    from repro.analysis.pipeline import pipeline_fleet
    from repro.pipeline import (
        CriticalPathKairosPolicy,
        PipelineServingSimulation,
        realize_graphs,
    )

    names = ("RM2", "WND")
    streams = {}
    for i, (name, rate) in enumerate(zip(names, (45.0, 160.0))):
        spec = WorkloadSpec(
            batch_sizes=TruncatedLogNormalBatchSizes(median=80, sigma=1.1),
            num_queries=150,
            model_name=name,
        )
        streams[name] = WorkloadGenerator(spec).generate(rate_qps=rate, rng=SEED + 50 + i)
    background = interleave_model_streams(streams)
    span_ms = max(q.arrival_time_ms for q in background)
    graphs = pipeline_fleet(12, names, 120.0, 1500.0, span_ms)
    sources, coordinator = realize_graphs(graphs, len(background))
    sim = PipelineServingSimulation(
        MultiModelCluster(
            {name: HeterogeneousConfig((1, 1, 2, 0), catalog) for name in names},
            profiles,
        ),
        CriticalPathKairosPolicy(coordinator),
        coordinator=coordinator,
        rng=np.random.default_rng(SEED + 11),
        warmup_queries=25,
    )
    report = sim.run(sorted(background + sources, key=lambda q: q.arrival_time_ms))
    return report, sim.graph_outcomes


class TestPipelineByteIdentity:
    def test_burst_shaped_run(self, live_doom_checks):
        report, outcomes = _burst_shaped_run()
        assert _pipeline_digest(report, outcomes) == _PIPELINE_DIGESTS["burst"]
        assert sum(live_doom_checks) >= 1000

    def test_fig20_shaped_online_run(self, profiles, catalog, live_doom_checks):
        report, outcomes = _fig20_shaped_run(profiles, catalog)
        assert _pipeline_digest(report, outcomes) == _PIPELINE_DIGESTS["fig20_online"]
        assert sum(live_doom_checks) >= 1000
