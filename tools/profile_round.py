#!/usr/bin/env python
"""Per-phase wall-time breakdown of the scheduling rounds of one serving run.

Runs the same seeded scenario as the ``serving_sim`` / ``multi_model_sim`` perf
benchmarks with lightweight timers around the round's phases — column refresh, row
snapshot, matrix build, assignment solve, the single-query and single-server
scorers, latency prediction, and dispatch commit — then prints cumulative wall
time, share of the run, and per-round cost for each phase.  Use it to locate the
next perf lever without ad-hoc profiling::

    python tools/profile_round.py                      # serving, quick preset
    python tools/profile_round.py --preset full
    python tools/profile_round.py --scenario multi_model --repeats 5
    python tools/profile_round.py --scenario pipeline  # the benchmark's burst workload
    python tools/profile_round.py --opcodes            # opcodes per query
    python tools/profile_round.py --opcodes --top 10   # ... and the costliest functions

Phases overlap where the code nests (latency prediction runs inside the matrix build
and the two scorers; all three run inside "policy schedule"), so shares do not
sum to 100% — each row answers "how much of the run is spent under this seam".

``--opcodes`` counts instead of timing: the Python opcodes ``run_scenario``
executes over the first episode of each perfbench workload (``sys.settrace`` with
``f_trace_opcodes``), divided by the episode's offered queries.  Each workload is
counted in a fresh interpreter with ``PYTHONHASHSEED=0``, after one untraced run of
the same episode (imports and memoized configuration spaces) and with the cyclic
garbage collector paused, so the count is exact and host-independent.  Work done in C (numpy, scipy, builtins) is not
counted, so the count is a measure of interpreter work, not of speed.  ``--top N``
adds, per workload, the N functions that execute the most opcodes themselves
(exclusive of their callees), per query — where the interpreter work goes.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402


class PhaseTimer:
    """Cumulative wall-clock account for one instrumented seam."""

    def __init__(self, label: str):
        self.label = label
        self.total = 0.0
        self.calls = 0

    def wrap(self, func):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                self.total += time.perf_counter() - start
                self.calls += 1

        return timed


def _instrument():
    """Install timers at the round's phase seams; returns the timer list."""
    import repro.core.cost_matrix as cost_matrix
    import repro.core.distributor as distributor
    import repro.schedulers.kairos_policy as kairos_policy
    import repro.sim.elasticity as elasticity
    import repro.sim.health as health
    from repro.core.latency_model import OnlineLatencyEstimator
    from repro.pipeline.runtime import PipelineCoordinator

    timers = []

    def seam(label, owner, name):
        timer = PhaseTimer(label)
        setattr(owner, name, timer.wrap(getattr(owner, name)))
        timers.append(timer)
        return timer

    seam("policy schedule (whole round)", kairos_policy.KairosPolicy, "schedule")
    seam("policy schedule (joint round)", kairos_policy.MultiModelKairosPolicy, "schedule")
    seam("column refresh (incremental)", cost_matrix.RoundColumnState, "refresh")
    seam("row snapshot (pending arrays)", kairos_policy, "_round_rows")
    # every consumer calls these through the module attribute, so one patch point
    # covers the distributor, both policies, and any future caller
    seam("matrix build (assemble)", cost_matrix, "assemble_cost_matrix")
    seam("matrix build (joint assemble)", cost_matrix, "assemble_multi_model")
    seam("single-query scorer", kairos_policy._SingleQueryScorer, "decide")
    seam("single-server scorer", kairos_policy, "_single_server_decisions")
    # policies and distributors take their solver from ``round_solver`` at
    # construction, so wrapping what it returns times every round's solve
    solve_timer = PhaseTimer("assignment solve (round solver)")
    make_solver = kairos_policy.round_solver

    def timed_round_solver(method):
        return solve_timer.wrap(make_solver(method))

    kairos_policy.round_solver = distributor.round_solver = timed_round_solver
    timers.append(solve_timer)
    seam("latency prediction", OnlineLatencyEstimator, "predict_many_ms")
    seam("latency prediction (scalar)", OnlineLatencyEstimator, "predict_ms")
    # every loop (static, elastic, spot, multi-model, pipeline) runs the serving
    # kernel's one _commit and one set of gray-failure handlers, so each seam
    # below times all of them
    seam("dispatch commit", elasticity.ElasticServingSimulation, "_commit")
    # gray-failure seams: health scoring on every completion, the check/probe
    # handlers, quarantine side effects, and the hedge race machinery
    seam("health scoring (completions)", health.ServerHealthMonitor, "observe_completion")
    seam("health check handler", elasticity.ElasticServingSimulation, "_handle_health_check")
    seam("health probe handler", elasticity.ElasticServingSimulation, "_handle_health_probe")
    seam("quarantine side effects", elasticity.ElasticServingSimulation, "_quarantine_server")
    seam("hedge delay estimate", health.HedgeManager, "hedge_delay_ms")
    seam("hedge timer handler", elasticity.ElasticServingSimulation, "_handle_hedge_timer")
    # pipeline seams: the per-round doom check over live graphs and the per-row
    # laxity multiplier, both read through the coordinator's belief cache
    seam("pipeline doom check", PipelineCoordinator, "doomed")
    seam("pipeline laxity (per row)", PipelineCoordinator, "priority_scale")
    return timers


def _run_serving(preset: str, repeats: int) -> tuple:
    from repro.bench.suites import MODEL, SEED, _params
    from repro.cloud.config import HeterogeneousConfig
    from repro.cloud.profiles import default_profile_registry
    from repro.schedulers.kairos_policy import KairosPolicy
    from repro.sim.cluster import Cluster
    from repro.sim.elasticity import ElasticServingSimulation
    from repro.workload.batch_sizes import TruncatedLogNormalBatchSizes
    from repro.workload.generator import WorkloadGenerator, WorkloadSpec

    p = _params(preset)
    profiles = default_profile_registry()
    config = HeterogeneousConfig(tuple(p["serving_counts"]), profiles.catalog)
    model = profiles.models[MODEL]
    spec = WorkloadSpec(
        batch_sizes=TruncatedLogNormalBatchSizes(median=80, sigma=1.1),
        num_queries=int(p["serving_queries"]),
    )
    queries = WorkloadGenerator(spec).generate(rate_qps=p["serving_rate_qps"], rng=SEED)

    rounds = 0
    start = time.perf_counter()
    for _ in range(repeats):
        sim = ElasticServingSimulation(
            Cluster(config, model, profiles),
            KairosPolicy(),
            rng=np.random.default_rng(SEED + 1),
        )
        rounds += sim.run(queries).scheduling_rounds
    return time.perf_counter() - start, rounds


def _run_multi_model(preset: str, repeats: int) -> tuple:
    from repro.bench.suites import MM_MODELS, SEED, _params
    from repro.cloud.config import HeterogeneousConfig
    from repro.cloud.profiles import default_profile_registry
    from repro.schedulers.kairos_policy import MultiModelKairosPolicy
    from repro.sim.cluster import MultiModelCluster
    from repro.sim.multi_model import MultiModelServingSimulation
    from repro.workload.batch_sizes import TruncatedLogNormalBatchSizes
    from repro.workload.generator import (
        WorkloadGenerator,
        WorkloadSpec,
        interleave_model_streams,
    )

    p = _params(preset)
    profiles = default_profile_registry()
    configs = {
        name: HeterogeneousConfig(tuple(counts), profiles.catalog)
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

    rounds = 0
    start = time.perf_counter()
    for _ in range(repeats):
        sim = MultiModelServingSimulation(
            MultiModelCluster(configs, profiles),
            MultiModelKairosPolicy(),
            rng=np.random.default_rng(SEED + 1),
        )
        rounds += sim.run(queries).scheduling_rounds
    return time.perf_counter() - start, rounds


def _run_gray(preset: str, repeats: int) -> tuple:
    """Elastic serving under gray faults with the monitor, breakers, and hedging on."""
    from repro.bench.suites import MODEL, SEED, _params
    from repro.cloud.config import HeterogeneousConfig
    from repro.cloud.profiles import default_profile_registry
    from repro.schedulers.kairos_policy import KairosPolicy
    from repro.sim.cluster import Cluster
    from repro.sim.elasticity import ElasticServingSimulation
    from repro.sim.faults import FaultInjector, RetryPolicy
    from repro.sim.health import HealthConfig, HedgePolicy
    from repro.workload.batch_sizes import TruncatedLogNormalBatchSizes
    from repro.workload.generator import WorkloadGenerator, WorkloadSpec

    p = _params(preset)
    profiles = default_profile_registry()
    config = HeterogeneousConfig(tuple(p["serving_counts"]), profiles.catalog)
    model = profiles.models[MODEL]
    spec = WorkloadSpec(
        batch_sizes=TruncatedLogNormalBatchSizes(median=80, sigma=1.1),
        num_queries=int(p["serving_queries"]),
    )
    queries = WorkloadGenerator(spec).generate(rate_qps=p["serving_rate_qps"], rng=SEED)
    faults = FaultInjector.uniform(
        profiles.catalog,
        failures_per_hour=0.0,
        degradations_per_hour=1800.0,
        degradation_factor=4.0,
        flaky_per_hour=3600.0,
        zombies_per_hour=900.0,
        auto_replace=False,
    )

    rounds = 0
    start = time.perf_counter()
    for _ in range(repeats):
        sim = ElasticServingSimulation(
            Cluster(config, model, profiles),
            KairosPolicy(),
            rng=np.random.default_rng(SEED + 1),
            faults=faults,
            fault_rng=np.random.default_rng([SEED, 505]),
            gray_rng=np.random.default_rng([SEED, 606]),
            retry=RetryPolicy(max_attempts=3, response_timeout_ms=4.0 * model.qos_ms),
            health=HealthConfig(probation_ms=8.0 * model.qos_ms),
            hedge=HedgePolicy(),
        )
        rounds += sim.run(queries).scheduling_rounds
    return time.perf_counter() - start, rounds


def _run_pipeline(preset: str, repeats: int) -> tuple:
    """The repository benchmark's ``burst`` workload (``perfbench/workloads.py``):
    three bursty models plus chain/diamond task graphs across all three."""
    sys.path.insert(0, str(REPO_ROOT / "perfbench"))
    import workloads
    from repro.bench.suites import SEED
    from repro.fuzz.runner import build_queries, run_scenario

    sim_s = {"smoke": 0.5, "quick": 2.0, "full": workloads.SIM_SECONDS["burst"]}[preset]
    spec = workloads.build("burst", SEED, sim_s)
    queries = build_queries(spec)

    rounds = 0
    start = time.perf_counter()
    for _ in range(repeats):
        rounds += run_scenario(spec, queries, check=False).report.scheduling_rounds
    return time.perf_counter() - start, rounds


#: The perfbench workloads ``--opcodes`` counts, at perfbench's default seed.
OPCODE_WORKLOADS = ("steady", "burst", "churn")
OPCODE_SEED = 1


def _function_label(code, owner) -> str:
    """``path:line(qualified name)`` of a code object; the path is relative to the
    repository, or its last two parts outside it, so labels match across hosts.
    Generated code (a dataclass's ``__init__`` or ``__eq__``) shares one file name
    and line, so it is labelled by the class of the ``self`` it first ran on."""
    if code.co_filename.startswith("<"):
        method = f"{owner}.{code.co_name}" if owner else code.co_name
        return f"{code.co_filename}({method})"
    path = Path(code.co_filename)
    try:
        shown = path.resolve().relative_to(REPO_ROOT).as_posix()
    except ValueError:
        shown = "/".join(path.parts[-2:])
    return f"{shown}:{code.co_firstlineno}({code.co_qualname})"


def count_opcodes(workload: str, sim_s=None) -> tuple:
    """``(offered queries, opcodes executed, opcodes per function label)`` by one
    traced ``run_scenario`` call over the workload's first episode."""
    sys.path.insert(0, str(REPO_ROOT / "perfbench"))
    import episodes
    import workloads
    from repro.fuzz.runner import build_queries, run_scenario

    spec = workloads.build(workload, episodes.episode_seed(OPCODE_SEED, 0), sim_s)
    queries = build_queries(spec)
    run_scenario(spec, queries, check=False)  # untraced: imports, memoized spaces
    per_code = {}
    owners = {}  # generated code object -> class name of its first ``self``, if any

    def local(frame, event, arg):
        if event == "opcode":
            code = frame.f_code
            per_code[code] = per_code.get(code, 0) + 1
        return local

    def on_call(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith("<") and code not in owners:
            owner = frame.f_locals.get("self")
            owners[code] = None if owner is None else type(owner).__qualname__
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return local

    # the collector's timing follows allocation history, not the program: keep its
    # finalizers out of the count
    gc.collect()
    gc.disable()
    sys.settrace(on_call)
    try:
        run_scenario(spec, queries, check=False)
    finally:
        sys.settrace(None)
        gc.enable()
    per_function = {}
    for code, n in per_code.items():
        label = _function_label(code, owners.get(code))
        per_function[label] = per_function.get(label, 0) + n
    return len(queries), sum(per_code.values()), per_function


def _opcode_report(sim_s, top: int = 0) -> int:
    """Count each workload in a fresh interpreter and print the table (and, with
    ``top``, each workload's costliest functions)."""
    import os
    import subprocess

    env = dict(os.environ, PYTHONHASHSEED="0")
    scale = "" if sim_s is None else f", {sim_s} simulated s"
    print(f"opcodes per query, first episode at seed {OPCODE_SEED}{scale}:")
    print(f"{'workload':<10} {'queries':>8} {'opcodes':>12} {'per query':>10}")
    heads = {}
    for workload in OPCODE_WORKLOADS:
        args = [sys.executable, str(Path(__file__).resolve())]
        args += ["--opcode-child", workload, "--top", str(top)]
        if sim_s is not None:
            args += ["--sim-s", repr(sim_s)]
        out = subprocess.run(
            args, capture_output=True, text=True, env=env, check=True
        ).stdout.splitlines()
        counted = json.loads(out[-1])
        queries, opcodes = counted["queries"], counted["opcodes"]
        heads[workload] = (queries, opcodes, counted["top"])
        print(f"{workload:<10} {queries:>8} {opcodes:>12} {opcodes / queries:>10.1f}")
    if top:
        for workload, (queries, opcodes, head) in heads.items():
            print(f"\n{workload}: top {top} functions by exclusive opcodes per query")
            print(f"{'per query':>10} {'share':>7}  function")
            for label, n in head:
                print(f"{n / queries:>10.1f} {100.0 * n / opcodes:>6.1f}%  {label}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--preset", default="quick", choices=("smoke", "quick", "full"),
        help="workload scale (matches the perf-benchmark presets; default quick)",
    )
    parser.add_argument(
        "--scenario",
        default="serving",
        choices=("serving", "multi_model", "gray", "pipeline"),
        help="which macro scenario to profile (default serving)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="simulation runs to aggregate (default 3)"
    )
    parser.add_argument(
        "--opcodes",
        action="store_true",
        help="count Python opcodes per query over each perfbench workload's first "
        "episode instead of timing phases",
    )
    parser.add_argument(
        "--sim-s",
        type=float,
        default=None,
        help="with --opcodes: simulated seconds per episode (default the workload's)",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=0,
        metavar="N",
        help="with --opcodes: also list each workload's N functions with the most "
        "exclusive opcodes per query",
    )
    parser.add_argument(
        "--opcode-child", choices=OPCODE_WORKLOADS, help=argparse.SUPPRESS
    )
    args = parser.parse_args(argv)
    if args.top < 0:
        parser.error("--top must be >= 0")

    if args.opcode_child:
        queries, opcodes, per_function = count_opcodes(args.opcode_child, args.sim_s)
        # most opcodes first, ties by label: the order is part of the output
        ranked = sorted(per_function.items(), key=lambda item: (-item[1], item[0]))
        print(json.dumps({"queries": queries, "opcodes": opcodes, "top": ranked[: args.top]}))
        return 0
    if args.opcodes:
        return _opcode_report(args.sim_s, args.top)

    timers = _instrument()
    runner = {
        "serving": _run_serving,
        "multi_model": _run_multi_model,
        "gray": _run_gray,
        "pipeline": _run_pipeline,
    }[args.scenario]
    wall, rounds = runner(args.preset, args.repeats)

    print(
        f"scenario={args.scenario} preset={args.preset} repeats={args.repeats}: "
        f"{rounds} scheduling rounds in {wall:.3f}s wall "
        f"({wall / rounds * 1e6:.1f} us/round)"
    )
    print(f"{'phase':<34} {'calls':>8} {'total s':>9} {'% of run':>9} {'us/round':>9}")
    for timer in sorted(timers, key=lambda t: -t.total):
        if timer.calls == 0:
            continue
        print(
            f"{timer.label:<34} {timer.calls:>8} {timer.total:>9.3f} "
            f"{100.0 * timer.total / wall:>8.1f}% {timer.total / rounds * 1e6:>9.1f}"
        )
    print(
        "\nnote: phases overlap where the code nests (prediction inside matrix "
        "build / fast path, everything inside the policy round); shares answer "
        "'how much of the run sits under this seam', not a partition."
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
