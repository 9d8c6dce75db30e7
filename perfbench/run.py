#!/usr/bin/env python3
"""The repository benchmark: simulator speed and Kairos outcomes on named workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload steady --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                  # every workload, default seed
    python3 perfbench/run.py --smoke          # tiny run of every workload

Each workload runs in fresh child processes (``worker.py``), one at a time and
single-threaded.  ``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``:
``setup_s`` is the median over several fresh processes of the time from process
start to a run being ready, and every other metric comes from the untraced run.
Host times (``setup_s``, ``sim_qps``) are rescaled to a nominal host pace by a
fixed reference computation timed beside them (see ``episodes.reference_chunk``),
because this class of shared host drifts by tens of percent within minutes.
``--trace 1`` prints the per-layer metrics from a separate traced run.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Exit codes: 0 on success; 1 when the program's output is wrong (an invariant
violation, or a simulated outcome that differs between runs of one seed), after
printing the result with ``"correct": false``; 2 when the benchmark cannot run
at all (for example, no program source beside it), without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

#: The workload seed used when none is given (``design.json`` records it, and
#: the seed held out for confirming claimed gains).
DEFAULT_SEED = 1

#: Fresh processes timed per run for ``setup_s`` (the measuring process included).
SETUP_SAMPLES = 3

#: Exit code ``worker.py`` uses for a correctness failure.
WRONG = 3

#: Per-child wall-clock limit, so a run always ends within the benchmark's budget.
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to the program answering wrongly)."""


def _metric_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    workloads = [w["name"] for w in spec["workloads"]]
    return end_to_end, per_layer, workloads


def _child(args, deadline_s: float = CHILD_TIMEOUT_S):
    """Run one worker; returns (exit code, its last JSON line, start epoch)."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    started = time.time()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=deadline_s,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} exceeded {deadline_s:.0f} s") from exc
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("{")]
    if proc.returncode not in (0, WRONG) or not lines:
        raise BenchError(
            f"worker {args} failed with exit code {proc.returncode}:\n"
            + proc.stderr[-4000:]
        )
    if proc.returncode == WRONG:
        sys.stderr.write(proc.stderr[-4000:])
    return proc.returncode, json.loads(lines[-1]), started


def run_workload(workload, seed, seconds, trace, extra=(), setup_samples=SETUP_SAMPLES):
    """One benchmark run of ``workload``; returns (correct, attempted, metrics)."""
    common = ["--workload", workload, "--seed", str(seed), *extra]
    if trace:
        code, result, _ = _child([*common, "--mode", "trace"])
        return code == 0, int(result.get("runs", 1)), result
    # Set-up seconds are rescaled to the nominal host pace like ``sim_qps``.
    setups = []
    for _ in range(setup_samples - 1):
        _, ready, started = _child([*common, "--mode", "setup"])
        setups.append((ready["ready"] - started) / ready["slowdown"])
    code, result, started = _child([*common, "--mode", "measure", "--seconds", str(seconds)])
    if code == 0:
        setups.append((result["ready"] - started) / result["slowdown"])
        result["setup_s"] = statistics.median(setups)
    return code == 0, int(result.get("runs", 1)), result


def emit(correct, attempted, result, units) -> dict:
    """The benchmark's result object over exactly the metrics named in ``units``."""
    metrics = {}
    if correct:
        missing = sorted(set(units) - set(result))
        if missing:
            raise BenchError(f"worker did not report {missing}")
        metrics = {name: {"value": result[name], "unit": unit} for name, unit in units.items()}
    return {
        "correct": bool(correct),
        "attempted": max(1, attempted),
        "failed": 0 if correct else 1,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny untimed run of every workload"
    )
    args = parser.parse_args(argv)

    try:
        if not (ROOT / "src" / "repro").is_dir():
            raise BenchError(f"no program source at {ROOT / 'src'}")
        end_to_end, per_layer, names = _metric_units()
        seconds = args.seconds
        if seconds is None:
            seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
        if args.smoke:
            return smoke(names, end_to_end, per_layer)
        if args.workload is not None:
            if args.workload not in names:
                raise BenchError(f"unknown workload {args.workload!r}; one of {names}")
            units = per_layer if args.trace else end_to_end
            correct, attempted, result = run_workload(
                args.workload, args.seed, seconds, args.trace
            )
            if correct and not args.trace:
                print(
                    f"{args.workload}: {result['passes']} passes over "
                    f"{result['episodes']} episodes, {result['completed']} completed "
                    f"queries; {result['sim_qps_unscaled']:.1f} queries/host-s before "
                    f"rescaling, reference chunks at {result['host_slowdown']:.3f}x "
                    f"their nominal time"
                )
            out = emit(correct, attempted, result, units)
            print(json.dumps(out))
            return 0 if out["correct"] else 1
        everything = {}
        for name in names:
            units = per_layer if args.trace else end_to_end
            out = emit(*run_workload(name, args.seed, seconds, args.trace), units)
            everything[name] = out
            for metric, entry in out["metrics"].items():
                print(f"{name:<8} {metric:<32} {entry['value']:>14.6g} {entry['unit']}")
        ok = all(o["correct"] for o in everything.values())
        print(json.dumps({"correct": ok, "workloads": everything}))
        return 0 if ok else 1
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


def smoke(names, end_to_end, per_layer) -> int:
    """One tiny episode per workload, untraced and traced; prints every metric."""
    tiny = ("--episodes", "1", "--sim-s", "1.0")
    ok = True
    for name in names:
        for trace, units in ((0, end_to_end), (1, per_layer)):
            out = emit(*run_workload(name, DEFAULT_SEED, 0.0, trace, tiny, 1), units)
            ok = ok and out["correct"]
            for metric, entry in out["metrics"].items():
                print(f"{name} {metric} {entry['unit']} {entry['value']:.6g}")
    print(json.dumps({"correct": ok}))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
