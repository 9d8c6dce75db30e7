#!/usr/bin/env python
"""Perf-benchmark runner: measure the hot paths, gate regressions, emit BENCH_perf.json.

Usage::

    python tools/bench.py --quick            # CI bench-smoke scale
    python tools/bench.py --full             # committed reference scale
    python tools/bench.py                    # both presets
    python tools/bench.py --fleet            # fleet_sim only, at fleet scale
                                             # (2,240 servers, 10^6 queries)
    python tools/bench.py --set-baseline     # record this run as the pre-optimization
                                             # baseline block (done once, before a perf PR)
    python tools/bench.py --ab HEAD~1 --workload steady [--seed 1] [--pairs 10]
                                             # interleaved A/B of the repository
                                             # benchmark: <rev> vs the working tree

The output file (default ``BENCH_perf.json`` at the repository root) holds, per
``benchmark@preset`` key, the raw throughput, the machine-normalized throughput, and the
carried-forward *baseline* (the pre-optimization numbers measured by this same harness).
On every run the freshly measured normalized numbers are compared against the committed
file; any benchmark that regressed by more than ``--tolerance`` (default 30%) makes the
run exit non-zero — that comparison is the ``bench-smoke`` stage of ``tools/ci.sh``.

Results from presets that were not run are carried over from the committed file, so a
``--quick`` CI run never erases the committed ``full`` numbers.

``--ab`` compares instead of gating.  It exports ``<rev>`` into a temporary
directory (``git archive``, removed on exit) and alternates ``perfbench/run.py``
runs of one workload between that copy and the working tree, switching which side
goes first every pair, so host drift lands on both sides alike.  Per end-to-end
metric of ``BENCHMARK.json`` it prints each side's median and quartiles, the median
per-pair ratio (working tree over base) with its min-max, how many pairs the
working tree won, and a verdict:

* ``claimable``: the working tree's median is better, it won at least nine tenths
  of the pairs (ties count for neither side), and the medians differ by more than
  the base's quartile spread;
* ``worse``: the working tree's median is past the metric's ``bound`` (a fraction
  of the base median) in the bad direction;
* ``unresolved``: anything else.

Every run's unscaled rate is printed as it finishes.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402
from repro.bench.runner import (  # noqa: E402
    compare_results,
    environment_fingerprint,
    machine_score,
    run_benchmarks,
)
from repro.bench.suites import BENCHMARKS  # noqa: E402

SCHEMA = 1

#: The line ``perfbench/run.py`` prints before its result, carrying the unscaled rate.
_UNSCALED = re.compile(r"([0-9.]+) queries/host-s before rescaling")


def _quartiles(values):
    q1, median, q3 = np.percentile(np.asarray(values, dtype=float), [25, 50, 75])
    return float(q1), float(median), float(q3)


def verdict(row, higher: bool, bound) -> str:
    """``claimable``, ``worse`` or ``unresolved`` for one :func:`ab_summary` row."""
    base, new = row["base"][1], row["new"][1]
    if bound is not None:
        limit = base * (1.0 - bound) if higher else base * (1.0 + bound)
        if (new < limit) if higher else (new > limit):
            return "worse"
    better = new > base if higher else new < base
    if better and 10 * row["wins"] >= 9 * row["pairs"] and row["beyond_base_iqr"]:
        return "claimable"
    return "unresolved"


def ab_summary(base_runs, new_runs, metrics):
    """Per-metric comparison of paired runs (``base_runs[i]`` pairs ``new_runs[i]``).

    ``*_runs`` are the ``metrics`` objects of ``perfbench/run.py`` results and
    ``metrics`` the ``end_to_end`` entries of ``BENCHMARK.json``.  A pair is a win
    when the working tree's value is strictly better in the metric's direction.
    """
    rows = []
    for spec in metrics:
        name = spec["name"]
        base = [run[name]["value"] for run in base_runs]
        new = [run[name]["value"] for run in new_runs]
        ratios = [n / b if b else float("nan") for b, n in zip(base, new)]
        higher = spec["better"] == "higher"
        wins = sum(1 for b, n in zip(base, new) if (n > b if higher else n < b))
        base_q, new_q = _quartiles(base), _quartiles(new)
        row = {
            "metric": name,
            "base": base_q,
            "new": new_q,
            "ratio": (_quartiles(ratios)[1], min(ratios), max(ratios)),
            "wins": wins,
            "ties": sum(1 for b, n in zip(base, new) if n == b),
            "pairs": len(base),
            # the claim rule: medians further apart than the base's spread
            "beyond_base_iqr": abs(new_q[1] - base_q[1]) > base_q[2] - base_q[0],
        }
        row["verdict"] = verdict(row, higher, spec.get("bound"))
        rows.append(row)
    return rows


def format_ab(rows) -> str:
    lines = [
        f"{'metric':<16} {'base median [q1, q3]':>34} {'new median [q1, q3]':>34} "
        f"{'ratio (min-max)':>24} {'wins':>6}  {'verdict':<10}  |dmedian| > base IQR"
    ]
    for row in rows:
        sides = [
            f"{m:.6g} [{q1:.6g}, {q3:.6g}]" for q1, m, q3 in (row["base"], row["new"])
        ]
        ratio, low, high = row["ratio"]
        ties = f" ({row['ties']} equal)" if row["ties"] else ""
        lines.append(
            f"{row['metric']:<16} {sides[0]:>34} {sides[1]:>34} "
            f"{f'{ratio:.3f}x ({low:.3f}-{high:.3f})':>24} "
            f"{row['wins']:>3}/{row['pairs']:<2}  {row['verdict']:<10}  "
            f"{'yes' if row['beyond_base_iqr'] else 'no'}{ties}"
        )
    return "\n".join(lines)


def _bench_run(tree: Path, workload: str, seed: int):
    """One ``perfbench/run.py`` run in ``tree``: (metrics, unscaled queries/host-s)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)],
        cwd=tree,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        raise RuntimeError(
            f"perfbench run in {tree} failed ({proc.returncode}):\n"
            + proc.stdout[-2000:]
            + proc.stderr[-2000:]
        )
    unscaled = _UNSCALED.search(proc.stdout)
    return result["metrics"], float(unscaled.group(1)) if unscaled else float("nan")


def run_ab(rev: str, workload: str, seed: int, pairs: int) -> int:
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    sha = subprocess.run(
        ["git", "rev-parse", "--short", rev],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.strip()
    print(f"A/B {workload} seed {seed}: {rev} ({sha}) vs the working tree, {pairs} pairs")
    with tempfile.TemporaryDirectory(prefix="bench-ab-") as tmp:
        base_tree = Path(tmp) / "base"
        base_tree.mkdir()
        # an exported copy, not a worktree: the repository's git state is untouched
        archive = subprocess.run(
            ["git", "archive", sha], cwd=REPO_ROOT, capture_output=True, check=True
        )
        subprocess.run(
            ["tar", "-x", "-C", str(base_tree)], input=archive.stdout, check=True
        )
        runs = {"base": [], "new": []}
        for pair in range(pairs):
            order = ("base", "new") if pair % 2 == 0 else ("new", "base")
            for side in order:
                tree = base_tree if side == "base" else REPO_ROOT
                metrics, unscaled = _bench_run(tree, workload, seed)
                runs[side].append(metrics)
                print(
                    f"  pair {pair + 1:>2}/{pairs} {side:<4} "
                    f"sim_qps {metrics['sim_qps']['value']:>10.1f}  "
                    f"peak_rss_mb {metrics['peak_rss_mb']['value']:>7.1f}  "
                    f"unscaled {unscaled:>10.1f} queries/host-s",
                    flush=True,
                )
    print(format_ab(ab_summary(runs["base"], runs["new"], spec["end_to_end"])))
    return 0


def load_committed(path: Path) -> dict:
    if not path.exists():
        return {}
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"warning: could not read {path}: {exc}", file=sys.stderr)
        return {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="run only the quick preset")
    parser.add_argument("--full", action="store_true", help="run only the full preset")
    parser.add_argument(
        "--fleet",
        action="store_true",
        help="run only the fleet_sim benchmark at the fleet preset (slow: minutes)",
    )
    parser.add_argument(
        "--names",
        default=None,
        help="comma-separated benchmark subset (default: all): "
        + ",".join(BENCHMARKS),
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_perf.json",
        help="output/committed-baseline file (default: BENCH_perf.json)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed fractional regression vs the committed file (default 0.30)",
    )
    parser.add_argument(
        "--no-compare",
        action="store_true",
        help="skip the regression gate against the committed file",
    )
    parser.add_argument(
        "--set-baseline",
        action="store_true",
        help="record this run's normalized numbers as the baseline block",
    )
    parser.add_argument(
        "--dry-run", action="store_true", help="measure and compare but do not write"
    )
    parser.add_argument(
        "--ab",
        metavar="REV",
        default=None,
        help="interleaved A/B of the repository benchmark: REV vs the working tree",
    )
    parser.add_argument("--workload", default=None, help="--ab: the workload to run")
    parser.add_argument("--seed", type=int, default=1, help="--ab: workload seed")
    parser.add_argument("--pairs", type=int, default=10, help="--ab: run pairs")
    args = parser.parse_args(argv)

    if args.ab is not None:
        if args.workload is None:
            parser.error("--ab needs --workload")
        if args.pairs < 1:
            parser.error("--pairs must be >= 1")
        return run_ab(args.ab, args.workload, args.seed, args.pairs)

    if sum([args.quick, args.full, args.fleet]) > 1:
        parser.error(
            "--quick, --full, and --fleet are mutually exclusive (default runs "
            "quick and full)"
        )
    if args.fleet:
        presets = ["fleet"]
        # the fleet preset parameterizes only fleet_sim; never fan it out wider
        names = ["fleet_sim"]
    else:
        presets = (
            ["quick"] if args.quick else ["full"] if args.full else ["quick", "full"]
        )
        names = args.names.split(",") if args.names else None

    score = machine_score()
    print(f"machine score: {score:.2f} (normalization divisor)")

    results = []
    for preset in presets:
        print(f"== preset: {preset} ==")
        for result in run_benchmarks(preset, names=names):
            print(
                f"  {result.key:<24} {result.value:>12.2f} {result.unit:<10} "
                f"(normalized {result.normalized(score):.4f}, "
                f"wall {result.wall_seconds:.2f}s)"
            )
            results.append(result)

    committed = load_committed(args.output)
    committed_results = committed.get("results", {})
    current_normalized = {r.key: r.normalized(score) for r in results}

    exit_code = 0
    if not args.no_compare and committed_results:
        committed_normalized = {
            key: entry["normalized"]
            for key, entry in committed_results.items()
            if isinstance(entry, dict) and "normalized" in entry
        }
        regressions = compare_results(
            current_normalized, committed_normalized, tolerance=args.tolerance
        )
        for reg in regressions:
            print(
                f"REGRESSION: {reg.key} at {reg.ratio:.2f}x of the committed number "
                f"({reg.current:.4f} vs {reg.committed:.4f} normalized)",
                file=sys.stderr,
            )
        if regressions:
            exit_code = 1
        else:
            shared = sorted(set(current_normalized) & set(committed_normalized))
            print(f"regression gate passed ({len(shared)} benchmarks compared)")

    # Merge: presets not run this time keep their committed numbers.
    merged_results = dict(committed_results)
    for result in results:
        merged_results[result.key] = result.as_dict(score)

    baseline = dict(committed.get("baseline", {}))
    if args.set_baseline:
        baseline.update(current_normalized)
        print(f"baseline block set for {len(current_normalized)} benchmarks")

    speedups = {
        key: merged_results[key]["normalized"] / baseline[key]
        for key in sorted(set(merged_results) & set(baseline))
        if baseline[key] > 0
    }
    for key, ratio in speedups.items():
        print(f"  speedup vs baseline: {key:<24} {ratio:.2f}x")

    if exit_code != 0:
        # Never persist regressed numbers: rewriting the file here would make an
        # immediate rerun compare against the regression and pass, defeating the gate.
        print("not writing output: fix the regression (or raise --tolerance) first",
              file=sys.stderr)
        return exit_code

    payload = {
        "schema": SCHEMA,
        "description": (
            "Perf-harness numbers for the reproduction's hot paths; see "
            "src/repro/bench and benchmarks/README.md. 'baseline' holds the "
            "pre-optimization numbers measured by this same harness."
        ),
        "machine_score": score,
        "environment": environment_fingerprint(),
        "results": merged_results,
        "baseline": baseline,
        "speedup_vs_baseline": speedups,
    }
    if not args.dry_run:
        args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.output}")
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
