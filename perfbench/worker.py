"""One workload in one fresh process: set up, run, check, and report as JSON.

``run.py`` starts this file as a child process per workload, so ``setup_s``
includes interpreter start and imports, and ``peak_rss_mb`` sees only this
workload's heap.  Modes:

``setup``
    Import, build the profile registry, generate the workload, report when ready
    and how fast the host runs the reference chunk just after.
``measure``
    After set-up, repeat passes over the workload's episodes until ``--seconds``
    of host time are spent (at least one pass), then run the invariant check on
    one untimed episode.  Reports the end-to-end metrics.
``trace``
    One untimed pass, then one pass with every layer wrapped (see ``ledger.py``).
    Reports the per-layer ledger and the tracing overhead, and writes the spans
    to ``out/<workload>-seed<seed>.spans.npz`` beside this file.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Exit code for output that fails a correctness check.
WRONG = 3


def _import_program():
    """Import the program from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"repro imported from {repro.__file__}, not from {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--episodes", type=int, default=None)
    parser.add_argument("--sim-s", type=float, default=None)
    args = parser.parse_args(argv)

    _import_program()
    import episodes  # this file's directory is first on sys.path

    bench = episodes.Bench(args.workload, args.seed, args.episodes, args.sim_s)
    ready = time.time()
    slowdown = episodes.host_slowdown()
    if args.mode == "setup":
        print(json.dumps({"ready": ready, "slowdown": slowdown}))
        return 0

    try:
        if args.mode == "measure":
            out = bench.measure(args.seconds)
            out["ready"] = ready
            out["slowdown"] = slowdown
        else:
            out = bench.trace(HERE / "out" / f"{args.workload}-seed{args.seed}.spans.npz")
    except episodes.CorrectnessError as exc:
        print(f"incorrect output: {exc}", file=sys.stderr)
        print(json.dumps({"error": str(exc)}))
        return WRONG
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
