#!/usr/bin/env bash
# Tier-1 CI gate: the full unit/property/regression/integration suite (with the
# deterministic `ci` hypothesis profile) plus the `smoke` benchmark subset (the
# fastest scenario per figure family), so figure-level regressions surface
# without paying for the full benchmark matrix; a clean-tree check that those
# two stages modified no tracked file (untracked and ignored outputs are fine);
# the `bench-smoke` perf stage, which re-measures the hot paths at the quick
# scale and fails on a >30% machine-normalized regression against the committed
# BENCH_perf.json without rewriting it (--dry-run); and the
# `fuzz-smoke` stage, a bounded scenario-fuzzer pass over every serving loop
# plus a full replay of the committed tests/regression/ corpus; and the
# `chaos-smoke` stage, a fault-enabled campaign (unannounced crashes, storms,
# slowdowns, retry budgets, admission control) plus the `chaos`-marked tests;
# and the `pipeline-smoke` stage, a bounded task-graph fuzzing campaign over
# the pipeline serving loop plus an explicit replay of the committed pipeline
# scenarios (the fig20 smoke benchmark runs under `smoke benchmarks` above);
# and the `health-smoke` stage, a gray-failure campaign (permanent
# degradations, flaky windows, zombie servers, health scoring, quarantine
# breakers, hedged dispatch), a gray campaign on spot specs alone with the
# derived spot-disabled identity (the kernel with no market against its
# elastic twin, and a zero-hazard market's service stream), where the spot
# market meets quarantine, plus the `gray`-marked tests and an explicit
# replay of the committed gray scenarios; and the `perfbench-smoke` stage, a
# tiny untraced and traced run of every workload of the repository benchmark
# (perfbench/run.py --smoke), which fails on an invariant violation or a
# simulated outcome that differs between runs; and the `examples-smoke` stage,
# which runs every examples/*.py script (the public simulate_serving,
# simulate_elastic_serving and measure_allowable_throughput entry points at
# their built-in scaled-down settings).  A final clean-tree check repeats
# the first one over the whole run, so a full CI pass leaves tracked files
# untouched.
#
# Usage: tools/ci.sh [extra pytest args...]
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# Tracked-file state (paths plus a hash of their diff), so the clean-tree stage
# below also works on a checkout that starts with local edits.
tracked_state() {
    git status --porcelain --untracked-files=no
    git diff HEAD --no-ext-diff | git hash-object --stdin
}
tracked_before="$(tracked_state)"

echo "== tier-1: unit / property / regression / integration tests =="
python -m pytest tests -x -q --hypothesis-profile=ci "$@"

echo "== smoke benchmarks =="
python -m pytest benchmarks -m smoke -q "$@"

# Fails when any tracked file changed since the start of the run.
check_clean_tree() {
    if [ "$(tracked_state)" != "$tracked_before" ]; then
        echo "tracked files modified by $1:" >&2
        git status --porcelain --untracked-files=no >&2
        exit 1
    fi
}

echo "== clean-tree: the test stages must not modify tracked files =="
check_clean_tree "the test stages"

echo "== bench-smoke: perf regression gate (measures and compares, writes nothing) =="
python tools/bench.py --quick --dry-run

echo "== fuzz-smoke: bounded invariant fuzzing + regression corpus replay =="
python tools/fuzz.py --budget 25 --seed 1
python tools/fuzz.py --corpus

echo "== sweep-smoke: parallel fan-out must be byte-identical to serial =="
python tools/sweep.py --check --seeds 1 2 --workers 2 > /dev/null

echo "== chaos-smoke: fault-enabled fuzzing + chaos-marked tests =="
python tools/fuzz.py --budget 25 --seed 2 --chaos
python -m pytest tests -m chaos -q --hypothesis-profile=ci "$@"

echo "== pipeline-smoke: bounded task-graph fuzzing + pipeline corpus replay =="
python tools/fuzz.py --budget 25 --seed 3 --loop pipeline
python tools/fuzz.py --replay tests/regression/scenarios/pipeline-*.json

echo "== health-smoke: gray-failure fuzzing + gray-marked tests + gray corpus replay =="
python tools/fuzz.py --budget 25 --seed 4 --gray
python tools/fuzz.py --budget 25 --seed 5 --gray --loop spot --derived
python -m pytest tests -m gray -q --hypothesis-profile=ci "$@"
python tools/fuzz.py --replay tests/regression/scenarios/gray-*.json

echo "== perfbench-smoke: the repository benchmark's untraced and traced smoke run =="
python3 perfbench/run.py --smoke > /dev/null

echo "== examples-smoke: every example script runs to completion =="
for example in examples/*.py; do
    echo "   $example"
    python "$example" > /dev/null
done

echo "== clean-tree: the whole run must not modify tracked files =="
check_clean_tree "the CI run"

echo "CI gate passed."
