"""Smoke tests for developer tools that no other tier-1 test runs.

``tools/profile_round.py`` wraps named methods (its "seams") of the scheduling
round by attribute name.  A refactor that renames or removes one of them breaks
the tool without failing any library test, so every scenario runs here at the
smallest preset and the round's hot seams must report calls.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

PROFILE_ROUND = Path(__file__).resolve().parents[2] / "tools" / "profile_round.py"

#: Seams each scenario must pass through at least once.
EXPECTED_SEAMS = {
    # every smoke round of these three holds one query: scalar predictions only
    "serving": (
        "policy schedule (whole round)",
        "column refresh (incremental)",
        "single-query scorer",
        "latency prediction (scalar)",
        "dispatch commit",
    ),
    "multi_model": (
        "policy schedule (joint round)",
        "column refresh (incremental)",
        "single-query scorer",
        "latency prediction (scalar)",
        "dispatch commit",
    ),
    "gray": (
        "policy schedule (whole round)",
        "column refresh (incremental)",
        "single-query scorer",
        "dispatch commit",
        "health scoring (completions)",
        "health check handler",
    ),
    "pipeline": (
        "policy schedule (joint round)",
        "row snapshot (pending arrays)",
        "single-query scorer",
        "matrix build (joint assemble)",
        "assignment solve (round solver)",
        "pipeline doom check",
        "pipeline laxity (per row)",
    ),
}


def _run(*args):
    return subprocess.run(
        [sys.executable, str(PROFILE_ROUND), *args],
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    ).stdout


def test_every_scenario_is_covered():
    choices = re.search(r"--scenario \{([\w,]+)\}", _run("--help"))
    assert choices is not None
    assert set(choices.group(1).split(",")) == set(EXPECTED_SEAMS)


@pytest.mark.parametrize("scenario", sorted(EXPECTED_SEAMS))
def test_profile_round_smoke(scenario):
    out = _run("--preset", "smoke", "--repeats", "1", "--scenario", scenario)
    lines = out.splitlines()
    header = next(i for i, line in enumerate(lines) if line.startswith("phase"))
    calls = {}
    for line in lines[header + 1 :]:
        if not line.strip():
            break
        # rows are "<label padded to 34> <calls> <total s> <% of run> <us/round>"
        calls[line[:34].rstrip()] = int(line[34:].split()[0])
    for seam in EXPECTED_SEAMS[scenario]:
        assert calls.get(seam, 0) > 0, (seam, out)


def _bench_tool():
    import importlib.util

    path = Path(__file__).resolve().parents[2] / "tools" / "bench.py"
    spec = importlib.util.spec_from_file_location("bench_tool", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(**series):
    """Canned ``perfbench/run.py`` metrics objects, one per position of the series."""
    count = len(next(iter(series.values())))
    return [
        {name: {"value": values[i]} for name, values in series.items()}
        for i in range(count)
    ]


def test_ab_summary_medians_ratios_and_wins():
    bench = _bench_tool()
    metrics = [
        {"name": "sim_qps", "better": "higher"},
        {"name": "p99_latency_ms", "better": "lower"},
    ]
    base = _runs(sim_qps=[100.0, 110.0, 90.0, 100.0], p99_latency_ms=[5.0, 5.0, 5.0, 5.0])
    new = _runs(sim_qps=[120.0, 121.0, 99.0, 95.0], p99_latency_ms=[5.0, 4.0, 5.0, 6.0])
    qps, p99 = bench.ab_summary(base, new, metrics)

    assert qps["base"] == (97.5, 100.0, 102.5)
    assert qps["new"] == (98.0, 109.5, 120.25)
    ratio, low, high = qps["ratio"]
    assert (low, high) == (0.95, 1.2)
    assert ratio == pytest.approx(1.1)  # median of 1.2, 1.1, 1.1, 0.95
    assert (qps["wins"], qps["ties"], qps["pairs"]) == (3, 0, 4)
    assert qps["beyond_base_iqr"]  # 9.5 apart, base IQR 5

    # lower is better: one win, one loss, two ties
    assert (p99["wins"], p99["ties"]) == (1, 2)
    assert p99["ratio"][1:] == (0.8, 1.2)
    assert not p99["beyond_base_iqr"]

    # 3/4 wins is short of nine tenths; no bound given, so never "worse"
    assert qps["verdict"] == p99["verdict"] == "unresolved"

    table = bench.format_ab([qps, p99]).splitlines()
    assert len(table) == 3
    assert table[1].startswith("sim_qps") and "3/4" in table[1] and "yes" in table[1]
    assert "1/4" in table[2] and "(2 equal)" in table[2]
    assert "unresolved" in table[1] and "verdict" in table[0]


def test_ab_verdicts():
    bench = _bench_tool()
    metrics = [
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.15},
        {"name": "sim_qps", "better": "higher", "bound": 0.25},
        {"name": "served_frac", "better": "higher", "bound": 0.05},
        {"name": "setup_s", "better": "lower", "bound": 0.25},
    ]
    base = _runs(
        peak_rss_mb=[130.0, 130.1, 130.2, 130.0, 130.1, 130.2, 130.0, 130.1, 130.2, 130.1],
        sim_qps=[100.0] * 10,
        served_frac=[1.0] * 10,
        setup_s=[1.0, 1.1, 0.9, 1.0, 1.2, 0.8, 1.0, 1.1, 0.9, 1.0],
    )
    new = _runs(
        # 9 of 10 pairs won, one tie: wins count against all pairs run
        peak_rss_mb=[120.0] * 9 + [130.1],
        sim_qps=[70.0] * 10,  # 30% slower, past the 25% bound
        served_frac=[1.0] * 10,  # every pair tied
        setup_s=[0.7] * 8 + [1.3, 1.3],  # 8/10 wins: short of the claim rule
    )
    rss, qps, served, setup = bench.ab_summary(base, new, metrics)
    assert (rss["wins"], rss["ties"], rss["verdict"]) == (9, 1, "claimable")
    assert qps["verdict"] == "worse"
    assert (served["ties"], served["verdict"]) == (10, "unresolved")
    assert (setup["wins"], setup["verdict"]) == (8, "unresolved")

    # 20% slower is inside the 25% bound; a lower-is-better metric worsens upwards
    slower = bench.ab_summary(base, _runs(sim_qps=[80.0] * 10), metrics[1:2])[0]
    assert slower["verdict"] == "unresolved"
    heavier = bench.ab_summary(base, _runs(peak_rss_mb=[200.0] * 10), metrics[:1])[0]
    assert heavier["verdict"] == "worse"


def test_ab_requires_a_workload():
    result = subprocess.run(
        [sys.executable, str(PROFILE_ROUND.parent / "bench.py"), "--ab", "HEAD"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 2 and "--ab needs --workload" in result.stderr


def test_opcode_count_is_deterministic():
    """``--opcodes`` counts exactly: two invocations print the same table."""
    args = ("--opcodes", "--sim-s", "0.05")
    first = _run(*args)
    assert first == _run(*args)
    rows = first.splitlines()[2:]
    assert [row.split()[0] for row in rows] == ["steady", "burst", "churn"]
    for row in rows:
        workload, queries, opcodes, per_query = row.split()
        assert int(queries) > 0 and int(opcodes) > 0


def test_opcode_top_functions_are_deterministic():
    """``--opcodes --top N`` lists N functions per workload, the same in two runs,
    in decreasing exclusive opcodes per query."""
    args = ("--opcodes", "--sim-s", "0.05", "--top", "3")
    first = _run(*args)
    assert first == _run(*args)
    for workload in ("steady", "burst", "churn"):
        section = first.split(f"\n{workload}: top 3 functions")[1]
        rows = section.splitlines()[2:5]
        per_query = [float(row.split()[0]) for row in rows]
        assert len(rows) == 3 and per_query == sorted(per_query, reverse=True)
        assert all(row.rstrip().endswith(")") for row in rows)
