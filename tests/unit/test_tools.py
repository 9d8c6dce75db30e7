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
        "dispatch commit (joint)",
    ),
    "gray": (
        "policy schedule (whole round)",
        "column refresh (incremental)",
        "single-query scorer",
        "dispatch commit (elastic)",
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

    table = bench.format_ab([qps, p99]).splitlines()
    assert len(table) == 3
    assert table[1].startswith("sim_qps") and "3/4" in table[1] and "yes" in table[1]
    assert "1/4" in table[2] and "(2 equal)" in table[2]


def test_ab_requires_a_workload():
    result = subprocess.run(
        [sys.executable, str(PROFILE_ROUND.parent / "bench.py"), "--ab", "HEAD"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 2 and "--ab needs --workload" in result.stderr
