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
    "serving": (
        "policy schedule (whole round)",
        "column refresh (incremental)",
        "row snapshot (pending arrays)",
        "single-query fast path",
        "latency prediction",
        "dispatch commit",
    ),
    "multi_model": (
        "policy schedule (joint round)",
        "column refresh (incremental)",
        "row snapshot (pending arrays)",
        "single-query fast path (joint)",
        "dispatch commit (joint)",
    ),
    "gray": (
        "policy schedule (whole round)",
        "column refresh (incremental)",
        "single-query fast path",
        "dispatch commit (elastic)",
        "health scoring (completions)",
        "health check handler",
    ),
    "pipeline": (
        "policy schedule (joint round)",
        "matrix build (joint assemble)",
        "assignment solve (JV)",
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
