"""Smoke test of the benchmark: a tiny run of every workload prints every metric.

Runs ``perfbench/run.py --smoke`` (one short episode per workload, untraced and
traced) and checks that each workload printed every metric ``BENCHMARK.json``
names, with its unit, and that the outputs passed the correctness checks.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tiny_run_of_every_workload_prints_every_metric_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert json.loads(lines[-1]) == {"correct": True}
    printed = {tuple(line.split()[:3]) for line in lines[:-1]}
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"] + spec["per_layer"]:
            assert (workload["name"], metric["name"], metric["unit"]) in printed
