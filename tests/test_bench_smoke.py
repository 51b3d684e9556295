"""Smoke test of the benchmark harness: one pendulum_kan pass and its JSON line."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_harness_runs_and_reports_schema():
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "pendulum_kan", "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert {"correct", "attempted", "failed", "metrics"} <= result.keys()
    for name in ("wall_s", "setup_s", "peak_rss_mb"):
        metric = result["metrics"][name]
        assert isinstance(metric["value"], (int, float))
        assert isinstance(metric["unit"], str)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
