"""Smoke run of each benchmark workload, so the harness does not rot.

One second per workload: it checks that the benchmark still runs against
the code and that every graded operation matches its reference, not how
fast it runs.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["sweep", "algebra", "cli"])
def test_bench_workload_runs_clean(workload):
    argv = [sys.executable, "bench/run.py", "--workload", workload]
    argv += ["--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
