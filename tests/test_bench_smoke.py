"""Smoke run of each benchmark workload, so the harness does not rot.

One second per workload: it checks that the benchmark still runs against
the code and that every graded operation matches its reference, not how
fast it runs.  One traced run checks that the harness still reports every
per-layer metric ``BENCHMARK.json`` declares, and no other.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(workload, trace):
    argv = [sys.executable, "bench/run.py", "--workload", workload]
    argv += ["--seed", "1", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", ["sweep", "algebra", "cli"])
def test_bench_workload_runs_clean(workload):
    _run(workload, 0)


def test_traced_run_reports_every_declared_layer():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    assert len(declared) == 33
    assert set(_run("sweep", 1)["metrics"]) == {layer["name"] for layer in declared}
