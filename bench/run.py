"""cosmocap benchmark: one closed-loop client, one workload per run.

    python3 bench/run.py --workload sweep|algebra|cli --seed N --seconds S --trace 0|1

Run from the root of a source checkout; cosmocap is imported from
``src/``.  With ``--trace 0`` the run times operations for S seconds and
reports the end-to-end metrics; with ``--trace 1`` it reports per-layer
metrics instead (see ``layers.py``).  Every operation's output is checked
against ``reference.py`` outside the timed region.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
from array import array
from pathlib import Path
from time import perf_counter, perf_counter_ns

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# room for every latency of one run, allocated up front so that the
# benchmark's own memory does not grow with the number of operations
MAX_OPS = 1 << 20
SETUP_REPEATS = 15
SLICES = 10

_IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import cosmocap, cosmocap.cli; "
    "print(time.perf_counter() - t)"
)


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def rngs(workload: str, seed: int):
    """Set-up, warm-up and timed streams.  Warm-up draws from its own seed
    so that nothing keyed on inputs can pre-answer the timed operations."""
    return tuple(random.Random(f"{workload}/{part}/{seed}") for part in ("setup", "warmup", "timed"))


def import_seconds() -> float:
    """Time one fresh interpreter spends importing cosmocap and its CLI."""
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_TIMER],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    return float(out)


class CpuRotation:
    """Moves the process round the CPUs it may use, a short spell on each.

    On a shared machine one CPU can run markedly slower than another for
    minutes at a time; rotating makes every run sample each CPU for the
    same share of its time, so runs compare with each other.
    """

    PERIOD_S = 0.5

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.turn = 0
        self.next = 0.0

    def tick(self, now: float) -> None:
        if now >= self.next and len(self.cpus) > 1:
            os.sched_setaffinity(0, {self.cpus[self.turn % len(self.cpus)]})
            self.turn += 1
            self.next = now + self.PERIOD_S

    def restore(self) -> None:
        os.sched_setaffinity(0, set(self.cpus))


def make_workload(name: str, api, setup_rng, workdir: Path):
    cls = {"sweep": workloads.Sweep, "algebra": workloads.Algebra, "cli": workloads.Cli}[name]
    return cls(api, setup_rng, workdir, SRC)


WARMUP_OPS = {"sweep": 50, "algebra": 500, "cli": 2}

# Graded operations per second of run: about half of what a 2-CPU machine
# gets through, so a run nearly always reaches them before its deadline.
GRADED_PER_S = {"sweep": 40, "algebra": 800, "cli": 3}


def graded_ops(workload: str, seconds: float) -> int:
    """How many operations from the start of the timed stream a run grades.

    ``attempted`` and ``failed`` count these and no others, and every run
    completes them, so two runs on one seed report the same counts however
    fast the machine was.
    """
    return max(1, int(GRADED_PER_S[workload] * seconds))


class Loop:
    """Closed loop: draw, time one operation, check it, repeat."""

    def __init__(self, workload, api, graded: int):
        self.workload = workload
        self.api = api
        self.graded = graded
        self.latency_us = array("d", [0.0]) * MAX_OPS
        self.n = 0
        self.failed = 0
        self.late_failed = 0
        self.wrong = 0
        self.first_problem = None

    def one(self, rng, api=None) -> float:
        wl, api = self.workload, api or self.api
        inp = wl.draw(rng)
        start = perf_counter_ns()
        try:
            out = wl.run(api, inp)
        except Exception as exc:  # an operation that raises is a failed one
            elapsed = (perf_counter_ns() - start) / 1000.0
            verdict, out = workloads.FAILED, exc
        else:
            elapsed = (perf_counter_ns() - start) / 1000.0
            try:
                verdict = wl.check(self.api, inp, out)
            except Exception as exc:  # output the checker cannot read
                verdict, out = workloads.WRONG, exc
        if self.n < MAX_OPS:
            self.latency_us[self.n] = elapsed
        if verdict != workloads.OK:
            if self.n < self.graded:
                self.failed += 1
            else:
                self.late_failed += 1
            self.wrong += verdict.startswith(workloads.WRONG)
            if self.first_problem is None:
                self.first_problem = (verdict, inp, out)
        self.n += 1
        return elapsed

    def warm(self, rng, count: int) -> None:
        saved = (self.n, self.failed, self.late_failed, self.wrong, self.first_problem)
        for _ in range(count):
            self.one(rng)
        self.n, self.failed, self.late_failed, self.wrong, self.first_problem = saved

    def until(self, rng, seconds: float, samples: int = 0, sample=None) -> None:
        """Operations for ``seconds``, and on past them until the graded ones
        are done; ``sample()`` runs ``samples`` times at even intervals in
        between, outside any operation's timing."""
        rotation = CpuRotation()
        start = perf_counter()
        deadline = start + seconds
        taken = 0
        try:
            while ((now := perf_counter()) < deadline or self.n < self.graded) and self.n < MAX_OPS:
                rotation.tick(now)
                if taken < samples and now >= start + taken * seconds / samples:
                    sample()
                    taken += 1
                self.one(rng)
            while taken < samples:
                sample()
                taken += 1
        finally:
            rotation.restore()

    def latencies(self) -> list[float]:
        """In the order the operations ran."""
        return self.latency_us[: min(self.n, MAX_OPS)].tolist()

    def describe_problem(self) -> str:
        if self.first_problem is None:
            return ""
        verdict, inp, out = self.first_problem
        what = getattr(inp, "argv", None) or type(inp).__name__
        if isinstance(out, tuple) and len(out) == 3:  # a cli process
            out = f"exit {out[0]}: {out[2].decode('utf-8', 'replace').strip()[:200]}"
        elif not isinstance(out, Exception):
            out = ""
        return f"first {verdict} operation: {what} {out}"[:400]


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1)."""
    index = max(0, min(len(sorted_values) - 1, int(q * len(sorted_values) + 0.5) - 1))
    return sorted_values[index]


def sliced_percentile(values: list[float], q: float) -> float:
    """The q-percentile of each of SLICES consecutive slices of the run,
    averaged.  On a shared machine whole seconds run markedly slower, so
    latencies form a fast and a slow cluster; a plain median sits in the
    gap between them and jumps with the share of slow seconds, while this
    mean moves smoothly with it."""
    k = min(SLICES, len(values))
    edges = [len(values) * i // k for i in range(k + 1)]
    return statistics.fmean(percentile(sorted(values[a:b]), q) for a, b in zip(edges, edges[1:]))


def end_to_end(loop: Loop, workload: str, setup_s: float) -> dict[str, dict]:
    # read before collecting the latencies, which builds a list as long as the run
    if workload == "cli":
        rss_kib = loop.workload.peak_rss_kib
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    lat = loop.latencies()
    return {
        "throughput_ops_per_s": {"value": len(lat) / (sum(lat) / 1e6), "unit": "1/s"},
        "latency_p50_us": {"value": sliced_percentile(lat, 0.5), "unit": "us"},
        "latency_p90_us": {"value": sliced_percentile(lat, 0.9), "unit": "us"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss_kib / 1024.0, "unit": "MB"},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "algebra", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "cosmocap" / "__init__.py").is_file():
        print(f"error: no cosmocap sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cosmocap

    if Path(cosmocap.__file__).resolve().parent != SRC / "cosmocap":
        print(f"error: imported cosmocap from {cosmocap.__file__}, not {SRC}", file=sys.stderr)
        return 2

    # a terminated run still removes its scratch directory on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    setup_rng, warm_rng, timed_rng = rngs(args.workload, args.seed)
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        if args.trace:
            import layers

            result = layers.traced_run(args, workdir)
        else:
            api = workloads.Api()
            loop = Loop(make_workload(args.workload, api, setup_rng, workdir), api,
                        graded_ops(args.workload, args.seconds))
            loop.warm(warm_rng, WARMUP_OPS[args.workload])
            # set-up is timed in fresh interpreters spread over the run, so
            # it sees the same machine as the operations
            imports = []
            loop.until(timed_rng, args.seconds, SETUP_REPEATS, lambda: imports.append(import_seconds()))
            result = {
                "correct": loop.wrong == 0,
                "attempted": loop.graded,
                "failed": loop.failed,
                "metrics": end_to_end(loop, args.workload, statistics.median(imports)),
            }
            report(args, result, loop)
    print(json.dumps(result))
    return 0


def report(args, result: dict, loop: Loop) -> None:
    """Human-readable lines ahead of the JSON: every metric with its unit,
    the sample count, and the failure share as measured."""
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{loop.n} operations timed (latency samples: {min(loop.n, MAX_OPS)}), "
          f"the first {loop.graded} graded")
    for name, m in result["metrics"].items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    share = result["failed"] / max(1, result["attempted"])
    print(f"  {'failed_share':<44} {share:>14.6g} share "
          f"({result['failed']} graded failed; {loop.late_failed} failed after the graded ones; "
          f"{loop.wrong} wrong values in all)")
    if loop.first_problem is not None:
        print("  " + loop.describe_problem())


if __name__ == "__main__":
    sys.exit(main())
