"""Deterministic call counts per operation, from cProfile ``ncalls``.

    python3 bench/counters.py WORKLOAD SEED WORKDIR

Runs in a fresh interpreter so that no cache from an earlier pass
changes the counts: warms up on the warm-up seed exactly as a timed run
does, then profiles a fixed number of operations from the timed seed and
prints one JSON object of counts per operation.  For ``cli`` an
operation is one in-process ``cosmocap.cli.main`` call (import excluded).
"""

from __future__ import annotations

import contextlib
import cProfile
import io
import json
import sys
from pathlib import Path

import run
import workloads

COUNTED_OPS = {"sweep": 40, "algebra": 400, "cli": 40}

# counter name -> (module file, qualified names); constructors count the
# largest of __new__/__init__/__post_init__ so that a class defining
# several is not counted twice per instance
CONSTRUCTORS = {
    "dimq.Dimension.new_per_op": ("cosmocap/dimq.py", ("Dimension.__new__", "Dimension.__init__", "Dimension.__post_init__")),
    "dimq.Quantity.new_per_op": ("cosmocap/dimq.py", ("Quantity.__new__", "Quantity.__init__", "Quantity.__post_init__")),
    "fractions.Fraction.new_per_op": ("fractions.py", ("Fraction.__new__",)),
}
SUMS = {
    "dimq.Dimension.arith_per_op": ("cosmocap/dimq.py", ("Dimension.__mul__", "Dimension.__truediv__", "Dimension.__pow__")),
    "dimq.DimensionError_per_op": ("cosmocap/dimq.py", ("DimensionError.__init__",)),
    "constants.get_per_op": ("cosmocap/constants.py", ("get",)),
    "constants.planck_time_per_op": ("cosmocap/constants.py", ("planck_time",)),
}


def ncalls(profiler: cProfile.Profile) -> dict[tuple[str, str], int]:
    out: dict[tuple[str, str], int] = {}
    for entry in profiler.getstats():
        code = entry.code
        if isinstance(code, str):  # a builtin
            continue
        path = Path(code.co_filename).as_posix()
        for suffix in {spec[0] for spec in (*CONSTRUCTORS.values(), *SUMS.values())}:
            if path.endswith("/" + suffix):
                key = (suffix, code.co_qualname)
                out[key] = out.get(key, 0) + entry.callcount
    return out


def counts(workload: str, seed: int, workdir: Path) -> dict[str, float]:
    setup_rng, warm_rng, timed_rng = run.rngs(workload, seed)
    api = workloads.Api()
    wl = run.make_workload(workload, api, setup_rng, workdir)
    if workload == "cli":
        from cosmocap.cli import main

        def op(case):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                main(list(case.argv))
    else:
        def op(inp):
            wl.run(api, inp)

    for _ in range(run.WARMUP_OPS[workload]):
        op(wl.draw(warm_rng))
    inputs = [wl.draw(timed_rng) for _ in range(COUNTED_OPS[workload])]
    profiler = cProfile.Profile()
    for inp in inputs:
        profiler.enable()
        try:
            op(inp)
        except Exception:  # failures are the timed run's business; count the work
            pass
        finally:
            profiler.disable()
    calls = ncalls(profiler)
    n = len(inputs)
    result = {}
    for name, (suffix, quals) in CONSTRUCTORS.items():
        result[name] = max(calls.get((suffix, q), 0) for q in quals) / n
    for name, (suffix, quals) in SUMS.items():
        result[name] = sum(calls.get((suffix, q), 0) for q in quals) / n
    return result


if __name__ == "__main__":
    name, seed_text, workdir_text = sys.argv[1:4]
    sys.path.insert(0, str(run.SRC))
    print(json.dumps(counts(name, int(seed_text), Path(workdir_text))))
