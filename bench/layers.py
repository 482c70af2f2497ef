"""The traced run: per-layer metrics, ``--trace 1``.

Layers, named after cosmocap's modules:

  L0/L1  dimq        Dimension and Quantity arithmetic
  L2     cosmo, bounds, largenum, baseline, constants: public physics calls
  L3     cosmo.full_report
  L4     cli.main, in process, text and --json
  L5     interpreter start and the import of each module

Counts come from ``counters.py``, run twice in fresh interpreters; the two
must agree exactly.  Times are spans the benchmark puts around batches of
its own calls into each public function, on inputs drawn from the run's
seed; each is the median over rounds of span / batch size.  Import times
come from ``python -X importtime``.  The workload's own loop also runs
here, alternating untraced blocks with blocks whose every cosmocap call
goes through a span, and the gap between the two is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter, perf_counter_ns

import run
import workloads

L01_BATCH, L01_ROUNDS = 100, 40
L23_BATCH, L23_ROUNDS = 8, 24
L4_CASES = 60
L5_REPEATS = 7
OVERHEAD_BLOCK_S = 0.25

IMPORT_MODULES = ("dimq", "constants", "bounds", "cosmo", "largenum", "baseline", "cli")
_SWEEP_POWERS = (Fraction(1, 2), Fraction(1, 4), Fraction(3, 4), Fraction(2), Fraction(3), Fraction(5))


def batch_us(fn, args_list) -> float:
    """One span around len(args_list) calls; mean microseconds per call."""
    start = perf_counter_ns()
    for args in args_list:
        fn(*args)
    return (perf_counter_ns() - start) / 1000.0 / len(args_list)


def _median_rounds(rounds: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}


# ------------------------------------------------------------------ L0/L1


def _operands(workload, api, rng):
    """(a, b, a-dimension partner, power) from the workload's own inputs."""
    if isinstance(workload, workloads.Algebra):
        kw = workload.kwargs
        a = api.Quantity(rng.choice((1, -1)), rng.uniform(-100, 100), api.Dimension(**rng.choice(kw)))
        b = api.Quantity(rng.choice((1, -1)), rng.uniform(-100, 100), api.Dimension(**rng.choice(kw)))
        p = Fraction(rng.choice((1, 3, 5, 7, 11)), rng.choice((1, 3, 5, 7, 9, 11)))
    else:
        a = api.make(workloads.log_uniform(rng), api.MASS_DENSITY)
        b = api.make(workloads.log_uniform(rng), api.TIME)
        p = rng.choice(_SWEEP_POWERS)
    partner = api.Quantity(1, a.log10 + rng.uniform(-20, 20), a.dimension)
    return a, b, partner, p


def l01_times(workload, api, rng) -> dict[str, float]:
    rounds = []
    for _ in range(L01_ROUNDS):
        ops = [_operands(workload, api, rng) for _ in range(L01_BATCH)]
        dims = [(a.dimension, b.dimension) for a, b, _, _ in ops]
        rounds.append({
            "dimq.Dimension.mul_us": batch_us(lambda x, y: x * y, dims),
            "dimq.mul_us": batch_us(api.mul, [(a, b) for a, b, _, _ in ops]),
            "dimq.div_us": batch_us(api.div, [(a, b) for a, b, _, _ in ops]),
            "dimq.pow_rational_us": batch_us(api.pow_rational, [(a, p) for a, _, _, p in ops]),
            "dimq.add_us": batch_us(api.add, [(a, c) for a, _, c, _ in ops]),
        })
    return _median_rounds(rounds)


# ------------------------------------------------------------------ L2/L3


def _scenario_args(sweep: workloads.Sweep, api, rng):
    inp = sweep.draw(rng)
    profile = sweep.profiles[inp.profile]
    species = api.SpeciesTable(tuple(api.Species(*s) for s in inp.species))
    rho, age = api.make(inp.rho, api.MASS_DENSITY), api.make(inp.age, api.TIME)
    hubble = api.make(inp.hubble, api.RATE) if inp.hubble is not None else None
    scenario = api.Scenario(rho=rho, age=age, hubble=hubble, species=species, include_gravity=inp.gravity, profile=profile)
    energy = api.Quantity(1, inp.log_E, api.ENERGY)
    spec = api.SystemSpec(
        energy=energy,
        entropy=api.Quantity(1, inp.log_S, api.ENTROPY),
        radius=api.Quantity(1, inp.log_R, api.LENGTH),
    )
    t0 = api.zero(api.TIME) if inp.log_t0 is None else api.Quantity(1, inp.log_t0, api.TIME)
    fleet = api.FleetSpec.from_counts(*(10.0 ** rng.uniform(0, 12) for _ in range(5)))
    return dict(
        rho=rho, age=age, hubble=scenario.hubble, species=species, profile=profile,
        scenario=scenario, energy=energy, spec=spec, t0=t0, fleet=fleet,
    )


def l23_times(sweep: workloads.Sweep, api, rng) -> dict[str, float]:
    rounds = []
    for _ in range(L23_ROUNDS):
        xs = [_scenario_args(sweep, api, rng) for _ in range(L23_BATCH)]
        rounds.append({
            "cosmo.ops_matter_us": batch_us(api.ops_matter, [(x["rho"], x["age"], x["profile"]) for x in xs]),
            "cosmo.bits_matter_us": batch_us(api.bits_matter, [(x["rho"], x["age"], x["species"], x["profile"]) for x in xs]),
            "cosmo.blackbody_temperature_us": batch_us(api.blackbody_temperature, [(x["rho"], x["species"], x["profile"]) for x in xs]),
            "cosmo.inflation_bounds_us": batch_us(api.inflation_bounds, [(x["hubble"], x["profile"]) for x in xs]),
            "cosmo.ops_radiation_us": batch_us(api.ops_radiation, [(x["energy"], x["age"], x["t0"], x["profile"]) for x in xs]),
            "largenum.identities_us": batch_us(api.identities, [(x["rho"], x["age"], x["profile"]) for x in xs]),
            "bounds.system_limits_us": batch_us(api.system_limits, [(x["spec"], x["profile"]) for x in xs]),
            "baseline.fleet_ops_us": batch_us(api.fleet_ops, [(x["fleet"],) for x in xs]),
            "cosmo.full_report_us": batch_us(api.full_report, [(x["scenario"],) for x in xs]),
        })
    return _median_rounds(rounds)


# ------------------------------------------------------------------ L4


def l4_times(cli: workloads.Cli, rng) -> dict[str, float]:
    from cosmocap.cli import main

    times = {"text": [], "json": []}
    while min(len(v) for v in times.values()) < L4_CASES:
        case = cli.draw(rng)
        if case.code != 0:
            continue
        mode = "json" if "--json" in case.argv else "text"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            start = perf_counter_ns()
            main(list(case.argv))
            times[mode].append((perf_counter_ns() - start) / 1000.0)
    return {
        "cli.main_text_us": statistics.median(times["text"]),
        "cli.main_json_us": statistics.median(times["json"]),
    }


# ------------------------------------------------------------------ L5


def _importtime() -> dict[str, float]:
    """Self and top-level cumulative import times (ms) of one fresh start."""
    err = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import cosmocap, cosmocap.cli"],
        env=run.child_env(), cwd=run.ROOT, capture_output=True, text=True, check=True,
    ).stderr
    out = {"import.cosmocap.cli_ms": 0.0}
    for line in err.splitlines():
        parts = line.split(":", 1)[1].split("|") if line.startswith("import time:") else []
        if len(parts) != 3:
            continue
        self_us, cumulative_us, name_field = parts
        if not self_us.strip().isdigit():
            continue  # the header line
        name = name_field.strip()
        top_level = len(name_field) - len(name_field.lstrip()) == 1
        if top_level and (name == "cosmocap" or name.startswith("cosmocap.")):
            out["import.cosmocap.cli_ms"] += int(cumulative_us) / 1000.0
        module = name.rsplit(".", 1)[-1]
        if name.startswith("cosmocap.") and module in IMPORT_MODULES:
            out[f"import.cosmocap.{module}_self_ms"] = int(self_us) / 1000.0
    return out


def l5_times() -> dict[str, float]:
    rounds = []
    for i in range(L5_REPEATS + 1):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=run.ROOT, check=True)
        bare_ms = (perf_counter() - start) * 1000.0
        imports = _importtime()
        if i:  # the first start may write bytecode caches
            rounds.append({"import.interpreter_ms": bare_ms, **imports})
    return _median_rounds(rounds)


# ------------------------------------------------------------------ counts


def counter_pass(workload: str, seed: int, workdir: Path) -> dict[str, float]:
    workdir.mkdir()
    out = subprocess.run(
        [sys.executable, str(run.BENCH / "counters.py"), workload, str(seed), str(workdir)],
        env=run.child_env(), cwd=run.ROOT, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


# ------------------------------------------------------------------ overhead


def overhead(loop: "run.Loop", traced_api, rng, seconds: float) -> float:
    """Percent by which spans on every call slow the median operation."""
    plain, traced = [], []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or loop.n < loop.graded:
        for api, sink in ((None, plain), (traced_api, traced)):
            block_end = perf_counter() + OVERHEAD_BLOCK_S
            while perf_counter() < block_end:
                sink.append(loop.one(rng, api))
    return (statistics.median(traced) / statistics.median(plain) - 1.0) * 100.0


# ------------------------------------------------------------------ run


def traced_run(args, workdir: Path) -> dict:
    first, second = (counter_pass(args.workload, args.seed, workdir / f"counts{i}") for i in (0, 1))
    repeat = first == second

    setup_rng, warm_rng, timed_rng = run.rngs(args.workload, args.seed)
    api = workloads.Api()
    wl = run.make_workload(args.workload, api, setup_rng, workdir)
    loop = run.Loop(wl, api, run.graded_ops(args.workload, args.seconds / 2))
    loop.warm(warm_rng, run.WARMUP_OPS[args.workload])
    tracer = workloads.Tracer()
    overhead_pct = overhead(loop, workloads.Api(tracer), timed_rng, args.seconds / 2)

    # layer probes draw from their own streams of this seed
    probe_rng = {k: run.rngs(f"{args.workload}/{k}", args.seed) for k in ("l01", "l23", "l4")}
    sweep = wl if isinstance(wl, workloads.Sweep) else workloads.Sweep(api, probe_rng["l23"][0], workdir, run.SRC)
    cli = wl if isinstance(wl, workloads.Cli) else workloads.Cli(api, probe_rng["l4"][0], workdir, run.SRC)
    values = {
        **first,
        **l01_times(wl, api, probe_rng["l01"][2]),
        **l23_times(sweep, api, probe_rng["l23"][2]),
        **l4_times(cli, probe_rng["l4"][2]),
        **l5_times(),
        "trace.overhead_pct": overhead_pct,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
    print(f"workload {args.workload}, seed {args.seed}, trace 1: {loop.n} operations checked, "
          f"the first {loop.graded} graded ({loop.failed} graded failed; {loop.late_failed} failed "
          f"after the graded ones; {loop.wrong} wrong values in all)")
    print(f"  counters repeat exactly across two fresh runs: {repeat}")
    if not repeat:
        print(f"  first: {first}\n  second: {second}")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    print("  spans in the traced blocks of the loop (calls, mean us):")
    for name, (count, total_ns) in sorted(tracer.totals.items()):
        if count:
            print(f"    {name:<42} {count:>10} {total_ns / count / 1000.0:>12.2f}")
    if loop.first_problem is not None:
        print("  " + loop.describe_problem())
    return {"correct": repeat and loop.wrong == 0, "attempted": loop.graded, "failed": loop.failed, "metrics": metrics}


def _per_layer_units() -> dict[str, str]:
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc["per_layer"]}


PER_LAYER_UNITS = _per_layer_units()
