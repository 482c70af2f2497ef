"""The three workloads: input generators, the operation, and its check.

Each workload draws its inputs from a ``random.Random``; cosmocap only
ever sees the generated values.  ``run`` is the timed operation.
``check`` compares its output with ``reference`` and returns one of
OK, FAILED (an unexpected exception or exit code) or WRONG (a value or
dimension outside the reference tolerance); it runs outside the timed
region.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter_ns

import reference as ref
from reference import Expected

# a wrong verdict may carry the name of the output that was off: "wrong <key>"
OK, FAILED, WRONG = "ok", "failed", "wrong"

# every input magnitude is drawn log-uniform over this many decades either
# side of 1: the whole range a double can carry into cosmocap
DOMAIN_DECADES = 300.0

_STATISTICS = ("boson", "fermion")


def log_uniform(rng, decades: float = DOMAIN_DECADES) -> float:
    return 10.0 ** rng.uniform(-decades, decades)


# ------------------------------------------------------------------ tracing


class Tracer:
    """Spans around the benchmark's own calls into cosmocap.

    Each span's duration is added to its name's total as it closes, so a
    long traced run holds one pair of numbers per name, not every span.
    """

    def __init__(self):
        self.totals: dict[str, list[int]] = {}  # name -> [count, total ns]

    def wrap(self, name: str, fn):
        total = self.totals.setdefault(name, [0, 0])

        def traced(*args, **kwargs):
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                total[1] += perf_counter_ns() - start
                total[0] += 1

        return traced


class Api:
    """The cosmocap names the workloads call, optionally wrapped in spans.

    Workload code calls only through this object, so the same operation
    runs traced and untraced.
    """

    CALLS = {
        "cosmocap": (
            "Scenario", "Species", "SpeciesTable", "SystemSpec", "FleetSpec",
            "LogInterval", "Quantity", "Dimension", "make", "zero", "full_report",
            "system_limits", "ops_radiation", "bits_radiation", "ops_matter",
            "bits_matter", "blackbody_temperature", "inflation_bounds",
            "identities", "fleet_ops", "mul", "div", "pow_rational", "add", "sub",
        ),
        "cosmocap.dimq": ("quantity_to_jsonable", "quantity_from_jsonable"),
    }
    VALUES = (
        "MASS_DENSITY", "TIME", "RATE", "ENERGY", "ENTROPY", "LENGTH",
        "TEMPERATURE", "DimensionError", "PAPER", "CODATA", "load_profile",
    )

    def __init__(self, tracer: Tracer | None = None):
        import importlib

        import cosmocap

        for module_name, names in self.CALLS.items():
            module = importlib.import_module(module_name)
            for name in names:
                fn = getattr(module, name)
                if tracer is not None:
                    home = getattr(fn, "__module__", module_name).rsplit(".", 1)[-1]
                    fn = tracer.wrap(f"{home}.{name}", fn)
                setattr(self, name, fn)
        for name in self.VALUES:
            setattr(self, name, getattr(cosmocap, name))


# ------------------------------------------------------------------ profiles


def write_profile(rng, path: Path) -> dict[str, float]:
    """A fresh-name profile file: every constant moved up to two decades
    off its CODATA value.  Returns the raw floats the reference uses."""
    raw = {
        cid: value * 10.0 ** rng.uniform(-2.0, 2.0)
        for cid, value in ref.BUILTIN_PROFILES["codata"].items()
    }
    dims = {cid: ref.dims_mapping(ref.SYMBOL_DIMS[cid]) for cid in raw}
    doc = {
        "name": "bench",
        "constants": {cid: {"value": v, "dims": dims[cid]} for cid, v in raw.items()},
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    return raw


def draw_species(rng) -> list[tuple[str, int, int, str]]:
    return [
        (f"s{i}", rng.randint(1, 4), rng.randint(1, 2), rng.choice(_STATISTICS))
        for i in range(rng.randint(1, 6))
    ]


def species_weight(species) -> Fraction:
    """n_eff summed: polarizations x antiparticles, fermions at 7/8."""
    return sum(
        (Fraction(p * a) * (Fraction(7, 8) if s == "fermion" else 1) for _, p, a, s in species),
        Fraction(0),
    )


def _path(obj, dotted: str):
    return functools.reduce(getattr, dotted.split("."), obj)


def flag_ok(expected, got) -> bool:
    """A boolean verdict; ``expected`` None means too close to call."""
    return expected is None or expected == got


# ------------------------------------------------------------------ sweep


class SweepInput:
    __slots__ = (
        "profile", "rho", "age", "hubble", "species", "gravity", "growth",
        "logs", "log_E", "log_S", "log_R", "log_T", "log_t0",
    )


class Sweep:
    """full_report plus system_limits, ops_radiation and bits_radiation on
    the same scenario, drawn log-uniform over the whole domain."""

    def __init__(self, api: Api, setup_rng, workdir: Path, src: Path):
        profile_path = workdir / "sweep_profile.json"
        file_raw = write_profile(setup_rng, profile_path)
        self.raw = {**ref.BUILTIN_PROFILES, "bench": file_raw}
        self.profiles = {"paper": api.PAPER, "codata": api.CODATA, "bench": api.load_profile(str(profile_path))}
        self.plogs = {k: ref.profile_logs(v) for k, v in self.raw.items()}

    def draw(self, rng) -> SweepInput:
        inp = SweepInput()
        inp.profile = rng.choice(("paper", "codata", "bench"))
        inp.rho = log_uniform(rng)
        inp.age = log_uniform(rng)
        inp.hubble = log_uniform(rng) if rng.random() < 0.5 else None
        inp.species = draw_species(rng)
        inp.gravity = rng.random() < 0.5
        inp.growth = (rng.uniform(-50, 50), rng.uniform(0, 20)) if rng.random() < 0.5 else None
        logs = dict(self.plogs[inp.profile])
        logs["rho"] = math.log10(inp.rho)
        logs["t"] = math.log10(inp.age)
        logs["H"] = -logs["t"] if inp.hubble is None else math.log10(inp.hubble)
        weight = species_weight(inp.species)
        inp.log_E = ref.HORIZON_ENERGY.log10(logs)
        inp.log_S = ref.horizon_entropy(weight).log10(logs)
        inp.log_R = ref.HORIZON_RADIUS.log10(logs)
        inp.log_T = ref.blackbody_temperature(weight).log10(logs)
        # radiation window: from the big bang, or from u decades before t1
        inp.log_t0 = None if rng.random() < 0.5 else logs["t"] - 30.0 * (1.0 - rng.random())
        logs["E1"] = inp.log_E
        logs["temp"] = inp.log_T
        inp.logs = logs
        return inp

    def run(self, api: Api, inp: SweepInput):
        profile = self.profiles[inp.profile]
        species = api.SpeciesTable(tuple(api.Species(*s) for s in inp.species))
        scenario = api.Scenario(
            rho=api.make(inp.rho, api.MASS_DENSITY),
            age=api.make(inp.age, api.TIME),
            hubble=None if inp.hubble is None else api.make(inp.hubble, api.RATE),
            species=species,
            include_gravity=inp.gravity,
            profile=profile,
            inflation_growth=None if inp.growth is None else api.LogInterval(*inp.growth),
        )
        report = api.full_report(scenario)
        energy = api.Quantity(1, inp.log_E, api.ENERGY)
        spec = api.SystemSpec(
            energy=energy,
            entropy=api.Quantity(1, inp.log_S, api.ENTROPY),
            radius=api.Quantity(1, inp.log_R, api.LENGTH),
        )
        limits = api.system_limits(spec, profile)
        t0 = api.zero(api.TIME) if inp.log_t0 is None else api.Quantity(1, inp.log_t0, api.TIME)
        rad_ops = api.ops_radiation(energy, scenario.age, t0, profile)
        temperature = api.Quantity(1, inp.log_T, api.TEMPERATURE)
        rad_bits = api.bits_radiation(energy, temperature, species, profile)
        return report, limits, rad_ops, rad_bits

    def check(self, api: Api, inp: SweepInput, out) -> str:
        report, limits, rad_ops, rad_bits = out
        logs = inp.logs
        weight = species_weight(inp.species)
        pairs = [(k, m, _path(report, k)) for k, m in ref.report_monos(weight, inp.gravity).items()]
        limit_monos = ref.system_limit_monos(ref.HORIZON_ENERGY, ref.horizon_entropy(weight), ref.HORIZON_RADIUS)
        pairs += [("limits." + k, m, _path(limits, k)) for k, m in limit_monos.items()]
        bits_mono, above_gut = ref.bits_radiation(inp.log_T, logs)
        pairs.append(("radiation.bits", bits_mono, rad_bits.bits))
        for key, mono, q in pairs:
            if not Expected.of(mono, logs).matches(api.quantity_to_jsonable(q)):
                return f"{WRONG} {key}"
        mono, tail = ref.ops_radiation(logs["t"], inp.log_t0)
        if not Expected.of(mono, logs, tail).matches(api.quantity_to_jsonable(rad_ops)):
            return f"{WRONG} radiation.ops"

        ratio = Expected.of(limit_monos["bekenstein.ratio"], logs)
        below = ref.verdict(ref.BEKENSTEIN_THRESHOLD_LOG10 - ratio.log10, ratio.tol)
        if not flag_ok(below, limits.bekenstein.below_bound):
            return f"{WRONG} limits.bekenstein.below_bound"
        if not flag_ok(above_gut, rad_bits.above_gut_threshold):
            return f"{WRONG} radiation.above_gut_threshold"
        total = report.inflation_total_ops
        if inp.growth is None:
            return OK if total is None else f"{WRONG} inflation_total_ops"
        c, h = inp.growth
        if (
            abs(total.center - 2 * c) > 1e-12
            or abs(total.halfwidth - 2 * h) > 1e-12
            or not total.dimension.is_dimensionless
        ):
            return f"{WRONG} inflation_total_ops"
        return OK


# ------------------------------------------------------------------ algebra

MUL, DIV, POW, ADD, SUB, BAD_ADD = range(6)
_AXIS_FIELDS = ("length", "mass", "time", "temperature", "charge2")
_ROUND = 2.3e-16  # a little over one unit roundoff


class AlgebraInput:
    __slots__ = ("sign", "log", "dims", "steps", "expected", "raises")


class Algebra:
    """Chains of mul, div, pow_rational, add/sub and a JSON round trip over
    a pool of thousands of rational exponent vectors on all five axes."""

    POOL = 4096

    def __init__(self, api: Api, setup_rng, workdir: Path, src: Path):
        seen = set()
        self.pool: list[tuple[Fraction, ...]] = []
        while len(self.pool) < self.POOL:
            vec = tuple(
                Fraction(0) if setup_rng.random() < 0.3
                else Fraction(setup_rng.randint(-12, 12), setup_rng.randint(1, 12))
                for _ in _AXIS_FIELDS
            )
            if vec not in seen:
                seen.add(vec)
                self.pool.append(vec)
        self.kwargs = [dict(zip(_AXIS_FIELDS, vec)) for vec in self.pool]

    def _pick(self, rng, avoid=None) -> int:
        while True:
            j = rng.randrange(len(self.pool))
            if self.pool[j] != avoid:
                return j

    def draw(self, rng) -> AlgebraInput:
        inp = AlgebraInput()
        i = rng.randrange(len(self.pool))
        inp.sign, inp.log, inp.dims = rng.choice((1, -1)), rng.uniform(-100, 100), self.kwargs[i]
        sign, lg, dims = inp.sign, inp.log, self.pool[i]
        err = 0.0  # bound on |log10 error| accumulated so far, in decades
        steps = []
        inp.raises = False
        for _ in range(rng.randint(4, 8)):
            r = rng.random()
            if r < 0.45:
                j = rng.randrange(len(self.pool))
                s, ly = rng.choice((1, -1)), rng.uniform(-100, 100)
                kind = MUL if r < 0.25 else DIV
                sign *= s
                lg = lg + ly if kind == MUL else lg - ly
                dims = tuple(
                    a + b if kind == MUL else a - b for a, b in zip(dims, self.pool[j])
                )
                err += _ROUND * abs(lg)
                steps.append((kind, s, ly, self.kwargs[j]))
            elif r < 0.65:
                while True:
                    p = Fraction(rng.randint(-24, 24), rng.randint(1, 12))
                    if p != 0 and abs(p) <= 2 and (sign > 0 or p.denominator % 2):
                        break
                if sign < 0:
                    sign = -1 if p.numerator % 2 else 1
                lg *= float(p)
                dims = tuple(a * p for a in dims)
                err = abs(float(p)) * err + 2 * _ROUND * abs(lg)
                steps.append((POW, p, None, None))
            else:
                s, ly = rng.choice((1, -1)), lg + rng.uniform(-20, 20)
                kind = ADD if r < 0.825 else SUB
                rs = s if kind == ADD else -s
                new_sign, new_lg, cond = ref.signed_add(sign, lg, rs, ly)
                if new_sign == 0:  # exact cancellation has no log10 to carry on with
                    continue
                err = cond * (err + _ROUND * (abs(lg) + abs(ly))) + _ROUND * abs(new_lg)
                sign, lg = new_sign, new_lg
                steps.append((kind, s, ly, None))
        if rng.random() < 0.1:
            j = self._pick(rng, avoid=dims)
            steps.append((BAD_ADD, 1, lg, self.kwargs[j]))
            inp.raises = True
        inp.steps = steps
        inp.expected = Expected(sign, lg, dims, 1e-9 + 10.0 * err)
        return inp

    def run(self, api: Api, inp: AlgebraInput):
        Quantity, Dimension = api.Quantity, api.Dimension
        x = Quantity(inp.sign, inp.log, Dimension(**inp.dims))
        try:
            for kind, a, b, c in inp.steps:
                if kind == MUL:
                    x = api.mul(x, Quantity(a, b, Dimension(**c)))
                elif kind == DIV:
                    x = api.div(x, Quantity(a, b, Dimension(**c)))
                elif kind == POW:
                    x = api.pow_rational(x, a)
                elif kind == ADD:
                    x = api.add(x, Quantity(a, b, x.dimension))
                elif kind == SUB:
                    x = api.sub(x, Quantity(a, b, x.dimension))
                else:
                    x = api.add(x, Quantity(a, b, Dimension(**c)))
        except api.DimensionError as exc:
            return exc
        return api.quantity_from_jsonable(api.quantity_to_jsonable(x))

    def check(self, api: Api, inp: AlgebraInput, out) -> str:
        if isinstance(out, api.DimensionError):
            return OK if inp.raises else FAILED
        if inp.raises:
            return FAILED
        return OK if inp.expected.matches(api.quantity_to_jsonable(out)) else WRONG


# ------------------------------------------------------------------ cli


class CliCase:
    __slots__ = ("argv", "code", "header", "json", "text", "flags")

    def __init__(self, argv, code=0, header=None):
        self.argv = argv
        self.code = code
        self.header = header
        self.json: dict[str, Expected] = {}
        self.text: dict[str, Expected] = {}
        # JSON values compared exactly (None is null) or, for a tuple, as a
        # log interval's center and halfwidth
        self.flags: dict[str, object] = {}


_TEXT_ROW = re.compile(r"^\s*([^:]+?):\s+(\S+)")
_CONST_ROW = re.compile(r"^\s{2}(\S+)\s+(\S+)")

_REPORT_TEXT = {
    "ops (matter)": "ops_matter",
    "ops (critical)": "ops_critical",
    "ops (with gravity)": "ops_with_gravity",
    "bits (matter)": "bits_matter",
    "bits (holographic)": "bits_holographic",
    "blackbody T": "blackbody_T",
    "entropy (horizon)": "entropy_total",
}
_REPORT_JSON = (
    "ops_matter", "ops_critical", "bits_matter", "bits_holographic", "blackbody_T",
    "large_numbers.alpha", "large_numbers.beta", "large_numbers.gamma",
    "large_numbers.r1", "large_numbers.r2", "large_numbers.r3",
    "inflation.ops_per_sec", "inflation.ops_per_hubble_time", "inflation.bits_horizon",
)
_DEFAULT_FLEET = {
    "n_computers": 1.0e9, "clock_rate_hz": 1.0e9, "ops_per_cycle": 1.0e5,
    "duration_s": 1.0e8, "bits_per_computer": 1.0e12,
}
_FLEET_SYMBOLS = {
    "n_computers": "n_computers", "clock_rate_hz": "clock", "ops_per_cycle": "ops_per_cycle",
    "duration_s": "duration", "bits_per_computer": "bits_per_computer",
}


def _num(x: float) -> str:
    return repr(float(x))


class Cli:
    """Sequential ``python -m cosmocap`` processes over every subcommand,
    text and --json, with a few documented-bad inputs."""

    SCENARIO_FILES = 12
    BAD_SHARE = 0.05

    def __init__(self, api: Api, setup_rng, workdir: Path, src: Path):
        self.workdir = workdir
        self.peak_rss_kib = 0
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.profile_path = str(workdir / "cli_profile.json")
        self.raw = {**ref.BUILTIN_PROFILES, "bench": write_profile(setup_rng, Path(self.profile_path))}
        self.plogs = {k: ref.profile_logs(v) for k, v in self.raw.items()}
        self.scenarios = [self._write_scenario(setup_rng, i) for i in range(self.SCENARIO_FILES)]
        (workdir / "bad_key.json").write_text('{"rho": 1e-27}', encoding="utf-8")
        (workdir / "bad_json.json").write_text('{"rho_kg_m3": 1e-27,', encoding="utf-8")
        (workdir / "bad_rho.json").write_text('{"rho_kg_m3": -1e-27}', encoding="utf-8")

    # -- set-up ---------------------------------------------------------

    def _profile_arg(self, rng):
        """(flag value or None, profile key)."""
        choice = rng.choice((None, "paper", "codata", "bench"))
        if choice is None:
            return None, "paper"
        return (self.profile_path if choice == "bench" else choice), choice

    def _write_scenario(self, rng, i: int) -> dict:
        doc = {
            "rho_kg_m3": log_uniform(rng),
            "age_years": log_uniform(rng),
            "include_gravity": rng.random() < 0.5,
            "species": [
                {"name": n, "polarizations": p, "particle_antiparticle": a, "statistics": s}
                for n, p, a, s in draw_species(rng)
            ],
            "inflation_growth_log10": {"center": rng.uniform(-50, 50), "halfwidth": rng.uniform(0, 20)},
            "fleet": {k: v * 10.0 ** rng.uniform(-3, 3) for k, v in _DEFAULT_FLEET.items()},
        }
        if rng.random() < 0.5:
            doc["hubble_per_s"] = log_uniform(rng)
        key = rng.choice(("paper", "codata", "bench"))
        doc["constants_profile"] = self.profile_path if key == "bench" else key
        path = self.workdir / f"scenario_{i}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return {"path": str(path), "doc": doc, "profile": key}

    # -- drawing --------------------------------------------------------

    def draw(self, rng) -> CliCase:
        if rng.random() < self.BAD_SHARE:
            return self._bad(rng)
        kind = rng.choices(
            ("report", "default", "matter", "radiation", "inflation", "large", "constants", "manmade"),
            weights=(20, 5, 15, 15, 10, 15, 10, 10),
        )[0]
        as_json = rng.random() < 0.5
        case = getattr(self, "_" + kind)(rng)
        if as_json:
            case.argv.append("--json")
            case.text = {}
        else:
            case.json = {}
            case.flags = {}
        return case

    def _with_profile(self, rng, argv: list[str]):
        flag, key = self._profile_arg(rng)
        if flag is not None:
            argv.append(f"--profile={flag}")
        return key, dict(self.plogs[key])

    def _report_case(self, argv, key, logs, doc_like) -> CliCase:
        species = doc_like.get("species")
        weight = 2 if species is None else species_weight(
            [(s["name"], s["polarizations"], s["particle_antiparticle"], s["statistics"]) for s in species]
        )
        case = CliCase(argv, 0, f"capacity report (profile: {key})")
        monos = ref.report_monos(Fraction(weight), doc_like.get("include_gravity", False))
        for path in _REPORT_JSON:
            case.json[path] = Expected.of(monos[path], logs)
        for label, path in _REPORT_TEXT.items():
            case.text[label] = Expected.of(monos[path], logs)
        fleet = doc_like.get("fleet", _DEFAULT_FLEET)
        for k, sym in _FLEET_SYMBOLS.items():
            logs[sym] = math.log10(fleet[k])
        case.json["fleet.ops"] = Expected.of(ref.FLEET_OPS, logs)
        case.json["fleet.bits"] = Expected.of(ref.FLEET_BITS, logs)
        growth = doc_like.get("inflation_growth_log10")
        case.flags["inflation.total_ops"] = (
            None if growth is None else (2 * growth["center"], 2 * growth["halfwidth"])
        )
        return case

    def _report(self, rng) -> CliCase:
        sc = self.scenarios[rng.randrange(len(self.scenarios))]
        argv = ["report", sc["path"]]
        key = sc["profile"]
        flag, flag_key = self._profile_arg(rng)
        if flag is not None:
            argv.append(f"--profile={flag}")
            key = flag_key
        doc = sc["doc"]
        logs = dict(self.plogs[key])
        logs["rho"] = math.log10(doc["rho_kg_m3"])
        logs["t"] = math.fsum((math.log10(doc["age_years"]), logs["year_seconds"]))
        logs["H"] = math.log10(doc["hubble_per_s"]) if "hubble_per_s" in doc else -logs["t"]
        return self._report_case(argv, key, logs, doc)

    def _default(self, rng) -> CliCase:
        argv = ["report", "--default-paper"]
        key, logs = self._with_profile(rng, argv)
        logs["rho"] = math.log10(1e-27)
        logs["t"] = math.fsum((math.log10(1e10), logs["year_seconds"]))
        logs["H"] = -logs["t"]
        return self._report_case(argv, key, logs, {})

    def _matter(self, rng) -> CliCase:
        rho, years = log_uniform(rng), log_uniform(rng)
        argv = ["epoch", "matter", f"--rho={_num(rho)}", f"--age-years={_num(years)}"]
        key, logs = self._with_profile(rng, argv)
        logs["rho"] = math.log10(rho)
        logs["t"] = math.fsum((math.log10(years), logs["year_seconds"]))
        monos = ref.report_monos(Fraction(2), False)
        case = CliCase(argv, 0, f"matter epoch (profile: {key})")
        for label in ("ops (matter)", "ops (critical)", "bits (matter)", "bits (holographic)"):
            path = _REPORT_TEXT[label]
            case.text[label] = case.json[path] = Expected.of(monos[path], logs)
        return case

    def _radiation(self, rng) -> CliCase:
        t1 = log_uniform(rng)
        t0 = 0.0 if rng.random() < 0.5 else t1 * 10.0 ** (-30.0 * (1.0 - rng.random()))
        argv = ["epoch", "radiation"]
        if rng.random() < 0.5:
            e1 = log_uniform(rng)
            argv.append(f"--E1-joules={_num(e1)}")
            e1_mono, e1_extra = ref.S("E1"), 0.0
        else:
            ratio = log_uniform(rng)
            argv.append(f"--E1-ratio={_num(ratio)}")
            e1 = None
            e1_mono = ref.HBAR / ref.S("second")
            e1_extra = math.log10(ratio) + math.log10(math.pi / 2.0)
        argv += [f"--t1={_num(t1)}", f"--t0={_num(t0)}"]
        temp = log_uniform(rng) if rng.random() < 0.5 else None
        if temp is not None:
            argv.append(f"--temperature-k={_num(temp)}")
        key, logs = self._with_profile(rng, argv)
        logs["second"] = 0.0
        logs["E1"] = math.log10(e1) if e1 is not None else e1_mono.log10(logs) + e1_extra
        logs["t"] = math.log10(t1)
        log_t0 = None if t0 == 0.0 else math.log10(t0)
        case = CliCase(argv, 0, f"radiation epoch (profile: {key})")
        e1_exp = Expected.of(e1_mono, logs, e1_extra) if e1 is None else Expected.of(ref.S("E1"), logs)
        case.json["energy_at_t1"] = case.text["E at t1"] = e1_exp
        if log_t0 is not None:
            logs["t0"] = log_t0
            at_t0 = ref.S("E1") * (ref.T / ref.S("t0")) ** Fraction(1, 2)
            case.json["energy_at_t0"] = case.text["E at t0"] = Expected.of(at_t0, logs)
        else:
            case.flags["energy_at_t0"] = None  # JSON null
        mono, tail = ref.ops_radiation(logs["t"], log_t0)
        case.json["ops"] = case.text["ops"] = Expected.of(mono, logs, tail)
        if temp is not None:
            logs["temp"] = math.log10(temp)
            bits, above = ref.bits_radiation(logs["temp"], logs)
            case.json["bits"] = case.text["bits"] = Expected.of(bits, logs)
            if above is not None:
                case.flags["above_gut_threshold"] = above
        else:
            case.flags["bits"] = case.flags["above_gut_threshold"] = None
        return case

    def _inflation(self, rng) -> CliCase:
        argv = ["epoch", "inflation"]
        mode = rng.choice(("H", "growth", "both"))
        hubble = log_uniform(rng) if mode != "growth" else None
        growth = (rng.uniform(-50, 50), rng.uniform(0, 20)) if mode != "H" else None
        if hubble is not None:
            argv.append(f"--H={_num(hubble)}")
        if growth is not None:
            argv.append(f"--growth={_num(growth[0])}:{_num(growth[1])}")
        key, logs = self._with_profile(rng, argv)
        case = CliCase(argv, 0, f"inflation epoch (profile: {key})")
        if hubble is not None:
            logs["H"] = math.log10(hubble)
            monos = ref.report_monos(Fraction(2), False)
            for label, path in (
                ("ops/s", "inflation.ops_per_sec"),
                ("ops per Hubble time", "inflation.ops_per_hubble_time"),
                ("bits in horizon", "inflation.bits_horizon"),
            ):
                case.text[label] = case.json[path.split(".")[1]] = Expected.of(monos[path], logs)
        else:
            case.flags.update(dict.fromkeys(("ops_per_sec", "ops_per_hubble_time", "bits_horizon")))
        case.flags["total_ops"] = None if growth is None else (2 * growth[0], 2 * growth[1])
        return case

    def _large(self, rng) -> CliCase:
        years = log_uniform(rng)
        argv = ["large-numbers", f"--age-years={_num(years)}"]
        rho = log_uniform(rng) if rng.random() < 0.7 else None
        if rho is not None:
            argv.append(f"--rho={_num(rho)}")
        key, logs = self._with_profile(rng, argv)
        logs["t"] = math.fsum((math.log10(years), logs["year_seconds"]))
        if rho is None:  # critical density 1/(G t^2)
            logs["rho"] = -2.0 * logs["t"] - logs["G"]
        else:
            logs["rho"] = math.log10(rho)
        case = CliCase(argv, 0, f"large numbers (profile: {key})")
        monos = ref.report_monos(Fraction(2), False)
        for name in ("alpha", "beta", "gamma", "r1", "r2", "r3"):
            case.json[name] = case.text[name] = Expected.of(monos["large_numbers." + name], logs)
        for name, mono in (("r1", ref.R1), ("r2", ref.R2), ("r3", ref.R3)):
            passes = ref.residual_passes(mono, logs)
            if passes is not None:
                case.flags["pass." + name] = passes
        return case

    def _constants(self, rng) -> CliCase:
        argv = ["constants"]
        key = rng.choice(("paper", "codata", "bench", None))
        if key is not None:
            argv.append(self.profile_path if key == "bench" else key)
        else:
            _, key = self._profile_arg(rng)
            if key != "paper":
                argv.append(f"--profile={self.profile_path if key == 'bench' else key}")
        logs = dict(self.plogs[key])
        case = CliCase(argv, 0, f"constants (profile: {key})")
        for cid in self.raw[key]:
            case.text[cid] = case.json["constants." + cid] = Expected.of(ref.S(cid), logs)
        case.text["planck_time"] = case.json["derived.planck_time"] = Expected.of(ref.PLANCK_TIME, logs)
        case.text["planck_length"] = case.json["derived.planck_length"] = Expected.of(ref.PLANCK_LENGTH, logs)
        case.json["derived.fine_structure_inverse"] = Expected.of(ref.FINE_STRUCTURE_INVERSE, logs)
        case.json["derived.mass_ratio"] = Expected.of(ref.MASS_RATIO, logs)
        return case

    def _manmade(self, rng) -> CliCase:
        argv = ["manmade"]
        fleet = _DEFAULT_FLEET
        if rng.random() < 0.5:
            sc = self.scenarios[rng.randrange(len(self.scenarios))]
            argv.append(f"--scenario={sc['path']}")
            fleet = sc["doc"]["fleet"]
        logs = {sym: math.log10(fleet[k]) for k, sym in _FLEET_SYMBOLS.items()}
        case = CliCase(argv, 0, "man-made computation")
        case.json["ops"] = case.text["ops (recent era)"] = Expected.of(ref.FLEET_OPS, logs)
        hist = ref.FLEET_OPS.scaled(math.log10(2.0))
        case.json["ops_historical"] = case.text["ops (historical)"] = Expected.of(hist, logs)
        case.json["bits"] = case.text["bits"] = Expected.of(ref.FLEET_BITS, logs)
        return case

    def _bad(self, rng) -> CliCase:
        """Documented-bad invocations: 2 for usage, 3 for domain errors."""
        rho, years, t1 = log_uniform(rng), log_uniform(rng), log_uniform(rng)
        options = (
            (["epoch", "matter", f"--rho={_num(-rho)}", f"--age-years={_num(years)}"], 3),
            (["epoch", "radiation", f"--E1-joules={_num(rho)}", f"--t1={_num(t1)}", f"--t0={_num(t1 * 10.0)}"], 3),
            (["report", str(self.workdir / "bad_rho.json")], 3),
            (["report", str(self.workdir / "bad_key.json")], 2),
            (["report", str(self.workdir / "bad_json.json")], 2),
            (["report"], 2),
            (["epoch", "inflation"], 2),
            (["epoch", "inflation", f"--growth={_num(years)}"], 2),
            (["constants", str(self.workdir / "no_such_profile.json")], 2),
        )
        argv, code = options[rng.randrange(len(options))]
        if rng.random() < 0.5:
            argv = argv + ["--json"]
        return CliCase(argv, code)

    # -- running --------------------------------------------------------

    def run(self, api, case: CliCase):
        """One process; returns (exit code, stdout, stderr)."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "cosmocap", *case.argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=self.env,
            cwd=self.workdir,
        )
        try:
            # outputs are a few KiB, far below a pipe's buffer, so reading
            # one stream to its end before the other cannot deadlock
            with proc.stdout, proc.stderr:
                out = proc.stdout.read()
                err = proc.stderr.read()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kib = max(self.peak_rss_kib, usage.ru_maxrss)
        return proc.returncode, out, err

    def check(self, api, case: CliCase, result) -> str:
        code, out, err = result
        if code != case.code:
            return FAILED
        if case.code != 0:
            return OK if not out and b"error" in err else FAILED
        text = out.decode("utf-8")
        if "--json" in case.argv:
            return self._check_json(case, text)
        return self._check_text(case, text)

    def _check_json(self, case: CliCase, text: str) -> str:
        try:
            doc = json.loads(text)
        except ValueError:
            return WRONG
        if doc.get("schema") != 1:
            return f"{WRONG} schema"
        for path, exp in case.json.items():
            if not exp.matches(_dig(doc, path)):
                return f"{WRONG} {path}"
        for path, want in case.flags.items():
            got = _dig(doc, path)
            if isinstance(want, tuple):  # a log interval: center, halfwidth
                ok = (
                    isinstance(got, dict)
                    and abs(got["center"] - want[0]) <= 1e-12
                    and abs(got["halfwidth"] - want[1]) <= 1e-12
                    and got["dims"] == {}
                )
            else:
                ok = got == want
            if not ok:
                return f"{WRONG} {path}"
        return OK

    def _check_text(self, case: CliCase, text: str) -> str:
        lines = text.splitlines()
        if not lines or lines[0] != case.header:
            return f"{WRONG} header"
        seen = {}
        for line in lines[1:]:
            m = _TEXT_ROW.match(line) or _CONST_ROW.match(line)
            if m:
                seen.setdefault(m.group(1).strip(), m.group(2))
        for label, exp in case.text.items():
            if label not in seen or not exp.matches_text(seen[label]):
                return f"{WRONG} {label}"
        return OK


def _dig(doc, path: str):
    """The value at a dotted path; a missing key raises, and counts as wrong."""
    for part in path.split("."):
        doc = doc[part]
    return doc
