"""Command-line front end.

Subcommands: report, epoch {matter,radiation,inflation}, large-numbers,
constants, manmade.  Output is deterministic: fixed key order, log10
printed with two decimals, small numbers in scientific notation with
four significant digits.  Exit codes: 0 success, 2 bad usage or
unparseable input, 3 domain error (an input the physics rejects).

Each command returns one table: a header line and a list of rows.  The
text renderer prints the header and every row's template; the JSON
renderer collects every keyed cell, in row order, under ``"schema": 1``.
So a value shown both ways is written once.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from . import baseline, cosmo
from .constants import (
    REQUIRED_DIMS,
    ConstantsProfile,
    builtin_profile,
    fine_structure_inverse,
    get,
    load_profile,
    mass_ratio,
    planck_length,
    planck_time,
)
from .dimq import (
    DEFAULT_TOLERANCE_DECADES,
    ENERGY,
    MASS_DENSITY,
    ONE,
    RATE,
    TEMPERATURE,
    TIME,
    LogInterval,
    Quantity,
    dimension_to_mapping,
    make,
    quantity_to_jsonable,
    scalar,
)
from .largenum import identities

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3

# identity residuals count as holding when within this of 1
_RESIDUAL_TOL = 1e-9

_SCENARIO_KEYS = frozenset(
    {
        "rho_kg_m3", "age_years", "hubble_per_s", "include_gravity",
        "constants_profile", "species", "inflation_growth_log10", "fleet",
    }
)
_SPECIES_KEYS = frozenset({"name", "polarizations", "particle_antiparticle", "statistics"})
_FLEET_KEYS = frozenset(
    {"n_computers", "clock_rate_hz", "ops_per_cycle", "duration_s", "bits_per_computer"}
)
_GROWTH_KEYS = frozenset({"center", "halfwidth"})


class UsageError(Exception):
    """Bad invocation or unparseable input: exit 2."""


# ---------------------------------------------------------------- rendering


class Cell(NamedTuple):
    """One output value.

    ``key`` is ``"name"`` or ``"section.name"`` in the JSON document
    (the name may itself hold dots); None shows the value in text only.
    ``style`` turns the value into its text; None formats it as is.
    """

    key: Optional[str]
    value: object
    style: Optional[Callable[[object], str]] = None


class Row(NamedTuple):
    """A ``str.format`` template with one ``{}`` per cell; None: JSON only.

    Templates are literals, so user strings only ever arrive as cells.
    """

    text: Optional[str]
    cells: tuple[Cell, ...]


Table = tuple[str, list[Row]]


def _row(text: Optional[str], *cells: tuple, shown: bool = True) -> Row:
    """A row of cells given as (key, value) or (key, value, style) tuples.

    With ``shown`` false the row is JSON only.
    """
    return Row(text if shown else None, tuple(Cell(*c) for c in cells))


def _text(text: str, *values: object) -> Row:
    """A text-only row."""
    return Row(text, tuple(Cell(None, v) for v in values))


def _residual_holds(r: Quantity) -> bool:
    """The identity verdict shared by text and JSON: r within _RESIDUAL_TOL of 1.

    A residual a decade or more from 1 fails before to_value is asked
    for a magnitude that may not fit in a float.
    """
    return abs(r.log10) < 1 and abs(r.to_value() - 1.0) <= _RESIDUAL_TOL


def _headline(q: Quantity) -> str:
    """Big dimensionless counts get an order-of-magnitude gloss."""
    body = str(q)
    if q.sign == 1 and q.dimension.is_dimensionless and abs(q.log10) >= 15:
        body += f" (≈10^{math.ceil(q.log10 - 1e-9)})"
    return body


def _residual(r: Quantity) -> str:
    return f"{r} PASS" if _residual_holds(r) else str(r)


def _residual_or_fail(r: Quantity) -> str:
    return f"{r} {'PASS' if _residual_holds(r) else 'FAIL'}"


def _one_decimal(q: Quantity) -> str:
    return f"{q.to_value():.1f}"


def _render_text(header: str, rows: list[Row]) -> str:
    lines = [header]
    for row in rows:
        if row.text is not None:
            shown = (c.value if c.style is None else c.style(c.value) for c in row.cells)
            lines.append(row.text.format(*shown))
    return "\n".join(lines)


def _jsonable(value: object) -> object:
    if isinstance(value, Quantity):
        return quantity_to_jsonable(value)
    if isinstance(value, LogInterval):
        dims = dimension_to_mapping(value.dimension)
        return {"center": value.center, "halfwidth": value.halfwidth, "dims": dims}
    return value


def _render_json(rows: list[Row]) -> str:
    doc: dict[str, object] = {"schema": 1}
    for row in rows:
        for cell in row.cells:
            if cell.key is None:
                continue
            section, dot, name = cell.key.partition(".")
            target = doc.setdefault(section, {}) if dot else doc
            target[name if dot else section] = _jsonable(cell.value)
    return json.dumps(doc, indent=2)


# ---------------------------------------------------------------- loading


def _resolve_profile(name: str) -> ConstantsProfile:
    try:
        return builtin_profile(name)
    except KeyError:
        pass
    try:
        return load_profile(name)
    except OSError:
        raise UsageError(
            f"unknown profile {name!r}: not a built-in (paper, codata) "
            "and not a readable file"
        ) from None
    except (ValueError, json.JSONDecodeError) as exc:
        raise UsageError(f"bad profile file {name!r}: {exc}") from None


def _profile_from_flag(args: argparse.Namespace) -> ConstantsProfile:
    return _resolve_profile(args.profile if args.profile is not None else "paper")


def _age_from_years(years: float, profile: ConstantsProfile) -> Quantity:
    return make(years) * get(profile, "year_seconds")


def _load_document(path: str) -> Mapping[str, object]:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read scenario file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"malformed JSON in {path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(doc, Mapping):
        raise UsageError("scenario file must hold a JSON object")
    return doc


def _reject_unknown(raw: Mapping[str, object], allowed: frozenset, what: str) -> None:
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise UsageError(f"unknown {what} key: {unknown[0]!r}")


def _number(value: object, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise UsageError(f"{what} must be a number")
    return float(value)


def _get_number(doc: Mapping[str, object], key: str, default: Optional[float]) -> Optional[float]:
    value = doc.get(key, default)
    return None if value is None else _number(value, f"scenario key {key!r}")


def _parse_species(raw: object) -> cosmo.SpeciesTable:
    if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
        raise UsageError("scenario key 'species' must be an array")
    entries = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, Mapping):
            raise UsageError(f"species[{i}] must be an object")
        _reject_unknown(entry, _SPECIES_KEYS, "species")
        missing = sorted(_SPECIES_KEYS - set(entry))
        if missing:
            raise UsageError(f"species[{i}] missing key: {missing[0]!r}")
        name, pol, pa, stat = (
            entry["name"],
            entry["polarizations"],
            entry["particle_antiparticle"],
            entry["statistics"],
        )
        if not isinstance(name, str) or not isinstance(stat, str):
            raise UsageError(f"species[{i}]: name and statistics must be strings")
        if any(isinstance(v, bool) or not isinstance(v, int) for v in (pol, pa)):
            raise UsageError(
                f"species[{i}]: polarizations and particle_antiparticle must be integers"
            )
        entries.append(cosmo.Species(name, pol, pa, stat))
    return cosmo.SpeciesTable(tuple(entries))


def _parse_growth(raw: object) -> LogInterval:
    if not isinstance(raw, Mapping):
        raise UsageError("scenario key 'inflation_growth_log10' must be an object")
    _reject_unknown(raw, _GROWTH_KEYS, "inflation_growth_log10")
    center, halfwidth = (
        _number(raw.get(k), f"inflation_growth_log10.{k}") for k in ("center", "halfwidth")
    )
    return LogInterval(center, halfwidth)


def _parse_fleet(raw: object) -> baseline.FleetSpec:
    if not isinstance(raw, Mapping):
        raise UsageError("scenario key 'fleet' must be an object")
    _reject_unknown(raw, _FLEET_KEYS, "fleet")
    # the keys are from_counts' parameter names
    counts = {key: _number(raw.get(key), f"fleet.{key}") for key in sorted(_FLEET_KEYS)}
    return baseline.FleetSpec.from_counts(**counts)


def _build_scenario(
    doc: Mapping[str, object], profile_flag: Optional[str]
) -> tuple[cosmo.Scenario, baseline.FleetSpec]:
    _reject_unknown(doc, _SCENARIO_KEYS, "scenario")

    profile_name = profile_flag
    if profile_name is None:
        raw_name = doc.get("constants_profile", "paper")
        if not isinstance(raw_name, str):
            raise UsageError("scenario key 'constants_profile' must be a string")
        profile_name = raw_name
    profile = _resolve_profile(profile_name)

    rho_v = _get_number(doc, "rho_kg_m3", 1.0e-27)
    age_years = _get_number(doc, "age_years", 1.0e10)
    hubble_v = _get_number(doc, "hubble_per_s", None)

    include_gravity = doc.get("include_gravity", False)
    if not isinstance(include_gravity, bool):
        raise UsageError("scenario key 'include_gravity' must be true or false")

    raw_species, raw_growth, raw_fleet = (
        doc.get(key) for key in ("species", "inflation_growth_log10", "fleet")
    )
    species = cosmo.PHOTONS_ONLY if raw_species is None else _parse_species(raw_species)
    growth = None if raw_growth is None else _parse_growth(raw_growth)
    fleet = baseline.default_fleet() if raw_fleet is None else _parse_fleet(raw_fleet)

    scenario = cosmo.Scenario(
        rho=make(rho_v, MASS_DENSITY),
        age=_age_from_years(age_years, profile),
        hubble=None if hubble_v is None else make(hubble_v, RATE),
        species=species,
        include_gravity=include_gravity,
        profile=profile,
        inflation_growth=growth,
    )
    return scenario, fleet


# ---------------------------------------------------------------- report


def cmd_report(args: argparse.Namespace) -> Table:
    if args.scenario is not None and args.default_paper:
        raise UsageError("give either a scenario file or --default-paper, not both")
    if args.scenario is None and not args.default_paper:
        raise UsageError("give a scenario file or --default-paper")
    doc = {} if args.scenario is None else _load_document(args.scenario)
    scenario, fleet = _build_scenario(doc, args.profile)
    report = cosmo.full_report(scenario)
    ln, infl, total = report.large_numbers, report.inflation, report.inflation_total_ops
    names = ", ".join(s.name for s in scenario.species.entries)
    rows = [
        _text("scenario: rho {}, age {}, H {}", scenario.rho, scenario.age, scenario.hubble),
        _text("species: {} (total weight {})", names, scenario.species.total_weight()),
        _text("gravity factor: {}", "on" if scenario.include_gravity else "off"),
        _row("ops (matter):       {}", ("ops_matter", report.ops_matter, _headline)),
        _row("ops (critical):     {}", ("ops_critical", report.ops_critical, _headline)),
        _row("ops (with gravity): {}", (None, report.ops_with_gravity, _headline)),
        _row("bits (matter):      {}", ("bits_matter", report.bits_matter, _headline)),
        _row("bits (holographic): {}", ("bits_holographic", report.bits_holographic, _headline)),
        _row("blackbody T:        {}", ("blackbody_T", report.blackbody_T)),
        _text("entropy (horizon):  {}", report.entropy_total),
        _text("matter/radiation transition: {}", report.matter_radiation_transition),
        _row(
            "large numbers: alpha {}, beta {}, gamma {}",
            ("large_numbers.alpha", ln.alpha),
            ("large_numbers.beta", ln.beta),
            ("large_numbers.gamma", ln.gamma),
        ),
        _row(
            "residuals: r1 {}, r2 {}, r3 {}",
            ("large_numbers.r1", ln.r1, _residual),
            ("large_numbers.r2", ln.r2, _residual_or_fail),
            ("large_numbers.r3", ln.r3, _residual),
        ),
        _row(
            "inflation: ops/s {}, per Hubble time {}, bits in horizon {}",
            ("inflation.ops_per_sec", infl.ops_per_sec),
            ("inflation.ops_per_hubble_time", infl.ops_per_hubble_time),
            ("inflation.bits_horizon", infl.bits_horizon),
        ),
        _row("inflation total ops: {}", ("inflation.total_ops", total), shown=total is not None),
        _row(
            "fleet baseline: ops {}, bits {}",
            ("fleet.ops", baseline.fleet_ops(fleet), _headline),
            ("fleet.bits", baseline.fleet_bits(fleet), _headline),
        ),
    ]
    tol = args.tolerance_decades
    for label, a in (
        ("inflation ops per Hubble vs critical ops", infl.ops_per_hubble_time),
        ("holographic bits vs critical ops", report.bits_holographic),
    ):
        gap = abs(a.log10 - report.ops_critical.log10)
        verdict = "OK" if gap <= tol else "MISMATCH"
        template = "consistency: {}: {} (gap {:.2f} decades, tolerance {:.2f})"
        rows.append(_text(template, label, verdict, gap, tol))
    return f"capacity report (profile: {scenario.profile.name})", rows


# ---------------------------------------------------------------- epochs


def cmd_epoch_matter(args: argparse.Namespace) -> Table:
    profile = _profile_from_flag(args)
    rho = make(args.rho, MASS_DENSITY)
    age = _age_from_years(args.age_years, profile)
    ops, ops_c = cosmo.ops_matter(rho, age, profile), cosmo.ops_critical(age, profile)
    bits = cosmo.bits_matter(rho, age, cosmo.PHOTONS_ONLY, profile)
    bits_h = cosmo.bits_holographic(age, profile)
    rows = [
        _row(None, ("epoch", "matter")),
        _text("rho: {}, age: {}", rho, age),
        _row("ops (matter):       {}", ("ops_matter", ops, _headline)),
        _row("ops (critical):     {}", ("ops_critical", ops_c, _headline)),
        _row("bits (matter):      {}", ("bits_matter", bits, _headline)),
        _row("bits (holographic): {}", ("bits_holographic", bits_h, _headline)),
    ]
    return f"matter epoch (profile: {profile.name})", rows


def cmd_epoch_radiation(args: argparse.Namespace) -> Table:
    profile = _profile_from_flag(args)
    if args.e1_joules is not None:
        e1 = make(args.e1_joules, ENERGY)
    else:
        # --E1-ratio r means: E1 sized so that 2 E1/(pi hbar) = r ops/sec
        hbar = get(profile, "hbar")
        e1 = scalar(args.e1_ratio) * scalar(math.pi / 2.0) * hbar / make(1.0, TIME)
    t1 = make(args.t1, TIME)
    t0 = make(args.t0, TIME)
    ops = cosmo.ops_radiation(e1, t1, t0, profile)
    energy_at_t0 = cosmo.radiation_energy_at(e1, t1, t0) if t0.sign > 0 else None

    bits = hot = None
    if args.temperature_k is not None:
        temperature = make(args.temperature_k, TEMPERATURE)
        rad = cosmo.bits_radiation(e1, temperature, cosmo.PHOTONS_ONLY, profile)
        bits, hot = rad.bits, rad.above_gut_threshold
    warning = (
        "warning: k_B T above the grand-unification threshold; "
        "species weights are guesswork up there"
    )
    rows = [
        # JSON puts ops before the energies; text prints it after them
        _row(None, ("epoch", "radiation"), ("ops", ops)),
        _row("E at t1: {}", ("energy_at_t1", e1)),
        _row(
            "E at t0: unbounded as t0 -> 0" if energy_at_t0 is None else "E at t0: {}",
            ("energy_at_t0", energy_at_t0),
        ),
        _row("ops: {}", (None, ops, _headline)),
        _row("bits: {}", ("bits", bits, _headline), shown=bits is not None),
        _row(warning, ("above_gut_threshold", hot), shown=bool(hot)),
    ]
    return f"radiation epoch (profile: {profile.name})", rows


def cmd_epoch_inflation(args: argparse.Namespace) -> Table:
    profile = _profile_from_flag(args)
    if args.hubble is None and args.growth is None:
        raise UsageError("inflation needs --H, --growth, or both")
    rec = None if args.hubble is None else cosmo.inflation_bounds(make(args.hubble, RATE), profile)
    total = None if args.growth is None else cosmo.inflation_total_ops(args.growth)
    rows = [_row(None, ("epoch", "inflation"))]
    for key, label in (
        ("ops_per_sec", "ops/s: {}"),
        ("ops_per_hubble_time", "ops per Hubble time: {}"),
        ("bits_horizon", "bits in horizon: {}"),
    ):
        value = None if rec is None else getattr(rec, key)
        rows.append(_row(label, (key, value, _headline), shown=rec is not None))
    rows.append(
        _row("total ops across growth: {}", ("total_ops", total), shown=total is not None)
    )
    return f"inflation epoch (profile: {profile.name})", rows


# ---------------------------------------------------------------- others


def cmd_large_numbers(args: argparse.Namespace) -> Table:
    profile = _profile_from_flag(args)
    age = _age_from_years(args.age_years, profile)
    if args.rho is not None:
        rho = make(args.rho, MASS_DENSITY)
    else:
        # default: critical density, where all three residuals sit at 1
        rho = cosmo.critical_density(ONE / age, "approx", profile)
    report = identities(rho, age, profile)
    residuals = ("r1", "r2", "r3")
    rows = [
        _text("rho: {}, age: {}", rho, age),
        _row("alpha: {}", ("alpha", report.alpha)),
        _row("beta:  {}", ("beta", report.beta)),
        _row("gamma: {}", ("gamma", report.gamma)),
        _row("r1: {}", ("r1", report.r1, _residual)),
        _row("r2: {}", ("r2", report.r2, _residual_or_fail)),
        _row("r3: {}", ("r3", report.r3, _residual)),
        _row(None, *((f"pass.{r}", _residual_holds(getattr(report, r))) for r in residuals)),
    ]
    return f"large numbers (profile: {profile.name})", rows


def cmd_constants(args: argparse.Namespace) -> Table:
    # a positional profile name wins over --profile
    profile = _profile_from_flag(args) if args.name is None else _resolve_profile(args.name)
    rows = [_row(None, ("name", profile.name))]
    # required constants in registry order, then a profile file's extras
    for cid in [*REQUIRED_DIMS, *sorted(set(profile.constants) - set(REQUIRED_DIMS))]:
        rows.append(_row("  {:<14} {}", (None, cid), (f"constants.{cid}", profile.constants[cid])))
    fsi = fine_structure_inverse(profile)
    rows += [
        _text("derived:"),
        _row("  planck_time    {}", ("derived.planck_time", planck_time(profile))),
        _row("  planck_length  {}", ("derived.planck_length", planck_length(profile))),
        _row("  hbar*c/e2      {}", ("derived.fine_structure_inverse", fsi, _one_decimal)),
        _row("  m_p/m_e        {}", ("derived.mass_ratio", mass_ratio(profile), _one_decimal)),
    ]
    return f"constants (profile: {profile.name})", rows


def cmd_manmade(args: argparse.Namespace) -> Table:
    fleet = baseline.default_fleet()
    if args.scenario is not None:
        doc = _load_document(args.scenario)
        _reject_unknown(doc, _SCENARIO_KEYS, "scenario")
        if doc.get("fleet") is not None:
            fleet = _parse_fleet(doc["fleet"])
    ops, historical = baseline.fleet_ops(fleet), baseline.historical_ops(fleet)
    rows = [
        _row("ops (recent era):  {}", ("ops", ops, _headline)),
        _row("ops (historical):  {}", ("ops_historical", historical, _headline)),
        _row("bits:              {}", ("bits", baseline.fleet_bits(fleet), _headline)),
    ]
    return "man-made computation", rows


# ---------------------------------------------------------------- wiring


def _growth_flag(text: str) -> LogInterval:
    center, sep, halfwidth = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(
            "growth must look like CENTER:HALFWIDTH, e.g. 10:6"
        )
    try:
        return LogInterval(float(center), float(halfwidth))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _tolerance_flag(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    # the rule dimq.approx_eq applies; it rejects nan as well
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
    return value


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--profile", help="constants profile: paper, codata, or a JSON profile file"
    )
    common.add_argument(
        "--tolerance-decades",
        type=_tolerance_flag,
        default=DEFAULT_TOLERANCE_DECADES,
        help="agreement tolerance for consistency lines (default 1.5)",
    )
    common.add_argument("--json", dest="as_json", action="store_true")
    return common


def _build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    parser = argparse.ArgumentParser(
        prog="cosmocap",
        description="Physical limits of computation, from one laptop to the whole sky.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser(
        "report", parents=[common], help="full capacity report for a scenario"
    )
    p_report.add_argument("scenario", nargs="?", help="scenario JSON file")
    p_report.add_argument(
        "--default-paper",
        action="store_true",
        help="use the built-in 1e-27 kg/m3, 1e10 yr scenario",
    )
    p_report.set_defaults(handler=cmd_report)

    p_epoch = sub.add_parser("epoch", help="one epoch's numbers")
    esub = p_epoch.add_subparsers(dest="epoch", required=True)

    e_matter = esub.add_parser("matter", parents=[common])
    e_matter.add_argument("--rho", type=float, default=1.0e-27, help="kg/m3")
    e_matter.add_argument("--age-years", type=float, default=1.0e10)
    e_matter.set_defaults(handler=cmd_epoch_matter)

    e_rad = esub.add_parser("radiation", parents=[common])
    e1 = e_rad.add_mutually_exclusive_group(required=True)
    e1.add_argument("--E1-joules", dest="e1_joules", type=float)
    e1.add_argument(
        "--E1-ratio",
        dest="e1_ratio",
        type=float,
        help="E1 given as its op rate: 2 E1/(pi hbar) in ops/sec",
    )
    e_rad.add_argument("--t1", type=float, required=True, help="seconds")
    e_rad.add_argument("--t0", type=float, required=True, help="seconds")
    e_rad.add_argument("--temperature-k", type=float)
    e_rad.set_defaults(handler=cmd_epoch_radiation)

    e_inf = esub.add_parser("inflation", parents=[common])
    e_inf.add_argument("--H", dest="hubble", type=float, help="1/seconds")
    e_inf.add_argument(
        "--growth", type=_growth_flag, help="linear growth band as CENTER:HALFWIDTH in decades"
    )
    e_inf.set_defaults(handler=cmd_epoch_inflation)

    p_large = sub.add_parser("large-numbers", parents=[common])
    p_large.add_argument("--rho", type=float, help="kg/m3 (default: critical density)")
    p_large.add_argument("--age-years", type=float, default=1.0e10)
    p_large.set_defaults(handler=cmd_large_numbers)

    p_const = sub.add_parser("constants", parents=[common])
    p_const.add_argument("name", nargs="?")
    p_const.set_defaults(handler=cmd_constants)

    p_man = sub.add_parser("manmade", parents=[common])
    p_man.add_argument("--scenario", help="scenario JSON file (fleet key)")
    p_man.set_defaults(handler=cmd_manmade)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return EXIT_OK
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        header, rows = args.handler(args)
        output = _render_json(rows) if args.as_json else _render_text(header, rows)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, KeyError, ZeroDivisionError, OverflowError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_DOMAIN
    print(output)
    return EXIT_OK
