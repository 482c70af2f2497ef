"""Command-line front end.

Subcommands, each declared once in ``_COMMANDS``: report, epoch
{matter,radiation,inflation}, large-numbers, constants, manmade.  Output is
deterministic: fixed key order, log10 printed with two decimals, small numbers
in scientific notation with four significant digits.  Exit codes: 0 success, 2
bad usage or unparseable input, 3 domain error (an input the physics rejects).

Each command returns one table: a header line and a list of rows.  The
text renderer prints the header and every row's template; the JSON
renderer collects every keyed cell, in row order, under ``"schema": 1``.
So a value shown both ways is written once.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections import namedtuple
from collections.abc import Callable

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
    RATE,
    TEMPERATURE,
    TIME,
    REQUIRED,
    InputError,
    LogInterval,
    Quantity,
    Reader,
    make,
    number,
    parse_float,
    quantity_to_jsonable,
    read_fields,
    read_json_object,
    scalar,
)
from .formulas import environment
from .largenum import identities

__all__ = ["main"]

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3

# identity residuals count as holding when within this of 1
_RESIDUAL_TOL = 1e-9


# ---------------------------------------------------------------- rendering


# One output value.  ``key`` is ``"name"`` or ``"section.name"`` in the
# JSON document (the name may itself hold dots); None shows the value in
# text only.  ``style`` turns the value into its text; None formats it as is.
Cell = namedtuple("Cell", ("key", "value", "style"), defaults=(None,))

# ``text`` is a ``str.format`` template with one ``{}`` per cell of the
# tuple ``cells``; None: JSON only.  Templates are literals, so user
# strings only ever arrive as cells.
Row = namedtuple("Row", ("text", "cells"))

Table = tuple[str, list[Row]]


def _row(text: str | None, *cells: tuple, shown: bool = True) -> Row:
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
    """Beyond double range there is no decimal; str(q) gives the power of ten."""
    return f"{q.to_value():.1f}" if abs(q.log10) < 300 else str(q)


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
        return {"center": value.center, "halfwidth": value.halfwidth, "dims": {}}
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
        raise InputError(
            f"unknown profile {name!r}: not a built-in (paper, codata) "
            "and not a readable file"
        ) from None
    except ValueError as exc:
        raise InputError(f"bad profile file {name!r}: {exc}") from None


def _profile_from_flag(args: argparse.Namespace) -> ConstantsProfile:
    return _resolve_profile(args.profile if args.profile is not None else "paper")


def _as_is(value: object, what: str) -> object:
    return value  # the record built from it checks the value


def _typed(kind: type, wanted: str) -> Reader:
    """A reader that refuses any value not of type ``kind``."""
    def read(value: object, what: str) -> object:
        if not isinstance(value, kind):
            raise InputError(f"{what} must be {wanted}")
        return value
    return read


def _record(build: Callable[..., object], what: str, reader: Reader, *keys: str) -> Reader:
    """A reader of an object of required ``keys``, each a parameter of ``build``."""
    spec = dict.fromkeys(keys, (reader, REQUIRED))
    return lambda raw, _: build(**read_fields(raw, what, spec))


_species_entry = _record(
    cosmo.Species, "species", _as_is, "name", "polarizations", "particle_antiparticle", "statistics"
)
_growth = _record(LogInterval, "inflation_growth_log10", number, "center", "halfwidth")
_fleet = _record(
    baseline.FleetSpec.from_counts, "fleet", number,
    "bits_per_computer", "clock_rate_hz", "duration_s", "n_computers", "ops_per_cycle",
)


def _species(raw: object, what: str) -> cosmo.SpeciesTable:
    if not isinstance(raw, list) or not raw:
        raise InputError(f"{what} must be a non-empty array")
    return cosmo.SpeciesTable(tuple(_species_entry(entry, what) for entry in raw))


_SCENARIO_FIELDS = {
    "rho_kg_m3": (number, cosmo.PAPER_RHO_KG_M3),
    "age_years": (number, cosmo.PAPER_AGE_YEARS),
    "hubble_per_s": (number, None),
    "include_gravity": (_typed(bool, "true or false"), False),
    "constants_profile": (_typed(str, "a string"), "paper"),
    "species": (_species, cosmo.PHOTONS_ONLY),
    "inflation_growth_log10": (_growth, None),
    "fleet": (_fleet, baseline.default_fleet()),
}


def _load_scenario(
    path: str | None, profile_flag: str | None
) -> tuple[cosmo.Scenario, baseline.FleetSpec]:
    """The scenario and fleet in JSON file ``path``; every default when None."""
    try:
        doc = {} if path is None else read_json_object(path, "scenario file")
    except OSError as exc:
        raise InputError(f"cannot read scenario file: {exc}") from None
    fields = read_fields(doc, "scenario", _SCENARIO_FIELDS)
    profile_name = fields["constants_profile"] if profile_flag is None else profile_flag
    profile = _resolve_profile(profile_name)
    hubble_v = fields["hubble_per_s"]
    scenario = cosmo.Scenario(
        rho=make(fields["rho_kg_m3"], MASS_DENSITY),
        age=cosmo._years(make(fields["age_years"]), profile),
        hubble=None if hubble_v is None else make(hubble_v, RATE),
        species=fields["species"],
        include_gravity=fields["include_gravity"],
        profile=profile,
        inflation_growth=fields["inflation_growth_log10"],
    )
    return scenario, fields["fleet"]


# ---------------------------------------------------------------- report


def _matter_rows(report: cosmo.CapacityReport, gravity: bool) -> list[Row]:
    """The matter-epoch block of ``report``; ``gravity`` adds the text-only with-gravity row."""
    return [
        _row("ops (matter):       {}", ("ops_matter", report.ops_matter, _headline)),
        _row("ops (critical):     {}", ("ops_critical", report.ops_critical, _headline)),
        _row("ops (with gravity): {}", (None, report.ops_with_gravity, _headline), shown=gravity),
        _row("bits (matter):      {}", ("bits_matter", report.bits_matter, _headline)),
        _row("bits (holographic): {}", ("bits_holographic", report.bits_holographic, _headline)),
    ]


# a LargeNumberReport's fields: (name, its large-numbers line, its style); the
# residuals show PASS when they hold, and r2, which holds for every input, FAIL too
_LARGE_NUMBERS = (
    ("alpha", "alpha: {}", None), ("beta", "beta:  {}", None), ("gamma", "gamma: {}", None),
    ("r1", "r1: {}", _residual), ("r2", "r2: {}", _residual_or_fail), ("r3", "r3: {}", _residual),
)


def cmd_report(args: argparse.Namespace) -> Table:
    tol = args.tolerance_decades
    if not tol > 0:  # the rule dimq.approx_eq applies; it rejects nan as well
        raise InputError(f"--tolerance-decades: must be > 0, got {tol!r}")
    if args.scenario is not None and args.default_paper:
        raise InputError("give either a scenario file or --default-paper, not both")
    if args.scenario is None and not args.default_paper:
        raise InputError("give a scenario file or --default-paper")
    scenario, fleet = _load_scenario(args.scenario, args.profile)
    report = cosmo.full_report(scenario)
    infl, total = report.inflation, report.inflation_total_ops
    ln = [(f"large_numbers.{name}", getattr(report.large_numbers, name), style)
          for name, _, style in _LARGE_NUMBERS]
    names = ", ".join(s.name for s in scenario.species.entries)
    rows = [
        _text("scenario: rho {}, age {}, H {}", scenario.rho, scenario.age, scenario.hubble),
        _text("species: {} (total weight {})", names, scenario.species.total_weight()),
        _text("gravity factor: {}", "on" if scenario.include_gravity else "off"),
        *_matter_rows(report, True),
        _row("blackbody T:        {}", ("blackbody_T", report.blackbody_T)),
        _text("entropy (horizon):  {}", report.entropy_total),
        _text("matter/radiation transition: {}", report.matter_radiation_transition),
        _row("large numbers: alpha {}, beta {}, gamma {}", *ln[:3]),
        _row("residuals: r1 {}, r2 {}, r3 {}", *ln[3:]),
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
    scenario = cosmo.Scenario(rho, cosmo._years(make(args.age_years), profile), profile=profile)
    rows = [
        _row(None, ("epoch", "matter")),
        _text("rho: {}, age: {}", rho, scenario.age),
        *_matter_rows(cosmo.full_report(scenario), False),
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
        raise InputError("inflation needs --H, --growth, or both")
    rec = None if args.hubble is None else cosmo.inflation_bounds(make(args.hubble, RATE), profile)
    total = None
    if args.growth is not None:
        center, sep, halfwidth = args.growth.partition(":")
        if not sep:
            raise InputError("--growth must look like CENTER:HALFWIDTH, e.g. 10:6")
        # the constructor a scenario's inflation_growth_log10 goes through
        growth = LogInterval(parse_float(center, "--growth"), parse_float(halfwidth, "--growth"))
        total = cosmo.inflation_total_ops(growth)
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
    age = cosmo._years(make(args.age_years), profile)
    environment(None, age=age)  # before the default density divides by it
    if args.rho is not None:
        rho = make(args.rho, MASS_DENSITY)
    else:
        # default: critical density, where all three residuals sit at 1
        rho = cosmo.critical_density(cosmo._reciprocal(age), "approx", profile)
    report = identities(rho, age, profile)
    rows = [_text("rho: {}, age: {}", rho, age)]
    for name, text, style in _LARGE_NUMBERS:
        rows.append(_row(text, (name, getattr(report, name), style)))
    # the residuals are the fields with a style
    rows.append(_row(None, *((f"pass.{name}", _residual_holds(getattr(report, name)))
                             for name, _, style in _LARGE_NUMBERS if style)))
    return f"large numbers (profile: {profile.name})", rows


def cmd_constants(args: argparse.Namespace) -> Table:
    # a positional profile name wins over --profile
    profile = _profile_from_flag(args) if args.name is None else _resolve_profile(args.name)
    rows = [_row(None, ("name", profile.name))]
    # required constants in registry order, then a profile file's extras
    cids = [*REQUIRED_DIMS, *sorted(set(profile.constants) - set(REQUIRED_DIMS))]
    width = max(14, *map(len, cids))
    for cid in cids:
        cell = (f"constants.{cid}", profile.constants[cid])
        rows.append(_row("  {} {}", (None, cid.ljust(width)), cell))
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
    if args.scenario is not None:  # read as report reads it, so refused the same way
        _, fleet = _load_scenario(args.scenario, None)
    ops, historical = baseline.fleet_ops(fleet), baseline.historical_ops(fleet)
    rows = [
        _row("ops (recent era):  {}", ("ops", ops, _headline)),
        _row("ops (historical):  {}", ("ops_historical", historical, _headline)),
        _row("bits:              {}", ("bits", baseline.fleet_bits(fleet), _headline)),
    ]
    return "man-made computation", rows


# ---------------------------------------------------------------- wiring


class _FloatFlag(argparse.Action):
    """Stores the flag's value as read by ``parse_float``.

    A failing ``type=`` would become an argparse usage message; an
    InputError raised here leaves ``parse_args``, so ``main`` reports it
    as one ``error:`` line with exit 2, like any other malformed number.
    """

    def __call__(self, parser, namespace, values, option_string=None) -> None:
        setattr(namespace, self.dest, parse_float(values, option_string))


_PROFILE = ("--profile", dict(help="constants profile: paper, codata, or a JSON file"))

# Every subparser, each parent before its subcommands: its argv path, add_parser's
# keywords, its handler (None: it holds subcommands) and its flags, each (name,
# add_argument keywords), a list of them being one required mutually exclusive
# group.  Every leaf takes --json, and every one that reads constants _PROFILE.
_COMMANDS = (
    (("report",), dict(help="full capacity report for a scenario"), cmd_report, (
        ("scenario", dict(nargs="?", help="scenario JSON file")),
        ("--default-paper", dict(action="store_true",
                                 help="use the built-in 1e-27 kg/m3, 1e10 yr scenario")),
        ("--tolerance-decades", dict(
            action=_FloatFlag, default=DEFAULT_TOLERANCE_DECADES,
            help="agreement tolerance for consistency lines (default 1.5)")),
        _PROFILE,
    )),
    (("epoch",), dict(help="one epoch's numbers"), None, ()),
    (("epoch", "matter"), {}, cmd_epoch_matter, (
        ("--rho", dict(action=_FloatFlag, default=cosmo.PAPER_RHO_KG_M3, help="kg/m3")),
        ("--age-years", dict(action=_FloatFlag, default=cosmo.PAPER_AGE_YEARS)),
        _PROFILE,
    )),
    (("epoch", "radiation"), {}, cmd_epoch_radiation, (
        [("--E1-joules", dict(dest="e1_joules", action=_FloatFlag)),
         ("--E1-ratio", dict(dest="e1_ratio", action=_FloatFlag,
                             help="E1 given as its op rate: 2 E1/(pi hbar) in ops/sec"))],
        ("--t1", dict(action=_FloatFlag, required=True, help="seconds")),
        ("--t0", dict(action=_FloatFlag, required=True, help="seconds")),
        ("--temperature-k", dict(action=_FloatFlag)),
        _PROFILE,
    )),
    (("epoch", "inflation"), {}, cmd_epoch_inflation, (
        ("--H", dict(dest="hubble", action=_FloatFlag, help="1/seconds")),
        ("--growth", dict(help="linear growth band as CENTER:HALFWIDTH in decades")),
        _PROFILE,
    )),
    (("large-numbers",), {}, cmd_large_numbers, (
        ("--rho", dict(action=_FloatFlag, help="kg/m3 (default: critical density)")),
        ("--age-years", dict(action=_FloatFlag, default=cosmo.PAPER_AGE_YEARS)),
        _PROFILE,
    )),
    (("constants",), {}, cmd_constants, (
        ("name", dict(nargs="?")),
        _PROFILE,
    )),
    (("manmade",), {}, cmd_manmade, (
        ("--scenario", dict(help="scenario JSON file (fleet key)")),
    )),
)


@functools.cache  # parsing leaves no state on the parser, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    description = "Physical limits of computation, from one laptop to the whole sky."
    top = argparse.ArgumentParser(prog="cosmocap", description=description)
    subparsers = {(): top.add_subparsers(dest="command", required=True)}
    for path, keywords, handler, flags in _COMMANDS:
        p = subparsers[path[:-1]].add_parser(path[-1], **keywords)
        for flag in flags:
            group = p.add_mutually_exclusive_group(required=True) if isinstance(flag, list) else p
            for name, options in flag if isinstance(flag, list) else (flag,):
                group.add_argument(name, **options)
        if handler is None:  # dest names the subcommand a usage error says is missing
            subparsers[path] = p.add_subparsers(dest=path[-1], required=True)
        else:
            p.add_argument("--json", dest="as_json", action="store_true")
            p.set_defaults(handler=handler)
    return top


def main(argv: list[str] | None = None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()  # here, not at exit, so that a closed pipe is caught below
    except BrokenPipeError:
        # the reader has gone (as in `| head -1`); send what is still
        # buffered, and the exit-time flush, to os.devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


def _run(argv: list[str] | None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        header, rows = args.handler(args)
        output = _render_json(rows) if args.as_json else _render_text(header, rows)
    except SystemExit as exc:  # from argparse: --help, or a usage error it printed
        code = exc.code
        if code is None:
            return EXIT_OK
        return code if isinstance(code, int) else EXIT_USAGE
    except (ValueError, KeyError, ZeroDivisionError, OverflowError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, InputError) else EXIT_DOMAIN
    print(output)
    return EXIT_OK
