"""The formula table: each row's dimension, and its value against mpmath.

Every row's dimension is fixed when ``cosmocap.formulas`` is imported;
the first tests pin each one to a literal and check that a row declared
with the wrong dimension cannot be built.  The oracle test evaluates
every row at the inputs of the domain fixture (``test_domain.py``) and
compares it with its formula, written out again here from the physics
and evaluated by ``mpmath`` at 50 digits from the profiles' raw constant
values.  Tolerances are absolute, in decades of the row's log10, and
come in two sizes: ``NEAR`` for rows whose terms stay within a few dozen
decades (constants, species weights, fleet counts), and ``FAR`` for rows
of domain inputs, whose terms reach about 1200 decades (t⁴ with t near
1e300, or a horizon energy), where adjacent doubles are 2.3e-13 apart.
"""

import ast
import json
import math
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import mpmath
import pytest

from cosmocap import CODATA, PAPER, Scenario, SystemSpec, formulas as f, load_profile
from cosmocap.dimq import (
    DIMENSIONLESS, ENERGY, LENGTH, RATE, TIME, Dimension, DimensionError, InputError, make,
)

DATA = Path(__file__).parent / "data"

ROWS = {name: row for name, row in vars(f).items()
        if isinstance(row, f.Monomial) and not name.startswith("_")}

# (length, mass, time, temperature, charge2) of every row
EXPECTED_DIMS = {
    "PLANCK_TIME": Dimension(0, 0, 1),
    "PLANCK_LENGTH": Dimension(1),
    "FINE_STRUCTURE_INVERSE": Dimension(),
    "MASS_RATIO": Dimension(),
    "HORIZON_VOLUME": Dimension(3),
    "OPS_MATTER": Dimension(),
    "OPS_CRITICAL": Dimension(),
    "OPS_WITH_GRAVITY": Dimension(),
    "DEFAULT_HUBBLE": Dimension(0, 0, -1),
    "MATTER_RADIATION_TRANSITION": Dimension(0, 0, 1),
    "CRITICAL_DENSITY": Dimension(-3, 1),
    "CRITICAL_DENSITY_APPROX": Dimension(-3, 1),
    "D_FACTOR": Dimension(),
    "BLACKBODY_TEMPERATURE": Dimension(0, 0, 0, 1),
    "ENTROPY_DENSITY": Dimension(-1, 1, -2, -1),
    "ENTROPY_IN_VOLUME": Dimension(2, 1, -2, -1),
    "HORIZON_ENTROPY": Dimension(2, 1, -2, -1),
    "HORIZON_BITS": Dimension(),
    "RADIATION_ENERGY_AT": Dimension(2, 1, -2),
    "OPS_RADIATION": Dimension(),
    "THERMAL_ENERGY": Dimension(2, 1, -2),
    "BITS_RADIATION": Dimension(),
    "GUT_THRESHOLD": Dimension(2, 1, -2),
    "INFLATION_OPS_PER_SEC": Dimension(0, 0, -1),
    "INFLATION_OPS_PER_HUBBLE_TIME": Dimension(),
    "INFLATION_BITS_HORIZON": Dimension(),
    "ALPHA": Dimension(),
    "BETA": Dimension(),
    "GAMMA": Dimension(),
    "MAX_OPS_PER_SEC": Dimension(0, 0, -1),
    "ENERGY_FOR_OPS_RATE": Dimension(2, 1, -2),
    "MIN_FLIP_TIME": Dimension(0, 0, 1),
    "MAX_BITS": Dimension(),
    "MAX_IO_RATE": Dimension(0, 0, -1),
    "BEKENSTEIN_RATIO": Dimension(),
    "HOLOGRAPHIC_BITS": Dimension(),
    "DEFAULT_AREA": Dimension(2),
    "FLEET_OPS": Dimension(),
    "FLEET_BITS": Dimension(),
    "HISTORICAL_OPS": Dimension(),
}


def test_every_row_has_its_expected_dimension():
    assert {name: row.dimension for name, row in ROWS.items()} == EXPECTED_DIMS


@pytest.mark.parametrize("declared, terms", [
    (TIME, ("rho", ("c", 5), ("t", 4), ("hbar", -1))),  # ops_matter is a count, not a time
    (DIMENSIONLESS, ((f.OPS_MATTER, Fraction(3, 4)), "t")),  # a count times t is a time
])
def test_a_row_with_the_wrong_dimension_cannot_be_built(declared, terms):
    with pytest.raises(DimensionError, match="declared dimension"):
        f.Monomial(declared, *terms)


def test_a_reciprocal_row_never_yields_negative_zero():
    # every sum starts at the prefactor's log10 or at 0.0, and 0.0 + -0.0 is +0.0, as ONE / x is
    assert math.copysign(1.0, f.Monomial(RATE, ("t", -1), prefactor=1.0).log10({"t": 0.0})) == 1.0
    assert math.copysign(1.0, f.DEFAULT_HUBBLE.log10({"t": 0.0})) == 1.0


def test_each_parameter_name_fills_an_input_symbol():
    assert set(f.PARAMETER_SYMBOLS.values()) <= set(f.INPUT_DIMS)
    assert f.environment(None, t1=make(1e3, TIME), e1=make(1e2, ENERGY)) == {"t": 3.0, "E": 2.0}
    # an omitted input is filed as its default row: H = 1/t, and R² as the area
    assert f.environment(None, age=make(1e3, TIME), hubble=None) == {"t": 3.0, "H": -3.0}
    assert f.environment(None, radius=make(10.0, LENGTH), area=None) == {"R": 1.0, "A": 2.0}
    env = f.environment(PAPER)
    assert env == PAPER._log10s and env is not PAPER._log10s  # callers add to their copy


def test_given_builds_each_parameter_on_its_input_dimension():
    for name, symbol in f.PARAMETER_SYMBOLS.items():
        q = f.given(name, 1e3)
        assert (q.sign, q.log10) == (1, 3.0) and q.dimension is f.INPUT_DIMS[symbol]
    assert f.given("t0", 0.0) == make(0.0, TIME)  # the check of the sign is environment's
    with pytest.raises(InputError, match="value must be finite, got nan"):
        f.given("rho", math.nan)


# the dimensions dimq names; any other module takes an input's from INPUT_DIMS or given
NAMED_DIMENSIONS = {"AREA", "CHARGE2", "ENERGY", "ENTROPY", "LENGTH", "MASS", "MASS_DENSITY",
                    "RATE", "TEMPERATURE", "TIME", "VOLUME"}
SOURCES = sorted(Path(f.__file__).parent.glob("*.py"))


def _names_in(path):
    """Every name a module imports, reads bare, or reads as an attribute."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_only_dimq_and_formulas_name_a_dimension_and_only_constants_requires():
    assert {path.name for path in SOURCES} >= {"dimq.py", "formulas.py", "constants.py", "cli.py"}
    named, requiring = {}, set()
    for path in SOURCES:
        if path.name in ("dimq.py", "formulas.py"):
            continue
        names = set(_names_in(path))
        if names & NAMED_DIMENSIONS:
            named[path.name] = sorted(names & NAMED_DIMENSIONS)
        if "require" in names:
            requiring.add(path.name)
    assert named == {}
    # a profile's constants are checked against REQUIRED_DIMS, every other input by environment
    assert requiring == {"constants.py"}


def test_only_dimq_names_zero():
    # an exact zero is one value of the table: formulas files an allowed zero input
    # as log10 -inf and builds the zero a row of it gives, so no other module builds one
    assert [path.name for path in SOURCES if path.name != "dimq.py"
            and "zero" in set(_names_in(path))] == []


def test_only_formulas_names_a_default():
    # an omitted input is one value of the table: environment files a None input
    # as its DEFAULTS row, so no other module names a default row or files one
    defaults = {"DEFAULTS", "DEFAULT_HUBBLE", "DEFAULT_AREA", "file_default"}
    assert [path.name for path in SOURCES if path.name != "formulas.py"
            and defaults & set(_names_in(path))] == []


def test_a_default_row_reads_only_fields_filed_before_it():
    # environment evaluates a None input's row over the inputs filed before it,
    # and each record passes its fields in order: the row may read only earlier ones
    omitted_by = {"hubble": Scenario, "area": SystemSpec}
    assert set(omitted_by) == set(f.DEFAULTS)
    for name, record in omitted_by.items():
        fields = record._fields[:record._fields.index(name)]
        before = {f.PARAMETER_SYMBOLS[field] for field in fields if field in f.PARAMETER_SYMBOLS}
        row = f.DEFAULTS[name]
        read = {term for r in (row, *_nested(row)) for term, _ in r.terms if term in f.INPUT_DIMS}
        assert read and read <= before, name


def _scoped_nodes(path):
    """Each node of ``path`` with its scope, 'module.function' or 'module.Class.method'."""

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield from visit(child, f"{scope}.{child.name}")
                continue
            yield scope, child
            yield from visit(child, scope)

    return visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)


def _read_name(node):
    """The name ``node`` reads, bare or as an attribute; None for any other node."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _referrers(path, name):
    """Each scope of ``path`` that reads ``name``."""
    return {scope for scope, node in _scoped_nodes(path) if _read_name(node) == name}


def test_outside_the_table_only_an_age_in_years_and_the_residuals_build_a_quantity_by_hand():
    # every other derived number is a row; the residuals are ratios of
    # separately evaluated rows by design, and an age in years keeps the
    # sign of a zero or negative count for the check that names it
    builders = set()
    for path in SOURCES:
        if path.name not in ("dimq.py", "formulas.py"):
            builders |= _referrers(path, "_new")
    assert builders == {"cosmo._years", "largenum._identities"}


def test_outside_the_table_no_module_evaluates_a_row():
    # a row is evaluated by formulas alone, each once, by a plan; every other
    # module reads the value a plan or the profile's table stored
    calls = set()
    for path in SOURCES:
        if path.name == "formulas.py":
            continue
        calls |= {scope for scope, node in _scoped_nodes(path) if isinstance(node, ast.Call)
                  and _read_name(node.func) == "log10" and _read_name(node.func.value) != "math"}
    assert calls == set()


def _symbols_written(path):
    """Each (scope, symbol) where ``path`` writes an ``INPUT_DIMS`` key by hand:
    as the key of a dict display, or as the subscript an assignment stores to."""
    for scope, node in _scoped_nodes(path):
        if isinstance(node, ast.Dict):
            keys = node.keys
        elif isinstance(node, ast.Assign):
            keys = [target.slice for target in node.targets if isinstance(target, ast.Subscript)]
        else:
            continue
        for key in keys:
            if isinstance(key, ast.Constant) and key.value in f.INPUT_DIMS:
                yield scope, key.value


def test_only_formulas_maps_an_input_to_the_symbol_its_rows_read():
    written, readers = [], set()
    for path in SOURCES:
        assert "record_environment" not in set(_names_in(path))  # no table is filed twice
        if path.name in ("dimq.py", "formulas.py"):
            continue
        written += _symbols_written(path)
        readers |= {scope for scope, node in _scoped_nodes(path) if isinstance(node, ast.Attribute)
                    and node.attr == "_log10s" and _read_name(node.value) != "profile"}
    # the radiation window's one input that is not a monomial; every other
    # symbol is filled by environment from a parameter name, an omitted one
    # from its default row, and a derived one (an entropy) is a row
    assert written == [("cosmo.ops_radiation", "tail")]
    # the callers that read a record's inputs from the table its check filed
    assert readers == {"cosmo.full_report", "bounds.system_limits",
                       "bounds.SystemSpec.effective_area", "baseline._fleet_row"}


def _nested(row):
    for term, _ in row.terms:
        if isinstance(term, f.Monomial):
            yield term
            yield from _nested(term)


def test_rows_of_constants_alone_are_each_profiles_to_evaluate():
    named = {name for name, row in ROWS.items() if row.constant}
    assert named == {"PLANCK_TIME", "PLANCK_LENGTH", "FINE_STRUCTURE_INVERSE", "MASS_RATIO",
                     "GUT_THRESHOLD", "ALPHA", "MATTER_RADIATION_TRANSITION"}
    # every row of constants alone, named or nested in another row, is in
    # CONSTANT_ROWS after the rows it nests, and so in every profile's table
    nested = {row for top in ROWS.values() for row in _nested(top) if row.constant}
    assert {ROWS[name] for name in named} | nested == set(f.CONSTANT_ROWS)
    for i, row in enumerate(f.CONSTANT_ROWS):
        assert set(_nested(row)) <= set(f.CONSTANT_ROWS[:i])
    for profile in (PAPER, CODATA, load_profile(str(DATA / "domain_profile.json"))):
        assert set(f.CONSTANT_ROWS) <= set(profile._log10s)


def test_a_rows_plan_holds_each_nested_row_once_after_the_rows_it_nests():
    for row in ROWS.values():
        nested = [r for r in _nested(row) if not r.constant]
        assert len(row.plan) == len(set(nested)) and set(row.plan) == set(nested)
        for i, r in enumerate(row.plan):
            assert {n for n in _nested(r) if not n.constant} <= set(row.plan[:i])
    # log10 reads a nested row from its environment and never evaluates it
    env = {**PAPER._log10s, "rho": -27.0, "t": 17.5, "weight": 0.0}
    with pytest.raises(KeyError):
        f.HORIZON_BITS.log10(env)
    f.evaluate(f.HORIZON_BITS.plan, env)
    assert f.HORIZON_BITS.log10(env) == f.MAX_BITS.log10({**env, "S": env[f.HORIZON_ENTROPY]})


# ---------------------------------------------------------------- oracle

mpmath.mp.dps = 50
mp = mpmath.mp

RAW = {
    "paper": {
        "hbar": 1.0545e-34, "c": 2.98e8, "G": 6.673e-11, "k_B": 1.38e-23,
        "m_e": 9.1093837015e-31, "m_p": 1.67262192369e-27, "e2": 2.3070775523e-28,
        "year_seconds": 3.156e7, "GeV_joules": 1.602e-10,
    },
    "codata": {
        "hbar": 1.054571817e-34, "c": 2.99792458e8, "G": 6.674e-11, "k_B": 1.380649e-23,
        "m_e": 9.1093837015e-31, "m_p": 1.67262192369e-27, "e2": 2.3070775523e-28,
        "year_seconds": 3.156e7, "GeV_joules": 1.602176634e-10,
    },
    "file": {
        cid: entry["value"] for cid, entry in json.loads(
            (DATA / "domain_profile.json").read_text(encoding="utf-8")
        )["constants"].items()
    },
}

LN2 = mp.log(2)

NEAR = 2e-14  # about 20 spacings of doubles near 50 decades
FAR = 1e-12  # about 4 spacings of doubles near 1200 decades

# each row's formula from the physics, and its tolerance in decades
ORACLE = {
    "PLANCK_TIME": (lambda v: mp.sqrt(v.hbar * v.G / v.c**5), NEAR),
    "PLANCK_LENGTH": (lambda v: mp.sqrt(v.hbar * v.G / v.c**3), NEAR),
    "FINE_STRUCTURE_INVERSE": (lambda v: v.hbar * v.c / v.e2, NEAR),
    "MASS_RATIO": (lambda v: v.m_p / v.m_e, NEAR),
    "HORIZON_VOLUME": (lambda v: (v.c * v.t) ** 3, FAR),
    "OPS_MATTER": (lambda v: v.rho * v.c**5 * v.t**4 / v.hbar, FAR),
    "OPS_CRITICAL": (lambda v: v.t**2 * v.c**5 / (v.hbar * v.G), FAR),
    "OPS_WITH_GRAVITY": (lambda v: 2 * v.ops, FAR),
    "DEFAULT_HUBBLE": (lambda v: 1 / v.t, FAR),
    "MATTER_RADIATION_TRANSITION": (lambda v: mp.mpf("7e5") * v.year_seconds, NEAR),
    "CRITICAL_DENSITY": (lambda v: 3 * v.H**2 / (8 * mp.pi * v.G), FAR),
    "CRITICAL_DENSITY_APPROX": (lambda v: v.H**2 / v.G, FAR),
    "D_FACTOR": (lambda v: mp.pi**2 / 30 * v.weight, NEAR),
    "BLACKBODY_TEMPERATURE": (
        lambda v: (30 * v.hbar**3 * v.c**5 * v.rho / (mp.pi**2 * v.weight)) ** 0.25 / v.k_B, FAR
    ),
    "ENTROPY_DENSITY": (lambda v: 4 * v.rho * v.c**2 / (3 * v.T), FAR),
    "ENTROPY_IN_VOLUME": (
        lambda v: 4 * v.k_B / 3 * (mp.pi**2 * v.weight / 30) ** 0.25
        * (v.rho * v.c / v.hbar) ** 0.75 * v.V,
        FAR,
    ),
    "HORIZON_ENTROPY": (
        lambda v: 4 * v.k_B / 3 * (mp.pi**2 * v.weight / 30) ** 0.25
        * (v.rho * v.c / v.hbar) ** 0.75 * (v.c * v.t) ** 3,
        FAR,
    ),
    "HORIZON_BITS": (
        lambda v: 4 / (3 * LN2) * (mp.pi**2 * v.weight / 30) ** 0.25
        * (v.rho * v.c / v.hbar) ** 0.75 * (v.c * v.t) ** 3,
        FAR,
    ),
    "RADIATION_ENERGY_AT": (lambda v: v.E * mp.sqrt(v.t / v.t0), FAR),
    "OPS_RADIATION": (lambda v: 4 * v.E / (mp.pi * v.hbar) * (v.t - mp.sqrt(v.t * v.t0)), FAR),
    "THERMAL_ENERGY": (lambda v: v.k_B * v.T, FAR),
    "BITS_RADIATION": (lambda v: 4 * v.E / (3 * LN2 * v.k_B * v.T), FAR),
    "GUT_THRESHOLD": (lambda v: mp.mpf("2e16") * v.GeV_joules, NEAR),
    "INFLATION_OPS_PER_SEC": (lambda v: 3 * v.c**5 / (8 * mp.pi * v.hbar * v.G * v.H), FAR),
    "INFLATION_OPS_PER_HUBBLE_TIME": (
        lambda v: 3 * v.c**5 / (8 * mp.pi * v.hbar * v.G * v.H**2), FAR
    ),
    "INFLATION_BITS_HORIZON": (lambda v: v.c**5 / (v.hbar * v.G * v.H**2), FAR),
    "ALPHA": (lambda v: v.e2 / (v.G * v.m_e * v.m_p), NEAR),
    "BETA": (lambda v: v.c**3 * v.t * v.m_e / v.e2, FAR),
    "GAMMA": (lambda v: mp.sqrt(v.rho * v.c**3 * v.t**3 / v.m_p), FAR),
    "MAX_OPS_PER_SEC": (lambda v: 2 * v.E / (mp.pi * v.hbar), FAR),
    "ENERGY_FOR_OPS_RATE": (lambda v: mp.pi / 2 * v.hbar * v.rate, FAR),
    "MIN_FLIP_TIME": (lambda v: mp.pi * v.hbar / (2 * v.E), FAR),
    "MAX_BITS": (lambda v: v.S / (v.k_B * LN2), FAR),
    "MAX_IO_RATE": (lambda v: v.c * v.S / (v.k_B * v.R), FAR),
    "BEKENSTEIN_RATIO": (lambda v: v.k_B * v.E * v.R / (v.hbar * v.c * v.S), FAR),
    "HOLOGRAPHIC_BITS": (lambda v: v.A * v.c**3 / (v.hbar * v.G), FAR),
    "DEFAULT_AREA": (lambda v: v.R**2, FAR),
    "FLEET_OPS": (lambda v: v.n_computers * v.clock_rate * v.ops_per_cycle * v.duration, NEAR),
    "FLEET_BITS": (lambda v: v.n_computers * v.bits_per_computer, NEAR),
    "HISTORICAL_OPS": (
        lambda v: 2 * v.n_computers * v.clock_rate * v.ops_per_cycle * v.duration, NEAR
    ),
}

PROFILES = {"paper": PAPER, "codata": CODATA, "file": load_profile(str(DATA / "domain_profile.json"))}


def _oracle_inputs(inp: dict, horizon: dict) -> dict:
    """Every input symbol's exact value at one fixture scenario."""
    t = mp.mpf(inp["age"])
    weight = sum(
        Fraction(p * a) * (Fraction(7, 8) if stats == "fermion" else 1)
        for _, p, a, stats in inp["species"]
    )
    E, S, R, T = (mp.mpf(10) ** mp.mpf(horizon[k]) for k in "ESRT")
    fleet = dict(zip(("n_computers", "clock_rate", "ops_per_cycle", "duration",
                      "bits_per_computer"), inp["fleet"]))
    # an empty fleet has no log10; its exact zero is pinned in test_baseline
    fleet["n_computers"] = fleet["n_computers"] or 1.0
    t0 = t * mp.mpf(10) ** -mp.mpf(inp["t0_decades"])
    return {
        "rho": mp.mpf(inp["rho"]), "t": t, "t0": t0,
        "H": 1 / t if inp["hubble"] is None else mp.mpf(inp["hubble"]),
        "weight": mp.mpf(weight.numerator) / weight.denominator,
        "E": E, "S": S, "R": R, "T": T, "V": R**3, "A": R**2,
        "ops": E * t,  # any count: apply_gravity doubles whatever it is given
        "rate": S / t,  # any rate: ENERGY_FOR_OPS_RATE scales whatever it is given
        "tail": 1 - mp.sqrt(t0 / t),
        **{k: mp.mpf(v) for k, v in fleet.items()},
    }


def _fixture_inputs():
    doc = json.loads((DATA / "domain_fixture.json").read_text(encoding="utf-8"))
    return [(case["inputs"], case["horizon_log10"]) for case in doc["scenarios"]]


def test_the_oracle_covers_every_row():
    assert ORACLE.keys() == ROWS.keys()


@pytest.mark.parametrize("index", range(60))
def test_rows_agree_with_mpmath(index):
    inp, horizon = _fixture_inputs()[index]
    exact = _oracle_inputs(inp, horizon)
    env = {**PROFILES[inp["profile"]]._log10s,
           **{k: float(mp.log10(v)) for k, v in exact.items()}}
    v = SimpleNamespace(**{k: mp.mpf(x) for k, x in RAW[inp["profile"]].items()}, **exact)
    for name, (formula, tol) in ORACLE.items():
        row = ROWS[name]
        f.evaluate(row.plan, env)  # the rows it nests, each into env under the row
        err = abs(row.log10(env) - float(mp.log10(formula(v))))
        assert err <= tol, (name, err)
