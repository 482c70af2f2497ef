"""Every headline formula, declared once as a monomial in log space.

Each capacity number in the package is a numeric prefactor times inputs
and constants raised to fixed rational powers, e.g.

    ops_matter = ρ c⁵ t⁴ ħ⁻¹

so its log10 is the prefactor's log10 plus a weighted sum of its terms' log10,
and its dimension is fixed by the terms alone.  A ``Monomial`` checks that
dimension once, when the row is built at import, against ``REQUIRED_DIMS`` and
``INPUT_DIMS``; a call adds plain floats, and a public wrapper builds one
``Quantity`` from the sum.  Defaults and derived inputs (H = 1/t, R², gravity's
2, the 7e5-year transition, the horizon's entropy, the energy of an ops/sec
rate) are rows too.  ``environment`` checks inputs by parameter name against
``INPUT_DIMS`` and files each under the symbol ``PARAMETER_SYMBOLS`` names (a
record keeps the table its check filed), an allowed zero as log10 -inf, which
``quantity`` reads back as exact zero and ``read`` never meets (scenarios,
systems and profiles refuse a zero; a fleet's rows go through ``quantity``),
and an omitted input, passed as None, as its ``DEFAULTS`` row of the inputs
filed before it, so it must follow the inputs its row reads.  ``filed`` reads
an input back, and ``given`` builds one read as a number.  Tests over the
source check that no other module names an input's dimension or a default
row, writes a symbol (the radiation tail aside) or calls a row's ``log10``, and
that outside ``dimq`` only ``cosmo._years`` and the residuals call ``dimq._new``.

A row reads every term from its environment, a nested row under the row
itself: a row of constants alone (the Planck scales, ħc/e², α and the like)
put there once per profile by ``profile_table``, any other by ``evaluate``
of a ``plan``, the row's own or a report's, each row once.

Terms are listed in the order the Quantity arithmetic they replace
multiplied, with a nested row wherever a product is raised to a power,
so every output keeps its last bit: IEEE ``a + (-b)`` equals ``a - b``
and ``x * 1.0`` equals ``x``.  A sum starts at the prefactor's log10 or at
0.0, and ``0.0 + x`` is ``x`` to the bit but for -0.0, so no row yields -0.0.
"""

from __future__ import annotations

import math
from collections.abc import Collection, Mapping
from fractions import Fraction

from .dimq import (
    AREA, DIMENSIONLESS, ENERGY, ENTROPY, LENGTH, MASS, MASS_DENSITY, RATE, TEMPERATURE, TIME,
    VOLUME, Dimension, DimensionError, Quantity, _new, make, require,
)

# dimension each registered constant must carry
REQUIRED_DIMS: dict[str, Dimension] = {
    "hbar": ENERGY * TIME,
    "c": LENGTH / TIME,
    "G": LENGTH**3 / (MASS * TIME**2),
    "k_B": ENTROPY,
    "m_e": MASS,
    "m_p": MASS,
    "e2": ENERGY * LENGTH,
    "year_seconds": TIME,
    "GeV_joules": ENERGY,
}

# the inputs a row may name beside the constants, each given as its log10
INPUT_DIMS: dict[str, Dimension] = {
    "rho": MASS_DENSITY, "t": TIME, "t0": TIME, "H": RATE, "V": VOLUME, "S": ENTROPY,
    "E": ENERGY, "R": LENGTH, "A": AREA, "T": TEMPERATURE,
    "weight": DIMENSIONLESS,  # Σ n_eff of the species table
    "ops": DIMENSIONLESS,  # an operation count, the input of cosmo.apply_gravity
    "rate": RATE,  # an ops/sec rate, the input of the Margolus–Levitin inverse
    "tail": DIMENSIONLESS,  # 1 − √(t0/t1), the radiation-era window
    # the fields of a baseline.FleetSpec
    "n_computers": DIMENSIONLESS, "clock_rate": RATE, "ops_per_cycle": DIMENSIONLESS,
    "duration": TIME, "bits_per_computer": DIMENSIONLESS,
}

_SYMBOL_DIMS = {**REQUIRED_DIMS, **INPUT_DIMS}
_ZERO_LOG10 = -math.inf  # the log10 an allowed zero input is filed as

# the symbol each public parameter name fills in environment
PARAMETER_SYMBOLS: dict[str, str] = {
    "rho": "rho", "age": "t", "t": "t", "t1": "t", "t0": "t0", "hubble": "H", "energy": "E",
    "e1": "E", "entropy": "S", "radius": "R", "area": "A", "temperature": "T", "volume": "V",
    **{name: name for name in ("ops", "rate", "n_computers", "clock_rate", "ops_per_cycle",
                               "duration", "bits_per_computer")},  # each names its own symbol
}


class Monomial:
    """prefactor × Π term^exponent, with a dimension checked when built.

    ``terms`` are ``(term, exponent)`` pairs, or a bare term for exponent
    1; a term is a symbol of ``REQUIRED_DIMS`` or ``INPUT_DIMS``, or
    another ``Monomial``.  Exponents are ints or Fractions.  ``constant``
    is true when every term is a constant or a row of constants alone;
    ``plan`` lists every other row nested in this one, to evaluate first.
    """

    __slots__ = ("dimension", "terms", "constant", "plan", "_start", "_steps")

    def __init__(self, dimension: Dimension, *terms, prefactor: float | None = None):
        self.dimension = dimension
        self.terms = tuple(term if isinstance(term, tuple) else (term, 1) for term in terms)
        found = DIMENSIONLESS
        for term, exponent in self.terms:
            dim = term.dimension if isinstance(term, Monomial) else _SYMBOL_DIMS[term]
            found *= dim if exponent == 1 else dim**exponent
        if found != dimension:
            raise DimensionError("terms do not give the declared dimension", found, dimension)
        self.constant = all(
            t.constant if isinstance(t, Monomial) else t in REQUIRED_DIMS for t, _ in self.terms
        )
        self.plan = plan(*[t for t, _ in self.terms if isinstance(t, Monomial)])
        self._start = 0.0 if prefactor is None else math.log10(prefactor)
        self._steps = tuple((t, float(e)) for t, e in self.terms)

    def log10(self, env: Mapping[object, float]) -> float:
        """The row's log10 from the log10 in ``env`` of each term, a symbol or a nested row."""
        total = self._start
        for term, exponent in self._steps:
            total += env[term] * exponent
        return total

    def quantity(self, env: dict[object, float]) -> Quantity:
        """The row's value, its plan evaluated into ``env`` first; a sum of -inf is exact 0."""
        total = self.log10(evaluate(self.plan, env))
        return _new(Quantity, 0 if total == _ZERO_LOG10 else 1, total, self.dimension)

    def read(self, env: Mapping[object, float]) -> Quantity:
        """The row's value > 0 in ``env``, where a plan or ``profile_table`` put it."""
        return _new(Quantity, 1, env[self], self.dimension)


def _rows_within(row: Monomial):
    """``row`` and every row nested in it, each after the rows it nests."""
    for term, _ in row.terms:
        if isinstance(term, Monomial):
            yield from _rows_within(term)
    yield row


def plan(*rows: Monomial) -> tuple[Monomial, ...]:
    """Each row of ``rows`` or nested in them, once, after the rows it nests; none constant."""
    return tuple(dict.fromkeys(r for top in rows for r in _rows_within(top) if not r.constant))


def evaluate(rows: tuple[Monomial, ...], env: dict[object, float]) -> dict[object, float]:
    """Evaluate each of ``rows`` once, in order, into ``env`` under the row; return ``env``."""
    for row in rows:
        env[row] = row.log10(env)
    return env


def profile_table(constants: Mapping[str, Quantity]) -> dict[object, float]:
    """log10 of each required constant, by symbol, and of each row of constants alone, by row."""
    return evaluate(CONSTANT_ROWS, {cid: constants[cid].log10 for cid in REQUIRED_DIMS})


def environment(
    profile, *, allow_zero: Collection[str] = (), species=None, **inputs: Quantity
) -> dict[object, float]:
    """The profile's log10 table (none for ``profile`` None), plus each input's log10 by symbol.

    ``inputs`` are quantities by parameter name, each checked in order for its
    symbol's ``INPUT_DIMS`` dimension and a value > 0, or >= 0 (a zero filed as
    -inf) for a name in ``allow_zero``; a refusal names the parameter.  An input
    given as None is filed as its ``DEFAULTS`` row, evaluated over the inputs filed
    before it, so it must follow the inputs its row reads.  A ``species`` table
    fills ``weight`` after them, so a bad input is named before an empty table.
    """
    env = {} if profile is None else dict(profile._log10s)
    for name, q in inputs.items():
        symbol = PARAMETER_SYMBOLS[name]
        if q is None:  # omitted: its default row, of the inputs filed before it
            env[symbol] = DEFAULTS[name].log10(env)
            continue
        require(q, INPUT_DIMS[symbol], name, allow_zero=name in allow_zero)
        env[symbol] = q.log10 if q.sign else _ZERO_LOG10
    if species is not None:
        env["weight"] = species.log10_weight()
    return env


def filed(env: Mapping[object, float], name: str) -> Quantity:
    """Input ``name`` as ``env`` files it, a value > 0 on its symbol's ``INPUT_DIMS`` dimension."""
    symbol = PARAMETER_SYMBOLS[name]
    return _new(Quantity, 1, env[symbol], INPUT_DIMS[symbol])


def given(name: str, value: float) -> Quantity:
    """``value`` as a Quantity of public parameter ``name``'s ``INPUT_DIMS`` dimension."""
    return make(value, INPUT_DIMS[PARAMETER_SYMBOLS[name]])


_HALF, _QUARTER = Fraction(1, 2), Fraction(1, 4)

# -- constants --------------------------------------------------------
PLANCK_TIME = Monomial(TIME, (Monomial(TIME**2, "hbar", "G", ("c", -5)), _HALF))
PLANCK_LENGTH = Monomial(LENGTH, (Monomial(AREA, "hbar", "G", ("c", -3)), _HALF))
FINE_STRUCTURE_INVERSE = Monomial(DIMENSIONLESS, "hbar", "c", ("e2", -1))
MASS_RATIO = Monomial(DIMENSIONLESS, "m_p", ("m_e", -1))
_K_B_LN2 = Monomial(ENTROPY, "k_B", prefactor=math.log(2.0))  # the entropy of one bit

# -- cosmo: matter epoch ----------------------------------------------
HORIZON_VOLUME = Monomial(VOLUME, (Monomial(LENGTH, "c", "t"), 3))
OPS_MATTER = Monomial(DIMENSIONLESS, "rho", ("c", 5), ("t", 4), ("hbar", -1))
OPS_CRITICAL = Monomial(DIMENSIONLESS, (Monomial(DIMENSIONLESS, "t", (PLANCK_TIME, -1)), 2))
OPS_WITH_GRAVITY = Monomial(DIMENSIONLESS, "ops", prefactor=2.0)
DEFAULT_HUBBLE = Monomial(RATE, ("t", -1))  # H = 1/t when a scenario gives none
MATTER_RADIATION_TRANSITION = Monomial(TIME, "year_seconds", prefactor=7.0e5)
CRITICAL_DENSITY = Monomial(MASS_DENSITY, ("H", 2), ("G", -1), prefactor=3.0 / (8.0 * math.pi))
CRITICAL_DENSITY_APPROX = Monomial(MASS_DENSITY, ("H", 2), ("G", -1))
D_FACTOR = Monomial(DIMENSIONLESS, "weight", prefactor=math.pi**2 / 30.0)
_BATH = Monomial(ENERGY**4, ("hbar", 3), ("c", 5), "rho", (D_FACTOR, -1))
BLACKBODY_TEMPERATURE = Monomial(TEMPERATURE, (_BATH, _QUARTER), ("k_B", -1))
ENTROPY_DENSITY = Monomial(ENTROPY / VOLUME, "rho", ("c", 2), ("T", -1), prefactor=4.0 / 3.0)
_RHO_C_HBAR = Monomial(AREA**-2, "rho", "c", ("hbar", -1))
_BATH_ENTROPY_DENSITY = Monomial(ENTROPY / VOLUME, "k_B", (D_FACTOR, _QUARTER),  # S/V at ρ
                                 (_RHO_C_HBAR, 3 * _QUARTER), prefactor=4.0 / 3.0)
ENTROPY_IN_VOLUME = Monomial(ENTROPY, _BATH_ENTROPY_DENSITY, "V")
HORIZON_ENTROPY = Monomial(ENTROPY, _BATH_ENTROPY_DENSITY, HORIZON_VOLUME)
HORIZON_BITS = Monomial(DIMENSIONLESS, HORIZON_ENTROPY, (_K_B_LN2, -1))  # MAX_BITS of it

# -- cosmo: radiation epoch -------------------------------------------
RADIATION_ENERGY_AT = Monomial(ENERGY, "E", (Monomial(DIMENSIONLESS, "t", ("t0", -1)), _HALF))
# tail is log10(1 − √(t0/t1)), which the caller forms with expm1
OPS_RADIATION = Monomial(
    DIMENSIONLESS, "E", Monomial(TIME, "t", "tail"), ("hbar", -1), prefactor=4.0 / math.pi
)
THERMAL_ENERGY = Monomial(ENERGY, "k_B", "T")
BITS_RADIATION = Monomial(
    DIMENSIONLESS, "E", (THERMAL_ENERGY, -1), prefactor=4.0 / (3.0 * math.log(2.0))
)
GUT_THRESHOLD_GEV = 2.0e16
GUT_THRESHOLD = Monomial(ENERGY, "GeV_joules", prefactor=GUT_THRESHOLD_GEV)

# -- cosmo: inflation -------------------------------------------------
INFLATION_OPS_PER_SEC = Monomial(
    RATE, (Monomial(TIME, (PLANCK_TIME, 2), "H"), -1), prefactor=3.0 / (8.0 * math.pi)
)
INFLATION_OPS_PER_HUBBLE_TIME = Monomial(DIMENSIONLESS, INFLATION_OPS_PER_SEC, ("H", -1))
INFLATION_BITS_HORIZON = Monomial(
    DIMENSIONLESS, (Monomial(LENGTH, "c", ("H", -1)), 2), (PLANCK_LENGTH, -2)
)

# -- largenum ---------------------------------------------------------
ALPHA = Monomial(DIMENSIONLESS, "e2", (Monomial(ENERGY * LENGTH, "G", "m_e", "m_p"), -1))
BETA = Monomial(DIMENSIONLESS, "c", "t", "m_e", ("c", 2), ("e2", -1))
_BARYONS = Monomial(DIMENSIONLESS, "rho", ("c", 3), ("t", 3), ("m_p", -1))
GAMMA = Monomial(DIMENSIONLESS, (_BARYONS, _HALF))

# -- bounds -----------------------------------------------------------
MAX_OPS_PER_SEC = Monomial(RATE, "E", ("hbar", -1), prefactor=2.0 / math.pi)
ENERGY_FOR_OPS_RATE = Monomial(ENERGY, "rate", "hbar", prefactor=math.pi / 2.0)  # its inverse
MIN_FLIP_TIME = Monomial(TIME, (MAX_OPS_PER_SEC, -1))
MAX_BITS = Monomial(DIMENSIONLESS, "S", (_K_B_LN2, -1))
MAX_IO_RATE = Monomial(RATE, "c", "S", (Monomial(ENTROPY * LENGTH, "k_B", "R"), -1))
_HBAR_C_S = Monomial(ENERGY * LENGTH * ENTROPY, "hbar", "c", "S")
BEKENSTEIN_RATIO = Monomial(DIMENSIONLESS, "k_B", "E", "R", (_HBAR_C_S, -1))
HOLOGRAPHIC_BITS = Monomial(DIMENSIONLESS, "A", (PLANCK_LENGTH, -2))
DEFAULT_AREA = Monomial(AREA, ("R", 2))  # a bare R², no 4π, when a system gives no area
DEFAULTS = {"hubble": DEFAULT_HUBBLE, "area": DEFAULT_AREA}  # by the parameter each fills

# -- baseline ---------------------------------------------------------
FLEET_OPS = Monomial(DIMENSIONLESS, "n_computers", "clock_rate", "ops_per_cycle", "duration")
FLEET_BITS = Monomial(DIMENSIONLESS, "n_computers", "bits_per_computer")
HISTORICAL_OPS = Monomial(DIMENSIONLESS, FLEET_OPS, prefactor=2.0)


# every row of constants alone, named or nested, each after the rows it nests
CONSTANT_ROWS = tuple(dict.fromkeys(
    row
    for top in list(globals().values()) if isinstance(top, Monomial)
    for row in _rows_within(top) if row.constant
))
