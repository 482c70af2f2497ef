"""Computational capacity of the universe by epoch.

Matter-dominated epoch: a horizon volume c³t³ of density ρ has energy
ρc²·c³t³, which caps the operation count at

    # ops ~ ρ c⁵ t⁴ / ħ         (~10^120 today)

and, at critical density 1/(Gt²), at (t/t_P)².  The memory side runs
through the maximum-entropy blackbody state: temperature from the
energy density, entropy from T, bits from entropy, landing near 10^90.

Radiation-dominated epoch: energy grows toward the past as (t1/t0)^{1/2},
and the integrated count from t0 to t1 is (4E1/πħ)(t1 − √(t1 t0)),
finite even from t0 = 0 and never more than twice the constant-energy
count.

Inflation: at Hubble rate H the horizon c/H processes (3/8π)/(t_P² H)
ops per second and registers (c/H)²/ℓ_P² bits; total ops across a
growth band are tracked as a log-space interval.

Density ρ is mass density (kg/m³) throughout; energy density is always
written ρc².  Each formula here is a row of the table in ``formulas``;
the functions and ``Scenario`` have ``formulas.environment`` check their
inputs against ``formulas.INPUT_DIMS``, each function evaluates its row,
and ``full_report`` evaluates all of its rows on one set of log10 inputs.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from . import formulas as f
from .constants import PAPER, ConstantsProfile, get
from .dimq import InputError, LogInterval, Quantity, Record, _new, make
from .formulas import GUT_THRESHOLD_GEV
from .largenum import _IDENTITIES, _identities

__all__ = [
    "GUT_THRESHOLD_GEV",
    "PHOTONS_ONLY",
    "CapacityReport",
    "InflationBounds",
    "RadiationBits",
    "Scenario",
    "Species",
    "SpeciesTable",
    "apply_gravity",
    "bits_holographic",
    "bits_matter",
    "bits_radiation",
    "blackbody_temperature",
    "critical_density",
    "d_factor",
    "entropy_density",
    "entropy_in_volume",
    "full_report",
    "horizon_volume",
    "inflation_bounds",
    "inflation_total_ops",
    "ops_critical",
    "ops_matter",
    "ops_radiation",
    "paper_scenario",
    "radiation_energy_at",
]

_LN10 = math.log(10.0)
# n_eff per polarization state and particle, in eighths: 1 for a boson, 7/8 for a fermion
_EIGHTHS = {"boson": 8, "fermion": 7}
_STATISTICS = tuple(_EIGHTHS)  # a tuple: a list as statistics is refused, not unhashable
_MAX_DOUBLE = sys.float_info.max

# InflationBounds' rows in field order; the plans inflation_bounds and full_report evaluate
_INFLATION_ROWS = (f.INFLATION_OPS_PER_SEC, f.INFLATION_OPS_PER_HUBBLE_TIME,
                   f.INFLATION_BITS_HORIZON)
_INFLATION = f.plan(*_INFLATION_ROWS)
_REPORT = f.plan(f.OPS_MATTER, f.OPS_CRITICAL, f.HORIZON_BITS, f.BLACKBODY_TEMPERATURE,
                 *_INFLATION, *_IDENTITIES)

# the paper's present-day universe, the default wherever a scenario is omitted
PAPER_RHO_KG_M3 = 1.0e-27
PAPER_AGE_YEARS = 1.0e10


class Species(Record):
    """One relativistic species contributing to the radiation bath.

    ``statistics`` is "boson" or "fermion".
    """

    __slots__ = ("name", "polarizations", "particle_antiparticle", "statistics")

    def _check(self) -> None:
        # every rule on a species' fields, in the order a refusal names them; an exact int
        # passes its rule on one identity test, and only a refusal builds the species' label
        name, p, a = self.name, self.polarizations, self.particle_antiparticle
        if not isinstance(name, str):
            raise InputError("species name must be a string")
        if not ((p.__class__ is int or isinstance(p, int) and p.__class__ is not bool)
                and (a.__class__ is int or isinstance(a, int) and a.__class__ is not bool)):
            raise InputError(
                f"species {name!r}: polarizations and particle_antiparticle must be integers")
        if not 1 <= p <= _MAX_DOUBLE:
            rule = ">= 1" if -_MAX_DOUBLE <= p < 1 else "finite and fit in a double"
            raise InputError(f"species {name!r}: polarizations must be {rule}")
        if a not in (1, 2):
            raise InputError(f"species {name!r}: particle_antiparticle must be 1 or 2")
        if self.statistics not in _STATISTICS:
            raise InputError(
                f"species {name!r}: statistics must be boson or fermion, got {self.statistics!r}")

    @property
    def weight(self) -> Fraction:
        """n_eff: polarizations × antiparticle count × (1 boson, 7/8 fermion)."""
        states = self.polarizations * self.particle_antiparticle
        return Fraction(states * _EIGHTHS[self.statistics], 8)


class SpeciesTable(Record):
    """The species of a radiation bath, and their total weight Σ n_eff.

    Σ n_eff is summed once, when the table is built, as an exact integer
    count of eighths; ``total_weight`` and ``log10_weight`` read that
    count.  An empty table is legal to build, but has no weight.
    """

    __slots__ = ("entries", "_eighths")  # entries: tuple[Species, ...]; _eighths: 8 Σ n_eff

    def _check(self) -> None:
        eighths = 0
        for s in self.entries:
            if not isinstance(s, Species):
                raise TypeError("entries must be Species")
            eighths += s.polarizations * s.particle_antiparticle * _EIGHTHS[s.statistics]
        object.__setattr__(self, "_eighths", eighths)

    def _weight_eighths(self) -> int:
        # radiation formulas divide by Σ n_eff; an empty bath has no temperature
        if not self._eighths:
            raise ValueError("species table is empty")
        return self._eighths

    def total_weight(self) -> Fraction:
        """Σ n_eff, exactly."""
        return Fraction(self._weight_eighths(), 8)

    def log10_weight(self) -> float:
        """log10 of Σ n_eff, from its integer numerator and denominator.

        Σ n_eff is exact and may lie beyond double range, so its log10
        never passes through a float of the weight itself.  The two are
        those of ``total_weight()`` in lowest terms, without building it.
        """
        eighths = self._weight_eighths()
        g = math.gcd(eighths, 8)
        return math.log10(eighths // g) - math.log10(8 // g)


PHOTONS_ONLY = SpeciesTable((Species("photon", 2, 1, "boson"),))


def critical_density(
    hubble: Quantity, mode: str = "exact", profile: ConstantsProfile = PAPER
) -> Quantity:
    """3H²/(8πG) in exact mode; the rounder H²/G in approx mode.

    With H = 1/t the approx mode is the familiar 1/(Gt²); the two modes
    differ by exactly 3/8π ≈ 0.119.
    """
    env = f.environment(profile, hubble=hubble)
    if mode not in ("exact", "approx"):
        raise ValueError(f"mode must be 'exact' or 'approx', got {mode!r}")
    row = f.CRITICAL_DENSITY if mode == "exact" else f.CRITICAL_DENSITY_APPROX
    return row.quantity(env)


def horizon_volume(age: Quantity, profile: ConstantsProfile = PAPER) -> Quantity:
    """c³t³, the causally connected volume at age t."""
    return f.HORIZON_VOLUME.quantity(f.environment(profile, age=age))


def ops_matter(rho: Quantity, age: Quantity, profile: ConstantsProfile = PAPER) -> Quantity:
    """ρc⁵t⁴/ħ: total ops the horizon's energy supports by age t."""
    return f.OPS_MATTER.quantity(f.environment(profile, rho=rho, age=age))


def ops_critical(age: Quantity, profile: ConstantsProfile = PAPER) -> Quantity:
    """(t/t_P)²: the matter-epoch count at critical density 1/(Gt²)."""
    return f.OPS_CRITICAL.quantity(f.environment(profile, age=age))


def apply_gravity(ops: Quantity, include: bool) -> Quantity:
    """Free gravitational degrees of freedom contribute a factor 2, no more."""
    env = f.environment(None, allow_zero=("ops",), ops=ops)
    return f.OPS_WITH_GRAVITY.quantity(env) if include else ops


def d_factor(species: SpeciesTable) -> Quantity:
    """(π²/30)·Σ n_eff, the blackbody entropy prefactor."""
    return f.D_FACTOR.quantity(f.environment(None, species=species))


def blackbody_temperature(
    rho: Quantity, species: SpeciesTable, profile: ConstantsProfile = PAPER
) -> Quantity:
    """T = (30 ħ³c⁵ ρ / (π² Σ n_eff))^{1/4} / k_B.

    The temperature the horizon's energy would have if converted
    entirely to relativistic particles, i.e. the maximum-entropy state.
    About 18 K for today's ~1e-27 kg/m³ with photons alone.
    """
    return f.BLACKBODY_TEMPERATURE.quantity(f.environment(profile, species=species, rho=rho))


def entropy_density(
    rho: Quantity, temperature: Quantity, profile: ConstantsProfile = PAPER
) -> Quantity:
    """S/V = 4ρc²/(3T) for radiation at temperature T."""
    return f.ENTROPY_DENSITY.quantity(f.environment(profile, rho=rho, temperature=temperature))


def entropy_in_volume(
    rho: Quantity,
    volume: Quantity,
    species: SpeciesTable,
    profile: ConstantsProfile = PAPER,
) -> Quantity:
    """S = (4k_B/3)(π² Σ n_eff/30)^{1/4} (ρc/ħ)^{3/4} · V.

    Extensive in V.  Identical to entropy_density at the matching
    blackbody temperature times V.  Reports use this form; entropy_density
    is the public per-volume form and nothing in the package calls it.
    """
    env = f.environment(profile, species=species, rho=rho, volume=volume)
    return f.ENTROPY_IN_VOLUME.quantity(env)


def bits_matter(
    rho: Quantity,
    age: Quantity,
    species: SpeciesTable = PHOTONS_ONLY,
    profile: ConstantsProfile = PAPER,
) -> Quantity:
    """Horizon entropy over k_B ln 2: the memory of the matter epoch.

    Equal to (4/(3 ln 2)) D^{1/4} ops_matter^{3/4} by construction; the
    3/4 power is why ~10^120 ops ride on only ~10^90 bits.
    """
    return f.HORIZON_BITS.quantity(f.environment(profile, species=species, rho=rho, age=age))


def bits_holographic(age: Quantity, profile: ConstantsProfile = PAPER) -> Quantity:
    """Horizon-surface bit count (t/t_P)², numerically the same quantity
    as ops_critical and deliberately computed by the same code path."""
    return ops_critical(age, profile)


def radiation_energy_at(e1: Quantity, t1: Quantity, t0: Quantity) -> Quantity:
    """Energy at earlier time t0 given E1 at t1: E1·(t1/t0)^{1/2}."""
    env = f.environment(None, e1=e1, t1=t1, t0=t0)
    if t0.log10 > t1.log10:
        raise ValueError("t0 must not exceed t1")
    return f.RADIATION_ENERGY_AT.quantity(env)


def ops_radiation(
    e1: Quantity, t1: Quantity, t0: Quantity, profile: ConstantsProfile = PAPER
) -> Quantity:
    """(4E1/πħ)(t1 − √(t1·t0)): ops from t0 to t1 with E ∝ t^{-1/2}.

    Finite even from t0 = 0, where it is exactly twice the fixed-energy
    count (2E1/πħ)·t1.  Zero at t0 = t1 by exact cancellation.
    """
    env = f.environment(profile, allow_zero=("t0",), e1=e1, t1=t1, t0=t0)
    if t0.sign > 0 and t0.log10 > t1.log10:
        raise ValueError("t0 must not exceed t1")
    # 1 − √(t0/t1) from the log gap: expm1 keeps the digits that the
    # subtraction loses as t0 -> t1; the tail is exactly 1 at t0 = 0, where the
    # gap is -inf, and exactly 0 at t0 = t1, filed as log10 -inf: an exact zero
    gap = -math.inf if t0.sign == 0 else t0.log10 - t1.log10
    tail = -math.expm1(0.5 * _LN10 * gap)
    env["tail"] = math.log10(tail) if tail else -math.inf
    return f.OPS_RADIATION.quantity(env)


class RadiationBits(Record):
    # above_gut_threshold: k_B T beyond 2e16 GeV, so the species table is untrustworthy
    __slots__ = ("bits", "above_gut_threshold")


def bits_radiation(
    energy: Quantity,
    temperature: Quantity,
    species: SpeciesTable,
    profile: ConstantsProfile = PAPER,
) -> RadiationBits:
    """4E/(3 ln 2 k_B T) bits for radiation of energy E at temperature T.

    The count itself needs only E and T; the species table is validated
    here because T normally comes from it, and a k_B·T above the grand
    unification threshold means any such table is guesswork, which the
    returned marker flags.
    """
    env = f.environment(profile, energy=energy, temperature=temperature)
    species._weight_eighths()  # reject an empty bath up front
    bits = f.BITS_RADIATION.quantity(env)  # its plan stores k_B T in env, once
    return RadiationBits(bits, env[f.THERMAL_ENERGY] > env[f.GUT_THRESHOLD])


class InflationBounds(Record):
    __slots__ = ("ops_per_sec", "ops_per_hubble_time", "bits_horizon")


def inflation_bounds(hubble: Quantity, profile: ConstantsProfile = PAPER) -> InflationBounds:
    """Processing and memory of an inflating horizon at Hubble rate H.

    ops_per_sec = (3/8π)/(t_P²H): the horizon energy 3c⁵/(8πGH) over ħ.
    ops_per_hubble_time = ops_per_sec/H.
    bits_horizon = (c/H)²/ℓ_P², which is 8π/3 × ops_per_hubble_time.
    """
    return _inflation_bounds(f.evaluate(_INFLATION, f.environment(profile, hubble=hubble)))


def _inflation_bounds(env: dict[object, float]) -> InflationBounds:  # after _INFLATION
    ops_per_sec, ops_per_hubble_time, bits_horizon = _INFLATION_ROWS
    return InflationBounds(ops_per_sec.read(env), ops_per_hubble_time.read(env),
                           bits_horizon.read(env))


def inflation_total_ops(growth: LogInterval) -> LogInterval:
    """Square the linear growth band: 10^{10±6} sizes → 10^{20±12} ops."""
    center, halfwidth = 2 * growth.center, 2 * growth.halfwidth
    if math.isinf(center) or math.isinf(halfwidth):  # a result out of range, not bad input
        raise OverflowError(f"{growth} to the power 2 does not fit in a float")
    return LogInterval(center, halfwidth)


class Scenario(Record):
    """Inputs for a capacity report.  H defaults to 1/t; the transition to the radiation
    epoch is a row of the profile's constants, 7e5 years (report metadata only)."""

    __slots__ = ("rho", "age", "hubble", "species", "include_gravity", "profile",
                 "inflation_growth", "_log10s")  # _log10s: rho, age and H as the check filed them
    _defaults = {"hubble": None, "species": PHOTONS_ONLY, "include_gravity": False,
                 "profile": PAPER, "inflation_growth": None}

    def _check(self) -> None:
        env = f.environment(None, rho=self.rho, age=self.age, hubble=self.hubble)
        if self.hubble is None:  # 1/t of the checked age, filed: a rate > 0 by construction
            object.__setattr__(self, "hubble", f.filed(env, "hubble"))
        object.__setattr__(self, "_log10s", env)
        if not isinstance(self.species, SpeciesTable):
            raise TypeError("species must be a SpeciesTable")
        if not isinstance(self.include_gravity, bool):
            raise TypeError("include_gravity must be a bool")
        if not isinstance(self.profile, ConstantsProfile):
            raise TypeError("profile must be a ConstantsProfile")
        if not (self.inflation_growth is None or isinstance(self.inflation_growth, LogInterval)):
            raise TypeError("inflation_growth must be None or a LogInterval")

    @property
    def matter_radiation_transition(self) -> Quantity:
        """7e5 of the profile's years, a row of its constants alone."""
        return f.MATTER_RADIATION_TRANSITION.read(self.profile._log10s)


def _years(years: Quantity, profile: ConstantsProfile) -> Quantity:
    """The profile's years as an age, on ``INPUT_DIMS["t"]`` itself: the bits of years * year."""
    year = get(profile, "year_seconds")
    return _new(Quantity, years.sign, years.log10 + year.log10, f.INPUT_DIMS["t"])


def paper_scenario(profile: ConstantsProfile = PAPER) -> Scenario:
    """ρ = 1e-27 kg/m³ at age 10^10 years, photons only, no gravity."""
    age = _years(make(PAPER_AGE_YEARS), profile)
    return Scenario(rho=f.given("rho", PAPER_RHO_KG_M3), age=age, profile=profile)


class CapacityReport(Record):
    # inflation is an InflationBounds, inflation_total_ops a LogInterval or
    # None, large_numbers a largenum.LargeNumberReport; the rest are Quantity
    __slots__ = ("ops_matter", "ops_critical", "ops_with_gravity", "bits_matter",
                 "bits_holographic", "blackbody_T", "entropy_total",
                 "matter_radiation_transition", "inflation", "inflation_total_ops",
                 "large_numbers")


def full_report(scenario: Scenario) -> CapacityReport:
    """Evaluate every headline quantity for one scenario.

    Pure function of the scenario; identical inputs give identical
    (bitwise) outputs.  Every value comes from one table row, the same rows
    the public functions use, each evaluated once on one log10 environment.
    """
    env = f.environment(scenario.profile, species=scenario.species)
    env.update(scenario._log10s)
    f.evaluate(_REPORT, env)
    ops = f.OPS_MATTER.read(env)
    # bits_holographic is the ops_critical value itself
    ops_c = f.OPS_CRITICAL.read(env)
    growth = scenario.inflation_growth
    return CapacityReport(  # by position
        ops,
        ops_c,
        apply_gravity(ops, scenario.include_gravity),
        f.HORIZON_BITS.read(env),
        ops_c,
        f.BLACKBODY_TEMPERATURE.read(env),
        f.HORIZON_ENTROPY.read(env),
        scenario.matter_radiation_transition,
        _inflation_bounds(env),
        None if growth is None else inflation_total_ops(growth),
        _identities(env),
    )
