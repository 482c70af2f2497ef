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
written ρc².
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .bounds import max_bits
from .constants import PAPER, ConstantsProfile, get, planck_length, planck_time
from .dimq import (
    DIMENSIONLESS,
    ENERGY,
    ENTROPY,
    MASS_DENSITY,
    ONE,
    RATE,
    TEMPERATURE,
    TIME,
    VOLUME,
    DimensionError,
    LogInterval,
    Quantity,
    interval_pow,
    make,
    require,
    scalar,
)

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

_HALF = Fraction(1, 2)
_QUARTER = Fraction(1, 4)
_LN2 = math.log(2.0)

GUT_THRESHOLD_GEV = 2.0e16


@dataclass(frozen=True)
class Species:
    """One relativistic species contributing to the radiation bath."""

    name: str
    polarizations: int
    particle_antiparticle: int
    statistics: str  # "boson" or "fermion"

    def __post_init__(self) -> None:
        if not isinstance(self.polarizations, int) or self.polarizations < 1:
            raise ValueError("polarizations must be a positive integer")
        if self.particle_antiparticle not in (1, 2):
            raise ValueError("particle_antiparticle must be 1 or 2")
        if self.statistics not in ("boson", "fermion"):
            raise ValueError(f"statistics must be boson or fermion, got {self.statistics!r}")

    @property
    def weight(self) -> Fraction:
        """n_eff: polarizations × antiparticle count × (1 boson, 7/8 fermion)."""
        w = Fraction(self.polarizations * self.particle_antiparticle)
        if self.statistics == "fermion":
            w *= Fraction(7, 8)
        return w


@dataclass(frozen=True)
class SpeciesTable:
    entries: tuple[Species, ...]

    def __post_init__(self) -> None:
        if not all(isinstance(s, Species) for s in self.entries):
            raise TypeError("entries must be Species")

    def total_weight(self) -> Fraction:
        # radiation formulas divide by this; an empty bath has no temperature
        if not self.entries:
            raise ValueError("species table is empty")
        return sum((s.weight for s in self.entries), Fraction(0))


PHOTONS_ONLY = SpeciesTable((Species("photon", 2, 1, "boson"),))


def critical_density(
    hubble: Quantity, mode: str = "exact", profile: ConstantsProfile = PAPER
) -> Quantity:
    """3H²/(8πG) in exact mode; the rounder H²/G in approx mode.

    With H = 1/t the approx mode is the familiar 1/(Gt²); the two modes
    differ by exactly 3/8π ≈ 0.119.
    """
    require(hubble, RATE, "hubble")
    if mode not in ("exact", "approx"):
        raise ValueError(f"mode must be 'exact' or 'approx', got {mode!r}")
    g = get(profile, "G")
    h2 = hubble * hubble
    if mode == "approx":
        return h2 / g
    return scalar(3.0 / (8.0 * math.pi)) * h2 / g


def horizon_volume(age: Quantity, profile: ConstantsProfile = PAPER) -> Quantity:
    """c³t³, the causally connected volume at age t."""
    require(age, TIME, "age")
    return (get(profile, "c") * age) ** 3


def ops_matter(rho: Quantity, age: Quantity, profile: ConstantsProfile = PAPER) -> Quantity:
    """ρc⁵t⁴/ħ: total ops the horizon's energy supports by age t."""
    require(rho, MASS_DENSITY, "rho")
    require(age, TIME, "age")
    c, hbar = get(profile, "c"), get(profile, "hbar")
    return rho * c**5 * age**4 / hbar


def ops_critical(age: Quantity, profile: ConstantsProfile = PAPER) -> Quantity:
    """(t/t_P)²: the matter-epoch count at critical density 1/(Gt²)."""
    require(age, TIME, "age")
    return (age / planck_time(profile)) ** 2


def apply_gravity(ops: Quantity, include: bool) -> Quantity:
    """Free gravitational degrees of freedom contribute a factor 2, no more."""
    require(ops, DIMENSIONLESS, "ops", allow_zero=True)
    if not include:
        return ops
    return scalar(2.0) * ops


def d_factor(species: SpeciesTable) -> Quantity:
    """(π²/30)·Σ n_eff, the blackbody entropy prefactor."""
    weight = species.total_weight()
    return scalar(math.pi**2 / 30.0) * scalar(float(weight))


def blackbody_temperature(
    rho: Quantity, species: SpeciesTable, profile: ConstantsProfile = PAPER
) -> Quantity:
    """T = (30 ħ³c⁵ ρ / (π² Σ n_eff))^{1/4} / k_B.

    The temperature the horizon's energy would have if converted
    entirely to relativistic particles, i.e. the maximum-entropy state.
    About 18 K for today's ~1e-27 kg/m³ with photons alone.
    """
    require(rho, MASS_DENSITY, "rho")
    weight = species.total_weight()
    hbar, c, k_b = get(profile, "hbar"), get(profile, "c"), get(profile, "k_B")
    inner = scalar(30.0) * hbar**3 * c**5 * rho / scalar(math.pi**2 * float(weight))
    temperature = inner**_QUARTER / k_b
    assert temperature.dimension == TEMPERATURE
    return temperature


def entropy_density(
    rho: Quantity, temperature: Quantity, profile: ConstantsProfile = PAPER
) -> Quantity:
    """S/V = 4ρc²/(3T) for radiation at temperature T."""
    require(rho, MASS_DENSITY, "rho")
    require(temperature, TEMPERATURE, "temperature")
    c = get(profile, "c")
    return scalar(4.0 / 3.0) * rho * c**2 / temperature


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
    require(rho, MASS_DENSITY, "rho")
    require(volume, VOLUME, "volume")
    hbar, c, k_b = get(profile, "hbar"), get(profile, "c"), get(profile, "k_B")
    prefactor = scalar(4.0 / 3.0) * k_b * d_factor(species) ** _QUARTER
    entropy = prefactor * (rho * c / hbar) ** Fraction(3, 4) * volume
    assert entropy.dimension == ENTROPY
    return entropy


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
    entropy = entropy_in_volume(rho, horizon_volume(age, profile), species, profile)
    return max_bits(entropy, profile)


def bits_holographic(age: Quantity, profile: ConstantsProfile = PAPER) -> Quantity:
    """Horizon-surface bit count (t/t_P)², numerically the same quantity
    as ops_critical and deliberately computed by the same code path."""
    return ops_critical(age, profile)


def radiation_energy_at(e1: Quantity, t1: Quantity, t0: Quantity) -> Quantity:
    """Energy at earlier time t0 given E1 at t1: E1·(t1/t0)^{1/2}."""
    require(e1, ENERGY, "e1")
    require(t1, TIME, "t1")
    require(t0, TIME, "t0")
    if t0.log10 > t1.log10:
        raise ValueError("t0 must not exceed t1")
    return e1 * (t1 / t0) ** _HALF


def ops_radiation(
    e1: Quantity, t1: Quantity, t0: Quantity, profile: ConstantsProfile = PAPER
) -> Quantity:
    """(4E1/πħ)(t1 − √(t1·t0)): ops from t0 to t1 with E ∝ t^{-1/2}.

    Finite even from t0 = 0, where it is exactly twice the fixed-energy
    count (2E1/πħ)·t1.  Zero at t0 = t1 by exact cancellation.
    """
    require(e1, ENERGY, "e1")
    require(t1, TIME, "t1")
    require(t0, TIME, "t0", allow_zero=True)
    if t0.sign > 0 and t0.log10 > t1.log10:
        raise ValueError("t0 must not exceed t1")
    hbar = get(profile, "hbar")
    tail = t1 - (t1 * t0) ** _HALF
    return scalar(4.0 / math.pi) * e1 * tail / hbar


@dataclass(frozen=True)
class RadiationBits:
    bits: Quantity
    above_gut_threshold: bool  # k_B T beyond 2e16 GeV: species table untrustworthy


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
    require(energy, ENERGY, "energy")
    require(temperature, TEMPERATURE, "temperature")
    species.total_weight()  # reject an empty bath up front
    k_b = get(profile, "k_B")
    bits = scalar(4.0 / (3.0 * _LN2)) * energy / (k_b * temperature)
    threshold = scalar(GUT_THRESHOLD_GEV) * get(profile, "GeV_joules")
    above = (k_b * temperature).log10 > threshold.log10
    return RadiationBits(bits, above)


@dataclass(frozen=True)
class InflationBounds:
    ops_per_sec: Quantity
    ops_per_hubble_time: Quantity
    bits_horizon: Quantity


def inflation_bounds(hubble: Quantity, profile: ConstantsProfile = PAPER) -> InflationBounds:
    """Processing and memory of an inflating horizon at Hubble rate H.

    ops_per_sec = (3/8π)/(t_P²H): the horizon energy 3c⁵/(8πGH) over ħ.
    ops_per_hubble_time = ops_per_sec/H.
    bits_horizon = (c/H)²/ℓ_P², which is 8π/3 × ops_per_hubble_time.
    """
    require(hubble, RATE, "hubble")
    t_p = planck_time(profile)
    ops_per_sec = scalar(3.0 / (8.0 * math.pi)) / (t_p**2 * hubble)
    ops_per_hubble = ops_per_sec / hubble
    bits = (get(profile, "c") / hubble) ** 2 / planck_length(profile) ** 2
    return InflationBounds(ops_per_sec, ops_per_hubble, bits)


def inflation_total_ops(growth: LogInterval) -> LogInterval:
    """Square the linear growth band: 10^{10±6} sizes → 10^{20±12} ops."""
    if not growth.dimension.is_dimensionless:
        raise DimensionError(
            "growth must be dimensionless", growth.dimension, DIMENSIONLESS
        )
    return interval_pow(growth, 2)


@dataclass(frozen=True)
class Scenario:
    """Inputs for a capacity report.  H defaults to 1/t, the transition
    to the radiation epoch defaults to 7e5 years (report metadata only)."""

    rho: Quantity
    age: Quantity
    hubble: Optional[Quantity] = None
    species: SpeciesTable = PHOTONS_ONLY
    include_gravity: bool = False
    profile: ConstantsProfile = PAPER
    matter_radiation_transition: Optional[Quantity] = None
    inflation_growth: Optional[LogInterval] = None

    def __post_init__(self) -> None:
        require(self.rho, MASS_DENSITY, "rho")
        require(self.age, TIME, "age")
        if self.hubble is None:
            object.__setattr__(self, "hubble", ONE / self.age)
        require(self.hubble, RATE, "hubble")
        if not isinstance(self.species, SpeciesTable):
            raise TypeError("species must be a SpeciesTable")
        if self.matter_radiation_transition is None:
            transition = make(7.0e5) * get(self.profile, "year_seconds")
            object.__setattr__(self, "matter_radiation_transition", transition)
        require(self.matter_radiation_transition, TIME, "matter_radiation_transition")
        if self.inflation_growth is not None and not self.inflation_growth.dimension.is_dimensionless:
            raise DimensionError(
                "inflation_growth must be dimensionless",
                self.inflation_growth.dimension,
                DIMENSIONLESS,
            )


def paper_scenario(profile: ConstantsProfile = PAPER) -> Scenario:
    """ρ = 1e-27 kg/m³ at age 10^10 years, photons only, no gravity."""
    age = make(1.0e10) * get(profile, "year_seconds")
    return Scenario(rho=make(1.0e-27, MASS_DENSITY), age=age, profile=profile)


@dataclass(frozen=True)
class CapacityReport:
    ops_matter: Quantity
    ops_critical: Quantity
    ops_with_gravity: Quantity
    bits_matter: Quantity
    bits_holographic: Quantity
    blackbody_T: Quantity
    entropy_total: Quantity
    matter_radiation_transition: Quantity
    inflation: InflationBounds
    inflation_total_ops: Optional[LogInterval]
    large_numbers: "LargeNumberReport"  # noqa: F821 - defined in largenum


def full_report(scenario: Scenario) -> CapacityReport:
    """Evaluate every headline quantity for one scenario.

    Pure function of the scenario; identical inputs give identical
    (bitwise) outputs.
    """
    from .largenum import identities  # cli-level aggregation, avoids an import cycle

    profile = scenario.profile
    ops = ops_matter(scenario.rho, scenario.age, profile)
    return CapacityReport(
        ops_matter=ops,
        ops_critical=ops_critical(scenario.age, profile),
        ops_with_gravity=apply_gravity(ops, scenario.include_gravity),
        bits_matter=bits_matter(scenario.rho, scenario.age, scenario.species, profile),
        bits_holographic=bits_holographic(scenario.age, profile),
        blackbody_T=blackbody_temperature(scenario.rho, scenario.species, profile),
        entropy_total=entropy_in_volume(
            scenario.rho,
            horizon_volume(scenario.age, profile),
            scenario.species,
            profile,
        ),
        matter_radiation_transition=scenario.matter_radiation_transition,
        inflation=inflation_bounds(scenario.hubble, profile),
        inflation_total_ops=(
            None
            if scenario.inflation_growth is None
            else inflation_total_ops(scenario.inflation_growth)
        ),
        large_numbers=identities(scenario.rho, scenario.age, profile),
    )
