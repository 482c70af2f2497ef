"""Physical limits on computation for a single system.

Three limits bound what any physical system can do with its energy E,
entropy S and radius R:

    processing   # ops/sec <= 2E/(pi hbar)
    memory       # bits    <= S/(k_B ln 2)
    I/O          rate      ~  c S/(k_B R)

plus the Bekenstein ratio k_B E R/(hbar c S), which nature keeps at or
above 1/(2 pi) (equality for black holes), and the holographic bound
area/l_P^2 on the bits a surface can register.  The holographic count
here is the bare area over squared Planck length; no ln 2 and no 1/4
prefactor.

All functions are pure and work for any system, laptop or universe.
The Bekenstein bound is reported as a flag rather than raised as an
error: these are calculators for hypothetical inputs, and an input that
nature forbids is a finding, not an exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .constants import PAPER, ConstantsProfile, get, planck_length
from .dimq import (
    AREA,
    DIMENSIONLESS,
    ENERGY,
    ENTROPY,
    LENGTH,
    ONE,
    Quantity,
    require,
    scalar,
)

__all__ = [
    "BekensteinResult",
    "SystemLimits",
    "SystemSpec",
    "bekenstein_ratio",
    "holographic_bits",
    "max_bits",
    "max_io_rate",
    "max_ops_per_sec",
    "min_flip_time",
    "system_limits",
]

_LN2 = math.log(2.0)
# relative slack below 1/(2 pi) before an input is called unphysical
_BEKENSTEIN_EPS = 1e-9


def max_ops_per_sec(energy: Quantity, profile: ConstantsProfile = PAPER) -> Quantity:
    """2E/(pi hbar): the fastest any state of mean energy E can evolve."""
    require(energy, ENERGY, "energy")
    return scalar(2.0 / math.pi) * energy / get(profile, "hbar")


def min_flip_time(energy: Quantity, profile: ConstantsProfile = PAPER) -> Quantity:
    """pi hbar/(2E), the exact reciprocal of max_ops_per_sec."""
    # computed as 1/rate so the product is 1 to the last bit
    return ONE / max_ops_per_sec(energy, profile)


def max_bits(entropy: Quantity, profile: ConstantsProfile = PAPER) -> Quantity:
    """S/(k_B ln 2).  Zero entropy is a legal, zero-bit register."""
    require(entropy, ENTROPY, "entropy", allow_zero=True)
    return entropy / (get(profile, "k_B") * scalar(_LN2))


def max_io_rate(
    entropy: Quantity, radius: Quantity, profile: ConstantsProfile = PAPER
) -> Quantity:
    """cS/(k_B R), dimension 1/time.

    This is the literal estimate; it is not divided by ln 2, so it
    counts nats/s-like units rather than bits/s.  Callers wanting bits/s
    divide by ln 2 themselves.
    """
    require(entropy, ENTROPY, "entropy", allow_zero=True)
    require(radius, LENGTH, "radius")
    c, k_b = get(profile, "c"), get(profile, "k_B")
    return c * entropy / (k_b * radius)


@dataclass(frozen=True)
class BekensteinResult:
    ratio: Quantity
    below_bound: bool  # True: input more entropic than nature allows


def bekenstein_ratio(
    energy: Quantity,
    radius: Quantity,
    entropy: Quantity,
    profile: ConstantsProfile = PAPER,
) -> BekensteinResult:
    """k_B E R/(hbar c S), flagged when it dips below 1/(2 pi).

    Equality at 1/(2 pi) is the black-hole case and is not flagged; the
    flag trips only below (1/(2 pi)) x (1 - 1e-9).
    """
    require(energy, ENERGY, "energy")
    require(radius, LENGTH, "radius")
    require(entropy, ENTROPY, "entropy")
    hbar, c, k_b = get(profile, "hbar"), get(profile, "c"), get(profile, "k_B")
    ratio = k_b * energy * radius / (hbar * c * entropy)
    assert ratio.dimension == DIMENSIONLESS
    threshold_log10 = math.log10((1.0 - _BEKENSTEIN_EPS) / (2.0 * math.pi))
    return BekensteinResult(ratio, ratio.log10 < threshold_log10)


def holographic_bits(area: Quantity, profile: ConstantsProfile = PAPER) -> Quantity:
    """area/l_P^2, the surface-area cap on distinguishable bits."""
    require(area, AREA, "area")
    return area / planck_length(profile) ** 2


@dataclass(frozen=True)
class SystemSpec:
    """One system's budget: energy, entropy, radius, optional area.

    Area defaults to R^2 when not given (bare square, no 4 pi).
    """

    energy: Quantity
    entropy: Quantity
    radius: Quantity
    area: Optional[Quantity] = None

    def __post_init__(self) -> None:
        require(self.energy, ENERGY, "energy")
        require(self.entropy, ENTROPY, "entropy")
        require(self.radius, LENGTH, "radius")
        if self.area is not None:
            require(self.area, AREA, "area")

    def effective_area(self) -> Quantity:
        return self.area if self.area is not None else self.radius**2


@dataclass(frozen=True)
class SystemLimits:
    ops_per_sec: Quantity
    flip_time: Quantity
    bits: Quantity
    io_rate: Quantity
    bekenstein: BekensteinResult
    holographic_bits: Quantity


def system_limits(spec: SystemSpec, profile: ConstantsProfile = PAPER) -> SystemLimits:
    """All five limits for one system in a single pass."""
    return SystemLimits(
        ops_per_sec=max_ops_per_sec(spec.energy, profile),
        flip_time=min_flip_time(spec.energy, profile),
        bits=max_bits(spec.entropy, profile),
        io_rate=max_io_rate(spec.entropy, spec.radius, profile),
        bekenstein=bekenstein_ratio(spec.energy, spec.radius, spec.entropy, profile),
        holographic_bits=holographic_bits(spec.effective_area(), profile),
    )
