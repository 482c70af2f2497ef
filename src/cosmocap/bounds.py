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

from . import formulas as f
from .constants import PAPER, ConstantsProfile
from .dimq import Quantity, Record

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

# 1/(2 pi) less a relative slack of 1e-9: a ratio below it is called unphysical
_BEKENSTEIN_THRESHOLD_LOG10 = math.log10((1.0 - 1e-9) / (2.0 * math.pi))


def max_ops_per_sec(energy: Quantity, profile: ConstantsProfile = PAPER) -> Quantity:
    """2E/(pi hbar): the fastest any state of mean energy E can evolve."""
    return f.MAX_OPS_PER_SEC.quantity(f.environment(profile, energy=energy))


def min_flip_time(energy: Quantity, profile: ConstantsProfile = PAPER) -> Quantity:
    """pi hbar/(2E), the exact reciprocal of max_ops_per_sec."""
    # computed as 1/rate so the product is 1 to the last bit
    return f.MIN_FLIP_TIME.quantity(f.environment(profile, energy=energy))


def max_bits(entropy: Quantity, profile: ConstantsProfile = PAPER) -> Quantity:
    """S/(k_B ln 2).  Zero entropy is a legal, zero-bit register."""
    return f.MAX_BITS.quantity(f.environment(profile, allow_zero=("entropy",), entropy=entropy))


def max_io_rate(
    entropy: Quantity, radius: Quantity, profile: ConstantsProfile = PAPER
) -> Quantity:
    """cS/(k_B R), dimension 1/time.

    This is the literal estimate; it is not divided by ln 2, so it
    counts nats/s-like units rather than bits/s.  Callers wanting bits/s
    divide by ln 2 themselves.
    """
    env = f.environment(profile, allow_zero=("entropy",), entropy=entropy, radius=radius)
    return f.MAX_IO_RATE.quantity(env)


class BekensteinResult(Record):
    # below_bound: True when the input is more entropic than nature allows
    __slots__ = ("ratio", "below_bound")


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
    env = f.environment(profile, energy=energy, radius=radius, entropy=entropy)
    return _bekenstein(f.BEKENSTEIN_RATIO.quantity(env))


def _bekenstein(ratio: Quantity) -> BekensteinResult:
    return BekensteinResult(ratio, ratio.log10 < _BEKENSTEIN_THRESHOLD_LOG10)


def holographic_bits(area: Quantity, profile: ConstantsProfile = PAPER) -> Quantity:
    """area/l_P^2, the surface-area cap on distinguishable bits."""
    return f.HOLOGRAPHIC_BITS.quantity(f.environment(profile, area=area))


class SystemSpec(Record):
    """One system's budget: energy, entropy, radius, optional area.

    Area defaults to R^2 when not given (bare square, no 4 pi).
    """

    __slots__ = ("energy", "entropy", "radius", "area", "_log10s")  # _log10s: the inputs, filed
    _defaults = {"area": None}

    def _check(self) -> None:
        env = f.environment(None, energy=self.energy, entropy=self.entropy, radius=self.radius,
                            area=self.area)  # area stays None; environment files R² then
        object.__setattr__(self, "_log10s", env)

    def effective_area(self) -> Quantity:
        """The area as the check filed it: the one given, or R² of the checked radius."""
        return f.filed(self._log10s, "area")


class SystemLimits(Record):
    # bekenstein is a BekensteinResult; the rest are Quantity
    __slots__ = ("ops_per_sec", "flip_time", "bits", "io_rate", "bekenstein", "holographic_bits")


# SystemLimits' rows in field order, and their plan, each row once
_ROWS = (f.MAX_OPS_PER_SEC, f.MIN_FLIP_TIME, f.MAX_BITS, f.MAX_IO_RATE, f.BEKENSTEIN_RATIO,
         f.HOLOGRAPHIC_BITS)
_LIMITS = f.plan(*_ROWS)


def system_limits(spec: SystemSpec, profile: ConstantsProfile = PAPER) -> SystemLimits:
    """All five limits for one system in a single pass; without an area, on R² of its radius."""
    ops, flip, bits, io, ratio, holographic = _ROWS
    env = f.evaluate(_LIMITS, {**profile._log10s, **spec._log10s})
    return SystemLimits(ops.read(env), flip.read(env), bits.read(env), io.read(env),
                        _bekenstein(ratio.read(env)), holographic.read(env))  # by position
