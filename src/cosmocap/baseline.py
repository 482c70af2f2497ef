"""What human hardware has actually computed, for scale.

Circa-2001 defaults: a billion machines at a GHz, ~1e5 logical ops per
clock worth of raw gate activity, running for a few years (~1e8 s), each
holding ~1e12 bits.  That is 1e31 ops on 1e21 bits, some ninety decades
short of what the universe's matter could do.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dimq import (
    DIMENSIONLESS,
    RATE,
    TIME,
    Quantity,
    make,
    require,
    scalar,
)

__all__ = ["FleetSpec", "default_fleet", "fleet_bits", "fleet_ops", "historical_ops"]


@dataclass(frozen=True)
class FleetSpec:
    """A population of computers described by count, speed and memory."""

    n_computers: Quantity
    clock_rate: Quantity
    ops_per_cycle: Quantity
    duration: Quantity
    bits_per_computer: Quantity

    def __post_init__(self) -> None:
        # an empty fleet is legal and computes nothing
        require(self.n_computers, DIMENSIONLESS, "n_computers", allow_zero=True)
        require(self.clock_rate, RATE, "clock_rate")
        require(self.ops_per_cycle, DIMENSIONLESS, "ops_per_cycle")
        require(self.duration, TIME, "duration")
        require(self.bits_per_computer, DIMENSIONLESS, "bits_per_computer")

    @staticmethod
    def from_counts(
        n_computers: float,
        clock_rate_hz: float,
        ops_per_cycle: float,
        duration_s: float,
        bits_per_computer: float,
    ) -> "FleetSpec":
        return FleetSpec(
            n_computers=scalar(n_computers),
            clock_rate=make(clock_rate_hz, RATE),
            ops_per_cycle=scalar(ops_per_cycle),
            duration=make(duration_s, TIME),
            bits_per_computer=scalar(bits_per_computer),
        )


def default_fleet() -> FleetSpec:
    return FleetSpec.from_counts(1.0e9, 1.0e9, 1.0e5, 1.0e8, 1.0e12)


def fleet_ops(fleet: FleetSpec) -> Quantity:
    """count × clock × ops/cycle × runtime; 1e31 for the defaults."""
    return (
        fleet.n_computers * fleet.clock_rate * fleet.ops_per_cycle * fleet.duration
    )


def fleet_bits(fleet: FleetSpec) -> Quantity:
    """count × bits each; 1e21 for the defaults."""
    return fleet.n_computers * fleet.bits_per_computer


def historical_ops(fleet: FleetSpec) -> Quantity:
    """All computation ever: about twice the recent-era figure."""
    return scalar(2.0) * fleet_ops(fleet)
