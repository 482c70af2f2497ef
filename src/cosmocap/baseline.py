"""What human hardware has actually computed, for scale.

Circa-2001 defaults: a billion machines at a GHz, ~1e5 logical ops per
clock worth of raw gate activity, running for a few years (~1e8 s), each
holding ~1e12 bits.  That is 1e31 ops on 1e21 bits, some ninety decades
short of what the universe's matter could do.
"""

from __future__ import annotations

from . import formulas as f
from .dimq import Quantity, Record

__all__ = ["FleetSpec", "default_fleet", "fleet_bits", "fleet_ops", "historical_ops"]


class FleetSpec(Record):
    """A population of computers described by count, speed and memory."""

    __slots__ = ("n_computers", "clock_rate", "ops_per_cycle", "duration", "bits_per_computer",
                 "_log10s")  # _log10s: each field, as the check filed it

    def _check(self) -> None:
        # an empty fleet is legal and computes nothing
        env = f.environment(None, allow_zero=("n_computers",),
                            **dict(zip(self._fields, self._values())))
        object.__setattr__(self, "_log10s", env)

    @staticmethod
    def from_counts(
        n_computers: float,
        clock_rate_hz: float,
        ops_per_cycle: float,
        duration_s: float,
        bits_per_computer: float,
    ) -> "FleetSpec":
        counts = (n_computers, clock_rate_hz, ops_per_cycle, duration_s, bits_per_computer)
        return FleetSpec(*map(f.given, FleetSpec._fields, counts))


def default_fleet() -> FleetSpec:
    return FleetSpec.from_counts(1.0e9, 1.0e9, 1.0e5, 1.0e8, 1.0e12)


def fleet_ops(fleet: FleetSpec) -> Quantity:
    """count × clock × ops/cycle × runtime; 1e31 for the defaults."""
    return _fleet_row(f.FLEET_OPS, fleet)


def fleet_bits(fleet: FleetSpec) -> Quantity:
    """count × bits each; 1e21 for the defaults."""
    return _fleet_row(f.FLEET_BITS, fleet)


def _fleet_row(row: f.Monomial, fleet: FleetSpec) -> Quantity:
    # an empty fleet's count is filed as log10 -inf, so it computes and holds exactly 0
    return row.quantity(dict(fleet._log10s))  # a copy: a plan evaluates its rows into it


def historical_ops(fleet: FleetSpec) -> Quantity:
    """All computation ever: about twice the recent-era figure."""
    return _fleet_row(f.HISTORICAL_OPS, fleet)
