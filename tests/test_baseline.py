import pytest
from hypothesis import given, strategies as st

from cosmocap.baseline import (
    FleetSpec,
    default_fleet,
    fleet_bits,
    fleet_ops,
    historical_ops,
)
from cosmocap.dimq import (
    DIMENSIONLESS,
    RATE,
    TIME,
    DimensionError,
    make,
    scalar,
    zero,
)

counts = st.floats(min_value=1.0, max_value=1e12, allow_nan=False)


def test_default_fleet_lands_on_round_decades():
    # 1e9 x 1e9 x 1e5 x 1e8 and 1e9 x 1e12: exact in log space
    fleet = default_fleet()
    ops = fleet_ops(fleet)
    bits = fleet_bits(fleet)
    assert ops.log10 == 31.0
    assert bits.log10 == 21.0
    assert ops.dimension == DIMENSIONLESS
    assert bits.dimension == DIMENSIONLESS


def test_empty_fleet_computes_nothing():
    fleet = FleetSpec.from_counts(0.0, 1e9, 1e5, 1e8, 1e12)
    for q in (fleet_ops(fleet), fleet_bits(fleet), historical_ops(fleet)):
        assert q.is_zero and q.dimension == DIMENSIONLESS


def test_historical_ops_doubles_the_fleet():
    fleet = default_fleet()
    ratio = historical_ops(fleet) / fleet_ops(fleet)
    assert ratio.to_value() == pytest.approx(2.0, rel=1e-12)


def test_historical_ops_is_a_row_on_the_dimensionless_object_itself():
    # a row's dimension is fixed at import; Quantity arithmetic built a fresh one per call
    assert historical_ops(default_fleet()).dimension is DIMENSIONLESS


@given(counts, counts)
def test_ops_are_multilinear(n, clock):
    base = FleetSpec.from_counts(1.0, 1.0, 1e5, 1e8, 1e12)
    scaled = FleetSpec.from_counts(n, clock, 1e5, 1e8, 1e12)
    gap = fleet_ops(scaled).log10 - fleet_ops(base).log10
    assert gap == pytest.approx(
        (scalar(n) * scalar(clock)).log10, abs=1e-9
    )


def test_bits_scale_with_count_only():
    small = FleetSpec.from_counts(10.0, 1e9, 1e5, 1e8, 1e12)
    large = FleetSpec.from_counts(1000.0, 1e3, 7.0, 3.0, 1e12)
    assert (fleet_bits(large) / fleet_bits(small)).to_value() == pytest.approx(
        100.0, rel=1e-12
    )


def test_fleet_validation():
    with pytest.raises(ValueError):
        FleetSpec.from_counts(1e9, -1e9, 1e5, 1e8, 1e12)
    with pytest.raises(ValueError):
        FleetSpec.from_counts(1e9, 1e9, 0.0, 1e8, 1e12)
    with pytest.raises(DimensionError):
        FleetSpec(
            n_computers=scalar(1e9),
            clock_rate=make(1e9, TIME),
            ops_per_cycle=scalar(1e5),
            duration=make(1e8, TIME),
            bits_per_computer=scalar(1e12),
        )


def test_zero_count_allowed_but_zero_memory_rejected():
    FleetSpec.from_counts(0.0, 1e9, 1e5, 1e8, 1e12)
    with pytest.raises(ValueError):
        FleetSpec.from_counts(1e9, 1e9, 1e5, 1e8, 0.0)


def test_duration_must_be_time():
    with pytest.raises(DimensionError):
        FleetSpec(
            n_computers=scalar(1e9),
            clock_rate=make(1e9, RATE),
            ops_per_cycle=scalar(1e5),
            duration=scalar(1e8),
            bits_per_computer=scalar(1e12),
        )
    with pytest.raises(ValueError):
        FleetSpec(
            n_computers=scalar(1e9),
            clock_rate=make(1e9, RATE),
            ops_per_cycle=scalar(1e5),
            duration=zero(TIME),
            bits_per_computer=scalar(1e12),
        )
