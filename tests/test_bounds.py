import json
import math
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from cosmocap.bounds import (
    SystemSpec,
    bekenstein_ratio,
    holographic_bits,
    max_bits,
    max_io_rate,
    max_ops_per_sec,
    min_flip_time,
    system_limits,
)
from cosmocap.constants import CODATA, PAPER, get, load_profile, planck_length
from cosmocap.cosmo import (
    Scenario,
    Species,
    SpeciesTable,
    bits_holographic,
    bits_matter,
    blackbody_temperature,
    full_report,
    inflation_bounds,
    ops_critical,
    ops_matter,
)
from cosmocap.dimq import (
    AREA,
    DIMENSIONLESS,
    ENERGY,
    ENTROPY,
    LENGTH,
    MASS_DENSITY,
    RATE,
    TIME,
    DimensionError,
    Quantity,
    make,
    scalar,
    zero,
)
from cosmocap.largenum import identities

# independent plain-double value: c*S/(k_B R) with S = 1e90 k_B ln2, R = c t
IO_RATE_UNIVERSE = 2.196283842078407e72

logs = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def test_ops_rate_inverts_to_one():
    energy = make(math.pi * 1.0545e-34 / 2.0, ENERGY)
    rate = max_ops_per_sec(energy)
    assert rate.dimension == RATE
    assert rate.to_value() == pytest.approx(1.0, rel=1e-12)


def test_ops_rate_is_linear():
    e = make(3.0, ENERGY)
    assert (max_ops_per_sec(e * scalar(2.0)) / max_ops_per_sec(e)).to_value() == pytest.approx(
        2.0, rel=1e-12
    )


def test_ops_rate_rejects_bad_energy():
    with pytest.raises(ValueError):
        max_ops_per_sec(zero(ENERGY))
    with pytest.raises(ValueError):
        max_ops_per_sec(make(-1.0, ENERGY))
    with pytest.raises(DimensionError):
        max_ops_per_sec(make(1.0, LENGTH))


def test_flip_time_exact_reciprocal():
    # the product must be 1 to the last bit, not merely close
    energy = make(7.3e-19, ENERGY)
    product = min_flip_time(energy) * max_ops_per_sec(energy)
    assert product.sign == 1
    assert product.log10 == 0.0
    assert product.dimension == DIMENSIONLESS


def test_flip_time_unit_case():
    energy = make(math.pi * 1.0545e-34 / 2.0, ENERGY)
    assert min_flip_time(energy).to_value() == pytest.approx(1.0, rel=1e-12)
    assert min_flip_time(energy).dimension == TIME


@given(logs)
def test_flip_time_reciprocal_property(le):
    energy = Quantity(1, le, ENERGY)
    product = min_flip_time(energy) * max_ops_per_sec(energy)
    assert product.log10 == 0.0


def test_max_bits_unit_and_zero():
    k_b = get(PAPER, "k_B")
    one_bit = max_bits(k_b * scalar(math.log(2.0)))
    assert one_bit.to_value() == pytest.approx(1.0, rel=1e-12)
    none = max_bits(zero(ENTROPY))
    assert none.is_zero and none.dimension == DIMENSIONLESS
    with pytest.raises(ValueError):
        max_bits(make(-1.0, ENTROPY))


def test_io_rate_of_zero_entropy_is_a_zero_rate():
    rate = max_io_rate(zero(ENTROPY), make(1.0, LENGTH))
    assert rate.is_zero and rate.dimension == RATE


def test_io_rate_unit_case():
    k_b, c = get(PAPER, "k_B"), get(PAPER, "c")
    one_second = make(1.0, TIME)
    rate = max_io_rate(k_b * scalar(1.0), c * one_second)
    assert rate.dimension == RATE
    assert rate.to_value() == pytest.approx(1.0, rel=1e-12)


def test_io_rate_linear_in_entropy():
    s = make(4.2e-21, ENTROPY)
    r = make(0.3, LENGTH)
    doubled = max_io_rate(s * scalar(2.0), r) / max_io_rate(s, r)
    assert doubled.to_value() == pytest.approx(2.0, rel=1e-12)


def test_io_rate_universe_scale():
    k_b, c = get(PAPER, "k_B"), get(PAPER, "c")
    entropy = scalar(1e90) * k_b * scalar(math.log(2.0))
    radius = c * make(3.156e17, TIME)
    rate = max_io_rate(entropy, radius)
    assert rate.to_value() == pytest.approx(IO_RATE_UNIVERSE, rel=1e-9)
    # the rough figure is 10^72.5
    assert abs(rate.log10 - 72.5) < 1.5


def test_bekenstein_black_hole_calibration():
    # k_B E R/(hbar c S) with E = hbar, R = c x 1s, S = 2 pi k_B is 1/(2 pi)
    hbar, c, k_b = get(PAPER, "hbar"), get(PAPER, "c"), get(PAPER, "k_B")
    energy = hbar / make(1.0, TIME)
    radius = c * make(1.0, TIME)
    result = bekenstein_ratio(energy, radius, scalar(2.0 * math.pi) * k_b)
    assert result.ratio.to_value() == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)
    assert not result.below_bound


def test_bekenstein_flags_overdense_entropy():
    hbar, c, k_b = get(PAPER, "hbar"), get(PAPER, "c"), get(PAPER, "k_B")
    energy = hbar / make(1.0, TIME)
    radius = c * make(1.0, TIME)
    inflated = bekenstein_ratio(energy, radius, scalar(200.0 * math.pi) * k_b)
    assert inflated.ratio.to_value() == pytest.approx(1.0 / (200.0 * math.pi), rel=1e-12)
    assert inflated.below_bound


def test_bekenstein_ratio_one_not_flagged():
    hbar, c, k_b = get(PAPER, "hbar"), get(PAPER, "c"), get(PAPER, "k_B")
    result = bekenstein_ratio(hbar / make(1.0, TIME), c * make(1.0, TIME), k_b)
    assert result.ratio.to_value() == pytest.approx(1.0, rel=1e-12)
    assert not result.below_bound


def test_holographic_unit_area():
    area = planck_length(PAPER) ** 2
    assert holographic_bits(area).to_value() == pytest.approx(1.0, rel=1e-12)


def test_holographic_linear_in_area():
    area = make(2.0, LENGTH**2)
    assert (holographic_bits(area * scalar(3.0)) / holographic_bits(area)).to_value() == pytest.approx(
        3.0, rel=1e-12
    )
    with pytest.raises(ValueError):
        holographic_bits(zero(LENGTH**2))


def test_holographic_matches_cosmo_identity():
    # area c^2 t^2 counts the same bits the cosmology side reports
    t = make(3.156e17, TIME)
    area = (get(PAPER, "c") * t) ** 2
    lhs = holographic_bits(area, PAPER)
    rhs = bits_holographic(t, PAPER)
    assert lhs.to_value() / rhs.to_value() == pytest.approx(1.0, rel=1e-12)


@given(logs, st.floats(min_value=0.1, max_value=100.0))
def test_all_bounds_homogeneous_degree_one(le, factor):
    # scaling the numerator argument scales every result the same way
    k = scalar(factor)
    energy = Quantity(1, le, ENERGY)
    entropy = Quantity(1, le, ENTROPY)
    radius = make(2.0, LENGTH)
    expected = math.log10(factor)
    assert (max_ops_per_sec(energy * k) / max_ops_per_sec(energy)).log10 == pytest.approx(
        expected, abs=1e-9
    )
    assert (max_bits(entropy * k) / max_bits(entropy)).log10 == pytest.approx(
        expected, abs=1e-9
    )
    assert (max_io_rate(entropy * k, radius) / max_io_rate(entropy, radius)).log10 == pytest.approx(
        expected, abs=1e-9
    )
    area = Quantity(1, le, LENGTH**2)
    assert (holographic_bits(area * k) / holographic_bits(area)).log10 == pytest.approx(
        expected, abs=1e-9
    )


def test_system_spec_defaults_area_to_radius_squared():
    spec = SystemSpec(
        energy=make(1.0, ENERGY),
        entropy=make(1e-20, ENTROPY),
        radius=make(0.1, LENGTH),
    )
    assert spec.effective_area() == make(0.1, LENGTH) ** 2
    assert spec.effective_area().dimension is AREA


def test_default_area_of_a_radius_of_log10_negative_zero_is_positive_zero():
    # R² is a row, and no row yields -0.0
    spec = SystemSpec(make(1.0, ENERGY), make(1e-20, ENTROPY), Quantity(1, -0.0, LENGTH))
    assert math.copysign(1.0, spec.effective_area().log10) == 1.0


def test_system_spec_validation():
    with pytest.raises(ValueError):
        SystemSpec(
            energy=make(-1.0, ENERGY),
            entropy=make(1e-20, ENTROPY),
            radius=make(0.1, LENGTH),
        )
    with pytest.raises(DimensionError):
        SystemSpec(
            energy=make(1.0, TIME),
            entropy=make(1e-20, ENTROPY),
            radius=make(0.1, LENGTH),
        )
    # a bad radius ahead of the omitted area is named before R² would read it
    with pytest.raises(ValueError, match="^radius must be > 0$"):
        SystemSpec(make(1.0, ENERGY), make(1e-20, ENTROPY), zero(LENGTH))


def test_system_spec_checks_an_explicit_area():
    budget = {"energy": make(1.0, ENERGY), "entropy": make(1e-20, ENTROPY),
              "radius": make(0.1, LENGTH)}
    with pytest.raises(DimensionError, match="^area has the wrong dimension: "):
        SystemSpec(**budget, area=make(1.0, LENGTH))
    with pytest.raises(ValueError, match="^area must be > 0$"):
        SystemSpec(**budget, area=zero(AREA))
    # the given area, not R², sets the holographic count
    area = make(4.0, AREA)
    limits = system_limits(SystemSpec(**budget, area=area))
    assert limits.holographic_bits == holographic_bits(area)
    assert limits.holographic_bits != holographic_bits(budget["radius"] ** 2)


# ------------------------------------------------ cross-path agreement

DATA = Path(__file__).parent / "data"
PROFILES = {"paper": PAPER, "codata": CODATA,
            "file": load_profile(str(DATA / "domain_profile.json"))}
FIXTURE = json.loads((DATA / "domain_fixture.json").read_text(encoding="utf-8"))["scenarios"]


def _limit_budgets():
    """(profile, energy, entropy, radius): a 4 J, 5 cm system, then each fixture horizon's."""
    yield PAPER, make(4.0, ENERGY), make(1e-21, ENTROPY), make(0.05, LENGTH)
    for case in FIXTURE:
        logs = case["horizon_log10"]
        yield (PROFILES[case["inputs"]["profile"]], Quantity(1, logs["E"], ENERGY),
               Quantity(1, logs["S"], ENTROPY), Quantity(1, logs["R"], LENGTH))


def test_system_limits_aggregates_consistently():
    # each field of the one-pass limits is its single-limit function's value,
    # bit for bit, with the default area R² and with a sphere's 4πR²
    for profile, energy, entropy, radius in _limit_budgets():
        sphere = Quantity(1, 2.0 * radius.log10 + math.log10(4.0 * math.pi), AREA)
        for area in (None, sphere):
            spec = SystemSpec(energy, entropy, radius, area=area)
            limits = system_limits(spec, profile)
            assert limits.ops_per_sec == max_ops_per_sec(spec.energy, profile)
            assert limits.flip_time == min_flip_time(spec.energy, profile)
            assert limits.bits == max_bits(spec.entropy, profile)
            assert limits.io_rate == max_io_rate(spec.entropy, spec.radius, profile)
            assert limits.bekenstein == bekenstein_ratio(energy, radius, entropy, profile)
            assert limits.holographic_bits == holographic_bits(spec.effective_area(), profile)
            assert (limits.flip_time * limits.ops_per_sec).log10 == 0.0
            assert not limits.bekenstein.below_bound or limits.bekenstein.ratio.sign == 1


@pytest.mark.parametrize("index", range(len(FIXTURE)))
def test_full_report_agrees_with_each_single_row_function(index):
    inp = FIXTURE[index]["inputs"]
    profile = PROFILES[inp["profile"]]
    rho, age = make(inp["rho"], MASS_DENSITY), make(inp["age"], TIME)
    species = SpeciesTable(tuple(Species(*s) for s in inp["species"]))
    scenario = Scenario(rho, age, None if inp["hubble"] is None else make(inp["hubble"], RATE),
                        species, inp["gravity"], profile)
    report = full_report(scenario)
    assert report.ops_matter == ops_matter(rho, age, profile)
    assert report.bits_matter == bits_matter(rho, age, species, profile)
    assert report.ops_critical == ops_critical(age, profile)
    assert report.blackbody_T == blackbody_temperature(rho, species, profile)
    assert report.inflation == inflation_bounds(scenario.hubble, profile)
    assert report.large_numbers == identities(rho, age, profile)
