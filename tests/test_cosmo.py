import math
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from cosmocap import cosmo
from cosmocap.bounds import max_bits, max_ops_per_sec
from cosmocap.constants import CODATA, PAPER, get, planck_time
from cosmocap.cosmo import (
    PHOTONS_ONLY,
    RadiationBits,
    Scenario,
    Species,
    SpeciesTable,
    apply_gravity,
    bits_holographic,
    bits_matter,
    bits_radiation,
    blackbody_temperature,
    critical_density,
    d_factor,
    entropy_density,
    entropy_in_volume,
    full_report,
    horizon_volume,
    inflation_bounds,
    inflation_total_ops,
    ops_critical,
    ops_matter,
    ops_radiation,
    paper_scenario,
    radiation_energy_at,
)
from cosmocap.dimq import (
    DIMENSIONLESS,
    ENERGY,
    MASS_DENSITY,
    ONE,
    RATE,
    TEMPERATURE,
    TIME,
    DimensionError,
    InputError,
    LogInterval,
    Quantity,
    make,
    pow_rational,
    scalar,
    zero,
)

# independent plain-double values for the default scenario
# (rho = 1e-27 kg/m^3, t = 1e10 yr = 3.156e17 s, photons only)
RHO = make(1.0e-27, MASS_DENSITY)
AGE_S = 3.156e17
CRITICAL_APPROX = 1.5045439756903361e-25
HORIZON_VOLUME = 8.31878262082294e77
OPS_MATTER = 2.210969310942412e119
OPS_CRITICAL = 3.3265005572146196e121
D_PHOTONS = 0.6579736267392905
T_BLACKBODY_PAPER = 18.434190031646747
T_BLACKBODY_CODATA = 18.565112915390394
ENTROPY_DENSITY_AT_18K = 6.578074074074074e-12
ENTROPY_TOTAL = 5.343268282767563e66
BITS_MATTER = 5.586019314266703e89
T_AT_3E16_GEV = 3.4826086956521735e29
INFLATION_OPS_PER_SEC_H10 = 3.98652972308352e75
INFLATION_OPS_PER_HUBBLE_H10 = 3.98652972308352e65
INFLATION_BITS_H10 = 3.3397473310284102e66

time_logs = st.floats(min_value=-10.0, max_value=18.0, allow_nan=False)


def age_today() -> Quantity:
    return make(AGE_S, TIME)


# --- species bookkeeping ---


def test_species_weights():
    assert Species("photon", 2, 1, "boson").weight == Fraction(2)
    assert Species("nu", 2, 2, "fermion").weight == Fraction(7, 2)


def test_species_validation():
    with pytest.raises(ValueError):
        Species("x", 0, 1, "boson")
    with pytest.raises(ValueError):
        Species("x", 2, 3, "boson")
    with pytest.raises(ValueError):
        Species("x", 2, 1, "anyon")


def test_species_fields_are_checked_by_species():
    for fields in (
        (5, 2, 1, "boson"),
        ("x", True, 1, "boson"),
        ("x", 2.0, 1, "boson"),
        ("x", 10**400, 1, "boson"),
        ("x", 2, 3, "boson"),
        ("x", 2, 1, "quark"),
    ):
        with pytest.raises(InputError):
            Species(*fields)


_INTEGERS = "polarizations and particle_antiparticle must be integers"


# each refusal's exact message; a species that passes takes none of these paths
_SPECIES_REFUSALS = [
    ((5, 2, 1, "boson"), "species name must be a string"),
    (("x", True, 1, "boson"), f"species 'x': {_INTEGERS}"),
    (("x", 2.0, 1, "boson"), f"species 'x': {_INTEGERS}"),
    (("x", "2", 1, "boson"), f"species 'x': {_INTEGERS}"),
    (("x", 2, True, "boson"), f"species 'x': {_INTEGERS}"),
    (("x", 0, 1, "boson"), "species 'x': polarizations must be >= 1"),
    (("x", 10**400, 1, "boson"), "species 'x': polarizations must be finite and fit in a double"),
    (("x", 2, 3, "boson"), "species 'x': particle_antiparticle must be 1 or 2"),
    (("x", 2, 1, "quark"), "species 'x': statistics must be boson or fermion, got 'quark'"),
    # an unhashable statistics is refused as input, never a TypeError from a lookup
    (("x", 2, 1, ["boson"]), "species 'x': statistics must be boson or fermion, got ['boson']"),
    (("it's", 2, 1, "anyon"),
     """species "it's": statistics must be boson or fermion, got 'anyon'"""),
]


@pytest.mark.parametrize(("fields", "message"), _SPECIES_REFUSALS,
                         ids=[repr(fields) for fields, _ in _SPECIES_REFUSALS])
def test_species_refusals_are_worded_exactly(fields, message):
    with pytest.raises(InputError) as info:
        Species(*fields)
    assert type(info.value) is InputError and str(info.value) == message


def test_species_takes_an_int_subclass():
    class Count(int):
        pass

    species = Species("nu", Count(2), Count(2), "fermion")
    assert species.weight == Fraction(7, 2) and type(species.polarizations) is Count
    assert SpeciesTable((species,)).total_weight() == Fraction(7, 2)


def test_species_table_total_and_empty():
    table = SpeciesTable(
        (Species("photon", 2, 1, "boson"), Species("nu", 2, 2, "fermion"))
    )
    assert table.total_weight() == Fraction(11, 2)
    with pytest.raises(ValueError):
        SpeciesTable(()).total_weight()
    with pytest.raises(TypeError):
        SpeciesTable((1, 2))


# the number check's limit: polarizations up to ~1.8e308, so that Σ n_eff
# runs far beyond double range
_species = st.builds(
    Species,
    st.just("s"),
    st.integers(min_value=1, max_value=int(sys.float_info.max)),
    st.sampled_from((1, 2)),
    st.sampled_from(("boson", "fermion")),
)


@given(st.lists(_species, max_size=8))
def test_integer_weight_matches_the_fraction_sum(entries):
    table = SpeciesTable(tuple(entries))
    if not entries:
        for call in (table.total_weight, table.log10_weight,
                     lambda: d_factor(table),
                     lambda: bits_radiation(make(1.0, ENERGY), make(1.0, TEMPERATURE), table),
                     lambda: blackbody_temperature(RHO, table),
                     lambda: entropy_in_volume(RHO, horizon_volume(age_today()), table),
                     lambda: bits_matter(RHO, age_today(), table),
                     lambda: full_report(Scenario(RHO, age_today(), species=table))):
            with pytest.raises(ValueError, match="empty"):
                call()
        return
    weight = sum((s.weight for s in entries), Fraction(0))
    assert table.total_weight() == weight
    # bit for bit the log10 taken from the Fraction's own numerator and denominator
    expected = math.log10(weight.numerator) - math.log10(weight.denominator)
    assert repr(table.log10_weight()) == repr(expected)


def test_d_factor_photons():
    assert d_factor(PHOTONS_ONLY).to_value() == pytest.approx(D_PHOTONS, rel=1e-12)


# --- densities and volumes ---


def test_critical_density_approx_value():
    rho_c = critical_density(ONE / age_today(), "approx", PAPER)
    assert rho_c.dimension == MASS_DENSITY
    assert rho_c.to_value() == pytest.approx(CRITICAL_APPROX, rel=1e-9)


def test_critical_density_exact_vs_approx():
    h = make(2.2e-18, RATE)
    ratio = critical_density(h, "exact") / critical_density(h, "approx")
    assert ratio.to_value() == pytest.approx(3.0 / (8.0 * math.pi), rel=1e-12)


def test_critical_density_validation():
    with pytest.raises(ValueError):
        critical_density(make(1.0, RATE), "sloppy")
    with pytest.raises(DimensionError):
        critical_density(make(1.0, TIME))


def test_horizon_volume_values():
    c = 2.98e8
    assert horizon_volume(make(1.0, TIME)).to_value() == pytest.approx(c**3, rel=1e-12)
    assert horizon_volume(age_today()).to_value() == pytest.approx(
        HORIZON_VOLUME, rel=1e-9
    )


# --- the two headline op counts ---


def test_ops_matter_value():
    ops = ops_matter(RHO, age_today())
    assert ops.dimension.is_dimensionless
    assert ops.to_value() == pytest.approx(OPS_MATTER, rel=1e-9)


def test_ops_critical_value():
    assert ops_critical(age_today()).to_value() == pytest.approx(
        OPS_CRITICAL, rel=1e-9
    )


def test_ops_matter_validation():
    with pytest.raises(DimensionError):
        ops_matter(make(1.0, ENERGY), age_today())
    with pytest.raises(ValueError):
        ops_matter(RHO, zero(TIME))


@given(time_logs)
def test_critical_density_closes_the_loop(lt):
    # at rho = H^2/G with H = 1/t the two op counts coincide
    t = Quantity(1, lt, TIME)
    rho_c = critical_density(ONE / t, "approx")
    assert ops_matter(rho_c, t).log10 == pytest.approx(
        ops_critical(t).log10, abs=1e-9
    )


def test_apply_gravity():
    ops = scalar(5.0)
    assert apply_gravity(ops, False) is ops
    assert apply_gravity(ops, True).to_value() == pytest.approx(10.0, rel=1e-12)
    with pytest.raises(DimensionError):
        apply_gravity(make(1.0, TIME), True)


# --- blackbody state: temperature, entropy, bits ---


def test_blackbody_temperature_values():
    assert blackbody_temperature(RHO, PHOTONS_ONLY, PAPER).to_value() == pytest.approx(
        T_BLACKBODY_PAPER, rel=1e-9
    )
    assert blackbody_temperature(RHO, PHOTONS_ONLY, CODATA).to_value() == pytest.approx(
        T_BLACKBODY_CODATA, rel=1e-9
    )


def test_blackbody_temperature_dimension():
    t = blackbody_temperature(RHO, PHOTONS_ONLY)
    assert t.dimension == TEMPERATURE


def test_entropy_density_value():
    s = entropy_density(RHO, make(18.0, TEMPERATURE))
    assert s.to_value() == pytest.approx(ENTROPY_DENSITY_AT_18K, rel=1e-9)


def test_entropy_in_volume_value():
    s = entropy_in_volume(RHO, horizon_volume(age_today()), PHOTONS_ONLY)
    assert s.to_value() == pytest.approx(ENTROPY_TOTAL, rel=1e-9)


def test_entropy_is_extensive():
    v = horizon_volume(age_today())
    s1 = entropy_in_volume(RHO, v, PHOTONS_ONLY)
    s2 = entropy_in_volume(RHO, v * scalar(2.0), PHOTONS_ONLY)
    assert (s2 / s1).to_value() == pytest.approx(2.0, rel=1e-12)


def test_entropy_density_times_volume_matches_total():
    # the T-form and the closed form are the same number
    v = horizon_volume(age_today())
    t = blackbody_temperature(RHO, PHOTONS_ONLY)
    via_density = entropy_density(RHO, t) * v
    direct = entropy_in_volume(RHO, v, PHOTONS_ONLY)
    assert (via_density / direct).to_value() == pytest.approx(1.0, rel=1e-11)


def test_bits_matter_value():
    assert bits_matter(RHO, age_today()).to_value() == pytest.approx(
        BITS_MATTER, rel=1e-9
    )


def test_bits_ride_on_three_quarters_power():
    # bits == (4/(3 ln 2)) D^{1/4} ops^{3/4}, whatever rho and t are
    for rho_v, t_v in [(1e-27, 3.156e17), (4.2e-25, 1e12), (1e-30, 1e18)]:
        rho, t = make(rho_v, MASS_DENSITY), make(t_v, TIME)
        bits = bits_matter(rho, t)
        prefactor = scalar(4.0 / (3.0 * math.log(2.0)))
        d4 = pow_rational(d_factor(PHOTONS_ONLY), Fraction(1, 4))
        predicted = prefactor * d4 * pow_rational(ops_matter(rho, t), Fraction(3, 4))
        assert (bits / predicted).to_value() == pytest.approx(1.0, rel=1e-11)


def test_bits_holographic_is_ops_critical():
    # deliberately the same code path, so the floats are identical
    t = age_today()
    lhs, rhs = bits_holographic(t), ops_critical(t)
    assert lhs.sign == rhs.sign
    assert lhs.log10 == rhs.log10


# --- radiation epoch ---


def radiation_unit_energy() -> Quantity:
    # E1 chosen so 2 E1/(pi hbar) is exactly one op per second
    return scalar(math.pi / 2.0) * get(PAPER, "hbar") / make(1.0, TIME)


def test_radiation_energy_scaling():
    e1 = make(1e-10, ENERGY)
    t1 = make(4.0, TIME)
    assert radiation_energy_at(e1, t1, t1).to_value() == pytest.approx(
        1e-10, rel=1e-12
    )
    doubled = radiation_energy_at(e1, t1, make(1.0, TIME))
    assert doubled.to_value() == pytest.approx(2e-10, rel=1e-12)


def test_radiation_energy_grows_toward_past():
    e1 = make(1.0, ENERGY)
    t1 = make(100.0, TIME)
    e_mid = radiation_energy_at(e1, t1, make(25.0, TIME))
    e_early = radiation_energy_at(e1, t1, make(1.0, TIME))
    assert e1.log10 < e_mid.log10 < e_early.log10


def test_radiation_energy_validation():
    e1, t1 = make(1.0, ENERGY), make(1.0, TIME)
    with pytest.raises(ValueError):
        radiation_energy_at(e1, t1, make(2.0, TIME))
    with pytest.raises(ValueError):
        radiation_energy_at(e1, t1, zero(TIME))


def test_ops_radiation_worked_example():
    ops = ops_radiation(radiation_unit_energy(), make(4.0, TIME), make(1.0, TIME))
    assert ops.to_value() == pytest.approx(4.0, rel=1e-12)


def test_ops_radiation_zero_width_window():
    t1 = make(7.3, TIME)
    ops = ops_radiation(make(1.0, ENERGY), t1, t1)
    assert ops.is_zero and ops.dimension == DIMENSIONLESS


def test_ops_radiation_from_the_beginning():
    # from t0 = 0 the total is exactly twice the fixed-energy count
    e1, t1 = make(2.5e-13, ENERGY), make(1e6, TIME)
    total = ops_radiation(e1, t1, zero(TIME))
    fixed = max_ops_per_sec(e1) * t1
    assert (total / fixed).to_value() == pytest.approx(2.0, rel=1e-12)


def test_ops_radiation_rejects_reversed_window():
    with pytest.raises(ValueError):
        ops_radiation(make(1.0, ENERGY), make(1.0, TIME), make(2.0, TIME))


def test_ops_radiation_against_quadrature():
    # integrate the instantaneous rate 2 E(t)/(pi hbar) directly
    e1_v, t1_v, t0_v = 1e-20, 100.0, 4.0
    hbar_v = 1.0545e-34

    def rate(t):
        return 2.0 * e1_v * math.sqrt(t1_v / t) / (math.pi * hbar_v)

    expected, _ = quad(rate, t0_v, t1_v)
    ops = ops_radiation(make(e1_v, ENERGY), make(t1_v, TIME), make(t0_v, TIME))
    assert ops.to_value() == pytest.approx(expected, rel=1e-6)


@pytest.mark.parametrize("gap", [1e-11, 1e-12, 1e-13])
def test_ops_radiation_near_equal_times_against_mpmath(gap):
    # t1 - sqrt(t1 t0) cancels almost completely as t0 -> t1; a 50-digit
    # oracle fed the same log10 inputs pins the tail to 12 digits
    e1, t1 = make(3.0e-13, ENERGY), make(4.4e17, TIME)
    t0 = Quantity(1, t1.log10 + math.log10(1.0 - gap), TIME)
    ops = ops_radiation(e1, t1, t0, PAPER)
    with mpmath.workdps(50):
        e1_m, t1_m, t0_m, hbar_m = (
            mpmath.power(10, mpmath.mpf(q.log10)) for q in (e1, t1, t0, get(PAPER, "hbar"))
        )
        expected = 4 * e1_m * (t1_m - mpmath.sqrt(t1_m * t0_m)) / (mpmath.pi * hbar_m)
        got = mpmath.power(10, mpmath.mpf(ops.log10))
        assert abs(got / expected - 1) < 1e-12


@given(
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=0.01, max_value=0.99),
    st.floats(min_value=-40.0, max_value=-10.0),
)
def test_ops_radiation_sandwich(lt1, frac, le):
    # between the fixed-energy count and twice the full-window count
    t1 = Quantity(1, lt1, TIME)
    t0 = t1 * scalar(frac)
    e1 = Quantity(1, le, ENERGY)
    ops = ops_radiation(e1, t1, t0)
    lower = max_ops_per_sec(e1) * (t1 - t0)
    upper = scalar(2.0) * max_ops_per_sec(e1) * t1
    assert lower.log10 <= ops.log10 + 1e-9
    assert ops.log10 <= upper.log10 + 1e-9


def test_bits_radiation_unit_case():
    energy = scalar(0.75 * math.log(2.0)) * get(PAPER, "k_B") * make(1.0, TEMPERATURE)
    result = bits_radiation(energy, make(1.0, TEMPERATURE), PHOTONS_ONLY)
    assert isinstance(result, RadiationBits)
    assert result.bits.to_value() == pytest.approx(1.0, rel=1e-12)
    assert not result.above_gut_threshold


def test_bits_radiation_flags_unification_scale():
    hot = bits_radiation(
        make(1.0, ENERGY), make(T_AT_3E16_GEV, TEMPERATURE), PHOTONS_ONLY
    )
    assert hot.above_gut_threshold
    cool = bits_radiation(
        make(1.0, ENERGY), make(1e29, TEMPERATURE), PHOTONS_ONLY
    )
    assert not cool.above_gut_threshold


def test_bits_radiation_rejects_empty_bath():
    with pytest.raises(ValueError):
        bits_radiation(make(1.0, ENERGY), make(1.0, TEMPERATURE), SpeciesTable(()))


def test_bits_radiation_closes_with_matter_epoch():
    # feeding the horizon energy and blackbody T back in reproduces
    # the matter-epoch bit count
    t = age_today()
    c = get(PAPER, "c")
    energy = RHO * c**2 * horizon_volume(t)
    temperature = blackbody_temperature(RHO, PHOTONS_ONLY)
    via_radiation = bits_radiation(energy, temperature, PHOTONS_ONLY).bits
    direct = bits_matter(RHO, t)
    assert (via_radiation / direct).to_value() == pytest.approx(1.0, rel=1e-11)


# --- inflation ---


def test_inflation_bounds_values():
    bounds = inflation_bounds(make(1e10, RATE), PAPER)
    assert bounds.ops_per_sec.to_value() == pytest.approx(
        INFLATION_OPS_PER_SEC_H10, rel=1e-9
    )
    assert bounds.ops_per_hubble_time.to_value() == pytest.approx(
        INFLATION_OPS_PER_HUBBLE_H10, rel=1e-9
    )
    assert bounds.bits_horizon.to_value() == pytest.approx(
        INFLATION_BITS_H10, rel=1e-9
    )


def test_inflation_bits_are_8pi_over_3_of_ops():
    bounds = inflation_bounds(make(3.7e-5, RATE))
    ratio = bounds.bits_horizon / bounds.ops_per_hubble_time
    assert ratio.to_value() == pytest.approx(8.0 * math.pi / 3.0, rel=1e-12)


def test_inflation_at_hubble_one_over_t_tracks_critical_count():
    # per-Hubble ops are exactly 3/(8 pi) of the critical-density count
    t = age_today()
    bounds = inflation_bounds(ONE / t)
    ratio = bounds.ops_per_hubble_time / ops_critical(t)
    assert ratio.to_value() == pytest.approx(3.0 / (8.0 * math.pi), rel=1e-12)
    assert abs(ratio.log10) < 1.5


def test_inflation_bounds_validation():
    with pytest.raises(ValueError):
        inflation_bounds(zero(RATE))
    with pytest.raises(DimensionError):
        inflation_bounds(make(1.0, TIME))


def test_inflation_total_ops_squares_the_band():
    total = inflation_total_ops(LogInterval(10.0, 6.0))
    assert total.center == 20.0
    assert total.halfwidth == 12.0
    assert str(total) == "10^{20±12}"
    # a band whose square leaves double range is a domain error, not bad input
    for band in (LogInterval(1e308, 1.0), LogInterval(0.0, 1e308)):
        with pytest.raises(OverflowError, match="does not fit in a float"):
            inflation_total_ops(band)


@given(
    st.floats(min_value=-100.0, max_value=100.0),
    st.floats(min_value=0.0, max_value=20.0),
)
def test_inflation_total_ops_doubles_any_band(center, halfwidth):
    total = inflation_total_ops(LogInterval(center, halfwidth))
    assert (total.center, total.halfwidth) == (2 * center, 2 * halfwidth)


# --- scenarios and the full report ---


def test_scenario_defaults():
    s = Scenario(rho=RHO, age=age_today())
    assert s.hubble == ONE / age_today()
    assert s.matter_radiation_transition.to_value() == pytest.approx(
        7e5 * 3.156e7, rel=1e-12
    )
    assert s.species is PHOTONS_ONLY
    assert not s.include_gravity


def test_scenario_explicit_hubble():
    h = make(2.2e-18, RATE)
    assert Scenario(rho=RHO, age=age_today(), hubble=h).hubble == h


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(rho=make(-1.0, MASS_DENSITY), age=age_today())
    with pytest.raises(ValueError):
        Scenario(rho=RHO, age=zero(TIME))
    # a bad age ahead of the omitted H is named before 1/t would read it
    with pytest.raises(ValueError, match="^age must be > 0$"):
        Scenario(RHO, make(-1.0, TIME))
    with pytest.raises(TypeError):
        Scenario(rho=RHO, age=age_today(), species="photons")


@pytest.mark.parametrize("field, value, message", [
    ("include_gravity", "no", "include_gravity must be a bool"),
    ("include_gravity", 1, "include_gravity must be a bool"),
    ("profile", "paper", "profile must be a ConstantsProfile"),
    ("inflation_growth", (10.0, 6.0), "inflation_growth must be None or a LogInterval"),
])
def test_scenario_refuses_a_field_of_the_wrong_type(field, value, message):
    # each would otherwise be built, and fail later or apply gravity to a truthy string
    with pytest.raises(TypeError, match=f"^{message}$"):
        Scenario(rho=RHO, age=age_today(), **{field: value})


def test_paper_scenario_round_numbers():
    s = paper_scenario()
    assert s.rho == RHO
    assert s.age.to_value() == pytest.approx(AGE_S, rel=1e-12)


def test_full_report_is_deterministic():
    s = paper_scenario()
    assert full_report(s) == full_report(s)


def test_full_report_fields_cohere():
    report = full_report(paper_scenario())
    assert report.ops_matter.to_value() == pytest.approx(OPS_MATTER, rel=1e-9)
    assert report.bits_matter.to_value() == pytest.approx(BITS_MATTER, rel=1e-9)
    assert report.bits_holographic.log10 == report.ops_critical.log10
    assert report.ops_with_gravity == report.ops_matter
    assert report.inflation_total_ops is None
    assert max_bits(report.entropy_total).log10 == pytest.approx(
        report.bits_matter.log10, abs=1e-12
    )


def test_full_report_gravity_toggle():
    base = paper_scenario()
    doubled = Scenario(
        rho=base.rho, age=base.age, include_gravity=True, profile=base.profile
    )
    report = full_report(doubled)
    assert (report.ops_with_gravity / report.ops_matter).to_value() == pytest.approx(
        2.0, rel=1e-12
    )


def test_full_report_with_growth_band():
    base = paper_scenario()
    s = Scenario(
        rho=base.rho, age=base.age, inflation_growth=LogInterval(10.0, 6.0)
    )
    report = full_report(s)
    assert report.inflation_total_ops == LogInterval(20.0, 12.0)
