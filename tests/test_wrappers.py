"""Every public function's refusal of a bad Quantity input, by parameter name.

Each function of ``cosmo``, ``bounds`` and ``largenum`` that takes
Quantity inputs refuses a wrong dimension with a ``DimensionError`` and a
non-positive value with a ``ValueError``, both naming the parameter, and
with two bad inputs reports the one it checks first.
"""

import inspect
from itertools import combinations

import pytest

from cosmocap import bounds, cosmo, largenum
from cosmocap.cosmo import PHOTONS_ONLY
from cosmocap.dimq import (
    AREA, CHARGE2, DIMENSIONLESS, ENERGY, ENTROPY, LENGTH, MASS_DENSITY, RATE, TEMPERATURE,
    TIME, VOLUME, DimensionError, approx_eq, make, zero,
)

# a valid value of each Quantity parameter, by name
GOOD = {
    "rho": make(1e-27, MASS_DENSITY),
    "age": make(3e17, TIME),
    "t": make(3e17, TIME),
    "t1": make(3e17, TIME),
    "t0": make(1e10, TIME),
    "hubble": make(3e-18, RATE),
    "energy": make(1.0, ENERGY),
    "e1": make(1.0, ENERGY),
    "entropy": make(1.0, ENTROPY),
    "radius": make(1.0, LENGTH),
    "area": make(1.0, AREA),
    "temperature": make(10.0, TEMPERATURE),
    "volume": make(1.0, VOLUME),
    "ops": make(1e10, DIMENSIONLESS),
}
# the other arguments a function needs
OTHER = {"species": PHOTONS_ONLY, "include": True}

# the order each function checks its inputs in, where it is not the signature's
CHECK_ORDER = {
    "identities": ("t", "rho"),  # the order beta and gamma report a bad input in
}
# the inputs that may be zero
ALLOWS_ZERO = {("apply_gravity", "ops"), ("max_bits", "entropy"), ("max_io_rate", "entropy"),
               ("ops_radiation", "t0")}
# what each gives at that zero: exact zero on its output's dimension, but for ops_radiation,
# whose window from t0 = 0 is twice the fixed-energy count (2 E1/(pi hbar)) t1
AT_ZERO = {
    "apply_gravity": zero(DIMENSIONLESS),  # with include=True, as OTHER gives it
    "max_bits": zero(DIMENSIONLESS),
    "max_io_rate": zero(RATE),
    "ops_radiation": bounds.max_ops_per_sec(GOOD["e1"]) * GOOD["t1"] * make(2.0),
}

WRONG = make(2.0, CHARGE2)  # no input has this dimension


def _quantity_params(fn) -> tuple[str, ...]:
    return tuple(
        name for name, p in inspect.signature(fn).parameters.items() if p.annotation == "Quantity"
    )


FUNCTIONS = {
    name: fn
    for module in (cosmo, bounds, largenum)
    for name in module.__all__
    if inspect.isfunction(fn := getattr(module, name)) and _quantity_params(fn)
}


def _call(name: str, **bad):
    fn = FUNCTIONS[name]
    params = inspect.signature(fn).parameters
    kwargs = {k: v for k, v in {**GOOD, **OTHER}.items() if k in params}
    return fn(**{**kwargs, **bad})


def _order(name: str) -> tuple[str, ...]:
    return CHECK_ORDER.get(name, _quantity_params(FUNCTIONS[name]))


CASES = [(name, param) for name in FUNCTIONS for param in _order(name)]


def test_the_table_covers_every_function():
    assert set(FUNCTIONS) == {
        "critical_density", "horizon_volume", "ops_matter", "ops_critical", "apply_gravity",
        "blackbody_temperature", "entropy_density", "entropy_in_volume", "bits_matter",
        "bits_holographic", "radiation_energy_at", "ops_radiation", "bits_radiation",
        "inflation_bounds", "max_ops_per_sec", "min_flip_time", "max_bits", "max_io_rate",
        "bekenstein_ratio", "holographic_bits", "beta", "gamma", "identities",
    }
    for name, order in CHECK_ORDER.items():
        assert sorted(order) == sorted(_quantity_params(FUNCTIONS[name]))
    for name in FUNCTIONS:
        _call(name)  # every good value is good


@pytest.mark.parametrize(("name", "param"), CASES)
def test_a_wrong_dimension_is_named(name, param):
    with pytest.raises(DimensionError) as info:
        _call(name, **{param: WRONG})
    assert str(info.value).startswith(f"{param} has the wrong dimension: ")


@pytest.mark.parametrize(("name", "param"), CASES)
def test_a_nonpositive_input_is_named(name, param):
    if (name, param) in ALLOWS_ZERO:
        result = _call(name, **{param: GOOD[param] * make(0.0)})  # zero is legal
        assert approx_eq(result, AT_ZERO[name], tol_decades=1e-12)
        values, message = (-1.0,), f"{param} must be >= 0"
    else:
        values, message = (0.0, -1.0), f"{param} must be > 0"
    for value in values:
        with pytest.raises(ValueError, match=f"^{message}$"):
            _call(name, **{param: GOOD[param] * make(value)})


@pytest.mark.parametrize(
    ("name", "first", "second"),
    [(name, a, b) for name in FUNCTIONS for a, b in combinations(_order(name), 2)],
)
def test_the_first_checked_of_two_bad_inputs_is_reported(name, first, second):
    with pytest.raises(DimensionError, match=f"^{first} has the wrong dimension"):
        _call(name, **{first: WRONG, second: WRONG})
    with pytest.raises(ValueError, match=f"^{first} must be"):
        _call(name, **{first: GOOD[first] * make(-1.0), second: WRONG})


def test_critical_density_checks_hubble_before_mode():
    with pytest.raises(DimensionError, match="^hubble has the wrong dimension"):
        cosmo.critical_density(WRONG, mode="bogus")
    with pytest.raises(ValueError, match="^hubble must be > 0$"):
        cosmo.critical_density(make(0.0, RATE), mode="bogus")
    with pytest.raises(ValueError, match="^mode must be 'exact' or 'approx'"):
        cosmo.critical_density(GOOD["hubble"], mode="bogus")


@pytest.mark.parametrize("name", ["radiation_energy_at", "ops_radiation"])
def test_radiation_window_checks_each_input_before_the_order(name):
    late = {"t0": make(1e20, TIME)}  # after t1
    for param in ("e1", "t1", "t0"):
        with pytest.raises(DimensionError, match=f"^{param} has the wrong dimension"):
            _call(name, **{**late, param: WRONG})
    with pytest.raises(ValueError, match="^t0 must not exceed t1$"):
        _call(name, **late)


# the functions that read a species table's weight, after checking their quantities
WEIGHED = {name for name, fn in FUNCTIONS.items() if "species" in inspect.signature(fn).parameters}


def test_the_weighed_functions_are_the_radiation_bath_ones():
    assert WEIGHED == {"blackbody_temperature", "entropy_in_volume", "bits_matter",
                       "bits_radiation"}


@pytest.mark.parametrize(("name", "param"), [case for case in CASES if case[0] in WEIGHED])
def test_a_bad_input_is_reported_before_an_empty_species_table(name, param):
    empty = cosmo.SpeciesTable(())
    with pytest.raises(DimensionError, match=f"^{param} has the wrong dimension"):
        _call(name, species=empty, **{param: WRONG})
    with pytest.raises(ValueError, match="^species table is empty$"):
        _call(name, species=empty)
