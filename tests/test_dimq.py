import copy
import json
import math
import pickle
import sys
from fractions import Fraction
from types import MappingProxyType

import mpmath
import pytest
from hypothesis import example, given, strategies as st

from cosmocap.dimq import (
    DEFAULT_TOLERANCE_DECADES,
    DIMENSIONLESS,
    ENERGY,
    LENGTH,
    MASS,
    TIME,
    Dimension,
    DimensionError,
    InputError,
    LogInterval,
    ONE,
    Quantity,
    REQUIRED,
    add,
    approx_eq,
    dimension_from_mapping,
    dimension_to_mapping,
    div,
    make,
    mul,
    number,
    parse_float,
    pow_rational,
    quantity_from_jsonable,
    quantity_to_jsonable,
    read_fields,
    scalar,
    sub,
    zero,
)

# magnitudes 10^-100..10^100, comfortably beyond double territory once combined
logs = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
positive = st.floats(min_value=1e-30, max_value=1e30, allow_nan=False, allow_infinity=False)


def q(log10, sign=1, dim=DIMENSIONLESS):
    return Quantity(sign, log10, dim)


# ---------------------------------------------------------------- construction


def test_make_positive():
    v = make(2.98e8, LENGTH / TIME)
    assert v.sign == 1
    assert v.log10 == math.log10(2.98e8)
    assert v.dimension == LENGTH / TIME


def test_make_negative_and_zero():
    assert make(-5.0).sign == -1
    assert make(-5.0).log10 == math.log10(5.0)
    z = make(0.0, MASS)
    assert z.sign == 0 and z.is_zero
    assert z.dimension == MASS


def test_make_exact_powers_of_ten():
    # round powers of ten carry exact logs; several identities lean on this
    assert make(1e-27).log10 == -27.0
    assert make(1e9).log10 == 9.0
    assert make(1e121).log10 == 121.0


def test_make_rejects_non_finite():
    with pytest.raises(InputError):
        make(float("inf"))
    with pytest.raises(InputError):
        make(float("nan"))


def test_number_accepts_only_finite_json_numbers():
    assert number(3, "x") == 3.0 and number(-2.5e300, "x") == -2.5e300
    for bad in (True, None, "1", [1.0], float("inf"), float("nan"), 10**400, -(10**400)):
        with pytest.raises(InputError, match="^x must be"):
            number(bad, "x")


def test_parse_float_refuses_only_underflow():
    zeros = ("0", "0.0", "-0", "0e5", " 0.000e-400 ")
    assert [parse_float(z, "x") for z in zeros] == [0.0] * len(zeros)
    assert parse_float("5e-324", "x") == 5e-324
    # non-finite values are for number() and make() to refuse
    assert parse_float("1e400", "x") == math.inf
    for bad in ("1e-400", "-1E-400", "0.0001e-330", "1_0e-400"):
        with pytest.raises(InputError, match="below double range"):
            parse_float(bad, "x")
    with pytest.raises(InputError, match="not a number"):
        parse_float("abc", "x")


def test_quantity_validates_sign_and_log():
    with pytest.raises(ValueError):
        Quantity(2, 0.0)
    with pytest.raises(ValueError):
        Quantity(1, float("nan"))
    # a bool or float sign would encode a wire form that quantity_from_jsonable refuses
    for sign in (True, 1.0):
        with pytest.raises(ValueError, match=f"^sign must be -1, 0 or \\+1, got {sign!r}$"):
            Quantity(sign, 2.0, LENGTH)
    # and so would a bool log10, whatever the sign
    for sign in (1, 0):
        with pytest.raises(ValueError, match="^log10 must be a number, got True$"):
            Quantity(sign, True)
    # zero normalises its log
    assert Quantity(0, 123.0).log10 == 0.0


@pytest.mark.parametrize("log10", [3, -2.5], ids=["int", "float"])
def test_checked_quantity_survives_the_wire(log10):
    q = Quantity(-1, log10, LENGTH)
    back = quantity_from_jsonable(json.loads(json.dumps(quantity_to_jsonable(q))))
    assert (back.sign, back.log10, back.dimension) == (-1, log10, LENGTH)


def test_quantity_refuses_a_dimension_of_another_type():
    for build in (lambda: Quantity(1, 0.0, "L"), lambda: make(1.0, "L"), lambda: make(0.0, "L")):
        with pytest.raises(TypeError, match="^dimension must be a Dimension$"):
            build()
    with pytest.raises(InputError):  # the value is checked first
        make(float("nan"), "L")


def test_arithmetic_with_a_non_quantity_operand_is_refused():
    q = make(6.0)
    for operation in (
        lambda: q * 2, lambda: 2 * q, lambda: q + 1, lambda: q - 1, lambda: q / 2,
    ):
        with pytest.raises(TypeError):
            operation()
    for method in (q.__mul__, q.__truediv__, q.__add__, q.__sub__):
        assert method(2) is NotImplemented


def test_to_value_round_trip():
    assert make(3.25e-7).to_value() == pytest.approx(3.25e-7, rel=1e-14)
    assert make(-2.0).to_value() == pytest.approx(-2.0, rel=1e-14)
    assert zero().to_value() == 0.0


def test_to_value_overflow():
    with pytest.raises(OverflowError):
        q(400.0).to_value()
    with pytest.raises(OverflowError):
        q(-400.0).to_value()


def test_str_forms():
    assert str(make(2.98e8)) == "2.980e+08"
    assert str(q(119.3445827)) == "10^119.34"
    assert str(q(119.3445827, sign=-1)) == "-10^119.34"
    assert str(zero(MASS)) == "0 [M]"
    assert str(make(1.38e-23, ENERGY * TIME)) == "1.380e-23 [L^2 M T^-1]"


# ---------------------------------------------------------------- dimensions


def test_dimension_algebra():
    speed = LENGTH / TIME
    assert speed * TIME == LENGTH
    assert (LENGTH**3).length == Fraction(3)
    assert (LENGTH ** Fraction(3, 4)).length == Fraction(3, 4)
    assert ENERGY == MASS * LENGTH**2 / TIME**2


def test_dimension_arithmetic_with_a_non_dimension_is_refused():
    for operation in (lambda: LENGTH * 2, lambda: LENGTH / "x"):
        with pytest.raises(TypeError):
            operation()


def test_dimension_rejects_float_exponent():
    with pytest.raises(TypeError):
        LENGTH**0.75
    with pytest.raises(TypeError):
        Dimension(length=1.5)


# rational 5-vectors with denominators up to 12, as profile files and the
# benchmark's algebra chains build them
exponents = st.fractions(min_value=-12, max_value=12, max_denominator=12)
vectors = st.tuples(*[exponents] * 5)
AXES = ("length", "mass", "time", "temperature", "charge2")


def axes(dim):
    return tuple(getattr(dim, name) for name in AXES)


@given(vectors, vectors, st.fractions(min_value=-2, max_value=2, max_denominator=12))
def test_dimension_arithmetic_matches_fractions(u, v, p):
    a, b = Dimension(*u), Dimension(**dict(zip(AXES, v)))
    assert axes(a) == u and all(type(e) is Fraction for e in axes(a))
    assert axes(a * b) == tuple(x + y for x, y in zip(u, v))
    assert axes(a / b) == tuple(x - y for x, y in zip(u, v))
    assert axes(a**p) == tuple(x * p for x in u)
    assert (a * b) / b == a and hash((a * b) / b) == hash(a)


def test_dimension_equal_however_built():
    pairs = [
        (Dimension(length=Fraction(2, 4)), LENGTH ** Fraction(1, 2)),
        (Dimension(1, 1, -2), ENERGY / LENGTH),
        (DIMENSIONLESS, (ENERGY ** Fraction(2, 3)) ** 0),
        (LENGTH ** Fraction(3, 4) * LENGTH ** Fraction(1, 4), LENGTH),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
    assert LENGTH != MASS and LENGTH != 1


def test_dimension_is_immutable_and_round_trips():
    dim = ENERGY / Dimension(temperature=1) * Dimension(charge2=Fraction(-3, 8))
    with pytest.raises(AttributeError):
        dim.length = Fraction(1)
    with pytest.raises(AttributeError):
        dim.extra = 1
    for name in ("_num", "_den", "length"):  # on this fresh dim, so no shared constant is spoilt
        with pytest.raises(AttributeError, match="immutable"):
            delattr(dim, name)
    assert eval(repr(dim), {"Dimension": Dimension, "Fraction": Fraction}) == dim
    assert copy.deepcopy(dim) == dim and pickle.loads(pickle.dumps(dim)) == dim


def test_dimension_render():
    assert DIMENSIONLESS.compact() == "[1]"
    assert (MASS / LENGTH**3).compact() == "[L^-3 M]"
    assert (LENGTH ** Fraction(3, 4)).compact() == "[L^3/4]"
    assert str(LENGTH ** Fraction(3, 4)) == "[L^3/4]"


def test_dimension_mapping_round_trip():
    dim = ENERGY / Dimension(temperature=1) * Dimension(charge2=1) ** Fraction(1, 2)
    assert dimension_from_mapping(dimension_to_mapping(dim)) == dim
    assert dimension_to_mapping(DIMENSIONLESS) == {}


def test_dimension_mapping_rejects_junk():
    # every malformed [numerator, denominator] pair, a present null among them
    malformed = [[True, 1], [1, False], [1.0, 2], [1, 2.0], [1, 2, 3], [1], [1, 0], (1, 0),
                 None, "1/2", {"n": 1, "d": 2}]
    for pair in malformed:
        with pytest.raises(InputError) as info:
            dimension_from_mapping({"M": [1, 1], "Theta": pair})
        assert str(info.value) == "dims key 'Theta' must be [numerator, nonzero denominator]"
    for data in ([["L", [1, 1]]], None, "L"):
        with pytest.raises(InputError) as info:
            dimension_from_mapping(data)
        assert str(info.value) == "dims must be an object"
    with pytest.raises(InputError) as info:
        dimension_from_mapping({"L": [1, 1], "theta": None, "X": [1, 1]})
    assert str(info.value) == "unknown dims key: 'X'"


class _Int(int):
    pass


def test_dimension_mapping_takes_tuples_and_int_subclasses():
    expected = Dimension(length=Fraction(-3, 4), time=Fraction(5, 6))
    assert dimension_from_mapping({"L": (3, -4), "T": [_Int(5), _Int(6)]}) == expected
    assert dimension_from_mapping({"L": [-3, 4], "T": (10, 12)}) == expected


# any subset of the axes, each [n, d] with n and d up to 2**80 and d of either sign
JSON_AXES = dict(zip(("L", "M", "T", "Theta", "Q2"), AXES))
big = st.integers(min_value=-2**80, max_value=2**80)
pairs = st.tuples(big, big.filter(bool))
mappings = st.dictionaries(st.sampled_from(list(JSON_AXES)), pairs)


def fraction_text(dim):
    """compact() as it read when each exponent was a Fraction."""
    symbols = dict(zip(AXES, ("L", "M", "T", "Θ", "Q2")))
    exps = [(symbols[name], getattr(dim, name)) for name in AXES if getattr(dim, name)]
    parts = [symbol if exp == 1 else f"{symbol}^{exp}" for symbol, exp in exps]
    return "[" + " ".join(parts) + "]" if parts else "[1]"


@given(mappings)
def test_dimension_mapping_matches_fractions(data):
    dim = dimension_from_mapping({key: list(pair) for key, pair in data.items()})
    assert dim == Dimension(**{JSON_AXES[key]: Fraction(n, d) for key, (n, d) in data.items()})
    exps = {key: getattr(dim, JSON_AXES[key]) for key in JSON_AXES}
    assert dimension_to_mapping(dim) == {
        key: [exp.numerator, exp.denominator] for key, exp in exps.items() if exp
    }
    assert dimension_from_mapping(dimension_to_mapping(dim)) == dim
    assert dim.compact() == fraction_text(dim)


@given(mappings, logs, st.one_of(st.builds(Fraction, big, big.filter(bool)), big),
       st.sampled_from([1, 0, -1]))
def test_pow_rational_scales_the_log_by_float_p(data, log10, p, sign):
    dim = dimension_from_mapping({key: list(pair) for key, pair in data.items()})
    p_ratio = Fraction(p)
    a = Quantity(sign, log10, dim)
    if (sign == 0 and p_ratio <= 0) or (sign < 0 and p_ratio.denominator % 2 == 0):
        with pytest.raises(ValueError):
            pow_rational(a, p)
        return
    r = pow_rational(a, p)
    assert r.dimension == dim**p == Dimension(*[e * p_ratio for e in axes(dim)])
    assert r.dimension.compact() == fraction_text(r.dimension)
    if sign == 0:
        assert r.is_zero
    else:
        assert repr(r.log10) == repr(log10 * float(p))
        assert r.sign == (-1 if sign < 0 and p_ratio.numerator % 2 else 1)


def test_pow_rational_too_large_for_a_float_overflows():
    with pytest.raises(OverflowError):
        pow_rational(q(1.0), 10**400)
    with pytest.raises(OverflowError):
        pow_rational(q(1.0), Fraction(10**400, 3))


def test_read_fields_applies_one_table():
    def reader(value, what):
        return (value, what)

    spec = {"a": (reader, REQUIRED), "b": (reader, "default")}
    assert read_fields({"a": 1}, "thing", spec) == {"a": (1, "thing key 'a'"), "b": "default"}
    # a present null goes to its reader; it is not read as absent
    assert read_fields({"a": 1, "b": None}, "thing", spec)["b"] == (None, "thing key 'b'")
    with pytest.raises(InputError, match="^thing must be an object$"):
        read_fields([1], "thing", spec)
    with pytest.raises(InputError, match="^unknown thing key: 'c'$"):
        read_fields({"a": 1, "c": 2}, "thing", spec)
    with pytest.raises(InputError, match="^thing missing key: 'a'$"):
        read_fields({"b": 2}, "thing", spec)


# ---------------------------------------------------------------- mul/div/pow


def test_mul_adds_logs_and_dims():
    a = q(10.0, dim=LENGTH)
    b = q(5.0, dim=TIME)
    c = mul(a, b)
    assert c.log10 == 15.0
    assert c.dimension == LENGTH * TIME


def test_mul_signs():
    assert mul(make(-2.0), make(3.0)).sign == -1
    assert mul(make(-2.0), make(-3.0)).sign == 1
    assert mul(make(2.0), zero()).is_zero


def test_div_and_zero_rules():
    assert div(q(7.0), q(3.0)).log10 == 4.0
    assert div(zero(LENGTH), q(3.0, dim=TIME)).dimension == LENGTH / TIME
    with pytest.raises(ZeroDivisionError):
        div(q(1.0), zero())


def test_pow_rational():
    a = q(8.0, dim=LENGTH)
    r = pow_rational(a, Fraction(3, 4))
    assert r.log10 == 6.0
    assert r.dimension == LENGTH ** Fraction(3, 4)
    assert pow_rational(a, -2).log10 == -16.0


def test_pow_zero_base():
    assert pow_rational(zero(LENGTH), 2).dimension == LENGTH**2
    with pytest.raises(ValueError):
        pow_rational(zero(), 0)
    with pytest.raises(ValueError):
        pow_rational(zero(), -1)


def test_pow_negative_base():
    a = make(-8.0)
    assert pow_rational(a, 3).sign == -1
    assert pow_rational(a, 2).sign == 1
    cube_root = pow_rational(a, Fraction(1, 3))
    assert cube_root.sign == -1
    assert cube_root.to_value() == pytest.approx(-2.0, rel=1e-12)
    with pytest.raises(ValueError):
        pow_rational(a, Fraction(1, 2))


def test_pow_rejects_floats():
    with pytest.raises(TypeError):
        pow_rational(q(1.0), 0.5)


@given(logs, logs)
def test_mul_div_round_trip(la, lb):
    a, b = q(la, dim=LENGTH), q(lb, dim=TIME)
    back = div(mul(a, b), b)
    assert back.dimension == LENGTH
    assert back.log10 == pytest.approx(la, abs=1e-9)


@given(logs, st.integers(min_value=-6, max_value=6).filter(lambda n: n != 0))
def test_pow_composes(la, n):
    a = q(la)
    left = pow_rational(pow_rational(a, n), Fraction(1, n))
    assert left.log10 == pytest.approx(la, abs=1e-9)


# ---------------------------------------------------------------- add/sub


def test_add_equal_magnitudes():
    a = q(20.0)
    total = add(a, a)
    assert total.log10 == pytest.approx(20.0 + math.log10(2.0), abs=1e-15)


def test_add_exact_cancellation():
    a = q(33.0, dim=TIME)
    total = add(a, q(33.0, sign=-1, dim=TIME))
    assert total.is_zero
    assert total.dimension == TIME


def test_add_distant_operand_is_absorbed():
    # beyond ~320 decades the small term underflows and the big one
    # comes back bit-identical
    big, small = q(200.0), q(-200.0)
    assert add(big, small) == big
    assert add(small, big) == big
    assert add(big, q(-200.0, sign=-1)) == big


def test_add_moderate_separation_still_counts():
    total = add(q(10.0), q(0.0))
    assert total.log10 == pytest.approx(10.0 + math.log10(1.0 + 1e-10), abs=1e-16)


def test_add_zero_identity():
    a = q(5.0, dim=MASS)
    assert add(a, zero(MASS)) == a
    assert add(zero(MASS), a) == a


def test_add_dimension_mismatch():
    with pytest.raises(DimensionError) as err:
        add(q(1.0, dim=LENGTH), q(1.0, dim=TIME))
    assert "[L]" in str(err.value) and "[T]" in str(err.value)


def test_sub_and_near_cancellation_precision():
    # 1 - (1 - 1e-12) should come out at 1e-12, not drown in rounding
    a = make(1.0)
    b = make(1.0 - 1e-12)
    diff = sub(a, b)
    assert diff.sign == 1
    assert diff.to_value() == pytest.approx(1e-12, rel=1e-3)


def test_operator_sugar():
    a, b = make(6.0), make(3.0)
    assert (a * b).to_value() == pytest.approx(18.0, rel=1e-12)
    assert (a / b).to_value() == pytest.approx(2.0, rel=1e-12)
    assert (a + b).to_value() == pytest.approx(9.0, rel=1e-12)
    assert (a - b).to_value() == pytest.approx(3.0, rel=1e-12)
    assert (-a).sign == -1
    assert (b ** Fraction(1, 2)).to_value() == pytest.approx(math.sqrt(3.0), rel=1e-12)


@given(logs, logs)
def test_add_commutes(la, lb):
    a, b = q(la), q(lb)
    ab, ba = add(a, b), add(b, a)
    assert ab.sign == ba.sign
    assert ab.log10 == pytest.approx(ba.log10, abs=1e-12)


@given(logs, logs)
@example(0.0, 3.300674280242484e-17)  # 10.0**la - 10.0**lb rounds to 0.0; the truth is -7.6e-17
def test_signed_add_consistent_with_floats(la, lb):
    # the oracle is 10^la - 10^lb at 50 digits, since a float difference
    # rounds away the very digits a near-cancelling add keeps; add's error
    # is at most a few units of 10^l in the last place, l = max(la, lb), and
    # grows with |l|, whose rounding 10^l magnifies (1.12 eps (1 + |l|) 10^l
    # was the worst of 300k near-cancelling draws)
    got = add(q(la), q(lb, sign=-1))
    with mpmath.workdps(50):
        exact = mpmath.mpf(10) ** la - mpmath.mpf(10) ** lb
        value = 0 if got.is_zero else got.sign * mpmath.mpf(10) ** got.log10
        l = max(la, lb)
        assert abs(value - exact) <= 4 * sys.float_info.epsilon * (1 + abs(l)) * mpmath.mpf(10) ** l


# ---------------------------------------------------------------- approx_eq


def test_approx_eq_basics():
    assert approx_eq(q(100.0), q(101.0), tol_decades=1.5)
    assert not approx_eq(q(100.0), q(102.0), tol_decades=1.5)
    assert DEFAULT_TOLERANCE_DECADES == 1.5


def test_approx_eq_respects_sign_dim_zero():
    assert not approx_eq(q(1.0), q(1.0, sign=-1))
    assert not approx_eq(q(1.0, dim=LENGTH), q(1.0, dim=TIME))
    assert approx_eq(zero(), zero())
    assert not approx_eq(zero(), q(-300.0))


def test_approx_eq_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        approx_eq(q(1.0), q(1.0), tol_decades=0.0)


@given(logs, logs, st.floats(min_value=0.01, max_value=10.0))
def test_approx_eq_symmetric(la, lb, tol):
    assert approx_eq(q(la), q(lb), tol) == approx_eq(q(lb), q(la), tol)


# ---------------------------------------------------------------- intervals


def test_interval_validation():
    with pytest.raises(ValueError):
        LogInterval(0.0, -1.0)
    with pytest.raises(ValueError):
        LogInterval(float("inf"), 0.0)


def test_interval_rejects_malformed_bands():
    for center, halfwidth in ((math.nan, 1.0), (10.0, -1.0), (10.0, math.inf)):
        with pytest.raises(InputError):
            LogInterval(center, halfwidth)


def test_interval_is_a_dimensionless_band():
    band = LogInterval(10.0, 6.0)
    assert band.dimension == DIMENSIONLESS
    assert str(band) == "10^{10±6}"
    with pytest.raises(TypeError):
        LogInterval(10.0, 6.0, DIMENSIONLESS)


def _outcome(fn, raw):
    try:
        return "value", fn(raw)
    except InputError as exc:
        return "refused", str(exc)


def test_any_mapping_reads_like_a_dict():
    # a dict takes the direct path; any other Mapping takes the general one
    def reader(value, what):
        return (value, what)

    def read(raw):
        return read_fields(raw, "thing", {"a": (reader, REQUIRED), "b": (reader, "default")})

    for data in ({"a": 1}, {"a": 1, "b": None}, {"a": 1, "c": 2}, {"b": 2}, {}):
        assert _outcome(read, MappingProxyType(data)) == _outcome(read, data)
    dims = [{}, {"L": [3, 4], "T": (10, -12)}, {"M": [1, 1], "Theta": [1, 0]},
            {"L": [1, 1], "X": [1, 1]}, {"Q2": None}, {"T": [True, 1]}]
    outcomes = [_outcome(dimension_from_mapping, data) for data in dims]
    assert [_outcome(dimension_from_mapping, MappingProxyType(d)) for d in dims] == outcomes
    assert {kind for kind, _ in outcomes} == {"value", "refused"}


# ---------------------------------------------------------------- json codec


def test_quantity_json_round_trip():
    a = Quantity(1, 119.3445827144553, DIMENSIONLESS)
    b = Quantity(-1, -43.2617, ENERGY / Dimension(temperature=1))
    for v in (a, b, zero(MASS), ONE):
        assert quantity_from_jsonable(quantity_to_jsonable(v)) == v


def test_quantity_json_zero_is_null():
    payload = quantity_to_jsonable(zero(TIME))
    assert payload["log10"] is None
    assert payload["dims"] == {"T": [1, 1]}


def test_quantity_json_rejects_bad_payloads():
    with pytest.raises(ValueError):
        quantity_from_jsonable({"sign": 1, "log10": "x", "dims": {}})
    with pytest.raises(ValueError):
        quantity_from_jsonable({"sign": 5, "log10": 1.0, "dims": {}})
    with pytest.raises(ValueError):
        quantity_from_jsonable({"sign": 0, "log10": 1.0, "dims": {}})
    with pytest.raises(ValueError):
        quantity_from_jsonable({"sign": 1, "dims": {}})


def test_scalar_helper():
    assert scalar(2.5).dimension == DIMENSIONLESS
    assert scalar(2.5).to_value() == pytest.approx(2.5, rel=1e-14)
