"""Dimensioned quantities on a signed base-10 logarithmic scale.

The numbers handled by this package span something like 10^-102 to
10^+121, and intermediate products (fourth powers of ages, cubes of
radii) overflow IEEE doubles long before the final ratios do.  A
``Quantity`` therefore stores a sign, the log10 of its magnitude, and a
vector of dimension exponents.  Multiplication, division and rational
powers are exact bookkeeping on the exponents; addition falls back to a
log1p evaluation that stays accurate until the operands are hundreds of
decades apart, at which point the larger one simply wins.

Dimension exponents are exact rationals, kept as five integer numerators
over one positive denominator in lowest terms, so that an entropy scaling
like a 3/4 power survives round trips without drift and the arithmetic
stays in integers.  Every dimension is built from integer ratios: the
JSON decode reads each exponent as two ints, a rational power reads its
exponent's ``as_integer_ratio`` once, and the ``[L^-1/2]`` text divides
by a gcd, so none of them builds a ``Fraction``.  Only the axis
properties, ``repr`` and pickling hand ``Fraction``s back to callers.
A quantity with all exponents zero is dimensionless and converts back to
an ordinary float when it fits in one.

The wire form's decode is one pass: ``read_fields`` tests an exact
``dict`` before the ``Mapping`` ABC and looks for unknown keys only when
the key set is not a subset of the table's, each pair that is a list of
two exact ints (what ``json`` builds) is taken as it is, and the five
pairs go to one lcm and one reduction.  Tuples, int subclasses and
other mappings take the general checks, with the same result.
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Callable, Iterable, Mapping
from fractions import Fraction

__all__ = [
    "AREA",
    "CHARGE2",
    "DEFAULT_TOLERANCE_DECADES",
    "DIMENSIONLESS",
    "ENERGY",
    "ENTROPY",
    "LENGTH",
    "MASS",
    "MASS_DENSITY",
    "RATE",
    "TEMPERATURE",
    "TIME",
    "VOLUME",
    "Dimension",
    "DimensionError",
    "LogInterval",
    "Quantity",
    "add",
    "approx_eq",
    "div",
    "make",
    "mul",
    "pow_rational",
    "scalar",
    "sub",
    "zero",
]

DEFAULT_TOLERANCE_DECADES = 1.5

_LN10 = math.log(10.0)


def _exponent(p: int | Fraction, what: str = "exponent") -> int | Fraction:
    """p itself once known to be an int or Fraction; both have numerator and denominator."""
    if isinstance(p, bool) or not isinstance(p, (int, Fraction)):
        raise TypeError(f"{what} must be an int or Fraction, not {type(p).__name__}")
    return p


class DimensionError(ValueError):
    """Raised when an operation mixes incompatible dimensions."""

    def __init__(self, message: str, left: "Dimension", right: "Dimension"):
        super().__init__(f"{message}: {left.compact()} vs {right.compact()}")
        self.left = left
        self.right = right


_JSON_AXES = {
    "L": "length",
    "M": "mass",
    "T": "time",
    "Theta": "temperature",
    "Q2": "charge2",
}
_SYMBOLS = ("L", "M", "T", "Θ", "Q2")
_EXPONENT_TYPES = frozenset((int, Fraction))


class Dimension:
    """Exponent vector over length, mass, time, temperature and squared
    charge.  The fifth axis exists for electrostatic bookkeeping in unit
    systems where charge squared is its own dimension; none of the
    built-in constants use it, but user-supplied tables may."""

    __slots__ = ("_num", "_den")  # numerators over one denominator, in lowest terms

    def __new__(cls, length: int | Fraction = 0, mass: int | Fraction = 0,
                time: int | Fraction = 0, temperature: int | Fraction = 0,
                charge2: int | Fraction = 0) -> "Dimension":
        exps = (length, mass, time, temperature, charge2)
        if not _EXPONENT_TYPES.issuperset(map(type, exps)):  # isinstance on an ABC is slow
            for name, exp in zip(_JSON_AXES.values(), exps):
                _exponent(exp, f"{name} exponent")
        return _from_ratios((length.as_integer_ratio(), mass.as_integer_ratio(),
                             time.as_integer_ratio(), temperature.as_integer_ratio(),
                             charge2.as_integer_ratio()))

    length, mass, time, temperature, charge2 = (
        property(lambda self, i=i: Fraction(self._num[i], self._den)) for i in range(5)
    )

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Dimension is immutable; cannot set {name!r}")

    def __reduce__(self):
        return Dimension, tuple(Fraction(n, self._den) for n in self._num)

    def __repr__(self) -> str:
        return "Dimension({}, {}, {}, {}, {})".format(*map(repr, self.__reduce__()[1]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dimension):
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    @property
    def is_dimensionless(self) -> bool:
        return not any(self._num)

    def _combine(self, other: "Dimension", sign: int) -> "Dimension":
        if other.__class__ is not Dimension and not isinstance(other, Dimension):
            return NotImplemented
        den = math.lcm(self._den, other._den)
        a, b = den // self._den, sign * (den // other._den)
        (l1, m1, t1, k1, q1), (l2, m2, t2, k2, q2) = self._num, other._num
        return _reduced((a*l1 + b*l2, a*m1 + b*m2, a*t1 + b*t2, a*k1 + b*k2, a*q1 + b*q2), den)

    def __mul__(self, other: "Dimension") -> "Dimension":
        return self._combine(other, 1)

    def __truediv__(self, other: "Dimension") -> "Dimension":
        return self._combine(other, -1)

    def __pow__(self, p: int | Fraction) -> "Dimension":
        return self._raised(*_exponent(p).as_integer_ratio())

    def _raised(self, n: int, d: int) -> "Dimension":
        """This dimension to the power n/d, d > 0."""
        return _reduced(tuple([n * x for x in self._num]), self._den * d)

    def compact(self) -> str:
        """Render as e.g. ``[L^3 M^-1 T^-2]``; dimensionless is ``[1]``."""
        den, parts = self._den, []
        for symbol, n in zip(_SYMBOLS, self._num):
            if n == den:
                parts.append(symbol)
            elif n:  # n/den in lowest terms, as a Fraction prints it
                g = math.gcd(n, den)
                parts.append(f"{symbol}^{n // g}" if g == den else f"{symbol}^{n // g}/{den // g}")
        return "[" + " ".join(parts) + "]" if parts else "[1]"

    def __str__(self) -> str:
        return self.compact()


# the slots' own setters, which __setattr__ does not reach: faster than object.__setattr__
_set_num, _set_den = Dimension._num.__set__, Dimension._den.__set__


def _reduced(num: tuple[int, ...], den: int) -> Dimension:
    """Every Dimension is built here: num/den (den > 0) in lowest terms."""
    g = 1 if den == 1 else math.gcd(den, *num)
    dim = object.__new__(Dimension)
    _set_num(dim, num if g == 1 else tuple([x // g for x in num]))
    _set_den(dim, den // g)
    return dim


def _from_ratios(ratios: Iterable[tuple[int, int]]) -> Dimension:
    """The Dimension of one (numerator, nonzero denominator) pair per axis, all five."""
    (l, dl), (m, dm), (t, dt), (k, dk), (q, dq) = ratios
    den = math.lcm(dl, dm, dt, dk, dq)  # positive; den // d also fixes a negative d's sign
    return _reduced((l * (den // dl), m * (den // dm), t * (den // dt), k * (den // dk),
                     q * (den // dq)), den)


DIMENSIONLESS = Dimension()
LENGTH = Dimension(length=1)
MASS = Dimension(mass=1)
TIME = Dimension(time=1)
TEMPERATURE = Dimension(temperature=1)
CHARGE2 = Dimension(charge2=1)
RATE = DIMENSIONLESS / TIME
AREA = LENGTH**2
VOLUME = LENGTH**3
ENERGY = MASS * LENGTH**2 / TIME**2
ENTROPY = ENERGY / TEMPERATURE
MASS_DENSITY = MASS / VOLUME


def dimension_to_mapping(dim: Dimension) -> dict[str, list[int]]:
    """JSON form: nonzero exponents only, each as [numerator, denominator]."""
    den, mapping = dim._den, {}
    for key, n in zip(_JSON_AXES, dim._num):
        if n:
            g = math.gcd(n, den)
            mapping[key] = [n // g, den // g]
    return mapping


def _axis_ratio(raw: object, what: str) -> tuple[int, int]:
    """A JSON ``[numerator, nonzero denominator]`` pair as two ints."""
    if raw.__class__ is list and len(raw) == 2:  # what json itself builds: two exact ints
        n, d = raw
        if n.__class__ is int and d.__class__ is int and d:
            return n, d
    if isinstance(raw, (list, tuple)) and len(raw) == 2:  # a tuple, an int subclass, or junk
        n, d = raw
        if (
            isinstance(n, int) and not isinstance(n, bool)
            and isinstance(d, int) and not isinstance(d, bool)
            and d != 0
        ):
            return int(n), int(d)
    raise InputError(f"{what} must be [numerator, nonzero denominator]")


_DIMS_FIELDS = {key: (_axis_ratio, (0, 1)) for key in _JSON_AXES}


def dimension_from_mapping(data: object) -> Dimension:
    """A Dimension from its JSON form, {axis: [numerator, denominator]}.

    The axes are ``L M T Theta Q2``; an absent axis is 0, and a present
    null is refused like any other malformed pair.
    """
    return _from_ratios(read_fields(data, "dims", _DIMS_FIELDS).values())


class Record:
    """Base of the package's frozen records.

    A subclass names its fields in ``__slots__``, in order, and gives the
    defaults of its optional fields in ``_defaults``.  A record that also
    keeps a value derived from its fields lists the fields alone in
    ``_fields`` and the derived slots after them in ``__slots__``.
    Fields are taken by position or by name, then ``_check`` validates
    them; it may fill a derived default or a derived slot with
    ``object.__setattr__``, the only way to set a slot.  Records compare
    and hash by their field values, and pickle and copy through their
    constructor, so a loaded record is checked again.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}
    _setters: tuple = ()  # each field's slot setter, which __setattr__ does not reach

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        if "_fields" not in cls.__dict__:
            cls._fields = cls.__slots__
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)

    def __init__(self, *args: object, **kwargs: object) -> None:
        if kwargs or len(args) != len(self._fields):
            args = self._arguments(args, kwargs)
        for setter, value in zip(self._setters, args):
            setter(self, value)
        self._check()

    @classmethod
    def _arguments(cls, args: tuple, kwargs: dict[str, object]) -> tuple:
        """Every field's value, in order, from a call that left some out or named some."""
        names = cls._fields
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} arguments, got {len(args)}")
        given = dict(zip(names, args))
        for name in kwargs:
            if name in given or name not in names:
                raise TypeError(f"{cls.__name__}() got an unexpected or repeated argument {name!r}")
        values = {**cls._defaults, **given, **kwargs}
        for name in names:
            if name not in values:
                raise TypeError(f"{cls.__name__}() missing required argument: {name!r}")
        return tuple([values[name] for name in names])

    def _check(self) -> None:
        """Validate the fields; a subclass with rules overrides this."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class Quantity(Record):
    """A signed magnitude kept as log10, tagged with a dimension.

    ``sign`` is the int -1, 0 or +1.  For sign 0 the stored log10 is meaningless
    and normalised to 0.0.  Exact zero is a first-class value: it
    absorbs multiplication, is the identity for addition, and is what
    you get when two equal magnitudes of opposite sign cancel.
    """

    __slots__ = ("sign", "log10", "dimension")

    def __new__(cls, sign: int, log10: float, dimension: Dimension = DIMENSIONLESS) -> "Quantity":
        # every Quantity is built here; arithmetic results, whose sign and
        # dimension are right by construction, come here without __init__
        if sign == 0:
            log10 = 0.0
        elif not math.isfinite(log10):
            raise ValueError(f"log10 must be finite, got {log10!r}")
        q = object.__new__(cls)
        _set_sign(q, sign)
        _set_log10(q, log10)
        _set_dimension(q, dimension)
        return q

    def __init__(self, sign: int, log10: float, dimension: Dimension = DIMENSIONLESS) -> None:
        # the checks a caller's arguments need and an arithmetic result does not
        # an exact int: a bool or float sign would encode a wire form that does not decode
        if sign.__class__ is not int or sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {sign!r}")
        if log10.__class__ is bool:  # it would encode "log10": true, which does not decode
            raise ValueError(f"log10 must be a number, got {log10!r}")
        if not isinstance(dimension, Dimension):
            raise TypeError("dimension must be a Dimension")

    # -- constructors ------------------------------------------------

    @staticmethod
    def from_value(value: float, dimension: Dimension = DIMENSIONLESS) -> "Quantity":
        if not math.isfinite(value):
            raise InputError(f"value must be finite, got {value!r}")
        if not isinstance(dimension, Dimension):
            raise TypeError("dimension must be a Dimension")
        # the sign is right by construction, so the unchecked constructor will do
        if value == 0:
            return _new(Quantity, 0, 0.0, dimension)
        return _new(Quantity, 1 if value > 0 else -1, math.log10(abs(value)), dimension)

    # -- conversions -------------------------------------------------

    def to_value(self) -> float:
        """Back to a float.  Raises OverflowError outside double range."""
        if self.sign == 0:
            return 0.0
        if self.log10 > 308.25 or self.log10 < -323.3:
            raise OverflowError(
                f"magnitude 10^{self.log10:.2f} does not fit in a float"
            )
        return self.sign * 10.0**self.log10

    @property
    def is_zero(self) -> bool:
        return self.sign == 0

    # -- arithmetic --------------------------------------------------

    def __mul__(self, other: "Quantity") -> "Quantity":
        if not isinstance(other, Quantity):
            return NotImplemented
        return mul(self, other)

    def __truediv__(self, other: "Quantity") -> "Quantity":
        if not isinstance(other, Quantity):
            return NotImplemented
        return div(self, other)

    def __add__(self, other: "Quantity") -> "Quantity":
        if not isinstance(other, Quantity):
            return NotImplemented
        return add(self, other)

    def __sub__(self, other: "Quantity") -> "Quantity":
        if not isinstance(other, Quantity):
            return NotImplemented
        return sub(self, other)

    def __pow__(self, p: int | Fraction) -> "Quantity":
        return pow_rational(self, p)

    def __neg__(self) -> "Quantity":
        return _new(Quantity, -self.sign, self.log10, self.dimension)

    def __str__(self) -> str:
        # big numbers read best as powers of ten; small ones as exact
        # decimals, down to where doubles lose precision
        if self.sign == 0:
            body = "0"
        elif -307.0 < self.log10 < 15.0:
            body = f"{self.to_value():.3e}"
        else:
            prefix = "-" if self.sign < 0 else ""
            body = f"{prefix}10^{self.log10:.2f}"
        if self.dimension.is_dimensionless:
            return body
        return f"{body} {self.dimension.compact()}"


_new = Quantity.__new__  # the unchecked constructor: _new(Quantity, sign, log10, dimension)
# the slots' own setters, which __setattr__ does not reach: faster than object.__setattr__
_set_sign, _set_log10, _set_dimension = Quantity._setters


def zero(dimension: Dimension = DIMENSIONLESS) -> Quantity:
    return Quantity(0, 0.0, dimension)


def make(value: float, dimension: Dimension = DIMENSIONLESS) -> Quantity:
    return Quantity.from_value(value, dimension)


def scalar(value: float) -> Quantity:
    """Dimensionless shorthand for numeric factors like 2/pi."""
    return Quantity.from_value(value, DIMENSIONLESS)


ONE = Quantity(1, 0.0, DIMENSIONLESS)


def mul(a: Quantity, b: Quantity) -> Quantity:
    # an exact-zero operand needs no branch here or in div: sign 0 zeroes the log10
    return _new(Quantity, a.sign * b.sign, a.log10 + b.log10, a.dimension * b.dimension)


def div(a: Quantity, b: Quantity) -> Quantity:
    if b.sign == 0:
        raise ZeroDivisionError("division by an exact-zero quantity")
    return _new(Quantity, a.sign * b.sign, a.log10 - b.log10, a.dimension / b.dimension)


def pow_rational(a: Quantity, p: int | Fraction) -> Quantity:
    n, d = _exponent(p).as_integer_ratio()
    dim = a.dimension._raised(n, d)
    if a.sign == 0:
        if n <= 0:
            raise ValueError(f"cannot raise exact zero to power {p}")
        return zero(dim)
    if a.sign < 0:
        if d % 2 == 0:
            raise ValueError(
                f"negative quantity has no real power for exponent {p}"
            )
        sign = -1 if n % 2 else 1
    else:
        sign = 1
    # n / d is float(p) to the bit: a Rational's float is its integers' true division
    return _new(Quantity, sign, a.log10 * (n / d), dim)


def add(a: Quantity, b: Quantity) -> Quantity:
    """Signed addition via log1p.

    The smaller operand enters as a ratio 10^(lb - la) in [0, 1]; once
    the gap exceeds roughly 320 decades the ratio underflows to 0.0 and
    the larger operand is returned bit-exactly, which is the right
    answer at that separation anyway.  Equal magnitudes with opposite
    signs cancel to exact zero rather than to a tiny residue.
    """
    if a.dimension is not b.dimension and a.dimension != b.dimension:
        raise DimensionError(
            "cannot add quantities of different dimension",
            a.dimension,
            b.dimension,
        )
    if a.sign == 0:
        return b
    if b.sign == 0:
        return a
    if b.log10 > a.log10:
        a, b = b, a
    ratio = (a.sign * b.sign) * 10.0 ** (b.log10 - a.log10)
    if ratio == -1.0:
        return zero(a.dimension)
    return _new(Quantity, a.sign, a.log10 + math.log1p(ratio) / _LN10, a.dimension)


def sub(a: Quantity, b: Quantity) -> Quantity:
    return add(a, -b)


def approx_eq(
    a: Quantity, b: Quantity, tol_decades: float = DEFAULT_TOLERANCE_DECADES
) -> bool:
    """Equal sign and dimension, log10 within tol_decades.

    Exact zero only matches exact zero: there is no finite tolerance in
    decades that reaches zero.
    """
    if not tol_decades > 0:
        raise ValueError(f"tol_decades must be positive, got {tol_decades!r}")
    if a.dimension != b.dimension:
        return False
    if a.sign != b.sign:
        return False
    if a.sign == 0:
        return True
    return abs(a.log10 - b.log10) <= tol_decades


def require(q: Quantity, dim: Dimension, what: str, *, allow_zero: bool = False) -> None:
    """Check an input at a public boundary: dimension ``dim`` and > 0.

    ``allow_zero`` relaxes the sign check to >= 0.
    """
    if q.dimension is not dim and q.dimension != dim:
        raise DimensionError(f"{what} has the wrong dimension", q.dimension, dim)
    if q.sign < 0 or (q.sign == 0 and not allow_zero):
        raise ValueError(f"{what} must be {'>= 0' if allow_zero else '> 0'}")


class InputError(ValueError):
    """Malformed input from outside the program, not an unphysical value."""


def reject_unknown(raw: Mapping[str, object], allowed: Iterable[str], what: str) -> None:
    unknown = sorted(set(raw).difference(allowed))
    if unknown:
        raise InputError(f"unknown {what} key: {unknown[0]!r}")


REQUIRED = object()  # the default of a key read_fields refuses to miss

Reader = Callable[[object, str], object]


def read_fields(
    raw: object, what: str, spec: Mapping[str, tuple[Reader, object]]
) -> dict[str, object]:
    """The JSON object ``raw`` as {key: value}, in ``spec`` order.

    ``spec`` maps each key to ``(reader, default)``.  A present key goes
    to ``reader(value, "<what> key '<key>'")``, so a null is the reader's
    to refuse, never read as absent.  An absent key takes ``default``,
    or is refused when that is ``REQUIRED``.
    """
    if raw.__class__ is not dict and not isinstance(raw, Mapping):  # isinstance on an ABC is slow
        raise InputError(f"{what} must be an object")
    if not raw.keys() <= spec.keys():
        reject_unknown(raw, spec, what)
    fields = {}
    for key, (reader, default) in spec.items():
        if key in raw:
            fields[key] = reader(raw[key], f"{what} key {key!r}")
        elif default is REQUIRED:
            raise InputError(f"{what} missing key: {key!r}")
        else:
            fields[key] = default
    return fields


def number(value: object, what: str) -> float:
    """A JSON number as a float; refuses nan, ±inf and integers beyond double range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{what} must be a number")
    if not -sys.float_info.max <= value <= sys.float_info.max:
        raise InputError(f"{what} must be finite and fit in a double")
    return float(value)


def parse_float(text: str, what: str) -> float:
    """A literal as a float; one with a nonzero digit that underflows to 0.0 is refused.

    Non-finite values are left to ``number`` and ``Quantity.from_value``."""
    try:
        value = float(text)
    except ValueError:
        raise InputError(f"{what}: {text!r} is not a number") from None
    if value == 0 and any(c in "123456789" for c in text.lower().partition("e")[0]):
        raise InputError(f"{what}: {text.strip()} is nonzero but below double range")
    return value


def read_json_object(path: str, what: str) -> dict[str, object]:
    """The JSON object in file ``path``.  OSError is left to the caller."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh, parse_float=lambda text: parse_float(text, path))
        except InputError:  # parse_float's own refusal, already worded
            raise
        except ValueError as exc:  # bad syntax or encoding, or an int literal past the digit limit
            raise InputError(f"malformed JSON in {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError(f"{what} must hold a JSON object")
    return doc


class LogInterval(Record):
    """Order-of-magnitude band 10^(center ± halfwidth) of a growth factor.

    A growth band read from the command line or a scenario file is built
    here, so a bad center or halfwidth is malformed input.
    """

    __slots__ = ("center", "halfwidth")
    dimension = DIMENSIONLESS  # a growth factor is a pure number; callers may still ask

    def _check(self) -> None:
        if not math.isfinite(self.center):
            raise InputError(f"center must be finite, got {self.center!r}")
        if not (math.isfinite(self.halfwidth) and self.halfwidth >= 0):
            raise InputError(
                f"halfwidth must be finite and >= 0, got {self.halfwidth!r}"
            )

    def __str__(self) -> str:
        return f"10^{{{self.center:g}±{self.halfwidth:g}}}"


def quantity_to_jsonable(q: Quantity) -> dict[str, object]:
    """Wire form: sign, log10 (null for exact zero), nonzero dims."""
    return {
        "sign": q.sign,
        "log10": None if q.sign == 0 else q.log10,
        "dims": dimension_to_mapping(q.dimension),
    }


def quantity_from_jsonable(data: Mapping[str, object]) -> Quantity:
    try:
        sign = data["sign"]
        log10 = data["log10"]
        dims = data["dims"]
    except KeyError as exc:
        raise InputError(f"quantity object missing key {exc.args[0]!r}") from None
    if sign not in (-1, 0, 1) or isinstance(sign, bool):
        raise InputError(f"sign must be -1, 0 or 1, got {sign!r}")
    dimension = dimension_from_mapping(dims)
    # sign and dimension are checked above, so the unchecked constructor will do
    if sign == 0:
        if log10 is not None:
            raise InputError("exact zero must carry log10 null")
        return _new(Quantity, 0, 0.0, dimension)
    return _new(Quantity, int(sign), number(log10, "log10"), dimension)
