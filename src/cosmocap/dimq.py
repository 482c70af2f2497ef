"""Dimensioned quantities on a signed base-10 logarithmic scale.

The numbers handled by this package span something like 10^-102 to
10^+121, and intermediate products (fourth powers of ages, cubes of
radii) overflow IEEE doubles long before the final ratios do.  A
``Quantity`` therefore stores a sign, the log10 of its magnitude, and a
vector of dimension exponents.  Multiplication, division and rational
powers are exact bookkeeping on the exponents; addition falls back to a
log1p evaluation that stays accurate until the operands are hundreds of
decades apart, at which point the larger one simply wins.

Dimension exponents are ``fractions.Fraction`` so that quantities such
as an entropy scaling like a 3/4 power survive round trips without
drift.  A quantity with all exponents zero is dimensionless and
converts back to an ordinary float when it fits in one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

__all__ = [
    "DEFAULT_TOLERANCE_DECADES",
    "Dimension",
    "DimensionError",
    "LogInterval",
    "Quantity",
    "add",
    "approx_eq",
    "div",
    "interval_mul",
    "interval_pow",
    "make",
    "mul",
    "pow_rational",
    "require",
    "scalar",
    "sub",
    "zero",
]

DEFAULT_TOLERANCE_DECADES = 1.5

_LN10 = math.log(10.0)

Rational = Union[int, Fraction]


def _as_fraction(p: Rational) -> Fraction:
    if isinstance(p, bool) or not isinstance(p, (int, Fraction)):
        raise TypeError(
            f"exponent must be an int or Fraction, not {type(p).__name__}"
        )
    return Fraction(p)


class DimensionError(ValueError):
    """Raised when an operation mixes incompatible dimensions."""

    def __init__(self, message: str, left: "Dimension", right: "Dimension"):
        super().__init__(f"{message}: {left.compact()} vs {right.compact()}")
        self.left = left
        self.right = right


@dataclass(frozen=True)
class Dimension:
    """Exponent vector over length, mass, time, temperature and squared
    charge.  The fifth axis exists for electrostatic bookkeeping in unit
    systems where charge squared is its own dimension; none of the
    built-in constants use it, but user-supplied tables may."""

    length: Fraction = Fraction(0)
    mass: Fraction = Fraction(0)
    time: Fraction = Fraction(0)
    temperature: Fraction = Fraction(0)
    charge2: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        for name in ("length", "mass", "time", "temperature", "charge2"):
            value = getattr(self, name)
            if not isinstance(value, Fraction):
                if isinstance(value, bool) or not isinstance(value, int):
                    raise TypeError(f"{name} exponent must be int or Fraction")
                object.__setattr__(self, name, Fraction(value))

    @property
    def is_dimensionless(self) -> bool:
        return self == DIMENSIONLESS

    def __mul__(self, other: "Dimension") -> "Dimension":
        if not isinstance(other, Dimension):
            return NotImplemented
        return Dimension(
            self.length + other.length,
            self.mass + other.mass,
            self.time + other.time,
            self.temperature + other.temperature,
            self.charge2 + other.charge2,
        )

    def __truediv__(self, other: "Dimension") -> "Dimension":
        if not isinstance(other, Dimension):
            return NotImplemented
        return Dimension(
            self.length - other.length,
            self.mass - other.mass,
            self.time - other.time,
            self.temperature - other.temperature,
            self.charge2 - other.charge2,
        )

    def __pow__(self, p: Rational) -> "Dimension":
        p = _as_fraction(p)
        return Dimension(
            self.length * p,
            self.mass * p,
            self.time * p,
            self.temperature * p,
            self.charge2 * p,
        )

    def compact(self) -> str:
        """Render as e.g. ``[L^3 M^-1 T^-2]``; dimensionless is ``[1]``."""
        parts = []
        for symbol, exp in (
            ("L", self.length),
            ("M", self.mass),
            ("T", self.time),
            ("Θ", self.temperature),
            ("Q2", self.charge2),
        ):
            if exp == 0:
                continue
            parts.append(symbol if exp == 1 else f"{symbol}^{exp}")
        return "[" + " ".join(parts) + "]" if parts else "[1]"

    def __str__(self) -> str:
        return self.compact()


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

_JSON_AXES = (
    ("L", "length"),
    ("M", "mass"),
    ("T", "time"),
    ("Theta", "temperature"),
    ("Q2", "charge2"),
)


def dimension_to_mapping(dim: Dimension) -> dict[str, list[int]]:
    """JSON form: nonzero exponents only, each as [numerator, denominator]."""
    out: dict[str, list[int]] = {}
    for key, attr in _JSON_AXES:
        exp: Fraction = getattr(dim, attr)
        if exp != 0:
            out[key] = [exp.numerator, exp.denominator]
    return out


def dimension_from_mapping(data: Mapping[str, object]) -> Dimension:
    known = {key: attr for key, attr in _JSON_AXES}
    exps: dict[str, Fraction] = {}
    for key, raw in data.items():
        if key not in known:
            raise ValueError(f"unknown dimension axis {key!r}")
        if (
            not isinstance(raw, (list, tuple))
            or len(raw) != 2
            or not all(isinstance(n, int) and not isinstance(n, bool) for n in raw)
        ):
            raise ValueError(f"dimension axis {key!r} must be [numerator, denominator]")
        exps[known[key]] = Fraction(raw[0], raw[1])
    return Dimension(**exps)


@dataclass(frozen=True)
class Quantity:
    """A signed magnitude kept as log10, tagged with a dimension.

    ``sign`` is -1, 0 or +1.  For sign 0 the stored log10 is meaningless
    and normalised to 0.0.  Exact zero is a first-class value: it
    absorbs multiplication, is the identity for addition, and is what
    you get when two equal magnitudes of opposite sign cancel.
    """

    sign: int
    log10: float
    dimension: Dimension = DIMENSIONLESS

    def __post_init__(self) -> None:
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign!r}")
        if self.sign == 0:
            object.__setattr__(self, "log10", 0.0)
        elif not math.isfinite(self.log10):
            raise ValueError(f"log10 must be finite, got {self.log10!r}")
        if not isinstance(self.dimension, Dimension):
            raise TypeError("dimension must be a Dimension")

    # -- constructors ------------------------------------------------

    @staticmethod
    def from_value(value: float, dimension: Dimension = DIMENSIONLESS) -> "Quantity":
        if not math.isfinite(value):
            raise ValueError(f"value must be finite, got {value!r}")
        if value == 0:
            return Quantity(0, 0.0, dimension)
        return Quantity(
            1 if value > 0 else -1, math.log10(abs(value)), dimension
        )

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

    def __pow__(self, p: Rational) -> "Quantity":
        return pow_rational(self, p)

    def __neg__(self) -> "Quantity":
        return Quantity(-self.sign, self.log10, self.dimension)

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


def zero(dimension: Dimension = DIMENSIONLESS) -> Quantity:
    return Quantity(0, 0.0, dimension)


def make(value: float, dimension: Dimension = DIMENSIONLESS) -> Quantity:
    return Quantity.from_value(value, dimension)


def scalar(value: float) -> Quantity:
    """Dimensionless shorthand for numeric factors like 2/pi."""
    return Quantity.from_value(value, DIMENSIONLESS)


ONE = Quantity(1, 0.0, DIMENSIONLESS)


def mul(a: Quantity, b: Quantity) -> Quantity:
    dim = a.dimension * b.dimension
    sign = a.sign * b.sign
    if sign == 0:
        return zero(dim)
    return Quantity(sign, a.log10 + b.log10, dim)


def div(a: Quantity, b: Quantity) -> Quantity:
    if b.sign == 0:
        raise ZeroDivisionError("division by an exact-zero quantity")
    dim = a.dimension / b.dimension
    if a.sign == 0:
        return zero(dim)
    return Quantity(a.sign * b.sign, a.log10 - b.log10, dim)


def pow_rational(a: Quantity, p: Rational) -> Quantity:
    p = _as_fraction(p)
    dim = a.dimension**p
    if a.sign == 0:
        if p <= 0:
            raise ValueError(f"cannot raise exact zero to power {p}")
        return zero(dim)
    if a.sign < 0:
        if p.denominator % 2 == 0:
            raise ValueError(
                f"negative quantity has no real power for exponent {p}"
            )
        sign = -1 if p.numerator % 2 else 1
    else:
        sign = 1
    return Quantity(sign, a.log10 * float(p), dim)


def add(a: Quantity, b: Quantity) -> Quantity:
    """Signed addition via log1p.

    The smaller operand enters as a ratio 10^(lb - la) in [0, 1]; once
    the gap exceeds roughly 320 decades the ratio underflows to 0.0 and
    the larger operand is returned bit-exactly, which is the right
    answer at that separation anyway.  Equal magnitudes with opposite
    signs cancel to exact zero rather than to a tiny residue.
    """
    if a.dimension != b.dimension:
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
    return Quantity(a.sign, a.log10 + math.log1p(ratio) / _LN10, a.dimension)


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
    if q.dimension != dim:
        raise DimensionError(f"{what} has the wrong dimension", q.dimension, dim)
    if q.sign < 0 or (q.sign == 0 and not allow_zero):
        raise ValueError(f"{what} must be {'>= 0' if allow_zero else '> 0'}")


@dataclass(frozen=True)
class LogInterval:
    """Order-of-magnitude band 10^(center ± halfwidth), always positive.

    Multiplication adds centers and adds halfwidths; a power scales the
    center by the exponent and the halfwidth by its absolute value.  A
    zero-halfwidth interval behaves exactly like the quantity at its
    center.
    """

    center: float
    halfwidth: float
    dimension: Dimension = DIMENSIONLESS

    def __post_init__(self) -> None:
        if not math.isfinite(self.center):
            raise ValueError(f"center must be finite, got {self.center!r}")
        if not (math.isfinite(self.halfwidth) and self.halfwidth >= 0):
            raise ValueError(
                f"halfwidth must be finite and >= 0, got {self.halfwidth!r}"
            )
        if not isinstance(self.dimension, Dimension):
            raise TypeError("dimension must be a Dimension")

    @staticmethod
    def from_quantity(q: Quantity, halfwidth: float = 0.0) -> "LogInterval":
        if q.sign != 1:
            raise ValueError("only positive quantities form log intervals")
        return LogInterval(q.log10, halfwidth, q.dimension)

    def center_quantity(self) -> Quantity:
        return Quantity(1, self.center, self.dimension)

    def low(self) -> Quantity:
        return Quantity(1, self.center - self.halfwidth, self.dimension)

    def high(self) -> Quantity:
        return Quantity(1, self.center + self.halfwidth, self.dimension)

    def __mul__(self, other: "LogInterval") -> "LogInterval":
        if not isinstance(other, LogInterval):
            return NotImplemented
        return interval_mul(self, other)

    def __pow__(self, p: Rational) -> "LogInterval":
        return interval_pow(self, p)

    def __str__(self) -> str:
        body = f"10^{{{self.center:g}±{self.halfwidth:g}}}"
        if self.dimension.is_dimensionless:
            return body
        return f"{body} {self.dimension.compact()}"


def interval_mul(a: LogInterval, b: LogInterval) -> LogInterval:
    return LogInterval(
        a.center + b.center, a.halfwidth + b.halfwidth, a.dimension * b.dimension
    )


def interval_pow(a: LogInterval, p: Rational) -> LogInterval:
    p = _as_fraction(p)
    return LogInterval(
        a.center * float(p), a.halfwidth * abs(float(p)), a.dimension**p
    )


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
        raise ValueError(f"quantity object missing key {exc.args[0]!r}") from None
    if sign not in (-1, 0, 1) or isinstance(sign, bool):
        raise ValueError(f"sign must be -1, 0 or 1, got {sign!r}")
    if not isinstance(dims, Mapping):
        raise ValueError("dims must be an object")
    dimension = dimension_from_mapping(dims)
    if sign == 0:
        if log10 is not None:
            raise ValueError("exact zero must carry log10 null")
        return zero(dimension)
    if isinstance(log10, bool) or not isinstance(log10, (int, float)):
        raise ValueError(f"log10 must be a number, got {log10!r}")
    return Quantity(int(sign), float(log10), dimension)
