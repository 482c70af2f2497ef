"""Expected outputs, computed without cosmocap.

Every headline output of cosmocap is a monomial in its inputs and the
profile's constants times a numeric prefactor, e.g.

    ops_matter = rho^1 c^5 t^4 hbar^-1

so its log10 is an exact-rational weighted sum of the inputs' log10 and
its dimension is the same weighted sum of their exponent vectors.
``Mono`` does that bookkeeping with its own ``Fraction`` exponents and
plain floats; nothing here imports cosmocap.  The one non-monomial
output (the radiation-era tail t1 - sqrt(t1 t0)) is evaluated in the
stable expm1 form from the exact gap between the two inputs' log10.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

AXES = ("L", "M", "T", "Theta", "Q2")

# (L, M, T, Theta, Q2) exponents of every symbol a formula can mention
_ENERGY = (2, 1, -2, 0, 0)
SYMBOL_DIMS = {
    "hbar": (2, 1, -1, 0, 0),
    "c": (1, 0, -1, 0, 0),
    "G": (3, -1, -2, 0, 0),
    "k_B": (2, 1, -2, -1, 0),
    "m_e": (0, 1, 0, 0, 0),
    "m_p": (0, 1, 0, 0, 0),
    "e2": (3, 1, -2, 0, 0),
    "year_seconds": (0, 0, 1, 0, 0),
    "GeV_joules": _ENERGY,
    "rho": (-3, 1, 0, 0, 0),
    "t": (0, 0, 1, 0, 0),
    "H": (0, 0, -1, 0, 0),
    "E1": _ENERGY,
    "t0": (0, 0, 1, 0, 0),
    "second": (0, 0, 1, 0, 0),
    "temp": (0, 0, 0, 1, 0),
    "n_computers": (0, 0, 0, 0, 0),
    "clock": (0, 0, -1, 0, 0),
    "ops_per_cycle": (0, 0, 0, 0, 0),
    "duration": (0, 0, 1, 0, 0),
    "bits_per_computer": (0, 0, 0, 0, 0),
}

# raw values of the two built-in profiles, as published in the README
BUILTIN_PROFILES = {
    "paper": {
        "hbar": 1.0545e-34,
        "c": 2.98e8,
        "G": 6.673e-11,
        "k_B": 1.38e-23,
        "m_e": 9.1093837015e-31,
        "m_p": 1.67262192369e-27,
        "e2": 2.3070775523e-28,
        "year_seconds": 3.156e7,
        "GeV_joules": 1.602e-10,
    },
    "codata": {
        "hbar": 1.054571817e-34,
        "c": 2.99792458e8,
        "G": 6.674e-11,
        "k_B": 1.380649e-23,
        "m_e": 9.1093837015e-31,
        "m_p": 1.67262192369e-27,
        "e2": 2.3070775523e-28,
        "year_seconds": 3.156e7,
        "GeV_joules": 1.602176634e-10,
    },
}

# identity residuals count as holding within this of 1 (the CLI's rule)
RESIDUAL_TOL = 1e-9
GUT_THRESHOLD_GEV = 2.0e16
BEKENSTEIN_THRESHOLD_LOG10 = math.log10((1.0 - 1e-9) / (2.0 * math.pi))


class Mono:
    """prefactor x product of symbol^exponent, with the prefactor as log10."""

    __slots__ = ("exps", "pref")

    def __init__(self, exps: dict[str, Fraction] | None = None, pref: float = 0.0):
        self.exps = {s: Fraction(e) for s, e in (exps or {}).items() if e != 0}
        self.pref = pref

    @staticmethod
    def sym(name: str) -> "Mono":
        return Mono({name: Fraction(1)})

    def __mul__(self, other: "Mono") -> "Mono":
        exps = dict(self.exps)
        for s, e in other.exps.items():
            exps[s] = exps.get(s, 0) + e
        return Mono(exps, self.pref + other.pref)

    def __truediv__(self, other: "Mono") -> "Mono":
        return self * other ** -1

    def __pow__(self, p) -> "Mono":
        p = Fraction(p)
        return Mono({s: e * p for s, e in self.exps.items()}, self.pref * float(p))

    def scaled(self, factor_log10: float) -> "Mono":
        return Mono(self.exps, self.pref + factor_log10)

    @property
    def is_identity(self) -> bool:
        """Exactly 1: every exponent cancelled and no prefactor."""
        return not self.exps and self.pref == 0.0

    def log10(self, logs: dict[str, float]) -> float:
        return math.fsum([self.pref] + [float(e) * logs[s] for s, e in self.exps.items()])

    def scale(self, logs: dict[str, float]) -> float:
        """Sum of the magnitudes of the terms: what float rounding scales with."""
        return abs(self.pref) + sum(abs(float(e) * logs[s]) for s, e in self.exps.items())

    def dims(self) -> tuple[Fraction, ...]:
        out = [Fraction(0)] * len(AXES)
        for s, e in self.exps.items():
            for i, d in enumerate(SYMBOL_DIMS[s]):
                out[i] += e * d
        return tuple(out)


def dims_mapping(dims) -> dict[str, list[int]]:
    """The wire form cosmocap documents: nonzero axes as [num, den]."""
    return {
        axis: [Fraction(d).numerator, Fraction(d).denominator]
        for axis, d in zip(AXES, dims)
        if d != 0
    }


def tolerance(scale: float) -> float:
    """Allowed |log10 gap| in decades for a value summed from terms of
    total magnitude ``scale``: far above double rounding, far below
    anything a reader of two printed decimals would notice."""
    return 1e-9 + 1e-13 * scale


class Expected:
    """One expected quantity: sign, log10 (None for exact zero), dims, tol."""

    __slots__ = ("sign", "log10", "dims", "tol")

    def __init__(self, sign: int, log10, dims, tol: float):
        self.sign = sign
        self.log10 = log10
        self.dims = dims_mapping(dims)
        self.tol = tol

    @staticmethod
    def of(mono: Mono, logs: dict[str, float], extra_log10: float = 0.0) -> "Expected":
        value = mono.log10(logs) + extra_log10
        return Expected(1, value, mono.dims(), tolerance(mono.scale(logs) + abs(extra_log10)))

    def matches(self, wire) -> bool:
        """Compare against cosmocap's documented JSON form of a quantity."""
        if not isinstance(wire, dict) or wire.get("sign") != self.sign:
            return False
        if wire.get("dims") != self.dims:
            return False
        if self.sign == 0:
            return wire.get("log10") is None
        got = wire.get("log10")
        return isinstance(got, float) and abs(got - self.log10) <= self.tol

    def matches_text(self, text: str) -> bool:
        """Compare against a rendered value: ``10^X.XX`` or ``d.ddde±XX``."""
        if self.sign == 0:
            return text == "0"
        m = _POW_RE.fullmatch(text)
        if m:
            sign = -1 if m.group(1) else 1
            return sign == self.sign and abs(float(m.group(2)) - self.log10) <= 0.005 + self.tol
        m = _SCI_RE.fullmatch(text)
        if m:
            value = float(m.group(0))
            if (value > 0) - (value < 0) != self.sign:
                return False
            # four significant digits: half a unit in the last place
            return abs(math.log10(abs(value)) - self.log10) <= 2.2e-4 + self.tol
        return False


_POW_RE = re.compile(r"(-?)10\^(-?\d+\.\d\d)")
_SCI_RE = re.compile(r"-?\d\.\d{3}e[+-]\d+")


def profile_logs(raw: dict[str, float]) -> dict[str, float]:
    return {cid: math.log10(v) for cid, v in raw.items()}


S = Mono.sym
HBAR, C, G, K_B, M_E, M_P, E2 = (S(n) for n in ("hbar", "c", "G", "k_B", "m_e", "m_p", "e2"))
YEAR = S("year_seconds")
RHO, T, H = S("rho"), S("t"), S("H")

PLANCK_TIME = (HBAR * G / C**5) ** Fraction(1, 2)
PLANCK_LENGTH = (HBAR * G / C**3) ** Fraction(1, 2)
FINE_STRUCTURE_INVERSE = HBAR * C / E2
MASS_RATIO = M_P / M_E
# (hbar c/e2)(m_e/m_p), the factor tying ops to beta gamma^2
LARGE_NUMBER_FACTOR = FINE_STRUCTURE_INVERSE / MASS_RATIO

OPS_MATTER = RHO * C**5 * T**4 / HBAR
OPS_CRITICAL = (T / PLANCK_TIME) ** 2
HORIZON_VOLUME = (C * T) ** 3
HORIZON_ENERGY = RHO * C**2 * HORIZON_VOLUME
HORIZON_RADIUS = C * T
ALPHA = E2 / (G * M_E * M_P)
BETA = C * T * M_E * C**2 / E2
GAMMA = (RHO * C**3 * T**3 / M_P) ** Fraction(1, 2)
R1 = ALPHA * BETA / GAMMA**2
R2 = BETA * GAMMA**2 / (OPS_MATTER * LARGE_NUMBER_FACTOR)
R3 = ALPHA * BETA**2 / (OPS_CRITICAL * LARGE_NUMBER_FACTOR)
INFLATION_OPS_PER_SEC = (PLANCK_TIME**2 * H) ** -1
INFLATION_OPS_PER_HUBBLE = INFLATION_OPS_PER_SEC / H
INFLATION_BITS = (C / H) ** 2 / PLANCK_LENGTH**2
FLEET_OPS = S("n_computers") * S("clock") * S("ops_per_cycle") * S("duration")
FLEET_BITS = S("n_computers") * S("bits_per_computer")

_LOG_3_OVER_8PI = math.log10(3.0 / (8.0 * math.pi))
_LOG_LN2 = math.log10(math.log(2.0))


def blackbody_temperature(weight: Fraction) -> Mono:
    """T = (30 hbar^3 c^5 rho / (pi^2 W))^(1/4) / k_B."""
    inner = (HBAR**3 * C**5 * RHO).scaled(math.log10(30.0 / (math.pi**2 * float(weight))))
    return inner ** Fraction(1, 4) / K_B


def horizon_entropy(weight: Fraction) -> Mono:
    """S = (4 k_B/3)(pi^2 W/30)^(1/4)(rho c/hbar)^(3/4) V."""
    d = 0.25 * math.log10(math.pi**2 * float(weight) / 30.0)
    return (K_B * (RHO * C / HBAR) ** Fraction(3, 4) * HORIZON_VOLUME).scaled(
        math.log10(4.0 / 3.0) + d
    )


def radiation_tail_log10(log_t1: float, log_t0) -> float:
    """log10 of (t1 - sqrt(t1 t0)) / t1, from the exact gap of the inputs."""
    if log_t0 is None:  # t0 = 0
        return 0.0
    gap = log_t0 - log_t1  # exact: Sterbenz when close, and only close matters
    return math.log10(-math.expm1(0.5 * gap * math.log(10.0)))


def ops_radiation(log_t1: float, log_t0) -> tuple[Mono, float]:
    """(4 E1/(pi hbar))(t1 - sqrt(t1 t0)) as a monomial plus a float term."""
    return (S("E1") * T / HBAR).scaled(math.log10(4.0 / math.pi)), radiation_tail_log10(
        log_t1, log_t0
    )


def verdict(gap: float, tol: float):
    """gap > 0, or None when it is within tol of the cut-off, too close to call."""
    return None if abs(gap) <= tol else gap > 0


def bits_radiation(temp_log10: float, logs: dict[str, float]):
    """4 E/(3 ln2 k_B T), and whether k_B T is past the GUT threshold."""
    bits = (S("E1") / (K_B * S("temp"))).scaled(math.log10(4.0 / 3.0) - _LOG_LN2)
    gap = logs["k_B"] + temp_log10 - math.log10(GUT_THRESHOLD_GEV) - logs["GeV_joules"]
    return bits, verdict(gap, 1e-9)


def report_monos(weight: Fraction, gravity: bool) -> dict[str, Mono]:
    """Every quantity of a capacity report, keyed by its JSON path."""
    ops_grav = OPS_MATTER.scaled(math.log10(2.0)) if gravity else OPS_MATTER
    entropy = horizon_entropy(weight)
    return {
        "ops_matter": OPS_MATTER,
        "ops_critical": OPS_CRITICAL,
        "ops_with_gravity": ops_grav,
        "bits_matter": (entropy / K_B).scaled(-_LOG_LN2),
        "bits_holographic": OPS_CRITICAL,
        "blackbody_T": blackbody_temperature(weight),
        "entropy_total": entropy,
        "matter_radiation_transition": YEAR.scaled(math.log10(7.0e5)),
        "inflation.ops_per_sec": INFLATION_OPS_PER_SEC.scaled(_LOG_3_OVER_8PI),
        "inflation.ops_per_hubble_time": INFLATION_OPS_PER_HUBBLE.scaled(_LOG_3_OVER_8PI),
        "inflation.bits_horizon": INFLATION_BITS,
        "large_numbers.alpha": ALPHA,
        "large_numbers.beta": BETA,
        "large_numbers.gamma": GAMMA,
        "large_numbers.r1": R1,
        "large_numbers.r2": R2,
        "large_numbers.r3": R3,
    }


def system_limit_monos(energy: Mono, entropy: Mono, radius: Mono) -> dict[str, Mono]:
    """The five single-system limits; area defaults to radius^2."""
    ops = (energy / HBAR).scaled(math.log10(2.0 / math.pi))
    return {
        "ops_per_sec": ops,
        "flip_time": ops**-1,
        "bits": (entropy / K_B).scaled(-_LOG_LN2),
        "io_rate": C * entropy / (K_B * radius),
        "bekenstein.ratio": K_B * energy * radius / (HBAR * C * entropy),
        "holographic_bits": radius**2 / PLANCK_LENGTH**2,
    }


def residual_passes(mono: Mono, logs: dict[str, float]):
    """The CLI's PASS verdict for an identity residual, or None when the
    expected value sits too close to the cut-off to call."""
    if mono.is_identity:
        return True
    above = verdict(abs(10.0 ** min(mono.log10(logs), 300.0) - 1.0) - RESIDUAL_TOL, 1e-12)
    return None if above is None else not above


# ----------------------------------------------------------- signed algebra


def signed_add(a_sign: int, a_log: float, b_sign: int, b_log: float):
    """(sign, log10, condition number) of a + b; log10 None for exact zero.

    The condition number (|a| + |b|) / |a + b| is how much the sum
    magnifies relative errors already present in the operands.
    """
    if b_log > a_log:
        a_sign, a_log, b_sign, b_log = b_sign, b_log, a_sign, a_log
    ratio = 10.0 ** (b_log - a_log)
    if a_sign == b_sign:
        total = 1.0 + ratio
    else:
        total = -math.expm1((b_log - a_log) * math.log(10.0))
    if total == 0.0:
        return 0, None, math.inf
    return a_sign, a_log + math.log10(total), (1.0 + ratio) / total
