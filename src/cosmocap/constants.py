"""Physical constants in named profiles, plus derived Planck-scale values.

Two profiles ship compiled in.  "paper" is a legacy set of rounded
values, including c = 2.98e8 m/s; that one looks like a typo for
2.998e8, but the set is preserved exactly because its headline results
are only reproducible with it.  "codata" carries modern reference
values.  Electron mass, proton mass and the Gaussian squared charge e²
(an energy·length, so that ħc/e² is the dimensionless ~137) are modern
in both.

A profile's constants are read-only.  When a profile is built it
derives, once, the log10 of each required constant and of every formula
of constants alone (Planck time and length, ħc/e², m_p/m_e, α); since
the constants cannot change, those values cannot drift out of sync with
them.
"""

from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType

from . import formulas as f
from .dimq import (
    DIMENSIONLESS,
    REQUIRED,
    InputError,
    Quantity,
    Record,
    dimension_from_mapping,
    make,
    number,
    read_fields,
    read_json_object,
    reject_unknown,
    require,
)
from .formulas import REQUIRED_DIMS  # re-exported: the CLI lists constants in this order

__all__ = [
    "CODATA",
    "PAPER",
    "ConstantsProfile",
    "builtin_profile",
    "fine_structure_inverse",
    "load_profile",
    "mass_ratio",
    "planck_length",
    "planck_time",
]

class ConstantsProfile(Record):
    """A named table of constants; constants maps each id to a Quantity.

    ``constants`` is a read-only view of a copy of the mapping given.
    Two profiles are equal only when they are the same object.  A
    built-in pickles and copies as itself; any other profile, such as
    one loaded from a file, pickles and copies as a new, unequal object.
    """

    __slots__ = ("name", "constants", "_log10s")  # _log10s: formulas.profile_table
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __reduce__(self):
        if _BUILTIN.get(self.name) is self:
            return builtin_profile, (self.name,)
        return ConstantsProfile, (self.name, dict(self.constants))

    def _check(self) -> None:
        constants = dict(self.constants)
        missing = sorted(set(REQUIRED_DIMS) - set(constants))
        if missing:
            raise ValueError(f"profile {self.name!r} missing constants: {missing}")
        for cid, q in constants.items():
            require(q, REQUIRED_DIMS.get(cid, q.dimension), f"constant {cid!r}")
        object.__setattr__(self, "constants", MappingProxyType(constants))
        object.__setattr__(self, "_log10s", f.profile_table(constants))


def _profile(name: str, values: Mapping[str, float]) -> ConstantsProfile:
    return ConstantsProfile(
        name, {cid: make(v, REQUIRED_DIMS[cid]) for cid, v in values.items()}
    )


PAPER = _profile(
    "paper",
    {
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
)

CODATA = _profile(
    "codata",
    {
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
)

_BUILTIN = {"paper": PAPER, "codata": CODATA}


def builtin_profile(name: str) -> ConstantsProfile:
    try:
        return _BUILTIN[name]
    except KeyError:
        raise KeyError(
            f"unknown profile {name!r}; built-ins: {sorted(_BUILTIN)}"
        ) from None


def get(profile: ConstantsProfile, cid: str) -> Quantity:
    try:
        return profile.constants[cid]
    except KeyError:
        raise KeyError(
            f"unknown constant {cid!r} in profile {profile.name!r}; "
            f"registered: {sorted(profile.constants)}"
        ) from None


def planck_time(profile: ConstantsProfile) -> Quantity:
    """sqrt(ħG/c⁵), a row of constants alone, derived once per profile from its constants."""
    return f.PLANCK_TIME.read(profile._log10s)


def planck_length(profile: ConstantsProfile) -> Quantity:
    """sqrt(ħG/c³)."""
    return f.PLANCK_LENGTH.read(profile._log10s)


def fine_structure_inverse(profile: ConstantsProfile) -> Quantity:
    """ħc/e², about 137 for modern values."""
    return f.FINE_STRUCTURE_INVERSE.read(profile._log10s)


def mass_ratio(profile: ConstantsProfile) -> Quantity:
    """m_p/m_e, about 1836."""
    return f.MASS_RATIO.read(profile._log10s)


_ENTRY_FIELDS = {
    "value": (number, REQUIRED),
    "dims": (lambda raw, _: dimension_from_mapping(raw), DIMENSIONLESS),
}


def profile_from_dict(data: Mapping[str, object]) -> ConstantsProfile:
    """Build a profile from fixture data.

    When the name matches a built-in, the file's entries overlay that
    built-in and win on conflicts; a fresh name must supply every
    required constant itself.  Entries beyond the required set are kept
    as-is (no dimension schema to check them against).
    """
    name = data.get("name")
    if not isinstance(name, str) or not name:
        raise InputError("profile fixture needs a non-empty string 'name'")
    raw = data.get("constants")
    if not isinstance(raw, Mapping):
        raise InputError("profile fixture needs a 'constants' object")
    reject_unknown(data, ("name", "constants"), "profile fixture")

    base = _BUILTIN.get(name)
    merged = {} if base is None else dict(base.constants)
    for cid, entry in raw.items():
        fields = read_fields(entry, f"constant {cid!r}", _ENTRY_FIELDS)
        merged[cid] = make(fields["value"], fields["dims"])
    return ConstantsProfile(name, merged)


def load_profile(path: str) -> ConstantsProfile:
    return profile_from_dict(read_json_object(path, "profile file"))
