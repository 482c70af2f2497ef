"""The package's records: frozen, slotted, and importable without dataclasses.

Every record type and ``Quantity`` share one base, ``dimq.Record``.
These tests pin what that base promises (immutability, positional and
keyword construction, defaults, value equality, pickling), that each
record class builds through a constructor compiled for it alone when the
class is created, and that
importing the CLI loads none of the modules the base replaced.
"""

import ast
import copy
import math
import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cosmocap import (
    CODATA,
    DIMENSIONLESS,
    ENERGY,
    ENTROPY,
    LENGTH,
    PAPER,
    PHOTONS_ONLY,
    BekensteinResult,
    CapacityReport,
    ConstantsProfile,
    Dimension,
    FleetSpec,
    InflationBounds,
    LargeNumberReport,
    LogInterval,
    Quantity,
    RadiationBits,
    Scenario,
    Species,
    SpeciesTable,
    SystemLimits,
    SystemSpec,
    default_fleet,
    full_report,
    load_profile,
    make,
    system_limits,
)
from cosmocap import dimq
from cosmocap.cosmo import paper_scenario

SRC = Path(__file__).resolve().parent.parent / "src"
PROFILE_FILE = str(Path(__file__).resolve().parent / "data" / "codata_profile.json")


def _samples():
    scenario = Scenario(
        rho=paper_scenario().rho,
        age=paper_scenario().age,
        species=SpeciesTable((Species("photon", 2, 1, "boson"), Species("nu", 2, 2, "fermion"))),
        inflation_growth=LogInterval(10.0, 6.0),
    )
    report = full_report(scenario)
    spec = SystemSpec(make(1.0, ENERGY), make(1e-20, ENTROPY), make(0.1, LENGTH))
    limits = system_limits(spec)
    return [
        Quantity(-1, 3.5, ENERGY / Dimension(temperature=Fraction(1, 2))),
        scenario.inflation_growth,
        scenario.species.entries[1],
        scenario.species,
        scenario,
        RadiationBits(report.bits_matter, True),
        report.inflation,
        report,
        limits.bekenstein,
        spec,
        limits,
        default_fleet(),
        report.large_numbers,
        ConstantsProfile("copy", dict(PAPER.constants)),
    ]


SAMPLES = _samples()
# a profile equals only itself, so a rebuilt profile, or a scenario
# holding one, is compared through its repr
BY_IDENTITY = (ConstantsProfile, Scenario)


def _values(record):
    return tuple(getattr(record, name) for name in type(record)._fields)


def _same(a, b):
    assert type(a) is type(b) and repr(a) == repr(b)
    if not isinstance(a, BY_IDENTITY):
        assert a == b and hash(a) == hash(b)


def test_every_record_type_is_sampled():
    sampled = {type(r) for r in SAMPLES}
    assert sampled == {
        Quantity, LogInterval, Species, SpeciesTable, Scenario, RadiationBits,
        InflationBounds, CapacityReport, BekensteinResult, SystemSpec,
        SystemLimits, FleetSpec, LargeNumberReport, ConstantsProfile,
    }


@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: type(r).__name__)
def test_record_is_frozen(record):
    for name in (*type(record).__slots__, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)


@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: type(r).__name__)
def test_record_builds_by_position_and_by_name(record):
    cls, values = type(record), _values(record)
    _same(cls(*values), record)
    _same(cls(**dict(zip(cls._fields, values))), record)
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, **{cls._fields[0]: values[0]})
    with pytest.raises(TypeError):
        cls(*values[:-1], unknown=None)


def test_missing_required_field_is_named():
    missing = r"^Scenario\.__init__\(\) missing 1 required positional argument: 'age'$"
    with pytest.raises(TypeError, match=missing):
        Scenario(rho=make(1e-27, ENERGY))
    with pytest.raises(TypeError):
        SystemSpec(make(1.0, ENERGY), make(1.0, ENTROPY))
    with pytest.raises(TypeError):
        Quantity(1)


def test_misuse_messages_are_exact():
    # CPython binds each call and words its refusal, the same on 3.10 to 3.12
    e, s, r = make(1.0, ENERGY), make(1.0, ENTROPY), make(1.0, LENGTH)
    cases = [
        (lambda: SystemSpec(e, s, r, None, None),
         "SystemSpec.__init__() takes from 4 to 5 positional arguments but 6 were given"),
        (lambda: SystemSpec(energy=e, entropy=s, radius=r, volume=None),
         "SystemSpec.__init__() got an unexpected keyword argument 'volume'"),
        # an unknown name the same number of fields long as a complete call
        (lambda: SystemSpec(energy=e, entropy=s, volume=r),
         "SystemSpec.__init__() got an unexpected keyword argument 'volume'"),
        (lambda: SystemSpec(e, s, r, energy=e),
         "SystemSpec.__init__() got multiple values for argument 'energy'"),
        (lambda: SystemSpec(energy=e, entropy=s),
         "SystemSpec.__init__() missing 1 required positional argument: 'radius'"),
        (lambda: SystemSpec(entropy=s, radius=r, area=None),
         "SystemSpec.__init__() missing 1 required positional argument: 'energy'"),
        # the transition is derived from the profile, never given
        (lambda: Scenario(rho=e, age=e, matter_radiation_transition=None),
         "Scenario.__init__() got an unexpected keyword argument 'matter_radiation_transition'"),
    ]
    for build, message in cases:
        with pytest.raises(TypeError) as info:
            build()
        assert str(info.value) == message


def test_defaults_apply():
    assert Quantity(1, 2.0).dimension == DIMENSIONLESS
    spec = SystemSpec(make(1.0, ENERGY), make(1.0, ENTROPY), make(1.0, LENGTH))
    assert spec.area is None
    scenario = Scenario(paper_scenario().rho, paper_scenario().age)
    assert scenario.species is PHOTONS_ONLY and scenario.profile is PAPER
    assert scenario.include_gravity is False and scenario.inflation_growth is None
    # the derived default and the derived transition are filled by the record's own check
    assert scenario.hubble == paper_scenario().hubble
    assert scenario.matter_radiation_transition.log10 == pytest.approx(13.34, abs=0.01)
    assert len(Scenario._fields) == 7 and "matter_radiation_transition" not in Scenario._fields


def test_a_scenario_keeps_its_fields_alone():
    # the fields are the public slots; the table of checked inputs is a derived
    # slot, and the transition, a row of the profile read by a property, no slot
    assert Scenario._fields == tuple(n for n in Scenario.__slots__ if not n.startswith("_"))
    assert set(Scenario.__slots__) - set(Scenario._fields) == {"_log10s"}
    assert "matter_radiation_transition" not in Scenario.__slots__


def test_no_record_class_declares_its_fields():
    # a slot named _x is derived, so each record's fields are its other slots
    declaring = {
        node.name
        for path in sorted((SRC / "cosmocap").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef) and any(
            isinstance(target, ast.Name) and target.id == "_fields"
            for stmt in node.body if isinstance(stmt, (ast.Assign, ast.AnnAssign))
            for target in (stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]))
    }
    assert declaring == {"Record"}  # the base's empty default
    for cls in (SpeciesTable, ConstantsProfile, Scenario, SystemSpec, FleetSpec):
        assert cls._fields == tuple(n for n in cls.__slots__ if not n.startswith("_"))
        assert len(cls._fields) < len(cls.__slots__)


@pytest.mark.parametrize("record", [
    paper_scenario(),
    Scenario(make(1e-27, dimq.MASS_DENSITY), make(3e17, dimq.TIME), make(1e-18, dimq.RATE)),
    SystemSpec(make(1.0, ENERGY), make(1e-20, ENTROPY), make(0.1, LENGTH)),
    SystemSpec(make(1.0, ENERGY), make(1e-20, ENTROPY), make(0.1, LENGTH), make(0.02, dimq.AREA)),
    default_fleet(),
], ids=["scenario", "scenario-hubble", "spec", "spec-area", "fleet"])
def test_a_pickled_or_copied_record_files_the_same_inputs(record):
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert clone is not record and clone._log10s == record._log10s
        assert clone._log10s is not record._log10s


def test_a_growth_band_stores_negative_zero_as_zero_and_keeps_every_other_value():
    band = LogInterval(-0.0, -0.0)
    assert math.copysign(1.0, band.center) == math.copysign(1.0, band.halfwidth) == 1.0
    assert str(band) == "10^{0±0}"
    for center, halfwidth in ((0, 0), (10, 6), (-3.5, 0.0), (0.0, 2)):
        band = LogInterval(center, halfwidth)
        assert (band.center, band.halfwidth) == (center, halfwidth)
        assert (type(band.center), type(band.halfwidth)) == (type(center), type(halfwidth))


def test_equal_values_compare_and_hash_equal():
    a, b = Species("nu", 2, 2, "fermion"), Species("nu", 2, 2, "fermion")
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != Species("nu", 2, 1, "fermion")
    assert LogInterval(1.0, 2.0) != (1.0, 2.0)
    q = Quantity(1, 2.0, ENERGY)
    assert q == Quantity(1, 2.0, ENERGY) and hash(q) == hash(Quantity(1, 2.0, ENERGY))
    assert q != Quantity(1, 2.0, LENGTH)
    assert len({q, Quantity(1, 2.0, ENERGY), -q}) == 2
    assert PAPER == PAPER and PAPER != ConstantsProfile("paper", dict(PAPER.constants))


@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: type(r).__name__)
def test_record_pickles_and_copies(record):
    _same(pickle.loads(pickle.dumps(record)), record)
    _same(copy.deepcopy(record), record)
    _same(copy.copy(record), record)


@pytest.mark.parametrize("profile", [PAPER, CODATA], ids=lambda p: p.name)
def test_builtin_profile_pickles_and_copies_as_itself(profile):
    for clone in (pickle.loads(pickle.dumps(profile)), copy.copy(profile), copy.deepcopy(profile)):
        assert clone is profile
    scenario = paper_scenario(profile)
    for clone in (pickle.loads(pickle.dumps(scenario)), copy.deepcopy(scenario)):
        assert clone == scenario and hash(clone) == hash(scenario)


def test_other_profiles_copy_as_new_unequal_objects():
    # equality is identity, and only a registered built-in has an identity
    # that survives a copy; a namesake or a file-loaded profile does not
    for profile in (ConstantsProfile("paper", dict(PAPER.constants)), load_profile(PROFILE_FILE)):
        for clone in (pickle.loads(pickle.dumps(profile)), copy.deepcopy(profile)):
            assert clone != profile and repr(clone) == repr(profile)


def test_reprs_read_back():
    namespace = {"Quantity": Quantity, "Dimension": Dimension, "Fraction": Fraction,
                 "LogInterval": LogInterval, "Species": Species}
    for record in (SAMPLES[0], LogInterval(10.0, 6.0), Species("photon", 2, 1, "boson")):
        assert eval(repr(record), namespace) == record
    assert repr(Quantity(1, 2.0)) == (
        "Quantity(sign=1, log10=2.0, dimension=Dimension(Fraction(0, 1), Fraction(0, 1), "
        "Fraction(0, 1), Fraction(0, 1), Fraction(0, 1)))"
    )


def test_arithmetic_results_are_full_quantities():
    q = make(3.0, ENERGY) * make(2.0, LENGTH) / make(4.0, ENERGY)
    assert type(q) is Quantity and q == make(1.5, LENGTH)
    with pytest.raises(AttributeError):
        q.sign = 0


def _band_classes():
    """A record subclass and a subclass of it that adds a defaulted field and a check."""

    class Band(dimq.Record):
        __slots__ = ("low", "high")

        def _check(self):
            if not self.low <= self.high:
                raise ValueError("low must not exceed high")

    class NamedBand(Band):
        __slots__ = ("name",)
        _fields = ("low", "high", "name")
        _defaults = {"name": "band"}

        def _check(self):
            super()._check()
            if not isinstance(self.name, str):
                raise TypeError("name must be a string")

    return Band, NamedBand


_Band, _NamedBand = _band_classes()  # at module level, where pickle finds them by name
_Band.__qualname__, _NamedBand.__qualname__ = "_Band", "_NamedBand"


@pytest.mark.parametrize("parent_first", [True, False], ids=["parent-first", "child-first"])
def test_a_subclass_of_a_record_subclass_compiles_its_own_constructor(parent_first):
    Band, NamedBand = _band_classes()
    # each is compiled when its class is created, from its own fields
    assert "__init__" in Band.__dict__ and "__init__" in NamedBand.__dict__
    assert NamedBand.__init__ is not Band.__init__
    init_band, init_named = Band.__dict__["__init__"], NamedBand.__dict__["__init__"]
    if parent_first:
        assert Band(1, 2)._values() == (1, 2)
    builds = [NamedBand(1, 2), NamedBand(1, 2, "band"), NamedBand(low=1, high=2),
              NamedBand(1, high=2, name="band"), NamedBand(name="band", high=2, low=1)]
    assert {b._values() for b in builds} == {(1, 2, "band")}
    assert all(type(b) is NamedBand for b in builds)
    assert NamedBand(1, 2, "b").name == "b"
    # the parent builds with its own fields alone, whichever was built first
    assert Band(1, 2)._values() == Band(low=1, high=2)._values() == (1, 2)
    # construction swaps in no other constructor, in either order
    assert Band.__dict__["__init__"] is init_band and NamedBand.__dict__["__init__"] is init_named
    # CPython words each refusal with the constructor's qualified name
    band, named = (re.escape(f"{cls.__qualname__}.__init__()") for cls in (Band, NamedBand))
    with pytest.raises(TypeError, match=rf"^{band} takes 3 positional arguments but 4 were given$"):
        Band(1, 2, "band")
    with pytest.raises(TypeError, match=rf"^{band} got an unexpected keyword argument 'name'$"):
        Band(1, 2, name="band")
    # each runs its own check: the child's calls the parent's too
    with pytest.raises(ValueError, match="^low must not exceed high$"):
        NamedBand(2, 1)
    with pytest.raises(ValueError, match="^low must not exceed high$"):
        Band(high=1, low=2)
    with pytest.raises(TypeError, match="^name must be a string$"):
        NamedBand(1, 2, name=3)
    with pytest.raises(TypeError, match=rf"^{named} missing 1 required positional argument: 'high'$"):
        NamedBand(1, name="band")
    with pytest.raises(TypeError,
                       match=rf"^{named} takes from 3 to 4 positional arguments but 5 were given$"):
        NamedBand(1, 2, "band", None)
    with pytest.raises(TypeError, match=rf"^{named} got multiple values for argument 'low'$"):
        NamedBand(1, 2, low=1)


def test_a_subclass_of_a_record_subclass_pickles_and_copies():
    for record in (_NamedBand(1, 2), _NamedBand(1.5, 2.5, "b"), _Band(-1, 1)):
        for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
            assert type(clone) is type(record) and clone == record and clone is not record
            assert repr(clone) == repr(record)
    assert repr(_NamedBand(1, 2)) == "_NamedBand(low=1, high=2, name='band')"


def test_a_record_with_a_hand_written_init_keeps_it_for_its_subclasses():
    class Signed(Quantity):
        __slots__ = ()

    assert Signed.__init__ is Quantity.__init__
    assert type(Signed(1, 2.0, ENERGY)) is Signed
    with pytest.raises(ValueError, match="sign must be -1, 0 or"):
        Signed(2, 2.0)


def test_import_gives_every_record_class_its_own_constructor():
    # every record class the package defines has its constructor compiled when the
    # class is created; Quantity keeps its hand-written one, as its subclasses do (above)
    code = (
        "import cosmocap\n"
        "from cosmocap import dimq\n"
        "def below(c):\n"
        "    for s in c.__subclasses__():\n"
        "        yield s\n"
        "        yield from below(s)\n"
        "for c in sorted(below(dimq.Record), key=lambda c: c.__name__):\n"
        "    init = c.__dict__.get('__init__')\n"
        "    print(c.__name__, 'inherited' if init is None else\n"
        "          'compiled' if init.__code__.co_filename == '<string>' else 'written')"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    compiled = ["BekensteinResult", "CapacityReport", "ConstantsProfile", "FleetSpec",
                "InflationBounds", "LargeNumberReport", "LogInterval", "RadiationBits",
                "Scenario", "Species", "SpeciesTable", "SystemLimits", "SystemSpec"]
    assert proc.stdout.splitlines() == sorted(
        [f"{name} compiled" for name in compiled] + ["Quantity written"])


def test_import_loads_no_dataclasses_typing_or_inspect():
    # -S: the site module of some environments imports typing itself; json
    # is loaded only by a run that reads a file or renders --json
    code = (
        "import sys, cosmocap.cli; "
        "print(repr(sorted({'dataclasses', 'typing', 'inspect', 'json'} & set(sys.modules))))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
