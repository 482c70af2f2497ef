"""Deterministic call counts on the core path.

Timings are too noisy to gate on, but how many objects one report
builds is exact, so a regression in the dimension arithmetic shows up
here as a count.
"""

import contextlib
import cProfile
import io
import json
import pstats
import sys
from fractions import Fraction

import pytest

from cosmocap import cli, constants, dimq, formulas
from cosmocap.bounds import SystemSpec, system_limits
from cosmocap.cosmo import (
    PHOTONS_ONLY,
    Scenario,
    Species,
    SpeciesTable,
    bits_matter,
    bits_radiation,
    full_report,
    ops_radiation,
    paper_scenario,
)
from cosmocap.dimq import (
    AREA, ENERGY, ENTROPY, LENGTH, MASS_DENSITY, TEMPERATURE, TIME, Dimension, Quantity, make,
    zero,
)


def _profiled(run) -> cProfile.Profile:
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        run()
    finally:
        profiler.disable()
    return profiler


def _profiled_report(scenario=None) -> cProfile.Profile:
    """A profile of one full_report: of ``scenario``, or of paper_scenario() built inside."""
    return _profiled(lambda: full_report(paper_scenario() if scenario is None else scenario))


def _calls(profiler: cProfile.Profile, code) -> int:
    return sum(e.callcount for e in profiler.getstats() if e.code is code)


def _fractions(profiler: cProfile.Profile) -> int:
    """Fraction.__new__ calls: every Fraction, however it is built."""
    return sum(
        ncalls
        for (path, _, name), (_, ncalls, *_) in pstats.Stats(profiler).stats.items()
        if name == "__new__" and path.replace("\\", "/").endswith("/fractions.py")
    )


# Fraction.__new__ calls in one paper report, the scenario's construction
# included: none.  The formula table's exponents are floats fixed at
# import, and the species weight Σ n_eff is an integer count of eighths
# summed when its table is built.
def test_full_report_builds_few_fractions():
    assert _fractions(_profiled_report()) == 0


def _sweep_operation():
    # the benchmark's sweep operation on a 3-species table, every record and
    # input built inside, each input by make or Quantity as the benchmark does
    species = SpeciesTable((
        Species("photon", 2, 1, "boson"),
        Species("nu", 2, 2, "fermion"),
        Species("e", 2, 2, "fermion"),
    ))
    scenario = Scenario(make(1e-27, MASS_DENSITY), make(3.156e17, TIME), species=species)
    full_report(scenario)
    energy = Quantity(1, 70.0, ENERGY)
    system_limits(SystemSpec(energy, Quantity(1, 90.0, ENTROPY), Quantity(1, 26.0, LENGTH)))
    ops_radiation(energy, scenario.age, zero(TIME))
    bits_radiation(energy, Quantity(1, 1.0, TEMPERATURE), species)


def test_sweep_operation_builds_no_fraction():
    assert _fractions(_profiled(_sweep_operation)) == 0


def _quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0


@pytest.mark.parametrize(
    "run",
    [
        paper_scenario,
        lambda: _quiet_main(["epoch", "matter"]),
        lambda: _quiet_main(["large-numbers"]),
        lambda: _quiet_main(["report", "--default-paper"]),
    ],
    ids=["paper_scenario", "epoch-matter", "large-numbers", "report-default-paper"],
)
def test_an_age_in_years_compares_no_dimension(run):
    # an age in years is built on dimq.TIME itself, and large-numbers' 1/t on
    # dimq.RATE, so every check of them passes on identity
    assert _calls(_profiled(run), Dimension.__eq__.__code__) == 0


def test_sweep_operation_compares_no_dimension():
    # every input carries the module constant its check asks for, so each
    # require passes on identity before Dimension.__eq__
    assert _calls(_profiled(_sweep_operation), Dimension.__eq__.__code__) == 0


# dimq.require calls: a report reads its scenario's fields, checked when
# the scenario was built, so it checks only apply_gravity's ops; a public
# function checks each of its inputs once.
def test_full_report_checks_only_the_gravity_input():
    assert _calls(_profiled_report(paper_scenario()), dimq.require.__code__) == 1


def test_radiation_functions_check_each_input_once():
    energy, t1 = Quantity(1, 70.0, ENERGY), Quantity(1, 17.0, TIME)

    def run():
        ops_radiation(energy, t1, zero(TIME))  # e1, t1, t0
        bits_radiation(energy, Quantity(1, 1.0, TEMPERATURE), PHOTONS_ONLY)  # energy, temperature

    assert _calls(_profiled(run), dimq.require.__code__) == 5


def test_bits_matter_checks_each_input_once():
    rho, age = paper_scenario().rho, paper_scenario().age
    assert _calls(_profiled(lambda: bits_matter(rho, age)), dimq.require.__code__) == 2


# a command that shows the matter epoch builds one Scenario, which checks rho
# and age, and reads one full_report, which checks apply_gravity's ops
@pytest.mark.parametrize("argv", [["epoch", "matter"], ["report", "--default-paper"]])
def test_matter_epoch_commands_check_each_input_once(argv):
    assert _calls(_profiled(lambda: _quiet_main(argv)), dimq.require.__code__) == 3


# Monomial.log10 calls, nested rows included, in one paper report: 20,
# one per row of the report's plan.  Every row, nested or not, is
# evaluated through Monomial.log10.  A row of constants alone is evaluated
# once per profile, when the profile is built, so a report reads α,
# ħc/e², m_p/m_e, the Planck scales and the transition from its
# environment (40 calls when each was evaluated again); every other row
# it reads is evaluated once (27 calls when a nested row was evaluated
# again by each row that read it).
MAX_ROW_EVALUATIONS_PER_REPORT = 20


def test_full_report_evaluates_few_rows():
    calls = _calls(_profiled_report(paper_scenario()), formulas.Monomial.log10.__code__)
    assert 0 < calls <= MAX_ROW_EVALUATIONS_PER_REPORT


def _row_evaluations(run) -> int:
    return _calls(_profiled(run), formulas.Monomial.log10.__code__)


# system_limits evaluates one plan of its rows: the rate, flip time, bits, k_B·R,
# I/O rate, ħcS, Bekenstein ratio and holographic bits, on the area given or on
# the R² the spec's check filed.  Each is evaluated once (9 calls when the flip
# time evaluated the rate again).
@pytest.mark.parametrize("area, evaluations", [(None, 8), (make(0.02, AREA), 8)],
                         ids=["no-area", "area"])
def test_system_limits_evaluates_each_row_once(area, evaluations):
    spec = SystemSpec(make(1.0, ENERGY), make(1e-20, ENTROPY), make(0.1, LENGTH), area)
    assert 0 < _row_evaluations(lambda: system_limits(spec)) <= evaluations


def test_bits_radiation_evaluates_thermal_energy_once():
    # k_B T for the threshold check is the value the bits' plan stored (3 calls
    # when the check evaluated it again)
    energy, temperature = make(1e51, ENERGY), make(18.0, TEMPERATURE)
    assert _row_evaluations(lambda: bits_radiation(energy, temperature, PHOTONS_ONLY)) == 2


# a row of constants alone is read from the profile's table, never evaluated again
@pytest.mark.parametrize("getter", [constants.planck_time, constants.planck_length,
                                    constants.fine_structure_inverse, constants.mass_ratio])
def test_a_getter_of_constants_evaluates_no_row(getter):
    assert _row_evaluations(lambda: getter(constants.PAPER)) == 0


def test_the_constants_command_evaluates_no_row():
    assert _row_evaluations(lambda: _quiet_main(["constants"])) == 0


# Quantity constructions in one full_report of a prebuilt paper scenario:
# one per table row the report shows, 15 in all, since bits_holographic is
# the ops_critical value and ops_with_gravity the ops_matter value when
# gravity is off.  Every construction runs Quantity.__new__.
MAX_QUANTITIES_PER_REPORT = 30


def test_full_report_builds_each_quantity_once():
    quantities = _calls(_profiled_report(paper_scenario()), Quantity.__new__.__code__)
    assert 0 < quantities <= MAX_QUANTITIES_PER_REPORT


def test_make_runs_no_quantity_init():
    # from_value checks its value and dimension itself, and its sign is right by construction
    assert _calls(_profiled(lambda: make(7e5)), Quantity.__init__.__code__) == 0


def test_default_area_builds_no_dimension():
    spec = SystemSpec(make(1.0, ENERGY), make(1e-20, ENTROPY), make(0.1, LENGTH))
    assert _calls(_profiled(spec.effective_area), dimq._reduced.__code__) == 0


def test_system_limits_without_an_area_builds_one_environment():
    # the spec's check builds the one environment, the default area R² filed in it,
    # and the limits start from that table and the profile's
    inputs = make(1.0, ENERGY), make(1e-20, ENTROPY), make(0.1, LENGTH)
    environments = formulas.environment.__code__
    assert _calls(_profiled(lambda: system_limits(SystemSpec(*inputs))), environments) == 1
    spec = SystemSpec(*inputs)
    assert _calls(_profiled(lambda: system_limits(spec)), environments) == 0


def test_full_report_builds_no_dimension():
    # every Dimension is built by dimq._reduced; the table fixed each
    # row's dimension at import, so a report builds none
    assert _calls(_profiled_report(paper_scenario()), dimq._reduced.__code__) == 0


# the benchmark's algebra operation: a leaf from the caller's Fractions,
# mul, div, a Fraction power, add, a mismatched add, then a JSON round trip
_EXPS = {"length": Fraction(3, 4), "mass": Fraction(-1, 2), "time": Fraction(5, 6),
         "temperature": Fraction(-7, 3), "charge2": Fraction(1, 12)}


def test_algebra_chain_builds_no_fraction():
    other = Dimension(1, Fraction(1, 3), -2, 0, Fraction(-5, 4))
    p = Fraction(-3, 5)

    def run():
        x = Quantity(1, 12.5, Dimension(**_EXPS))
        x = dimq.mul(x, Quantity(-1, 3.0, other))
        x = dimq.div(x, Quantity(1, -7.25, LENGTH))
        x = dimq.pow_rational(x, p)
        x = dimq.add(x, Quantity(1, x.log10 - 1.0, x.dimension))
        try:
            dimq.add(x, Quantity(1, 0.0, other))
        except dimq.DimensionError:
            pass
        else:
            raise AssertionError("mismatched add did not raise")
        assert dimq.quantity_from_jsonable(dimq.quantity_to_jsonable(x)) == x

    assert _fractions(_profiled(run)) == 0


def test_algebra_add_of_one_dimension_compares_no_dimension():
    # the chain's add takes its operand's dimension object, so it passes on identity
    x = Quantity(1, 12.5, Dimension(**_EXPS))
    y = Quantity(1, x.log10 - 1.0, x.dimension)
    assert _calls(_profiled(lambda: dimq.add(x, y)), Dimension.__eq__.__code__) == 0


# Python instructions, as a trace function counts them opcode by opcode: exact
# for one CPython minor version, so each bound is the count when it was set
# plus 2%, on CPython 3.10.13, 3.11.7, 3.12.1 and 3.13.0.  The runs: the sweep
# operation, a paper full_report of a prebuilt scenario, and an in-process
# `report --default-paper` after a first run has built the CLI's parser.
MAX_INSTRUCTIONS = {
    (3, 10): {"sweep": 4772, "full_report": 2030, "report": 10143},  # 4679, 1991, 9945
    (3, 11): {"sweep": 5121, "full_report": 2179, "report": 10644},  # 5021, 2137, 10436
    (3, 12): {"sweep": 4688, "full_report": 2013, "report": 9798},  # 4597, 1974, 9606
    (3, 13): {"sweep": 4414, "full_report": 1839, "report": 9584},  # 4328, 1803, 9397
}


def _instructions(run) -> int:
    """The Python instructions ``run()`` executes; any trace function set before is restored."""
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        frame.f_trace_opcodes = True
        if event == "opcode":
            count += 1
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(previous)
    return count


def _instruction_runs() -> dict:
    scenario = paper_scenario()
    return {"sweep": _sweep_operation, "full_report": lambda: full_report(scenario),
            "report": lambda: cli.main(["report", "--default-paper"])}


@pytest.mark.parametrize("name", ["sweep", "full_report", "report"])
def test_the_core_path_runs_few_python_instructions(name):
    version = sys.version_info[:2]
    if version not in MAX_INSTRUCTIONS:
        pytest.skip(f"no instruction bound is set for Python {version[0]}.{version[1]}, "
                    f"only for {', '.join('%d.%d' % v for v in MAX_INSTRUCTIONS)}")
    run, before = _instruction_runs()[name], sys.gettrace()
    with contextlib.redirect_stdout(io.StringIO()):
        run()  # the first report builds the parser, cached for every later one
        _instructions(lambda: None)  # the first count in a process can read 0 (3.12.1)
        count = _instructions(run)
    assert sys.gettrace() is before
    assert 0 < count <= MAX_INSTRUCTIONS[version][name]


def test_quantity_decode_reads_each_pair_once():
    # a well-formed five-axis wire form, as json.loads returns it: the key
    # set passes without reject_unknown, the checked fields are built without
    # Quantity.__init__, and the dimension is reduced once
    wire = json.loads(json.dumps(dimq.quantity_to_jsonable(Quantity(-1, 12.5, Dimension(**_EXPS)))))
    assert len(wire["dims"]) == 5
    profiler = _profiled(lambda: dimq.quantity_from_jsonable(wire))
    assert _calls(profiler, dimq.reject_unknown.__code__) == 0
    assert _calls(profiler, Quantity.__init__.__code__) == 0
    assert _calls(profiler, dimq._reduced.__code__) == 1
