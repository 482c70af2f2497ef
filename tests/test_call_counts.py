"""Deterministic call counts on the core path.

Timings are too noisy to gate on, but how many objects one report
builds is exact, so a regression in the dimension arithmetic shows up
here as a count.
"""

import cProfile
import pstats

from cosmocap import dimq
from cosmocap.cosmo import full_report, paper_scenario
from cosmocap.dimq import Quantity


def _profiled_report(scenario=None) -> cProfile.Profile:
    """A profile of one full_report: of ``scenario``, or of paper_scenario() built inside."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        full_report(paper_scenario() if scenario is None else scenario)
    finally:
        profiler.disable()
    return profiler


def _calls(profiler: cProfile.Profile, code) -> int:
    return sum(e.callcount for e in profiler.getstats() if e.code is code)


# Fraction.__new__ calls in one paper report, the scenario's construction
# included.  The formula table's exponents are floats fixed at import, so
# only the species weight Σ n_eff builds any: 3 for photons alone.
MAX_FRACTIONS_PER_REPORT = 5


def test_full_report_builds_few_fractions():
    stats = pstats.Stats(_profiled_report()).stats
    fractions = sum(
        ncalls
        for (path, _, name), (_, ncalls, *_) in stats.items()
        if name == "__new__" and path.replace("\\", "/").endswith("/fractions.py")
    )
    assert 0 < fractions <= MAX_FRACTIONS_PER_REPORT


# Quantity constructions in one full_report of a prebuilt paper scenario:
# one per table row the report shows, 14 in all, since bits_holographic is
# the ops_critical value and ops_with_gravity the ops_matter value when
# gravity is off.  Every construction runs Quantity.__new__.
MAX_QUANTITIES_PER_REPORT = 30


def test_full_report_builds_each_quantity_once():
    quantities = _calls(_profiled_report(paper_scenario()), Quantity.__new__.__code__)
    assert 0 < quantities <= MAX_QUANTITIES_PER_REPORT


def test_full_report_builds_no_dimension():
    # every Dimension is built by dimq._reduced; the table fixed each
    # row's dimension at import, so a report builds none
    assert _calls(_profiled_report(paper_scenario()), dimq._reduced.__code__) == 0
