"""Deterministic call counts on the core path.

Timings are too noisy to gate on, but how many objects one report
builds is exact, so a regression in the dimension arithmetic shows up
here as a count.
"""

import cProfile
import pstats

from cosmocap.cosmo import full_report, paper_scenario
from cosmocap.dimq import Quantity

# Fraction.__new__ calls in one paper report.  Dimension arithmetic builds
# none; the species weights and the horizon entropy build the 11 left.
MAX_FRACTIONS_PER_REPORT = 60


def test_full_report_builds_few_fractions():
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        full_report(paper_scenario())
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler).stats
    fractions = sum(
        ncalls
        for (path, _, name), (_, ncalls, *_) in stats.items()
        if name == "__new__" and path.replace("\\", "/").endswith("/fractions.py")
    )
    assert 0 < fractions <= MAX_FRACTIONS_PER_REPORT


# Quantity constructions in one full_report of a prebuilt paper scenario:
# 95 when each value is computed once, so that bits_matter reuses the
# horizon entropy and bits_holographic is the ops_critical value.  Every
# construction runs Quantity.__new__: a public Quantity(...) call and an
# arithmetic result alike, the latter without __init__.
MAX_QUANTITIES_PER_REPORT = 100


def test_full_report_builds_each_quantity_once():
    scenario = paper_scenario()
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        full_report(scenario)
    finally:
        profiler.disable()
    new = Quantity.__new__.__code__
    quantities = sum(e.callcount for e in profiler.getstats() if e.code is new)
    assert 0 < quantities <= MAX_QUANTITIES_PER_REPORT
