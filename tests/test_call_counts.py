"""Deterministic call counts on the core path.

Timings are too noisy to gate on, but how many objects one report
builds is exact, so a regression in the dimension arithmetic shows up
here as a count.
"""

import cProfile
import pstats

from cosmocap.cosmo import full_report, paper_scenario

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
