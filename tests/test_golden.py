"""Byte-for-byte snapshots of the CLI: stdout and exit code per invocation.

Each file under ``tests/data/golden/`` holds ``exit <code>`` on its first
line and the command's stdout after it.  The snapshots were captured
once and are never rewritten by the suite; an intended change of output
means editing them by hand, in the same change, and saying so.
"""

from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"

# every case runs under each profile, in text and in --json
PROFILES = {
    "paper": ["--profile", "paper"],
    "codata": ["--profile", "codata"],
    "file": ["--profile", "@data/codata_profile.json"],
}

CASES = {
    "report-default": ["report", "--default-paper"],
    "report-scenario": ["report", "@data/scenario_full.json"],
    "report-tolerance": ["report", "--default-paper", "--tolerance-decades", "0.5"],
    "matter-default": ["epoch", "matter"],
    "matter-args": ["epoch", "matter", "--rho", "4.2e-26", "--age-years", "5e9"],
    "radiation-joules": [
        "epoch", "radiation", "--E1-joules", "1e51", "--t1", "3.156e17", "--t0", "1.0",
    ],
    "radiation-temperature": [
        "epoch", "radiation", "--E1-joules", "1e51", "--t1", "3.156e17", "--t0", "1.0",
        "--temperature-k", "18",
    ],
    "radiation-t0-zero": [
        "epoch", "radiation", "--E1-joules", "1e51", "--t1", "3.156e17", "--t0", "0",
    ],
    "radiation-ratio": ["epoch", "radiation", "--E1-ratio", "1", "--t1", "4", "--t0", "1"],
    "radiation-gut": [
        "epoch", "radiation", "--E1-ratio", "1", "--t1", "4", "--t0", "1",
        "--temperature-k", "3.5e29",
    ],
    "inflation-h": ["epoch", "inflation", "--H", "1e10"],
    "inflation-growth": ["epoch", "inflation", "--growth", "10:6"],
    "inflation-both": ["epoch", "inflation", "--H", "1e10", "--growth", "10:6"],
    "inflation-none": ["epoch", "inflation"],
    "large-numbers-default": ["large-numbers"],
    "large-numbers-rho": ["large-numbers", "--rho", "1e-27"],
    "constants": ["constants"],
    "constants-braces": ["constants", "@data/braces_profile.json"],
}

# manmade reads no constants, so it runs under the default profile only
DEFAULT_ONLY_CASES = {
    "manmade": ["manmade"],
    "manmade-scenario": ["manmade", "--scenario", "@data/scenario_full.json"],
}


def golden_cases():
    """Yield (snapshot name, argv) for every snapshot."""
    for mode, flag in (("text", []), ("json", ["--json"])):
        for case, argv in CASES.items():
            for profile, profile_flags in PROFILES.items():
                yield f"{case}.{profile}.{mode}", argv + profile_flags + flag
        for case, argv in DEFAULT_ONLY_CASES.items():
            yield f"{case}.default.{mode}", argv + flag


def resolve(argv):
    return [str(DATA / a[len("@data/"):]) if a.startswith("@data/") else a for a in argv]


GOLDEN_CASES = list(golden_cases())


@pytest.mark.parametrize(("name", "argv"), GOLDEN_CASES, ids=[name for name, _ in GOLDEN_CASES])
def test_cli_matches_golden(run_cli, name, argv):
    code, out, _ = run_cli(resolve(argv))
    expected = (GOLDEN / f"{name}.out").read_bytes()
    assert f"exit {code}\n{out}".encode("utf-8") == expected
