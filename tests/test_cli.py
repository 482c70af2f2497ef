import argparse
import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cosmocap import cli, cosmo
from cosmocap.constants import PAPER, REQUIRED_DIMS, get
from cosmocap.dimq import (
    MASS_DENSITY,
    RATE,
    dimension_to_mapping,
    make,
    quantity_from_jsonable,
)
from cosmocap.largenum import identities

FIXTURES = Path(__file__).parent / "data"

# independent plain-double values, shared with the module tests
OPS_MATTER = 2.210969310942412e119
OPS_CRITICAL = 3.3265005572146196e121
BITS_MATTER = 5.586019314266703e89
T_BLACKBODY_PAPER = 18.434190031646747
INFLATION_OPS_PER_SEC_H10 = 3.98652972308352e75
INFLATION_OPS_PER_HUBBLE_H10 = 3.98652972308352e65
INFLATION_BITS_H10 = 3.3397473310284102e66
ALPHA_CODATA = 2.2687634167248066e39

REPORT_KEYS = {
    "schema",
    "ops_matter",
    "ops_critical",
    "bits_matter",
    "bits_holographic",
    "blackbody_T",
    "large_numbers",
    "inflation",
    "fleet",
}


def power(v: float) -> str:
    return f"10^{math.log10(v):.2f}"


def paper_age():
    return make(1.0e10) * get(PAPER, "year_seconds")


# --- report: text ---


def test_report_default_text(run_cli):
    code, out, err = run_cli(["report", "--default-paper"])
    assert code == 0 and err == ""
    assert "capacity report (profile: paper)" in out
    assert f"ops (matter):       {power(OPS_MATTER)} (≈10^120)" in out
    assert f"ops (critical):     {power(OPS_CRITICAL)} (≈10^122)" in out
    assert f"bits (matter):      {power(BITS_MATTER)} (≈10^90)" in out
    assert "bits (holographic): " + power(OPS_CRITICAL) in out
    assert "blackbody T:        1.843e+01 [Θ]" in out
    assert "species: photon (total weight 2)" in out
    assert "gravity factor: off" in out
    assert "r2 1.000e+00 PASS" in out
    assert "r3 1.000e+00 PASS" in out
    assert "fleet baseline: ops 10^31.00 (≈10^31), bits 10^21.00 (≈10^21)" in out
    assert (
        "consistency: inflation ops per Hubble vs critical ops: "
        "OK (gap 0.92 decades, tolerance 1.50)"
    ) in out
    assert (
        "consistency: holographic bits vs critical ops: "
        "OK (gap 0.00 decades, tolerance 1.50)"
    ) in out


def test_report_tolerance_flag_flips_verdict(run_cli):
    code, out, _ = run_cli(["report", "--default-paper", "--tolerance-decades", "0.5"])
    assert code == 0
    assert "MISMATCH (gap 0.92 decades, tolerance 0.50)" in out
    assert "OK (gap 0.00 decades, tolerance 0.50)" in out


def test_report_needs_exactly_one_source(run_cli):
    code, _, err = run_cli(["report"])
    assert code == 2
    assert "scenario file or --default-paper" in err
    code, _, err = run_cli(["report", "x.json", "--default-paper"])
    assert code == 2
    assert "not both" in err


def test_report_is_deterministic_in_process(run_cli):
    first = run_cli(["report", "--default-paper", "--json"])
    second = run_cli(["report", "--default-paper", "--json"])
    assert first == second


# --- report: json ---


def test_report_json_shape_and_values(run_cli):
    code, out, err = run_cli(["report", "--default-paper", "--json"])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert set(doc) == REPORT_KEYS
    assert doc["schema"] == 1
    ops = quantity_from_jsonable(doc["ops_matter"])
    expected = cosmo.ops_matter(make(1e-27, MASS_DENSITY), paper_age(), PAPER)
    assert ops.log10 == expected.log10
    assert ops.dimension == expected.dimension
    assert ops.to_value() == pytest.approx(OPS_MATTER, rel=1e-9)
    assert quantity_from_jsonable(doc["bits_matter"]).to_value() == pytest.approx(
        BITS_MATTER, rel=1e-9
    )
    assert quantity_from_jsonable(doc["blackbody_T"]).to_value() == pytest.approx(
        T_BLACKBODY_PAPER, rel=1e-9
    )
    assert doc["inflation"]["total_ops"] is None
    assert doc["fleet"]["ops"]["log10"] == 31.0
    assert doc["fleet"]["bits"]["log10"] == 21.0
    assert set(doc["large_numbers"]) == {"alpha", "beta", "gamma", "r1", "r2", "r3"}
    assert quantity_from_jsonable(doc["large_numbers"]["r2"]).to_value() == pytest.approx(
        1.0, abs=1e-9
    )


# --- report: scenario files ---


def scenario_doc() -> dict:
    return {
        "rho_kg_m3": 4.2e-26,
        "age_years": 5.0e9,
        "hubble_per_s": 2.3e-18,
        "include_gravity": True,
        "species": [
            {
                "name": "photon",
                "polarizations": 2,
                "particle_antiparticle": 1,
                "statistics": "boson",
            },
            {
                "name": "nu",
                "polarizations": 2,
                "particle_antiparticle": 2,
                "statistics": "fermion",
            },
        ],
        "inflation_growth_log10": {"center": 10.0, "halfwidth": 6.0},
        "fleet": {
            "n_computers": 2.0e9,
            "clock_rate_hz": 1.0e9,
            "ops_per_cycle": 1.0e5,
            "duration_s": 1.0e8,
            "bits_per_computer": 5.0e11,
        },
    }


def write_scenario(tmp_path, doc) -> str:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_report_reads_scenario_file(run_cli, tmp_path):
    code, out, err = run_cli(["report", write_scenario(tmp_path, scenario_doc())])
    assert code == 0 and err == ""
    assert "capacity report (profile: paper)" in out
    assert "gravity factor: on" in out
    assert "species: photon, nu (total weight 11/2)" in out
    assert "inflation total ops: 10^{20±12}" in out
    assert f"fleet baseline: ops {power(2e31)} (≈10^32), bits 10^21.00 (≈10^21)" in out


def test_report_scenario_json_honors_every_knob(run_cli, tmp_path):
    code, out, _ = run_cli(
        ["report", write_scenario(tmp_path, scenario_doc()), "--json"]
    )
    assert code == 0
    doc = json.loads(out)
    table = cosmo.SpeciesTable(
        (
            cosmo.Species("photon", 2, 1, "boson"),
            cosmo.Species("nu", 2, 2, "fermion"),
        )
    )
    rho = make(4.2e-26, MASS_DENSITY)
    expected_t = cosmo.blackbody_temperature(rho, table, PAPER)
    assert doc["blackbody_T"]["log10"] == expected_t.log10
    expected_infl = cosmo.inflation_bounds(make(2.3e-18, RATE), PAPER)
    assert (
        doc["inflation"]["ops_per_sec"]["log10"] == expected_infl.ops_per_sec.log10
    )
    assert doc["inflation"]["total_ops"]["center"] == 20.0
    assert doc["inflation"]["total_ops"]["halfwidth"] == 12.0
    assert doc["fleet"]["ops"]["log10"] == pytest.approx(math.log10(2e31), abs=1e-12)
    assert "ops_with_gravity" not in doc


def test_profile_flag_beats_scenario_profile(run_cli, tmp_path):
    doc = {"constants_profile": "codata"}
    path = write_scenario(tmp_path, doc)
    code, out, _ = run_cli(["report", path])
    assert code == 0
    assert "capacity report (profile: codata)" in out
    code, out, _ = run_cli(["report", path, "--profile", "paper"])
    assert code == 0
    assert "capacity report (profile: paper)" in out


def test_scenario_profile_may_be_a_file(run_cli, tmp_path):
    doc = {"constants_profile": str(FIXTURES / "codata_profile.json")}
    code, out, _ = run_cli(["report", write_scenario(tmp_path, doc)])
    assert code == 0
    assert "capacity report (profile: codata)" in out


# --- error paths ---


def test_unknown_scenario_key_is_named(run_cli, tmp_path):
    code, _, err = run_cli(["report", write_scenario(tmp_path, {"rho": 1e-27})])
    assert code == 2
    assert "unknown scenario key: 'rho'" in err


def test_bad_species_entries(run_cli, tmp_path):
    doc = scenario_doc()
    doc["species"][0]["color"] = 3
    code, _, err = run_cli(["report", write_scenario(tmp_path, doc)])
    assert code == 2
    assert "unknown species key: 'color'" in err

    doc = scenario_doc()
    del doc["species"][0]["statistics"]
    code, _, err = run_cli(["report", write_scenario(tmp_path, doc)])
    assert code == 2
    assert "missing key: 'statistics'" in err

    doc = scenario_doc()
    doc["species"][0]["polarizations"] = 2.5
    code, _, err = run_cli(["report", write_scenario(tmp_path, doc)])
    assert code == 2
    assert "must be integers" in err


def test_bad_fleet_and_growth_keys(run_cli, tmp_path):
    doc = scenario_doc()
    doc["fleet"]["cores"] = 8
    code, _, err = run_cli(["report", write_scenario(tmp_path, doc)])
    assert code == 2
    assert "unknown fleet key: 'cores'" in err

    doc = scenario_doc()
    doc["inflation_growth_log10"] = {"center": 10.0, "width": 6.0}
    code, _, err = run_cli(["report", write_scenario(tmp_path, doc)])
    assert code == 2
    assert "unknown inflation_growth_log10 key: 'width'" in err


def test_scenario_type_errors(run_cli, tmp_path):
    code, _, err = run_cli(
        ["report", write_scenario(tmp_path, {"include_gravity": 1})]
    )
    assert code == 2
    assert "must be true or false" in err

    code, _, err = run_cli(
        ["report", write_scenario(tmp_path, {"rho_kg_m3": "dense"})]
    )
    assert code == 2
    assert "'rho_kg_m3' must be a number" in err

    code, _, err = run_cli(
        ["report", write_scenario(tmp_path, {"constants_profile": 42})]
    )
    assert code == 2
    assert "must be a string" in err


def test_malformed_and_missing_files(run_cli, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  \"rho_kg_m3\": ,\n}", encoding="utf-8")
    code, _, err = run_cli(["report", str(bad)])
    assert code == 2
    assert "malformed JSON" in err and "line 2" in err

    code, _, err = run_cli(["report", str(tmp_path / "nowhere.json")])
    assert code == 2
    assert "cannot read scenario file" in err


def test_domain_errors_exit_three(run_cli, tmp_path):
    code, _, err = run_cli(["epoch", "matter", "--rho", "-1"])
    assert code == 3
    assert "rho must be > 0" in err

    code, _, err = run_cli(
        ["report", write_scenario(tmp_path, {"rho_kg_m3": -1.0})]
    )
    assert code == 3
    assert "rho must be > 0" in err

    code, _, err = run_cli(
        ["epoch", "radiation", "--E1-ratio", "1", "--t1", "1", "--t0", "2"]
    )
    assert code == 3
    assert "t0 must not exceed t1" in err


# non-finite, beyond-double, below-double and undecodable values are malformed, not
# unphysical; a file's bytes go to the path appended to argv
_HUGE = b"1" + b"0" * 400
_OVERSIZED = b"7" * 5000  # past the interpreter's 4300-digit limit on int literals


def _species(field: bytes) -> bytes:
    """A scenario with one photon-like species whose ``field`` is replaced."""
    fields = {
        b'"polarizations"': b'"polarizations": 2',
        b'"particle_antiparticle"': b'"particle_antiparticle": 1',
        b'"statistics"': b'"statistics": "boson"',
    }
    fields[field.partition(b":")[0]] = field
    return b'{"species": [{"name": "x", ' + b", ".join(fields.values()) + b"}]}"


def _growth(center: bytes, halfwidth: bytes) -> bytes:
    return b'{"inflation_growth_log10": {"center": %s, "halfwidth": %s}}' % (center, halfwidth)

_MALFORMED = {
    "rho-nan": (["epoch", "matter", "--rho", "nan"], None),
    "age-overflows": (["epoch", "matter", "--age-years", "1e400"], None),
    "t0-nan": (["epoch", "radiation", "--E1-ratio", "1", "--t1", "1", "--t0", "nan"], None),
    "scenario-overflows": (["report"], b'{"rho_kg_m3": 1e400}'),
    "rho-underflows": (["epoch", "matter", "--rho", "1e-400"], None),
    "t0-underflows": (["epoch", "radiation", "--E1-ratio", "1", "--t1", "1", "--t0", "1e-400"], None),
    "scenario-underflows": (["report"], b'{"rho_kg_m3": 1e-400}'),
    "scenario-huge-int": (["report"], b'{"rho_kg_m3": ' + _HUGE + b"}"),
    "scenario-null": (["report"], b'{"rho_kg_m3": null}'),
    "scenario-not-utf8": (["report"], b'{"constants_profile": "\xff"}'),
    "profile-huge-int": (
        ["constants"],
        b'{"name": "paper", "constants": {"x": {"value": ' + _HUGE + b"}}}",
    ),
    "scenario-oversized-int": (["report"], b'{"rho_kg_m3": ' + _OVERSIZED + b"}"),
    "profile-oversized-int": (
        ["constants"],
        b'{"name": "paper", "constants": {"x": {"value": ' + _OVERSIZED + b"}}}",
    ),
    "profile-zero-denominator": (
        ["constants"],
        b'{"name": "paper", "constants": {"x": {"value": 1.0, "dims": {"L": [1, 0]}}}}',
    ),
    # a field value outside its allowed set is malformed too
    "species-no-polarizations": (["report"], _species(b'"polarizations": 0')),
    "species-huge-polarizations": (["report"], _species(b'"polarizations": ' + _HUGE)),
    "species-quark": (["report"], _species(b'"statistics": "quark"')),
    "species-three-antiparticles": (["report"], _species(b'"particle_antiparticle": 3')),
    "species-empty": (["report"], b'{"species": []}'),
    # the same growth bands from a scenario file and from --growth
    "growth-negative-halfwidth": (["report"], _growth(b"10", b"-1")),
    "growth-underflows": (["report"], _growth(b"1e-400", b"1")),
    "growth-nan": (["report"], _growth(b"NaN", b"1")),
    "growth-flag-negative-halfwidth": (["epoch", "inflation", "--growth", "10:-1"], None),
    "growth-flag-underflows": (["epoch", "inflation", "--growth", "1e-400:1"], None),
    "growth-flag-nan": (["epoch", "inflation", "--growth", "nan:1"], None),
    # a present null goes to the key's reader like any other value, never counts as absent
    "hubble-null": (["report"], b'{"hubble_per_s": null}'),
    "species-null": (["report"], b'{"species": null}'),
    "growth-null": (["report"], b'{"inflation_growth_log10": null}'),
    "fleet-null": (["report"], b'{"fleet": null}'),
    "growth-no-halfwidth": (["report"], b'{"inflation_growth_log10": {"center": 10}}'),
    "profile-no-value": (["constants"], b'{"name": "paper", "constants": {"x": {"dims": {}}}}'),
    # a file that is JSON but not the object its reader needs
    "scenario-array": (["report"], b"[1, 2]"),
    "profile-array": (["constants"], b"[]"),
    "profile-no-name": (["constants"], b'{"constants": {}}'),
    "profile-name-not-string": (["constants"], b'{"name": 5, "constants": {}}'),
    "profile-constants-array": (["constants"], b'{"name": "x", "constants": []}'),
}


@pytest.mark.parametrize(("argv", "content"), _MALFORMED.values(), ids=list(_MALFORMED))
def test_malformed_values_exit_two(run_cli, tmp_path, argv, content):
    if content is not None:
        path = tmp_path / "input.json"
        path.write_bytes(content)
        argv = [*argv, str(path)]
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


# json refuses an int literal past the digit limit before any key reads it
_HUGE_INT_ERRORS = {
    "scenario-oversized-int": "malformed JSON in {path}: Exceeds the limit (4300 digits)",
    "profile-oversized-int":
        "bad profile file {path!r}: malformed JSON in {path}: Exceeds the limit (4300 digits)",
    "scenario-huge-int": "scenario key 'rho_kg_m3' must be finite and fit in a double\n",
    "profile-huge-int":
        "bad profile file {path!r}: constant 'x' key 'value' must be finite and fit in a double\n",
}


@pytest.mark.parametrize("case", _HUGE_INT_ERRORS)
def test_huge_int_literals_are_refused_by_file_or_key(run_cli, tmp_path, case):
    argv, content = _MALFORMED[case]
    message = _HUGE_INT_ERRORS[case]
    path = tmp_path / "input.json"
    path.write_bytes(content)
    code, out, err = run_cli([*argv, str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: " + message.format(path=str(path)))


_WRONG_SHAPE_ERRORS = {
    "scenario-array": "scenario file must hold a JSON object",
    "profile-array": "bad profile file {path!r}: profile file must hold a JSON object",
    "profile-no-name":
        "bad profile file {path!r}: profile fixture needs a non-empty string 'name'",
    "profile-name-not-string":
        "bad profile file {path!r}: profile fixture needs a non-empty string 'name'",
    "profile-constants-array":
        "bad profile file {path!r}: profile fixture needs a 'constants' object",
}


@pytest.mark.parametrize("case", _WRONG_SHAPE_ERRORS)
def test_a_file_of_the_wrong_shape_is_refused_by_name(run_cli, tmp_path, case):
    argv, content = _MALFORMED[case]
    path = tmp_path / "input.json"
    path.write_bytes(content)
    code, out, err = run_cli([*argv, str(path)])
    assert (code, out) == (2, "")
    assert err == "error: " + _WRONG_SHAPE_ERRORS[case].format(path=str(path)) + "\n"


# a valid profile whose hbar*c/e2 is 10^608.47, far beyond double range
_FAR_CONSTANTS = (
    b'{"name": "paper", "constants": {'
    b'"hbar": {"value": 1e300, "dims": {"L": [2, 1], "M": [1, 1], "T": [-1, 1]}}, '
    b'"e2": {"value": 1e-300, "dims": {"L": [3, 1], "M": [1, 1], "T": [-2, 1]}}}}'
)


@pytest.mark.parametrize(
    ("argv", "content"),
    [*_MALFORMED.values(), (["constants"], _FAR_CONSTANTS)],
    ids=[*_MALFORMED, "constants-beyond-double"],
)
def test_text_and_json_exit_alike(run_cli, tmp_path, argv, content):
    if content is not None:
        path = tmp_path / "input.json"
        path.write_bytes(content)
        argv = [*argv, str(path)]
    assert run_cli(argv)[0] == run_cli([*argv, "--json"])[0]


def test_constants_beyond_double_print_as_powers(run_cli, tmp_path):
    path = tmp_path / "profile.json"
    path.write_bytes(_FAR_CONSTANTS)
    code, out, err = run_cli(["constants", str(path)])
    assert (code, err) == (0, "")
    assert "  hbar*c/e2      10^608.47" in out


def _main_exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


# magnitudes anywhere in double range, and now and then an unphysical 0
_magnitudes = st.floats(-300.0, 340.0).map(lambda e: 10.0**e if e <= 300.0 else 0.0)
_parity_profiles = st.fixed_dictionaries(
    {cid: st.floats(-300.0, 300.0).map(lambda e: 10.0**e) for cid in REQUIRED_DIMS}
)
_parity_species = st.fixed_dictionaries({
    "name": st.just("s"),
    "polarizations": st.integers(1, int(sys.float_info.max)),
    "particle_antiparticle": st.sampled_from([1, 2]),
    "statistics": st.sampled_from(["boson", "fermion"]),
})
_parity_scenarios = st.fixed_dictionaries(
    {"rho_kg_m3": _magnitudes, "age_years": _magnitudes},
    optional={
        "hubble_per_s": _magnitudes,
        "include_gravity": st.booleans(),
        "species": st.lists(_parity_species, min_size=1, max_size=3),
        "inflation_growth_log10": st.fixed_dictionaries(
            {"center": st.floats(-300.0, 300.0), "halfwidth": st.floats(0.0, 300.0)}
        ),
    },
)


@settings(max_examples=40, deadline=None)
@given(_parity_profiles, _parity_scenarios)
def test_text_and_json_exit_alike_for_generated_inputs(constants, scenario):
    """Any profile and scenario inside double range exit alike in text and --json."""
    with tempfile.TemporaryDirectory() as tmp:
        profile_path, scenario_path = Path(tmp, "profile.json"), Path(tmp, "scenario.json")
        profile_path.write_text(json.dumps({
            "name": "generated",
            "constants": {
                cid: {"value": v, "dims": dimension_to_mapping(REQUIRED_DIMS[cid])}
                for cid, v in constants.items()
            },
        }), encoding="utf-8")
        scenario_path.write_text(json.dumps(scenario), encoding="utf-8")
        rho, years = repr(scenario["rho_kg_m3"]), repr(scenario["age_years"])
        for argv in (
            ["report", str(scenario_path)],
            ["epoch", "matter", "--rho", rho, "--age-years", years],
            ["large-numbers", "--rho", rho, "--age-years", years],
            ["large-numbers", "--age-years", years],
            ["constants"],
        ):
            argv = [*argv, "--profile", str(profile_path)]
            assert _main_exit_code(argv) == _main_exit_code([*argv, "--json"]), argv


_HUGE_SPECIES = {
    "one-1e307-pair": [
        {"name": "x", "polarizations": 10**307, "particle_antiparticle": 2, "statistics": "boson"}
    ],
    "two-1e308": [
        {"name": n, "polarizations": 10**308, "particle_antiparticle": 1, "statistics": "boson"}
        for n in ("x", "y")
    ],
}


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("species", _HUGE_SPECIES.values(), ids=list(_HUGE_SPECIES))
def test_species_weight_beyond_double_range(run_cli, tmp_path, species, flags):
    """The weight is exact: its log10 comes from integers, never from an overflowing float."""
    code, out, err = run_cli(["report", write_scenario(tmp_path, {"species": species}), *flags])
    assert (code, err) == (0, "")
    if flags:
        # T scales as weight^(-1/4) from the photon bath's weight of 2
        weight = sum(s["polarizations"] * s["particle_antiparticle"] for s in species)
        expected = math.log10(T_BLACKBODY_PAPER) + (math.log10(2) - math.log10(weight)) / 4
        assert json.loads(out)["blackbody_T"]["log10"] == pytest.approx(expected, abs=1e-12)


# every numeric flag of every command, with "X" where its value goes
_NUMERIC_FLAGS = {
    "--rho": ["epoch", "matter", "--rho", "X"],
    "--age-years": ["epoch", "matter", "--age-years", "X"],
    "--E1-joules": ["epoch", "radiation", "--E1-joules", "X", "--t1", "1", "--t0", "0"],
    "--E1-ratio": ["epoch", "radiation", "--E1-ratio", "X", "--t1", "1", "--t0", "0"],
    "--t1": ["epoch", "radiation", "--E1-ratio", "1", "--t1", "X", "--t0", "0"],
    "--t0": ["epoch", "radiation", "--E1-ratio", "1", "--t1", "1", "--t0", "X"],
    "--temperature-k": [
        "epoch", "radiation", "--E1-ratio", "1", "--t1", "1", "--t0", "0", "--temperature-k", "X",
    ],
    "--H": ["epoch", "inflation", "--H", "X"],
    "--growth-center": ["epoch", "inflation", "--growth", "X:6"],
    "--growth-halfwidth": ["epoch", "inflation", "--growth", "10:X"],
    "large-numbers --rho": ["large-numbers", "--rho", "X"],
    "large-numbers --age-years": ["large-numbers", "--age-years", "X"],
    "--tolerance-decades": ["report", "--default-paper", "--tolerance-decades", "X"],
}


@pytest.mark.parametrize("value", ["nan", "1e-400"])
@pytest.mark.parametrize("argv", _NUMERIC_FLAGS.values(), ids=list(_NUMERIC_FLAGS))
def test_numeric_flags_refuse_nan_and_underflow(run_cli, argv, value):
    code, out, err = run_cli([a.replace("X", value) for a in argv])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_numeric_flag_table_covers_the_parser():
    """Every flag that takes a value, except the two that name files, is in the table."""
    parser = cli._build_parser()
    seen, todo = set(), [((), parser)]
    while todo:
        path, p = todo.pop()
        for action in p._actions:
            if isinstance(action, argparse._SubParsersAction):
                todo += [((*path, name), sub) for name, sub in action.choices.items()]
            elif action.option_strings and action.nargs != 0:
                seen.add((path, action.option_strings[0]))
    listed = set()
    for argv in _NUMERIC_FLAGS.values():
        command = tuple(itertools.takewhile(lambda a: not a.startswith("-"), argv))
        listed.add((command, argv[next(i for i, a in enumerate(argv) if "X" in a) - 1]))
    named_files = {(path, flag) for path, flag in seen if flag in ("--profile", "--scenario")}
    assert seen - named_files == listed


# any double (nan, the infinities and subnormals among them), or a literal beyond double range
_any_number = st.one_of(
    st.floats().map(repr), st.sampled_from(["1e400", "-1e400", "1e-400", "-1e-400", "5e-324"])
)
_FUZZED_FLAGS = {
    "matter": ([], ["--rho", "--age-years"]),
    "radiation": (["--t1", "--t0"], ["--temperature-k"]),
    "inflation": ([], ["--H", "--growth"]),
    "large-numbers": ([], ["--rho", "--age-years"]),
}


@st.composite
def _fuzzed_argv(draw):
    """A command whose numeric flags, each given or not unless required, take any number."""
    command = draw(st.sampled_from(list(_FUZZED_FLAGS)))
    required, optional = _FUZZED_FLAGS[command]
    if command == "radiation":
        required = [draw(st.sampled_from(["--E1-joules", "--E1-ratio"])), *required]
    argv = ["large-numbers"] if command == "large-numbers" else ["epoch", command]
    for flag in required + [f for f in optional if draw(st.booleans())]:
        value = draw(_any_number)
        if flag == "--growth":
            value += ":" + draw(_any_number)
        argv.append(f"{flag}={value}")  # "=" keeps a leading "-" from reading as a flag
    return argv + draw(st.sampled_from([[], ["--json"]]))


@settings(max_examples=300, deadline=None)
@given(_fuzzed_argv())
def test_any_number_exits_cleanly(argv):
    """0 with output, or 2 or 3 with one error: line and nothing else; never a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert out and err == ""
    else:
        assert code in (2, 3)
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


def test_growth_band_too_wide_to_square_exits_three(run_cli):
    code, out, err = run_cli(["epoch", "inflation", "--growth", "1e308:1"])
    assert (code, out) == (3, "")
    assert "does not fit in a float" in err


def test_t0_zero_spellings_still_mean_zero(run_cli):
    base = ["epoch", "radiation", "--E1-ratio", "1", "--t1", "1", "--t0"]
    outputs = [run_cli([*base, zero]) for zero in ("0", "0.0", "-0", "0e-400")]
    assert outputs[0][0] == 0 and "unbounded as t0 -> 0" in outputs[0][1]
    assert all(out == outputs[0] for out in outputs)


def test_unknown_profile_exits_two(run_cli):
    code, _, err = run_cli(["constants", "nosuch"])
    assert code == 2
    assert "unknown profile" in err


def test_bad_profile_file_exits_two(run_cli, tmp_path):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({"name": "mine", "constants": {}}), encoding="utf-8")
    code, _, err = run_cli(["constants", str(path)])
    assert code == 2
    assert "bad profile file" in err


def test_argparse_level_failures(run_cli):
    code, _, _ = run_cli([])
    assert code == 2
    code, _, _ = run_cli(["epoch", "radiation", "--t1", "1", "--t0", "0"])
    assert code == 2  # one of --E1-joules / --E1-ratio is required
    code, _, _ = run_cli(
        ["epoch", "radiation", "--E1-ratio", "1", "--E1-joules", "1", "--t1", "1", "--t0", "0"]
    )
    assert code == 2
    code, _, _ = run_cli(["epoch", "inflation", "--growth", "10"])
    assert code == 2
    # flags only the commands that read them accept
    for argv in (
        ["manmade", "--profile", "paper"],
        ["epoch", "matter", "--tolerance-decades", "1"],
        ["constants", "--tolerance-decades", "1"],
    ):
        code, out, _ = run_cli(argv)
        assert (code, out) == (2, "")


def test_help_exits_zero(run_cli):
    code, out, _ = run_cli(["--help"])
    assert code == 0
    assert "usage: cosmocap" in out


# --- epoch matter ---


def test_epoch_matter_text_and_profile(run_cli):
    code, out, _ = run_cli(["epoch", "matter"])
    assert code == 0
    assert "matter epoch (profile: paper)" in out
    assert f"ops (matter):       {power(OPS_MATTER)} (≈10^120)" in out
    code, out, _ = run_cli(["epoch", "matter", "--profile", "codata"])
    assert code == 0
    assert "matter epoch (profile: codata)" in out


def test_epoch_matter_json_round_trip(run_cli):
    code, out, _ = run_cli(
        ["epoch", "matter", "--rho", "4.2e-26", "--age-years", "5e9", "--json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {
        "schema",
        "epoch",
        "ops_matter",
        "ops_critical",
        "bits_matter",
        "bits_holographic",
    }
    assert doc["epoch"] == "matter"
    rho = make(4.2e-26, MASS_DENSITY)
    age = make(5.0e9) * get(PAPER, "year_seconds")
    assert (
        quantity_from_jsonable(doc["ops_matter"]).log10
        == cosmo.ops_matter(rho, age, PAPER).log10
    )
    assert (
        doc["bits_holographic"]["log10"] == cosmo.ops_critical(age, PAPER).log10
    )


def test_epoch_matter_profile_file_flag(run_cli):
    code, out, _ = run_cli(
        ["epoch", "matter", "--profile", str(FIXTURES / "codata_profile.json")]
    )
    assert code == 0
    assert "matter epoch (profile: codata)" in out


# --- epoch radiation ---


def test_epoch_radiation_worked_example(run_cli):
    code, out, _ = run_cli(
        ["epoch", "radiation", "--E1-ratio", "1", "--t1", "4", "--t0", "1"]
    )
    assert code == 0
    assert "E at t1: 1.656e-34 [L^2 M T^-2]" in out
    assert "E at t0: 3.313e-34 [L^2 M T^-2]" in out
    assert "ops: 4.000e+00" in out


def test_epoch_radiation_from_zero(run_cli):
    code, out, _ = run_cli(
        ["epoch", "radiation", "--E1-ratio", "1", "--t1", "4", "--t0", "0"]
    )
    assert code == 0
    assert "E at t0: unbounded as t0 -> 0" in out
    assert "ops: 8.000e+00" in out


def test_epoch_radiation_joules_matches_library(run_cli):
    code, out, _ = run_cli(
        [
            "epoch",
            "radiation",
            "--E1-joules",
            "1e-20",
            "--t1",
            "100",
            "--t0",
            "4",
            "--json",
        ]
    )
    assert code == 0
    doc = json.loads(out)
    from cosmocap.dimq import ENERGY, TIME

    expected = cosmo.ops_radiation(
        make(1e-20, ENERGY), make(100.0, TIME), make(4.0, TIME), PAPER
    )
    assert quantity_from_jsonable(doc["ops"]).log10 == expected.log10
    assert doc["bits"] is None
    assert doc["above_gut_threshold"] is None


def test_epoch_radiation_gut_warning(run_cli):
    hot = ["epoch", "radiation", "--E1-ratio", "1", "--t1", "4", "--t0", "1",
           "--temperature-k", "3.5e29"]
    code, out, _ = run_cli(hot)
    assert code == 0
    assert "warning: k_B T above the grand-unification threshold" in out

    cool = ["epoch", "radiation", "--E1-ratio", "1", "--t1", "4", "--t0", "1",
            "--temperature-k", "18"]
    code, out, _ = run_cli(cool)
    assert code == 0
    assert "bits:" in out
    assert "warning" not in out

    code, out, _ = run_cli(hot + ["--json"])
    assert code == 0
    assert json.loads(out)["above_gut_threshold"] is True


# --- epoch inflation ---


def test_epoch_inflation_values(run_cli):
    code, out, _ = run_cli(["epoch", "inflation", "--H", "1e10"])
    assert code == 0
    assert f"ops/s: {power(INFLATION_OPS_PER_SEC_H10)} [T^-1]" in out
    assert (
        f"ops per Hubble time: {power(INFLATION_OPS_PER_HUBBLE_H10)} (≈10^66)" in out
    )
    assert f"bits in horizon: {power(INFLATION_BITS_H10)} (≈10^67)" in out


def test_epoch_inflation_growth_band(run_cli):
    code, out, _ = run_cli(["epoch", "inflation", "--growth", "10:6"])
    assert code == 0
    assert "total ops across growth: 10^{20±12}" in out


def test_epoch_inflation_needs_some_flag(run_cli):
    code, _, err = run_cli(["epoch", "inflation"])
    assert code == 2
    assert "inflation needs --H, --growth, or both" in err


def test_epoch_inflation_json(run_cli):
    code, out, _ = run_cli(
        ["epoch", "inflation", "--H", "1e10", "--growth", "10:6", "--json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["total_ops"] == {
        "center": 20.0,
        "halfwidth": 12.0,
        "dims": doc["total_ops"]["dims"],
    }
    assert quantity_from_jsonable(doc["ops_per_sec"]).to_value() == pytest.approx(
        INFLATION_OPS_PER_SEC_H10, rel=1e-9
    )


# --- large numbers ---


def test_large_numbers_default_sits_at_unity(run_cli):
    code, out, _ = run_cli(["large-numbers"])
    assert code == 0
    assert "large numbers (profile: paper)" in out
    assert "r1: 1.000e+00 PASS" in out
    assert "r2: 1.000e+00 PASS" in out
    assert "r3: 1.000e+00 PASS" in out


def test_large_numbers_off_critical(run_cli):
    code, out, _ = run_cli(
        ["large-numbers", "--rho", "1e-27", "--profile", "codata"]
    )
    assert code == 0
    assert "r1: 1.504e+02" in out
    assert "r1: 1.504e+02 PASS" not in out
    assert "FAIL" not in out
    assert "r2: 1.000e+00 PASS" in out


def test_large_numbers_json(run_cli):
    code, out, _ = run_cli(
        ["large-numbers", "--rho", "1e-27", "--profile", "codata", "--json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] == {"r1": False, "r2": True, "r3": True}
    assert quantity_from_jsonable(doc["alpha"]).to_value() == pytest.approx(
        ALPHA_CODATA, rel=1e-9
    )
    from cosmocap.constants import CODATA
    from cosmocap.dimq import ONE, TIME

    age = make(1.0e10) * get(CODATA, "year_seconds")
    expected = identities(make(1e-27, MASS_DENSITY), age, CODATA)
    assert quantity_from_jsonable(doc["gamma"]).log10 == expected.gamma.log10


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("rho", [[], ["--rho", "1e-27"]], ids=["critical", "rho"])
@pytest.mark.parametrize("years", ["0", "-1"])
def test_large_numbers_refuses_a_nonpositive_age_by_name(run_cli, years, rho, flags):
    # the age is checked before the default critical density divides by it,
    # so the message names the age, as epoch matter's does
    code, out, err = run_cli(["large-numbers", "--age-years", years, *rho, *flags])
    assert (code, out, err) == (3, "", "error: age must be > 0\n")
    code, _, err = run_cli(["epoch", "matter", "--rho", "1e-27", "--age-years", years, *flags])
    assert (code, err) == (3, "error: age must be > 0\n")


# --- constants ---


def test_constants_paper_table(run_cli):
    code, out, _ = run_cli(["constants"])
    assert code == 0
    assert "constants (profile: paper)" in out
    assert "derived:" in out
    assert "5.472e-44" in out  # planck_time follows from hbar, G, c
    assert "hbar*c/e2" in out and "136.2" in out
    assert "m_p/m_e" in out and "1836.2" in out


def test_constants_codata_table(run_cli):
    code, out, _ = run_cli(["constants", "codata"])
    assert code == 0
    assert "constants (profile: codata)" in out
    assert "5.391e-44" in out
    assert "137.0" in out


def test_constants_profile_file(run_cli):
    code, out, _ = run_cli(["constants", str(FIXTURES / "codata_profile.json")])
    assert code == 0
    assert "constants (profile: codata)" in out
    assert "5.391e-44" in out


def test_constants_json(run_cli):
    code, out, _ = run_cli(["constants", "codata", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["name"] == "codata"
    assert set(doc["constants"]) == {
        "hbar", "c", "G", "k_B", "m_e", "m_p", "e2", "year_seconds", "GeV_joules",
    }
    assert quantity_from_jsonable(doc["derived"]["planck_time"]).to_value() == pytest.approx(
        5.391125280988461e-44, rel=1e-9
    )
    assert quantity_from_jsonable(doc["derived"]["mass_ratio"]).to_value() == pytest.approx(
        1836.1526734400013, rel=1e-9
    )


def test_constants_json_keeps_dotted_ids_flat(run_cli, tmp_path):
    path = tmp_path / "profile.json"
    path.write_text(
        json.dumps({"name": "paper", "constants": {"a.b": {"value": 2.0}}}), encoding="utf-8"
    )
    code, out, _ = run_cli(["constants", str(path), "--json"])
    assert code == 0
    assert json.loads(out)["constants"]["a.b"]["log10"] == math.log10(2.0)


# --- manmade ---


def test_manmade_defaults(run_cli):
    code, out, _ = run_cli(["manmade"])
    assert code == 0
    assert "ops (recent era):  10^31.00 (≈10^31)" in out
    assert f"ops (historical):  {power(2e31)} (≈10^32)" in out
    assert "bits:              10^21.00 (≈10^21)" in out


def test_manmade_scenario_override(run_cli, tmp_path):
    doc = {"fleet": {"n_computers": 0.0, "clock_rate_hz": 1e9,
                     "ops_per_cycle": 1e5, "duration_s": 1e8,
                     "bits_per_computer": 1e12}}
    code, out, _ = run_cli(["manmade", "--scenario", write_scenario(tmp_path, doc)])
    assert code == 0
    assert "ops (recent era):  0" in out
    assert "bits:              0" in out


def test_manmade_json(run_cli):
    code, out, _ = run_cli(["manmade", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"schema", "ops", "ops_historical", "bits"}
    assert doc["ops"]["log10"] == 31.0
    assert doc["bits"]["log10"] == 21.0


# --- residual verdicts far from 1 ---


def test_residual_outside_float_range_fails_in_text(run_cli, tmp_path):
    code, out, err = run_cli(["large-numbers", "--rho", "1e-300", "--age-years", "1e-30"])
    assert code == 0 and err == ""
    assert "r1: 10^355.18\n" in out

    scenario = write_scenario(tmp_path, {"rho_kg_m3": 1e-300, "age_years": 1e-30})
    code, out, err = run_cli(["report", scenario])
    assert code == 0 and err == ""
    assert "residuals: r1 10^355.18, r2 1.000e+00 PASS" in out


def test_residual_outside_float_range_fails_in_json(run_cli):
    code, out, err = run_cli(
        ["large-numbers", "--rho", "1e-300", "--age-years", "1e-30", "--json"]
    )
    assert code == 0 and err == ""
    assert json.loads(out)["pass"] == {"r1": False, "r2": True, "r3": True}


@pytest.mark.parametrize("value", ["-1", "0", "nan"])
def test_tolerance_must_be_positive(run_cli, value):
    code, out, err = run_cli(["report", "--default-paper", "--tolerance-decades", value])
    assert code == 2 and out == ""
    assert "--tolerance-decades: must be > 0" in err


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [["report", "--default-paper"], ["--help"]], ids=["report", "help"])
def test_closed_stdout_exits_quietly(argv, unbuffered):
    """A reader that has gone (``| head -1``) ends the run with 1, no traceback."""
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails with EPIPE
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parent.parent)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cosmocap", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert b"Traceback" not in proc.stderr and b"Exception ignored" not in proc.stderr
    assert proc.stderr == b""
    # argparse itself drops a help text it cannot write, unbuffered, and exits 0
    quiet_help = argv == ["--help"] and unbuffered
    assert proc.returncode == (cli.EXIT_OK if quiet_help else cli.EXIT_BROKEN_PIPE)
