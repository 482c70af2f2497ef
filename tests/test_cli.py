import json
import math
from pathlib import Path

import pytest

from cosmocap import cosmo
from cosmocap.constants import PAPER, get
from cosmocap.dimq import (
    MASS_DENSITY,
    RATE,
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
