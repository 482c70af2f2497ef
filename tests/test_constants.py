import math
import pathlib

import pytest

from cosmocap.constants import (
    CODATA,
    PAPER,
    ConstantsProfile,
    builtin_profile,
    fine_structure_inverse,
    get,
    load_profile,
    mass_ratio,
    planck_length,
    planck_time,
    profile_from_dict,
)
from cosmocap.dimq import DIMENSIONLESS, LENGTH, MASS, TIME, make

DATA = pathlib.Path(__file__).parent / "data"

# plain-double evaluations of the derived combinations, fixed before the
# log-space path existed
PLANCK_TIME_PAPER = 5.471963530919338e-44
PLANCK_TIME_CODATA = 5.391125280988461e-44
PLANCK_LENGTH_CODATA = 1.6162186993734714e-35
FSI_CODATA = 137.03599900262276
MASS_RATIO = 1836.1526734400013
CLASSICAL_ELECTRON_RADIUS = 2.8179403261539514e-15


def test_paper_values_as_printed():
    expected = {
        "hbar": 1.0545e-34,
        "c": 2.98e8,
        "G": 6.673e-11,
        "k_B": 1.38e-23,
        "year_seconds": 3.156e7,
        "GeV_joules": 1.602e-10,
    }
    for cid, value in expected.items():
        assert get(PAPER, cid).to_value() == pytest.approx(value, rel=1e-12)


def test_codata_values():
    expected = {
        "hbar": 1.054571817e-34,
        "c": 2.99792458e8,
        "G": 6.674e-11,
        "k_B": 1.380649e-23,
        "m_e": 9.1093837015e-31,
        "m_p": 1.67262192369e-27,
        "e2": 2.3070775523e-28,
    }
    for cid, value in expected.items():
        assert get(CODATA, cid).to_value() == pytest.approx(value, rel=1e-12)


def test_every_constant_positive_with_declared_dimension():
    for profile in (PAPER, CODATA):
        for cid, quantity in profile.constants.items():
            assert quantity.sign == 1, cid
    assert get(PAPER, "c").dimension == LENGTH / TIME
    assert get(PAPER, "m_e").dimension == MASS
    assert get(PAPER, "year_seconds").dimension == TIME


def test_get_unknown_id():
    with pytest.raises(KeyError) as err:
        get(PAPER, "nope")
    assert "nope" in str(err.value)


def test_builtin_profile_lookup():
    assert builtin_profile("paper") is PAPER
    assert builtin_profile("codata") is CODATA
    with pytest.raises(KeyError):
        builtin_profile("modern")


def test_planck_time_matches_double_oracle():
    assert planck_time(PAPER).to_value() == pytest.approx(PLANCK_TIME_PAPER, rel=1e-9)
    assert planck_time(CODATA).to_value() == pytest.approx(PLANCK_TIME_CODATA, rel=1e-9)
    assert planck_time(PAPER).dimension == TIME


def test_planck_length_matches_double_oracle():
    assert planck_length(CODATA).to_value() == pytest.approx(PLANCK_LENGTH_CODATA, rel=1e-9)
    assert planck_length(CODATA).to_value() == pytest.approx(1.62e-35, rel=0.01)
    assert planck_length(PAPER).dimension == LENGTH


def test_planck_time_never_stored():
    assert "planck_time" not in PAPER.constants
    assert "planck_length" not in PAPER.constants


def test_planck_identity_both_profiles():
    # t_P^2 c^5/(G hbar) == 1, dimensionless
    for profile in (PAPER, CODATA):
        t_p = planck_time(profile)
        check = t_p**2 * get(profile, "c") ** 5 / (get(profile, "G") * get(profile, "hbar"))
        assert check.dimension == DIMENSIONLESS
        assert check.to_value() == pytest.approx(1.0, rel=1e-12)


def test_fine_structure_inverse():
    fsi = fine_structure_inverse(CODATA)
    assert fsi.dimension == DIMENSIONLESS
    assert fsi.to_value() == pytest.approx(FSI_CODATA, rel=1e-9)
    assert abs(fsi.to_value() - 137.0) < 0.1
    # within half a percent of the round 137
    assert abs(fsi.to_value() / 137.0 - 1.0) < 0.005


def test_mass_ratio():
    ratio = mass_ratio(CODATA)
    assert ratio.dimension == DIMENSIONLESS
    assert ratio.to_value() == pytest.approx(MASS_RATIO, rel=1e-9)
    assert abs(ratio.to_value() / 1836.0 - 1.0) < 0.005


def test_e2_combinations():
    e2, m_e, c = get(CODATA, "e2"), get(CODATA, "m_e"), get(CODATA, "c")
    assert (e2 / (get(CODATA, "hbar") * c)).dimension == DIMENSIONLESS
    radius = e2 / (m_e * c**2)
    assert radius.dimension == LENGTH
    assert radius.to_value() == pytest.approx(CLASSICAL_ELECTRON_RADIUS, rel=1e-9)


def test_profiles_agree_within_one_decade():
    for cid in PAPER.constants:
        gap = abs(get(PAPER, cid).log10 - get(CODATA, cid).log10)
        assert gap <= 1.0, cid


def test_fixture_file_matches_builtin():
    loaded = load_profile(str(DATA / "codata_profile.json"))
    assert loaded.name == "codata"
    assert set(loaded.constants) == set(CODATA.constants)
    for cid, quantity in CODATA.constants.items():
        assert loaded.constants[cid] == quantity, cid


def test_overlay_wins_on_conflict():
    overlay = profile_from_dict(
        {
            "name": "paper",
            "constants": {
                "c": {"value": 2.998e8, "dims": {"L": [1, 1], "T": [-1, 1]}}
            },
        }
    )
    assert get(overlay, "c").to_value() == pytest.approx(2.998e8, rel=1e-12)
    # everything else inherited untouched
    assert get(overlay, "hbar") == get(PAPER, "hbar")


def test_overlay_can_add_new_ids():
    overlay = profile_from_dict(
        {
            "name": "codata",
            "constants": {
                "e2_gauss": {"value": 1.0, "dims": {"Q2": [1, 1]}}
            },
        }
    )
    assert get(overlay, "e2_gauss").dimension.charge2 == 1


def test_standalone_profile_must_be_complete():
    with pytest.raises(ValueError) as err:
        profile_from_dict({"name": "mine", "constants": {}})
    assert "missing" in str(err.value)


def test_profile_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        profile_from_dict(
            {
                "name": "paper",
                "constants": {"c": {"value": 2.998e8, "dims": {"T": [1, 1]}}},
            }
        )


def test_profile_rejects_non_positive():
    with pytest.raises(ValueError):
        profile_from_dict(
            {
                "name": "paper",
                "constants": {
                    "c": {"value": -1.0, "dims": {"L": [1, 1], "T": [-1, 1]}}
                },
            }
        )


def test_profile_rejects_unknown_fixture_keys():
    with pytest.raises(ValueError):
        profile_from_dict({"name": "paper", "constants": {}, "notes": "hi"})
    with pytest.raises(ValueError):
        profile_from_dict(
            {
                "name": "paper",
                "constants": {"c": {"value": 1.0, "dims": {}, "unit": "m/s"}},
            }
        )


def test_load_profile_rejects_zero_denominator(tmp_path):
    path = tmp_path / "profile.json"
    path.write_text(
        '{"name": "paper", "constants": {"x": {"value": 1.0, "dims": {"L": [1, 0]}}}}',
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match="'L' must be"):
        load_profile(str(path))


def test_constants_profile_validates_directly():
    with pytest.raises(ValueError):
        ConstantsProfile("broken", {"hbar": make(1.0)})


def test_profile_constants_are_read_only():
    # a mass stored where the speed c belongs would silently change every
    # later result, Planck time included
    profiles = (PAPER, load_profile(str(DATA / "codata_profile.json")))
    for profile in profiles:
        before = planck_time(profile)
        with pytest.raises(TypeError):
            profile.constants["c"] = make(1.0, MASS)
        with pytest.raises(TypeError):
            del profile.constants["c"]
        assert planck_time(profile) == before


def test_profile_copies_the_mapping_it_is_given():
    constants = dict(PAPER.constants)
    profile = ConstantsProfile("copy", constants)
    constants["c"] = make(1.0, MASS)
    assert get(profile, "c") is get(PAPER, "c")
    assert planck_time(profile) == planck_time(PAPER)
