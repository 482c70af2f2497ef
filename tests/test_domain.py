"""Every public output over the whole input domain, pinned bit for bit.

The golden snapshots pin the low bits of each number only at the paper's
point.  ``tests/data/domain_fixture.json`` holds 60 seeded scenarios:
ρ, t and H log-uniform over 10^±300, the ``paper`` and ``codata``
profiles and the profile file ``tests/data/domain_profile.json``, 1 to 6
species, gravity on and off, an inflation growth band present and
absent, a fleet, and a radiation window from t0 = 0, from t0 < t1 and
with t0 = t1.  For each it records the sign, ``repr(log10)`` and
dimension of every ``full_report`` field, of ``system_limits``,
``ops_radiation`` and ``bits_radiation`` on the scenario's horizon
energy, entropy, radius and temperature, and of the other public
formulas.  The horizon inputs are stored as log10 values, so this test
feeds the second group the same floats the fixture was made from.

The fixture was written by running this module as a script from the
root of a checkout (``PYTHONPATH=src python tests/test_domain.py``),
which draws the scenarios from ``SEED`` and records what the code
computes; an output whose value or dimension changes in its last bit
fails here.
"""

import functools
import json
import math
import random
from pathlib import Path

import pytest

from cosmocap import (
    CODATA,
    ENERGY,
    ENTROPY,
    LENGTH,
    MASS_DENSITY,
    PAPER,
    RATE,
    TEMPERATURE,
    TIME,
    FleetSpec,
    LogInterval,
    Quantity,
    Scenario,
    Species,
    SpeciesTable,
    SystemSpec,
    alpha,
    apply_gravity,
    beta,
    bits_holographic,
    bits_matter,
    bits_radiation,
    blackbody_temperature,
    critical_density,
    d_factor,
    entropy_density,
    entropy_in_volume,
    fine_structure_inverse,
    fleet_bits,
    fleet_ops,
    full_report,
    gamma,
    historical_ops,
    horizon_volume,
    identities,
    inflation_bounds,
    load_profile,
    make,
    mass_ratio,
    ops_critical,
    ops_matter,
    ops_radiation,
    planck_length,
    planck_time,
    radiation_energy_at,
    system_limits,
    zero,
)
from cosmocap.dimq import dimension_to_mapping

DATA = Path(__file__).parent / "data"
FIXTURE = DATA / "domain_fixture.json"
PROFILE_FILE = DATA / "domain_profile.json"
SEED = 20261018
N_SCENARIOS = 60
T0_MODES = ("zero", "before", "equal")


def draw_scenarios(rng: random.Random) -> list[dict]:
    """The fixture's inputs: raw floats and choices, before any cosmocap call."""

    def log_uniform() -> float:
        return 10.0 ** rng.uniform(-300.0, 300.0)

    scenarios = []
    for i in range(N_SCENARIOS):
        scenarios.append({
            "profile": ("paper", "codata", "file")[i % 3],
            "rho": log_uniform(),
            "age": log_uniform(),
            "hubble": log_uniform() if rng.random() < 0.5 else None,
            "species": [
                [f"s{j}", rng.randint(1, 4), rng.randint(1, 2), rng.choice(("boson", "fermion"))]
                for j in range(rng.randint(1, 6))
            ],
            "gravity": i % 2 == 0,
            "growth": [rng.uniform(-50.0, 50.0), rng.uniform(0.0, 20.0)] if i % 4 < 2 else None,
            "t0": T0_MODES[(i // 3) % 3],
            "t0_decades": rng.uniform(0.0, 30.0),
            "fleet": [0.0 if i % 10 == 0 else 10.0 ** rng.uniform(0, 12)]
            + [10.0 ** rng.uniform(-3, 12) for _ in range(4)],
        })
    return scenarios


def _profile(name: str):
    return {"paper": PAPER, "codata": CODATA}.get(name) or load_profile(str(PROFILE_FILE))


def _cell(value):
    """Quantity as [sign, repr(log10), dimension]; bands and flags as-is."""
    if isinstance(value, Quantity):
        return [value.sign, repr(value.log10), value.dimension.compact()]
    if isinstance(value, LogInterval):
        return [repr(value.center), repr(value.halfwidth)]
    return value


def _fields(prefix: str, record) -> dict:
    out = {}
    for name in type(record).__slots__:
        value = getattr(record, name)
        if hasattr(type(value), "__slots__") and not isinstance(value, (Quantity, LogInterval)):
            out.update(_fields(f"{prefix}{name}.", value))
        else:
            out[prefix + name] = _cell(value)
    return out


def horizon_logs(inp: dict) -> dict:
    """log10 of the horizon's energy ρc²·c³t³, entropy, radius ct and temperature."""
    profile = _profile(inp["profile"])
    report = full_report(_scenario(inp, profile))
    c = profile.constants["c"]
    rho, age = make(inp["rho"], MASS_DENSITY), make(inp["age"], TIME)
    return {
        "E": (rho * c**2 * horizon_volume(age, profile)).log10,
        "S": report.entropy_total.log10,
        "R": (c * age).log10,
        "T": report.blackbody_T.log10,
    }


def _scenario(inp: dict, profile) -> Scenario:
    return Scenario(
        rho=make(inp["rho"], MASS_DENSITY),
        age=make(inp["age"], TIME),
        hubble=None if inp["hubble"] is None else make(inp["hubble"], RATE),
        species=SpeciesTable(tuple(Species(*s) for s in inp["species"])),
        include_gravity=inp["gravity"],
        profile=profile,
        inflation_growth=None if inp["growth"] is None else LogInterval(*inp["growth"]),
    )


def outputs(inp: dict, logs: dict) -> dict:
    """Every recorded output of one scenario, keyed by name."""
    profile = _profile(inp["profile"])
    scenario = _scenario(inp, profile)
    rho, age, hubble, species = scenario.rho, scenario.age, scenario.hubble, scenario.species
    energy = Quantity(1, logs["E"], ENERGY)
    entropy = Quantity(1, logs["S"], ENTROPY)
    radius = Quantity(1, logs["R"], LENGTH)
    temperature = Quantity(1, logs["T"], TEMPERATURE)
    t0 = {
        "zero": zero(TIME),
        "before": Quantity(1, age.log10 - inp["t0_decades"], TIME),
        "equal": age,
    }[inp["t0"]]
    fleet = FleetSpec.from_counts(*inp["fleet"])
    volume = horizon_volume(age, profile)

    out = _fields("report.", full_report(scenario))
    out.update(_fields("limits.", system_limits(SystemSpec(energy, entropy, radius), profile)))
    out.update(_fields("radiation.", bits_radiation(energy, temperature, species, profile)))
    out.update(_fields("identities.", identities(rho, age, profile)))
    out.update(_fields("inflation.", inflation_bounds(hubble, profile)))
    singles = {
        "radiation.ops": ops_radiation(energy, age, t0, profile),
        "ops_matter": ops_matter(rho, age, profile),
        "ops_critical": ops_critical(age, profile),
        "ops_with_gravity": apply_gravity(ops_matter(rho, age, profile), inp["gravity"]),
        "bits_matter": bits_matter(rho, age, species, profile),
        "bits_holographic": bits_holographic(age, profile),
        "horizon_volume": volume,
        "d_factor": d_factor(species),
        "entropy_in_volume": entropy_in_volume(rho, volume, species, profile),
        "blackbody_temperature": blackbody_temperature(rho, species, profile),
        "entropy_density": entropy_density(rho, temperature, profile),
        "critical_density.exact": critical_density(hubble, "exact", profile),
        "critical_density.approx": critical_density(hubble, "approx", profile),
        "alpha": alpha(profile),
        "beta": beta(age, profile),
        "gamma": gamma(rho, age, profile),
        "planck_time": planck_time(profile),
        "planck_length": planck_length(profile),
        "fine_structure_inverse": fine_structure_inverse(profile),
        "mass_ratio": mass_ratio(profile),
        "fleet_ops": fleet_ops(fleet),
        "fleet_bits": fleet_bits(fleet),
        "historical_ops": historical_ops(fleet),
    }
    if t0.sign > 0:
        singles["radiation_energy_at"] = radiation_energy_at(energy, age, t0)
    out.update({name: _cell(q) for name, q in singles.items()})
    return out


@functools.cache
def _cases() -> list[dict]:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))["scenarios"]


@pytest.mark.parametrize("index", range(N_SCENARIOS))
def test_outputs_match_fixture_bit_for_bit(index):
    case = _cases()[index]
    got = outputs(case["inputs"], case["horizon_log10"])
    assert got.keys() == case["outputs"].keys()
    wrong = {k: (got[k], v) for k, v in case["outputs"].items() if got[k] != v}
    assert not wrong


def test_fixture_spans_the_domain():
    inputs = [case["inputs"] for case in _cases()]
    assert len(inputs) == N_SCENARIOS
    assert {i["profile"] for i in inputs} == {"paper", "codata", "file"}
    assert {i["t0"] for i in inputs} == set(T0_MODES)
    assert {len(i["species"]) for i in inputs} == set(range(1, 7))
    assert {i["gravity"] for i in inputs} == {True, False}
    assert {i["growth"] is None for i in inputs} == {True, False}
    assert {i["hubble"] is None for i in inputs} == {True, False}
    for key in ("rho", "age"):
        logs = [math.log10(i[key]) for i in inputs]
        assert min(logs) < -250 and max(logs) > 250


def _write() -> None:
    rng = random.Random(SEED)
    # every constant moved up to two decades off its codata value
    entries = ",\n".join(
        "  {}: {}".format(json.dumps(cid), json.dumps({
            "value": q.to_value() * 10.0 ** rng.uniform(-2.0, 2.0),
            "dims": dimension_to_mapping(q.dimension),
        }))
        for cid, q in CODATA.constants.items()
    )
    PROFILE_FILE.write_text(f'{{"name": "domain", "constants": {{\n{entries}\n}}}}\n', encoding="utf-8")
    cases = []
    for i, inp in enumerate(draw_scenarios(rng)):
        logs = horizon_logs(inp)
        cases.append({"id": f"s{i:02d}-{inp['profile']}-t0{inp['t0']}", "inputs": inp,
                      "horizon_log10": logs, "outputs": outputs(inp, logs)})
    lines = ",\n".join(json.dumps(case, separators=(",", ":")) for case in cases)
    FIXTURE.write_text(f'{{"seed": {SEED}, "scenarios": [\n{lines}\n]}}\n', encoding="utf-8")


if __name__ == "__main__":
    _write()
