import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signalwall.materials import (
    FixedPermittivity,
    Material,
    MaterialError,
    PermittivityModel,
)
from signalwall.scenario import builtin_database

# hand oracle: ITU closed form written out both ways
EPS0 = 8.8541878128e-12


def eps_imag_direct(c, d, f_ghz):
    sigma = c * f_ghz**d
    return sigma / (EPS0 * 2.0 * math.pi * f_ghz * 1e9)


def eps_imag_shortcut(c, d, f_ghz):
    # sigma/(eps0*omega) collapses to 17.98 * sigma / f_GHz
    return 17.98 * c * f_ghz**d / f_ghz


def test_concrete_at_3p5_ghz_matches_hand_evaluation():
    eps = Material("concrete", 1.3, PermittivityModel(5.24, 0.0, 0.0462, 0.7822)).complex_permittivity(3.5)
    assert eps.real == pytest.approx(5.24)
    assert -eps.imag == pytest.approx(0.6321, abs=5e-4)
    assert -eps.imag == pytest.approx(eps_imag_direct(0.0462, 0.7822, 3.5), rel=1e-9)


def test_rock_wool_at_8_ghz_matches_hand_evaluation():
    eps = Material("rock_wool", 0.035, PermittivityModel(1.48, 0.0, 1.1e-3, 1.075)).complex_permittivity(8.0)
    assert eps.real == pytest.approx(1.48)
    assert -eps.imag == pytest.approx(0.0231, abs=2e-4)


def test_two_loss_forms_agree_to_three_significant_figures():
    for material in builtin_database():
        if not isinstance(material.permittivity, PermittivityModel):
            continue
        m = material.permittivity
        if m.c == 0.0:
            continue
        for f in (1.0, 3.5, 8.0, 40.0):
            direct = eps_imag_direct(m.c, m.d, f)
            shortcut = eps_imag_shortcut(m.c, m.d, f)
            assert shortcut == pytest.approx(direct, rel=5e-4)
            assert -material.complex_permittivity(f).imag == pytest.approx(direct, rel=1e-9)


def test_b_zero_makes_eps_real_frequency_independent():
    eps = Material("concrete", 1.3, PermittivityModel(5.24, 0.0, 0.0462, 0.7822)).complex_permittivity([1.3, 77.0])
    assert eps[0].real == eps[1].real


def test_eps_imag_monotonic_by_exponent():
    freqs = np.linspace(1.0, 100.0, 100)
    for material in builtin_database():
        if not isinstance(material.permittivity, PermittivityModel):
            continue
        m = material.permittivity
        if m.c == 0.0:
            continue
        values = -material.complex_permittivity(freqs).imag
        diffs = np.diff(values)
        if m.d >= 1.0:
            assert np.all(diffs >= -1e-15), material.name
        else:
            assert np.all(diffs <= 1e-15), material.name


@given(
    c=st.floats(min_value=1e-5, max_value=2.0),
    d=st.floats(min_value=0.0, max_value=2.0),
    f=st.floats(min_value=1.0, max_value=100.0),
)
@settings(max_examples=50, deadline=None)
def test_loss_is_nonnegative_and_finite(c, d, f):
    eps = Material("x", 1.0, PermittivityModel(3.0, 0.0, c, d)).complex_permittivity(f)
    assert eps.imag <= 0.0
    assert math.isfinite(eps.imag)


def test_database_contents(db):
    assert db.get("rockwool").thermal_conductivity == 0.035
    assert db.get("stainless_steel").thermal_conductivity == 15.0
    assert db.get("copper").thermal_conductivity == 400.0
    assert db.get("ptfe_low_density").thermal_conductivity == 0.24
    assert db.get("styrofoam").thermal_conductivity == 0.05
    assert db.get("laminate").thermal_conductivity == 0.2
    moist = db.get("moist_cast_concrete").permittivity
    assert (moist.a, moist.b, moist.c, moist.d) == (5.84, 0.0, 0.205, 0.06)
    ptfe = db.get("teflon").permittivity
    assert ptfe.eps_imag == pytest.approx(1.75 * 0.004)
    foam = db.get("rohacell")
    assert foam.permittivity.eps_real == 1.0


def test_unknown_material_raises(db):
    with pytest.raises(MaterialError, match="unknown material 'unobtainium'"):
        db.get("unobtainium")


def test_lookup_normalization(db):
    assert db.get("Rock Wool") is db.get("rock_wool")
    assert db.get("stainless-steel") is db.get("stainless_steel")


def test_database_loads_json_numbers_bit_for_bit(db):
    from importlib import resources

    entries = json.loads(resources.files("signalwall").joinpath("data/materials.json").read_text())["materials"]
    assert [m.name for m in db] == [entry["name"] for entry in entries]
    for material, entry in zip(db, entries):
        assert material.thermal_conductivity == entry["thermal_conductivity"]
        perm = entry.get("permittivity")
        if perm is None:
            assert material.permittivity is None
        elif "a" in perm:
            assert material.permittivity == PermittivityModel(perm["a"], perm["b"], perm["c"], perm["d"])
        elif "tan_delta" in perm:
            assert material.permittivity == FixedPermittivity(perm["eps_real"], perm["eps_real"] * perm["tan_delta"])
        else:
            assert material.permittivity == FixedPermittivity(perm["eps_real"], perm.get("eps_imag", 0.0))


def test_merge_overrides_by_name(db):
    override = Material("concrete", 1.7, PermittivityModel(5.0))
    merged = db.merged_with([override])
    assert merged.get("concrete").thermal_conductivity == 1.7
    assert db.get("concrete").thermal_conductivity == 1.3
    assert len(list(merged)) == len(list(db))


def test_override_replaces_a_material_under_all_its_names(db):
    override = Material("rock_wool", 0.040, PermittivityModel(1.48))
    merged = db.merged_with([override])
    for name in ("rock_wool", "rockwool", "mineral_wool"):
        assert merged.get(name) is override
    assert db.get("mineral_wool").thermal_conductivity == 0.035


def test_an_alias_cannot_take_over_another_entry(db):
    taker = Material("x", 99.0, PermittivityModel(2.0), aliases=("y", "Concrete"))
    with pytest.raises(MaterialError, match=r"^aliases\[1\]: 'Concrete' already names material 'concrete'$"):
        db.merged_with([taker])
    with pytest.raises(MaterialError, match=r"^aliases\[0\]: 'mineral_wool' already names material 'rock_wool'$"):
        db.merged_with([Material("concrete", 1.7, aliases=("mineral_wool",))])
    # the names of the entry replaced by name stay its replacement's
    override = Material("rock_wool", 0.040, aliases=("mineral_wool",))
    assert db.merged_with([override]).get("rockwool") is override


def test_names_a_replacement_took_over_survive_a_later_merge(db):
    override = Material("rock_wool", 0.040)
    merged = db.merged_with([override]).merged_with([Material("hempcrete", 0.07)])
    assert merged.get("mineral_wool") is override


def test_invalid_models_rejected():
    with pytest.raises(MaterialError):
        PermittivityModel(0.0)
    with pytest.raises(MaterialError):
        PermittivityModel(5.0, 0.0, -1.0, 0.0)
    with pytest.raises(MaterialError):
        PermittivityModel(float("nan"))
    with pytest.raises(MaterialError):
        Material("x", 0.0)
    with pytest.raises(MaterialError):
        Material("x", 1.0, PermittivityModel(5.0)).complex_permittivity(-1.0)
    with pytest.raises(MaterialError):
        Material("x", 1.0, FixedPermittivity(4.0)).complex_permittivity([1.0, 0.0])


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"resistivity_ohm_m": float("nan")}, "resistivity_ohm_m must be finite and > 0, got nan"),
        ({"resistivity_ohm_m": float("inf")}, "resistivity_ohm_m must be finite and > 0, got inf"),
        ({"resistivity_ohm_m": 0.0}, "resistivity_ohm_m must be finite and > 0, got 0.0"),
        ({"aliases": "abc"}, "aliases must be a tuple of non-empty names"),
        ({"aliases": ["abc"]}, "aliases must be a tuple of non-empty names"),
        ({"aliases": ("abc", "")}, "aliases must be a tuple of non-empty names"),
        ({"aliases": ("abc", 3)}, "aliases must be a tuple of non-empty names"),
    ],
)
def test_material_rejects_bad_resistivity_and_aliases(fields, message):
    with pytest.raises(MaterialError, match=message):
        Material("x", 1.0, **fields)


def test_material_without_em_model_rejects_evaluation(db):
    with pytest.raises(MaterialError):
        db.get("stainless_steel").complex_permittivity(3.5)


@pytest.mark.parametrize("name", ["concrete", "teflon"])
def test_array_and_float_calls_agree_exactly(db, name):
    # a power-law material and a fixed-permittivity one
    material = db.get(name)
    freqs = np.array([1.0, 1.3, 3.5, 8.0, 77.0])
    vec = material.complex_permittivity(freqs)
    assert vec.shape == freqs.shape and vec.dtype == complex
    for f, value in zip(freqs, vec):
        single = material.complex_permittivity(float(f))
        assert np.shape(single) == ()
        assert single == value
        assert single.imag <= 0.0
