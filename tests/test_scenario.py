import dataclasses
import json
import re

import numpy as np
import pytest

from signalwall.antenna_link import AntennaSpec, CoaxSpec, aperture_transmission, coax_attenuation
from signalwall.design_sweep import SweepConfig
from signalwall.scenario import (
    ScenarioError,
    builtin_database,
    default_scenario_text,
    load_scenario,
    material_database,
    scenario_from_dict,
)
from signalwall.thermal import ThermalBoundary


def test_default_scenario_loads():
    scenario = load_scenario()
    assert scenario.wall.depth_mm == pytest.approx(440.0)
    assert scenario.cell.has_antenna_system
    assert scenario.cell.sx_mm == 150.0
    assert scenario.boundary.r_si == 0.13
    assert scenario.sweep.u_limit == 0.17
    assert len(scenario.sweep.separations_mm) == 14
    assert scenario.cell.coax.count == 2 and type(scenario.cell.coax.count) is int


def test_error_messages_carry_json_path():
    with pytest.raises(ScenarioError, match=r"wall\.layers\[1\]\.thickness_mm"):
        scenario_from_dict(
            {
                "wall": {
                    "layers": [
                        {"material": "concrete", "thickness_mm": 70.0},
                        {"material": "rock_wool", "thickness_mm": -3.0},
                    ]
                }
            }
        )
    with pytest.raises(ScenarioError, match=r"wall\.layers\[0\]\.material"):
        scenario_from_dict({"wall": {"layers": [{"material": "kryptonite", "thickness_mm": 10.0}]}})
    with pytest.raises(ScenarioError, match=r"unit_cell\.sx_mm"):
        scenario_from_dict(
            {
                "wall": {"layers": [{"material": "concrete", "thickness_mm": 100.0}]},
                "unit_cell": {"sy_mm": 100.0},
            }
        )


def test_unit_suffixes_rejected():
    with pytest.raises(ScenarioError, match="expected a number"):
        scenario_from_dict({"wall": {"layers": [{"material": "concrete", "thickness_mm": "70mm"}]}})


def test_material_overrides_inline():
    scenario = scenario_from_dict(
        {
            "materials": [{"name": "concrete", "thermal_conductivity": 2.0, "permittivity": {"a": 6.0}}],
            "wall": {"layers": [{"material": "concrete", "thickness_mm": 100.0}]},
        }
    )
    assert scenario.wall.layers[0].material.thermal_conductivity == 2.0


def test_default_scenario_cable_materials_come_from_the_database():
    scenario = load_scenario()
    assert scenario.cell.coax.conductor is builtin_database().get("stainless_steel")
    assert scenario.cell.coax.dielectric is builtin_database().get("ptfe_low_density")


def test_coax_length_defaults_to_wall_depth(tmp_path):
    data = {
        "wall": {"layers": [{"material": "concrete", "thickness_mm": 100.0}]},
        "unit_cell": {
            "sx_mm": 150.0,
            "sy_mm": 150.0,
            "antenna": {},
            "coax": {},
        },
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    cell = load_scenario(path).cell
    deep = dataclasses.replace(cell, wall=load_scenario().wall)  # the default 440 mm wall
    f = np.array([3.5, 8.0])
    # same antenna and cell, so only the cable loss over 0.1 m against 0.44 m differs
    excess_db = coax_attenuation(cell.coax, f, 0.44).total_db - coax_attenuation(cell.coax, f, 0.1).total_db
    ratio = aperture_transmission(cell, f) / aperture_transmission(deep, f)
    assert ratio == pytest.approx(10.0 ** (excess_db / 20.0), rel=1e-12)


def test_absent_keys_take_the_dataclass_defaults():
    db = builtin_database()
    scenario = scenario_from_dict(
        {
            "wall": {"layers": [{"material": "concrete", "thickness_mm": 100.0}]},
            "unit_cell": {"sx_mm": 150.0, "sy_mm": 150.0, "antenna": {}, "coax": {}},
            "thermal": {},
            "sweep": {},
        }
    )
    assert scenario.cell.antenna == AntennaSpec()
    assert scenario.cell.coax == CoaxSpec(db.get("stainless_steel"), db.get("ptfe_low_density"))
    assert scenario.cell.foam is None and scenario.cell.laminate is None
    assert scenario.boundary == ThermalBoundary()
    assert scenario.sweep == SweepConfig()


def test_invalid_json_reported(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioError, match="not valid JSON"):
        load_scenario(path)


def test_material_database_merges_a_file(tmp_path):
    extra = tmp_path / "extra.json"
    extra.write_text(json.dumps({"materials": [{"name": "aerogel", "thermal_conductivity": 0.015}]}))
    db = material_database(str(extra))
    assert db.get("aerogel").thermal_conductivity == 0.015
    assert "concrete" in db  # builtin entries survive the merge


def test_bare_cell_strips_features():
    scenario = load_scenario()
    bare = scenario.bare_cell()
    assert not bare.has_antenna_system
    assert bare.sx_mm == scenario.cell.sx_mm


def _scenario_with(section, key, value):
    data = json.loads(default_scenario_text())
    target = data
    for part in section.split("."):
        target = target[int(part) if isinstance(target, list) else part]
    target[key] = value
    return data


@pytest.mark.parametrize(
    "section, key, value, path",
    [
        ("thermal", "r_si", "NaN", "thermal.r_si"),
        ("unit_cell", "sx_mm", "NaN", "unit_cell.sx_mm"),
        ("unit_cell.foam", "size_mm", "NaN", "unit_cell.foam.size_mm"),
        ("sweep", "u_limit", "Infinity", "sweep.u_limit"),
        ("wall.layers.0", "thickness_mm", "NaN", "wall.layers[0].thickness_mm"),
    ],
)
def test_numbers_must_be_finite(section, key, value, path):
    # json reads the non-standard literals NaN and Infinity as floats
    data = _scenario_with(section, key, json.loads(value))
    with pytest.raises(ScenarioError, match=rf"^{re.escape(path)}: expected a number, got (nan|inf)$"):
        scenario_from_dict(data)


@pytest.mark.parametrize("count", [2.7, 2.0, True, "2"])
def test_coax_count_must_be_a_json_integer(count):
    with pytest.raises(ScenarioError, match=r"^unit_cell\.coax\.count: expected int"):
        scenario_from_dict(_scenario_with("unit_cell.coax", "count", count))


def test_coax_count_must_be_positive():
    with pytest.raises(ScenarioError, match=r"^unit_cell\.coax\.count: must be >= 1"):
        scenario_from_dict(_scenario_with("unit_cell.coax", "count", 0))


@pytest.mark.parametrize("entry", ["80", True, None])
def test_separations_entries_must_be_numbers(entry):
    with pytest.raises(ScenarioError, match=r"^sweep\.separations_mm\[1\]: expected a number"):
        scenario_from_dict(_scenario_with("sweep", "separations_mm", [70, entry, 90]))
    with pytest.raises(ScenarioError, match=r"^sweep\.separations_mm: expected list"):
        scenario_from_dict(_scenario_with("sweep", "separations_mm", "70,80"))


@pytest.mark.parametrize("entry", ["3.5", False])
def test_frequency_entries_must_be_numbers(entry):
    with pytest.raises(ScenarioError, match=r"^sweep\.frequencies_ghz\[2\]: expected a number"):
        scenario_from_dict(_scenario_with("sweep", "frequencies_ghz", [1.5, 3.5, entry]))


@pytest.mark.parametrize("key, values", [("separations_mm", [70, 80, 70]), ("frequencies_ghz", [3.5, 3.5])])
def test_sweep_values_must_not_repeat(key, values):
    with pytest.raises(ScenarioError, match=r"^sweep: \w+ must not repeat"):
        scenario_from_dict(_scenario_with("sweep", key, values))


def test_gain_table_entries_must_be_number_pairs():
    table = [[1.0, -10.0], [2.0, "0.5"]]
    with pytest.raises(ScenarioError, match=r"^unit_cell\.antenna\.gain_table\[1\]\[1\]: expected a number"):
        scenario_from_dict(_scenario_with("unit_cell.antenna", "gain_table", table))
    with pytest.raises(ScenarioError, match=r"^unit_cell\.antenna\.gain_table\[0\]: expected a \[GHz, dBi\] pair"):
        scenario_from_dict(_scenario_with("unit_cell.antenna", "gain_table", [[1.0, -10.0, 3.0]]))
    # the default antenna's plateau fields would be ignored beside a table, so the table stands alone
    parsed = scenario_from_dict(_scenario_with("unit_cell", "antenna", {"gain_table": [[1.0, -10.0], [4, 4.5]]}))
    assert parsed.cell.antenna.gain_table == ((1.0, -10.0), (4.0, 4.5))


@pytest.mark.parametrize(
    "section, key, value",
    [("thermal", "r_sl", 0.5), ("unit_cell.coax", "inner_radius", 0.3), ("sweep", "u_limt", 0.2)],
)
def test_misspelt_keys_are_rejected(section, key, value):
    # each of these loaded and ran on the default (r_si 0.13, 0.1435 mm, limit 0.17)
    with pytest.raises(ScenarioError, match=f"^{re.escape(section)}\\.{key}: unknown field$"):
        scenario_from_dict(_scenario_with(section, key, value))


@pytest.mark.parametrize(
    "section, path",
    [
        ("wall", "wall"),
        ("wall.layers.1", "wall.layers[1]"),
        ("unit_cell", "unit_cell"),
        ("unit_cell.antenna", "unit_cell.antenna"),
        ("unit_cell.foam", "unit_cell.foam"),
        ("unit_cell.laminate", "unit_cell.laminate"),
    ],
)
def test_every_section_rejects_unknown_keys(section, path):
    with pytest.raises(ScenarioError, match=f"^{re.escape(path)}\\.colour: unknown field$"):
        scenario_from_dict(_scenario_with(section, "colour", "grey"))


def test_root_keeps_name_and_description_only():
    data = json.loads(default_scenario_text())
    assert {"name", "description"} <= set(data)
    with pytest.raises(ScenarioError, match=r"^\$\.colour: unknown field$"):
        scenario_from_dict({**data, "colour": "grey"})


def test_default_scenario_with_changed_values_loads(tmp_path):
    # name, description and every section of the builtin file are read; a copy
    # with other values, as a benchmark or user writes it, loads unchanged
    data = json.loads(default_scenario_text())
    data["unit_cell"]["sx_mm"] = data["unit_cell"]["sy_mm"] = 120.0
    data["sweep"]["separations_mm"] = [70, 80, 120]
    data["sweep"]["frequencies_ghz"] = [3.5, 8.0]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data, indent=2) + "\n")
    scenario = load_scenario(path)
    assert scenario.name == data["name"]
    assert scenario.cell.sx_mm == 120.0 and scenario.sweep.separations_mm == (70.0, 80.0, 120.0)


@pytest.mark.parametrize(
    "key, name, message",
    [
        ("conductor_material", "ptfe_low_density", "conductor material 'ptfe_low_density' has no resistivity_ohm_m"),
        ("dielectric_material", "stainless_steel", "dielectric material 'stainless_steel' has no permittivity"),
        ("conductor_material", "unobtainium", "unknown material 'unobtainium'"),
    ],
)
def test_cable_materials_are_checked_at_their_path(key, name, message):
    with pytest.raises(ScenarioError, match=f"^unit_cell\\.coax\\.{key}: {re.escape(message)}$"):
        scenario_from_dict(_scenario_with("unit_cell.coax", key, name))


def test_cable_material_overrides_reach_the_cable():
    data = json.loads(default_scenario_text())
    data["materials"] = [
        {"name": "ptfe_low_density", "thermal_conductivity": 0.24, "permittivity": {"eps_real": 2.1, "tan_delta": 0.0002}}
    ]
    assert scenario_from_dict(data).cell.coax.dielectric.permittivity.eps_real == 2.1


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("unit_cell.coax", "eps_r", 1.75),
        ("unit_cell.coax", "tan_delta", 0.004),
        ("unit_cell.coax", "resistivity_ohm_m", 6.9e-7),
        ("unit_cell.coax", "length_m", 0.44),
        ("unit_cell", "conductor_material", "stainless_steel"),
        ("unit_cell", "dielectric_material", "ptfe_low_density"),
    ],
)
def test_old_cable_keys_are_unknown(section, key, value):
    with pytest.raises(ScenarioError, match=f"^{re.escape(section)}\\.{key}: unknown field$"):
        scenario_from_dict(_scenario_with(section, key, value))


def test_sweep_combination_is_an_unknown_field():
    # the sweep always combines the paths incoherently; transmission --combine keeps the other modes
    data = json.loads(default_scenario_text())
    assert set(data["sweep"]) == {"separations_mm", "frequencies_ghz", "u_limit"}
    data["sweep"]["combination"] = "incoherent"
    with pytest.raises(ScenarioError, match=r"^sweep\.combination: unknown field$"):
        scenario_from_dict(data)


@pytest.mark.parametrize(
    "drop, message",
    [
        (("coax",), "antenna and coax need each other"),
        (("antenna",), "antenna and coax need each other"),
        (("antenna", "coax", "laminate"), "foam and laminate need an antenna system"),
        (("antenna", "coax", "foam"), "foam and laminate need an antenna system"),
    ],
)
def test_unit_cell_sections_that_would_be_ignored_are_rejected(drop, message):
    data = json.loads(default_scenario_text())
    for key in drop:
        del data["unit_cell"][key]
    with pytest.raises(ScenarioError, match=f"^unit_cell: {message}"):
        scenario_from_dict(data)


def _with_material(entry):
    # the layer is named "b": were aliases "abc" split into a, b and c, this layer would load the entry
    return {"materials": [entry], "wall": {"layers": [{"material": "b", "thickness_mm": 70.0}]}}


def _concrete(**fields):
    return {"name": "concrete", "thermal_conductivity": 1.3, **fields}


@pytest.mark.parametrize(
    "entry, message",
    [
        (_concrete(permittivity={}), r"\.permittivity\.eps_real: required field is missing"),
        (_concrete(permittivity=[1, 2]), r"\.permittivity: expected dict, got list"),
        (_concrete(permitivity={"a": 5.0}), r"\.permitivity: unknown field"),
        (_concrete(aliases="abc"), r"\.aliases: expected list, got str"),
        (_concrete(permittivity={"a": 1.48, "eps_real": 9}), r"\.permittivity\.eps_real: unknown field"),
        (
            _concrete(permittivity={"eps_real": 2.2, "tan_delta": 9e-4, "eps_imag": 0.5}),
            r"\.permittivity\.eps_imag: unknown field",
        ),
        ("concrete", r": expected dict, got str"),
        (_concrete(aliases=["b", 7]), r"\.aliases\[1\]: expected str, got int"),
        (_concrete(permittivity={"a": -1.0}), r"\.permittivity: coefficient a must be > 0, got -1\.0"),
        (_concrete(thermal_conductivity=-1.3), r": thermal_conductivity must be > 0, got -1\.3"),
    ],
    ids=[
        "empty_permittivity", "list_permittivity", "misspelt_permittivity", "string_aliases", "power_law_and_eps_real",
        "tan_delta_and_eps_imag", "non_object", "non_string_alias", "model_error", "model_error_in_entry",
    ],
)
def test_material_entries_are_checked_at_their_path(entry, message):
    with pytest.raises(ScenarioError, match=rf"^materials\[0\]{message}$"):
        scenario_from_dict(_with_material(entry))


@pytest.mark.parametrize(
    "data, path",
    [
        (_scenario_with("thermal", "r_si", 10**400), "thermal.r_si"),
        (_with_material(_concrete(thermal_conductivity=10**400)), "materials[0].thermal_conductivity"),
    ],
)
def test_integers_beyond_the_float_range_are_rejected_at_their_path(data, path):
    with pytest.raises(ScenarioError, match=rf"^{re.escape(path)}: expected a number, got an integer beyond"):
        scenario_from_dict(data)
