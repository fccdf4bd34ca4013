"""Scenario files: one JSON document describing wall, unit cell, and study.

Validation reports the JSON path of the offending field.  A key that no
part of the parser reads is rejected, so a misspelt field cannot fall back
to its default unnoticed; material entries are checked by the material
database instead.  Units are fixed: lengths in mm (cable length in m),
frequencies in GHz, temperatures in K; suffixes or unit strings are
rejected by the number checks.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .antenna_link import AntennaSpec, CoaxSpec, UnitCell
from .design_sweep import SweepConfig
from .layered_em import Layer, LayerStack
from .materials import MaterialDatabase, _material_from_dict, builtin_database
from .thermal import ThermalBoundary

MATERIALS_ENV_VAR = "SIGNALWALL_MATERIALS"


class ScenarioError(ValueError):
    """Scenario file violates the schema."""


_MISSING = object()


def _number(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{path}: expected a number, got {value!r}")
    return float(value)


def _expect(data, key, kind, path, default=_MISSING):
    if key not in data:
        if default is not _MISSING:
            return default
        raise ScenarioError(f"{path}.{key}: required field is missing")
    value = data[key]
    if kind is float:
        return _number(value, f"{path}.{key}")
    # bool is an int subclass, but true is not a count
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ScenarioError(f"{path}.{key}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _only(data, path, *fields):
    """``data``, after rejecting any key that is not one of ``fields``."""
    for key in data:
        if key not in fields:
            raise ScenarioError(f"{path}.{key}: unknown field")
    return data


def _expect_numbers(data, key, path, default):
    """A JSON list of numbers as a tuple of floats; an entry's error names its index."""
    values = _expect(data, key, list, path, default)
    if values is default:
        return default
    return tuple(_number(v, f"{path}.{key}[{i}]") for i, v in enumerate(values))


@contextmanager
def _reported_at(path):
    """Re-raise a model's own validation error under the JSON path it came from."""
    try:
        yield
    except ScenarioError:
        raise
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


@dataclass
class Scenario:
    name: str
    wall: LayerStack
    cell: UnitCell
    boundary: ThermalBoundary
    sweep: SweepConfig
    db: MaterialDatabase

    def bare_cell(self) -> UnitCell:
        return UnitCell(self.cell.sx_mm, self.cell.sy_mm, self.wall)


def material_database(materials_path: str | None = None) -> MaterialDatabase:
    """Builtin database, optionally replaced via path or environment variable."""
    path = materials_path or os.environ.get(MATERIALS_ENV_VAR)
    if path:
        return builtin_database().merged_with(MaterialDatabase.load(path))
    return builtin_database()


def default_scenario_text() -> str:
    return resources.files("signalwall").joinpath("data/default_scenario.json").read_text(encoding="utf-8")


def load_scenario(path: str | Path | None = None, materials_path: str | None = None) -> Scenario:
    """Parse and validate a scenario JSON file; None loads the builtin default."""
    if path is None:
        data = json.loads(default_scenario_text())
    else:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ScenarioError(f"{path}: not valid JSON ({exc})") from exc
    return scenario_from_dict(data, material_database(materials_path))


def scenario_from_dict(data: dict, db: MaterialDatabase | None = None) -> Scenario:
    if db is None:
        db = builtin_database()
    if not isinstance(data, dict):
        raise ScenarioError("scenario root must be a JSON object")
    _only(data, "$", "name", "description", "materials", "wall", "unit_cell", "thermal", "sweep")

    overrides = data.get("materials", [])
    if overrides:
        if not isinstance(overrides, list):
            raise ScenarioError("materials: expected a list of material entries")
        db = db.merged_with(_material_from_dict(e) for e in overrides)

    wall_data = _only(_expect(data, "wall", dict, "$"), "wall", "layers")
    layers_data = _expect(wall_data, "layers", list, "wall")
    if not layers_data:
        raise ScenarioError("wall.layers: must contain at least one layer")
    layers = []
    for i, entry in enumerate(layers_data):
        path = f"wall.layers[{i}]"
        if not isinstance(entry, dict):
            raise ScenarioError(f"{path}: expected an object")
        _only(entry, path, "material", "thickness_mm")
        name = _expect(entry, "material", str, path)
        if name not in db:
            raise ScenarioError(f"{path}.material: unknown material {name!r}")
        thickness = _expect(entry, "thickness_mm", float, path)
        if thickness <= 0.0:
            raise ScenarioError(f"{path}.thickness_mm: must be > 0")
        layers.append(Layer(db.get(name), thickness))
    wall = LayerStack(layers)

    cell_data = _expect(data, "unit_cell", dict, "$", default=None)
    cell = _parse_cell(cell_data, wall, db) if cell_data is not None else UnitCell(150.0, 150.0, wall)

    thermal_data = _only(
        _expect(data, "thermal", dict, "$", default={}), "thermal", "r_si", "r_se", "t_inside_k", "t_outside_k"
    )
    with _reported_at("thermal"):
        boundary = ThermalBoundary(
            r_si=_expect(thermal_data, "r_si", float, "thermal", default=0.13),
            r_se=_expect(thermal_data, "r_se", float, "thermal", default=0.04),
            t_inside_k=_expect(thermal_data, "t_inside_k", float, "thermal", default=293.0),
            t_outside_k=_expect(thermal_data, "t_outside_k", float, "thermal", default=271.0),
        )

    sweep_data = _only(
        _expect(data, "sweep", dict, "$", default={}), "sweep", "separations_mm", "frequencies_ghz", "u_limit", "combination"
    )
    defaults = SweepConfig()
    with _reported_at("sweep"):
        sweep = SweepConfig(
            separations_mm=_expect_numbers(sweep_data, "separations_mm", "sweep", defaults.separations_mm),
            frequencies_ghz=_expect_numbers(sweep_data, "frequencies_ghz", "sweep", defaults.frequencies_ghz),
            u_limit=_expect(sweep_data, "u_limit", float, "sweep", default=defaults.u_limit),
            combination=_expect(sweep_data, "combination", str, "sweep", default=defaults.combination),
        )

    return Scenario(
        name=data.get("name", "unnamed"),
        wall=wall,
        cell=cell,
        boundary=boundary,
        sweep=sweep,
        db=db,
    )


def _parse_cell(cell_data: dict, wall: LayerStack, db: MaterialDatabase) -> UnitCell:
    _only(cell_data, "unit_cell", "sx_mm", "sy_mm", "antenna", "coax", "conductor_material", "dielectric_material", "foam", "laminate")
    sx = _expect(cell_data, "sx_mm", float, "unit_cell")
    sy = _expect(cell_data, "sy_mm", float, "unit_cell")

    antenna = None
    if "antenna" in cell_data:
        a = _only(
            _expect(cell_data, "antenna", dict, "unit_cell"), "unit_cell.antenna",
            "gain_dbi", "cutoff_ghz", "rolloff_db_per_octave", "pattern_exponent", "gain_table",
        )
        table = []
        for i, entry in enumerate(_expect(a, "gain_table", list, "unit_cell.antenna", default=[])):
            entry_path = f"unit_cell.antenna.gain_table[{i}]"
            if not isinstance(entry, list) or len(entry) != 2:
                raise ScenarioError(f"{entry_path}: expected a [GHz, dBi] pair, got {entry!r}")
            table.append(tuple(_number(v, f"{entry_path}[{j}]") for j, v in enumerate(entry)))
        with _reported_at("unit_cell.antenna"):
            antenna = AntennaSpec(
                gain_dbi=_expect(a, "gain_dbi", float, "unit_cell.antenna", default=4.6),
                cutoff_ghz=_expect(a, "cutoff_ghz", float, "unit_cell.antenna", default=2.7),
                rolloff_db_per_octave=_expect(a, "rolloff_db_per_octave", float, "unit_cell.antenna", default=24.0),
                pattern_exponent=_expect(a, "pattern_exponent", float, "unit_cell.antenna", default=1.0),
                gain_table=tuple(table) if table else None,
            )

    coax = None
    if "coax" in cell_data:
        c = _only(
            _expect(cell_data, "coax", dict, "unit_cell"), "unit_cell.coax", "count", "inner_radius_mm",
            "outer_radius_mm", "shield_thickness_mm", "eps_r", "tan_delta", "resistivity_ohm_m", "length_m",
        )
        count = _expect(c, "count", int, "unit_cell.coax", default=2)
        if count < 1:
            raise ScenarioError(f"unit_cell.coax.count: must be >= 1, got {count}")
        with _reported_at("unit_cell.coax"):
            coax = CoaxSpec(
                inner_radius_mm=_expect(c, "inner_radius_mm", float, "unit_cell.coax", default=0.1435),
                outer_radius_mm=_expect(c, "outer_radius_mm", float, "unit_cell.coax", default=0.88),
                shield_thickness_mm=_expect(c, "shield_thickness_mm", float, "unit_cell.coax", default=0.2),
                eps_r=_expect(c, "eps_r", float, "unit_cell.coax", default=1.75),
                tan_delta=_expect(c, "tan_delta", float, "unit_cell.coax", default=0.004),
                resistivity_ohm_m=_expect(c, "resistivity_ohm_m", float, "unit_cell.coax", default=6.9e-7),
                length_m=_expect(c, "length_m", float, "unit_cell.coax", default=wall.depth_mm * 1e-3),
                count=count,
            )

    def feature_material(key):
        if key not in cell_data:
            return None, None, None
        f = _only(_expect(cell_data, key, dict, "unit_cell"), f"unit_cell.{key}", "material", "size_mm", "thickness_mm")
        name = _expect(f, "material", str, f"unit_cell.{key}")
        if name not in db:
            raise ScenarioError(f"unit_cell.{key}.material: unknown material {name!r}")
        return db.get(name), _expect(f, "size_mm", float, f"unit_cell.{key}"), _expect(f, "thickness_mm", float, f"unit_cell.{key}")

    foam, foam_size, foam_thickness = feature_material("foam")
    laminate, laminate_size, laminate_thickness = feature_material("laminate")

    conductor = dielectric = None
    if coax is not None:
        conductor_name = _expect(cell_data, "conductor_material", str, "unit_cell", default="stainless_steel")
        dielectric_name = _expect(cell_data, "dielectric_material", str, "unit_cell", default="ptfe_low_density")
        for label, name in (("conductor_material", conductor_name), ("dielectric_material", dielectric_name)):
            if name not in db:
                raise ScenarioError(f"unit_cell.{label}: unknown material {name!r}")
        conductor = db.get(conductor_name)
        dielectric = db.get(dielectric_name)

    with _reported_at("unit_cell"):
        return UnitCell(
            sx_mm=sx,
            sy_mm=sy,
            wall=wall,
            antenna=antenna,
            coax=coax,
            conductor=conductor,
            dielectric=dielectric,
            foam=foam,
            foam_size_mm=foam_size if foam_size is not None else 50.0,
            foam_thickness_mm=foam_thickness if foam_thickness is not None else 10.0,
            laminate=laminate,
            laminate_size_mm=laminate_size if laminate_size is not None else 40.0,
            laminate_thickness_mm=laminate_thickness if laminate_thickness is not None else 0.5,
        )
