"""Scenario files: one JSON document describing wall, unit cell, and study.

Validation reports the JSON path of the offending field.  A key that no
part of the parser reads is rejected, so a misspelt field cannot fall back
to its default unnoticed; material entries are checked by the material
database instead.  The cable takes its conductor and dielectric from that
database and its length from the wall depth.  Units are fixed: lengths in
mm, frequencies in GHz, temperatures in K; suffixes or unit strings are
rejected by the number checks.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .antenna_link import AntennaSpec, CoaxSpec, UnitCell, _require_cable_data
from .design_sweep import SweepConfig
from .layered_em import Layer, LayerStack
from .materials import MaterialDatabase, _material_from_dict, builtin_database
from .thermal import ThermalBoundary

MATERIALS_ENV_VAR = "SIGNALWALL_MATERIALS"


class ScenarioError(ValueError):
    """Scenario file violates the schema."""


_MISSING = object()


def _number(value, path):
    # json reads NaN and Infinity, which no field of a scenario can hold
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
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


def _section(data, path, **kinds):
    """Type-checked values of the keys of ``data`` that are present.

    A key not in ``kinds`` is an error.  Absent keys are left out, so each
    default lives in its dataclass alone.
    """
    _only(data, path, *kinds)
    return {key: _expect(data, key, kind, path) for key, kind in kinds.items() if key in data}


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

    with _reported_at("thermal"):
        boundary = ThermalBoundary(
            **_section(
                _expect(data, "thermal", dict, "$", default={}), "thermal",
                r_si=float, r_se=float, t_inside_k=float, t_outside_k=float,
            )
        )

    sweep_fields = _section(
        _expect(data, "sweep", dict, "$", default={}), "sweep",
        separations_mm=list, frequencies_ghz=list, u_limit=float, combination=str,
    )
    for key in ("separations_mm", "frequencies_ghz"):
        if key in sweep_fields:
            sweep_fields[key] = tuple(_number(v, f"sweep.{key}[{i}]") for i, v in enumerate(sweep_fields[key]))
    with _reported_at("sweep"):
        sweep = SweepConfig(**sweep_fields)

    return Scenario(
        name=data.get("name", "unnamed"),
        wall=wall,
        cell=cell,
        boundary=boundary,
        sweep=sweep,
        db=db,
    )


def _parse_cell(cell_data: dict, wall: LayerStack, db: MaterialDatabase) -> UnitCell:
    _only(cell_data, "unit_cell", "sx_mm", "sy_mm", "antenna", "coax", "foam", "laminate")
    sx = _expect(cell_data, "sx_mm", float, "unit_cell")
    sy = _expect(cell_data, "sy_mm", float, "unit_cell")

    antenna = None
    if "antenna" in cell_data:
        a = _section(
            _expect(cell_data, "antenna", dict, "unit_cell"), "unit_cell.antenna",
            gain_dbi=float, cutoff_ghz=float, rolloff_db_per_octave=float, pattern_exponent=float, gain_table=list,
        )
        if "gain_table" in a:
            table = []
            for i, entry in enumerate(a["gain_table"]):
                entry_path = f"unit_cell.antenna.gain_table[{i}]"
                if not isinstance(entry, list) or len(entry) != 2:
                    raise ScenarioError(f"{entry_path}: expected a [GHz, dBi] pair, got {entry!r}")
                table.append(tuple(_number(v, f"{entry_path}[{j}]") for j, v in enumerate(entry)))
            a["gain_table"] = tuple(table) or None
        with _reported_at("unit_cell.antenna"):
            antenna = AntennaSpec(**a)

    coax = None
    if "coax" in cell_data:
        c = _section(
            _expect(cell_data, "coax", dict, "unit_cell"), "unit_cell.coax", count=int, inner_radius_mm=float,
            outer_radius_mm=float, shield_thickness_mm=float, conductor_material=str, dielectric_material=str,
        )
        if "count" in c and c["count"] < 1:
            raise ScenarioError(f"unit_cell.coax.count: must be >= 1, got {c['count']}")
        for role, default in (("conductor", "stainless_steel"), ("dielectric", "ptfe_low_density")):
            key = f"{role}_material"
            name = c.pop(key, default)
            if name not in db:
                raise ScenarioError(f"unit_cell.coax.{key}: unknown material {name!r}")
            with _reported_at(f"unit_cell.coax.{key}"):
                c[role] = _require_cable_data(role, db.get(name))
        with _reported_at("unit_cell.coax"):
            coax = CoaxSpec(**c)

    features = {}
    for key in ("foam", "laminate"):
        if key not in cell_data:
            continue
        path = f"unit_cell.{key}"
        f = _only(_expect(cell_data, key, dict, "unit_cell"), path, "material", "size_mm", "thickness_mm")
        name = _expect(f, "material", str, path)
        if name not in db:
            raise ScenarioError(f"{path}.material: unknown material {name!r}")
        features[key] = db.get(name)
        features[f"{key}_size_mm"] = _expect(f, "size_mm", float, path)
        features[f"{key}_thickness_mm"] = _expect(f, "thickness_mm", float, path)

    with _reported_at("unit_cell"):
        return UnitCell(sx_mm=sx, sy_mm=sy, wall=wall, antenna=antenna, coax=coax, **features)
