"""Scenario files: one JSON document describing wall, unit cell, and study.

This module reads every JSON input of the package: scenario files, the
material file named by ``--materials``, and the shipped data files, the
builtin material database included.  Each JSON object goes through one
checker, which reports the JSON path of the offending field.  A key that no
part of the parser reads is rejected, so a misspelt field cannot fall back
to its default unnoticed; material entries and their permittivity are read
the same way.  The cable takes its conductor and dielectric from
the material database and its length from the wall depth.  Units are fixed:
lengths in mm, frequencies in GHz, temperatures in K; suffixes or unit
strings are rejected by the number checks.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .antenna_link import AntennaSpec, CoaxSpec, Pad, UnitCell, _require_cable_data
from .design_sweep import SweepConfig
from .layered_em import Layer, LayerStack
from .materials import FixedPermittivity, Material, MaterialDatabase, MaterialError, PermittivityModel
from .thermal import ThermalBoundary


class ScenarioError(ValueError):
    """Scenario file violates the schema."""


def _number(value, path):
    # json reads NaN, Infinity and integers beyond the float range, which no field of a scenario can hold
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{path}: expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:
        shown = value if isinstance(value, float) else "an integer beyond the float range"
        raise ScenarioError(f"{path}: expected a number, got {shown}")
    return float(value)


def _typed(value, kind, path):
    if kind is float:
        return _number(value, path)
    # bool is an int subclass, but true is not a count
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ScenarioError(f"{path}: expected {kind.__name__}, got {type(value).__name__}")
    if kind is int:
        _number(value, path)  # a count meets floats in the models, so it must fit their range too
    return value


def _items(values, kind, path):
    """The entries of a JSON list, each checked as ``kind`` at its index."""
    return tuple(_typed(v, kind, f"{path}[{i}]") for i, v in enumerate(values))


def _section(data, path, required=(), **kinds):
    """Type-checked values of the keys of the JSON object ``data`` that are present.

    A key not in ``kinds`` is an error, and so is a missing key named in
    ``required``.  Other absent keys are left out, so each default lives in
    its dataclass alone.
    """
    _typed(data, dict, path)
    for key in data:
        if key not in kinds:
            raise ScenarioError(f"{path}.{key}: unknown field")
    for key in required:
        if key not in data:
            raise ScenarioError(f"{path}.{key}: required field is missing")
    return {key: _typed(data[key], kind, f"{path}.{key}") for key, kind in kinds.items() if key in data}


@contextmanager
def _reported_at(path):
    """Re-raise a model's own validation error under the JSON path it came from."""
    try:
        yield
    except ScenarioError:
        raise
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _permittivity(data, path):
    """A power law (``a``, optional ``b``/``c``/``d``), eps' with a loss tangent, or eps' - j eps''."""
    with _reported_at(path):
        if "a" in data:
            return PermittivityModel(**_section(data, path, ("a",), a=float, b=float, c=float, d=float))
        if "tan_delta" in data:
            fields = _section(data, path, ("eps_real", "tan_delta"), eps_real=float, tan_delta=float)
            return FixedPermittivity.from_tan_delta(**fields)
        return FixedPermittivity(**_section(data, path, ("eps_real",), eps_real=float, eps_imag=float))


def _material(entry, path) -> Material:
    fields = _section(
        entry, path, ("name", "thermal_conductivity"),
        name=str, thermal_conductivity=float, permittivity=dict, resistivity_ohm_m=float, aliases=list, note=str,
    )
    if "permittivity" in fields:
        fields["permittivity"] = _permittivity(fields["permittivity"], f"{path}.permittivity")
    if "aliases" in fields:
        fields["aliases"] = _items(fields["aliases"], str, f"{path}.aliases")
    with _reported_at(path):
        return Material(**fields)


def _merged(db: MaterialDatabase, entries, path) -> MaterialDatabase:
    """``db`` with the material ``entries`` merged over it in order, each error at its ``path[i]``."""
    for i, entry in enumerate(entries):
        material = _material(entry, f"{path}[{i}]")
        try:
            db = db.merged_with([material])
        except MaterialError as exc:  # an alias that names another entry: "aliases[j]: ..."
            raise ScenarioError(f"{path}[{i}].{exc}") from exc
    return db


def _material_file(data, name, db: MaterialDatabase) -> MaterialDatabase:
    """``db`` with the entries of a ``{"materials": [...]}`` document merged over it, reported under ``name``."""
    entries = _section(data, f"{name}: $", ("materials",), materials=list)["materials"]
    return _merged(db, entries, f"{name}: materials")


def _material_named(db: MaterialDatabase, name: str, path: str) -> Material:
    if name not in db:
        raise ScenarioError(f"{path}: unknown material {name!r}")
    return db.get(name)


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ScenarioError(f"{path}: not valid JSON ({exc})") from exc


def _data_text(name: str) -> str:
    return resources.files("signalwall").joinpath(f"data/{name}").read_text(encoding="utf-8")


@dataclass
class Scenario:
    name: str
    wall: LayerStack
    cell: UnitCell
    boundary: ThermalBoundary
    sweep: SweepConfig

    def bare_cell(self) -> UnitCell:
        return UnitCell(self.cell.sx_mm, self.cell.sy_mm, self.wall)


_BUILTIN: MaterialDatabase | None = None


def builtin_database() -> MaterialDatabase:
    """The database shipped with the package (see data/materials.json)."""
    global _BUILTIN
    if _BUILTIN is None:
        _BUILTIN = _material_file(json.loads(_data_text("materials.json")), "materials.json", MaterialDatabase())
    return _BUILTIN


def material_database(materials_path: str | None = None) -> MaterialDatabase:
    """Builtin database, with the entries of the ``materials_path`` file merged over it if given."""
    if materials_path:
        return _material_file(_read_json(materials_path), materials_path, builtin_database())
    return builtin_database()


def default_scenario_text() -> str:
    return _data_text("default_scenario.json")


def load_scenario(path: str | Path | None = None, materials_path: str | None = None) -> Scenario:
    """Parse and validate a scenario JSON file; None loads the builtin default."""
    data = json.loads(default_scenario_text()) if path is None else _read_json(path)
    return scenario_from_dict(data, material_database(materials_path))


def scenario_from_dict(data: dict, db: MaterialDatabase | None = None) -> Scenario:
    if db is None:
        db = builtin_database()
    root = _section(
        data, "$", ("wall",),
        name=str, description=str, materials=list, wall=dict, unit_cell=dict, thermal=dict, sweep=dict,
    )
    if root.get("materials"):
        db = _merged(db, root["materials"], "materials")

    layers = []
    for i, entry in enumerate(_section(root["wall"], "wall", ("layers",), layers=list)["layers"]):
        path = f"wall.layers[{i}]"
        layer = _section(entry, path, ("material", "thickness_mm"), material=str, thickness_mm=float)
        material = _material_named(db, layer["material"], f"{path}.material")
        with _reported_at(f"{path}.thickness_mm"):
            layers.append(Layer(material, layer["thickness_mm"]))
    with _reported_at("wall.layers"):
        wall = LayerStack(layers)

    cell = _parse_cell(root["unit_cell"], wall, db) if "unit_cell" in root else UnitCell(150.0, 150.0, wall)

    with _reported_at("thermal"):
        boundary = ThermalBoundary(
            **_section(root.get("thermal", {}), "thermal", r_si=float, r_se=float, t_inside_k=float, t_outside_k=float)
        )

    sweep_fields = _section(root.get("sweep", {}), "sweep", separations_mm=list, frequencies_ghz=list, u_limit=float)
    for key in ("separations_mm", "frequencies_ghz"):
        if key in sweep_fields:
            sweep_fields[key] = _items(sweep_fields[key], float, f"sweep.{key}")
    with _reported_at("sweep"):
        sweep = SweepConfig(**sweep_fields)

    return Scenario(name=root.get("name", "unnamed"), wall=wall, cell=cell, boundary=boundary, sweep=sweep)


def _parse_cell(cell_data: dict, wall: LayerStack, db: MaterialDatabase) -> UnitCell:
    cell = _section(
        cell_data, "unit_cell", ("sx_mm", "sy_mm"),
        sx_mm=float, sy_mm=float, antenna=dict, coax=dict, foam=dict, laminate=dict,
    )

    if "antenna" in cell:
        a = _section(
            cell["antenna"], "unit_cell.antenna",
            gain_dbi=float, cutoff_ghz=float, rolloff_db_per_octave=float, pattern_exponent=float, gain_table=list,
        )
        if "gain_table" in a:
            table = []
            for i, entry in enumerate(a["gain_table"]):
                entry_path = f"unit_cell.antenna.gain_table[{i}]"
                if not isinstance(entry, list) or len(entry) != 2:
                    raise ScenarioError(f"{entry_path}: expected a [GHz, dBi] pair, got {entry!r}")
                table.append(_items(entry, float, entry_path))
            a["gain_table"] = tuple(table)
            plateau = [key for key in ("gain_dbi", "cutoff_ghz", "rolloff_db_per_octave") if key in a]
            if plateau:
                raise ScenarioError(
                    f"unit_cell.antenna.{plateau[0]}: ignored beside a gain_table, which replaces the plateau model"
                )
        with _reported_at("unit_cell.antenna"):
            cell["antenna"] = AntennaSpec(**a)

    if "coax" in cell:
        c = _section(
            cell["coax"], "unit_cell.coax", count=int, inner_radius_mm=float,
            outer_radius_mm=float, shield_thickness_mm=float, conductor_material=str, dielectric_material=str,
        )
        if "count" in c and c["count"] < 1:
            raise ScenarioError(f"unit_cell.coax.count: must be >= 1, got {c['count']}")
        for role, default in (("conductor", "stainless_steel"), ("dielectric", "ptfe_low_density")):
            path = f"unit_cell.coax.{role}_material"
            material = _material_named(db, c.pop(f"{role}_material", default), path)
            with _reported_at(path):
                c[role] = _require_cable_data(role, material)
        with _reported_at("unit_cell.coax"):
            cell["coax"] = CoaxSpec(**c)

    for key in ("foam", "laminate"):
        if key in cell:
            path = f"unit_cell.{key}"
            f = _section(
                cell[key], path, ("material", "size_mm", "thickness_mm"), material=str, size_mm=float, thickness_mm=float
            )
            cell[key] = Pad(_material_named(db, f["material"], f"{path}.material"), f["size_mm"], f["thickness_mm"])

    with _reported_at("unit_cell"):
        return UnitCell(wall=wall, **cell)
