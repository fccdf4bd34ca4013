"""Embedded back-to-back antenna path: dual-coax cable and aperture link budget.

The through-antenna path is modelled as: capture of the incident plane wave
by the outdoor element's effective aperture within its unit cell, cable
attenuation through the wall, and re-radiation by the identical indoor
element.  Capture fraction and cable loss each enter once; re-radiation
losses are already folded into the realized gain.

The cable assembly is a pair of identical coaxial lines whose shields are
galvanically joined into a balanced line: the assembly impedance is twice
the single-line impedance while attenuation per metre equals the single
line's.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import NamedTuple
import numpy as np

from .constants import C0, ETA0, MU0
from .layered_em import LayerStack, _check_band, _check_theta, _coefficients, amplitude_db
from .materials import Material

COMBINATION_MODES = ("incoherent", "coherent_best", "coherent_worst")
ONSET_TOL_GHZ = 0.005  # largest step of the improvement onset's grid; the onset lies within half a step of the crossing


# the material property each cable role reads
_CABLE_MATERIAL_NEEDS = {"conductor": "resistivity_ohm_m", "dielectric": "permittivity"}


def _require_cable_data(role: str, material: Material) -> Material:
    """``material``, after checking it has the property the cable's ``role`` reads."""
    needs = _CABLE_MATERIAL_NEEDS[role]
    if getattr(material, needs) is None:
        raise ValueError(f"{role} material {material.name!r} has no {needs}")
    return material


@dataclass(frozen=True)
class CoaxSpec:
    """Geometry and materials of one coaxial line in the dual-coax assembly.

    ``outer_radius_mm`` is the shield's outer radius and also the radius used
    in the impedance logarithm; that reading reproduces the assembly's design
    impedance with the stated pin size (see README).  The ``conductor``
    (pin and shield) supplies the resistivity, the ``dielectric`` filling
    the rest of the bore its permittivity; the thermal solver paints the
    same two materials.  The shield occupies the outermost
    ``shield_thickness_mm``.
    """

    conductor: Material
    dielectric: Material
    inner_radius_mm: float = 0.1435
    outer_radius_mm: float = 0.88
    shield_thickness_mm: float = 0.2
    count: int = 2

    def __post_init__(self):
        if not 0.0 < self.inner_radius_mm < self.outer_radius_mm:
            raise ValueError("need 0 < inner radius < outer radius")
        if not 0.0 < self.shield_thickness_mm < self.outer_radius_mm - self.inner_radius_mm:
            raise ValueError("shield thickness must fit between inner and outer radius")
        for role in _CABLE_MATERIAL_NEEDS:
            _require_cable_data(role, getattr(self, role))
        if self.count < 1:
            raise ValueError("assembly needs at least one line")

    @property
    def shield_inner_radius_mm(self) -> float:
        return self.outer_radius_mm - self.shield_thickness_mm


def coax_impedance(spec: CoaxSpec, frequency_ghz):
    """Characteristic impedance of a single line, ohms, in the shape of ``frequency_ghz``."""
    eps_real = spec.dielectric.complex_permittivity(frequency_ghz).real
    return ETA0 / (2.0 * math.pi * np.sqrt(eps_real)) * math.log(spec.outer_radius_mm / spec.inner_radius_mm)


@dataclass(frozen=True)
class CoaxAttenuation:
    """Cable losses in dB, each in the shape of the frequencies asked for."""

    total_db: float | np.ndarray
    conductor_db: float | np.ndarray
    dielectric_db: float | np.ndarray


def coax_attenuation(spec: CoaxSpec, frequency_ghz, length_m: float = 0.44) -> CoaxAttenuation:
    """Total cable attenuation over ``length_m`` at GHz frequencies > 0, scalar or array.

    The cable runs through the wall, so a cell's cable is ``wall.depth_mm * 1e-3``
    long; the default is the depth of the paper's 440 mm wall.

    Conductor loss R' = (R_s / 2 pi)(1/a + k/b), with R_s = sqrt(pi f mu rho).
    The shield, t thick over an insulator, has Z_s = R_s (1 + j) coth((1 + j) t / delta),
    so k = Re[Z_s] / R_s: 1 for t >> delta, delta / t (the sheet resistance rho / t) for
    t << delta (Ramo, Whinnery & Van Duzer).  The pin keeps R_s: its radius spans many
    skin depths.  Dielectric loss from the loss tangent eps''/eps' at ``frequency_ghz``.
    """
    eps = spec.dielectric.complex_permittivity(frequency_ghz)  # rejects frequencies <= 0
    f_hz = np.asarray(frequency_ghz, dtype=float) * 1e9
    a = spec.inner_radius_mm * 1e-3
    b = spec.outer_radius_mm * 1e-3
    rho = spec.conductor.resistivity_ohm_m

    r_surf = np.sqrt(math.pi * f_hz * MU0 * rho)
    skin_depth = np.sqrt(rho / (math.pi * f_hz * MU0))
    k = ((1 + 1j) / np.tanh((1 + 1j) * spec.shield_thickness_mm * 1e-3 / skin_depth)).real
    r_per_m = r_surf / (2.0 * math.pi) * (1.0 / a + k / b)
    alpha_c = r_per_m / (2.0 * coax_impedance(spec, frequency_ghz))
    alpha_d = math.pi * f_hz * np.sqrt(eps.real) / C0 * (-eps.imag / eps.real)

    np_to_db = 20.0 / math.log(10.0)
    conductor_db = np_to_db * alpha_c * length_m
    dielectric_db = np_to_db * alpha_d * length_m
    return CoaxAttenuation(conductor_db + dielectric_db, conductor_db, dielectric_db)


@dataclass(frozen=True)
class AntennaSpec:
    """Realized gain model of one antenna element.

    Either an explicit ``gain_table`` of (GHz, dBi) points (linearly
    interpolated, clamped at the ends) or a plateau ``gain_dbi`` with a
    low-frequency roll-off below ``cutoff_ghz``.  The roll-off captures the
    collapse of a spiral element's realized gain once the outer turn is
    electrically small; the default cutoff approximates c0/(2 pi r_outer)
    for the paper's spiral (r_outer = 17.4 mm).  The broadside pattern falls
    off as cos(theta)**pattern_exponent.
    """

    gain_dbi: float = 4.6
    cutoff_ghz: float = 2.7
    rolloff_db_per_octave: float = 24.0
    pattern_exponent: float = 1.0
    gain_table: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if not math.isfinite(self.gain_dbi):
            raise ValueError("gain must be finite")
        if self.pattern_exponent < 0.0:
            raise ValueError("pattern exponent must be >= 0")
        if self.rolloff_db_per_octave < 0.0:
            raise ValueError("roll-off must be >= 0 dB/octave")
        if self.gain_table is not None:
            table = tuple((float(f), float(g)) for f, g in self.gain_table)
            if len(table) < 1:
                raise ValueError("gain table must not be empty")
            if any(f2 <= f1 for (f1, _), (f2, _) in zip(table, table[1:])):
                raise ValueError("gain table frequencies must be strictly increasing")
            object.__setattr__(self, "gain_table", table)

    def gain_dbi_at(self, frequency_ghz):
        """Realized broadside gain in dBi, in the shape of ``frequency_ghz``."""
        if self.gain_table is not None:
            freqs, gains = zip(*self.gain_table)
            return np.interp(frequency_ghz, freqs, gains)
        f = np.asarray(frequency_ghz, dtype=float)
        rolloff = self.rolloff_db_per_octave * np.log2(self.cutoff_ghz / f)
        return np.where(f >= self.cutoff_ghz, self.gain_dbi, self.gain_dbi - rolloff)

    def gain_at(self, frequency_ghz, theta_deg: float = 0.0):
        """Linear realized gain including the cos^n pattern roll-off."""
        g0 = 10.0 ** (self.gain_dbi_at(frequency_ghz) / 10.0)
        return g0 * math.cos(math.radians(theta_deg)) ** self.pattern_exponent


@dataclass(frozen=True)
class Pad:
    """A square block of ``material``, ``size_mm`` on a side, centred on each wall face."""

    material: Material
    size_mm: float
    thickness_mm: float


@dataclass(frozen=True)
class UnitCell:
    """One periodic cell of the antenna-embedded wall.

    Lateral cell size doubles as the antenna-system separation on the wall.
    ``antenna`` and ``coax`` are both None for a bare cell, which then has no
    ``foam`` or ``laminate`` pad either.  The laminate pad sits on each wall
    face with the foam pad recessed into the concrete behind it; a cell
    without one of them leaves it None.  Every part has a size > 0 and fits
    the cell, and both faces' stacks fit the wall depth.
    """

    sx_mm: float
    sy_mm: float
    wall: LayerStack
    antenna: AntennaSpec | None = None
    coax: CoaxSpec | None = None
    foam: Pad | None = None
    laminate: Pad | None = None

    def __post_init__(self):
        if not (0.0 < self.sx_mm < math.inf and 0.0 < self.sy_mm < math.inf):
            raise ValueError(f"cell dimensions must be finite and > 0, got {self.sx_mm} x {self.sy_mm} mm")
        if (self.antenna is None) != (self.coax is None):
            raise ValueError("antenna and coax need each other; one alone would be ignored")
        if not self.has_antenna_system and (self.foam is not None or self.laminate is not None):
            raise ValueError("foam and laminate need an antenna system (antenna and coax); alone they would be ignored")
        if self.has_antenna_system:
            for part, pad in (("foam", self.foam), ("laminate", self.laminate)):
                if pad is not None and not (pad.size_mm > 0.0 and pad.thickness_mm > 0.0):
                    raise ValueError(f"{part} size and thickness must be > 0, got {pad.size_mm} and {pad.thickness_mm} mm")
            cell, diameter = f"cell ({self.sx_mm} x {self.sy_mm} mm)", 2.0 * self.coax.outer_radius_mm
            if self.coax.count * diameter > self.sx_mm or diameter > self.sy_mm:
                raise ValueError(f"{cell} must hold the cable pack ({self.coax.count} lines of {diameter} mm side by side)")
            if self.foam is not None and self.foam.size_mm > min(self.sx_mm, self.sy_mm):
                raise ValueError(f"{cell} must hold the foam block ({self.foam.size_mm} mm)")
            if self.laminate is not None and min(self.sx_mm, self.sy_mm) <= self.laminate.size_mm:
                raise ValueError(f"{cell} must exceed the antenna footprint ({self.laminate.size_mm} mm)")
            stack, depth = 2.0 * sum(self.face_stack_mm), self.wall.depth_mm
            if stack > depth:
                raise ValueError(f"laminate + foam stacks of both faces ({stack} mm) overlap in the {depth} mm wall")

    @property
    def has_antenna_system(self) -> bool:
        return self.antenna is not None and self.coax is not None

    @property
    def face_stack_mm(self) -> tuple[float, float]:
        """Laminate and foam thickness on each wall face, 0 for a pad the cell lacks."""
        return tuple(0.0 if pad is None else pad.thickness_mm for pad in (self.laminate, self.foam))

    @property
    def cell_area_m2(self) -> float:
        return self.sx_mm * self.sy_mm * 1e-6

    def with_separation(self, separation_mm: float) -> "UnitCell":
        return dataclasses.replace(self, sx_mm=separation_mm, sy_mm=separation_mm)


def aperture_transmission(cell: UnitCell, frequency_ghz, theta_deg: float = 0.0):
    """Amplitude transmission of the antenna path through one unit cell.

    |T|^2 = min(A_eff(theta) / (A_cell cos(theta)), 1) * L_cable with
    A_eff = G(theta) lambda^2 / (4 pi); saturates at full capture when the
    effective aperture exceeds the projected cell.  ``frequency_ghz`` may be
    a scalar or an array; the result has its shape.
    """
    if not cell.has_antenna_system:
        raise ValueError("unit cell has no antenna system")
    _check_theta(theta_deg)
    # the cable first: its dielectric rejects frequencies <= 0 before lambda divides by them
    cable = 10.0 ** (-coax_attenuation(cell.coax, frequency_ghz, cell.wall.depth_mm * 1e-3).total_db / 10.0)
    lam = C0 / (np.asarray(frequency_ghz, dtype=float) * 1e9)
    a_eff = cell.antenna.gain_at(frequency_ghz, theta_deg) * lam * lam / (4.0 * math.pi)
    projected = cell.cell_area_m2 * math.cos(math.radians(theta_deg))
    capture = np.minimum(a_eff / projected, 1.0)
    return np.sqrt(capture * cable)


def combine_paths(t_wall, t_antenna, mode: str = "incoherent"):
    """Combined through-wall amplitude from leakage and antenna paths, elementwise."""
    if mode not in COMBINATION_MODES:
        raise ValueError(f"mode must be one of {COMBINATION_MODES}, got {mode!r}")
    w = np.abs(t_wall)
    a = np.abs(t_antenna)
    if not np.all((w <= 1.0) & (a <= 1.0)):
        raise ValueError("path magnitudes must lie in [0, 1]")
    if mode == "incoherent":
        return np.hypot(w, a)
    if mode == "coherent_best":
        return w + a
    return np.abs(w - a)


class LinkBudget(NamedTuple):
    """Wall, antenna and combined amplitudes, 1-D arrays over the frequencies: the one place the two paths meet."""

    t_wall: np.ndarray
    t_antenna: np.ndarray
    combined: np.ndarray

    @property
    def improvement_db(self) -> np.ndarray:
        """The combined level over the bare wall's, in dB."""
        return amplitude_db(self.combined) - amplitude_db(self.t_wall)


def link_budget(cell: UnitCell, frequency_ghz, theta_deg: float = 0.0, polarization: str = "RHCP", mode: str = "incoherent"):
    t_antenna = aperture_transmission(cell, np.atleast_1d(frequency_ghz), theta_deg)  # checks theta before the TMM
    t_wall, _ = _coefficients(cell.wall, frequency_ghz, theta_deg, polarization)
    return LinkBudget(t_wall, t_antenna, combine_paths(t_wall, t_antenna, mode))


def improvement_onset_ghz(
    cell: UnitCell,
    f_start_ghz: float = 1.0,
    f_stop_ghz: float = 8.0,
    theta_deg: float = 0.0,
    polarization: str = "RHCP",
) -> float | None:
    """Lowest frequency where the antenna path overtakes the bare wall.

    The crossover t_antenna = |t_wall| is where the combined incoherent level
    sits 3 dB above the bare wall; below it the antenna system no longer
    gives a meaningful improvement.  One link budget over the band, on a grid
    of steps no wider than ``ONSET_TOL_GHZ``, finds the first step where the
    antenna path comes to lead; the onset is that step's midpoint.  Returns
    the band start when the antenna path already leads there, and None when
    no crossing exists in the band.  A band that ``transmission_spectrum``
    would reject raises ValueError.
    """
    if not cell.has_antenna_system:
        return None
    _check_band(f_start_ghz, f_stop_ghz)
    grid = np.linspace(f_start_ghz, f_stop_ghz, math.ceil((f_stop_ghz - f_start_ghz) / ONSET_TOL_GHZ) + 1)
    t_wall, t_antenna, _ = link_budget(cell, grid, theta_deg, polarization)
    ahead = np.flatnonzero(t_antenna >= np.abs(t_wall))
    if ahead.size == 0:
        return None
    if ahead[0] == 0:
        return float(grid[0])
    return float(0.5 * (grid[ahead[0] - 1] + grid[ahead[0]]))
