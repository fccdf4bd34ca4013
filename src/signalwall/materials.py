"""Building-material database and frequency-dependent complex permittivity.

Dielectrics follow the ITU-R P.2040 power-law parameterization

    eps_r(f) = eps' - j eps'' = a * f**b - j * sigma(f) / (eps0 * omega)

with sigma(f) = c * f**d in S/m, f in GHz inside the power laws and
omega = 2*pi*f*1e9 rad/s.  The parameterization is stated for 1-100 GHz.

Every public interface takes frequencies in GHz.  Here the GHz -> SI
conversion of the loss term lives in :func:`loss_permittivity` alone; the
solvers that need omega or the free-space wavenumber (``layered_em``,
``fdtd``, ``inverse``, ``antenna_link``) each convert their own GHz
frequencies with the same 1e9 factor.

This module holds the models and the name-indexed database and reads no
files: every JSON input, the shipped ``data/materials.json`` included, is
read and checked by :mod:`signalwall.scenario`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from .constants import EPS0

VALID_RANGE_GHZ = (1.0, 100.0)


class MaterialError(ValueError):
    """Invalid material definition or evaluation request."""


def _require_finite(value, label):
    if not (isinstance(value, (int, float)) and math.isfinite(value)):
        raise MaterialError(f"{label} must be a finite number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class PermittivityModel:
    """Power-law coefficients (a, b, c, d) of the ITU-style dispersion model."""

    a: float
    b: float = 0.0
    c: float = 0.0
    d: float = 0.0

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, _require_finite(getattr(self, name), f"coefficient {name}"))
        if self.a <= 0.0:
            raise MaterialError(f"coefficient a must be > 0, got {self.a}")
        if self.c < 0.0:
            raise MaterialError(f"coefficient c must be >= 0, got {self.c}")

    def conductivity(self, frequency_ghz):
        """Conductivity sigma(f) = c * f**d in S/m for f in GHz."""
        return self.c * np.power(frequency_ghz, self.d)

    def complex_permittivity(self, frequency_ghz):
        """eps' - j eps'' for GHz frequencies > 0, scalar or ndarray."""
        return self.a * frequency_ghz**self.b - 1j * loss_permittivity(self.conductivity(frequency_ghz), frequency_ghz)

    def permittivity_gradient(self, frequency_ghz):
        """d eps / d(a, c, d) at fixed b: one column per coefficient, one row per GHz frequency > 0."""
        f = np.asarray(frequency_ghz, dtype=float)
        d_eps_dc = -1j * loss_permittivity(np.power(f, self.d), f)  # no division by c, which may be 0
        return np.stack([f**self.b, d_eps_dc, self.c * np.log(f) * d_eps_dc], axis=-1)


@dataclass(frozen=True)
class FixedPermittivity:
    """Frequency-independent relative permittivity eps' - j eps''."""

    eps_real: float
    eps_imag: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "eps_real", _require_finite(self.eps_real, "eps_real"))
        object.__setattr__(self, "eps_imag", _require_finite(self.eps_imag, "eps_imag"))
        if self.eps_real <= 0.0:
            raise MaterialError(f"eps_real must be > 0, got {self.eps_real}")
        if self.eps_imag < 0.0:
            raise MaterialError(f"eps_imag must be >= 0, got {self.eps_imag}")

    @classmethod
    def from_tan_delta(cls, eps_real, tan_delta):
        return cls(eps_real, eps_real * tan_delta)

    def complex_permittivity(self, frequency_ghz):
        """eps' - j eps'' in the shape of ``frequency_ghz``."""
        return np.full(np.shape(frequency_ghz), complex(self.eps_real, -self.eps_imag))


def loss_permittivity(sigma_s_per_m, frequency_ghz):
    """eps'' = sigma / (eps0 * omega) with omega = 2*pi*f*1e9."""
    omega = 2.0 * math.pi * np.asarray(frequency_ghz, dtype=float) * 1e9
    return sigma_s_per_m / (EPS0 * omega)


@dataclass(frozen=True)
class Material:
    """A named medium with electromagnetic and thermal properties.

    ``permittivity`` may be a dispersion model, a fixed value, or None for
    media used only thermally (metals in this database).
    """

    name: str
    thermal_conductivity: float
    permittivity: Union[PermittivityModel, FixedPermittivity, None] = None
    resistivity_ohm_m: float | None = None
    aliases: tuple[str, ...] = ()
    note: str = ""

    def __post_init__(self):
        if not self.name:
            raise MaterialError("material name must be non-empty")
        object.__setattr__(
            self, "thermal_conductivity", _require_finite(self.thermal_conductivity, "thermal_conductivity")
        )
        if self.thermal_conductivity <= 0.0:
            raise MaterialError(f"thermal_conductivity must be > 0, got {self.thermal_conductivity}")
        if self.resistivity_ohm_m is not None and not 0.0 < self.resistivity_ohm_m < math.inf:
            raise MaterialError(f"resistivity_ohm_m must be finite and > 0, got {self.resistivity_ohm_m}")
        if not (isinstance(self.aliases, tuple) and all(isinstance(a, str) and a for a in self.aliases)):
            raise MaterialError(f"aliases must be a tuple of non-empty names, got {self.aliases!r}")

    def complex_permittivity(self, frequency_ghz):
        """eps' - j eps'' at GHz frequencies > 0, in the shape of ``frequency_ghz``.

        eps'' >= 0 under the e^{+j omega t} convention.  Every solver
        evaluates a material's permittivity through this method.
        """
        f = np.asarray(frequency_ghz, dtype=float)
        if np.any(f <= 0.0):
            raise MaterialError("frequency must be > 0 GHz")
        if self.permittivity is None:
            raise MaterialError(f"material {self.name!r} has no electromagnetic model")
        return self.permittivity.complex_permittivity(f)


def _normalize(name: str) -> str:
    return re.sub(r"[^a-z0-9]", "", name.lower())


class MaterialDatabase:
    """Name-indexed collection of materials with alias-aware lookup."""

    def __init__(self):
        self._materials: list[Material] = []
        self._by_key: dict[str, Material] = {}

    def add(self, material: Material):
        """Add ``material``, replacing the entry of the same name under all its names; an alias
        that already names another entry raises `MaterialError` ``aliases[j]: ...``."""
        keys = [_normalize(material.name)] + [_normalize(a) for a in material.aliases]
        existing = self._by_key.get(keys[0])
        for j, (alias, key) in enumerate(zip(material.aliases, keys[1:])):
            owner = self._by_key.get(key)
            if owner is not None and owner is not existing:
                raise MaterialError(f"aliases[{j}]: {alias!r} already names material {owner.name!r}")
        if existing is not None:
            self._materials.remove(existing)
            # the replacement takes over every name of the entry it replaces
            keys += [key for key, m in self._by_key.items() if m is existing]
        for key in keys:
            self._by_key[key] = material
        self._materials.append(material)

    def get(self, name: str) -> Material:
        key = _normalize(name)
        try:
            return self._by_key[key]
        except KeyError:
            known = ", ".join(sorted(m.name for m in self._materials))
            raise MaterialError(f"unknown material {name!r} (known: {known})") from None

    def __contains__(self, name: str) -> bool:
        return _normalize(name) in self._by_key

    def __iter__(self):
        return iter(self._materials)

    def merged_with(self, materials: Iterable[Material]) -> "MaterialDatabase":
        """New database where the given materials override same-name entries."""
        db = MaterialDatabase()
        db._materials = list(self._materials)
        db._by_key = dict(self._by_key)  # keeps the names a replacement took over
        for m in materials:
            db.add(m)
        return db
