"""Plane-wave transmission and reflection of layered lossy walls.

Exact solution on transverse field amplitudes for a stack of homogeneous
slabs with vacuum ambient on both sides, by the back-to-front recursion of
generalized reflection coefficients (Chew, Waves and Fields in
Inhomogeneous Media, 1990, sec. 2.1).  Conventions:

* time dependence e^{+j omega t}, eps = eps' - j eps'';
* propagating/decaying waves carry e^{-j kz z} with Im(kz) <= 0 in every
  layer (branch enforced explicitly);
* ``t`` and ``r`` relate the transverse E-field amplitudes of the
  transmitted/reflected waves to the incident wave in the ambient media, so
  with identical ambients |t|^2 and |r|^2 are power fractions;
* circular polarization: the co-polar component in the fixed transverse
  basis of the incident wave, co = (TE + TM)/2, for both transmission and
  reflection.  At normal incidence TE and TM are degenerate, so CP results
  coincide with the linear ones.  Note the propagation-relative handedness
  of the reflected wave is flipped by the specular bounce; radar
  conventions would label the reflected "co" component here as cross-polar.

Every propagation factor the recursion forms has magnitude <= 1, so it stays
finite for arbitrarily thick lossy stacks; |t| underflows to zero only below
roughly -6400 dB.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .constants import C0, EPS0, MU0
from .materials import VALID_RANGE_GHZ, Material

POLARIZATIONS = ("TE", "TM", "RHCP", "LHCP")
# most points of a frequency grid asked for at a flag (a band's N, a range's
# count, a sweep's frequencies); a 100,000-point `transmission` band traces
# ~61 MB (~0.6 kB a point) and runs ~0.45 s, process start included, on a
# 2-core x86_64 VM
MAX_GRID_POINTS = 100_000
_CSV_HEADER = "freq_GHz,t_dB,t_phase_deg,r_dB,r_phase_deg,pol,theta_deg"


@dataclass(frozen=True)
class Layer:
    material: Material
    thickness_mm: float

    def __post_init__(self):
        if not (self.thickness_mm > 0.0 and math.isfinite(self.thickness_mm)):
            raise ValueError(f"layer thickness must be > 0 mm, got {self.thickness_mm}")


@dataclass(frozen=True)
class LayerStack:
    """Ordered slabs of a wall cross-section, vacuum ambient on both sides."""

    layers: tuple[Layer, ...]

    def __init__(self, layers: Sequence[Layer]):
        layers = tuple(layers)
        if not layers:
            raise ValueError("layer stack must contain at least one layer")
        object.__setattr__(self, "layers", layers)

    @property
    def depth_mm(self) -> float:
        return sum(l.thickness_mm for l in self.layers)


def _check_theta(theta_deg: float) -> None:
    """Reject an incidence angle outside [0, 90) degrees from the wall normal."""
    if not 0.0 <= theta_deg < 90.0:
        raise ValueError(f"theta must be in [0, 90) degrees, got {theta_deg}")


@dataclass(frozen=True)
class Incidence:
    frequency_ghz: float
    theta_deg: float = 0.0
    polarization: str = "TE"

    def __post_init__(self):
        _check_theta(self.theta_deg)
        if self.polarization not in POLARIZATIONS:
            raise ValueError(f"polarization must be one of {POLARIZATIONS}, got {self.polarization!r}")
        if self.frequency_ghz <= 0.0:
            raise ValueError(f"frequency must be > 0 GHz, got {self.frequency_ghz}")


@dataclass
class Spectrum:
    """Complex transmission/reflection coefficients on a frequency grid."""

    frequencies_ghz: np.ndarray
    t: np.ndarray
    r: np.ndarray
    polarization: str
    theta_deg: float

    def write_csv(self, path):
        tail = f"{self.polarization},{self.theta_deg:.3f}\n"
        columns = (self.frequencies_ghz, amplitude_db(self.t), self.t, amplitude_db(self.r), self.r)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_CSV_HEADER + "\n")
            fh.writelines(
                f"{f:.6f},{t_db:.6f},{math.degrees(cmath.phase(t)):.6f},{r_db:.6f},{math.degrees(cmath.phase(r)):.6f},{tail}"
                for f, t_db, t, r_db, r in zip(*(c.tolist() for c in columns))
            )


def amplitude_db(x):
    """20*log10|x|, elementwise, floored at -6000 dB (the level of 1e-300, so 0 reads -6000); NaN stays NaN."""
    return 20.0 * np.log10(np.maximum(np.abs(x), 1e-300))


def _branch_kz(k0_sq_eps, kx):
    """kz = sqrt(k0^2 eps - kx^2) with Im(kz) <= 0 (decay along +z)."""
    kz = np.sqrt(k0_sq_eps - kx * kx + 0j)  # the principal root: Re(kz) >= 0
    return np.where(kz.imag > 0.0, -kz, kz)


def _tmm_linear(eps_media, d_m, f_ghz, theta_deg, pol):
    """t, r of the transverse amplitudes across the whole stack for any of `POLARIZATIONS`.

    eps_media: per-medium relative permittivity arrays, ambient first/last.
    d_m: interior layer thicknesses in metres.

    TE and TM are one row each of the recursion; RHCP and LHCP run both rows
    and return their co-polar mean (TE + TM)/2.  Runs from the exit face
    (r = 0, t = 1) back to the entrance face: each interface between media
    n-1 and n, with rho = (z_n - z_{n-1}) / (z_n + z_{n-1}), maps r to
    (rho + r) / (1 + rho r) and scales t by (1 + rho) / (1 + rho r);
    crossing layer n-1 then multiplies t by p = exp(-j kz d) and r by p^2.
    """
    if pol not in POLARIZATIONS:
        raise ValueError(f"polarization must be one of {POLARIZATIONS}, got {pol!r}")
    f = np.atleast_1d(np.asarray(f_ghz, dtype=float))
    omega = 2.0 * math.pi * f * 1e9
    k0 = omega / C0
    kx = k0 * math.sin(math.radians(theta_deg))

    kz = [_branch_kz(k0 * k0 * np.asarray(eps, dtype=complex), kx) for eps in eps_media]
    z = []
    for kzn, eps in zip(kz, eps_media):
        rows = [omega * MU0 / kzn] if pol != "TM" else []
        if pol != "TE":
            rows.append(kzn / (omega * EPS0 * np.asarray(eps, dtype=complex)))
        z.append(np.stack(rows))

    r = np.zeros_like(z[0])
    t = np.ones_like(z[0])
    for n in range(len(eps_media) - 1, 0, -1):
        rho = (z[n] - z[n - 1]) / (z[n] + z[n - 1])
        denom = 1.0 + rho * r
        t, r = t * (1.0 + rho) / denom, (rho + r) / denom
        if n >= 2:
            p = np.exp(-1j * kz[n - 1] * d_m[n - 2])
            t, r = t * p, r * p * p
    if pol in ("TE", "TM"):
        return t[0], r[0]
    return 0.5 * (t[0] + t[1]), 0.5 * (r[0] + r[1])


def _coefficients(stack: LayerStack, f, theta_deg, pol):
    _check_theta(theta_deg)
    f = np.atleast_1d(np.asarray(f, dtype=float))
    ambient = np.ones_like(f, dtype=complex)
    eps_media = [ambient, *(layer.material.complex_permittivity(f) for layer in stack.layers), ambient]
    d_m = [layer.thickness_mm * 1e-3 for layer in stack.layers]
    return _tmm_linear(eps_media, d_m, f, theta_deg, pol)


def tmm_coefficients(stack: LayerStack, inc: Incidence) -> tuple[complex, complex]:
    """Complex (t, r) for a single incidence; CP inputs return co-polar terms."""
    t, r = _coefficients(stack, inc.frequency_ghz, inc.theta_deg, inc.polarization)
    return complex(t[0]), complex(r[0])


def _check_band(f_start_ghz: float, f_stop_ghz: float) -> None:
    """Reject a band that is empty, reversed or outside the material model's validity."""
    lo, hi = VALID_RANGE_GHZ
    if not (f_start_ghz >= lo and f_stop_ghz <= hi and f_start_ghz < f_stop_ghz):
        raise ValueError(
            f"frequency band must satisfy {lo:g} <= start < stop <= {hi:g} GHz, got [{f_start_ghz}, {f_stop_ghz}]"
        )


def transmission_spectrum(
    stack: LayerStack,
    f_start_ghz: float,
    f_stop_ghz: float,
    n_points: int,
    theta_deg: float = 0.0,
    polarization: str = "TE",
) -> Spectrum:
    """Spectrum over a linear frequency grid inside the material model's validity."""
    _check_band(f_start_ghz, f_stop_ghz)
    if n_points < 2:
        raise ValueError(f"n_points must be >= 2, got {n_points}")
    f = np.linspace(f_start_ghz, f_stop_ghz, int(n_points))
    t, r = _coefficients(stack, f, theta_deg, polarization)
    return Spectrum(f, t, r, polarization, theta_deg)
