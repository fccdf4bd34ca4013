"""Measurement post-processing and permittivity estimation.

Normalizes device-under-test spectra by empty-fixture references and fits
the power-law permittivity coefficients (a, c, d) of a single slab to a
measured transmission.  The exponent b stays fixed during the fit
(default 0): on one slab spectrum all four coefficients together are not
identifiable.

A magnitude fit minimizes the RMS error in dB between the measured |S21|
and the exact slab transmission, using a derivative-free simplex search
restarted from deterministic seeded points inside the bounds: the objective
has Fabry-Perot local minima, hence the multistart.  A complex fit solves
the residual log(t_model/s21) as bounded trust-region least squares with the
exact Jacobian of :func:`slab_log_jacobian`, with a started from the group
delay (the slope of the unwrapped S21 phase, as in Nicolson & Ross 1970 and
Weir 1974) and (c, d) from the same seeded points.
The slab model is the closed-form (Airy) transmission of one slab in vacuum,
equal to the transfer-matrix cascade of :mod:`signalwall.layered_em` for a
one-layer stack at a fraction of its cost; its reference planes are the slab
faces.  Every objective evaluation is one call of :func:`slab_transmission`
and every Jacobian one call of :func:`slab_log_jacobian`;
``FitResult.evaluations`` counts both.  Both form their terms in
:func:`_slab`, which keeps those of the latest evaluation: the grid terms
(f**b, eps0 omega, k0 t, log f) while the GHz grid, thickness and b are the
same bits, and the point terms (f**d, n, r^2, p) while (a, c, d) are too, so
a Jacobian after the value call at its x forms only its derivative terms.
The results are the bits of a fresh evaluation.  A fit runs at most
`_MAX_SOLVES` solves, starts times alias teeth of a.
"""

from __future__ import annotations

import csv
import math
import struct
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .constants import C0
from .layered_em import amplitude_db
from .materials import (
    VALID_RANGE_GHZ,
    MaterialError,
    PermittivityModel,
    eps0_omega,
    power_law_coefficients,
    power_law_gradient,
    power_law_permittivity,
)


class SpectrumFormatError(ValueError):
    """Unreadable or inconsistent measured-spectrum input."""


REFERENCE_FLOOR_DB = -100.0


@dataclass
class MeasuredSpectrum:
    """Measured S21 on a frequency grid, complex or magnitude-only."""

    frequencies_ghz: np.ndarray
    s21: np.ndarray
    magnitude_only: bool = False
    thickness_mm: float | None = None
    fixture_id: str = ""

    def __post_init__(self):
        f = np.asarray(self.frequencies_ghz, dtype=float)
        s = np.asarray(self.s21, dtype=complex)
        if f.ndim != 1 or f.size < 1 or s.shape != f.shape:
            raise SpectrumFormatError("frequencies and S21 must be equal-length 1-D arrays")
        if f.size > 1 and not np.all(np.diff(f) > 0.0):
            raise SpectrumFormatError("frequency grid must be strictly increasing")
        if not np.all(np.isfinite(s)) or np.any(s == 0.0):
            raise SpectrumFormatError("S21 must be finite and nonzero")
        self.frequencies_ghz = f
        self.s21 = s

    @property
    def magnitude_db(self) -> np.ndarray:
        return 20.0 * np.log10(np.abs(self.s21))


def _ghz_span(f_ghz) -> str:
    return f"{f_ghz[0]:g}" if f_ghz.size == 1 else f"{f_ghz[0]:g}-{f_ghz[-1]:g}"


def normalize_spectrum(dut: MeasuredSpectrum, reference: MeasuredSpectrum, interpolate: bool = False) -> MeasuredSpectrum:
    """Per-point complex division of the DUT by the reference spectrum.

    Magnitude-only inputs subtract in dB.  Grids must match unless
    ``interpolate``, and an interpolated reference must span the DUT band:
    `np.interp` would hold its end values beyond it.  A reference point
    below `REFERENCE_FLOOR_DB` is a dead fixture reading, and dividing by it
    would turn noise into a transmission, so any such point raises
    `SpectrumFormatError`.
    """
    f = dut.frequencies_ghz
    if f.shape == reference.frequencies_ghz.shape and np.allclose(f, reference.frequencies_ghz, rtol=0.0, atol=1e-9):
        ref_s21 = reference.s21
    elif interpolate:
        ref_f = reference.frequencies_ghz
        outside = [x for x in (f[f < ref_f[0] - 1e-9], f[f > ref_f[-1] + 1e-9]) if x.size]
        if outside:
            raise SpectrumFormatError(
                f"reference {reference.fixture_id or 'spectrum'} covers {ref_f[0]:g}-{ref_f[-1]:g} GHz only; "
                f"the DUT points at {' and '.join(_ghz_span(x) for x in outside)} GHz lie outside it "
                "and cannot be interpolated"
            )
        ref_s21 = np.interp(f, ref_f, reference.s21.real) + 1j * np.interp(f, ref_f, reference.s21.imag)
    else:
        raise SpectrumFormatError("frequency grids differ; pass --interpolate to resample the reference onto the DUT grid")

    low = amplitude_db(ref_s21) < REFERENCE_FLOOR_DB
    if np.any(low):
        raise SpectrumFormatError(
            f"reference {reference.fixture_id or 'spectrum'}: {np.count_nonzero(low)} point(s) below "
            f"{REFERENCE_FLOOR_DB:g} dB at {_ghz_span(f[low])} GHz; a dead reference point cannot normalize the DUT"
        )
    magnitude_only = dut.magnitude_only or reference.magnitude_only
    if magnitude_only:
        s21 = np.abs(dut.s21) / np.abs(ref_s21)
    else:
        s21 = dut.s21 / ref_s21
    return MeasuredSpectrum(
        f.copy(),
        s21,
        magnitude_only=magnitude_only,
        thickness_mm=dut.thickness_mm,
        fixture_id=dut.fixture_id,
    )


# ---------------------------------------------------------------------------
# permittivity fitting


DEFAULT_BOUNDS = ((1.0, 15.0), (1e-4, 2.0), (0.0, 2.0))  # (a, c, d)


@dataclass
class FitResult:
    a: float
    b: float
    c: float
    d: float
    residual_db_rms: float
    iterations: int
    converged: bool
    starts: list = field(default_factory=list, repr=False)  # one entry per start
    evaluations: int = 0  # model value and Jacobian calls over all starts

    @property
    def model(self) -> PermittivityModel:
        return PermittivityModel(self.a, self.b, self.c, self.d)


class _SlabTerms(NamedTuple):
    """The arrays of one slab evaluation, each keyed by the exact values it was formed from."""

    grid_key: tuple  # (grid shape, bytes of b, k0 t per GHz and the GHz grid)
    f_b: np.ndarray
    e0_omega: np.ndarray
    k0t: np.ndarray  # one-way vacuum phase k0 t
    log_f: np.ndarray
    point_key: bytes  # bytes of (a, c, d)
    c: float
    f_d: np.ndarray
    n: np.ndarray
    r2: np.ndarray
    p: np.ndarray


# The terms of the latest slab evaluation.  A fit evaluates thousands of
# (a, c, d) on one grid, and each Jacobian follows a value call at its x, so
# the grid terms outlive a point and the point terms serve its Jacobian.  The
# tuple is replaced whole, never changed in place, so a thread always reads one
# consistent set; `fit_permittivity` drops it when it returns or raises.
_kept: _SlabTerms | None = None


def _slab(a, b, c, d, thickness_mm, frequencies_ghz) -> _SlabTerms:
    """The terms of :func:`slab_transmission` at these arguments, formed only where the kept ones differ."""
    global _kept
    f = np.atleast_1d(np.asarray(frequencies_ghz, dtype=float))
    a, b, c, d = power_law_coefficients(a, b, c, d)
    k0t_per_ghz = (2.0 * math.pi * 1e9 / C0) * thickness_mm * 1e-3
    # bytes, not floats: -0.0 == 0.0, yet it forms other terms
    grid_key = (f.shape, struct.pack("2d", b, k0t_per_ghz) + f.tobytes())
    point_key = struct.pack("3d", a, c, d)
    kept = _kept
    if kept is not None and kept.grid_key == grid_key:
        if kept.point_key == point_key:
            return kept
        grid = (kept.f_b, kept.e0_omega, kept.k0t, kept.log_f)
    else:
        if np.any(f <= 0.0):
            raise MaterialError("frequency must be > 0 GHz")
        grid = (f**b, eps0_omega(f), k0t_per_ghz * f, np.log(f))
    f_b, e0_omega, k0t, _ = grid
    f_d = np.power(f, d)
    n = np.sqrt(power_law_permittivity(a, f_b, c, f_d, e0_omega))  # Im eps <= 0: the principal root has Im n <= 0
    r2 = ((1.0 - n) / (1.0 + n)) ** 2
    _kept = kept = _SlabTerms(grid_key, *grid, point_key, c, f_d, n, r2, np.exp(-1j * k0t * n))
    return kept


def slab_transmission(a, b, c, d, thickness_mm, frequencies_ghz):
    """Complex normal-incidence t of a single slab in vacuum with power-law coefficients.

    Closed-form (Airy) sum of the slab's multiple reflections: with the
    refractive index n = sqrt(eps) on the decaying branch (Im n <= 0), the
    interface reflection r = (1 - n)/(1 + n) and the one-way propagation
    factor p = exp(-j k0 n t),  t = (1 - r^2) p / (1 - r^2 p^2).  Equal to
    the transfer-matrix cascade of a one-layer stack.
    """
    s = _slab(a, b, c, d, thickness_mm, frequencies_ghz)
    return (1.0 - s.r2) * s.p / (1.0 - s.r2 * s.p * s.p)


def slab_log_jacobian(a, b, c, d, thickness_mm, frequencies_ghz):
    """d log t / d(a, c, d) of :func:`slab_transmission` at fixed b, one row per frequency.

    With k0 t the one-way vacuum phase and r' = dr/dn = -2 / (1 + n)^2,
    d log t / dn = -2 r r' / (1 - r^2) - j k0 t + (2 r r' p^2 - 2 j k0 t r^2 p^2) / (1 - r^2 p^2),
    times dn/deps = 1 / (2 n) and the permittivity gradient of
    `power_law_gradient`.  It stays finite where t underflows to 0: p^2
    does too.  At the (a, c, d) of the preceding value call it reuses that
    call's n, r^2 and p.
    """
    s = _slab(a, b, c, d, thickness_mm, frequencies_ghz)
    n, r2, k0t = s.n, s.r2, s.k0t
    dr2 = -4.0 * (1.0 - n) / (1.0 + n) ** 3  # 2 r r'
    p2 = s.p * s.p
    dlog_dn = -dr2 / (1.0 - r2) - 1j * k0t + p2 * (dr2 - 2j * k0t * r2) / (1.0 - r2 * p2)
    return (dlog_dn / (2.0 * n))[:, None] * power_law_gradient(s.f_b, s.c, s.f_d, s.log_f, s.e0_omega)


def slab_transmission_db(a, b, c, d, thickness_mm, frequencies_ghz):
    """|t| in dB of a single slab with the given power-law coefficients."""
    return 20.0 * np.log10(np.abs(slab_transmission(a, b, c, d, thickness_mm, frequencies_ghz)))


_MAX_ITER = 2000  # iterations per Nelder-Mead start; residual evaluations per trust-region start
# solves per fit, starts x alias teeth of a; a magnitude start on a 121-point
# spectrum runs ~12 ms on a 2-core x86_64 VM and keeps a ~0.8 kB start record,
# so the largest fit runs ~2 min and keeps ~8 MB of records
_MAX_SOLVES = 10_000


def _group_delay_starts(spectrum: MeasuredSpectrum, thickness_mm: float, a_bounds) -> list[float]:
    """Start values of a from the group index of the S21 phase, one per alias tooth inside ``a_bounds``.

    The unwrapped phase of a slab's t falls as -2 pi f n t / c0, so its slope
    gives n_g.  On a grid too coarse to unwrap the slab phase that estimate is
    off by a whole number of teeth c0 / (t df), so every n_g + m c0 / (t df)
    whose square (n > 0) lies inside the bounds is a start; if none does, n_g^2
    clipped into the bounds is.
    """
    f_hz = spectrum.frequencies_ghz * 1e9
    t_m = thickness_mm * 1e-3
    slope = np.polyfit(f_hz, np.unwrap(np.angle(spectrum.s21)), 1)[0]
    n_g = -C0 / (2.0 * math.pi * t_m) * slope
    tooth = C0 / (t_m * float(np.median(np.diff(f_hz))))
    n_lo, n_hi = np.sqrt(a_bounds)
    if not n_hi - n_lo < _MAX_SOLVES * tooth:  # also a tooth that rounds to 0
        raise ValueError(
            f"a {thickness_mm:g} mm slab on this grid has alias teeth {tooth:.3g} apart in n: "
            f"more than {_MAX_SOLVES:,} starts of a inside its bounds"
        )
    m = np.arange(math.ceil((n_lo - n_g) / tooth), math.floor((n_hi - n_g) / tooth) + 1)
    teeth = (n_g + m * tooth) ** 2 if m.size else np.array([n_g * n_g])
    return [float(a) for a in np.clip(teeth, *a_bounds)]


def fit_permittivity(
    spectrum: MeasuredSpectrum,
    thickness_mm: float | None = None,
    bounds=DEFAULT_BOUNDS,
    n_starts: int = 16,
    b_fixed: float = 0.0,
    seed: int = 0,
    complex_objective: bool = False,
) -> FitResult:
    """Fit (a, c, d) of the slab permittivity to a measured S21 spectrum.

    The default objective is the RMS error of |S21| in dB (fixture phase is
    often unreliable), minimized by Nelder-Mead from the box midpoint and
    ``n_starts - 1`` seeded draws inside the bounds: the magnitude landscape
    has Fabry-Perot local minima, hence the multistart.

    ``complex_objective`` fits the complex-log difference log(t_model/s21)
    instead, which weighs magnitude error in nepers and phase error in
    radians evenly across a wide dynamic range and needs phase-calibrated
    data.  Its residual vector [Re, Im] goes to a bounded trust-region
    least-squares solve (``least_squares``, method "trf") with the exact
    Jacobian of `slab_log_jacobian`; no magnitude fit runs first.  The phase
    slope pins a down (see `_group_delay_starts`), and each start value of a
    is paired with the (c, d) of the same seeded starts, so a complex fit
    runs ``n_starts`` solves per alias tooth, usually one.
    Each start's ``residual`` is sqrt(2 cost / n), the RMS of |log(t_model/s21)|.

    The best successful run wins; ties resolve to the lowest start index, so
    results are reproducible for a given seed.
    ``iterations`` counts Nelder-Mead iterations or trust-region Jacobians,
    ``evaluations`` every model value and Jacobian call.  The reported
    residual is always the dB-magnitude RMS of the returned fit.  The
    unknowns need at least 3 magnitude points, or 2 complex ones.
    ``n_starts`` times the alias teeth may not exceed `_MAX_SOLVES`, and
    ``seed`` must be >= 0.  ``scipy.optimize`` is imported at the first fit,
    after the input checks, so a rejected input never loads it.
    """
    global _kept
    thickness = thickness_mm if thickness_mm is not None else spectrum.thickness_mm
    if thickness is None or not 0.0 < thickness < math.inf:  # NaN too: it would pass `thickness <= 0`
        raise ValueError(f"slab thickness must be given, finite and > 0 mm, got {thickness}")
    if n_starts < 1:
        raise ValueError(f"the start count must be >= 1, got {n_starts}")
    if seed < 0:
        raise ValueError(f"the seed must be >= 0, got {seed}")
    if complex_objective and spectrum.magnitude_only:
        raise ValueError("complex objective needs complex S21 data")
    f = spectrum.frequencies_ghz
    min_points = 2 if complex_objective else 3
    if f.size < min_points:
        kind = "complex" if complex_objective else "magnitude"
        raise ValueError(f"a {kind} fit of (a, c, d) needs at least {min_points} points, got {f.size}")
    bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
    if len(bounds) != 3 or any(lo >= hi for lo, hi in bounds):
        raise ValueError("bounds must be three (low, high) pairs for (a, c, d)")
    for name, (lo, hi) in zip("acd", bounds):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"bounds: {name} bounds must be finite, got ({lo}, {hi})")
    if bounds[0][0] <= 0.0:
        raise ValueError(f"bounds: the low bound of a must be > 0, got {bounds[0][0]}")
    if bounds[1][0] < 0.0:
        raise ValueError(f"bounds: the low bound of c must be >= 0, got {bounds[1][0]}")
    a_starts = _group_delay_starts(spectrum, thickness, bounds[0]) if complex_objective else [None]
    if n_starts * len(a_starts) > _MAX_SOLVES:
        raise ValueError(
            f"--starts: {n_starts:,} starts make {n_starts * len(a_starts):,} solves ({len(a_starts)} per start), "
            f"more than the {_MAX_SOLVES:,} a fit may run"
        )
    measured_db = spectrum.magnitude_db
    if f.size < 10 or f[-1] / f[0] < 2.0:
        warnings.warn(
            "fit input has fewer than 10 points or spans less than one octave; the estimate may be poorly conditioned",
            stacklevel=2,
        )
    from scipy.optimize import least_squares, minimize  # here, after the checks: only a fit pays its 0.6-0.7 s import

    def db_error(x):
        return slab_transmission_db(x[0], b_fixed, x[1], x[2], thickness, f) - measured_db

    def log_error(x):
        error = np.log(slab_transmission(x[0], b_fixed, x[1], x[2], thickness, f) / spectrum.s21)
        return np.concatenate([error.real, error.imag])

    level = log_error if complex_objective else db_error

    def residuals(x):
        """The level's residual vector at x, counted in ``evaluations``."""
        nonlocal evaluations
        evaluations += 1
        with np.errstate(divide="ignore"):  # t underflowing to 0 gives -inf: a failed start or a point the simplex leaves
            return level(x)

    def jacobian(x):
        """d[Re, Im] log(t_model/s21) / d(a, c, d) at x, counted in ``evaluations``."""
        nonlocal evaluations
        evaluations += 1
        jac = slab_log_jacobian(x[0], b_fixed, x[1], x[2], thickness, f)
        return np.concatenate([jac.real, jac.imag])

    def rms(x):
        r = residuals(x)
        return math.sqrt(np.add.reduce(r * r) / r.size)  # the bits of np.sqrt(np.mean(r**2)), at less cost per call

    rng = np.random.default_rng(seed)
    lo, hi = np.array(bounds).T
    starts = [0.5 * (lo + hi)]
    starts.extend(lo + (hi - lo) * rng.random(3) for _ in range(n_starts - 1))
    if complex_objective:
        starts = [np.array([a0, *x[1:]]) for a0 in a_starts for x in starts]
    iterations = evaluations = 0
    diagnostics, best = [], None
    try:
        for index, x0 in enumerate(starts):
            if not np.all(np.isfinite(residuals(x0))):  # the model underflows here; least_squares would reject the start
                x, residual, nit, success = x0, math.inf, 0, False
            elif complex_objective:
                result = least_squares(residuals, x0, jac=jacobian, method="trf", bounds=(lo, hi), max_nfev=_MAX_ITER)
                x, residual, nit, success = result.x, math.sqrt(2.0 * result.cost / f.size), result.njev, result.success
            else:
                options = {"maxiter": _MAX_ITER, "xatol": 1e-6, "fatol": 1e-10}
                result = minimize(rms, x0, method="Nelder-Mead", bounds=bounds, options=options)
                x, residual, nit, success = result.x, float(result.fun), result.nit, result.success
            iterations += nit
            entry = {"start": index, "x0": np.asarray(x0), "x": x, "residual": residual, "success": bool(success)}
            diagnostics.append(entry)
            if success and math.isfinite(residual) and (best is None or residual < best["residual"] - 1e-15):
                best = entry
        if best is None:
            return FitResult(math.nan, b_fixed, math.nan, math.nan, math.inf, iterations, False, diagnostics, evaluations)
        a, c, d = best["x"]
        db_rms = float(np.sqrt(np.mean(db_error(best["x"]) ** 2)))
        return FitResult(float(a), b_fixed, float(c), float(d), db_rms, iterations, True, diagnostics, evaluations)
    finally:
        _kept = None  # the arrays of the last evaluation go with the fit


# ---------------------------------------------------------------------------
# file readers


def _numbers(cells, columns, path, line) -> list[float]:
    """The ``columns`` of one data line as floats; a missing, non-numeric or non-finite cell names its file and line."""
    if len(cells) <= max(columns):
        raise SpectrumFormatError(f"{path}, line {line}: expected {max(columns) + 1} columns, got {len(cells)}")
    try:
        values = [float(cells[c]) for c in columns]
    except ValueError as exc:
        raise SpectrumFormatError(f"{path}, line {line}: {exc}") from None
    for c, value in zip(columns, values):
        if not math.isfinite(value):
            raise SpectrumFormatError(f"{path}, line {line}: expected a finite number, got {cells[c].strip()!r}")
    return values


def _sample(path, line, f_ghz, fmt, x, y=0.0) -> complex:
    """S21 at ``f_ghz`` from one data line's pair: ``ri`` real/imaginary, ``ma``
    magnitude/degrees, ``db`` dB/degrees (phase 0 if absent).

    A frequency outside the material model's range, or an |S21| that is 0 or
    beyond the float range, names the file and line.
    """
    lo, hi = VALID_RANGE_GHZ
    if not lo <= f_ghz <= hi:
        raise SpectrumFormatError(
            f"{path}, line {line}: frequency {f_ghz:g} GHz lies outside the material model's {lo:g}-{hi:g} GHz range"
        )
    if fmt == "ri":
        s21 = complex(x, y)
    else:
        try:
            magnitude = 10.0 ** (x / 20.0) if fmt == "db" else x
        except OverflowError:
            magnitude = math.inf
        phase = math.radians(y)
        s21 = magnitude * complex(math.cos(phase), math.sin(phase))
    if not 0.0 < abs(s21) < math.inf:
        shown = f"{x:g} dB" if fmt == "db" else f"{abs(s21):g}"
        raise SpectrumFormatError(f"{path}, line {line}: |S21| must be finite and > 0, got {shown}")
    return s21


def read_spectrum_csv(path) -> MeasuredSpectrum:
    """CSV with header freq_GHz, s21_dB[, s21_phase_deg]."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise SpectrumFormatError(f"{path}: empty file")
    header = [h.strip().lower() for h in rows[0]]
    try:
        f_col = header.index("freq_ghz")
        db_col = header.index("s21_db")
    except ValueError as exc:
        raise SpectrumFormatError(f"{path}: need columns freq_GHz and s21_dB, got {rows[0]}") from exc
    phase_col = header.index("s21_phase_deg") if "s21_phase_deg" in header else None
    columns = [f_col, db_col] if phase_col is None else [f_col, db_col, phase_col]

    freqs, values = [], []
    for line, row in enumerate(rows[1:], start=2):
        if not row or not row[0].strip():
            continue
        cells = _numbers(row, columns, path, line)
        freqs.append(cells[0])
        values.append(_sample(path, line, cells[0], "db", *cells[1:]))
    if not freqs:
        raise SpectrumFormatError(f"{path}: no data rows")
    return MeasuredSpectrum(
        np.asarray(freqs), np.asarray(values, dtype=complex), magnitude_only=phase_col is None, fixture_id=path.name
    )


_TOUCHSTONE_UNITS = {"hz": 1e-9, "khz": 1e-6, "mhz": 1e-3, "ghz": 1.0}


def read_touchstone(path) -> MeasuredSpectrum:
    """Two-port Touchstone (.s2p) reader returning the S21 trace.

    Handles MA (magnitude/angle), DB (dB/angle) and RI encodings of
    S-parameters; an option line declaring Y, Z, H or G parameters is an
    error.  Data rows follow the v1 column order S11 S21 S12 S22.
    """
    path = Path(path)
    unit_scale = 1.0
    fmt = "ma"
    freqs, values = [], []
    with path.open("r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("!", 1)[0].strip()
            if not line:
                continue
            if line.startswith("#"):
                tokens = line[1:].split()
                for token in tokens:
                    t = token.lower()
                    if t in _TOUCHSTONE_UNITS:
                        unit_scale = _TOUCHSTONE_UNITS[t]
                    elif t in ("ma", "db", "ri"):
                        fmt = t
                    elif t in ("y", "z", "h", "g"):
                        raise SpectrumFormatError(
                            f"{path}, line {line_no}: option line {line!r} declares {t.upper()}-parameters; "
                            "only S-parameters can be read"
                        )
                continue
            fields = _numbers(line.split(), range(9), path, line_no)  # a 2-port record
            freqs.append(fields[0] * unit_scale)
            values.append(_sample(path, line_no, freqs[-1], fmt, fields[3], fields[4]))  # S21 pair
    if not freqs:
        raise SpectrumFormatError(f"{path}: no data rows")
    return MeasuredSpectrum(np.asarray(freqs), np.asarray(values, dtype=complex), fixture_id=path.name)


def read_spectrum(path) -> MeasuredSpectrum:
    path = Path(path)
    if path.suffix.lower() in (".s2p", ".ts"):
        return read_touchstone(path)
    return read_spectrum_csv(path)
