"""Independent 1-D FDTD solver for normal-incidence wall transmission.

Serves as the brute-force time-domain cross-check for the transfer-matrix
solution.  Standard Yee staggering (Ex at nodes, Hy between), semi-implicit
conductivity update, total-field/scattered-field plane-wave injection with
the incident wave evaluated analytically, and first-order Mur terminations.
At the default Courant number of 1 both the vacuum propagation and the Mur
boundaries are exact in 1-D, so the source injection is leak-free.

Material dispersion is frozen: each run maps layers to (eps', sigma)
evaluated at the source centre frequency and holds them constant.  The ITU
sigma power law therefore biases a single broadband run away from the
dispersive transfer-matrix result towards the band edges;
:func:`validate_against_tmm` removes that bias by running one simulation per
comparison frequency, each with materials frozen exactly there, batched into
a single vectorized time loop.

Transmission is the ratio of discrete Fourier transforms of the transmitted
probe signal with the stack present versus a free-space reference run of
identical grid and source.  The spectrum is only reported where the source
amplitude spectrum is within 40 dB of its peak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import C0, EPS0, ETA0, MU0
from .layered_em import LayerStack, Spectrum, tmm_coefficients, Incidence, amplitude_db


class FdtdError(ValueError):
    """Invalid FDTD configuration."""


class FdtdInstabilityError(RuntimeError):
    """Field growth detected during time stepping."""


@dataclass(frozen=True)
class Fdtd1dConfig:
    """Grid, source, and probe settings for one run.

    ``source_bandwidth_ghz`` is the full width of the band in which the
    modulated-Gaussian source spectrum stays within 40 dB of its peak; the
    spectrum outside it is not trusted.  ``n_steps`` None lets the solver
    size the run from the pulse length and a ring-down allowance, then
    verifies that the transmitted signal has decayed 80 dB below its peak
    (extending the run if it has not).
    """

    dz_mm: float = 0.5
    cfl: float = 1.0
    source_center_ghz: float = 4.5
    source_bandwidth_ghz: float = 7.0
    n_steps: int | None = None
    pad_mm: float = 60.0
    probe_offset_mm: float = 20.0
    frequencies_ghz: np.ndarray | None = None
    min_cells_per_wavelength: float = 20.0

    def __post_init__(self):
        if self.dz_mm <= 0.0:
            raise FdtdError("spatial step must be > 0")
        if not 0.0 < self.cfl <= 1.0:
            raise FdtdError(f"CFL safety factor must be in (0, 1], got {self.cfl}")
        if self.source_center_ghz <= 0.0 or self.source_bandwidth_ghz <= 0.0:
            raise FdtdError("source centre and bandwidth must be > 0")
        if self.source_center_ghz - 0.5 * self.source_bandwidth_ghz <= 0.0:
            raise FdtdError("source band must stay above 0 GHz")
        if self.n_steps is not None and self.n_steps < 100:
            raise FdtdError("n_steps must be at least 100")

    @property
    def sigma_t(self) -> float:
        """Gaussian-envelope sigma for the -40 dB bandwidth, seconds."""
        half_bw_hz = 0.5 * self.source_bandwidth_ghz * 1e9
        return math.sqrt(math.log(100.0) / 2.0) / (math.pi * half_bw_hz)

    @property
    def valid_band_ghz(self) -> tuple[float, float]:
        return (
            self.source_center_ghz - 0.5 * self.source_bandwidth_ghz,
            self.source_center_ghz + 0.5 * self.source_bandwidth_ghz,
        )


def _frozen_materials(stack: LayerStack, f_ghz: float):
    """(eps', sigma) per layer at the freeze frequency.

    Fixed-permittivity materials get the equivalent conductivity
    sigma = eps'' * eps0 * omega at the same frequency.
    """
    omega = 2.0 * math.pi * f_ghz * 1e9
    pairs = []
    for layer in stack.layers:
        eps = layer.material.permittivity_at(f_ghz)
        pairs.append((eps.eps_real, eps.eps_imag * EPS0 * omega))
    return pairs


@dataclass
class _Layout:
    n_nodes: int
    i_tfsf: int
    i_reflect: int
    i_stack: int
    i_transmit: int
    dz: float


def _build_layout(stack: LayerStack, cfg: Fdtd1dConfig) -> _Layout:
    dz = cfg.dz_mm * 1e-3
    pad = max(int(round(cfg.pad_mm / cfg.dz_mm)), 20)
    probe = max(int(round(cfg.probe_offset_mm / cfg.dz_mm)), 4)
    stack_cells = [int(round(layer.thickness_mm / cfg.dz_mm)) for layer in stack.layers]
    if any(c < 1 for c in stack_cells):
        raise FdtdError("spatial step too coarse to resolve a layer")
    i_tfsf = pad
    i_reflect = pad - probe // 2 - 2
    i_stack = i_tfsf + probe
    i_transmit = i_stack + sum(stack_cells) + probe
    n_nodes = i_transmit + pad
    return _Layout(n_nodes, i_tfsf, i_reflect, i_stack, i_transmit, dz)


def _material_arrays(stack: LayerStack, cfg: Fdtd1dConfig, layout: _Layout, freeze_ghz):
    """eps'/sigma on E-nodes for each freeze frequency.

    Node i owns the half-cells [i-1/2, i+1/2]; layer interfaces land exactly
    on nodes, whose properties become the two-sided average (the standard
    second-order interface treatment).
    """
    freeze = np.atleast_1d(np.asarray(freeze_ghz, dtype=float))
    eps = np.ones((len(freeze), layout.n_nodes))
    sig = np.zeros((len(freeze), layout.n_nodes))
    for row, f in enumerate(freeze):
        eps_half = np.ones((2, layout.n_nodes))
        sig_half = np.zeros((2, layout.n_nodes))
        pos = layout.i_stack
        for layer, (eps_r, sigma) in zip(stack.layers, _frozen_materials(stack, f)):
            cells = int(round(layer.thickness_mm / cfg.dz_mm))
            eps_half[1, pos: pos + cells] = eps_r          # right half-cells
            eps_half[0, pos + 1: pos + cells + 1] = eps_r  # left half-cells
            sig_half[1, pos: pos + cells] = sigma
            sig_half[0, pos + 1: pos + cells + 1] = sigma
            pos += cells
        eps[row] = 0.5 * (eps_half[0] + eps_half[1])
        sig[row] = 0.5 * (sig_half[0] + sig_half[1])
    return eps, sig


def _source(cfg: Fdtd1dConfig, t):
    """Modulated Gaussian pulse; t may be an ndarray."""
    t0 = 4.5 * cfg.sigma_t
    tt = t - t0
    return np.exp(-0.5 * (tt / cfg.sigma_t) ** 2) * np.cos(2.0 * math.pi * cfg.source_center_ghz * 1e9 * tt)


def _auto_steps(stack: LayerStack, cfg: Fdtd1dConfig, layout: _Layout, dt: float) -> int:
    optical_m = layout.n_nodes * layout.dz
    for layer in stack.layers:
        eps = layer.material.permittivity_at(cfg.source_center_ghz).eps_real
        optical_m += (math.sqrt(eps) - 1.0) * layer.thickness_mm * 1e-3
    stack_optical = sum(
        math.sqrt(layer.material.permittivity_at(cfg.source_center_ghz).eps_real) * layer.thickness_mm * 1e-3
        for layer in stack.layers
    )
    t_end = 9.0 * cfg.sigma_t + optical_m / C0 + 10e-9 + 12.0 * stack_optical / C0
    return int(math.ceil(t_end / dt))


def _time_step_batch(eps, sig, layout: _Layout, cfg: Fdtd1dConfig, n_steps: int):
    """Vectorized leapfrog over (n_runs, n_nodes) states; returns probe traces."""
    dz = layout.dz
    dt = cfg.cfl * dz / C0
    n_runs, n_nodes = eps.shape

    eps_abs = eps * EPS0
    ca = (eps_abs / dt - 0.5 * sig) / (eps_abs / dt + 0.5 * sig)
    cb = (1.0 / dz) / (eps_abs / dt + 0.5 * sig)
    ch = dt / (MU0 * dz)

    ex = np.zeros((n_runs, n_nodes))
    hy = np.zeros((n_runs, n_nodes - 1))

    mur = (C0 * dt - dz) / (C0 * dt + dz)

    trans = np.zeros((n_runs, n_steps))
    refl = np.zeros((n_runs, n_steps))

    i_tfsf = layout.i_tfsf
    z_tfsf = 0.0  # incident wave referenced to the TFSF plane
    t_n = 0.0

    peak_guard = 50.0
    for n in range(n_steps):
        # H update, then TFSF correction for the scattered-field side
        hy -= ch * (ex[:, 1:] - ex[:, :-1])
        hy[:, i_tfsf - 1] += ch * _source(cfg, t_n - z_tfsf / C0)

        # E update on interior nodes, then TFSF correction
        ex_left = ex[:, 0].copy()
        ex_right = ex[:, -1].copy()
        ex_left_in = ex[:, 1].copy()
        ex_right_in = ex[:, -2].copy()
        ex[:, 1:-1] = ca[:, 1:-1] * ex[:, 1:-1] - cb[:, 1:-1] * (hy[:, 1:] - hy[:, :-1])
        t_half = t_n + 0.5 * dt
        ex[:, i_tfsf] += cb[:, i_tfsf] * _source(cfg, t_half + 0.5 * dz / C0) / ETA0

        # first-order Mur terminations (boundaries sit in vacuum)
        ex[:, 0] = ex_left_in + mur * (ex[:, 1] - ex_left)
        ex[:, -1] = ex_right_in + mur * (ex[:, -2] - ex_right)

        trans[:, n] = ex[:, layout.i_transmit]
        refl[:, n] = ex[:, layout.i_reflect]
        t_n += dt

        if n % 2000 == 1999:
            peak = float(np.max(np.abs(ex)))
            if not math.isfinite(peak) or peak > peak_guard:
                raise FdtdInstabilityError(
                    f"field grew to {peak:.3g} at step {n}; check the CFL factor (cfl={cfg.cfl}, dz={cfg.dz_mm} mm)"
                )
    return trans, refl, dt


def _dft(signal, dt, f_ghz):
    """DFT of probe traces at arbitrary frequencies; signal (n_runs, n_steps)."""
    f = np.atleast_1d(np.asarray(f_ghz, dtype=float)) * 1e9
    n = signal.shape[-1]
    t = np.arange(n) * dt
    kernel = np.exp(-2j * math.pi * np.outer(f, t))
    return signal @ kernel.T if signal.ndim == 1 else np.einsum("rn,fn->rf", signal, kernel)


def _decayed(trace, threshold_db=-80.0):
    peak = np.max(np.abs(trace), axis=-1)
    tail = np.max(np.abs(trace[..., -max(trace.shape[-1] // 20, 10):]), axis=-1)
    return np.all(tail <= peak * 10.0 ** (threshold_db / 20.0) + 1e-300)


def _run_until_decayed(eps, sig, layout: _Layout, cfg: Fdtd1dConfig, n_steps: int):
    """Time loop extended 1.5x, at most twice, until the transmitted traces have decayed.

    A fixed ``cfg.n_steps`` runs once.  Returns the traces, dt, the step
    count actually run and whether the traces decayed.
    """
    for attempt in range(3):
        trans, refl, dt = _time_step_batch(eps, sig, layout, cfg, n_steps)
        decayed = bool(_decayed(trans))
        if decayed or cfg.n_steps is not None or attempt == 2:
            return trans, refl, dt, n_steps, decayed
        n_steps = int(n_steps * 1.5)


def _check_resolution(stack: LayerStack, cfg: Fdtd1dConfig):
    """Highest frequency the grid resolves with the configured cell count."""
    eps_max = max(
        layer.material.permittivity_at(cfg.source_center_ghz).eps_real for layer in stack.layers
    )
    return C0 / (cfg.min_cells_per_wavelength * cfg.dz_mm * 1e-3 * math.sqrt(eps_max)) / 1e9


def run_fdtd(stack: LayerStack, cfg: Fdtd1dConfig = Fdtd1dConfig()) -> Spectrum:
    """Normal-incidence transmission spectrum over the source's valid band.

    Material dispersion is frozen at ``cfg.source_center_ghz``; the result's
    ``meta`` records the freeze frequency, the reported band, and whether the
    grid truncated it.
    """
    layout = _build_layout(stack, cfg)
    f_lo, f_hi = cfg.valid_band_ghz
    f_resolved = _check_resolution(stack, cfg)
    truncated = f_resolved < f_hi
    f_hi = min(f_hi, f_resolved)
    if f_hi <= f_lo:
        raise FdtdError(
            f"grid resolves only up to {f_resolved:.2f} GHz; below the requested band start {f_lo:.2f} GHz"
        )
    if cfg.frequencies_ghz is not None:
        freqs = np.asarray(cfg.frequencies_ghz, dtype=float)
        if np.any((freqs < f_lo - 1e-9) | (freqs > f_hi + 1e-9)):
            raise FdtdError(f"requested frequencies outside the valid band [{f_lo:.2f}, {f_hi:.2f}] GHz")
    else:
        freqs = np.arange(math.ceil(f_lo / 0.05) * 0.05, f_hi + 1e-9, 0.05)

    eps, sig = _material_arrays(stack, cfg, layout, cfg.source_center_ghz)
    eps_ref = np.ones_like(eps)
    sig_ref = np.zeros_like(sig)

    dt = cfg.cfl * layout.dz / C0
    n_steps = cfg.n_steps or _auto_steps(stack, cfg, layout, dt)
    trans, refl, dt, n_steps, decayed = _run_until_decayed(eps, sig, layout, cfg, n_steps)
    trans_ref, _, _ = _time_step_batch(eps_ref, sig_ref, layout, cfg, n_steps)

    spec_dut = _dft(trans, dt, freqs)[0]
    spec_ref = _dft(trans_ref, dt, freqs)[0]
    spec_scat = _dft(refl, dt, freqs)[0]
    t = spec_dut / spec_ref
    r = spec_scat / spec_ref  # magnitude-faithful; phase referenced to the transmit probe

    return Spectrum(
        freqs,
        t,
        r,
        polarization="TE",
        theta_deg=0.0,
        meta={
            "freeze_ghz": cfg.source_center_ghz,
            "valid_band_ghz": (f_lo, f_hi),
            "band_truncated": truncated,
            "n_steps": n_steps,
            "dt_s": dt,
            "decayed": decayed,
        },
    )


def energy_budget(stack: LayerStack, cfg: Fdtd1dConfig = Fdtd1dConfig()) -> dict:
    """Band-limited |T|^2, |R|^2 and inferred absorption for passivity checks."""
    spectrum = run_fdtd(stack, cfg)
    t2 = np.abs(spectrum.t) ** 2
    r2 = np.abs(spectrum.r) ** 2
    return {
        "frequencies_ghz": spectrum.frequencies_ghz,
        "transmitted": t2,
        "reflected": r2,
        "absorbed": 1.0 - t2 - r2,
    }


def validate_against_tmm(
    stack: LayerStack,
    f_start_ghz: float = 1.0,
    f_stop_ghz: float = 8.0,
    step_ghz: float = 0.1,
    cfg: Fdtd1dConfig = Fdtd1dConfig(),
) -> dict:
    """Side-by-side TMM vs FDTD table on a frequency grid.

    Runs one simulation per grid point with the material response frozen at
    that point (batched into a single time loop), so the comparison carries
    no dispersion-freezing bias; the residual difference is the
    discretization error of the oracle.
    """
    freqs = np.round(np.arange(f_start_ghz, f_stop_ghz + 1e-9, step_ghz), 9)
    center = 0.5 * (f_start_ghz + f_stop_ghz)
    bandwidth = (f_stop_ghz - f_start_ghz) + 2.0
    if center - 0.5 * bandwidth <= 0.0:
        bandwidth = 2.0 * center - 0.1
    run_cfg = replace(cfg, source_center_ghz=center, source_bandwidth_ghz=bandwidth, frequencies_ghz=None)

    f_resolved = _check_resolution(stack, run_cfg)
    if f_resolved < f_stop_ghz:
        raise FdtdError(f"dz={cfg.dz_mm} mm resolves only {f_resolved:.2f} GHz; reduce the spatial step")

    layout = _build_layout(stack, run_cfg)
    eps, sig = _material_arrays(stack, run_cfg, layout, freqs)

    dt = run_cfg.cfl * layout.dz / C0
    n_steps = run_cfg.n_steps or _auto_steps(stack, run_cfg, layout, dt)
    trans, _, dt, n_steps, decayed = _run_until_decayed(eps, sig, layout, run_cfg, n_steps)
    trans_ref, _, _ = _time_step_batch(np.ones((1, layout.n_nodes)), np.zeros((1, layout.n_nodes)), layout, run_cfg, n_steps)

    ref = _dft(trans_ref, dt, freqs)[0]
    # run k is only read at its own freeze frequency freqs[k]
    t_axis = np.arange(n_steps) * dt
    kernel = np.exp(-2j * math.pi * np.outer(freqs * 1e9, t_axis))
    fdtd_t = np.einsum("kn,kn->k", trans, kernel) / ref

    tmm_t = np.array([tmm_coefficients(stack, Incidence(f, 0.0, "TE"))[0] for f in freqs])
    fdtd_db = amplitude_db(fdtd_t)
    tmm_db = amplitude_db(tmm_t)
    delta = fdtd_db - tmm_db
    return {
        "frequencies_ghz": freqs,
        "tmm_db": tmm_db,
        "fdtd_db": fdtd_db,
        "delta_db": delta,
        "max_abs_delta_db": float(np.max(np.abs(delta))),
        "n_steps": n_steps,
        "decayed": decayed,
    }
