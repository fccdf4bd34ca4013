"""Independent 1-D FDTD solver for normal-incidence wall transmission.

Serves as the brute-force time-domain cross-check for the transfer-matrix
solution.  Standard Yee staggering (Ex at nodes, Hy between), semi-implicit
conductivity update, total-field/scattered-field plane-wave injection with
the incident wave evaluated analytically, and first-order Mur terminations.
The time step is the magic one, dt = dz / c0: vacuum propagation is exact
in 1-D, the Mur update is an exact one-cell shift, and the source injection
is leak-free.  It is stable only where eps' >= 1, so a layer below that is
rejected before any time stepping.  Because vacuum carries a wave one node
per step unchanged, a wider vacuum gap would only delay the transmit trace
of the stack run and the free-space reference alike, a delay their
transform ratio cancels.  So the grid is the stack plus `_VACUUM_NODES`
nodes in each gap: Mur end to source plane, source plane to stack, stack to
probe and probe to Mur end.

A time-domain run holds each layer's (eps', sigma) constant, so
:func:`validate_against_tmm` runs one simulation per comparison frequency,
each with the materials frozen exactly there, batched into a single
vectorized time loop.  The comparison therefore carries no
dispersion-freezing bias.  The source pulse is derived from the compared
band: centred on it, and within 40 dB of its peak to 1 GHz beyond either
end, or to just above 0 GHz for a band that starts lower.

Transmission at a comparison frequency is the ratio of discrete Fourier
transforms of the transmit-probe signal with the stack present versus a
free-space reference run of identical grid and source.  The reference is the
last (vacuum) row of the batch, so a single time loop serves both.
The transform is streamed: each block of `_DFT_BLOCK` steps is transformed
as it is stepped, so no array spans all the steps of a run.

The time loop holds the fields node-major, (n_nodes, n_runs), so every
shifted slice is one contiguous block, and updates them in place through
preallocated difference buffers.  Both incident waveforms, and the E
correction of every run, are evaluated once per call, step n at time
n * dt, and each node sees the same operations in the same order, so the
traces are bit-identical to a row-major loop with the source evaluated
every step.  A run that has not decayed is extended from its saved fields
rather than restarted.  A field that grows without bound raises
`FdtdError`, like every other fault here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C0, EPS0, ETA0, MU0
from .layered_em import LayerStack, _coefficients, amplitude_db
from .materials import VALID_RANGE_GHZ


class FdtdError(ValueError):
    """Invalid FDTD configuration, or field growth detected during time stepping."""


# vacuum nodes in each of the grid's four gaps; the module docstring says why
# so few suffice
_VACUUM_NODES = 4
# grid cells per wavelength in the densest layer at the top of the band
_CELLS_PER_WAVELENGTH = 20.0
# time steps per block of the streamed transform, which bounds its kernel at
# frequencies x _DFT_BLOCK complex values and its traces at runs x _DFT_BLOCK
_DFT_BLOCK = 2048
# comparison points per call, the 0.01 GHz grid of the default 1-8 GHz band;
# on the default wall its fields, coefficients and block kernel peak at
# ~113 MB of traced memory, and the call runs ~80 s on a 2-core x86_64 VM
_MAX_POINTS = 701
# runs x nodes x initial steps per call, which grows as 1/dz^2; it admits the
# largest run `_MAX_POINTS` allows at the default dz on the default wall:
# 701 points on 1:1.0007 GHz, the longest pulse, 702 x 896 x 28,807 = 1.81e10
_MAX_NODE_STEPS = 20_000_000_000


@dataclass(frozen=True)
class Fdtd1dConfig:
    """Grid settings of the oracle runs; the time step is fixed at dz / c0.

    The solver sizes each run from the pulse length and a ring-down
    allowance, then verifies that the transmitted signal has decayed 80 dB
    below its peak, extending the run if it has not.
    """

    dz_mm: float = 0.5

    def __post_init__(self):
        if self.dz_mm <= 0.0:
            raise FdtdError("spatial step must be > 0")


@dataclass(frozen=True)
class _Pulse:
    """Modulated-Gaussian source; its amplitude spectrum stays within 40 dB
    of the peak over the full width ``bandwidth_ghz`` around ``center_ghz``."""

    center_ghz: float
    bandwidth_ghz: float

    @classmethod
    def covering(cls, f_start_ghz: float, f_stop_ghz: float) -> "_Pulse":
        """The pulse for a comparison band: 1 GHz margin either side, kept above 0 GHz."""
        center = 0.5 * (f_start_ghz + f_stop_ghz)
        bandwidth = (f_stop_ghz - f_start_ghz) + 2.0
        if center - 0.5 * bandwidth <= 0.0:
            bandwidth = 2.0 * center - 0.1
        return cls(center, bandwidth)

    @property
    def sigma_t(self) -> float:
        """Gaussian-envelope sigma for the -40 dB bandwidth, seconds."""
        half_bw_hz = 0.5 * self.bandwidth_ghz * 1e9
        return math.sqrt(math.log(100.0) / 2.0) / (math.pi * half_bw_hz)


@dataclass
class _Layout:
    n_nodes: int
    i_tfsf: int
    i_stack: int
    i_transmit: int
    dz: float
    dt: float  # the magic time step, dz / c0
    stack_cells: list[int]  # cells per layer


def _build_layout(stack: LayerStack, cfg: Fdtd1dConfig) -> _Layout:
    dz = cfg.dz_mm * 1e-3
    stack_cells = [int(round(layer.thickness_mm / cfg.dz_mm)) for layer in stack.layers]
    if any(c < 1 for c in stack_cells):
        raise FdtdError("spatial step too coarse to resolve a layer")
    i_tfsf = _VACUUM_NODES
    i_stack = i_tfsf + _VACUUM_NODES
    i_transmit = i_stack + sum(stack_cells) + _VACUUM_NODES
    n_nodes = i_transmit + _VACUUM_NODES
    return _Layout(n_nodes, i_tfsf, i_stack, i_transmit, dz, dz / C0, stack_cells)


def _material_arrays(stack: LayerStack, layout: _Layout, freeze_ghz):
    """eps'/sigma on E-nodes: one run per freeze frequency, then the
    free-space reference run (the same grid and source, no stack).

    Each layer is held at (eps', sigma) with sigma = eps'' * eps0 * omega,
    the conductivity that gives its eps'' at that frequency.  Column j of
    the padded half-cell arrays holds the cell [j-1, j], so node i owns the
    half-cells of columns i and i+1; layer interfaces land exactly on
    nodes, whose properties become the two-sided average (the standard
    second-order interface treatment).  The last row stays vacuum.
    """
    freeze = np.atleast_1d(np.asarray(freeze_ghz, dtype=float))
    omega = 2.0 * math.pi * freeze * 1e9
    eps_cells = np.ones((len(freeze) + 1, layout.n_nodes + 1))
    sig_cells = np.zeros((len(freeze) + 1, layout.n_nodes + 1))
    pos = layout.i_stack + 1
    for k, (layer, cells) in enumerate(zip(stack.layers, layout.stack_cells)):
        eps = layer.material.complex_permittivity(freeze)
        i = int(np.argmin(eps.real))
        if eps.real[i] < 1.0:
            raise FdtdError(
                f"layer {k + 1} ({layer.material.name}) has eps' = {eps.real[i]:.3g} at {freeze[i]:g} GHz; "
                "the FDTD time step dz / c0 is stable only for eps' >= 1"
            )
        eps_cells[:-1, pos: pos + cells] = eps.real[:, None]
        sig_cells[:-1, pos: pos + cells] = (-eps.imag * EPS0 * omega)[:, None]
        pos += cells
    return 0.5 * (eps_cells[:, :-1] + eps_cells[:, 1:]), 0.5 * (sig_cells[:, :-1] + sig_cells[:, 1:])


def _source(pulse: _Pulse, t):
    """Modulated Gaussian pulse; t may be an ndarray."""
    t0 = 4.5 * pulse.sigma_t
    tt = t - t0
    return np.exp(-0.5 * (tt / pulse.sigma_t) ** 2) * np.cos(2.0 * math.pi * pulse.center_ghz * 1e9 * tt)


def _auto_steps(stack: LayerStack, eps_center, pulse: _Pulse, layout: _Layout) -> int:
    """Steps for the pulse, its passage through the grid and a ring-down allowance.

    ``eps_center`` holds each layer's eps' at the pulse centre.
    """
    stack_optical = sum(math.sqrt(eps) * layer.thickness_mm * 1e-3 for layer, eps in zip(stack.layers, eps_center))
    optical_m = layout.n_nodes * layout.dz - stack.depth_mm * 1e-3 + stack_optical
    t_end = 9.0 * pulse.sigma_t + optical_m / C0 + 10e-9 + 12.0 * stack_optical / C0
    return int(math.ceil(t_end / layout.dt))


@dataclass
class _Fields:
    """Leapfrog state between `_time_step_batch` calls, node-major.

    ``step`` counts the steps run; the source is sampled at step * dt, so a
    continued run sees the same source samples as one run of the combined
    length.
    """

    ex: np.ndarray  # (n_nodes, n_runs)
    hy: np.ndarray  # (n_nodes - 1, n_runs)
    step: int = 0

    @classmethod
    def zeros(cls, n_nodes: int, n_runs: int) -> "_Fields":
        return cls(np.zeros((n_nodes, n_runs)), np.zeros((n_nodes - 1, n_runs)))


def _time_step_batch(eps, sig, layout: _Layout, pulse: _Pulse, n_steps: int, fields=None):
    """Advance ``n_steps`` leapfrog steps of every run; returns the transmit trace.

    ``eps``/``sig`` are (n_runs, n_nodes) and the trace is (n_runs,
    n_steps).  ``fields`` carries the state of an earlier call on, and
    starts from rest when None.  The state is held node-major, (n_nodes,
    n_runs), so each shifted slice is one contiguous block, and updated in
    place.
    """
    dz, dt = layout.dz, layout.dt
    n_runs, n_nodes = eps.shape
    fields = _Fields.zeros(n_nodes, n_runs) if fields is None else fields

    eps_abs = np.ascontiguousarray(eps.T) * EPS0
    sig = np.ascontiguousarray(sig.T)
    ca = (eps_abs / dt - 0.5 * sig) / (eps_abs / dt + 0.5 * sig)
    cb = (1.0 / dz) / (eps_abs / dt + 0.5 * sig)
    ch = dt / (MU0 * dz)

    # the incident waveforms at every step n, sampled at n * dt
    t = np.arange(fields.step, fields.step + n_steps) * dt
    h_inc = ch * _source(pulse, t)  # incident wave referenced to the TFSF plane
    e_inc = _source(pulse, (t + 0.5 * dt) + 0.5 * dz / C0)

    ex, hy = fields.ex, fields.hy
    ex_hi, ex_lo, hy_hi, hy_lo = ex[1:], ex[:-1], hy[1:], hy[:-1]
    ex_first, ex_second, ex_penult, ex_last = ex[0], ex[1], ex[-2], ex[-1]
    ex_in, ca_in, cb_in = ex[1:-1], ca[1:-1], cb[1:-1]
    i_tfsf = layout.i_tfsf
    hy_tfsf, ex_tfsf = hy[i_tfsf - 1], ex[i_tfsf]
    inc = np.multiply.outer(e_inc, cb[i_tfsf])  # the E correction of every run at every step
    inc /= ETA0
    d_ex = np.empty_like(hy)
    d_hy = np.empty_like(ex_in)
    trace = np.empty((n_steps, n_runs))
    ex_transmit = ex[layout.i_transmit]

    peak_guard = 50.0
    for n in range(n_steps):
        # H update, then TFSF correction for the scattered-field side
        np.subtract(ex_hi, ex_lo, out=d_ex)
        d_ex *= ch
        hy -= d_ex
        hy_tfsf += h_inc[n]

        # Mur terminations (boundaries sit in vacuum): at dt = dz / c0 each
        # end node takes its neighbour's value from before the E update
        ex_first[...] = ex_second
        ex_last[...] = ex_penult

        # E update on interior nodes, then TFSF correction
        np.subtract(hy_hi, hy_lo, out=d_hy)
        d_hy *= cb_in
        ex_in *= ca_in
        ex_in -= d_hy
        ex_tfsf += inc[n]

        trace[n] = ex_transmit

        if (fields.step + n) % 2000 == 1999:
            peak = float(np.max(np.abs(ex)))
            if not math.isfinite(peak) or peak > peak_guard:
                raise FdtdError(f"field grew to {peak:.3g} at step {fields.step + n}; the time loop is unstable")
    fields.step += n_steps
    return trace.T


def _add_transform(device, reference, block, dt, f_ghz, first):
    """The sums plus the transform of one block, its steps counted from ``first``:
    run k at f_ghz[k], the free-space reference (the last run) at every f_ghz."""
    f = np.asarray(f_ghz, dtype=float) * 1e9
    kernel = np.zeros((f.size, block.shape[-1]), dtype=complex)  # exp(-2j pi f t) on (frequency, step)
    np.multiply.outer(f, np.arange(first, first + block.shape[-1]) * dt, out=kernel.imag)
    kernel.imag *= -2.0 * math.pi
    np.exp(kernel, out=kernel)
    return device + np.einsum("kn,kn->k", block[:-1], kernel), reference + np.einsum("n,fn->f", block[-1], kernel)


def _decayed(peak, tail):
    """Whether every run's tail maximum lies 80 dB below its peak."""
    return bool(np.all(tail <= peak * 1e-4 + 1e-300))


def _run_until_decayed(eps, sig, layout: _Layout, pulse: _Pulse, n_steps: int, f_ghz):
    """Time loop extended 1.5x, at most twice, until the transmit traces have decayed.

    Steps run in blocks aligned to multiples of `_DFT_BLOCK`, each
    transformed once complete, so the sums equal one run's of the final
    length.  Each run keeps its peak and the maximum over its last
    ``max(n // 20, 10)`` steps; an extension's tail window starts after the
    steps already run, so both are exact.  Returns run k's transform over
    the reference's, the steps run and whether the traces decayed.
    """
    fields = _Fields.zeros(layout.n_nodes, len(eps))
    block = np.empty((len(eps), _DFT_BLOCK))
    device = reference = 0.0
    peak = np.zeros(len(eps))
    for attempt in range(3):
        tail_start = n_steps - max(n_steps // 20, 10)
        tail = np.zeros(len(eps))
        while fields.step < n_steps:
            first = fields.step
            last = min(n_steps, (first // _DFT_BLOCK + 1) * _DFT_BLOCK)
            trace = _time_step_batch(eps, sig, layout, pulse, last - first, fields)
            block[:, first % _DFT_BLOCK: first % _DFT_BLOCK + last - first] = trace
            magnitude = np.abs(trace)
            np.maximum(peak, np.max(magnitude, axis=-1), out=peak)
            if last > tail_start:
                np.maximum(tail, np.max(magnitude[:, max(tail_start - first, 0):], axis=-1), out=tail)
            if last % _DFT_BLOCK == 0:
                device, reference = _add_transform(device, reference, block, layout.dt, f_ghz, last - _DFT_BLOCK)
        decayed = _decayed(peak, tail)
        if decayed or attempt == 2:
            break
        n_steps = int(n_steps * 1.5)
    partial = n_steps % _DFT_BLOCK
    if partial:
        device, reference = _add_transform(device, reference, block[:, :partial], layout.dt, f_ghz, n_steps - partial)
    return device / reference, n_steps, decayed


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
    discretization error of the oracle.  A band outside the material
    model's `VALID_RANGE_GHZ`, a grid of more than `_MAX_POINTS` points, a
    run of more than `_MAX_NODE_STEPS` node-steps, or a layer with eps' < 1
    at a grid point is rejected before any time stepping.
    """
    if not step_ghz > 0.0:
        raise FdtdError(f"comparison step must be > 0 GHz, got {step_ghz}")
    lo, hi = VALID_RANGE_GHZ
    if not lo <= f_start_ghz <= f_stop_ghz <= hi:
        raise FdtdError(f"comparison band {f_start_ghz:g}:{f_stop_ghz:g} GHz needs {lo:g} <= start <= stop <= {hi:g} GHz")
    n_points = (f_stop_ghz + 1e-9 - f_start_ghz) / step_ghz  # np.arange below makes ceil(n_points)
    if n_points > _MAX_POINTS:
        counted = math.ceil(n_points) if math.isfinite(n_points) else n_points
        raise FdtdError(
            f"comparison grid {f_start_ghz:g}:{f_stop_ghz:g} GHz every {step_ghz:g} GHz has {counted} points, "
            f"more than {_MAX_POINTS}; widen the step"
        )
    freqs = np.round(np.arange(f_start_ghz, f_stop_ghz + 1e-9, step_ghz), 9)
    pulse = _Pulse.covering(f_start_ghz, f_stop_ghz)

    # eps' of each layer at the pulse centre sizes the grid check and the run
    eps_center = [float(layer.material.complex_permittivity(pulse.center_ghz).real) for layer in stack.layers]
    f_resolved = C0 / (_CELLS_PER_WAVELENGTH * cfg.dz_mm * 1e-3 * math.sqrt(max(eps_center))) / 1e9
    if f_resolved < f_stop_ghz:
        raise FdtdError(f"dz={cfg.dz_mm} mm resolves only {f_resolved:.2f} GHz; reduce the spatial step")

    layout = _build_layout(stack, cfg)
    n_steps = _auto_steps(stack, eps_center, pulse, layout)
    n_runs = freqs.size + 1  # the free-space reference is one more run
    node_steps = n_runs * layout.n_nodes * n_steps
    if node_steps > _MAX_NODE_STEPS:
        raise FdtdError(
            f"FDTD run of {node_steps:,} node-steps ({n_runs} runs x {layout.n_nodes:,} "
            f"nodes x {n_steps:,} steps) exceeds the {_MAX_NODE_STEPS:,}-node-step limit; "
            "use a coarser dz or a wider step"
        )
    eps, sig = _material_arrays(stack, layout, freqs)
    fdtd_t, n_steps, decayed = _run_until_decayed(eps, sig, layout, pulse, n_steps, freqs)

    tmm_t, _ = _coefficients(stack, freqs, 0.0, "TE")
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
