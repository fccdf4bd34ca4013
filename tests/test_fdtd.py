import math

import numpy as np
import pytest

from signalwall import fdtd
from signalwall.constants import C0, EPS0, ETA0, MU0
from signalwall.fdtd import Fdtd1dConfig, FdtdError, validate_against_tmm
from signalwall.layered_em import Layer, LayerStack
from signalwall.materials import FixedPermittivity, Material, PermittivityModel


@pytest.fixture(scope="module")
def glass_slab():
    return LayerStack([Layer(Material("glass", 1.0, FixedPermittivity(4.0)), 48.0)])


def test_vacuum_stack_is_transparent(db):
    stack = LayerStack([Layer(db.get("air"), 100.0)])
    table = validate_against_tmm(stack, 1.0, 8.0, 0.5)
    assert np.max(np.abs(table["fdtd_db"])) < 0.01
    assert table["decayed"]


def test_lossless_slab_matches_tmm(glass_slab):
    table = validate_against_tmm(glass_slab, 1.0, 8.0, 0.5)
    assert table["max_abs_delta_db"] < 0.3


def test_bare_wall_at_3p5_ghz(wall):
    table = validate_against_tmm(wall, 3.5, 3.5, 0.1)
    assert -table["fdtd_db"][0] == pytest.approx(23.2, abs=0.5)


def test_validation_transform_memory_is_bounded(wall):
    # a one-piece (frequencies x steps) DFT kernel and a full-trace |x| copy
    # peaked at 10.7 MB on this call, and whole transmit traces at 5.8 MB;
    # the streamed transform reads 2.8 MB
    import tracemalloc

    tracemalloc.start()
    try:
        validate_against_tmm(wall, 1.0, 8.0, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


def test_determinism_bit_identical(glass_slab):
    first = validate_against_tmm(glass_slab, 2.0, 6.0, 0.5)
    second = validate_against_tmm(glass_slab, 2.0, 6.0, 0.5)
    assert np.array_equal(first["fdtd_db"], second["fdtd_db"])
    assert first["n_steps"] == second["n_steps"]


def test_grid_refinement_convergence(glass_slab):
    # second order: halving dz cuts the error about fourfold (3.97 measured)
    errors = {}
    for dz in (1.0, 0.5):
        table = validate_against_tmm(glass_slab, 4.9, 5.1, 0.1, Fdtd1dConfig(dz_mm=dz))
        i = int(np.argmin(np.abs(table["frequencies_ghz"] - 5.0)))
        errors[dz] = abs(table["delta_db"][i])
    assert errors[1.0] >= 3.5 * errors[0.5]


def test_unresolvable_band_raises(glass_slab, monkeypatch):
    monkeypatch.setattr(fdtd, "_time_step_batch", None)  # raises before any time stepping
    with pytest.raises(FdtdError, match="resolves only"):
        validate_against_tmm(glass_slab, 4.0, 8.0, 1.0, Fdtd1dConfig(dz_mm=8.0))


def test_point_limit_is_checked_before_time_stepping(wall, monkeypatch):
    def time_loop(*args, **kwargs):
        raise RuntimeError("time loop reached")

    monkeypatch.setattr(fdtd, "_time_step_batch", time_loop)
    with pytest.raises(FdtdError, match="has 702 points, more than 701"):
        validate_against_tmm(wall, 1.0, 8.01, 0.01)
    with pytest.raises(FdtdError, match="more than 701; widen the step"):
        validate_against_tmm(wall, 1.0, 8.0, 1e-12)  # 7e12 points: counted, never allocated
    with pytest.raises(FdtdError, match="has inf points"):
        validate_against_tmm(wall, 1.0, 8.0, 1e-320)  # a count past the float range
    with pytest.raises(RuntimeError, match="time loop reached"):
        validate_against_tmm(wall, 1.0, 8.0, 0.01)  # 701 points, the limit


@pytest.mark.parametrize(
    "band, dz_mm, steps",
    [
        ((1.0, 8.0), 0.5, 26_650),
        ((1.45, 8.45), 0.5, 26_644),
        ((2.0, 3.0), 2.0, 6_963),
        ((3.5, 3.5), 0.5, 28_671),
        ((1.0, 1.0007), 0.5, 28_807),
        ((1.0, 8.0), 0.15, 88_797),
    ],
)
def test_auto_steps_are_pinned(wall, band, dz_mm, steps):
    # the step count sets the length of every run; these are the counts measured on the default wall
    pulse = fdtd._Pulse.covering(*band)
    eps_center = [float(layer.material.complex_permittivity(pulse.center_ghz).real) for layer in wall.layers]
    layout = fdtd._build_layout(wall, Fdtd1dConfig(dz_mm))
    assert fdtd._auto_steps(wall, eps_center, pulse, layout) == steps


def test_config_validation(glass_slab):
    with pytest.raises(FdtdError):
        Fdtd1dConfig(dz_mm=-1.0)
    # the band must lie inside the material model's 1-100 GHz range
    with pytest.raises(FdtdError, match="comparison band 0.01:0.02"):
        validate_against_tmm(glass_slab, 0.01, 0.02, 0.01)


def test_layer_below_unit_permittivity_is_rejected_before_time_stepping(monkeypatch):
    # the time step dz / c0 is unstable where eps' < 1
    monkeypatch.setattr(fdtd, "_time_step_batch", None)
    sub_unity = Material("sub_unity", 1.0, PermittivityModel(0.9, 0.2))  # eps' = 0.9 at 1 GHz, 1.03 at 2 GHz
    stack = LayerStack([Layer(Material("glass", 1.0, FixedPermittivity(4.0)), 10.0), Layer(sub_unity, 20.0)])
    with pytest.raises(FdtdError, match=r"layer 2 \(sub_unity\) has eps' = 0.9 at 1 GHz"):
        validate_against_tmm(stack, 1.0, 3.0, 1.0)


def test_validation_reports_decay_and_the_steps_it_ran(glass_slab, monkeypatch):
    from signalwall import fdtd

    cfg = Fdtd1dConfig(dz_mm=2.0)
    table = validate_against_tmm(glass_slab, 2.0, 3.0, 1.0, cfg)
    assert table["decayed"]
    # never decayed: the run is extended twice, and the reference and the DFT
    # use the steps of the last run
    monkeypatch.setattr(fdtd, "_decayed", lambda peak, tail: False)
    extended = validate_against_tmm(glass_slab, 2.0, 3.0, 1.0, cfg)
    assert not extended["decayed"]
    assert extended["n_steps"] == int(int(table["n_steps"] * 1.5) * 1.5)
    assert np.max(np.abs(extended["delta_db"])) <= 0.5


def _reference_freeze(stack, cfg, layout, freqs):
    """eps'/sigma on E-nodes, one frequency at a time in plain floats.

    Each layer is frozen at the ITU-R P.2040 value eps' = a f^b,
    eps'' = c f^d / (eps0 omega), or at its fixed eps' - j eps''; sigma =
    eps'' eps0 omega.  Each node averages its two half-cells.  Powers go
    through np.power, as the material model's do: libm's pow differs from
    numpy's in the last bit at a few per cent of frequencies.
    """
    eps = np.ones((len(freqs), layout.n_nodes))
    sig = np.zeros((len(freqs), layout.n_nodes))
    for row, f in enumerate(freqs):
        omega = 2.0 * math.pi * f * 1e9
        left = [(1.0, 0.0)] * layout.n_nodes
        right = [(1.0, 0.0)] * layout.n_nodes
        pos = layout.i_stack
        for layer in stack.layers:
            p = layer.material.permittivity
            if isinstance(p, FixedPermittivity):
                eps_r, eps_i = p.eps_real, p.eps_imag
            else:
                eps_r = p.a * float(np.power(f, p.b))
                eps_i = p.c * float(np.power(f, p.d)) / (EPS0 * omega)
            sigma = eps_i * EPS0 * omega
            cells = int(round(layer.thickness_mm / cfg.dz_mm))
            for i in range(pos, pos + cells):
                right[i] = left[i + 1] = (eps_r, sigma)
            pos += cells
        for i in range(layout.n_nodes):
            eps[row, i] = 0.5 * (left[i][0] + right[i][0])
            sig[row, i] = 0.5 * (left[i][1] + right[i][1])
    return eps, sig


def _glass_stack():
    return LayerStack(
        [
            Layer(Material("lossy_glass", 1.0, FixedPermittivity.from_tan_delta(6.0, 0.02)), 6.0),
            Layer(Material("glass", 1.0, FixedPermittivity(4.0)), 12.0),
        ]
    )


def _dispersive_stack():
    # b != 0, so eps' itself depends on the freeze frequency
    return LayerStack([Layer(Material("dispersive", 1.0, PermittivityModel(4.0, 0.1, 0.01, 1.2)), 30.0)])


@pytest.mark.parametrize(
    "stack_name, dz_mm", [("wall", 0.5), ("wall", 2.0), ("glass", 0.5), ("dispersive", 1.0)]
)
def test_material_arrays_equal_a_per_frequency_freeze(wall, stack_name, dz_mm):
    stack = {"wall": wall, "glass": _glass_stack(), "dispersive": _dispersive_stack()}[stack_name]
    cfg = Fdtd1dConfig(dz_mm=dz_mm)
    layout = fdtd._build_layout(stack, cfg)
    freqs = np.round(np.arange(1.0, 8.0 + 1e-9, 0.7), 9)
    eps, sig = fdtd._material_arrays(stack, layout, freqs)
    ref_eps, ref_sig = _reference_freeze(stack, cfg, layout, freqs.tolist())
    assert np.array_equal(eps[:-1], ref_eps)
    assert np.array_equal(sig[:-1], ref_sig)
    assert np.any(sig > 0.0)
    # the last row is the free-space reference run
    assert np.all(eps[-1] == 1.0) and np.all(sig[-1] == 0.0)


def _reference_time_loop(eps, sig, layout, pulse, n_steps):
    """Row-major leapfrog with the source evaluated every step and general
    first-order Mur terminations: the oracle the in-place, node-major
    `fdtd._time_step_batch` and its one-cell-shift terminations must match
    bit for bit.  Returns the transmit trace and the final ex and hy fields."""
    dz = layout.dz
    dt = dz / C0
    n_runs, n_nodes = eps.shape
    eps_abs = eps * EPS0
    ca = (eps_abs / dt - 0.5 * sig) / (eps_abs / dt + 0.5 * sig)
    cb = (1.0 / dz) / (eps_abs / dt + 0.5 * sig)
    ch = dt / (MU0 * dz)
    mur = (C0 * dt - dz) / (C0 * dt + dz)
    ex = np.zeros((n_runs, n_nodes))
    hy = np.zeros((n_runs, n_nodes - 1))
    trans = np.zeros((n_runs, n_steps))
    i_tfsf = layout.i_tfsf
    # the source sees each time as a one-element array, as the batch's does:
    # on a Python float, ** 2 goes through libm's pow, which differs from
    # numpy's square in the last bit at a few steps
    for n in range(n_steps):
        t_n = n * dt
        hy -= ch * (ex[:, 1:] - ex[:, :-1])
        hy[:, i_tfsf - 1] += ch * fdtd._source(pulse, np.array([t_n]))
        ex_left, ex_right = ex[:, 0].copy(), ex[:, -1].copy()
        ex_left_in, ex_right_in = ex[:, 1].copy(), ex[:, -2].copy()
        ex[:, 1:-1] = ca[:, 1:-1] * ex[:, 1:-1] - cb[:, 1:-1] * (hy[:, 1:] - hy[:, :-1])
        t_half = t_n + 0.5 * dt
        ex[:, i_tfsf] += cb[:, i_tfsf] * fdtd._source(pulse, np.array([t_half + 0.5 * dz / C0])) / ETA0
        ex[:, 0] = ex_left_in + mur * (ex[:, 1] - ex_left)
        ex[:, -1] = ex_right_in + mur * (ex[:, -2] - ex_right)
        trans[:, n] = ex[:, layout.i_transmit]
    return trans, ex, hy


def _wall_batch(wall, dz_mm):
    layout = fdtd._build_layout(wall, Fdtd1dConfig(dz_mm=dz_mm))
    eps, sig = fdtd._material_arrays(wall, layout, [1.5, 2.0, 2.5])
    return eps, sig, layout, fdtd._Pulse(center_ghz=2.0, bandwidth_ghz=2.0)


@pytest.mark.parametrize("dz_mm", [2.0, 0.5])
def test_time_loop_matches_row_major_reference_bit_for_bit(wall, dz_mm):
    eps, sig, layout, pulse = _wall_batch(wall, dz_mm)
    n_steps = int(5000 / dz_mm)  # 16.7 ns, past the transmitted pulse
    assert np.any(sig > 0.0)
    fields = fdtd._Fields.zeros(layout.n_nodes, len(eps))
    trans = fdtd._time_step_batch(eps, sig, layout, pulse, n_steps, fields)
    ref_trans, ref_ex, ref_hy = _reference_time_loop(eps, sig, layout, pulse, n_steps)
    assert np.max(np.abs(ref_trans)) > 1e-3
    assert np.array_equal(trans, ref_trans)
    assert np.array_equal(fields.ex.T, ref_ex)
    assert np.array_equal(fields.hy.T, ref_hy)


def test_a_field_that_grows_without_bound_raises_at_the_guard_step(wall):
    eps, sig, layout, pulse = _wall_batch(wall, 2.0)
    eps[:, layout.i_stack + 10: layout.i_stack + 20] = 0.25  # below the eps' >= 1 that dt = dz / c0 needs
    with np.errstate(all="ignore"), pytest.raises(FdtdError, match="at step 1999; the time loop is unstable"):
        fdtd._time_step_batch(eps, sig, layout, pulse, 4000)


def test_folded_reference_row_equals_a_vacuum_run(wall):
    eps, sig, layout, pulse = _wall_batch(wall, 2.0)
    batch = fdtd._time_step_batch(eps, sig, layout, pulse, 2000)
    alone = fdtd._time_step_batch(np.ones((1, layout.n_nodes)), np.zeros((1, layout.n_nodes)), layout, pulse, 2000)
    assert np.array_equal(batch[-1], alone[0])


@pytest.mark.parametrize("dz_mm", [2.0, 0.5])
def test_vacuum_gaps_only_delay_the_transmit_trace(wall, dz_mm):
    # at dt = dz / c0 vacuum and the Mur ends are exact, so a grid with wide pads and
    # gaps (120 nodes outside the source plane and the probe, 40 between them and the
    # stack) sees the same trace, later by the extra source-to-probe nodes
    eps, sig, layout, pulse = _wall_batch(wall, dz_mm)
    cells = sum(layout.stack_cells)
    wide = fdtd._Layout(120 + 40 + cells + 40 + 120, 120, 160, 160 + cells + 40, layout.dz, layout.dt, layout.stack_cells)
    wide_eps, wide_sig = fdtd._material_arrays(wall, wide, [1.5, 2.0, 2.5])
    shift = (wide.i_transmit - wide.i_tfsf) - (layout.i_transmit - layout.i_tfsf)
    n_steps = int(5000 / dz_mm)
    trace = fdtd._time_step_batch(eps, sig, layout, pulse, n_steps)
    wide_trace = fdtd._time_step_batch(wide_eps, wide_sig, wide, pulse, n_steps + shift)
    peak = np.max(np.abs(wide_trace))
    assert shift == 72 and peak > 1e-3
    assert np.all(wide_trace[:, :shift] == 0.0)
    assert np.max(np.abs(wide_trace[:, shift:] - trace)) <= 1e-12 * peak


def test_node_step_limit_is_checked_before_the_material_arrays(wall, monkeypatch):
    # the field and coefficient arrays grow with runs x nodes, and the work with steps too
    def material_arrays(*args, **kwargs):
        raise RuntimeError("material arrays reached")

    monkeypatch.setattr(fdtd, "_material_arrays", material_arrays)
    with pytest.raises(FdtdError, match="exceeds the 20,000,000,000-node-step limit"):
        validate_against_tmm(wall, 1.0, 8.0, 0.1, Fdtd1dConfig(dz_mm=0.05))
    # the largest run the point limit allows at the default dz: 701 points and the longest pulse
    with pytest.raises(RuntimeError, match="material arrays reached"):
        validate_against_tmm(wall, 1.0, 1.0007, 0.000001)


def _reference_transmission(traces, dt, f_ghz):
    """Transform of whole traces, summed over blocks of `_DFT_BLOCK` steps:
    run k at f_ghz[k] over the free-space reference (the last run) there."""
    device = reference = 0.0
    for first in range(0, traces.shape[-1], fdtd._DFT_BLOCK):
        block = traces[:, first: first + fdtd._DFT_BLOCK]
        device, reference = fdtd._add_transform(device, reference, block, dt, f_ghz, first)
    return device / reference


def test_extension_continues_the_time_loop(wall, monkeypatch):
    eps, sig, layout, pulse = _wall_batch(wall, 2.0)
    freqs = np.array([1.5, 2.0, 2.5])
    advanced, maxima = [], []
    loop = fdtd._time_step_batch

    def counted(eps, sig, layout, pulse, n_steps, *args):
        advanced.append(n_steps)
        return loop(eps, sig, layout, pulse, n_steps, *args)

    monkeypatch.setattr(fdtd, "_decayed", lambda peak, tail: maxima.append((peak.copy(), tail.copy())) or False)
    monkeypatch.setattr(fdtd, "_time_step_batch", counted)
    t, n_steps, decayed = fdtd._run_until_decayed(eps, sig, layout, pulse, 1000, freqs)
    assert not decayed
    assert n_steps == int(int(1000 * 1.5) * 1.5) == sum(advanced)
    assert max(advanced) <= fdtd._DFT_BLOCK < n_steps
    # the streamed transform and maxima equal those of one run of each length
    whole = loop(eps, sig, layout, pulse, n_steps)
    assert np.array_equal(t, _reference_transmission(whole, layout.dz / C0, freqs))
    for (peak, tail), n in zip(maxima, (1000, 1500, n_steps), strict=True):
        assert np.array_equal(peak, np.max(np.abs(whole[:, :n]), axis=-1))
        assert np.array_equal(tail, np.max(np.abs(whole[:, n - max(n // 20, 10): n]), axis=-1))
