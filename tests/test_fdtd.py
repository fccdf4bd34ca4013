import numpy as np
import pytest

from signalwall import fdtd
from signalwall.constants import C0, EPS0, ETA0, MU0
from signalwall.fdtd import (
    Fdtd1dConfig,
    FdtdError,
    energy_budget,
    run_fdtd,
    validate_against_tmm,
)
from signalwall.layered_em import Incidence, Layer, LayerStack, amplitude_db, tmm_coefficients
from signalwall.materials import FixedPermittivity, Material


@pytest.fixture(scope="module")
def glass_slab():
    return LayerStack([Layer(Material("glass", 1.0, FixedPermittivity(4.0)), 48.0)])


def test_vacuum_stack_is_transparent(db):
    stack = LayerStack([Layer(db.get("air"), 100.0)])
    spectrum = run_fdtd(stack, Fdtd1dConfig(source_center_ghz=4.5, source_bandwidth_ghz=7.0))
    assert np.max(np.abs(spectrum.t_db)) < 0.01
    assert spectrum.meta["decayed"]


def test_lossless_slab_matches_tmm(glass_slab):
    spectrum = run_fdtd(glass_slab, Fdtd1dConfig(source_center_ghz=4.5, source_bandwidth_ghz=7.0))
    tmm_db = np.array(
        [amplitude_db(tmm_coefficients(glass_slab, Incidence(f))[0]) for f in spectrum.frequencies_ghz]
    )
    assert np.max(np.abs(spectrum.t_db - tmm_db)) < 0.3


def test_bare_wall_at_3p5_ghz(wall):
    spectrum = run_fdtd(wall, Fdtd1dConfig(source_center_ghz=3.5, source_bandwidth_ghz=1.0))
    i = int(np.argmin(np.abs(spectrum.frequencies_ghz - 3.5)))
    assert -spectrum.t_db[i] == pytest.approx(23.2, abs=0.5)


def test_passivity_budget(glass_slab, wall):
    for stack in (glass_slab, wall):
        budget = energy_budget(stack, Fdtd1dConfig(source_center_ghz=4.0, source_bandwidth_ghz=5.0))
        total = budget["transmitted"] + budget["reflected"]
        assert np.all(total <= 1.005)
        assert np.all(budget["absorbed"] > -0.005)


def test_lossless_slab_absorbs_nothing(glass_slab):
    budget = energy_budget(glass_slab, Fdtd1dConfig(source_center_ghz=4.0, source_bandwidth_ghz=5.0))
    assert np.max(np.abs(budget["absorbed"])) < 0.005


def test_run_fdtd_transform_memory_is_bounded(wall):
    # a one-piece (frequencies x steps) DFT kernel peaked at 63 MB on this call
    import tracemalloc

    tracemalloc.start()
    try:
        run_fdtd(wall)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6


def test_determinism_bit_identical(glass_slab):
    cfg = Fdtd1dConfig(source_center_ghz=4.0, source_bandwidth_ghz=4.0)
    first = run_fdtd(glass_slab, cfg)
    second = run_fdtd(glass_slab, cfg)
    assert np.array_equal(first.t, second.t)
    assert np.array_equal(first.r, second.r)


def test_grid_refinement_convergence(glass_slab):
    errors = {}
    for dz in (2.0, 1.0):
        table = validate_against_tmm(
            glass_slab, 4.9, 5.1, 0.1, Fdtd1dConfig(dz_mm=dz, min_cells_per_wavelength=7.0)
        )
        i = int(np.argmin(np.abs(table["frequencies_ghz"] - 5.0)))
        errors[dz] = abs(table["delta_db"][i])
    assert errors[2.0] >= 2.0 * errors[1.0]


def test_valid_band_truncated_when_grid_too_coarse(glass_slab):
    cfg = Fdtd1dConfig(dz_mm=2.0, source_center_ghz=3.0, source_bandwidth_ghz=4.0)
    spectrum = run_fdtd(glass_slab, cfg)
    assert spectrum.meta["band_truncated"]
    assert spectrum.meta["valid_band_ghz"][1] < 5.0
    assert spectrum.frequencies_ghz[-1] <= spectrum.meta["valid_band_ghz"][1] + 1e-9


def test_unresolvable_band_raises(glass_slab):
    cfg = Fdtd1dConfig(dz_mm=8.0, source_center_ghz=6.0, source_bandwidth_ghz=4.0)
    with pytest.raises(FdtdError):
        run_fdtd(glass_slab, cfg)


def test_config_validation():
    with pytest.raises(FdtdError):
        Fdtd1dConfig(cfl=1.2)
    with pytest.raises(FdtdError):
        Fdtd1dConfig(cfl=0.0)
    with pytest.raises(FdtdError):
        Fdtd1dConfig(dz_mm=-1.0)
    with pytest.raises(FdtdError):
        Fdtd1dConfig(source_center_ghz=2.0, source_bandwidth_ghz=5.0)


def test_reduced_cfl_still_accurate(glass_slab):
    spectrum = run_fdtd(glass_slab, Fdtd1dConfig(cfl=0.7, source_center_ghz=4.0, source_bandwidth_ghz=3.0))
    tmm_db = np.array(
        [amplitude_db(tmm_coefficients(glass_slab, Incidence(f))[0]) for f in spectrum.frequencies_ghz]
    )
    assert np.max(np.abs(spectrum.t_db - tmm_db)) < 0.3


def test_validation_reports_decay_and_the_steps_it_ran(glass_slab, monkeypatch):
    from signalwall import fdtd

    cfg = Fdtd1dConfig(dz_mm=2.0)
    table = validate_against_tmm(glass_slab, 2.0, 3.0, 1.0, cfg)
    assert table["decayed"]
    # never decayed: the run is extended twice, and the reference and the DFT
    # use the steps of the last run
    monkeypatch.setattr(fdtd, "_decayed", lambda trace, threshold_db=-80.0: False)
    extended = validate_against_tmm(glass_slab, 2.0, 3.0, 1.0, cfg)
    assert not extended["decayed"]
    assert extended["n_steps"] == int(int(table["n_steps"] * 1.5) * 1.5)
    assert np.max(np.abs(extended["delta_db"])) <= 0.5


def _reference_time_loop(eps, sig, layout, cfg, n_steps):
    """Row-major leapfrog with the source evaluated every step: the oracle
    the in-place, node-major `fdtd._time_step_batch` must match bit for bit."""
    dz = layout.dz
    dt = cfg.cfl * dz / C0
    n_runs, n_nodes = eps.shape
    eps_abs = eps * EPS0
    ca = (eps_abs / dt - 0.5 * sig) / (eps_abs / dt + 0.5 * sig)
    cb = (1.0 / dz) / (eps_abs / dt + 0.5 * sig)
    ch = dt / (MU0 * dz)
    mur = (C0 * dt - dz) / (C0 * dt + dz)
    ex = np.zeros((n_runs, n_nodes))
    hy = np.zeros((n_runs, n_nodes - 1))
    trans = np.zeros((n_runs, n_steps))
    refl = np.zeros((n_runs, n_steps))
    i_tfsf = layout.i_tfsf
    t_n = 0.0
    for n in range(n_steps):
        hy -= ch * (ex[:, 1:] - ex[:, :-1])
        hy[:, i_tfsf - 1] += ch * fdtd._source(cfg, t_n)
        ex_left, ex_right = ex[:, 0].copy(), ex[:, -1].copy()
        ex_left_in, ex_right_in = ex[:, 1].copy(), ex[:, -2].copy()
        ex[:, 1:-1] = ca[:, 1:-1] * ex[:, 1:-1] - cb[:, 1:-1] * (hy[:, 1:] - hy[:, :-1])
        t_half = t_n + 0.5 * dt
        ex[:, i_tfsf] += cb[:, i_tfsf] * fdtd._source(cfg, t_half + 0.5 * dz / C0) / ETA0
        ex[:, 0] = ex_left_in + mur * (ex[:, 1] - ex_left)
        ex[:, -1] = ex_right_in + mur * (ex[:, -2] - ex_right)
        trans[:, n] = ex[:, layout.i_transmit]
        refl[:, n] = ex[:, layout.i_reflect]
        t_n += dt
    return trans, refl


def _wall_batch(wall, cfl):
    cfg = Fdtd1dConfig(dz_mm=2.0, cfl=cfl, source_center_ghz=2.0, source_bandwidth_ghz=2.0)
    layout = fdtd._build_layout(wall, cfg)
    eps, sig = fdtd._material_arrays(wall, cfg, layout, [1.5, 2.0, 2.5])
    return eps, sig, layout, cfg


@pytest.mark.parametrize("cfl", [1.0, 0.7])
def test_time_loop_matches_row_major_reference_bit_for_bit(wall, cfl):
    eps, sig, layout, cfg = _wall_batch(wall, cfl)
    assert np.any(sig > 0.0)
    trans, refl = fdtd._time_step_batch(eps, sig, layout, cfg, 2500, (layout.i_transmit, layout.i_reflect))
    ref_trans, ref_refl = _reference_time_loop(eps, sig, layout, cfg, 2500)
    assert np.max(np.abs(ref_trans)) > 1e-3
    assert np.array_equal(trans, ref_trans)
    assert np.array_equal(refl, ref_refl)


def test_folded_reference_row_equals_a_vacuum_run(wall):
    eps, sig, layout, cfg = _wall_batch(wall, 0.7)
    (batch,) = fdtd._time_step_batch(*fdtd._with_reference_row(eps, sig), layout, cfg, 2000)
    (alone,) = fdtd._time_step_batch(np.ones((1, layout.n_nodes)), np.zeros((1, layout.n_nodes)), layout, cfg, 2000)
    assert np.array_equal(batch[-1], alone[0])


def test_extension_continues_the_time_loop(wall, monkeypatch):
    eps, sig, layout, cfg = _wall_batch(wall, 0.7)
    probes = (layout.i_transmit, layout.i_reflect)
    advanced = []
    loop = fdtd._time_step_batch

    def counted(eps, sig, layout, cfg, n_steps, *args):
        advanced.append(n_steps)
        return loop(eps, sig, layout, cfg, n_steps, *args)

    monkeypatch.setattr(fdtd, "_decayed", lambda trace, threshold_db=-80.0: False)
    monkeypatch.setattr(fdtd, "_time_step_batch", counted)
    traces, n_steps, decayed = fdtd._run_until_decayed(eps, sig, layout, cfg, 1000, probes)
    assert not decayed
    assert n_steps == int(int(1000 * 1.5) * 1.5) == sum(advanced)
    assert len(advanced) == 3
    fresh = loop(eps, sig, layout, cfg, n_steps, probes)
    assert all(np.array_equal(a, b) for a, b in zip(traces, fresh))
