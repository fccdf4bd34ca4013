import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from signalwall import layered_em
from signalwall.layered_em import (
    Incidence,
    Layer,
    LayerStack,
    _coefficients,
    _tmm_linear,
    amplitude_db,
    tmm_coefficients,
    transmission_spectrum,
)
from signalwall.inverse import slab_transmission
from signalwall.materials import FixedPermittivity, Material, PermittivityModel

C0 = 299792458.0


def slab_material(eps_real, eps_imag=0.0):
    return Material("slab", 1.0, FixedPermittivity(eps_real, eps_imag))


def airy_slab_t(eps, d_m, f_ghz):
    """Independent closed form: single-slab transmission via the Airy sum."""
    n = np.sqrt(complex(eps))
    if n.imag > 0:
        n = -n
    k0 = 2.0 * math.pi * f_ghz * 1e9 / C0
    r01 = (1.0 - n) / (1.0 + n)
    t01 = 2.0 / (1.0 + n)
    t10 = 2.0 * n / (1.0 + n)
    phase = np.exp(-1j * k0 * n * d_m)
    return t01 * t10 * phase / (1.0 + r01 * (-r01) * phase**2)


def test_single_slab_matches_airy_formula():
    material = slab_material(4.0, 0.3)
    stack = LayerStack([Layer(material, 37.0)])
    for f in (1.0, 2.7, 5.0, 8.0):
        t, _ = tmm_coefficients(stack, Incidence(f, 0.0, "TE"))
        expected = airy_slab_t(4.0 - 0.3j, 0.037, f)
        assert t == pytest.approx(expected, rel=1e-10)


def test_vacuum_equivalent_stack_is_transparent():
    stack = LayerStack([Layer(slab_material(1.0), 123.0)])
    t, r = tmm_coefficients(stack, Incidence(5.0))
    assert abs(t) == pytest.approx(1.0, abs=1e-12)
    assert abs(r) == pytest.approx(0.0, abs=1e-12)


def test_half_wave_slab_resonance():
    f = 3.0
    eps = 4.0
    d_mm = C0 / (f * 1e9) / math.sqrt(eps) / 2.0 * 1e3
    t, r = tmm_coefficients(LayerStack([Layer(slab_material(eps), d_mm)]), Incidence(f))
    assert abs(t) == pytest.approx(1.0, abs=1e-12)
    assert abs(r) == pytest.approx(0.0, abs=1e-10)


def test_paper_wall_losses(wall):
    t35, _ = tmm_coefficients(wall, Incidence(3.5, 0.0, "TE"))
    t80, _ = tmm_coefficients(wall, Incidence(8.0, 0.0, "TE"))
    assert -amplitude_db(t35) == pytest.approx(23.2, abs=1.0)
    assert -amplitude_db(t80) == pytest.approx(42.5, abs=1.0)


def test_bare_wall_spectrum_trends_downward(wall):
    spectrum = transmission_spectrum(wall, 1.0, 8.0, 141)
    db = amplitude_db(spectrum.t)
    assert -14.0 < db[0] < -8.0          # about -10 dB at 1 GHz
    assert db[-1] == pytest.approx(-42.5, abs=1.0)
    # monotone trend: a smoothed version decreases over the band
    smoothed = np.convolve(db, np.ones(15) / 15.0, mode="valid")
    assert np.all(np.diff(smoothed) < 0.1)
    assert smoothed[0] - smoothed[-1] > 25.0


def test_oblique_te_transmission_weaker_than_normal(wall):
    t0, _ = tmm_coefficients(wall, Incidence(8.0, 0.0, "TE"))
    t60, _ = tmm_coefficients(wall, Incidence(8.0, 60.0, "TE"))
    assert abs(t60) < abs(t0)


def test_cp_normal_incidence_degeneracy(wall):
    co, _ = tmm_coefficients(wall, Incidence(3.5, 0.0, "RHCP"))
    t_te, _ = tmm_coefficients(wall, Incidence(3.5, 0.0, "TE"))
    t_tm, _ = tmm_coefficients(wall, Incidence(3.5, 0.0, "TM"))
    assert t_tm == pytest.approx(t_te, rel=1e-9)
    assert co == pytest.approx(t_te, rel=1e-9)
    assert -amplitude_db(co) == pytest.approx(23.2, abs=1.0)


def test_cp_recombination_identity_at_60_degrees(wall):
    co, _ = tmm_coefficients(wall, Incidence(8.0, 60.0, "RHCP"))
    t_te, _ = tmm_coefficients(wall, Incidence(8.0, 60.0, "TE"))
    t_tm, _ = tmm_coefficients(wall, Incidence(8.0, 60.0, "TM"))
    assert co == pytest.approx((t_te + t_tm) / 2.0, rel=1e-12)
    assert abs(t_te - t_tm) > 1e-6  # genuinely non-degenerate at 60 degrees


def test_rhcp_equals_lhcp_for_isotropic_stack(wall):
    t_r, r_r = tmm_coefficients(wall, Incidence(5.0, 45.0, "RHCP"))
    t_l, r_l = tmm_coefficients(wall, Incidence(5.0, 45.0, "LHCP"))
    assert t_r == t_l
    assert r_r == r_l


def test_circular_polarization_is_one_pass_of_the_recursion(monkeypatch, wall):
    calls = []

    def counted(*args):
        calls.append(args[4])
        return _tmm_linear(*args)

    monkeypatch.setattr(layered_em, "_tmm_linear", counted)
    transmission_spectrum(wall, 1.0, 8.0, 141, 45.0, "RHCP")
    assert calls == ["RHCP"]


def wall_media(wall, f):
    ambient = np.ones_like(f, dtype=complex)
    eps_media = [ambient] + [layer.material.complex_permittivity(f) for layer in wall.layers] + [ambient]
    return eps_media, [layer.thickness_mm * 1e-3 for layer in wall.layers]


@pytest.mark.parametrize("theta", [0.0, 30.0, 45.0, 60.0])
def test_circular_rows_are_the_bit_exact_mean_of_the_linear_solves(wall, theta):
    f = np.linspace(1.0, 8.0, 141)
    eps_media, d_m = wall_media(wall, f)
    t_te, r_te = _tmm_linear(eps_media, d_m, f, theta, "TE")
    t_tm, r_tm = _tmm_linear(eps_media, d_m, f, theta, "TM")
    assert t_te.shape == r_te.shape == t_tm.shape == f.shape  # linear calls stay 1-D
    for pol in ("RHCP", "LHCP"):
        t, r = _tmm_linear(eps_media, d_m, f, theta, pol)
        np.testing.assert_array_equal(t, 0.5 * (t_te + t_tm))
        np.testing.assert_array_equal(r, 0.5 * (r_te + r_tm))


@pytest.mark.parametrize("pol", ["vertical", "rhcp", ""])
def test_unknown_polarization_raises_in_the_recursion(wall, pol):
    eps_media, d_m = wall_media(wall, np.array([3.5]))
    with pytest.raises(ValueError, match="polarization must be one of"):
        _tmm_linear(eps_media, d_m, 3.5, 0.0, pol)
    with pytest.raises(ValueError, match="polarization must be one of"):
        _coefficients(wall, 3.5, 0.0, pol)


def test_lossless_energy_conservation_on_grid():
    stack = LayerStack([Layer(slab_material(4.0), 50.0), Layer(slab_material(2.25), 80.0)])
    for theta in (0.0, 30.0, 60.0):
        for pol in ("TE", "TM"):
            spectrum = transmission_spectrum(stack, 1.0, 8.0, 101, theta, pol)
            energy = np.abs(spectrum.t) ** 2 + np.abs(spectrum.r) ** 2
            assert np.max(np.abs(energy - 1.0)) < 1e-10


def test_lossy_stack_absorbs(wall):
    spectrum = transmission_spectrum(wall, 1.0, 8.0, 51)
    energy = np.abs(spectrum.t) ** 2 + np.abs(spectrum.r) ** 2
    assert np.all(energy < 1.0)


layer_strategy = st.tuples(
    st.floats(min_value=1.0, max_value=10.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=1.0, max_value=250.0),
)
stack_strategy = st.lists(layer_strategy, min_size=1, max_size=5)


@given(
    layers=stack_strategy,
    theta=st.floats(min_value=0.0, max_value=80.0),
    pol=st.sampled_from(["TE", "TM"]),
    f=st.floats(min_value=1.0, max_value=10.0),
)
@settings(max_examples=60, deadline=None)
def test_energy_conservation_lossless_random_stacks(layers, theta, pol, f):
    stack = LayerStack([Layer(slab_material(eps), d) for eps, _, d in layers])
    t, r = tmm_coefficients(stack, Incidence(f, theta, pol))
    assert abs(t) ** 2 + abs(r) ** 2 == pytest.approx(1.0, abs=1e-10)


@given(
    layers=stack_strategy,
    theta=st.floats(min_value=0.0, max_value=80.0),
    pol=st.sampled_from(["TE", "TM"]),
    f=st.floats(min_value=1.0, max_value=10.0),
)
@settings(max_examples=60, deadline=None)
def test_reciprocity_random_lossy_stacks(layers, theta, pol, f):
    stack = LayerStack([Layer(slab_material(eps, loss), d) for eps, loss, d in layers])
    t_fwd, _ = tmm_coefficients(stack, Incidence(f, theta, pol))
    t_rev, _ = tmm_coefficients(LayerStack(stack.layers[::-1]), Incidence(f, theta, pol))
    assert abs(abs(t_fwd) - abs(t_rev)) < 1e-10


@given(
    eps=st.floats(min_value=1.0, max_value=9.0),
    loss=st.floats(min_value=0.0, max_value=1.0),
    d=st.floats(min_value=2.0, max_value=300.0),
    f=st.floats(min_value=1.0, max_value=10.0),
    theta=st.floats(min_value=0.0, max_value=80.0),
)
@settings(max_examples=60, deadline=None)
def test_layer_splitting_is_exact(eps, loss, d, f, theta):
    material = slab_material(eps, loss)
    whole = LayerStack([Layer(material, d)])
    split = LayerStack([Layer(material, d / 2.0), Layer(material, d / 2.0)])
    t1, _ = tmm_coefficients(whole, Incidence(f, theta, "TM"))
    t2, _ = tmm_coefficients(split, Incidence(f, theta, "TM"))
    assert t1 == pytest.approx(t2, abs=1e-12)


def plain_transfer_matrix(eps_media, d_m, f_ghz, theta_deg, pol):
    """Reference: the textbook 2x2 product of interface and propagation matrices, unscaled."""
    k0 = 2.0 * math.pi * f_ghz * 1e9 / C0
    kx = k0 * math.sin(math.radians(theta_deg))
    kz = []
    for eps in eps_media:
        k = cmath.sqrt(k0 * k0 * eps - kx * kx)
        kz.append(-k if k.imag > 0.0 else k)
    # only impedance ratios enter: z is proportional to 1/kz (TE) or kz/eps (TM)
    z = [1.0 / k if pol == "TE" else k / eps for k, eps in zip(kz, eps_media)]
    m = np.eye(2, dtype=complex)
    for n in range(1, len(eps_media)):
        zr = z[n - 1] / z[n]
        m = m @ (0.5 * np.array([[1.0 + zr, 1.0 - zr], [1.0 - zr, 1.0 + zr]]))
        if n < len(eps_media) - 1:
            phase = kz[n] * d_m[n - 1]
            m = m @ np.diag([cmath.exp(1j * phase), cmath.exp(-1j * phase)])
    return 1.0 / m[0, 0], m[1, 0] / m[0, 0]


@given(
    layers=st.lists(
        st.tuples(
            # eps' below sin^2(theta) makes a layer evanescent
            st.floats(min_value=0.05, max_value=12.0),
            st.floats(min_value=0.0, max_value=2.0),
            st.floats(min_value=1.0, max_value=100.0),
        ),
        min_size=1,
        max_size=4,
    ),
    theta=st.floats(min_value=0.0, max_value=80.0),
    pol=st.sampled_from(["TE", "TM"]),
    f=st.floats(min_value=1.0, max_value=20.0),
)
@settings(max_examples=200, deadline=None)
def test_recursion_matches_the_plain_transfer_matrix_product(layers, theta, pol, f):
    sin2 = math.sin(math.radians(theta)) ** 2
    # kz = 0 in a layer at the evanescence threshold makes both methods singular
    assume(all(abs(complex(eps, -loss) - sin2) > 1e-6 for eps, loss, _ in layers))
    eps_media = [1.0] + [complex(eps, -loss) for eps, loss, _ in layers] + [1.0]
    d_m = [d * 1e-3 for _, _, d in layers]
    t_ref, r_ref = plain_transfer_matrix(eps_media, d_m, f, theta, pol)
    assume(abs(t_ref) > 1e-100)
    t, r = _tmm_linear([np.array([e]) for e in eps_media], d_m, f, theta, pol)
    assert abs(t[0] - t_ref) <= 1e-10 * abs(t_ref)
    # a nearly matched stack's r is a difference of terms of order |t|, so r is compared on that scale
    assert abs(r[0] - r_ref) <= 1e-10 * max(abs(r_ref), abs(t_ref))


def test_wall_layer_splitting(wall, db):
    split_layers = []
    for layer in wall.layers:
        split_layers.append(Layer(layer.material, layer.thickness_mm / 2.0))
        split_layers.append(Layer(layer.material, layer.thickness_mm / 2.0))
    t1, _ = tmm_coefficients(wall, Incidence(6.0, 25.0, "TE"))
    t2, _ = tmm_coefficients(LayerStack(split_layers), Incidence(6.0, 25.0, "TE"))
    assert abs(t1 - t2) < 1e-12


def test_deep_lossy_stack_does_not_overflow():
    # ~60 dB/layer of loss over 2.4 m of slabs; t and r must stay finite
    material = slab_material(5.0, 2.0)
    stack = LayerStack([Layer(material, 400.0)] * 6)
    t, r = tmm_coefficients(stack, Incidence(8.0))
    assert math.isfinite(abs(t)) and abs(t) < 1e-10
    assert math.isfinite(abs(r)) and abs(r) <= 1.0


def test_one_layer_past_exp_overflow_stays_finite():
    # 300 mm of (a=5, c=2 S/m, d=2) attenuates by more than the ~709 nepers
    # exp can hold from ~9 GHz up
    stack = LayerStack([Layer(Material("slab", 1.0, PermittivityModel(5.0, 0.0, 2.0, 2.0)), 300.0)])
    spectrum = transmission_spectrum(stack, 1.0, 100.0, 100, 0.0, "TE")
    assert np.all(np.isfinite(spectrum.t)) and np.all(np.isfinite(spectrum.r))
    closed = slab_transmission(5.0, 0.0, 2.0, 2.0, 300.0, spectrum.frequencies_ghz)
    resolved = np.abs(spectrum.t) > 1e-150
    assert resolved.sum() >= 5
    assert np.all(np.abs(closed[resolved] - spectrum.t[resolved]) <= 1e-10 * np.abs(spectrum.t[resolved]))


def test_incidence_validation():
    with pytest.raises(ValueError):
        Incidence(3.5, 90.0)
    with pytest.raises(ValueError):
        Incidence(3.5, -1.0)
    with pytest.raises(ValueError):
        Incidence(3.5, 0.0, "vertical")
    with pytest.raises(ValueError):
        Incidence(0.0)


def test_spectrum_grid_validation(wall):
    with pytest.raises(ValueError):
        transmission_spectrum(wall, 0.5, 8.0, 11)
    with pytest.raises(ValueError):
        transmission_spectrum(wall, 1.0, 101.0, 11)
    with pytest.raises(ValueError):
        transmission_spectrum(wall, 1.0, 8.0, 1)


def test_empty_stack_rejected():
    with pytest.raises(ValueError):
        LayerStack([])
    with pytest.raises(ValueError):
        Layer(slab_material(2.0), 0.0)


def test_csv_export_format(tmp_path, wall):
    spectrum = transmission_spectrum(wall, 1.0, 2.0, 3, 15.0, "TM")
    path = tmp_path / "spec.csv"
    spectrum.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "freq_GHz,t_dB,t_phase_deg,r_dB,r_phase_deg,pol,theta_deg"
    assert len(lines) == 4
    fields = lines[1].split(",")
    assert fields[5] == "TM"
    assert float(fields[0]) == 1.0


def _per_row_csv(spectrum) -> str:
    """The CSV as written one row at a time, each level through the guarded scalar expression."""

    def level(x):
        mag = np.abs(x)
        with np.errstate(divide="ignore"):
            return np.where(mag > 0.0, 20.0 * np.log10(np.maximum(mag, 1e-300)), -6000.0)

    rows = [layered_em._CSV_HEADER + "\n"]
    for f, t, r in zip(spectrum.frequencies_ghz, spectrum.t, spectrum.r):
        rows.append(
            f"{f:.6f},{level(t):.6f},{math.degrees(cmath.phase(t)):.6f},"
            f"{level(r):.6f},{math.degrees(cmath.phase(r)):.6f},"
            f"{spectrum.polarization},{spectrum.theta_deg:.3f}\n"
        )
    return "".join(rows)


def _underflowing_spectrum():
    # two 300 mm slabs of (a=5, c=2 S/m, d=2): |t| falls below 1e-300 over most of 1-100 GHz
    slab = Layer(Material("slab", 1.0, PermittivityModel(5.0, 0.0, 2.0, 2.0)), 300.0)
    return transmission_spectrum(LayerStack([slab, slab]), 1.0, 100.0, 141, 0.0, "TE")


def _combined_spectrum(wall, cell):
    from signalwall.antenna_link import link_budget

    spectrum = transmission_spectrum(wall, 1.0, 8.0, 141, 30.0, "RHCP")
    combined = link_budget(cell, spectrum.frequencies_ghz, 30.0, "RHCP").combined
    return layered_em.Spectrum(spectrum.frequencies_ghz, combined, spectrum.r, "RHCP", 30.0)


def _phase_boundary_spectrum():
    # phases whose sixth decimal of degrees differs between math.degrees(cmath.phase(z)) ("147.766497")
    # and np.degrees(np.angle(z)) ("147.766498"): the columns keep the scalar phase the CSVs always had
    t = np.array([-0.8458814333091081 + 0.5333709785720709j, 0.7861200858219755 + 0.618073790632842j])
    return layered_em.Spectrum(np.array([2.0, 3.0]), t, t[::-1].copy(), "TE", 0.0)


@pytest.mark.parametrize("case", ["tm45", "rhcp30-with-antennas", "underflow", "phase-boundary"])
def test_csv_columns_match_the_per_row_formula(tmp_path, monkeypatch, wall, antenna_cell, case):
    spectrum = {
        "tm45": lambda: transmission_spectrum(wall, 1.0, 8.0, 141, 45.0, "TM"),
        "rhcp30-with-antennas": lambda: _combined_spectrum(wall, antenna_cell),
        "underflow": _underflowing_spectrum,
        "phase-boundary": _phase_boundary_spectrum,
    }[case]()
    calls = []

    def counted(x):
        calls.append(np.shape(x))
        return amplitude_db(x)

    monkeypatch.setattr(layered_em, "amplitude_db", counted)
    path = tmp_path / "spec.csv"
    spectrum.write_csv(path)
    assert calls == [spectrum.t.shape, spectrum.r.shape]
    text = path.read_bytes().decode("utf-8")
    assert text == _per_row_csv(spectrum)
    if case == "phase-boundary":
        assert text.splitlines()[1].split(",")[2] == "147.766497"
    if case == "underflow":
        assert np.count_nonzero(np.abs(spectrum.t) < 1e-300) >= 10
        assert sum(line.split(",")[1] == "-6000.000000" for line in text.splitlines()[1:]) >= 10


def test_amplitude_db_floor_and_nan():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        floored = amplitude_db(np.array([0.0, 1e-310, 1e-300, 0j]))
        assert floored.tolist() == [-6000.0] * 4
        assert amplitude_db(1.0) == 0.0
        assert amplitude_db(-1.0 + 0j) == 0.0
        assert np.isnan(amplitude_db(float("nan")))
        assert np.isnan(amplitude_db(np.array([1.0, complex("nan")]))).tolist() == [False, True]


@pytest.mark.parametrize("theta", [90.0, 95.0, -10.0])
def test_theta_outside_the_half_space_is_refused_at_the_array_entry(wall, theta):
    with pytest.raises(ValueError, match=r"theta must be in \[0, 90\)"):
        _coefficients(wall, 3.5, theta, "TE")
    with pytest.raises(ValueError, match=r"theta must be in \[0, 90\)"):
        _coefficients(wall, np.array([1.5, 3.5]), theta, "RHCP")
    with pytest.raises(ValueError, match=r"theta must be in \[0, 90\)"):
        transmission_spectrum(wall, 1.0, 8.0, 11, theta_deg=theta)
