import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signalwall import inverse
from signalwall.inverse import (
    MeasuredSpectrum,
    SpectrumFormatError,
    fit_permittivity,
    normalize_spectrum,
    read_spectrum,
    read_spectrum_csv,
    read_touchstone,
    slab_log_jacobian,
    slab_transmission,
    slab_transmission_db,
)
from scipy.optimize import least_squares
from signalwall.layered_em import Layer, LayerStack, transmission_spectrum
from signalwall.materials import Material, MaterialError, PermittivityModel

TRUE = (5.84, 0.205, 0.06)
THICKNESS_MM = 290.0


@pytest.fixture(scope="module")
def clean_spectrum():
    f = np.linspace(2.0, 8.0, 121)
    db = slab_transmission_db(TRUE[0], 0.0, TRUE[1], TRUE[2], THICKNESS_MM, f)
    return MeasuredSpectrum(f, 10.0 ** (db / 20.0), magnitude_only=True, thickness_mm=THICKNESS_MM)


def test_self_normalization_is_flat(clean_spectrum):
    result = normalize_spectrum(clean_spectrum, clean_spectrum)
    assert np.max(np.abs(result.magnitude_db)) < 1e-12


def test_constant_offset_normalization(clean_spectrum):
    shifted = MeasuredSpectrum(
        clean_spectrum.frequencies_ghz, clean_spectrum.s21 * 10.0 ** (-20.0 / 20.0), magnitude_only=True
    )
    result = normalize_spectrum(shifted, clean_spectrum)
    assert np.allclose(result.magnitude_db, -20.0, atol=1e-12)


def test_normalization_recovers_wall_through_fixture(clean_spectrum):
    f = clean_spectrum.frequencies_ghz
    fixture = MeasuredSpectrum(f, (0.5 + 0.1j) * np.exp(1j * 0.7 * f), fixture_id="empty")
    dut = MeasuredSpectrum(f, fixture.s21 * clean_spectrum.s21)
    recovered = normalize_spectrum(dut, fixture)
    assert np.max(np.abs(recovered.s21 - clean_spectrum.s21)) < 1e-12


def test_normalization_is_its_own_inverse(clean_spectrum):
    f = clean_spectrum.frequencies_ghz
    dut = MeasuredSpectrum(f, clean_spectrum.s21 * np.exp(1j * 0.3 * f))
    fixture = MeasuredSpectrum(f, (0.8 - 0.2j) * np.exp(-1j * f))
    normalized = normalize_spectrum(dut, fixture)
    remultiplied = MeasuredSpectrum(f, normalized.s21 * fixture.s21)
    assert np.max(np.abs(remultiplied.s21 - dut.s21)) < 1e-12


def test_grid_mismatch_requires_interpolation(clean_spectrum):
    other = MeasuredSpectrum(np.linspace(2.0, 8.0, 61), np.ones(61))
    with pytest.raises(SpectrumFormatError):
        normalize_spectrum(clean_spectrum, other)
    result = normalize_spectrum(clean_spectrum, other, interpolate=True)
    assert result.frequencies_ghz.shape == clean_spectrum.frequencies_ghz.shape


def test_an_interpolated_reference_must_span_the_dut_band(clean_spectrum):
    # np.interp would hold the reference's end values over 2-2.95 and 7.05-8 GHz
    narrow = MeasuredSpectrum(np.linspace(3.0, 7.0, 41), np.ones(41), fixture_id="fixture.csv")
    message = r"^reference fixture.csv covers 3-7 GHz only; the DUT points at 2-2\.95 and 7\.05-8 GHz lie outside it "
    with pytest.raises(SpectrumFormatError, match=message):
        normalize_spectrum(clean_spectrum, narrow, interpolate=True)
    high = MeasuredSpectrum(np.linspace(2.0, 7.0, 41), np.ones(41))
    with pytest.raises(SpectrumFormatError, match=r"covers 2-7 GHz only; the DUT points at 7\.05-8 GHz lie outside"):
        normalize_spectrum(clean_spectrum, high, interpolate=True)
    wide = MeasuredSpectrum(np.linspace(1.0, 9.0, 41), np.ones(41))
    assert np.all(normalize_spectrum(clean_spectrum, wide, interpolate=True).s21 == clean_spectrum.s21)


def test_reference_below_the_floor_is_an_error(clean_spectrum):
    f = clean_spectrum.frequencies_ghz
    weak = np.ones(f.size, dtype=complex)
    weak[5:8] = 1e-7  # -140 dB at 2.25, 2.30 and 2.35 GHz
    with pytest.raises(SpectrumFormatError, match=r"3 point\(s\) below -100 dB at 2\.25-2\.35 GHz"):
        normalize_spectrum(clean_spectrum, MeasuredSpectrum(f, weak))
    weak[5:8] = 1.1e-5  # -99.2 dB is still a usable reading
    assert np.all(np.isfinite(normalize_spectrum(clean_spectrum, MeasuredSpectrum(f, weak)).s21))


def test_noiseless_roundtrip_recovery(clean_spectrum):
    fit = fit_permittivity(clean_spectrum, n_starts=16)
    assert fit.converged
    assert fit.a == pytest.approx(TRUE[0], abs=0.05)
    assert fit.c == pytest.approx(TRUE[1], abs=0.02)
    assert fit.residual_db_rms < 0.1
    reproduced = slab_transmission_db(fit.a, fit.b, fit.c, fit.d, THICKNESS_MM, clean_spectrum.frequencies_ghz)
    assert np.sqrt(np.mean((reproduced - clean_spectrum.magnitude_db) ** 2)) < 0.1


def test_closed_form_slab_matches_transfer_matrix():
    # the Airy closed form against the multi-layer cascade of a one-layer stack
    rng = np.random.default_rng(2040)
    compared = total = 0
    for _ in range(300):
        a, b, c, d = rng.uniform(1.0, 15.0), rng.uniform(-0.5, 0.5), rng.uniform(1e-4, 2.0), rng.uniform(0.0, 2.0)
        thickness = rng.uniform(5.0, 300.0)
        f_start, f_stop = np.sort(rng.uniform(1.0, 100.0, 2))
        stack = LayerStack([Layer(Material("slab", 1.0, PermittivityModel(a, b, c, d)), thickness)])
        reference = transmission_spectrum(stack, f_start, f_stop, 40, 0.0, "TE")
        assert np.all(np.isfinite(reference.t))
        t = slab_transmission(a, b, c, d, thickness, reference.frequencies_ghz)
        resolved = np.abs(reference.t) > 1e-150
        assert np.all(np.abs(t[resolved] - reference.t[resolved]) <= 1e-10 * np.abs(reference.t[resolved]))
        assert np.all(np.abs(t[~resolved]) <= 1e-140)
        compared += int(resolved.sum())
        total += resolved.size
    assert compared >= total // 4


@pytest.mark.parametrize("thickness", [45.0, 290.0])
@pytest.mark.parametrize("b", [0.0, 0.1])
@pytest.mark.parametrize("c", [0.0, 0.205])
def test_slab_log_jacobian_matches_central_differences(thickness, b, c):
    # differences of log(t(x + h) / t(x)) stay off the branch cut of log t; c = 0 is a legal bound,
    # where the c column takes the one-sided second-order difference
    f = np.linspace(1.0, 20.0, 96)
    x = np.array([5.84, c, 0.06])

    def t(y):
        return slab_transmission(y[0], b, y[1], y[2], thickness, f)

    def log_ratio(step):
        return np.log(t(x + step) / t(x))

    jac = slab_log_jacobian(x[0], b, x[1], x[2], thickness, f)
    assert jac.shape == (f.size, 3)
    for k, h in enumerate((1e-5, 1e-6, 1e-5)):
        step = h * np.eye(3)[k]
        if x[k] < h:
            numeric = (4.0 * log_ratio(step) - log_ratio(2.0 * step)) / (2.0 * h)
        else:
            numeric = (log_ratio(step) - log_ratio(-step)) / (2.0 * h)
        assert np.max(np.abs(jac[:, k] - numeric)) <= 1e-6 * np.max(np.abs(jac[:, k])), k
    if c == 0.0:
        assert np.all(jac[:, 2] == 0.0)  # d moves nothing without a conductivity


def test_slab_log_jacobian_is_finite_where_the_model_underflows():
    # the midpoint of the default bounds on the 290 mm slab at 50-100 GHz, where t is 0 in float64
    f = np.linspace(50.0, 100.0, 101)
    a, c, d = np.mean(inverse.DEFAULT_BOUNDS, axis=1)
    assert np.any(slab_transmission(a, 0.0, c, d, THICKNESS_MM, f) == 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        jac = slab_log_jacobian(a, 0.0, c, d, THICKNESS_MM, f)
    assert np.all(np.isfinite(jac))


@pytest.mark.parametrize(
    "coefficients",
    [(0.0, 0.0, 0.1, 0.5), (-2.0, 0.0, 0.1, 0.5), (5.0, 0.0, -0.1, 0.5)]
    + [tuple(np.nan if i == j else v for j, v in enumerate((5.0, 0.0, 0.1, 0.5))) for i in range(4)],
)
def test_slab_transmission_rejects_invalid_coefficients(coefficients):
    with pytest.raises(MaterialError):
        slab_transmission(*coefficients, 50.0, np.linspace(2.0, 8.0, 5))


def test_slab_transmission_rejects_nonpositive_frequency():
    with pytest.raises(MaterialError):
        slab_transmission(5.0, 0.0, 0.1, 0.5, 50.0, np.array([0.0, 1.0]))


@pytest.mark.parametrize(
    ("bounds", "message"),
    [
        (((0.0, 15.0), (1e-4, 2.0), (0.0, 2.0)), "low bound of a"),
        (((1.0, 15.0), (-0.1, 2.0), (0.0, 2.0)), "low bound of c"),
        (((1.0, np.inf), (1e-4, 2.0), (0.0, 2.0)), "a bounds must be finite"),
        (((1.0, 15.0), (1e-4, 2.0), (np.nan, 2.0)), "d bounds must be finite"),
    ],
)
def test_invalid_bounds_rejected_before_any_evaluation(clean_spectrum, monkeypatch, bounds, message):
    def no_model(*args):
        raise AssertionError("the model was evaluated")

    monkeypatch.setattr(inverse, "slab_transmission", no_model)
    with pytest.raises(ValueError, match=message):
        fit_permittivity(clean_spectrum, bounds=bounds, n_starts=2)


@pytest.mark.parametrize("complex_objective", [False, True])
def test_evaluations_count_every_model_call(clean_spectrum, monkeypatch, complex_objective):
    calls = []

    def counting(model):
        def call(*args):
            calls.append(args)
            return model(*args)

        return call

    spectrum = MeasuredSpectrum(
        clean_spectrum.frequencies_ghz,
        slab_transmission(TRUE[0], 0.0, TRUE[1], TRUE[2], THICKNESS_MM, clean_spectrum.frequencies_ghz),
        thickness_mm=THICKNESS_MM,
    )
    monkeypatch.setattr(inverse, "slab_transmission", counting(slab_transmission))
    monkeypatch.setattr(inverse, "slab_log_jacobian", counting(slab_log_jacobian))
    monkeypatch.setattr(inverse, "_MAX_ITER", 200)
    fit = fit_permittivity(spectrum, n_starts=3, complex_objective=complex_objective)
    # the fit evaluates its returned optimum once more for the dB residual
    assert fit.evaluations == len(calls) - 1
    assert fit.evaluations >= fit.iterations


@pytest.mark.parametrize("n_starts", [0, -3])
def test_start_count_below_one_rejected_before_any_evaluation(clean_spectrum, monkeypatch, n_starts):
    def no_model(*args):
        raise AssertionError("the model was evaluated")

    monkeypatch.setattr(inverse, "slab_transmission", no_model)
    with pytest.raises(ValueError, match=f"start count must be >= 1, got {n_starts}"):
        fit_permittivity(clean_spectrum, n_starts=n_starts)


def test_zero_thickness_rejected(clean_spectrum):
    with pytest.raises(ValueError):
        fit_permittivity(clean_spectrum, thickness_mm=0.0)
    bare = MeasuredSpectrum(clean_spectrum.frequencies_ghz, clean_spectrum.s21)
    with pytest.raises(ValueError):
        fit_permittivity(bare)


def test_noisy_monte_carlo_roundtrip(clean_spectrum):
    # 0.5 dB gaussian magnitude noise over 20 seeds; the reproduced spectrum
    # must track the generator within 0.6 dB RMS
    clean_db = clean_spectrum.magnitude_db
    f = clean_spectrum.frequencies_ghz
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        noisy = MeasuredSpectrum(
            f, 10.0 ** ((clean_db + rng.normal(0.0, 0.5, f.size)) / 20.0), magnitude_only=True, thickness_mm=THICKNESS_MM
        )
        fit = fit_permittivity(noisy, n_starts=4, seed=seed)
        assert fit.converged
        reproduced = slab_transmission_db(fit.a, fit.b, fit.c, fit.d, THICKNESS_MM, f)
        worst = max(worst, float(np.sqrt(np.mean((reproduced - clean_db) ** 2))))
    assert worst <= 0.6


def test_objective_at_truth_beats_returned_starts(clean_spectrum):
    fit = fit_permittivity(clean_spectrum, n_starts=8)
    truth_db = slab_transmission_db(*TRUE[:1], 0.0, *TRUE[1:], THICKNESS_MM, clean_spectrum.frequencies_ghz)
    truth_residual = float(np.sqrt(np.mean((truth_db - clean_spectrum.magnitude_db) ** 2)))
    for entry in fit.starts:
        assert truth_residual <= entry["residual"] + 1e-12


def test_fit_invariant_to_common_offset(clean_spectrum):
    f = clean_spectrum.frequencies_ghz
    reference = MeasuredSpectrum(f, np.full(f.size, 0.5 + 0.0j))
    offset = 10.0 ** (7.0 / 20.0)
    dut_a = MeasuredSpectrum(f, clean_spectrum.s21 * reference.s21, thickness_mm=THICKNESS_MM)
    dut_b = MeasuredSpectrum(f, dut_a.s21 * offset, thickness_mm=THICKNESS_MM)
    ref_b = MeasuredSpectrum(f, reference.s21 * offset)
    fit_a = fit_permittivity(normalize_spectrum(dut_a, reference), thickness_mm=THICKNESS_MM, n_starts=4)
    fit_b = fit_permittivity(normalize_spectrum(dut_b, ref_b), thickness_mm=THICKNESS_MM, n_starts=4)
    assert fit_a.a == pytest.approx(fit_b.a, rel=1e-6)
    assert fit_a.c == pytest.approx(fit_b.c, rel=1e-4)


def test_short_span_warns():
    # once per fit, for the magnitude and the complex objective alike
    f = np.linspace(3.0, 4.0, 8)
    spectrum = MeasuredSpectrum(f, slab_transmission(5.0, 0.0, 0.1, 0.5, 100.0, f), thickness_mm=100.0)
    for complex_objective in (False, True):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fit_permittivity(spectrum, n_starts=2, complex_objective=complex_objective)
        assert [w.category for w in caught] == [UserWarning]


def test_complex_objective_roundtrip(clean_spectrum):
    from signalwall.inverse import slab_transmission

    f = clean_spectrum.frequencies_ghz
    complex_spectrum = MeasuredSpectrum(
        f, slab_transmission(TRUE[0], 0.0, TRUE[1], TRUE[2], THICKNESS_MM, f), thickness_mm=THICKNESS_MM
    )
    fit = fit_permittivity(complex_spectrum, n_starts=6, complex_objective=True)
    assert fit.converged
    assert fit.a == pytest.approx(TRUE[0], abs=0.05)
    assert fit.residual_db_rms < 0.1


def _noisy_complex(f, seed):
    """The 290 mm slab's t with 0.5 dB and 3 degrees of gaussian noise."""
    rng = np.random.default_rng(seed)
    t = slab_transmission(TRUE[0], 0.0, TRUE[1], TRUE[2], THICKNESS_MM, f)
    noisy = t * 10.0 ** (rng.normal(0.0, 0.5, f.size) / 20.0) * np.exp(1j * np.radians(rng.normal(0.0, 3.0, f.size)))
    return MeasuredSpectrum(f, noisy, thickness_mm=THICKNESS_MM)


def _log_error(x, spectrum):
    error = np.log(slab_transmission(x[0], 0.0, x[1], x[2], THICKNESS_MM, spectrum.frequencies_ghz) / spectrum.s21)
    return np.concatenate([error.real, error.imag])


def _complex_rms(x, spectrum):
    """The RMS of |log(t_model / s21)| over the spectrum's points."""
    return float(np.sqrt(2.0 * np.mean(_log_error(x, spectrum) ** 2)))


def _polished_from_truth(spectrum):
    """The complex RMS of a trust-region solve started at the true coefficients."""
    lo, hi = np.array(inverse.DEFAULT_BOUNDS).T
    return _complex_rms(least_squares(_log_error, np.array(TRUE), args=(spectrum,), method="trf", bounds=(lo, hi)).x, spectrum)


def test_complex_fit_reaches_the_optimum_polished_from_the_truth():
    # a simplex search from random starts stalls in the d = 0 corner here (complex RMS 0.06 above the optimum)
    f = np.linspace(2.0, 8.0, 121)
    for seed in range(20):
        spectrum = _noisy_complex(f, seed)
        fit = fit_permittivity(spectrum, complex_objective=True)
        assert fit.converged
        assert _complex_rms((fit.a, fit.c, fit.d), spectrum) <= _polished_from_truth(spectrum) + 1e-9, seed


def test_complex_fit_on_an_aliased_grid_starts_on_the_slab_tooth():
    # 0.3 GHz steps through 290 mm wrap the slab phase by more than pi per step: the unwrapped slope
    # gives n = 1.03 instead of 2.42, one alias tooth c0 / (t df) = 3.45 below
    f = np.linspace(2.0, 8.0, 21)
    spectrum = _noisy_complex(f, 0)
    fit = fit_permittivity(spectrum, complex_objective=True)
    assert fit.a == pytest.approx(TRUE[0], abs=0.01)
    assert _complex_rms((fit.a, fit.c, fit.d), spectrum) <= _polished_from_truth(spectrum) + 1e-9


def test_every_alias_tooth_inside_the_bounds_pairs_with_the_seeded_starts():
    # 0.75 GHz steps: teeth 1.38 apart in n, so n = 1.04, 2.42 and 3.80 all square into a's 1-15 bounds
    f = np.linspace(2.0, 8.0, 9)
    spectrum = MeasuredSpectrum(f, slab_transmission(TRUE[0], 0.0, TRUE[1], TRUE[2], THICKNESS_MM, f))
    with pytest.warns(UserWarning, match="fewer than 10 points"):
        fit = fit_permittivity(spectrum, thickness_mm=THICKNESS_MM, n_starts=4, seed=5, complex_objective=True)
    teeth = np.sqrt([entry["x0"][0] for entry in fit.starts[::4]])
    assert len(fit.starts) == 12
    assert np.diff(teeth) == pytest.approx([2.99792458e8 / (0.29 * 0.75e9)] * 2)
    assert teeth[1] == pytest.approx(np.sqrt(TRUE[0]), abs=0.01)
    lo, hi = np.array(inverse.DEFAULT_BOUNDS).T
    rng = np.random.default_rng(5)
    seeded = [0.5 * (lo + hi)] + [lo + (hi - lo) * rng.random(3) for _ in range(3)]
    for tooth in range(3):
        assert np.array_equal([entry["x0"][1:] for entry in fit.starts[4 * tooth : 4 * tooth + 4]], [x[1:] for x in seeded])
    assert fit.a == pytest.approx(TRUE[0], rel=1e-6)


def test_a_group_delay_outside_the_bounds_starts_at_the_nearest_bound(clean_spectrum):
    f = clean_spectrum.frequencies_ghz
    spectrum = MeasuredSpectrum(f, slab_transmission(TRUE[0], 0.0, TRUE[1], TRUE[2], THICKNESS_MM, f))
    assert inverse._group_delay_starts(spectrum, THICKNESS_MM, (1.0, 15.0)) == [pytest.approx(TRUE[0], abs=0.05)]
    assert inverse._group_delay_starts(spectrum, THICKNESS_MM, (2.0, 4.0)) == [4.0]
    assert inverse._group_delay_starts(spectrum, THICKNESS_MM, (8.0, 9.0)) == [8.0]


def test_complex_starts_where_the_model_underflows_fail_alone():
    # at 50-100 GHz the 290 mm slab's t underflows to 0 from high-loss starts (the midpoint among them)
    f = np.linspace(50.0, 100.0, 101)
    spectrum = MeasuredSpectrum(f, slab_transmission(TRUE[0], 0.0, TRUE[1], TRUE[2], THICKNESS_MM, f), thickness_mm=THICKNESS_MM)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_permittivity(spectrum, complex_objective=True)
    failed = [entry for entry in fit.starts if not entry["success"]]
    assert failed and all(entry["residual"] == np.inf for entry in failed)
    assert fit.converged and fit.a == pytest.approx(TRUE[0], rel=1e-9)


def test_magnitude_starts_where_the_model_underflows_fail_alone():
    # the same 290 mm slab in magnitude only; |S21| does not pin a down there, so the fit's a is not checked
    f = np.linspace(50.0, 100.0, 101)
    t = slab_transmission(TRUE[0], 0.0, TRUE[1], TRUE[2], THICKNESS_MM, f)
    spectrum = MeasuredSpectrum(f, np.abs(t), magnitude_only=True, thickness_mm=THICKNESS_MM)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_permittivity(spectrum)
    failed = [entry for entry in fit.starts if not entry["success"]]
    assert failed and all(entry["residual"] == np.inf for entry in failed)
    assert fit.converged and fit.residual_db_rms < 1e-3


def test_a_simplex_run_into_underflow_prints_no_warning():
    # on seed 3 one simplex walks from a finite start of the 290 mm slab into a point where t underflows
    f = np.linspace(50.0, 100.0, 101)
    t = slab_transmission(TRUE[0], 0.0, TRUE[1], TRUE[2], THICKNESS_MM, f)
    spectrum = MeasuredSpectrum(f, np.abs(t), magnitude_only=True, thickness_mm=THICKNESS_MM)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_permittivity(spectrum, seed=3)
    assert fit.converged and fit.residual_db_rms < 1e-3


@pytest.mark.parametrize(("points", "complex_objective", "kind", "needed"), [(2, False, "magnitude", 3), (1, True, "complex", 2)])
def test_underdetermined_fits_rejected_before_any_evaluation(monkeypatch, points, complex_objective, kind, needed):
    def no_model(*args):
        raise AssertionError("the model was evaluated")

    f = np.linspace(2.0, 8.0, points)
    spectrum = MeasuredSpectrum(f, slab_transmission(5.0, 0.0, 0.1, 0.5, 45.0, f), thickness_mm=45.0)
    monkeypatch.setattr(inverse, "slab_transmission", no_model)
    message = f"^a {kind} fit of \\(a, c, d\\) needs at least {needed} points, got {points}$"
    with pytest.raises(ValueError, match=message):
        fit_permittivity(spectrum, complex_objective=complex_objective)


def test_complex_objective_needs_complex_data(clean_spectrum):
    with pytest.raises(ValueError):
        fit_permittivity(clean_spectrum, n_starts=2, complex_objective=True)


def test_deterministic_given_seed(clean_spectrum):
    one = fit_permittivity(clean_spectrum, n_starts=6, seed=3)
    two = fit_permittivity(clean_spectrum, n_starts=6, seed=3)
    assert one.a == two.a and one.c == two.c and one.d == two.d


@given(offset_db=st.floats(min_value=-30.0, max_value=0.0))
@settings(max_examples=20, deadline=None)
def test_normalization_offset_property(offset_db):
    f = np.linspace(1.0, 4.0, 16)
    base = MeasuredSpectrum(f, np.exp(1j * f) * 0.7)
    shifted = MeasuredSpectrum(f, base.s21 * 10.0 ** (offset_db / 20.0))
    result = normalize_spectrum(shifted, base)
    assert np.allclose(result.magnitude_db, offset_db, atol=1e-9)


def test_csv_reader_roundtrip(tmp_path, clean_spectrum):
    path = tmp_path / "meas.csv"
    with path.open("w") as fh:
        fh.write("freq_GHz,s21_dB,s21_phase_deg\n")
        for f, s in zip(clean_spectrum.frequencies_ghz, clean_spectrum.s21):
            fh.write(f"{f:.6f},{20*np.log10(abs(s)):.9f},{np.degrees(np.angle(s)):.9f}\n")
    loaded = read_spectrum_csv(path)
    assert np.allclose(loaded.magnitude_db, clean_spectrum.magnitude_db, atol=1e-6)
    assert not loaded.magnitude_only


def test_csv_reader_magnitude_only(tmp_path):
    path = tmp_path / "mag.csv"
    path.write_text("freq_GHz,s21_dB\n1.0,-3.0\n2.0,-6.0\n")
    loaded = read_spectrum_csv(path)
    assert loaded.magnitude_only
    assert loaded.magnitude_db == pytest.approx([-3.0, -6.0])


def test_csv_reader_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f,mag\n1.0,-3.0\n")
    with pytest.raises(SpectrumFormatError):
        read_spectrum_csv(path)


def _write_touchstone(path, fmt, rows):
    with path.open("w") as fh:
        fh.write("! example two-port file\n")
        fh.write(f"# GHz S {fmt} R 50\n")
        for row in rows:
            fh.write(" ".join(f"{v:.9f}" for v in row) + "\n")


def test_touchstone_ma_format(tmp_path):
    path = tmp_path / "dut.s2p"
    _write_touchstone(path, "MA", [[1.0, 0.1, 10.0, 0.5, 45.0, 0.5, 45.0, 0.1, 10.0], [2.0, 0.1, 0.0, 0.25, 90.0, 0.25, 90.0, 0.1, 0.0]])
    loaded = read_touchstone(path)
    assert loaded.frequencies_ghz == pytest.approx([1.0, 2.0])
    assert abs(loaded.s21[0]) == pytest.approx(0.5)
    assert np.angle(loaded.s21[1]) == pytest.approx(np.pi / 2.0)


def test_touchstone_db_format_and_hz_units(tmp_path):
    path = tmp_path / "dut_db.s2p"
    with path.open("w") as fh:
        fh.write("# HZ S DB R 50\n")
        fh.write("1.0e9 -20 0 -6.0205999 0 -6.0205999 0 -20 0\n")
    loaded = read_touchstone(path)
    assert loaded.frequencies_ghz == pytest.approx([1.0])
    assert abs(loaded.s21[0]) == pytest.approx(0.5, rel=1e-6)


@pytest.mark.parametrize("parameter", ["Y", "Z", "H", "G"])
def test_touchstone_reads_s_parameters_only(tmp_path, parameter):
    path = tmp_path / "dut.s2p"
    path.write_text(f"! example\n# GHz {parameter} RI R 50\n1.0 0 0 0.3 0.4 0.3 0.4 0 0\n")
    message = f"{path}, line 2: option line '# GHz {parameter} RI R 50' declares {parameter}-parameters; "
    with pytest.raises(SpectrumFormatError, match=f"^{re.escape(message)}only S-parameters can be read$"):
        read_touchstone(path)


def test_touchstone_dispatch(tmp_path):
    path = tmp_path / "x.s2p"
    _write_touchstone(path, "RI", [[1.0, 0.0, 0.0, 0.3, 0.4, 0.3, 0.4, 0.0, 0.0]])
    loaded = read_spectrum(path)
    assert loaded.s21[0] == pytest.approx(0.3 + 0.4j)


def test_measured_spectrum_validation():
    with pytest.raises(SpectrumFormatError):
        MeasuredSpectrum(np.array([2.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(SpectrumFormatError):
        MeasuredSpectrum(np.array([1.0, 2.0]), np.array([np.nan, 1.0]))


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("short.csv", "freq_GHz,s21_dB\n1.0,-3.0\n2.5\n", "line 3: expected 2 columns, got 1"),
        ("cell.csv", "freq_GHz,s21_dB\n1.0,-3.0\n2.0,x\n", "line 3: could not convert string to float: 'x'"),
        ("cell.s2p", "# GHz S MA R 50\n1.0 0.1 0 0.5 x 0.5 45 0.1 0\n", "line 2: could not convert string to float: 'x'"),
    ],
    ids=["short_csv_row", "csv_cell", "touchstone_cell"],
)
def test_readers_name_the_file_and_line_of_a_bad_row(tmp_path, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(SpectrumFormatError, match=f"^{re.escape(f'{path}, {message}')}$"):
        read_spectrum(path)


def test_measured_spectrum_rejects_zero_s21():
    with pytest.raises(SpectrumFormatError, match="S21 must be finite and nonzero"):
        MeasuredSpectrum(np.array([1.0, 2.0]), np.array([0.5, 0.0]))
