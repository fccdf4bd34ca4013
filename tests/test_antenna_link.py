import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signalwall import antenna_link
from signalwall.antenna_link import (
    COMBINATION_MODES,
    ONSET_TOL_GHZ,
    AntennaSpec,
    CoaxSpec,
    UnitCell,
    aperture_transmission,
    coax_attenuation,
    coax_impedance,
    combine_paths,
    improvement_onset_ghz,
    link_budget,
)
from signalwall.constants import MU0
from signalwall.layered_em import Incidence, _coefficients, amplitude_db, tmm_coefficients
from signalwall.materials import FixedPermittivity, Material, PermittivityModel

ETA0 = 376.730313668


@pytest.fixture(scope="module")
def steel_ptfe(db):
    """Cable materials of the default scenario, for CoaxSpec(*steel_ptfe, ...)."""
    return db.get("stainless_steel"), db.get("ptfe_low_density")


def test_dual_coax_impedance_design_point(steel_ptfe):
    spec = CoaxSpec(*steel_ptfe)
    assert coax_impedance(spec, 3.5) == pytest.approx(82.0, abs=0.5)
    assert 2 * coax_impedance(spec, 3.5) == pytest.approx(164.0, abs=1.0)  # the balanced pair


def test_impedance_log_unity_point(db):
    spec = CoaxSpec(db.get("stainless_steel"), db.get("air"), inner_radius_mm=1.0, outer_radius_mm=math.e)
    assert coax_impedance(spec, 3.5) == pytest.approx(ETA0 / (2.0 * math.pi), rel=1e-9)
    assert coax_impedance(spec, 3.5) == pytest.approx(59.95, abs=0.01)


def test_impedance_with_literal_dielectric_radius(steel_ptfe):
    # reading the 1.76 mm outer diameter as dielectric + shield instead gives
    # a visibly different line; hand evaluation of the same log formula
    spec = CoaxSpec(*steel_ptfe, outer_radius_mm=0.68, shield_thickness_mm=0.15)
    assert coax_impedance(spec, 3.5) == pytest.approx(70.5, abs=0.1)


def test_impedance_follows_a_dispersive_dielectric(db):
    # eps' = 2 f**0.5 with f in GHz: 2 at 1 GHz, 4 at 4 GHz, so Z0 halves
    dispersive = Material("dispersive", 0.2, PermittivityModel(2.0, 0.5))
    spec = CoaxSpec(db.get("stainless_steel"), dispersive)
    assert coax_impedance(spec, 4.0) == pytest.approx(coax_impedance(spec, 1.0) / math.sqrt(2.0), rel=1e-12)


def test_invalid_geometry_rejected(steel_ptfe):
    with pytest.raises(ValueError):
        CoaxSpec(*steel_ptfe, inner_radius_mm=1.0, outer_radius_mm=0.5)
    with pytest.raises(ValueError):
        CoaxSpec(*steel_ptfe, shield_thickness_mm=2.0)


def test_cable_losses_scale_with_length(steel_ptfe):
    spec = CoaxSpec(*steel_ptfe)
    f = np.array([3.5, 8.0])
    full = coax_attenuation(spec, f)  # the default wall's 0.44 m
    half = coax_attenuation(spec, f, 0.22)
    assert half.total_db == pytest.approx(full.total_db / 2.0, rel=1e-12)


def test_cable_materials_need_their_electrical_data(db):
    steel, ptfe = db.get("stainless_steel"), db.get("ptfe_low_density")
    with pytest.raises(TypeError):
        CoaxSpec()  # no default materials: the scenario names them
    with pytest.raises(ValueError, match="conductor material 'ptfe_low_density' has no resistivity_ohm_m"):
        CoaxSpec(ptfe, ptfe)
    with pytest.raises(ValueError, match="dielectric material 'stainless_steel' has no permittivity"):
        CoaxSpec(steel, steel)


def test_cable_losses_at_design_frequencies(steel_ptfe):
    spec = CoaxSpec(*steel_ptfe)
    assert coax_attenuation(spec, 3.5).total_db == pytest.approx(3.7, abs=0.5)
    assert coax_attenuation(spec, 8.0).total_db == pytest.approx(6.3, abs=0.5)


def test_lossless_dielectric_leaves_conductor_loss(db):
    # every conductor in the database has a resistivity > 0, so only the
    # dielectric term can vanish
    spec = CoaxSpec(db.get("stainless_steel"), db.get("air"))
    result = coax_attenuation(spec, 5.0)
    assert result.dielectric_db == 0.0
    assert result.total_db == result.conductor_db > 0.0


def test_dielectric_loss_reads_the_loss_tangent(db):
    # same eps', ten times the eps'': ten times the dielectric loss, same
    # conductor loss (Z0 depends on eps' alone)
    steel = db.get("stainless_steel")
    low = coax_attenuation(CoaxSpec(steel, Material("low", 0.2, FixedPermittivity(1.75, 0.001))), 5.0)
    high = coax_attenuation(CoaxSpec(steel, Material("high", 0.2, FixedPermittivity(1.75, 0.01))), 5.0)
    assert high.dielectric_db == pytest.approx(10.0 * low.dielectric_db, rel=1e-12)
    assert high.conductor_db == low.conductor_db


def test_copper_conductor_lowers_the_cable_loss(db):
    ptfe = db.get("ptfe_low_density")
    steel = coax_attenuation(CoaxSpec(db.get("stainless_steel"), ptfe), 3.5)
    copper = coax_attenuation(CoaxSpec(db.get("copper"), ptfe), 3.5)
    # R_s scales as sqrt(rho): copper's 1.724e-8 vs steel's 6.9e-7 ohm m
    assert copper.conductor_db == pytest.approx(steel.conductor_db * math.sqrt(1.724e-8 / 6.9e-7), rel=1e-12)
    assert copper.dielectric_db == steel.dielectric_db
    assert copper.total_db < steel.total_db


def test_conductor_loss_scales_as_sqrt_f(steel_ptfe):
    spec = CoaxSpec(*steel_ptfe)
    ratio = coax_attenuation(spec, 8.0).conductor_db / coax_attenuation(spec, 3.5).conductor_db
    assert ratio == pytest.approx(math.sqrt(8.0 / 3.5), rel=0.01)


def test_a_thick_shield_keeps_the_thick_conductor_loss(steel_ptfe):
    # the default 0.2 mm shield spans 15 skin depths at 1 GHz: coth((1 + j) t / delta) is 1 to
    # 1e-13 there, and exactly 1 in float64 from 1.5 GHz up
    spec = CoaxSpec(*steel_ptfe)
    f = np.linspace(1.0, 100.0, 991)
    f_hz = f * 1e9
    r_surf = np.sqrt(math.pi * f_hz * MU0 * spec.conductor.resistivity_ohm_m)
    r_per_m = r_surf / (2.0 * math.pi) * (1.0 / (spec.inner_radius_mm * 1e-3) + 1.0 / (spec.outer_radius_mm * 1e-3))
    thick_db = 20.0 / math.log(10.0) * (r_per_m / (2.0 * coax_impedance(spec, f))) * 0.44
    got = coax_attenuation(spec, f).conductor_db
    np.testing.assert_allclose(got, thick_db, rtol=1e-12, atol=0.0)
    assert np.array_equal(got[f >= 1.5], thick_db[f >= 1.5])


def test_halving_a_thick_shield_leaves_the_cable_loss(steel_ptfe):
    full = coax_attenuation(CoaxSpec(*steel_ptfe), 3.5).total_db
    half = coax_attenuation(CoaxSpec(*steel_ptfe, shield_thickness_mm=0.1), 3.5).total_db
    assert half == pytest.approx(full, abs=1e-9)  # 0.1 mm is 14 skin depths at 3.5 GHz


@pytest.mark.parametrize("shield_mm, f_ghz", [(0.005, 0.001), (0.001, 0.01), (0.002, 0.003)])
def test_a_thin_shield_tends_to_its_sheet_resistance(steel_ptfe, shield_mm, f_ghz):
    spec = CoaxSpec(*steel_ptfe, shield_thickness_mm=shield_mm)
    rho = spec.conductor.resistivity_ohm_m
    skin_depth = math.sqrt(rho / (math.pi * f_ghz * 1e9 * MU0))
    t, a, b = shield_mm * 1e-3, spec.inner_radius_mm * 1e-3, spec.outer_radius_mm * 1e-3
    assert t / skin_depth <= 0.03
    pin = math.sqrt(math.pi * f_ghz * 1e9 * MU0 * rho) / (2.0 * math.pi * a)
    r_per_m = coax_attenuation(spec, f_ghz).conductor_db * math.log(10.0) / (20.0 * 0.44) * 2.0 * coax_impedance(spec, f_ghz)
    shield = r_per_m - pin
    assert shield == pytest.approx(rho / (2.0 * math.pi * b * t), rel=1e-6)


def _exact_resistances(spec, f_ghz):
    """Per-metre resistances of pin and shield from the exact internal impedances of round conductors.

    With g = (1 + j) / delta (Schelkunoff, Bell Syst. Tech. J. 13:532, 1934), the pin of radius a has
    Z_a = g rho / (2 pi a) I0(g a) / I1(g a), and the inner surface of a tube from b to c with no field
    outside Z_b = g rho / (2 pi b) [I0(g b) K1(g c) + K0(g b) I1(g c)] / [I1(g c) K1(g b) - I1(g b) K1(g c)].
    The model's shield term takes ``outer_radius_mm`` as its radius, so the tube's inner surface sits
    there, b, and its outer surface at c = b + ``shield_thickness_mm``.  With I(z) = ive(z) e^(Re z) and
    K(z) = kve(z) e^(-z), each product carries one factor e^(Re z_b - z_c) or e^(Re z_c - z_b), which stays
    finite where plain ``iv`` overflows (copper at 8 GHz).
    """
    from scipy.special import ive, kve

    rho = spec.conductor.resistivity_ohm_m
    g = (1 + 1j) / np.sqrt(rho / (math.pi * np.asarray(f_ghz, dtype=float) * 1e9 * MU0))
    a, b = spec.inner_radius_mm * 1e-3, spec.outer_radius_mm * 1e-3
    c = b + spec.shield_thickness_mm * 1e-3
    za, zb, zc = g * a, g * b, g * c
    pin = g * rho / (2.0 * math.pi * a) * ive(0, za) / ive(1, za)
    down, up = np.exp(zb.real - zc), np.exp(zc.real - zb)
    numerator = ive(0, zb) * kve(1, zc) * down + kve(0, zb) * ive(1, zc) * up
    denominator = ive(1, zc) * kve(1, zb) * up - ive(1, zb) * kve(1, zc) * down
    shield = g * rho / (2.0 * math.pi * b) * numerator / denominator
    return pin.real, shield.real


def _model_resistances(spec, f_ghz):
    """The model's per-metre pin and shield resistances, read back from its conductor loss over 0.44 m."""
    r_per_m = coax_attenuation(spec, f_ghz).conductor_db * math.log(10.0) / (20.0 * 0.44) * 2.0 * coax_impedance(spec, f_ghz)
    r_surf = np.sqrt(math.pi * np.asarray(f_ghz) * 1e9 * MU0 * spec.conductor.resistivity_ohm_m)
    pin = r_surf / (2.0 * math.pi * spec.inner_radius_mm * 1e-3)
    return pin, r_per_m - pin


@pytest.mark.parametrize("metal", ["stainless_steel", "copper"])
@pytest.mark.parametrize("shield_mm", [0.005, 0.01, 0.02, 0.05, 0.1, 0.2])
def test_the_shield_term_meets_the_exact_tube_impedance(db, metal, shield_mm):
    spec = CoaxSpec(db.get(metal), db.get("ptfe_low_density"), shield_thickness_mm=shield_mm)
    f = np.linspace(1.0, 8.0, 15)
    exact = _exact_resistances(spec, f)[1]
    assert np.all(np.isfinite(exact))
    np.testing.assert_allclose(_model_resistances(spec, f)[1], exact, rtol=0.01, atol=0.0)


def test_the_conductor_loss_meets_the_exact_round_conductors(steel_ptfe):
    # the model's pin term R_s / (2 pi a) lacks the round wire's curvature term, ~delta / (2 a), so the
    # conductor loss reads ~2.4% low at 2.6 GHz and ~1.4% low at 8 GHz, ~0.06 dB over the 0.44 m cable
    spec = CoaxSpec(*steel_ptfe)
    f = np.array([2.6, 3.5, 8.0])
    exact_db = 20.0 / math.log(10.0) * sum(_exact_resistances(spec, f)) / (2.0 * coax_impedance(spec, f)) * 0.44
    model_db = coax_attenuation(spec, f).conductor_db
    np.testing.assert_allclose(model_db, exact_db, rtol=0.03, atol=0.0)
    assert np.all(model_db < exact_db)


@pytest.mark.parametrize("shield_mm", [0.005, 0.2])
def test_the_exact_impedances_meet_the_dc_resistance(steel_ptfe, shield_mm):
    spec = CoaxSpec(*steel_ptfe, shield_thickness_mm=shield_mm)
    rho = spec.conductor.resistivity_ohm_m
    a, b = spec.inner_radius_mm * 1e-3, spec.outer_radius_mm * 1e-3
    c = b + shield_mm * 1e-3
    pin, shield = _exact_resistances(spec, 1e-6)  # 1 kHz
    assert pin + shield == pytest.approx(rho / (math.pi * a**2) + rho / (math.pi * (c**2 - b**2)), rel=1e-6)


def test_gain_model_plateau_and_rolloff():
    spec = AntennaSpec()
    assert spec.gain_dbi_at(5.0) == 4.6
    assert spec.gain_dbi_at(2.7) == 4.6
    assert spec.gain_dbi_at(1.35) == pytest.approx(4.6 - 24.0)
    flat = AntennaSpec(rolloff_db_per_octave=0.0)
    assert flat.gain_dbi_at(1.0) == 4.6


def test_gain_table_interpolation():
    spec = AntennaSpec(gain_table=((2.0, 0.0), (4.0, 6.0)))
    assert spec.gain_dbi_at(3.0) == pytest.approx(3.0)
    assert spec.gain_dbi_at(1.0) == 0.0   # clamped
    assert spec.gain_dbi_at(8.0) == 6.0
    with pytest.raises(ValueError):
        AntennaSpec(gain_table=((4.0, 0.0), (2.0, 6.0)))


def test_pattern_rolloff():
    spec = AntennaSpec(pattern_exponent=1.0)
    assert spec.gain_at(5.0, 60.0) == pytest.approx(spec.gain_at(5.0, 0.0) * 0.5)


def test_aperture_saturation_clamp(antenna_cell):
    # force the effective aperture beyond the cell: the capture fraction must
    # clamp at 1 leaving exactly the cable loss
    big = dataclasses.replace(
        antenna_cell,
        antenna=AntennaSpec(gain_dbi=30.0, rolloff_db_per_octave=0.0),
        foam=dataclasses.replace(antenna_cell.foam, size_mm=40.0),
    )
    small = big.with_separation(41.0)  # the foam block must fit the cell
    t = aperture_transmission(small, 1.5)
    cable_db = coax_attenuation(small.coax, 1.5).total_db
    assert 20.0 * math.log10(t) == pytest.approx(-cable_db, abs=1e-9)


@pytest.mark.parametrize("frequency", [0.0, -1.0, np.array([1.0, 0.0])])
def test_aperture_rejects_frequencies_at_or_below_zero(antenna_cell, frequency):
    with pytest.raises(ValueError, match="frequency must be > 0 GHz"):
        aperture_transmission(antenna_cell, frequency)


def test_aperture_decreases_with_cell_area(antenna_cell):
    t_values = [aperture_transmission(antenna_cell.with_separation(s), 8.0) for s in (90.0, 120.0, 150.0, 200.0)]
    assert all(a > b for a, b in zip(t_values, t_values[1:]))


def test_antenna_power_times_the_cell_area_is_fixed_below_full_capture(antenna_cell):
    # |t_antenna|^2 = (A_eff / A_cell) L_cable while the capture fraction is < 1, so |t_antenna|^2 s^2 is the same
    cable = 10.0 ** (-coax_attenuation(antenna_cell.coax, 8.0, antenna_cell.wall.depth_mm * 1e-3).total_db / 10.0)
    products = []
    for s in (90.0, 150.0):
        _, t_antenna, _ = link_budget(antenna_cell.with_separation(s), 8.0)
        assert t_antenna.shape == (1,)
        assert t_antenna[0] ** 2 / cable < 0.05  # capture 0.040 at 90 mm, 0.014 at 150 mm
        products.append(t_antenna[0] ** 2 * s * s)
    assert products[0] == pytest.approx(products[1], rel=1e-12, abs=0.0)


def test_embedded_level_at_8_ghz(antenna_cell):
    level = 20.0 * math.log10(aperture_transmission(antenna_cell, 8.0))
    assert level == pytest.approx(-25.5, abs=3.0)


@pytest.mark.parametrize(
    "antenna",
    [
        AntennaSpec(),
        AntennaSpec(gain_table=((1.0, -20.0), (2.7, 4.6), (6.0, 5.2), (8.0, 4.9))),
        AntennaSpec(rolloff_db_per_octave=0.0),
    ],
    ids=["default", "gain_table", "rolloff_0"],
)
@pytest.mark.parametrize("theta", [0.0, 45.0])
def test_array_calls_match_a_loop_of_float_calls(antenna_cell, antenna, theta):
    cell = dataclasses.replace(antenna_cell, antenna=antenna)
    f = np.linspace(1.0, 8.0, 141)
    floats = f.tolist()

    cable = coax_attenuation(cell.coax, f)
    for field in ("total_db", "conductor_db", "dielectric_db"):
        looped = [getattr(coax_attenuation(cell.coax, fi), field) for fi in floats]
        assert np.array_equal(getattr(cable, field), looped), field

    t_ant = aperture_transmission(cell, f, theta)
    looped_ant = np.array([aperture_transmission(cell, fi, theta) for fi in floats])
    assert t_ant.shape == f.shape
    np.testing.assert_array_max_ulp(t_ant, looped_ant, maxulp=2)

    t_wall, _ = _coefficients(cell.wall, f, theta, "RHCP")
    for mode in ("incoherent", "coherent_best", "coherent_worst"):
        looped = [combine_paths(t, a, mode) for t, a in zip(t_wall.tolist(), looped_ant.tolist())]
        assert np.array_equal(combine_paths(t_wall, looped_ant, mode), looped), mode

    # link_budget is the hand composition wall -> antenna -> combination, bit for bit, on the band and the summary
    for freqs in (f, np.array([3.5, 8.0])):
        t_wall, _ = _coefficients(cell.wall, freqs, theta, "RHCP")
        t_ant = aperture_transmission(cell, freqs, theta)
        for mode in COMBINATION_MODES:
            budget = link_budget(cell, freqs, theta, "RHCP", mode)
            for got, want in zip(budget, (t_wall, t_ant, combine_paths(t_wall, t_ant, mode))):
                assert got.shape == freqs.shape and got.tobytes() == want.tobytes(), (freqs.size, mode)
            improvement = amplitude_db(combine_paths(t_wall, t_ant, mode)) - amplitude_db(t_wall)
            assert budget.improvement_db.tobytes() == improvement.tobytes(), (freqs.size, mode)


def test_combine_paths_modes():
    assert combine_paths(0.0, 0.3) == pytest.approx(0.3)
    assert combine_paths(0.4 + 0.0j, 0.0) == pytest.approx(0.4)
    incoherent = combine_paths(0.3, 0.4, "incoherent")
    best = combine_paths(0.3, 0.4, "coherent_best")
    worst = combine_paths(0.3, 0.4, "coherent_worst")
    assert worst <= incoherent <= best
    assert incoherent == pytest.approx(0.5)
    assert incoherent >= 0.4  # no worse than the stronger path
    with pytest.raises(ValueError):
        combine_paths(0.3, 0.4, "quantum")
    with pytest.raises(ValueError):
        combine_paths(1.5, 0.4)


@given(w=st.floats(min_value=0.0, max_value=1.0), a=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=100, deadline=None)
def test_combine_ordering_property(w, a):
    worst = combine_paths(w, a, "coherent_worst")
    incoherent = combine_paths(w, a, "incoherent")
    best = combine_paths(w, a, "coherent_best")
    assert worst <= incoherent + 1e-12
    assert incoherent <= best + 1e-12
    assert incoherent + 1e-12 >= max(w, a)


def test_improvement_at_8_ghz_150mm(antenna_cell, wall):
    t_wall, _ = tmm_coefficients(wall, Incidence(8.0, 0.0, "RHCP"))
    combined = combine_paths(t_wall, aperture_transmission(antenna_cell, 8.0))
    improvement = amplitude_db(combined) - amplitude_db(t_wall)
    assert improvement == pytest.approx(17.0, abs=3.0)


def test_improvement_at_8_ghz_90mm(antenna_cell, wall):
    t_wall, _ = tmm_coefficients(wall, Incidence(8.0, 0.0, "RHCP"))
    combined = combine_paths(t_wall, aperture_transmission(antenna_cell.with_separation(90.0), 8.0))
    improvement = amplitude_db(combined) - amplitude_db(t_wall)
    assert improvement == pytest.approx(22.0, abs=3.0)


def test_improvement_onset_in_band(antenna_cell):
    onset = improvement_onset_ghz(antenna_cell)
    assert onset is not None
    assert 2.0 <= onset <= 3.5
    # the crossover means both paths are equal there: combined sits ~3 dB up
    t_wall, _ = tmm_coefficients(antenna_cell.wall, Incidence(onset, 0.0, "RHCP"))
    t_ant = aperture_transmission(antenna_cell, onset)
    assert abs(t_ant) == pytest.approx(abs(t_wall), rel=0.05)


@pytest.mark.parametrize("theta, pol, onset", [(0.0, "RHCP", 2.2725), (45.0, "TM", 2.2525)])
def test_onset_grid_values(antenna_cell, theta, pol, onset):
    # the midpoint of the first 0.005 GHz step of 1-8 GHz over which the antenna path comes to lead
    assert improvement_onset_ghz(antenna_cell, 1.0, 8.0, theta, pol) == onset


@pytest.mark.parametrize(
    "band, theta, pol, onset",
    [((1.0, 2.0), 0.0, "RHCP", None), ((1.0, 2.0), 60.0, "TE", 1.9674999999999998), ((2.5, 8.0), 0.0, "RHCP", 2.5)],
    ids=["no-crossing", "midpoint", "band-start"],
)
def test_onset_reads_the_first_scanned_point_where_the_antenna_path_leads(antenna_cell, band, theta, pol, onset):
    assert improvement_onset_ghz(antenna_cell, *band, theta, pol) == onset


def test_one_onset_is_one_link_budget(monkeypatch, antenna_cell):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return link_budget(*args, **kwargs)

    monkeypatch.setattr(antenna_link, "link_budget", counting)
    improvement_onset_ghz(antenna_cell)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "separation, band, theta, pol",
    [
        (150.0, (1.0, 8.0), 0.0, "RHCP"),
        (150.0, (1.0, 8.0), 45.0, "TM"),
        (150.0, (2.0, 2.29), 0.0, "RHCP"),
        (150.0, (1.0, 2.0), 60.0, "TE"),
        (80.0, (1.0, 8.0), 30.0, "TE"),
        (500.0, (1.0, 8.0), 0.0, "TM"),
        (150.0, (2.5, 8.0), 0.0, "RHCP"),
        (150.0, (1.0, 2.0), 0.0, "RHCP"),
    ],
)
def test_onset_lies_within_half_a_step_of_a_fine_scan(antenna_cell, separation, band, theta, pol):
    cell = antenna_cell.with_separation(separation)
    step = 1e-4
    scan = np.linspace(*band, round((band[1] - band[0]) / step) + 1)
    t_wall, t_antenna, _ = link_budget(cell, scan, theta, pol)
    ahead = np.flatnonzero(t_antenna >= np.abs(t_wall))
    onset = improvement_onset_ghz(cell, *band, theta, pol)
    if ahead.size == 0:
        assert onset is None
    elif ahead[0] == 0:
        assert onset == band[0]
    else:
        # the scan places the crossing within half its own step of its first leading step's midpoint
        crossing = 0.5 * (scan[ahead[0] - 1] + scan[ahead[0]])
        assert abs(onset - crossing) <= ONSET_TOL_GHZ / 2 + step / 2


@pytest.mark.parametrize(
    "band, theta, pol", [((1.0, 2.0), 60.0, "TE"), ((1.0, 8.0), 0.0, "RHCP"), ((2.5, 8.0), 0.0, "RHCP")]
)
def test_onset_is_a_python_float(antenna_cell, band, theta, pol):
    assert type(improvement_onset_ghz(antenna_cell, *band, theta, pol)) is float


@pytest.mark.parametrize("theta", [90.0, -1.0])
@pytest.mark.parametrize(
    "call",
    [
        lambda cell, theta: Incidence(3.5, theta),
        lambda cell, theta: aperture_transmission(cell, 3.5, theta),
        lambda cell, theta: link_budget(cell, [3.5, 8.0], theta),
        lambda cell, theta: improvement_onset_ghz(cell, 1.0, 8.0, theta),
    ],
    ids=["Incidence", "aperture_transmission", "link_budget", "improvement_onset_ghz"],
)
def test_every_theta_check_is_the_incidence_rule(antenna_cell, call, theta):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the rule runs before the wall solve divides by cos(90 deg)
        with pytest.raises(ValueError, match=r"^theta must be in \[0, 90\) degrees, got "):
            call(antenna_cell, theta)


@pytest.mark.parametrize("band", [(8.0, 1.0), (0.5, 8.0), (3.0, 3.0), (1.0, 101.0)])
def test_onset_rejects_a_bad_band_as_transmission_spectrum_does(antenna_cell, band):
    with pytest.raises(ValueError, match=r"frequency band must satisfy 1 <= start < stop <= 100 GHz, got \["):
        improvement_onset_ghz(antenna_cell, *band)


def test_onset_none_without_antennas(antenna_cell, wall):
    bare = UnitCell(150.0, 150.0, wall)
    assert improvement_onset_ghz(bare) is None


def test_common_loss_offset_preserves_argmax(antenna_cell):
    # scaling every separation's antenna path by a fixed dB offset must not
    # change which separation wins
    seps = (90.0, 110.0, 150.0, 190.0)

    def levels(extra_db):
        scale = 10.0 ** (-extra_db / 20.0)
        out = []
        for s in seps:
            cell = antenna_cell.with_separation(s)
            t_wall, _ = tmm_coefficients(cell.wall, Incidence(8.0, 0.0, "RHCP"))
            out.append(combine_paths(t_wall, aperture_transmission(cell, 8.0) * scale))
        return out

    base = levels(0.0)
    shifted = levels(6.0)
    assert int(np.argmax(base)) == int(np.argmax(shifted))


def test_cell_validation(wall, antenna_cell):
    coax = antenna_cell.coax

    def pad(part, **changes):
        return {part: dataclasses.replace(getattr(antenna_cell, part), **changes)}

    with pytest.raises(ValueError):
        UnitCell(30.0, 30.0, wall, antenna=AntennaSpec(), coax=coax, laminate=antenna_cell.laminate)
    # each part fits the 150 mm cell of the 440 mm wall at its limit and is refused just beyond it
    for fits, beyond, message in (
        ({"coax": dataclasses.replace(coax, count=85)}, {"coax": dataclasses.replace(coax, count=86)}, "cable pack"),
        (pad("foam", size_mm=150.0), pad("foam", size_mm=150.5), "foam block"),
        (pad("foam", thickness_mm=219.5), pad("foam", thickness_mm=219.6), "overlap in the 440.0 mm wall"),
        (pad("foam", thickness_mm=1e-3), pad("foam", thickness_mm=0.0), "foam size and thickness must be > 0"),
        (pad("laminate", size_mm=1e-3), pad("laminate", size_mm=-400.0), "laminate size and thickness must be > 0"),
    ):
        dataclasses.replace(antenna_cell, **fits)
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(antenna_cell, **beyond)


def test_cell_rejects_features_it_would_ignore(wall, antenna_cell):
    with pytest.raises(ValueError, match="antenna and coax need each other"):
        UnitCell(150.0, 150.0, wall, antenna=AntennaSpec())
    with pytest.raises(ValueError, match="antenna and coax need each other"):
        UnitCell(150.0, 150.0, wall, coax=antenna_cell.coax)
    for feature in ("foam", "laminate"):
        with pytest.raises(ValueError, match="foam and laminate need an antenna system"):
            UnitCell(150.0, 150.0, wall, **{feature: getattr(antenna_cell, feature)})
