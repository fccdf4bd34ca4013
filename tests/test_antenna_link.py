import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signalwall.antenna_link import (
    AntennaSpec,
    CoaxSpec,
    UnitCell,
    aperture_transmission,
    coax_attenuation,
    coax_impedance,
    combine_paths,
    improvement_onset_ghz,
)
from signalwall.layered_em import Incidence, amplitude_db, tmm_coefficients

ETA0 = 376.730313668


def test_dual_coax_impedance_design_point():
    spec = CoaxSpec()
    assert coax_impedance(spec) == pytest.approx(82.0, abs=0.5)
    assert 2 * coax_impedance(spec) == pytest.approx(164.0, abs=1.0)  # the balanced pair


def test_impedance_log_unity_point():
    spec = CoaxSpec(inner_radius_mm=1.0, outer_radius_mm=math.e, shield_thickness_mm=0.2, eps_r=1.0)
    assert coax_impedance(spec) == pytest.approx(ETA0 / (2.0 * math.pi), rel=1e-9)
    assert coax_impedance(spec) == pytest.approx(59.95, abs=0.01)


def test_impedance_with_literal_dielectric_radius():
    # reading the 1.76 mm outer diameter as dielectric + shield instead gives
    # a visibly different line; hand evaluation of the same log formula
    spec = CoaxSpec(outer_radius_mm=0.68, shield_thickness_mm=0.15)
    assert coax_impedance(spec) == pytest.approx(70.5, abs=0.1)


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError):
        CoaxSpec(inner_radius_mm=1.0, outer_radius_mm=0.5)
    with pytest.raises(ValueError):
        CoaxSpec(shield_thickness_mm=2.0)
    with pytest.raises(ValueError):
        CoaxSpec(length_m=0.0)


def test_cable_losses_at_design_frequencies():
    spec = CoaxSpec()
    assert coax_attenuation(spec, 3.5).total_db == pytest.approx(3.7, abs=0.5)
    assert coax_attenuation(spec, 8.0).total_db == pytest.approx(6.3, abs=0.5)
    assert coax_attenuation(spec, 3.5).skin_depth_ok


def test_lossless_line():
    spec = CoaxSpec(tan_delta=0.0, resistivity_ohm_m=0.0)
    result = coax_attenuation(spec, 5.0)
    assert result.total_db == 0.0


def test_conductor_loss_scales_as_sqrt_f():
    spec = CoaxSpec(tan_delta=0.0)
    ratio = coax_attenuation(spec, 8.0).conductor_db / coax_attenuation(spec, 3.5).conductor_db
    assert ratio == pytest.approx(math.sqrt(8.0 / 3.5), rel=0.01)


def test_skin_depth_warning_for_thin_shield():
    # at 1 MHz-scale frequencies the skin depth in steel exceeds 0.2 mm
    result = coax_attenuation(CoaxSpec(), 0.002)
    assert not result.skin_depth_ok


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
    big = dataclasses.replace(antenna_cell, antenna=AntennaSpec(gain_dbi=30.0, rolloff_db_per_octave=0.0))
    small = big.with_separation(41.0)
    t = aperture_transmission(small, 1.5)
    cable_db = coax_attenuation(small.coax, 1.5).total_db
    assert 20.0 * math.log10(t) == pytest.approx(-cable_db, abs=1e-9)


def test_aperture_decreases_with_cell_area(antenna_cell):
    t_values = [aperture_transmission(antenna_cell.with_separation(s), 8.0) for s in (90.0, 120.0, 150.0, 200.0)]
    assert all(a > b for a, b in zip(t_values, t_values[1:]))


def test_embedded_level_at_8_ghz(antenna_cell):
    level = 20.0 * math.log10(aperture_transmission(antenna_cell, 8.0))
    assert level == pytest.approx(-25.5, abs=3.0)


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


def test_cell_validation(wall, db):
    with pytest.raises(ValueError):
        UnitCell(30.0, 30.0, wall, antenna=AntennaSpec(), coax=CoaxSpec(), laminate=db.get("laminate"))
    with pytest.raises(ValueError):
        UnitCell(150.0, 150.0, wall, antenna=AntennaSpec(), coax=CoaxSpec(length_m=0.3))
