import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from signalwall.cli import main
from signalwall.inverse import slab_transmission_db


def read_csv_columns(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_transmission_summary_and_csv(tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert main(["transmission", "-o", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "23.07" in printed
    assert "42.48" in printed
    header, rows = read_csv_columns(out)
    assert header == ["freq_GHz", "t_dB", "t_phase_deg", "r_dB", "r_phase_deg", "pol", "theta_deg"]
    assert len(rows) == 141


def test_transmission_prints_a_summary_line_only_for_the_frequencies_in_band(tmp_path, capsys):
    # 1-3 GHz holds neither 3.5 nor 8 GHz, so nothing stands between the header and the file line
    narrow = tmp_path / "b13.csv"
    assert main(["transmission", "--band", "1:3", "-o", str(narrow)]) == 0
    assert capsys.readouterr().out == (
        "wall: sandwich_wall_with_spiral_antennas  pol=RHCP theta=0.0 deg  band 1.0-3.0 GHz (141 points)\n"
        f"spectrum written to {narrow}\n"
    )
    default = tmp_path / "t.csv"
    assert main(["transmission", "-o", str(default)]) == 0
    assert capsys.readouterr().out == (
        "wall: sandwich_wall_with_spiral_antennas  pol=RHCP theta=0.0 deg  band 1.0-8.0 GHz (141 points)\n"
        "  3.5 GHz: wall loss  23.07 dB\n"
        "  8.0 GHz: wall loss  42.48 dB\n"
        f"spectrum written to {default}\n"
    )


def test_transmission_with_antennas_summary(tmp_path, capsys):
    out = tmp_path / "ta.csv"
    assert main(["transmission", "--with-antennas", "-o", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "improvement" in printed
    assert "onset" in printed
    onset_line = [l for l in printed.splitlines() if "onset" in l][0]
    onset = float(onset_line.split(":")[1].split("GHz")[0])
    assert 2.0 <= onset <= 3.5


def test_onset_at_the_band_start_is_reported_as_a_bound(tmp_path, capsys):
    # the antenna path already leads the bare wall at 4 GHz, so the crossing lies at or below the band
    assert main(["transmission", "--band", "4:6:5", "--with-antennas", "-o", str(tmp_path / "t.csv")]) == 0
    onset_lines = [line for line in capsys.readouterr().out.splitlines() if "improvement onset" in line]
    assert onset_lines == ["  improvement onset: at or below 4.00 GHz (band start)"]


def test_onset_between_the_last_scan_step_and_the_band_end_is_found(tmp_path, capsys):
    # the crossing lies at 2.2736 GHz, 0.016 GHz below the band end; the default band prints it as 2.27 GHz too
    assert main(["transmission", "--band", "2.0:2.29:30", "--with-antennas", "-o", str(tmp_path / "t.csv")]) == 0
    onset_lines = [line for line in capsys.readouterr().out.splitlines() if "improvement onset" in line]
    assert onset_lines == ["  improvement onset: 2.27 GHz"]


def test_onset_without_a_crossing_in_the_band_is_reported(tmp_path, capsys):
    # below 2 GHz the bare wall leads the antenna path at every scanned point
    assert main(["transmission", "--band", "1:2:11", "--with-antennas", "-o", str(tmp_path / "t.csv")]) == 0
    onset_lines = [line for line in capsys.readouterr().out.splitlines() if "improvement onset" in line]
    assert onset_lines == ["  improvement onset: none in band"]


def test_transmission_reruns_are_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["transmission", "--with-antennas", "-o", str(a)]) == 0
    assert main(["transmission", "--with-antennas", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_rhcp_equals_te_at_normal_incidence(tmp_path):
    cp = tmp_path / "cp.csv"
    te = tmp_path / "te.csv"
    assert main(["transmission", "--theta", "0", "--pol", "RHCP", "-o", str(cp)]) == 0
    assert main(["transmission", "--theta", "0", "--pol", "TE", "-o", str(te)]) == 0
    _, cp_rows = read_csv_columns(cp)
    _, te_rows = read_csv_columns(te)
    for row_cp, row_te in zip(cp_rows, te_rows):
        assert row_cp[:5] == row_te[:5]  # identical numbers, only the pol label differs


def test_uvalue_analytical(capsys):
    assert main(["uvalue", "--analytical"]) == 0
    printed = capsys.readouterr().out
    assert "0.1509" in printed


def test_uvalue_bare_fv_matches_analytical(capsys):
    assert main(["uvalue", "--bare"]) == 0
    printed = capsys.readouterr().out
    values = [float(line.split("U = ")[1].split()[0]) for line in printed.splitlines() if "U = " in line]
    assert len(values) == 2
    assert values[1] == pytest.approx(values[0], rel=0.005)


def test_fit_permittivity_roundtrip_via_cli(tmp_path, capsys):
    f = np.linspace(2.0, 8.0, 61)
    db = slab_transmission_db(5.84, 0.0, 0.205, 0.06, 290.0, f)
    path = tmp_path / "meas.csv"
    with path.open("w") as fh:
        fh.write("freq_GHz,s21_dB\n")
        for fi, di in zip(f, db):
            fh.write(f"{fi:.6f},{di:.9f}\n")
    assert main(["fit-permittivity", str(path), "--thickness", "290", "--starts", "6"]) == 0
    printed = capsys.readouterr().out
    assert "a = 5.84" in printed
    assert "residual" in printed


def test_uvalue_that_stops_short_exits_3_and_still_writes_the_vtk(tmp_path, monkeypatch, capsys):
    from signalwall import thermal

    monkeypatch.setattr(thermal, "_MAX_ITER", 5)
    vtk = tmp_path / "t.vtk"
    assert main(["uvalue", "--fv", "--export-vtk", str(vtk)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "warning: finite-volume solve did not converge\n"
    assert captured.out.endswith(f"temperature field written to {vtk}\n")
    assert vtk.read_text().startswith("# vtk DataFile Version 3.0\n")


def test_uvalue_on_the_70_mm_cell_converges_and_exits_0(tmp_path, capsys):
    # the residual test alone stops CG there with the face flows 1.08e-6 apart, over the 1e-6 balance
    path = tmp_path / "s70.json"
    path.write_text(json.dumps(_edited_default_scenario(lambda d: d["unit_cell"].update(sx_mm=70, sy_mm=70))))
    assert main(["uvalue", "--fv", "--scenario", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "U = 0.1747 W/(m^2 K)" in captured.out


def test_fit_prints_start_and_evaluation_counts_last(tmp_path, capsys):
    f = np.linspace(2.0, 8.0, 41)
    db = slab_transmission_db(5.24, 0.0, 0.0462, 0.78, 60.0, f)
    path = tmp_path / "meas.csv"
    path.write_text("freq_GHz,s21_dB\n" + "".join(f"{fi:.6f},{di:.9f}\n" for fi, di in zip(f, db)))
    assert main(["fit-permittivity", str(path), "--thickness", "60", "--starts", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2].startswith("  eps_r(")
    converged, starts, evaluations = re.fullmatch(r"  starts: (\d+)/(\d+) converged, (\d+) model evaluations", lines[-1]).groups()
    assert int(starts) == 3 and 1 <= int(converged) <= 3 and int(evaluations) > 0
    # output parsers look for these fields on the lines above
    assert not any(key in lines[-1] for key in ("a = ", "c = ", "d = ", "residual:"))


def test_fit_rejects_a_dead_reference_point_before_fitting(tmp_path, monkeypatch, capsys):
    from signalwall import cli

    def no_fit(*args, **kwargs):
        raise AssertionError("the fit must not run")

    monkeypatch.setattr(cli, "fit_permittivity", no_fit)
    f = np.linspace(2.0, 8.0, 61)
    ref_db = np.full(f.size, -3.0)
    ref_db[30] = -130.0
    dut, ref = tmp_path / "dut.csv", tmp_path / "ref.csv"
    for path, db in ((dut, slab_transmission_db(5.24, 0.0, 0.0462, 0.78, 40.0, f) + ref_db), (ref, ref_db)):
        path.write_text("freq_GHz,s21_dB\n" + "".join(f"{fi:.6f},{di:.9f}\n" for fi, di in zip(f, db)))
    assert main(["fit-permittivity", str(dut), "--reference", str(ref), "--thickness", "40"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: reference ref.csv: 1 point(s) below -100 dB at 5 GHz" in captured.err


def _write_db_csv(path, f, db):
    path.write_text("freq_GHz,s21_dB\n" + "".join(f"{fi:.6f},{di:.9f}\n" for fi, di in zip(f, db)))


def test_fit_that_converges_from_no_start_exits_3(tmp_path, capsys):
    # a 290 mm slab over 50-100 GHz, with c and d boxed away from the true 0.205 S/m and 0.06
    f = np.linspace(50.0, 100.0, 21)
    path = tmp_path / "thick.csv"
    _write_db_csv(path, f, slab_transmission_db(5.84, 0.0, 0.205, 0.06, 290.0, f))
    bounds = ["1", "15", "1.5", "2", "1.5", "2"]
    assert main(["fit-permittivity", str(path), "--thickness", "290", "--bounds", *bounds, "--starts", "4"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "fit did not converge from any start\n"


def test_fit_rejects_an_interpolated_reference_that_misses_part_of_the_dut_band(tmp_path, monkeypatch, capsys):
    # a 45 mm slab measured over 2-8 GHz through a sloped fixture that was recorded over 3-7 GHz only
    from signalwall import cli

    f = np.linspace(2.0, 8.0, 61)
    dut, ref = tmp_path / "dut.csv", tmp_path / "ref.csv"
    _write_db_csv(dut, f, slab_transmission_db(5.24, 0.0, 0.0462, 0.78, 45.0, f) - 3.0 - 0.5 * f)
    narrow = np.linspace(3.0, 7.0, 81)
    _write_db_csv(ref, narrow, -3.0 - 0.5 * narrow)
    fit = cli.fit_permittivity
    monkeypatch.setattr(cli, "fit_permittivity", lambda *args, **kwargs: pytest.fail("the fit must not run"))
    argv = ["fit-permittivity", str(dut), "--reference", str(ref), "--interpolate", "--thickness", "45", "--starts", "4"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: reference ref.csv covers 3-7 GHz only; the DUT points at 2-2.9 and 7.1-8 GHz lie outside it "
        "and cannot be interpolated\n"
    )
    # a reference over the whole band, on a finer grid holding every DUT point, recovers the slab
    monkeypatch.setattr(cli, "fit_permittivity", fit)
    wide = np.linspace(2.0, 8.0, 121)
    _write_db_csv(ref, wide, -3.0 - 0.5 * wide)
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert "a = 5.2400" in printed and "c = 0.0462" in printed and "d = 0.7800" in printed


@pytest.mark.parametrize("parameter", ["Y", "Z", "H", "G"])
def test_fit_rejects_a_touchstone_file_of_other_than_s_parameters(tmp_path, monkeypatch, capsys, parameter):
    from signalwall import cli

    monkeypatch.setattr(cli, "fit_permittivity", lambda *args, **kwargs: pytest.fail("the fit must not run"))
    path = tmp_path / "dut.s2p"
    path.write_text(f"# GHz {parameter} RI R 50\n2 0 0 0.5 0 0.5 0 0 0\n4 0 0 0.4 0 0.4 0 0 0\n")
    assert main(["fit-permittivity", str(path), "--thickness", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {path}, line 1: option line '# GHz {parameter} RI R 50' declares {parameter}-parameters; "
        "only S-parameters can be read\n"
    )


def test_fit_names_the_interpolate_flag_when_the_grids_differ(tmp_path, monkeypatch, capsys):
    from signalwall import cli

    monkeypatch.setattr(cli, "fit_permittivity", lambda *args, **kwargs: pytest.fail("the fit must not run"))
    dut, ref = tmp_path / "dut.csv", tmp_path / "ref.csv"
    _write_db_csv(dut, np.linspace(2.0, 8.0, 61), np.full(61, -10.0))
    _write_db_csv(ref, np.linspace(2.0, 8.0, 121), np.full(121, -1.0))
    assert main(["fit-permittivity", str(dut), "--reference", str(ref), "--thickness", "45"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: frequency grids differ; pass --interpolate to resample the reference onto the DUT grid\n"


@pytest.mark.parametrize(
    ("rows", "flags", "message"),
    [
        ("freq_GHz,s21_dB\n2.0,-3.0\n8.0,-5.0\n", [], "a magnitude fit of (a, c, d) needs at least 3 points, got 2"),
        ("freq_GHz,s21_dB,s21_phase_deg\n5.0,-3.0,40.0\n", ["--complex"], "a complex fit of (a, c, d) needs at least 2 points, got 1"),
    ],
    ids=["magnitude_2_points", "complex_1_point"],
)
def test_fit_rejects_fewer_points_than_the_unknowns_need(tmp_path, capsys, rows, flags, message):
    # (a, c, d) are three unknowns: a magnitude point gives one equation, a complex point two
    path = tmp_path / "meas.csv"
    path.write_text(rows)
    assert main(["fit-permittivity", str(path), "--thickness", "60", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("starts", ["0", "-3"])
def test_fit_rejects_a_start_count_below_one(tmp_path, capsys, starts):
    path = tmp_path / "meas.csv"
    path.write_text("freq_GHz,s21_dB\n2.0,-3.0\n4.0,-4.0\n8.0,-5.0\n")
    assert main(["fit-permittivity", str(path), "--thickness", "60", "--starts", starts]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"start count must be >= 1, got {starts}" in captured.err


def test_fit_rejects_nonpositive_a_bound(tmp_path, capsys):
    path = tmp_path / "meas.csv"
    path.write_text("freq_GHz,s21_dB\n2.0,-3.0\n4.0,-4.0\n8.0,-5.0\n")
    argv = ["fit-permittivity", str(path), "--thickness", "60", "--bounds", "0", "15", "1e-4", "2", "0", "2"]
    assert main(argv) == 2
    assert "low bound of a must be > 0" in capsys.readouterr().err


def test_fit_rejects_a_short_row_with_its_file_and_line(tmp_path, capsys):
    path = tmp_path / "meas.csv"
    path.write_text("freq_GHz,s21_dB\n2.0,-3.0\n2.5\n8.0,-5.0\n")
    assert main(["fit-permittivity", str(path), "--thickness", "60"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}, line 3: expected 2 columns, got 1\n"


def test_fit_requires_thickness(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text("freq_GHz,s21_dB\n1.0,-3.0\n")
    with pytest.raises(SystemExit) as exc:
        main(["fit-permittivity", str(path)])
    assert exc.value.code == 2


def test_unknown_material_maps_to_usage_exit(tmp_path, capsys):
    scenario = {"wall": {"layers": [{"material": "mythril", "thickness_mm": 100.0}]}}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario))
    assert main(["transmission", "--scenario", str(path)]) == 2
    assert "mythril" in capsys.readouterr().err


def test_sweep_infeasible_exit_code(tmp_path, capsys):
    assert main(["sweep", "--separations", "150", "--u-limit", "0.05", "-o", str(tmp_path / "s.csv")]) == 3
    printed = capsys.readouterr().out
    assert "no separation" in printed


def test_sweep_solves_each_separation_once(monkeypatch, capsys):
    from signalwall import design_sweep

    solved = []
    solve = design_sweep.solve_steady_state

    def counting_solve(grid, *args, **kwargs):
        solved.append(float(grid.x_nodes_mm[-1]))
        return solve(grid, *args, **kwargs)

    monkeypatch.setattr(design_sweep, "solve_steady_state", counting_solve)
    assert main(["sweep", "--separations", "70,80"]) == 0
    printed = capsys.readouterr().out
    assert sorted(solved) == [70.0, 80.0]
    rows = [line.split() for line in printed.splitlines() if line.split() and line.split()[0].isdigit()]
    smallest = min(float(row[0]) for row in rows if row[2] == "True")
    edge = float(printed.split("smallest feasible separation:")[1].split("mm")[0])
    assert edge == smallest


def test_sweep_names_every_unconverged_separation_on_stderr(tmp_path, monkeypatch, capsys):
    from signalwall import design_sweep
    from signalwall.thermal import UValueResult

    def run(converged):
        def solve(grid, *args, **kwargs):
            return UValueResult(u=0.15, converged=converged(float(grid.x_nodes_mm[-1])), iterations=1, residual=0.0)

        monkeypatch.setattr(design_sweep, "solve_steady_state", solve)
        out = tmp_path / "s.csv"
        code = main(["sweep", "--separations", "72.5,150,160", "-o", str(out)])
        return code, capsys.readouterr(), out.read_text()

    code, printed, table = run(lambda s: s == 72.5)
    assert printed.err == "warning: finite-volume solve did not converge at 150, 160 mm\n"
    code_ok, printed_ok, table_ok = run(lambda s: True)
    assert printed_ok.err == ""
    # an unconverged separation is not feasible: its table row reads False and its CSV rows 0,
    # while the converged 72.5 mm stays the answer and the exit code stays 0
    assert code == code_ok == 0
    rows = [line.split() for line in printed.out.splitlines() if line.split() and line.split()[0][0].isdigit()]
    assert [(row[0], row[2]) for row in rows] == [("72.5", "True"), ("150", "False"), ("160", "False")]
    assert "smallest feasible separation: 72.5 mm" in printed.out
    feasible = {row.split(",")[0]: row.split(",")[2] for row in table.splitlines()[1:]}
    assert feasible == {"72.500": "1", "150.000": "0", "160.000": "0"}
    # nothing else moves: the converged run differs only in those feasible flags
    assert printed.out.replace(" False", "  True") == printed_ok.out  # the column is right-aligned
    assert [row.split(",")[:2] + row.split(",")[3:] for row in table.splitlines()] == [
        row.split(",")[:2] + row.split(",")[3:] for row in table_ok.splitlines()
    ]



def _stub_sweep_solves(monkeypatch, u_of_separation, converged=True):
    from signalwall import design_sweep
    from signalwall.thermal import UValueResult

    def solve(grid, *args, **kwargs):
        u = u_of_separation[float(grid.x_nodes_mm[-1])]
        return UValueResult(u=u, converged=converged, iterations=1, residual=0.0)

    monkeypatch.setattr(design_sweep, "solve_steady_state", solve)


def test_infeasible_sweep_names_the_separation_with_the_lowest_u(monkeypatch, capsys):
    # U need not fall with separation (near the pad size it does not), so the closest record is not the largest one
    _stub_sweep_solves(monkeypatch, {150.0: 0.20, 160.0: 0.21})
    assert main(["sweep", "--separations", "150,160", "--u-limit", "0.05"]) == 3
    assert "the closest is 0.2000 at 150 mm" in capsys.readouterr().out


def test_fractional_separations_print_unrounded(monkeypatch, capsys):
    _stub_sweep_solves(monkeypatch, {72.5: 0.15, 150.0: 0.14})
    assert main(["sweep", "--separations", "72.5,150"]) == 0
    printed = capsys.readouterr().out
    rows = [line.split()[0] for line in printed.splitlines() if line.split() and line.split()[0][0].isdigit()]
    assert rows == ["72.5", "150"]
    assert "smallest feasible separation: 72.5 mm" in printed
    _stub_sweep_solves(monkeypatch, {72.5: 0.20, 150.0: 0.21})
    assert main(["sweep", "--separations", "72.5,150"]) == 3
    assert "no separation in ['72.5', '150'] mm" in capsys.readouterr().out


def test_a_sweep_with_no_converged_solve_has_no_answer(monkeypatch, capsys):
    # U = 0.15 meets the 0.17 limit, but no solve established it
    _stub_sweep_solves(monkeypatch, {72.5: 0.15, 150.0: 0.15}, converged=False)
    assert main(["sweep", "--separations", "72.5,150"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "warning: finite-volume solve did not converge at 72.5, 150 mm\n"
    assert "smallest feasible separation" not in captured.out
    assert "the closest is 0.1500 at 72.5 mm, whose solve did not converge" in captured.out


def test_sweep_warns_when_the_solver_stops_short(monkeypatch, capsys):
    from signalwall import thermal

    monkeypatch.setattr(thermal, "_MAX_ITER", 5)
    main(["sweep", "--separations", "150"])
    assert capsys.readouterr().err == "warning: finite-volume solve did not converge at 150 mm\n"


def test_empty_separations_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--separations", "nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "option, value",
    [
        ("--separations", "70:200:0"),
        ("--separations", "200:70:10"),
        ("--frequencies", "1:8:-1"),
        ("--frequencies", "8:1:1"),
    ],
)
def test_bad_range_lists_exit_before_solving(monkeypatch, capsys, option, value):
    from signalwall import design_sweep

    def no_solve(*args, **kwargs):
        raise AssertionError("solve_steady_state must not run")

    monkeypatch.setattr(design_sweep, "solve_steady_state", no_solve)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", option, value])
    assert exc.value.code == 2
    assert option in capsys.readouterr().err


@pytest.mark.parametrize("option, value", [("--separations", "150,150"), ("--frequencies", "3.5,3.5")])
def test_repeated_sweep_values_exit_before_solving(monkeypatch, capsys, option, value):
    from signalwall import design_sweep

    def no_solve(*args, **kwargs):
        raise AssertionError("solve_steady_state must not run")

    monkeypatch.setattr(design_sweep, "solve_steady_state", no_solve)
    assert main(["sweep", option, value]) == 2
    assert "must not repeat" in capsys.readouterr().err


def test_sweep_sizes_every_cell_before_solving(monkeypatch, capsys):
    from signalwall import design_sweep

    def no_solve(*args, **kwargs):
        raise AssertionError("solve_steady_state must not run")

    monkeypatch.setattr(design_sweep, "solve_steady_state", no_solve)
    assert main(["sweep", "--separations", "150,45"]) == 2
    assert "must hold the foam block (50.0 mm)" in capsys.readouterr().err
    for separation in ("inf", "nan"):  # an infinite cell would never finish meshing; the parser refuses it
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--separations", f"150,{separation}"])
        assert exc.value.code == 2
        assert f"argument --separations: expected a finite number, got '{separation}'" in capsys.readouterr().err


def test_sweep_names_a_separation_too_wide_to_mesh_before_any_solve(monkeypatch, capsys):
    from signalwall import design_sweep

    solved = []
    solve = design_sweep.solve_steady_state

    def counting_solve(grid, *args, **kwargs):
        solved.append(float(grid.x_nodes_mm[-1]))
        return solve(grid, *args, **kwargs)

    monkeypatch.setattr(design_sweep, "solve_steady_state", counting_solve)
    assert main(["sweep", "--separations", "80,1700"]) == 2
    assert solved == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cell (1700.0 x 1700.0 mm): mesh of 5,481,332 cells (178 x 173 x 178) exceeds the 5,000,000-cell limit\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["transmission", "--band", "1:8:1000000000000"], "argument --band: band F1:F2:N allows N <= 100,000"),
        (["transmission", "--band", "1:8:99999999999999999999"], "argument --band: band F1:F2:N allows N <= 100,000"),
        (["fdtd-validate", "--step", "0.000000000001"], "has 7000000001000 points, more than 701; widen the step"),
        (["sweep", "--separations", "70:200:0.0000000001"], "argument --separations: range 70:200:0.0000000001 has"),
        (["sweep", "--frequencies", "1:100:0.0000000001"], "argument --frequencies: range 1:100:0.0000000001 has"),
    ],
    ids=["band-1e12", "band-1e20", "fdtd-step", "separations-range", "frequencies-range"],
)
def test_a_grid_flag_over_its_point_bound_exits_2_without_a_traceback(tmp_path, argv, message):
    # each grid would need terabytes; it is counted, and refused, before it is allocated
    from signalwall import cli

    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "signalwall.cli", *argv], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60
    )
    assert time.perf_counter() - start < 10.0
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_a_separation_list_over_its_bound_exits_2_before_any_mesh(monkeypatch, tmp_path, capsys):
    from signalwall import design_sweep

    meshed = []
    monkeypatch.setattr(design_sweep, "voxelize_unit_cell", meshed.append)
    assert main(["sweep", "--separations", "70:200:0.1"]) == 2
    assert capsys.readouterr().err == "error: 1,301 separations exceed the 500-separation limit\n"
    path = tmp_path / "s.json"
    path.write_text(json.dumps(_edited_default_scenario(lambda d: d["sweep"].update(separations_mm=list(range(70, 571))))))
    assert main(["sweep", "--scenario", str(path)]) == 2
    assert "501 separations exceed the 500-separation limit" in capsys.readouterr().err
    assert meshed == []


def test_a_sweep_over_its_row_bound_exits_2_before_any_mesh(monkeypatch, capsys):
    from signalwall import design_sweep

    meshed = []
    monkeypatch.setattr(design_sweep, "voxelize_unit_cell", meshed.append)
    assert main(["sweep", "--separations", "70:200:1", "--frequencies", "1:100:0.001"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: 131 separations x 99,001 frequencies = 12,969,131 rows exceed the 2,000,000-row limit\n"
    )
    assert meshed == []


@pytest.mark.parametrize(
    "command", [["transmission", "--with-antennas"], ["sweep"], ["uvalue"]], ids=["transmission", "sweep", "uvalue"]
)
@pytest.mark.parametrize(
    "part, key, value, message",
    [
        ("foam", "size_mm", 200.0, "must hold the foam block (200.0 mm)"),
        ("coax", "count", 120, "must hold the cable pack (120 lines of 1.76 mm side by side)"),
        ("foam", "thickness_mm", 220.0, "laminate + foam stacks of both faces (441.0 mm) overlap in the 440.0 mm wall"),
    ],
    ids=["foam-200", "coax-120", "overlapping-stack"],
)
def test_parts_outside_the_cell_exit_at_the_unit_cell(tmp_path, monkeypatch, capsys, command, part, key, value, message):
    from signalwall import cli, design_sweep
    from signalwall.scenario import default_scenario_text

    def no_solve(*args, **kwargs):
        raise AssertionError("solve_steady_state must not run")

    monkeypatch.setattr(design_sweep, "solve_steady_state", no_solve)
    monkeypatch.setattr(cli, "solve_steady_state", no_solve)
    monkeypatch.chdir(tmp_path)
    data = json.loads(default_scenario_text())
    data["unit_cell"][part][key] = value
    Path("s.json").write_text(json.dumps(data))
    assert main([*command, "--scenario", "s.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: unit_cell: ") and message in captured.err
    assert not Path("transmission.csv").exists()


@pytest.mark.parametrize("from_scenario", [False, True])
def test_sweep_frequencies_outside_the_material_model_range_exit_before_solving(
    tmp_path, monkeypatch, capsys, from_scenario
):
    from signalwall import design_sweep
    from signalwall.scenario import default_scenario_text

    def no_solve(*args, **kwargs):
        raise AssertionError("solve_steady_state must not run")

    monkeypatch.setattr(design_sweep, "solve_steady_state", no_solve)
    if from_scenario:
        data = json.loads(default_scenario_text())
        data["sweep"]["frequencies_ghz"] = [0.3, 0.5]
        path = tmp_path / "low.json"
        path.write_text(json.dumps(data))
        argv, where = ["sweep", "--scenario", str(path)], "error: sweep: "
    else:
        argv, where = ["sweep", "--separations", "150", "--frequencies", "0.3,0.5"], "error: "
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(where + "frequencies must lie in the material model's 1-100 GHz range")


def test_materials_list(capsys):
    assert main(["materials", "list"]) == 0
    printed = capsys.readouterr().out
    assert "concrete" in printed
    assert "rock_wool" in printed
    assert "a=5.24" in printed


def test_materials_flag_merges_user_database(tmp_path, capsys):
    extra = tmp_path / "extra.json"
    extra.write_text(json.dumps({"materials": [{"name": "hempcrete", "thermal_conductivity": 0.07}]}))
    assert main(["materials", "list", "--materials", str(extra)]) == 0
    printed = capsys.readouterr().out
    assert "hempcrete" in printed
    assert "concrete" in printed


def test_materials_flag_reports_a_bad_entry_under_its_file(tmp_path, capsys):
    extra = tmp_path / "extra.json"
    extra.write_text(json.dumps({"materials": [{"name": "x", "thermal_conductivity": 1.0, "permittivity": {}}]}))
    assert main(["materials", "list", "--materials", str(extra)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {extra}: materials[0].permittivity.eps_real: required field is missing\n"


@pytest.mark.parametrize("inline", [False, True])
def test_an_alias_naming_another_material_exits_2_at_its_path(tmp_path, capsys, inline):
    # before, every "concrete" of the scenario silently resolved to x (U = 0.1548 instead of 0.1509)
    entry = {"name": "x", "thermal_conductivity": 99, "permittivity": {"a": 2}, "aliases": ["concrete"]}
    if inline:
        from signalwall.scenario import default_scenario_text

        data = json.loads(default_scenario_text())
        data["materials"] = [entry]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        argv, where = ["uvalue", "--analytical", "--scenario", str(path)], ""
    else:
        path = tmp_path / "extra.json"
        path.write_text(json.dumps({"materials": [{"name": "y", "thermal_conductivity": 1}, entry]}))
        argv, where = ["uvalue", "--analytical", "--materials", str(path)], f"{path}: "
    index = 0 if inline else 1
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {where}materials[{index}].aliases[0]: 'concrete' already names material 'concrete'\n"


def test_fdtd_validate_small_band(capsys):
    assert main(["fdtd-validate", "--band", "3.4:3.6", "--step", "0.1"]) == 0
    printed = capsys.readouterr().out
    assert "max |delta|" in printed
    max_delta = float(printed.splitlines()[-1].split(":")[1].split("dB")[0])
    assert max_delta <= 0.5


def test_fdtd_validate_takes_a_one_point_band_that_transmission_rejects(tmp_path, capsys):
    # the comparison grid runs from start to stop in --step, so 3:3 is the one point 3 GHz;
    # the transmission grid is a linspace of >= 2 points and needs start < stop
    assert main(["fdtd-validate", "--band", "3:3", "--step", "0.5", "--dz", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[1:-1]] == ["3.00"]
    assert lines[-1].endswith(" dB over 1 points")
    assert main(["transmission", "--band", "3:3", "-o", str(tmp_path / "t.csv")]) == 2
    assert "error: frequency band must satisfy 1 <= start < stop <= 100 GHz, got [3.0, 3.0]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "band, step, named",
    [
        ("1:8", "0", "step"),
        ("1:8", "-0.5", "step"),
        ("2:1", "0.1", "band"),
        ("0.01:0.02", "0.01", "band"),
        ("0.2:0.8", "0.3", "band 0.2:0.8 GHz needs 1 <= start <= stop <= 100 GHz"),
        ("90:101", "1", "band 90:101 GHz needs 1 <= start <= stop <= 100 GHz"),
        ("2:3:99", "0.5", "band"),
        ("1:8", "0.001", "grid 1:8 GHz every 0.001 GHz has 7001 points, more than 701"),  # ~1.5 GB of traces
    ],
)
def test_fdtd_validate_rejects_empty_grid_before_time_stepping(monkeypatch, capsys, wall, band, step, named):
    from signalwall import fdtd

    def no_time_loop(*args, **kwargs):
        raise AssertionError("the time loop must not run")

    monkeypatch.setattr(fdtd, "_time_step_batch", no_time_loop)
    argv = ["fdtd-validate", "--band", band, "--step", step]
    if band.count(":") != 1:
        # a point count has no meaning on the comparison grid: the parser rejects it
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument --band: comparison band must be F1:F2 in GHz, got '{band}'" in capsys.readouterr().err
        return
    assert main(argv) == 2
    assert f"error: comparison {named}" in capsys.readouterr().err
    f1, f2 = (float(v) for v in band.split(":"))
    with pytest.raises(fdtd.FdtdError, match=named):
        fdtd.validate_against_tmm(wall, f1, f2, float(step))


def test_fdtd_validate_warns_when_traces_have_not_decayed(tmp_path, monkeypatch, capsys):
    from signalwall import fdtd

    monkeypatch.setattr(fdtd, "_decayed", lambda peak, tail: False)
    scenario = tmp_path / "slab.json"
    scenario.write_text(json.dumps({"wall": {"layers": [{"material": "concrete", "thickness_mm": 20.0}]}}))
    argv = ["fdtd-validate", "--scenario", str(scenario), "--band", "2:3", "--step", "1", "--dz", "2"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert "max |delta|" in captured.out
    assert "warning: FDTD probe traces had not decayed" in captured.err


def test_fdtd_validate_rejects_a_layer_below_unit_permittivity_before_time_stepping(tmp_path, monkeypatch, capsys):
    from signalwall import fdtd

    def no_time_loop(*args, **kwargs):
        raise AssertionError("the time loop must not run")

    monkeypatch.setattr(fdtd, "_time_step_batch", no_time_loop)
    scenario = tmp_path / "thin.json"
    scenario.write_text(
        json.dumps(
            {
                "materials": [{"name": "thin", "thermal_conductivity": 1.0, "permittivity": {"a": 0.5}}],
                "wall": {"layers": [{"material": "thin", "thickness_mm": 20.0}]},
            }
        )
    )
    assert main(["fdtd-validate", "--scenario", str(scenario), "--band", "2:3", "--step", "0.5"]) == 2
    assert "error: layer 1 (thin) has eps' = 0.5 at 2 GHz" in capsys.readouterr().err


def test_fdtd_validate_reports_an_unstable_time_loop_as_a_usage_exit(monkeypatch, capsys):
    from signalwall import fdtd

    material_arrays = fdtd._material_arrays

    def below_unit_permittivity(stack, layout, freeze_ghz):
        eps, sig = material_arrays(stack, layout, freeze_ghz)
        eps[:, layout.i_stack + 10: layout.i_stack + 20] = 0.25  # no input gets eps' < 1 past the check
        return eps, sig

    monkeypatch.setattr(fdtd, "_material_arrays", below_unit_permittivity)
    with np.errstate(all="ignore"):
        assert main(["fdtd-validate", "--band", "2:3", "--step", "1", "--dz", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: field grew to ")
    assert captured.err.endswith("; the time loop is unstable\n")
    assert "Traceback" not in captured.err


def test_with_antennas_runs_a_thin_shield_without_a_warning(tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert main(["transmission", "--with-antennas", "-o", str(out)]) == 0
    assert capsys.readouterr().err == ""

    # 5 um of steel is 0.38 skin depths at 1 GHz: the finite-thickness shield loss, with no warning
    path = _default_scenario_file(tmp_path, lambda cell: cell["coax"].update(shield_thickness_mm=0.005))
    assert main(["transmission", "--with-antennas", "--scenario", str(path), "-o", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "  3.5 GHz: combined   -14.47 dB   improvement   8.60 dB\n" in captured.out
    assert main(["transmission", "--scenario", str(path), "-o", str(out)]) == 0
    assert capsys.readouterr().err == ""


def _default_scenario_file(tmp_path, edit):
    from importlib import resources

    scenario = json.loads(resources.files("signalwall").joinpath("data/default_scenario.json").read_text())
    edit(scenario["unit_cell"])
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    return path


def test_copper_conductor_lowers_the_cable_loss_of_the_antenna_path(tmp_path):
    path = _default_scenario_file(tmp_path, lambda cell: cell["coax"].update(conductor_material="copper"))
    steel, copper = tmp_path / "steel.csv", tmp_path / "copper.csv"
    assert main(["transmission", "--with-antennas", "-o", str(steel)]) == 0
    assert main(["transmission", "--with-antennas", "--scenario", str(path), "-o", str(copper)]) == 0
    _, steel_rows = read_csv_columns(steel)
    _, copper_rows = read_csv_columns(copper)
    steel_db = np.array([float(row[1]) for row in steel_rows])
    copper_db = np.array([float(row[1]) for row in copper_rows])
    assert np.all(copper_db >= steel_db) and np.any(copper_db > steel_db)


@pytest.mark.parametrize(
    "edit, path",
    [
        (lambda cell: cell["coax"].update(eps_r=1.75), "unit_cell.coax.eps_r: unknown field"),
        (lambda cell: cell.update(conductor_material="copper"), "unit_cell.conductor_material: unknown field"),
        (lambda cell: cell.pop("coax"), "unit_cell: antenna and coax need each other"),
    ],
)
def test_old_or_ignored_cable_keys_exit_2_with_their_path(tmp_path, monkeypatch, capsys, edit, path):
    from signalwall import cli

    def no_solve(*args, **kwargs):
        raise AssertionError("solve_steady_state must not run")

    monkeypatch.setattr(cli, "solve_steady_state", no_solve)
    scenario = _default_scenario_file(tmp_path, edit)
    assert main(["uvalue", "--fv", "--scenario", str(scenario)]) == 2
    assert path in capsys.readouterr().err


def _drop_antenna_system(cell):
    for key in ("antenna", "coax", "foam", "laminate"):
        cell.pop(key)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["transmission", "--with-antennas"], "unit cell has no antenna system"),
        (["sweep", "--separations", "150"], "sweep needs a unit cell with an antenna system"),
    ],
)
def test_bare_cell_exits_2_before_writing_or_solving(tmp_path, monkeypatch, capsys, argv, message):
    from signalwall import cli, design_sweep

    def no_solve(*args, **kwargs):
        raise AssertionError("solve_steady_state must not run")

    monkeypatch.setattr(cli, "solve_steady_state", no_solve)
    monkeypatch.setattr(design_sweep, "solve_steady_state", no_solve)
    scenario = _default_scenario_file(tmp_path, _drop_antenna_system)
    out = tmp_path / "out.csv"
    assert main([*argv, "--scenario", str(scenario), "-o", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_an_integer_beyond_the_float_range_exits_2_at_its_path(tmp_path, capsys):
    path = _default_scenario_file(tmp_path, lambda cell: cell["coax"].update(count=10**400))
    assert main(["uvalue", "--analytical", "--scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unit_cell.coax.count: expected a number, got an integer beyond the float range\n"


@pytest.mark.parametrize(
    "name, rows, flags, message",
    [
        ("big.csv", "freq_GHz,s21_dB\n2,-3\n3,7000\n4,-5\n", [], "|S21| must be finite and > 0, got 7000 dB"),
        ("tiny.csv", "freq_GHz,s21_dB\n2,-3\n3,-7000\n4,-5\n", [], "|S21| must be finite and > 0, got -7000 dB"),
        ("ninf.csv", "freq_GHz,s21_dB\n2,-3\n3,-inf\n4,-5\n", [], "expected a finite number, got '-inf'"),
        (
            "phase.csv",
            "freq_GHz,s21_dB,s21_phase_deg\n2,-3,0\n3,-4,inf\n4,-5,0\n",
            ["--complex"],
            "expected a finite number, got 'inf'",
        ),
        (
            "high.csv",
            "freq_GHz,s21_dB\n100,-3\n150,-4\n200,-5\n",
            [],
            "frequency 150 GHz lies outside the material model's 1-100 GHz range",
        ),
        (
            "zero.s2p",
            "# GHz S MA R 50\n2 0 0 0.5 0 0.5 0 0 0\n3 0 0 0 0 0 0 0 0\n4 0 0 0.5 0 0.5 0 0 0\n",
            [],
            "|S21| must be finite and > 0, got 0",
        ),
    ],
    ids=["7000_dB", "-7000_dB", "-inf_dB", "inf_phase", "100-200_GHz", "zero_magnitude"],
)
def test_spectrum_rows_the_fit_cannot_use_exit_2_at_their_file_and_line(
    tmp_path, monkeypatch, capsys, name, rows, flags, message
):
    from signalwall import cli

    def no_fit(*args, **kwargs):
        raise AssertionError("the fit must not run")

    monkeypatch.setattr(cli, "fit_permittivity", no_fit)
    path = tmp_path / name
    path.write_text(rows)
    assert main(["fit-permittivity", str(path), "--thickness", "10", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}, line 3: {message}\n"


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("header.csv", "freq_GHz,s21_dB\n", "no data rows"),
        ("empty.csv", "", "empty file"),
        ("option.s2p", "# GHz S MA R 50\n", "no data rows"),
    ],
    ids=["header-only-csv", "empty-csv", "option-line-only-touchstone"],
)
def test_a_spectrum_file_without_data_exits_2_naming_itself(tmp_path, monkeypatch, capsys, name, text, message):
    from signalwall import cli

    def no_fit(*args, **kwargs):
        raise AssertionError("the fit must not run")

    monkeypatch.setattr(cli, "fit_permittivity", no_fit)
    path = tmp_path / name
    path.write_text(text)
    assert main(["fit-permittivity", str(path), "--thickness", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"


def _edited_default_scenario(edit):
    from signalwall.scenario import default_scenario_text

    data = json.loads(default_scenario_text())
    edit(data)
    return data


def test_a_cell_too_wide_to_mesh_exits_2_within_seconds(tmp_path, capsys):
    # a 1 km square cell: the mesher's work grows linearly with the cells per axis, and the
    # count is refused before any array of that size is made
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(_edited_default_scenario(lambda d: d["unit_cell"].update(sx_mm=1e6, sy_mm=1e6))))
    start = time.perf_counter()
    assert main(["uvalue", "--fv", "--scenario", str(path)]) == 2
    assert time.perf_counter() - start < 20.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: cell (1000000.0 x 1000000.0 mm): mesh of 1,237,124,928,900 cells (83370 x 83365 x 178) "
        "exceeds the 5,000,000-cell limit\n"
    )


def test_an_fdtd_run_over_the_node_step_limit_exits_2_within_seconds(capsys):
    # node-steps grow as 1/dz^2, so --dz 0.05 is ~100x the default run; it is refused before its arrays
    start = time.perf_counter()
    assert main(["fdtd-validate", "--dz", "0.05"]) == 2
    assert time.perf_counter() - start < 20.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: FDTD run of 169,070,003,712 node-steps (72 runs x 8,816 nodes x 266,356 steps) exceeds the "
        "20,000,000,000-node-step limit; use a coarser dz or a wider step\n"
    )


def _materials(**entry):
    return {"materials": [{"name": "x", "thermal_conductivity": 1.0, **entry}]}


@pytest.mark.parametrize(
    "argv, files, message",
    [
        (
            ["transmission", "--with-antennas", "--scenario", "s.json"],
            {"s.json": _edited_default_scenario(lambda d: d["unit_cell"]["antenna"].update(pattern_exponent=-1))},
            "unit_cell.antenna: pattern exponent must be >= 0",
        ),
        (
            ["transmission", "--with-antennas", "--scenario", "s.json"],
            {"s.json": _edited_default_scenario(lambda d: d["unit_cell"]["antenna"].update(rolloff_db_per_octave=-1))},
            "unit_cell.antenna: roll-off must be >= 0 dB/octave",
        ),
        (
            ["uvalue", "--analytical", "--scenario", "s.json"],
            {"s.json": _edited_default_scenario(lambda d: d["unit_cell"].update(sx_mm=0))},
            "unit_cell: cell dimensions must be finite and > 0, got 0.0 x 150.0 mm",
        ),
        (["sweep", "--separations", "0,80"], {}, "separations must be > 0 mm"),
        (
            ["sweep", "--scenario", "s.json"],
            {"s.json": _edited_default_scenario(lambda d: d["sweep"].update(frequencies_ghz=[]))},
            "sweep: frequency list must not be empty",
        ),
        (
            ["materials", "list", "--materials", "m.json"],
            {"m.json": _materials(permittivity={"eps_real": -1})},
            "m.json: materials[0].permittivity: eps_real must be > 0, got -1.0",
        ),
        (
            ["materials", "list", "--materials", "m.json"],
            {"m.json": _materials(permittivity={"eps_real": 2, "eps_imag": -0.1})},
            "m.json: materials[0].permittivity: eps_imag must be >= 0, got -0.1",
        ),
        (
            ["materials", "list", "--materials", "m.json"],
            {"m.json": _materials(name="")},
            "m.json: materials[0]: material name must be non-empty",
        ),
        (
            ["fdtd-validate", "--scenario", "s.json", "--band", "2:3", "--step", "0.5", "--dz", "0.5"],
            {"s.json": {"wall": {"layers": [{"material": "concrete", "thickness_mm": 0.2}]}}},
            "spatial step too coarse to resolve a layer",
        ),
        (
            ["uvalue", "--fv", "--scenario", "s.json"],
            {
                "s.json": _edited_default_scenario(
                    lambda d: d["unit_cell"]["coax"].update(inner_radius_mm=0.2, outer_radius_mm=0.25, shield_thickness_mm=0.02)
                )
            },
            "cell (150.0 x 150.0 mm): mesh too coarse near the cable: 0.354 mm cells vs 0.500 mm diameter",
        ),
    ],
    ids=[
        "pattern-exponent",
        "rolloff",
        "zero-cell",
        "zero-separation",
        "no-sweep-frequencies",
        "negative-eps-real",
        "negative-eps-imag",
        "empty-name",
        "layer-below-dz",
        "cable-below-mesh",
    ],
)
def test_input_rules_exit_2_before_any_work(tmp_path, monkeypatch, capsys, argv, files, message):
    from signalwall import cli, design_sweep, fdtd

    def no_work(*args, **kwargs):
        raise AssertionError("no solve or time loop may run")

    for module, name in ((design_sweep, "solve_steady_state"), (cli, "solve_steady_state"), (fdtd, "_time_step_batch")):
        monkeypatch.setattr(module, name, no_work)
    monkeypatch.chdir(tmp_path)
    for name, data in files.items():
        Path(name).write_text(json.dumps(data))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["transmission", "--band", "1:2:3:4"], "argument --band: band must be F1:F2 or F1:F2:N in GHz"),
        (["transmission", "--band", "1:8:x"], "argument --band: band F1:F2:N needs an integer N >= 2, got N = 'x'"),
        (["sweep", "--separations", "70:80"], "argument --separations: a range is START:STOP:STEP, got '70:80'"),
        (["transmission", "--band", "1:8:1e3"], "argument --band: band F1:F2:N needs an integer N >= 2, got N = '1e3'"),
        (["transmission", "--band", "1:8:0"], "argument --band: band F1:F2:N needs an integer N >= 2, got N = '0'"),
        (["transmission", "--band", "1:8:1"], "argument --band: band F1:F2:N needs an integer N >= 2, got N = '1'"),
    ],
)
def test_malformed_band_and_range_flags_exit_2_at_the_flag(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["fit-permittivity", "meas.csv", "--thickness", "nan"], "--thickness", "nan"),
        (["fit-permittivity", "meas.csv", "--thickness", "inf"], "--thickness", "inf"),
        (["fit-permittivity", "meas.csv", "--thickness", "60", "--b", "nan"], "--b", "nan"),
        (["fit-permittivity", "meas.csv", "--thickness", "60", "--bounds", *"1 15 0 inf 0 2".split()], "--bounds", "inf"),
        (["sweep", "--u-limit", "nan"], "--u-limit", "nan"),
        (["sweep", "--u-limit", "inf"], "--u-limit", "inf"),
        (["sweep", "--frequencies", "3.5,nan"], "--frequencies", "nan"),
        (["sweep", "--separations", "70:inf:10"], "--separations", "inf"),
        (["fdtd-validate", "--dz", "nan"], "--dz", "nan"),
        (["fdtd-validate", "--step", "inf"], "--step", "inf"),
        (["fdtd-validate", "--band", "1:nan"], "--band", "nan"),
        (["transmission", "--band", "1:inf:11"], "--band", "inf"),
        (["transmission", "--theta", "nan"], "--theta", "nan"),
    ],
)
def test_float_flags_take_finite_numbers_only(tmp_path, monkeypatch, capsys, argv, flag, value):
    from signalwall import cli, design_sweep, fdtd

    def no_work(*args, **kwargs):
        raise AssertionError("no solve, fit or time loop may run")

    for module, name in ((design_sweep, "solve_steady_state"), (cli, "fit_permittivity"), (fdtd, "_time_step_batch")):
        monkeypatch.setattr(module, name, no_work)
    monkeypatch.chdir(tmp_path)
    Path("meas.csv").write_text("freq_GHz,s21_dB\n2.0,-3.0\n4.0,-4.0\n8.0,-5.0\n")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {flag}: expected a finite number, got '{value}'" in captured.err


@pytest.mark.parametrize(
    "key, value", [("gain_dbi", 30.0), ("cutoff_ghz", 2.0), ("rolloff_db_per_octave", 12.0)]
)
def test_plateau_fields_beside_a_gain_table_exit_2_at_the_antenna(tmp_path, capsys, key, value):
    table = [[1.0, 0.0], [8.0, 5.0]]
    out = tmp_path / "t.csv"
    path = _default_scenario_file(tmp_path, lambda cell: cell.update(antenna={"gain_table": table, key: value}))
    assert main(["transmission", "--with-antennas", "--scenario", str(path), "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unit_cell.antenna.{key}: ignored beside a gain_table, which replaces the plateau model\n"
    assert not out.exists()
    # the pattern exponent shapes both gain models
    shaped = {"gain_table": table, "pattern_exponent": 2.0}
    path = _default_scenario_file(tmp_path, lambda cell: cell.update(antenna=shaped))
    assert main(["transmission", "--with-antennas", "--scenario", str(path), "-o", str(out)]) == 0


def test_an_empty_gain_table_exits_2_at_the_antenna(tmp_path, capsys):
    # an empty table used to fall back to the plateau model without a word
    path = _default_scenario_file(tmp_path, lambda cell: cell.update(antenna={"gain_table": []}))
    assert main(["transmission", "--with-antennas", "--scenario", str(path), "-o", str(tmp_path / "t.csv")]) == 2
    assert capsys.readouterr().err == "error: unit_cell.antenna: gain table must not be empty\n"


@pytest.mark.parametrize(
    "argv, written, message",
    [
        (
            ["uvalue", "--analytical", "--export-vtk", "t.vtk"],
            "t.vtk",
            "--export-vtk: ignored with --analytical alone, which skips the finite-volume solve",
        ),
        (
            ["uvalue", "--analytical", "--bare"],
            None,
            "--bare: ignored with --analytical alone, which skips the finite-volume solve",
        ),
        (
            ["transmission", "--combine", "coherent_worst", "-o", "c.csv"],
            "c.csv",
            "--combine coherent_worst: ignored without --with-antennas, which adds the path it combines",
        ),
        (
            ["fit-permittivity", "dut.csv", "--thickness", "45", "--interpolate"],
            None,
            "--interpolate: ignored without --reference, the spectrum it resamples",
        ),
    ],
    ids=["export-vtk", "bare", "combine", "interpolate"],
)
def test_a_flag_its_command_would_ignore_exits_2_naming_both_flags(tmp_path, monkeypatch, capsys, argv, written, message):
    from signalwall import cli

    def no_work(*args, **kwargs):
        raise AssertionError("no input may be read before the flags are checked")

    for name in ("load_scenario", "read_spectrum"):
        monkeypatch.setattr(cli, name, no_work)
    monkeypatch.chdir(tmp_path)
    Path("dut.csv").write_text("freq_GHz,s21_dB\n2,-10\n5,-20\n8,-30\n")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert written is None or not Path(written).exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["transmission", "-o", "{dir}"],
        ["uvalue", "--analytical", "--scenario", "{dir}"],
        ["fit-permittivity", "{dir}", "--thickness", "10"],
        ["fit-permittivity", "{dut}", "--reference", "{dir}", "--thickness", "10"],
        ["materials", "list", "--materials", "{dir}"],
    ],
    ids=["output", "scenario", "fit-input", "reference", "materials"],
)
def test_a_directory_given_as_a_file_exits_2(tmp_path, capsys, argv):
    dut = tmp_path / "dut.csv"
    dut.write_text("freq_GHz,s21_dB\n2,-10\n5,-20\n8,-30\n")
    assert main([arg.format(dir=tmp_path, dut=dut) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"


@pytest.mark.parametrize(
    "argv",
    [["sweep", "--separations", "150", "-o", "{path}"], ["uvalue", "--export-vtk", "{path}"]],
    ids=["sweep", "uvalue"],
)
@pytest.mark.parametrize("path", ["{dir}", "{dir}/missing/out"], ids=["directory", "missing-parent"])
def test_an_unusable_output_path_exits_2_before_any_solve(tmp_path, monkeypatch, capsys, argv, path):
    from signalwall import cli

    def no_solve(*args, **kwargs):
        raise AssertionError("the work ran before the output path was checked")

    monkeypatch.setattr(cli, "run_sweep", no_solve)
    monkeypatch.setattr(cli, "solve_steady_state", no_solve)
    path = path.format(dir=tmp_path)
    assert main([arg.format(path=path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    reason = "[Errno 21] Is a directory" if path == str(tmp_path) else "[Errno 2] No such file or directory"
    assert captured.err == f"error: {reason}: '{path}'\n"
