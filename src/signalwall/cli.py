"""Command-line interface.

Commands: transmission, uvalue, fit-permittivity, sweep, fdtd-validate,
materials.  All tabular output is CSV with fixed float formatting and no
timestamps, so re-runs are byte-identical.  Exit codes: 0 success, 2 usage
or input error, 3 infeasible design or diverged solve.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from . import __version__
from .antenna_link import COMBINATION_MODES, improvement_onset_ghz, link_budget
from .design_sweep import run_sweep
from .fdtd import Fdtd1dConfig, validate_against_tmm
from .inverse import DEFAULT_BOUNDS, fit_permittivity, normalize_spectrum, read_spectrum
from .layered_em import MAX_GRID_POINTS, POLARIZATIONS, _coefficients, amplitude_db, transmission_spectrum
from .materials import FixedPermittivity
from .scenario import load_scenario, material_database
from .thermal import solve_steady_state, u_value_analytical, voxelize_unit_cell, write_vtk

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
_DEFAULT_BAND = (1.0, 8.0, 141)  # transmission's --band: F1, F2 in GHz and N, also N when a band omits it


def _finite(text: str) -> float:
    """The one type of every float flag and of each number inside a list or band flag."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {value}")
    return value


def _parse_band(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise argparse.ArgumentTypeError("band must be F1:F2 or F1:F2:N in GHz")
    try:
        n = int(parts[2]) if len(parts) == 3 else _DEFAULT_BAND[2]
    except ValueError:
        n = 0
    if n < 2:
        raise argparse.ArgumentTypeError(f"band F1:F2:N needs an integer N >= 2, got N = {parts[2]!r}")
    if n > MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(f"band F1:F2:N allows N <= {MAX_GRID_POINTS:,}, got N = {parts[2]!r}")
    return _finite(parts[0]), _finite(parts[1]), n


def _parse_comparison_band(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"comparison band must be F1:F2 in GHz, got {text!r}")
    return _finite(parts[0]), _finite(parts[1])


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise argparse.ArgumentTypeError(f"a range is START:STOP:STEP, got {text!r}")
            start, stop, step = (_finite(v) for v in parts)
            if not step > 0.0:
                raise argparse.ArgumentTypeError(f"range step must be > 0, got {step:g}")
            count = (stop + 1e-9 - start) / step  # np.arange below makes ceil(count) values
            if count > MAX_GRID_POINTS:
                raise argparse.ArgumentTypeError(f"range {text} has {count:.3g} values, more than {MAX_GRID_POINTS:,}")
            values = tuple(np.round(np.arange(start, stop + 1e-9, step), 9).tolist())
        else:
            values = tuple(_finite(v) for v in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if not values:
        raise argparse.ArgumentTypeError(f"range {text} is empty")
    return values


def _check_output(path) -> None:
    """Open an output path for appending, so an unusable one exits 2 before the work; leave no new file."""
    existed = os.path.lexists(path)
    open(path, "a").close()
    if not existed:
        os.remove(path)


def cmd_transmission(args) -> int:
    if args.combine and not args.with_antennas:
        raise ValueError(f"--combine {args.combine}: ignored without --with-antennas, which adds the path it combines")
    mode = args.combine or "incoherent"
    scenario = load_scenario(args.scenario, args.materials)
    f1, f2, n = args.band
    spectrum = transmission_spectrum(scenario.wall, f1, f2, n, args.theta, args.pol)

    cell = scenario.cell
    summary_freqs = np.array([f for f in (3.5, 8.0) if f1 <= f <= f2])
    lines = []
    if args.with_antennas:
        combined = link_budget(cell, spectrum.frequencies_ghz, args.theta, args.pol, mode).combined
        spectrum = dataclasses.replace(spectrum, t=combined)
        budget = link_budget(cell, summary_freqs, args.theta, args.pol, mode)
        for f, level, gain in zip(summary_freqs, amplitude_db(budget.combined), budget.improvement_db):
            lines.append(f"  {f:.1f} GHz: combined {level:8.2f} dB   improvement {gain:6.2f} dB")
        onset = improvement_onset_ghz(cell, f1, f2, args.theta, args.pol)
        if onset is None:
            lines.append("  improvement onset: none in band")
        elif onset == f1:  # the antenna path already leads at the band start
            lines.append(f"  improvement onset: at or below {f1:.2f} GHz (band start)")
        else:
            lines.append(f"  improvement onset: {onset:.2f} GHz")
    else:
        t_summary = _coefficients(scenario.wall, summary_freqs, args.theta, args.pol)[0]
        for f, t_wall in zip(summary_freqs, t_summary):
            lines.append(f"  {f:.1f} GHz: wall loss {-amplitude_db(t_wall):6.2f} dB")

    spectrum.write_csv(args.output)
    print(f"wall: {scenario.name}  pol={args.pol} theta={args.theta:.1f} deg  band {f1}-{f2} GHz ({n} points)")
    if lines:  # a band holding neither 3.5 nor 8 GHz has no summary
        print("\n".join(lines))
    print(f"spectrum written to {args.output}")
    return EXIT_OK


def cmd_uvalue(args) -> int:
    if args.analytical and not args.fv:
        for flag, value in (("--export-vtk", args.export_vtk), ("--bare", args.bare)):
            if value:
                raise ValueError(f"{flag}: ignored with --analytical alone, which skips the finite-volume solve")
    scenario = load_scenario(args.scenario, args.materials)
    run_both = args.fv == args.analytical  # neither or both flags -> show both
    run_fv = run_both or args.fv
    if run_fv and args.export_vtk:
        _check_output(args.export_vtk)
    code = EXIT_OK
    if run_both or args.analytical:
        result = u_value_analytical(scenario.wall, scenario.boundary)
        print(f"analytical (layered): U = {result.u:.4f} W/(m^2 K)")
    if run_fv:
        cell = scenario.bare_cell() if args.bare else scenario.cell
        grid = voxelize_unit_cell(cell)
        result = solve_steady_state(grid, scenario.boundary)
        kind = "antenna cell" if cell.has_antenna_system else "bare wall"
        print(
            f"finite volume ({kind}, {grid.nx}x{grid.ny}x{grid.nz} cells): U = {result.u:.4f} W/(m^2 K)"
            f"   [{result.iterations} iterations, balance {result.balance:.2e}]"
        )
        if not result.converged:
            print("warning: finite-volume solve did not converge", file=sys.stderr)
            code = EXIT_INFEASIBLE
        if args.export_vtk:
            write_vtk(grid, result.temperature, args.export_vtk)
            print(f"temperature field written to {args.export_vtk}")
    return code


def cmd_fit(args) -> int:
    if args.interpolate and not args.reference:
        raise ValueError("--interpolate: ignored without --reference, the spectrum it resamples")
    dut = read_spectrum(args.input)
    if args.reference:
        dut = normalize_spectrum(dut, read_spectrum(args.reference), interpolate=args.interpolate)
    fit = fit_permittivity(
        dut,
        thickness_mm=args.thickness,
        bounds=tuple(zip(args.bounds[::2], args.bounds[1::2])),
        n_starts=args.starts,
        b_fixed=args.b,
        seed=args.seed,
        complex_objective=args.complex,
    )
    if not fit.converged:
        print("fit did not converge from any start", file=sys.stderr)
        return EXIT_INFEASIBLE
    print(f"fitted permittivity coefficients (b fixed at {fit.b}):")
    print(f"  a = {fit.a:.4f}")
    print(f"  c = {fit.c:.4f} S/m (at 1 GHz)")
    print(f"  d = {fit.d:.4f}")
    print(f"  residual: {fit.residual_db_rms:.4f} dB RMS over {len(dut.frequencies_ghz)} points")
    mid = float(dut.frequencies_ghz[len(dut.frequencies_ghz) // 2])
    eps = fit.model.complex_permittivity(mid)
    print(f"  eps_r({mid:.2f} GHz) = {eps.real:.3f} - j{abs(eps.imag):.3f}")
    converged = sum(1 for start in fit.starts if start["success"])
    print(f"  starts: {converged}/{len(fit.starts)} converged, {fit.evaluations} model evaluations")
    return EXIT_OK


def cmd_sweep(args) -> int:
    scenario = load_scenario(args.scenario, args.materials)
    flags = {"separations_mm": args.separations, "frequencies_ghz": args.frequencies, "u_limit": args.u_limit}
    cfg = dataclasses.replace(scenario.sweep, **{name: value for name, value in flags.items() if value is not None})
    if args.output:
        _check_output(args.output)
    result = run_sweep(cfg, scenario.cell, scenario.boundary)
    print(f"{'sep mm':>7} {'U':>8} {'feasible':>8}  " + "  ".join(f"{f:g} GHz" for f in cfg.frequencies_ghz))
    for rec in result.records:
        gains = "  ".join(f"{rec.improvement_db[f]:+6.1f}" for f in cfg.frequencies_ghz)
        print(f"{rec.separation_mm:7g} {rec.u:8.4f} {str(rec.feasible):>8}  {gains}")
    unconverged = ", ".join(f"{rec.separation_mm:g}" for rec in result.records if not rec.converged)
    if unconverged:
        print(f"warning: finite-volume solve did not converge at {unconverged} mm", file=sys.stderr)
    if args.output:
        result.write_csv(args.output)
        print(f"sweep table written to {args.output}")
    if result.smallest_feasible_mm is None:
        print(result.rationale)
        return EXIT_INFEASIBLE
    print(f"smallest feasible separation: {result.smallest_feasible_mm:g} mm (U limit {cfg.u_limit} W/(m^2 K))")
    print(result.rationale)
    return EXIT_OK


def cmd_fdtd_validate(args) -> int:
    scenario = load_scenario(args.scenario, args.materials)
    f1, f2 = args.band
    cfg = Fdtd1dConfig(dz_mm=args.dz)
    table = validate_against_tmm(scenario.wall, f1, f2, args.step, cfg)
    print(f"{'f GHz':>7} {'TMM dB':>9} {'FDTD dB':>9} {'delta dB':>9}")
    for f, a, b, d in zip(table["frequencies_ghz"], table["tmm_db"], table["fdtd_db"], table["delta_db"]):
        print(f"{f:7.2f} {a:9.3f} {b:9.3f} {d:9.3f}")
    print(f"max |delta|: {table['max_abs_delta_db']:.3f} dB over {len(table['frequencies_ghz'])} points")
    if not table["decayed"]:
        print(
            f"warning: FDTD probe traces had not decayed by 80 dB after {table['n_steps']} steps; "
            "the FDTD column may carry truncation error",
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_materials(args) -> int:
    db = material_database(args.materials)
    if args.action == "list":
        print(f"{'name':<22} {'lambda W/(m K)':>14}  permittivity")
        for m in db:
            if m.permittivity is None:
                eps = "(thermal only)"
            elif isinstance(m.permittivity, FixedPermittivity):
                eps = f"eps = {m.permittivity.eps_real:g} - j{m.permittivity.eps_imag:g}"
            else:
                p = m.permittivity
                eps = f"a={p.a:g} b={p.b:g} c={p.c:g} d={p.d:g}"
            print(f"{m.name:<22} {m.thermal_conductivity:>14g}  {eps}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signalwall",
        description="electromagnetic and thermal analysis of antenna-embedded load-bearing walls",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", help="scenario JSON file (default: builtin sandwich-wall scenario)")
        p.add_argument("--materials", help="extra material database JSON merged over the builtin one")

    p = sub.add_parser("transmission", help="wall transmission spectrum, optionally with the antenna path")
    common(p)
    p.add_argument("--with-antennas", action="store_true", help="combine the through-antenna path with the wall leakage")
    p.add_argument("--theta", type=_finite, default=0.0, help="incidence angle from the normal, degrees")
    p.add_argument("--pol", choices=POLARIZATIONS, default="RHCP")
    p.add_argument(
        "--band", type=_parse_band, default=_DEFAULT_BAND, help="F1:F2[:N] in GHz (default %g:%g:%d)" % _DEFAULT_BAND
    )
    p.add_argument("--combine", choices=COMBINATION_MODES, help="with --with-antennas (default incoherent)")
    p.add_argument("-o", "--output", default="transmission.csv", help="spectrum CSV path")
    p.set_defaults(func=cmd_transmission)

    p = sub.add_parser("uvalue", help="thermal transmittance, analytical and finite-volume")
    common(p)
    p.add_argument("--analytical", action="store_true", help="layered analytical model only")
    p.add_argument("--fv", action="store_true", help="finite-volume solve only")
    p.add_argument("--bare", action="store_true", help="drop embedded features from the finite-volume model")
    p.add_argument("--export-vtk", help="write the temperature field as legacy VTK")
    p.set_defaults(func=cmd_uvalue)

    p = sub.add_parser("fit-permittivity", help="fit slab permittivity coefficients to a measured spectrum")
    p.add_argument("input", help="CSV (freq_GHz, s21_dB[, s21_phase_deg]) or Touchstone .s2p file")
    p.add_argument("--thickness", type=_finite, required=True, help="slab thickness in mm")
    p.add_argument(
        "--reference",
        help="empty-fixture spectrum to normalize by; the model's S21 reference planes are the slab faces, "
        "so a fixture with air in the slab's place leaves a phase of exp(+-j k0 t) that biases --complex",
    )
    p.add_argument("--interpolate", action="store_true", help="with --reference, resample it onto the DUT grid")
    p.add_argument("--b", type=_finite, default=0.0, help="fixed exponent b")
    p.add_argument(
        "--starts", type=int, default=16, help="multistart count; with --complex, per group-delay start of a"
    )
    p.add_argument("--seed", type=_seed, default=0, help="seed for the deterministic starts")
    p.add_argument("--complex", action="store_true", help="fit the complex S21 instead of its magnitude in dB")
    p.add_argument(
        "--bounds",
        type=_finite,
        nargs=6,
        metavar=("A_LO", "A_HI", "C_LO", "C_HI", "D_LO", "D_HI"),
        default=[v for pair in DEFAULT_BOUNDS for v in pair],
    )
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("sweep", help="antenna-separation design sweep under the U-value limit")
    common(p)
    p.add_argument("--separations", type=_parse_float_list, help="list 70,80,... or range START:STOP:STEP in mm")
    p.add_argument("--frequencies", type=_parse_float_list, help="evaluation frequencies in GHz")
    p.add_argument("--u-limit", type=_finite, help="regulatory U-value limit, W/(m^2 K)")
    p.add_argument("-o", "--output", help="sweep CSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("fdtd-validate", help="cross-check the transfer-matrix result against 1-D FDTD")
    common(p)
    p.add_argument("--band", type=_parse_comparison_band, default=(1.0, 8.0), help="F1:F2 in GHz (default 1:8)")
    p.add_argument("--step", type=_finite, default=0.1, help="comparison grid step in GHz")
    p.add_argument("--dz", type=_finite, default=0.5, help="FDTD spatial step in mm")
    p.set_defaults(func=cmd_fdtd_validate)

    p = sub.add_parser("materials", help="inspect the material database")
    p.add_argument("action", choices=("list",))
    p.add_argument("--materials", help="extra material database JSON merged over the builtin one")
    p.set_defaults(func=cmd_materials)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
