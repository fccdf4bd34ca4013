"""Seeded workload inputs, the CLI calls of one workload cycle, and output checks.

Every workload is a fixed cycle of ``signalwall`` CLI calls on inputs made
from the seed.  Inputs are written into the run's work directory; the
program only ever sees those files and arguments.  Each call has a check
that raises ``CheckFailed`` when an invariant of its output does not hold;
for the default seed the checks also compare outputs with the golden files
in ``golden/`` (taken from the program as first benchmarked), byte for byte.
Nothing here rewrites them: when an output is meant to change, the new file
from the run's work directory replaces its golden copy in a deliberate edit.
"""

from __future__ import annotations

import cmath
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

DEFAULT_SEED = 1
GOLDEN = Path(__file__).resolve().parent / "golden"

EPS0 = 8.8541878128e-12
C0 = 299792458.0


class CheckFailed(AssertionError):
    """An output of the program violates an invariant or its golden copy."""


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


@dataclass
class OpResult:
    argv: list
    rc: int
    stdout: str
    stderr: str
    seconds: float


@dataclass
class Op:
    kind: str  # timing label, e.g. "sweep" or "fit"
    argv: list
    check: Callable[[OpResult], None]

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass
class Workload:
    ops: list
    inputs: dict
    scenario_path: str | None  # None: the builtin scenario
    observed: dict = field(default_factory=dict)  # sizes the checks read from the outputs


def _expect_ok(res: OpResult):
    expect(res.rc == 0, f"{' '.join(map(str, res.argv))} exited {res.rc}: {res.stderr.strip()[-300:]}")


class Golden:
    """Byte-for-byte comparison of default-seed outputs with ``golden/``."""

    def __init__(self, workload: str, enabled: bool):
        self.dir = GOLDEN / workload
        self.enabled = enabled

    def compare(self, name: str, data: bytes):
        if not self.enabled:
            return
        path = self.dir / name
        expect(path.is_file(), f"golden file {path.name} is missing")
        expect(path.read_bytes() == data, f"{name} differs from its golden copy")


def _program_data(src: Path, name: str) -> dict:
    return json.loads((src / "signalwall" / "data" / name).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# sweep_edge: the design question


SEPARATION_GRID = tuple(range(70, 201, 10))
EDGE_PAIR = (70, 80)  # the grid points on either side of the 0.17 limit
UVALUE_SEPARATIONS = (150, 160, 170)  # converged single-cell solves of similar size
FREQUENCY_POOL = (1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 6.0, 7.0, 8.0)


def _layered_u(scenario: dict, conductivity: dict) -> float:
    """ISO 6946 series-resistance U-value of the bare wall."""
    thermal = scenario["thermal"]
    r = thermal["r_si"] + thermal["r_se"]
    for layer in scenario["wall"]["layers"]:
        r += layer["thickness_mm"] * 1e-3 / conductivity[layer["material"]]
    return 1.0 / r


def sweep_edge(seed: int, workdir: Path, src: Path, tiny: bool = False) -> Workload:
    """`sweep` over a subset straddling the U limit, then one exact `uvalue --fv`.

    Has no smaller size: every finite-volume solve is a full unit cell.
    """
    rng = np.random.default_rng(seed)
    default = seed == DEFAULT_SEED
    golden = Golden("sweep_edge", default)
    if default:
        far, single, freqs = 150, 150, [1.5, 3.5, 5.0, 8.0]
    else:
        far = int(rng.choice([s for s in SEPARATION_GRID if s not in EDGE_PAIR]))
        single = int(rng.choice(UVALUE_SEPARATIONS))
        freqs = sorted(float(f) for f in rng.choice(FREQUENCY_POOL, size=4, replace=False))
    separations = sorted({*EDGE_PAIR, far})

    scenario = _program_data(src, "default_scenario.json")
    scenario["unit_cell"]["sx_mm"] = scenario["unit_cell"]["sy_mm"] = float(single)
    scenario["sweep"]["separations_mm"] = separations
    scenario["sweep"]["frequencies_ghz"] = freqs
    limit = scenario["sweep"]["u_limit"]
    scenario_path = workdir / "scenario.json"
    scenario_path.write_text(json.dumps(scenario, indent=2) + "\n", encoding="utf-8")
    csv_path = workdir / "sweep.csv"

    conductivity = {m["name"]: m["thermal_conductivity"] for m in _program_data(src, "materials.json")["materials"]}
    u_bare = _layered_u(scenario, conductivity)
    state: dict = {}
    observed: dict = {}

    def check_sweep(res: OpResult):
        _expect_ok(res)
        data = csv_path.read_bytes()
        lines = data.decode().splitlines()
        expect(lines[0] == "separation_mm,U,feasible,f_GHz,t_dB,improvement_dB", "unexpected sweep CSV header")
        u_of, feasible = {}, {}
        for line in lines[1:]:
            sep, u, feas, f, t_db, gain = (float(v) for v in line.split(","))
            expect(u_of.setdefault(sep, u) == u and feasible.setdefault(sep, feas) == feas, f"{sep} mm rows disagree")
            expect(t_db <= 0.0 and math.isfinite(gain), f"{sep} mm, {f} GHz: implausible level {t_db} dB")
        expect(sorted(u_of) == [float(s) for s in separations], f"swept {sorted(u_of)} instead of {separations}")
        expect(len(lines) - 1 == len(separations) * len(freqs), "sweep CSV row count")
        ordered = [u_of[s] for s in sorted(u_of)]
        expect(all(a > b for a, b in zip(ordered, ordered[1:])), f"U does not fall with separation: {ordered}")
        for sep, u in u_of.items():
            if abs(u - limit) > 1e-6:
                expect(bool(feasible[sep]) == (u <= limit), f"{sep} mm: feasible={feasible[sep]} but U={u}")
        expect(any(feasible.values()) and not all(feasible.values()), "the subset must straddle the U limit")
        match = re.search(r"smallest feasible separation: (\d+) mm", res.stdout)
        expect(match is not None, "no smallest feasible separation printed")
        smallest = float(match.group(1))
        expect(smallest == min(s for s in u_of if feasible[s]), f"printed edge {smallest} mm is not the smallest feasible record")
        golden.compare("sweep.csv", data)
        if golden.enabled:
            expect(smallest == 80.0, f"default-seed feasibility edge is {smallest} mm, not 80 mm")
        state["u_of"] = u_of

    def check_uvalue(res: OpResult):
        _expect_ok(res)
        match = re.search(
            r"finite volume \(antenna cell, (\d+)x(\d+)x(\d+) cells\): U = ([0-9.]+) W/\(m\^2 K\)\s+\[(\d+) iterations",
            res.stdout,
        )
        expect(match is not None, f"unparsed uvalue output: {res.stdout!r}")
        cells = int(match.group(1)) * int(match.group(2)) * int(match.group(3))
        u, iterations = float(match.group(4)), int(match.group(5))
        expect(u_bare < u < 1.0, f"U={u} at {single} mm is not above the bare-wall {u_bare:.5f}")
        for sep, u_sweep in state.get("u_of", {}).items():
            # uvalue prints 4 decimals
            if sep == single:
                expect(abs(u_sweep - u) <= 6e-5, f"uvalue {u} disagrees with the sweep's {u_sweep} at {sep} mm")
            elif sep < single:
                expect(u_sweep > u - 6e-5, f"U({sep} mm)={u_sweep} is not above U({single} mm)={u}")
            else:
                expect(u_sweep < u + 6e-5, f"U({sep} mm)={u_sweep} is not below U({single} mm)={u}")
        observed["uvalue"] = {"separation_mm": single, "grid": [int(g) for g in match.group(1, 2, 3)],
                              "cells": cells, "cg_iterations": iterations}
        if golden.enabled:
            # the baseline the ROADMAP cites: 367k cells, ~1000 CG iterations at 150 mm
            expect(abs(cells - 367_000) <= 3_670 and abs(iterations - 1000) <= 50,
                   f"baseline solve: {cells} cells / {iterations} iterations, not the ROADMAP's 367k / ~1000")

    ops = [
        Op("sweep", ["sweep", "--scenario", str(scenario_path), "-o", str(csv_path)], check_sweep),
        Op("uvalue", ["uvalue", "--scenario", str(scenario_path), "--fv"], check_uvalue),
    ]
    inputs = {"separations_mm": separations, "uvalue_separation_mm": single, "frequencies_ghz": freqs, "u_limit": limit}
    return Workload(ops, inputs, str(scenario_path), observed)


# ---------------------------------------------------------------------------
# spectra_fit: measurement post-processing and RF levels, no thermal work


SLAB_BASES = {
    # builtin entries (a, c, d); moist cast concrete has a nearly flat, brick-like conductivity
    "concrete": (5.24, 0.0462, 0.7822),
    "moist_cast_concrete": (5.84, 0.205, 0.06),
}
# Fit cost varies with the drawn slab.  Several slabs per run, with
# thickness and noise drawn from one stratum each, keep a run's total work
# close to the same for every seed.
SLABS_PER_BASE = 3
FIT_GRID_GHZ = np.linspace(2.0, 8.0, 121)


def _stratum(low: float, high: float, index: int) -> tuple[float, float]:
    width = (high - low) / SLABS_PER_BASE
    return low + index * width, low + (index + 1) * width


def slab_s21(a: float, c: float, d: float, thickness_mm: float, f_ghz: np.ndarray) -> np.ndarray:
    """Normal-incidence S21 of one slab in vacuum (Airy formula), b = 0.

    Independent of the program's transfer-matrix code: eps = a - j c f^d /
    (eps0 w), time convention e^{+jwt}, waves e^{-jkz}.
    """
    omega = 2.0 * math.pi * f_ghz * 1e9
    eps = a - 1j * c * f_ghz**d / (EPS0 * omega)
    n = np.sqrt(eps)
    n = np.where(n.imag > 0.0, -n, n)
    k = omega / C0 * n
    r = (1.0 - n) / (1.0 + n)
    phase = np.exp(-1j * k * thickness_mm * 1e-3)
    return (1.0 - r * r) * phase / (1.0 - r * r * phase * phase)


def _write_csv(path: Path, f, s21, with_phase: bool):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("freq_GHz,s21_dB,s21_phase_deg\n" if with_phase else "freq_GHz,s21_dB\n")
        for fi, s in zip(f, s21):
            row = f"{fi:.6f},{20.0 * math.log10(abs(s)):.9f}"
            fh.write(row + (f",{math.degrees(cmath.phase(s)):.9f}\n" if with_phase else "\n"))


def _write_touchstone(path: Path, f, s21, fmt: str, unit: str):
    scale = {"GHz": 1.0, "MHz": 1e3}[unit]
    s11 = 0.1 * np.exp(-1j * 2.0 * math.pi * f * 0.4)

    def pair(z):
        if fmt == "RI":
            return f"{z.real:.12g} {z.imag:.12g}"
        mag = 20.0 * math.log10(abs(z)) if fmt == "DB" else abs(z)
        return f"{mag:.12g} {math.degrees(cmath.phase(z)):.12g}"

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"! synthetic two-port, S21 carries the spectrum\n# {unit} S {fmt} R 50\n")
        for fi, a, b in zip(f, s11, s21):
            fh.write(f"{fi * scale:.9f} {pair(a)} {pair(b)} {pair(b)} {pair(a)}\n")


def _parse_fit(stdout: str) -> dict:
    values = {}
    for key, pattern in (("a", r"a = ([-0-9.]+)"), ("c", r"c = ([-0-9.]+) S/m"), ("d", r"d = ([-0-9.]+)"),
                         ("residual", r"residual: ([0-9.]+) dB RMS over (\d+) points")):
        match = re.search(pattern, stdout)
        expect(match is not None, f"fit output lacks {key}: {stdout!r}")
        values[key] = float(match.group(1))
        if key == "residual":
            values["points"] = int(match.group(2))
    return values


def _read_spectrum_csv(path: Path):
    lines = path.read_text().splitlines()
    expect(lines[0] == "freq_GHz,t_dB,t_phase_deg,r_dB,r_phase_deg,pol,theta_deg", f"{path.name}: unexpected header")
    rows = [line.split(",") for line in lines[1:]]
    f = np.array([float(r[0]) for r in rows])
    t_db = np.array([float(r[1]) for r in rows])
    r_db = np.array([float(r[3]) for r in rows])
    return f, t_db, r_db, {(r[5], r[6]) for r in rows}


def spectra_fit(seed: int, workdir: Path, src: Path, tiny: bool = False) -> Workload:
    """Permittivity fits of seeded slab spectra plus oblique TM / RHCP transmission."""
    rng = np.random.default_rng(seed)
    default = seed == DEFAULT_SEED
    golden = Golden("spectra_fit", default and not tiny)
    f = FIT_GRID_GHZ
    ops: list[Op] = []
    slabs = {}
    first_reader = int(rng.integers(2))
    draws = [(base, i) for i in range(SLABS_PER_BASE) for base in SLAB_BASES]
    for index, (base, copy) in enumerate(draws[:1] if tiny else draws):
        a0, c0, d0 = SLAB_BASES[base]
        slab = f"{base}{copy}"
        truth = {
            "a": a0 * rng.uniform(0.95, 1.05),
            "c": c0 * rng.uniform(0.9, 1.1),
            "d": d0 + rng.uniform(-0.05, 0.05),
            "thickness_mm": round(float(rng.uniform(*_stratum(30.0, 60.0, copy))), 3),
            "noise_db": float(rng.uniform(*_stratum(0.01, 0.05, copy))),
        }
        sigma = truth["noise_db"]
        fixture = rng.uniform(0.5, 0.9) * np.exp(-2j * math.pi * f * rng.uniform(1.0, 3.0)) * (
            1.0 + 0.05 * np.sin(2.0 * math.pi * f / rng.uniform(0.7, 1.5))
        )

        def noisy(s, db):
            return s * 10.0 ** (rng.normal(0.0, db, f.size) / 20.0) * np.exp(1j * np.radians(rng.normal(0.0, 3.0 * db, f.size)))

        dut = noisy(fixture * slab_s21(truth["a"], truth["c"], truth["d"], truth["thickness_mm"], f), sigma)
        ref = noisy(fixture, sigma / 2.0)
        fmt, unit = rng.choice(["MA", "DB", "RI"]), rng.choice(["GHz", "MHz"])
        files = {}
        for role, s21 in (("dut", dut), ("ref", ref)):
            files[role, "mag"] = workdir / f"{slab}_{role}_mag.csv"
            files[role, "csv"] = workdir / f"{slab}_{role}.csv"
            files[role, "s2p"] = workdir / f"{slab}_{role}.s2p"
            _write_csv(files[role, "mag"], f, s21, with_phase=False)
            _write_csv(files[role, "csv"], f, s21, with_phase=True)
            _write_touchstone(files[role, "s2p"], f, s21, str(fmt), str(unit))
        truth["touchstone"] = f"{fmt} {unit}"
        slabs[slab] = truth
        # normalized magnitude noise: DUT and reference noise add in dB
        bound = 1.5 * math.hypot(sigma, sigma / 2.0) + 0.002

        def check_fit(res: OpResult, truth=truth, bound=bound, base=slab):
            _expect_ok(res)
            fit = _parse_fit(res.stdout)
            expect(fit["points"] == f.size, f"{base}: fit used {fit['points']} points")
            expect(fit["residual"] <= bound, f"{base}: residual {fit['residual']} dB above the noise bound {bound:.4f} dB")
            expect(abs(fit["a"] - truth["a"]) <= 0.02 * truth["a"], f"{base}: a={fit['a']} vs true {truth['a']:.4f}")
            expect(abs(fit["c"] - truth["c"]) <= 0.05 * truth["c"], f"{base}: c={fit['c']} vs true {truth['c']:.4f}")
            expect(abs(fit["d"] - truth["d"]) <= 0.03, f"{base}: d={fit['d']} vs true {truth['d']:.4f}")

        thickness = f"{truth['thickness_mm']:g}"
        reader = ("csv", "s2p")[(first_reader + index) % 2]
        truth["complex_fit_reader"] = reader
        # Magnitude-only data pins `a` down only through the Fabry-Perot ripple;
        # on thicker or noisier slabs, and on moist concrete, the multistart
        # fit lands on a wrong ripple tooth on a few per cent of draws.  Only
        # the thinnest, least noisy concrete slab gets a magnitude fit.
        if base == "concrete" and copy == 0:
            ops.append(Op("fit", ["fit-permittivity", str(files["dut", "mag"]), "--reference", str(files["ref", "mag"]),
                                  "--thickness", thickness], check_fit))
        if not tiny:
            ops.append(Op("fit", ["fit-permittivity", str(files["dut", reader]), "--reference", str(files["ref", reader]),
                                  "--thickness", thickness, "--complex"], check_fit))

    if default:
        angles = {"TM": 45.0, "RHCP": 0.0}
    else:
        angles = {"TM": round(float(rng.uniform(20.0, 60.0)), 1), "RHCP": round(float(rng.uniform(0.0, 45.0)), 1)}
    n_points = 141
    plain_levels: dict = {}
    for pol, theta in angles.items():
        if tiny and pol != "TM":
            break
        for with_antennas in (False, True):
            label = f"{pol.lower()}_{theta:g}{'_antennas' if with_antennas else ''}"
            out = workdir / f"transmission_{label}.csv"
            argv = ["transmission", "--pol", pol, "--theta", f"{theta:g}", "-o", str(out)]
            if with_antennas:
                argv.insert(1, "--with-antennas")

            def check_transmission(res: OpResult, out=out, pol=pol, theta=theta, with_antennas=with_antennas, label=label):
                _expect_ok(res)
                freqs, t_db, r_db, tags = _read_spectrum_csv(out)
                expect(freqs.size == n_points and np.allclose(freqs, np.linspace(1.0, 8.0, n_points), atol=1e-6),
                       f"{label}: unexpected frequency grid")
                expect(tags == {(pol, f"{theta:.3f}")}, f"{label}: rows tagged {tags}")
                expect(np.all(t_db <= 1e-9), f"{label}: transmission above 0 dB")
                if with_antennas:
                    wall_t, wall_r = plain_levels[pol]
                    expect(np.all(t_db >= wall_t - 1e-6), f"{label}: antenna path lowers the level")
                    expect(np.array_equal(r_db, wall_r), f"{label}: reflection differs from the bare wall")
                    expect("improvement onset" in res.stdout, f"{label}: no improvement onset line")
                else:
                    power = 10.0 ** (t_db / 10.0) + 10.0 ** (r_db / 10.0)
                    expect(np.all(power <= 1.0 + 1e-6), f"{label}: |t|^2 + |r|^2 exceeds 1")
                    plain_levels[pol] = (t_db, r_db)
                golden.compare(out.name, out.read_bytes())

            ops.append(Op("transmission", argv, check_transmission))

    inputs = {"slabs": slabs, "fit_points": int(f.size), "transmission": angles, "transmission_points": n_points}
    return Workload(ops, inputs, None)


# ---------------------------------------------------------------------------
# fdtd_xval: the 1-D FDTD oracle against the transfer matrix


def fdtd_xval(seed: int, workdir: Path, src: Path, tiny: bool = False) -> Workload:
    """`fdtd-validate` over a 7 GHz band every 0.5 GHz, offset by the seed.

    The default seed gives 1.0, 1.5, ..., 8.0 GHz: every fifth row of the
    CLI's default 1-8 GHz / 0.1 GHz table, with identical values.
    """
    rng = np.random.default_rng(seed)
    default = seed == DEFAULT_SEED
    golden = Golden("fdtd_xval", default and not tiny)
    offset = 0.0 if default else 0.05 * int(rng.integers(1, 10))
    f1, f2, step = (1.0 + offset, 8.0 + offset, 0.5) if not tiny else (1.0 + offset, 3.0 + offset, 1.0)
    expected = np.round(np.arange(f1, f2 + 1e-9, step), 9)
    argv = ["fdtd-validate", "--band", f"{f1:g}:{f2:g}", "--step", f"{step:g}"]
    observed: dict = {}

    def check_table(res: OpResult):
        _expect_ok(res)
        rows = [line.split() for line in res.stdout.splitlines() if re.match(r"^\s*\d", line)]
        expect(len(rows) == expected.size, f"{len(rows)} rows instead of {expected.size}")
        observed["table_rows"] = len(rows)
        table = np.array([[float(v) for v in row] for row in rows])
        expect(np.allclose(table[:, 0], expected, atol=0.0051), "comparison grid differs from the request")
        expect(np.allclose(table[:, 2] - table[:, 1], table[:, 3], atol=0.0021), "delta column is not FDTD - TMM")
        worst = float(np.max(np.abs(table[:, 3])))
        expect(worst <= 0.5, f"FDTD disagrees with TMM by {worst} dB")
        match = re.search(r"max \|delta\|: ([0-9.]+) dB over (\d+) points", res.stdout)
        expect(match is not None and int(match.group(2)) == expected.size, "no summary line")
        expect(abs(float(match.group(1)) - worst) <= 0.0011, "summary max disagrees with the table")
        golden.compare("table.txt", res.stdout.encode())

    inputs = {"band_ghz": [f1, f2], "step_ghz": step, "offset_ghz": offset}
    return Workload([Op("fdtd_validate", argv, check_table)], inputs, None, observed)


WORKLOADS = {"sweep_edge": sweep_edge, "spectra_fit": spectra_fit, "fdtd_xval": fdtd_xval}
