"""Antenna-separation design study: thermal feasibility vs link improvement.

Sweeps the square unit-cell size (equal to the antenna-system separation on
the wall), evaluates the finite-volume U-value and the combined
electromagnetic transmission per frequency, and reports the smallest
separation that respects the regulatory U-value limit.  A separation whose
thermal solve did not converge is never feasible.

The sweep and :func:`min_feasible_separation` share one scan, ``_scan``: it
sizes and meshes every cell in the calling thread before the first solve,
so a cell that cannot be meshed is refused before any solve, and applies
one feasibility rule.  :func:`min_feasible_separation` solves the cells one
at a time, in order, and stops at the first feasible one.  A sweep solves
them side by side (``_solve_all``): the calling thread and ``workers - 1``
more drain one queue, largest cell first, with ``workers`` the smallest of
the cores the process may use, the cell count, and the number of largest
cells that fit in ``_MAX_CELLS``, so the solves in flight never hold more
cells than one solve may.  Each solve is single-threaded and deterministic,
so every U equals that of a serial solve bit for bit, and the records keep
the configured order.  Every grid, or in a sweep its result, whose folded
field is about the grid's size, is held until the scan ends, so a sweep
takes at most ``_MAX_SEPARATIONS`` separations, at most ``MAX_GRID_POINTS``
frequencies, and at most ``_MAX_ROWS`` of their products, since every
record holds a value per frequency.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .antenna_link import UnitCell, link_budget
from .layered_em import MAX_GRID_POINTS, amplitude_db
from .materials import VALID_RANGE_GHZ
from .thermal import _MAX_CELLS, ThermalBoundary, solve_steady_state, voxelize_unit_cell


# most separations per sweep: every cell is meshed before the first solve, and
# the grids of the 70-200 mm cells hold ~0.7 MB each, so 500 hold ~350 MB; a
# solved grid's folded field (~0.75 MB at 150 mm) takes its place, and the
# solves in flight add at most what one solve of ``_MAX_CELLS`` cells traces
_MAX_SEPARATIONS = 500
# most separation x frequency rows per sweep: every record holds a level and an
# improvement per frequency, ~155 B a row under tracemalloc (4 and 8 separations
# x 100,000 frequencies, mesh and solve stubbed), so 2,000,000 rows hold ~310 MB
_MAX_ROWS = 2_000_000


class SweepError(ValueError):
    """Invalid sweep configuration."""


@dataclass(frozen=True)
class SweepConfig:
    separations_mm: tuple[float, ...] = tuple(float(s) for s in range(70, 201, 10))
    frequencies_ghz: tuple[float, ...] = (1.5, 3.5, 5.0, 8.0)
    u_limit: float = 0.17

    def __post_init__(self):
        if not self.separations_mm:
            raise SweepError("separation list must not be empty")
        if any(s <= 0.0 for s in self.separations_mm):
            raise SweepError("separations must be > 0 mm")
        if len(self.separations_mm) > _MAX_SEPARATIONS:
            raise SweepError(f"{len(self.separations_mm):,} separations exceed the {_MAX_SEPARATIONS}-separation limit")
        if len(set(self.separations_mm)) < len(self.separations_mm):
            raise SweepError("separations must not repeat")
        if not self.frequencies_ghz:
            raise SweepError("frequency list must not be empty")
        if len(self.frequencies_ghz) > MAX_GRID_POINTS:
            raise SweepError(f"{len(self.frequencies_ghz):,} frequencies exceed the {MAX_GRID_POINTS:,}-point limit")
        rows = len(self.separations_mm) * len(self.frequencies_ghz)
        if rows > _MAX_ROWS:
            raise SweepError(
                f"{len(self.separations_mm):,} separations x {len(self.frequencies_ghz):,} frequencies = "
                f"{rows:,} rows exceed the {_MAX_ROWS:,}-row limit"
            )
        lo, hi = VALID_RANGE_GHZ
        if not all(lo <= f <= hi for f in self.frequencies_ghz):
            raise SweepError(f"frequencies must lie in the material model's {lo:g}-{hi:g} GHz range")
        if len(set(self.frequencies_ghz)) < len(self.frequencies_ghz):
            raise SweepError("frequencies must not repeat")
        if self.u_limit <= 0.0:
            raise SweepError("U-value limit must be > 0")


@dataclass
class SeparationRecord:
    separation_mm: float
    u: float
    feasible: bool
    converged: bool
    transmission_db: dict[float, float]
    improvement_db: dict[float, float]

    @property
    def mean_improvement_db(self) -> float:
        return float(np.mean(list(self.improvement_db.values())))


@dataclass
class SweepResult:
    records: list[SeparationRecord]
    smallest_feasible_mm: float | None
    rationale: str

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("separation_mm,U,feasible,f_GHz,t_dB,improvement_dB\n")
            for rec in sorted(self.records, key=lambda r: r.separation_mm):
                for f in sorted(rec.transmission_db):
                    fh.write(
                        f"{rec.separation_mm:.3f},{rec.u:.6f},{int(rec.feasible)},"
                        f"{f:.6f},{rec.transmission_db[f]:.6f},{rec.improvement_db[f]:.6f}\n"
                    )


def _cores() -> int:
    """Cores this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _solve_all(grids, bc: ThermalBoundary) -> list:
    """Thermal result of every grid, in the grids' order, solved side by side.

    The calling thread and ``workers - 1`` more take grids off one queue,
    largest first, until it is empty; on one worker no thread starts.  Each
    grid is dropped from ``grids`` as its solve starts, since its result
    holds a field of about its size until the scan ends.  A failed or
    interrupted solve lets no further solve start, every thread is joined
    before returning, and of several failures the first in the grids' order
    is raised.  ``solve_steady_state`` is looked up at each call.
    """
    results, errors = [None] * len(grids), [None] * len(grids)
    pending = sorted(range(len(grids)), key=lambda i: grids[i].n_cells)  # popped from the end: largest first
    largest = grids[pending[-1]].n_cells
    workers = min(_cores(), len(grids), max(1, _MAX_CELLS // largest))
    stop = threading.Event()

    def drain():
        while not stop.is_set():
            try:
                i = pending.pop()
            except IndexError:
                return
            grid, grids[i] = grids[i], None
            try:
                results[i] = solve_steady_state(grid, bc)
            except Exception as exc:
                errors[i] = exc
                stop.set()

    threads = []
    try:
        for _ in range(workers - 1):
            thread = threading.Thread(target=drain)
            thread.start()
            threads.append(thread)
        drain()
    finally:
        stop.set()  # after an interrupt in this thread, no further solve starts
        for thread in threads:
            thread.join()
    first = next((exc for exc in errors if exc is not None), None)
    if first is not None:
        raise first
    return results


def _scan(separations, cell_template: UnitCell, bc: ThermalBoundary, u_limit: float, side_by_side: bool):
    """Yield (sized cell, thermal result, feasible) for each separation, in order.

    Meshes every cell in the calling thread before the first solve.  Side by
    side (``_solve_all``), every cell is solved before the first yield: the
    calling thread and up to ``workers - 1`` more drain one largest-first
    queue, ``workers = min(cores, cells, max(1, _MAX_CELLS // largest cell))``,
    so the cells in flight stay within ``_MAX_CELLS``.  Otherwise one cell
    is solved per step, in order, so a caller can stop early.  Feasible
    means converged with U <= ``u_limit``.
    """
    cells = [cell_template.with_separation(s) for s in separations]
    grids = [voxelize_unit_cell(cell) for cell in cells]
    solved = _solve_all(grids, bc) if side_by_side else (solve_steady_state(grid, bc) for grid in grids)
    for cell, thermal in zip(cells, solved):
        yield cell, thermal, thermal.converged and thermal.u <= u_limit


def run_sweep(cfg: SweepConfig, cell_template: UnitCell, bc: ThermalBoundary = ThermalBoundary()) -> SweepResult:
    """Evaluate every separation and report the smallest feasible one.

    Mutual coupling between neighbouring antenna systems is not modelled,
    so the improvements at the densest spacings can differ from full-wave
    results; the rationale says so.
    """
    if not cell_template.has_antenna_system:
        raise SweepError("sweep needs a unit cell with an antenna system")
    records = []
    scan = _scan(cfg.separations_mm, cell_template, bc, cfg.u_limit, side_by_side=True)
    for s, (sized, thermal, feasible) in zip(cfg.separations_mm, scan):
        budget = link_budget(sized, cfg.frequencies_ghz)
        records.append(
            SeparationRecord(
                separation_mm=float(s),
                u=thermal.u,
                feasible=feasible,
                converged=thermal.converged,
                transmission_db=dict(zip(cfg.frequencies_ghz, amplitude_db(budget.combined).tolist())),
                improvement_db=dict(zip(cfg.frequencies_ghz, budget.improvement_db.tolist())),
            )
        )

    feasible = [r for r in records if r.feasible]
    if not feasible:
        closest = min(records, key=lambda r: r.u)
        rationale = (
            f"no separation in {[f'{s:g}' for s in cfg.separations_mm]} mm meets "
            f"U <= {cfg.u_limit} W/(m^2 K); the closest is {closest.u:.4f} at {closest.separation_mm:g} mm"
            + ("" if closest.converged else ", whose solve did not converge")
        )
        return SweepResult(records, None, rationale)
    edge = min(feasible, key=lambda r: r.separation_mm)
    rationale = (
        f"mean improvement at the edge: {edge.mean_improvement_db:.1f} dB over {list(cfg.frequencies_ghz)} GHz. "
        "Mutual coupling between neighbouring antenna systems is not modelled; it penalizes the densest "
        "spacings in full-wave studies, so improvements within ~10 mm of the feasibility edge are soft."
    )
    return SweepResult(records, edge.separation_mm, rationale)


def min_feasible_separation(
    cfg: SweepConfig, cell_template: UnitCell, bc: ThermalBoundary = ThermalBoundary()
) -> float | None:
    """Smallest swept separation whose converged U-value meets the limit, or None.

    Scans the separations in ascending order and stops at the first feasible one.
    """
    separations = sorted(cfg.separations_mm)
    scan = _scan(separations, cell_template, bc, cfg.u_limit, side_by_side=False)
    return next((float(s) for s, (_, _, feasible) in zip(separations, scan) if feasible), None)
