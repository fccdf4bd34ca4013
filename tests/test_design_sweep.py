from contextlib import contextmanager

import pytest

from signalwall import design_sweep, thermal
from signalwall.antenna_link import UnitCell
from signalwall.design_sweep import SweepConfig, SweepError, min_feasible_separation, run_sweep
from signalwall.thermal import ThermalError

FAST = SweepConfig(separations_mm=(90.0, 130.0, 170.0), frequencies_ghz=(3.5, 8.0))


@contextmanager
def coarse_mesh():
    """A coarser mesh keeps the small behavioural sweeps fast.

    The patch covers only the work inside the block: the session fixtures
    that the acceptance suite shares must be built on the default mesh.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(thermal, "_Z_INSULATING_MM", 6.0)
        patch.setattr(thermal, "_Z_CONDUCTIVE_MM", 10.0)
        patch.setattr(thermal, "_XY_COARSE_MM", 20.0)
        yield


@pytest.fixture(scope="module")
def fast_sweep(antenna_cell, boundary):
    with coarse_mesh():
        return run_sweep(FAST, antenna_cell, boundary)


def test_u_strictly_decreasing_in_separation(fast_sweep):
    u_values = [rec.u for rec in fast_sweep.records]
    assert all(a > b for a, b in zip(u_values, u_values[1:]))


def test_feasibility_monotone(fast_sweep):
    flags = [rec.feasible for rec in fast_sweep.records]  # ascending separations
    assert flags == sorted(flags)


def test_feasible_iff_below_limit(fast_sweep):
    for rec in fast_sweep.records:
        assert rec.feasible == (rec.u <= FAST.u_limit)


def test_improvement_positive_above_onset(fast_sweep):
    for rec in fast_sweep.records:
        for f, gain in rec.improvement_db.items():
            if f >= 2.6:
                assert gain >= 0.0


def test_smallest_feasible_is_the_feasible_record_with_the_best_mean_improvement(fast_sweep):
    feasible = [rec for rec in fast_sweep.records if rec.feasible]
    assert feasible and fast_sweep.smallest_feasible_mm == min(rec.separation_mm for rec in feasible)
    # the antenna path grows as the cell shrinks, so the edge also has the largest mean improvement
    (edge,) = [rec for rec in feasible if rec.separation_mm == fast_sweep.smallest_feasible_mm]
    assert edge.mean_improvement_db == max(rec.mean_improvement_db for rec in feasible)
    assert f"{edge.mean_improvement_db:.1f} dB" in fast_sweep.rationale
    assert "coupling" in fast_sweep.rationale


def test_reordering_separations_changes_nothing(antenna_cell, boundary, fast_sweep):
    import dataclasses

    shuffled = dataclasses.replace(FAST, separations_mm=(170.0, 90.0, 130.0))
    with coarse_mesh():
        result = run_sweep(shuffled, antenna_cell, boundary)
    by_sep = {rec.separation_mm: rec for rec in result.records}
    for rec in fast_sweep.records:
        other = by_sep[rec.separation_mm]
        assert other.u == pytest.approx(rec.u, rel=1e-12)
        assert other.transmission_db == rec.transmission_db


@pytest.fixture
def solved(monkeypatch):
    """The separations, in mm, that the sweep module solves, in solve order."""
    separations = []
    solve = design_sweep.solve_steady_state

    def counting_solve(grid, *args, **kwargs):
        separations.append(float(grid.x_nodes_mm[-1]))
        return solve(grid, *args, **kwargs)

    monkeypatch.setattr(design_sweep, "solve_steady_state", counting_solve)
    return separations


def test_min_feasible_unconstrained_returns_smallest(antenna_cell, boundary, solved):
    cfg = SweepConfig(separations_mm=(90.0, 130.0), u_limit=1e9)
    with coarse_mesh():
        assert min_feasible_separation(cfg, antenna_cell, boundary) == 90.0
    assert solved == [90.0]  # it stops at the first feasible separation


def test_min_feasible_names_a_cell_too_wide_to_mesh_before_any_solve(antenna_cell, boundary, solved):
    cfg = SweepConfig(separations_mm=(80.0, 1700.0), u_limit=0.01)
    with pytest.raises(ThermalError, match=r"^cell \(1700\.0 x 1700\.0 mm\): mesh of 5,481,332 cells"):
        min_feasible_separation(cfg, antenna_cell, boundary)
    assert solved == []


def test_min_feasible_infeasible_returns_none(antenna_cell, boundary, wall):
    from signalwall.thermal import u_value_analytical

    bare_u = u_value_analytical(wall, boundary).u
    cfg = SweepConfig(separations_mm=(90.0, 130.0), u_limit=bare_u * 0.9)
    with coarse_mesh():
        assert min_feasible_separation(cfg, antenna_cell, boundary) is None


def test_an_unconverged_solve_is_never_feasible(antenna_cell, boundary, monkeypatch):
    # U = 0.15 meets the 0.17 limit, but a solve cut short at its iteration cap established nothing
    def unconverged(grid, *args, **kwargs):
        return thermal.UValueResult(u=0.15, converged=False, iterations=thermal._MAX_ITER, residual=1e-3)

    monkeypatch.setattr(design_sweep, "solve_steady_state", unconverged)
    cfg = SweepConfig(separations_mm=(90.0, 130.0), frequencies_ghz=(3.5,))
    result = run_sweep(cfg, antenna_cell, boundary)
    assert [rec.feasible for rec in result.records] == [False, False]
    assert result.smallest_feasible_mm is None
    assert min_feasible_separation(cfg, antenna_cell, boundary) is None


def test_sweep_requires_antenna_system(wall, boundary):
    bare = UnitCell(150.0, 150.0, wall)
    with pytest.raises(SweepError):
        run_sweep(FAST, bare, boundary)


def test_sweep_csv_schema(tmp_path, fast_sweep):
    path = tmp_path / "sweep.csv"
    fast_sweep.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "separation_mm,U,feasible,f_GHz,t_dB,improvement_dB"
    assert len(lines) == 1 + len(fast_sweep.records) * len(FAST.frequencies_ghz)


def test_config_validation():
    with pytest.raises(SweepError):
        SweepConfig(separations_mm=())
    with pytest.raises(SweepError):
        SweepConfig(u_limit=0.0)
    with pytest.raises(SweepError):
        SweepConfig(frequencies_ghz=(0.0, 3.5))
    with pytest.raises(SweepError, match="separations must not repeat"):
        SweepConfig(separations_mm=(150.0, 150.0))
    with pytest.raises(SweepError, match="frequencies must not repeat"):
        SweepConfig(frequencies_ghz=(3.5, 8.0, 3.5))


def test_lists_over_their_bounds_are_refused():
    separations = tuple(70.0 + 0.1 * i for i in range(design_sweep._MAX_SEPARATIONS + 1))
    with pytest.raises(SweepError, match="^501 separations exceed the 500-separation limit$"):
        SweepConfig(separations_mm=separations)
    SweepConfig(separations_mm=separations[:-1])
    frequencies = tuple(1.0 + 1e-4 * i for i in range(design_sweep.MAX_GRID_POINTS + 1))
    with pytest.raises(SweepError, match="^100,001 frequencies exceed the 100,000-point limit$"):
        SweepConfig(frequencies_ghz=frequencies)
    SweepConfig(frequencies_ghz=frequencies[:-1])


def test_separations_times_frequencies_over_the_row_bound_are_refused_before_any_mesh(
    monkeypatch, antenna_cell, boundary
):
    # every record holds a level and an improvement per frequency, so the bound is on the product;
    # the largest lists of test_lists_over_their_bounds_are_refused (500 x 4, 14 x 100,000) stay accepted
    meshed = []
    monkeypatch.setattr(design_sweep, "voxelize_unit_cell", meshed.append)
    separations = tuple(float(s) for s in range(70, 201))
    frequencies = tuple(round(1.0 + 0.001 * i, 9) for i in range(99_001))
    message = "^131 separations x 99,001 frequencies = 12,969,131 rows exceed the 2,000,000-row limit$"
    with pytest.raises(SweepError, match=message):
        run_sweep(SweepConfig(separations_mm=separations, frequencies_ghz=frequencies), antenna_cell, boundary)
    with pytest.raises(SweepError, match="^500 separations x 4,001 frequencies = 2,000,500 rows exceed"):
        SweepConfig(separations_mm=tuple(70.0 + 0.1 * i for i in range(500)), frequencies_ghz=frequencies[:4001])
    assert meshed == []
    SweepConfig(separations_mm=tuple(70.0 + 0.1 * i for i in range(500)), frequencies_ghz=frequencies[:4000])


@pytest.mark.parametrize("frequencies", [(0.3, 0.5), (3.5, 0.99), (8.0, 120.0), (3.5, float("nan"))])
def test_frequencies_outside_the_material_model_range_rejected(frequencies):
    # the ITU-R P.2040 power law is fitted over 1-100 GHz; outside it the sweep would report extrapolations
    with pytest.raises(SweepError, match="1-100 GHz range"):
        SweepConfig(frequencies_ghz=frequencies)
    SweepConfig(frequencies_ghz=(1.0, 100.0))
