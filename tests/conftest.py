import pytest

from signalwall.design_sweep import run_sweep
from signalwall.scenario import builtin_database, load_scenario
from signalwall.thermal import solve_steady_state, voxelize_unit_cell


@pytest.fixture(scope="session")
def db():
    return builtin_database()


@pytest.fixture(scope="session")
def default_scenario():
    # the shipped default_scenario.json that every command loads, so the gate checks the design as shipped
    return load_scenario()


@pytest.fixture(scope="session")
def wall(default_scenario):
    return default_scenario.wall


@pytest.fixture(scope="session")
def boundary(default_scenario):
    return default_scenario.boundary


@pytest.fixture(scope="session")
def antenna_cell(default_scenario):
    return default_scenario.cell


@pytest.fixture(scope="session")
def bare_fv_result(default_scenario):
    grid = voxelize_unit_cell(default_scenario.bare_cell())
    return solve_steady_state(grid, default_scenario.boundary)


@pytest.fixture(scope="session")
def antenna_fv_result(antenna_cell, boundary):
    grid = voxelize_unit_cell(antenna_cell)
    return solve_steady_state(grid, boundary)


@pytest.fixture(scope="session")
def default_sweep_result(default_scenario):
    # the full 70..200 mm sweep is the most expensive artifact in the suite;
    # shared by the design-sweep tests and the acceptance gate
    return run_sweep(default_scenario.sweep, default_scenario.cell, default_scenario.boundary)
