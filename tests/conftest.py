import pytest

from signalwall.antenna_link import AntennaSpec, CoaxSpec, UnitCell
from signalwall.design_sweep import SweepConfig, run_sweep
from signalwall.layered_em import Layer, LayerStack
from signalwall.scenario import builtin_database
from signalwall.thermal import ThermalBoundary, solve_steady_state, voxelize_unit_cell


@pytest.fixture(scope="session")
def db():
    return builtin_database()


@pytest.fixture(scope="session")
def wall(db):
    return LayerStack(
        [
            Layer(db.get("concrete"), 70.0),
            Layer(db.get("rock_wool"), 220.0),
            Layer(db.get("concrete"), 150.0),
        ]
    )


@pytest.fixture(scope="session")
def boundary():
    return ThermalBoundary()


@pytest.fixture(scope="session")
def antenna_cell(db, wall):
    return UnitCell(
        150.0,
        150.0,
        wall,
        antenna=AntennaSpec(),
        coax=CoaxSpec(db.get("stainless_steel"), db.get("ptfe_low_density")),
        foam=db.get("foam_backing"),
        laminate=db.get("laminate"),
    )


@pytest.fixture(scope="session")
def bare_fv_result(wall, boundary):
    grid = voxelize_unit_cell(UnitCell(150.0, 150.0, wall))
    return solve_steady_state(grid, boundary)


@pytest.fixture(scope="session")
def antenna_fv_result(antenna_cell, boundary):
    grid = voxelize_unit_cell(antenna_cell)
    return solve_steady_state(grid, boundary)


@pytest.fixture(scope="session")
def default_sweep_result(antenna_cell, boundary):
    # the full 70..200 mm sweep is the most expensive artifact in the suite;
    # shared by the design-sweep tests and the acceptance gate
    return run_sweep(SweepConfig(), antenna_cell, boundary)
