"""Electromagnetic and thermal modelling of signal-transmissive walls.

Multi-layer load-bearing walls block both heat and radio signals; embedding
passive back-to-back antenna systems restores radio transmission while the
wall must stay below a regulatory thermal-transmittance (U-value) limit.
This package provides the solvers for both sides of that trade-off and the
design-sweep machinery that picks the densest feasible antenna spacing.
"""

from .materials import (
    FixedPermittivity,
    Material,
    MaterialDatabase,
    MaterialError,
    PermittivityModel,
    UnknownMaterialError,
)
from .layered_em import (
    Incidence,
    Layer,
    LayerStack,
    Spectrum,
    tmm_coefficients,
    transmission_spectrum,
)
from .antenna_link import (
    AntennaSpec,
    CoaxSpec,
    UnitCell,
    aperture_transmission,
    coax_attenuation,
    coax_impedance,
    combine_paths,
)
from .thermal import (
    ThermalBoundary,
    UValueResult,
    VoxelGrid,
    solve_steady_state,
    u_value_analytical,
    voxelize_unit_cell,
)
from .fdtd import Fdtd1dConfig, validate_against_tmm
from .inverse import MeasuredSpectrum, FitResult, fit_permittivity, normalize_spectrum
from .design_sweep import SweepConfig, SweepResult, min_feasible_separation, run_sweep
from .scenario import Scenario, ScenarioError, builtin_database, load_scenario

__version__ = "0.1.0"
