"""Electromagnetic and thermal modelling of signal-transmissive walls.

Multi-layer load-bearing walls block both heat and radio signals; embedding
passive back-to-back antenna systems restores radio transmission while the
wall must stay below a regulatory thermal-transmittance (U-value) limit.
This package provides the solvers for both sides of that trade-off and the
design-sweep machinery that picks the densest feasible antenna spacing.
"""

__version__ = "0.1.0"
