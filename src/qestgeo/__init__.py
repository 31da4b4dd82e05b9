"""Estimation-theoretic geometry of pure-state quantum models.

The package computes, for parametrized families of pure states: the
quantum Fisher metric and its curvature companion, the spectrum of the
induced complex-structure transform, Cramer-Rao style error bounds,
discrete transport phases along curves, classification of families by
phase parallelism and antiunitary symmetry, and the measurement
statistics that realize the bounds.
"""

__version__ = "0.1.0"

from . import estimation, geometry, hilbert, holonomy, model, symmetry  # noqa: F401
from .errors import QestgeoError  # noqa: F401
from .geometry import GeometryReport, WeightMatrix, analyze, analyze_many  # noqa: F401
from .hilbert import BasisSpace, GridSpace, StateVector, inner  # noqa: F401
from .model import Curve, HorizontalLift, PureStateModel, catalog  # noqa: F401
