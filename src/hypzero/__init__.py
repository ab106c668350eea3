"""Numerical toolkit for the zero clustering of a terminating
hypergeometric polynomial family with parameter growing linearly in the
degree: exact polynomial construction, contour integrals, steepest-path
tracing, region classification, level-curve tracing, certified root
finding, and the experiment runner tying them together."""

from .kernel import Alpha, BranchTrackedValue
from .hyperpoly import Polynomial, coefficients, evaluate, real_family_coefficients
from .saddle import SaddleData, descent_integral_estimate, level_constant, saddle_point
from .flows import PathTrace, RegionLabel, branch_ends, classify_region, \
    saddle_directions, separatrices, trace_flow
from .quadrature import ContourIntegral, descent_integral, endpoint_integral, \
    euler_integral
from .roots import ZeroSet, find_roots
from .levelcurve import LevelCurve, distance_to_curve, trace_level_curve
from .verify import ExperimentConfig, GridSpec, VerificationReport, \
    emit_report, run_theorem_check

__version__ = "0.1.0"
