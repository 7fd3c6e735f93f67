"""Brownian oscillator in an Ohmic bath.

Closed-form response functions and bath sums, quantum and classical
Fokker-Planck coefficients, Gaussian propagators, a conservative grid solver
for the time-local position-space FPE, and trajectory-ensemble cross-checks.
"""

from .errors import (
    CFLViolation,
    DegenerateVariance,
    GridMismatch,
    HbarZero,
    InvalidInput,
    NegativeDiffusion,
    NoConvergence,
    NonFiniteCoefficient,
    NonFiniteState,
    NonPositiveCurvature,
    NonPositiveMass,
    NonPositiveTemperature,
    PoleAtChiQZero,
    PoleWindow,
    QbmError,
    TailNotBounded,
    UnresolvedGrid,
)
from .model import PhysicalParams, derive
from .special import noise_kernel_closed, noise_kernel_modes, xi_q0_closed
from .response import (
    chi_q,
    chi_q_dot,
    chi_v,
    chi_v_dot,
    drift_velocity,
    omega_drift,
    pole_times,
)
from .coefficients import (
    CoefficientTable,
    D1Result,
    N_MODES,
    build_table,
    d1_classical,
    d1_quantum_detail,
    d_cl_closed,
    sigma1_classical,
    sigma1_quantum,
    sigma_cl_closed,
    xi_q0_sum,
)
from .propagator import GaussianDensity, density, fpe_residual, maxwell_average_check
from .fpe import DensityField, SolveResult, SolverConfig, StepGrid, solve, step
from .sde import EnsembleStats, equivalence_report, simulate_langevin, simulate_reduced
from .validation import CheckResult, ValidationReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "QbmError", "InvalidInput", "NonPositiveMass", "NonPositiveTemperature",
    "NonPositiveCurvature",
    "HbarZero", "NoConvergence", "TailNotBounded", "PoleAtChiQZero",
    "NonFiniteCoefficient", "NegativeDiffusion", "PoleWindow", "CFLViolation",
    "GridMismatch", "DegenerateVariance", "NonFiniteState", "UnresolvedGrid",
    # model
    "PhysicalParams", "derive",
    # special functions and bath sums
    "xi_q0_sum", "xi_q0_closed",
    "noise_kernel_modes", "noise_kernel_closed",
    # response
    "chi_q", "chi_v", "chi_q_dot", "chi_v_dot", "omega_drift", "drift_velocity",
    "pole_times",
    # coefficients
    "d1_classical", "sigma1_classical", "sigma_cl_closed", "d_cl_closed",
    "N_MODES", "D1Result", "d1_quantum_detail", "sigma1_quantum",
    "CoefficientTable", "build_table",
    # propagator
    "GaussianDensity", "density", "fpe_residual", "maxwell_average_check",
    # fpe
    "SolverConfig", "DensityField", "SolveResult", "StepGrid", "step", "solve",
    # sde
    "EnsembleStats", "simulate_reduced", "simulate_langevin", "equivalence_report",
    # validation
    "CheckResult", "ValidationReport", "run_suite",
]
