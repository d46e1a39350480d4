"""Nonlocal diffusion with heavy-tailed jump kernels, plus its certificates.

The package simulates d_t u = D u for the principal-value jump operator
D u(x) = p.v. int (u(x + z) - u(x)) J(z) dz on a uniform 1D grid with a
monotone explicit scheme, and packages the quantitative checks that certify
the qualitative theory: kernel envelope validation, discrete comparison,
half-line persistence of plateau data, an explicit subsolution residual
certificate, and the algebraic tail-flattening lower bound.
"""

from .evolution import (
    ComparisonReport,
    SimulationDivergedError,
    Trajectory,
    discrete_comparison_check,
    evolve,
    stable_dt,
    step,
)
from .kernels import (
    HypothesisCertificate,
    HypothesisViolationError,
    KernelSpec,
    compact_plus_tail,
    eval_kernel,
    exterior_mass,
    exterior_tail_response,
    interval_mass,
    interval_moments,
    pure_fractional,
    restricted_second_moment,
    truncated_fractional,
    validate_hypothesis,
)
from .mesh import BoundaryModel, Field, Grid
from .operator import DiscreteOperator, UnverifiedKernelError, discretize
from .quadrature import QuadratureError
from .reference import (
    HeatKernelBoundsFit,
    fractional_heat_kernel,
    heat_kernel_bounds_fit,
    heat_kernel_tail_constant,
    reference_solution,
    solution_tail_constant,
)
from .subsolution import (
    ResidualSample,
    SubsolutionParams,
    kappa,
    nonlocal_apply_to_barrier,
    residual_certificate,
    residual_grid,
    shifted_subsolution,
    symmetric_increment,
    w_eval,
    w_time_derivative,
)
from .verification import (
    InitialDatum,
    TailFit,
    VerificationReport,
    flattening_ratio,
    halfline_bound_check,
    mirror_identity_check,
    tail_exponent_fit,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BoundaryModel",
    "ComparisonReport",
    "DiscreteOperator",
    "Field",
    "Grid",
    "HeatKernelBoundsFit",
    "HypothesisCertificate",
    "HypothesisViolationError",
    "InitialDatum",
    "KernelSpec",
    "QuadratureError",
    "ResidualSample",
    "SimulationDivergedError",
    "SubsolutionParams",
    "TailFit",
    "Trajectory",
    "UnverifiedKernelError",
    "VerificationReport",
    "compact_plus_tail",
    "discrete_comparison_check",
    "discretize",
    "eval_kernel",
    "evolve",
    "exterior_mass",
    "exterior_tail_response",
    "flattening_ratio",
    "fractional_heat_kernel",
    "halfline_bound_check",
    "heat_kernel_bounds_fit",
    "heat_kernel_tail_constant",
    "interval_mass",
    "interval_moments",
    "kappa",
    "mirror_identity_check",
    "nonlocal_apply_to_barrier",
    "pure_fractional",
    "reference_solution",
    "residual_certificate",
    "residual_grid",
    "restricted_second_moment",
    "shifted_subsolution",
    "solution_tail_constant",
    "stable_dt",
    "step",
    "symmetric_increment",
    "tail_exponent_fit",
    "truncated_fractional",
    "validate_hypothesis",
    "w_eval",
    "w_time_derivative",
]
