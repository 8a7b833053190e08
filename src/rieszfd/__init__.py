"""High-order finite difference discretizations of the Riesz fractional
derivative, an unconditionally stable Crank-Nicolson solver for the 1D
Riesz fractional advection-diffusion equation, and a convergence
verification harness."""

from .coeffs import (
    CoefficientTable,
    Family,
    PropertyReport,
    alpha_star,
    expansion_coefficients,
    gl_weights,
    kappa_polynomial,
    kappa_weights,
    lubich_weights,
    series_fractional_power,
    verify_properties,
    wsgd_weights,
)
from .errors import (
    DomainError,
    NumericsError,
    SeriesError,
    SingularMatrixError,
    SizeLimitError,
    TableError,
    UnsupportedOrderError,
)
from .harness import (
    ConvergenceReport,
    StudyRow,
    convergence_study,
    error_surface,
    example41_exact,
    example42_problem,
)
from .operators import (
    GridSpec1D,
    assemble_galpha,
    generating_symbol,
    left_apply,
    point_riesz_derivative,
    riesz_apply,
    riesz_constant,
    riesz_matrix,
    right_apply,
    spectral_bounds,
)
from .pde import (
    AdvectionDiffusionProblem,
    SolutionGrid,
    SteppingSystem,
    assemble_system,
    grid_norm,
    solve,
    step,
)

__version__ = "0.1.0"
