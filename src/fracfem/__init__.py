"""FEM solvers for two-point boundary value problems with a leading
Riemann-Liouville fractional derivative of order alpha in (1, 2).

The package provides the standard Galerkin method and a singularity
reconstruction method that splits off the leading x^(alpha-1) (or, for
mixed conditions, x^(alpha-2)) profile, together with the convergence-study
tooling used to verify both.
"""

from .analysis import (
    ConvergenceReport,
    ErrorNorms,
    ExactSolution,
    error_norms,
    exact_q0,
    expected_rates,
    rates,
    reference_solution,
)
from .assembly import (
    AssembledSystem,
    Lead,
    ProblemSpec,
    SingularPair,
    assemble_lead,
    assemble_system,
    build_singular_pair,
    lead_stencil,
)
from .errors import (
    ArgumentError,
    DegenerateSplittingError,
    DomainError,
    FracFemError,
    IterativeFailure,
    SingularSystemError,
    UnsupportedFormError,
)
from .fields import ScalarField, parse_field
from .fraccalc import (
    PowerSum,
    PowerTerm,
    beta_fn,
    frac_order,
    gamma_fn,
    rl_integral_powersum,
    rl_integral_powersum_at,
)
from .mesh import Mesh, PwLinear, build_mesh
from .solver import (
    Solution,
    solve_reconstruction,
    solve_standard,
    system_matvec,
)

__version__ = "0.1.0"
