"""Best rank-k positive semidefinite fit to congruence-transformed observations.

Given square matrices A_1..A_m and transforms B_1..B_m, find a symmetric
PSD matrix X with rank(X) <= k minimizing

    sum_i || A_i - B_i X B_i^T ||_F^2 .

The constraint set is parametrized as X = Y Y^T with Y of width k, and the
resulting unconstrained problem is minimized by nonlinear conjugate
gradients with an exact (quartic-polynomial) line search.

The package namespace holds the library API documented in the README: the
problem, the objective, the solver, the problem file and the image demo's
entry points.  The rest stays in its module: the line search in
:mod:`psdfit.linesearch`, multistart in :mod:`psdfit.solver`, independent
numerical oracles for every analytic formula in :mod:`psdfit.oracle`,
trace/solution/matrix files in :mod:`psdfit.io` and PGM images in
:mod:`psdfit.imagedemo`.
"""

from .problem import (
    ProblemInstance,
    ValidationError,
    ValidationReport,
    Violation,
    assemble_X,
    gradient,
    objective,
    residual_error,
    validate,
)
from .solver import (
    IterationRecord,
    NumericalError,
    SolverConfig,
    SolverResult,
    TerminationReason,
    solve,
)
from .io import ParseError, generate_instance, read_problem, write_problem
from .imagedemo import image_demo, image_to_truth, observation_instance, read_pgm

__version__ = "0.1.0"

__all__ = [
    "IterationRecord",
    "NumericalError",
    "ParseError",
    "ProblemInstance",
    "SolverConfig",
    "SolverResult",
    "TerminationReason",
    "ValidationError",
    "ValidationReport",
    "Violation",
    "assemble_X",
    "generate_instance",
    "gradient",
    "image_demo",
    "image_to_truth",
    "objective",
    "observation_instance",
    "read_pgm",
    "read_problem",
    "residual_error",
    "solve",
    "validate",
    "write_problem",
]
