"""Best rank-k positive semidefinite fit to congruence-transformed observations.

Given square matrices A_1..A_m and transforms B_1..B_m, find a symmetric
PSD matrix X with rank(X) <= k minimizing

    sum_i || A_i - B_i X B_i^T ||_F^2 .

The constraint set is parametrized as X = Y Y^T with Y of width k, and the
resulting unconstrained problem is minimized by nonlinear conjugate
gradients with an exact (quartic-polynomial) line search.  Independent
numerical oracles for every analytic formula live in :mod:`psdfit.oracle`.
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
from .linesearch import (
    DegenerateDirectionError,
    NonDescentDirectionError,
    QuarticPolynomial,
    StepResult,
    cubic_real_roots,
    exact_step,
    minimize_quartic,
    quartic_coeffs,
)
from .solver import (
    IterationRecord,
    MultistartResult,
    NumericalError,
    SolverConfig,
    SolverResult,
    TerminationReason,
    fr_beta,
    multistart_solve,
    solve,
)
from .oracle import (
    OracleReport,
    compare,
    fd_gradient,
    interpolate_quartic,
    psd_truncation,
    reference_objective,
    reference_residual,
)
from .io import (
    ParseError,
    SolutionSummary,
    generate_instance,
    read_matrix,
    read_problem,
    read_solution,
    read_trace,
    write_matrix,
    write_problem,
    write_solution,
    write_trace,
)
from .imagedemo import (
    DemoReport,
    ImageFormatError,
    image_demo,
    image_to_truth,
    make_test_image,
    observation_instance,
    read_pgm,
    write_pgm,
)

__version__ = "0.1.0"

__all__ = [
    "DegenerateDirectionError",
    "DemoReport",
    "ImageFormatError",
    "IterationRecord",
    "MultistartResult",
    "NonDescentDirectionError",
    "NumericalError",
    "OracleReport",
    "ParseError",
    "ProblemInstance",
    "QuarticPolynomial",
    "SolutionSummary",
    "SolverConfig",
    "SolverResult",
    "StepResult",
    "TerminationReason",
    "ValidationError",
    "ValidationReport",
    "Violation",
    "assemble_X",
    "compare",
    "cubic_real_roots",
    "exact_step",
    "fd_gradient",
    "fr_beta",
    "generate_instance",
    "gradient",
    "image_demo",
    "image_to_truth",
    "interpolate_quartic",
    "make_test_image",
    "minimize_quartic",
    "multistart_solve",
    "objective",
    "observation_instance",
    "psd_truncation",
    "quartic_coeffs",
    "read_matrix",
    "read_pgm",
    "read_problem",
    "read_solution",
    "read_trace",
    "reference_objective",
    "reference_residual",
    "residual_error",
    "solve",
    "validate",
    "write_matrix",
    "write_pgm",
    "write_problem",
    "write_solution",
    "write_trace",
]
