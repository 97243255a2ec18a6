"""Best rank-k positive semidefinite fit to congruence-transformed observations.

Given square matrices A_1..A_m and transforms B_1..B_m, find a symmetric
PSD matrix X with rank(X) <= k minimizing

    sum_i || A_i - B_i X B_i^T ||_F^2 .

The constraint set is parametrized as X = Y Y^T with Y of width k, and the
resulting unconstrained problem is minimized by nonlinear conjugate
gradients with an exact (quartic-polynomial) line search.

The package namespace holds the library API documented in the README: the
problem, its evaluation, the solver, the problem file and the image demo's
entry points.  The rest stays in its module: the line search in
:mod:`psdfit.linesearch`, independent numerical oracles for every
analytic formula in :mod:`psdfit.oracle`, every file format (solution,
matrix and PGM image files too, and the trace file, which is written and
not read back) in :mod:`psdfit.io` and the image demo's test images in
:mod:`psdfit.imagedemo`.
"""

from .problem import (
    Evaluation,
    ProblemInstance,
    ValidationError,
    Violation,
    assemble_X,
    evaluate,
)
from .solver import (
    IterationRecord,
    NumericalError,
    SolverConfig,
    SolverResult,
    TerminationReason,
    solve,
)
from .io import ParseError, generate_instance, read_pgm, read_problem, write_problem
from .imagedemo import image_demo, image_to_truth, observation_instance

__version__ = "0.1.0"

__all__ = [
    "Evaluation",
    "IterationRecord",
    "NumericalError",
    "ParseError",
    "ProblemInstance",
    "SolverConfig",
    "SolverResult",
    "TerminationReason",
    "ValidationError",
    "Violation",
    "assemble_X",
    "evaluate",
    "generate_instance",
    "image_demo",
    "image_to_truth",
    "observation_instance",
    "read_pgm",
    "read_problem",
    "solve",
    "write_problem",
]
