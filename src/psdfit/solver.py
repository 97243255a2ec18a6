"""Nonlinear conjugate gradient iteration with exact line search.

Directions mix the negative gradient with the previous direction through
the Fletcher-Reeves ratio ||g_next||_F^2 / ||g||_F^2, with each squared
gradient norm computed once, by the evaluation that forms the gradient;
steps come from the exact quartic line search.
The direction resets to steepest descent every RESTART_PERIOD iterations
and whenever the mixed direction fails the descent test, so every line
search starts from a strict descent direction.  The instance and the
configuration are not checked here: each checks itself when built.  The
start point is checked once, by `solve`, and each iterate is formed by
`step` as a float64 C-contiguous array, which `problem.evaluate` checks
without a copy.
"""

import enum
import math
import numbers
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import count

import numpy as np

from . import linesearch
from .problem import (
    Evaluation,
    FactorMatrix,
    NumericalError,
    ProblemInstance,
    _as_factor,
    _check_integer,
    assemble_X,
    evaluate,
)


# Fletcher-Reeves directions can stall without an occasional reset to -grad
# (Powell, Math. Prog. 12, 1977); `step` resets on every multiple of this.
RESTART_PERIOD = 200


class TerminationReason(enum.Enum):
    GRADIENT_TOLERANCE = "gradient-tolerance"
    MAX_ITERATIONS = "max-iterations"
    DEGENERATE_DIRECTION = "degenerate-direction"


@dataclass(frozen=True)
class SolverConfig:
    """Stopping policy, checked when built (ValueError).

    epsilon is the gradient-norm stopping tolerance (a finite number > 0,
    not a bool); max_iterations is an integer of at least 1 (`_check_integer`).
    """

    epsilon: float = 1e-4
    max_iterations: int = 10000

    def __post_init__(self):
        epsilon = self.epsilon
        real = isinstance(epsilon, numbers.Real) and not isinstance(epsilon, bool)
        if not (real and 0 < epsilon < math.inf):
            raise ValueError("epsilon must be a finite positive number")
        _check_integer("max_iterations", self.max_iterations, 1)


@dataclass(slots=True)
class IterationRecord:
    index: int
    f_value: float
    grad_norm: float
    residual: float
    step: float
    beta: float


class Trace(Sequence):
    """A solve's iterations as a sequence of IterationRecord, row i being iteration i.

    The rows are kept as five float64 columns (f_value, grad_norm, residual,
    step, beta; 8 B per field per iteration), and each record is built when
    it is read: by indexing, slices (a list of records), iteration (which
    zips the columns) and == (with a Trace or any other sequence of records).
    """

    __slots__ = ("columns",)

    def __init__(self):
        self.columns = tuple(array("d") for _ in range(5))

    def append(self, record: IterationRecord):
        """Add the next row; record.index is its position."""
        f, grad_norm, residual, step, beta = self.columns
        f.append(record.f_value)
        grad_norm.append(record.grad_norm)
        residual.append(record.residual)
        step.append(record.step)
        beta.append(record.beta)

    def __len__(self):
        return len(self.columns[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        j = range(len(self))[i]  # a negative i counts from the end; IndexError past it
        return IterationRecord(j, *(column[j] for column in self.columns))

    def __iter__(self):
        return map(IterationRecord, count(), *self.columns)

    def __eq__(self, other):
        if isinstance(other, Sequence):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented


@dataclass
class SolverResult:
    """A solve's end point and how it got there.

    trace is a `Trace`, a Sequence[IterationRecord] with one record per
    iteration, the start point being record 0: len(trace) == iterations + 1.
    """

    Y_final: FactorMatrix
    X_final: np.ndarray
    iterations: int
    converged: bool  # the one place a termination_reason maps to success
    trace: Trace = field(repr=False)
    termination_reason: TerminationReason


def _record(index: int, at: Evaluation, step: float, beta: float) -> IterationRecord:
    return IterationRecord(index, at.f, math.sqrt(at.gg), at.residual, step, beta)


def step(
    instance: ProblemInstance,
    Y: FactorMatrix,
    at: Evaluation,
    D,
    *,
    index: int = 1,
):
    """One iteration: exact step along D, evaluation at Y_next, next direction.

    at is the `Evaluation` at Y, which the line search also reads.  Returns
    (Y_next, at_next, D_next, record), each at Y_next, to pass to the next
    step.  Y, D and at.grad are checked once, by the line search
    (`linesearch.exact_step`, ValueError); Y_next = Y + t D is formed here as
    a float64 C-contiguous array, which `evaluate` takes without a copy.
    Rounding can spoil a mixed direction after it passed the descent test,
    so when the line search finds no step along D the step is retried once
    along -at.grad; DegenerateDirectionError propagates only when D already
    was -at.grad.  The Fletcher-Reeves ratio
    is beta = at_next.gg / at.gg, or 0 at a stationary Y (at.gg = 0), where
    the ratio has no denominator.  index is the iteration this step makes.  The
    next direction resets to -at_next.grad, with beta recorded as 0, when
    index is a multiple of RESTART_PERIOD or the Fletcher-Reeves direction
    fails the descent test <at_next.grad, D_next> < 0.
    """
    try:
        found = linesearch.exact_step(instance, Y, D, at)
    except linesearch.DegenerateDirectionError:
        if np.array_equal(D, -at.grad):
            raise
        D = -at.grad
        found = linesearch.exact_step(instance, Y, D, at)
    t = found.t_star
    # Y + t D with one temporary, float64 and C-contiguous whatever D's dtype
    # and layout, so `evaluate` takes it without a copy
    Y_next = np.multiply(t, D, dtype=np.float64, order="C")
    Y_next += Y
    at_next = evaluate(instance, Y_next)
    # at.gg is 0 only at a stationary Y, which `solve` never steps from; beta
    # = 0 there makes D_next = -at_next.grad
    beta = at_next.gg / at.gg if at.gg else 0.0
    # float64 whatever D's dtype, so the in-place subtraction loses no digits
    D_next = np.multiply(beta, D, dtype=np.float64)
    D_next -= at_next.grad
    if index % RESTART_PERIOD == 0 or at_next.grad.ravel().dot(D_next.ravel()) >= 0.0:
        beta = 0.0
        D_next = -at_next.grad
    return Y_next, at_next, D_next, _record(index, at_next, t, beta)


def solve(
    instance: ProblemInstance,
    Y0: FactorMatrix | None = None,
    config: SolverConfig | None = None,
    *,
    seed: int = 0,
    callback=None,
) -> SolverResult:
    """Minimize the objective from Y0, tracing every iteration.

    Stops when the gradient Frobenius norm drops below config.epsilon, the
    iteration limit is reached, or `step` finds no step even along -grad (a
    degenerate direction); a non-finite objective, gradient or step
    polynomial raises NumericalError naming the iteration.  When Y0 is None
    the start point is drawn uniformly from [0, 1) using the given seed,
    which is an integer of at least 0 whether or not Y0 is given
    (`_check_integer`, ValueError: None would draw a new start each call); a
    Y0 of the wrong shape, with a NaN or infinity, or of column rank below k
    is a ValueError.  The gradient -2 sum_i B_i^T (R_i + R_i^T) B_i Y is a
    matrix times Y, so every iterate would keep a rank-deficient Y0's right
    null space and the fit its rank.  Each iterate's one `Evaluation` gives
    its record, the stopping test, beta and the next line search's phi(0).
    The optional callback is invoked after each iteration as
    callback(record, Y, grad, direction).

    Each recorded f is a fresh evaluation, so the trace's f values are
    nonincreasing only up to rounding: where the true decrease is below f's
    resolution, f can rise by a few ulps.  Identical inputs produce
    identical traces.
    """
    _check_integer("seed", seed, 0)
    if config is None:
        config = SolverConfig()

    if Y0 is None:
        Y0 = np.random.default_rng(seed).random((instance.n, instance.k))
    Y = _as_factor(instance, Y0, name="Y0")
    if not np.isfinite(Y).all():
        raise ValueError("Y0 has non-finite entries")
    rank = np.linalg.matrix_rank(Y)
    if rank < instance.k:
        raise ValueError(f"Y0 has column rank {rank}, below k={instance.k}")

    at = evaluate(instance, Y)
    record = _record(0, at, 0.0, 0.0)
    D = -at.grad
    trace = Trace()
    while True:
        k = record.index
        if not (math.isfinite(record.f_value) and math.isfinite(record.grad_norm)):
            raise NumericalError(f"non-finite objective or gradient at iteration {k}")
        trace.append(record)
        if k > 0 and callback is not None:
            callback(record, Y, at.grad, D)
        if record.grad_norm < config.epsilon:
            reason = TerminationReason.GRADIENT_TOLERANCE
            break
        if k >= config.max_iterations:
            reason = TerminationReason.MAX_ITERATIONS
            break
        try:
            Y, at, D, record = step(instance, Y, at, D, index=k + 1)
        except linesearch.DegenerateDirectionError:
            reason = TerminationReason.DEGENERATE_DIRECTION
            break
        except NumericalError as exc:
            raise NumericalError(f"{exc} at iteration {k + 1}") from None

    return SolverResult(
        Y_final=Y,
        X_final=assemble_X(Y),
        iterations=k,
        converged=reason is TerminationReason.GRADIENT_TOLERANCE,
        trace=trace,
        termination_reason=reason,
    )
