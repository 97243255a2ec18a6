"""Nonlinear conjugate gradient iteration with exact line search.

Directions mix the negative gradient with the previous direction through
the Fletcher-Reeves ratio ||g_next||_F^2 / ||g||_F^2, with each squared
gradient norm computed once, by the evaluation that forms the gradient;
steps come from the exact quartic line search.
The direction resets to steepest descent on a fixed period and whenever
the mixed direction fails the descent test, so every line search starts
from a strict descent direction.  `multistart_solve` runs the iteration
from several seeded starts and keeps the best.  The instance and the
configuration are not checked here: each checks itself when built.
"""

import enum
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import linesearch
from .problem import (
    FactorMatrix,
    GradientMatrix,
    NumericalError,
    ProblemInstance,
    _as_factor,
    _evaluate,
    assemble_X,
)


class TerminationReason(enum.Enum):
    GRADIENT_TOLERANCE = "gradient-tolerance"
    MAX_ITERATIONS = "max-iterations"
    DEGENERATE_DIRECTION = "degenerate-direction"


@dataclass(frozen=True)
class SolverConfig:
    """Stopping and restart policy, checked when built (ValueError).

    epsilon is the gradient-norm stopping tolerance (finite, > 0).  restart_period
    forces a steepest-descent reset every that many iterations —
    Fletcher-Reeves directions are known to stall on some instances
    without an occasional reset — while None disables periodic restarts,
    leaving only those triggered by a failed descent test.
    """

    epsilon: float = 1e-4
    max_iterations: int = 10000
    restart_period: int | None = 200

    def __post_init__(self):
        if not (isinstance(self.epsilon, numbers.Real) and 0 < self.epsilon < math.inf):
            raise ValueError("epsilon must be a finite positive number")
        if not _is_count(self.max_iterations):
            raise ValueError("max_iterations must be an integer of at least 1")
        if self.restart_period is not None and not _is_count(self.restart_period):
            raise ValueError("restart_period must be None or an integer of at least 1")


def _is_count(value):
    return isinstance(value, numbers.Integral) and value >= 1


@dataclass(slots=True)
class IterationRecord:
    index: int
    f_value: float
    grad_norm: float
    residual: float
    step: float
    beta: float


@dataclass
class SolverResult:
    Y_final: FactorMatrix
    X_final: np.ndarray
    iterations: int
    converged: bool  # the one place a termination_reason maps to success
    trace: list[IterationRecord] = field(repr=False)
    termination_reason: TerminationReason


def step(
    instance: ProblemInstance,
    Y: FactorMatrix,
    f: float,
    grad: GradientMatrix,
    gg: float,
    D,
    *,
    index: int = 1,
    force_restart: bool = False,
):
    """One iteration: exact step along D, new gradient, next direction.

    f, grad and gg are f, its gradient and ||grad||_F^2 at Y, which the line
    search also uses.  Returns (Y_next, grad_next, gg_next, D_next, record),
    each at Y_next, to pass to the next step.  Rounding can spoil a mixed
    direction after it passed the descent test, so when the line search
    finds no step along D the step is retried once along -grad;
    DegenerateDirectionError propagates only when D already was -grad.  The
    Fletcher-Reeves ratio is beta = gg_next / gg.  The next direction resets
    to -grad_next, with beta recorded as 0, when force_restart is set or the
    Fletcher-Reeves direction fails the descent test <grad_next, D_next> < 0.
    The gradient, its squared norm and the record's f and residual come from
    one evaluation at Y_next.
    """
    try:
        found = linesearch.exact_step(instance, Y, D, f, grad)
    except linesearch.DegenerateDirectionError:
        if np.array_equal(D, -grad):
            raise
        D = -grad
        found = linesearch.exact_step(instance, Y, D, f, grad)
    t = found.t_star
    Y_next = Y + t * D
    f_next, residual, grad_next, gg_next = _evaluate(instance, Y_next)
    if force_restart:
        beta = 0.0
        D_next = -grad_next
    else:
        beta = gg_next / gg
        D_next = -grad_next + beta * D
        if (grad_next * D_next).sum() >= 0.0:
            beta = 0.0
            D_next = -grad_next
    record = IterationRecord(
        index=index,
        f_value=f_next,
        grad_norm=math.sqrt(gg_next),
        residual=residual,
        step=t,
        beta=beta,
    )
    return Y_next, grad_next, gg_next, D_next, record


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
    the start point is drawn uniformly from [0, 1) using the given seed; a
    Y0 of the wrong shape or with a NaN or infinity is a ValueError.  The
    optional callback is invoked after each iteration as
    callback(record, Y, grad, direction).

    Each recorded f is a fresh evaluation, so the trace's f values are
    nonincreasing only up to rounding: where the true decrease is below f's
    resolution, f can rise by a few ulps.  Identical inputs produce
    identical traces.
    """
    if config is None:
        config = SolverConfig()
    restart_period = config.restart_period  # None: no periodic restarts

    if Y0 is None:
        Y0 = np.random.default_rng(seed).random((instance.n, instance.k))
    Y = _as_factor(instance, Y0, name="Y0")
    if not np.isfinite(Y).all():
        raise ValueError("Y0 has non-finite entries")

    f, residual, grad, gg = _evaluate(instance, Y)
    record = IterationRecord(
        index=0,
        f_value=f,
        grad_norm=math.sqrt(gg),
        residual=residual,
        step=0.0,
        beta=0.0,
    )
    D = -grad
    trace = []
    while True:
        k = record.index
        if not (np.isfinite(record.f_value) and np.isfinite(record.grad_norm)):
            raise NumericalError(f"non-finite objective or gradient at iteration {k}")
        trace.append(record)
        if k > 0 and callback is not None:
            callback(record, Y, grad, D)
        if record.grad_norm < config.epsilon:
            reason = TerminationReason.GRADIENT_TOLERANCE
            break
        if k >= config.max_iterations:
            reason = TerminationReason.MAX_ITERATIONS
            break
        force = restart_period is not None and (k + 1) % restart_period == 0
        try:
            Y, grad, gg, D, record = step(
                instance, Y, record.f_value, grad, gg, D,
                index=k + 1, force_restart=force,
            )
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


@dataclass
class MultistartResult:
    best: SolverResult
    best_start: int
    final_objectives: list  # per start; math.nan where a start failed
    failures: list  # (start index, error message)


def multistart_solve(
    instance: ProblemInstance,
    config: SolverConfig | None = None,
    num_starts: int = 5,
    seed: int = 0,
) -> MultistartResult:
    """Run the solver from several seeded starts and keep the best result.

    Start points are drawn up front from one seeded generator, so the whole
    sweep is deterministic.  Ties in final objective resolve to the lowest
    start index.  A start failing with a numerical error is recorded and
    skipped; at least one start must succeed.
    """
    if not _is_count(num_starts):
        raise ValueError("num_starts must be an integer of at least 1")
    rng = np.random.default_rng(seed)
    starts = [rng.random((instance.n, instance.k)) for _ in range(num_starts)]
    best = None
    best_index = -1
    best_f = math.inf
    finals = []
    failures = []
    for i, Y0 in enumerate(starts):
        try:
            result = solve(instance, Y0, config)
        except NumericalError as exc:
            finals.append(math.nan)
            failures.append((i, str(exc)))
            continue
        f_final = result.trace[-1].f_value
        finals.append(f_final)
        if f_final < best_f:
            best = result
            best_index = i
            best_f = f_final
    if best is None:
        raise NumericalError("every start failed; see failures for details")
    return MultistartResult(
        best=best, best_start=best_index, final_objectives=finals, failures=failures
    )
