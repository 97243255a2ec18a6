"""Problem data and the fitting objective.

A problem instance is a collection of pairs (A_i, B_i) with A_i square of
side m_i and B_i of shape m_i x n, together with a rank bound k <= n.  The
task is to pick a symmetric positive semidefinite X of rank at most k
minimizing the sum of ||A_i - B_i X B_i^T||_F^2.  Writing X = Y Y^T with Y
of shape n x k turns this into an unconstrained problem in Y; this module
provides the objective, its analytic gradient, the relative residual
progress metric, and the PSD assembly X = Y Y^T.

An instance is valid by construction: building one raises `ValidationError`,
listing every `Violation`, if it breaks an invariant; nothing else checks it.

The pairs are held in stacks, which `_kernels` builds and walks: it owns
their grouping and every sum over pairs, which adds the pairs in pair order,
so results are reproducible and do not depend on how the pairs are stacked.

All functions are pure and safe to call from multiple threads.
"""

import numbers
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from . import _kernels

# An n x k factor matrix parametrizing X = Y Y^T, and its gradient (same shape).
FactorMatrix = NDArray[np.float64]
GradientMatrix = NDArray[np.float64]


@dataclass
class Violation:
    # "empty-instance" | "not-real" | "non-finite" | "dimension-mismatch"
    # | "rank-out-of-range"
    code: str
    pair: int | None
    message: str


class ValidationError(ValueError):
    """A problem instance violates its invariants; .violations lists every one."""

    def __init__(self, violations: list[Violation]):
        super().__init__("; ".join(v.message for v in violations))
        self.violations = violations


class NumericalError(RuntimeError):
    """A non-finite objective, gradient or step polynomial appeared in iteration."""


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """The pairs (A_i, B_i) plus the column dimension n and rank bound k.

    Construction groups the pairs into stacks (`_kernels.stack_pairs`), and
    `pairs` then holds views into them.  It raises `ValidationError` unless
    there is a pair, n and k are integers with 1 <= k <= n, and each A_i is
    m_i x m_i with m_i >= 1 and each B_i is m_i x n, both real and finite.
    The pair arrays are treated as read-only once built: the kernels read the
    stacks behind them, and Sum ||A_i||_F comes from the walk that checks
    finiteness.
    """

    pairs: tuple
    n: int
    k: int
    # (A stack, B stack) per run of pairs, in pair order
    _stacks: tuple = field(init=False, repr=False)
    _norm_sum: float = field(init=False, repr=False)  # Sum ||A_i||_F in pair order

    def __post_init__(self):
        n, k = self.n, self.k
        # a non-integer n or k is a violation below, so it does not size the stacks
        integral = isinstance(n, numbers.Integral) and isinstance(k, numbers.Integral)
        entries = n * k if integral else 0
        stacks, views, not_real = _kernels.stack_pairs(self.pairs, entries)
        norm_sum, non_finite = _kernels.measure(stacks)
        object.__setattr__(self, "_stacks", stacks)
        object.__setattr__(self, "pairs", views)
        object.__setattr__(self, "_norm_sum", norm_sum)
        violations = _violations(self, not_real, non_finite)
        if violations:
            raise ValidationError(violations)

    @property
    def m(self):
        return len(self.pairs)


def _violations(instance: ProblemInstance, not_real, non_finite) -> list[Violation]:
    """Every invariant violated, in pair order.

    not_real and non_finite name each pair's bad matrices, as
    `_kernels.stack_pairs` and `_kernels.measure` report them.
    """
    violations = []
    n, k = instance.n, instance.k

    def bad(code, pair, message):
        if pair is not None:
            message = f"pair {pair}: {message}"
        violations.append(Violation(code, pair, message))

    if len(instance.pairs) == 0:
        bad("empty-instance", None, "instance has no (A, B) pairs")
    if not isinstance(n, numbers.Integral):
        bad("dimension-mismatch", None, f"column dimension n={n!r} is not an integer")
    for i, (A, B) in enumerate(instance.pairs):
        for name in not_real[i]:
            bad("not-real", i, f"{name} has entries that are not real numbers")
        for name in non_finite[i]:
            bad("non-finite", i, f"{name} has non-finite entries")
        square = A.ndim == 2 and A.shape[0] == A.shape[1]
        if not square:
            bad("dimension-mismatch", i, f"A must be square, got shape {A.shape}")
        elif A.shape[0] == 0:
            bad("dimension-mismatch", i, "pair size m_i must be at least 1, got 0")
        if B.ndim != 2:
            bad("dimension-mismatch", i, f"B must be a matrix, got ndim {B.ndim}")
            continue
        if square and B.shape[0] != A.shape[0]:
            rows = f"B has {B.shape[0]} rows, expected {A.shape[0]} to match A"
            bad("dimension-mismatch", i, rows)
        if B.shape[1] != n:
            bad("dimension-mismatch", i, f"B has {B.shape[1]} columns, expected n={n}")
    if not isinstance(k, numbers.Integral):
        bad("rank-out-of-range", None, f"rank bound k={k!r} is not an integer")
    elif isinstance(n, numbers.Real) and not 1 <= k <= n:
        bad("rank-out-of-range", None, f"rank bound k={k} outside [1, n]={n}")
    return violations


def _as_factor(instance: ProblemInstance, Y, name="Y") -> FactorMatrix:
    Y = np.ascontiguousarray(Y, dtype=np.float64)
    if Y.shape != (instance.n, instance.k):
        raise ValueError(
            f"{name} has shape {Y.shape}, expected ({instance.n}, {instance.k})"
        )
    return Y


def _evaluate(instance: ProblemInstance, Y: FactorMatrix):
    """(objective, relative residual, gradient, ||gradient||_F^2) at Y.

    When every A_i is zero the residual has no denominator and the absolute
    sum of residual norms is reported.
    """
    f, num, grad = _kernels.evaluate(instance._stacks, Y)
    denom = instance._norm_sum
    return f, (num / denom if denom else num), grad, float((grad * grad).sum())


def objective(instance: ProblemInstance, Y: FactorMatrix) -> float:
    """Sum over pairs of ||A_i - B_i Y Y^T B_i^T||_F^2 (nonnegative)."""
    return _evaluate(instance, _as_factor(instance, Y))[0]


def gradient(instance: ProblemInstance, Y: FactorMatrix) -> GradientMatrix:
    """Analytic gradient of `objective` with respect to Y.

    Equals sum_i (4 B_i^T B_i Y Y^T B_i^T B_i Y - 2 B_i^T A_i B_i Y
    - 2 B_i^T A_i^T B_i Y); the A_i and A_i^T terms stay distinct because
    A_i need not be symmetric.  Computed from each pair's residual
    R_i = A_i - B_i Y Y^T B_i^T, which the objective reads too, as
    -2 B_i^T (R_i + R_i^T) B_i Y; the tests pin it against the expanded form.
    """
    return _evaluate(instance, _as_factor(instance, Y))[2]


def residual_error(instance: ProblemInstance, Y: FactorMatrix) -> float:
    """Sum of residual Frobenius norms over the sum of ||A_i||_F.

    Note the numerator uses plain (not squared) norms, summed across pairs
    before dividing.  When every A_i is zero the sum of residual norms is
    returned undivided.
    """
    return _evaluate(instance, _as_factor(instance, Y))[1]


def assemble_X(Y: FactorMatrix) -> NDArray[np.float64]:
    """Assemble X = Y Y^T, symmetrized exactly by averaging with its transpose.

    The result is symmetric PSD with rank at most the column count of Y.
    """
    Y = np.asarray(Y, dtype=np.float64)
    X = Y @ Y.T
    return (X + X.T) / 2.0
