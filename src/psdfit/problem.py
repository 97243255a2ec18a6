"""Problem data and the fitting objective.

A problem instance is a collection of pairs (A_i, B_i) with A_i square of
side m_i and B_i of shape m_i x n, together with a rank bound k <= n.  The
task is to pick a symmetric positive semidefinite X of rank at most k
minimizing the sum of ||A_i - B_i X B_i^T||_F^2.  Writing X = Y Y^T with Y
of shape n x k turns this into an unconstrained problem in Y; this module
provides the objective, its analytic gradient, the relative residual
progress metric, and the PSD assembly X = Y Y^T.

The pairs are held in stacks: runs of consecutive pairs of one shape, as
g x m_i x m_i and g x m_i x n arrays, which the kernels take whole.

All functions are pure and safe to call from multiple threads.  Sums over
pairs accumulate left to right in pair order, so results are reproducible
and do not depend on how the pairs are stacked.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from . import _kernels

# At most this many entries in each temporary of a stack (4 KiB).  A pair's
# largest temporary is its m_i x m_i residual or its n x k gradient term, so
# 64 pairs of 6 x 6 with n k = 36 make stacks of 14, while a pair with
# max(m_i^2, n k) > 256 is alone in its stack.  Larger stacks make fewer
# kernel calls but larger temporaries.
STACK_ENTRIES = 512

# An n x k factor matrix parametrizing X = Y Y^T, and its gradient (same shape).
FactorMatrix = NDArray[np.float64]
GradientMatrix = NDArray[np.float64]


class ValidationError(ValueError):
    """An operation was given a problem instance violating its invariants."""


@dataclass(frozen=True)
class ProblemInstance:
    """The pairs (A_i, B_i) plus the column dimension n and rank bound k.

    Construction groups consecutive pairs of equal shapes into stacks whose
    temporaries hold at most STACK_ENTRIES entries, counting per pair the
    larger of the m_i x m_i residual and the n x k gradient term.  `pairs`
    then holds views into the stacks: the caller's arrays are copied into
    multi-pair stacks, while a pair alone in its stack keeps the caller's
    (float64, C-contiguous) data.  The pair arrays are treated as read-only
    once built: the kernels read the stacks behind them, and Sum ||A_i||_F
    is computed on first use and cached.
    """

    pairs: tuple
    n: int
    k: int
    # (A stack, B stack) per run of pairs, in pair order
    _stacks: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pairs = [
            (
                np.ascontiguousarray(A, dtype=np.float64),
                np.ascontiguousarray(B, dtype=np.float64),
            )
            for A, B in self.pairs
        ]
        stacks, views = [], []
        i = 0
        while i < len(pairs):
            A, B = pairs[i]
            per_pair = max(A.size, self.n * self.k, 1)
            end = min(len(pairs), i + max(1, STACK_ENTRIES // per_pair))
            j = i + 1
            while j < end and pairs[j][0].shape == A.shape and pairs[j][1].shape == B.shape:
                j += 1
            if j == i + 1:
                stacks.append((A[None], B[None]))
                views.append((A, B))
            else:
                As = np.array([A for A, _ in pairs[i:j]])
                Bs = np.array([B for _, B in pairs[i:j]])
                stacks.append((As, Bs))
                views.extend(zip(As, Bs))
            i = j
        object.__setattr__(self, "_stacks", tuple(stacks))
        object.__setattr__(self, "pairs", tuple(views))

    @property
    def m(self):
        return len(self.pairs)

    @property
    def sizes(self):
        """The observation sides m_i."""
        return tuple(B.shape[0] for _, B in self.pairs)

    @cached_property
    def _target_norm(self):
        """Sum of ||A_i||_F, the denominator of the relative residual."""
        total = 0.0
        for A, _ in self.pairs:
            total += float(np.linalg.norm(A, "fro"))
        return total


@dataclass
class Violation:
    code: str  # "empty-instance" | "non-finite" | "dimension-mismatch" | "rank-out-of-range"
    pair: int | None
    message: str


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations

    def raise_if_invalid(self):
        if not self.ok:
            raise ValidationError("; ".join(v.message for v in self.violations))


def _non_finite(M):
    return np.count_nonzero(np.isfinite(M)) != M.size  # half the cost of .all()


def validate(instance: ProblemInstance) -> ValidationReport:
    """Check all instance invariants, reporting every violation found."""
    report = ValidationReport()

    def bad(code, pair, message):
        report.violations.append(Violation(code, pair, message))

    if len(instance.pairs) == 0:
        bad("empty-instance", None, "instance has no (A, B) pairs")
    # One finiteness check per stack; only a failed stack's pairs are scanned.
    suspect = []
    for As, Bs in instance._stacks:
        suspect += [_non_finite(As) or _non_finite(Bs)] * len(As)
    for i, (A, B) in enumerate(instance.pairs):
        if suspect[i]:
            for name, M in (("A", A), ("B", B)):
                if _non_finite(M):
                    bad("non-finite", i, f"pair {i}: {name} has non-finite entries")
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            bad(
                "dimension-mismatch",
                i,
                f"pair {i}: A must be square, got shape {A.shape}",
            )
        if B.ndim != 2:
            bad("dimension-mismatch", i, f"pair {i}: B must be a matrix, got ndim {B.ndim}")
            continue
        if A.ndim == 2 and A.shape[0] == A.shape[1] and B.shape[0] != A.shape[0]:
            bad(
                "dimension-mismatch",
                i,
                f"pair {i}: B has {B.shape[0]} rows, expected {A.shape[0]} to match A",
            )
        if B.shape[1] != instance.n:
            bad(
                "dimension-mismatch",
                i,
                f"pair {i}: B has {B.shape[1]} columns, expected n={instance.n}",
            )
    if not (1 <= instance.k <= instance.n):
        bad(
            "rank-out-of-range",
            None,
            f"rank bound k={instance.k} outside [1, n]={instance.n}",
        )
    return report


def _as_factor(instance: ProblemInstance, Y, name="Y") -> FactorMatrix:
    Y = np.ascontiguousarray(Y, dtype=np.float64)
    if Y.shape != (instance.n, instance.k):
        raise ValueError(
            f"{name} has shape {Y.shape}, expected ({instance.n}, {instance.k})"
        )
    return Y


def _evaluate(instance: ProblemInstance, Y: FactorMatrix):
    """(objective, relative residual, gradient) at Y, one kernel call per stack.

    When every A_i is zero the residual has no denominator and the absolute
    sum of residual norms is reported.
    """
    f = 0.0
    num = 0.0
    grad = np.zeros((instance.n, instance.k))
    for A, B in instance._stacks:
        for r2 in _kernels.residual_gradient(A, B, Y, grad).tolist():
            f += r2
            num += math.sqrt(r2)
    denom = instance._target_norm
    return f, (num / denom if denom else num), grad


def objective(instance: ProblemInstance, Y: FactorMatrix) -> float:
    """Sum over pairs of ||A_i - B_i Y Y^T B_i^T||_F^2 (nonnegative)."""
    return _evaluate(instance, _as_factor(instance, Y))[0]


def gradient(instance: ProblemInstance, Y: FactorMatrix) -> GradientMatrix:
    """Analytic gradient of `objective` with respect to Y.

    Equals sum_i (4 B_i^T B_i Y Y^T B_i^T B_i Y - 2 B_i^T A_i B_i Y
    - 2 B_i^T A_i^T B_i Y); the A_i and A_i^T terms stay distinct because
    A_i need not be symmetric.  Computed in the factored form
    2 B_i^T (2 B_i Y Y^T B_i^T - A_i - A_i^T) B_i Y, which the tests pin
    against the expanded form.
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
