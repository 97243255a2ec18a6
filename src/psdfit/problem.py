"""Problem data and the fitting objective.

A problem instance is a collection of pairs (A_i, B_i) with A_i square of
side m_i and B_i of shape m_i x n, together with a rank bound k <= n.  The
task is to pick a symmetric positive semidefinite X of rank at most k
minimizing the sum of ||A_i - B_i X B_i^T||_F^2.  Writing X = Y Y^T with Y
of shape n x k turns this into an unconstrained problem in Y; this module
provides `evaluate` (the objective, its analytic gradient and the relative
residual progress metric, as one `Evaluation`) and the PSD assembly X = Y Y^T.

An instance is valid by construction: building one walks the caller's
pairs once (`_checked`), casting, screening and shape-checking each pair and
adding up Sum ||A_i||_F, and raises `ValidationError`, listing every
`Violation`, if it breaks an invariant; nothing else checks it.

The valid pairs are held in stacks, which `_kernels` builds and walks: it
owns their grouping and every sum over pairs in an evaluation or a line
search, each a BLAS product over the pairs in pair order (the gradient over
every working row of the one array of working B rows), so results are
reproducible and do not depend on how the pairs are stacked.
A factor Y is checked by every function that takes one (`_as_factor`, in
`evaluate` and the line search), the iteration's own iterates too: each is
formed as a float64 C-contiguous n x k array, which passes the check
without a copy.
The stacks hold the working pairs, each pair with m_i > n reduced to an
n x n pair, with the constants c_i and the matrix P that the kernels read
(`_kernels.working_stacks`), so no iteration forms an array larger than
min(m_i, n)^2 for a pair.

All functions are pure and safe to call from multiple threads, and an
instance gains no attribute after construction.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from . import _kernels

# An n x k factor matrix parametrizing X = Y Y^T, and its gradient (same shape).
FactorMatrix = NDArray[np.float64]
GradientMatrix = NDArray[np.float64]
# float64's dtype, the object every native float64 array carries; a cast to
# it skips converting the type np.float64 on each call
_FLOAT64 = np.dtype(np.float64)


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

    Construction casts each pair to float64 and raises `ValidationError`
    unless there is a pair, n and k are integers (a bool is not) with
    1 <= k <= n, and each A_i is m_i x m_i with m_i >= 1 and each B_i is
    m_i x n, both real and finite, all in one walk over the pairs
    (`_checked`), which also adds up Sum ||A_i||_F from the dot products
    that screen finiteness.  A valid instance then holds the stacks of its
    working pairs (`_kernels.working_stacks`), and `pairs` as the stacks
    hand them back: bitwise the caller's data, as views into the stacks or
    as the cast arrays of a reduced pair, so the pair arrays are treated as
    read-only once built.
    """

    pairs: tuple
    n: int
    k: int
    # `_kernels.Stacks`: (A, B, c) per run of working pairs, in pair order, and P
    _stacks: tuple = field(init=False, repr=False)
    _norm_sum: float = field(init=False, repr=False)  # Sum ||A_i||_F in pair order

    def __post_init__(self):
        pairs, norm_sum, violations = _checked(self.pairs, self.n, self.k)
        if violations:
            raise ValidationError(violations)
        stacks, pairs = _kernels.working_stacks(pairs, self.n, self.k)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "_stacks", stacks)
        object.__setattr__(self, "_norm_sum", norm_sum)

    @property
    def m(self):
        return len(self.pairs)


# what `_as_real` finds wrong with a matrix: its Violation code and message
_NOT_REAL = ("not-real", "has entries that are not real numbers")
_RAGGED = ("dimension-mismatch", "is not a rectangular array")


def _as_real(M):
    """(M as float64 C-contiguous, None), or (a stand-in, the fault) if it
    is not real (`_NOT_REAL`) or is a ragged sequence (`_RAGGED`).

    Complex numbers and strings, also str or bytes entries of an object
    array, are refused, not cast (a cast would drop the imaginary part, and
    float would parse a string).  The stand-in, zeros of M's shape or no
    entry at all for a ragged M, only stands in for M in an instance that
    its constructor then refuses.
    """
    try:
        M = np.asarray(M)
    except ValueError:  # numpy refuses rows of different lengths
        return np.zeros(0), _RAGGED
    kind = M.dtype.kind
    text = kind == "O" and any(isinstance(x, (str, bytes)) for x in M.flat)
    if kind in "biufO" and not text:  # bool, integer, float or Python objects
        try:
            # not ascontiguousarray, which makes a 0-d matrix 1-d
            return np.asarray(M, dtype=_FLOAT64, order="C"), None
        except (TypeError, ValueError):  # an object that is not a real number
            pass
    return np.zeros(M.shape), _NOT_REAL


def _is_integer(value) -> bool:
    """An int or numpy integer, and not a bool: True is no dimension or count."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_integer(name, value, least):
    """ValueError unless value is an integer (`_is_integer`) of at least least.

    A seed of None is refused too: a generator seeded with it draws fresh
    entropy, so two identical calls would not give the same draw.
    """
    if not (_is_integer(value) and value >= least):
        raise ValueError(f"{name}={value!r} is not an integer of at least {least}")


def _checked(pairs, n, k):
    """(pairs cast by `_as_real`, Sum ||A_i||_F in pair order, every violation).

    One walk over the pairs.  One dot product per matrix screens it, and per
    A_i also gives its norm (bitwise np.linalg.norm): a sum of squares is
    finite only if every entry is.  It can also overflow, so only what fails
    a screen is checked entry by entry.  Violations come in pair order, and
    within a pair not-real or ragged, then non-finite, then the shapes.  A
    pair that is not two matrices is one dimension-mismatch, a pair with a
    ragged matrix has no shapes checked, and the walk goes on to the next
    pair.
    """
    cast, norm_sum, violations = [], 0.0, []

    def bad(code, pair, message):
        if pair is not None:
            message = f"pair {pair}: {message}"
        violations.append(Violation(code, pair, message))

    if len(pairs) == 0:
        bad("empty-instance", None, "instance has no (A, B) pairs")
    if not _is_integer(n):
        bad("dimension-mismatch", None, f"column dimension n={n!r} is not an integer")
    for i, pair in enumerate(pairs):
        try:
            A, B = pair
        except (TypeError, ValueError):  # not iterable, or not of length 2
            bad("dimension-mismatch", i, "a pair must be two matrices (A, B)")
            continue
        (A, A_fault), (B, B_fault) = _as_real(A), _as_real(B)
        cast.append((A, B))
        sq = np.vdot(A, A)
        norm_sum += math.sqrt(sq)
        for name, fault in (("A", A_fault), ("B", B_fault)):
            if fault:
                bad(fault[0], i, f"{name} {fault[1]}")
        for name, M, screen in (("A", A, sq), ("B", B, np.vdot(B, B))):
            if not (math.isfinite(screen) or np.isfinite(M).all()):
                bad("non-finite", i, f"{name} has non-finite entries")
        if _RAGGED in (A_fault, B_fault):
            continue
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
    if not _is_integer(k):
        bad("rank-out-of-range", None, f"rank bound k={k!r} is not an integer")
    elif isinstance(n, numbers.Real) and not 1 <= k <= n:
        bad("rank-out-of-range", None, f"rank bound k={k} outside [1, n]={n}")
    return cast, norm_sum, violations


def _as_float(M, name):
    """M as a float64 C-contiguous ndarray, cast as pairs are (`_as_real`).

    ValueError if it is not real (a complex M or one of strings is refused)
    or is a ragged sequence, such as [[1.0], [2.0, 3.0]].
    """
    M, fault = _as_real(M)
    if fault:
        raise ValueError(f"{name} {fault[1]}")
    return M


def _as_factor(instance: ProblemInstance, Y, name="Y") -> FactorMatrix:
    """Y as an n x k float64 C-contiguous ndarray (ValueError if it is not
    real, `_as_float`, or of another shape).

    A Y that already is one is returned as it is, without a copy.
    """
    # a float64 ndarray is real: only other inputs pay for the cast rule
    if Y.__class__ is np.ndarray and Y.dtype is _FLOAT64:
        Y = np.asarray(Y, order="C")
    else:
        Y = _as_float(Y, name)
    if Y.shape != (instance.n, instance.k):
        raise ValueError(
            f"{name} has shape {Y.shape}, expected ({instance.n}, {instance.k})"
        )
    return Y


@dataclass(frozen=True, slots=True, eq=False)
class Evaluation:
    """The objective, relative residual, gradient and ||grad||_F^2 at one Y."""

    f: float
    residual: float
    grad: GradientMatrix
    gg: float


def evaluate(instance: ProblemInstance, Y: FactorMatrix) -> Evaluation:
    """The objective, relative residual, gradient and ||gradient||_F^2 at Y.

    Y is checked here (`_as_factor`: ValueError unless it is a real n x k
    matrix); a Y that already is a float64 C-contiguous n x k ndarray, as
    every iterate `solver.step` forms is, passes without a copy.

    f is Sum_i ||A_i - B_i Y Y^T B_i^T||_F^2 (nonnegative).  The residual is
    Sum_i ||A_i - B_i Y Y^T B_i^T||_F over Sum_i ||A_i||_F: the numerator
    uses plain (not squared) norms, summed across pairs before dividing, and
    when every A_i is zero it has no denominator and is reported undivided.
    The gradient with respect to Y is
    Sum_i (4 B_i^T B_i Y Y^T B_i^T B_i Y - 2 B_i^T A_i B_i Y - 2 B_i^T A_i^T B_i Y),
    where the A_i and A_i^T terms stay distinct because A_i need not be
    symmetric.  It is computed from each working pair's residual
    R_i = A_i - B_i Y Y^T B_i^T, which f reads too, as
    -2 B_i^T (R_i W_i + R_i^T W_i) with W_i = B_i Y: R_i is the one
    min(m_i, n) x min(m_i, n) array of the evaluation, R_i^T W_i reads it
    through a transposed view, and the sum over pairs is one product of all
    the B_i^T with all the R_i W_i + R_i^T W_i.  A pair taller than n enters
    as its n x n working pair (Q_i^T A_i Q_i, R_i), whose gradient term is
    the same.  The line search's P is not used here.  The tests pin the
    gradient against the expanded form.  gg is the dot product of vec grad
    with itself, so sqrt(gg) is bitwise np.linalg.norm(grad).
    """
    Y = _as_factor(instance, Y)
    f, num, grad = _kernels.evaluate(instance._stacks, Y)
    denom = instance._norm_sum
    flat = grad.ravel()
    return Evaluation(f, num / denom if denom else num, grad, float(flat.dot(flat)))


def assemble_X(Y: FactorMatrix) -> NDArray[np.float64]:
    """Assemble X = Y Y^T, symmetrized exactly by averaging with its transpose.

    The result is symmetric PSD with rank at most the column count of Y.
    ValueError if Y is not a real (`_as_float`) matrix.
    """
    Y = _as_float(Y, "Y")
    if Y.ndim != 2:
        raise ValueError(f"Y must be a matrix, got shape {Y.shape}")
    X = Y @ Y.T
    return (X + X.T) / 2.0
