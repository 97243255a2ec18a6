"""Exact line search along a direction D.

The objective restricted to Y + t D is a quartic polynomial in t, so the
exact minimizing step is found by solving the cubic derivative
analytically.  Its a0 and a1 are f and <grad f, D> from the caller's
`Evaluation` at Y, a1 as one dot product; a2..a4 come in closed form from a
4 x 4 Gram sum over the working pairs, of the four k x k blocks a, b, b^T
and c of the Gram matrix of B_i [Y D] (`_kernels.quartic_terms`), and from the
n x n matrix P = Sum B_i^T A_i B_i, which gives Sum <A_i B_i D, B_i D> as
<D, P D>, also one dot product.  The instance's stacks build P on the first
line search and keep it (`_kernels.Stacks`), so no line search reads an A_i.
A pair taller than n enters as its n x n working pair, so every product
here has at most n rows.  The step found is never uphill: a minimizer above
phi(0) is no step.  There is one path: `exact_step` is
`minimize_quartic(quartic_coeffs(...))` along D/||D||_F, and
`quartic_coeffs` checks Y, D and the gradient once, where they enter.
"""

import math
from typing import NamedTuple

from . import _kernels
from .problem import Evaluation, FactorMatrix, NumericalError, ProblemInstance, _as_factor


class DegenerateDirectionError(ValueError):
    """The line search has no step along D (see `minimize_quartic`)."""


class QuarticPolynomial(NamedTuple):
    """phi(t) = a4 t^4 + a3 t^3 + a2 t^2 + a1 t + a0.

    a4 and a0 are sums of squared Frobenius norms, hence nonnegative;
    a1 equals the inner product of the gradient with the direction, so it
    is negative along descent directions.
    """

    a0: float
    a1: float
    a2: float
    a3: float
    a4: float

    def __call__(self, t):
        return (((self.a4 * t + self.a3) * t + self.a2) * t + self.a1) * t + self.a0


class StepResult(NamedTuple):
    t_star: float
    phi_at_t: float


def quartic_coeffs(
    instance: ProblemInstance, Y: FactorMatrix, D, at: Evaluation
) -> QuarticPolynomial:
    """Coefficients of phi(t) = objective(Y + t D), exact for all t.

    at is `problem.evaluate(instance, Y)`: a0 = at.f and a1 = <at.grad, D>,
    the BLAS dot product of vec at.grad and vec D.  a2..a4 are read from the
    4 x 4 Gram sum over pairs of `_kernels.quartic_terms`, the k x k Gram
    blocks a, b, b^T and c of B_i Y and B_i D, less
    2 <D, P D> from a2 (`_kernels.quartic_sums`).  Y, D and at.grad are
    each checked once, here (`_as_factor`, ValueError), and nothing below
    checks them again.
    """
    Y = _as_factor(instance, Y)
    D = _as_factor(instance, D, name="D")
    grad = _as_factor(instance, at.grad, name="grad")
    a2, a3, a4 = _kernels.quartic_sums(instance._stacks, Y, D)
    return QuarticPolynomial(float(at.f), float(grad.ravel().dot(D.ravel())), a2, a3, a4)


def _cbrt(x):
    # math.cbrt arrived in 3.11; this keeps 3.10 support
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def _polish_root(c3, c2, c1, c0, x):
    # Newton refinement on the original coefficients; stops once the residual
    # is far below the |p(x)| <= 1e-12 * scale * (1+|x|)^3 contract.
    scale = max(1.0, abs(c0), abs(c1), abs(c2), abs(c3))
    for _ in range(8):
        p = ((c3 * x + c2) * x + c1) * x + c0
        if abs(p) <= 1e-14 * scale * (1.0 + abs(x)) ** 3:
            break
        dp = (3.0 * c3 * x + 2.0 * c2) * x + c1
        if dp == 0.0:
            break
        step = p / dp
        x_new = x - step
        if x_new == x:
            break
        x = x_new
    return x


def cubic_real_roots(c3, c2, c1, c0):
    """All real roots of c3 x^3 + c2 x^2 + c1 x + c0 = 0, sorted ascending.

    The polynomial must be a true cubic.  ValueError is raised when a
    coefficient is not finite, when c3 is zero, and when the monic or
    depressed form overflows: c2/c3, c1/c3, c0/c3 or the discriminant of
    the depressed cubic built from them is not finite.  `minimize_quartic`
    reads that ValueError as a direction with no step.  Roots are computed
    by Cardano's method (trigonometric branch when all three roots are
    real) and polished by Newton steps.
    """
    for c in (c3, c2, c1, c0):
        if not math.isfinite(c):
            raise ValueError("cubic coefficients must be finite")
    if c3 == 0.0:
        raise ValueError("leading coefficient c3 is zero; not a cubic")
    b2 = c2 / c3
    b1 = c1 / c3
    b0 = c0 / c3
    # depressed form y^3 + p y + q with x = y - b2/3
    shift = -b2 / 3.0
    p = b1 - b2 * b2 / 3.0
    q = (2.0 * b2 * b2 * b2 - 9.0 * b2 * b1) / 27.0 + b0
    try:
        disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    except OverflowError:  # float ** raises where * returns inf
        disc = math.inf
    # a non-finite b2, b1, b0, p or q makes disc non-finite too
    if not math.isfinite(disc):
        raise ValueError("the cubic's monic or depressed form overflows")
    if p == 0.0 and q == 0.0:
        roots = [shift]
    elif disc > 0.0:
        # one real root; pick the larger-magnitude cube root to avoid cancellation
        s = math.sqrt(disc)
        if -q / 2.0 >= 0.0:
            u = _cbrt(-q / 2.0 + s)
        else:
            u = _cbrt(-q / 2.0 - s)
        y = u + (-p / 3.0) / u
        roots = [y + shift]
    else:
        # three real roots (with multiplicity): trigonometric branch, p < 0
        m = 2.0 * math.sqrt(-p / 3.0)
        arg = 3.0 * q / (p * m)
        arg = min(1.0, max(-1.0, arg))
        theta = math.acos(arg) / 3.0
        roots = [
            m * math.cos(theta - 2.0 * math.pi * j / 3.0) + shift for j in (0, 1, 2)
        ]
    return sorted(_polish_root(c3, c2, c1, c0, x) for x in roots)


def minimize_quartic(p: QuarticPolynomial) -> StepResult:
    """The positive step minimizing phi, via the real roots of phi'.

    When a1 < 0 and a4 > 0 a positive minimizer always exists (phi'(0) < 0
    and phi grows at infinity).  DegenerateDirectionError is raised when
    phi' is not a finite true cubic (`cubic_real_roots` refuses it), when
    no positive critical point improves on the zero step, and when the best
    one lies above phi(0): a root that rounding put on the wrong side of 0
    leaves only a minimizer uphill of the start, and taking it can throw an
    iterate at the rounding floor back above its start.  phi(t*) == phi(0)
    is a step when a1 < 0, since near the floor phi(t*) can round to phi(0).
    Ties between equal-value positive critical points resolve to the
    smallest step.  A non-finite coefficient (the kernels overflowed)
    raises NumericalError.
    """
    a0, a1, a2, a3, a4 = map(float, p)
    coeffs = (a0, a1, a2, a3, a4)
    # the coefficients are finite if their sum is, so they are scanned one
    # by one only when it is not (the sum overflowing is not a fault)
    if not (math.isfinite(sum(coeffs)) or all(map(math.isfinite, coeffs))):
        raise NumericalError(f"non-finite step polynomial {coeffs}")
    try:
        crit = cubic_real_roots(4.0 * a4, 3.0 * a3, 2.0 * a2, a1)
    except ValueError as exc:
        raise DegenerateDirectionError(f"no step along the direction: {exc}") from None
    best_t = None
    best_v = math.inf
    for t in crit:  # ascending, so strict improvement keeps the smallest tie
        if t > 0.0:
            v = (((a4 * t + a3) * t + a2) * t + a1) * t + a0  # phi(t)
            if v < best_v:
                best_t = t
                best_v = v
    if best_t is None or best_v > a0 or (a1 >= 0.0 and best_v == a0):
        raise DegenerateDirectionError(
            f"no positive critical point improves on the zero step (a1={a1:g})"
        )
    return StepResult(best_t, best_v)


def exact_step(
    instance: ProblemInstance, Y: FactorMatrix, D, at: Evaluation
) -> StepResult:
    """Exact line search along D: the positive t minimizing objective(Y + tD).

    at is the `Evaluation` at Y, which gives phi(0) and phi'(0).  D is
    checked (`_as_factor`, ValueError) and a zero or non-finite D raises
    DegenerateDirectionError; the step is then
    `minimize_quartic(quartic_coeffs(instance, Y, D / ||D||_F, at))`, which
    checks Y and at.grad, with t* divided by ||D||_F and phi(t*) as found.
    The coefficient of t^j scales as ||D||^j, so the normalization makes
    "the monic form of phi' is finite" a property of the direction, not of
    its length.
    """
    D = _as_factor(instance, D, name="D")
    flat = D.ravel()
    nrm = math.sqrt(flat.dot(flat))  # bitwise np.linalg.norm(D)
    if nrm == 0.0 or not math.isfinite(nrm):
        raise DegenerateDirectionError("zero or non-finite direction")
    t, v = minimize_quartic(quartic_coeffs(instance, Y, D / nrm, at))
    return StepResult(t / nrm, v)
