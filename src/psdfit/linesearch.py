"""Exact line search along a direction D.

The objective restricted to Y + t D is a quartic polynomial in t whose
coefficients come in closed form from the pair residuals, so the exact
minimizing step is found by solving the cubic derivative analytically.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .problem import FactorMatrix, NumericalError, ProblemInstance, _as_factor


class DegenerateDirectionError(ValueError):
    """The quartic term vanishes (B_i D = 0 for every i); no step exists."""


class NonDescentDirectionError(ValueError):
    """No positive critical point improves on the zero step."""


@dataclass(frozen=True)
class QuarticPolynomial:
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

    def derivative_coeffs(self):
        """Coefficients (c3, c2, c1, c0) of phi'(t)."""
        return 4.0 * self.a4, 3.0 * self.a3, 2.0 * self.a2, self.a1


@dataclass(frozen=True)
class StepResult:
    t_star: float
    phi_at_t: float
    critical_points: tuple


def quartic_coeffs(instance: ProblemInstance, Y: FactorMatrix, D) -> QuarticPolynomial:
    """Coefficients of phi(t) = objective(Y + t D), exact for all t.

    With M_i = A_i - B_i Y Y^T B_i^T, P_i = B_i (Y D^T + D Y^T) B_i^T and
    Q_i = B_i D D^T B_i^T, the residual of pair i at step t is
    M_i - t P_i - t^2 Q_i, giving
        a4 = sum ||Q_i||^2           a3 = sum 2 tr(P_i^T Q_i)
        a2 = sum (||P_i||^2 - 2 tr(M_i^T Q_i))
        a1 = sum -2 tr(M_i^T P_i)    a0 = sum ||M_i||^2.
    """
    Y = _as_factor(instance, Y)
    D = _as_factor(instance, D, name="D")
    return QuarticPolynomial(*_kernels.quartic_sums(instance._stacks, Y, D))


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
    only passes c3 = 4 a4 with a4 above its degeneracy threshold.  Roots are
    computed by Cardano's method (trigonometric branch when all three roots
    are real) and polished by Newton steps.
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
    and phi grows at infinity).  Ties between equal-value positive critical
    points resolve to the smallest step.  A non-finite coefficient (the
    kernels overflowed) raises NumericalError.
    """
    coeffs = (p.a0, p.a1, p.a2, p.a3, p.a4)
    if not all(math.isfinite(a) for a in coeffs):
        raise NumericalError(f"non-finite step polynomial {coeffs}")
    if p.a4 <= 1e-14 * (1.0 + p.a0):
        raise DegenerateDirectionError(
            f"quartic coefficient {p.a4:g} is negligible; direction leaves the"
            " objective constant to quartic order"
        )
    crit = cubic_real_roots(*p.derivative_coeffs())
    best_t = None
    best_v = math.inf
    for t in crit:  # ascending, so strict improvement keeps the smallest tie
        if t > 0.0:
            v = p(t)
            if v < best_v:
                best_t = t
                best_v = v
    if best_t is None or (p.a1 >= 0.0 and best_v >= p.a0):
        raise NonDescentDirectionError(
            "no positive critical point improves on the zero step"
            f" (a1={p.a1:g})"
        )
    return StepResult(t_star=best_t, phi_at_t=best_v, critical_points=tuple(crit))


def exact_step(instance: ProblemInstance, Y: FactorMatrix, D) -> StepResult:
    """Exact line search along D: the positive t minimizing objective(Y + tD).

    The polynomial is set up for the unit-norm direction D/||D||_F and the
    minimizing step is mapped back afterwards.  The coefficients scale as
    powers of ||D||, so without the normalization the quartic term of a
    small late-iteration direction would drop below the degeneracy
    threshold even though the direction itself is perfectly usable; after
    it, the threshold tests the direction, not its length.
    """
    D = _as_factor(instance, D, name="D")
    nrm = float(np.linalg.norm(D))
    if nrm == 0.0 or not math.isfinite(nrm):
        raise DegenerateDirectionError("zero or non-finite direction")
    found = minimize_quartic(quartic_coeffs(instance, Y, D / nrm))
    return StepResult(
        t_star=found.t_star / nrm,
        phi_at_t=found.phi_at_t,
        critical_points=tuple(t / nrm for t in found.critical_points),
    )
