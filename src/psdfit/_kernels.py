"""Numeric kernels for the fitting objective, in plain numpy, over stacks of pairs.

These two functions are the only place the per-pair products are formed;
`problem` and `linesearch` call them once per stack and sum the per-pair
results in pair order, looking each one up on this module at call time.

A stack is g pairs of one shape: A is g x mi x mi and B is g x mi x n, both
float64 C-contiguous; Y and D are n x k.  Every product and per-pair sum is
the same expression as on one mi x mi pair, applied to each of the g
matrices, so the results are bitwise those of a per-pair loop.
"""

import numpy as np


def residual_gradient(A, B, Y, out):
    """Return each pair's ||A - B Y Y^T B^T||_F^2 and add its gradient term to out.

    The result is a (g,) array.  The gradient term of a pair is
    2 B^T (2 B Y Y^T B^T - A - A^T) B Y; the terms are added to out one
    pair at a time, in stack order.  W = B Y and W W^T are formed once and
    shared by both quantities.
    """
    W = B @ Y
    G = W @ W.swapaxes(-1, -2)
    R = A - G
    r2 = (R * R).sum(axis=(1, 2))
    del R  # free the residuals before the gradient terms are formed
    # G becomes 2 G - A - A^T in place: the same arithmetic, without another
    # stack-sized temporary
    G *= 2.0
    G -= A
    G -= A.swapaxes(-1, -2)
    for term in B.swapaxes(-1, -2) @ (G @ W):
        out += 2.0 * term
    return r2


def quartic_terms(A, B, Y, D):
    """Each pair's contribution (a0..a4) to the step polynomial along D, as g x 5.

    With M = A - B Y Y^T B^T, P = B (Y D^T + D Y^T) B^T and Q = B D D^T B^T,
    the residual at step t is M - t P - t^2 Q, so
    ||M - t P - t^2 Q||_F^2 expands to the returned quartic coefficients.
    """
    W = B @ Y
    V = B @ D
    Wt = W.swapaxes(-1, -2)
    Vt = V.swapaxes(-1, -2)
    M = A - W @ Wt
    P = W @ Vt
    P += V @ Wt
    Q = V @ Vt
    del W, V, Wt, Vt  # at most M, P, Q and one product are alive below
    terms = np.empty((len(A), 5))
    terms[:, 0] = (M * M).sum(axis=(1, 2))
    terms[:, 1] = -2.0 * (M * P).sum(axis=(1, 2))
    terms[:, 2] = (P * P).sum(axis=(1, 2)) - 2.0 * (M * Q).sum(axis=(1, 2))
    terms[:, 3] = 2.0 * (P * Q).sum(axis=(1, 2))
    terms[:, 4] = (Q * Q).sum(axis=(1, 2))
    return terms
