"""Per-pair numeric kernels for the fitting objective, in plain numpy.

These three functions are the only place the per-pair products are formed;
`problem` and `linesearch` sum them over the pairs, looking each one up on
this module at call time.

All kernels take float64 C-contiguous arrays.  A is mi x mi, B is mi x n,
Y and D are n x k.
"""

import numpy as np


def residual_sq(A, B, Y):
    """Squared Frobenius norm of the pair residual A - B Y Y^T B^T."""
    W = B @ Y
    R = A - W @ W.T
    return float(np.sum(R * R))


def gradient_accum(A, B, Y, out):
    """Add this pair's objective gradient, 2 B^T (2 B Y Y^T B^T - A - A^T) B Y, to out."""
    W = B @ Y
    C = 2.0 * (W @ W.T) - A - A.T
    out += 2.0 * (B.T @ (C @ W))


def quartic_terms(A, B, Y, D):
    """This pair's contribution (a0..a4) to the step polynomial along D.

    With M = A - B Y Y^T B^T, P = B (Y D^T + D Y^T) B^T and Q = B D D^T B^T,
    the residual at step t is M - t P - t^2 Q, so
    ||M - t P - t^2 Q||_F^2 expands to the returned quartic coefficients.
    """
    W = B @ Y
    V = B @ D
    M = A - W @ W.T
    P = W @ V.T + V @ W.T
    Q = V @ V.T
    a0 = np.sum(M * M)
    a1 = -2.0 * np.sum(M * P)
    a2 = np.sum(P * P) - 2.0 * np.sum(M * Q)
    a3 = 2.0 * np.sum(P * Q)
    a4 = np.sum(Q * Q)
    return a0, a1, a2, a3, a4
