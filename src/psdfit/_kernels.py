"""Per-pair numeric kernels for the fitting objective, in plain numpy.

These two functions are the only place the per-pair products are formed;
`problem` and `linesearch` sum them over the pairs, looking each one up on
this module at call time.

All kernels take float64 C-contiguous arrays.  A is mi x mi, B is mi x n,
Y and D are n x k.
"""

import numpy as np


def residual_gradient(A, B, Y, out):
    """Return ||A - B Y Y^T B^T||_F^2 and add this pair's objective gradient to out.

    The gradient term is 2 B^T (2 B Y Y^T B^T - A - A^T) B Y.  W = B Y and
    W W^T are formed once and shared by both quantities.
    """
    W = B @ Y
    G = W @ W.T
    R = A - G
    r2 = float(np.sum(R * R))
    del R  # free the mi x mi residual before the gradient term needs its own
    out += 2.0 * (B.T @ ((2.0 * G - A - A.T) @ W))
    return r2


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
