"""Numeric kernels for the fitting objective, in plain numpy, over stacks of pairs.

This is the only module that knows how the pairs are laid out: it groups
them into stacks, walks the stacks and does every sum over the pairs, Sum
||A_i||_F included, which `measure` adds up at construction.  A stack is g
pairs of one shape: A is g x mi x mi and B is g x mi x n, both float64
C-contiguous; Y and D are n x k.  Every per-pair product is the 2-D
expression applied to each of the g matrices, and every sum over pairs adds
them left to right, so the results are bitwise those of a per-pair loop,
however the pairs are stacked.
"""

import itertools
import math

import numpy as np

# At most this many entries in each temporary of a stack (4 KiB).  A pair's
# largest temporary is its m_i x m_i residual or its n x k gradient term, so
# 64 pairs of 6 x 6 with n k = 36 make stacks of 14, while a pair with
# max(m_i^2, n k) > 256 is alone in its stack.  Larger stacks make fewer
# kernel calls but larger temporaries.
STACK_ENTRIES = 512


def stack_pairs(pairs, factor_entries):
    """(stacks, views): runs of equal-shape pairs cut to STACK_ENTRIES, and each pair.

    factor_entries is n k.  Multi-pair stacks are copies; a pair alone keeps
    its (float64, C-contiguous) data.  views are the pairs, in order, in the stacks.
    """
    pairs = [
        (np.ascontiguousarray(A, dtype=np.float64), np.ascontiguousarray(B, dtype=np.float64))
        for A, B in pairs
    ]
    stacks, views = [], []
    for _, run in itertools.groupby(pairs, lambda pair: (pair[0].shape, pair[1].shape)):
        run = list(run)
        g = max(1, STACK_ENTRIES // int(max(run[0][0].size, factor_entries, 1)))
        for i in range(0, len(run), g):
            chunk = run[i : i + g]
            if len(chunk) == 1:
                ((A, B),) = chunk
                stacks.append((A[None], B[None]))
                views.append((A, B))
            else:
                As, Bs = np.array([A for A, _ in chunk]), np.array([B for _, B in chunk])
                stacks.append((As, Bs))
                views.extend(zip(As, Bs))
    return tuple(stacks), tuple(views)


def _in_order_sum(total, terms):
    """total + terms[0] + terms[1] + ..., added left to right; terms is overwritten.

    `sum(axis=0)` would sum 1-entry pairs pairwise, so those take a scan.
    """
    terms[0] += total
    if len(terms) == 1:
        return terms[0]
    if terms[0].size > 1:
        return terms.sum(axis=0)
    return np.add.accumulate(terms, out=terms)[-1]


def residual_gradient(A, B, Y):
    """Each pair's ||A - B Y Y^T B^T||_F^2 and gradient term, as (g,) and g x n x k.

    The gradient term of a pair is 2 B^T (2 B Y Y^T B^T - A - A^T) B Y.
    W = B Y and W W^T are formed once and shared by both quantities.
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
    terms = B.swapaxes(-1, -2) @ (G @ W)
    terms *= 2.0
    return r2, terms


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


def evaluate(stacks, Y):
    """(Sum r_i^2, Sum r_i, gradient), r_i the residual norm of pair i."""
    grad = np.zeros(Y.shape)
    r2 = [np.zeros(1)]  # a leading zero, so no pairs sum to 0.0
    for A, B in stacks:
        r2_stack, terms = residual_gradient(A, B, Y)
        r2.append(r2_stack)
        grad = _in_order_sum(grad, terms)  # one stack's terms alive at a time
    r2 = np.concatenate(r2)
    r = np.sqrt(r2)
    return float(_in_order_sum(0.0, r2)), float(_in_order_sum(0.0, r)), grad


def quartic_sums(stacks, Y, D):
    """[a0, a1, a2, a3, a4] summed over all pairs."""
    a = np.zeros(5)
    for A, B in stacks:
        a = _in_order_sum(a, quartic_terms(A, B, Y, D))
    return a.tolist()


def measure(stacks):
    """(Sum ||A_i||_F, per pair the names of its non-finite matrices), in pair order.

    One dot product per A_i gives its norm (bitwise np.linalg.norm) and its
    finiteness screen, and one per stack screens the B_i: a sum of squares
    is finite only if every entry is.  It can also overflow, so only what
    fails a screen is checked entry by entry.
    """
    total, found = 0.0, []
    for As, Bs in stacks:
        B_finite = math.isfinite(np.vdot(Bs, Bs))
        for A, B in zip(As, Bs):
            sq = np.vdot(A, A)
            total += math.sqrt(sq)
            screens = (("A", A, math.isfinite(sq)), ("B", B, B_finite))
            found.append(
                [name for name, M, ok in screens if not (ok or np.isfinite(M).all())]
            )
    return total, found
