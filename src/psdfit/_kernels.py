"""Numeric kernels for the fitting objective, in plain numpy, over stacks of pairs.

This is the only module that knows how the pairs are laid out: it groups
them into stacks, walks the stacks and does every sum over the pairs, Sum
||A_i||_F included, which `measure` adds up at construction.  A stack is g
pairs of one shape: A is g x mi x mi and B is g x mi x n, both float64
C-contiguous; Y and D are n x k.  Every per-pair product is the 2-D
expression applied to each of the g matrices, and every sum over pairs adds
them left to right, so the results are bitwise those of a per-pair loop,
however the pairs are stacked.  An evaluation forms each pair's residual once.
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


def _as_real(M):
    """(M as float64 C-contiguous, True), or (zeros of its shape, False) if not real.

    Complex numbers and strings are refused, not cast (a cast would drop the
    imaginary part); the zeros only stand in for them in an instance that
    its constructor then refuses.
    """
    M = np.asarray(M)
    if M.dtype.kind in "biufO":  # bool, integer, float or Python objects
        try:
            return np.ascontiguousarray(M, dtype=np.float64), True
        except (TypeError, ValueError):  # an object that is not a real number
            pass
    return np.zeros(M.shape), False


def stack_pairs(pairs, factor_entries):
    """(stacks, views, not_real): runs of equal-shape pairs cut to STACK_ENTRIES,
    each pair, and per pair the names of its matrices that are not real.

    factor_entries is n k.  Multi-pair stacks are copies; a pair alone keeps
    its (float64, C-contiguous) data.  views are the pairs, in order, in the stacks.
    """
    cast = [(_as_real(A), _as_real(B)) for A, B in pairs]
    not_real = [[name for name, (_, ok) in zip("AB", pair) if not ok] for pair in cast]
    pairs = [(A, B) for (A, _), (B, _) in cast]
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
    return tuple(stacks), tuple(views), not_real


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
    """Each pair's ||R||_F^2 and gradient term, as (g,) and g x n x k.

    Both are read from R = A - W W^T, W = B Y, formed once: the gradient term
    -2 B^T (R + R^T) W equals the expanded 2 B^T (2 W W^T - A - A^T) W.
    """
    W = B @ Y
    R = A - W @ W.swapaxes(-1, -2)
    r2 = (R * R).sum(axis=(1, 2))
    # R + R^T without a ufunc buffer, which would be a third stack-sized array
    S = R.swapaxes(-1, -2).copy()
    S += R
    terms = B.swapaxes(-1, -2) @ (S @ W)
    terms *= -2.0
    return r2, terms


def quartic_terms(A, B, Y, D):
    """Each pair's a2, a3, a4 of the step polynomial along D, as g x 3.

    With W = B Y and V = B D the residual at step t is
    A - W W^T - t (W V^T + V W^T) - t^2 V V^T, whose squared norm has, in
    the k x k Gram matrices a = W^T W, b = W^T V and c = V^T V,
        a2 = 2 (<a, c> + <b, b^T> + ||b||^2 - <A V, V>)
        a3 = 4 <b, c>      a4 = ||c||^2
    so no m_i x m_i matrix is formed.  a0 and a1 are f and <grad f, D>.
    """
    W = B @ Y
    V = B @ D
    Wt = W.swapaxes(-1, -2)
    a, b, c = Wt @ W, Wt @ V, V.swapaxes(-1, -2) @ V
    bt = b.swapaxes(-1, -2)

    def inner(x, y):  # each pair's Frobenius inner product
        return (x * y).sum(axis=(1, 2))

    a2 = 2.0 * (inner(a, c) + inner(b, bt) + inner(b, b) - inner(A @ V, V))
    return np.stack([a2, 4.0 * inner(b, c), inner(c, c)], axis=1)


def evaluate(stacks, Y):
    """(Sum r_i^2, Sum r_i, gradient), all read from R_i; r_i = ||R_i||_F."""
    grad = np.zeros(Y.shape)
    r2 = []
    for A, B in stacks:
        r2_stack, terms = residual_gradient(A, B, Y)
        r2.append(r2_stack)
        grad = _in_order_sum(grad, terms)  # one stack's terms alive at a time
    r2 = np.concatenate(r2)
    r = np.sqrt(r2)
    return float(_in_order_sum(0.0, r2)), float(_in_order_sum(0.0, r)), grad


def quartic_sums(stacks, Y, D):
    """[a2, a3, a4] summed over all pairs; a0 and a1 come from the evaluation."""
    a = np.zeros(3)
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
