"""Numeric kernels for the fitting objective, in plain numpy, over stacks of pairs.

This is the only module that knows how the pairs are laid out: it groups
the working pairs of a valid instance into stacks, walks the stacks and
does every sum over the pairs in an evaluation or a line search.  A stack
is g pairs of one shape, (A, B, c): A is g x mi x mi and B is g x mi x n,
both float64 C-contiguous, and c holds the g constants c_i (below); Y and
D are n x k.  Every per-pair product is the 2-D
expression applied to each of the g matrices, and every sum over pairs adds
them left to right, so the results are bitwise those of a per-pair loop,
however the pairs are stacked.

The kernels run on the working pairs, which `working_stacks` makes once,
after validation, pair by pair before it stacks them: a pair with m_i > n
becomes the n x n pair (Q_i^T A_i Q_i, R_i) of its thin QR B_i = Q_i R_i,
plus the constant c_i = ||A_i - Q_i Q_i^T A_i Q_i Q_i^T||_F^2, and a pair
with m_i <= n is kept as it is, with c_i = 0.  Q_i Q_i^T is an orthogonal
projector, so ||A_i - B_i X B_i^T||^2 = c_i + ||Q_i^T A_i Q_i - R_i X R_i^T||^2
for every X, A_i symmetric or not.  The stacks (`Stacks`) also build on
first use, and keep, the n x n matrix
P = Sum B_i^T A_i B_i = Sum R_i^T (Q_i^T A_i Q_i) R_i, so the working
pairs, their c_i and P are one value, which no other module takes apart.
An evaluation forms each working pair's residual once, and
holds one min(m_i, n) x min(m_i, n) array per stack; each ||R_i||_F^2 is a
BLAS dot product of vec R_i with itself.  The line search reads the pairs
only through min(m_i, n) x 2k products, of which it keeps a 4 x 4 Gram
matrix per pair, of the four k x k blocks of the Gram matrix of
B_i [Y D], and through P.
"""

import itertools
from functools import cached_property

import numpy as np

# At most this many entries in each temporary of a stack (64 KiB).  A working
# pair's largest temporary is its residual, of side min(m_i, n), or its n x k
# gradient term, so 64 pairs of 6 x 6 with n k = 36 make one stack, as do
# three 48 x 48 pairs with n k = 1024 and three 128 x 128 pairs with n = 32
# (working side 32), while a pair with max(min(m_i, n)^2, n k) > 4096 is
# alone in its stack.  Larger stacks make fewer kernel calls but larger
# temporaries.
STACK_ENTRIES = 8192


class Stacks(tuple):
    """The stacks of the working pairs, (A, B, c) each, in pair order, and P."""

    @cached_property
    def P(self):
        """P = Sum B_i^T (A_i B_i), n x n, added in pair order, built on first use.

        One pair at a time, so its temporaries are m_i x n and n x n: a
        g x n x n stack of terms would be the largest array of a solve on
        many small pairs.  It is read-only, and a function of the working
        pairs alone: threads that race to build it build the same P, bit for
        bit.
        """
        n = self[0][1].shape[-1]
        P = np.zeros((n, n))
        for As, Bs, _ in self:
            for A, B in zip(As, Bs):
                P += B.T @ (A @ B)
        P.flags.writeable = False
        return P


def _group(working, factor_entries):
    """`Stacks`: runs of equal-shape working pairs (A, B, c) cut to STACK_ENTRIES.

    Multi-pair stacks are copies; a pair alone keeps its data.
    """
    stacks = []
    for _, run in itertools.groupby(working, lambda pair: (pair[0].shape, pair[1].shape)):
        run = list(run)
        g = max(1, STACK_ENTRIES // max(run[0][0].size, factor_entries))
        for i in range(0, len(run), g):
            As, Bs, c = zip(*run[i : i + g])
            if len(As) == 1:
                stacks.append((As[0][None], Bs[0][None], np.array(c)))
            else:
                stacks.append((np.array(As), np.array(Bs), np.array(c)))
    return Stacks(stacks)


def working_stacks(pairs, n, k):
    """(stacks, pairs): the working pairs of a valid instance, stacked
    (`_group`), and the instance's pairs.

    A pair with m_i > n takes its own thin QR B_i = Q_i R_i and becomes the
    n x n pair (Q_i^T A_i Q_i, R_i), with
    c_i = ||A_i - Q_i (Q_i^T A_i Q_i) Q_i^T||_F^2 summed over row blocks of
    at most n rows, so no temporary exceeds n x m_i.  c_i is formed
    directly: ||A_i||^2 - ||Q_i^T A_i Q_i||^2 would cancel to a rounding
    error of order u ||A_i||^2 where the fit is exact.  Such a pair is
    handed back as given; a pair with m_i <= n is its own working pair,
    with c_i = 0, and is handed back as its view into the stacks.
    """
    working = []
    for A, B in pairs:
        ci = 0.0
        if len(B) > n:
            Q, R = np.linalg.qr(B)
            At = (Q.T @ A) @ Q
            AtQt = At @ Q.T
            for r in range(0, len(A), n):
                E = A[r : r + n] - Q[r : r + n] @ AtQt
                E *= E
                ci += E.sum()
            A, B = At, R
        working.append((A, B, ci))
    stacks = _group(working, n * k)
    views = (view for As, Bs, _ in stacks for view in zip(As, Bs))
    return stacks, tuple(
        view if len(B) <= n else (A, B) for view, (A, B) in zip(views, pairs)
    )


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

    Both are read from R = A - W W^T, W = B Y, formed once in place over
    W W^T and the only m_i x m_i array: the gradient term
    -2 B^T (R W + R^T W) equals the expanded 2 B^T (2 W W^T - A - A^T) W,
    and R^T W is a product with a transposed view, not a copy.
    ||R||_F^2 is the dot product of vec R with itself.
    """
    W = B @ Y
    # numpy sends a buffer times its own transposed view to syrk, about 5x
    # slower than GEMM at m_i x 4, so each Gram product takes a copy of W^T
    R = W @ W.swapaxes(-1, -2).copy()
    np.subtract(A, R, out=R)
    RW = R @ W
    RW += R.swapaxes(-1, -2) @ W
    terms = B.swapaxes(-1, -2) @ RW
    terms *= -2.0
    Rf = R.reshape(len(R), 1, -1)
    # 1 x m_i^2 times m_i^2 x 1 is one BLAS dot per pair, bitwise vec(R).dot(vec(R))
    return (Rf @ Rf.swapaxes(-1, -2)).reshape(-1), terms


def quartic_terms(B, Y, D):
    """Each pair's 4 x 4 Gram matrix of H = [vec a; vec b; vec b^T; vec c], g x 4 x 4.

    With W = B Y and V = B D the Gram matrix of W + t V is
    a(t) = a + t s + t^2 c, in the k x k blocks a = W^T W, b = W^T V,
    b^T = V^T W and c = V^T V of the Gram matrix G of U = B [Y D], with
    s = b + b^T.  The residual at step t has squared norm
    ||A||^2 - 2 <A, (W + t V)(W + t V)^T> + ||a(t)||^2, as
    ||X X^T|| = ||X^T X||, and the t^2, t^3 and t^4 terms of ||a(t)||^2 are
    read from Q = H H^T (`quartic_sums`), with <s, s> = Q11 + 2 Q12 + Q22:
        a2 = <s, s> + 2 Q03 - 2 <A V, V>   a3 = 2 (Q13 + Q23)   a4 = Q33
    H is G's four blocks, copied out by one reshape, so s is never formed.
    The <A V, V> part, summed over the pairs, is <D, P D> (`quartic_sums`),
    so A is not read and no m_i x m_i matrix is formed.  a0 and a1 are f
    and <grad f, D>.
    """
    g, k = len(B), Y.shape[1]
    U = B @ np.concatenate((Y, D), axis=1)
    G = U.swapaxes(-1, -2).copy() @ U  # a copy of U^T, not syrk (residual_gradient)
    del U
    H = G.reshape(g, 2, k, 2, k).transpose(0, 1, 3, 2, 4).reshape(g, 4, k * k)
    del G  # so that G is not alive with H's transposed copy (a solve's peak)
    return H @ H.swapaxes(-1, -2).copy()  # a copy of H^T, not syrk


def evaluate(stacks, Y):
    """(Sum r_i^2, Sum r_i, gradient), all read from R_i and c_i.

    r_i^2 = c_i + ||R_i||_F^2, the squared residual of the caller's pair
    (`working_stacks`).
    """
    grad = np.zeros(Y.shape)
    r2 = []
    for A, B, c in stacks:
        r2_stack, terms = residual_gradient(A, B, Y)
        r2_stack += c
        r2.append(r2_stack)
        grad = _in_order_sum(grad, terms)  # one stack's terms alive at a time
    # row 0 takes each r_i^2 and row 1 each r_i, in pair order, and one
    # running sum along the rows adds both left to right; r is made after
    # the last residual, which it would otherwise join at a solve's peak
    r = np.empty((2, sum(map(len, r2))))
    i = 0
    for r2_stack in r2:  # by slices: np.concatenate raised a solve's peak
        r[0, i : i + len(r2_stack)] = r2_stack
        i += len(r2_stack)
    np.sqrt(r[0], out=r[1])
    np.add.accumulate(r, axis=1, out=r)
    f, num = r[:, -1].tolist()
    return f, num, grad


def quartic_sums(stacks, Y, D):
    """[a2, a3, a4] summed over all pairs; a0 and a1 come from the evaluation.

    The pairs' 4 x 4 `quartic_terms` are added in pair order and combined
    once, <s, s> first.  Sum <A_i V_i, V_i> = <D, P D>, one dot product of
    vec D and vec (P D), with the stacks' P.
    """
    Q = 0.0
    for _, B, _ in stacks:
        Q = _in_order_sum(Q, quartic_terms(B, Y, D))
    Q = Q.tolist()
    DPD = float(D.ravel().dot((stacks.P @ D).ravel()))
    ss = Q[1][1] + 2.0 * Q[1][2] + Q[2][2]
    return [ss + 2.0 * Q[0][3] - 2.0 * DPD, 2.0 * (Q[1][3] + Q[2][3]), Q[3][3]]

