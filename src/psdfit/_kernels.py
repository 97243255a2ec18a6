"""Numeric kernels for the fitting objective, in plain numpy, over stacks of pairs.

This is the only module that knows how the pairs are laid out: it groups
the working pairs of a valid instance into stacks, walks the stacks and
does every sum over the pairs in an evaluation or a line search.  A stack
is g pairs of one shape, (A, B, c): A is g x mi x mi and B is g x mi x n,
both float64 C-contiguous, and c holds the g constants c_i (below); Y and
D are n x k.  Every per-pair product is the 2-D expression applied to each
of the g matrices, so a pair's own values (its residual, r_i^2, its
gradient rows Z_i and its Gram blocks H_i) are bitwise those of a per-pair
loop, however the pairs are stacked.

Every working B_i's rows are held in one (Sum min(m_i, n)) x n array,
`Stacks.B`, in pair order, and each stack's B is a view of it, so no B row
is stored twice.  The two sums over pairs of an iteration are BLAS
products over the pairs in pair order: the gradient is -2 B_all^T Z_all,
one product over every working row, and the step polynomial's 4 x 4 Gram
sum is Sum H_c H_c^T over runs of whole pairs whose H_i fill at most
GRAM_ENTRIES entries, each run's product added to the sum of the runs before
it as soon as it is made.  Both are rounded by the pairs, their order, k and
GRAM_ENTRIES alone, and never by the stacks.
f and Sum r_i are `_in_order_sum`s over the r_i^2 and the r_i, in pair order.
A 2-D product of an evaluation or a line search is `ndarray.dot` and a
stacked (3-D) one `@`: on 2-D operands both make the same BLAS call (gemm,
or syrk for H H^T) with the same bits, but `@` first goes through matmul's
gufunc dispatch.  On the benchmark's three workloads' shapes (one OpenBLAS
thread, a 2-core Xeon), `.dot` took B_all^T Z_all from 1.21 to 0.70 us
(tall-pairs), 2.93 to 2.42 us (many-pairs) and 4.52 to 3.66 us
(image-demo), P D from 1.07 to 0.61, 0.85 to 0.40 and 2.59 to 2.04 us, and
H H^T from 1.16 to 0.70, 1.15 to 0.67 and 4.66 to 4.08 us.  Set-up
products (the QR reduction of `working_stacks` and P) keep `@`: they are
made once per instance, so their dispatch is not paid per iteration.
Nothing here checks its arguments: the stacks come from a valid instance,
and Y and D are n x k float64 C-contiguous arrays, checked by the callers
(`problem.evaluate`, `linesearch.quartic_coeffs` and `linesearch.exact_step`).

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
only through min(m_i, n) x 2k products, of which it keeps the four k x k
blocks of the Gram matrix of B_i [Y D], and through P.
"""

import itertools
from functools import cached_property

import numpy as np

# At most this many entries in each temporary of a stack (64 KiB).  A working
# pair's largest temporaries are its residual, of side min(m_i, n), and its
# 2k x 2k Gram matrix and its H, 4 k^2 entries each; its m_i x 2k
# product B_i [Y D] is never larger than both.  So 64 pairs of 6 x 6 at
# k = 3 make one stack, as do three 48 x 48 pairs at k = 16 and three
# 128 x 128 pairs with n = 32 (working side 32), while a pair with
# max(min(m_i, n), 2k)^2 > 4096 is alone in its stack.  Larger stacks make
# fewer kernel calls but larger temporaries.
STACK_ENTRIES = 8192

# At most this many entries of H in one product of the line search's Gram
# sum (128 KiB, copied only where a run crosses stacks): a run of
# floor(GRAM_ENTRIES / 4 k^2) whole pairs, or one pair if its 4 k^2 entries
# exceed it.  The runs start at fixed pair indices, whatever the stacks.
GRAM_ENTRIES = 2**14


class Stacks(tuple):
    """The stacks of the working pairs, (A, B, c) each, in pair order, the
    one array B of every working B_i's rows, which each stack's B views, and P."""

    def __new__(cls, stacks, B):
        self = super().__new__(cls, stacks)
        self.B = B
        return self

    @cached_property
    def P(self):
        """P = Sum B_i^T (A_i B_i), n x n, added in pair order, built on first use.

        One pair at a time, so its temporaries are m_i x n and n x n: a
        g x n x n stack of terms would be the largest array of a solve on
        many small pairs.  It is read-only, and a function of the working
        pairs alone: threads that race to build it build the same P, bit for
        bit.
        """
        n = self.B.shape[1]
        P = np.zeros((n, n))
        for As, Bs, _ in self:
            for A, B in zip(As, Bs):
                P += B.T @ (A @ B)
        P.flags.writeable = False
        return P


def _group(working, n, k):
    """`Stacks`: runs of equal-shape working pairs (A, B, c) cut to STACK_ENTRIES.

    The B rows of all pairs are copied once into one array, unless there is
    one pair, whose B is that array; a multi-pair stack's A is a copy, and a
    pair alone keeps its A.
    """
    B = working[0][1] if len(working) == 1 else np.concatenate([B for _, B, _ in working])
    stacks, row = [], 0
    for side, run in itertools.groupby(working, lambda pair: len(pair[1])):
        run = list(run)
        g = max(1, STACK_ENTRIES // max(side, 2 * k) ** 2)
        for i in range(0, len(run), g):
            As, _, c = zip(*run[i : i + g])
            Bs = B[row : row + len(As) * side].reshape(len(As), side, n)
            row += len(As) * side
            stacks.append((As[0][None] if len(As) == 1 else np.array(As), Bs, np.array(c)))
    return Stacks(stacks, B)


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
    stacks = _group(working, n, k)
    views = (view for As, Bs, _ in stacks for view in zip(As, Bs))
    return stacks, tuple(
        view if len(B) <= n else (A, B) for view, (A, B) in zip(views, pairs)
    )


def residual_gradient(A, B, Y):
    """Each pair's ||R||_F^2 and gradient rows Z = R W + R^T W, as (g,) and
    g x m_i x k.

    Both are read from R = A - W W^T, W = B Y, formed once in place over
    W W^T and the only m_i x m_i array; R^T W is a product with a
    transposed view, not a copy.  The pair's gradient term is -2 B^T Z,
    which equals the expanded 2 B^T (2 W W^T - A - A^T) W (`evaluate` sums
    it over all pairs as one product).  ||R||_F^2 is the dot product of
    vec R with itself.
    """
    W = B @ Y
    # numpy sends a buffer times its own transposed view to syrk, about 5x
    # slower than GEMM at m_i x 4, so each Gram product takes a copy of W^T
    R = W @ W.swapaxes(-1, -2).copy()
    np.subtract(A, R, out=R)
    Z = R @ W
    Z += R.swapaxes(-1, -2) @ W
    Rf = R.reshape(len(R), 1, -1)
    # 1 x m_i^2 times m_i^2 x 1 is one BLAS dot per pair, bitwise vec(R).dot(vec(R))
    return (Rf @ Rf.swapaxes(-1, -2)).reshape(-1), Z


def quartic_terms(B, Y, D):
    """The pairs' H = [vec a; vec b; vec b^T; vec c] side by side, 4 x (g k^2).

    With W = B Y and V = B D the Gram matrix of W + t V is
    a(t) = a + t s + t^2 c, in the k x k blocks a = W^T W, b = W^T V,
    b^T = V^T W and c = V^T V of the Gram matrix G of U = B [Y D], with
    s = b + b^T.  The residual at step t has squared norm
    ||A||^2 - 2 <A, (W + t V)(W + t V)^T> + ||a(t)||^2, as
    ||X X^T|| = ||X^T X||, and the t^2, t^3 and t^4 terms of ||a(t)||^2 are
    read from the 4 x 4 Gram matrix Q = H H^T (`quartic_sums`), with
    <s, s> = Q11 + 2 Q12 + Q22:
        a2 = <s, s> + 2 Q03 - 2 <A V, V>   a3 = 2 (Q13 + Q23)   a4 = Q33
    H is G's four blocks, each pair's k^2 columns after the previous pair's,
    copied out by one reshape, so s is never formed.  The <A V, V> part,
    summed over the pairs, is <D, P D> (`quartic_sums`), so A is not read
    and no m_i x m_i matrix is formed.  a0 and a1 are f and <grad f, D>.
    """
    g, k = len(B), Y.shape[1]
    U = B @ np.concatenate((Y, D), axis=1)
    G = U.swapaxes(-1, -2).copy() @ U  # a copy of U^T, not syrk (residual_gradient)
    del U
    return G.reshape(g, 2, k, 2, k).transpose(1, 3, 0, 2, 4).reshape(4, -1)


def evaluate(stacks, Y):
    """(Sum r_i^2, Sum r_i, gradient), all read from R_i and c_i.

    r_i^2 = c_i + ||R_i||_F^2, the squared residual of the caller's pair
    (`working_stacks`).  The gradient is -2 B^T Z over all working rows, one
    product, with the pairs' Z_i lined up in pair order: with one stack its
    Z as it is, with several a copy.  The r_i^2 are lined up the same way,
    and f and Sum r_i are `_in_order_sum`s over the r_i^2 and the r_i, in
    pair order.
    """
    r2, Z = [], []
    for A, B, c in stacks:
        r2_stack, Z_stack = residual_gradient(A, B, Y)
        r2_stack += c
        r2.append(r2_stack)
        Z.append(Z_stack.reshape(-1, Y.shape[1]))
    Z = Z[0] if len(Z) == 1 else np.concatenate(Z)
    grad = stacks.B.T.dot(Z)
    grad *= -2.0
    r2 = r2[0] if len(r2) == 1 else np.concatenate(r2)
    num = _in_order_sum(np.sqrt(r2))  # first: f's sum overwrites r2
    return float(_in_order_sum(r2)), float(num), grad


def _in_order_sum(terms):
    """terms[0] + terms[1] + ..., added left to right; terms is overwritten.

    A scan: `sum(axis=0)` would sum 1-entry terms pairwise.
    """
    return np.add.accumulate(terms, out=terms)[-1]


def _gram(H):
    """H H^T, 4 x 4: numpy sends it to BLAS syrk, which with 4 output rows
    was no slower than GEMM with a copy of H^T."""
    return H.dot(H.T)


def quartic_sums(stacks, Y, D):
    """[a2, a3, a4] summed over all pairs; a0 and a1 come from the evaluation.

    The pairs' `quartic_terms` columns are taken in pair order, in runs of
    floor(GRAM_ENTRIES / 4 k^2) whole pairs (at least one) that start at
    fixed pair indices, a run that crosses stacks as one copy; each run's
    Gram matrix is one product, added to 0.0 and the earlier runs' sum as
    soon as it is made (a left-to-right sum over the runs, with no stack
    of them), and the sum is combined once, <s, s> first.
    Sum <A_i V_i, V_i> = <D, P D>, one dot product of vec D and vec (P D),
    with the stacks' P.
    """
    k2 = Y.shape[1] ** 2
    width = max(1, GRAM_ENTRIES // (4 * k2)) * k2  # columns of H per product
    # 0.0, then the runs' Gram matrices added in order as they are made: the
    # first sum makes Q an array, the rest add into it
    Q, rest = 0.0, None
    for _, B, _ in stacks:
        H = quartic_terms(B, Y, D)
        if rest is not None:  # the head of a run that an earlier stack began
            H = np.concatenate((rest, H), axis=1)
        end = H.shape[1] - H.shape[1] % width
        for i in range(0, end, width):
            Q += _gram(H[:, i : i + width])
        rest = H[:, end:] if end < H.shape[1] else None
    if rest is not None:
        Q += _gram(rest)
    Q = Q.tolist()
    DPD = float(D.ravel().dot(stacks.P.dot(D).ravel()))
    ss = Q[1][1] + 2.0 * Q[1][2] + Q[2][2]
    return [ss + 2.0 * Q[0][3] - 2.0 * DPD, 2.0 * (Q[1][3] + Q[2][3]), Q[3][3]]
