import math
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from psdfit import ProblemInstance, _kernels, linesearch, solver
from psdfit.io import generate_instance
from psdfit.problem import _checked, evaluate
from psdfit.solver import SolverConfig, solve


def reference_pair(A, B, Y):
    """One pair's r^2 and gradient rows Z = R W + R^T W, in the 2-D form of a
    per-pair loop; the pair's gradient term is -2 B^T Z.

    r^2 is the dot product of the flattened residual with itself.
    """
    W = B @ Y
    R = A - W @ W.T.copy()
    return float(R.ravel().dot(R.ravel())), R @ W + R.T @ W


def reference_gradient(pairs, Y):
    """-2 B_all^T Z_all: the pairs' B and Z rows stacked in pair order, one product."""
    B = np.concatenate([B for _, B in pairs])
    Z = np.concatenate([reference_pair(A, B, Y)[1] for A, B in pairs])
    return -2.0 * (B.T @ Z)


def reference_reduce(A, B):
    """One pair's working pair and c, in the 2-D form of a per-pair loop.

    A pair with m > n becomes (Q^T A Q, R) of the thin QR B = Q R, and c is
    ||A - Q (Q^T A Q) Q^T||^2 added over row blocks of n rows; a pair with
    m <= n is its own working pair, with c = 0.
    """
    m, n = B.shape
    if m <= n:
        return A, B, 0.0
    Q, R = np.linalg.qr(B)
    At = (Q.T @ A) @ Q
    AtQt = At @ Q.T
    c = 0.0
    for r in range(0, m, n):
        E = A[r : r + n] - Q[r : r + n] @ AtQt
        c += np.sum(E * E)
    return At, R, c


def reference_quartic_terms(B, Y, D):
    """One pair's 4 x k^2 H = [vec a; vec b; vec b^T; vec c], in the 2-D form
    of a pair loop, where a, b, b^T and c are the k x k blocks of the Gram
    matrix of B [Y D], read in that order."""
    k = Y.shape[1]
    U = B @ np.hstack((Y, D))
    G = U.T.copy() @ U
    blocks = [G[:k, :k], G[:k, k:], G[k:, :k], G[k:, k:]]
    return np.stack([block.ravel() for block in blocks])


def reference_gram_sum(Bs, Y, D):
    """Sum H_c H_c^T over runs of floor(GRAM_ENTRIES / 4 k^2) whole pairs (at
    least one), each run's H side by side in pair order, added run by run."""
    per = max(1, _kernels.GRAM_ENTRIES // (4 * Y.shape[1] ** 2))
    Q = np.zeros((4, 4))
    for i in range(0, len(Bs), per):
        H = np.hstack([reference_quartic_terms(B, Y, D) for B in Bs[i : i + per]])
        Q = Q + H @ H.T
    return Q


def combine(Q, DPD):
    """[a2, a3, a4] from a 4 x 4 Gram sum of `reference_quartic_terms` and <D, P D>."""
    ss = Q[1, 1] + 2.0 * Q[1, 2] + Q[2, 2]
    return [ss + 2.0 * Q[0, 3] - 2.0 * DPD, 2.0 * (Q[1, 3] + Q[2, 3]), Q[3, 3]]


def reference_P(pairs, n):
    """Sum B_i^T (A_i B_i), added pair by pair."""
    P = np.zeros((n, n))
    for A, B in pairs:
        P = P + B.T @ (A @ B)
    return P


def test_residual_gradient_returns_each_pairs_terms():
    rng = np.random.default_rng(3)
    g, mi, n, k = 5, 4, 6, 3
    A = rng.standard_normal((g, mi, mi))
    B = rng.standard_normal((g, mi, n))
    Y = rng.standard_normal((n, k))
    r2, Z = _kernels.residual_gradient(A, B, Y)
    assert r2.shape == (g,)
    assert Z.shape == (g, mi, k)
    for i in range(g):
        r2_i, Z_i = reference_pair(A[i], B[i], Y)
        assert r2[i] == r2_i
        R = A[i] - B[i] @ Y @ Y.T @ B[i].T
        assert math.isclose(r2_i, float(np.linalg.norm(R, "fro")) ** 2, rel_tol=1e-12)
        assert np.array_equal(Z[i], Z_i)
        # -2 B^T Z is the pair's gradient in its expanded form
        W = B[i] @ Y
        expanded = 2.0 * B[i].T @ (2.0 * W @ W.T - A[i] - A[i].T) @ W
        scale = np.abs(expanded).max()
        assert np.allclose(-2.0 * B[i].T @ Z_i, expanded, rtol=0.0, atol=1e-12 * scale)


def test_quartic_terms_returns_each_pairs_terms():
    rng = np.random.default_rng(3)
    for g, mi, n, k in [(5, 4, 6, 3), (3, 7, 5, 1), (2, 6, 6, 6)]:
        B = rng.standard_normal((g, mi, n))
        Y = rng.standard_normal((n, k))
        D = rng.standard_normal((n, k))
        H = _kernels.quartic_terms(B, Y, D)
        assert H.shape == (4, g * k * k)
        for i in range(g):
            H_i = reference_quartic_terms(B[i], Y, D)
            assert np.array_equal(H[:, i * k * k : (i + 1) * k * k], H_i)
            Q = H_i @ H_i.T
            # the Gram parts of a2, a3 and a4 in the expanded per-pair form
            W, V = B[i] @ Y, B[i] @ D
            S = W @ V.T + V @ W.T
            VV = V @ V.T
            a2 = np.sum(S * S) + 2.0 * np.sum((W @ W.T) * VV)
            a = combine(Q, 0.0)
            assert math.isclose(a[0], a2, rel_tol=1e-12)
            assert math.isclose(a[1], 2.0 * np.sum(S * VV), rel_tol=1e-12)
            assert math.isclose(a[2], np.sum(VV * VV), rel_tol=1e-12)


def test_stacked_evaluation_matches_per_pair_reference(monkeypatch):
    # at a budget of 512 entries: a run the budget splits (20 = 14 + 6), a
    # side change, a short run, and pairs taller than n = 12 (16 and 30),
    # whose 12 x 12 working pairs join the 12 x 12 pairs in one run of seven
    # that the budget cuts into 3 + 3 + 1; and Gram sums over runs of five
    # pairs (200 // 36), which cross the stacks
    monkeypatch.setattr(_kernels, "STACK_ENTRIES", 512)
    monkeypatch.setattr(_kernels, "GRAM_ENTRIES", 200)
    sides = [6] * 20 + [7] + [6] * 3 + [16] * 2 + [12] * 3 + [30] * 2
    n, k = 12, 3
    rng = np.random.default_rng(5)
    data = [(rng.random((mi, mi)), rng.random((mi, n))) for mi in sides]
    inst = ProblemInstance(pairs=tuple(data), n=n, k=k)
    assert [len(A) for A, _, _ in inst._stacks] == [14, 6, 1, 3, 3, 3, 1]
    assert all(
        np.array_equal(A, A0) and np.array_equal(B, B0)
        for (A, B), (A0, B0) in zip(inst.pairs, data, strict=True)
    )
    # a pair with m_i <= n alone in its stack keeps its A, and its B is a
    # view of the one array of working B rows, into which it is copied
    assert np.shares_memory(inst._stacks[2][0], data[20][0])
    assert not np.shares_memory(inst._stacks[2][1], data[20][1])
    assert np.shares_memory(inst._stacks[2][1], inst._stacks.B)
    working = [reference_reduce(A, B) for A, B in data]
    stacked = [pair for stack in inst._stacks for pair in zip(*stack)]
    assert all(
        np.array_equal(A, At) and np.array_equal(B, R) and c == c0
        for (A, B, c), (At, R, c0) in zip(stacked, working, strict=True)
    )
    Y = rng.standard_normal((n, k))
    D = rng.standard_normal((n, k))

    f = num = denom = 0.0
    for (A, B, c), (A0, _) in zip(working, data):
        r2 = reference_pair(A, B, Y)[0]
        f += r2 + c
        num += math.sqrt(r2 + c)
        denom += float(np.linalg.norm(A0, "fro"))
    grad = reference_gradient([(A, B) for A, B, _ in working], Y)
    Q = reference_gram_sum([B for _, B, _ in working], Y, D)
    P = reference_P([(A, B) for A, B, _ in working], n)
    a = combine(Q, D.ravel().dot((P @ D).ravel()))

    assert inst._norm_sum == sum(float(np.linalg.norm(A, "fro")) for A, _ in data)
    assert np.array_equal(inst._stacks.P, P)
    at = evaluate(inst, Y)
    assert at.f == f
    assert at.residual == num / denom
    assert np.array_equal(at.grad, grad)
    assert at.gg == grad.ravel().dot(grad.ravel())
    p = linesearch.quartic_coeffs(inst, Y, D, at)
    assert p.a0 == at.f
    assert p.a1 == at.grad.ravel().dot(D.ravel())
    assert [p.a2, p.a3, p.a4] == a

    # and the working pairs give the caller's pairs' values, to rounding
    f0 = sum(reference_pair(A, B, Y)[0] for A, B in data)
    grad0 = reference_gradient(data, Y)
    assert math.isclose(at.f, f0, rel_tol=1e-12)
    assert np.allclose(at.grad, grad0, rtol=1e-11, atol=1e-11 * np.abs(grad0).max())
    assert np.allclose(inst._stacks.P, reference_P(data, n), rtol=1e-11, atol=0.0)


def test_gram_runs_move_only_the_step_polynomial_by_rounding(monkeypatch):
    # the line search's Gram sum is one product per run of whole pairs; at
    # one pair per product and at all 48 pairs in one, a2..a4 agree to
    # rounding and the evaluation, which has no Gram sum, to the bit; at
    # runs of five pairs (200 // 36), which cross the stacks of a budget of
    # 512, the coefficients do not depend on the stacks
    n, k = 12, 3
    rng = np.random.default_rng(12)
    sides = [6] * 40 + [7] * 5 + [16] * 3
    pairs = tuple((rng.standard_normal((mi, mi)), rng.random((mi, n))) for mi in sides)
    Y = rng.standard_normal((n, k))
    D = rng.standard_normal((n, k))

    gram = _kernels._gram
    products = []

    def counted(H):
        products.append(H.shape[1] // (k * k))
        return gram(H)

    monkeypatch.setattr(_kernels, "_gram", counted)

    def results(stack_entries, gram_entries):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "STACK_ENTRIES", stack_entries)
            inst = ProblemInstance(pairs=pairs, n=n, k=k)
        monkeypatch.setattr(_kernels, "GRAM_ENTRIES", gram_entries)
        products.clear()
        at = evaluate(inst, Y)
        p = linesearch.quartic_coeffs(inst, Y, D, at)
        return len(inst._stacks), at, [p.a2, p.a3, p.a4]

    stacks, at_one, a_one = results(512, 4 * k * k)
    assert stacks == 5  # 14 + 14 + 12, 5 and 3
    assert products == [1] * 48
    _, at_all, a_all = results(512, 10**9)
    assert products == [48]
    scale = max(map(abs, a_one + a_all))
    assert all(abs(x - y) <= 1e-13 * scale for x, y in zip(a_one, a_all))
    assert at_one.f == at_all.f and at_one.residual == at_all.residual
    assert np.array_equal(at_one.grad, at_all.grad) and at_one.gg == at_all.gg
    a_runs = []
    for entries in (1, 512, 10**9):
        a_runs.append(results(entries, 200)[2])
        assert products == [5] * 9 + [3]
    assert a_runs[0] == a_runs[1] == a_runs[2]


@pytest.mark.parametrize(
    "sides, n",
    [([5], 8), ([20], 8), ([6] * 30 + [7] + [20] * 4, 12), ([3] * 5, 4)],
    ids=["one", "one-tall", "mixed", "one-run"],
)
@pytest.mark.parametrize("entries", [1, 512, 10**9], ids=["alone", "512", "runs"])
def test_every_stack_views_the_one_B_array(monkeypatch, sides, n, entries):
    monkeypatch.setattr(_kernels, "STACK_ENTRIES", entries)
    rng = np.random.default_rng(4)
    data = [(rng.random((mi, mi)), rng.random((mi, n))) for mi in sides]
    stacks = ProblemInstance(pairs=tuple(data), n=n, k=2)._stacks
    B_all = stacks.B
    assert B_all.shape == (sum(min(mi, n) for mi in sides), n)
    row = 0
    for _, B, _ in stacks:
        rows = B.shape[0] * B.shape[1]
        # a view of rows row..row + rows of the one array, in pair order
        assert np.shares_memory(B, B_all)
        assert B.ctypes.data == B_all[row:].ctypes.data
        assert np.array_equal(B.reshape(rows, n), B_all[row : row + rows])
        row += rows
    assert row == len(B_all)
    # a lone pair of m_i <= n is the one array, and is not copied
    assert np.shares_memory(B_all, data[0][1]) == (sides == [5])


def test_racing_line_searches_build_one_P():
    # P is cached on the instance's stacks by its first line search; threads
    # that race to build it must all see the same P and the same coefficients
    rng = np.random.default_rng(11)
    n, k = 12, 3
    pairs = tuple((rng.random((mi, mi)), rng.random((mi, n))) for mi in [6] * 40 + [20])
    Y = rng.standard_normal((n, k))
    D = rng.standard_normal((n, k))
    serial = ProblemInstance(pairs=pairs, n=n, k=k)
    expected = linesearch.quartic_coeffs(serial, Y, D, evaluate(serial, Y))
    inst = ProblemInstance(pairs=pairs, n=n, k=k)
    at = evaluate(inst, Y)
    threads = 8
    start = threading.Barrier(threads)
    got = []

    def search():
        start.wait(timeout=10)
        got.append(linesearch.quartic_coeffs(inst, Y, D, at))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=search) for _ in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert got == [expected] * threads
    assert np.array_equal(inst._stacks.P, serial._stacks.P)
    assert not inst._stacks.P.flags.writeable


def test_a_solve_adds_no_attribute_to_the_instance():
    # P is kept by the stacks, so the instance holds after a solve exactly
    # the objects it held when it was built
    inst = generate_instance(6, 2, sizes=[3, 9, 6], seed=2)
    before = dict(vars(inst))
    solve(inst, seed=0, config=SolverConfig(max_iterations=5))
    assert vars(inst).keys() == before.keys()
    assert all(vars(inst)[name] is value for name, value in before.items())
    assert "P" in vars(inst._stacks)  # built by the solve and kept there


def test_quartic_terms_form_no_pair_sized_matrix():
    # the step polynomial needs 2k x 2k Gram matrices, m_i x 2k products and
    # P, which is built one pair at a time: 512 pairs of 1 x 1 at n = 200
    # stay under 3 n x n arrays, where a 512 x n x n stack would be 164 MB
    rng = np.random.default_rng(9)
    cases = [([400], 8, 2, 400 * 400 * 8), ([1] * 512, 200, 10, 3 * 200 * 200 * 8)]
    for sides, n, k, bound in cases:
        pairs = tuple((rng.random((mi, mi)), rng.random((mi, n))) for mi in sides)
        inst = ProblemInstance(pairs=pairs, n=n, k=k)
        Y = rng.standard_normal((n, k))
        D = rng.standard_normal((n, k))
        tracemalloc.start()
        try:
            _kernels.quartic_sums(inst._stacks, Y, D)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound


def evaluation_peak(inst, Y):
    """The tracemalloc peak of one kernel evaluation, in bytes."""
    tracemalloc.start()
    try:
        _kernels.evaluate(inst._stacks, Y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_evaluation_keeps_one_pair_sized_matrix():
    # the residual is formed once, in place, and gives f, Sum r_i and the
    # gradient term; it is the only m_i x m_i array of the evaluation
    # (m_i = n, so the pair is its own working pair)
    mi, n, k = 400, 400, 2
    rng = np.random.default_rng(9)
    pair = (rng.random((mi, mi)), rng.random((mi, n)))
    inst = ProblemInstance(pairs=(pair,), n=n, k=k)
    Y = rng.standard_normal((n, k))
    assert evaluation_peak(inst, Y) < 1.5 * mi * mi * 8


def test_tall_pair_evaluation_forms_no_pair_sized_matrix():
    # a 400 x 400 pair at n = 8 is evaluated through its 8 x 8 working pair:
    # the whole evaluation stays under one m_i x n array (25.6 KB), where
    # the caller's residual would be 1.28 MB
    mi, n, k = 400, 8, 2
    rng = np.random.default_rng(9)
    pair = (rng.random((mi, mi)), rng.random((mi, n)))
    inst = ProblemInstance(pairs=(pair,), n=n, k=k)
    assert [A.shape for A, _, _ in inst._stacks] == [(1, n, n)]
    assert evaluation_peak(inst, rng.standard_normal((n, k))) < mi * n * 8


@pytest.mark.parametrize(
    "side, n, k, stack_sizes",
    [
        (1, 100, 6, [3, 3, 2]),  # 4 k^2 = 144 Gram entries per pair, 3 pairs to 512
        (1, 64, 12, [1] * 8),  # each pair's 4 k^2 = 576 Gram entries alone exceed it
        (4, 40, 2, [8]),  # m_i^2 = 4 k^2 = 16; n k = 80 is no stack temporary
        (12, 12, 2, [3, 3, 2]),  # the 144-entry residuals, not the Gram blocks
    ],
)
def test_stack_budget_counts_the_residual_and_gram_blocks(
    monkeypatch, side, n, k, stack_sizes
):
    monkeypatch.setattr(_kernels, "STACK_ENTRIES", 512)
    rng = np.random.default_rng(0)
    pairs = tuple((rng.random((side, side)), rng.random((side, n))) for _ in range(8))
    inst = ProblemInstance(pairs=pairs, n=n, k=k)
    assert [len(A) for A, _, _ in inst._stacks] == stack_sizes
    # no temporary of a stack (g x m_i x m_i residuals, g x 2k x 2k Gram
    # matrices and their 4 x g k^2 blocks H, g x m_i x 2k products, which are
    # never larger than both) exceeds the budget unless one pair's own does
    for A, _, _ in inst._stacks:
        largest = max(side * side, 2 * k * side, 4 * k * k)
        assert len(A) == 1 or len(A) * largest <= _kernels.STACK_ENTRIES


def test_one_kernel_call_per_stack(monkeypatch):
    monkeypatch.setattr(_kernels, "STACK_ENTRIES", 512)
    inst = generate_instance(12, 3, sizes=[6] * 64, seed=0)
    stacks = len(inst._stacks)
    assert stacks == 5
    Y0 = np.random.default_rng(0).random((inst.n, inst.k))
    log, searches, iterates = [], [], [(Y0, -evaluate(inst, Y0).grad)]

    def record(module, attr, mark, keep=None):
        fn = getattr(module, attr)

        def recorded(*args, **kwargs):
            log.append(mark)
            if keep is not None:
                keep.append(args)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, recorded)

    record(solver, "_evaluation", "E")
    record(linesearch, "exact_step", "S", searches)
    record(linesearch, "quartic_coeffs", "Q")
    record(_kernels, "residual_gradient", "r")
    record(_kernels, "quartic_terms", "q")

    def callback(record, Y, grad, D):
        iterates.append((Y, D))

    result = solve(inst, Y0, SolverConfig(max_iterations=4), callback=callback)
    assert result.iterations == 4
    calls = "".join(log)
    # every evaluation and every line search makes one kernel call per stack,
    # and each iteration makes one public line search, `exact_step` (S), which
    # builds its polynomial with one `quartic_coeffs` (Q), and one evaluation
    # of the iterate it formed, `_evaluation` (E), which is not checked again
    one = f"SQq{{{stacks}}}Er{{{stacks}}}"
    assert re.fullmatch(f"Er{{{stacks}}}({one}){{4}}", calls), calls
    # with the iterate and the direction that the previous iteration left
    # as its 2nd and 3rd positional arguments, which is how a probe reads them
    assert len(searches) == 4
    for args, (Y, D) in zip(searches, iterates[:4], strict=True):
        assert len(args) >= 3 and args[0] is inst
        assert np.array_equal(args[1], Y) and np.array_equal(args[2], D)


@pytest.mark.parametrize(
    "sides, n, k, stack_sizes",
    [
        ([6] * 64, 12, 3, [64]),  # many small pairs: one stack
        ([48] * 3, 64, 16, [3]),  # three 48 x 48 pairs: one stack
        ([128], 32, 4, [1]),  # a 128 x 128 pair works as a 32 x 32 pair
        ([128] * 3, 32, 4, [3]),  # three of them share one stack
        ([100], 128, 4, [1]),  # a 100 x 100 residual alone exceeds the budget
        ([64] * 16, 8, 2, [16]),  # sixteen 8 x 8 working pairs in one stack
    ],
    ids=["64x6x6", "3x48x48", "1x128x128", "3x128x128", "1x100x100", "16x64x64"],
)
def test_shipped_budget_layouts(sides, n, k, stack_sizes):
    rng = np.random.default_rng(1)
    data = [(rng.random((mi, mi)), rng.random((mi, n))) for mi in sides]
    inst = ProblemInstance(pairs=tuple(data), n=n, k=k)
    assert [len(A) for A, _, _ in inst._stacks] == stack_sizes
    side = min(sides[0], n)  # the working side
    assert [(A.shape, B.shape) for A, B, _ in inst._stacks] == [
        ((g, side, side), (g, side, n)) for g in stack_sizes
    ]
    assert all(
        np.array_equal(A, A0) and np.array_equal(B, B0)
        for (A, B), (A0, B0) in zip(inst.pairs, data, strict=True)
    )
    if stack_sizes == [1]:  # a pair alone in its stack is not copied, unless reduced
        assert np.shares_memory(inst._stacks[0][0], data[0][0]) == (sides[0] <= n)
        assert np.shares_memory(inst._stacks[0][1], data[0][1]) == (sides[0] <= n)
    # a reduced pair keeps the caller's arrays, however its working pair is stacked
    for (A, B), (A0, B0) in zip(inst.pairs, data):
        if len(B0) > n:
            assert np.shares_memory(A, A0) and np.shares_memory(B, B0)


@pytest.mark.parametrize(
    "sides, n, k",
    [
        ([1] * 40 + [2] * 9 + [3], 1, 1),  # one gradient entry per pair
        ([6] * 20 + [7] + [6] * 3 + [16] * 2, 12, 3),
        ([48] + [5] * 3, 64, 16),  # n k = 1024
    ],
    ids=["nk1", "mixed", "nk1024"],
)
@pytest.mark.parametrize("entries", [1, 10**9], ids=["alone", "runs"])
def test_stacking_is_invisible(monkeypatch, sides, n, k, entries):
    rng = np.random.default_rng(7)
    pairs = tuple((rng.random((mi, mi)), rng.random((mi, n))) for mi in sides)
    Y = rng.standard_normal((n, k))
    D = rng.standard_normal((n, k))

    def results():
        inst = ProblemInstance(pairs=pairs, n=n, k=k)
        at = evaluate(inst, Y)
        p = linesearch.quartic_coeffs(inst, Y, D, at)
        return len(inst._stacks), at, [p.a0, p.a1, p.a2, p.a3, p.a4]

    # at a budget of 512 the layout is a third one for "mixed" (stacks of 14
    # and 6), the runs for "nk1" and every pair alone for "nk1024"; the runs
    # are of working sides min(m_i, n), so the 50 pairs of "nk1" (n = 1)
    # are one run, and the 16 x 16 pairs of "mixed" (n = 12) are reduced
    monkeypatch.setattr(_kernels, "STACK_ENTRIES", 512)
    _, at, a = results()
    monkeypatch.setattr(_kernels, "STACK_ENTRIES", entries)
    stacks_e, at_e, a_e = results()
    working = [min(mi, n) for mi in sides]
    runs = 1 + sum(x != y for x, y in zip(working, working[1:]))
    assert stacks_e == (len(sides) if entries == 1 else runs)
    assert at_e.f == at.f
    assert at_e.residual == at.residual
    assert np.array_equal(at_e.grad, at.grad)
    assert at_e.gg == at.gg
    assert a_e == a


def test_non_finite_screen_misses_no_entry():
    # the screens are sums of squares, one per A_i and one per B_i: a bad
    # entry at every position of a 2 x size matrix, over lengths around
    # vector widths, in the second pair, and finite data whose sum overflows
    def non_finite(pairs):
        _, norm_sum, violations = _checked(pairs, 3, 1)
        return norm_sum, [v.message for v in violations if v.code == "non-finite"]

    ones = np.ones((2, 3))
    for size in (1, 3, 7, 8, 9, 64, 129):
        for pos in range(2 * size):
            for value in (np.nan, np.inf, -np.inf):
                M = np.ones((2, size))
                M.flat[pos] = value
                found = non_finite([(ones, ones), (M, ones)])[1]
                assert found == ["pair 1: A has non-finite entries"]
                found = non_finite([(ones, ones), (ones, M)])[1]
                assert found == ["pair 1: B has non-finite entries"]
    huge = np.full((1, 5), 1e200)
    assert non_finite([(huge, huge)]) == (math.inf, [])


@pytest.mark.parametrize("g", [1, 2, 9, 20])
@pytest.mark.parametrize("shape", [(), (1, 1), (1, 2), (2, 1), (5,), (12, 3), (64, 16)])
def test_in_order_sum_is_a_pair_loop(g, shape):
    rng = np.random.default_rng(g)
    terms = rng.standard_normal((g, *shape))
    total = rng.standard_normal(shape)
    expected = total.copy()
    for term in terms:
        expected = expected + term
    got = _kernels._in_order_sum(total, terms.copy())
    assert np.asarray(got).tobytes() == expected.tobytes()
    # added left to right, 1 + 2^-53 + 2^-53 + ... rounds back to 1 each time
    tiny = np.full((g, *shape), 2.0**-53)
    tiny[0] = 1.0
    assert np.all(_kernels._in_order_sum(np.zeros(shape), tiny) == 1.0)
