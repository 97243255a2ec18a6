import math
import re
import tracemalloc

import numpy as np
import pytest

from psdfit import ProblemInstance, _kernels, linesearch, solver
from psdfit.io import generate_instance
from psdfit.problem import _evaluate
from psdfit.solver import SolverConfig, solve


def reference_pair(A, B, Y):
    """One pair's r^2 and gradient term, in the 2-D form of a per-pair loop."""
    W = B @ Y
    R = A - W @ W.T
    return float(np.sum(R * R)), -2.0 * (B.T @ ((R + R.T) @ W))


def reference_quartic_terms(A, B, Y, D):
    """One pair's a2, a3, a4, in the 2-D Gram form of a per-pair loop."""
    W = B @ Y
    V = B @ D
    a = W.T @ W
    b = W.T @ V
    c = V.T @ V
    return (
        2.0 * (np.sum(a * c) + np.sum(b * b.T) + np.sum(b * b) - np.sum((A @ V) * V)),
        4.0 * np.sum(b * c),
        np.sum(c * c),
    )


def test_residual_gradient_returns_each_pairs_terms():
    rng = np.random.default_rng(3)
    g, mi, n, k = 5, 4, 6, 3
    A = rng.standard_normal((g, mi, mi))
    B = rng.standard_normal((g, mi, n))
    Y = rng.standard_normal((n, k))
    r2, terms = _kernels.residual_gradient(A, B, Y)
    assert r2.shape == (g,)
    assert terms.shape == (g, n, k)
    for i in range(g):
        r2_i, term = reference_pair(A[i], B[i], Y)
        assert r2[i] == r2_i
        R = A[i] - B[i] @ Y @ Y.T @ B[i].T
        assert math.isclose(r2_i, float(np.linalg.norm(R, "fro")) ** 2, rel_tol=1e-12)
        assert np.array_equal(terms[i], term)


def test_stacked_evaluation_matches_per_pair_reference():
    # a run the stack budget splits (20 = 14 + 6), a side change, a short
    # run, stacks whose per-pair sums have more than 128 entries, and two
    # pairs too large to share a stack
    sides = [6] * 20 + [7] + [6] * 3 + [16] * 2 + [12] * 3 + [30] * 2
    n, k = 12, 3
    rng = np.random.default_rng(5)
    data = [(rng.random((mi, mi)), rng.random((mi, n))) for mi in sides]
    inst = ProblemInstance(pairs=tuple(data), n=n, k=k)
    assert [len(A) for A, _ in inst._stacks] == [14, 6, 1, 3, 2, 3, 1, 1]
    assert all(
        np.array_equal(A, A0) and np.array_equal(B, B0)
        for (A, B), (A0, B0) in zip(inst.pairs, data, strict=True)
    )
    # a pair alone in its stack is not copied
    assert np.shares_memory(inst._stacks[-1][0], data[-1][0])
    Y = rng.standard_normal((n, k))
    D = rng.standard_normal((n, k))

    f = num = denom = 0.0
    grad = np.zeros((n, k))
    a = [0.0] * 3
    for A, B in data:
        r2, term = reference_pair(A, B, Y)
        f += r2
        num += math.sqrt(r2)
        denom += float(np.linalg.norm(A, "fro"))
        grad += term
        a = [x + t for x, t in zip(a, reference_quartic_terms(A, B, Y, D))]

    assert inst._norm_sum == sum(float(np.linalg.norm(A, "fro")) for A, _ in data)
    f_s, residual_s, grad_s, gg_s = _evaluate(inst, Y)
    assert f_s == f
    assert residual_s == num / denom
    assert np.array_equal(grad_s, grad)
    assert gg_s == (grad * grad).sum()
    p = linesearch.quartic_coeffs(inst, Y, D, f_s, grad_s)
    assert p.a0 == f_s
    assert p.a1 == (grad_s * D).sum()
    assert [p.a2, p.a3, p.a4] == a


def test_quartic_terms_form_no_pair_sized_matrix():
    # the step polynomial needs k x k Gram matrices and m_i x k products only
    mi, n, k = 400, 8, 2
    rng = np.random.default_rng(9)
    pair = (rng.random((mi, mi)), rng.random((mi, n)))
    inst = ProblemInstance(pairs=(pair,), n=n, k=k)
    Y = rng.standard_normal((n, k))
    D = rng.standard_normal((n, k))
    tracemalloc.start()
    try:
        _kernels.quartic_sums(inst._stacks, Y, D)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < mi * mi * 8


def test_evaluation_keeps_two_pair_sized_matrices():
    # the residual is formed once and gives f, Sum r_i and the gradient term;
    # R and R + R^T are the only m_i x m_i arrays alive together
    mi, n, k = 400, 8, 2
    rng = np.random.default_rng(9)
    pair = (rng.random((mi, mi)), rng.random((mi, n)))
    inst = ProblemInstance(pairs=(pair,), n=n, k=k)
    Y = rng.standard_normal((n, k))
    tracemalloc.start()
    try:
        _kernels.evaluate(inst._stacks, Y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * mi * mi * 8


@pytest.mark.parametrize(
    "side, n, k, stack_sizes",
    [
        (1, 100, 6, [1] * 8),  # each n x k gradient term alone exceeds the budget
        (1, 64, 3, [2] * 4),
        (4, 40, 2, [6, 2]),  # n k = 80 > m_i^2 = 16
        (6, 12, 3, [8]),
    ],
)
def test_stack_budget_counts_the_gradient_term(side, n, k, stack_sizes):
    rng = np.random.default_rng(0)
    pairs = tuple((rng.random((side, side)), rng.random((side, n))) for _ in range(8))
    inst = ProblemInstance(pairs=pairs, n=n, k=k)
    assert [len(A) for A, _ in inst._stacks] == stack_sizes
    # no temporary of a stack (g x m_i x m_i or g x n x k) exceeds the budget
    # unless one pair's own does
    for A, _ in inst._stacks:
        assert len(A) == 1 or len(A) * max(side * side, n * k) <= _kernels.STACK_ENTRIES


def test_one_kernel_call_per_stack(monkeypatch):
    inst = generate_instance(12, 3, sizes=[6] * 64, seed=0)
    stacks = len(inst._stacks)
    assert stacks == 5
    log = []

    def record(module, attr, mark):
        fn = getattr(module, attr)

        def recorded(*args, **kwargs):
            log.append(mark)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, recorded)

    record(solver, "_evaluate", "E")
    record(linesearch, "quartic_coeffs", "Q")
    record(_kernels, "residual_gradient", "r")
    record(_kernels, "quartic_terms", "q")
    result = solve(inst, config=SolverConfig(max_iterations=4))
    assert result.iterations == 4
    calls = "".join(log)
    # every evaluation and every line search makes one kernel call per stack
    assert re.fullmatch(f"(Er{{{stacks}}}|Qq{{{stacks}}})+", calls), calls
    assert calls.count("E") == 5 and calls.count("Q") >= 4


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
        evaluated = _evaluate(inst, Y)
        p = linesearch.quartic_coeffs(inst, Y, D, evaluated[0], evaluated[2])
        return len(inst._stacks), evaluated, [p.a0, p.a1, p.a2, p.a3, p.a4]

    # the default layout is a third one for "mixed" (stacks of 14 and 6),
    # the runs for "nk1" and every pair alone for "nk1024"
    _, (f, residual, grad, gg), a = results()
    monkeypatch.setattr(_kernels, "STACK_ENTRIES", entries)
    stacks_e, (f_e, residual_e, grad_e, gg_e), a_e = results()
    runs = 1 + sum(x != y for x, y in zip(sides, sides[1:]))
    assert stacks_e == (len(sides) if entries == 1 else runs)
    assert f_e == f
    assert residual_e == residual
    assert np.array_equal(grad_e, grad)
    assert gg_e == gg
    assert a_e == a


def test_non_finite_screen_misses_no_entry():
    # the screens are sums of squares, one per A_i and one per B stack: a bad
    # entry at every position, over lengths around vector widths, and finite
    # data whose sum overflows
    for size in (1, 3, 7, 8, 9, 64, 129):
        for pos in range(size):
            for value in (np.nan, np.inf, -np.inf):
                M = np.ones((2, size))
                M[1, pos] = value
                assert _kernels.measure([(M, np.ones((2, 3)))])[1] == [[], ["A"]]
                assert _kernels.measure([(np.ones((2, 3)), M)])[1] == [[], ["B"]]
    huge = np.full((1, 1, 5), 1e200)
    assert _kernels.measure([(huge, huge)]) == (math.inf, [[]])


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
