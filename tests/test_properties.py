"""Invariances of the objective, its gradient and the solved X.

The objective and gradient properties are hypothesis properties: each
example is a small random instance with non-symmetric A_i and rectangular
B_i, drawn from a seed that hypothesis chooses.  The settings derandomize
the search and keep no example database, so runs are reproducible and write
nothing to disk.  Instances with pairs taller than n are checked against the
independent oracles, and the step polynomial's a2..a4 and the evaluation's
f, Sum r_i and ||grad f||^2 against long-double expansions at norm-wise
bounds.  The solved-X properties run on eight seeded instances.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psdfit import (
    ProblemInstance,
    SolverConfig,
    TerminationReason,
    evaluate,
    solve,
)
from psdfit import _kernels, linesearch
from psdfit.oracle import (
    fd_gradient,
    interpolate_quartic,
    reference_objective,
    reference_residual,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)


@st.composite
def instances(draw):
    """(instance, Y, rng) with n <= 5, k <= n, m <= 4 pairs of side m_i <= 5."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, n))
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs = tuple(
        (rng.standard_normal((mi, mi)), rng.standard_normal((mi, n))) for mi in sizes
    )
    return ProblemInstance(pairs=pairs, n=n, k=k), rng.standard_normal((n, k)), rng


def close(a, b, scale):
    """Equal to rounding: entrywise within 1e-10 of the problem's natural scale."""
    return np.allclose(a, b, rtol=1e-10, atol=1e-10 * scale)


def scales(inst, Y):
    """Magnitudes of f and the gradient at Y, for absolute tolerances."""
    f = evaluate(inst, Y).f
    return max(1.0, f), max(1.0, float(np.abs(evaluate(inst, Y).grad).max()))


@PROPERTY
@given(instances())
def test_orthogonal_change_of_factor(case):
    # X = Y Y^T is unchanged by Y -> Y Q, and the gradient rotates with Y
    inst, Y, rng = case
    Q, _ = np.linalg.qr(rng.standard_normal((inst.k, inst.k)))
    f_scale, g_scale = scales(inst, Y)
    assert close(evaluate(inst, Y @ Q).f, evaluate(inst, Y).f, f_scale)
    assert close(evaluate(inst, Y @ Q).grad, evaluate(inst, Y).grad @ Q, g_scale)


@PROPERTY
@given(instances())
def test_pair_order(case):
    inst, Y, rng = case
    order = rng.permutation(inst.m)
    permuted = ProblemInstance(
        pairs=tuple(inst.pairs[i] for i in order), n=inst.n, k=inst.k
    )
    f_scale, g_scale = scales(inst, Y)
    assert close(evaluate(permuted, Y).f, evaluate(inst, Y).f, f_scale)
    assert close(evaluate(permuted, Y).grad, evaluate(inst, Y).grad, g_scale)


@PROPERTY
@given(instances())
def test_transposed_targets(case):
    # B X B^T is symmetric, so ||A - B X B^T|| = ||A^T - B X B^T||
    inst, Y, _ = case
    transposed = ProblemInstance(
        pairs=tuple((A.T, B) for A, B in inst.pairs), n=inst.n, k=inst.k
    )
    f_scale, g_scale = scales(inst, Y)
    assert close(evaluate(transposed, Y).f, evaluate(inst, Y).f, f_scale)
    assert close(evaluate(transposed, Y).grad, evaluate(inst, Y).grad, g_scale)


@PROPERTY
@given(instances(), st.floats(0.1, 10.0))
def test_joint_scaling(case, c):
    # (A, Y) -> (c^2 A, c Y) scales every residual by c^2, so f by c^4 and
    # its gradient with respect to Y by c^3
    inst, Y, _ = case
    scaled = ProblemInstance(
        pairs=tuple((c * c * A, B) for A, B in inst.pairs), n=inst.n, k=inst.k
    )
    f_scale, g_scale = scales(inst, Y)
    assert close(evaluate(scaled, c * Y).f, c**4 * evaluate(inst, Y).f, c**4 * f_scale)
    assert close(evaluate(scaled, c * Y).grad, c**3 * evaluate(inst, Y).grad, c**3 * g_scale)


@st.composite
def stacked_instances(draw):
    """(pairs, n, k, Y0, D): up to three runs of up to 24 equal-side pairs, m_i <= 6.

    A run of more than 14 such pairs is cut into several stacks at a budget
    of 512 entries and is one stack at the shipped budget.
    """
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, n))
    runs = draw(
        st.lists(st.tuples(st.integers(1, 6), st.integers(1, 24)), min_size=1, max_size=3)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs = tuple(
        (rng.standard_normal((mi, mi)), rng.standard_normal((mi, n)))
        for mi, count in runs
        for _ in range(count)
    )
    return pairs, n, k, rng.standard_normal((n, k)), rng.standard_normal((n, k))


def bits(*values):
    """The float64 bytes of each value (numbers or arrays), for bitwise comparison."""
    return [np.asarray(v, dtype=np.float64).tobytes() for v in values]


# Two pairs of one row, n = 2, k = 1: a 1 x 2 B_i times Y is a BLAS dot per
# pair, but the flattened 2 x 2 stack times Y would be a gemv, which rounds
# these W_i differently (it fuses the multiply-add), so an evaluator that
# multiplies a stack's B_i Y as one matrix fails on this case every run
ONE_ROW_PAIRS = (
    (
        (np.array([[0.5]]), np.array([[0.1, 0.6]])),
        (np.array([[-0.4]]), np.array([[0.2, 0.3]])),
    ),
    2,
    1,
    np.array([[0.3], [0.7]]),
    np.array([[0.2], [-0.9]]),
)


@PROPERTY
@given(stacked_instances())
@example(ONE_ROW_PAIRS)
def test_stack_budget_is_invisible(case):
    # every sum over pairs is a product over all working rows in pair order
    # (the Gram sum over runs that start at fixed pair indices), so how many
    # pairs share a stack changes no bit of the evaluation, the step
    # polynomial or a solve
    pairs, n, k, Y0, D = case
    config = SolverConfig(epsilon=1e-300, max_iterations=20)
    seen = []
    for budget in (1, 512, _kernels.STACK_ENTRIES):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "STACK_ENTRIES", budget)
            inst = ProblemInstance(pairs=pairs, n=n, k=k)
        at = evaluate(inst, Y0)
        p = linesearch.quartic_coeffs(inst, Y0, D, at)
        result = solve(inst, Y0, config)
        seen.append(
            bits(at.f, at.residual, at.grad, at.gg, p.a0, p.a1, p.a2, p.a3, p.a4)
            + bits(result.Y_final, *result.trace.columns)
        )
    assert seen[0] == seen[1] == seen[2]


# ---------------------------------------------------------------------------
# pairs taller than n, which the kernels see through n x n working pairs


@st.composite
def tall_instances(draw, consistent=False):
    """(instance, Y, D, Z): pairs of side below, at and above n, at least one above.

    n <= 5 (n = 1 and k = n included); a tall B_i is C_i E_i with E_i of
    r_i <= n rows, so it may be rank-deficient.  The A_i are Gaussian, hence
    not symmetric, or with consistent the planted B_i Z Z^T B_i^T.
    """
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, n))
    sizes = draw(st.lists(st.integers(1, n + 6), max_size=3))
    sizes = draw(st.permutations(sizes + [draw(st.integers(n + 1, n + 6))]))
    ranks = [draw(st.integers(1, n)) if mi > n else n for mi in sizes]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Z = rng.standard_normal((n, k))
    pairs = []
    for mi, r in zip(sizes, ranks):
        B = rng.standard_normal((mi, r)) @ rng.standard_normal((r, n))
        W = B @ Z
        A = W @ W.T if consistent else rng.standard_normal((mi, mi))
        pairs.append((A, B))
    inst = ProblemInstance(pairs=tuple(pairs), n=n, k=k)
    return inst, rng.standard_normal((n, k)), rng.standard_normal((n, k)), Z


@PROPERTY
@given(tall_instances())
def test_tall_pairs_match_the_oracles(case):
    # the oracles read the caller's pairs, never the working pairs
    inst, Y, D, _ = case
    assert all(np.all(c >= 0.0) for _, _, c in inst._stacks)
    at = evaluate(inst, Y)
    assert at.f == pytest.approx(reference_objective(inst, Y), rel=1e-12)
    assert at.residual == pytest.approx(reference_residual(inst, Y), rel=1e-12)
    g_fd = fd_gradient(inst, Y)
    scale = np.maximum(1.0, np.maximum(np.abs(at.grad), np.abs(g_fd)))
    assert (np.abs(at.grad - g_fd) / scale).max() < 1e-6
    p = linesearch.quartic_coeffs(inst, Y, D, at)
    q = interpolate_quartic(inst, Y, D)
    for mine, theirs in zip(
        (p.a0, p.a1, p.a2, p.a3, p.a4), (q.a0, q.a1, q.a2, q.a3, q.a4)
    ):
        assert abs(mine - theirs) <= 1e-8 * max(1.0, abs(mine), abs(theirs))


@PROPERTY
@given(tall_instances(consistent=True))
def test_tall_pairs_fit_exactly_at_the_planted_factor(case):
    # c_i is summed from the residual outside range(B_i), so f at the planted
    # Z stays at the rounding floor (u Sum ||A_i||)^2; ||A_i||^2 - ||Q^T A Q||^2
    # would leave an error near u (Sum ||A_i||)^2, some 1e15 times larger
    inst, _, _, Z = case
    u = np.finfo(np.float64).eps / 2
    floor = (u * sum(np.linalg.norm(A) for A, _ in inst.pairs)) ** 2
    assert 0.0 <= evaluate(inst, Z).f <= 1e3 * floor


# ---------------------------------------------------------------------------
# exact equivalences: congruence of a pair and a change of variables


def shaped_case(n, k, sizes, seed):
    """(pairs, n, k, Y, D, Us, L) for Gaussian pairs of the given sides.

    Sides below, at and above n give wide, square and tall (reduced) pairs.
    Us holds an orthogonal m_i x m_i matrix per pair, and L = G + 3I with G
    Gaussian n x n.
    """
    rng = np.random.default_rng(seed)
    pairs = tuple(
        (rng.standard_normal((mi, mi)), rng.standard_normal((mi, n))) for mi in sizes
    )
    Y, D = rng.standard_normal((n, k)), rng.standard_normal((n, k))
    Us = [np.linalg.qr(rng.standard_normal((mi, mi)))[0] for mi in sizes]
    return pairs, n, k, Y, D, Us, rng.standard_normal((n, n)) + 3.0 * np.eye(n)


@st.composite
def shaped_cases(draw):
    """A `shaped_case` with n <= 5, k <= n and one to four pairs of side <= n + 6."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, n))
    sizes = draw(st.lists(st.integers(1, n + 6), min_size=1, max_size=4))
    return shaped_case(n, k, sizes, draw(st.integers(0, 2**32 - 1)))


# n = 1, and k = n with a wide, a square and a tall pair
SHAPED_EXAMPLES = (shaped_case(1, 1, [1, 3], 0), shaped_case(3, 3, [2, 3, 7], 1))

EQUIVALENCE_TOL = 1e-12  # norm-wise; the largest error in 400 draws was 9e-16


def norm_scales(inst, Y, D):
    """Norm-wise sizes of f and of a0..a4, and of grad f, at Y along D.

    For |t| <= 1 each residual A_i - B_i (Y + tD)(Y + tD)^T B_i^T has norm
    at most s_i = ||A_i|| + ||B_i||^2 (||Y|| + ||D||)^2, so f and the step
    polynomial's coefficients are of the size of Sum s_i^2 at most, and
    grad f of Sum 4 ||B_i||^2 ||Y|| s_i.
    """
    y, d = np.linalg.norm(Y), np.linalg.norm(D)
    f_scale = g_scale = 0.0
    for A, B in inst.pairs:
        b = np.linalg.norm(B)
        s = np.linalg.norm(A) + b * b * (y + d) ** 2
        f_scale += s * s
        g_scale += 4.0 * b * b * y * s
    return f_scale, g_scale


def assert_same_values(inst, Y, D, other, Y2, D2, grad_map, f_scale, g_scale):
    """f, grad f and a2..a4 of other at (Y2, D2) match inst's at (Y, D).

    grad_map takes inst's gradient to the gradient other should have.
    """
    at, at2 = evaluate(inst, Y), evaluate(other, Y2)
    p = linesearch.quartic_coeffs(inst, Y, D, at)
    p2 = linesearch.quartic_coeffs(other, Y2, D2, at2)
    assert abs(at2.f - at.f) <= EQUIVALENCE_TOL * f_scale
    assert np.linalg.norm(at2.grad - grad_map(at.grad)) <= EQUIVALENCE_TOL * g_scale
    for a, a2 in zip((p.a2, p.a3, p.a4), (p2.a2, p2.a3, p2.a4)):
        assert abs(a2 - a) <= EQUIVALENCE_TOL * f_scale


@PROPERTY
@given(shaped_cases())
@example(SHAPED_EXAMPLES[0])
@example(SHAPED_EXAMPLES[1])
def test_congruence_of_a_pair(case):
    # (A_i, B_i) -> (U_i A_i U_i^T, U_i B_i) with U_i orthogonal keeps each
    # residual's norm, so f, grad f and the step polynomial; a tall pair's
    # reduction through its thin QR, and each perfbench seed's presentation
    # of an instance, rest on this
    pairs, n, k, Y, D, Us, _ = case
    inst = ProblemInstance(pairs=pairs, n=n, k=k)
    turned = ProblemInstance(
        pairs=tuple((U @ A @ U.T, U @ B) for (A, B), U in zip(pairs, Us)), n=n, k=k
    )
    f_scale, g_scale = map(max, norm_scales(inst, Y, D), norm_scales(turned, Y, D))
    assert_same_values(inst, Y, D, turned, Y, D, lambda g: g, f_scale, g_scale)


@PROPERTY
@given(shaped_cases())
@example(SHAPED_EXAMPLES[0])
@example(SHAPED_EXAMPLES[1])
def test_change_of_variables(case):
    # (B_i, Y, D) -> (B_i L, L^-1 Y, L^-1 D) keeps every B_i Y and B_i D, so f
    # and the step polynomial; the gradient maps to L^T grad f
    pairs, n, k, Y, D, _, L = case
    inst = ProblemInstance(pairs=pairs, n=n, k=k)
    moved = ProblemInstance(pairs=tuple((A, B @ L) for A, B in pairs), n=n, k=k)
    Y2, D2 = np.linalg.solve(L, Y), np.linalg.solve(L, D)
    f_scale, g_scale = norm_scales(inst, Y, D)
    f_scale2, g_scale2 = norm_scales(moved, Y2, D2)
    f_scale, g_scale = max(f_scale, f_scale2), max(np.linalg.norm(L) * g_scale, g_scale2)
    assert_same_values(inst, Y, D, moved, Y2, D2, lambda g: L.T @ g, f_scale, g_scale)


# ---------------------------------------------------------------------------
# the accuracy of the step polynomial's a2..a4


@st.composite
def step_cases(draw):
    """(instance, Y, D): Gaussian pairs, at least one taller than n, scaled copies.

    B_i x c with A_i x c^2 for c in {1, 1e3, 1e-3}, and directions of length
    1, 1e-4 or 1e-8 against a Y of length 1.
    """
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, n))
    sizes = draw(st.lists(st.integers(1, n + 6), max_size=3))
    sizes.append(draw(st.integers(n + 1, n + 6)))
    c = draw(st.sampled_from([1.0, 1e3, 1e-3]))
    length = draw(st.sampled_from([1.0, 1e-4, 1e-8]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs = tuple(
        (c * c * rng.standard_normal((mi, mi)), c * rng.standard_normal((mi, n)))
        for mi in sizes
    )
    inst = ProblemInstance(pairs=pairs, n=n, k=k)
    return inst, rng.standard_normal((n, k)), length * rng.standard_normal((n, k))


def long_double_terms(inst, Y, D):
    """(a2, a3, a4) and their norm-wise scales, expanded pair by pair in long double.

    With W = B Y, V = B D, S = W V^T + V W^T, Q = V V^T and R = A - W W^T:
    a2 = ||S||^2 - 2 <R, Q>, a3 = 2 <S, Q> and a4 = ||Q||^2, each over the
    caller's pairs.  a2's scale takes ||A|| + ||W||^2 for ||R||, the sizes
    of the terms that float64 adds, so it stays a bound near an exact fit.
    """
    L = np.longdouble
    a, scale = np.zeros(3, L), np.zeros(3, L)
    for A, B in inst.pairs:
        A, B = A.astype(L), B.astype(L)
        W, V = B @ Y.astype(L), B @ D.astype(L)
        S = W @ V.T + V @ W.T
        Q = V @ V.T
        R = A - W @ W.T
        ss, qq = np.sum(S * S), np.sum(Q * Q)
        a += [ss - 2 * np.sum(R * Q), 2 * np.sum(S * Q), qq]
        size_R = np.sqrt(np.sum(A * A)) + np.sum(W * W)
        scale += [ss + 2 * size_R * np.sqrt(qq), 2 * np.sqrt(ss * qq), qq]
    return a, scale


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(step_cases())
def test_step_polynomial_is_accurate_to_its_scale(case):
    # each of a2..a4 within 64 u of its norm-wise scale; the largest error
    # measured over such draws was about 17 u, in a4, for the 3 x 3 Gram
    # form and for the five inner products it replaced alike
    inst, Y, D = case
    p = linesearch.quartic_coeffs(inst, Y, D, evaluate(inst, Y))
    want, scale = long_double_terms(inst, Y, D)
    got = np.array([p.a2, p.a3, p.a4], dtype=np.longdouble)
    u = np.finfo(np.float64).eps / 2
    assert np.all(np.abs(got - want) <= 64 * u * scale), (got - want) / (u * scale)


# ---------------------------------------------------------------------------
# the accuracy of the evaluation's f, Sum r_i and ||grad f||^2


def long_double_evaluation(inst, Y):
    """(f, Sum r_i, ||grad f||^2) and their norm-wise scales, in long double.

    Expanded pair by pair over the caller's pairs, with W = B Y,
    R = A - W W^T and grad f = Sum -2 B^T (R W + R^T W).  Each R is formed
    from terms of size ||A|| + ||W||^2, so its error is of u times that
    size, the error of r_i too; f's scale takes 2 ||R|| + u size for the
    error of ||R||^2, and ||grad f||^2's takes 2 ||grad f|| + u s for that
    of a gradient formed from terms of size s = Sum 4 ||B|| size ||W||.
    """
    L = np.longdouble
    u = np.finfo(np.float64).eps / 2
    f = num = f_scale = num_scale = s = L(0)
    grad = np.zeros(Y.shape, L)
    for A, B in inst.pairs:
        A, B = A.astype(L), B.astype(L)
        W = B @ Y.astype(L)
        R = A - W @ W.T
        rr = np.sum(R * R)
        size = np.sqrt(np.sum(A * A)) + np.sum(W * W)
        f += rr
        num += np.sqrt(rr)
        f_scale += (2 * np.sqrt(rr) + u * size) * size
        num_scale += size
        grad -= 2 * (B.T @ (R @ W + R.T @ W))
        s += 4 * np.sqrt(np.sum(B * B)) * size * np.sqrt(np.sum(W * W))
    gg = np.sum(grad * grad)
    return np.array([f, num, gg]), np.array([f_scale, num_scale, (2 * np.sqrt(gg) + u * s) * s])


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(step_cases())
def test_evaluation_is_accurate_to_its_scale(case):
    # f, Sum r_i and ||grad f||^2 each within 64 u of its norm-wise scale,
    # over the same scaled copies and pairs taller than n as the step
    # polynomial's test
    inst, Y, _ = case
    at = evaluate(inst, Y)
    want, scale = long_double_evaluation(inst, Y)
    got = np.array([at.f, at.residual * inst._norm_sum, at.gg], dtype=np.longdouble)
    u = np.finfo(np.float64).eps / 2
    assert np.all(np.abs(got - want) <= 64 * u * scale), (got - want) / (u * scale)


# ---------------------------------------------------------------------------
# the solved X


SOLVED_EPSILON = 1e-10


def inconsistent_case(seed):
    """n=6, k=2, m=3: Gaussian 5x5 A_i, Gaussian 5x6 B_i / sqrt(n), and a Y0."""
    rng = np.random.default_rng(seed)
    n, k = 6, 2
    pairs = tuple(
        (rng.standard_normal((5, 5)), rng.standard_normal((5, n)) / np.sqrt(n))
        for _ in range(3)
    )
    return ProblemInstance(pairs=pairs, n=n, k=k), rng.standard_normal((n, k)), rng


def solved_X(inst, Y0, epsilon=SOLVED_EPSILON):
    result = solve(inst, Y0, SolverConfig(epsilon=epsilon))
    assert result.termination_reason is TerminationReason.GRADIENT_TOLERANCE
    return result.X_final


def same_X(X, want):
    return np.linalg.norm(X - want) <= 1e-9 * np.linalg.norm(want)


@pytest.mark.parametrize("seed", range(8))
def test_solved_X_invariances(seed):
    inst, Y0, rng = inconsistent_case(seed)
    X = solved_X(inst, Y0)
    Q, _ = np.linalg.qr(rng.standard_normal((inst.k, inst.k)))
    order = rng.permutation(inst.m)
    permuted = ProblemInstance(
        pairs=tuple(inst.pairs[i] for i in order), n=inst.n, k=inst.k
    )
    transposed = ProblemInstance(
        pairs=tuple((A.T, B) for A, B in inst.pairs), n=inst.n, k=inst.k
    )
    scaled = ProblemInstance(
        pairs=tuple((4.0 * A, B) for A, B in inst.pairs), n=inst.n, k=inst.k
    )
    Us = [np.linalg.qr(rng.standard_normal((len(A), len(A))))[0] for A, _ in inst.pairs]
    turned = ProblemInstance(
        pairs=tuple((U @ A @ U.T, U @ B) for (A, B), U in zip(inst.pairs, Us)),
        n=inst.n,
        k=inst.k,
    )
    assert same_X(solved_X(inst, Y0 @ Q), X), "Y0 -> Y0 Q"
    assert same_X(solved_X(permuted, Y0), X), "permuted pairs"
    assert same_X(solved_X(transposed, Y0), X), "A_i -> A_i^T"
    assert same_X(solved_X(turned, Y0), X), "(A_i, B_i) -> (U_i A_i U_i^T, U_i B_i)"
    # f scales by 4^2 and its gradient by 2^3, so the tolerance scales by 8
    assert same_X(solved_X(scaled, 2.0 * Y0, 8.0 * SOLVED_EPSILON), 4.0 * X), "scaling"
