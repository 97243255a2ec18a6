"""Invariances of the objective, its gradient and the solved X.

The objective and gradient properties are hypothesis properties: each
example is a small random instance with non-symmetric A_i and rectangular
B_i, drawn from a seed that hypothesis chooses.  The settings derandomize
the search and keep no example database, so runs are reproducible and write
nothing to disk.  The solved-X properties run on eight seeded instances.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdfit import (
    ProblemInstance,
    SolverConfig,
    TerminationReason,
    gradient,
    objective,
    solve,
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
    f = objective(inst, Y)
    return max(1.0, f), max(1.0, float(np.abs(gradient(inst, Y)).max()))


@PROPERTY
@given(instances())
def test_orthogonal_change_of_factor(case):
    # X = Y Y^T is unchanged by Y -> Y Q, and the gradient rotates with Y
    inst, Y, rng = case
    Q, _ = np.linalg.qr(rng.standard_normal((inst.k, inst.k)))
    f_scale, g_scale = scales(inst, Y)
    assert close(objective(inst, Y @ Q), objective(inst, Y), f_scale)
    assert close(gradient(inst, Y @ Q), gradient(inst, Y) @ Q, g_scale)


@PROPERTY
@given(instances())
def test_pair_order(case):
    inst, Y, rng = case
    order = rng.permutation(inst.m)
    permuted = ProblemInstance(
        pairs=tuple(inst.pairs[i] for i in order), n=inst.n, k=inst.k
    )
    f_scale, g_scale = scales(inst, Y)
    assert close(objective(permuted, Y), objective(inst, Y), f_scale)
    assert close(gradient(permuted, Y), gradient(inst, Y), g_scale)


@PROPERTY
@given(instances())
def test_transposed_targets(case):
    # B X B^T is symmetric, so ||A - B X B^T|| = ||A^T - B X B^T||
    inst, Y, _ = case
    transposed = ProblemInstance(
        pairs=tuple((A.T, B) for A, B in inst.pairs), n=inst.n, k=inst.k
    )
    f_scale, g_scale = scales(inst, Y)
    assert close(objective(transposed, Y), objective(inst, Y), f_scale)
    assert close(gradient(transposed, Y), gradient(inst, Y), g_scale)


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
    assert close(objective(scaled, c * Y), c**4 * objective(inst, Y), c**4 * f_scale)
    assert close(gradient(scaled, c * Y), c**3 * gradient(inst, Y), c**3 * g_scale)


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
    assert same_X(solved_X(inst, Y0 @ Q), X), "Y0 -> Y0 Q"
    assert same_X(solved_X(permuted, Y0), X), "permuted pairs"
    assert same_X(solved_X(transposed, Y0), X), "A_i -> A_i^T"
    # f scales by 4^2 and its gradient by 2^3, so the tolerance scales by 8
    assert same_X(solved_X(scaled, 2.0 * Y0, 8.0 * SOLVED_EPSILON), 4.0 * X), "scaling"
