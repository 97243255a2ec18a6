"""Whole solves of instances at extreme data scales and of legitimate edge cases.

Each scenario is solved with solve seed 1 and epsilon 1e-6.  The line search
has no step only where phi' along the unit direction is not a finite true
cubic, so a large ||A_i|| on its own must not stop a solve.
"""

import numpy as np
import pytest

from psdfit import (
    ProblemInstance,
    SolverConfig,
    TerminationReason,
    generate_instance,
    solve,
)


def scaled(instance, a=1.0, b=1.0):
    """A copy with every A_i multiplied by a and every B_i by b."""
    pairs = tuple((a * A, b * B) for A, B in instance.pairs)
    return ProblemInstance(pairs=pairs, n=instance.n, k=instance.k)


def planted(n, k, sizes, seed, zero_column=None):
    """A_i = B_i Z Z^T B_i^T for random B_i and Z, optionally with one B column zero."""
    rng = np.random.default_rng(seed)
    Bs = [rng.random((mi, n)) for mi in sizes]
    if zero_column is not None:
        for B in Bs:
            B[:, zero_column] = 0.0
    Z = rng.random((n, k))
    return ProblemInstance(
        pairs=tuple(((B @ Z) @ (B @ Z).T, B) for B in Bs), n=n, k=k
    )


# ---------------------------------------------------------------------------
# large A_i: the objective grows as ||A_i||^2, the unit direction's a4 does not


@pytest.mark.parametrize("a", [1e7, 1e8, 1e12], ids=["A*1e7", "A*1e8", "A*1e12"])
def test_large_targets_take_steps_to_the_rounding_floor(a):
    base = generate_instance(6, 2, m=3, seed=3, mode="consistent")
    config = SolverConfig(epsilon=1e-6, max_iterations=2000)
    result = solve(scaled(base, a=a), config=config, seed=1)
    assert result.iterations > 0
    assert result.trace[-1].residual <= 1e-12


def test_badly_scaled_tall_instance_reaches_the_rounding_floor():
    # a 40 x 40 and a 12 x 12 pair at n = 10: the taller pair is fit through
    # its 10 x 10 working pair, whose constant c_i stays at the rounding floor
    base = generate_instance(10, 4, sizes=[40, 12], seed=3, mode="consistent")
    config = SolverConfig(epsilon=1e-6, max_iterations=4000)
    result = solve(scaled(base, a=1e6, b=1e3), config=config, seed=1)
    assert result.trace[-1].residual <= 1e-12


# ---------------------------------------------------------------------------
# edge cases


CONSISTENT = {
    "k=n": generate_instance(4, 4, m=3, seed=0, mode="consistent"),
    "mi=1": generate_instance(5, 2, sizes=[1] * 8, seed=0, mode="consistent"),
    "zero-column": planted(6, 2, [6, 6, 6], seed=0, zero_column=2),
    "n=k=1": generate_instance(1, 1, m=2, seed=0, mode="consistent"),
}


@pytest.mark.parametrize("name", CONSISTENT)
def test_consistent_edge_cases_converge(name):
    result = solve(CONSISTENT[name], config=SolverConfig(epsilon=1e-6), seed=1)
    assert result.termination_reason is TerminationReason.GRADIENT_TOLERANCE
    assert result.trace[-1].residual <= 1e-6


def test_negative_definite_target_is_fit_by_zero():
    # <A, B X B^T> <= 0 for every PSD X, so X = 0 is optimal and f* = ||A||^2
    A = -np.eye(3) - 0.5 * np.ones((3, 3))
    B = np.random.default_rng(1).random((3, 4))
    inst = ProblemInstance(pairs=((A, B),), n=4, k=2)
    result = solve(inst, config=SolverConfig(epsilon=1e-6), seed=1)
    assert result.termination_reason is TerminationReason.GRADIENT_TOLERANCE
    assert result.trace[-1].f_value == pytest.approx((A * A).sum(), rel=1e-6)


def test_all_zero_transform_stops_at_its_start():
    # every B_i is zero: the gradient vanishes everywhere
    inst = ProblemInstance(pairs=((np.eye(3), np.zeros((3, 4))),), n=4, k=2)
    result = solve(inst, config=SolverConfig(epsilon=1e-6), seed=1)
    assert result.termination_reason is TerminationReason.GRADIENT_TOLERANCE
    assert result.iterations == 0
    assert result.trace[-1].residual == 1.0


def test_all_zero_targets_approach_zero():
    # with every A_i zero, f is homogeneous of degree 4 in Y, so ||g|| < eps
    # leaves an absolute residual of order eps^(2/3) = 1e-4
    B = np.random.default_rng(2).random((3, 4))
    inst = ProblemInstance(pairs=((np.zeros((3, 3)), B),), n=4, k=2)
    result = solve(inst, config=SolverConfig(epsilon=1e-6), seed=1)
    assert result.termination_reason is TerminationReason.GRADIENT_TOLERANCE
    assert result.trace[-1].residual <= 1e-4
