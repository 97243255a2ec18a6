import numpy as np
import pytest

from psdfit import (
    ProblemInstance,
    SolverConfig,
    generate_instance,
    gradient,
    objective,
    residual_error,
    solve,
)
from psdfit.oracle import (
    compare,
    fd_gradient,
    interpolate_quartic,
    psd_truncation,
    reference_objective,
    reference_residual,
)
from psdfit.solver import MultistartResult, multistart_solve
from psdfit.linesearch import quartic_coeffs

import golden


# ---------------------------------------------------------------------------
# reference evaluations


def test_reference_objective_matches_primary():
    inst = golden.instance(2)
    rng = np.random.default_rng(0)
    for _ in range(5):
        Y = rng.standard_normal((4, 2))
        assert objective(inst, Y) == pytest.approx(
            reference_objective(inst, Y), rel=1e-12
        )
        assert residual_error(inst, Y) == pytest.approx(
            reference_residual(inst, Y), rel=1e-12
        )


# ---------------------------------------------------------------------------
# compare / OracleReport


def test_compare_pass_and_fail():
    good = compare("thing", 1.0, 1.0 + 1e-12, 1e-9)
    assert good.passed
    assert "PASS" in str(good)
    bad = compare("thing", 1.0, 1.1, 1e-9)
    assert not bad.passed
    assert "FAIL" in str(bad)


def test_compare_relative_scale_floor():
    # near-zero entries are judged on the unit scale, not amplified
    r = compare("tiny", np.array([0.0, 1e-15]), np.array([1e-15, 0.0]), 1e-12)
    assert r.passed
    assert r.max_abs == pytest.approx(1e-15)


def test_compare_abs_metric():
    r = compare("big", 1e6, 1e6 + 0.5, 1.0, metric="abs")
    assert r.passed
    r2 = compare("big", 1e6, 1e6 + 2.0, 1.0, metric="abs")
    assert not r2.passed


# ---------------------------------------------------------------------------
# fd_gradient


def test_fd_gradient_matches_analytic():
    rng = np.random.default_rng(1)
    for seed in range(5):
        inst = generate_instance(4, 2, m=2, seed=seed)
        Y = rng.standard_normal((4, 2))
        g = gradient(inst, Y)
        g_fd = fd_gradient(inst, Y)
        rel = np.abs(g - g_fd) / np.maximum(1.0, np.abs(g))
        assert rel.max() < 1e-6


def test_fd_gradient_near_zero_at_stationary_point():
    Z = np.array([[1.0], [2.0]])
    inst = ProblemInstance(pairs=((Z @ Z.T, np.eye(2)),), n=2, k=1)
    assert np.abs(fd_gradient(inst, Z)).max() < 1e-8


def test_fd_gradient_truncation_error_is_second_order():
    # halving h must cut the finite-difference error by about 4x
    inst = generate_instance(3, 2, m=1, seed=2)
    Y = np.random.default_rng(3).standard_normal((3, 2))
    g = gradient(inst, Y)
    err = lambda h: np.abs(fd_gradient(inst, Y, h=h) - g).max()
    ratio = err(1e-3) / err(5e-4)
    assert ratio == pytest.approx(4.0, abs=0.3)


# ---------------------------------------------------------------------------
# interpolate_quartic


def test_interpolation_zero_direction():
    inst = golden.instance(2)
    q = interpolate_quartic(inst, golden.Y0_RANK2, np.zeros((4, 2)))
    assert q.a0 == pytest.approx(objective(inst, golden.Y0_RANK2), rel=1e-12)
    assert max(abs(q.a1), abs(q.a2), abs(q.a3), abs(q.a4)) < 1e-9


def test_interpolation_recovers_pure_quartic():
    inst = ProblemInstance(pairs=((np.zeros((1, 1)), np.eye(1)),), n=1, k=1)
    q = interpolate_quartic(inst, np.zeros((1, 1)), np.eye(1))
    assert abs(q.a4 - 1.0) < 1e-12
    assert max(abs(q.a0), abs(q.a1), abs(q.a2), abs(q.a3)) < 1e-12


def test_interpolation_agrees_with_closed_form():
    rng = np.random.default_rng(4)
    for seed in range(10):
        inst = generate_instance(int(rng.integers(2, 6)), 2, m=2, seed=seed)
        Y = rng.standard_normal((inst.n, 2))
        D = rng.standard_normal((inst.n, 2))
        p = quartic_coeffs(inst, Y, D)
        q = interpolate_quartic(inst, Y, D)
        for mine, theirs in zip(
            (p.a0, p.a1, p.a2, p.a3, p.a4), (q.a0, q.a1, q.a2, q.a3, q.a4)
        ):
            assert abs(mine - theirs) <= 1e-8 * max(1.0, abs(mine), abs(theirs))


# ---------------------------------------------------------------------------
# psd_truncation


def test_truncation_diagonal():
    X = psd_truncation(np.diag([3.0, 2.0, 1.0]), 2)
    assert np.allclose(X, np.diag([3.0, 2.0, 0.0]), atol=1e-12)


def test_truncation_clamps_negative_eigenvalues():
    X = psd_truncation(np.diag([1.0, -1.0]), 2)
    assert np.allclose(X, np.diag([1.0, 0.0]), atol=1e-12)


def test_truncation_invariants():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n + 1))
        A = rng.standard_normal((n, n))
        X = psd_truncation(A, k)
        assert np.array_equal(X, X.T)
        w = np.linalg.eigvalsh(X)
        assert w.min() >= -1e-12 * max(1.0, abs(w).max())
        assert np.linalg.matrix_rank(X, tol=1e-10) <= k


def test_truncation_dominates_random_candidates():
    # no random PSD rank-k candidate beats the eigenvalue truncation
    rng = np.random.default_rng(6)
    A = rng.standard_normal((4, 4))
    k = 2
    best = np.linalg.norm(A - psd_truncation(A, k), "fro") ** 2
    S = (A + A.T) / 2.0
    skew_part = np.linalg.norm(A - S, "fro") ** 2
    for _ in range(10_000):
        Y = rng.standard_normal((4, k)) * float(rng.choice([0.1, 1.0, 3.0]))
        cand = np.linalg.norm(A - Y @ Y.T, "fro") ** 2
        assert cand >= best - 1e-9
    # and the truncation value decomposes as symmetric-part fit + skew norm
    sym_fit = np.linalg.norm(S - psd_truncation(A, k), "fro") ** 2
    assert best == pytest.approx(sym_fit + skew_part, rel=1e-12)


def test_truncation_rank_bound_validation():
    with pytest.raises(ValueError):
        psd_truncation(np.eye(3), 0)
    with pytest.raises(ValueError):
        psd_truncation(np.eye(3), 4)


# ---------------------------------------------------------------------------
# multistart_solve


def test_multistart_single_start_matches_solve():
    inst = generate_instance(4, 2, m=2, seed=7)
    cfg = SolverConfig(max_iterations=200)
    ms = multistart_solve(inst, cfg, num_starts=1, seed=13)
    Y0 = np.random.default_rng(13).random((4, 2))
    direct = solve(inst, Y0, cfg)
    assert ms.best_start == 0
    assert ms.final_objectives == [direct.trace[-1].f_value]
    assert np.array_equal(ms.best.Y_final, direct.Y_final)


def test_multistart_keeps_the_best_start():
    inst = generate_instance(4, 2, m=2, seed=8, mode="consistent")
    cfg = SolverConfig(epsilon=1e-7, max_iterations=20000)
    ms = multistart_solve(inst, cfg, num_starts=4, seed=0)
    assert isinstance(ms, MultistartResult)
    assert len(ms.final_objectives) == 4
    best = min(ms.final_objectives)
    assert ms.final_objectives[ms.best_start] == best
    # ties resolve to the earliest start
    assert all(
        v > best or i >= ms.best_start for i, v in enumerate(ms.final_objectives)
    )
    assert ms.best.trace[-1].f_value == best
    assert not ms.failures


def test_multistart_exact_fit_on_consistent_instance():
    inst = generate_instance(5, 2, m=3, seed=9, mode="consistent")
    ms = multistart_solve(
        inst, SolverConfig(epsilon=1e-7, max_iterations=20000), num_starts=3, seed=1
    )
    assert ms.best.trace[-1].f_value < 1e-8


def test_multistart_is_deterministic():
    inst = generate_instance(3, 2, m=1, seed=10)
    cfg = SolverConfig(max_iterations=60)
    a = multistart_solve(inst, cfg, num_starts=3, seed=2)
    b = multistart_solve(inst, cfg, num_starts=3, seed=2)
    assert a.final_objectives == b.final_objectives
    assert a.best_start == b.best_start
    assert np.array_equal(a.best.Y_final, b.best.Y_final)
