import numpy as np
import pytest

from psdfit import (
    ProblemInstance,
    ValidationError,
    assemble_X,
    generate_instance,
    gradient,
    objective,
    residual_error,
    validate,
)
from psdfit.oracle import reference_objective, reference_residual

import golden


def rand_instance(seed, n_max=6, k_max=3, m_max=3):
    """Random small instance with non-symmetric A_i and rectangular B_i."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, n_max + 1))
    k = int(rng.integers(1, min(k_max, n) + 1))
    m = int(rng.integers(1, m_max + 1))
    pairs = []
    for _ in range(m):
        mi = int(rng.integers(1, n_max + 1))
        pairs.append((rng.standard_normal((mi, mi)), rng.standard_normal((mi, n))))
    return ProblemInstance(pairs=tuple(pairs), n=n, k=k), rng


# ---------------------------------------------------------------------------
# validation


def test_validate_accepts_consistent_shapes():
    inst = ProblemInstance(pairs=((np.eye(4), np.eye(4)),), n=4, k=2)
    assert validate(inst).ok


def test_validate_rejects_nonsquare_A():
    inst = ProblemInstance(pairs=((np.ones((3, 4)), np.ones((3, 4))),), n=4, k=1)
    report = validate(inst)
    assert not report.ok
    assert report.violations[0].code == "dimension-mismatch"
    assert report.violations[0].pair == 0


def test_validate_rejects_rank_out_of_range():
    inst = ProblemInstance(pairs=((np.eye(4), np.eye(4)),), n=4, k=5)
    report = validate(inst)
    assert any(v.code == "rank-out-of-range" for v in report.violations)
    with pytest.raises(ValidationError):
        report.raise_if_invalid()


def test_validate_rejects_empty_instance():
    report = validate(ProblemInstance(pairs=(), n=3, k=1))
    assert any(v.code == "empty-instance" for v in report.violations)


def test_validate_rejects_row_mismatch():
    # B has 3 rows but A is 4x4
    inst = ProblemInstance(pairs=((np.eye(4), np.ones((3, 4))),), n=4, k=1)
    assert any(v.code == "dimension-mismatch" for v in validate(inst).violations)


def test_validate_rejects_non_finite_entries():
    B = np.eye(3)
    B[1, 2] = np.inf
    inst = ProblemInstance(pairs=((np.eye(3), np.eye(3)), (np.eye(3), B)), n=3, k=1)
    report = validate(inst)
    assert [(v.code, v.pair) for v in report.violations] == [("non-finite", 1)]
    assert "B" in report.violations[0].message
    nan_A = ProblemInstance(pairs=((np.full((3, 3), np.nan), np.eye(3)),), n=3, k=1)
    assert [(v.code, v.pair) for v in validate(nan_A).violations] == [("non-finite", 0)]
    assert "A" in validate(nan_A).violations[0].message


def test_scalar_instance_is_valid():
    inst = ProblemInstance(pairs=((np.array([[4.0]]), np.array([[1.0]])),), n=1, k=1)
    assert validate(inst).ok
    assert objective(inst, np.array([[2.0]])) == pytest.approx(0.0)


def test_instances_compare_and_hash_by_identity():
    inst = golden.instance(2)
    copy = ProblemInstance(pairs=inst.pairs, n=inst.n, k=inst.k)
    assert inst == inst
    assert inst != copy
    assert hash(inst) == hash(inst)
    assert len({inst, copy}) == 2


# ---------------------------------------------------------------------------
# objective


def test_objective_identity_hand_case():
    # A = I2, B = I2, Y = (1,0)^T: residual is I - diag(1,0), norm^2 = 1
    inst = ProblemInstance(pairs=((np.eye(2), np.eye(2)),), n=2, k=1)
    Y = np.array([[1.0], [0.0]])
    assert objective(inst, Y) == pytest.approx(1.0, abs=1e-15)


def test_objective_zero_Y_gives_sum_of_squared_norms():
    inst, _ = rand_instance(3)
    expected = sum(np.linalg.norm(A, "fro") ** 2 for A, _ in inst.pairs)
    Y = np.zeros((inst.n, inst.k))
    assert objective(inst, Y) == pytest.approx(expected, rel=1e-14)


def test_objective_nonnegative_and_matches_reference():
    for seed in range(20):
        inst, rng = rand_instance(seed)
        Y = rng.standard_normal((inst.n, inst.k))
        f = objective(inst, Y)
        assert f >= 0.0
        ref = reference_objective(inst, Y)
        assert f == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_objective_golden_start_matches_reference():
    inst = golden.instance(2)
    f = objective(inst, golden.Y0_RANK2)
    assert f == pytest.approx(reference_objective(inst, golden.Y0_RANK2), rel=1e-13)


def test_objective_rejects_bad_shape():
    inst = golden.instance(2)
    with pytest.raises(ValueError, match="shape"):
        objective(inst, np.zeros((4, 3)))


# ---------------------------------------------------------------------------
# gradient


def test_gradient_stationary_hand_case():
    inst = ProblemInstance(pairs=((np.eye(2), np.eye(2)),), n=2, k=1)
    Y = np.array([[1.0], [0.0]])
    assert np.allclose(gradient(inst, Y), 0.0, atol=1e-15)


def test_gradient_zero_at_zero_Y():
    inst, _ = rand_instance(7)
    assert np.all(gradient(inst, np.zeros((inst.n, inst.k))) == 0.0)


def test_gradient_matches_expanded_formula():
    # factored evaluation vs the expanded sum
    # 4 B^T B Y Y^T B^T B Y - 2 B^T A B Y - 2 B^T A^T B Y, per pair
    for seed in range(20):
        inst, rng = rand_instance(seed)
        Y = rng.standard_normal((inst.n, inst.k))
        G = gradient(inst, Y)
        expanded = np.zeros_like(Y)
        for A, B in inst.pairs:
            BY = B @ Y
            BtB = B.T @ B
            expanded += (
                4.0 * BtB @ Y @ (BY.T @ BY)
                - 2.0 * B.T @ A @ BY
                - 2.0 * B.T @ A.T @ BY
            )
        scale = np.maximum(1.0, np.abs(expanded))
        assert np.max(np.abs(G - expanded) / scale) < 1e-12


def test_objective_and_gradient_orthogonal_invariance():
    inst, rng = rand_instance(11)
    if inst.k == 1:
        inst = ProblemInstance(pairs=inst.pairs, n=inst.n, k=min(2, inst.n))
    Y = rng.standard_normal((inst.n, inst.k))
    Q, _ = np.linalg.qr(rng.standard_normal((inst.k, inst.k)))
    f, fq = objective(inst, Y), objective(inst, Y @ Q)
    assert abs(f - fq) / max(1.0, abs(f)) < 1e-10
    G, Gq = gradient(inst, Y), gradient(inst, Y @ Q)
    assert np.max(np.abs(Gq - G @ Q)) < 1e-10 * (1.0 + np.max(np.abs(G)))


# ---------------------------------------------------------------------------
# residual_error


def test_residual_error_zero_at_exact_fit():
    rng = np.random.default_rng(0)
    Z = rng.random((4, 2))
    B = rng.random((4, 4))
    W = B @ Z
    inst = ProblemInstance(pairs=((W @ W.T, B),), n=4, k=2)
    assert residual_error(inst, Z) < 1e-12


def test_residual_error_one_at_zero_Y():
    inst, _ = rand_instance(5)
    assert residual_error(inst, np.zeros((inst.n, inst.k))) == pytest.approx(1.0)


def test_residual_error_single_pair_consistency_with_objective():
    # for m=1: eps^2 * ||A||_F^2 == f
    rng = np.random.default_rng(9)
    A = rng.random((5, 5))
    B = rng.random((5, 5))
    inst = ProblemInstance(pairs=((A, B),), n=5, k=2)
    Y = rng.random((5, 2))
    eps = residual_error(inst, Y)
    f = objective(inst, Y)
    assert eps**2 * np.linalg.norm(A, "fro") ** 2 == pytest.approx(f, rel=1e-12)


def test_residual_error_zero_targets_is_the_absolute_residual():
    # with every A_i zero there is no denominator; both the primary metric
    # and the oracle report the plain sum of residual norms
    rng = np.random.default_rng(4)
    pairs = tuple((np.zeros((3, 3)), rng.standard_normal((3, 4))) for _ in range(2))
    inst = ProblemInstance(pairs=pairs, n=4, k=2)
    Y = rng.standard_normal((4, 2))
    absolute = sum(float(np.linalg.norm(B @ Y @ Y.T @ B.T, "fro")) for _, B in pairs)
    assert residual_error(inst, Y) == pytest.approx(reference_residual(inst, Y), rel=1e-12)
    assert residual_error(inst, Y) == pytest.approx(absolute, rel=1e-12)


# ---------------------------------------------------------------------------
# assemble_X


def test_assemble_X_zero():
    assert np.all(assemble_X(np.zeros((3, 2))) == 0.0)


def test_assemble_X_orthonormal_columns():
    Y = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(assemble_X(Y), np.diag([1.0, 1.0, 0.0]))


def test_assemble_X_contract():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        k = int(rng.integers(1, n + 1))
        X = assemble_X(rng.standard_normal((n, k)))
        assert np.array_equal(X, X.T)  # exactly symmetric after averaging
        scale = 1.0 + np.linalg.norm(X, "fro")
        assert np.linalg.eigvalsh(X).min() >= -1e-10 * scale
        sv = np.linalg.svd(X, compute_uv=False)
        if k < n:
            assert sv[k] <= 1e-10 * scale


def test_generate_instance_consistent_mode_has_zero_optimum():
    inst = generate_instance(n=5, k=2, m=3, seed=4, mode="consistent")
    # the planted factor is the first draw of the generator
    Z = np.random.default_rng(4).random((5, 2))
    assert objective(inst, Z) < 1e-20
