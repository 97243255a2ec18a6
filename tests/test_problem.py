import math
import re
import warnings

import numpy as np
import pytest

from psdfit import (
    ProblemInstance,
    ValidationError,
    assemble_X,
    evaluate,
    generate_instance,
)
from psdfit import linesearch
from psdfit.oracle import reference_objective, reference_residual
from psdfit.problem import _as_factor

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


def violations(pairs, n, k):
    """(code, pair, message) of each violation building the instance raises."""
    with pytest.raises(ValidationError) as err:
        ProblemInstance(pairs=pairs, n=n, k=k)
    found = [(v.code, v.pair, v.message) for v in err.value.violations]
    assert str(err.value) == "; ".join(message for _, _, message in found)
    return found


def test_validate_accepts_consistent_shapes():
    inst = ProblemInstance(pairs=((np.eye(4), np.eye(4)),), n=4, k=2)
    assert (inst.m, inst.n, inst.k) == (1, 4, 2)


def test_validate_rejects_nonsquare_A():
    found = violations(((np.ones((3, 4)), np.ones((3, 4))),), n=4, k=1)
    assert found[0][:2] == ("dimension-mismatch", 0)


def test_validate_rejects_rank_out_of_range():
    found = violations(((np.eye(4), np.eye(4)),), n=4, k=5)
    assert any(code == "rank-out-of-range" for code, _, _ in found)


def test_validate_rejects_non_integer_n_and_k():
    pair = ((np.eye(3), np.eye(3)),)
    with pytest.raises(ValidationError, match="k=2.0 is not an integer") as err:
        ProblemInstance(pairs=pair, n=3, k=2.0)
    assert [v.code for v in err.value.violations] == ["rank-out-of-range"]
    found = violations(pair, n=3.0, k=2)
    assert [code for code, _, _ in found] == ["dimension-mismatch"]
    assert "n=3.0 is not an integer" in found[0][2]
    ProblemInstance(pairs=pair, n=np.int64(3), k=np.int32(2))
    # a non-numeric n or k is reported too, not multiplied into a TypeError
    for n, k, code, value in [
        (None, 1, "dimension-mismatch", None),
        ("3", 1, "dimension-mismatch", "3"),
        (3, None, "rank-out-of-range", None),
        (3, "1", "rank-out-of-range", "1"),
    ]:
        found = violations(pair, n=n, k=k)
        assert (code, None) in [(c, i) for c, i, _ in found]
        assert any(f"={value!r} is not an integer" in message for _, _, message in found)


def test_validate_rejects_a_bool_n_or_k():
    # a bool is a numbers.Integral but no dimension: k=True would be
    # written as "True", which read_problem refuses
    found = violations(((np.eye(2), np.eye(2)),), n=2, k=True)
    assert found == [("rank-out-of-range", None, "rank bound k=True is not an integer")]
    found = violations(((np.eye(1), np.eye(1)),), n=True, k=1)
    message = "column dimension n=True is not an integer"
    assert ("dimension-mismatch", None, message) in found


def test_validate_rejects_empty_instance():
    found = violations((), n=3, k=1)
    assert any(code == "empty-instance" for code, _, _ in found)


def test_validate_rejects_row_mismatch():
    # B has 3 rows but A is 4x4
    found = violations(((np.eye(4), np.ones((3, 4))),), n=4, k=1)
    assert any(code == "dimension-mismatch" for code, _, _ in found)


def test_validate_rejects_a_pair_of_size_zero():
    # the file format requires m_i >= 1, so the writer could not round-trip it
    empty = (np.zeros((0, 0)), np.zeros((0, 3)))
    found = violations((empty, (np.eye(2), np.ones((2, 3)))), n=3, k=1)
    assert found == [
        ("dimension-mismatch", 0, "pair 0: pair size m_i must be at least 1, got 0")
    ]


def test_validate_rejects_a_pair_that_is_not_two_matrices():
    # unpacking one would raise a bare ValueError or TypeError naming no pair;
    # each is reported at its index, with the instance's other violations
    A, B = np.eye(2), np.ones((2, 2))
    message = "a pair must be two matrices (A, B)"
    assert violations(((A,),), n=2, k=1) == [("dimension-mismatch", 0, f"pair 0: {message}")]
    pairs = ((A, B), (A, B, B), (A, np.ones((2, 3))), 5)
    assert violations(pairs, n=2, k=3) == [
        ("dimension-mismatch", 1, f"pair 1: {message}"),
        ("dimension-mismatch", 2, "pair 2: B has 3 columns, expected n=2"),
        ("dimension-mismatch", 3, f"pair 3: {message}"),
        ("rank-out-of-range", None, "rank bound k=3 outside [1, n]=2"),
    ]


def test_validate_rejects_non_finite_entries():
    B = np.eye(3)
    B[1, 2] = np.inf
    found = violations(((np.eye(3), np.eye(3)), (np.eye(3), B)), n=3, k=1)
    assert [(code, pair) for code, pair, _ in found] == [("non-finite", 1)]
    assert "B" in found[0][2]
    found = violations(((np.full((3, 3), np.nan), np.eye(3)),), n=3, k=1)
    assert [(code, pair) for code, pair, _ in found] == [("non-finite", 0)]
    assert "A" in found[0][2]


def test_validate_rejects_data_that_is_not_real():
    # a cast would drop the imaginary part, or fail naming no pair; both are
    # reported with the instance's other violations, and nothing is warned
    complex_A = np.eye(2) * (1.0 + 2.0j)
    text_B = np.array([["1", "0"], ["0", "x"]])
    pairs = ((complex_A, np.eye(2)), (np.eye(2), text_B), (np.eye(3), np.eye(2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        found = violations(pairs, n=2, k=1)
    assert found == [
        ("not-real", 0, "pair 0: A has entries that are not real numbers"),
        ("not-real", 1, "pair 1: B has entries that are not real numbers"),
        ("dimension-mismatch", 2, "pair 2: B has 2 rows, expected 3 to match A"),
    ]
    # an object array is cast entry by entry, and float would parse a str or
    # bytes entry, so an object array holding one is not real either
    pairs = ((np.array([["1"]], dtype=object), np.array([[1.0, b"2"]], dtype=object)),)
    with pytest.raises(ValidationError) as err:
        ProblemInstance(pairs=pairs, n=2, k=1)
    assert [(v.code, v.pair) for v in err.value.violations] == [("not-real", 0)] * 2
    # an object that float refuses, such as a dict or a list, is not real
    pairs = []
    for entry in ({"x": 1.0}, [1.0, 2.0]):
        M = np.ones((1, 1), dtype=object)
        M[0, 0] = entry
        pairs.append((M, np.ones((1, 1))))
    found = violations(pairs, n=1, k=1)
    assert found == [
        ("not-real", 0, "pair 0: A has entries that are not real numbers"),
        ("not-real", 1, "pair 1: A has entries that are not real numbers"),
    ]
    # integer and boolean data are real numbers
    pairs = ((np.eye(2, dtype=int), np.eye(2, dtype=bool)),)
    inst = ProblemInstance(pairs=pairs, n=2, k=1)
    assert inst.pairs[0][1].dtype == np.float64


def test_invalid_instances_never_reach_evaluation():
    # built, these would give objective nan, a matmul error naming no pair,
    # a 2 x 3 gradient for n = 2, and f = 0 for no pairs
    nan_B = np.eye(2)
    nan_B[0, 1] = np.nan
    cases = [
        (((np.eye(2), nan_B),), 2, 1, "non-finite", "pair 0: B has non-finite entries"),
        (((np.eye(2), np.ones((2, 3))),), 2, 1, "dimension-mismatch",
         "pair 0: B has 3 columns, expected n=2"),
        (((np.eye(2), np.ones(2)),), 2, 1, "dimension-mismatch",
         "pair 0: B must be a matrix, got ndim 1"),
        # 0-d matrices keep their shape in the report
        (((np.float64(1.0), np.ones((1, 2))),), 2, 1, "dimension-mismatch",
         "pair 0: A must be square, got shape ()"),
        (((np.ones((1, 1)), np.float64(1.0)),), 1, 1, "dimension-mismatch",
         "pair 0: B must be a matrix, got ndim 0"),
        (((np.eye(2), np.eye(2)),), 2, 3, "rank-out-of-range",
         "rank bound k=3 outside [1, n]=2"),
        ((), 2, 1, "empty-instance", "instance has no (A, B) pairs"),
    ]
    for pairs, n, k, code, message in cases:
        pair = 0 if pairs and code != "rank-out-of-range" else None
        assert violations(pairs, n, k) == [(code, pair, message)]


def test_scalar_instance_is_valid():
    inst = ProblemInstance(pairs=((np.array([[4.0]]), np.array([[1.0]])),), n=1, k=1)
    assert evaluate(inst, np.array([[2.0]])).f == pytest.approx(0.0)


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
    assert evaluate(inst, Y).f == pytest.approx(1.0, abs=1e-15)


def test_objective_zero_Y_gives_sum_of_squared_norms():
    inst, _ = rand_instance(3)
    expected = sum(np.linalg.norm(A, "fro") ** 2 for A, _ in inst.pairs)
    Y = np.zeros((inst.n, inst.k))
    assert evaluate(inst, Y).f == pytest.approx(expected, rel=1e-14)


def test_objective_nonnegative_and_matches_reference():
    for seed in range(20):
        inst, rng = rand_instance(seed)
        Y = rng.standard_normal((inst.n, inst.k))
        f = evaluate(inst, Y).f
        assert f >= 0.0
        ref = reference_objective(inst, Y)
        assert f == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_objective_golden_start_matches_reference():
    inst = golden.instance(2)
    f = evaluate(inst, golden.Y0_RANK2).f
    assert f == pytest.approx(reference_objective(inst, golden.Y0_RANK2), rel=1e-13)


@pytest.mark.parametrize("k, Y", [(2, golden.Y0_RANK2), (3, golden.Y0_RANK3)])
def test_objective_and_residual_are_bitwise_a_per_pair_residual(k, Y):
    inst = golden.instance(k)
    f = num = denom = 0.0
    for A, B in inst.pairs:
        W = B @ Y
        R = A - W @ W.T
        r2 = float(R.ravel().dot(R.ravel()))
        f += r2
        num += math.sqrt(r2)
        denom += float(np.linalg.norm(A, "fro"))
    assert evaluate(inst, Y).f == f
    assert evaluate(inst, Y).residual == num / denom


def test_objective_rejects_bad_shape():
    inst = golden.instance(2)
    with pytest.raises(ValueError, match="shape"):
        evaluate(inst, np.zeros((4, 3))).f


class FactorSubclass(np.ndarray):
    pass


def factor_kinds(Y):
    """Y in each input kind the public functions take, by name."""
    strided = np.zeros((2 * Y.shape[0], 3 * Y.shape[1]))
    strided[::2, ::3] = Y
    read_only = Y.copy()
    read_only.flags.writeable = False
    return {
        "list": Y.tolist(),
        "float32": Y.astype(np.float32),
        "int": np.rint(4 * Y).astype(np.int64),
        "fortran": np.asfortranarray(Y),
        "strided": strided[::2, ::3],
        "subclass": Y.view(FactorSubclass),
        "big-endian": Y.astype(">f8"),
        "read-only": read_only,
    }


def test_factor_inputs_convert_as_before():
    # a conforming factor (ndarray, float64, C-contiguous, n x k) is not
    # copied; every other input gives the same results, bit for bit, as the
    # array it converts to, or is refused for its shape
    inst = generate_instance(5, 2, m=3, seed=4)
    rng = np.random.default_rng(4)
    Y = rng.standard_normal((5, 2))
    D = -evaluate(inst, Y).grad
    assert _as_factor(inst, Y) is Y

    def results(Y, D):
        at = evaluate(inst, Y)
        p = linesearch.quartic_coeffs(inst, Y, D, at)
        found = linesearch.exact_step(inst, Y, D, at)
        values = (at.f, at.residual, at.grad, at.gg, p.a0, p.a1, p.a2, p.a3, p.a4,
                  found.t_star, found.phi_at_t)
        return [np.asarray(v, dtype=np.float64).tobytes() for v in values]

    for (name, Yk), Dk in zip(factor_kinds(Y).items(), factor_kinds(D).values()):
        want = results(np.ascontiguousarray(Yk, float), np.ascontiguousarray(Dk, float))
        assert results(Yk, Dk) == want, name

    for shape, said in [((5, 3), (5, 3)), ((2, 5), (2, 5)), ((10,), (10,)),
                        ((), ()), ((1, 5, 2), (1, 5, 2))]:
        for bad in (np.zeros(shape), np.zeros(shape, dtype=np.float32)):
            message = re.escape(f"has shape {said}, expected (5, 2)")
            with pytest.raises(ValueError, match="Y " + message):
                evaluate(inst, bad)
            with pytest.raises(ValueError, match="D " + message):
                linesearch.exact_step(inst, Y, bad, evaluate(inst, Y))
            with pytest.raises(ValueError, match="D " + message):
                linesearch.quartic_coeffs(inst, Y, bad, evaluate(inst, Y))
            # the line search checks its Y itself, where it enters
            with pytest.raises(ValueError, match="Y " + message):
                linesearch.exact_step(inst, bad, D, evaluate(inst, Y))
            with pytest.raises(ValueError, match="Y " + message):
                linesearch.quartic_coeffs(inst, bad, D, evaluate(inst, Y))


def test_factor_inputs_that_are_not_real_are_refused():
    # a complex factor would lose its imaginary part with only a warning, and
    # an array of numeric strings would be parsed: both are refused, as pairs are
    from psdfit import solve

    inst = generate_instance(4, 2, m=2, seed=4)
    Y = np.random.default_rng(4).standard_normal((4, 2))
    at = evaluate(inst, Y)
    text, mixed = np.array([["1", "2"]] * 4), Y.astype(object)
    mixed[3, 1] = b"2"
    for bad in (Y + 1j, Y.astype(str), text, text.astype(object), mixed):
        calls = [
            ("Y0", lambda: solve(inst, bad)),
            ("Y", lambda: evaluate(inst, bad)),
            ("D", lambda: linesearch.exact_step(inst, Y, bad, at)),
            ("D", lambda: linesearch.quartic_coeffs(inst, Y, bad, at)),
            ("Y", lambda: linesearch.exact_step(inst, bad, -at.grad, at)),
            ("Y", lambda: linesearch.quartic_coeffs(inst, bad, -at.grad, at)),
            ("Y", lambda: assemble_X(bad)),
        ]
        for name, call in calls:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=f"^{name} has entries that are not real numbers$"):
                    call()


# ---------------------------------------------------------------------------
# gradient


def test_gradient_stationary_hand_case():
    inst = ProblemInstance(pairs=((np.eye(2), np.eye(2)),), n=2, k=1)
    Y = np.array([[1.0], [0.0]])
    assert np.allclose(evaluate(inst, Y).grad, 0.0, atol=1e-15)


def test_gradient_zero_at_zero_Y():
    inst, _ = rand_instance(7)
    assert np.all(evaluate(inst, np.zeros((inst.n, inst.k))).grad == 0.0)


def test_gradient_matches_expanded_formula():
    # factored evaluation vs the expanded sum
    # 4 B^T B Y Y^T B^T B Y - 2 B^T A B Y - 2 B^T A^T B Y, per pair
    for seed in range(20):
        inst, rng = rand_instance(seed)
        Y = rng.standard_normal((inst.n, inst.k))
        G = evaluate(inst, Y).grad
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
    f, fq = evaluate(inst, Y).f, evaluate(inst, Y @ Q).f
    assert abs(f - fq) / max(1.0, abs(f)) < 1e-10
    G, Gq = evaluate(inst, Y).grad, evaluate(inst, Y @ Q).grad
    assert np.max(np.abs(Gq - G @ Q)) < 1e-10 * (1.0 + np.max(np.abs(G)))


# ---------------------------------------------------------------------------
# residual_error


def test_residual_error_zero_at_exact_fit():
    rng = np.random.default_rng(0)
    Z = rng.random((4, 2))
    B = rng.random((4, 4))
    W = B @ Z
    inst = ProblemInstance(pairs=((W @ W.T, B),), n=4, k=2)
    assert evaluate(inst, Z).residual < 1e-12


def test_residual_error_one_at_zero_Y():
    inst, _ = rand_instance(5)
    assert evaluate(inst, np.zeros((inst.n, inst.k))).residual == pytest.approx(1.0)


def test_residual_error_single_pair_consistency_with_objective():
    # for m=1: eps^2 * ||A||_F^2 == f
    rng = np.random.default_rng(9)
    A = rng.random((5, 5))
    B = rng.random((5, 5))
    inst = ProblemInstance(pairs=((A, B),), n=5, k=2)
    Y = rng.random((5, 2))
    eps = evaluate(inst, Y).residual
    f = evaluate(inst, Y).f
    assert eps**2 * np.linalg.norm(A, "fro") ** 2 == pytest.approx(f, rel=1e-12)


def test_residual_error_zero_targets_is_the_absolute_residual():
    # with every A_i zero there is no denominator; both the primary metric
    # and the oracle report the plain sum of residual norms
    rng = np.random.default_rng(4)
    pairs = tuple((np.zeros((3, 3)), rng.standard_normal((3, 4))) for _ in range(2))
    inst = ProblemInstance(pairs=pairs, n=4, k=2)
    Y = rng.standard_normal((4, 2))
    absolute = sum(float(np.linalg.norm(B @ Y @ Y.T @ B.T, "fro")) for _, B in pairs)
    assert evaluate(inst, Y).residual == pytest.approx(reference_residual(inst, Y), rel=1e-12)
    assert evaluate(inst, Y).residual == pytest.approx(absolute, rel=1e-12)


# ---------------------------------------------------------------------------
# assemble_X


def test_assemble_X_zero():
    assert np.all(assemble_X(np.zeros((3, 2))) == 0.0)


def test_assemble_X_orthonormal_columns():
    Y = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(assemble_X(Y), np.diag([1.0, 1.0, 0.0]))


@pytest.mark.parametrize("shape", [(), (3,), (2, 2, 2)])
def test_assemble_X_refuses_a_non_matrix(shape):
    message = re.escape(f"Y must be a matrix, got shape {shape}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        assemble_X(np.ones(shape))


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
    # the planted factor is drawn from the generator after the three B_i
    rng = np.random.default_rng(4)
    for _ in range(3):
        rng.random((5, 5))
    Z = rng.random((5, 2))
    assert evaluate(inst, Z).f < 1e-20
