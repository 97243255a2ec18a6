import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from psdfit import (
    IterationRecord,
    NumericalError,
    ProblemInstance,
    SolverConfig,
    SolverResult,
    TerminationReason,
    ValidationError,
    generate_instance,
    gradient,
    objective,
    residual_error,
    solve,
)
from psdfit.linesearch import DegenerateDirectionError, exact_step
from psdfit import _kernels, linesearch
from psdfit.io import read_solution, write_solution
from psdfit.problem import evaluate
from psdfit.solver import RESTART_PERIOD, Trace, step

import golden


# ---------------------------------------------------------------------------
# step


def test_step_decreases_objective_from_steepest_descent():
    inst = golden.instance(2)
    Y = golden.Y0_RANK2
    at = evaluate(inst, Y)
    f0 = at.f
    Y1, at1, D1, record = step(inst, Y, at, -at.grad, index=1)
    g1 = at1.grad
    assert record.index == 1
    assert record.step > 0.0
    assert record.f_value < f0
    assert record.f_value == pytest.approx(objective(inst, Y1), rel=1e-12)
    assert record.grad_norm == np.linalg.norm(g1)
    # the produced direction must satisfy the descent test
    assert float(np.sum(g1 * D1)) < 0.0


def test_step_mixes_by_the_ratio_of_squared_gradient_norms():
    inst = golden.instance(2)
    Y = golden.Y0_RANK2
    at = evaluate(inst, Y)
    Y1, at1, D1, first = step(inst, Y, at, -at.grad, index=1)
    g1, gg1 = at1.grad, at1.gg
    assert gg1 == g1.ravel().dot(g1.ravel())
    Y2, at2, D2, record = step(inst, Y1, at1, D1, index=2)
    g2, gg2 = at2.grad, at2.gg
    assert record.beta != 0.0  # a mixed, not a restarted, direction
    assert record.beta == g2.ravel().dot(g2.ravel()) / g1.ravel().dot(g1.ravel())
    assert record.grad_norm == math.sqrt(g2.ravel().dot(g2.ravel()))
    assert gg2 == g2.ravel().dot(g2.ravel())
    assert np.array_equal(D2, -g2 + record.beta * D1)


def test_fr_beta_equal_gradients():
    # equal squared gradient norms before and after the step give beta = 1
    inst = golden.instance(2)
    Y = golden.Y0_RANK2
    at = evaluate(inst, Y)
    _, at1, _, _ = step(inst, Y, at, -at.grad)
    _, _, D1, record = step(inst, Y, dataclasses.replace(at, gg=at1.gg), -at.grad)
    assert record.beta == 1.0
    assert np.array_equal(D1, -at1.grad - at.grad)


def test_fr_beta_norm_ratio():
    # a next squared norm a quarter of the current one gives beta = 0.25
    inst = golden.instance(2)
    Y = golden.Y0_RANK2
    at = evaluate(inst, Y)
    _, at1, _, _ = step(inst, Y, at, -at.grad)
    _, _, _, record = step(inst, Y, dataclasses.replace(at, gg=4.0 * at1.gg), -at.grad)
    assert record.beta == 0.25


def test_fr_beta_zero_next():
    # the exact step from y = 1 lands on the root y = 2 of y^2 = 4, where
    # the next gradient vanishes exactly, so beta is 0
    inst = ProblemInstance(pairs=((np.array([[4.0]]), np.eye(1)),), n=1, k=1)
    Y = np.ones((1, 1))
    at = evaluate(inst, Y)
    Y1, at1, D1, record = step(inst, Y, at, -at.grad)
    assert np.array_equal(Y1, [[2.0]])
    assert at1.gg == 0.0
    assert not at1.grad.any()
    assert record.beta == 0.0
    assert not D1.any()


def test_step_from_a_zero_gradient_raises_before_mixing():
    inst = golden.instance(2)
    zero = np.zeros((inst.n, inst.k))
    at = dataclasses.replace(evaluate(inst, golden.Y0_RANK2), grad=zero, gg=0.0)
    with pytest.raises(DegenerateDirectionError):
        step(inst, golden.Y0_RANK2, at, -zero)


def test_step_from_a_stationary_Y_resets_the_direction():
    # the gradient at Y = 0 is 0, so beta has no denominator, yet a caller's
    # D still finds a step there; the next direction is steepest descent
    inst = generate_instance(4, 2, m=2, seed=0, mode="consistent")
    Y = np.zeros((4, 2))
    at = evaluate(inst, Y)
    assert at.gg == 0.0
    Y1, at1, D1, record = step(inst, Y, at, np.ones((4, 2)))
    assert record.beta == 0.0 and record.step > 0.0
    assert at1.f < at.f
    assert np.array_equal(D1, -at1.grad)


@pytest.mark.parametrize(
    "index",
    [RESTART_PERIOD - 1, RESTART_PERIOD, RESTART_PERIOD + 1, 2 * RESTART_PERIOD],
)
def test_step_force_restart_resets_direction(index):
    # the step that makes a multiple of the period resets; its neighbours mix
    inst = golden.instance(2)
    Y = golden.Y0_RANK2
    at = evaluate(inst, Y)
    Y1, at1, D1, record = step(inst, Y, at, -at.grad, index=index)
    assert record.index == index
    if index % RESTART_PERIOD == 0:
        assert record.beta == 0.0
        assert np.array_equal(D1, -at1.grad)
    else:
        assert record.beta > 0.0
        assert not np.array_equal(D1, -at1.grad)


def test_step_raises_when_the_negative_gradient_is_no_descent(monkeypatch):
    # there is no retry when D already is -grad
    calls = []

    def no_descent(*args):
        calls.append(args)
        raise DegenerateDirectionError("no descent")

    monkeypatch.setattr(linesearch, "exact_step", no_descent)
    inst = golden.instance(2)
    Y = golden.Y0_RANK2
    at = evaluate(inst, Y)
    with pytest.raises(DegenerateDirectionError):
        step(inst, Y, at, -at.grad)
    assert len(calls) == 1


def test_step_retries_a_zero_direction_along_the_negative_gradient():
    # any failed search along a mixed D is retried, not only a non-descent one
    inst = golden.instance(2)
    Y = golden.Y0_RANK2
    at = evaluate(inst, Y)
    _, _, _, record = step(inst, Y, at, np.zeros_like(at.grad))
    _, _, _, expected = step(inst, Y, at, -at.grad)
    assert record == expected


def test_step_retries_a_non_descent_direction_along_the_negative_gradient():
    inst = golden.instance(2)
    Y = golden.Y0_RANK2
    at = evaluate(inst, Y)
    g = at.grad
    with pytest.raises(DegenerateDirectionError):
        exact_step(inst, Y, g, at)
    Y1, at1, D1, record = step(inst, Y, at, g)
    Y2, at2, D2, expected = step(inst, Y, at, -g)
    assert np.array_equal(Y1, Y2)
    assert np.array_equal(at1.grad, at2.grad)
    assert at1.gg == at2.gg
    assert np.array_equal(D1, D2)
    assert record == expected


# ---------------------------------------------------------------------------
# solve: trace invariants


@pytest.fixture(scope="module")
def golden_run():
    inst = golden.instance(2)
    return solve(inst, golden.Y0_RANK2)


def test_solve_initial_record(golden_run):
    first = golden_run.trace[0]
    assert first.index == 0
    assert first.step == 0.0
    assert first.beta == 0.0
    inst = golden.instance(2)
    assert first.f_value == pytest.approx(objective(inst, golden.Y0_RANK2), rel=1e-12)


def test_solve_trace_indices_are_contiguous(golden_run):
    assert [r.index for r in golden_run.trace] == list(
        range(golden_run.iterations + 1)
    )


def test_solve_objective_is_nonincreasing(golden_run):
    f = [r.f_value for r in golden_run.trace]
    assert all(b <= a for a, b in zip(f, f[1:]))


def test_solve_converged_iff_gradient_below_tolerance(golden_run):
    assert golden_run.converged
    assert golden_run.termination_reason is TerminationReason.GRADIENT_TOLERANCE
    assert golden_run.trace[-1].grad_norm < SolverConfig().epsilon
    assert all(r.grad_norm >= SolverConfig().epsilon for r in golden_run.trace[:-1])


def test_solve_reaches_the_known_optimum(golden_run):
    assert golden_run.trace[-1].f_value == pytest.approx(2.7398114, abs=1e-3)
    assert np.max(np.abs(golden_run.X_final - golden.X_HAT)) < 5e-4


def test_solve_periodic_restart_recorded(golden_run):
    restarted = [r for r in golden_run.trace[1:] if r.index % RESTART_PERIOD == 0]
    assert restarted  # the golden run is long enough to hit the period
    assert all(r.beta == 0.0 for r in restarted)


def test_solve_rank3_also_converges():
    inst = golden.instance(3)
    result = solve(inst, golden.Y0_RANK3)
    assert result.converged
    assert result.trace[-1].f_value == pytest.approx(2.7398114, abs=1e-3)
    assert np.max(np.abs(result.X_final - golden.X_HAT)) < 5e-4


def test_solve_max_iterations():
    inst = golden.instance(2)
    result = solve(inst, golden.Y0_RANK2, SolverConfig(max_iterations=3))
    assert not result.converged
    assert result.termination_reason is TerminationReason.MAX_ITERATIONS
    assert result.iterations == 3
    assert len(result.trace) == 4


def test_solve_immediate_convergence_at_stationary_start():
    # starting at the planted factor, the gradient vanishes exactly
    Z = np.array([[1.0], [2.0]])
    inst = ProblemInstance(pairs=((Z @ Z.T, np.eye(2)),), n=2, k=1)
    result = solve(inst, Z)
    assert result.converged
    assert result.iterations == 0
    assert len(result.trace) == 1


def test_solve_planted_instance_recovers_exact_fit():
    inst = generate_instance(4, 2, m=2, seed=11, mode="consistent")
    result = solve(
        inst, config=SolverConfig(epsilon=1e-7, max_iterations=20000), seed=0
    )
    assert result.converged
    assert result.trace[-1].f_value < 1e-8
    assert result.trace[-1].residual < 1e-4


def test_solve_identity_maps_single_pair():
    # m = 1, B = I: the optimum is the rank-k eigenvalue truncation, and a
    # consistent A = Z Z^T with rank(Z) = k is fit exactly
    rng = np.random.default_rng(7)
    Z = rng.random((4, 2))
    inst = ProblemInstance(pairs=((Z @ Z.T, np.eye(4)),), n=4, k=2)
    result = solve(
        inst, config=SolverConfig(epsilon=1e-8, max_iterations=20000), seed=1
    )
    assert result.converged
    assert np.max(np.abs(result.X_final - Z @ Z.T)) < 1e-6


def fail_line_search_after(monkeypatch, searches):
    """Make every line search after the first `searches` degenerate."""
    exact_step_ = linesearch.exact_step
    calls = []

    def degenerate(*args):
        calls.append(args)
        if len(calls) > searches:
            raise DegenerateDirectionError("degenerate")
        return exact_step_(*args)

    monkeypatch.setattr(linesearch, "exact_step", degenerate)


def test_solve_stops_at_a_degenerate_direction(tmp_path, monkeypatch):
    fail_line_search_after(monkeypatch, 3)
    result = solve(golden.instance(2), golden.Y0_RANK2)
    assert result.termination_reason is TerminationReason.DEGENERATE_DIRECTION
    assert not result.converged
    # the three steps taken are kept, and the result is at the last of them
    assert result.iterations == 3
    assert [r.index for r in result.trace] == [0, 1, 2, 3]
    assert result.trace[-1].f_value == objective(golden.instance(2), result.Y_final)
    path = tmp_path / "sol.txt"
    write_solution(path, result)
    assert read_solution(path).termination == "degenerate-direction"


def test_solve_never_steps_uphill_at_the_rounding_floor():
    # at iteration 8365 of this solve a line search whose small critical
    # point rounded below 0 once took f from 3.9e-17 to 7.3e11, above f_0;
    # no recorded f may exceed its predecessor by more than the rounding
    # allowance of the benchmark's trace check, 2 sqrt(f) tau + tau^2 with
    # tau = 4 u Sum (||A_i|| + ||B_i||^2 ||X||) at the returned X
    base = generate_instance(8, 3, m=3, seed=0, mode="consistent")
    pairs = tuple((1e4 * A, 100.0 * B) for A, B in base.pairs)
    inst = ProblemInstance(pairs=pairs, n=8, k=3)
    result = solve(inst, config=SolverConfig(epsilon=1e-6), seed=18)
    u = np.finfo(np.float64).eps / 2
    x = np.linalg.norm(result.X_final)
    norms = sum(np.linalg.norm(A) + np.linalg.norm(B) ** 2 * x for A, B in pairs)
    tau = 4.0 * u * norms
    f = [r.f_value for r in result.trace]
    rises = [b - a - (2.0 * math.sqrt(a) * tau + tau * tau) for a, b in zip(f, f[1:])]
    assert max(rises) <= 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_solve_rejects_a_non_finite_start(bad):
    Y0 = golden.Y0_RANK2.copy()
    Y0[2, 1] = bad
    with pytest.raises(ValueError, match="Y0 has non-finite entries"):
        solve(golden.instance(2), Y0)


@pytest.mark.parametrize("start", ["zero", "ones-column", "equal-columns"])
def test_solve_rejects_a_rank_deficient_start(start):
    # every iterate keeps Y0's right null space, so the fit cannot reach rank k
    inst = generate_instance(8, 3, m=3, seed=0, mode="consistent")
    Y0 = np.zeros((8, 3))
    if start == "ones-column":
        Y0[:, 0] = 1.0
    elif start == "equal-columns":
        Y0 = np.random.default_rng(0).random((8, 3))
        Y0[:, 2] = Y0[:, 1]
    rank = {"zero": 0, "ones-column": 1, "equal-columns": 2}[start]
    with pytest.raises(ValueError, match=f"Y0 has column rank {rank}, below k=3"):
        solve(inst, Y0, SolverConfig(epsilon=1e-7))


@pytest.mark.filterwarnings("ignore:overflow")
def test_solve_overflow_raises_numerical_error():
    huge = np.full((2, 2), 1e200)
    inst = ProblemInstance(pairs=((huge, np.eye(2)),), n=2, k=1)
    with pytest.raises(NumericalError):
        solve(inst, np.ones((2, 1)))


@pytest.mark.filterwarnings("ignore:overflow")
def test_solve_non_finite_step_polynomial_raises_numerical_error():
    # f and the gradient are finite at Y0, but the step polynomial along the
    # unit direction overflows
    B = np.array([[1e77, 2e77], [1e77, 1e77]])
    inst = ProblemInstance(pairs=((np.eye(2), B),), n=2, k=1)
    with pytest.raises(NumericalError, match="step polynomial.* at iteration 1$"):
        solve(inst, np.array([[1e-80], [3e-80]]))


def test_solve_callback_sees_every_iteration():
    inst = golden.instance(2)
    seen = []

    def cb(record, Y, grad, direction):
        assert isinstance(record, IterationRecord)
        assert Y.shape == (4, 2)
        assert grad.shape == (4, 2)
        assert direction.shape == (4, 2)
        seen.append(record)

    result = solve(inst, golden.Y0_RANK2, SolverConfig(max_iterations=10), callback=cb)
    assert seen == result.trace[1:]


def test_solve_trace_is_a_sequence_of_records():
    result = solve(golden.instance(2), golden.Y0_RANK2, SolverConfig(max_iterations=10))
    trace = result.trace
    records = list(trace)
    assert len(trace) == len(records) == result.iterations + 1 == 11
    assert [r.index for r in records] == list(range(11))
    assert all(isinstance(r, IterationRecord) for r in records)
    assert trace[-1] == records[10] and trace[-1].index == 10
    assert trace[-11] == trace[0] == records[0]
    for past in (11, -12):
        with pytest.raises(IndexError):
            trace[past]
    assert trace[2:5] == records[2:5] and trace[::-3] == records[::-3]
    assert trace[20:] == []
    assert trace == trace and trace == records and records == trace
    assert (Trace() == 3) is False and trace != 3
    changed = records[:-1] + [dataclasses.replace(records[-1], beta=1.0)]
    assert trace != records[:-1] and trace != changed and changed != trace
    shorter = solve(golden.instance(2), golden.Y0_RANK2, SolverConfig(max_iterations=9))
    assert trace != shorter.trace and shorter.trace == records[:-1]


def test_solve_trace_costs_under_64_bytes_per_iteration():
    # each iteration adds five float64 fields to the trace, not a record
    inst = generate_instance(6, 2, m=3, seed=0)

    def run(cap):
        # an outer tracemalloc session (python -X tracemalloc) is left running
        config = SolverConfig(epsilon=1e-300, max_iterations=cap)
        outer = tracemalloc.is_tracing()
        if not outer:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            result = solve(inst, config=config, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if not outer:
                tracemalloc.stop()
        return result.iterations, peak - before

    (short, short_peak), (long, long_peak) = run(200), run(2000)
    assert short == 200 and long > 400
    assert (long_peak - short_peak) / (long - short) < 64


def test_solve_restarts_on_every_multiple_of_the_period():
    # a run past two periods: each multiple of RESTART_PERIOD records beta = 0
    inst = generate_instance(6, 2, m=3, seed=0)
    config = SolverConfig(epsilon=1e-300, max_iterations=450)
    result = solve(inst, config=config, seed=1)
    assert result.iterations > 2 * RESTART_PERIOD
    assert result.trace[RESTART_PERIOD].beta == 0.0
    assert result.trace[2 * RESTART_PERIOD].beta == 0.0
    # the reset is the periodic one: the FR direction before it was kept
    assert result.trace[2 * RESTART_PERIOD - 1].beta > 0.0


def test_solve_trace_metrics_equal_the_public_functions():
    inst = generate_instance(6, 2, m=10, seed=7)
    seen = []

    def cb(record, Y, grad, direction):
        assert record.f_value == objective(inst, Y)
        assert record.residual == residual_error(inst, Y)
        assert np.array_equal(grad, gradient(inst, Y))
        seen.append(record.index)

    solve(inst, config=SolverConfig(max_iterations=30), seed=1, callback=cb)
    assert seen == list(range(1, 31))


def test_solve_is_deterministic():
    inst = generate_instance(4, 2, m=2, seed=3)
    cfg = SolverConfig(max_iterations=50)
    a = solve(inst, config=cfg, seed=9)
    b = solve(inst, config=cfg, seed=9)
    assert len(a.trace) == len(b.trace)
    for ra, rb in zip(a.trace, b.trace):
        assert ra == rb
    assert np.array_equal(a.Y_final, b.Y_final)


def test_solve_seed_matches_explicit_start():
    inst = generate_instance(3, 2, m=1, seed=5)
    cfg = SolverConfig(max_iterations=25)
    Y0 = np.random.default_rng(42).random((3, 2))
    assert solve(inst, config=cfg, seed=42).trace == solve(inst, Y0, cfg).trace


def test_solve_rejects_invalid_instance():
    # an invalid instance cannot be built, so solve never sees one
    with pytest.raises(ValidationError):
        ProblemInstance(pairs=((np.ones((2, 2)), np.ones((2, 3))),), n=3, k=5)


def test_solve_rejects_non_finite_data():
    B = np.eye(2)
    B[0, 0] = np.inf
    with pytest.raises(ValidationError, match="B has non-finite"):
        ProblemInstance(pairs=((np.eye(2), B),), n=2, k=1)


def test_solve_zero_targets_converges_to_zero():
    # all A_i = 0 is a legitimate instance whose optimum is X = 0
    base = generate_instance(4, 2, m=2, seed=0)
    inst = ProblemInstance(
        pairs=tuple((np.zeros_like(A), B) for A, B in base.pairs), n=4, k=2
    )
    result = solve(inst, config=SolverConfig(epsilon=1e-8))
    assert result.termination_reason is TerminationReason.GRADIENT_TOLERANCE
    assert np.max(np.abs(result.X_final)) < 1e-4
    assert result.trace[-1].f_value < 1e-10


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)
    for epsilon in ("1e-4", None, math.inf, math.nan, True):
        with pytest.raises(ValueError, match="epsilon"):
            SolverConfig(epsilon=epsilon)
    # counts are integers, and a bool is none: 2.5 iterations would run 3
    for max_iterations in (2.5, True):
        with pytest.raises(ValueError, match="max_iterations"):
            SolverConfig(max_iterations=max_iterations)
    SolverConfig(epsilon=np.float32(1e-3), max_iterations=np.int64(3))
    fields = [f.name for f in dataclasses.fields(SolverConfig)]
    assert fields == ["epsilon", "max_iterations"]
    # frozen, so a config stays as checked
    with pytest.raises(dataclasses.FrozenInstanceError):
        SolverConfig().max_iterations = 0


def test_solver_result_termination_values():
    assert TerminationReason.GRADIENT_TOLERANCE.value == "gradient-tolerance"
    assert TerminationReason.MAX_ITERATIONS.value == "max-iterations"
    assert TerminationReason.DEGENERATE_DIRECTION.value == "degenerate-direction"
    assert isinstance(solve(golden.instance(2), golden.Y0_RANK2), SolverResult)


def reference_solve(inst, Y0, config):
    """`solve`'s trace columns and Y_final, from the public functions alone.

    Each iterate and direction goes through the public, checking
    `evaluate` and `exact_step`; beta is the Fletcher-Reeves ratio, reset
    to 0 on each multiple of RESTART_PERIOD and when the mixed direction
    fails the descent test, and a failed search along a mixed direction is
    retried once along -grad.
    """
    Y = Y0
    at = evaluate(inst, Y)
    rows = [(at.f, math.sqrt(at.gg), at.residual, 0.0, 0.0)]
    D = -at.grad
    for index in range(1, config.max_iterations + 1):
        if rows[-1][1] < config.epsilon:
            break
        try:
            found = exact_step(inst, Y, D, at)
        except DegenerateDirectionError:
            if np.array_equal(D, -at.grad):
                break
            D = -at.grad
            try:
                found = exact_step(inst, Y, D, at)
            except DegenerateDirectionError:
                break
        Y = Y + found.t_star * D
        at_next = evaluate(inst, Y)
        beta = at_next.gg / at.gg if at.gg else 0.0
        D = beta * D - at_next.grad
        if index % RESTART_PERIOD == 0 or at_next.grad.ravel().dot(D.ravel()) >= 0.0:
            beta = 0.0
            D = -at_next.grad
        at = at_next
        rows.append((at.f, math.sqrt(at.gg), at.residual, found.t_star, beta))
    return [np.array(column) for column in zip(*rows)], Y


BITWISE_CASES = ["one-stack", "runs-cross-stacks", "tall-pairs"]


def bitwise_case(monkeypatch, case):
    """The instance of one of BITWISE_CASES, with the Gram budget it needs."""
    if case == "one-stack":
        inst = generate_instance(6, 2, m=3, seed=1)
        assert len(inst._stacks) == 1
    elif case == "runs-cross-stacks":
        # stacks of 3, 3 and 2 pairs; Gram runs of 2 pairs, the second of
        # which takes the last pair of stack 0 and the first of stack 1
        inst = generate_instance(6, 2, sizes=[3, 3, 3, 4, 4, 4, 5, 5], seed=2)
        assert [len(A) for A, _, _ in inst._stacks] == [3, 3, 2]
        monkeypatch.setattr(_kernels, "GRAM_ENTRIES", 2 * 4 * inst.k**2)
    else:
        # pairs 0 and 2 are taller than n and reduced, with c_i != 0
        inst = generate_instance(4, 2, sizes=[7, 3, 6], seed=3)
        assert [c.tolist() for _, _, c in inst._stacks][1] == [0.0]
        assert all(c[0] > 0.0 for _, _, c in inst._stacks[::2])
    return inst


@pytest.mark.parametrize("case", BITWISE_CASES)
def test_solve_is_bitwise_the_public_functions(monkeypatch, case):
    # solve evaluates the iterates it forms without checking them again; that
    # path must give what the checking public functions give, bit for bit
    inst = bitwise_case(monkeypatch, case)
    Y0 = np.random.default_rng(0).random((inst.n, inst.k))
    config = SolverConfig(epsilon=1e-12, max_iterations=RESTART_PERIOD + 20)
    result = solve(inst, Y0, config)
    columns, Y_final = reference_solve(inst, Y0, config)
    assert result.iterations == len(columns[0]) - 1
    for got, want in zip(result.trace.columns, columns, strict=True):
        assert np.array(got).tobytes() == want.tobytes()
    assert result.Y_final.tobytes() == Y_final.tobytes()


@pytest.mark.parametrize("case", BITWISE_CASES)
def test_exact_step_is_the_public_polynomial_minimized(monkeypatch, case):
    # exact_step is minimize_quartic(quartic_coeffs(...)) along D/||D||_F,
    # with t* mapped back to D's length and phi(t*) as found, bit for bit
    inst = bitwise_case(monkeypatch, case)
    rng = np.random.default_rng(5)
    Y = rng.random((inst.n, inst.k))
    at = evaluate(inst, Y)
    for D in (-3.7 * at.grad, rng.random(Y.shape) - 0.5 - 2.0 * at.grad):
        nrm = np.linalg.norm(D)
        assert nrm != 1.0
        unit = linesearch.minimize_quartic(linesearch.quartic_coeffs(inst, Y, D / nrm, at))
        want = (unit.t_star / nrm, unit.phi_at_t)
        assert [x.hex() for x in exact_step(inst, Y, D, at)] == [x.hex() for x in want]
