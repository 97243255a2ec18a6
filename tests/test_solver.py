import dataclasses
import math

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
from psdfit.linesearch import (
    DegenerateDirectionError,
    NonDescentDirectionError,
    exact_step,
)
from psdfit import linesearch, solver
from psdfit.io import read_solution, write_solution
from psdfit.solver import multistart_solve, step

import golden


# ---------------------------------------------------------------------------
# step


def test_step_decreases_objective_from_steepest_descent():
    inst = golden.instance(2)
    Y = golden.Y0_RANK2
    g = gradient(inst, Y)
    f0 = objective(inst, Y)
    Y1, g1, gg1, D1, record = step(inst, Y, f0, g, (g * g).sum(), -g, index=1)
    assert record.index == 1
    assert record.step > 0.0
    assert record.f_value < f0
    assert record.f_value == pytest.approx(objective(inst, Y1), rel=1e-12)
    assert record.grad_norm == pytest.approx(np.linalg.norm(g1), rel=1e-12)
    # the produced direction must satisfy the descent test
    assert float(np.sum(g1 * D1)) < 0.0


def test_step_mixes_by_the_ratio_of_squared_gradient_norms():
    inst = golden.instance(2)
    Y = golden.Y0_RANK2
    g = gradient(inst, Y)
    f = objective(inst, Y)
    Y1, g1, gg1, D1, first = step(inst, Y, f, g, (g * g).sum(), -g, index=1)
    assert gg1 == (g1 * g1).sum()
    Y2, g2, gg2, D2, record = step(inst, Y1, first.f_value, g1, gg1, D1, index=2)
    assert record.beta != 0.0  # a mixed, not a restarted, direction
    assert record.beta == (g2 * g2).sum() / (g1 * g1).sum()
    assert record.grad_norm == math.sqrt((g2 * g2).sum())
    assert gg2 == (g2 * g2).sum()
    assert np.array_equal(D2, -g2 + record.beta * D1)


def test_fr_beta_equal_gradients():
    # equal squared gradient norms before and after the step give beta = 1
    inst = golden.instance(2)
    Y = golden.Y0_RANK2
    g = gradient(inst, Y)
    _, g1, gg1, _, _ = step(inst, Y, objective(inst, Y), g, (g * g).sum(), -g)
    _, _, _, D1, record = step(inst, Y, objective(inst, Y), g, gg1, -g)
    assert record.beta == 1.0
    assert np.array_equal(D1, -g1 - g)


def test_fr_beta_norm_ratio():
    # a next squared norm a quarter of the current one gives beta = 0.25
    inst = golden.instance(2)
    Y = golden.Y0_RANK2
    g = gradient(inst, Y)
    _, _, gg1, _, _ = step(inst, Y, objective(inst, Y), g, (g * g).sum(), -g)
    _, _, _, _, record = step(inst, Y, objective(inst, Y), g, 4.0 * gg1, -g)
    assert record.beta == 0.25


def test_fr_beta_zero_next():
    # the exact step from y = 1 lands on the root y = 2 of y^2 = 4, where
    # the next gradient vanishes exactly, so beta is 0
    inst = ProblemInstance(pairs=((np.array([[4.0]]), np.eye(1)),), n=1, k=1)
    Y = np.ones((1, 1))
    g = gradient(inst, Y)
    Y1, g1, gg1, D1, record = step(inst, Y, objective(inst, Y), g, (g * g).sum(), -g)
    assert np.array_equal(Y1, [[2.0]])
    assert gg1 == 0.0
    assert not g1.any()
    assert record.beta == 0.0
    assert not D1.any()


def test_step_from_a_zero_gradient_raises_before_mixing():
    inst = golden.instance(2)
    zero = np.zeros((inst.n, inst.k))
    with pytest.raises(DegenerateDirectionError):
        step(inst, golden.Y0_RANK2, objective(inst, golden.Y0_RANK2), zero, 0.0, -zero)


def test_step_force_restart_resets_direction():
    inst = golden.instance(2)
    Y = golden.Y0_RANK2
    g = gradient(inst, Y)
    f = objective(inst, Y)
    Y1, g1, gg1, D1, record = step(inst, Y, f, g, (g * g).sum(), -g, force_restart=True)
    assert record.beta == 0.0
    assert np.array_equal(D1, -g1)


def test_step_raises_when_the_negative_gradient_is_no_descent(monkeypatch):
    # there is no retry when D already is -grad
    calls = []

    def no_descent(*args):
        calls.append(args)
        raise NonDescentDirectionError("no descent")

    monkeypatch.setattr(linesearch, "exact_step", no_descent)
    inst = golden.instance(2)
    Y = golden.Y0_RANK2
    g = gradient(inst, Y)
    with pytest.raises(NonDescentDirectionError):
        step(inst, Y, objective(inst, Y), g, (g * g).sum(), -g)
    assert len(calls) == 1


def test_step_retries_a_non_descent_direction_along_the_negative_gradient():
    inst = golden.instance(2)
    Y = golden.Y0_RANK2
    g = gradient(inst, Y)
    with pytest.raises(NonDescentDirectionError):
        exact_step(inst, Y, g, objective(inst, Y), g)
    f, gg = objective(inst, Y), (g * g).sum()
    Y1, g1, gg1, D1, record = step(inst, Y, f, g, gg, g)
    Y2, g2, gg2, D2, expected = step(inst, Y, f, g, gg, -g)
    assert np.array_equal(Y1, Y2)
    assert np.array_equal(g1, g2)
    assert gg1 == gg2
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
    period = SolverConfig().restart_period
    restarted = [r for r in golden_run.trace if r.index % period == 0 and r.index > 0]
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


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_solve_rejects_a_non_finite_start(bad):
    Y0 = golden.Y0_RANK2.copy()
    Y0[2, 1] = bad
    with pytest.raises(ValueError, match="Y0 has non-finite entries"):
        solve(golden.instance(2), Y0)


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


def test_solve_restart_period_none_disables_restarts():
    inst = golden.instance(2)
    cfg = SolverConfig(max_iterations=300, restart_period=None)
    result = solve(inst, golden.Y0_RANK2, cfg)
    # without the periodic reset every recorded beta after the first step is
    # the Fletcher-Reeves ratio, which is never exactly zero here
    assert all(r.beta > 0.0 for r in result.trace[2:])


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)
    with pytest.raises(ValueError):
        SolverConfig(restart_period=0)
    SolverConfig(restart_period=None)
    for epsilon in ("1e-4", None, math.inf, math.nan):
        with pytest.raises(ValueError, match="epsilon"):
            SolverConfig(epsilon=epsilon)
    # counts are integers: 2.5 iterations would run 3, and restart_period=2.5
    # would restart every 5
    with pytest.raises(ValueError, match="max_iterations"):
        SolverConfig(max_iterations=2.5)
    with pytest.raises(ValueError, match="restart_period"):
        SolverConfig(restart_period=2.5)
    SolverConfig(max_iterations=np.int64(3), restart_period=np.int32(2))
    # frozen, so a config stays as checked
    with pytest.raises(dataclasses.FrozenInstanceError):
        SolverConfig().max_iterations = 0


def test_multistart_rejects_non_integer_start_count():
    with pytest.raises(ValueError, match="num_starts"):
        multistart_solve(golden.instance(2), num_starts=2.5)


def test_multistart_skips_a_failing_start(monkeypatch):
    solve_ = solver.solve
    starts = []

    def second_start_fails(instance, Y0, config):
        starts.append(Y0)
        if len(starts) == 2:
            raise NumericalError("non-finite objective or gradient at iteration 0")
        return solve_(instance, Y0, config)

    monkeypatch.setattr(solver, "solve", second_start_fails)
    cfg = SolverConfig(max_iterations=30)
    result = multistart_solve(golden.instance(2), cfg, num_starts=3, seed=4)
    assert result.failures == [(1, "non-finite objective or gradient at iteration 0")]
    assert math.isnan(result.final_objectives[1])
    assert result.best_start in (0, 2)
    assert result.best.trace[-1].f_value == min(result.final_objectives[::2])


@pytest.mark.filterwarnings("ignore:overflow")
def test_multistart_raises_when_every_start_fails():
    huge = np.full((2, 2), 1e200)
    inst = ProblemInstance(pairs=((huge, np.eye(2)),), n=2, k=1)
    with pytest.raises(NumericalError, match="every start failed"):
        multistart_solve(inst, num_starts=3)


def test_solver_result_termination_values():
    assert TerminationReason.GRADIENT_TOLERANCE.value == "gradient-tolerance"
    assert TerminationReason.MAX_ITERATIONS.value == "max-iterations"
    assert TerminationReason.DEGENERATE_DIRECTION.value == "degenerate-direction"
    assert isinstance(solve(golden.instance(2), golden.Y0_RANK2), SolverResult)
