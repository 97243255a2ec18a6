"""End-to-end acceptance checks for the solver's published contract.

Each test prints one pass/fail line (kept visible by bypassing capture) and
asserts the same verdict, so this module doubles as a sign-off checklist:

    pytest tests/test_acceptance.py

covers the golden regression cases, the derivative and line-search algebra,
the analytic single-pair oracle, planted-solution recovery, the PSD output
contract, and serialization stability.
"""

import time
from dataclasses import dataclass

import numpy as np
import pytest

from psdfit import (
    ProblemInstance,
    SolverConfig,
    SolverResult,
    generate_instance,
    gradient,
    objective,
    read_problem,
    solve,
    write_problem,
)
from psdfit.io import read_solution, write_solution, write_trace
from psdfit.linesearch import exact_step, quartic_coeffs
from psdfit.oracle import fd_gradient, interpolate_quartic, psd_truncation
from psdfit.solver import multistart_solve

import golden

EXACT_CONFIG = SolverConfig(epsilon=1e-7, max_iterations=20000)


def announce(capsys, num, label, ok, detail=""):
    with capsys.disabled():
        print(f"\ncriterion {num:2d} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed: {detail}"


@dataclass
class TrackedRun:
    result: SolverResult
    slopes: list  # tr(grad^T direction) after each iteration
    instance: ProblemInstance
    seconds: float


def tracked_solve(instance, Y0=None, config=None, seed=0):
    slopes = []

    def watch(record, Y, grad, direction):
        slopes.append(float(np.sum(grad * direction)))

    begin = time.perf_counter()
    result = solve(instance, Y0, config, seed=seed, callback=watch)
    seconds = time.perf_counter() - begin
    return TrackedRun(result, slopes, instance, seconds)


@pytest.fixture(scope="module")
def case1():
    return tracked_solve(golden.instance(2), golden.Y0_RANK2)


@pytest.fixture(scope="module")
def case2():
    return tracked_solve(golden.instance(3), golden.Y0_RANK3)


@pytest.fixture(scope="module")
def planted_runs():
    runs = []
    for s in range(50):
        dims = np.random.default_rng(2000 + s)
        n = int(dims.integers(2, 9))
        k = int(dims.integers(1, min(4, n) + 1))
        m = int(dims.integers(1, 4))
        inst = generate_instance(n, k, m=m, seed=3000 + s, mode="consistent")
        runs.append(tracked_solve(inst, config=EXACT_CONFIG, seed=s))
    return runs


@pytest.fixture(scope="module")
def oracle_runs():
    out = []  # (multistart result, analytic optimum, instance)
    for s in range(10):
        rng = np.random.default_rng(1000 + s)
        n = int(rng.integers(2, 7))
        A = rng.random((n, n))
        for k in sorted({1, 2, n}):
            inst = ProblemInstance(pairs=((A, np.eye(n)),), n=n, k=k)
            ms = multistart_solve(inst, EXACT_CONFIG, num_starts=5, seed=s)
            f_oracle = float(np.linalg.norm(A - psd_truncation(A, k), "fro") ** 2)
            out.append((ms, f_oracle, inst))
    return out


def test_criterion_1_rank2_golden_case(case1, capsys):
    r = case1.result
    max_diff = float(np.abs(r.X_final - golden.X_HAT).max())
    ok = (
        r.converged
        and max_diff < 1e-3
        and 100 <= r.iterations <= 600
        and case1.seconds < 1.0
    )
    announce(
        capsys,
        1,
        "rank-2 golden case",
        ok,
        f"converged={r.converged}, |X-Xhat|={max_diff:.2e}, "
        f"iterations={r.iterations}, {case1.seconds:.3f}s",
    )


def test_criterion_2_rank3_golden_case(case2, capsys):
    r = case2.result
    max_diff = float(np.abs(r.X_final - golden.X_HAT).max())
    ok = r.converged and max_diff < 1e-3 and 100 <= r.iterations <= 600
    announce(
        capsys,
        2,
        "rank-3 start, same optimizer",
        ok,
        f"converged={r.converged}, |X-Xhat|={max_diff:.2e}, "
        f"iterations={r.iterations}",
    )


def test_criterion_3_gradient_vs_finite_differences(capsys):
    worst = 0.0
    for s in range(20):
        dims = np.random.default_rng(100 + s)
        n = int(dims.integers(2, 7))
        k = int(dims.integers(1, min(3, n) + 1))
        m = int(dims.integers(1, 4))
        inst = generate_instance(n, k, m=m, seed=s)
        Y = np.random.default_rng(500 + s).standard_normal((n, k))
        g = gradient(inst, Y)
        g_fd = fd_gradient(inst, Y)
        rel = np.abs(g - g_fd) / np.maximum(1.0, np.maximum(np.abs(g), np.abs(g_fd)))
        worst = max(worst, float(rel.max()))
    ok = worst < 1e-6
    announce(capsys, 3, "analytic gradient", ok, f"worst entry rel {worst:.2e}")


def test_criterion_4_line_search_coefficients(capsys):
    worst_coeff = 0.0
    worst_slope = 0.0
    for s in range(20):
        dims = np.random.default_rng(200 + s)
        n = int(dims.integers(2, 7))
        k = int(dims.integers(1, min(3, n) + 1))
        m = int(dims.integers(1, 4))
        inst = generate_instance(n, k, m=m, seed=s)
        pts = np.random.default_rng(600 + s)
        Y = pts.standard_normal((n, k))
        D = pts.standard_normal((n, k))
        p = quartic_coeffs(inst, Y, D)
        q = interpolate_quartic(inst, Y, D)
        for a, b in zip((p.a0, p.a1, p.a2, p.a3, p.a4), (q.a0, q.a1, q.a2, q.a3, q.a4)):
            worst_coeff = max(worst_coeff, abs(a - b) / max(1.0, abs(a), abs(b)))
        slope = float(np.trace(gradient(inst, Y).T @ D))
        worst_slope = max(worst_slope, abs(p.a1 - slope) / max(1.0, abs(slope)))
    ok = worst_coeff < 1e-8 and worst_slope < 1e-10
    announce(
        capsys,
        4,
        "step polynomial coefficients",
        ok,
        f"coeff rel {worst_coeff:.2e}, a1-slope rel {worst_slope:.2e}",
    )


def test_criterion_5_exact_step_grid_optimality(capsys):
    worst_gap = -np.inf
    for s in range(20):
        dims = np.random.default_rng(300 + s)
        n = int(dims.integers(2, 7))
        k = int(dims.integers(1, min(3, n) + 1))
        m = int(dims.integers(1, 4))
        inst = generate_instance(n, k, m=m, seed=s)
        pts = np.random.default_rng(700 + s)
        Y = pts.standard_normal((n, k))
        D = pts.standard_normal((n, k))
        if float(np.sum(gradient(inst, Y) * D)) > 0.0:
            D = -D  # keep the sampled line, pointed downhill
        found = exact_step(inst, Y, D)
        p = quartic_coeffs(inst, Y, D)
        grid = np.linspace(0.0, 10.0 * found.t_star, 100_001)[1:]
        vals = np.polyval([p.a4, p.a3, p.a2, p.a1, p.a0], grid)
        gap = float(found.phi_at_t - vals.min())  # positive = suboptimal
        worst_gap = max(worst_gap, gap - 1e-8 * (1.0 + abs(found.phi_at_t)))
    ok = worst_gap <= 0.0
    announce(capsys, 5, "exact step grid optimality", ok, f"worst excess {worst_gap:.2e}")


def test_criterion_6_descent_and_monotonicity(case1, case2, planted_runs, capsys):
    runs = [case1, case2, *planted_runs]
    bad_slope = sum(sum(1 for s in run.slopes if not s < 0.0) for run in runs)
    bad_monotone = 0
    for run in runs:
        f = [r.f_value for r in run.result.trace]
        bad_monotone += sum(1 for a, b in zip(f, f[1:]) if b > a)
    ok = bad_slope == 0 and bad_monotone == 0
    announce(
        capsys,
        6,
        "descent directions, monotone objective",
        ok,
        f"{bad_slope} non-descent directions, {bad_monotone} objective increases "
        f"across {len(runs)} runs",
    )


def test_criterion_7_single_pair_analytic_oracle(oracle_runs, capsys):
    worst = 0.0
    for ms, f_oracle, _ in oracle_runs:
        f_best = ms.best.trace[-1].f_value
        worst = max(worst, abs(f_best - f_oracle) / max(1.0, abs(f_oracle)))
    ok = worst < 1e-6
    announce(
        capsys,
        7,
        "eigen-truncation oracle (m=1, B=I)",
        ok,
        f"worst rel gap {worst:.2e} over {len(oracle_runs)} fits",
    )


def test_criterion_8_planted_solution_recovery(planted_runs, capsys):
    hits = sum(1 for run in planted_runs if run.result.trace[-1].f_value < 1e-8)
    misses = [
        (i, run.result.trace[-1].f_value)
        for i, run in enumerate(planted_runs)
        if run.result.trace[-1].f_value >= 1e-8
    ]
    ok = hits >= 48  # 95% of 50
    announce(
        capsys,
        8,
        "planted-solution recovery",
        ok,
        f"{hits}/50 reached f < 1e-8; misses: {misses}",
    )


def test_criterion_9_psd_output_contract(case1, case2, planted_runs, oracle_runs, capsys):
    outputs = [(case1.result, 2), (case2.result, 3)]
    outputs += [(run.result, run.instance.k) for run in planted_runs]
    outputs += [(ms.best, inst.k) for ms, _, inst in oracle_runs]
    worst_eig = 0.0
    worst_sv = 0.0
    for result, k in outputs:
        X = result.X_final
        scale = 1.0 + float(np.linalg.norm(X))
        eig_min = float(np.linalg.eigvalsh(X).min())
        worst_eig = max(worst_eig, -eig_min / scale)
        sv = np.linalg.svd(X, compute_uv=False)
        if k < X.shape[0]:
            worst_sv = max(worst_sv, float(sv[k]) / scale)
    ok = worst_eig <= 1e-10 and worst_sv <= 1e-10
    announce(
        capsys,
        9,
        "PSD and rank contract on X",
        ok,
        f"worst -eig/scale {worst_eig:.2e}, worst sigma_(k+1)/scale {worst_sv:.2e} "
        f"over {len(outputs)} outputs",
    )


def test_criterion_10_serialization_round_trips(tmp_path, capsys):
    inst = generate_instance(5, 2, sizes=[4, 6, 5], seed=23)
    prob = tmp_path / "round.prob"
    write_problem(prob, inst)
    again = read_problem(prob)
    prob_err = max(
        float(np.abs(A1 - A2).max() / max(1.0, np.abs(A1).max()))
        for (A1, B1), (A2, B2) in zip(inst.pairs, again.pairs)
        for A1, A2 in ((A1, A2), (B1, B2))
    )

    result = solve(again, config=SolverConfig(max_iterations=500), seed=3)
    sol = tmp_path / "round.sol"
    write_solution(sol, result)
    summary = read_solution(sol)
    last = result.trace[-1]
    sol_err = max(
        float(np.abs(summary.X - result.X_final).max()),
        abs(summary.f_value - last.f_value) / max(1.0, abs(last.f_value)),
        abs(summary.grad_norm - last.grad_norm) / max(1.0, last.grad_norm),
        abs(summary.residual - last.residual) / max(1.0, last.residual),
    )

    t1 = tmp_path / "t1.csv"
    t2 = tmp_path / "t2.csv"
    write_trace(t1, solve(again, config=SolverConfig(max_iterations=80), seed=5).trace)
    write_trace(t2, solve(again, config=SolverConfig(max_iterations=80), seed=5).trace)
    traces_identical = t1.read_bytes() == t2.read_bytes()

    ok = prob_err < 1e-12 and sol_err < 1e-12 and traces_identical
    announce(
        capsys,
        10,
        "serialization round-trips",
        ok,
        f"problem rel {prob_err:.2e}, solution rel {sol_err:.2e}, "
        f"identical traces: {traces_identical}",
    )
