import inspect

import numpy as np
import pytest

import psdfit.cli
import psdfit.imagedemo
import psdfit.linesearch
import psdfit.solver
from psdfit import ProblemInstance, SolverConfig, TerminationReason
from psdfit.cli import _build_parser, main
from psdfit.imagedemo import image_demo, make_test_image, write_pgm
from psdfit.io import read_solution, read_trace, write_matrix, write_problem

import golden


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def problem_file(tmp_path):
    path = tmp_path / "small.prob"
    assert run("gen", "--n", 4, "--k", 2, "--m", 2, "--seed", 11,
               "--mode", "consistent", "--out", path) == 0
    return path


def test_gen_then_solve_end_to_end(tmp_path, problem_file, capsys):
    trace = tmp_path / "trace.csv"
    out = tmp_path / "solution.txt"
    code = run("solve", problem_file, "--tol", "1e-6", "--max-iter", "20000",
               "--seed", 0, "--trace", trace, "--out", out)
    assert code == 0
    printed = capsys.readouterr().out
    assert "termination gradient-tolerance" in printed
    records = read_trace(trace)
    assert records[-1].grad_norm < 1e-6
    summary = read_solution(out)
    assert summary.termination == "gradient-tolerance"
    assert summary.grad_norm < 1e-6
    assert summary.X.shape == (4, 4)


def test_solve_with_explicit_start(tmp_path, capsys):
    prob = tmp_path / "golden.prob"
    init = tmp_path / "y0.txt"
    write_problem(prob, golden.instance(2))
    write_matrix(init, golden.Y0_RANK2)
    assert run("solve", prob, "--init", init) == 0
    printed = capsys.readouterr().out
    assert "termination gradient-tolerance" in printed


def test_solve_seed_and_init_are_mutually_exclusive(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("solve", "x.prob", "--seed", 1, "--init", "y.txt")
    assert exc.value.code == 2


def test_solve_rank_override(tmp_path, problem_file, capsys):
    out = tmp_path / "rank1.txt"
    run("solve", problem_file, "--rank", 1, "--max-iter", 5000, "--out", out)
    capsys.readouterr()
    summary = read_solution(out)
    assert np.linalg.matrix_rank(summary.X, tol=1e-8) <= 1


def test_solve_non_convergence_exits_1(problem_file, capsys):
    assert run("solve", problem_file, "--max-iter", 1) == 1
    assert "termination max-iterations" in capsys.readouterr().out


def test_solve_degenerate_direction_exits_1(tmp_path, monkeypatch, capsys):
    def degenerate(*args):
        raise psdfit.linesearch.DegenerateDirectionError("degenerate")

    monkeypatch.setattr(psdfit.linesearch, "exact_step", degenerate)
    prob = tmp_path / "golden.prob"
    out = tmp_path / "solution.txt"
    write_problem(prob, golden.instance(2))
    assert run("solve", prob, "--out", out) == 1
    assert "termination degenerate-direction" in capsys.readouterr().out
    assert read_solution(out).termination == "degenerate-direction"


@pytest.mark.filterwarnings("ignore:overflow")
def test_solve_numerical_failure_exits_1(tmp_path, capsys):
    # f and the gradient are finite at the start, the step polynomial is not
    B = np.array([[1e77, 2e77], [1e77, 1e77]])
    prob = tmp_path / "overflow.prob"
    init = tmp_path / "y0.txt"
    write_problem(prob, ProblemInstance(pairs=((np.eye(2), B),), n=2, k=1))
    write_matrix(init, np.array([[1e-80], [3e-80]]))
    assert run("solve", prob, "--init", init) == 1
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ")
    assert "step polynomial" in err and "iteration 1" in err


@pytest.mark.parametrize(
    "limit, reason",
    [
        ((), TerminationReason.GRADIENT_TOLERANCE),
        (("--max-iter", 2), TerminationReason.MAX_ITERATIONS),
    ],
)
def test_exit_code_is_the_results_converged(tmp_path, monkeypatch, capsys, limit, reason):
    results = []

    def keep(*args, **kwargs):
        results.append(psdfit.solver.solve(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(psdfit.cli, "solve", keep)
    monkeypatch.setattr(psdfit.imagedemo, "solve", keep)
    prob = tmp_path / "golden.prob"
    img = tmp_path / "tiny.pgm"
    write_problem(prob, golden.instance(2))
    write_pgm(img, make_test_image(8, seed=1))
    codes = [
        run("solve", prob, *limit),
        run("demo-image", img, "--m", 2, *limit, "--out-dir", tmp_path / "demo"),
    ]
    capsys.readouterr()
    assert [r.termination_reason for r in results] == [reason, reason]
    assert codes == [0 if r.converged else 1 for r in results]


def test_parser_defaults_are_the_library_defaults():
    parser = _build_parser()
    args = parser.parse_args(["solve", "x.prob"])
    config = SolverConfig()
    assert (args.tol, args.max_iter) == (config.epsilon, config.max_iterations)
    args = parser.parse_args(["demo-image", "x.pgm", "--out-dir", "d"])
    params = inspect.signature(image_demo).parameters
    assert (args.tol, args.max_iter) == (
        params["tol"].default,
        params["max_iterations"].default,
    )


def test_solve_zero_targets_exits_0(tmp_path, capsys):
    base = golden.instance(2)
    zero = ProblemInstance(
        pairs=tuple((np.zeros_like(A), B) for A, B in base.pairs), n=4, k=2
    )
    prob = tmp_path / "zero.prob"
    write_problem(prob, zero)
    assert run("solve", prob) == 0
    assert "termination gradient-tolerance" in capsys.readouterr().out


def test_solve_missing_file_exits_2(tmp_path, capsys):
    assert run("solve", tmp_path / "nope.prob") == 2
    assert "error:" in capsys.readouterr().err


def test_solve_malformed_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.prob"
    bad.write_text("1 2 1\n2\n1 2\n3 oops\n1 0\n0 1\n")
    assert run("solve", bad) == 2
    assert "line 4" in capsys.readouterr().err


def test_solve_rank_outside_one_to_n_exits_2_at_line_1(tmp_path, capsys):
    bad = tmp_path / "rank.prob"
    bad.write_text("1 2 5\n1\n2\n3 4\n")
    assert run("solve", bad) == 2
    assert f"rank bound k=5 outside [1, n]=2 ({bad}, line 1)" in capsys.readouterr().err


def test_solve_pair_size_beyond_the_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "huge.prob"
    bad.write_text("1 2 1\n1000000\n5\n")
    assert run("solve", bad) == 2
    assert "line 3" in capsys.readouterr().err


def test_solve_names_the_file_that_does_not_parse(tmp_path, problem_file, capsys):
    # the problem file and the --init file are both read; the error says which
    init = tmp_path / "y0.txt"
    init.write_text("1 2\n3 x\n")
    assert run("solve", problem_file, "--init", init) == 2
    err = capsys.readouterr().err
    assert err == f"error: bad number 'x' in matrix row 1 ({init}, line 2, column 2)\n"
    bad = tmp_path / "bad.prob"
    bad.write_text("1 2 1\n1\n1\n1 x\n")
    assert run("solve", bad, "--init", init) == 2
    err = capsys.readouterr().err
    assert err == f"error: bad number 'x' in B_0 row 0 ({bad}, line 4, column 2)\n"


def test_solve_rank_deficient_init_exits_2(tmp_path, problem_file, capsys):
    init = tmp_path / "y0.txt"
    write_matrix(init, np.zeros((4, 2)))
    assert run("solve", problem_file, "--init", init) == 2
    assert "Y0 has column rank 0" in capsys.readouterr().err


def no_fit(*args, **kwargs):
    raise AssertionError("the fit ran before its output paths were checked")


@pytest.mark.parametrize("flag", ["--trace", "--out"])
def test_solve_refuses_a_missing_output_directory_before_the_fit(
    tmp_path, monkeypatch, capsys, flag
):
    monkeypatch.setattr(psdfit.cli, "solve", no_fit)
    monkeypatch.setattr(psdfit.imagedemo, "solve", no_fit)
    prob = tmp_path / "golden.prob"
    write_problem(prob, golden.instance(2))
    path = tmp_path / "nodir" / "file.txt"
    assert run("solve", prob, flag, path) == 2
    assert str(path) in capsys.readouterr().err
    assert not (tmp_path / "nodir").exists()


@pytest.mark.parametrize("flag", ["--trace", "--out"])
def test_solve_refuses_a_directory_as_output_file_before_the_fit(
    tmp_path, monkeypatch, capsys, flag
):
    monkeypatch.setattr(psdfit.cli, "solve", no_fit)
    prob = tmp_path / "golden.prob"
    write_problem(prob, golden.instance(2))
    assert run("solve", prob, flag, tmp_path) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"{tmp_path}: Is a directory" in err


@pytest.mark.parametrize("sizes", ["3,,4", "3,x", "3,4,", ",3", "", "3.5"])
def test_gen_refuses_sizes_that_are_not_integers(tmp_path, monkeypatch, capsys, sizes):
    def no_generate(*args, **kwargs):
        raise AssertionError("an instance was generated from bad --sizes")

    monkeypatch.setattr(psdfit.cli.pio, "generate_instance", no_generate)
    out = tmp_path / "x.prob"
    with pytest.raises(SystemExit) as exc:
        run("gen", "--n", 8, "--k", 3, "--sizes", sizes, "--out", out)
    assert exc.value.code == 2
    printed, err = capsys.readouterr()
    assert printed == ""
    assert "argument --sizes" in err and repr(sizes) in err
    assert not out.exists()


def test_demo_image_refuses_a_file_as_output_directory_before_the_fit(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(psdfit.cli, "solve", no_fit)
    monkeypatch.setattr(psdfit.imagedemo, "solve", no_fit)
    img = tmp_path / "tiny.pgm"
    write_pgm(img, make_test_image(8, seed=1))
    afile = tmp_path / "afile"
    afile.write_text("")
    assert run("demo-image", img, "--out-dir", afile) == 2
    assert str(afile) in capsys.readouterr().err


def test_solve_bad_rank_exits_2(problem_file, capsys):
    assert run("solve", problem_file, "--rank", 99) == 2
    capsys.readouterr()


def test_gradcheck_passes(problem_file, capsys):
    assert run("gradcheck", problem_file) == 0
    assert "PASS" in capsys.readouterr().out


def test_gradcheck_impossible_tolerance_fails(problem_file, capsys):
    assert run("gradcheck", problem_file, "--tol", "1e-18") == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("tol", ["inf", "nan", "-1", "0"])
@pytest.mark.parametrize("command", ["solve", "gradcheck", "linecheck", "demo-image"])
def test_tolerance_must_be_finite_and_positive(monkeypatch, capsys, command, tol):
    # an inf tolerance would pass any check; each is a usage error before any read
    def no_read(*args, **kwargs):
        raise AssertionError("an input was read with a bad --tol")

    monkeypatch.setattr(psdfit.cli.pio, "read_problem", no_read)
    monkeypatch.setattr(psdfit.cli, "image_demo", no_read)
    out_dir = ["--out-dir", "out"] if command == "demo-image" else []
    with pytest.raises(SystemExit) as exc:
        run(command, "input", "--tol", tol, *out_dir)
    assert exc.value.code == 2
    printed, err = capsys.readouterr()
    assert printed == ""
    assert "argument --tol" in err and repr(tol) in err


def no_input(*args, **kwargs):
    raise AssertionError("an input was read or generated with a bad number")


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("solve", "--rank", "0"),
        ("solve", "--max-iter", "0"),
        ("solve", "--seed", "-1"),
        ("gradcheck", "--seed", "-1"),
        ("linecheck", "--seed", "-1"),
        ("gen", "--n", "0"),
        ("gen", "--k", "0"),
        ("gen", "--m", "0"),
        ("gen", "--sizes", "3,0"),
        ("gen", "--seed", "-1"),
        ("demo-image", "--m", "0"),
        ("demo-image", "--rank", "0"),
        ("demo-image", "--max-iter", "0"),
        ("demo-image", "--seed", "-1"),
    ],
)
def test_numbers_are_checked_before_any_input_is_read(
    tmp_path, monkeypatch, capsys, command, flag, value
):
    monkeypatch.setattr(psdfit.cli.pio, "read_problem", no_input)
    monkeypatch.setattr(psdfit.cli.pio, "generate_instance", no_input)
    monkeypatch.setattr(psdfit.cli, "image_demo", no_input)
    out = tmp_path / "out"
    given = {
        "gen": ["--n", 8, "--k", 3, "--m", 2, "--out", out],
        "demo-image": ["input.pgm", "--out-dir", out],
    }.get(command, ["input"])
    with pytest.raises(SystemExit) as exc:
        run(command, *given, flag, value)
    assert exc.value.code == 2
    printed, err = capsys.readouterr()
    assert printed == ""
    assert f"argument {flag}" in err and repr(value) in err
    assert not out.exists()


def test_linecheck_passes(problem_file, capsys):
    assert run("linecheck", problem_file, "--seed", 3) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 1


def test_gen_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.prob"
    b = tmp_path / "b.prob"
    run("gen", "--n", 3, "--k", 1, "--sizes", "2,5", "--seed", 7, "--out", a)
    run("gen", "--n", 3, "--k", 1, "--sizes", "2,5", "--seed", 7, "--out", b)
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_gen_requires_m_or_sizes(capsys):
    assert run("gen", "--n", 3, "--k", 1, "--out", "x.prob") == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run("frobnicate")
    assert exc.value.code == 2


def test_demo_image_end_to_end(tmp_path, capsys):
    img = tmp_path / "tiny.pgm"
    write_pgm(img, make_test_image(8, seed=1))
    out_dir = tmp_path / "demo"
    code = run("demo-image", img, "--m", 2, "--rank", 8, "--seed", 0,
               "--tol", "1e-10", "--out-dir", out_dir)
    assert code == 0
    printed = capsys.readouterr().out
    assert "relative_error" in printed
    for name in ("restored_X.txt", "restored.pgm", "trace.csv", "report.txt"):
        assert (out_dir / name).exists()


def test_demo_image_non_convergence_exits_1(tmp_path, capsys):
    img = tmp_path / "small.pgm"
    write_pgm(img, make_test_image(16, seed=0))
    out_dir = tmp_path / "demo"
    assert run("demo-image", img, "--max-iter", 2, "--out-dir", out_dir) == 1
    assert "termination max-iterations" in capsys.readouterr().out
    for name in ("restored_X.txt", "restored.pgm", "trace.csv", "report.txt"):
        assert (out_dir / name).exists()


def test_demo_image_rejects_non_pgm(tmp_path, capsys):
    img = tmp_path / "fake.pgm"
    img.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
    assert run("demo-image", img, "--out-dir", tmp_path / "d") == 2
    assert "error:" in capsys.readouterr().err


def test_demo_image_names_the_file_of_a_bad_header(tmp_path, capsys):
    img = tmp_path / "b.pgm"
    img.write_bytes(b"P5\n2 x\n255\n")
    assert run("demo-image", img, "--out-dir", tmp_path / "d") == 2
    err = capsys.readouterr().err
    assert err == f"error: non-numeric header field b'x' ({img}, line 2, column 2)\n"
