import inspect

import numpy as np
import pytest

import psdfit.cli
import psdfit.imagedemo
import psdfit.io
import psdfit.linesearch
import psdfit.solver
from psdfit import ProblemInstance, SolverConfig, TerminationReason
from psdfit.cli import _build_parser, main
from psdfit.imagedemo import image_demo, make_test_image, write_pgm
from psdfit.io import read_problem, read_solution, write_matrix, write_problem
from psdfit.solver import RESTART_PERIOD

import golden


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def problem_file(tmp_path):
    path = tmp_path / "small.prob"
    assert run("gen", "--n", 4, "--k", 2, "--m", 2, "--seed", 11,
               "--mode", "consistent", "--out", path) == 0
    return path


# the planted n = 8 instance of the README's example, and 64 random pairs
# of 6 x 6 at n = 12, the shape of the benchmark's many-pairs workload
DEMO = ["--n", 8, "--k", 3, "--m", 3, "--mode", "consistent", "--seed", 0]
MANY = ["--n", 12, "--k", 3, "--sizes", ",".join(["6"] * 64), "--mode", "random",
        "--seed", 0]
# gen's arguments for the instances the commands are checked on: besides
# DEMO and MANY, pairs larger than n (m_i = 24 > n = 8), which are reduced
# at construction to 8 x 8 working pairs through the thin QR of B_i; pairs
# below, at and above n in one instance, of which only the last is reduced;
# and 40 pairs of 8 x 8 at n = 32, k = 16, which cross both sums over pairs:
# five stacks of 8 pairs share the one gradient product, and the Gram sum
# takes three products of 16, 16 and 8 pairs
INSTANCES = {
    "demo": DEMO,
    "tall": ["--n", 8, "--k", 3, "--sizes", "24,24,24", "--mode", "consistent",
             "--seed", 0],
    "mixed": ["--n", 8, "--k", 3, "--sizes", "4,8,24", "--mode", "consistent",
              "--seed", 0],
    "many": MANY,
    "stacked": ["--n", 32, "--k", 16, "--sizes", ",".join(["8"] * 40), "--mode",
                "random", "--seed", 0],
}


def gen_file(tmp_path, name):
    path = tmp_path / f"{name}.prob"
    assert run("gen", *INSTANCES[name], "--out", path) == 0
    return path


# each of these solves in more than RESTART_PERIOD iterations
@pytest.mark.parametrize("name", ["demo", "tall", "mixed", "many"])
def test_gen_then_solve_end_to_end(tmp_path, capsys, name):
    gen = INSTANCES[name]
    prob = gen_file(tmp_path, name)
    trace = tmp_path / "trace.csv"
    out = tmp_path / "solution.txt"
    code = run("solve", prob, "--tol", "1e-6", "--trace", trace, "--out", out)
    assert code == 0
    printed = capsys.readouterr().out
    assert "termination gradient-tolerance" in printed
    summary = read_solution(out)
    assert summary.termination == "gradient-tolerance"
    assert summary.grad_norm < 1e-6
    n = gen[gen.index("--n") + 1]
    assert summary.X.shape == (n, n)
    rows = np.loadtxt(trace, delimiter=",", skiprows=1)
    assert len(rows) == summary.iterations + 1
    assert rows[:, 0].tolist() == list(range(len(rows)))
    assert rows[-1, 2] < 1e-6  # grad_norm
    # beta (the last column) is 0 on each positive multiple of RESTART_PERIOD
    restarts = rows[RESTART_PERIOD::RESTART_PERIOD, 5]
    assert len(restarts) >= 1
    assert restarts.tolist() == [0.0] * len(restarts)


# gradcheck compares the gradient with central differences at 1e-8 relative
# (the worst case, stacked, agrees to about 2.6e-9), and linecheck the step
# polynomial with interpolated values at 1e-12 relative (they agree to about
# 2e-14), so a gradient or a step polynomial that loses digits fails here;
# both compare with values computed from the pairs as written, not the
# working pairs
@pytest.mark.parametrize("command, tol", [("gradcheck", "1e-8"), ("linecheck", "1e-12")])
@pytest.mark.parametrize("name", list(INSTANCES))
def test_checks_pass_at_their_tightest_tolerances(tmp_path, capsys, name, command, tol):
    assert run(command, gen_file(tmp_path, name), "--tol", tol) == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["tall", "mixed", "many"])
def test_generated_problem_file_survives_write_of_read(tmp_path, capsys, name):
    # an instance keeps the pairs as given, not its reduced working pairs,
    # so write(read(file)) reproduces the file byte for byte
    prob = gen_file(tmp_path, name)
    again = tmp_path / "again.prob"
    write_problem(again, read_problem(prob))
    capsys.readouterr()
    assert again.read_bytes() == prob.read_bytes()


def test_crlf_problem_file_solves_to_the_same_bytes(tmp_path, capsys):
    # lines end at \n, \r\n or \r: a CRLF copy of a problem file solves to
    # a byte-identical trace and solution
    prob = tmp_path / "demo.prob"
    crlf = tmp_path / "crlf.prob"
    assert run("gen", *DEMO, "--out", prob) == 0
    crlf.write_bytes(prob.read_bytes().replace(b"\n", b"\r\n"))
    outputs = []
    for name in ("demo", "crlf"):
        trace, out = tmp_path / f"{name}_trace.csv", tmp_path / f"{name}_solution.txt"
        assert run("solve", tmp_path / f"{name}.prob", "--tol", "1e-6",
                   "--trace", trace, "--out", out) == 0
        outputs.append((trace.read_bytes(), out.read_bytes()))
    capsys.readouterr()
    assert b"\r" in crlf.read_bytes()
    assert outputs[0] == outputs[1]


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
    raise AssertionError("the fit or the generator ran before the output paths were checked")


# solve's two output files, and gen's --out ("gen")
OUTPUTS = ["--trace", "--out", "gen"]


def write_to(tmp_path, monkeypatch, output, path):
    """Run solve with path as its --trace or --out, or gen with path as its
    --out, where the fit and the generator fail if they are reached."""
    monkeypatch.setattr(psdfit.cli, "solve", no_fit)
    monkeypatch.setattr(psdfit.cli.pio, "generate_instance", no_fit)
    if output == "gen":
        return run("gen", *DEMO, "--out", path)
    prob = tmp_path / "golden.prob"
    write_problem(prob, golden.instance(2))
    return run("solve", prob, output, path)


@pytest.mark.parametrize("output", OUTPUTS)
def test_solve_refuses_a_missing_output_directory_before_the_fit(
    tmp_path, monkeypatch, capsys, output
):
    path = tmp_path / "nodir" / "file.txt"
    assert write_to(tmp_path, monkeypatch, output, path) == 2
    assert str(path) in capsys.readouterr().err
    assert not (tmp_path / "nodir").exists()


@pytest.mark.parametrize("output", OUTPUTS)
def test_solve_refuses_a_directory_as_output_file_before_the_fit(
    tmp_path, monkeypatch, capsys, output
):
    assert write_to(tmp_path, monkeypatch, output, tmp_path) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"{tmp_path}: Is a directory" in err


@pytest.mark.parametrize("output", OUTPUTS)
def test_solve_refuses_an_empty_output_path_before_the_fit(
    tmp_path, monkeypatch, capsys, output
):
    # an empty path is a usage error naming its option, not a file left unwritten
    with pytest.raises(SystemExit) as exc:
        write_to(tmp_path, monkeypatch, output, "")
    assert exc.value.code == 2
    printed, err = capsys.readouterr()
    assert printed == ""
    option = "--out" if output == "gen" else output
    assert f"argument {option}: expected a non-empty path, got ''" in err


def test_demo_image_refuses_an_empty_out_dir_before_any_read(monkeypatch, capsys):
    # --out-dir takes the same non-empty path type as --trace and --out
    monkeypatch.setattr(psdfit.cli, "image_demo", no_input)
    with pytest.raises(SystemExit) as exc:
        run("demo-image", "input.pgm", "--out-dir", "")
    assert exc.value.code == 2
    printed, err = capsys.readouterr()
    assert printed == ""
    assert "argument --out-dir: expected a non-empty path, got ''" in err


@pytest.mark.parametrize("parent", ["missing", "file"])
@pytest.mark.parametrize("output", OUTPUTS)
def test_solve_names_an_output_directory_that_is_not_a_directory(
    tmp_path, monkeypatch, capsys, output, parent
):
    # a regular file in the directory's place does exist, so the one message
    # says what is true of both: it is not an existing directory
    directory = tmp_path / "afile"
    if parent == "file":
        directory.write_text("kept")
    path = directory / "x.txt"
    assert write_to(tmp_path, monkeypatch, output, path) == 2
    printed, err = capsys.readouterr()
    assert printed == ""
    assert err == f"error: {path}: {directory} is not an existing directory\n"
    assert parent == "missing" or directory.read_text() == "kept"


def test_every_command_that_writes_checks_its_outputs_in_io(tmp_path, monkeypatch, capsys):
    # solve, gen and demo-image share one output rule, psdfit.io._check_outputs,
    # and call it with their outputs and inputs before any input is read
    calls = []

    def record(outputs, inputs=()):
        calls.append((list(outputs), list(inputs)))
        raise ValueError("refused")

    monkeypatch.setattr(psdfit.io, "_check_outputs", record)
    monkeypatch.setattr(psdfit.cli.pio, "read_problem", no_input)
    monkeypatch.setattr(psdfit.cli.pio, "generate_instance", no_input)
    monkeypatch.setattr(psdfit.imagedemo, "read_pgm", no_input)
    monkeypatch.chdir(tmp_path)
    solve_args = ["p.prob", "--init", "y0.txt", "--trace", "t.csv", "--out", "s.txt"]
    assert run("solve", *solve_args) == 2
    assert run("gen", *DEMO, "--out", "g.prob") == 2
    assert run("demo-image", "in.pgm", "--out-dir", "d") == 2
    demo = ["restored_X.txt", "restored.pgm", "trace.csv", "report.txt"]
    assert calls == [
        (["t.csv", "s.txt"], ["p.prob", "y0.txt"]),
        (["g.prob"], []),
        ([f"d/{name}" for name in demo], ["in.pgm"]),
    ]
    assert capsys.readouterr() == ("", "error: refused\n" * 3)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "trace, out, other",
    [
        ("same.txt", "same.txt", "same.txt"),
        ("same.txt", "sub/../same.txt", "same.txt"),
        (None, "golden.prob", "golden.prob"),
        (None, "./y0.txt", "y0.txt"),
    ],
    ids=["same", "aliased", "problem", "init"],
)
def test_solve_refuses_an_output_that_is_another_file_before_the_fit(
    tmp_path, monkeypatch, capsys, trace, out, other
):
    # an output that resolves to the other output or to an input would
    # overwrite it: exit 2 naming both paths, and no file is written
    monkeypatch.setattr(psdfit.cli, "solve", no_fit)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    write_problem("golden.prob", golden.instance(2))
    write_matrix("y0.txt", golden.Y0_RANK2)
    inputs = {name: (tmp_path / name).read_bytes() for name in ("golden.prob", "y0.txt")}
    traced = [] if trace is None else ["--trace", trace]
    assert run("solve", "golden.prob", "--init", "y0.txt", *traced, "--out", out) == 2
    printed, err = capsys.readouterr()
    assert printed == ""
    assert err == f"error: {out} and {other} are the same file\n"
    assert {name: (tmp_path / name).read_bytes() for name in inputs} == inputs
    assert not (tmp_path / "same.txt").exists()


@pytest.mark.parametrize(
    "name, text, where",
    [
        # the first fault in file order: the nan on line 3, not the x on line 6
        ("bad.prob", "1 2 1\n2\nnan 1\n1 1\n1 0\n0 x\n", "line 3, column 1"),
        # so too when pairs of different sizes are converted by separate
        # calls: the nan in A_0, not the x in A_1
        ("mixed_bad.prob", "2 2 1\n1\nnan\n1 0\n2\n1 x\n0 1\n1 0\n0 1\n",
         "line 3, column 1"),
        # a form feed separates values and ends no line: the x is on line 4
        ("ff.prob", "1 2 1\n1\n2\f\nx 4\n", "line 4, column 1"),
        # a header of two numbers, not m n k
        ("short.prob", "1 2\n", "line 1"),
    ],
    ids=["bad", "mixed_bad", "ff", "short"],
)
def test_solve_reports_a_file_fault_at_its_place(tmp_path, capsys, name, text, where):
    path = tmp_path / name
    path.write_text(text)
    assert run("solve", path) == 2
    printed, err = capsys.readouterr()
    assert printed == ""
    assert err.startswith("error: ") and err.endswith(f" ({path}, {where})\n")


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


@pytest.mark.parametrize(
    "name, out_dir",
    [
        ("restored.pgm", "out"),
        ("restored_X.txt", "out"),
        ("trace.csv", "out"),
        ("report.txt", "out"),
        ("restored.pgm", "sub/../out"),
    ],
    ids=["restored.pgm", "restored_X.txt", "trace.csv", "report.txt", "aliased"],
)
def test_demo_image_refuses_an_output_that_is_its_input_before_the_fit(
    tmp_path, monkeypatch, capsys, name, out_dir
):
    # the demo's outputs are fixed names in --out-dir: an input image of one
    # of those names there would be overwritten, so exit 2 naming both paths,
    # before the image is read, and no file is written
    monkeypatch.setattr(psdfit.imagedemo, "read_pgm", no_fit)
    monkeypatch.setattr(psdfit.imagedemo, "solve", no_fit)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "out").mkdir()
    img = f"out/{name}"
    write_pgm(img, make_test_image(16))
    before = (tmp_path / img).read_bytes()
    assert run("demo-image", img, "--m", 2, "--out-dir", out_dir) == 2
    printed, err = capsys.readouterr()
    assert printed == ""
    assert err == f"error: {out_dir}/{name} and {img} are the same file\n"
    assert (tmp_path / img).read_bytes() == before
    assert [p.name for p in (tmp_path / "out").iterdir()] == [name]


@pytest.mark.parametrize("name", ["restored_X.txt", "restored.pgm", "trace.csv", "report.txt"])
def test_demo_image_refuses_a_directory_as_output_file_before_the_fit(
    tmp_path, monkeypatch, capsys, name
):
    # refused with solve's message before the image is read, so no output
    # is written next to the directory
    monkeypatch.setattr(psdfit.imagedemo, "read_pgm", no_fit)
    monkeypatch.setattr(psdfit.imagedemo, "solve", no_fit)
    img = tmp_path / "tiny.pgm"
    write_pgm(img, make_test_image(8, seed=1))
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    assert run("demo-image", img, "--m", 2, "--rank", 8, "--out-dir", out) == 2
    assert capsys.readouterr() == ("", f"error: {out / name}: Is a directory\n")
    assert [p.name for p in out.iterdir()] == [name]


@pytest.mark.parametrize(
    "image, rank, message",
    [
        (None, [], "No such file or directory"),
        (b"P2\n2 2\n255\n0 1 2 3\n", [], "not a binary graymap"),
        (make_test_image(4), ["--rank", 9], "rank bound k=9 outside [1, n]=4"),
        (make_test_image(psdfit.imagedemo.MAX_SIDE + 1), [], "image side 513 exceeds 512"),
    ],
    ids=["missing", "not-pgm", "rank-above-side", "side-above-max"],
)
def test_demo_image_makes_no_out_dir_for_an_input_it_refuses(
    tmp_path, monkeypatch, capsys, image, rank, message
):
    # --out-dir is made only after the image is read and the instance built
    monkeypatch.setattr(psdfit.imagedemo, "solve", no_fit)
    img = tmp_path / "in.pgm"
    if isinstance(image, bytes):
        img.write_bytes(image)
    elif image is not None:
        write_pgm(img, image)
    out = tmp_path / "new"
    assert run("demo-image", img, *rank, "--out-dir", out) == 2
    printed, err = capsys.readouterr()
    assert printed == ""
    assert err.startswith("error: ") and message in err
    assert not out.exists()


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


def test_demo_image_converges_on_a_32x32_test_image(tmp_path, capsys):
    # about 1100 iterations at the demo's default --tol, over several restarts
    img = tmp_path / "photo.pgm"
    write_pgm(img, make_test_image(32))
    out_dir = tmp_path / "demo_out"
    assert run("demo-image", img, "--m", 3, "--rank", 16, "--out-dir", out_dir) == 0
    assert "termination gradient-tolerance" in capsys.readouterr().out.splitlines()


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
