import numpy as np
import pytest

from psdfit import (
    ParseError,
    SolverConfig,
    ValidationError,
    generate_instance,
    read_problem,
    solve,
    write_problem,
)
from psdfit.io import (
    TRACE_HEADER,
    read_matrix,
    read_solution,
    read_trace,
    write_matrix,
    write_solution,
    write_trace,
)

import golden


# ---------------------------------------------------------------------------
# problem files


def rel_close(a, b, tol=1e-12):
    return float(np.abs(a - b).max() / max(1.0, np.abs(b).max())) <= tol


def test_problem_round_trip_values_and_bytes(tmp_path):
    # values survive to 1e-12 relative; a canonically formatted file is
    # reproduced byte for byte by write(read(file))
    inst = generate_instance(4, 2, sizes=[3, 5, 4], seed=1)
    p1 = tmp_path / "a.prob"
    p2 = tmp_path / "b.prob"
    write_problem(p1, inst)
    again = read_problem(p1)
    assert again.n == inst.n and again.k == inst.k and again.m == inst.m
    for (A1, B1), (A2, B2) in zip(inst.pairs, again.pairs):
        assert rel_close(A1, A2)
        assert rel_close(B1, B2)
    write_problem(p2, again)
    assert p1.read_bytes() == p2.read_bytes()


def test_problem_mixed_pair_sizes(tmp_path):
    inst = generate_instance(3, 1, sizes=[1, 4], seed=2)
    path = tmp_path / "mixed.prob"
    write_problem(path, inst)
    again = read_problem(path)
    assert [A.shape[0] for A, _ in again.pairs] == [1, 4]


def test_problem_scalar_instance(tmp_path):
    path = tmp_path / "scalar.prob"
    path.write_text("1 1 1\n1\n2.5\n0.5\n")
    inst = read_problem(path)
    assert inst.n == inst.k == inst.m == 1
    assert inst.pairs[0][0][0, 0] == 2.5
    assert inst.pairs[0][1][0, 0] == 0.5


def test_problem_parse_error_positions(tmp_path):
    path = tmp_path / "bad.prob"
    path.write_text("1 2 1\n2\n1 2\n3 oops\n1 0\n0 1\n")
    with pytest.raises(ParseError) as err:
        read_problem(path)
    assert err.value.line == 4
    assert err.value.column == 2
    assert "line 4" in str(err.value)


def test_problem_non_finite_token_position(tmp_path):
    path = tmp_path / "nan.prob"
    path.write_text("1 2 1\n2\nnan 2\n3 4\n1 0\n0 1\n")
    with pytest.raises(ParseError, match="non-finite") as err:
        read_problem(path)
    assert (err.value.line, err.value.column) == (3, 1)
    path.write_text("1 2 1\n2\n1 2\n3 4\n1 0\n0 -inf\n")
    with pytest.raises(ParseError, match="non-finite") as err:
        read_problem(path)
    assert (err.value.line, err.value.column) == (6, 2)


def test_problem_truncated_file(tmp_path):
    path = tmp_path / "short.prob"
    path.write_text("1 2 1\n2\n1 2\n")
    with pytest.raises(ParseError, match="end of file"):
        read_problem(path)


def test_problem_wrong_token_count(tmp_path):
    path = tmp_path / "wide.prob"
    path.write_text("1 2 1\n1\n1 2 3\n4 5\n")
    with pytest.raises(ParseError, match="expected 1 value"):
        read_problem(path)


def test_problem_trailing_content(tmp_path):
    path = tmp_path / "extra.prob"
    path.write_text("1 1 1\n1\n2\n3\n99\n")
    with pytest.raises(ParseError, match="trailing"):
        read_problem(path)


def test_problem_empty_file(tmp_path):
    path = tmp_path / "empty.prob"
    path.write_text("")
    with pytest.raises(ParseError):
        read_problem(path)


def test_problem_bad_header(tmp_path):
    path = tmp_path / "hdr.prob"
    path.write_text("0 2 1\n")
    with pytest.raises(ParseError, match="positive"):
        read_problem(path)


def test_problem_pair_size_below_one(tmp_path):
    path = tmp_path / "size.prob"
    path.write_text("1 2 1\n0\n")
    with pytest.raises(ParseError, match="pair 0 size must be positive") as err:
        read_problem(path)
    assert err.value.line == 2


@pytest.mark.parametrize("header", ["1 -2 1", "1 0 1"])
def test_problem_header_n_below_one(tmp_path, header):
    path = tmp_path / "hdr.prob"
    path.write_text(header + "\n1\n2\n3\n")
    with pytest.raises(ParseError, match="n must be positive") as err:
        read_problem(path)
    assert err.value.line == 1


@pytest.mark.parametrize(
    "text, match, line",
    [
        # a 10^6 x 10^6 A_0 would need 7.28 TiB; the file has one line left
        ("1 2 1\n1000000\n5\n", "A_0 needs 1000000 rows, found 1", 3),
        # a 1 x 10^9 B_0 would need 7.45 GiB; its row holds one value
        ("1 1000000000 1\n1\n5\n6\n", "expected 1000000000 values for B_0 row 0", 4),
    ],
    ids=["rows", "columns"],
)
def test_problem_block_beyond_the_file(tmp_path, text, match, line):
    path = tmp_path / "huge.prob"
    path.write_text(text)
    with pytest.raises(ParseError, match=match) as err:
        read_problem(path)
    assert err.value.line == line


def test_problem_validation_failure_on_read(tmp_path):
    # shapes parse fine but k > n
    path = tmp_path / "invalid.prob"
    path.write_text("1 1 3\n1\n2\n3\n")
    with pytest.raises(ValidationError):
        read_problem(path)


def test_problem_blank_lines_are_ignored(tmp_path):
    path = tmp_path / "blank.prob"
    path.write_text("\n1 1 1\n\n1\n\n2\n\n3\n\n")
    inst = read_problem(path)
    assert inst.pairs[0][0][0, 0] == 2.0


# ---------------------------------------------------------------------------
# matrices


def test_matrix_round_trip(tmp_path):
    M = np.random.default_rng(3).standard_normal((3, 5))
    path = tmp_path / "m.txt"
    write_matrix(path, M)
    back = read_matrix(path)
    assert back.shape == M.shape
    assert rel_close(back, M)
    # second write of the re-read matrix reproduces the file exactly
    path2 = tmp_path / "m2.txt"
    write_matrix(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_matrix_vector_is_promoted_to_row(tmp_path):
    path = tmp_path / "v.txt"
    write_matrix(path, np.array([1.0, 2.0]))
    assert read_matrix(path).shape == (1, 2)


def test_matrix_ragged_raises(tmp_path):
    path = tmp_path / "ragged.txt"
    path.write_text("1 2\n3\n")
    with pytest.raises(ParseError, match="ragged"):
        read_matrix(path)


def test_matrix_non_finite_raises(tmp_path):
    path = tmp_path / "inf.txt"
    path.write_text("1 2\n3 inf\n")
    with pytest.raises(ParseError, match="non-finite") as err:
        read_matrix(path)
    assert (err.value.line, err.value.column) == (2, 2)


def test_matrix_empty_raises(tmp_path):
    path = tmp_path / "nothing.txt"
    path.write_text("\n\n")
    with pytest.raises(ParseError, match="empty"):
        read_matrix(path)


# ---------------------------------------------------------------------------
# traces


@pytest.fixture(scope="module")
def short_run():
    return solve(
        golden.instance(2), golden.Y0_RANK2, SolverConfig(max_iterations=12)
    )


def test_trace_round_trip(tmp_path, short_run):
    path = tmp_path / "trace.csv"
    write_trace(path, short_run.trace)
    assert path.read_text().splitlines()[0] == TRACE_HEADER
    back = read_trace(path)
    assert len(back) == len(short_run.trace)
    for got, want in zip(back, short_run.trace):
        assert got.index == want.index
        for field in ("f_value", "grad_norm", "residual", "step", "beta"):
            assert getattr(got, field) == pytest.approx(
                getattr(want, field), rel=1e-12, abs=1e-300
            )
    # rewriting the parsed records reproduces the file byte for byte
    path2 = tmp_path / "trace2.csv"
    write_trace(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_trace_missing_header(tmp_path):
    path = tmp_path / "broken.csv"
    path.write_text("0,1,2,3,4,5\n")
    with pytest.raises(ParseError, match="header"):
        read_trace(path)


def test_trace_wrong_column_count(tmp_path):
    path = tmp_path / "cols.csv"
    path.write_text(TRACE_HEADER + "\n0,1,2\n")
    with pytest.raises(ParseError, match="6 columns"):
        read_trace(path)


@pytest.mark.parametrize(
    "row, match, column",
    [
        ("1.5,1,2,3,4,5", "integer", 1),
        ("1,1,2,3,4,nan", "non-finite", 6),
        ("5,1,2,3,4,5", "iteration 5 out of sequence, expected 1", 1),
        ("-3,1,2,3,4,5", "iteration -3 out of sequence, expected 1", 1),
    ],
    ids=["fractional-index", "non-finite-value", "index-skips", "index-negative"],
)
def test_trace_reader_rules(tmp_path, row, match, column):
    path = tmp_path / "bad.csv"
    path.write_text(TRACE_HEADER + "\n0,1,2,3,0,0\n" + row + "\n")
    with pytest.raises(ParseError, match=match) as err:
        read_trace(path)
    assert (err.value.line, err.value.column) == (3, column)


# ---------------------------------------------------------------------------
# solutions


def solution_text(**fields):
    """A valid 1x1 solution file with the given keyed fields replaced.

    X gets n rows of one value, so n = 0 leaves it none.
    """
    values = dict(n="1", termination="gradient-tolerance", iterations="0")
    values |= dict(f="0", grad_norm="0", residual="0") | fields
    text = "".join(f"{key} {value}\n" for key, value in values.items())
    return text + "X\n" + "1\n" * int(values["n"])


def test_solution_round_trip(tmp_path, short_run):
    path = tmp_path / "sol.txt"
    write_solution(path, short_run)
    summary = read_solution(path)
    last = short_run.trace[-1]
    assert np.abs(summary.X - short_run.X_final).max() < 1e-12
    assert summary.termination == short_run.termination_reason.value
    assert summary.iterations == short_run.iterations
    assert summary.f_value == pytest.approx(last.f_value, rel=1e-15)
    assert summary.grad_norm == pytest.approx(last.grad_norm, rel=1e-15)
    assert summary.residual == pytest.approx(last.residual, rel=1e-15)


def test_solution_missing_field(tmp_path):
    path = tmp_path / "sol.txt"
    path.write_text("n 1\niterations 0\n")
    with pytest.raises(ParseError, match="termination"):
        read_solution(path)


def test_solution_missing_marker(tmp_path):
    path = tmp_path / "sol.txt"
    path.write_text(
        "n 1\ntermination gradient-tolerance\niterations 0\n"
        "f 0\ngrad_norm 0\nresidual 0\nY\n1\n"
    )
    with pytest.raises(ParseError, match="X marker"):
        read_solution(path)


def test_solution_non_finite_X_raises(tmp_path):
    path = tmp_path / "sol.txt"
    path.write_text(
        "n 1\ntermination gradient-tolerance\niterations 0\n"
        "f 0\ngrad_norm 0\nresidual 0\nX\nnan\n"
    )
    with pytest.raises(ParseError, match="non-finite") as err:
        read_solution(path)
    assert (err.value.line, err.value.column) == (8, 1)


def test_solution_n_beyond_the_file(tmp_path):
    # n = 3 * 10^6 would make X 65.5 TiB; the file has one row of it
    path = tmp_path / "sol.txt"
    path.write_text(solution_text(n="0").replace("n 0", "n 3000000") + "1\n")
    with pytest.raises(ParseError, match="X needs 3000000 rows, found 1") as err:
        read_solution(path)
    assert err.value.line == 8


@pytest.mark.parametrize(
    "field, match, line",
    [
        ({"n": "0"}, "non-positive n", 1),
        ({"termination": "bogus"}, "unknown termination", 2),
        ({"iterations": "-3"}, "negative iterations", 3),
        ({"iterations": "x"}, "bad integer", 3),
        ({"f": "inf"}, "non-finite f", 4),
        ({"grad_norm": "nan"}, "non-finite grad_norm", 5),
        ({"residual": "-inf"}, "non-finite residual", 6),
    ],
    ids=[
        "n", "termination", "iterations", "iterations-x", "f", "grad_norm", "residual"
    ],
)
def test_solution_reader_rules(tmp_path, field, match, line):
    # each error points at the value, the second token of its keyed line
    path = tmp_path / "sol.txt"
    path.write_text(solution_text(**field))
    with pytest.raises(ParseError, match=match) as err:
        read_solution(path)
    assert (err.value.line, err.value.column) == (line, 2)


# ---------------------------------------------------------------------------
# generate_instance


def test_generate_is_deterministic(tmp_path):
    a = tmp_path / "a.prob"
    b = tmp_path / "b.prob"
    write_problem(a, generate_instance(5, 2, m=3, seed=17))
    write_problem(b, generate_instance(5, 2, m=3, seed=17))
    assert a.read_bytes() == b.read_bytes()
    write_problem(b, generate_instance(5, 2, m=3, seed=18))
    assert a.read_bytes() != b.read_bytes()


def test_generate_consistent_mode_has_zero_optimum():
    inst = generate_instance(5, 2, m=3, seed=4, mode="consistent")
    # the hidden factor is drawn from the seeded generator after the three B_i
    rng = np.random.default_rng(4)
    for _ in range(3):
        rng.random((5, 5))
    Z = rng.random((5, 2))
    from psdfit import objective

    assert objective(inst, Z) < 1e-20


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generate_consistent_mode_does_not_start_solve_at_the_answer(seed):
    # solve's default start is the first draw of the same seed's generator
    inst = generate_instance(8, 3, m=3, seed=seed, mode="consistent")
    assert solve(inst, seed=seed).iterations > 0


def test_generate_sizes_control_pair_shapes():
    inst = generate_instance(4, 1, sizes=[2, 6, 3], seed=5)
    assert inst.m == 3
    assert [B.shape for _, B in inst.pairs] == [(2, 4), (6, 4), (3, 4)]


def test_generate_argument_validation():
    with pytest.raises(ValueError, match="sizes or m"):
        generate_instance(3, 1)
    with pytest.raises(ValueError, match="disagrees"):
        generate_instance(3, 1, m=2, sizes=[3, 3, 3])
    with pytest.raises(ValueError, match="mode"):
        generate_instance(3, 1, m=1, mode="weird")
    with pytest.raises(ValueError):
        generate_instance(3, 4, m=1)  # k > n
    with pytest.raises(ValueError):
        generate_instance(3, 1, sizes=[0])
