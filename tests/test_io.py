import math
import re
import struct
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psdfit import (
    ParseError,
    ProblemInstance,
    SolverConfig,
    evaluate,
    generate_instance,
    read_problem,
    solve,
    write_problem,
)
from psdfit.io import (
    TRACE_HEADER,
    read_matrix,
    read_pgm,
    read_solution,
    write_lines,
    write_matrix,
    write_solution,
    write_trace,
)
from psdfit.solver import IterationRecord, SolverResult, TerminationReason, Trace

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


def test_problem_rows_of_one_width_are_converted_by_one_call(tmp_path, monkeypatch):
    # the A_i of each size take one call, and every B_i one more, however
    # many pairs the file holds
    sizes = [1 + i % 3 for i in range(500)]
    path = tmp_path / "many.prob"
    write_problem(path, generate_instance(4, 2, sizes=sizes, seed=3))
    loadtxt, calls = np.loadtxt, []

    def counted(*args, **kwargs):
        calls.append(args)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr("psdfit.io.np.loadtxt", counted)
    inst = read_problem(path)
    assert len(calls) == 4
    rows = [line.split() for line in path.read_text().splitlines()[1:]]
    for (A, B), mi in zip(inst.pairs, sizes):
        assert rows[0] == [str(mi)]
        assert (A.shape, B.shape) == ((mi, mi), (mi, 4))
        assert A.tobytes() == float_bits(rows[1 : 1 + mi])
        assert B.tobytes() == float_bits(rows[1 + mi : 1 + 2 * mi])
        rows = rows[1 + 2 * mi :]
    assert rows == []


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


A_3x3 = "1 2 3\n4 5 6\n7 8 9\n"
B_3x2 = "1 0\n0 1\n1 1\n"


@pytest.mark.parametrize(
    "text, match, line, column",
    [
        # lines: header 1, size 2, A_0 3-5, B_0 6-8
        (A_3x3.replace("7 8 9", "7 8 x") + B_3x2, "'x' in A_0 row 2", 5, 3),
        (A_3x3 + B_3x2.replace("0 1", "0 y"), "'y' in B_0 row 1", 7, 2),
        (
            A_3x3.replace("4 5 6", "4 5") + B_3x2,
            "3 values for A_0 row 1, found 2",
            4,
            None,
        ),
        # the bad token in row 1 comes before the short row 3 in the file
        (
            "1 2 3 4\n1 x 3 4\n1 2 3 4\n1 2 3\n" + "1 0\n" * 4,
            "bad number 'x' in A_0 row 1",
            4,
            2,
        ),
        # tokens float refuses, and numpy's reader with them
        (A_3x3.replace("4 5 6", "4 1#2 6") + B_3x2, "bad number '1#2' in A_0 row 1", 4, 2),
        (A_3x3 + B_3x2.replace("1 1", "0x10 1"), "bad number '0x10' in B_0 row 2", 8, 1),
        (A_3x3.replace("1 2 3", "1 2 1d5") + B_3x2, "bad number '1d5' in A_0 row 0", 3, 3),
        (A_3x3 + B_3x2.replace("0 1", '0 "1"'), "bad number '\"1\"' in B_0 row 1", 7, 2),
    ],
    ids=[
        "last-row-of-A",
        "middle-row-of-B",
        "short-middle-row",
        "bad-token-before-short-row",
        "comment-sign",
        "hexadecimal",
        "fortran-exponent",
        "quoted",
    ],
)
def test_problem_block_fault_positions(tmp_path, text, match, line, column):
    size = text.count("\n") // 2
    path = tmp_path / "bad.prob"
    path.write_text(f"1 2 1\n{size}\n" + text)
    with pytest.raises(ParseError, match=match) as err:
        read_problem(path)
    assert (err.value.line, err.value.column) == (line, column)


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


@pytest.mark.parametrize("header, k", [("1 2 5", 5), ("1 2 0", 0), ("1 2 -1", -1)])
def test_problem_header_k_outside_one_to_n(tmp_path, header, k):
    # refused with the header's line, as m < 1 and n < 1 are, not later by
    # the instance's validation, which has no line to report
    path = tmp_path / "hdr.prob"
    path.write_text(header + "\n1\n2\n3 4\n")
    message = f"rank bound k={k} outside [1, n]=2"
    with pytest.raises(ParseError, match=re.escape(message)) as err:
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


@pytest.mark.parametrize(
    "reader, text, message",
    [
        (read_problem, "1 2\n", "expected 3 values for header (m n k), found 2 ({}, line 1)"),
        (read_problem, "1 2 1\n1 2\n", "expected 1 values for size of pair 0, found 2 ({}, line 2)"),
        (read_solution, "n 1 2\n", "expected 2 values for n, found 3 ({}, line 1)"),
    ],
    ids=["header", "pair-size", "solution-field"],
)
def test_a_line_with_the_wrong_count_is_named(tmp_path, reader, text, message):
    # a header, size or keyed line holds a fixed number of values
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        reader(path)
    assert str(err.value) == message.format(path)


def test_problem_validation_failure_on_read(tmp_path):
    # shapes parse fine but k > n: the header is refused at its line, before
    # the instance's validation, which would raise a ValidationError with no
    # line (test_problem_header_k_outside_one_to_n)
    path = tmp_path / "invalid.prob"
    path.write_text("1 1 3\n1\n2\n3\n")
    with pytest.raises(ParseError, match=re.escape("k=3 outside [1, n]=1")) as err:
        read_problem(path)
    assert err.value.line == 1


def test_problem_blank_lines_are_ignored(tmp_path):
    path = tmp_path / "blank.prob"
    path.write_text("\n1 1 1\n\n1\n\n2\n\n3\n\n")
    inst = read_problem(path)
    assert inst.pairs[0][0][0, 0] == 2.0


@pytest.mark.parametrize(
    "data",
    [
        b"1 2 1\n1\n2\f\nx 4\n",
        b"1 2 1\n1\n2\v\nx 4\n",
        b"1 2 1\n1\n2\x1c\x1d\x1e\nx 4\n",
        b"1 2 1\r\n1\r\n2\r\nx 4\r\n",
        b"1 2 1\r1\r2\rx 4\r",
    ],
    ids=["form-feed", "vertical-tab", "information-separators", "crlf", "cr"],
)
def test_lines_end_only_at_newline_and_carriage_return(tmp_path, data):
    # the file has four lines whatever whitespace ends the third
    path = tmp_path / "bad.prob"
    path.write_bytes(data)
    with pytest.raises(ParseError, match="bad number 'x' in B_0 row 0") as err:
        read_problem(path)
    assert (err.value.line, err.value.column) == (4, 1)


@pytest.mark.parametrize(
    "sep", ["\t", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x1f"],
    ids=["tab", "vertical-tab", "form-feed", "x1c", "x1d", "x1e", "x1f"],
)
def test_whitespace_within_a_line_separates_values(tmp_path, sep):
    path = tmp_path / "sep.prob"
    path.write_text(f"1 2 1\n1\n2\n3{sep}4\n")
    ((A, B),) = read_problem(path).pairs
    assert (A.tolist(), B.tolist()) == ([[2.0]], [[3.0, 4.0]])


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
    with pytest.raises(ParseError, match="expected 2 values for matrix row 1, found 1") as err:
        read_matrix(path)
    assert err.value.line == 2


def test_matrix_reports_a_bad_number_before_a_later_ragged_row(tmp_path):
    # the first fault in file order is the one reported
    path = tmp_path / "ragged.txt"
    path.write_text("1 x 3\n4 5\n")
    with pytest.raises(ParseError, match=r"bad number 'x' in matrix row 0") as err:
        read_matrix(path)
    assert (err.value.line, err.value.column) == (1, 2)


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
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert len(data) == len(short_run.trace)
    assert data[:, 0].tolist() == list(range(len(data)))
    for row, want in zip(data, short_run.trace):
        assert row[1:] == pytest.approx(astuple(want)[1:], rel=1e-12, abs=1e-300)
    # rewriting the records built from the loaded rows, as a list or as a
    # one-pass iterator, reproduces the file byte for byte
    back = list(map(IterationRecord, range(len(data)), *data[:, 1:].T.tolist()))
    for source in (back, iter(back)):
        path2 = tmp_path / "trace2.csv"
        write_trace(path2, source)
        assert path.read_bytes() == path2.read_bytes()


# ---------------------------------------------------------------------------
# every block reader: the first fault in file order is the one reported


NAN_IN = "non-finite number 'nan' in "


@pytest.mark.parametrize(
    "reader, text, match, line, column",
    [
        (read_problem, "1 2 1\n2\nnan 1\n1 1\n1 0\n0 x\n", NAN_IN + "A_0 row 0", 3, 1),
        (read_problem, "1 2 1\n2\nnan 1\n1 1\n1 0\n0 1\n5\n", NAN_IN + "A_0 row 0", 3, 1),
        # the file ends inside A_0, after its row holding the nan
        (read_problem, "1 2 1\n3\nnan 1 2\n1 2 3\n", NAN_IN + "A_0 row 0", 3, 1),
        # a row's width is checked before its values
        (read_problem, "1 2 1\n2\n1 1\n1 1\n1 0\ninf\n", "2 values for B_0 row 1", 6, None),
        (read_matrix, "nan 1\n1 x\n", NAN_IN + "matrix row 0", 1, 1),
        (read_matrix, "nan 1\n1\n", NAN_IN + "matrix row 0", 1, 1),
        (read_matrix, "1 x -inf\n", "bad number 'x' in matrix row 0", 1, 2),
        # a problem file's rows of each width are converted together, but
        # the fault reported is still the first in file order
        (
            read_problem,
            "2 2 1\n2\n1 0\n0 1\n1 x\n0 1\n1\nnan\n1 0\n",
            "bad number 'x' in B_0 row 0",
            5,
            2,
        ),
        (
            read_problem,
            "2 2 1\n1\nnan\n1 0\n2\n1 x\n0 1\n1 0\n0 1\n",
            NAN_IN + "A_0 row 0",
            3,
            1,
        ),
        # a bad size line comes after the blocks before it
        (read_problem, "2 2 1\n1\nx\n1 0\nq\n", "bad number 'x' in A_0 row 0", 3, 1),
        (
            read_problem,
            "2 2 1\n1\n1\n1 0\n2\n1 0\n0 1 5\n1 0\n0 1\n",
            "expected 2 values for A_1 row 1, found 3",
            7,
            None,
        ),
        (
            read_problem,
            "3 2 1\n1\n1\n1 x\n2\n1 0\n0 1\n1 0\n0 1\nz\n",
            "bad number 'x' in B_0 row 0",
            4,
            2,
        ),
    ],
    ids=[
        "problem-then-bad-token",
        "problem-then-trailing-content",
        "problem-then-end-of-file",
        "problem-short-row-holding-inf",
        "matrix-then-bad-token",
        "matrix-then-short-row",
        "matrix-bad-token-then-inf",
        "problem-B-before-a-later-A",
        "problem-A-before-a-later-A",
        "problem-A-before-a-bad-size",
        "problem-wide-row-in-a-later-A",
        "problem-B-before-a-later-bad-size",
    ],
)
def test_first_fault_in_file_order(tmp_path, reader, text, match, line, column):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ParseError, match=match) as err:
        reader(path)
    assert (err.value.line, err.value.column) == (line, column)


def test_finite_values_that_overflow_the_screen_read_back(tmp_path):
    # a sum of squares of 1e200 is inf, which only sends the block to the
    # fault search; values near the float64 limits read back bit for bit
    M = np.array([[1e200, -1.7e308], [5e-324, 1.0]])
    write_matrix(tmp_path / "m.txt", M)
    assert read_matrix(tmp_path / "m.txt").tobytes() == M.tobytes()
    pairs = ((np.array([[1e200]]), np.array([[-1.7e308, 1.0]])),)
    write_problem(tmp_path / "p.prob", ProblemInstance(pairs=pairs, n=2, k=1))
    (A, B), = read_problem(tmp_path / "p.prob").pairs
    assert (A.tobytes(), B.tobytes()) == (pairs[0][0].tobytes(), pairs[0][1].tobytes())


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
# writers: every float as format(float(x), ".16g"), byte for byte

SPECIAL = [float("nan"), float("inf"), -float("inf"), 0.0, -0.0, 5e-324, -2.5e-310]
# any float64, from its 64 bits: nan payloads, infinities, zeros, subnormals
doubles = st.integers(0, 2**64 - 1).map(
    lambda bits: struct.unpack("<d", bits.to_bytes(8, "little"))[0]
)
float_rows = st.integers(1, 4).flatmap(
    lambda cols: st.lists(
        st.lists(doubles, min_size=cols, max_size=cols), min_size=1, max_size=4
    )
)


def formatted(numbers, sep=" "):
    return sep.join(format(float(x), ".16g") for x in numbers)


def record_bits(record):
    """A record's index and the bits of its five values, so that nan compares equal."""
    index, *values = astuple(record)
    return index, struct.pack("<5d", *values)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(rows=float_rows, reason=st.sampled_from(TerminationReason))
@example(rows=[SPECIAL[:5], SPECIAL[2:]], reason=TerminationReason.GRADIENT_TOLERANCE)
def test_writers_format_every_float64(tmp_path_factory, rows, reason):
    out = tmp_path_factory.mktemp("writers")
    M = np.array(rows)
    write_matrix(out / "m.txt", M)
    assert (out / "m.txt").read_text() == "".join(formatted(row) + "\n" for row in rows)

    flat = [x for row in rows for x in row]
    values = [[flat[(i + j) % len(flat)] for j in range(5)] for i in range(len(flat))]
    trace = Trace()
    for i, row in enumerate(values):
        trace.append(IterationRecord(i, *row))
    records = [trace[i] for i in range(len(trace))]
    assert all(type(r) is IterationRecord for r in trace)
    assert list(map(record_bits, trace)) == list(map(record_bits, records))
    want = TRACE_HEADER + "\n"
    want += "".join(f"{i},{formatted(row, ',')}\n" for i, row in enumerate(values))
    for source in (trace, records):
        write_trace(out / "t.csv", source)
        assert (out / "t.csv").read_text() == want

    n = min(M.shape)
    X = M[:n, :n]
    result = SolverResult(np.zeros((n, 1)), X, len(trace) - 1, False, trace, reason)
    write_solution(out / "s.txt", result)
    last = records[-1]
    assert (out / "s.txt").read_text() == "".join(
        line + "\n"
        for line in [
            f"n {n}",
            f"termination {reason.value}",
            f"iterations {len(trace) - 1}",
            f"f {formatted([last.f_value])}",
            f"grad_norm {formatted([last.grad_norm])}",
            f"residual {formatted([last.residual])}",
            "X",
            *map(formatted, X.tolist()),
        ]
    )


# ---------------------------------------------------------------------------
# every block reader: each number bit for bit as float reads it

# the smallest subnormal (and the halfway cases beside it), the largest
# subnormal, the smallest and largest normals, zeros and underflow
EDGE_TOKENS = [
    "5e-324", "-4.9406564584124654e-324", "2.4703282292062328e-324",
    "2.4703282292062327e-324", "2.225073858507201e-308",
    "2.2250738585072014e-308", "1.7976931348623157e308",
    "-1.7976931348623158e308", "0", "-0.0", "1e-400", "-1e-400",
]
finite_doubles = doubles.filter(math.isfinite)
number_tokens = st.one_of(
    finite_doubles.map(repr),
    finite_doubles.map(lambda x: format(x, ".17g")),
    st.sampled_from(EDGE_TOKENS),
)
token_squares = st.integers(1, 4).flatmap(
    lambda side: st.lists(
        st.lists(number_tokens, min_size=side, max_size=side),
        min_size=side,
        max_size=side,
    )
)


def float_bits(rows):
    """The bits of float(token) for each token of rows."""
    return np.array([[float(tok) for tok in row] for row in rows]).tobytes()


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(square=token_squares)
@example(square=[EDGE_TOKENS[0:4], EDGE_TOKENS[4:8], EDGE_TOKENS[8:12], EDGE_TOKENS[0:4]])
def test_block_readers_read_each_number_as_float_does(tmp_path_factory, square):
    out = tmp_path_factory.mktemp("readers")
    side = len(square)
    lines = [" ".join(row) for row in square]
    want = float_bits(square)

    write_lines(out / "p.prob", [f"1 {side} 1", str(side), *lines, *lines])
    ((A, B),) = read_problem(out / "p.prob").pairs
    assert (A.tobytes(), B.tobytes()) == (want, want)

    write_lines(out / "m.txt", lines)
    assert read_matrix(out / "m.txt").tobytes() == want

    flat = [tok for row in square for tok in row]
    keyed = dict(f=flat[0], grad_norm=flat[-1], residual=flat[len(flat) // 2])
    write_lines(
        out / "s.txt",
        [
            f"n {side}",
            "termination gradient-tolerance",
            "iterations 0",
            *(f"{key} {tok}" for key, tok in keyed.items()),
            "X",
            *lines,
        ],
    )
    summary = read_solution(out / "s.txt")
    assert summary.X.tobytes() == want
    scalars = [summary.f_value, summary.grad_norm, summary.residual]
    assert np.array(scalars).tobytes() == float_bits([keyed.values()])


moderate_tokens = st.floats(-1e50, 1e50).map(lambda x: format(x, ".17g"))


def token_block(rows, cols):
    row = st.lists(moderate_tokens, min_size=cols, max_size=cols)
    return st.lists(row, min_size=rows, max_size=rows)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    n=st.integers(1, 6),
    sizes=st.lists(st.integers(1, 6), min_size=1, max_size=8),
    data=st.data(),
)
def test_problem_of_interleaved_sizes_round_trips(tmp_path_factory, n, sizes, data):
    # pairs of sizes in any order, each value as float reads its token, and
    # a canonically written file is reproduced byte for byte
    out = tmp_path_factory.mktemp("interleaved")
    pairs = [(data.draw(token_block(mi, mi)), data.draw(token_block(mi, n))) for mi in sizes]
    lines = [f"{len(sizes)} {n} 1"]
    for A, B in pairs:
        lines += [str(len(A)), *map(" ".join, A), *map(" ".join, B)]
    write_lines(out / "p.prob", lines)
    inst = read_problem(out / "p.prob")
    assert [(A.shape, B.shape) for A, B in inst.pairs] == [((mi, mi), (mi, n)) for mi in sizes]
    got = [(A.tobytes(), B.tobytes()) for A, B in inst.pairs]
    assert got == [(float_bits(A), float_bits(B)) for A, B in pairs]
    write_problem(out / "canonical.prob", inst)
    write_problem(out / "again.prob", read_problem(out / "canonical.prob"))
    assert (out / "again.prob").read_bytes() == (out / "canonical.prob").read_bytes()


# ---------------------------------------------------------------------------
# bytes that are not ASCII, in every format


@pytest.mark.parametrize(
    "reader, data, line, column",
    [
        (read_problem, b"1 2 1\n1\n1\n1\xc3\xa9 0\n", 4, 1),
        (read_matrix, b"1\xff 0\n", 1, 1),
        (read_solution, solution_text().encode()[:-2] + b"\xe91\n", 8, 1),
        # looked for when the file is opened, so it is reported before the
        # nan on line 3, though that comes first in file order
        (read_problem, b"1 2 1\n2\nnan 1\n1 1\n1 0\n0 \xe9\n", 6, 2),
    ],
    ids=["problem", "matrix", "solution", "problem-after-a-nan"],
)
def test_non_ascii_byte_is_a_parse_error(tmp_path, reader, data, line, column):
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    with pytest.raises(ParseError, match="non-ASCII byte") as err:
        reader(path)
    assert (err.value.line, err.value.column) == (line, column)


# ---------------------------------------------------------------------------
# numbers in Python's digit groups, which int, float and numpy read as 10

@pytest.mark.parametrize(
    "reader, text, match, line, column",
    [
        (read_problem, "1_0 2 1\n", "bad integer '1_0' in header", 1, 1),
        (read_problem, "1 2 1\n1_0\n", "bad integer '1_0' in size of pair 0", 2, 1),
        (read_problem, "1 2 1\n2\n1 0\n0 1\n1 0\n1 2_0\n", "'2_0' in B_0 row 1", 6, 2),
        # the first fault in file order is still the one reported
        (read_problem, "1 2 1\n2\n1 x\n0 1\n1 0\n1 2_0\n", "'x' in A_0 row 0", 3, 2),
        (read_problem, "1 2 1\n2\n1 0\n0 1_0\n1 0\n1 x\n", "'1_0' in A_0 row 1", 4, 2),
        (read_matrix, "1 2\n3 4_0\n", "bad number '4_0' in matrix row 1", 2, 2),
        (read_solution, solution_text(iterations="1_0"), "bad integer '1_0' in iterations", 3, 2),
        (read_solution, solution_text(grad_norm="0_5"), "bad number '0_5' in grad_norm", 5, 2),
        (read_solution, solution_text()[:-2] + "1_0\n", "'1_0' in X row 0", 8, 1),
    ],
    ids=[
        "problem-header",
        "problem-pair-size",
        "problem-entry",
        "problem-earlier-bad-token",
        "problem-then-bad-token",
        "matrix",
        "solution-iterations",
        "solution-grad_norm",
        "solution-X",
    ],
)
def test_digit_groups_are_a_parse_error(tmp_path, reader, text, match, line, column):
    path = tmp_path / "grouped.txt"
    path.write_text(text)
    with pytest.raises(ParseError, match=match) as err:
        reader(path)
    assert (err.value.line, err.value.column) == (line, column)


# ---------------------------------------------------------------------------
# a ParseError names its file


@pytest.mark.parametrize(
    "reader, text, where",
    [
        (read_problem, "1 2 1\n1\n1\n1 x\n", "line 4, column 2"),
        (read_problem, "", None),
        (read_matrix, "1 2\n3 x\n", "line 2, column 2"),
        (read_solution, "n 1\n", None),
        (read_pgm, "P5\n2 x\n255\n", "line 2, column 2"),
    ],
    ids=["problem", "problem-empty", "matrix", "solution-end-of-file", "pgm"],
)
def test_a_parse_error_names_its_file(tmp_path, reader, text, where):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        reader(path)
    assert err.value.path == path
    where = str(path) if where is None else f"{path}, {where}"
    assert str(err.value).endswith(f" ({where})")
    assert str(err.value).count(str(path)) == 1


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
    assert evaluate(inst, Z).f < 1e-20


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
    # no sizes make m = 0, refused before any draw, as k = 0 is
    with pytest.raises(ValueError, match="^m=0 is not an integer of at least 1$"):
        generate_instance(3, 1, sizes=[])
    with pytest.raises(ValueError, match="^k=0 is not an integer of at least 1$"):
        generate_instance(3, 0, m=1)
    # non-integers are refused, not truncated or left to fail elsewhere
    with pytest.raises(ValueError, match=r"^sizes\[0\]=2\.7 is not an integer of at least 1$"):
        generate_instance(n=4, k=2, sizes=[2.7, 3.2])
    with pytest.raises(ValueError, match="m=2.0"):
        generate_instance(4, 2, m=2.0)
    with pytest.raises(ValueError, match="n=4.0"):
        generate_instance(4.0, 2, m=2)
    with pytest.raises(ValueError, match="k=1.5"):
        generate_instance(4, 1.5, m=2)
    assert generate_instance(np.int64(4), 2, sizes=(np.int64(s) for s in [3, 5])).m == 2


@pytest.mark.parametrize(
    "kwargs, name",
    [
        (dict(n=True, k=1, m=1), "n=True"),
        (dict(n=3, k=True, m=1), "k=True"),
        (dict(n=3, k=1, m=True), "m=True"),
        (dict(n=3, k=1, sizes=[True, 2]), "sizes"),
    ],
)
def test_generate_refuses_a_bool_dimension(kwargs, name):
    # a bool is a numbers.Integral but no dimension or size
    with pytest.raises(ValueError, match=re.escape(name)):
        generate_instance(**kwargs)
