"""Plain-text problem/solution/trace serialization and instance generation.

Problem files are whitespace-separated text with explicit dimension headers:

    m n k
    m_1
    <m_1 rows of m_1 numbers>    (A_1, row-major)
    <m_1 rows of n numbers>      (B_1, row-major)
    m_2
    ...

Numbers are written with 16 significant digits, which reproduces values to
better than 1e-12 relative and makes write -> read -> write byte-stable.
Traces are six-column CSV; solutions carry summary fields and the assembled
X.  Every format is read through one block reader, which splits each line
once and converts each block of numbers in one call, and every row of
numbers is written through one % template per row and one line writer, so
converting or formatting each number is the only per-number cost.

Readers accept only what the writers produce.  A malformed or non-finite
number, a non-integer count or trace index, a trace index out of sequence,
m, m_i or n < 1, a count of rows the file does not hold, a negative
iteration count, an unknown termination reason or a byte that is not ASCII
is a ParseError naming its line (and, for a bad token, its column).  The
same seed always regenerates the same instance.
"""

import math
import numbers
from dataclasses import dataclass
from itertools import compress, count
from operator import attrgetter

import numpy as np

from .problem import ProblemInstance, ValidationError
from .solver import IterationRecord, SolverResult, TerminationReason


class ParseError(ValueError):
    """Malformed input file; carries the 1-based line (and token column)."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


_SPEC = ".16g"  # 16 significant digits: how every file format writes a float


def format_float(x: float) -> str:
    """A float as text with 16 significant digits, as every file format writes it."""
    return format(float(x), _SPEC)


class _TokenLines:
    """A file's non-blank lines, consumed in order.

    tokens[j] is the j-th non-blank line split on whitespace, or on sep when
    one is given (CSV, where a line of only whitespace is blank); each line
    is split once.  linenos[j] is that line's 1-based number, read only to
    report a fault.  A byte that is not ASCII is a ParseError at its line
    and token.
    """

    def __init__(self, path, sep=None):
        # a non-ASCII byte reads as a lone surrogate, inside some token
        with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
            text = fh.read()
        lines = text.splitlines()
        if sep is None:
            split = list(map(str.split, lines))  # a blank line splits to []
        else:
            split = [raw.split(sep) if raw.strip() else [] for raw in lines]
        self.linenos = list(compress(count(1), split))
        self.tokens = list(filter(None, split))
        if not text.isascii():
            lineno, j, tok = next(
                (lineno, j, tok)
                for lineno, toks in zip(self.linenos, self.tokens)
                for j, tok in enumerate(toks, start=1)
                if not tok.isascii()
            )
            bad = tok.encode("ascii", "surrogateescape")
            raise ParseError(f"non-ASCII byte in {bad!r}", line=lineno, column=j)
        self.unit = "values" if sep is None else "columns"
        self.at = 0

    def count_error(self, j, expect, what):
        """The ParseError for non-blank line j when it does not hold expect tokens."""
        return ParseError(
            f"expected {expect} {self.unit} for {what}, found {len(self.tokens[j])}",
            line=self.linenos[j],
        )

    def next_line(self, expect: int, what: str):
        """The next line as (line number, tokens); it must hold expect tokens."""
        j = self.at
        if j >= len(self.tokens):
            raise ParseError(f"unexpected end of file while reading {what}")
        self.at += 1
        if len(self.tokens[j]) != expect:
            raise self.count_error(j, expect, what)
        return self.linenos[j], self.tokens[j]

    def done(self):
        if self.at < len(self.tokens):
            raise ParseError("unexpected trailing content", line=self.linenos[self.at])


def _numbers(lineno, toks, what, kind, skip=0):
    """toks[skip:] converted by kind; a token kind refuses raises at its column."""
    out = []
    for j, tok in enumerate(toks[skip:], start=skip):
        try:
            out.append(kind(tok))
        except ValueError:
            noun = "integer" if kind is int else "number"
            raise ParseError(
                f"bad {noun} {tok!r} in {what}", line=lineno, column=j + 1
            ) from None
    return out


def _read_block(reader, rows, cols, what):
    """The next rows lines (rows >= 1), cols numbers each, as a float array.

    The block's lines are taken as one slice, and the array is allocated
    only once the lines left and every row's count bear out rows and cols,
    so a count in a header cannot ask for more memory than the file holds.
    numpy then converts the whole block in one call, each string as
    Python's float does.  Rows are looked into, and labelled, only on a
    fault, and the first fault in file order is the one raised: a row r of
    the wrong width is reported once rows 0..r-1 hold no bad token.
    """
    first = reader.at
    block = reader.tokens[first : first + rows]
    if len(block) < rows:
        raise ParseError(
            f"unexpected end of file: {what} needs {rows} rows, found {len(block)}",
            line=reader.linenos[-1] if reader.linenos else None,
        )
    widths = list(map(len, block))
    if widths.count(cols) != rows:
        r = next(r for r, width in enumerate(widths) if width != cols)
        _raise_bad_token(reader, first, r, what)
        raise reader.count_error(first + r, cols, f"{what} row {r}")
    reader.at = first + rows
    try:
        return np.array(block, dtype=float)
    except ValueError:
        _raise_bad_token(reader, first, rows, what)
        raise


def _raise_bad_token(reader, first, rows, what):
    """Raise at the first token float refuses in rows 0..rows-1 of a block.

    The block's row 0 is reader line first.  Returns if every token converts.
    """
    for r in range(rows):
        j = first + r
        _numbers(reader.linenos[j], reader.tokens[j], f"{what} row {r}", float)


def _finite(data, reader, first, what):
    """Return data if it is all finite, else raise at its first NaN or infinity.

    data[r] was parsed from reader line first + r.  One check per block keeps
    the common case cheap (count_nonzero costs half of .all() on small
    blocks); the token is found only on failure.
    """
    if np.count_nonzero(np.isfinite(data)) != data.size:
        r, c = np.argwhere(~np.isfinite(data))[0]
        j = first + r
        raise ParseError(
            f"non-finite number {reader.tokens[j][c]!r} in {what}",
            line=reader.linenos[j],
            column=int(c) + 1,
        )
    return data


def _template(cols, sep):
    """A % template for cols floats in format_float's format, joined by sep.

    For a float x, "%.16g" % x is format(x, ".16g"), character for character.
    """
    return sep.join(["%" + _SPEC] * cols)


def _rows(M):
    """Each row of the 2-D array M as one line, formatted by one template."""
    template = _template(M.shape[1], " ")
    return [template % tuple(row) for row in M.tolist()]


def write_lines(path, lines):
    """Write ASCII lines, each ended by a newline."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join([*lines, ""]))


def read_problem(path) -> ProblemInstance:
    """Parse a problem file into a (validated) ProblemInstance.

    The instance's construction detects non-finite entries; only then are
    the bad pair's two blocks searched for the token to report.
    """
    reader = _TokenLines(path)
    lineno, toks = reader.next_line(3, "header (m n k)")
    m, n, k = _numbers(lineno, toks, "header", int)
    if m < 1:
        raise ParseError("pair count m must be positive", line=lineno)
    if n < 1:
        raise ParseError("column dimension n must be positive", line=lineno)
    pairs, starts = [], []
    for i in range(m):
        what = f"size of pair {i}"
        lineno, toks = reader.next_line(1, what)
        (mi,) = _numbers(lineno, toks, what, int)
        if mi < 1:
            raise ParseError(f"pair {i} size must be positive", line=lineno)
        starts.append(reader.at)
        A = _read_block(reader, mi, mi, f"A_{i}")
        B = _read_block(reader, mi, n, f"B_{i}")
        pairs.append((A, B))
    reader.done()
    try:
        return ProblemInstance(pairs=tuple(pairs), n=n, k=k)
    except ValidationError as err:
        for v in err.violations:
            if v.code == "non-finite":
                (A, B), first = pairs[v.pair], starts[v.pair]
                _finite(A, reader, first, f"A_{v.pair}")
                _finite(B, reader, first + len(A), f"B_{v.pair}")
        raise


def write_problem(path, instance: ProblemInstance):
    """Write the canonical text form (16 significant digits)."""
    lines = [f"{instance.m} {instance.n} {instance.k}"]
    for A, B in instance.pairs:
        lines += [str(A.shape[0]), *_rows(A), *_rows(B)]
    write_lines(path, lines)


def read_matrix(path) -> np.ndarray:
    """Read a rectangular whitespace-separated matrix (one row per line).

    Every row must hold as many values as the first (`_read_block`).
    """
    reader = _TokenLines(path)
    if not reader.tokens:
        raise ParseError("empty matrix file")
    data = _read_block(reader, len(reader.tokens), len(reader.tokens[0]), "matrix")
    return _finite(data, reader, 0, "matrix")


def write_matrix(path, M):
    write_lines(path, _rows(np.atleast_2d(np.asarray(M, dtype=np.float64))))


TRACE_HEADER = "iteration,f,grad_norm,residual,step,beta"
_TRACE_ROW = "%s," + _template(5, ",")
_TRACE_FIELDS = attrgetter("index", "f_value", "grad_norm", "residual", "step", "beta")


def write_trace(path, trace):
    """Write a trace as CSV, one row per iteration, in one pass over trace.

    trace is any iterable of IterationRecord: a solver's `Trace`,
    read_trace's list or an iterator.  Each row is one % template.
    """
    rows = map(_TRACE_ROW.__mod__, map(_TRACE_FIELDS, trace))
    write_lines(path, [TRACE_HEADER, *rows])


def read_trace(path):
    """Read a trace CSV: iteration indices 0, 1, 2, ... in order, finite values.

    Row 0, the start point, is always written, so a header alone is refused.
    """
    reader = _TokenLines(path, sep=",")
    if not reader.tokens or reader.tokens[0] != TRACE_HEADER.split(","):
        raise ParseError("missing trace header", line=1)
    if len(reader.tokens) == 1:
        raise ParseError("trace has no iteration rows", line=1)
    reader.at = 1
    data = _read_block(reader, len(reader.tokens) - 1, 6, "trace")
    _finite(data, reader, 1, "trace")
    for expected, lineno, (token, *_) in zip(
        count(), reader.linenos[1:], reader.tokens[1:]
    ):
        if token == str(expected):
            continue
        # another spelling of the expected index ("01", " 1") is accepted
        (index,) = _numbers(lineno, [token], "trace iteration", int)
        if index != expected:
            raise ParseError(
                f"trace iteration {index} out of sequence, expected {expected}",
                line=lineno,
                column=1,
            )
    return list(map(IterationRecord, count(), *data[:, 1:].T.tolist()))


def summary_lines(result: SolverResult):
    """The termination, iterations, f, grad_norm and residual lines of a result."""
    last = result.trace[-1]
    return [
        f"termination {result.termination_reason.value}",
        f"iterations {result.iterations}",
        f"f {format_float(last.f_value)}",
        f"grad_norm {format_float(last.grad_norm)}",
        f"residual {format_float(last.residual)}",
    ]


@dataclass
class SolutionSummary:
    X: np.ndarray
    termination: str
    iterations: int
    f_value: float
    grad_norm: float
    residual: float


def write_solution(path, result: SolverResult):
    """Write n, the summary lines, an X marker and the assembled X."""
    n = result.X_final.shape[0]
    write_lines(path, [f"n {n}", *summary_lines(result), "X", *_rows(result.X_final)])


def read_solution(path) -> SolutionSummary:
    reader = _TokenLines(path)
    reasons = {reason.value for reason in TerminationReason}

    def keyed(key, kind, ok, fault):
        """The value of the `key value` line; fault names a value that is not ok."""
        lineno, toks = reader.next_line(2, key)
        if toks[0] != key:
            raise ParseError(f"expected field {key!r}, found {toks[0]!r}", line=lineno)
        (value,) = _numbers(lineno, toks, key, kind, skip=1)
        if not ok(value):
            raise ParseError(f"{fault} {key} {toks[1]!r}", line=lineno, column=2)
        return value

    n = keyed("n", int, lambda v: v >= 1, "non-positive")
    termination = keyed("termination", str, reasons.__contains__, "unknown")
    iterations = keyed("iterations", int, lambda v: v >= 0, "negative")
    f, grad_norm, residual = (
        keyed(key, float, math.isfinite, "non-finite")
        for key in ("f", "grad_norm", "residual")
    )
    lineno, toks = reader.next_line(1, "X marker")
    if toks[0] != "X":
        raise ParseError("expected X marker", line=lineno)
    first = reader.at
    X = _finite(_read_block(reader, n, n, "X"), reader, first, "X")
    reader.done()
    return SolutionSummary(X, termination, iterations, f, grad_norm, residual)


def generate_instance(
    n: int,
    k: int,
    m: int | None = None,
    sizes=None,
    seed: int = 0,
    mode: str = "random",
) -> ProblemInstance:
    """Draw a seeded instance.

    In "random" mode every A_i and B_i entry is uniform on [0, 1).  In
    "consistent" mode the B_i are drawn, then a hidden factor Z (n x k), and
    A_i = B_i Z Z^T B_i^T, so the optimal objective value is exactly zero.
    Z is not the first draw, which is `solve`'s default start for the same
    seed.  Identical seeds give identical instances.
    """
    for name, value in (("n", n), ("k", k), ("m", m)):
        if value is not None and not isinstance(value, numbers.Integral):
            raise ValueError(f"{name}={value!r} is not an integer")
    if sizes is None:
        if m is None:
            raise ValueError("provide sizes or m")
        sizes = [n] * m
    sizes = list(sizes)
    if not all(isinstance(s, numbers.Integral) for s in sizes):
        raise ValueError(f"sizes={sizes!r} are not all integers")
    sizes = list(map(int, sizes))
    if m is None:
        m = len(sizes)
    if m != len(sizes):
        raise ValueError(f"m={m} disagrees with {len(sizes)} sizes")
    if n < 1 or k < 1 or m < 1 or any(s < 1 for s in sizes):
        raise ValueError("dimensions must be positive")  # ProblemInstance checks k <= n
    if mode not in ("random", "consistent"):
        raise ValueError(f"unknown mode {mode!r}")
    rng = np.random.default_rng(seed)
    pairs = []
    if mode == "consistent":
        Bs = [rng.random((mi, n)) for mi in sizes]
        Z = rng.random((n, k))
        for B in Bs:
            W = B @ Z
            pairs.append((W @ W.T, B))
    else:
        for mi in sizes:
            A = rng.random((mi, mi))
            B = rng.random((mi, n))
            pairs.append((A, B))
    return ProblemInstance(pairs=tuple(pairs), n=n, k=k)
