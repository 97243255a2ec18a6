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
X.  Every format is read through one block reader and written through one
row formatter and one line writer.

Readers accept only what the writers produce.  A malformed or non-finite
number, a non-integer count or trace index, a trace index out of sequence,
m, m_i or n < 1, a count of rows the file does not hold, a negative
iteration count or an unknown termination reason is a ParseError naming its
line (and, for a bad token, its column).  The same seed always regenerates
the same instance.
"""

import math
from dataclasses import dataclass

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


def format_float(x: float) -> str:
    """A float as text with 16 significant digits, as every file format writes it."""
    return format(float(x), ".16g")


class _TokenLines:
    """A file's non-blank lines as (line number, tokens), consumed in order.

    Tokens are split on whitespace, or on sep when one is given (CSV).
    """

    def __init__(self, path, sep=None):
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
        self.rows = [
            (i + 1, raw.split(sep)) for i, raw in enumerate(lines) if raw.strip()
        ]
        self.unit = "values" if sep is None else "columns"
        self.at = 0

    def next_line(self, expect: int, what: str):
        if self.at >= len(self.rows):
            raise ParseError(f"unexpected end of file while reading {what}")
        lineno, toks = self.rows[self.at]
        self.at += 1
        if len(toks) != expect:
            raise ParseError(
                f"expected {expect} {self.unit} for {what}, found {len(toks)}",
                line=lineno,
            )
        return lineno, toks

    def done(self):
        if self.at < len(self.rows):
            lineno, _ = self.rows[self.at]
            raise ParseError("unexpected trailing content", line=lineno)


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
    """The next rows lines, cols numbers each, as a float array.

    The array is allocated only once the lines left and the first row's
    width bear out rows and cols, so a count in a header cannot ask for
    more memory than the file holds.  numpy converts each row's strings as
    Python's float does; the bad token is looked for only when it refuses
    one.
    """
    left = len(reader.rows) - reader.at
    if rows > left:
        raise ParseError(
            f"unexpected end of file: {what} needs {rows} rows, found {left}",
            line=reader.rows[-1][0] if reader.rows else None,
        )
    data = np.empty((0, cols))
    for r in range(rows):
        lineno, toks = reader.next_line(cols, f"{what} row {r}")
        if r == 0:
            data = np.empty((rows, cols))
        try:
            data[r] = toks
        except ValueError:
            data[r] = _numbers(lineno, toks, f"{what} row {r}", float)
    return data


def _finite(data, reader, first, what):
    """Return data if it is all finite, else raise at its first NaN or infinity.

    data[r] was parsed from reader.rows[first + r].  One check per block keeps
    the common case cheap (count_nonzero costs half of .all() on small
    blocks); the token is found only on failure.
    """
    if np.count_nonzero(np.isfinite(data)) != data.size:
        r, c = np.argwhere(~np.isfinite(data))[0]
        lineno, toks = reader.rows[first + r]
        raise ParseError(
            f"non-finite number {toks[c]!r} in {what}", line=lineno, column=int(c) + 1
        )
    return data


def _rows(M, sep=" "):
    """Each row of M as one line of formatted numbers."""
    return [sep.join(format_float(x) for x in row) for row in M]


def write_lines(path, lines):
    """Write ASCII lines, each ended by a newline."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("".join(line + "\n" for line in lines))


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
        lineno, toks = reader.next_line(1, f"size of pair {i}")
        (mi,) = _numbers(lineno, toks, f"size of pair {i}", int)
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
    """Read a rectangular whitespace-separated matrix (one row per line)."""
    reader = _TokenLines(path)
    if not reader.rows:
        raise ParseError("empty matrix file")
    width = len(reader.rows[0][1])
    ragged = [lineno for lineno, toks in reader.rows if len(toks) != width]
    if ragged:
        raise ParseError(f"ragged matrix: expected {width} values", line=ragged[0])
    data = _read_block(reader, len(reader.rows), width, "matrix")
    return _finite(data, reader, 0, "matrix")


def write_matrix(path, M):
    write_lines(path, _rows(np.atleast_2d(np.asarray(M, dtype=np.float64))))


TRACE_HEADER = "iteration,f,grad_norm,residual,step,beta"


def write_trace(path, trace):
    """Write iteration records as CSV, one row per record."""
    values = _rows(
        [(r.f_value, r.grad_norm, r.residual, r.step, r.beta) for r in trace], ","
    )
    write_lines(
        path, [TRACE_HEADER, *(f"{r.index},{v}" for r, v in zip(trace, values))]
    )


def read_trace(path):
    """Read a trace CSV: iteration indices 0, 1, 2, ... in order, finite values."""
    reader = _TokenLines(path, sep=",")
    if not reader.rows or reader.rows[0][1] != TRACE_HEADER.split(","):
        raise ParseError("missing trace header", line=1)
    reader.at = 1
    data = _read_block(reader, len(reader.rows) - 1, 6, "trace")
    _finite(data, reader, 1, "trace")
    records = []
    for expected, ((lineno, toks), (_, *values)) in enumerate(
        zip(reader.rows[1:], data.tolist())
    ):
        (index,) = _numbers(lineno, toks[:1], "trace iteration", int)
        if index != expected:
            raise ParseError(
                f"trace iteration {index} out of sequence, expected {expected}",
                line=lineno,
                column=1,
            )
        records.append(IterationRecord(index, *values))
    return records


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
    if sizes is None:
        if m is None:
            raise ValueError("provide sizes or m")
        sizes = [n] * m
    sizes = [int(s) for s in sizes]
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
