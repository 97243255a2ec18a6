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
A NaN or infinite entry in any matrix block is a parse error that names
its line and column.
Traces are six-column CSV; solutions carry the assembled X plus summary
fields.  The same seed always regenerates the same instance.
"""

from dataclasses import dataclass

import numpy as np

from .problem import ProblemInstance, validate
from .solver import IterationRecord, SolverResult


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
    """Line-oriented token reader tracking positions for error reports."""

    def __init__(self, text):
        self.rows = []
        for i, raw in enumerate(text.splitlines()):
            if raw.strip():
                self.rows.append((i + 1, raw.split()))
        self.at = 0

    def next_line(self, expect: int, what: str):
        if self.at >= len(self.rows):
            raise ParseError(f"unexpected end of file while reading {what}")
        lineno, toks = self.rows[self.at]
        self.at += 1
        if len(toks) != expect:
            raise ParseError(
                f"expected {expect} values for {what}, found {len(toks)}", line=lineno
            )
        return lineno, toks

    def done(self):
        if self.at < len(self.rows):
            lineno, _ = self.rows[self.at]
            raise ParseError("unexpected trailing content", line=lineno)


def _floats(lineno, toks, what):
    out = []
    for j, tok in enumerate(toks):
        try:
            out.append(float(tok))
        except ValueError:
            raise ParseError(
                f"bad number {tok!r} in {what}", line=lineno, column=j + 1
            ) from None
    return out


def _ints(lineno, toks, what):
    out = []
    for j, tok in enumerate(toks):
        try:
            out.append(int(tok))
        except ValueError:
            raise ParseError(
                f"bad integer {tok!r} in {what}", line=lineno, column=j + 1
            ) from None
    return out


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


def _read_block(reader, rows, cols, what):
    first = reader.at
    data = np.empty((rows, cols))
    for r in range(rows):
        lineno, toks = reader.next_line(cols, f"{what} row {r}")
        data[r] = _floats(lineno, toks, f"{what} row {r}")
    return _finite(data, reader, first, what)


def read_problem(path) -> ProblemInstance:
    """Parse and validate a problem file."""
    with open(path, "r", encoding="ascii") as fh:
        reader = _TokenLines(fh.read())
    lineno, toks = reader.next_line(3, "header (m n k)")
    m, n, k = _ints(lineno, toks, "header")
    if m < 1:
        raise ParseError("pair count m must be positive", line=lineno)
    pairs = []
    for i in range(m):
        lineno, toks = reader.next_line(1, f"size of pair {i}")
        (mi,) = _ints(lineno, toks, f"size of pair {i}")
        if mi < 1:
            raise ParseError(f"pair {i} size must be positive", line=lineno)
        A = _read_block(reader, mi, mi, f"A_{i}")
        B = _read_block(reader, mi, n, f"B_{i}")
        pairs.append((A, B))
    reader.done()
    instance = ProblemInstance(pairs=tuple(pairs), n=n, k=k)
    validate(instance).raise_if_invalid()
    return instance


def write_problem(path, instance: ProblemInstance):
    """Write the canonical text form (16 significant digits)."""
    lines = [f"{instance.m} {instance.n} {instance.k}"]
    for A, B in instance.pairs:
        lines.append(str(A.shape[0]))
        for row in A:
            lines.append(" ".join(format_float(x) for x in row))
        for row in B:
            lines.append(" ".join(format_float(x) for x in row))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_matrix(path) -> np.ndarray:
    """Read a rectangular whitespace-separated matrix (one row per line)."""
    with open(path, "r", encoding="ascii") as fh:
        reader = _TokenLines(fh.read())
    rows = []
    width = None
    while reader.at < len(reader.rows):
        lineno, toks = reader.rows[reader.at]
        reader.at += 1
        if width is None:
            width = len(toks)
        elif len(toks) != width:
            raise ParseError(
                f"ragged matrix: expected {width} values", line=lineno
            )
        rows.append(_floats(lineno, toks, "matrix row"))
    if not rows:
        raise ParseError("empty matrix file")
    return _finite(np.array(rows), reader, 0, "matrix")


def write_matrix(path, M):
    with open(path, "w", encoding="ascii") as fh:
        for row in np.atleast_2d(np.asarray(M, dtype=np.float64)):
            fh.write(" ".join(format_float(x) for x in row) + "\n")


TRACE_HEADER = "iteration,f,grad_norm,residual,step,beta"


def write_trace(path, trace):
    """Write iteration records as CSV, one row per record."""
    lines = [TRACE_HEADER]
    for r in trace:
        lines.append(
            f"{r.index},{format_float(r.f_value)},{format_float(r.grad_norm)},"
            f"{format_float(r.residual)},{format_float(r.step)},{format_float(r.beta)}"
        )
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trace(path):
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not lines or lines[0] != TRACE_HEADER:
        raise ParseError("missing trace header", line=1)
    records = []
    for i, ln in enumerate(lines[1:], start=2):
        parts = ln.split(",")
        if len(parts) != 6:
            raise ParseError("expected 6 columns", line=i)
        vals = _floats(i, parts, "trace row")
        records.append(
            IterationRecord(
                index=int(vals[0]),
                f_value=vals[1],
                grad_norm=vals[2],
                residual=vals[3],
                step=vals[4],
                beta=vals[5],
            )
        )
    return records


@dataclass
class SolutionSummary:
    X: np.ndarray
    termination: str
    iterations: int
    f_value: float
    grad_norm: float
    residual: float


def write_solution(path, result: SolverResult):
    """Write the assembled X plus the final summary fields."""
    last = result.trace[-1]
    n = result.X_final.shape[0]
    lines = [
        f"n {n}",
        f"termination {result.termination_reason.value}",
        f"iterations {result.iterations}",
        f"f {format_float(last.f_value)}",
        f"grad_norm {format_float(last.grad_norm)}",
        f"residual {format_float(last.residual)}",
        "X",
    ]
    for row in result.X_final:
        lines.append(" ".join(format_float(x) for x in row))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_solution(path) -> SolutionSummary:
    with open(path, "r", encoding="ascii") as fh:
        reader = _TokenLines(fh.read())

    def keyed(key, count=1):
        lineno, toks = reader.next_line(1 + count, key)
        if toks[0] != key:
            raise ParseError(f"expected field {key!r}, found {toks[0]!r}", line=lineno)
        return lineno, toks[1:]

    lineno, toks = keyed("n")
    (n,) = _ints(lineno, toks, "n")
    lineno, toks = keyed("termination")
    termination = toks[0]
    lineno, toks = keyed("iterations")
    (iterations,) = _ints(lineno, toks, "iterations")
    values = {}
    for key in ("f", "grad_norm", "residual"):
        lineno, toks = keyed(key)
        values[key] = _floats(lineno, toks, key)[0]
    lineno, toks = reader.next_line(1, "X marker")
    if toks[0] != "X":
        raise ParseError("expected X marker", line=lineno)
    X = _read_block(reader, n, n, "X")
    reader.done()
    return SolutionSummary(
        X=X,
        termination=termination,
        iterations=iterations,
        f_value=values["f"],
        grad_norm=values["grad_norm"],
        residual=values["residual"],
    )


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
    "consistent" mode a hidden factor Z (n x k) is drawn first and
    A_i = B_i Z Z^T B_i^T, so the optimal objective value is exactly zero.
    Identical seeds give identical instances.
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
    if n < 1 or not 1 <= k <= n or m < 1 or any(s < 1 for s in sizes):
        raise ValueError("dimensions must be positive with 1 <= k <= n")
    if mode not in ("random", "consistent"):
        raise ValueError(f"unknown mode {mode!r}")
    rng = np.random.default_rng(seed)
    pairs = []
    if mode == "consistent":
        Z = rng.random((n, k))
        for mi in sizes:
            B = rng.random((mi, n))
            W = B @ Z
            pairs.append((W @ W.T, B))
    else:
        for mi in sizes:
            A = rng.random((mi, mi))
            B = rng.random((mi, n))
            pairs.append((A, B))
    return ProblemInstance(pairs=tuple(pairs), n=n, k=k)
