"""Every file format (problem, matrix, trace, solution and PGM image) and
instance generation.

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
X.  Every text format is read through one block reader, which splits each
line once, converts each block of numbers in one call and screens it with
one dot product, and every row of numbers is written through one %
template per row and one line writer, so converting or formatting each
number is the only per-number cost.

The text readers accept only what the writers produce.  A malformed or
non-finite number (one in Python's digit groups, such as 1_0, too), a
non-integer count or trace index, a trace index out of sequence, m, m_i or
n < 1, a count of rows the file does not hold, a negative iteration count,
an unknown termination reason or a byte that is not ASCII is a ParseError
naming its file and line (and, for a bad token, its column).  A byte that
is not ASCII is looked for when the file is opened, so it is the fault
reported wherever it stands.  Otherwise each reader raises a fault as it
reaches it, and a block's rows are looked into only when the block fails,
so the first fault in file order is the one raised.

Images are 8-bit binary PGM (magic "P5"); nothing fancier is supported.
A fault in a PGM file is a ParseError naming the file too, a bad header
field at its line and token column; an image given to write_pgm that
cannot be written is a ValueError.

The same seed always regenerates the same instance.
"""

import functools
import math
import re
from dataclasses import dataclass
from itertools import compress, count
from operator import attrgetter

import numpy as np

from .problem import ProblemInstance, _as_float, _check_integer
from .solver import IterationRecord, SolverResult, TerminationReason


class ParseError(ValueError):
    """Malformed input file; carries its path, the 1-based line and token column.

    The path is put on by the public reader the error leaves
    (`_naming_the_file`), and the message names each that is known:
    "... (demo.prob, line 3, column 1)".
    """

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.path = None
        self.line = line
        self.column = column

    def __str__(self):
        where = [] if self.path is None else [f"{self.path}"]
        if self.line is not None:
            where.append(f"line {self.line}")
            if self.column:
                where.append(f"column {self.column}")
        message = super().__str__()
        return f"{message} ({', '.join(where)})" if where else message


def _naming_the_file(read):
    """read(path), with path put on any ParseError it raises."""

    @functools.wraps(read)
    def reader(path):
        try:
            return read(path)
        except ParseError as exc:
            exc.path = path
            raise

    return reader


_SPEC = ".16g"  # 16 significant digits: how every file format writes a float
# the one word with an underscore that a writer writes (trace and solution
# files); any other underscore is in a number spelt with Python's digit
# groups, which int, float and numpy read ("1_0" is 10) and no writer writes
_FIELD_WITH_UNDERSCORE = "grad_norm"


def format_float(x: float) -> str:
    """A float as text with 16 significant digits, as every file format writes it."""
    return format(float(x), _SPEC)


class _TokenLines:
    """A file's non-blank lines, consumed in order.

    tokens[j] is the j-th non-blank line split on whitespace, or on sep when
    one is given (CSV, where a line of only whitespace is blank); each line
    is split once.  linenos[j] is that line's 1-based number, read only to
    report a fault.  A byte that is not ASCII is a ParseError at its line
    and token.  grouped says whether an underscore stands outside the field
    name grad_norm: one scan of the text, and only a file where one does
    has its numbers checked token by token for it (`numbers`, `_read_block`).
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
        self.grouped = "_" in text and "_" in text.replace(_FIELD_WITH_UNDERSCORE, "")
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

    def numbers(self, lineno, toks, what, kind, skip=0):
        """toks[skip:] converted by kind (int, float or str); a token kind
        refuses, or a number with an underscore, raises at its column."""
        out = []
        grouped = self.grouped and kind is not str
        for j, tok in enumerate(toks[skip:], start=skip):
            try:
                if grouped and "_" in tok:
                    raise ValueError
                out.append(kind(tok))
            except ValueError:
                noun = "integer" if kind is int else "number"
                raise ParseError(
                    f"bad {noun} {tok!r} in {what}", line=lineno, column=j + 1
                ) from None
        return out


def _read_block(reader, rows, cols, what):
    """The next rows lines (rows >= 0), cols numbers each, as a float array.

    The block's lines are taken as one slice and numpy converts them in one
    call, each string as Python's float does, so the array is built only
    from tokens the file holds: no count in a header can ask for more
    memory than the file.  One dot product screens the values, as a sum of
    squares is finite only if every entry is.  Rows are looked into, and
    labelled, only when the conversion, the shape or the screen fails, or
    the file holds a number with an underscore (`_TokenLines.grouped`), and
    `_raise_fault` then raises the block's first fault in file order.  A
    block the file ends inside is reported at the end of the file, unless
    one of the rows it has holds a bad or non-finite number.
    """
    first = reader.at
    block = reader.tokens[first : first + rows]
    if len(block) < rows:
        _raise_fault(reader, first, len(block), None, what)
        raise ParseError(
            f"unexpected end of file: {what} needs {rows} rows, found {len(block)}",
            line=reader.linenos[-1] if reader.linenos else None,
        )
    reader.at = first + rows
    try:
        data = np.array(block, dtype=float)
    except ValueError:  # a ragged block, or a token float refuses
        _raise_fault(reader, first, rows, cols, what)
        raise
    if (
        data.shape != (rows, cols)
        or not math.isfinite(np.vdot(data, data))
        or reader.grouped
    ):
        _raise_fault(reader, first, rows, cols, what)
    return data


def _raise_fault(reader, first, rows, cols, what):
    """Raise at the first fault in rows 0..rows-1 of a block, in file order.

    The block's row 0 is reader line first.  In each row its width is
    checked (unless cols is None), then each token in turn: one that holds
    an underscore or that float refuses, or one that reads as nan or an
    infinity, is raised at its column.
    Returns if there is no fault, as when finite values such as 1e200
    overflow a sum of squares.
    """
    for r in range(rows):
        j = first + r
        lineno, toks = reader.linenos[j], reader.tokens[j]
        if cols is not None and len(toks) != cols:
            raise reader.count_error(j, cols, f"{what} row {r}")
        for c, tok in enumerate(toks, start=1):
            try:
                fault = None if math.isfinite(float(tok)) else "non-finite"
            except ValueError:
                fault = "bad"
            if "_" in tok:
                fault = "bad"
            if fault:
                raise ParseError(
                    f"{fault} number {tok!r} in {what} row {r}", line=lineno, column=c
                )


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


@_naming_the_file
def read_problem(path) -> ProblemInstance:
    """Parse a problem file into a (validated) ProblemInstance."""
    reader = _TokenLines(path)
    lineno, toks = reader.next_line(3, "header (m n k)")
    m, n, k = reader.numbers(lineno, toks, "header", int)
    if m < 1:
        raise ParseError("pair count m must be positive", line=lineno)
    if n < 1:
        raise ParseError("column dimension n must be positive", line=lineno)
    if not 1 <= k <= n:
        raise ParseError(f"rank bound k={k} outside [1, n]={n}", line=lineno)
    pairs = []
    for i in range(m):
        what = f"size of pair {i}"
        lineno, toks = reader.next_line(1, what)
        (mi,) = reader.numbers(lineno, toks, what, int)
        if mi < 1:
            raise ParseError(f"pair {i} size must be positive", line=lineno)
        A = _read_block(reader, mi, mi, f"A_{i}")
        B = _read_block(reader, mi, n, f"B_{i}")
        pairs.append((A, B))
    reader.done()
    return ProblemInstance(pairs=tuple(pairs), n=n, k=k)


def write_problem(path, instance: ProblemInstance):
    """Write the canonical text form (16 significant digits)."""
    lines = [f"{instance.m} {instance.n} {instance.k}"]
    for A, B in instance.pairs:
        lines += [str(A.shape[0]), *_rows(A), *_rows(B)]
    write_lines(path, lines)


@_naming_the_file
def read_matrix(path) -> np.ndarray:
    """Read a rectangular whitespace-separated matrix (one row per line).

    Every row must hold as many values as the first (`_read_block`).
    """
    reader = _TokenLines(path)
    if not reader.tokens:
        raise ParseError("empty matrix file")
    return _read_block(reader, len(reader.tokens), len(reader.tokens[0]), "matrix")


def write_matrix(path, M):
    """Write M one row per line; an M that is not real (`_as_float`) is a ValueError."""
    write_lines(path, _rows(np.atleast_2d(_as_float(M, "M"))))


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


@_naming_the_file
def read_trace(path):
    """Read a trace CSV: iteration indices 0, 1, 2, ... in order, finite values.

    Row 0, the start point, is always written, so a header alone is refused.
    The block is read only up to the first row whose index is not its
    iteration number, so a fault in an earlier row is the one reported.
    """
    reader = _TokenLines(path, sep=",")
    if not reader.tokens or reader.tokens[0] != TRACE_HEADER.split(","):
        raise ParseError("missing trace header", line=1)
    if len(reader.tokens) == 1:
        raise ParseError("trace has no iteration rows", line=1)
    reader.at = 1
    for expected, lineno, (token, *_) in zip(
        count(), reader.linenos[1:], reader.tokens[1:]
    ):
        if token == str(expected):
            continue
        # another spelling of the expected index ("01", " 1") is accepted,
        # but not one with digit groups ("1_0")
        try:
            if int(token) == expected and "_" not in token:
                continue
        except ValueError:
            pass
        _read_block(reader, expected, 6, "trace")
        (index,) = reader.numbers(lineno, [token], "trace iteration", int)
        raise ParseError(
            f"trace iteration {index} out of sequence, expected {expected}",
            line=lineno,
            column=1,
        )
    data = _read_block(reader, len(reader.tokens) - 1, 6, "trace")
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


@_naming_the_file
def read_solution(path) -> SolutionSummary:
    reader = _TokenLines(path)
    reasons = {reason.value for reason in TerminationReason}

    def keyed(key, kind, ok, fault):
        """The value of the `key value` line; fault names a value that is not ok."""
        lineno, toks = reader.next_line(2, key)
        if toks[0] != key:
            raise ParseError(f"expected field {key!r}, found {toks[0]!r}", line=lineno)
        (value,) = reader.numbers(lineno, toks, key, kind, skip=1)
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
    X = _read_block(reader, n, n, "X")
    reader.done()
    return SolutionSummary(X, termination, iterations, f, grad_norm, residual)


# a PGM header comment (# to the end of its line) or a token; bytes between
# matches are whitespace, and # inside a token is part of it
_HEADER_TOKENS = re.compile(rb"#[^\r\n]*|\S+").finditer


@_naming_the_file
def read_pgm(path) -> np.ndarray:
    """Read a binary 8-bit PGM file into a (height, width) uint8 array.

    Header comments (``#`` to end of line) and arbitrary whitespace are
    accepted; maxval above 255 (16-bit rasters) is not, nor is a pixel above
    maxval, which is reported at its 0-based row and column.  A header field
    that int refuses, or one in Python's digit groups such as 1_0 (which int
    reads as 10), is reported at its line and token column.  Every fault
    is a ParseError.
    """
    with open(path, "rb") as fh:
        data = fh.read()

    tokens = []
    for match in _HEADER_TOKENS(data):
        if match[0][:1] != b"#":  # not a comment
            tokens.append(match)
            if len(tokens) == 4:
                break
    else:
        raise ParseError("truncated header")
    if tokens[0][0] != b"P5":
        raise ParseError(f"not a binary graymap (magic {tokens[0][0]!r})")
    fields = []
    for token in tokens[1:]:
        try:
            if b"_" in token[0]:  # int reads b"1_0" as 10
                raise ValueError
            fields.append(int(token[0]))
        except ValueError:
            line, column = _header_location(data, token.start())
            raise ParseError(f"non-numeric header field {token[0]!r}", line, column) from None
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise ParseError("bad image dimensions")
    if not 0 < maxval <= 255:
        raise ParseError(f"only 8-bit graymaps supported (maxval {maxval})")
    i = tokens[3].end() + 1  # single whitespace byte after maxval
    raster = data[i : i + width * height]
    if len(raster) != width * height:
        raise ParseError("truncated raster data")
    image = np.frombuffer(raster, dtype=np.uint8).reshape(height, width).copy()
    if image.max() > maxval:
        row, col = np.argwhere(image > maxval)[0]
        raise ParseError(
            f"pixel {image[row, col]} at row {row}, column {col} exceeds maxval {maxval}"
        )
    return image


def _header_location(data, start):
    """(line, column) of the header token at byte start: lines end at \n,
    \r or \r\n, and the column counts the tokens on its line."""
    head = data[:start]
    line_start = max(head.rfind(b"\n"), head.rfind(b"\r")) + 1
    return len(head[:line_start].splitlines()) + 1, len(head[line_start:].split()) + 1


def write_pgm(path, image):
    """Write a 2-D image as binary 8-bit PGM, each pixel rounded and clipped
    to [0, 255].

    The image is cast as pairs are (`_as_float`): one that is not real
    (complex, or of strings) is a ValueError, as is one that is not 2-D or
    is empty, and a non-finite pixel, which is reported at its 0-based row
    and column.
    """
    image = _as_float(image, "image")
    if image.ndim != 2 or image.size == 0:  # read_pgm refuses a side of 0
        raise ValueError(f"image must be 2-D and not empty, got shape {image.shape}")
    if not np.isfinite(image).all():
        row, col = np.argwhere(~np.isfinite(image))[0]
        raise ValueError(f"non-finite pixel {image[row, col]} at row {row}, column {col}")
    img = np.clip(np.rint(image), 0, 255).astype(np.uint8)
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


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
    seed.  Identical seeds give identical instances.  n, k, m (given, or
    the number of sizes) and each size are integers of at least 1, and the
    seed one of at least 0 (`_check_integer`: None, True, -1 or 2.5 is a
    ValueError); ProblemInstance checks k <= n.
    """
    if m is None and sizes is None:
        raise ValueError("provide sizes or m")
    sizes = None if sizes is None else list(sizes)
    m = len(sizes) if m is None else m
    for name, value in (("n", n), ("k", k), ("m", m)):
        _check_integer(name, value, 1)
    sizes = [n] * m if sizes is None else sizes
    for i, size in enumerate(sizes):
        _check_integer(f"sizes[{i}]", size, 1)
    if m != len(sizes):
        raise ValueError(f"m={m} disagrees with {len(sizes)} sizes")
    if mode not in ("random", "consistent"):
        raise ValueError(f"unknown mode {mode!r}")
    _check_integer("seed", seed, 0)
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
