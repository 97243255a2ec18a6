r"""Every file format (problem, matrix, trace, solution and PGM image), the
rule every command's output paths keep, and instance generation.

Problem files are whitespace-separated text with explicit dimension headers:

    m n k
    m_1
    <m_1 rows of m_1 numbers>    (A_1, row-major)
    <m_1 rows of n numbers>      (B_1, row-major)
    m_2
    ...

Numbers are written with 16 significant digits, which reproduces values to
better than 1e-12 relative and makes write -> read -> write byte-stable.
Traces are six-column CSV, written and not read back; solutions carry
summary fields and the assembled X.  Every file that is read as text
(problem, matrix and solution) goes through one block reader, which keeps
each line as written and splits it only to read it as fields or to locate
a fault, converts blocks of numbers of one row width in one call of
numpy's C text reader (each number as Python's float reads it) and
screens them with one dot product, and every row of numbers is written
through one % template per row and one line writer, so converting or
formatting each number is the only per-number cost.  A problem file's
size lines are read first, and then all its rows of one width in one
call: every B_i row, and the A_i rows of each size m_i, so the number of
calls does not grow with the number of pairs.  Lines end at \n, \r\n or
\r; tab, \v and \f separate values within a line.

The text readers accept only what the writers produce.  A malformed or
non-finite number (one in Python's digit groups, such as 1_0, too), a
non-integer count, m, m_i or n < 1, a count of rows the file does not
hold, a negative iteration count, an unknown termination reason or a byte
that is not ASCII is a ParseError naming its file and line (and, for a
bad token, its column).  A byte that is not ASCII is looked for when the
file is opened, so it is the fault reported wherever it stands.  Every
token read by hand (a header, a size, a keyed field, a PGM header field,
or a number looked into for a fault) goes through one rule, `_number`;
numpy's reader keeps the same rule for blocks of numbers.  Otherwise
each reader raises a fault as it reaches it, and a block's rows are
looked into only when a conversion fails, and then every block of the
file in file order, so the first fault in file order is the one raised.

Images are 8-bit binary PGM (magic "P5"); nothing fancier is supported.
A fault in a PGM file is a ParseError naming the file too, a bad header
field at its line and token column; an image given to write_pgm that
cannot be written is a ValueError.

An output path is checked before any work (`_check_outputs`): one that
is an existing directory, or that resolves to the same file as another
output or an input, is refused, so no output overwrites another output or
an input.

The same seed always regenerates the same instance.
"""

import functools
import math
import os
import re
from dataclasses import dataclass
from itertools import accumulate, chain, compress, count
from operator import attrgetter

import numpy as np

from .problem import ProblemInstance, _as_float, _check_integer
from .solver import SolverResult, TerminationReason


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


def format_float(x: float) -> str:
    """A float as text with 16 significant digits, as every file format writes it."""
    return format(float(x), _SPEC)


def _number(tok, kind=float):
    """kind(tok), refusing (ValueError) a token in Python's digit groups,
    such as 1_0, which int and float read as 10."""
    if "_" in tok:
        raise ValueError(f"digit group in {tok!r}")
    return kind(tok)


class _TokenLines:
    r"""A file's non-blank lines, consumed in order.

    lines[j] is the j-th non-blank line as written, and linenos[j] its
    1-based number, read only to report a fault.  A line ends at \n, \r\n
    or \r and nowhere else; any other whitespace (tab, \v, \f) separates
    values within it.  fields(j) is line j split on whitespace.  A line is
    split only when it is read as fields (a header, a size, a keyed line)
    or a fault in it is looked for: a block of numbers is taken (`take`)
    and goes to numpy's reader as lines (`_read_block`).  A byte that is
    not ASCII is a ParseError at its line and token.
    """

    def __init__(self, path):
        # universal newlines: \r\n and \r arrive as \n; a non-ASCII byte
        # reads as a lone surrogate, inside some token
        with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
            text = fh.read()
        lines = text.split("\n")
        stripped = list(map(str.strip, lines))  # "" for a blank line
        self.linenos = list(compress(count(1), stripped))
        self.lines = list(compress(lines, stripped))
        if not text.isascii():
            j = next(j for j, raw in enumerate(self.lines) if not raw.isascii())
            c, tok = next(
                (c, tok)
                for c, tok in enumerate(self.fields(j), start=1)
                if not tok.isascii()
            )
            bad = tok.encode("ascii", "surrogateescape")
            raise ParseError(f"non-ASCII byte in {bad!r}", line=self.linenos[j], column=c)
        self.at = 0
        self.blocks = []

    def fields(self, j):
        """Non-blank line j split into its tokens."""
        return self.lines[j].split()

    def count_error(self, j, expect, what):
        """The ParseError for non-blank line j when it does not hold expect tokens."""
        return ParseError(
            f"expected {expect} values for {what}, found {len(self.fields(j))}",
            line=self.linenos[j],
        )

    def next_line(self, expect: int, what: str):
        """The next line as (line number, tokens); it must hold expect tokens."""
        j = self.at
        if j >= len(self.lines):
            raise ParseError(f"unexpected end of file while reading {what}")
        self.at += 1
        toks = self.fields(j)
        if len(toks) != expect:
            raise self.count_error(j, expect, what)
        return self.linenos[j], toks

    def take(self, rows, cols, what):
        """The next rows lines as the block (first line, rows, cols, what).

        The block is added to blocks, every block taken, in file order.
        The file need not hold all its rows: `_read_block` and
        `_raise_fault` report one it ends inside.
        """
        block = (self.at, rows, cols, what)
        self.blocks.append(block)
        self.at += rows
        return block

    def done(self):
        if self.at < len(self.lines):
            raise ParseError("unexpected trailing content", line=self.linenos[self.at])

    def numbers(self, lineno, toks, what, kind, skip=0):
        """toks[skip:] converted by kind (int, float or str); a token that
        `_number` refuses raises at its column."""
        out = []
        for j, tok in enumerate(toks[skip:], start=skip):
            try:
                out.append(tok if kind is str else _number(tok, kind))
            except ValueError:
                noun = "integer" if kind is int else "number"
                raise ParseError(
                    f"bad {noun} {tok!r} in {what}", line=lineno, column=j + 1
                ) from None
        return out


def _read_block(reader, blocks):
    """Blocks (first line, rows, cols, what) of one width, each as a float array.

    The blocks' lines are joined in the order given and converted by one
    call of numpy's C text reader (np.loadtxt), which splits each line as
    `_TokenLines.fields` does, checks that every row is as wide as the
    first, and reads each token bit for bit as Python's float does, but
    refuses one in digit groups (1_0).  So the arrays are built only from
    tokens the file holds: no count in a header can ask for more memory
    than the file.  One dot product screens the values, as a sum of
    squares is finite only if every entry is.  Each block's array is a
    view, in the order given, into the call's result.  Rows are split,
    looked into and labelled only when the lines run short, or the
    conversion, the shape or the screen fails, and `_raise_fault` then
    raises the first fault in file order in every block the reader has
    taken, whichever call found one.
    """
    cols = blocks[0][2]
    lines = list(chain.from_iterable(reader.lines[b : b + r] for b, r, _, _ in blocks))
    ends = list(accumulate(r for _, r, _, _ in blocks))
    if len(lines) < ends[-1]:  # the file ends inside a block
        _raise_fault(reader)
    try:
        data = np.loadtxt(lines, dtype=float, comments=None, ndmin=2)
    except ValueError:  # a ragged row, or a token float refuses
        _raise_fault(reader)
        raise
    if data.shape != (ends[-1], cols) or not math.isfinite(np.vdot(data, data)):
        _raise_fault(reader)
    return [data[end - r : end] for (_, r, _, _), end in zip(blocks, ends)]


def _raise_fault(reader):
    """Raise at the first fault in the blocks (first line, rows, cols, what)
    the reader has taken, in file order.

    In each row its width is checked, then each token in turn: one that
    `_number` refuses, or one that reads as nan or an infinity, is raised
    at its column.  A block the file ends inside has the rows it holds
    looked into without the width check, and is then reported at the end
    of the file.
    Returns if there is no fault, as when finite values such as 1e200
    overflow a sum of squares.
    """
    for first, rows, cols, what in reader.blocks:
        held = len(reader.lines[first : first + rows])
        for r in range(held):
            j = first + r
            lineno, toks = reader.linenos[j], reader.fields(j)
            if held == rows and len(toks) != cols:
                raise reader.count_error(j, cols, f"{what} row {r}")
            for c, tok in enumerate(toks, start=1):
                try:
                    fault = None if math.isfinite(_number(tok)) else "non-finite"
                except ValueError:
                    fault = "bad"
                if fault:
                    message = f"{fault} number {tok!r} in {what} row {r}"
                    raise ParseError(message, line=lineno, column=c)
        if held < rows:
            raise ParseError(
                f"unexpected end of file: {what} needs {rows} rows, found {held}",
                line=reader.linenos[-1],
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


def _check_outputs(outputs, inputs=()):
    """Refuse an output path that is an existing directory (IsADirectoryError)
    or that resolves (`os.path.realpath`) to the same file as another output
    or an input (ValueError); a path of None is no path.

    Every command that writes files calls this before it reads an input or
    starts the fit, so no output overwrites another output or an input.
    """
    taken = {os.path.realpath(path): path for path in inputs if path is not None}
    for path in [path for path in outputs if path is not None]:
        if os.path.isdir(path):
            raise IsADirectoryError(f"{path}: Is a directory")
        real = os.path.realpath(path)
        if real in taken:
            raise ValueError(f"{path} and {taken[real]} are the same file")
        taken[real] = path


@_naming_the_file
def read_problem(path) -> ProblemInstance:
    """Parse a problem file into a (validated) ProblemInstance.

    The size lines are read first, each pair's blocks taken after its own;
    then all rows of one width are converted by one call (`_read_block`),
    and each A_i and B_i is a view into its width's array.  A fault in a
    size line is raised after the blocks before it have been looked into.
    """
    reader = _TokenLines(path)
    lineno, toks = reader.next_line(3, "header (m n k)")
    m, n, k = reader.numbers(lineno, toks, "header", int)
    if m < 1:
        raise ParseError("pair count m must be positive", line=lineno)
    if n < 1:
        raise ParseError("column dimension n must be positive", line=lineno)
    if not 1 <= k <= n:
        raise ParseError(f"rank bound k={k} outside [1, n]={n}", line=lineno)
    try:
        for i in range(m):
            what = f"size of pair {i}"
            lineno, toks = reader.next_line(1, what)
            (mi,) = reader.numbers(lineno, toks, what, int)
            if mi < 1:
                raise ParseError(f"pair {i} size must be positive", line=lineno)
            reader.take(mi, mi, f"A_{i}")
            reader.take(mi, n, f"B_{i}")
    except ParseError:  # a fault in a block before it comes first
        _raise_fault(reader)
        raise
    by_width = {}  # the blocks of each row width, in file order
    for block in reader.blocks:
        by_width.setdefault(block[2], []).append(block)
    arrays = {
        cols: iter(_read_block(reader, blocks)) for cols, blocks in by_width.items()
    }
    A_B = [next(arrays[cols]) for _, _, cols, _ in reader.blocks]  # A_0, B_0, A_1, ...
    reader.done()
    return ProblemInstance(pairs=tuple(zip(A_B[::2], A_B[1::2])), n=n, k=k)


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
    if not reader.lines:
        raise ParseError("empty matrix file")
    block = reader.take(len(reader.lines), len(reader.fields(0)), "matrix")
    (M,) = _read_block(reader, [block])
    return M


def write_matrix(path, M):
    """Write M one row per line; an M that is not real (`_as_float`) is a ValueError."""
    write_lines(path, _rows(np.atleast_2d(_as_float(M, "M"))))


TRACE_HEADER = "iteration,f,grad_norm,residual,step,beta"
_TRACE_ROW = "%s," + _template(5, ",")
_TRACE_FIELDS = attrgetter("index", "f_value", "grad_norm", "residual", "step", "beta")


def write_trace(path, trace):
    """Write a trace as CSV, one row per iteration, in one pass over trace.

    trace is any iterable of IterationRecord: a solver's `Trace`, a list
    or an iterator.  Each row is one % template.  Nothing in the package
    reads a trace back; np.loadtxt(path, delimiter=",", skiprows=1,
    ndmin=2) loads one as a float array.
    """
    rows = map(_TRACE_ROW.__mod__, map(_TRACE_FIELDS, trace))
    write_lines(path, [TRACE_HEADER, *rows])


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
    (X,) = _read_block(reader, [reader.take(n, n, "X")])
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
    that is not ASCII or that `_number` refuses as an int is reported at
    its line and token column.  Every fault is a ParseError.
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
        try:  # int strips U+00A0, so a latin-1 b"5\xa0" would read as 5
            fields.append(_number(token[0].decode("ascii"), int))
        except ValueError:  # UnicodeDecodeError too
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
