"""Command-line interface.

Subcommands:
  solve       fit a rank-k PSD matrix to a problem file
  gradcheck   analytic vs finite-difference gradient on a problem file
  linecheck   line-search coefficients vs polynomial interpolation
  gen         write a seeded random or consistent problem file
  demo-image  image-restoration demo on a binary PGM

Exit codes: 0 success / checks passed, 1 verification, convergence or
numerical failure, 2 usage or I/O errors.  Numbers and non-empty paths are
checked as they are parsed, before any file is read.  Output paths are
checked before any input is read, by one rule for solve, gen and
demo-image (`psdfit.io._check_outputs`): an output that is an existing
directory, or that resolves to the same file as another output or an
input, is refused, so a file that could not be written costs no solve and
no output overwrites another output or an input.  solve and gen make no
directory, so each output's directory must exist; demo-image makes its
--out-dir after the image is read and the instance built, before the fit.
"""

import argparse
import math
import os
import sys

import numpy as np

from . import io as pio
from .imagedemo import DEMO_MAX_ITERATIONS, DEMO_TOL, image_demo
from .linesearch import quartic_coeffs
from .oracle import compare, fd_gradient, interpolate_quartic
from .problem import ProblemInstance, evaluate
from .solver import NumericalError, SolverConfig, solve


def _checked(convert, ok, expected):
    """An argparse type: convert(text), refused as "expected <expected>"
    unless it converts (no ValueError) and ok holds for the value."""

    def check(text):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return check


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="psdfit",
        description="Low-rank PSD matrix fitting via factorized conjugate gradients.",
    )
    # each command's parser names its handler (set_defaults(run=...));
    # dest names the command in argparse's message when none is given
    sub = parser.add_subparsers(dest="command", required=True)
    # every number is checked here, before any file is read: the library
    # checks again, and alone checks --rank <= n and --k <= --n
    count = _checked(int, lambda v: v >= 1, "an integer of at least 1")
    seed = _checked(int, lambda v: v >= 0, "an integer of at least 0")
    # the rule SolverConfig applies to epsilon
    tol = _checked(float, lambda v: 0 < v < math.inf, "a finite positive number")
    sizes = _checked(
        lambda text: [int(item) for item in text.split(",")],
        lambda values: min(values) >= 1,
        "comma-separated integers, each at least 1",
    )
    # an empty output path would otherwise be taken for no path at all, or
    # fail only at the write, after the work; an empty input path would
    # fail at the read with a message that names no argument
    path = _checked(str, bool, "a non-empty path")

    p = sub.add_parser("solve", help="solve a problem file")
    p.set_defaults(run=_cmd_solve)
    p.add_argument("problem", type=path, help="problem file path")
    p.add_argument("--rank", type=count, default=None, help="override rank k")
    p.add_argument(
        "--tol",
        type=tol,
        default=SolverConfig.epsilon,
        help="gradient-norm tolerance",
    )
    p.add_argument("--max-iter", type=count, default=SolverConfig.max_iterations)
    start = p.add_mutually_exclusive_group()
    start.add_argument("--seed", type=seed, default=0, help="seed for the random start")
    start.add_argument("--init", type=path, default=None, help="file with an explicit Y0")
    p.add_argument("--trace", type=path, default=None, help="write per-iteration CSV here")
    p.add_argument("--out", type=path, default=None, help="write the solution file here")

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p.set_defaults(run=_cmd_gradcheck)
    p.add_argument("problem", type=path)
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--tol", type=tol, default=1e-6)

    p = sub.add_parser("linecheck", help="line-search coefficient check")
    p.set_defaults(run=_cmd_linecheck)
    p.add_argument("problem", type=path)
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--tol", type=tol, default=1e-8)

    p = sub.add_parser("gen", help="generate a seeded problem file")
    p.set_defaults(run=_cmd_gen)
    p.add_argument("--n", type=count, required=True)
    p.add_argument("--k", type=count, required=True)
    p.add_argument("--m", type=count, default=None, help="pair count (sizes default to n)")
    p.add_argument(
        "--sizes", type=sizes, default=None, help="comma-separated per-pair sizes m_i"
    )
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--mode", choices=("random", "consistent"), default="random")
    p.add_argument("--out", type=path, required=True)

    p = sub.add_parser("demo-image", help="image-restoration demo (binary PGM)")
    p.set_defaults(run=_cmd_demo_image)
    p.add_argument("image", type=path)
    p.add_argument("--m", type=count, default=3, help="number of observations")
    p.add_argument("--rank", type=count, default=None, help="fit rank (default min(n, 16))")
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--tol", type=tol, default=DEMO_TOL)
    p.add_argument("--max-iter", type=count, default=DEMO_MAX_ITERATIONS)
    p.add_argument("--out-dir", type=path, required=True)

    return parser


def _with_rank(instance: ProblemInstance, rank):
    if rank is None or rank == instance.k:
        return instance
    return ProblemInstance(pairs=instance.pairs, n=instance.n, k=rank)


def _check_output_paths(outputs, inputs=()):
    """Refuse, before any input is read, an output path whose directory is
    not an existing directory (solve and gen make none), then what
    `pio._check_outputs` refuses."""
    for path in [path for path in outputs if path is not None]:
        directory = os.path.dirname(path) or "."
        if not os.path.isdir(directory):
            raise NotADirectoryError(f"{path}: {directory} is not an existing directory")
    pio._check_outputs(outputs, inputs)


def _cmd_solve(args):
    _check_output_paths([args.trace, args.out], inputs=[args.problem, args.init])
    instance = _with_rank(pio.read_problem(args.problem), args.rank)
    Y0 = pio.read_matrix(args.init) if args.init is not None else None
    config = SolverConfig(epsilon=args.tol, max_iterations=args.max_iter)
    result = solve(instance, Y0=Y0, config=config, seed=args.seed)
    for line in pio.summary_lines(result):
        print(line)
    if args.trace is not None:
        pio.write_trace(args.trace, result.trace)
    if args.out is not None:
        pio.write_solution(args.out, result)
    return 0 if result.converged else 1


def _cmd_gradcheck(args):
    instance = pio.read_problem(args.problem)
    Y = np.random.default_rng(args.seed).random((instance.n, instance.k))
    report = compare(
        "gradient",
        evaluate(instance, Y).grad,
        fd_gradient(instance, Y),
        tolerance=args.tol,
    )
    print(report)
    return 0 if report.passed else 1


def _cmd_linecheck(args):
    instance = pio.read_problem(args.problem)
    rng = np.random.default_rng(args.seed)
    Y = rng.random((instance.n, instance.k))
    D = 2.0 * rng.random((instance.n, instance.k)) - 1.0
    poly = quartic_coeffs(instance, Y, D, evaluate(instance, Y))
    fitted = interpolate_quartic(instance, Y, D)
    report = compare(
        "quartic coefficients",
        np.array(poly),
        np.array(fitted),
        tolerance=args.tol,
    )
    print(report)
    return 0 if report.passed else 1


def _cmd_gen(args):
    _check_output_paths([args.out])
    instance = pio.generate_instance(
        n=args.n, k=args.k, m=args.m, sizes=args.sizes, seed=args.seed, mode=args.mode
    )
    pio.write_problem(args.out, instance)
    print(f"wrote {args.out} (m={instance.m}, n={instance.n}, k={instance.k})")
    return 0


def _cmd_demo_image(args):
    report = image_demo(
        args.image,
        m=args.m,
        k=args.rank,
        seed=args.seed,
        output_dir=args.out_dir,
        tol=args.tol,
        max_iterations=args.max_iter,
    )
    for line in report.lines():
        print(line)
    print(f"wrote {report.files['report']}")
    return 0 if report.converged else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (OSError, ValueError) as exc:  # ParseError (any file) and ValidationError too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
