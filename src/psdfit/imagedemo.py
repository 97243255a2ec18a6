"""Image-restoration demo: recover a PSD matrix built from a grayscale image.

The ground truth is X_true = (G G^T) / ||G G^T||_F where G is the image
scaled to [0, 1].  Each of the m observations applies a seeded transform
B_i (a row-subsampling matrix plus a small uniform perturbation) and
records A_i = B_i X_true B_i^T.  The solver then fits a rank-k PSD matrix
to the observations alone.  The transforms are illustrative choices, not
canonical ones.

The image is read, and the restored view written, as 8-bit binary PGM by
`psdfit.io` (`read_pgm`, `write_pgm`); this module holds the demo and its
synthetic test images.
"""

import os
from dataclasses import dataclass, field

import numpy as np

from .problem import ProblemInstance, _as_float, _check_integer
from .solver import SolverConfig, SolverResult, solve
from . import io as pio
from .io import format_float, read_pgm, write_lines, write_matrix, write_pgm, write_trace

MAX_SIDE = 512  # dense solves above this are rejected
DEMO_TOL = 1e-8  # the demo's stopping defaults, tighter than SolverConfig's
DEMO_MAX_ITERATIONS = 50_000

_SUBSAMPLE_FRACTION = 0.75
_PERTURBATION = 0.05

# the demo's output files in output_dir, by their key in DemoReport.files
_OUTPUT_NAMES = {
    "restored_X": "restored_X.txt",
    "restored_image": "restored.pgm",
    "trace": "trace.csv",
    "report": "report.txt",
}


def make_test_image(n: int, seed: int = 0, rank=None) -> np.ndarray:
    """Deterministic synthetic n x n test image.

    With rank=1 the image is an exact integer outer product, so G G^T is
    exactly rank one.  Otherwise a smooth ramp plus seeded texture.
    """
    rng = np.random.default_rng(seed)
    if rank == 1:
        v = rng.integers(1, 16, size=n)
        w = rng.integers(1, 16, size=n)
        return np.outer(v, w).astype(np.uint8)
    yy, xx = np.mgrid[0:n, 0:n]
    ramp = 60.0 + 120.0 * (xx + yy) / max(1, 2 * (n - 1))
    texture = 60.0 * rng.random((n, n))
    return np.clip(ramp + texture, 0, 255).astype(np.uint8)


def image_to_truth(image) -> np.ndarray:
    """Normalized PSD ground truth (G G^T scaled to unit Frobenius norm).

    An image that is not real (`_as_float`: complex, or of strings), not
    square, with a side above MAX_SIDE or blank is a ValueError.
    """
    img = _as_float(image, "image")
    if img.ndim != 2 or img.shape[0] != img.shape[1]:
        raise ValueError(f"square image required, got {img.shape}")
    n = img.shape[0]
    if n > MAX_SIDE:
        raise ValueError(
            f"image side {n} exceeds {MAX_SIDE}; dense solve would be intractable"
        )
    G = img / 255.0
    S = G @ G.T
    nrm = np.linalg.norm(S)
    if nrm == 0.0:
        raise ValueError("blank image: ground truth would be zero")
    return S / nrm


def observation_instance(X_true, m: int, k: int, seed: int):
    """Build the m-pair instance (A_i = B_i X_true B_i^T) plus a start Y0.

    Each B_i picks ceil(3n/4) distinct rows and adds uniform noise in
    [-0.05, 0.05); Y0 is drawn from the same generator so one seed fixes
    the whole demo.  An X_true that is not a real (`_as_float`) square
    matrix, an m that is not an integer of at least 1 or a seed that is not
    an integer of at least 0 (`_check_integer`) is a ValueError; a k outside
    [1, n] is a ValidationError.
    """
    X_true = _as_float(X_true, "X_true")
    if X_true.ndim != 2 or X_true.shape[0] != X_true.shape[1]:
        raise ValueError(f"X_true must be a square matrix, got shape {X_true.shape}")
    n = X_true.shape[0]
    _check_integer("m", m, 1)
    _check_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    mi = max(1, int(np.ceil(_SUBSAMPLE_FRACTION * n)))
    pairs = []
    for _ in range(m):
        rows = rng.choice(n, size=mi, replace=False)
        B = np.zeros((mi, n))
        B[np.arange(mi), rows] = 1.0
        B += _PERTURBATION * (2.0 * rng.random((mi, n)) - 1.0)
        pairs.append((B @ X_true @ B.T, B))
    instance = ProblemInstance(pairs=tuple(pairs), n=n, k=k)
    return instance, rng.random((n, k))


@dataclass
class DemoReport:
    n: int
    k: int
    m: int
    relative_error: float
    pair_residuals: tuple
    iterations: int
    termination: str
    converged: bool  # the run's SolverResult.converged
    f_value: float
    files: dict = field(default_factory=dict)

    def lines(self):
        out = [
            f"n {self.n}",
            f"k {self.k}",
            f"m {self.m}",
            f"iterations {self.iterations}",
            f"termination {self.termination}",
            f"f {format_float(self.f_value)}",
            f"relative_error {format_float(self.relative_error)}",
        ]
        for i, r in enumerate(self.pair_residuals):
            out.append(f"residual_{i} {format_float(r)}")
        return out


def _rescale_to_gray(X):
    lo, hi = float(np.min(X)), float(np.max(X))
    if hi <= lo:
        return np.zeros_like(X)
    return 255.0 * (X - lo) / (hi - lo)


def image_demo(
    input_image_path,
    m: int,
    k,
    seed: int,
    output_dir,
    *,
    tol: float = DEMO_TOL,
    max_iterations: int = DEMO_MAX_ITERATIONS,
) -> DemoReport:
    """Run the full restoration pipeline and write results to output_dir.

    Writes restored_X.txt (full precision), restored.pgm (rescaled view),
    trace.csv, and report.txt; returns the in-memory report.  Nothing on
    disk changes until the inputs pass, checked in this order: the stopping
    rule, m (at least 1), seed (at least 0) and k (None or at least 1)
    (`_check_integer`, ValueError); the four output paths, with the image
    as input (`psdfit.io._check_outputs`: one that is an existing directory
    is an IsADirectoryError, one that resolves to the input image a
    ValueError, so the demo never overwrites its input); the image itself
    (`read_pgm`, `image_to_truth`) and k at most its side (ValidationError).
    Only then is output_dir created, before the fit, so a path that cannot
    be a directory (OSError) costs no fit.
    """
    config = SolverConfig(epsilon=tol, max_iterations=max_iterations)
    _check_integer("m", m, 1)
    _check_integer("seed", seed, 0)
    if k is not None:
        _check_integer("k", k, 1)
    outputs = [os.path.join(output_dir, name) for name in _OUTPUT_NAMES.values()]
    pio._check_outputs(outputs, inputs=[input_image_path])
    image = read_pgm(input_image_path)
    X_true = image_to_truth(image)
    if k is None:
        k = min(16, X_true.shape[0])
    instance, Y0 = observation_instance(X_true, m, k, seed)
    os.makedirs(output_dir, exist_ok=True)
    result = solve(instance, Y0=Y0, config=config)
    return summarize_restoration(X_true, instance, result, output_dir)


def summarize_restoration(
    X_true, instance: ProblemInstance, result: SolverResult, output_dir
) -> DemoReport:
    """Compare the fit with X_true and write the demo's files into output_dir."""
    X_hat = result.X_final
    rel_err = np.linalg.norm(X_hat - X_true) / np.linalg.norm(X_true)
    residuals = []
    for A, B in instance.pairs:
        gap = np.linalg.norm(A - B @ X_hat @ B.T)
        scale = np.linalg.norm(A)
        residuals.append(gap / scale if scale > 0 else gap)

    files = {key: os.path.join(output_dir, name) for key, name in _OUTPUT_NAMES.items()}
    write_matrix(files["restored_X"], X_hat)
    write_pgm(files["restored_image"], _rescale_to_gray(X_hat))
    write_trace(files["trace"], result.trace)

    report = DemoReport(
        n=X_true.shape[0],
        k=instance.k,
        m=instance.m,
        relative_error=float(rel_err),
        pair_residuals=tuple(float(r) for r in residuals),
        iterations=result.iterations,
        termination=result.termination_reason.value,
        converged=result.converged,
        f_value=result.trace[-1].f_value,
        files=files,
    )
    write_lines(files["report"], report.lines())
    return report
