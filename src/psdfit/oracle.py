"""Independent numerical cross-checks for the primary code paths.

Every oracle here re-derives its quantity from scratch (finite differences,
polynomial interpolation, eigen-truncation, plain re-evaluation) instead of
calling the production objective/gradient/line-search code, so a bug in the
primary path cannot hide in its own verification.  Only primitive matrix
products are shared with the rest of the package.
"""

from dataclasses import dataclass

import numpy as np

from .linesearch import QuarticPolynomial
from .problem import GradientMatrix, ProblemInstance


def reference_objective(instance: ProblemInstance, Y) -> float:
    """Straight-line re-evaluation of the objective, term by term.

    Deliberately naive: forms X = Y Y^T and each residual explicitly and
    uses np.linalg.norm, sharing nothing with the kernel implementations.
    """
    Y = np.asarray(Y, dtype=np.float64)
    X = Y @ Y.T
    total = 0.0
    for A, B in instance.pairs:
        R = A - B @ X @ B.T
        total += float(np.linalg.norm(R, "fro")) ** 2
    return total


def reference_residual(instance: ProblemInstance, Y) -> float:
    """Straight-line relative residual: sum of norms over sum of ||A_i|| if nonzero."""
    Y = np.asarray(Y, dtype=np.float64)
    X = Y @ Y.T
    num = 0.0
    denom = 0.0
    for A, B in instance.pairs:
        num += float(np.linalg.norm(A - B @ X @ B.T, "fro"))
        denom += float(np.linalg.norm(A, "fro"))
    return num / denom if denom else num


@dataclass
class OracleReport:
    quantity: str
    max_abs: float
    max_rel: float
    tolerance: float
    passed: bool

    def __str__(self):
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"{self.quantity}: max abs {self.max_abs:.3e}, max rel "
            f"{self.max_rel:.3e} (tolerance {self.tolerance:.1e}) -> {verdict}"
        )


def compare(quantity, primary, oracle, tolerance) -> OracleReport:
    """Build an OracleReport from primary vs oracle values.

    Relative discrepancies divide by max(1, |primary|, |oracle|) entrywise,
    so near-zero entries are judged on the natural unit scale instead of
    blowing up.
    """
    a = np.atleast_1d(np.asarray(primary, dtype=np.float64))
    b = np.atleast_1d(np.asarray(oracle, dtype=np.float64))
    diff = np.abs(a - b)
    max_abs = float(diff.max())
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    max_rel = float((diff / scale).max())
    return OracleReport(
        quantity=quantity,
        max_abs=max_abs,
        max_rel=max_rel,
        tolerance=tolerance,
        passed=bool(max_rel <= tolerance),
    )


def fd_gradient(instance: ProblemInstance, Y, h: float = 1e-5) -> GradientMatrix:
    """Central-difference gradient of the straight-line objective.

    The step for entry (i, j) is h * (1 + |Y_ij|); the O(h^2) truncation
    error makes this an independent check of the analytic gradient.
    """
    Y = np.asarray(Y, dtype=np.float64)
    out = np.empty_like(Y)
    for i in range(Y.shape[0]):
        for j in range(Y.shape[1]):
            hij = h * (1.0 + abs(Y[i, j]))
            Yp = Y.copy()
            Ym = Y.copy()
            Yp[i, j] += hij
            Ym[i, j] -= hij
            out[i, j] = (
                reference_objective(instance, Yp) - reference_objective(instance, Ym)
            ) / (2.0 * hij)
    return out


_NODES = (-2.0, -1.0, 0.0, 1.0, 2.0)  # small integers keep the Vandermonde tame


def interpolate_quartic(instance: ProblemInstance, Y, D) -> QuarticPolynomial:
    """Recover the step polynomial by degree-4 interpolation of the objective.

    Evaluates the straight-line objective at five fixed nodes and solves the
    Vandermonde system, giving coefficients that are independent of the
    closed-form expansion in `linesearch.quartic_coeffs`.
    """
    Y = np.asarray(Y, dtype=np.float64)
    D = np.asarray(D, dtype=np.float64)
    nodes = np.array(_NODES)
    values = np.array([reference_objective(instance, Y + t * D) for t in nodes])
    V = np.vander(nodes, 5, increasing=True)
    a = np.linalg.solve(V, values)
    return QuarticPolynomial(a0=a[0], a1=a[1], a2=a[2], a3=a[3], a4=a[4])


def psd_truncation(A, k: int) -> np.ndarray:
    """Best PSD approximation of rank <= k to a square matrix A.

    Symmetrizes A, keeps the k largest eigenvalues clamped at zero, and
    reassembles.  For a single pair with B = I this is the known global
    minimizer (up to the constant contribution of the skew part), which
    makes it an analytic oracle for the iterative solver.
    """
    A = np.asarray(A, dtype=np.float64)
    n = A.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"rank bound k={k} outside [1, {n}]")
    S = (A + A.T) / 2.0
    w, V = np.linalg.eigh(S)  # ascending
    lam = np.maximum(w[n - k :], 0.0)
    Vk = V[:, n - k :]
    X = (Vk * lam) @ Vk.T
    return (X + X.T) / 2.0
