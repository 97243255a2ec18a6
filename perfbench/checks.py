"""Output checks made with plain numpy, apart from the program under test.

Nothing here imports psdfit: the objective and gradient are recomputed in
the expanded forms of the method's definition, files are parsed by this
module's own readers, and the image's ground truth and its best rank-k
error come from the benchmark's own raster.  Rounding allowances are
stated next to each comparison; ``U`` is the float64 unit roundoff.
"""

import math

import numpy as np

U = np.finfo(np.float64).eps / 2
# Factor on the first-order rounding bounds below; the largest gap seen
# on any workload was under a hundredth of the bound (README.md).
ROUNDING = 4.0
PLANTED_TOL = 1e-6  # ||X - Z Z^T|| / ||Z Z^T|| on tall-pairs
EY_FACTOR = 1.5  # image-demo: relative error at most this times Eckart-Young


def objective(As, Bs, X):
    """Sum_i ||A_i - B_i X B_i^T||_F^2 with stacked pairs, computed from X."""
    R = As - Bs @ X @ Bs.transpose(0, 2, 1)
    return float(np.sum(R * R))


def rounding_tau(As, Bs, X):
    """First-order bound on the rounding error of any residual A_i - B_i X B_i^T."""
    return ROUNDING * U * float(np.sum(
        np.linalg.norm(As, axis=(1, 2)) + np.linalg.norm(Bs, axis=(1, 2)) ** 2 * np.linalg.norm(X)))


def objective_allowance(tau, f):
    """Rounding bound on the gap between two evaluations of f at one X."""
    return 2.0 * math.sqrt(max(f, 0.0)) * tau + tau * tau


def expanded_gradient(As, Bs, Y):
    """Sum_i 4 B^T B Y Y^T B^T B Y - 2 B^T A B Y - 2 B^T A^T B Y, and a rounding bound."""
    Bt = Bs.transpose(0, 2, 1)
    H = Bt @ Bs
    HY = H @ Y
    BY = Bs @ Y
    terms = (4.0 * (HY @ (Y.T @ HY)), 2.0 * (Bt @ (As @ BY)),
             2.0 * (Bt @ (As.transpose(0, 2, 1) @ BY)))
    g = terms[0].sum(0) - terms[1].sum(0) - terms[2].sum(0)
    ny = np.linalg.norm(Y)
    hn = np.linalg.norm(H, axis=(1, 2))
    bound = ROUNDING * U * float(np.sum(4.0 * hn * hn * ny ** 3 + 4.0 * hn
                                        * np.linalg.norm(As, axis=(1, 2)) * ny))
    return g, bound


def read_keyed(path):
    """Keyed ``name value`` lines up to an ``X`` marker, then the matrix rows."""
    fields, rows, in_matrix = {}, [], False
    for line in path.read_text(encoding="ascii").splitlines():
        toks = line.split()
        if not toks:
            continue
        if in_matrix:
            rows.append([float(t) for t in toks])
        elif toks == ["X"]:
            in_matrix = True
        else:
            fields[toks[0]] = toks[1]
    return fields, np.array(rows)


def read_matrix(path):
    return np.array([[float(t) for t in line.split()]
                     for line in path.read_text(encoding="ascii").splitlines() if line.strip()])


def read_trace_f(path):
    """The iteration, f (as written) and grad_norm columns of a trace CSV."""
    lines = path.read_text(encoding="ascii").splitlines()
    header = lines[0].split(",")
    i_it, i_f, i_g = header.index("iteration"), header.index("f"), header.index("grad_norm")
    rows = [ln.split(",") for ln in lines[1:] if ln.strip()]
    return [int(r[i_it]) for r in rows], [r[i_f] for r in rows], [float(r[i_g]) for r in rows]


class Checks:
    """Collects failed checks and the margins worth printing."""

    def __init__(self):
        self.failures = []
        self.notes = {}

    def expect(self, ok, message):
        if not ok:
            self.failures.append(message)

    def note(self, name, value):
        """Keep the largest value of a margin over the run's operations."""
        self.notes[name] = max(self.notes.get(name, value), value)

    def psd_rank(self, X, k, what):
        scale = np.linalg.norm(X)
        self.expect(np.linalg.norm(X - X.T) <= 1e-14 * scale, f"{what}: X is not symmetric")
        eig = np.linalg.eigvalsh((X + X.T) / 2.0)
        # 16 written digits perturb X by ~1e-16 relative; eigenvalues move as much.
        self.expect(eig[0] >= -1e-12 * scale, f"{what}: eigenvalue {eig[0]:.3g} < 0")
        rank = int(np.sum(eig > 1e-10 * eig[-1]))
        self.expect(rank <= k, f"{what}: rank {rank} > k={k}")

    def trace_file(self, path, iterations, f_final, tau, what):
        """Rows 0..iterations, f nonincreasing, last f as reported; returns the last grad_norm.

        The recorded f is a fresh evaluation at each iterate, so it may rise
        by its rounding error (tau, evaluated at the returned X) where the
        true decrease is smaller; rises within it are counted, not failed.
        """
        its, fs, grads = read_trace_f(path)
        self.expect(its == list(range(iterations + 1)),
                    f"{what}: trace rows do not run 0..{iterations}")
        values = [float(x) for x in fs]
        rises = [(b - a, objective_allowance(tau, a)) for a, b in zip(values, values[1:]) if b > a]
        self.note("f_rises", len(rises))
        self.note("f_rise_gap", max((r / allow for r, allow in rises), default=0.0))
        bad = sum(1 for r, allow in rises if r > allow)
        self.expect(bad == 0, f"{what}: f rises beyond rounding {bad} times along the trace")
        self.expect(float(fs[-1]) == f_final,
                    f"{what}: trace ends at f={fs[-1]}, reported {f_final}")
        return grads[-1]

    def gradient(self, As, Bs, Y, epsilon, reported, what):
        g, bound = expanded_gradient(As, Bs, Y)
        norm = float(np.linalg.norm(g))
        self.note("grad_norm", norm)
        self.note("grad_gap", abs(norm - reported) / bound)
        self.expect(norm < epsilon + bound,
                    f"{what}: expanded gradient norm {norm:.3g} >= eps {epsilon:g} + {bound:.2g}")

    def objective_at(self, As, Bs, X, f_reported, tau, what):
        f = objective(As, Bs, X)
        allow = objective_allowance(tau, f_reported)
        self.note("f_gap", abs(f - f_reported) / allow)
        self.expect(abs(f - f_reported) <= allow,
                    f"{what}: f at written X {f!r} vs reported {f_reported!r} (allow {allow:.2g})")

    def line_searches(self, As, Bs, searches):
        """phi(t*) from the line search against f at Y + t* D, each search.

        phi(t*) sums the quartic's terms, whose size is bounded by
        sum_i (||M_i|| + t ||P_i|| + t^2 ||Q_i||)^2 with the residual M_i and
        the step terms P_i, Q_i of checks' own expansion; its rounding is
        allowed in proportion to that, on top of f's own.
        """
        worst = 0.0
        for Y, D, t, phi in searches:
            BY, BD = Bs @ Y, Bs @ D
            M = As - BY @ BY.transpose(0, 2, 1)
            P = BY @ BD.transpose(0, 2, 1)
            P = P + P.transpose(0, 2, 1)
            Q = BD @ BD.transpose(0, 2, 1)
            size = float(np.sum((np.linalg.norm(M, axis=(1, 2)) + t * np.linalg.norm(P, axis=(1, 2))
                                 + t * t * np.linalg.norm(Q, axis=(1, 2))) ** 2))
            Yn = Y + t * D
            X = Yn @ Yn.T
            f = objective(As, Bs, X)
            allow = (objective_allowance(rounding_tau(As, Bs, X), max(f, phi))
                     + ROUNDING * U * size)
            worst = max(worst, abs(f - phi) / allow)
            if abs(f - phi) > allow:
                self.failures.append(f"line search: phi(t*)={phi!r} but f(Y+t*D)={f!r}")
                break
        self.note("phi_gap", worst)
