"""Seeded inputs for the three workloads, in the program's file formats.

Each workload is one fixed problem, drawn once from ``BASE_SEED``.  The run
seed draws how that problem is presented to the program: the pair order and
a Haar-random orthogonal Uᵢ per pair (Aᵢ → UᵢAᵢUᵢᵀ, Bᵢ → UᵢBᵢ), or for the
image a permutation of its columns.  Both leave the objective over X
unchanged, so every seed gives different input files for the same
mathematical problem and the same time to tolerance.  Independently drawn
problems of these shapes took up to 6 times as many iterations as each
other (README.md), a spread no bound could absorb.

The benchmark keeps the arrays it wrote; files carry 17 significant digits,
so what the program parses is exactly what the checks use.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

BASE_SEED = 0
IMAGE_PAIRS = 3  # demo-image --m
DEMO_SEED = 0  # demo-image --seed: the demo draws its transforms and start from it


@dataclass
class Inputs:
    """The generated files plus what the checks need to know about them."""

    workload: str
    path: Path  # the problem file or the PGM image
    epsilon: float
    k: int
    As: np.ndarray | None = None  # (m, mi, mi), as written; None for the image
    Bs: np.ndarray | None = None  # (m, mi, n)
    planted: np.ndarray | None = None  # Z with A_i = B_i Z Z^T B_i^T
    image: np.ndarray | None = None  # uint8 raster, as written

    def cli_args(self, out_dir: Path) -> list:
        """The psdfit command line for one operation writing into out_dir."""
        eps = repr(self.epsilon)
        if self.image is not None:
            return ["demo-image", str(self.path), "--m", str(IMAGE_PAIRS), "--rank", str(self.k),
                    "--seed", str(DEMO_SEED), "--tol", eps, "--out-dir", str(out_dir)]
        return ["solve", str(self.path), "--tol", eps, "--seed", "0",
                "--trace", str(out_dir / "trace.csv"),
                "--out", str(out_dir / "solution.txt")]


def _haar(rng, size):
    q, r = np.linalg.qr(rng.standard_normal((size, size)))
    return q * np.sign(np.diag(r))


def _present(As, Bs, seed):
    """Reorder the pairs and rotate each observation space by its own U_i."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(As))
    out_A, out_B = [], []
    for i in order:
        U = _haar(rng, As[i].shape[0])
        out_A.append(U @ As[i] @ U.T)
        out_B.append(U @ Bs[i])
    return np.array(out_A), np.array(out_B)


def write_problem_file(path: Path, As, Bs, k):
    m, mi, n = Bs.shape
    lines = [f"{m} {n} {k}"]
    for A, B in zip(As, Bs):
        lines.append(str(mi))
        lines.extend(" ".join(format(x, ".17g") for x in row) for row in A)
        lines.extend(" ".join(format(x, ".17g") for x in row) for row in B)
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def tall_pairs(seed, work: Path) -> Inputs:
    """Planted consistent m=3, mi=128 > n=32, k=4; Gaussian B_i / sqrt(n)."""
    m, mi, n, k = 3, 128, 32, 4
    rng = np.random.default_rng([BASE_SEED, 1])
    Z = rng.standard_normal((n, k))
    Bs = rng.standard_normal((m, mi, n)) / np.sqrt(n)
    Ws = Bs @ Z
    As, Bs = _present(Ws @ Ws.transpose(0, 2, 1), Bs, seed)
    path = work / "tall-pairs.prob"
    write_problem_file(path, As, Bs, k)
    return Inputs("tall-pairs", path, 1e-6, k, As, Bs, planted=Z)


def many_pairs(seed, work: Path) -> Inputs:
    """Random inconsistent m=64, mi=6, n=12, k=3; uniform, non-symmetric A_i."""
    m, mi, n, k = 64, 6, 12, 3
    rng = np.random.default_rng([BASE_SEED, 2])
    As = rng.random((m, mi, mi))
    Bs = rng.random((m, mi, n))
    As, Bs = _present(As, Bs, seed)
    path = work / "many-pairs.prob"
    write_problem_file(path, As, Bs, k)
    return Inputs("many-pairs", path, 1e-6, k, As, Bs)


def image_demo(seed, work: Path) -> Inputs:
    """A 64x64 ramp-plus-texture graymap; the seed permutes its columns.

    G -> G P leaves G G^T, and so the demo's ground truth, unchanged.
    """
    side = 64
    rng = np.random.default_rng([BASE_SEED, 3])
    yy, xx = np.mgrid[0:side, 0:side]
    ramp = 60.0 + 120.0 * (xx + yy) / (2 * (side - 1))
    image = np.clip(ramp + 60.0 * rng.random((side, side)), 0, 255).astype(np.uint8)
    image = image[:, np.random.default_rng(seed).permutation(side)]
    path = work / "image-demo.pgm"
    path.write_bytes(f"P5\n{side} {side}\n255\n".encode("ascii") + image.tobytes())
    return Inputs("image-demo", path, 1e-8, 16, image=image)


WORKLOADS = {"tall-pairs": tall_pairs, "many-pairs": many_pairs, "image-demo": image_demo}
