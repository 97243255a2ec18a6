import numpy as np
import pytest

from psdfit import _kernels


def pairs_for(seed, count=8):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(1, 8))
        k = int(rng.integers(1, 5))
        mi = int(rng.integers(1, 8))
        A = np.ascontiguousarray(rng.standard_normal((mi, mi)))
        B = np.ascontiguousarray(rng.standard_normal((mi, n)))
        Y = np.ascontiguousarray(rng.standard_normal((n, k)))
        D = np.ascontiguousarray(rng.standard_normal((n, k)))
        out.append((A, B, Y, D))
    return out


def test_gradient_accum_adds_in_place():
    A, B, Y, _ = pairs_for(3, count=1)[0]
    base = np.full_like(Y, 5.0)
    acc = base.copy()
    r2 = _kernels.residual_gradient(A, B, Y, acc)
    expected = np.zeros_like(Y)
    _kernels.residual_gradient(A, B, Y, expected)
    assert np.allclose(acc, base + expected, rtol=1e-13, atol=0)
    R = A - B @ Y @ Y.T @ B.T
    assert r2 == pytest.approx(float(np.linalg.norm(R, "fro")) ** 2, rel=1e-12)
