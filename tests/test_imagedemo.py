import numpy as np
import pytest

from psdfit import SolverConfig, ValidationError, objective, solve
from psdfit.imagedemo import (
    MAX_SIDE,
    ImageFormatError,
    _rescale_to_gray,
    image_demo,
    image_to_truth,
    make_test_image,
    observation_instance,
    read_pgm,
    write_pgm,
)
from psdfit.io import read_matrix, read_trace


# ---------------------------------------------------------------------------
# PGM I/O


def test_pgm_round_trip(tmp_path):
    img = make_test_image(9, seed=0)
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    back = read_pgm(path)
    assert back.dtype == np.uint8
    assert np.array_equal(back, img)


def test_pgm_rectangular_round_trip(tmp_path):
    img = np.arange(12, dtype=np.uint8).reshape(3, 4)
    path = tmp_path / "rect.pgm"
    write_pgm(path, img)
    assert np.array_equal(read_pgm(path), img)


def test_pgm_header_comments_and_whitespace(tmp_path):
    raster = bytes(range(4))
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5 # magic\n# a comment line\n  2\t2 # dims\n255\n" + raster)
    img = read_pgm(path)
    assert np.array_equal(img, np.arange(4, dtype=np.uint8).reshape(2, 2))


def test_pgm_rejects_ascii_variant(tmp_path):
    path = tmp_path / "ascii.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
    with pytest.raises(ImageFormatError, match="P2"):
        read_pgm(path)


def test_pgm_rejects_16_bit(tmp_path):
    path = tmp_path / "deep.pgm"
    path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(ImageFormatError, match="maxval"):
        read_pgm(path)


def test_pgm_rejects_truncated_raster(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
    with pytest.raises(ImageFormatError, match="truncated raster"):
        read_pgm(path)


def test_pgm_rejects_truncated_header(tmp_path):
    path = tmp_path / "hdr.pgm"
    path.write_bytes(b"P5\n4")
    with pytest.raises(ImageFormatError, match="truncated header"):
        read_pgm(path)


@pytest.mark.parametrize(
    "header, match",
    [
        (b"P5\n4 x\n255\n", "non-numeric header field"),
        (b"P5\n0 4\n255\n", "bad image dimensions"),
        (b"P5\n4 -1\n255\n", "bad image dimensions"),
    ],
)
def test_pgm_rejects_bad_header_fields(tmp_path, header, match):
    path = tmp_path / "hdr.pgm"
    path.write_bytes(header + bytes(16))
    with pytest.raises(ImageFormatError, match=match):
        read_pgm(path)


def test_pgm_write_rejects_a_non_matrix(tmp_path):
    with pytest.raises(ImageFormatError, match="image must be 2-D"):
        write_pgm(tmp_path / "flat.pgm", np.arange(4.0))


def test_rescale_of_a_constant_matrix_is_black():
    gray = _rescale_to_gray(np.full((3, 3), 0.7))
    assert gray.shape == (3, 3) and not gray.any()


def test_pgm_write_clips_and_rounds(tmp_path):
    path = tmp_path / "clip.pgm"
    write_pgm(path, np.array([[-5.0, 99.6], [300.0, 0.4]]))
    assert np.array_equal(read_pgm(path), np.array([[0, 100], [255, 0]], dtype=np.uint8))


# ---------------------------------------------------------------------------
# ground truth construction


def test_truth_is_unit_norm_psd():
    X = image_to_truth(make_test_image(12, seed=1))
    assert np.linalg.norm(X) == pytest.approx(1.0, rel=1e-12)
    assert np.allclose(X, X.T)
    assert np.linalg.eigvalsh(X).min() >= -1e-12


def test_truth_rank_one_image():
    X = image_to_truth(make_test_image(10, seed=2, rank=1))
    w = np.sort(np.linalg.eigvalsh(X))
    assert w[-1] == pytest.approx(1.0, rel=1e-12)  # unit norm, single eigenvalue
    assert np.abs(w[:-1]).max() < 1e-12


def test_truth_rejects_non_square():
    with pytest.raises(ImageFormatError, match="square"):
        image_to_truth(np.zeros((3, 4)))


def test_truth_rejects_blank_image():
    with pytest.raises(ImageFormatError, match="blank"):
        image_to_truth(np.zeros((4, 4)))


def test_truth_rejects_oversized_image():
    big = np.ones((MAX_SIDE + 1, MAX_SIDE + 1))
    with pytest.raises(ImageFormatError, match=str(MAX_SIDE)):
        image_to_truth(big)


# ---------------------------------------------------------------------------
# observation_instance


def test_observations_shapes_and_consistency():
    X = image_to_truth(make_test_image(8, seed=3))
    inst, Y0 = observation_instance(X, m=3, k=4, seed=5)
    assert inst.m == 3
    assert Y0.shape == (8, 4)
    mi = int(np.ceil(0.75 * 8))
    for A, B in inst.pairs:
        assert A.shape == (mi, mi)
        assert B.shape == (mi, 8)
        assert np.allclose(A, B @ X @ B.T)
        # B is a perturbed row selector: one dominant entry per row
        assert (np.abs(B) > 0.5).sum(axis=1).tolist() == [1] * mi


def test_observations_deterministic():
    X = image_to_truth(make_test_image(6, seed=4))
    a_inst, a_Y0 = observation_instance(X, m=2, k=2, seed=9)
    b_inst, b_Y0 = observation_instance(X, m=2, k=2, seed=9)
    assert np.array_equal(a_Y0, b_Y0)
    for (A1, B1), (A2, B2) in zip(a_inst.pairs, b_inst.pairs):
        assert np.array_equal(A1, A2)
        assert np.array_equal(B1, B2)


def test_observations_require_positive_m():
    X = image_to_truth(make_test_image(4, seed=0))
    with pytest.raises(ValueError):
        observation_instance(X, m=0, k=2, seed=0)


# ---------------------------------------------------------------------------
# full-rank and rank-1 recovery


def test_full_rank_fit_recovers_truth():
    X_true = image_to_truth(make_test_image(8, seed=6))
    inst, Y0 = observation_instance(X_true, m=3, k=8, seed=7)
    result = solve(inst, Y0, SolverConfig(epsilon=1e-10, max_iterations=50_000))
    assert result.converged
    rel = np.linalg.norm(result.X_final - X_true) / np.linalg.norm(X_true)
    assert rel < 1e-4


def test_rank_one_fit_recovers_rank_one_truth():
    X_true = image_to_truth(make_test_image(10, seed=8, rank=1))
    inst, Y0 = observation_instance(X_true, m=3, k=1, seed=9)
    result = solve(inst, Y0, SolverConfig(epsilon=1e-10, max_iterations=50_000))
    assert result.converged
    rel = np.linalg.norm(result.X_final - X_true) / np.linalg.norm(X_true)
    assert rel < 1e-4


def test_midsize_low_rank_baseline():
    # 64x64 image fitted at k=16 from m=3 observations: the restoration
    # error is pinned so accuracy regressions (either backend) show up
    X_true = image_to_truth(make_test_image(64, seed=0))
    inst, Y0 = observation_instance(X_true, m=3, k=16, seed=0)
    result = solve(inst, Y0, SolverConfig(epsilon=1e-8, max_iterations=50_000))
    rel = np.linalg.norm(result.X_final - X_true) / np.linalg.norm(X_true)
    assert abs(rel - 1.17007e-3) < 5e-7


# ---------------------------------------------------------------------------
# image_demo pipeline


def test_image_demo_writes_everything(tmp_path):
    img_path = tmp_path / "in.pgm"
    write_pgm(img_path, make_test_image(8, seed=10))
    out = tmp_path / "out"
    report = image_demo(img_path, m=2, k=None, seed=1, output_dir=out, tol=1e-9)
    assert report.n == 8
    assert report.k == 8  # min(16, n)
    assert report.m == 2
    assert report.termination == "gradient-tolerance"
    assert len(report.pair_residuals) == 2
    assert all(r < 1e-6 for r in report.pair_residuals)

    X_hat = read_matrix(out / "restored_X.txt")
    assert X_hat.shape == (8, 8)
    X_true = image_to_truth(read_pgm(img_path))
    rel = np.linalg.norm(X_hat - X_true) / np.linalg.norm(X_true)
    assert rel == pytest.approx(report.relative_error, abs=1e-9)

    restored = read_pgm(out / "restored.pgm")
    assert restored.shape == (8, 8)
    assert restored.max() == 255 and restored.min() == 0  # rescaled view

    trace = read_trace(out / "trace.csv")
    assert trace[-1].grad_norm < 1e-9
    assert (out / "report.txt").read_text().startswith("n 8\n")


def test_image_demo_rank_out_of_range(tmp_path):
    img_path = tmp_path / "in.pgm"
    write_pgm(img_path, make_test_image(4, seed=11))
    with pytest.raises(ValidationError, match=r"rank bound k=9 outside \[1, n\]=4"):
        image_demo(img_path, m=1, k=9, seed=0, output_dir=tmp_path / "x")
