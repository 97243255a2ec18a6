import re
import warnings

import numpy as np
import pytest

import psdfit.imagedemo
from psdfit import ParseError, SolverConfig, ValidationError, solve
from psdfit.imagedemo import (
    MAX_SIDE,
    _rescale_to_gray,
    image_demo,
    image_to_truth,
    make_test_image,
    observation_instance,
    read_pgm,
    write_pgm,
)
from psdfit.io import read_matrix, write_matrix


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


@pytest.mark.parametrize(
    "header",
    [
        b"P5\r# c\r2 2\r255\r",  # a comment ends at a carriage return too
        b"P5\x0b2\x0c2\t255\n",  # vertical tab and form feed are whitespace
        b"P5 # an_underscore in a comment\n2 2 255\n",
    ],
)
def test_pgm_header_separators(tmp_path, header):
    path = tmp_path / "sep.pgm"
    path.write_bytes(header + bytes(range(4)))
    img = read_pgm(path)
    assert np.array_equal(img, np.arange(4, dtype=np.uint8).reshape(2, 2))


def test_pgm_rejects_ascii_variant(tmp_path):
    path = tmp_path / "ascii.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
    with pytest.raises(ParseError, match="P2"):
        read_pgm(path)


def test_pgm_rejects_16_bit(tmp_path):
    path = tmp_path / "deep.pgm"
    path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(ParseError, match="maxval"):
        read_pgm(path)


def test_pgm_rejects_truncated_raster(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
    with pytest.raises(ParseError, match="truncated raster"):
        read_pgm(path)


def test_pgm_rejects_truncated_header(tmp_path):
    path = tmp_path / "hdr.pgm"
    path.write_bytes(b"P5\n4")
    with pytest.raises(ParseError, match="truncated header"):
        read_pgm(path)


@pytest.mark.parametrize(
    "header, match",
    [
        (b"P5\n4 x\n255\n", "non-numeric header field"),
        (b"P5\n0 4\n255\n", "bad image dimensions"),
        (b"P5\n4 -1\n255\n", "bad image dimensions"),
        # a comment runs to the end of its line, here the end of the file
        (b"P5\n2 2 #255", "truncated header"),
        # a # inside a token is part of the token
        (b"P5\n2 2\n255#c\n", "non-numeric header field"),
        # int reads Python's digit groups, b"1_0" as 10; the field is named
        # at its file, line and token column
        (b"P5 # by_hand\n4 1_0\n255\n", r"non-numeric header field b'1_0' \(.*hdr\.pgm, line 2, column 2\)$"),
        (b"P5\r\n2\r\n2 2_55\r", r"field b'2_55' \(.*hdr\.pgm, line 3, column 2\)$"),
    ],
)
def test_pgm_rejects_bad_header_fields(tmp_path, header, match):
    path = tmp_path / "hdr.pgm"
    path.write_bytes(header + bytes(16))
    with pytest.raises(ParseError, match=match) as err:
        read_pgm(path)
    assert err.value.path == path
    # a location in the expected message is held by the error's attributes too
    where = re.search(r"line (\d+), column (\d+)", match)
    if where:
        assert (err.value.line, err.value.column) == (int(where[1]), int(where[2]))


def test_pgm_rejects_a_pixel_above_maxval(tmp_path):
    # with maxval 15 a pixel is at most 15; the first one above it, in raster
    # order, is reported at its row and column
    path = tmp_path / "over.pgm"
    path.write_bytes(b"P5\n2 2\n15\n" + bytes([200, 2, 3, 16]))
    with pytest.raises(ParseError, match="pixel 200 at row 0, column 0 exceeds maxval"):
        read_pgm(path)
    path.write_bytes(b"P5\n2 2\n15\n" + bytes([15, 2, 3, 16]))
    with pytest.raises(ParseError, match="pixel 16 at row 1, column 1 exceeds maxval"):
        read_pgm(path)
    path.write_bytes(b"P5\n2 2\n15\n" + bytes([15, 0, 3, 4]))
    assert np.array_equal(read_pgm(path), [[15, 0], [3, 4]])


@pytest.mark.parametrize(
    "image, match",
    [
        (np.full((2, 2), 100 + 50j), "image has entries that are not real numbers"),
        (np.array([["1", "2"], ["3", "4"]]), "image has entries that are not real numbers"),
        (np.array([[1.0, 2.0], [np.nan, 4.0]]), "non-finite pixel nan at row 1, column 0"),
        (np.array([[1.0, np.inf], [3.0, 4.0]]), "non-finite pixel inf at row 0, column 1"),
        (np.array([[1.0, 2.0], [3.0, -np.inf]]), "non-finite pixel -inf at row 1, column 1"),
    ],
    ids=["complex", "strings", "nan", "inf", "-inf"],
)
def test_pgm_write_casts_by_the_library_rule(tmp_path, image, match):
    # a complex image was written from its real part (after a ComplexWarning),
    # a NaN pixel as 0 and an infinite one as 255 or 0, and strings failed
    # inside np.rint; each is a ValueError that names the fault, and no file
    # is written
    path = tmp_path / "bad.pgm"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(match)):
            write_pgm(path, image)
    assert not path.exists()


def test_pgm_write_rejects_a_non_matrix(tmp_path):
    with pytest.raises(ValueError, match="image must be 2-D") as err:
        write_pgm(tmp_path / "flat.pgm", np.arange(4.0))
    assert type(err.value) is ValueError


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
def test_pgm_write_rejects_an_image_with_no_pixel(tmp_path, shape):
    # its file would have a side of 0, which read_pgm refuses
    path = tmp_path / "empty.pgm"
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")) as err:
        write_pgm(path, np.zeros(shape))
    assert type(err.value) is ValueError
    assert not path.exists()


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
    with pytest.raises(ValueError, match="square") as err:
        image_to_truth(np.zeros((3, 4)))
    assert type(err.value) is ValueError


def test_truth_rejects_blank_image():
    with pytest.raises(ValueError, match="blank") as err:
        image_to_truth(np.zeros((4, 4)))
    assert type(err.value) is ValueError


def test_truth_rejects_oversized_image():
    big = np.ones((MAX_SIDE + 1, MAX_SIDE + 1))
    with pytest.raises(ValueError, match=str(MAX_SIDE)) as err:
        image_to_truth(big)
    assert type(err.value) is ValueError


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


@pytest.mark.parametrize("shape", [(4, 3), (4,), ()])
def test_observations_refuse_a_non_square_X_true(shape):
    # named with its shape, as image_to_truth names a non-square image
    message = re.escape(f"X_true must be a square matrix, got shape {shape}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        observation_instance(np.ones(shape), 2, 1, 0)


@pytest.mark.parametrize("m", [2.5, 2.0, "2", None, True])
def test_observations_refuse_a_non_integer_m(tmp_path, m):
    # refused by name, as generate_instance does, not truncated or left to
    # fail with a TypeError inside the draw
    X = image_to_truth(make_test_image(4, seed=0))
    message = f"^m={re.escape(repr(m))} is not an integer of at least 1$"
    with pytest.raises(ValueError, match=message):
        observation_instance(X, m, 2, 0)
    img_path = tmp_path / "in.pgm"
    write_pgm(img_path, make_test_image(4, seed=0))
    with pytest.raises(ValueError, match=message):
        image_demo(img_path, m=m, k=2, seed=0, output_dir=tmp_path / "x")


@pytest.mark.parametrize("kind", ["complex", "str", "str-object"])
def test_inputs_that_are_not_real_are_refused(tmp_path, kind):
    # a cast would fit or write the real part, after a warning, or parse the
    # strings: each is refused as a pair or a factor is
    X = image_to_truth(make_test_image(4, seed=0))
    text = X.astype(str)
    bad = {"complex": X + 1j, "str": text, "str-object": text.astype(object)}[kind]
    calls = [
        ("image", lambda: image_to_truth(bad)),
        ("X_true", lambda: observation_instance(bad, 2, 2, 0)),
        ("M", lambda: write_matrix(tmp_path / "m.txt", bad)),
    ]
    for name, call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{name} has entries that are not real numbers$"):
                call()
    assert not (tmp_path / "m.txt").exists()


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

    trace = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1)
    assert trace[:, 0].tolist() == list(range(len(trace)))
    assert trace[-1, 2] < 1e-9  # grad_norm
    assert (out / "report.txt").read_text().startswith("n 8\n")


def test_image_demo_refuses_a_directory_as_output_file_before_the_fit(tmp_path, monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("the fit ran before the output paths were checked")

    monkeypatch.setattr(psdfit.imagedemo, "solve", no_fit)
    img_path = tmp_path / "in.pgm"
    write_pgm(img_path, make_test_image(8, seed=10))
    out = tmp_path / "out"
    (out / "trace.csv").mkdir(parents=True)
    message = f"^{re.escape(str(out / 'trace.csv'))}: Is a directory$"
    with pytest.raises(IsADirectoryError, match=message):
        image_demo(img_path, m=2, k=8, seed=0, output_dir=out)
    assert [p.name for p in out.iterdir()] == ["trace.csv"]


def test_image_demo_rank_out_of_range(tmp_path):
    img_path = tmp_path / "in.pgm"
    write_pgm(img_path, make_test_image(4, seed=11))
    with pytest.raises(ValidationError, match=r"rank bound k=9 outside \[1, n\]=4"):
        image_demo(img_path, m=1, k=9, seed=0, output_dir=tmp_path / "x")


def test_image_demo_checks_its_stopping_rule_before_touching_the_disk(tmp_path):
    img_path = tmp_path / "in.pgm"
    write_pgm(img_path, make_test_image(4, seed=11))
    out = tmp_path / "new"
    with pytest.raises(ValueError, match="max_iterations"):
        image_demo(img_path, m=2, k=None, seed=0, output_dir=out, max_iterations=0)
    assert not out.exists()


@pytest.mark.parametrize(
    "m, k, seed, message",
    [
        (0, None, 0, "m=0 is not an integer of at least 1"),
        (2.5, None, 0, "m=2.5 is not an integer of at least 1"),
        (2, None, -1, "seed=-1 is not an integer of at least 0"),
        (2, 0, 0, "k=0 is not an integer of at least 1"),
        (2, 2.5, 0, "k=2.5 is not an integer of at least 1"),
        (2, True, 0, "k=True is not an integer of at least 1"),
        (2, -3, 0, "k=-3 is not an integer of at least 1"),
    ],
    ids=["m=0", "m=2.5", "seed=-1", "k=0", "k=2.5", "k=True", "k=-3"],
)
def test_image_demo_checks_m_and_seed_before_touching_the_disk(tmp_path, m, k, seed, message):
    # refused before output_dir is made; m and seed with observation_instance's
    # own message (k <= n needs the image, so ProblemInstance checks that)
    img_path = tmp_path / "in.pgm"
    write_pgm(img_path, make_test_image(4, seed=11))
    out = tmp_path / "new"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        image_demo(img_path, m=m, k=k, seed=seed, output_dir=out)
    assert not out.exists()
    if k is None:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            observation_instance(image_to_truth(make_test_image(4, seed=11)), m, 2, seed)
