import dataclasses
import math
import warnings

import numpy as np
import pytest

from deeplinlab.data import (
    Dataset,
    gen_input_gaussian,
    gen_output_uniform,
    load_normalize_csv,
    reshape_spectrum,
    sample_spectrum,
    write_csv,
)
from deeplinlab.matcore import singular_values


def test_gaussian_variance_scaling():
    x = gen_input_gaussian(128, 600, seed=4)
    var = x.var()
    assert 0.7 / 128 <= var <= 1.3 / 128


def test_gaussian_single_draw_finite():
    x = gen_input_gaussian(1, 1, seed=0)
    assert x.shape == (1, 1) and np.isfinite(x).all()
    for d_in, m in ((0, 1), (1, 0)):
        with pytest.raises(ValueError, match="d_in and m must be >= 1"):
            gen_input_gaussian(d_in, m, seed=0)


def test_gaussian_deterministic():
    a = gen_input_gaussian(6, 9, seed=123)
    b = gen_input_gaussian(6, 9, seed=123)
    assert np.array_equal(a, b)


def test_uniform_range_and_shape():
    y = gen_output_uniform(10, 600, seed=2)
    assert y.shape == (10, 600)
    assert y.min() > -1.0 and y.max() < 2.0


def test_uniform_single():
    y = gen_output_uniform(1, 1, seed=5)
    assert -1.0 < y[0, 0] < 2.0
    for d_out, m in ((0, 1), (1, 0)):
        with pytest.raises(ValueError, match="d_out and m must be >= 1"):
            gen_output_uniform(d_out, m, seed=5)


def test_uniform_mean():
    y = gen_output_uniform(100, 1000, seed=8)
    assert 0.45 <= y.mean() <= 0.55


def test_uniform_deterministic():
    assert np.array_equal(gen_output_uniform(3, 7, 42), gen_output_uniform(3, 7, 42))


def test_reshape_spectrum_identity_targets():
    out = reshape_spectrum(np.eye(3), [3.0, 2.0, 1.0])
    assert np.allclose(singular_values(out), [3.0, 2.0, 1.0], atol=1e-10)


def test_reshape_spectrum_shaped_draw():
    x = gen_input_gaussian(128, 600, seed=1)
    targets = sample_spectrum(128, seed=9)
    out = reshape_spectrum(x, targets)
    got = singular_values(out)
    want = np.sort(targets)[::-1]
    assert np.max(np.abs(got - want)) < 1e-10
    kappa = got[0] / got[-1]
    assert kappa == pytest.approx(want[0] / want[-1], rel=1e-9)


def test_reshape_spectrum_roundtrip():
    rng = np.random.default_rng(14)
    a = rng.normal(size=(5, 8))
    out = reshape_spectrum(a, singular_values(a))
    assert np.linalg.norm(out - a, "fro") / np.linalg.norm(a, "fro") < 1e-9


def test_reshape_spectrum_rejects_nonpositive():
    with pytest.raises(ValueError, match="positive"):
        reshape_spectrum(np.eye(2), [1.0, 0.0])
    for count in ([1.0], [3.0, 2.0, 1.0]):  # min(shape) = 2 targets, no other count
        with pytest.raises(ValueError, match=f"need 2 target singular values, got {len(count)}"):
            reshape_spectrum(np.eye(2), count)
    x = np.random.default_rng(16).normal(size=(3, 5))
    for bad in (np.nan, np.inf):  # an all-NaN or all-inf matrix before the check
        with pytest.raises(ValueError, match="finite and positive"):
            reshape_spectrum(x, [bad, 1.0, 1.0])


def test_reshape_spectrum_rank_equals_target_count():
    rng = np.random.default_rng(15)
    a = rng.normal(size=(4, 6))
    out = reshape_spectrum(a, [2.0, 1.0, 0.5, 0.25])
    assert np.linalg.matrix_rank(out) == 4


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(x=np.zeros((2, 3)), y=np.zeros((1, 4)))
    with pytest.raises(ValueError, match="at least one example"):
        Dataset(x=np.zeros((2, 0)), y=np.zeros((1, 0)))


def test_dataset_is_read_only():
    data = Dataset(x=gen_input_gaussian(3, 7, seed=0), y=gen_output_uniform(2, 7, seed=1))
    for a in (data.x, data.y):
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            a *= 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        data.x = np.zeros((3, 7))


def test_dataset_keeps_its_values_when_the_source_changes():
    x, y = gen_input_gaussian(3, 7, seed=0), gen_output_uniform(2, 7, seed=1)
    sources = {  # each source keeps its contiguous layout; a strided view is stored C-ordered
        "C": (x, y),
        "F": (np.asfortranarray(x), np.asfortranarray(y)),
        "view": (np.hstack([x, x])[:, :7], np.hstack([y, y])[:, :7]),
    }
    for layout, (sx, sy) in sources.items():
        kept_x, kept_y = sx.copy(), sy.copy()
        data = Dataset(x=sx, y=sy)
        compressed = data._compressed[0].x.copy()
        sx[...] = 0.0
        sy[...] = 0.0
        assert np.array_equal(data.x, kept_x) and np.array_equal(data.y, kept_y), layout
        assert np.array_equal(data._compressed[0].x, compressed)
        assert data.x.flags.f_contiguous == (layout == "F")
        assert data.x.flags.c_contiguous == (layout != "F")


def test_normalize_two_points(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text("0,0\n2,4\n")
    ds = load_normalize_csv(path, d_in=1, d_out=1)
    assert np.allclose(ds.x, [[-1.0, 1.0]])
    assert np.allclose(ds.y, [[-1.0, 1.0]])


def test_normalize_constant_column(tmp_path):
    path = tmp_path / "const.csv"
    path.write_text("5,1\n5,2\n5,3\n")
    ds = load_normalize_csv(path, d_in=1, d_out=1)
    assert np.all(ds.x == 0.0)


def test_a_constant_column_whose_mean_rounds_normalizes_to_zeros(tmp_path):
    # 0.1 + 0.1 + 0.1 is 0.30000000000000004, so the mean is not 0.1; the row is
    # constant by its own entries, and the other rows keep their bytes
    path = tmp_path / "const.csv"
    path.write_text("1,0.1,5\n2,0.1,6\n3,0.1,8\n")
    ds = load_normalize_csv(path, d_in=2, d_out=1)
    assert ds.x[1].tobytes() == np.zeros(3).tobytes()
    x0 = np.array([1.0, 2.0, 3.0]) / 4
    want = (x0 - x0.mean()) / x0.std()
    assert ds.x[0].tobytes() == want.tobytes()


@pytest.mark.parametrize("field", ["inf", "-inf", "nan"])
def test_a_non_finite_csv_field_names_its_line_before_normalizing(tmp_path, field):
    path = tmp_path / "bad.csv"
    path.write_text(f"# d_in=2 d_out=1\n1,2,3\n2,{field},4\n3,1,5\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"bad\.csv:3: non-finite field$"):
            load_normalize_csv(path, d_in=2, d_out=1)


def test_normalize_stats(tmp_path):
    rng = np.random.default_rng(3)
    raw = Dataset(x=rng.normal(2.0, 3.0, size=(5, 80)), y=rng.uniform(size=(2, 80)))
    path = tmp_path / "stats.csv"
    write_csv(path, raw)
    ds = load_normalize_csv(path, d_in=5, d_out=2)
    assert ds.m == 80
    assert np.max(np.abs(ds.x.mean(axis=1))) < 1e-10
    assert np.max(np.abs(ds.x.var(axis=1) - 1.0)) < 1e-8
    assert np.max(np.abs(ds.y.var(axis=1) - 1.0)) < 1e-8


@pytest.mark.parametrize("scale", [2.0**600, 2.0**-600, 1e200], ids=["2^600", "2^-600", "1e200"])
def test_normalize_holds_at_any_finite_scale(tmp_path, scale):
    # a table whose squares overflow (2^600, 1e200) or underflow (2^-600) normalizes as
    # the unscaled one, with no numpy warning: to the byte when scaled by a power of two
    # (each row's statistics are taken after an exact power-of-two scaling), within
    # 1e-12 otherwise (1e200 times an entry rounds)
    rng = np.random.default_rng(3)
    raw = Dataset(x=rng.normal(2.0, 3.0, size=(5, 80)), y=rng.uniform(size=(2, 80)))
    write_csv(tmp_path / "raw.csv", raw)
    write_csv(tmp_path / "scaled.csv", Dataset(x=raw.x * scale, y=raw.y * scale))
    want = load_normalize_csv(tmp_path / "raw.csv", d_in=5, d_out=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = load_normalize_csv(tmp_path / "scaled.csv", d_in=5, d_out=2)
    if math.frexp(scale)[0] == 0.5:
        assert got.x.tobytes() == want.x.tobytes() and got.y.tobytes() == want.y.tobytes()
    else:
        assert np.max(np.abs(got.x - want.x)) <= 1e-12 and np.max(np.abs(got.y - want.y)) <= 1e-12


def test_write_csv_writes_each_fields_repr(tmp_path):
    rng = np.random.default_rng(9)
    bits = rng.integers(0, 2**64, 3 * 700, dtype=np.uint64, endpoint=False).view(np.float64)
    bits = np.where(np.isfinite(bits), bits, -0.0)
    x = bits[:1400].reshape(2, 700)
    y = np.concatenate([bits[1400:], rng.normal(size=700)]).reshape(2, 700) * 1e-3
    path = tmp_path / "d.csv"
    write_csv(path, Dataset(x=x, y=y))
    lines = path.read_text().splitlines(keepends=True)
    assert lines[0] == "# d_in=2 d_out=2 m=700\n"
    assert lines[1:] == [",".join(map(repr, row)) + "\n" for row in np.vstack((x, y)).T.tolist()]


def test_csv_errors_name_line(tmp_path):
    bad_cols = tmp_path / "cols.csv"
    bad_cols.write_text("1,2\n1,2,3\n")
    with pytest.raises(ValueError, match=":2"):
        load_normalize_csv(bad_cols, d_in=1, d_out=1)
    bad_field = tmp_path / "field.csv"
    bad_field.write_text("# header\n1,2\nx,2\n")
    with pytest.raises(ValueError, match=":3"):
        load_normalize_csv(bad_field, d_in=1, d_out=1)
    comments = tmp_path / "comments.csv"
    comments.write_text("# d_in=1 d_out=1\n\n# no rows\n")
    with pytest.raises(ValueError, match="comments.csv: no data rows"):
        load_normalize_csv(comments, d_in=1, d_out=1)


def test_csv_header_and_blank_lines_ignored(tmp_path):
    path = tmp_path / "hdr.csv"
    path.write_text("# d_in=1 d_out=1\n\n1,1\n3,5\n")
    ds = load_normalize_csv(path, d_in=1, d_out=1)
    assert ds.m == 2
