import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deeplinlab.matcore import (
    _column_sums,
    _kappa_r_from_svals,
    as_matrix,
    compact_svd,
    numeric_rank,
    pseudo_inverse,
    singular_values,
)
from deeplinlab.network import Network


def test_compact_svd_identity():
    u, s, v = compact_svd(np.eye(3))
    assert np.allclose(u, np.eye(3))
    assert np.allclose(v, np.eye(3))
    assert np.array_equal(s, np.ones(3))


def test_compact_svd_drops_zero_singular_values():
    u, s, v = compact_svd(np.diag([3.0, 0.0]))
    assert s.shape == (1,)
    assert s[0] == pytest.approx(3.0)
    assert np.allclose(np.abs(u[:, 0]), [1.0, 0.0])
    assert np.allclose(np.abs(v[:, 0]), [1.0, 0.0])


def test_compact_svd_reconstruction():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(4, 3))
    u, s, v = compact_svd(a)
    resid = np.linalg.norm(a - (u * s) @ v.T, "fro") / np.linalg.norm(a, "fro")
    assert resid < 1e-10


def test_compact_svd_orthonormal_factors():
    rng = np.random.default_rng(11)
    for shape in [(5, 3), (3, 5), (4, 4)]:
        a = rng.normal(size=shape)
        u, s, v = compact_svd(a)
        assert np.max(np.abs(u.T @ u - np.eye(len(s)))) < 1e-10
        assert np.max(np.abs(v.T @ v - np.eye(len(s)))) < 1e-10


def test_compact_svd_zero_dimension():
    u, s, v = compact_svd(np.zeros((0, 3)))
    assert u.shape == (0, 0) and s.size == 0 and v.shape == (3, 0)


def test_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        singular_values(np.array([[1.0, np.nan]]))


def test_pseudo_inverse_identity_and_diag():
    assert np.allclose(pseudo_inverse(np.eye(2)), np.eye(2))
    assert np.allclose(pseudo_inverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))


def test_pseudo_inverse_zero_matrix():
    out = pseudo_inverse(np.zeros((2, 5)))
    assert out.shape == (5, 2)
    assert np.all(out == 0)


def test_pseudo_inverse_full_row_rank_normal_equations():
    # independent oracle: A+ = A^T (A A^T)^{-1} solved via normal equations
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 9))
    expected = np.linalg.solve(a @ a.T, a).T
    got = pseudo_inverse(a)
    assert np.linalg.norm(got - expected) / np.linalg.norm(expected) < 1e-8


def test_pseudo_inverse_penrose_identities():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(6, 4))
    ap = pseudo_inverse(a)
    scale = np.linalg.norm(a)
    assert np.linalg.norm(a @ ap @ a - a) < 1e-8 * scale
    assert np.linalg.norm(ap @ a @ ap - ap) < 1e-8 * scale
    assert np.linalg.norm((a @ ap).T - a @ ap) < 1e-8
    assert np.linalg.norm((ap @ a).T - ap @ a) < 1e-8


def test_pseudo_inverse_involution_full_rank():
    rng = np.random.default_rng(9)
    for _ in range(5):
        a = rng.normal(size=(5, 3))
        back = pseudo_inverse(pseudo_inverse(a))
        assert np.linalg.norm(back - a) / np.linalg.norm(a) < 1e-8


def test_singular_values_explicit_and_zero():
    assert np.allclose(singular_values(np.diag([5.0, 2.0, 1.0])), [5, 2, 1])
    assert np.array_equal(singular_values(np.zeros((2, 3))), np.zeros(2))


def test_norm_sandwich_on_random_matrices():
    rng = np.random.default_rng(21)
    for _ in range(10):
        a = rng.normal(size=rng.integers(1, 7, size=2))
        s = singular_values(a)
        rank = max(numeric_rank(s, a.shape), 1)
        fro = np.linalg.norm(a, "fro")
        assert s[0] <= fro + 1e-12
        assert fro <= math.sqrt(rank) * s[0] + 1e-12


def test_rank_tolerance_scales_with_the_longer_side():
    # a 2 x 10 matrix: the tolerance is 10 eps sigma_max, so 3 eps counts as zero
    eps = np.finfo(np.float64).eps
    assert numeric_rank(np.array([1.0, 3 * eps]), (2, 10)) == 1


def test_spectral_summary_consistency():
    a = np.diag([4.0, 3.0, 0.0])
    s = singular_values(a)
    assert numeric_rank(s, a.shape) == 2
    assert s[0] == pytest.approx(np.linalg.norm(a, 2))
    assert np.linalg.norm(a, "fro") ** 2 == pytest.approx(np.sum(s**2), rel=1e-10)


def kappa_r(a, r):
    return _kappa_r_from_svals(singular_values(a), a.shape, r)


def test_cond_numbers_identity():
    assert kappa_r(np.eye(4), 4) == pytest.approx(1.0)


def test_cond_numbers_rank_deficient():
    # sigma_r numerically zero: kappa_r is inf
    assert kappa_r(np.diag([2.0, 0.0]), 2) == math.inf
    assert kappa_r(np.diag([2.0, 1e-17]), 2) == math.inf


def test_cond_numbers_explicit_spectrum():
    assert kappa_r(np.diag([10.0, 1.0, 0.1]), 3) == pytest.approx(100.0)
    assert kappa_r(np.diag([10.0, 1.0, 0.1]), 2) == pytest.approx(10.0)


def test_cond_numbers_r_out_of_range():
    # a rank the matrix cannot carry: no sigma_r, so kappa_r is inf
    assert kappa_r(np.eye(3), 4) == math.inf
    assert kappa_r(np.eye(3), 0) == math.inf
    assert _kappa_r_from_svals(np.array([0.0]), (0, 3), 1) == math.inf


def test_cond_numbers_monotone_in_r():
    rng = np.random.default_rng(33)
    a = rng.normal(size=(5, 5))
    vals = [kappa_r(a, r) for r in range(1, 6)]
    assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(4))


def _layouts(a):
    """*a* as C-ordered, F-ordered and strided (every other column) arrays."""
    wide = np.zeros((a.shape[0], 2 * a.shape[1]))
    wide[:, ::2] = a
    return [np.ascontiguousarray(a), np.asfortranarray(a), wide[:, ::2]]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_as_matrix_rejects_non_finite_in_any_layout(bad):
    a = np.arange(12.0).reshape(3, 4)
    a[2, 1] = bad
    for m in _layouts(a):
        with pytest.raises(ValueError, match="X contains non-finite entries"):
            as_matrix(m, "X")
        with pytest.raises(ValueError, match="layer 1 contains non-finite entries"):
            Network([m])


@pytest.mark.filterwarnings("error")
def test_as_matrix_accepts_entries_whose_squares_overflow():
    a = np.full((3, 4), 1e200)
    a[0, 0] = -1e200
    for m in _layouts(a):
        assert as_matrix(m) is m
    c_order, f_order, strided = _layouts(a)
    assert Network([c_order]).layers[0] is c_order
    assert Network([f_order]).layers[0] is f_order
    copy = Network([strided]).layers[0]  # a strided view is stored as one contiguous copy
    assert copy.flags.c_contiguous and np.array_equal(copy, strided)


def test_as_matrix_accepts_empty_and_checks_shape_first():
    assert as_matrix(np.zeros((0, 3))).shape == (0, 3)
    assert Network([np.zeros((2, 0))]).dims == (0, 2)
    with pytest.raises(ValueError, match="must be 2-D"):
        as_matrix(np.array([np.nan]), "X")


@st.composite
def _summands(draw, rows, cols):
    """A C-contiguous rows x cols matrix: entries of either sign with
    magnitudes within 1e-300 to 1e300 (sums may overflow to inf), and some
    exact zeros of either sign.  The magnitudes span under one decade, a
    few or all 600, so the order of the additions shows in the rounding."""
    r, c = draw(rows), draw(cols)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    low = draw(st.floats(-300, 300))
    high = min(300.0, low + draw(st.sampled_from([0.5, 4.0, 600.0])))
    a = rng.choice([-1.0, 1.0], size=(r, c)) * 10.0 ** rng.uniform(low, high, size=(r, c))
    zeros = rng.random((r, c)) < draw(st.sampled_from([0.0, 0.1, 1.0]))
    a[zeros] = np.copysign(0.0, a[zeros])  # -0.0 too: numpy's sums start from +0.0
    return a


# widths 1-8: sequential below 8, the 8-accumulator tree at 8
@settings(max_examples=300, deadline=None)
@given(_summands(st.integers(1, 64), st.integers(1, 8)))
def test_column_sums_are_numpys_row_sums_bit_for_bit(a):
    assert _column_sums(a).tobytes() == np.add.reduce(a, axis=1).tobytes()


# tall and narrow: the shapes of the BCSGD sampling weights
@settings(max_examples=100, deadline=None)
@given(_summands(st.integers(64, 1200), st.integers(1, 8)))
def test_column_sums_of_tall_arrays_are_numpys_bit_for_bit(a):
    assert _column_sums(a).tobytes() == np.add.reduce(a, axis=1).tobytes()
