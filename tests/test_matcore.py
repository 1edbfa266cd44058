import math

import numpy as np
import pytest

from deeplinlab.matcore import (
    as_matrix,
    compact_svd,
    cond_numbers,
    matrix_norms,
    pseudo_inverse,
    singular_values,
    spectral_summary,
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


def test_matrix_norms_identity():
    spectral, fro, pq, mx = matrix_norms(np.eye(2), 2, 2)
    assert pq == pytest.approx(math.sqrt(2))
    assert mx == 1.0
    assert spectral == pytest.approx(1.0)
    assert fro == pytest.approx(math.sqrt(2))


def test_matrix_norms_scalar():
    for norm in matrix_norms(np.array([[3.0]]), 7, 3):
        assert norm == pytest.approx(3.0)


def test_matrix_norms_pq_against_direct_sum():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    _, _, pq, _ = matrix_norms(a, 4, 4)
    assert pq == pytest.approx((1 + 16 + 81 + 256) ** 0.25)
    # direct elementwise oracle for general p, q
    p, q = 3.0, 5.0
    cols = [sum(abs(a[i, j]) ** p for i in range(2)) ** (1 / p) for j in range(2)]
    direct = sum(c**q for c in cols) ** (1 / q)
    assert matrix_norms(a, p, q)[2] == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("p,q", [(0.5, 2), (2, 0.9)])
def test_matrix_norms_domain(p, q):
    with pytest.raises(ValueError):
        matrix_norms(np.eye(2), p, q)


def test_norm_sandwich_on_random_matrices():
    rng = np.random.default_rng(21)
    for _ in range(10):
        a = rng.normal(size=rng.integers(1, 7, size=2))
        summ = spectral_summary(a)
        rank = max(summ.numeric_rank, 1)
        assert summ.spectral_norm <= summ.frobenius_norm + 1e-12
        assert summ.frobenius_norm <= math.sqrt(rank) * summ.spectral_norm + 1e-12


def test_spectral_summary_consistency():
    a = np.diag([4.0, 3.0, 0.0])
    summ = spectral_summary(a)
    assert summ.numeric_rank == 2
    assert summ.spectral_norm == pytest.approx(summ.singular_values[0])
    assert summ.frobenius_norm**2 == pytest.approx(np.sum(summ.singular_values**2), rel=1e-10)


def test_cond_numbers_identity():
    kr, kt = cond_numbers(np.eye(4), 4)
    assert kr == pytest.approx(1.0)
    assert kt == pytest.approx(2.0)  # ||I4||_F / sigma_min = sqrt(4)


def test_cond_numbers_rank_deficient():
    kr, kt = cond_numbers(np.diag([2.0, 0.0]), 2)
    assert kr == math.inf and kt == math.inf


def test_cond_numbers_explicit_spectrum():
    kr, kt = cond_numbers(np.diag([10.0, 1.0, 0.1]), 3)
    assert kr == pytest.approx(100.0)
    assert kt == pytest.approx(math.sqrt(100 + 1 + 0.01) / 0.1)


def test_cond_numbers_r_out_of_range():
    with pytest.raises(ValueError):
        cond_numbers(np.eye(3), 4)
    with pytest.raises(ValueError):
        cond_numbers(np.eye(3), 0)


def test_cond_numbers_monotone_in_r():
    rng = np.random.default_rng(33)
    a = rng.normal(size=(5, 5))
    vals = [cond_numbers(a, r)[0] for r in range(1, 6)]
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
        assert Network([m]).layers[0] is m


def test_as_matrix_accepts_empty_and_checks_shape_first():
    assert as_matrix(np.zeros((0, 3))).shape == (0, 3)
    assert Network([np.zeros((2, 0))]).dims == (0, 2)
    with pytest.raises(ValueError, match="must be 2-D"):
        as_matrix(np.array([np.nan]), "X")
