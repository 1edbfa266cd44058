import numpy as np
import pytest

from deeplinlab.matcore import compact_svd, pseudo_inverse, spectral_summary
from deeplinlab.oracle import (
    general_solution,
    least_norm_solution,
    optimal_loss,
    rank_constrained_solution,
)


def rank_deficient_x(seed=0, d_in=6, m=10, rank=3):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(d_in, rank)) @ rng.normal(size=(rank, m))


def loss_of(w, x, y):
    return float(np.linalg.norm(w @ x - y, "fro") ** 2)


def test_least_norm_identity_input():
    y = np.arange(6.0).reshape(2, 3)
    assert np.allclose(least_norm_solution(np.eye(3), y), y)


def test_least_norm_full_row_rank_explicit_formula():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, 12))
    y = rng.normal(size=(3, 12))
    explicit = y @ x.T @ np.linalg.inv(x @ x.T)
    got = least_norm_solution(x, y)
    assert np.linalg.norm(got - explicit) / np.linalg.norm(explicit) < 1e-8


def test_least_norm_whitened_data():
    rng = np.random.default_rng(2)
    q, _ = np.linalg.qr(rng.normal(size=(10, 4)))
    x = q.T  # X X^T = I_4
    y = rng.normal(size=(2, 10))
    assert np.allclose(least_norm_solution(x, y), y @ x.T, atol=1e-10)


def test_general_solution_m_zero():
    rng = np.random.default_rng(3)
    x = rank_deficient_x(seed=3)
    y = rng.normal(size=(2, 10))
    zero = np.zeros((2, 6))
    assert np.allclose(general_solution(x, y, zero), least_norm_solution(x, y))


def test_general_solution_full_row_rank_ignores_m():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(4, 9))
    y = rng.normal(size=(2, 9))
    base = general_solution(x, y, np.zeros((2, 4)))
    other = general_solution(x, y, rng.normal(size=(2, 4)))
    assert np.allclose(base, other, atol=1e-9)


def test_general_solution_loss_independent_of_m():
    rng = np.random.default_rng(5)
    x = rank_deficient_x(seed=5)
    y = rng.normal(size=(2, 10))
    reference = loss_of(least_norm_solution(x, y), x, y)
    for _ in range(25):
        w = general_solution(x, y, rng.normal(size=(2, 6)))
        assert loss_of(w, x, y) == pytest.approx(reference, rel=1e-9)


def test_general_solution_shape_check():
    with pytest.raises(ValueError):
        general_solution(np.eye(3), np.ones((2, 3)), np.ones((3, 2)))


def test_least_norm_is_minimal_frobenius():
    rng = np.random.default_rng(6)
    x = rank_deficient_x(seed=6)
    y = rng.normal(size=(2, 10))
    base = float(np.linalg.norm(least_norm_solution(x, y), "fro"))
    for _ in range(100):
        w = general_solution(x, y, rng.normal(size=(2, 6)))
        assert base <= float(np.linalg.norm(w, "fro")) + 1e-9


def test_rank_constraint_inactive():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(4, 9))
    y = rng.normal(size=(3, 9))  # rank(Y X^+) <= 3
    sol = rank_constrained_solution(x, y, 3)
    assert np.allclose(sol.w_star, least_norm_solution(x, y))
    assert sol.effective_rank == 3


def test_rank_constrained_eckart_young():
    rng = np.random.default_rng(8)
    u, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    v, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    spectrum = np.array([5.0, 3.0, 2.0, 1.0, 0.5])
    y = (u * spectrum) @ v.T
    sol = rank_constrained_solution(np.eye(5), y, 2)
    # residual^2 is the sum of the dropped squared singular values
    assert sol.optimal_loss == pytest.approx(float(np.sum(spectrum[2:] ** 2)), rel=1e-10)
    assert np.linalg.matrix_rank(sol.w_star) == 2


def test_rank_constrained_matches_independent_recomputation():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(4, 6))
    y = rng.normal(size=(3, 6))
    n_star = 1
    sol = rank_constrained_solution(x, y, n_star)
    # independent path: numpy SVDs from scratch, no package helpers
    ux, sx, vxh = np.linalg.svd(x, full_matrices=False)
    keep = sx > 1e-12
    ux, sx, vxh = ux[:, keep], sx[keep], vxh[keep, :]
    z = y @ vxh.T
    uz, sz, vzh = np.linalg.svd(z, full_matrices=False)
    w_ind = (uz[:, :n_star] * sz[:n_star]) @ vzh[:n_star, :] @ np.diag(1.0 / sx) @ ux.T
    assert sol.optimal_loss == pytest.approx(loss_of(w_ind, x, y), rel=1e-8)


def test_rank_constrained_beats_random_candidates():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(4, 6))
    y = rng.normal(size=(3, 6))
    sol = rank_constrained_solution(x, y, 1)
    for _ in range(100):
        cand = np.outer(rng.normal(size=3), rng.normal(size=4))
        assert sol.optimal_loss <= loss_of(cand, x, y) + 1e-9


def test_rank_constrained_rejects_zero():
    with pytest.raises(ValueError):
        rank_constrained_solution(np.eye(2), np.eye(2), 0)


def test_optimal_loss_realizable():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(4, 9))
    w = np.outer(rng.normal(size=3), rng.normal(size=4))  # rank 1
    y = w @ x
    scale = float(np.sum(y**2))
    assert optimal_loss(x, y, 1) < 1e-16 * max(scale, 1.0)


def test_optimal_loss_projector_residual():
    rng = np.random.default_rng(12)
    x = rank_deficient_x(seed=12)
    y = rng.normal(size=(2, 10))
    x_pinv = np.linalg.pinv(x)
    direct = float(np.linalg.norm(y @ (np.eye(10) - x_pinv @ x), "fro") ** 2)
    assert optimal_loss(x, y, 2) == pytest.approx(direct, rel=1e-8)


def test_optimal_loss_monotone_in_rank():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(5, 8))
    y = rng.normal(size=(4, 8))
    values = [optimal_loss(x, y, r) for r in range(1, 5)]
    assert all(values[i] >= values[i + 1] - 1e-10 for i in range(3))


def _reference_rank_constrained(x, y, n_star):
    """The solution as formed with two SVDs of X: one inside the
    pseudo-inverse, one for the truncation."""
    w_ln = y @ pseudo_inverse(x)
    r_star = spectral_summary(w_ln).numeric_rank
    if r_star <= n_star:
        return w_ln, float(np.linalg.norm(w_ln @ x - y, "fro") ** 2), r_star
    ux, sx, vx = compact_svd(x)
    uy, sy, vy = compact_svd(y @ vx)
    s = min(n_star, r_star)
    w_star = (uy[:, :s] * sy[:s]) @ vy[:, :s].T @ ((1.0 / sx)[:, None] * ux.T)
    return w_star, float(np.linalg.norm(w_star @ x - y, "fro") ** 2), s


@pytest.mark.parametrize(
    "x, n_star",
    [
        (np.random.default_rng(11).normal(size=(6, 20)), 2),  # active
        (rank_deficient_x(seed=12), 1),  # active, rank-deficient X
        (np.random.default_rng(13).normal(size=(6, 20)), 4),  # inactive
        (np.zeros((6, 20)), 1),  # Y X^+ = 0
    ],
)
def test_rank_constrained_factors_x_once_with_the_same_bits(monkeypatch, x, n_star):
    y = np.random.default_rng(14).uniform(-1, 2, size=(4, x.shape[1]))
    want_w, want_loss, want_rank = _reference_rank_constrained(x, y, n_star)
    svd = np.linalg.svd
    of_x = []

    def counting_svd(a, *args, **kwargs):
        of_x.append(a.shape == x.shape and np.array_equal(a, x))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    sol = rank_constrained_solution(x, y, n_star)
    assert sum(of_x) == 1
    assert sol.w_star.tobytes() == want_w.tobytes()
    assert sol.optimal_loss == want_loss and sol.effective_rank == want_rank
