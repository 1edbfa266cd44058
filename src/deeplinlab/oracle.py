"""Closed-form global optima of the linear least-squares problem.

Supplies the least-norm solution Y X^+, the full solution family
Y X^+ + M (X X^+ - I), and the rank-constrained solution built from the
truncated SVD of Y V_x.  ``optimal_loss`` is the minimized value of
||W X - Y||_F^2; ``reference_objective``, that value or (for other losses)
the optimum's objective, is the reference every run's distances measure
against, in the runners and the CLI alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import losses
from .data import Dataset
from .matcore import as_matrix, compact_svd, numeric_rank, pseudo_inverse, singular_values

__all__ = [
    "OracleSolution",
    "general_solution",
    "least_norm_solution",
    "optimal_loss",
    "rank_constrained_solution",
    "reference_objective",
]


@dataclass(frozen=True)
class OracleSolution:
    w_star: np.ndarray
    optimal_loss: float
    effective_rank: int


def least_norm_solution(x, y) -> np.ndarray:
    """Minimum-Frobenius-norm least-squares solution Y X^+."""
    xm = as_matrix(x, "X")
    ym = as_matrix(y, "Y")
    if xm.shape[1] != ym.shape[1]:
        raise ValueError("X and Y must have the same number of columns")
    return ym @ pseudo_inverse(xm)


def general_solution(x, y, m) -> np.ndarray:
    """Member Y X^+ + M (X X^+ - I) of the solution family.

    Every choice of M attains the same loss; M only moves the solution
    along the null directions of the normal equations.
    """
    xm = as_matrix(x, "X")
    ym = as_matrix(y, "Y")
    mm = as_matrix(m, "M")
    if mm.shape != (ym.shape[0], xm.shape[0]):
        raise ValueError(
            f"M must be {ym.shape[0]} x {xm.shape[0]}, got {mm.shape}"
        )
    x_pinv = pseudo_inverse(xm)
    return ym @ x_pinv + mm @ (xm @ x_pinv - np.eye(xm.shape[0]))


def rank_constrained_solution(x, y, n_star: int) -> OracleSolution:
    """Best solution of min ||W X - Y||_F^2 subject to rank(W) <= n_star.

    When the least-norm solution already satisfies the rank bound the
    constraint is inactive.  Otherwise the solution truncates the SVD of
    Y V_x to s = min(n_star, rank(Y X^+)) terms and maps back through
    Sigma_x^{-1} U_x^T.
    """
    if n_star < 1:
        raise ValueError("n_star must be >= 1")
    xm = as_matrix(x, "X")
    ym = as_matrix(y, "Y")
    if xm.shape[1] != ym.shape[1]:
        raise ValueError("X and Y must have the same number of columns")
    # One SVD of X serves both Y X^+ (as ``pseudo_inverse`` forms it) and,
    # when the rank bound is active, the truncation below.
    ux, sx, vx = compact_svd(xm)
    w_ln = ym @ ((vx / sx) @ ux.T)
    r_star = numeric_rank(singular_values(w_ln), w_ln.shape)
    if r_star <= n_star:
        loss = float(np.linalg.norm(w_ln @ xm - ym, "fro") ** 2)
        return OracleSolution(w_star=w_ln, optimal_loss=loss, effective_rank=r_star)
    z = ym @ vx
    uy, sy, vy = compact_svd(z)
    s = min(n_star, r_star)
    w_star = (uy[:, :s] * sy[:s]) @ vy[:, :s].T @ ((1.0 / sx)[:, None] * ux.T)
    loss = float(np.linalg.norm(w_star @ xm - ym, "fro") ** 2)
    return OracleSolution(w_star=w_star, optimal_loss=loss, effective_rank=s)


def optimal_loss(x, y, n_star: int) -> float:
    """Minimized ||W X - Y||_F^2 under the rank-n_star constraint."""
    return rank_constrained_solution(x, y, n_star).optimal_loss


def reference_objective(data: Dataset, lf: losses.LossFunction, n_star: int) -> float:
    """The optimum's tracked-objective value for distance bookkeeping.

    For the square loss this is the minimized ||W X - Y||_F^2 itself; for
    other losses the square-loss optimum W* is evaluated under the run's
    objective (the reference the real-data experiments plot against).
    Each reference is computed once per dataset: the value is kept on the
    read-only *data* (``Dataset._references``) under (loss power, n_star).
    """
    refs, key = data._references, (lf.power, n_star)
    if key not in refs:
        sol = rank_constrained_solution(data.x, data.y, n_star)
        refs[key] = sol.optimal_loss if lf.power == 2 else losses._objective(sol.w_star @ data.x, data.y, lf)
    return refs[key]
