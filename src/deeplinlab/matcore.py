"""Dense real-matrix substrate: SVD, pseudo-inverse, norms, condition numbers.

All routines operate on 2-D float64 numpy arrays and reject non-finite
entries on the way in.  Rank decisions use the standard numerical-rank
convention ``sigma <= max(rows, cols) * sigma_max * eps``.  Condition
numbers of rank-deficient matrices come back as ``math.inf``; downstream
formulas rely on ``eta / inf == 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpectralSummary",
    "as_matrix",
    "compact_svd",
    "cond_numbers",
    "matrix_norms",
    "numeric_rank",
    "pseudo_inverse",
    "rank_tolerance",
    "singular_values",
    "spectral_summary",
]

_EPS = float(np.finfo(np.float64).eps)


def _all_finite(m: np.ndarray, part: np.ndarray | None = None) -> bool:
    """Whether every entry of *part* (a part of *m*; default *m*) is finite.
    The sum of squares of *m*, one BLAS pass, decides unless it is not finite
    (its overflow warns unless ignored); then the entrywise test of *part* does."""
    v = m.ravel("K")
    return math.isfinite(v.dot(v)) or bool(np.isfinite(m if part is None else part).all())


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate *a* as a finite 2-D float64 matrix (copied only if needed).

    Finiteness is checked by ``_all_finite``, without an overflow warning.
    """
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    with np.errstate(over="ignore"):
        if not _all_finite(m):
            raise ValueError(f"{name} contains non-finite entries")
    return m


def rank_tolerance(shape: tuple[int, int], sigma_max: float) -> float:
    """Singular values at or below this threshold count as zero."""
    return max(shape) * sigma_max * _EPS


def numeric_rank(s: np.ndarray, shape: tuple[int, int]) -> int:
    """Count of the singular values *s* of a *shape* matrix above its rank tolerance."""
    return int(np.sum(s > rank_tolerance(shape, float(s[0]) if s.size else 0.0)))


def singular_values(a) -> np.ndarray:
    """All min(rows, cols) singular values, nonincreasing, zeros included."""
    m = as_matrix(a)
    if min(m.shape) == 0:
        return np.zeros(0)
    return np.linalg.svd(m, compute_uv=False)


def compact_svd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compact SVD ``A = U @ diag(s) @ V.T`` keeping only numerically
    nonzero singular values.

    Returns (U, s, V) where U is rows x r, V is cols x r, and r is the
    numeric rank.  A dimension-zero or zero matrix yields empty factors.
    """
    m = as_matrix(a)
    rows, cols = m.shape
    if rows == 0 or cols == 0:
        return np.zeros((rows, 0)), np.zeros(0), np.zeros((cols, 0))
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    r = numeric_rank(s, m.shape)
    return u[:, :r], s[:r], vh[:r, :].T


def pseudo_inverse(a) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via the compact SVD.

    The zero matrix maps to the zero matrix of transposed shape.
    """
    m = as_matrix(a)
    u, s, v = compact_svd(m)
    if s.size == 0:
        return np.zeros((m.shape[1], m.shape[0]))
    return (v / s) @ u.T


@dataclass(frozen=True)
class SpectralSummary:
    """Spectral facts about one matrix: full spectrum, rank and norms."""

    singular_values: np.ndarray
    numeric_rank: int
    spectral_norm: float
    frobenius_norm: float


def spectral_summary(a) -> SpectralSummary:
    m = as_matrix(a)
    s = singular_values(m)
    return SpectralSummary(
        singular_values=s,
        numeric_rank=numeric_rank(s, m.shape),
        spectral_norm=float(s[0]) if s.size else 0.0,
        frobenius_norm=float(np.linalg.norm(m, "fro")),
    )


def matrix_norms(a, p: float = 2.0, q: float = 2.0):
    """Return ``(spectral, frobenius, pq, max)`` norms of *a*.

    ``pq`` is the L_{p,q} norm: q-norm over columns of the p-norms down
    each column, so L_{2,2} coincides with the Frobenius norm.
    """
    if p < 1 or q < 1:
        raise ValueError(f"matrix L_pq norm needs p, q >= 1, got p={p}, q={q}")
    m = as_matrix(a)
    if m.size == 0:
        return 0.0, 0.0, 0.0, 0.0
    abs_m = np.abs(m)
    col_p = np.sum(abs_m**p, axis=0) ** (1.0 / p)
    pq = float(np.sum(col_p**q) ** (1.0 / q))
    s = singular_values(m)
    return float(s[0]), float(np.linalg.norm(m, "fro")), pq, float(abs_m.max())


def cond_numbers(a, r: int) -> tuple[float, float]:
    """``(kappa_r, kappa_scaled)``: sigma_max/sigma_r and ||A||_F/sigma_min.

    Either ratio is ``inf`` when its denominator is numerically zero.
    """
    m = as_matrix(a)
    s = singular_values(m)
    kappa_r = _kappa_r_from_svals(s, m.shape, r)
    smin = float(s[-1])
    fro = float(np.linalg.norm(m, "fro"))
    kappa_scaled = math.inf if smin <= rank_tolerance(m.shape, float(s[0])) else fro / smin
    return kappa_r, kappa_scaled


def _kappa_r_from_svals(s: np.ndarray, shape: tuple[int, int], r: int) -> float:
    """sigma_max / sigma_r of a *shape* matrix whose spectrum *s* is given.

    ``inf`` when sigma_r is numerically zero; *r* must lie in 1..min(shape).
    """
    if not 1 <= r <= min(shape):
        raise ValueError(f"r={r} out of range for shape {shape}")
    smax = float(s[0])
    sr = float(s[r - 1])
    return math.inf if sr <= rank_tolerance(shape, smax) else smax / sr
