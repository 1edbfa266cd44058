"""Dense real-matrix substrate: SVD, pseudo-inverse, ranks and spectra.

All routines operate on 2-D float64 numpy arrays and reject non-finite
entries on the way in.  Rank decisions use the standard numerical-rank
convention ``sigma <= max(rows, cols) * sigma_max * eps``.  The condition
number of a rank-deficient matrix comes back as ``math.inf``; downstream
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
    "numeric_rank",
    "pseudo_inverse",
    "rank_tolerance",
    "singular_values",
    "spectral_summary",
]

_EPS = float(np.finfo(np.float64).eps)


def _sq_fro(a: np.ndarray) -> float:
    """``||a||_F^2`` in one BLAS pass: the ``ravel("K").dot`` whose square
    root ``np.linalg.norm(a, "fro")`` returns (its overflow warns unless
    ignored)."""
    v = a.ravel("K")
    return float(v.dot(v))


def _all_finite(m: np.ndarray, part: np.ndarray | None = None) -> bool:
    """Whether every entry of *part* (a part of *m*; default *m*) is finite.
    The sum of squares of *m* (``_sq_fro``) decides unless it is not finite;
    then the entrywise test of *part* does."""
    return math.isfinite(_sq_fro(m)) or bool(np.isfinite(m if part is None else part).all())


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


def _contiguous(m: np.ndarray) -> np.ndarray:
    """*m* itself when C- or F-contiguous, else one C-contiguous copy.

    ``a.dot(b)`` and ``a @ b`` give the same bits on contiguous storage but
    can differ on a strided view (a row slice ``big[:k, :m]``), so the
    network and the dataset store their matrices this way.
    """
    return m if m.flags.c_contiguous or m.flags.f_contiguous else np.ascontiguousarray(m)


def _fro(a: np.ndarray) -> float:
    """``np.linalg.norm(a, "fro")`` bit for bit, without its wrapper: the
    square root of ``_sq_fro``, the ``ravel("K").dot`` it takes itself."""
    return math.sqrt(_sq_fro(a))


def _svals(a: np.ndarray) -> np.ndarray:
    """Singular values of *a*, nonincreasing; ``[0.0]`` for an empty matrix."""
    return np.linalg.svd(a, compute_uv=False) if a.size else np.zeros(1)


def _column_sums(a: np.ndarray) -> np.ndarray:
    """``np.add.reduce(a, axis=1)`` of a 2-D *a* of at most 8 columns, bit
    for bit, in a few ufuncs over its columns instead of one numpy inner
    loop per row (on 2000 x 8 about a third of the time, 2-vCPU Xeon,
    numpy 2.4).

    numpy sums a row of fewer than 8 entries in order, and a row of 8 as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``; the reduction adds that sum to
    its identity 0.0.  Wider rows take other orders, which this does not
    reproduce.
    """
    cols = a.shape[1]
    if cols < 8:
        res = a[:, 0] + 0.0
        for i in range(1, cols):
            res += a[:, i]
        return res
    r = a[:, 0::2] + a[:, 1::2]
    r = r[:, 0::2] + r[:, 1::2]
    res = r[:, 0] + r[:, 1]
    res += 0.0
    return res


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
    """Spectral facts about one matrix: full spectrum, rank and spectral norm."""

    singular_values: np.ndarray
    numeric_rank: int
    spectral_norm: float


def spectral_summary(a) -> SpectralSummary:
    m = as_matrix(a)
    s = singular_values(m)
    return SpectralSummary(
        singular_values=s,
        numeric_rank=numeric_rank(s, m.shape),
        spectral_norm=float(s[0]) if s.size else 0.0,
    )


def _kappa_r_from_svals(s: np.ndarray, shape: tuple[int, int], r: int) -> float:
    """sigma_max / sigma_r of a *shape* matrix whose spectrum *s* is given.

    ``inf`` when sigma_r is numerically zero; *r* must lie in 1..min(shape).
    """
    if not 1 <= r <= min(shape):
        raise ValueError(f"r={r} out of range for shape {shape}")
    smax = float(s[0])
    sr = float(s[r - 1])
    return math.inf if sr <= rank_tolerance(shape, smax) else smax / sr
