"""Dataset generation and CSV ingestion.

Synthetic recipes: Gaussian inputs with entry variance 1/d_in, uniform
outputs on (-1, 2), and spectrum reshaping to dial in a target condition
number.  CSV files hold one example per line, ``d_in`` input fields then
``d_out`` output fields; lines starting with ``#`` are comments.

Every generator owns its RNG stream (``numpy.random.default_rng(seed)``),
so identical seeds reproduce identical matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .matcore import _contiguous, _float_rows, _svals, as_matrix

__all__ = [
    "Dataset",
    "gen_input_gaussian",
    "gen_output_uniform",
    "load_normalize_csv",
    "reshape_spectrum",
    "write_csv",
]


@dataclass(frozen=True)
class Dataset:
    """Training pairs as column-major matrices: X is d_in x m, Y is d_out x m.

    A read-only value: X and Y are read-only copies (``_frozen``), so no
    later write to the arrays it was built from reaches it, and it caches
    what every run on it derives from the data alone, each once per
    dataset: the sample compression (``_compressed``), the singular values
    of X (``_x_svals``) and the reference optima (``_references``).
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = _frozen(self.x, "X")
        y = _frozen(self.y, "Y")
        if x.shape[1] != y.shape[1]:
            raise ValueError(f"X has {x.shape[1]} columns but Y has {y.shape[1]}")
        if x.shape[1] < 1:
            raise ValueError("dataset needs at least one example")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def m(self) -> int:
        return self.x.shape[1]

    @property
    def d_in(self) -> int:
        return self.x.shape[0]

    @property
    def d_out(self) -> int:
        return self.y.shape[0]

    @cached_property
    def _compressed(self) -> tuple["Dataset", float, np.ndarray]:
        """``(Dataset(R^T, Y Q), c, Q)`` from the reduced QR ``X^T = Q R``.

        Q (m x d_in) has orthonormal columns, so for the square loss
        ``||A W B X - Y||_F^2 = ||A W B R^T - Y Q||_F^2 + c`` with
        ``c = ||Y - Y Q Q^T||_F^2``, the layer gradient ``A^T (A W B X - Y)
        (B X)^T`` equals its compressed twin, and B X and B R^T have the same
        singular values and the same ``||A G B X||_F``.  Example i's column
        is ``B x_i = B R^T q_i``, q_i the i-th row of Q.  c is taken as the
        residual's own squared norm, not as the difference ``||Y||^2 -
        ||Y Q||^2``, which would cancel.  ``optim._reduce`` decides when it
        is used (the square loss with m > d_in).  The rows of Q at X's zero
        columns are set to 0 once Y Q and c are formed: there ``C q_i = B x_i
        = 0`` exactly, so such an example's sampling weight is 0, as at
        m <= d_in, not rounding noise (``sgd._bx_column_weights``).
        """
        q, r = np.linalg.qr(self.x.T)
        yq = self.y @ q
        resid = self.y - yq @ q.T
        q[~self.x.any(axis=0)] = 0.0
        q.flags.writeable = False
        return Dataset(x=np.ascontiguousarray(r.T), y=yq), float(np.sum(resid * resid)), q

    @cached_property
    def _x_svals(self) -> np.ndarray:
        """X's singular values, nonincreasing (``optim._Run.ranks``, ``_spectra``); read-only."""
        s = _svals(self.x)
        s.flags.writeable = False
        return s

    @cached_property
    def _references(self) -> dict:
        """``oracle.reference_objective``'s values, keyed by (loss power, rank)."""
        return {}


def _frozen(a, name: str) -> np.ndarray:
    """A read-only copy of *a*, validated by ``as_matrix`` and laid out as
    ``_contiguous`` lays it out."""
    m = _contiguous(as_matrix(a, name)).copy(order="K")
    m.flags.writeable = False
    return m


def gen_input_gaussian(d_in: int, m: int, seed: int) -> np.ndarray:
    """d_in x m matrix of i.i.d. N(0, 1/d_in) entries."""
    if d_in < 1 or m < 1:
        raise ValueError("d_in and m must be >= 1")
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, np.sqrt(1.0 / d_in), size=(d_in, m))


def gen_output_uniform(d_out: int, m: int, seed: int) -> np.ndarray:
    """d_out x m matrix of i.i.d. Uniform(-1, 2) entries."""
    if d_out < 1 or m < 1:
        raise ValueError("d_out and m must be >= 1")
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 2.0, size=(d_out, m))


def reshape_spectrum(a, new_singulars) -> np.ndarray:
    """Replace the singular values of *a* with *new_singulars*.

    Targets are sorted nonincreasing before assignment (the condition
    number does not depend on the order).  The singular vectors of *a*
    are kept, so only the spectrum changes.
    """
    m = as_matrix(a)
    targets = np.asarray(new_singulars, dtype=np.float64)
    if targets.ndim != 1 or targets.size != min(m.shape):
        raise ValueError(
            f"need {min(m.shape)} target singular values, got {targets.size}"
        )
    if not np.isfinite(targets).all() or np.any(targets <= 0):
        raise ValueError("target singular values must be finite and positive")
    targets = np.sort(targets)[::-1]
    u, _, vh = np.linalg.svd(m, full_matrices=False)
    return (u * targets) @ vh


def sample_spectrum(n: int, seed: int) -> np.ndarray:
    """n draws from ``1e-5 + Uniform(0, 1)``, the shaped-spectrum recipe."""
    rng = np.random.default_rng(seed)
    return 1e-5 + rng.uniform(0.0, 1.0, size=n)


def write_csv(path, dataset: Dataset) -> None:
    """Write a dataset in the one-example-per-line CSV layout, after a
    ``# d_in= d_out= m=`` comment line.

    Each field is its value's ``repr``, exactly (``matcore._float_rows``).
    The lines are formed and written in batches of whole lines of at most
    4,096 values, so beside the one m x (d_in + d_out) copy of the table the
    memory a write holds does not grow with m.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# d_in={dataset.d_in} d_out={dataset.d_out} m={dataset.m}\n")
        fh.writelines(_float_rows([np.vstack((dataset.x, dataset.y)).T], ","))


def load_normalize_csv(path, d_in: int, d_out: int) -> Dataset:
    """Load a CSV of examples and normalize every row of X and Y.

    Each non-constant feature/output row is shifted and scaled to mean 0
    and population variance 1; constant rows are centered to all zeros.
    Malformed lines raise ValueError naming the 1-based line number.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            fields = stripped.split(",")
            if len(fields) != d_in + d_out:
                raise ValueError(
                    f"{path}:{lineno}: expected {d_in + d_out} fields, "
                    f"got {len(fields)}"
                )
            try:
                rows.append([float(f) for f in fields])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric field") from exc
    if not rows:
        raise ValueError(f"{path}: no data rows")
    table = np.asarray(rows, dtype=np.float64).T  # (d_in + d_out) x m
    x = _normalize_rows(table[:d_in])
    y = _normalize_rows(table[d_in:])
    return Dataset(x=x, y=y)


def _normalize_rows(block: np.ndarray) -> np.ndarray:
    mean = block.mean(axis=1, keepdims=True)
    std = block.std(axis=1, keepdims=True)  # population variance
    centered = block - mean
    safe = np.where(std > 0, std, 1.0)
    return centered / safe
