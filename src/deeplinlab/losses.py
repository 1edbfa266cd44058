"""Loss functions and per-layer gradients.

A loss is the pointwise |z - b|^p / p for an even power p >= 2 (p = 2: the
square loss (z - b)^2 / 2), and its power is all it holds.  Its triple
(value, deriv, curvature) is calculus consistent: ``deriv`` is
d(value)/dz and ``curvature`` bounds |d2/dz2|.  The trajectory bookkeeping
tracks the rawer quantity sum |pred - y|^p (no 1/p): that is the
convention the distance-to-optimum and the optimal-step drop identity are
stated in, and it equals p times the summed loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .network import Network, _factors, end_to_end

__all__ = [
    "DISPLAY_FLOOR",
    "LossFunction",
    "gradient_from_parts",
    "l2",
    "layer_gradient",
    "lp",
    "predictions",
    "residual_objective",
    "total_loss",
]

DISPLAY_FLOOR = 1e-10  # the floor of a displayed distance to optimum (``dist_display``)


@dataclass(frozen=True)
class LossFunction:
    """The pointwise loss ell(z; b) = |z - b|^p / p of *power* p, an even
    integer >= 2, with its derivative and curvature bound.

    The power names the loss (``l<p>``), scales the tracked objective and
    sets the near-optimal rate for p-norm losses; two losses of one power
    are equal.  At p = 2 each method takes the square loss's own
    expression.
    """

    power: int

    def __post_init__(self):
        if self.power < 2 or self.power % 2 != 0:
            raise ValueError(f"p must be an even integer >= 2, got {self.power}")

    @property
    def name(self) -> str:
        return f"l{self.power}"

    def value(self, z, b):
        p = self.power
        return 0.5 * (z - b) ** 2 if p == 2 else np.abs(z - b) ** p / p

    def deriv(self, z, b):
        p = self.power
        return z - b if p == 2 else (z - b) * np.abs(z - b) ** (p - 2)

    def curvature(self, z, b):
        p = self.power
        if p == 2:
            return np.ones_like(np.asarray(z, dtype=np.float64))
        return (p - 1) * np.abs(z - b) ** (p - 2)


def l2() -> LossFunction:
    """Square loss (z - b)^2 / 2 with unit curvature."""
    return LossFunction(2)


def lp(p: int) -> LossFunction:
    """|z - b|^p / p loss for even integer p >= 2; ``lp(2) == l2()``."""
    return LossFunction(p)


def _check_dims(net: Network, data: Dataset) -> None:
    if net.dims[0] != data.d_in or net.dims[-1] != data.d_out:
        raise ValueError(
            f"network maps {net.dims[0]} -> {net.dims[-1]} but data is "
            f"{data.d_in} -> {data.d_out}"
        )


def predictions(net: Network, data: Dataset) -> np.ndarray:
    """End-to-end outputs W_{L:1} X (d_out x m)."""
    _check_dims(net, data)
    return end_to_end(net) @ data.x


def total_loss(net: Network, data: Dataset, lf: LossFunction) -> float:
    """Sum of the pointwise losses over all outputs and examples."""
    return float(np.sum(lf.value(predictions(net, data), data.y)))


def _objective(pred: np.ndarray, y: np.ndarray, lf: LossFunction) -> float:
    """Tracked objective of *pred*: sum |pred - y|^p, p times the summed loss
    (``np.add.reduce`` is ``np.sum``'s ufunc: same bits)."""
    return lf.power * float(np.add.reduce(lf.value(pred, y), axis=None))


def residual_objective(net: Network, data: Dataset, lf: LossFunction) -> float:
    """Tracked objective of *net* on *data* (``_objective``).

    This is the quantity whose per-step drop the optimal learning rate
    makes exact and whose gap to the oracle defines distance to optimum.
    """
    return _objective(predictions(net, data), data.y, lf)


def gradient_from_parts(a: np.ndarray, bx: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Layer gradient A^T D (B X)^T from the three factored parts.

    *a* is the above-layer product W_{L:(l+1)} (n_L x n_l), *bx* is
    W_{(l-1):1} X (n_(l-1) x m) and *d* is the n_L x m matrix of pointwise
    loss derivatives at the predictions.  The product is associated through
    the n_L-wide side, ``A^T (D (B X)^T)``: n_L n_(l-1) (m + n_l)
    multiply-adds, where ``(A^T D) (B X)^T`` takes n_l m (n_L + n_(l-1)),
    an n_l x n_(l-1) product over m, although D has only n_L = d_out rows.
    """
    return a.T.dot(d.dot(bx.T))


def layer_gradient(net: Network, data: Dataset, lf: LossFunction, ell: int) -> np.ndarray:
    """Gradient of the total loss with respect to layer *ell* (1-based).

    It reads ``net.layers``, so a compact network's dense layers are built
    (the network is a dense one from then on); ``predictions``,
    ``total_loss`` and ``residual_objective`` leave it compact."""
    _check_dims(net, data)
    if not 1 <= ell <= net.depth:
        raise ValueError(f"layer {ell} out of range 1..{net.depth}")
    a, bx = _factors(net, data.x, ell)
    d = lf.deriv(a @ net.layers[ell - 1] @ bx, data.y)
    return gradient_from_parts(a, bx, d)

