"""Loss functions and per-layer gradients.

The pointwise loss triple (value, deriv, curvature) is calculus
consistent: ``deriv`` is d(value)/dz and ``curvature`` bounds |d2/dz2|.
For the built-in |z-b|^p / p family the trajectory bookkeeping tracks
the rawer quantity sum |pred - y|^p (no 1/p): that is the convention the
distance-to-optimum and the optimal-step drop identity are stated in,
and it equals p times the summed loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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
    """Pointwise loss ell(z; b) with derivative and curvature bound.

    ``power`` marks members of the |z-b|^p / p family (2 for the square
    loss); it drives the tracked-objective scaling and the near-optimal
    learning rate for p-norm losses.
    """

    name: str
    value: Callable[[np.ndarray, np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray, np.ndarray], np.ndarray]
    curvature: Callable[[np.ndarray, np.ndarray], np.ndarray]
    power: int | None = None


def l2() -> LossFunction:
    """Square loss (z - b)^2 / 2 with unit curvature."""
    return LossFunction(
        name="l2",
        value=lambda z, b: 0.5 * (z - b) ** 2,
        deriv=lambda z, b: z - b,
        curvature=lambda z, b: np.ones_like(np.asarray(z, dtype=np.float64)),
        power=2,
    )


def lp(p: int) -> LossFunction:
    """|z - b|^p / p loss for even integer p >= 2."""
    if p < 2 or p % 2 != 0:
        raise ValueError(f"p must be an even integer >= 2, got {p}")
    if p == 2:
        return l2()
    return LossFunction(
        name=f"l{p}",
        value=lambda z, b: np.abs(z - b) ** p / p,
        deriv=lambda z, b: (z - b) * np.abs(z - b) ** (p - 2),
        curvature=lambda z, b: (p - 1) * np.abs(z - b) ** (p - 2),
        power=p,
    )


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
    """Tracked objective of *pred*: sum |pred - y|^p for the p-family, else
    the summed loss (``np.add.reduce`` is ``np.sum``'s ufunc: same bits)."""
    total = float(np.add.reduce(lf.value(pred, y), axis=None))
    return lf.power * total if lf.power is not None else total


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
    """Gradient of the total loss with respect to layer *ell* (1-based)."""
    _check_dims(net, data)
    if not 1 <= ell <= net.depth:
        raise ValueError(f"layer {ell} out of range 1..{net.depth}")
    a, bx = _factors(net, data.x, ell)
    d = lf.deriv(a @ net.layers[ell - 1] @ bx, data.y)
    return gradient_from_parts(a, bx, d)

