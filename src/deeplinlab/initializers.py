"""Weight initialization schemes for deep linear networks.

Five schemes: orthogonal, orth-identity, identity, balanced, random.
The first four place structured blocks in the top-left corner of each
layer and pad with zeros (orth-identity additionally pads the square
block with an identity, which is what makes intermediate widths inert).
Balanced factors a seed matrix through its SVD with the 1/L-th power of
the spectrum in every intermediate layer.  At widths above
``max(n_0, n_L)`` the orth-identity, identity and balanced kinds build
the network compact: its head blocks, without the pad.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matcore import as_matrix
from .network import Network, _head_sizes

__all__ = ["InitScheme", "KINDS", "initialize", "random_orthogonal"]

KINDS = ("orthogonal", "orth_identity", "identity", "balanced", "random")


def random_orthogonal(n: int, seed=None) -> np.ndarray:
    """Haar-distributed n x n orthogonal matrix (QR with R-diagonal sign fix)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return _orthogonal_stack(rng, 1, n)[0]


def _orthogonal_stack(rng, count: int, n: int) -> np.ndarray:
    """*count* Haar n x n orthogonal matrices from one ``(count, n, n)`` draw
    and one stacked QR: the same bits as *count* single draws from *rng*."""
    q, r = np.linalg.qr(rng.normal(size=(count, n, n)))
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * np.where(d >= 0, 1.0, -1.0)[:, None, :]


@dataclass(frozen=True)
class InitScheme:
    """Selects one of KINDS.

    The random kind draws layer j with variance 1/n_{j-1};
    ``balanced_seed`` is the n_L x n_0 matrix the balanced kind factors
    (drawn N(0, 1/n_0) when omitted).
    """

    kind: str
    balanced_seed: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown init kind {self.kind!r}; pick from {KINDS}")


# Bytes of Gaussians drawn and factored at once.  Same-size blocks of
# consecutive layers share one stacked QR, which is faster for small
# blocks; blocks above 64 x 64 are factored one at a time, since a stack
# of them is no faster and only raises peak memory.
_STACK_BYTES = 1 << 16


def initialize(scheme: InitScheme, dims, seed: int = 0) -> Network:
    """Build a Network over the dimension chain *dims* under *scheme*.

    Per-layer random draws come from a single stream seeded by *seed*,
    taken in layer order, so a fixed seed reproduces the network and the
    draws do not depend on the widths beyond each block's size.

    A chain with padding (a width above ``max(n_0, n_L)``) under the
    orth-identity, identity and balanced kinds is built compact
    (``Network._padded``): only its head blocks ``W_l[:k_l, :k_(l-1)]``,
    ``k_l = min(n_l, max(n_0, n_L))`` (``network._head_sizes``), are
    allocated, the pad they imply a unit diagonal (orth-identity, identity)
    or zero (balanced).
    """
    dims = tuple(int(d) for d in dims)
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ValueError(f"bad dimension chain {dims}")
    rng = np.random.default_rng(seed)
    L = len(dims) - 1

    if scheme.kind == "random":
        shapes = [(dims[j], dims[j - 1]) for j in range(1, L + 1)]
        return Network([rng.normal(0.0, np.sqrt(1.0 / n), size=(k, n)) for k, n in shapes])

    sizes = dims if scheme.kind == "orthogonal" else _head_sizes(dims)  # each layer's built shape
    if scheme.kind == "balanced":
        layers = _balanced(scheme, dims, sizes, rng)
    else:
        layers = _orthogonal_or_identity(scheme.kind, sizes, rng)
    if sizes != dims:
        return Network._padded(layers, dims, 0.0 if scheme.kind == "balanced" else 1.0)
    return Network(layers)


def _orthogonal_or_identity(kind: str, sizes, rng) -> list:
    """The layers of the chain *sizes*, each one zero array with its random
    orthogonal block of size k, its smaller side, written in (orthogonal,
    orth-identity; an orth-identity pad adds the unit diagonal beyond k),
    or a unit diagonal (identity, k = 0)."""
    L = len(sizes) - 1
    heads = [0 if kind == "identity" else min(sizes[j], sizes[j - 1]) for j in range(1, L + 1)]
    layers = []
    while len(layers) < L:
        j, k = len(layers), heads[len(layers)]
        count = 1
        if k:
            limit = max(1, _STACK_BYTES // (8 * k * k))
            while count < limit and j + count < L and heads[j + count] == k:
                count += 1
            blocks = _orthogonal_stack(rng, count, k)
        for i in range(count):
            w = np.zeros((sizes[j + i + 1], sizes[j + i]))
            if k:
                w[:k, :k] = blocks[i]
            else:
                np.fill_diagonal(w, 1.0)
            layers.append(w)
    return layers


def _balanced(scheme: InitScheme, dims, sizes, rng) -> list:
    """The balanced layers of the chain *dims*, each built at its shape in *sizes*."""
    L = len(dims) - 1
    n0, nL = dims[0], dims[-1]
    s0 = min(n0, nL)
    if any(d < s0 for d in dims[1:-1]):
        raise ValueError("balanced initialization needs every width >= min(n0, nL)")
    if scheme.balanced_seed is not None:
        w0 = as_matrix(scheme.balanced_seed, "balanced seed")
        if w0.shape != (nL, n0):
            raise ValueError(f"balanced seed must be {nL} x {n0}, got {w0.shape}")
    else:
        w0 = rng.normal(0.0, np.sqrt(1.0 / n0), size=(nL, n0))
    if L == 1:
        return [w0.copy()]
    u, s, vh = np.linalg.svd(w0, full_matrices=False)
    root = s ** (1.0 / L)  # zero singular values stay zero
    layers = [np.zeros((sizes[j], sizes[j - 1])) for j in range(1, L + 1)]
    np.multiply(root[:, None], vh, out=layers[0][:s0])
    for w in layers[1:-1]:
        np.fill_diagonal(w[:s0, :s0], root)
    np.multiply(u, root, out=layers[-1][:, :s0])
    return layers
