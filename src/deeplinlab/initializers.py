"""Weight initialization schemes for deep linear networks.

Five schemes: orthogonal, orth-identity, identity, balanced, random.
The first four place structured blocks in the top-left corner of each
layer and pad with zeros (orth-identity additionally pads the square
block with an identity, which is what makes intermediate widths inert).
Balanced factors a seed matrix through its SVD with the 1/L-th power of
the spectrum in every intermediate layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matcore import as_matrix
from .network import Network

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
    """Selects one of KINDS plus the scheme-specific knobs.

    ``variance_overrides`` gives per-layer sigma_j^2 for the random kind
    (default 1/n_{j-1}); ``balanced_seed`` is the n_L x n_0 matrix the
    balanced kind factors (drawn N(0, 1/n_0) when omitted).
    """

    kind: str
    variance_overrides: tuple | None = None
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
    """
    dims = tuple(int(d) for d in dims)
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ValueError(f"bad dimension chain {dims}")
    rng = np.random.default_rng(seed)
    L = len(dims) - 1
    d_cap = max(dims[0], dims[-1])

    if scheme.kind == "balanced":
        return _balanced(scheme, dims, rng)

    if scheme.kind == "random":
        layers = []
        for j in range(1, L + 1):
            if scheme.variance_overrides is not None:
                var = float(scheme.variance_overrides[j - 1])
            else:
                var = 1.0 / dims[j - 1]
            layers.append(rng.normal(0.0, np.sqrt(var), size=(dims[j], dims[j - 1])))
        return Network(layers)

    # Each layer is one zero array with its random orthogonal head block of
    # size k written in, then a unit diagonal on [k:s, k:s], s = min(n_j,
    # n_(j-1)): orthogonal draws k = s, orth-identity k = min(s, d_cap),
    # identity k = 0.
    sizes = [min(dims[j], dims[j - 1]) for j in range(1, L + 1)]
    if scheme.kind == "orthogonal":
        heads = sizes
    elif scheme.kind == "orth_identity":
        heads = [min(s, d_cap) for s in sizes]
    else:
        heads = [0] * L
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
            w = np.zeros((dims[j + i + 1], dims[j + i]))
            if k:
                w[:k, :k] = blocks[i]
            np.fill_diagonal(w[k : sizes[j + i], k : sizes[j + i]], 1.0)
            layers.append(w)
    return Network(layers)


def _balanced(scheme: InitScheme, dims, rng) -> Network:
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
        return Network([w0.copy()])
    u, s, vh = np.linalg.svd(w0, full_matrices=False)
    root = s ** (1.0 / L)  # zero singular values stay zero
    layers = [np.zeros((dims[j], dims[j - 1])) for j in range(1, L + 1)]
    np.multiply(root[:, None], vh, out=layers[0][:s0])
    for w in layers[1:-1]:
        np.fill_diagonal(w[:s0, :s0], root)
    np.multiply(u, root, out=layers[-1][:, :s0])
    return Network(layers)
