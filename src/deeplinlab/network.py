"""Deep linear network state, partial weight products, padding relations.

A network is an ordered list of layer matrices; layer ``l`` has shape
``n_l x n_{l-1}`` so the end-to-end map is ``W_L @ ... @ W_1``.  The
partial product ``W_{i:j}`` follows the convention that an empty range
(``i < j``) is the identity on the joining dimension ``n_{j-1}``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .matcore import _all_finite, _contiguous, as_matrix

__all__ = [
    "Network",
    "end_to_end",
    "load_network",
    "pad_equiv",
    "partial_product",
    "save_network",
    "width_ok",
]

PAD_TOL = 1e-12


@dataclass
class Network:
    layers: list = field(default_factory=list)

    def __post_init__(self):
        if not self.layers:
            raise ValueError("network needs at least one layer")
        self.layers = [_contiguous(as_matrix(w, f"layer {i + 1}")) for i, w in enumerate(self.layers)]
        for i in range(1, len(self.layers)):
            if self.layers[i].shape[1] != self.layers[i - 1].shape[0]:
                raise ValueError(
                    f"layer {i + 1} has {self.layers[i].shape[1]} columns but "
                    f"layer {i} has {self.layers[i - 1].shape[0]} rows"
                )

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def dims(self) -> tuple[int, ...]:
        """Dimension chain (n_0, ..., n_L)."""
        return (self.layers[0].shape[1],) + tuple(w.shape[0] for w in self.layers)

    def copy(self) -> "Network":
        return Network([w.copy() for w in self.layers])


def partial_product(net: Network, i: int, j: int) -> np.ndarray:
    """``W_i @ W_{i-1} @ ... @ W_j``; identity of size n_{j-1} when i < j."""
    L = net.depth
    if not (0 <= i <= L and 1 <= j <= L + 1):
        raise ValueError(f"indices ({i}, {j}) outside the 0..{L + 1} window")
    if i < j:
        return np.eye(net.dims[j - 1])
    prod = net.layers[j - 1]
    for t in range(j, i):
        prod = net.layers[t] @ prod
    return prod


def _suffixes(net: Network):
    """Yields ``A = W_{L:(ell+1)}`` for ell = L..1, left to right from the
    identity: ``I``, ``I W_L``, ``(I W_L) W_(L-1)``, ...  Each product is
    formed when asked for, from ``net.layers[ell]`` as it is then."""
    a = np.eye(net.dims[-1])
    yield a
    for l in range(net.depth - 1, 0, -1):
        a = a.dot(net.layers[l])
        yield a


def _prefixes(net: Network, x: np.ndarray):
    """Yields ``B X = W_{(ell-1):1} X`` for ell = 1..L: ``X``, ``W_1 X``,
    ``W_2 (W_1 X)``, ...; each formed when asked for, as in ``_suffixes``."""
    bx = x
    yield bx
    for l in range(net.depth - 1):
        bx = net.layers[l].dot(bx)
        yield bx


def _factors(net: Network, x: np.ndarray, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """``(A, B X)`` around layer *ell*, ``W_{L:(ell+1)}`` and ``W_{(ell-1):1} X``:
    ``_suffixes`` and ``_prefixes`` stopped at *ell*, as ``optim._sweep`` forms them."""
    above = islice(_suffixes(net), net.depth - ell, None)
    below = islice(_prefixes(net, x), ell - 1, None)
    return next(above), next(below)


def _head_blocks(net: Network) -> list | None:
    """Contiguous copies of the head blocks ``W_l[:k_l, :k_(l-1)]``, or None.

    The head size of dimension l is ``k_l = min(n_l, max(n_0, n_L))``.
    The blocks are returned only when some ``k_l < n_l``, every layer's
    off-diagonal blocks ``W_l[k_l:, :k_(l-1)]`` and ``W_l[:k_l, k_(l-1):]``
    are exactly zero, every tail block ``W_l[k_l:, k_(l-1):]`` is finite
    and every layer is writeable (the trained blocks are written back in
    place).  Then the inputs reach only head rows and ``W_L`` reads only
    head columns, so every layer gradient lives in the head block: BCGD
    on the head chain is BCGD on the full chain, and the tails never move.
    The tail test is ``matcore._all_finite`` of the contiguous rows below
    the head, ``W_l[k_l:]``: one sum of squares unless that is not finite.
    """
    dims = net.dims
    cap = max(dims[0], dims[-1])
    heads = [min(n, cap) for n in dims]
    if heads == list(dims):
        return None
    blocks = []
    with np.errstate(over="ignore"):
        for l, w in enumerate(net.layers, start=1):
            k, kp = heads[l], heads[l - 1]
            if w[k:, :kp].any() or w[:k, kp:].any() or not _all_finite(w[k:], w[k:, kp:]):
                return None
            if not w.flags.writeable:
                return None
            blocks.append(w[:k, :kp].copy())
    return blocks


def end_to_end(net: Network) -> np.ndarray:
    """The full product ``W_L @ ... @ W_1`` (shape n_L x n_0)."""
    return partial_product(net, net.depth, 1)


def width_ok(dims, n0: int, nL: int) -> bool:
    """True iff every intermediate width is >= max(n0, nL)."""
    need = max(n0, nL)
    return all(w >= need for w in dims[1:-1])


def pad_equiv(a, b, mode: str = "plain", tol: float = PAD_TOL) -> bool:
    """Test the zero-padding block relations between *a* and *b*.

    mode="plain": a == [[b, 0], [0, 0]].
    mode="one":   b must be square of size k with min(a.shape) > k; the
    padded block gains an identity: a == [[b, 0, .], [0, I, .], [., ., 0]],
    the identity filling the square block up to size min(a.shape).
    Comparison is entrywise within *tol* (the relations are exact up to
    arithmetic on stored zeros).
    """
    am = as_matrix(a, "A")
    bm = as_matrix(b, "B")
    if mode == "one":
        k = bm.shape[0]
        if bm.shape[1] != k:
            raise ValueError("mode 'one' needs a square B")
        s = min(am.shape)
        if s <= k:
            raise ValueError(f"mode 'one' needs min(A dims) > {k}, got {s}")
        padded = np.zeros((s, s))
        padded[:k, :k] = bm
        padded[range(k, s), range(k, s)] = 1.0
        bm = padded
    elif mode != "plain":
        raise ValueError(f"unknown pad mode {mode!r}")
    if bm.shape[0] > am.shape[0] or bm.shape[1] > am.shape[1]:
        raise ValueError(f"B {bm.shape} does not fit inside A {am.shape}")
    expected = np.zeros(am.shape)
    expected[: bm.shape[0], : bm.shape[1]] = bm
    return bool(np.max(np.abs(am - expected)) <= tol) if am.size else True


def save_network(net: Network, path) -> None:
    """Text dump: the dimension chain, then row-major entries per layer.

    Entries are written with ``repr`` so finite doubles round-trip exactly.
    Each layer is formatted and written as one string, never the whole file.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(" ".join(str(d) for d in net.dims) + "\n")
        for w in net.layers:
            fh.write("".join(" ".join(map(repr, row)) + "\n" for row in w.tolist()))


def load_network(path) -> Network:
    with open(path, "r", encoding="utf-8") as fh:
        dims = [int(t) for t in fh.readline().split()]
        if len(dims) < 2:
            raise ValueError(f"{path}: bad dimension chain")
        layers = []
        for l in range(1, len(dims)):
            rows = []
            for _ in range(dims[l]):
                line = fh.readline()
                if not line:
                    raise ValueError(f"{path}: truncated layer {l}")
                rows.append([float(t) for t in line.split()])
            w = np.asarray(rows, dtype=np.float64)
            if w.shape != (dims[l], dims[l - 1]):
                raise ValueError(f"{path}: layer {l} shape mismatch")
            layers.append(w)
    return Network(layers)
