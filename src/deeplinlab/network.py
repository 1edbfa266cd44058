"""Deep linear network state, partial weight products, padding relations.

A network is an ordered list of layer matrices; layer ``l`` has shape
``n_l x n_{l-1}`` so the end-to-end map is ``W_L @ ... @ W_1``.  The
partial product ``W_{i:j}`` follows the convention that an empty range
(``i < j``) is the identity on the joining dimension ``n_{j-1}``.
"""

from __future__ import annotations

from functools import cached_property
from itertools import islice

import numpy as np

from .matcore import _all_finite, _contiguous, _float_rows, as_matrix

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


class Network:
    """A chain of layers, ``layers[l - 1]`` the n_l x n_(l-1) matrix of layer l.

    ``Network(layers)`` holds its layers densely.  A compact network, a chain
    with padding from ``initializers.initialize`` (``_padded``), holds only
    its head chain: the dense ``Network`` of its head blocks
    ``W_l[:k_l, :k_(l-1)]`` (``_head_blocks``), beside its dimension chain
    and its pad, a unit diagonal on ``[k:s, k:s]`` (k the head block's
    smaller and s the layer's smaller side) or zero, never allocated.  The
    runners train the head chain in place; ``save_network``, ``depth``,
    ``dims``, ``copy`` and every product (``partial_product``, one dense
    layer at a time through ``_layer``) read the compact form.  ``layers``
    stays the public, mutable, full-width view: its first read builds the
    dense layers once, and from then on the network is a dense one.
    """

    _chain = None  # a compact network's head chain; None for a dense one

    def __init__(self, layers):
        layers = list(layers)
        if not layers:
            raise ValueError("network needs at least one layer")
        self.layers = [_contiguous(as_matrix(w, f"layer {i + 1}")) for i, w in enumerate(layers)]
        for i in range(1, len(self.layers)):
            if self.layers[i].shape[1] != self.layers[i - 1].shape[0]:
                raise ValueError(
                    f"layer {i + 1} has {self.layers[i].shape[1]} columns but "
                    f"layer {i} has {self.layers[i - 1].shape[0]} rows"
                )

    @classmethod
    def _padded(cls, heads: list, dims: tuple, pad: float) -> "Network":
        """The compact network of the chain *dims* whose layers are
        block-diagonal around their head blocks *heads* (finite, C-contiguous
        and owned, of ``_head_blocks``' sizes), its pad diagonal *pad*; the
        blocks are held as its head chain ``Network(heads)``."""
        net = cls.__new__(cls)
        net._chain, net._dims, net._pad = Network(heads), dims, pad
        return net

    @cached_property
    def layers(self) -> list:
        """A compact network's dense layers, built on their first read (each
        C-contiguous and owned); the network is a dense one from then on."""
        layers = [self._layer(l) for l in range(1, self.depth + 1)]
        del self._chain
        return layers

    def __setattr__(self, name, value):
        if name == "layers":  # assigned dense layers replace a compact network's head chain
            self.__dict__.pop("_chain", None)
        super().__setattr__(name, value)

    @property
    def depth(self) -> int:
        return len(self.layers if self._chain is None else self._chain.layers)

    @property
    def dims(self) -> tuple[int, ...]:
        """Dimension chain (n_0, ..., n_L)."""
        if self._chain is not None:
            return self._dims
        return (self.layers[0].shape[1],) + tuple(w.shape[0] for w in self.layers)

    def copy(self) -> "Network":
        if self._chain is not None:
            return Network._padded([h.copy() for h in self._chain.layers], self._dims, self._pad)
        return Network([w.copy() for w in self.layers])

    def _layer(self, l: int) -> np.ndarray:
        """Layer *l* (1-based), dense: a compact network's is built afresh."""
        if self._chain is None:
            return self.layers[l - 1]
        head = self._chain.layers[l - 1]
        w = np.zeros((self._dims[l], self._dims[l - 1]))
        w[: head.shape[0], : head.shape[1]] = head
        if self._pad:
            k = min(head.shape)
            np.fill_diagonal(w[k:, k:], self._pad)
        return w


def partial_product(net: Network, i: int, j: int) -> np.ndarray:
    """``W_i @ W_{i-1} @ ... @ W_j``; identity of size n_{j-1} when i < j."""
    L = net.depth
    if not (0 <= i <= L and 1 <= j <= L + 1):
        raise ValueError(f"indices ({i}, {j}) outside the 0..{L + 1} window")
    if i < j:
        return np.eye(net.dims[j - 1])
    prod = net._layer(j)
    for t in range(j + 1, i + 1):
        prod = net._layer(t) @ prod
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


def _head_blocks(net: Network) -> Network | None:
    """The head chain, the ``Network`` of the head blocks
    ``W_l[:k_l, :k_(l-1)]``, or None: a compact network's own, with no scan,
    else one of contiguous copies.

    The head size of dimension l is ``k_l = min(n_l, max(n_0, n_L))``.
    The chain is returned only when some ``k_l < n_l``, every layer's
    off-diagonal blocks ``W_l[k_l:, :k_(l-1)]`` and ``W_l[:k_l, k_(l-1):]``
    are exactly zero, every tail block ``W_l[k_l:, k_(l-1):]`` is finite
    and every layer is writeable (``optim._update`` writes each trained
    block in place).  Then the inputs reach only head rows and ``W_L``
    reads only head columns, so every layer gradient lives in the head
    block: BCGD on the head chain is BCGD on the full chain.
    The tail test is ``matcore._all_finite`` of the contiguous rows below
    the head, ``W_l[k_l:]``: one sum of squares unless that is not finite.
    """
    if net._chain is not None:
        return net._chain
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
    return Network(blocks)


def end_to_end(net: Network) -> np.ndarray:
    """The full product ``W_L @ ... @ W_1`` (shape n_L x n_0)."""
    return partial_product(net, net.depth, 1)


def width_ok(dims, n0: int, nL: int) -> bool:
    """True iff every intermediate width is >= max(n0, nL)."""
    need = max(n0, nL)
    return all(w >= need for w in dims[1:-1])


def pad_equiv(a, b, mode: str = "plain") -> bool:
    """Test the zero-padding block relations between *a* and *b*.

    mode="plain": a == [[b, 0], [0, 0]].
    mode="one":   b must be square of size k with min(a.shape) > k; the
    padded block gains an identity: a == [[b, 0, .], [0, I, .], [., ., 0]],
    the identity filling the square block up to size min(a.shape).
    Comparison is entrywise within ``PAD_TOL`` (the relations are exact up
    to arithmetic on stored zeros).
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
    return bool(np.max(np.abs(am - expected)) <= PAD_TOL) if am.size else True


def save_network(net: Network, path) -> None:
    """Text dump: the dimension chain, then row-major entries per layer.

    Each entry is written as its ``repr``, exactly (``matcore._float_rows``),
    so finite doubles round-trip exactly.  The entries are formed and written
    in batches of whole rows of at most 4,096 values, so the memory a save
    holds does not grow with the network.  A compact network's pad is
    written as the text of its entries (``_padded_rows``), never formed:
    the same bytes as its dense layers'.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(" ".join(str(d) for d in net.dims) + "\n")
        if net._chain is None:
            fh.writelines(_float_rows(net.layers, " "))
        else:
            for l, head in enumerate(net._chain.layers, start=1):
                fh.writelines(_padded_rows(head, net.dims[l], net.dims[l - 1], net._pad))


def _padded_rows(head: np.ndarray, rows: int, cols: int, pad: float):
    """The ``_float_rows`` text of the rows x cols layer with head block
    *head* and pad diagonal *pad* (``Network._layer``): the head rows from
    ``_float_rows``, each followed by its zero columns, then the pad rows,
    zero but for *pad* on the diagonal, as ``repr`` writes those entries."""
    kr, kc = head.shape
    zeros = " 0.0" * (cols - kc) + "\n"
    for text in _float_rows([head], " "):
        yield text.replace("\n", zeros)
    diag, zero_row = repr(float(pad)), "0.0" + " 0.0" * (cols - 1) + "\n"
    for i in range(kr, rows):
        yield "0.0 " * i + diag + " 0.0" * (cols - 1 - i) + "\n" if i < cols else zero_row


def load_network(path) -> Network:
    """Read a ``save_network`` file back.

    A malformed file raises ValueError naming the path and, where it can,
    the line and the layer: a bad dimension chain, a missing row, a row of
    the wrong length or with a non-numeric entry, text after the last layer,
    or an entry that is not finite.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            dims = [int(t) for t in fh.readline().split()]
        except ValueError:
            dims = []
        if len(dims) < 2 or min(dims) < 0:
            raise ValueError(f"{path}:1: bad dimension chain")
        layers = []
        lineno = 1
        for l in range(1, len(dims)):
            w = np.empty((dims[l], dims[l - 1]))
            for row in w:
                line = fh.readline()
                lineno += 1
                if not line:
                    raise ValueError(f"{path}: truncated layer {l} (ends at line {lineno - 1})")
                tokens = line.split()
                if len(tokens) != row.size:
                    raise ValueError(
                        f"{path}:{lineno}: layer {l} row has {len(tokens)} entries, expected {row.size}"
                    )
                try:
                    row[:] = [float(t) for t in tokens]
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: layer {l} has a non-numeric entry") from None
            layers.append(w)
        for extra, line in enumerate(fh, start=lineno + 1):
            if line.strip():
                raise ValueError(f"{path}:{extra}: text after the last layer (layer {len(dims) - 1})")
    try:
        return Network(layers)
    except ValueError as exc:  # a non-finite entry
        raise ValueError(f"{path}: {exc}") from None
