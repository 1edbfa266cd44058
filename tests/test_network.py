import warnings

import numpy as np
import pytest

from deeplinlab.initializers import InitScheme, initialize
from deeplinlab.network import (
    Network,
    _head_blocks,
    end_to_end,
    load_network,
    pad_equiv,
    partial_product,
    save_network,
    width_ok,
)


def random_net(dims, seed=0):
    rng = np.random.default_rng(seed)
    return Network([rng.normal(size=(dims[l], dims[l - 1])) for l in range(1, len(dims))])


def test_shape_validation():
    with pytest.raises(ValueError, match="columns"):
        Network([np.zeros((3, 2)), np.zeros((2, 4))])
    with pytest.raises(ValueError, match="at least one layer"):
        Network([])


def test_partial_product_definition():
    net = random_net((2, 3, 4, 2), seed=1)
    w1, w2, w3 = net.layers
    assert np.allclose(partial_product(net, 2, 1), w2 @ w1)
    assert np.allclose(partial_product(net, 3, 2), w3 @ w2)


def test_partial_product_empty_range_is_identity():
    net = random_net((2, 3, 4, 2), seed=2)
    assert np.array_equal(partial_product(net, 1, 2), np.eye(3))
    assert np.array_equal(partial_product(net, 0, 1), np.eye(2))   # below layer 1
    assert np.array_equal(partial_product(net, 3, 4), np.eye(2))   # above layer L


def test_partial_product_associativity():
    net = random_net((3, 4, 5, 3), seed=3)
    w1, w2, w3 = net.layers
    full = partial_product(net, 3, 1)
    assert np.max(np.abs(full - (w3 @ w2) @ w1)) < 1e-12
    assert np.max(np.abs(full - w3 @ (w2 @ w1))) < 1e-12


def test_partial_product_window():
    net = random_net((2, 2), seed=4)
    with pytest.raises(ValueError):
        partial_product(net, 2, 1)
    with pytest.raises(ValueError):
        partial_product(net, 1, 0)


def test_end_to_end_identity_and_single_layer():
    ident = Network([np.eye(3), np.eye(3)])
    assert np.array_equal(end_to_end(ident), np.eye(3))
    single = random_net((4, 2), seed=5)
    assert np.array_equal(end_to_end(single), single.layers[0])
    assert partial_product(single, 1, 1) is not None


def test_end_to_end_equals_full_partial():
    net = random_net((3, 5, 4, 2), seed=6)
    assert np.array_equal(end_to_end(net), partial_product(net, net.depth, 1))


def test_balanced_end_to_end_reconstructs_seed():
    rng = np.random.default_rng(7)
    seed_matrix = rng.normal(size=(3, 5))
    scheme = InitScheme("balanced", balanced_seed=seed_matrix)
    net = initialize(scheme, (5, 6, 6, 3), seed=0)
    assert np.linalg.norm(end_to_end(net) - seed_matrix, "fro") < 1e-10


def test_pad_equiv_plain():
    assert pad_equiv(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[1.0]]))
    assert not pad_equiv(np.array([[1.0, 0.0], [0.0, 0.5]]), np.array([[1.0]]))


def test_pad_equiv_one():
    a = np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert pad_equiv(a, np.array([[2.0]]), mode="one")
    bad = a.copy()
    bad[1, 2] = 0.1
    assert not pad_equiv(bad, np.array([[2.0]]), mode="one")


def test_pad_equiv_shape_errors():
    with pytest.raises(ValueError):
        pad_equiv(np.eye(2), np.eye(3))
    with pytest.raises(ValueError):
        pad_equiv(np.eye(2), np.eye(2), mode="one")  # needs min(A dims) > k
    with pytest.raises(ValueError):
        pad_equiv(np.eye(3), np.zeros((1, 2)), mode="one")


def test_width_ok():
    assert width_ok((128,) + (128,) * 5 + (10,), 128, 10)
    assert not width_ok((128,) + (20,) * 5 + (20,), 128, 20)
    assert width_ok((128, 10), 128, 10)  # no intermediates


def test_wide_and_reduced_products_pad_equiv():
    # orth-identity layers of a wide chain stay pad-equivalent to the
    # reduced chain's, and so do their partial products
    wide = initialize(InitScheme("orth_identity"), (6, 10, 10, 3), seed=11)
    slim = initialize(InitScheme("orth_identity"), (6, 6, 6, 3), seed=11)
    assert np.max(np.abs(end_to_end(wide) - end_to_end(slim))) < 1e-12
    top_wide = partial_product(wide, 3, 2)
    top_slim = partial_product(slim, 3, 2)
    assert pad_equiv(top_wide, top_slim, tol=1e-12)


def test_save_load_roundtrip_exact(tmp_path):
    net = random_net((3, 4, 2), seed=12)
    path = tmp_path / "net.txt"
    save_network(net, path)
    back = load_network(path)
    assert back.dims == net.dims
    for a, b in zip(net.layers, back.layers):
        assert np.array_equal(a, b)


def test_load_rejects_truncated(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 2\n1.0 2.0\n")
    with pytest.raises(ValueError, match="truncated"):
        load_network(path)


def test_head_blocks_conditions():
    dims = (3, 7, 7, 2)  # head sizes 3, 3, 3, 2
    net = initialize(InitScheme("orth_identity"), dims, seed=13)
    blocks = _head_blocks(net)
    assert [b.shape for b in blocks] == [(3, 3), (3, 3), (2, 3)]
    for w, b in zip(net.layers, blocks):
        assert np.array_equal(w[: b.shape[0], : b.shape[1]], b)
        assert b.flags.c_contiguous and not np.shares_memory(w, b)
    assert _head_blocks(initialize(InitScheme("orth_identity"), (3, 3, 2), seed=0)) is None
    for layer, where, value in [
        (1, (4, 1), 1e-300),           # below the head rows
        (1, (0, 5), -1e-300),          # right of the head columns
        (0, (5, 0), float("nan")),     # off-diagonal NaN
        (2, (1, 6), float("inf")),     # last layer reads a tail column
        (1, (6, 6), float("inf")),     # non-finite tail
    ]:
        bad = net.copy()
        bad.layers[layer][where] = value
        assert _head_blocks(bad) is None, (layer, where)
    tail = net.copy()
    tail.layers[1][6, 5] = 7.0  # finite tail entries may be anything
    assert _head_blocks(tail) is not None
    tail.layers[1][6, 6] = 1e200  # finite, though the layer's sum of squares overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _head_blocks(tail) is not None
    frozen = net.copy()
    frozen.layers[1].flags.writeable = False
    assert _head_blocks(frozen) is None
