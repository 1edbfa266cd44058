import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deeplinlab.data import Dataset, gen_input_gaussian, gen_output_uniform
from deeplinlab.initializers import KINDS, InitScheme, initialize, random_orthogonal
from deeplinlab.losses import l2
from deeplinlab.matcore import singular_values
from deeplinlab.network import end_to_end, pad_equiv
from deeplinlab.optim import LrPolicy, run_bcgd


def test_random_orthogonal_1x1():
    q = random_orthogonal(1, seed=0)
    assert q.shape == (1, 1) and abs(abs(q[0, 0]) - 1.0) < 1e-12
    with pytest.raises(ValueError, match="n must be >= 1"):
        random_orthogonal(0, seed=0)


@pytest.mark.parametrize("n", [2, 5, 17])
def test_random_orthogonal_orthonormal(n):
    q = random_orthogonal(n, seed=n)
    assert np.max(np.abs(q.T @ q - np.eye(n))) < 1e-10
    assert abs(abs(np.linalg.det(q)) - 1.0) < 1e-8


def test_identity_scheme_padded():
    net = initialize(InitScheme("identity"), (2, 3, 2), seed=0)
    assert np.array_equal(net.layers[0], np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    assert np.array_equal(net.layers[1], np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))


def test_balanced_identity_seed():
    net = initialize(InitScheme("balanced", balanced_seed=np.eye(3)), (3, 3, 3, 3), seed=0)
    for w in net.layers:
        assert pad_equiv(w, np.eye(3))


def test_balanced_balance_identity_and_reconstruction():
    rng = np.random.default_rng(5)
    seed_matrix = rng.normal(size=(4, 7))
    net = initialize(
        InitScheme("balanced", balanced_seed=seed_matrix), (7, 8, 9, 4), seed=1
    )
    for j in range(net.depth - 1):
        lhs = net.layers[j + 1].T @ net.layers[j + 1]
        rhs = net.layers[j] @ net.layers[j].T
        assert np.max(np.abs(lhs - rhs)) < 1e-10
    assert np.linalg.norm(end_to_end(net) - seed_matrix) < 1e-10


def test_balanced_draws_seed_when_missing():
    net_a = initialize(InitScheme("balanced"), (5, 6, 3), seed=9)
    net_b = initialize(InitScheme("balanced"), (5, 6, 3), seed=9)
    for a, b in zip(net_a.layers, net_b.layers):
        assert np.array_equal(a, b)


def test_orth_identity_tall_first_layer():
    net = initialize(InitScheme("orth_identity"), (128, 256, 10), seed=3)
    w1 = net.layers[0]
    assert w1.shape == (256, 128)
    block = w1[:128, :]
    assert np.max(np.abs(block.T @ block - np.eye(128))) < 1e-10
    assert np.all(w1[128:, :] == 0.0)


def test_orth_identity_unit_spectrum_end_to_end():
    net = initialize(InitScheme("orth_identity"), (4, 6, 6, 4), seed=4)
    s = singular_values(end_to_end(net))
    assert np.max(np.abs(s - 1.0)) < 1e-10


def test_orth_identity_intermediate_has_identity_pad():
    net = initialize(InitScheme("orth_identity"), (4, 6, 6, 4), seed=8)
    w2 = net.layers[1]  # 6x6 with a 4-block and I_2 pad
    assert np.array_equal(w2[4:, 4:], np.eye(2))
    assert np.all(w2[:4, 4:] == 0.0) and np.all(w2[4:, :4] == 0.0)


def test_orthogonal_scheme_full_min_dim_block():
    net = initialize(InitScheme("orthogonal"), (4, 6, 4), seed=2)
    w1 = net.layers[0]
    assert np.max(np.abs(w1[:4, :4].T @ w1[:4, :4] - np.eye(4))) < 1e-10


def test_random_scheme_row_norms():
    net = initialize(InitScheme("random"), (200, 200), seed=6)
    row_sq = np.sum(net.layers[0] ** 2, axis=1)
    assert 0.9 < row_sq.mean() < 1.1


def test_width_invariance_small_trajectories():
    x = gen_input_gaussian(8, 30, seed=0)
    y = gen_output_uniform(3, 30, seed=1)
    data = Dataset(x=x, y=y)
    losses = []
    for width in (8, 16):
        net = initialize(InitScheme("orth_identity"), (8, width, width, 3), seed=5)
        traj = run_bcgd(net, data, l2(), LrPolicy("optimal_l2"), "descending", max_sweeps=3)
        losses.append(traj.losses())
    assert np.max(np.abs(losses[0] - losses[1])) < 1e-12


def test_determinism_and_errors():
    a = initialize(InitScheme("orthogonal"), (3, 4, 2), seed=11)
    b = initialize(InitScheme("orthogonal"), (3, 4, 2), seed=11)
    for wa, wb in zip(a.layers, b.layers):
        assert np.array_equal(wa, wb)
    with pytest.raises(ValueError):
        initialize(InitScheme("identity"), (3, 0, 2), seed=0)
    with pytest.raises(ValueError):
        InitScheme("xavier")
    with pytest.raises(ValueError, match="seed must be"):
        initialize(InitScheme("balanced", balanced_seed=np.eye(2)), (3, 3, 3), seed=0)


# The per-layer construction ``initialize`` had before it wrote each layer
# once and drew same-size blocks in stacks: an identity of the block size,
# a fresh QR per random block, and a zero-padded copy of the block.
def _reference_orthogonal(n, rng):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    d = np.diagonal(r)
    return q * np.where(d >= 0, 1.0, -1.0)


def _reference_pad(block, rows, cols):
    out = np.zeros((rows, cols))
    out[: block.shape[0], : block.shape[1]] = block
    return out


def _reference_layers(kind, dims, seed):
    rng = np.random.default_rng(seed)
    L = len(dims) - 1
    d_cap = max(dims[0], dims[-1])
    if kind == "balanced":
        n0, nL = dims[0], dims[-1]
        w0 = rng.normal(0.0, np.sqrt(1.0 / n0), size=(nL, n0))
        if L == 1:
            return [w0.copy()]
        u, s, vh = np.linalg.svd(w0, full_matrices=False)
        root = s ** (1.0 / L)
        layers = [_reference_pad(root[:, None] * vh, dims[1], n0)]
        for j in range(2, L):
            layers.append(_reference_pad(np.diag(root), dims[j], dims[j - 1]))
        layers.append(_reference_pad(u * root, nL, dims[L - 1]))
        return layers
    layers = []
    for j in range(1, L + 1):
        nj, njm1 = dims[j], dims[j - 1]
        s = min(nj, njm1)
        if kind == "orthogonal":
            block = _reference_orthogonal(s, rng)
        elif kind == "orth_identity":
            k = min(s, d_cap)
            block = np.eye(s)
            block[:k, :k] = _reference_orthogonal(k, rng)
        elif kind == "identity":
            block = np.eye(s)
        else:
            layers.append(rng.normal(0.0, np.sqrt(1.0 / njm1), size=(nj, njm1)))
            continue
        layers.append(_reference_pad(block, nj, njm1))
    return layers


# Runs of equal widths stack their blocks; a width change breaks the stack.
# Widths up to 70 put some blocks above the stacking size (64 x 64).
_runs = st.lists(
    st.tuples(st.integers(1, 70), st.integers(1, 12)), min_size=1, max_size=4
)


@settings(max_examples=60, deadline=None)
@given(
    first=st.integers(1, 70),
    runs=_runs,
    kind=st.sampled_from(KINDS),
    seed=st.integers(0, 2**32 - 1),
)
def test_initialize_matches_per_layer_reference(first, runs, kind, seed):
    dims = (first,) + tuple(width for width, count in runs for _ in range(count))
    try:
        layers = initialize(InitScheme(kind), dims, seed).layers
    except ValueError:  # balanced needs every width >= min(n0, nL)
        assert kind == "balanced"
        assert any(d < min(dims[0], dims[-1]) for d in dims[1:-1])
        return
    reference = _reference_layers(kind, dims, seed)
    assert len(layers) == len(reference)
    for w, ref in zip(layers, reference):
        assert w.shape == ref.shape and w.dtype == ref.dtype
        assert w.tobytes() == ref.tobytes()
        # no layer is a view that keeps a stacked buffer alive
        assert w.flags.c_contiguous and w.flags.writeable and w.flags.owndata


def test_random_orthogonal_matches_per_call_reference():
    for n in (1, 3, 64, 65):
        rng = np.random.default_rng(n)
        want = _reference_orthogonal(n, np.random.default_rng(n))
        assert random_orthogonal(n, rng).tobytes() == want.tobytes()
        assert random_orthogonal(n, n).tobytes() == want.tobytes()
