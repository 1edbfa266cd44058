import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deeplinlab import network, optim, sgd
from deeplinlab.data import Dataset, gen_input_gaussian
from deeplinlab.initializers import InitScheme, initialize, random_orthogonal
from deeplinlab.losses import l2, lp
from deeplinlab.network import Network, end_to_end, partial_product
from deeplinlab.optim import SweepState
from deeplinlab.oracle import optimal_loss
from deeplinlab.sgd import (
    BoundsTracker,
    FloorBracket,
    bcsgd_lr,
    bcsgd_step,
    floor_brackets,
    run_bcsgd,
    sampling_distribution,
)


def make_instance(d_in=5, d_out=2, m=12, depth=2, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    x = gen_input_gaussian(d_in, m, seed=seed)
    w_true = rng.normal(size=(d_out, d_in))
    y = w_true @ x + noise * rng.normal(size=(d_out, m))
    data = Dataset(x=x, y=y)
    dims = (d_in,) + (max(d_in, d_out),) * (depth - 1) + (d_out,)
    net = initialize(InitScheme("orth_identity"), dims, seed=seed + 1)
    return net, data


def test_sampling_uniform_for_orthonormal_columns():
    q = random_orthogonal(8, seed=1)
    x = q[:, :5]  # orthonormal columns, equal norms
    data = Dataset(x=x, y=np.zeros((2, 5)))
    net = initialize(InitScheme("orth_identity"), (8, 8, 2), seed=2)
    probs = sampling_distribution(net, data, SweepState(depth=2))
    assert np.allclose(probs, np.full(5, 0.2), atol=1e-12)


def test_sampling_single_example():
    net, data = make_instance(m=1, seed=3)
    probs = sampling_distribution(net, data, SweepState(depth=2))
    assert np.allclose(probs, [1.0])


def test_sampling_matches_column_oracle():
    net, data = make_instance(seed=4, depth=3)
    state = SweepState(depth=3, ordering="descending")
    state.advance()  # next update is layer 2: B = W_1
    probs = sampling_distribution(net, data, state)
    b = partial_product(net, 1, 1)
    bx = b @ data.x
    weights = np.array(
        [float(np.sum((bx[:, i] @ bx) ** 2)) for i in range(data.m)]
    )
    assert np.allclose(probs, weights / weights.sum(), rtol=1e-12)


def test_sampling_degenerate_state_raises():
    net, data = make_instance(seed=5)
    net.layers[0][:, :] = 0.0
    state = SweepState(depth=2)
    state.advance()  # layer 2: B X = 0
    with pytest.raises(ValueError, match="degenerate"):
        sampling_distribution(net, data, state)


def test_bcsgd_lr_orth_identity_bottom_layer():
    # fresh orth-identity: the product above layer 1 has unit spectrum,
    # so the rate reduces to sigma_min^2(X) / ||X^T x_i||^2 at eta = 1
    net, data = make_instance(seed=6, depth=3)
    state = SweepState(depth=3)  # ascending: next update is layer 1
    sv = np.linalg.svd(data.x, compute_uv=False)
    for i in (0, 3):
        lr = bcsgd_lr(net, data, state, i, eta=1.0)
        weight = float(np.sum((data.x.T @ data.x[:, i]) ** 2))
        expected = sv[-1] ** 2 / weight
        assert lr == pytest.approx(expected, rel=1e-9)


def test_bcsgd_lr_linear_in_eta_and_domain():
    net, data = make_instance(seed=7)
    state = SweepState(depth=2)
    lr1 = bcsgd_lr(net, data, state, 0, eta=1.0)
    lr_half = bcsgd_lr(net, data, state, 0, eta=0.5)
    assert lr_half == pytest.approx(0.5 * lr1, rel=1e-12)
    with pytest.raises(ValueError):
        bcsgd_lr(net, data, state, 0, eta=2.0)
    with pytest.raises(ValueError):
        bcsgd_lr(net, data, state, 0, eta=0.0)
    for i in (-1, data.m):
        with pytest.raises(ValueError, match=f"sample index {i} out of range"):
            bcsgd_lr(net, data, state, i, eta=1.0)
    # a zero column of X has zero sampling weight at layer 1, on uncompressed samples
    # (m <= d_in) and on compressed ones (m > d_in): no step samples it
    for m in (4, 12):
        net, data = make_instance(m=m, seed=7)
        x = data.x.copy()
        x[:, 3] = 0.0
        with pytest.raises(ValueError, match="sampled column 3 has zero weight"):
            bcsgd_lr(net, Dataset(x=x, y=data.y), state, 3, eta=1.0)


def test_bcsgd_lr_single_layer_reduces_to_sampled_least_squares():
    rng = np.random.default_rng(8)
    w = rng.normal(size=(2, 4))
    x = gen_input_gaussian(4, 9, seed=8)
    data = Dataset(x=x, y=w @ x)
    net = Network([w.copy()])
    sv = np.linalg.svd(x, compute_uv=False)
    i = 2
    weight = float(np.sum((x.T @ x[:, i]) ** 2))
    expected = sv[-1] ** 2 * 1.0 / weight  # A is empty: sigma_max = 1
    assert bcsgd_lr(net, data, SweepState(depth=1), i, 1.0) == pytest.approx(
        expected, rel=1e-12
    )


def test_bcsgd_step_noiseless_at_optimum_is_noop():
    rng = np.random.default_rng(9)
    x = gen_input_gaussian(4, 8, seed=9)
    w1 = random_orthogonal(4, seed=10)
    w2 = rng.normal(size=(2, 4))
    net = Network([w1.copy(), w2.copy()])
    data = Dataset(x=x, y=end_to_end(net) @ x)
    state = SweepState(depth=2)
    rec = bcsgd_step(net, data, l2(), state, 0.7, np.random.default_rng(11))
    assert np.allclose(net.layers[0], w1, atol=1e-14)
    assert rec.sample_index is not None


def test_bcsgd_step_m1_equals_deterministic_update():
    rng = np.random.default_rng(12)
    w = rng.normal(size=(2, 3))
    x = rng.normal(size=(3, 1))
    data = Dataset(x=x, y=np.array([[0.5], [1.5]]))
    net = Network([w.copy()])
    state = SweepState(depth=1)
    lr = bcsgd_lr(net, data, state, 0, eta=1.0)
    rec = bcsgd_step(net, data, l2(), state, 1.0, np.random.default_rng(13))
    expected = w - lr * np.outer(w @ x[:, 0] - data.y[:, 0], x[:, 0])
    assert np.allclose(net.layers[0], expected, rtol=1e-12)
    assert rec.sample_index == 0


def test_bcsgd_rejects_non_l2():
    net, data = make_instance(seed=14)
    with pytest.raises(ValueError, match="square loss"):
        bcsgd_step(net, data, lp(4), SweepState(depth=2), 0.5, np.random.default_rng(0))


def test_empirical_frequencies_match_distribution():
    probs = np.array([0.05, 0.15, 0.3, 0.5])
    rng = np.random.default_rng(15)
    n = 100_000
    counts = np.zeros(4)
    for _ in range(n):
        counts[sgd._draw(probs, rng)] += 1
    freq = counts / n
    for p, f in zip(probs, freq):
        assert abs(f - p) <= 3 * math.sqrt(p * (1 - p) / n)


def test_floor_brackets_zero_oracle_loss():
    net, data = make_instance(seed=16)
    bracket = floor_brackets(net, data, SweepState(depth=2), 0.5, 0.0)
    assert bracket.floor_lower == 0.0
    assert bracket.floor_upper == 0.0


def test_floor_brackets_closed_form_scalar_case():
    # d_in = 1: kappa = kt = 1 so gamma_upp = gamma_low = (1 - eta)^2
    x = np.array([[1.0, 2.0, -1.0]])
    data = Dataset(x=x, y=np.array([[1.0, 0.0, 1.0]]))
    net = Network([np.array([[0.5]])])
    eta = 0.75
    bracket = floor_brackets(net, data, SweepState(depth=1), eta, 1.0)
    assert bracket.gamma_upp == pytest.approx((1 - eta) ** 2, abs=1e-12)
    assert bracket.gamma_low == pytest.approx((1 - eta) ** 2, abs=1e-12)
    assert bracket.available
    assert bracket.floor_lower <= bracket.floor_upper


def test_floor_bracket_ordering_enforced():
    with pytest.raises(ValueError):
        FloorBracket(gamma_upp=0.5, gamma_low=0.5, floor_upper=1.0, floor_lower=2.0)


def test_run_bcsgd_deterministic_and_tracked():
    net_a, data = make_instance(seed=17, noise=0.1)
    ref = optimal_loss(data.x, data.y, min(net_a.dims))
    traj_a, tracker_a = run_bcsgd(net_a, data, l2(), 0.5, 30, seed=100, oracle_objective=ref)
    net_b, _ = make_instance(seed=17, noise=0.1)
    traj_b, tracker_b = run_bcsgd(net_b, data, l2(), 0.5, 30, seed=100, oracle_objective=ref)
    assert [r.sample_index for r in traj_a.records] == [
        r.sample_index for r in traj_b.records
    ]
    assert traj_a.records[-1] == traj_b.records[-1]
    assert tracker_a.iterations == 60
    assert tracker_a.m_upp >= tracker_a.m_low > 0
    assert 0 < tracker_a.gamma_low <= tracker_a.gamma_upp <= 1.0


@pytest.mark.parametrize("dims", [(6, 16, 16, 2), (6, 3, 6, 2)])
def test_bcsgd_rate_conditions_by_the_rank_bx_can_carry(dims):
    # B X has rank min(r_x, widths below): 6 in the wide chain, 3 above the
    # bottleneck.  Its smallest singular value is 0 there, and a rate taken
    # from it would leave every layer above the first untrained.
    _, data = make_instance(d_in=6, m=20, seed=23, noise=0.1)
    net = initialize(InitScheme("orth_identity"), dims, seed=24)
    traj, _ = run_bcsgd(net, data, l2(), 0.5, 3, seed=25)
    for layer in range(1, len(dims)):
        assert all(r.lr > 0 for r in traj.records if r.layer == layer), layer
    state = SweepState(depth=len(dims) - 1)
    state.advance()
    state.advance()  # next update: layer 3, B X = W_2 W_1 X
    a = partial_product(net, 3, 4)
    bx = partial_product(net, 2, 1) @ data.x
    sb = np.linalg.svd(bx, compute_uv=False)
    k = min(6, *dims[1:3])
    weight = float(np.sum((bx[:, 0] @ bx) ** 2))
    expected = sb[k - 1] ** 2 / np.linalg.svd(a, compute_uv=False)[0] ** 2 * 0.5 / weight
    assert bcsgd_lr(net, data, state, 0, 0.5) == pytest.approx(expected, rel=1e-12)


def test_floor_brackets_condition_bx_by_the_rank_it_can_carry():
    # above the width-3 layer B X has rank 3 < r_x = 6: the state's bracket
    # conditions it by its 3rd singular value, as the rate does; its 6th is
    # rounding noise and would saturate gamma_upp at 1
    _, data = make_instance(d_in=6, m=20, seed=23, noise=0.1)
    net = initialize(InitScheme("orth_identity"), (6, 3, 6, 2), seed=24)
    state = SweepState(depth=3)
    state.advance()
    state.advance()  # next update: layer 3, B X = W_2 W_1 X
    bracket = floor_brackets(net, data, state, 0.5, 1.0)
    a, bx = network._factors(net, data.x, 3)  # the factors a step from this state takes
    sa, sb = np.linalg.svd(a, compute_uv=False), np.linalg.svd(bx, compute_uv=False)
    assert sb[5] <= 1e-12 * sb[0] < sb[2]
    tracker = BoundsTracker()
    tracker.update(sa, sb, float(np.linalg.norm(bx)), 0.5, (2, 3))
    assert bracket == floor_brackets(net, data, state, 0.5, 1.0, tracker=tracker)
    assert bracket.available and bracket.gamma_upp < 1.0


@pytest.mark.parametrize("ordering", ["ascending", "descending"])
def test_run_bcsgd_on_compressed_samples_matches_original_data(monkeypatch, ordering):
    # m 40 > d_in 8: the run trains on (R^T, Y Q); the reference declines
    net, data = make_instance(d_in=8, m=40, depth=3, seed=26, noise=0.1)
    full = net.copy()
    traj, tracker = run_bcsgd(net, data, l2(), 0.5, 50, seed=27, ordering=ordering)
    assert "_compressed" in vars(data)  # the run took the cached compression
    # the reference declines: optim._reduce gets the uncompressed triple
    monkeypatch.setattr(Dataset, "_compressed", property(lambda self: (self, 0.0, None)))
    ref, ref_tracker = run_bcsgd(full, data, l2(), 0.5, 50, seed=27, ordering=ordering)
    assert [r.sample_index for r in traj.records] == [r.sample_index for r in ref.records]
    for got, want in zip(traj.records, ref.records):
        assert got.loss_before == pytest.approx(want.loss_before, rel=1e-12)
        assert got.loss_after == pytest.approx(want.loss_after, rel=1e-12)
        assert got.dist_after == pytest.approx(want.dist_after, rel=0, abs=1e-12)
        assert got.lr == pytest.approx(want.lr, rel=1e-8)
    for name in ("m_upp", "m_low", "gamma_upp", "gamma_low"):
        assert getattr(tracker, name) == pytest.approx(getattr(ref_tracker, name), rel=1e-9)
    for w, w_ref in zip(net.layers, full.layers):
        assert np.max(np.abs(w - w_ref)) <= 1e-10


def test_run_bcsgd_error_does_not_collapse_with_noise():
    net, data = make_instance(seed=18, noise=0.3, m=30)
    ref = optimal_loss(data.x, data.y, min(net.dims))
    traj, tracker = run_bcsgd(net, data, l2(), 0.5, 400, seed=200, oracle_objective=ref)
    tail = np.array([r.loss_after - ref for r in traj.records[len(traj) // 2 :]])
    bracket = floor_brackets(
        net, data, SweepState(depth=net.depth), 0.5, ref, tracker=tracker
    )
    assert tail.mean() > 0.5 * bracket.floor_lower
    assert tail.mean() > 1e-8  # genuinely floored away from zero


def test_floor_brackets_empty_tracker_unavailable():
    net, data = make_instance(seed=19)
    bracket = floor_brackets(
        net, data, SweepState(depth=2), 0.5, 1.0, tracker=BoundsTracker()
    )
    assert not bracket.available
    assert bracket.floor_lower == 0.0 and bracket.floor_upper == math.inf


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_bcsgd_step_non_finite_loss_raises():
    net, data = make_instance(seed=20)
    huge = Dataset(x=data.x, y=np.full_like(data.y, 1e160))  # residual^2 overflows
    with pytest.raises(RuntimeError, match="BCSGD iteration 1, layer 1"):
        bcsgd_step(net, huge, l2(), SweepState(depth=2), 0.5, np.random.default_rng(0))


# The sampling weights ||(B x_i)^T B X||^2 come from the n x n Gram of B X.
# The reference below is the m x m Gram formula they replaced; the two are
# compared within 1e-12 * ||B X||_2^2 * ||B x_i||^2, the scale of the
# rounding error of either (measured worst: about 1e-15 of it).  With q,
# bx is the compressed C = B R^T of X^T = Q R, and B X = C Q^T.
def _reference_weights(bx, q=None):
    if q is not None:
        bx = bx @ q.T
    gram = bx.T @ bx
    return np.sum(gram * gram, axis=1)


@st.composite
def _bx_matrices(draw):
    n, m = draw(st.integers(1, 9)), draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bx = rng.normal(size=(n, m))
    if n > 1 and draw(st.booleans()):
        # columns in a complement of the others' span: exact weight ~ ||B x_i||^4
        q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        r = draw(st.integers(1, n - 1))
        bx = q[:, :r] @ rng.normal(size=(r, m))
        bx[:, 0] = q[:, r:] @ rng.normal(size=n - r)
    for i in draw(st.lists(st.integers(0, m - 1), max_size=m)):
        bx[:, i] *= 10.0 ** -draw(st.floats(4, 12))
    for i in draw(st.lists(st.integers(0, m - 1), max_size=3)):
        bx[:, i] = 0.0
    return bx


@settings(max_examples=300, deadline=None)
@given(_bx_matrices())
def test_column_weights_match_example_gram(bx):
    weights = sgd._bx_column_weights(bx)
    scale = np.linalg.norm(bx, 2) ** 2 * np.sum(bx * bx, axis=0)
    assert weights.shape == (bx.shape[1],)
    assert np.all(weights >= 0.0)
    assert np.all(np.abs(weights - _reference_weights(bx)) <= 1e-12 * scale)


@st.composite
def _compressed_factors(draw):
    """``(B X, C, Q)`` with m > d_in: C = B R^T from the QR X^T = Q R."""
    n, d = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    m = d + draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b, x = rng.normal(size=(n, d)), rng.normal(size=(d, m))
    if d > 1 and draw(st.booleans()):  # B of lower rank than X
        r = draw(st.integers(1, d - 1))
        b = rng.normal(size=(n, r)) @ rng.normal(size=(r, d))
    for i in draw(st.lists(st.integers(0, m - 1), max_size=m)):
        x[:, i] *= 10.0 ** -draw(st.floats(4, 12))
    for i in draw(st.lists(st.integers(0, m - 1), max_size=3)):
        x[:, i] = 0.0
    q, r = np.linalg.qr(x.T)
    return b @ x, b @ r.T, q, np.linalg.norm(b, 2) * np.linalg.norm(x, 2)


# The compressed weights ||C^T C q_i||^2 see B x_i as C q_i, which the QR
# reproduces to within eps ||B||_2 ||X||_2 (normwise, not per column), so
# they are compared on that scale: within 1e-12 * ||B X||_2^2 * u *
# (||B x_i|| + 1e-12 u), u = ||B||_2 ||X||_2.
@settings(max_examples=300, deadline=None)
@given(_compressed_factors())
def test_compressed_weights_match_example_gram(factors):
    bx, c, q, u = factors
    weights = sgd._bx_column_weights(c, q)
    scale = np.linalg.norm(bx, 2) ** 2 * u * (np.linalg.norm(bx, axis=0) + 1e-12 * u)
    assert weights.shape == (bx.shape[1],)
    assert np.all(weights >= 0.0)
    assert np.all(np.abs(weights - _reference_weights(bx)) <= 1e-12 * scale)
    assert np.all(np.abs(weights - _reference_weights(c, q)) <= 1e-12 * scale)


# The squared row norms of Q (C^T C), summed as np.sum does it, on both
# sides of d_in 8, where the sum switches from matcore._column_sums to numpy.
@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 9), d=st.integers(1, 9), extra=st.integers(1, 700),
    seed=st.integers(0, 2**32 - 1),
)
def test_compressed_weights_are_the_squared_row_sums_bit_for_bit(n, d, extra, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(d + extra, d)))
    c = rng.normal(size=(n, d))
    rows = q.dot(c.T.dot(c))
    assert sgd._bx_column_weights(c, q).tobytes() == np.sum(rows * rows, axis=1).tobytes()


def _recorded(monkeypatch, name):
    """Record the first argument of every ``np.linalg.<name>`` call."""
    seen, real = [], getattr(np.linalg, name)

    def recording(a, *args, **kwargs):
        seen.append(np.array(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, recording)
    return seen


@pytest.mark.parametrize("m", [4, 40], ids=["uncompressed", "compressed"])
def test_runs_on_one_dataset_take_its_qr_and_spectrum_once(monkeypatch, m):
    _, data = make_instance(d_in=5, m=m, depth=3, seed=3)
    r_t = np.linalg.qr(data.x.T)[1].T
    net = initialize(InitScheme("random"), (5, 5, 5, 2), seed=4)  # so no B X equals X
    nets = [net.copy() for _ in range(4)]
    cold = Dataset(x=data.x, y=data.y)
    qrs, svds = _recorded(monkeypatch, "qr"), _recorded(monkeypatch, "svd")
    runs = [run_bcsgd(w, data, l2(), 0.5, 2, seed=k, oracle_objective=0.0)[0]
            for k, w in enumerate(nets[:3])]
    state, rng = SweepState(depth=net.depth), np.random.default_rng(0)
    for _ in range(4):
        bcsgd_step(nets[3], data, l2(), state, 0.5, rng, oracle_objective=0.0)

    def count(calls, a):
        return sum(c.shape == a.shape and np.array_equal(c, a) for c in calls)

    compressed = m > data.d_in
    assert count(qrs, data.x.T) == compressed
    # the single steps train on the runners' samples: X itself, or R^T when compressed
    assert count(svds, data.x) == (not compressed)
    if compressed:
        assert count(svds, r_t) == 1
    # a run on the warm dataset is the run on a cold one, bit for bit
    cold_run = run_bcsgd(net, cold, l2(), 0.5, 2, seed=0, oracle_objective=0.0)[0]
    assert cold_run.records == runs[0].records


def test_bcsgd_trajectory_matches_example_gram_kernel(monkeypatch):
    # Same seed, same samples; the tolerances absorb the rounding difference
    # of the two kernels as it propagates through 300 sweeps.
    net, data = make_instance(d_in=8, m=40, seed=21, noise=0.1)
    ref = optimal_loss(data.x, data.y, min(net.dims))
    runs = []
    for kernel in (sgd._bx_column_weights, _reference_weights):
        monkeypatch.setattr(sgd, "_bx_column_weights", kernel)
        fresh, _ = make_instance(d_in=8, m=40, seed=21, noise=0.1)
        traj, _ = run_bcsgd(fresh, data, l2(), 0.5, 300, seed=22, oracle_objective=ref)
        runs.append(traj.records)
    new, old = runs
    assert [r.sample_index for r in new] == [r.sample_index for r in old]
    for a, b in zip(new, old):
        assert a.loss_after == pytest.approx(b.loss_after, rel=1e-12)
        assert a.lr == pytest.approx(b.lr, rel=1e-9)


@pytest.mark.parametrize(
    "a_svals, bx_svals, bx_fro",
    [
        ([1.0, 1e-160], [1.0, 0.5], 1.2),  # kappa^2(A) = 1e320: _ratio_sq overflows
        ([1.0, 0.5], [1.0, 1e-80], 1.0),  # kt^2(B X) = 1e160, whose square kt^4 overflows
    ],
)
def test_bounds_tracker_saturates_where_a_square_overflows(a_svals, bx_svals, bx_fro):
    tracker = BoundsTracker()
    tracker.update(np.array(a_svals), np.array(bx_svals), bx_fro, 0.5, (2, 2))
    assert tracker.m_upp == math.inf and tracker.gamma_upp == 1.0
    assert tracker.iterations == 1


def test_floor_brackets_unavailable_where_the_condition_number_squares_overflow():
    # layer 2 sees B X = diag(1, 1e-80) X: kt^4(B X) is about 1e320
    rng = np.random.default_rng(40)
    data = Dataset(x=rng.normal(size=(2, 6)), y=rng.normal(size=(2, 6)))
    net = Network([np.diag([1.0, 1e-80]), rng.normal(size=(2, 2))])
    state = SweepState(depth=2)
    state.advance()
    bracket = floor_brackets(net, data, state, 0.5, 1.0)
    assert not bracket.available
    assert bracket.gamma_upp == 1.0 and bracket.floor_upper == math.inf


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("x, mass", [(np.ones((2, 3)), "inf"), (np.eye(2, 3), "nan")])
def test_every_bcsgd_view_rejects_a_non_finite_mass_alike(x, mass):
    # layer 2 sees B X = 1e160 X: its Gram overflows, so the weights are inf,
    # or inf * 0 = nan where X has zeros; a zero mass is rejected the same way
    net = Network([1e160 * np.eye(2), np.eye(2)])
    data = Dataset(x=x, y=np.zeros((2, 3)))
    state = SweepState(depth=2)
    state.advance()
    message = f"degenerate state at layer 2: sampling mass {mass}"
    for call in (
        lambda: sampling_distribution(net, data, state),
        lambda: bcsgd_lr(net, data, state, 0, 0.5),
        lambda: floor_brackets(net, data, state, 0.5, 1.0),
        lambda: bcsgd_step(net, data, l2(), state, 0.5, np.random.default_rng(0), 0.0),
    ):
        with pytest.raises(ValueError, match=message):
            call()
    assert state.iteration == 1  # no step was taken


def test_draw_never_picks_a_zero_weight_example():
    # the inverse-CDF draw takes the first index whose cumulative weight exceeds u:
    # at u = 0 that is index 1, not index 0 whose weight is 0
    class Zero:
        def random(self):
            return 0.0

    assert sgd._draw(np.array([0.0, 0.5, 0.5]), Zero()) == 1
