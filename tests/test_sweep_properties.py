"""Property tests for the invariants the sweep engine's fast path relies on.

The runners never rebuild A = W_{L:(ell+1)} or B X = W_{(ell-1):1} X from
scratch: ``optim._sweep`` builds one side at the sweep start and carries
the other through each new layer.  These tests pin that the factors it
hands out always equal the live network's partial products, and that the
theory_l2 gamma bound taken from the step's cached spectra equals
``theory.gamma_factor`` on the pre-step state.

Factors are compared normwise relative to the product of the norms of the
matrices they multiply (the scale their rounding error is bounded by):
chains of width 1 can cancel to a product far smaller than its factors.

``run_bcgd``'s width fast path trains only the head blocks of a
block-diagonal chain; it is compared against the full-width run that the
same call makes when ``network._head_blocks`` declines.  Its sample
compression (square loss, m > d_in) trains on ``(R^T, Y Q)`` from the QR
of X^T; it is compared against the run on the original data that the
same call makes when ``optim._compressed_samples`` declines.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from deeplinlab import network, optim, sgd, theory
from deeplinlab.data import Dataset
from deeplinlab.initializers import KINDS, InitScheme, initialize
from deeplinlab.losses import l2, lp
from deeplinlab.network import Network, pad_equiv, partial_product
from deeplinlab.optim import LrPolicy, run_bcgd

RTOL = 1e-12
POLICIES = {
    "theory:1": (l2, LrPolicy("theory_l2", eta=1.0)),
    "theory:1.5": (l2, LrPolicy("theory_l2", eta=1.5)),
    "optimal": (l2, LrPolicy("optimal_l2")),
    "convex": (l2, LrPolicy("convex_safe")),
    "general": (l2, LrPolicy("near_optimal_general")),
    "lp:4": (lambda: lp(4), LrPolicy("near_optimal_lp", p=4)),
    "const": (l2, LrPolicy("constant", eta=1e-3)),
}

chains = st.lists(st.integers(1, 7), min_size=2, max_size=7)  # depth 1..6


def _problem(dims, m, seed):
    rng = np.random.default_rng(seed)
    layers = [
        rng.normal(0.0, 1.0 / np.sqrt(dims[l - 1]), size=(dims[l], dims[l - 1]))
        for l in range(1, len(dims))
    ]
    data = Dataset(x=rng.normal(size=(dims[0], m)), y=rng.uniform(-1, 2, size=(dims[-1], m)))
    return Network(layers), data


def _norm_product(mats) -> float:
    return float(np.prod([np.linalg.norm(w) for w in mats]))


def _assert_live_factors(net, data, ell, a, bx):
    L = net.depth
    a_ref = partial_product(net, L, ell + 1)
    bx_ref = partial_product(net, ell - 1, 1) @ data.x
    a_scale = _norm_product(net.layers[ell:]) if ell < L else 1.0
    bx_scale = _norm_product(net.layers[: ell - 1] + [data.x])
    assert a.shape == a_ref.shape and bx.shape == bx_ref.shape
    assert np.linalg.norm(a - a_ref) <= RTOL * a_scale
    assert np.linalg.norm(bx - bx_ref) <= RTOL * bx_scale


@settings(max_examples=60, deadline=None)
@given(
    dims=chains,
    m=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    ordering=st.sampled_from(optim.ORDERINGS),
    sweeps=st.integers(1, 3),
)
def test_sweep_yields_live_factors_under_any_update(dims, m, seed, ordering, sweeps):
    net, data = _problem(dims, m, seed)
    rng = np.random.default_rng(seed + 1)
    L = net.depth
    for _ in range(sweeps):
        visited = []
        for ell, a, bx in optim._sweep(net, data.x, ordering):
            _assert_live_factors(net, data, ell, a, bx)
            visited.append(ell)
            w = net.layers[ell - 1]
            net.layers[ell - 1] = w + rng.normal(0.0, 0.5, size=w.shape)
        expected = list(range(1, L + 1))
        assert visited == (expected if ordering == "ascending" else expected[::-1])


@settings(max_examples=60, deadline=None)
@given(
    dims=chains,
    m=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    ordering=st.sampled_from(optim.ORDERINGS),
    policy_name=st.sampled_from(sorted(POLICIES)),
)
def test_run_bcgd_steps_on_live_factors(dims, m, seed, ordering, policy_name):
    net, data = _problem(dims, m, seed)
    make_loss, policy = POLICIES[policy_name]
    ranks = optim._gamma_ranks(net, data, policy)  # fixed at the run start
    core = optim._step_core
    checked = []

    def step(net_, data_, lf, state, policy_, a, bx, oracle_obj, ranks_, dims, m_, c):
        ell = state.layer_to_update()
        # the factors come from the run's own inputs: (R^T, Y Q) when compressed
        _assert_live_factors(net_, data_, ell, a, bx)
        assert m_ == data.m  # distances and rank tolerances use the true m
        # the bound is the one on the original data: sigma(B X) = sigma(B R^T)
        expected = (
            theory.gamma_factor(net_, data, state, policy_.eta, *ranks)
            if ranks is not None
            else None
        )
        record = core(net_, data_, lf, state, policy_, a, bx, oracle_obj, ranks_, dims, m_, c)
        if expected is None:
            assert record.gamma_bound is None
        else:
            assert 0.0 <= expected <= 1.0
            assert record.gamma_bound == pytest.approx(expected, rel=0, abs=RTOL)
        checked.append(ell)
        return record

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optim, "_step_core", step)
        traj = run_bcgd(
            net, data, make_loss(), policy, ordering=ordering, max_sweeps=2,
            target_dist=float("-inf"), oracle_objective=0.0,
        )
    assert len(checked) == len(traj) == 2 * net.depth


@settings(max_examples=40, deadline=None)
@given(
    dims=chains,
    m=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    ordering=st.sampled_from(optim.ORDERINGS),
)
def test_run_bcsgd_steps_on_live_factors(dims, m, seed, ordering):
    net, data = _problem(dims, m, seed)
    core = sgd._bcsgd_step_core
    checked = []

    def step(net_, data_, lf, state, eta, rng, a, bx, oracle_obj, tracker, ranks, bx_svals):
        _assert_live_factors(net_, data_, state.layer_to_update(), a, bx)
        if bx_svals is not None:  # handed over for layer 1, where B X is X
            assert bx_svals.tobytes() == np.linalg.svd(bx, compute_uv=False).tobytes()
        checked.append(state.layer_to_update())
        return core(net_, data_, lf, state, eta, rng, a, bx, oracle_obj, tracker, ranks, bx_svals)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sgd, "_bcsgd_step_core", step)
        traj, _ = sgd.run_bcsgd(
            net, data, l2(), 0.5, 2, seed=seed, ordering=ordering, oracle_objective=0.0
        )
    assert len(checked) == len(traj) == 2 * net.depth


wide_chains = st.lists(st.integers(1, 40), min_size=2, max_size=7)  # depth 1..6


def _init_or_skip(scheme, dims, seed):
    try:
        return initialize(InitScheme(scheme), dims, seed)
    except ValueError:  # balanced needs every width >= min(n0, nL)
        assume(False)


def _outside_head(w, k, kp):
    mask = np.ones(w.shape, dtype=bool)
    mask[:k, :kp] = False
    return w[mask]


@settings(max_examples=120, deadline=None)
@given(
    dims=wide_chains,
    scheme=st.sampled_from(KINDS),
    m=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    ordering=st.sampled_from(optim.ORDERINGS),
    policy_name=st.sampled_from(sorted(POLICIES)),
)
def test_width_fast_path_matches_full_width(dims, scheme, m, seed, ordering, policy_name):
    net = _init_or_skip(scheme, dims, seed)
    rng = np.random.default_rng(seed)
    data = Dataset(x=rng.normal(size=(dims[0], m)), y=rng.uniform(-1, 2, size=(dims[-1], m)))
    cap = max(dims[0], dims[-1])
    heads = [min(n, cap) for n in dims]
    square_wide_middle = any(dims[l] == dims[l - 1] > cap for l in range(2, len(dims) - 1))
    blocks = network._head_blocks(net)
    if heads == dims or scheme == "random" or (scheme == "orthogonal" and square_wide_middle):
        assert blocks is None
    if blocks is None:
        return
    assert [b.shape for b in blocks] == [(heads[l], heads[l - 1]) for l in range(1, len(dims))]

    make_loss, policy = POLICIES[policy_name]
    initial, full = net.copy(), net.copy()
    narrow = Network(blocks)  # the head chain, trained on its own below
    kwargs = dict(ordering=ordering, max_sweeps=3, target_dist=float("-inf"))
    fast = run_bcgd(net, data, make_loss(), policy, **kwargs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optim, "_head_blocks", lambda net_: None)
        ref = run_bcgd(full, data, make_loss(), policy, **kwargs)
    run_bcgd(
        narrow, data, make_loss(), policy,
        oracle_objective=fast.meta["oracle_objective"], **kwargs,
    )

    assert fast.meta == ref.meta and fast.meta["dims"] == tuple(dims)
    assert len(fast) == len(ref) == 3 * net.depth
    assert np.max(np.abs(fast.losses() - ref.losses())) <= 1e-10
    # Once a step's gradient is at rounding level (an interpolating fit gets
    # there in one step), its rate is a ratio of rounding errors: compare
    # rates only where the gradient stands above 1e-6 of the run's largest.
    g_floor = 1e-6 * max(r.grad_frobenius for r in ref.records)
    for got, want in zip(fast.records, ref.records):
        assert (got.iteration, got.layer) == (want.iteration, want.layer)
        if want.grad_frobenius > g_floor:
            assert abs(got.lr - want.lr) <= 1e-9 * abs(want.lr)
        # gamma = max(1 - eta / (kappa_A kappa_BX)^2, eta - 1) lies in [0, 1]
        # and cancels at kappa 1: compare it on that scale.
        if want.gamma_bound is None:
            assert got.gamma_bound is None
        else:
            assert got.gamma_bound == pytest.approx(want.gamma_bound, rel=0, abs=1e-9)
    for l in range(1, net.depth + 1):
        w, w0, k, kp = net.layers[l - 1], initial.layers[l - 1], heads[l], heads[l - 1]
        assert np.max(np.abs(w - full.layers[l - 1]), initial=0.0) <= 1e-10
        assert _outside_head(w, k, kp).tobytes() == _outside_head(w0, k, kp).tobytes()
        assert np.array_equal(w[:k, :kp], narrow.layers[l - 1])
        if scheme == "orth_identity" and 1 < l < net.depth and k == kp < min(w.shape):
            assert pad_equiv(w, narrow.layers[l - 1], "one")


def _run_or_error(*args, **kwargs):
    try:
        return run_bcgd(*args, **kwargs)
    except RuntimeError as exc:
        return exc


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(
    dims=wide_chains,
    scheme=st.sampled_from(KINDS),
    m_offset=st.integers(-12, 12),
    seed=st.integers(0, 2**32 - 1),
    ordering=st.sampled_from(optim.ORDERINGS),
    policy_name=st.sampled_from(sorted(POLICIES)),
)
def test_sample_compression_matches_original_data(
    dims, scheme, m_offset, seed, ordering, policy_name
):
    m = max(1, dims[0] + m_offset)  # on both sides of d_in
    net = _init_or_skip(scheme, dims, seed)
    rng = np.random.default_rng(seed)
    data = Dataset(x=rng.normal(size=(dims[0], m)), y=rng.uniform(-1, 2, size=(dims[-1], m)))
    make_loss, policy = POLICIES[policy_name]
    lf = make_loss()
    compressed = optim._compressed_samples(data, lf)
    assert (compressed is not None) == (lf.power == 2 and m > dims[0])

    full = net.copy()
    kwargs = dict(ordering=ordering, max_sweeps=3, target_dist=float("-inf"))
    fast = _run_or_error(net, data, lf, policy, **kwargs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optim, "_compressed_samples", lambda data_, lf_: None)
        ref = _run_or_error(full, data, lf, policy, **kwargs)
    if isinstance(ref, RuntimeError):  # a constant rate can diverge: both must
        assert isinstance(fast, RuntimeError)
        return

    assert fast.meta == ref.meta
    assert len(fast) == len(ref) == 3 * net.depth
    if compressed is None:  # the declined path is the same code on the same data
        assert fast.records == ref.records
        for w, w_ref in zip(net.layers, full.layers):
            assert w.tobytes() == w_ref.tobytes()
        return
    samples, c = compressed
    assert samples.x.shape == (dims[0], dims[0]) and samples.y.shape == (dims[-1], dims[0])
    assert c >= 0.0
    # Rates are compared only where the gradient stands above 1e-6 of the
    # run's largest: a converged step's rate is a ratio of rounding errors.
    g_floor = 1e-6 * max(r.grad_frobenius for r in ref.records)
    for got, want in zip(fast.records, ref.records):
        assert (got.iteration, got.layer) == (want.iteration, want.layer)
        assert abs(got.loss_after - want.loss_after) <= 1e-12 * abs(want.loss_after)
        assert abs(got.dist_after - want.dist_after) <= 1e-12
        if want.grad_frobenius >= g_floor:
            assert abs(got.lr - want.lr) <= 1e-8 * abs(want.lr)
        # gamma lies in [0, 1] and cancels at kappa 1: compare it on that scale
        if want.gamma_bound is None:
            assert got.gamma_bound is None
        else:
            assert abs(got.gamma_bound - want.gamma_bound) <= 1e-12
    for w, w_ref in zip(net.layers, full.layers):
        assert w.shape == w_ref.shape
        assert np.max(np.abs(w - w_ref), initial=0.0) <= 1e-10
