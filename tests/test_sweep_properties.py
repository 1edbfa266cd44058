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

Every runner (``run_bcgd``, ``run_gd``, ``run_bcsgd``) trains on
``optim._reduce``'s exact problem reduction.  Its width part trains only
the head blocks of a block-diagonal chain; it is compared against the
full-width run that the same call makes when ``network._head_blocks``
declines.  Its sample compression (square loss, m > d_in) trains on
``(R^T, Y Q)`` from the QR of X^T; it is compared against the run on the
original data that the same call makes when ``optim._compressed_samples``
declines.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from deeplinlab import network, optim, sgd, theory
from deeplinlab.data import Dataset
from deeplinlab.initializers import KINDS, InitScheme, initialize
from deeplinlab.losses import l2, lp
from deeplinlab.matcore import spectral_summary
from deeplinlab.network import Network, pad_equiv, partial_product
from deeplinlab.optim import LrPolicy, reference_gd_rate, run_bcgd, run_gd

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
    # fixed at the run start, from the unreduced data
    ranks = optim._gamma_ranks(optim._plain(net, data, make_loss(), 0.0), policy)
    core = optim._step_core
    checked = []

    def step(run, ell, iteration, sweep, a, bx, policy_, ranks_):
        # the factors come from the run's own inputs: (R^T, Y Q) when compressed
        _assert_live_factors(run.work, run.samples, ell, a, bx)
        assert run.data.m == data.m  # distances and rank tolerances use the true m
        # the bound is the one on the original data: sigma(B X) = sigma(B R^T)
        state = optim.SweepState(depth=run.work.depth, ordering=ordering)
        while state.layer_to_update() != ell:
            state.advance()
        expected = (
            theory.gamma_factor(run.work, data, state, policy_.eta, *ranks)
            if ranks is not None
            else None
        )
        record = core(run, ell, iteration, sweep, a, bx, policy_, ranks_)
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
    compressed = optim._compressed_samples(data, l2())
    assert (compressed is not None) == (m > dims[0])
    # (r, r_x): the full chain's top layer, and X ranked at its own shape
    ranks = (
        min(spectral_summary(net.layers[-1]).numeric_rank, dims[-1]),
        spectral_summary(data.x).numeric_rank,
    )
    core = sgd._bcsgd_step_core
    checked = []

    def step(run, ell, iteration, sweep, a, bx, eta, rng, tracker, ranks_, bx_svals=None):
        samples, q, c = run.samples, run.q, run.c
        assert run.data is data  # targets y_i and the distances' m stay on the original data
        if compressed is None:
            assert samples is data and q is None and c == 0.0
        else:
            assert samples.x.tobytes() == compressed[0].x.tobytes()
            assert q.tobytes() == compressed[2].tobytes() and c == compressed[1]
        # the factors come from the run's own inputs: (R^T, Y Q) when compressed
        _assert_live_factors(run.work, samples, ell, a, bx)
        assert ranks_ == ranks
        # X's singular values, handed over for layer 1 (B X is X, or R^T)
        assert (bx_svals is not None) == (ell == 1)
        if bx_svals is not None:
            assert bx_svals.tobytes() == np.linalg.svd(samples.x, compute_uv=False).tobytes()
        checked.append(ell)
        return core(run, ell, iteration, sweep, a, bx, eta, rng, tracker, ranks_, bx_svals)

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


RUNNERS = sorted(POLICIES) + ["gd", "bcsgd"]  # a policy name runs BCGD with it
SWEEPS = 3
# What a run may raise, as long as the compared run raises it too: GD and
# BCSGD can diverge (RuntimeError), and BCSGD meets a zero sampling mass
# (ValueError) where B X is 0.  A BCGD run raises only what a test allows.
RUNNER_ERRORS = {"gd": (RuntimeError,), "bcsgd": (RuntimeError, ValueError)}
# A BCSGD rate divides by sigma_k(B X) and ||A||, and rounding moves it by
# about eps times how far those fall below the norms of their factors (the
# cancellation figure below).  Up to CANCELLATION_FREE the runs keep the
# 1e-12 and 1e-10 bounds; past it the bounds grow with the figure.
CANCELLATION_FREE = 1e3


def _loss(runner):
    return POLICIES[runner][0]() if runner in POLICIES else l2()


def _train(runner, net, data, ordering, gd_eta, seed, bcgd_errors=(), **kwargs):
    """One run of *runner* over SWEEPS sweeps (GD: iterations) on *net*:
    ``(trajectory, tracker)``, the tracker None except for BCSGD; or the
    error the run raises when it is one of ``RUNNER_ERRORS[runner]`` (for
    BCGD, of *bcgd_errors*)."""
    try:
        if runner == "gd":
            traj = run_gd(
                net, data, l2(), gd_eta, max_iters=SWEEPS, target_dist=float("-inf"), **kwargs
            )
            return traj, None
        if runner == "bcsgd":
            return sgd.run_bcsgd(
                net, data, l2(), 0.5, SWEEPS, seed=seed, ordering=ordering, **kwargs
            )
        make_loss, policy = POLICIES[runner]
        traj = run_bcgd(
            net, data, make_loss(), policy, ordering=ordering, max_sweeps=SWEEPS,
            target_dist=float("-inf"), **kwargs,
        )
        return traj, None
    except RUNNER_ERRORS.get(runner, bcgd_errors) as exc:
        return exc


def _grows(runner, scale):
    """Whether a run's values can grow far above 1, so that its rounding is
    relative to the values it reaches: GD at the reference rate takes dims
    [1, 8, 5], m 1 to 1e20 in three iterations, and a cancelling BCSGD run
    (*scale* > 1) steps at rates up to 2.4e14, taking a layer to 2e7."""
    return runner == "gd" or scale > 1.0


def _bound(tol, value, relative, scale):
    """``tol * scale``, times ``max(1, |value|)`` when *relative*."""
    return tol * scale * (max(1.0, abs(float(value))) if relative else 1.0)


def _recording_cancellation(figures):
    """``sgd._bcsgd_step_core``, appending every step's cancellation figure
    to *figures*: ``max(||X|| prod_(j<ell) ||W_j|| / sigma_k(B X),
    prod_(j>ell) ||W_j|| / ||A||)`` in Frobenius norms, k = ``sgd._bx_rank``,
    0 for a factor that is 0 (the rate is then 0 or the step raises).
    Chains of width 1 can cancel B X to far below its factors: ``dims [20,
    1, 1, 2, 2, 1, 9]`` reaches 2.5e7, a rate of 2.4e14 and runs 8.6e-11
    apart in the loss."""
    core = sgd._bcsgd_step_core

    def step(run, ell, iteration, sweep, a, bx, eta, rng, tracker, ranks, bx_svals=None):
        sb = np.linalg.svd(bx, compute_uv=False)
        net_, x = run.work, run.samples.x
        sigma = sb[sgd._bx_rank(net_, ell, ranks[1]) - 1]
        norm_a = np.linalg.norm(a)
        below = _norm_product(net_.layers[: ell - 1] + [x]) / sigma if sigma > 0 else 0.0
        above = _norm_product(net_.layers[ell:]) / norm_a if norm_a > 0 else 0.0
        figures.append(max(below, above))
        return core(run, ell, iteration, sweep, a, bx, eta, rng, tracker, ranks, bx_svals)

    return step


def _cancellation_scale(figures):
    """How far the 1e-12 and 1e-10 bounds of a BCSGD run grow: 1 up to
    CANCELLATION_FREE, then in proportion to the run's largest figure."""
    return max(1.0, max(figures, default=0.0) / CANCELLATION_FREE)


def _assert_same_samples_and_trackers(fast, ref):
    """BCSGD draws the same examples, and its tracker constants agree within
    1e-9 relative, in narrow chains too.  The tracker conditions B X by the
    rank it can carry below the layer, as the rate does.  A is conditioned
    by the top layer's rank r; where a width n_b < r above a layer caps A's
    rank, the step at layer b sees an A with only n_b columns, whose
    infinite condition number sets m_upp to inf and gamma_upp to 1 in both
    runs."""
    (traj, tracker), (ref_traj, ref_tracker) = fast, ref
    assert [r.sample_index for r in traj.records] == [r.sample_index for r in ref_traj.records]
    if tracker is None:
        assert ref_tracker is None
        return
    assert tracker.iterations == ref_tracker.iterations
    for name in ("m_upp", "m_low", "gamma_upp", "gamma_low"):
        got, want = getattr(tracker, name), getattr(ref_tracker, name)
        assert got == pytest.approx(want, rel=1e-9, abs=0.0), name


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
@settings(max_examples=120, deadline=None)
@given(
    dims=wide_chains,
    scheme=st.sampled_from(KINDS),
    m=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    ordering=st.sampled_from(optim.ORDERINGS),
    runner=st.sampled_from(RUNNERS),
)
# weights reach 5.9e3, where rounding exceeds an absolute 1e-10
@example(dims=[1, 26, 12, 13, 3], scheme="balanced", m=11, seed=150873497,
         ordering="ascending", runner="bcsgd")
def test_width_fast_path_matches_full_width(dims, scheme, m, seed, ordering, runner):
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

    gd_eta = reference_gd_rate(net, data)
    initial, full = net.copy(), net.copy()
    narrow = Network(blocks)  # the head chain, trained on its own below
    fast = _train(runner, net, data, ordering, gd_eta, seed)
    figures = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optim, "_head_blocks", lambda net_: None)
        mp.setattr(sgd, "_bcsgd_step_core", _recording_cancellation(figures))
        ref = _train(runner, full, data, ordering, gd_eta, seed)
    if isinstance(ref, Exception):  # a GD or BCSGD run that diverges must diverge in both
        assert type(fast) is type(ref)
        return
    assert not isinstance(fast, Exception), fast
    fast_traj, ref_traj = fast[0], ref[0]
    scale = _cancellation_scale(figures)  # 1 except for a cancelling BCSGD run
    narrow_traj = _train(
        runner, narrow, data, ordering, gd_eta, seed,
        oracle_objective=fast_traj.meta["oracle_objective"],
    )[0]

    assert fast_traj.meta == ref_traj.meta and fast_traj.meta["dims"] == tuple(dims)
    assert len(fast_traj) == len(ref_traj) == SWEEPS * (1 if runner == "gd" else net.depth)
    # Once a step's gradient is at rounding level (an interpolating fit gets
    # there in one step), its rate is a ratio of rounding errors: compare
    # rates only where the gradient stands above 1e-6 of the run's largest.
    g_floor = 1e-6 * max(r.grad_frobenius for r in ref_traj.records)
    for got, want in zip(fast_traj.records, ref_traj.records):
        assert (got.iteration, got.layer) == (want.iteration, want.layer)
        assert abs(got.loss_after - want.loss_after) <= _bound(
            1e-10, want.loss_after, _grows(runner, scale), scale
        )
        if want.grad_frobenius > g_floor:
            assert abs(got.lr - want.lr) <= 1e-9 * abs(want.lr)
        # gamma = max(1 - eta / (kappa_A kappa_BX)^2, eta - 1) lies in [0, 1]
        # and cancels at kappa 1: compare it on that scale.
        if want.gamma_bound is None:
            assert got.gamma_bound is None
        else:
            assert got.gamma_bound == pytest.approx(want.gamma_bound, rel=0, abs=1e-9)
    _assert_same_samples_and_trackers(fast, ref)
    for l in range(1, net.depth + 1):
        w, w0, k, kp = net.layers[l - 1], initial.layers[l - 1], heads[l], heads[l - 1]
        w_ref = full.layers[l - 1]
        # rounding is relative: above magnitude 1 the weight bound grows with it
        assert np.max(np.abs(w - w_ref), initial=0.0) <= _bound(
            1e-10, np.max(np.abs(w_ref), initial=0.0), True, scale
        )
        assert _outside_head(w, k, kp).tobytes() == _outside_head(w0, k, kp).tobytes()
        assert np.array_equal(w[:k, :kp], narrow.layers[l - 1])
        if scheme == "orth_identity" and 1 < l < net.depth and k == kp < min(w.shape):
            assert pad_equiv(w, narrow.layers[l - 1], "one")
    assert [r.loss_after for r in narrow_traj.records] == [r.loss_after for r in fast_traj.records]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(
    dims=wide_chains,
    scheme=st.sampled_from(KINDS),
    m_offset=st.integers(-12, 12),
    seed=st.integers(0, 2**32 - 1),
    ordering=st.sampled_from(optim.ORDERINGS),
    runner=st.sampled_from(RUNNERS),
)
# weights near 1e3 end 2.4e-10 apart (2.4e-13 relative)
@example(dims=[39, 35, 11, 1, 1, 26], scheme="random", m_offset=6, seed=4292,
         ordering="ascending", runner="theory:1.5")
def test_sample_compression_matches_original_data(dims, scheme, m_offset, seed, ordering, runner):
    m = max(1, dims[0] + m_offset)  # on both sides of d_in
    net = _init_or_skip(scheme, dims, seed)
    rng = np.random.default_rng(seed)
    data = Dataset(x=rng.normal(size=(dims[0], m)), y=rng.uniform(-1, 2, size=(dims[-1], m)))
    lf = _loss(runner)
    compressed = optim._compressed_samples(data, lf)
    assert (compressed is not None) == (lf.power == 2 and m > dims[0])

    gd_eta = reference_gd_rate(net, data)
    full = net.copy()
    fast = _train(runner, net, data, ordering, gd_eta, seed, bcgd_errors=(RuntimeError,))
    figures = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optim, "_compressed_samples", lambda data_, lf_: None)
        mp.setattr(sgd, "_bcsgd_step_core", _recording_cancellation(figures))
        ref = _train(runner, full, data, ordering, gd_eta, seed, bcgd_errors=(RuntimeError,))
    if isinstance(ref, Exception):  # a run that diverges must diverge in both
        assert type(fast) is type(ref)
        return
    assert not isinstance(fast, Exception), fast
    fast_traj, ref_traj = fast[0], ref[0]

    assert fast_traj.meta == ref_traj.meta
    assert len(fast_traj) == len(ref_traj) == SWEEPS * (1 if runner == "gd" else net.depth)
    if compressed is None:  # the declined path is the same code on the same data
        assert fast_traj.records == ref_traj.records
        assert fast[1] == ref[1]
        for w, w_ref in zip(net.layers, full.layers):
            assert w.tobytes() == w_ref.tobytes()
        return
    samples, c, q = compressed
    assert samples.x.shape == (dims[0], dims[0]) and samples.y.shape == (dims[-1], dims[0])
    assert q.shape == (m, dims[0]) and c >= 0.0
    scale = _cancellation_scale(figures)  # 1 except for a cancelling BCSGD run
    # Rates are compared only where the gradient stands above 1e-6 of the
    # run's largest: a converged step's rate is a ratio of rounding errors.
    g_floor = 1e-6 * max(r.grad_frobenius for r in ref_traj.records)
    for got, want in zip(fast_traj.records, ref_traj.records):
        assert (got.iteration, got.layer) == (want.iteration, want.layer)
        assert abs(got.loss_after - want.loss_after) <= 1e-12 * scale * abs(want.loss_after)
        # BCSGD distances, like its losses, are compared relative above 1:
        # a step on a sample of small weight (0.5% of the largest) at rate
        # 479 moves dims [3, 1, 3, 1, 2, 5, 3] apart by 1.3e-12 at dist 36.6.
        assert abs(got.dist_after - want.dist_after) <= _bound(
            1e-12, want.dist_after, _grows(runner, scale) or runner == "bcsgd", scale
        )
        if want.grad_frobenius >= g_floor:
            assert abs(got.lr - want.lr) <= 1e-8 * abs(want.lr)
        # gamma lies in [0, 1] and cancels at kappa 1: compare it on that scale
        if want.gamma_bound is None:
            assert got.gamma_bound is None
        else:
            assert abs(got.gamma_bound - want.gamma_bound) <= 1e-12
    _assert_same_samples_and_trackers(fast, ref)
    for w, w_ref in zip(net.layers, full.layers):
        assert w.shape == w_ref.shape
        # rounding is relative: above magnitude 1 the weight bound grows with it
        assert np.max(np.abs(w - w_ref), initial=0.0) <= _bound(
            1e-10, np.max(np.abs(w_ref), initial=0.0), True, scale
        )
