"""The single-step API takes the runners' steps, bit for bit.

``bcgd_step``, ``sgd.bcsgd_step`` and ``gd_step`` build their factors with
``network._factors``, which hands out what ``optim._sweep`` hands a runner
(the same products, associated the same way), and run the runners' step
code.  So on a problem that ``optim._reduce`` leaves as it is (random
layers, which have no zero off-diagonal blocks, and no sample compression:
m <= d_in for the square loss, or the lp:4 loss), N single steps from a
fresh ``SweepState`` give records equal (``==``) to the N records of the
runner.  The state functions agree with those steps too: ``compute_lr``
gives the next record's rate, ``bcsgd_lr`` at the drawn example its rate,
and ``sampling_distribution`` the distribution the step draws from.

Every step reads the ranks (r, r_x) from its run object (``optim._Run.ranks``,
taken once per run, before any layer moves): ``run_bcgd`` and ``run_bcsgd``
take them once, and ``bcgd_step`` and ``sgd.bcsgd_step`` at each state; on
these problems the two agree.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deeplinlab import optim, sgd
from deeplinlab.data import Dataset
from deeplinlab.losses import l2, lp
from deeplinlab.network import Network
from deeplinlab.optim import LrPolicy, SweepState, bcgd_step, compute_lr, gd_step, reference_gd_rate, run_bcgd, run_gd

POLICIES = {
    "theory:1": (l2, LrPolicy("theory_l2", eta=1.0)),
    "theory:0.5": (l2, LrPolicy("theory_l2", eta=0.5)),
    "optimal": (l2, LrPolicy("optimal_l2")),
    "convex": (l2, LrPolicy("convex_safe")),
    "general": (l2, LrPolicy("near_optimal_general")),
    "lp:4": (lambda: lp(4), LrPolicy("near_optimal_lp", p=4)),
    "const": (l2, LrPolicy("constant", eta=1e-3)),
}

chains = st.lists(st.integers(1, 6), min_size=2, max_size=6)  # depth 1..5
orderings = st.sampled_from(optim.ORDERINGS)
seeds = st.integers(0, 2**32 - 1)


def _problem(dims, m, seed, lf):
    """Random layers and data on which ``optim._reduce`` engages nothing."""
    rng = np.random.default_rng(seed)
    layers = [
        rng.normal(0.0, 1.0 / np.sqrt(dims[l - 1]), size=(dims[l], dims[l - 1]))
        for l in range(1, len(dims))
    ]
    m = m if lf.power != 2 else min(m, dims[0])
    data = Dataset(x=rng.normal(size=(dims[0], m)), y=rng.uniform(-1, 2, size=(dims[-1], m)))
    net = Network(layers)
    run = optim._reduce(net, data, lf, 0.0)
    assert run.work is net and run.samples is data
    return net, data


def _outcome(run):
    """*run*'s result, or the type and message of the error it raises."""
    try:
        return run()
    except (RuntimeError, ValueError) as exc:
        return type(exc), str(exc)


# A run may diverge (GD at the reference rate, a constant rate): both sides must then
# raise the same error, after the same overflow warnings.
DIVERGES = pytest.mark.filterwarnings(
    "ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning"
)


@DIVERGES
@settings(max_examples=80, deadline=None)
@given(
    dims=chains, m=st.integers(1, 8), seed=seeds, ordering=orderings,
    sweeps=st.integers(1, 3), policy_name=st.sampled_from(sorted(POLICIES)),
)
def test_bcgd_steps_are_the_runners_steps(dims, m, seed, ordering, sweeps, policy_name):
    make_loss, policy = POLICIES[policy_name]
    lf = make_loss()
    net, data = _problem(dims, m, seed, lf)
    stepped = net.copy()
    want = _outcome(lambda: run_bcgd(
        net, data, lf, policy, ordering, max_sweeps=sweeps, target_dist=-math.inf
    ).records)

    def steps():
        state, records = SweepState(depth=stepped.depth, ordering=ordering), []
        for _ in range(sweeps * stepped.depth):
            lr = compute_lr(policy, stepped, data, lf, state)
            records.append(bcgd_step(stepped, data, lf, state, policy))
            assert lr == records[-1].lr
        return records

    assert _outcome(steps) == want
    if isinstance(want, list):
        assert all(w.tobytes() == v.tobytes() for w, v in zip(net.layers, stepped.layers))


@DIVERGES
@settings(max_examples=60, deadline=None)
@given(
    dims=chains, m=st.integers(1, 8), seed=seeds, ordering=orderings,
    sweeps=st.integers(1, 3), eta=st.sampled_from([0.5, 1.0, 1.5]),
)
def test_bcsgd_steps_are_the_runners_steps(dims, m, seed, ordering, sweeps, eta):
    net, data = _problem(dims, m, seed, l2())
    stepped = net.copy()
    want = _outcome(lambda: sgd.run_bcsgd(net, data, l2(), eta, sweeps, seed, ordering)[0].records)
    drawn_from = []
    draw = sgd._draw

    def recording_draw(probs, rng):
        drawn_from.append(probs)
        return draw(probs, rng)

    def steps():
        state, records = SweepState(depth=stepped.depth, ordering=ordering), []
        rng = np.random.default_rng(seed)
        for _ in range(sweeps * stepped.depth):
            probs = sgd.sampling_distribution(stepped, data, state).probs
            before, at = stepped.copy(), replace(state, multi_index=list(state.multi_index))
            records.append(sgd.bcsgd_step(stepped, data, l2(), state, eta, rng))
            assert probs.tobytes() == drawn_from[-1].tobytes()
            assert sgd.bcsgd_lr(before, data, at, records[-1].sample_index, eta) == records[-1].lr
        return records

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sgd, "_draw", recording_draw)
        got = _outcome(steps)
    assert got == want
    if isinstance(want, list):
        assert all(w.tobytes() == v.tobytes() for w, v in zip(net.layers, stepped.layers))


@DIVERGES
@settings(max_examples=40, deadline=None)
@given(dims=chains, m=st.integers(1, 8), seed=seeds, iters=st.integers(1, 4), lp4=st.booleans())
def test_gd_steps_are_the_runners_steps(dims, m, seed, iters, lp4):
    lf = lp(4) if lp4 else l2()
    net, data = _problem(dims, m, seed, lf)
    stepped = net.copy()
    eta = reference_gd_rate(net, data)
    want = _outcome(lambda: run_gd(net, data, lf, eta, max_iters=iters, target_dist=-math.inf).records)

    def steps():
        state = SweepState(depth=stepped.depth)
        return [gd_step(stepped, data, lf, eta, state=state) for _ in range(iters)]

    assert _outcome(steps) == want
