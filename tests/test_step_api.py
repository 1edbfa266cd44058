"""The single-step API takes the runners' steps, bit for bit.

``bcgd_step``, ``sgd.bcsgd_step`` and ``gd_step`` train on the run the
runners train on (``optim._reduce``: the head chain of a block-diagonal
chain, and for the square loss with m > d_in the compressed samples), take
their factors from ``network._factors``, which hands out what
``optim._sweep`` hands a runner (the same products, associated the same
way), and run the runners' step code as a one-sweep ``optim._drive``.  So
on every problem, either reduction engaged or not, N single steps from a
fresh ``SweepState`` give records equal (``==``) to the N records of the
runner, and leave the same layers.  The state functions agree with those
steps too: ``compute_lr`` gives the next record's rate, ``theory.gamma_factor``
its theory_l2 gamma bound, ``bcsgd_lr`` at the drawn example its rate, and
``sampling_distribution`` the distribution the step draws from.

Every step reads the ranks (r, r_x) from its run object (``optim._Run.ranks``,
taken once per run, before any layer moves): ``run_bcgd`` and ``run_bcsgd``
take them once, and ``bcgd_step`` and ``sgd.bcsgd_step`` at each state; on
these problems the two agree.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deeplinlab import optim, sgd, theory
from deeplinlab.data import Dataset, gen_input_gaussian
from deeplinlab.initializers import InitScheme, initialize
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


def _problem(dims, m, seed, head):
    """Random data and a chain on which ``optim._reduce`` may engage either part.

    With *head*, an orth-identity chain whose hidden widths exceed
    max(d_in, d_out) (the width part, at depth 2 and above); else random
    layers, which have no zero off-diagonal blocks.  The square loss
    compresses the samples wherever m > d_in (the sample part).
    """
    rng = np.random.default_rng(seed)
    if head:
        cap = max(dims[0], dims[-1])
        dims = [dims[0], *(cap + n for n in dims[1:-1]), dims[-1]]
        net = initialize(InitScheme("orth_identity"), dims, seed=seed)
    else:
        net = Network([
            rng.normal(0.0, 1.0 / np.sqrt(dims[l - 1]), size=(dims[l], dims[l - 1]))
            for l in range(1, len(dims))
        ])
    data = Dataset(x=rng.normal(size=(dims[0], m)), y=rng.uniform(-1, 2, size=(dims[-1], m)))
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
    dims=chains, m=st.integers(1, 8), seed=seeds, ordering=orderings, sweeps=st.integers(1, 3),
    policy_name=st.sampled_from(sorted(POLICIES)), head=st.booleans(),
)
def test_bcgd_steps_are_the_runners_steps(dims, m, seed, ordering, sweeps, policy_name, head):
    make_loss, policy = POLICIES[policy_name]
    lf = make_loss()
    net, data = _problem(dims, m, seed, head)
    stepped = net.copy()
    want = _outcome(lambda: run_bcgd(
        net, data, lf, policy, ordering, max_sweeps=sweeps, target_dist=-math.inf
    ).records)
    theory_l2 = policy.kind == "theory_l2"

    def steps():
        state, records = SweepState(depth=stepped.depth, ordering=ordering), []
        for _ in range(sweeps * stepped.depth):
            lr = compute_lr(policy, stepped, data, lf, state)
            gamma = theory.gamma_factor(stepped, data, state, policy.eta) if theory_l2 else None
            records.append(bcgd_step(stepped, data, lf, state, policy))
            assert (lr, gamma) == (records[-1].lr, records[-1].gamma_bound)
        return records

    assert _outcome(steps) == want
    if isinstance(want, list):
        assert all(w.tobytes() == v.tobytes() for w, v in zip(net.layers, stepped.layers))


@DIVERGES
@settings(max_examples=60, deadline=None)
@given(
    dims=chains, m=st.integers(1, 8), seed=seeds, ordering=orderings,
    sweeps=st.integers(1, 3), eta=st.sampled_from([0.5, 1.0, 1.5]), head=st.booleans(),
)
def test_bcsgd_steps_are_the_runners_steps(dims, m, seed, ordering, sweeps, eta, head):
    net, data = _problem(dims, m, seed, head)
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
            probs = sgd.sampling_distribution(stepped, data, state)
            assert (probs >= 0).all() and abs(probs.sum() - 1.0) <= 1e-12
            before, at = stepped.copy(), replace(state)
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
@given(
    dims=chains, m=st.integers(1, 8), seed=seeds, iters=st.integers(1, 4), lp4=st.booleans(),
    head=st.booleans(),
)
def test_gd_steps_are_the_runners_steps(dims, m, seed, iters, lp4, head):
    lf = lp(4) if lp4 else l2()
    net, data = _problem(dims, m, seed, head)
    stepped = net.copy()
    eta = reference_gd_rate(net, data)
    want = _outcome(lambda: run_gd(net, data, lf, eta, max_iters=iters, target_dist=-math.inf).records)

    def steps():
        state = SweepState(depth=stepped.depth)
        return [gd_step(stepped, data, lf, eta, state=state) for _ in range(iters)]

    assert _outcome(steps) == want
    if isinstance(want, list):
        assert all(w.tobytes() == v.tobytes() for w, v in zip(net.layers, stepped.layers))


def test_steps_and_state_views_train_on_the_runners_reduced_run():
    # an orth-identity chain wider than max(d_in, d_out) on m > d_in square-loss data:
    # both parts of the reduction engage, and every entry point sees the runner's run
    net = initialize(InitScheme("orth_identity"), (3, 7, 7, 2), seed=5)
    rng = np.random.default_rng(6)
    data = Dataset(x=rng.normal(size=(3, 12)), y=rng.uniform(-1, 2, size=(2, 12)))
    run = optim._reduce(net, data, l2(), 0.0)
    assert run.work is not net and run.samples is not data

    for policy in (LrPolicy("optimal_l2"), LrPolicy("theory_l2", eta=1.0)):
        ran, stepped, state = net.copy(), net.copy(), SweepState(depth=net.depth)
        want = run_bcgd(ran, data, l2(), policy, max_sweeps=2, target_dist=-math.inf).records
        got = []
        for _ in want:
            lr = compute_lr(policy, stepped, data, l2(), state)
            got.append(bcgd_step(stepped, data, l2(), state, policy))
            assert lr == got[-1].lr
        assert got == want
        assert all(w.tobytes() == v.tobytes() for w, v in zip(ran.layers, stepped.layers))

    drawn_from, draw = [], sgd._draw
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sgd, "_draw", lambda probs, rng: drawn_from.append(probs) or draw(probs, rng))
        want = sgd.run_bcsgd(net.copy(), data, l2(), 0.5, 2, seed=7)[0].records
    stepped, state, rng = net.copy(), SweepState(depth=net.depth), np.random.default_rng(7)
    for probs, rec in zip(drawn_from, want):
        assert sgd.sampling_distribution(stepped, data, state).tobytes() == probs.tobytes()
        assert sgd.bcsgd_lr(stepped, data, state, rec.sample_index, 0.5) == rec.lr
        assert sgd.bcsgd_step(stepped, data, l2(), state, 0.5, rng) == rec

    ran, stepped, state = net.copy(), net.copy(), SweepState(depth=net.depth)
    eta = reference_gd_rate(net, data)
    want = run_gd(ran, data, l2(), eta, max_iters=3, target_dist=-math.inf).records
    assert [gd_step(stepped, data, l2(), eta, state=state) for _ in want] == want
    assert all(w.tobytes() == v.tobytes() for w, v in zip(ran.layers, stepped.layers))


def test_bcgd_state_views_raise_the_steps_non_finite_gradient_error():
    # layers of 1e200 overflow every prediction: the state views stop where the step
    # does, with its message and without a numpy warning
    net = Network([np.full((4, 3), 1e200), np.full((4, 4), 1e200), np.full((2, 4), 1e200)])
    data = Dataset(x=np.ones((3, 5)), y=np.ones((2, 5)))
    policy = LrPolicy("theory_l2", eta=1.0)
    state = SweepState(depth=3, sweep=1, position=2)
    message = "^non-finite gradient at iteration 5, layer 2 "
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for view in (
            lambda: compute_lr(policy, net, data, l2(), state),
            lambda: theory.gamma_factor(net, data, state, policy.eta),
            lambda: bcgd_step(net, data, l2(), state, policy),
        ):
            with pytest.raises(RuntimeError, match=message):
                view()


STATE_ENTRIES = {  # every entry that reads a SweepState, on a depth-3 chain
    "bcgd_step": lambda net, data, state: bcgd_step(net, data, l2(), state, LrPolicy("optimal_l2")),
    "bcsgd_step": lambda net, data, state: sgd.bcsgd_step(
        net, data, l2(), state, 0.5, np.random.default_rng(0)),
    "gd_step": lambda net, data, state: gd_step(net, data, l2(), 0.1, state=state),
    "compute_lr": lambda net, data, state: compute_lr(LrPolicy("optimal_l2"), net, data, l2(), state),
    "sampling_distribution": lambda net, data, state: sgd.sampling_distribution(net, data, state),
    "bcsgd_lr": lambda net, data, state: sgd.bcsgd_lr(net, data, state, 0, 0.5),
    "floor_brackets": lambda net, data, state: sgd.floor_brackets(net, data, state, 0.5, 1.0),
    "gamma_factor": lambda net, data, state: theory.gamma_factor(net, data, state, 1.0),
}

STEP_OF = {  # each state view's step: the step whose evaluation the view reads
    "compute_lr": "bcgd_step",
    "gamma_factor": "bcgd_step",
    "sampling_distribution": "bcsgd_step",
    "bcsgd_lr": "bcsgd_step",
    "floor_brackets": "bcsgd_step",
}


def _raised(entry, net, data, state):
    """The type and message of what *entry* raises at a copy of the state, with
    every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Exception) as info:
            STATE_ENTRIES[entry](net.copy(), data, replace(state))
    return type(info.value), str(info.value)


@pytest.mark.parametrize("entry", sorted(STATE_ENTRIES))
def test_every_entry_stops_on_an_overflowing_state_without_a_numpy_warning(entry):
    # layers of 1e200 overflow every product (m > d_in: BCSGD's weights go through the
    # compression's Q): each entry raises with no numpy warning, and each state view
    # raises its step's error at that state
    x = gen_input_gaussian(5, 12, seed=3)
    data = Dataset(x=x, y=np.random.default_rng(3).uniform(-1, 2, size=(2, 12)))
    layers = initialize(InitScheme("orth_identity"), (5, 5, 5, 2), seed=4).layers
    net = Network([1e200 * w for w in layers])
    state = SweepState(depth=3, position=2)
    raised = _raised(entry, net, data, state)
    assert not issubclass(raised[0], Warning)
    if entry in STEP_OF:
        assert raised == _raised(STEP_OF[entry], net, data, state)


@pytest.mark.parametrize("depth, ordering", [(2, "descending"), (5, "ascending"), (5, "descending")])
@pytest.mark.parametrize("entry", sorted(STATE_ENTRIES))
def test_a_state_of_another_depth_is_rejected_before_any_work(entry, depth, ordering):
    # a depth-2 descending state would train layer 2 first (the sweep starts at 3), a
    # depth-5 ascending one would pass unseen, and a depth-5 descending one points past
    # the top layer
    rng = np.random.default_rng(8)
    net = initialize(InitScheme("random"), (3, 4, 4, 2), seed=9)
    data = Dataset(x=rng.normal(size=(3, 10)), y=rng.uniform(-1, 2, size=(2, 10)))
    before = [w.tobytes() for w in net.layers]
    state = SweepState(depth=depth, ordering=ordering)
    with pytest.raises(ValueError, match=f"^state depth {depth} does not match network depth 3$"):
        STATE_ENTRIES[entry](net, data, state)
    assert state == SweepState(depth=depth, ordering=ordering)
    assert [w.tobytes() for w in net.layers] == before
