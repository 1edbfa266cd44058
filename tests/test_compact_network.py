"""A chain with padding is built, trained and saved from its head blocks alone.

``initializers.initialize`` builds the orth-identity, identity and balanced
inits of a chain wider than ``max(d_in, d_out)`` compact
(``network.Network._padded``): it allocates only the head blocks, and every
runner trains them in place, as the network's own head chain.  These tests
pin that the compact network and its dense copy
``Network([w.copy() for w in net.layers])`` are one network to every runner,
snapshot and reader, that only a read or an assignment of ``layers`` makes
the network dense (the first read builds the dense layers), and that setup,
a run, the loss readers and ``layer_gradient`` never pay for the padding.
"""

import math
import os
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from deeplinlab import optim, sgd
from deeplinlab.data import Dataset, gen_input_gaussian, gen_output_uniform
from deeplinlab.initializers import InitScheme, initialize
from deeplinlab.losses import l2, layer_gradient, residual_objective, total_loss
from deeplinlab.network import Network, end_to_end, save_network
from deeplinlab.optim import (
    ORDERINGS, LrPolicy, SweepState, bcgd_step, gd_step, reference_gd_rate, run_bcgd, run_gd,
)

MiB = 2**20
WIDE = (128,) + (512,) * 49 + (10,)  # the width-irrelevance recipe's chain
POLICIES = {
    "optimal": LrPolicy("optimal_l2"),
    "theory:1": LrPolicy("theory_l2", eta=1.0),
    "convex": LrPolicy("convex_safe"),
}


def _compact(net: Network) -> bool:
    """Whether *net* still holds only its head blocks (no dense layers built)."""
    return "layers" not in vars(net)


def test_a_wide_chain_is_built_and_trained_without_its_padding():
    # fifty 512-wide layers take 97.4 MiB dense; their head blocks take 6.1 MiB
    tracemalloc.start()
    try:
        net = initialize(InitScheme("orth_identity"), WIDE, seed=0)
        built = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert built < 16 * MiB
    assert _compact(net) and net.dims == WIDE and net.depth == 50

    data = Dataset(x=gen_input_gaussian(128, 600, seed=0), y=gen_output_uniform(10, 600, seed=1))
    saved = []
    traj = run_bcgd(
        net, data, l2(), LrPolicy("optimal_l2"), "descending", max_sweeps=1,
        target_dist=-math.inf,
        on_sweep_end=lambda done, current: saved.append(save_network(current, os.devnull)),
    )
    assert len(traj) == 50 and len(saved) == 1 and _compact(net)
    # the loss readers form one dense layer at a time: 2 MiB each, against 97.4 MiB for all
    tracemalloc.start()
    try:
        residual_objective(net, data, l2())
        read = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert read < 16 * MiB and _compact(net)


def _outcome(run):
    """*run*'s result, or the type and message of the error it raises."""
    try:
        return run()
    except (RuntimeError, ValueError) as exc:
        return type(exc), str(exc)


def _train(runner, net, data, ordering, seed, folder: Path):
    """*runner* on *net* for two sweeps (iterations for GD), its network saved after
    every sweep into *folder*: the records, or the error the run raises."""
    def snapshot(done, current):
        save_network(current, folder / f"sweep_{done}.net")

    def run():
        if runner == "gd":
            traj = run_gd(net, data, l2(), reference_gd_rate(net, data), max_iters=2,
                          target_dist=-math.inf)
        elif runner == "bcsgd":
            traj = sgd.run_bcsgd(net, data, l2(), 0.5, 2, seed, ordering=ordering)[0]
        else:
            traj = run_bcgd(net, data, l2(), POLICIES[runner], ordering, max_sweeps=2,
                            target_dist=-math.inf, on_sweep_end=snapshot)
        save_network(net, folder / "final.net")
        return traj.records

    folder.mkdir()
    return _outcome(run)


def _reads(net, data):
    """The bytes of *net*'s product, the two losses and every layer gradient
    read from it, *net* left as compact as it was."""
    compact = _compact(net)
    reads = (
        end_to_end(net).tobytes(), total_loss(net, data, l2()), residual_objective(net, data, l2()),
        [layer_gradient(net, data, l2(), ell).tobytes() for ell in range(1, net.depth + 1)],
    )
    assert _compact(net) == compact
    return reads


@st.composite
def padded_chains(draw):
    """Chains of depth 1-5 whose hidden widths reach up to 3 times max(d_in, d_out),
    every width at least min(d_in, d_out) (as the balanced init needs), with padding
    wherever there is a hidden width."""
    d_in, d_out = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cap = max(d_in, d_out)
    hidden = draw(st.lists(st.integers(min(d_in, d_out), 3 * cap), max_size=4))
    assume(not hidden or max(hidden) > cap)
    return (d_in, *hidden, d_out)


@settings(max_examples=80, deadline=None)
@given(
    dims=padded_chains(), kind=st.sampled_from(["orth_identity", "identity", "balanced"]),
    m=st.integers(1, 8), seed=st.integers(0, 2**32 - 1), ordering=st.sampled_from(ORDERINGS),
    runner=st.sampled_from([*POLICIES, "bcsgd", "gd"]),
)
def test_a_compact_chain_trains_as_its_dense_copy(dims, kind, m, seed, ordering, runner):
    net = initialize(InitScheme(kind), dims, seed=seed)
    dense = Network([w.copy() for w in net.copy().layers])
    assert _compact(net) == (len(dims) > 2) and not _compact(dense)
    assert net.dims == dense.dims == dims and net.depth == dense.depth
    rng = np.random.default_rng(seed)
    data = Dataset(x=rng.normal(size=(dims[0], m)), y=rng.uniform(-1, 2, size=(dims[-1], m)))
    assert _reads(net, data) == _reads(dense, data)
    with tempfile.TemporaryDirectory() as tmp:
        got = _train(runner, net, data, ordering, seed, Path(tmp, "compact"))
        want = _train(runner, dense, data, ordering, seed, Path(tmp, "dense"))
        assert got == want
        files = sorted(p.name for p in Path(tmp, "dense").iterdir())
        assert sorted(p.name for p in Path(tmp, "compact").iterdir()) == files
        for name in files:
            assert Path(tmp, "compact", name).read_bytes() == Path(tmp, "dense", name).read_bytes()
    if not isinstance(got, tuple):  # a run that raised may leave an overflowing chain
        assert _reads(net, data) == _reads(dense, data)
    assert _compact(net) == (len(dims) > 2)
    for w, v in zip(net.layers, dense.layers):  # the first read builds net's dense layers
        assert w.tobytes() == v.tobytes() and w.shape == v.shape
        assert w.flags.c_contiguous and w.flags.owndata and w.flags.writeable
    assert not _compact(net)


def test_the_first_layers_read_makes_the_network_dense_for_every_later_run():
    # a width-12 chain (head 6): trained compact, then read, edited in place and trained
    # again, it trains as a dense network given the same history
    rng = np.random.default_rng(3)
    data = Dataset(x=rng.normal(size=(6, 40)), y=rng.uniform(-1, 2, size=(3, 40)))
    net = initialize(InitScheme("orth_identity"), (6, 12, 12, 12, 3), seed=4)
    dense = Network([w.copy() for w in net.copy().layers])
    policy = LrPolicy("optimal_l2")

    def train(n):
        return run_bcgd(n, data, l2(), policy, max_sweeps=2, target_dist=-math.inf).records

    assert train(net) == train(dense) and _compact(net)
    layers = net.layers
    assert not _compact(net) and net.layers is layers
    # an entry in layer 2's head block, then one below it (the run takes the full chain)
    for where, value in (((0, 0), 1.25), ((8, 1), 0.5)):
        net.layers[1][where] = dense.layers[1][where] = value
        assert train(net) == train(dense)
        assert all(w.tobytes() == v.tobytes() for w, v in zip(net.layers, dense.layers))
    # layers assigned, never read: the network is the one they make
    other = initialize(InitScheme("orth_identity"), (6, 12, 12, 12, 3), seed=5)
    other.layers = [w.copy() for w in dense.layers[:2]] + [np.ones((3, 12))]
    assert not _compact(other) and other.dims == (6, 12, 12, 3) and other.depth == 3


def test_the_first_layers_read_drops_the_head_chain():
    # dense exactly when layers is in __dict__: the compact form's chain, dimensions
    # and pad go with the first read (of the width-irrelevance chain, 6.1 MiB of blocks)
    net, _data = _width_12(11)
    chain = net._chain
    layers = net.layers
    assert set(vars(net)) == {"layers"} and net.layers is layers
    assert net.dims == (6, 12, 12, 12, 3) and net.depth == 4
    assert all(w[: h.shape[0], : h.shape[1]].tobytes() == h.tobytes()
               for w, h in zip(layers, chain.layers))


def _width_12(seed):
    """The width-12 orth-identity chain (head 6), compact, on m 40 > d_in 6 samples."""
    rng = np.random.default_rng(seed)
    data = Dataset(x=rng.normal(size=(6, 40)), y=rng.uniform(-1, 2, size=(3, 40)))
    return initialize(InitScheme("orth_identity"), (6, 12, 12, 12, 3), seed=seed + 1), data


@pytest.mark.parametrize("runner", ["bcgd", "bcsgd", "gd", "bcgd_step", "gd_step"])
def test_a_compact_chain_is_its_own_work_and_one_list_moves_per_step(monkeypatch, runner):
    # run.work is the network's own head chain (no copy, no scan), and each update
    # replaces the one entry of its one list of layers: nothing else is written
    net, data = _width_12(7)
    chain, update, moves = net._chain, optim._update, []

    def checked(run, ell, *args):
        assert run.net is net and run.work is chain and run.work.layers is chain.layers
        before = list(chain.layers)
        new_w = update(run, ell, *args)
        assert [w is v for w, v in zip(chain.layers, before)] == [l != ell for l in range(1, 5)]
        assert chain.layers[ell - 1] is new_w and _compact(net)
        moves.append(ell)
        return new_w

    monkeypatch.setattr(optim, "_update", checked)
    state, policy = SweepState(depth=4), LrPolicy("optimal_l2")
    if runner == "bcgd":
        run_bcgd(net, data, l2(), policy, max_sweeps=2, target_dist=-math.inf)
    elif runner == "bcsgd":
        sgd.run_bcsgd(net, data, l2(), 0.5, 2, seed=3)
    elif runner == "gd":
        run_gd(net, data, l2(), reference_gd_rate(net, data), max_iters=2, target_dist=-math.inf)
    elif runner == "bcgd_step":
        for _ in range(8):
            bcgd_step(net, data, l2(), state, policy)
    else:
        for _ in range(2):
            gd_step(net, data, l2(), reference_gd_rate(net, data), state=state)
    assert len(moves) == 8 and net._chain is chain and _compact(net)


def test_layers_read_mid_run_still_receive_every_trained_block():
    # the snapshot hook reads layers after sweep 1: from then on the network is dense
    # and the run's head chain a copy, whose every later block is written through
    net, data = _width_12(9)
    dense = Network([w.copy() for w in net.copy().layers])
    policy, seen = LrPolicy("optimal_l2"), []

    def hook(done, current):
        if done == 1:
            seen.append(current.layers)

    got = run_bcgd(net, data, l2(), policy, max_sweeps=3, target_dist=-math.inf, on_sweep_end=hook)
    want = run_bcgd(dense, data, l2(), policy, max_sweeps=3, target_dist=-math.inf)
    assert got.records == want.records and not _compact(net) and net.layers is seen[0]
    assert all(w.tobytes() == v.tobytes() for w, v in zip(net.layers, dense.layers))
