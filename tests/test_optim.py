import copy
import math
from dataclasses import replace

import numpy as np
import pytest

from deeplinlab import optim, sgd
from deeplinlab.data import Dataset, gen_input_gaussian, gen_output_uniform
from deeplinlab.initializers import InitScheme, initialize
from deeplinlab.losses import l2, lp, total_loss
from deeplinlab.network import Network
from deeplinlab.optim import (
    LrPolicy,
    StepRecord,
    SweepState,
    bcgd_step,
    compute_lr,
    gd_step,
    reference_gd_rate,
    run_bcgd,
    run_gd,
)
from deeplinlab.oracle import optimal_loss, reference_objective


def make_data(d_in=6, d_out=3, m=20, seed=0):
    x = gen_input_gaussian(d_in, m, seed=seed)
    y = gen_output_uniform(d_out, m, seed=seed + 1)
    return Dataset(x=x, y=y)


def golden_section(fun, lo, hi, iters=200):
    phi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)


def test_optimal_lr_is_exact_line_search_single_layer():
    data = make_data(d_in=4, d_out=2, m=9, seed=3)
    rng = np.random.default_rng(4)
    w = rng.normal(size=(2, 4))
    net = Network([w.copy()])
    state = SweepState(depth=1)
    lr = compute_lr(LrPolicy("optimal_l2"), net, data, l2(), state)
    g = (w @ data.x - data.y) @ data.x.T

    def loss_at(eta):
        probe = Network([w - eta * g])
        return total_loss(probe, data, l2())

    best = golden_section(loss_at, 0.0, 4.0 * lr)
    assert lr == pytest.approx(best, rel=1e-6)


def test_theory_lr_at_orth_identity_init():
    data = make_data(d_in=5, d_out=2, m=15, seed=5)
    net = initialize(InitScheme("orth_identity"), (5, 5, 5, 2), seed=6)
    x_spec = float(np.linalg.svd(data.x, compute_uv=False)[0])
    for ordering in ("ascending", "descending"):
        state = SweepState(depth=3, ordering=ordering)
        lr = compute_lr(LrPolicy("theory_l2", eta=1.0), net, data, l2(), state)
        assert lr == pytest.approx(1.0 / x_spec**2, rel=1e-10)


def test_lp2_policy_equals_optimal_exactly():
    data = make_data(seed=7)
    net = initialize(InitScheme("random"), (6, 6, 3), seed=8)
    state = SweepState(depth=2)
    a = compute_lr(LrPolicy("optimal_l2"), net, data, l2(), state)
    b = compute_lr(LrPolicy("near_optimal_lp", p=2), net, data, lp(2), state)
    assert b == pytest.approx(a, rel=1e-12)


def test_convex_safe_upper_endpoint_for_l2():
    data = make_data(seed=9)
    net = initialize(InitScheme("random"), (6, 6, 3), seed=10)
    state = SweepState(depth=2)
    safe = compute_lr(LrPolicy("convex_safe"), net, data, l2(), state)
    theory = compute_lr(LrPolicy("theory_l2", eta=1.0), net, data, l2(), state)
    assert safe == pytest.approx(theory, rel=1e-12)  # C == 1 for the square loss


def test_policy_validation():
    with pytest.raises(ValueError):
        LrPolicy("theory_l2", eta=2.0)
    with pytest.raises(ValueError):
        LrPolicy("near_optimal_lp", p=3)
    with pytest.raises(ValueError):
        LrPolicy("nonsense")


def test_zero_gradient_step_is_noop():
    # m = 8 > d_in = 3: the step trains on the compressed samples (R^T, Y Q), as
    # run_bcgd's does, where the exact fit leaves a rounding-level gradient
    rng = np.random.default_rng(11)
    x = rng.normal(size=(3, 8))
    w = rng.normal(size=(2, 3))
    data = Dataset(x=x, y=w @ x)
    net = Network([w.copy()])
    state = SweepState(depth=1)
    rec = bcgd_step(net, data, l2(), state, LrPolicy("optimal_l2"))
    run = run_bcgd(Network([w.copy()]), data, l2(), LrPolicy("optimal_l2"), max_sweeps=1)
    assert rec == run.records[0]
    assert np.allclose(net.layers[0], w)
    assert rec.loss_after == pytest.approx(rec.loss_before, abs=1e-18)


def test_reference_gd_rate_of_a_zero_x_is_zero():
    # ||X||_2 = 0: the denominator 3 L ||X||^2 is below the floor, so the step is skipped;
    # ||X||_2 of 1e160 squares past the float range: the denominator is inf, the rate 0
    x = np.random.default_rng(0).normal(size=(3, 5))
    for x in (np.zeros((3, 5)), x * 1e160):
        data = Dataset(x=x, y=np.ones((2, 5)))
        assert reference_gd_rate(Network([np.ones((2, 3))]), data) == 0.0


def test_exact_zero_gradient_skips_the_step():
    # m = d_in = 3: no compression, the fit is exact in floating point and G = 0
    rng = np.random.default_rng(11)
    x = rng.normal(size=(3, 3))
    w = rng.normal(size=(2, 3))
    data = Dataset(x=x, y=w @ x)
    net = Network([w.copy()])
    rec = bcgd_step(net, data, l2(), SweepState(depth=1), LrPolicy("optimal_l2"))
    assert rec.grad_frobenius == 0.0
    assert rec.lr == 0.0  # degenerate denominator -> skip-step convention
    assert net.layers[0].tobytes() == w.tobytes()


def test_exact_drop_identity_per_step():
    data = make_data(seed=12)
    net = initialize(InitScheme("orth_identity"), (6, 6, 6, 3), seed=13)
    state = SweepState(depth=3, ordering="descending")
    ref = optimal_loss(data.x, data.y, 3)
    for _ in range(9):
        rec = bcgd_step(net, data, l2(), state, LrPolicy("optimal_l2"), ref)
        predicted = rec.loss_before - rec.lr * rec.grad_frobenius**2
        assert rec.loss_after == pytest.approx(predicted, rel=1e-8)


def test_single_layer_bcgd_equals_gd_bitwise():
    data = make_data(d_in=4, d_out=2, m=10, seed=14)
    rng = np.random.default_rng(15)
    w = rng.normal(size=(2, 4))
    net_a = Network([w.copy()])
    net_b = Network([w.copy()])
    state = SweepState(depth=1)
    lr = compute_lr(LrPolicy("optimal_l2"), net_a, data, l2(), state)
    bcgd_step(net_a, data, l2(), SweepState(depth=1), LrPolicy("constant", eta=lr))
    gd_step(net_b, data, l2(), lr)
    assert np.array_equal(net_a.layers[0], net_b.layers[0])


def test_run_bcgd_zero_sweeps():
    data = make_data(seed=16)
    net = initialize(InitScheme("identity"), (6, 6, 3), seed=0)
    before = [w.copy() for w in net.layers]
    traj = run_bcgd(net, data, l2(), LrPolicy("optimal_l2"), max_sweeps=0)
    assert len(traj) == 0
    for a, b in zip(net.layers, before):
        assert np.array_equal(a, b)


def test_run_bcgd_deterministic():
    data = make_data(seed=17)

    def run():
        net = initialize(InitScheme("orth_identity"), (6, 6, 3), seed=18)
        return run_bcgd(net, data, l2(), LrPolicy("optimal_l2"), max_sweeps=4)

    t1, t2 = run(), run()
    assert len(t1) == len(t2)
    for r1, r2 in zip(t1.records, t2.records):
        assert r1 == r2


def test_monotone_descent_theory_policy():
    data = make_data(seed=19)
    for eta in (0.5, 1.0):
        net = initialize(InitScheme("orth_identity"), (6, 6, 6, 3), seed=20)
        traj = run_bcgd(
            net, data, l2(), LrPolicy("theory_l2", eta=eta), max_sweeps=10
        )
        for rec in traj.records:
            assert rec.loss_after <= rec.loss_before * (1 + 1e-12) + 1e-12


def test_ordering_contract():
    data = make_data(seed=21)
    net_a = initialize(InitScheme("orth_identity"), (6, 6, 6, 3), seed=22)
    asc = run_bcgd(net_a, data, l2(), LrPolicy("optimal_l2"), "ascending", max_sweeps=2)
    net_d = initialize(InitScheme("orth_identity"), (6, 6, 6, 3), seed=22)
    desc = run_bcgd(net_d, data, l2(), LrPolicy("optimal_l2"), "descending", max_sweeps=2)
    assert [r.layer for r in asc.records] == [1, 2, 3, 1, 2, 3]
    assert [r.layer for r in desc.records] == [3, 2, 1, 3, 2, 1]


def test_sweep_state_multi_index():
    state = SweepState(depth=3, ordering="descending")
    for _ in range(3):
        state.advance()
    assert state.multi_index == [1, 1, 1]
    assert state.sweep == 1 and state.position == 1
    with pytest.raises(ValueError):
        SweepState(depth=2, ordering="sideways")


def test_sweep_state_multi_index_is_derived_from_its_position():
    assert SweepState(depth=3, sweep=5).multi_index == [5, 5, 5]
    # slot 3 of sweep 2: ascending has visited layers 1 and 2, descending layers 3 and 2
    assert SweepState(depth=3, sweep=2, position=3).multi_index == [3, 3, 2]
    assert SweepState(depth=3, ordering="descending", sweep=2, position=3).multi_index == [2, 3, 3]


@pytest.mark.parametrize("copy_state", [replace, copy.copy], ids=["replace", "copy"])
def test_sweep_state_copies_are_independent(copy_state):
    state = SweepState(depth=3)
    twin = copy_state(state)
    twin.advance()
    assert state.position == 1 and state.multi_index == [0, 0, 0]
    assert twin.position == 2 and twin.multi_index == [1, 0, 0]


@pytest.mark.parametrize("lf,policy", [
    (l2(), LrPolicy("near_optimal_lp", p=4)),
    (lp(4), LrPolicy("near_optimal_lp", p=6)),
    (lp(4), LrPolicy("theory_l2", eta=1.0)),
    (lp(4), LrPolicy("optimal_l2")),
], ids=["l2-lp:4", "l4-lp:6", "l4-theory:1", "l4-optimal"])
def test_library_rejects_a_policy_that_does_not_suit_the_loss(lf, policy):
    data = make_data(seed=27)
    net = initialize(InitScheme("orth_identity"), (6, 6, 3), seed=28)
    before = [w.copy() for w in net.layers]
    for call in (
        lambda: run_bcgd(net, data, lf, policy, max_sweeps=1),
        lambda: bcgd_step(net, data, lf, SweepState(depth=net.depth), policy),
        lambda: compute_lr(policy, net, data, lf, SweepState(depth=net.depth)),
    ):
        with pytest.raises(ValueError, match="l2 loss|does not match"):
            call()
    assert all(np.array_equal(w, w0) for w, w0 in zip(net.layers, before))


@pytest.mark.parametrize("depth,position", [(3, 0), (3, 4), (3, -1), (0, 1)])
def test_sweep_state_rejects_a_slot_outside_its_sweep(depth, position):
    # slot -1 or 0 would index the layer order from its end
    with pytest.raises(ValueError, match="position"):
        SweepState(depth=depth, position=position)


def test_run_bcgd_stops_at_target():
    data = make_data(seed=23)
    net = initialize(InitScheme("orth_identity"), (6, 6, 6, 3), seed=24)
    traj = run_bcgd(
        net, data, l2(), LrPolicy("optimal_l2"), "descending",
        max_sweeps=100, target_dist=1e-6,
    )
    assert traj.final_dist() <= 1e-6
    assert traj.records[-1].sweep < 100


def test_gd_zero_eta_noop():
    data = make_data(seed=25)
    net = initialize(InitScheme("random"), (6, 6, 3), seed=26)
    before = [w.copy() for w in net.layers]
    gd_step(net, data, l2(), 0.0)
    for a, b in zip(net.layers, before):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("runner", ["gd_step", "run_gd"])
def test_gd_rejects_negative_eta_before_the_oracle(monkeypatch, runner):
    data = make_data(seed=25)
    net = initialize(InitScheme("random"), (6, 6, 3), seed=26)

    def no_oracle(*args):
        raise AssertionError("the oracle ran before eta was checked")

    monkeypatch.setattr(optim, "_resolve_oracle", no_oracle)
    with pytest.raises(ValueError, match="eta must be >= 0"):
        {"gd_step": gd_step, "run_gd": run_gd}[runner](net, data, l2(), -0.1)


def test_gd_gradients_evaluated_before_any_update():
    data = make_data(seed=27)
    net = initialize(InitScheme("random"), (6, 5, 3), seed=28)
    eta = 1e-3
    # manual simultaneous update computed layer-by-layer in reverse order
    from deeplinlab.losses import layer_gradient

    frozen = Network([w.copy() for w in net.layers])
    grads = [layer_gradient(frozen, data, l2(), ell) for ell in (2, 1)][::-1]
    expected = [w - eta * g for w, g in zip(frozen.layers, grads)]
    gd_step(net, data, l2(), eta)
    for got, want in zip(net.layers, expected):
        assert np.max(np.abs(got - want)) < 1e-12


def test_run_gd_descends_with_reference_rate():
    data = make_data(seed=29)
    net = initialize(InitScheme("orth_identity"), (6, 6, 3), seed=30)
    eta = reference_gd_rate(net, data)
    assert eta == pytest.approx(
        3 / (3 * 2 * float(np.linalg.svd(data.x, compute_uv=False)[0]) ** 2)
    )
    traj = run_gd(net, data, l2(), eta, max_iters=50)
    assert traj.records[-1].loss_after < traj.records[0].loss_before


def test_step_records_have_contiguous_distances():
    data = make_data(seed=31)
    net = initialize(InitScheme("orth_identity"), (6, 6, 3), seed=32)
    traj = run_bcgd(net, data, l2(), LrPolicy("optimal_l2"), max_sweeps=3)
    for prev, cur in zip(traj.records, traj.records[1:]):
        assert cur.dist_before == pytest.approx(prev.dist_after, rel=1e-12, abs=1e-15)
    assert isinstance(traj.records[0], StepRecord)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergent_run_aborts_with_diagnostics():
    data = make_data(seed=33)
    net = initialize(InitScheme("random"), (6, 6, 3), seed=34)
    with pytest.raises(RuntimeError, match="non-finite"):
        run_bcgd(net, data, l2(), LrPolicy("constant", eta=1e12), max_sweeps=50)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_finite_gradient_with_overflowing_norm_fails_as_an_update():
    # every entry of G is finite (about 1e200), but ||G||_F^2 overflows:
    # the gradient check passes, and the nan rate fails the update check
    rng = np.random.default_rng(0)
    data = Dataset(x=rng.normal(size=(4, 10)) * 1e100, y=rng.uniform(-1, 2, size=(2, 10)))
    net = initialize(InitScheme("orth_identity"), (4, 4, 2), seed=1)
    with pytest.raises(RuntimeError) as info:
        run_bcgd(net, data, l2(), LrPolicy("optimal_l2"), max_sweeps=1, oracle_objective=0.0)
    assert str(info.value).startswith("non-finite update at iteration 1, layer 1 ")
    assert "(lr nan, |G|_F inf)" in str(info.value)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("ordering, layer", [("ascending", 1), ("descending", 3)])
def test_non_finite_gradient_names_the_step_and_keeps_the_layer(ordering, layer):
    data = make_data(d_in=4, d_out=2, m=10, seed=39)
    net = initialize(InitScheme("random"), (4, 4, 4, 2), seed=40)
    net.layers[1][0, 0] = np.inf  # after construction, which rejects it
    before = [w.tobytes() for w in net.layers]
    with pytest.raises(RuntimeError, match=f"non-finite gradient at iteration 1, layer {layer} "):
        run_bcgd(net, data, l2(), LrPolicy("optimal_l2"), ordering=ordering, oracle_objective=0.0)
    assert [w.tobytes() for w in net.layers] == before


def test_general_policy_equals_optimal_for_square_loss():
    data = make_data(seed=35)
    net = initialize(InitScheme("random"), (6, 6, 3), seed=36)
    state = SweepState(depth=2, ordering="descending")
    a = compute_lr(LrPolicy("optimal_l2"), net, data, l2(), state)
    b = compute_lr(LrPolicy("near_optimal_general"), net, data, l2(), state)
    assert b == a  # unit curvature bound: the two formulas coincide


@pytest.mark.parametrize("m", [4, 40], ids=["uncompressed", "compressed"])
@pytest.mark.parametrize("policy", [LrPolicy("theory_l2", eta=1.0), LrPolicy("convex_safe")])
def test_spectral_runs_take_the_samples_spectrum_once(monkeypatch, policy, m):
    data = make_data(d_in=5, d_out=2, m=m, seed=40)
    net = initialize(InitScheme("random"), (5, 5, 5, 2), seed=41)  # so no B X equals X
    samples = data._compressed[0] if m > data.d_in else data  # what optim._reduce trains on
    svds, real = [], np.linalg.svd

    def recording(a, *args, **kwargs):
        svds.append(np.array(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    run_bcgd(net, data, l2(), policy, max_sweeps=2, target_dist=-math.inf, oracle_objective=0.0)
    # layer 1's B X is the samples' X on both sweeps: one SVD, for the cache
    assert sum(s.shape == samples.x.shape and np.array_equal(s, samples.x) for s in svds) == 1


def test_identity_singular_values_are_exactly_one():
    # at the top layer optim._spectra takes A = I (n_L x n_L) to have these, with no SVD
    for n in range(1, 131):
        assert np.linalg.svd(np.eye(n), compute_uv=False).tobytes() == np.ones(n).tobytes()


@pytest.mark.parametrize("dims", [(5, 5, 5, 2), (5, 2)], ids=["depth3", "depth1"])
@pytest.mark.parametrize("ordering", optim.ORDERINGS)
@pytest.mark.parametrize("runner", ["theory:1", "convex", "optimal", "bcsgd"])
def test_layerwise_runs_take_no_svd_at_either_end_of_the_chain(monkeypatch, runner, ordering, dims):
    data = make_data(d_in=5, d_out=2, m=4, seed=42)  # fresh, so X's spectrum is not cached yet
    net = initialize(InitScheme("random"), dims, seed=43)
    top = net.layers[-1]
    spectra, svds, real_gram, real_svd = [], [], optim._gram_svals, np.linalg.svd

    def recording_gram(a):
        s, e = real_gram(a)
        spectra.append((a, e))
        return s, e

    def recording(a, *args, **kwargs):
        svds.append(a)
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(optim, "_gram_svals", recording_gram)
    monkeypatch.setattr(np.linalg, "svd", recording)
    if runner == "bcsgd":
        sgd.run_bcsgd(net, data, l2(), 0.5, 2, seed=0, ordering=ordering, oracle_objective=0.0)
    else:
        policy = {"theory:1": LrPolicy("theory_l2", eta=1.0), "convex": LrPolicy("convex_safe"),
                  "optimal": LrPolicy("optimal_l2")}[runner]
        run_bcgd(net, data, l2(), policy, ordering=ordering, max_sweeps=2,
                 target_dist=-math.inf, oracle_objective=0.0)
    # the top layer's A is the identity and layer 1's B X is X, whose spectrum is cached:
    # per sweep, a step spectrum of A at layers 1..L-1 and of B X at layers 2..L, from the
    # Gram (matcore._gram_svals) in BCGD and by SVD in BCSGD; other SVDs only for X's
    # once, the ranks and the spectra the Gram path declines
    factors = [s for s, _ in spectra] + svds
    assert not any(s.shape[0] == s.shape[1] and np.array_equal(s, np.eye(len(s))) for s in factors)
    ranked = runner in ("theory:1", "bcsgd")  # the ranks (r, r_x): the top layer's once per run
    assert sum(s is top for s in svds) == ranked
    steps = 2 * 2 * (len(dims) - 2)
    gram = runner in ("theory:1", "convex")
    assert len(spectra) == (steps if gram else 0)
    declined = sum(e == 0.0 for _, e in spectra)  # each one SVD of its factor
    step_svds = declined if gram else steps if runner == "bcsgd" else 0
    assert len(svds) == (0 if runner == "optimal" else 1 + ranked + step_svds)


@pytest.mark.parametrize("runner", ["theory:1", "convex"])
def test_step_spectra_come_from_the_gram_within_its_bound(monkeypatch, runner):
    # width 64, orth-identity, on m 100 > d_in 64 (compressed samples), ascending: every
    # step spectrum comes from the Gram and lies within its own e of the SVD of the same
    # factor in each sigma_i^2, so np.linalg.svd runs only for the ranks (the top
    # layer's, for theory:1) and for the samples' X, whose spectrum is cached
    data = make_data(d_in=64, d_out=4, m=100, seed=44)
    net = initialize(InitScheme("orth_identity"), (64,) * 5 + (4,), seed=45)
    top = net.layers[-1]
    errors, svds, real_gram, real_svd = [], [], optim._gram_svals, np.linalg.svd

    def checked(a):
        s, e = real_gram(a)
        want = real_svd(a, compute_uv=False)
        assert s.shape == want.shape and np.all(np.abs(s * s - want * want) <= e)
        errors.append(e)
        return s, e

    def recording(a, *args, **kwargs):
        svds.append(a)
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(optim, "_gram_svals", checked)
    monkeypatch.setattr(np.linalg, "svd", recording)
    policy = LrPolicy("theory_l2", eta=1.0) if runner == "theory:1" else LrPolicy("convex_safe")
    run_bcgd(net, data, l2(), policy, ordering="ascending", max_sweeps=2,
             target_dist=-math.inf, oracle_objective=0.0)
    assert len(errors) == 2 * 2 * 4 and all(e > 0.0 for e in errors)
    ranked = runner == "theory:1"
    assert sorted(s.shape for s in svds) == [(4, 64)] * ranked + [(64, 64)]
    assert sum(s is top for s in svds) == ranked


CORES = {"bcgd": (optim, "_step_core"), "gd": (optim, "_gd_step_core"), "bcsgd": (sgd, "_bcsgd_step_core")}


def _wide_run(runner, decline, fail_at=None):
    """A width-12 orth-identity run (head 6) of *runner*: snapshots (BCGD
    only), records and the net, optionally aborted by an error in step
    *fail_at*.  Every step trains the head chain unless *decline*; m 20 >
    d_in 6, so every run trains on compressed samples."""
    data = make_data(seed=37)
    net = initialize(InitScheme("orth_identity"), (6, 12, 12, 12, 3), seed=38)
    snapshots = []
    module, name = CORES[runner]
    core = getattr(module, name)
    calls = []

    def step(*args):
        calls.append(args[0].work.dims)  # the chain the step trains
        record = core(*args)
        if len(calls) == fail_at:
            raise RuntimeError("stop")
        return record

    with pytest.MonkeyPatch.context() as mp:
        if decline:
            mp.setattr(optim, "_head_blocks", lambda net_: None)
        mp.setattr(module, name, step)
        try:
            if runner == "bcgd":
                traj = run_bcgd(
                    net, data, l2(), LrPolicy("optimal_l2"), "ascending", max_sweeps=3,
                    target_dist=-math.inf,
                    on_sweep_end=lambda k, cur: snapshots.append([w.copy() for w in cur.layers]),
                )
            elif runner == "gd":
                eta = reference_gd_rate(net, data)
                traj = run_gd(net, data, l2(), eta, max_iters=3, target_dist=-math.inf)
            else:
                traj, _ = sgd.run_bcsgd(net, data, l2(), 0.5, 3, seed=39)
        except RuntimeError:
            traj = None
    assert set(calls) == {(6, 12, 12, 12, 3) if decline else (6, 6, 6, 6, 3)}
    return net, snapshots, traj


def _assert_same_layers(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= 1e-12


@pytest.mark.parametrize(
    "runner, fail_at",
    [
        pytest.param("bcgd", None, id="None"),
        pytest.param("bcgd", 6, id="6"),
        pytest.param("gd", None, id="gd-None"),
        pytest.param("gd", 2, id="gd-2"),
        pytest.param("bcsgd", None, id="bcsgd-None"),
        pytest.param("bcsgd", 6, id="bcsgd-6"),
    ],
)
def test_width_fast_path_writes_heads_back_like_full_width(runner, fail_at):
    net, snaps, traj = _wide_run(runner, decline=False, fail_at=fail_at)
    ref_net, ref_snaps, ref_traj = _wide_run(runner, decline=True, fail_at=fail_at)
    assert optim._head_blocks(initialize(InitScheme("orth_identity"), (6, 12, 12, 12, 3))) is not None
    if runner == "bcgd":
        assert len(snaps) == len(ref_snaps) == (3 if fail_at is None else 1)
    else:
        assert snaps == ref_snaps == []
    for got, want in zip(snaps, ref_snaps):
        _assert_same_layers(got, want)
    _assert_same_layers(net.layers, ref_net.layers)  # at return or after the error
    if fail_at is None:
        assert np.max(np.abs(traj.losses() - ref_traj.losses())) <= 1e-12
        assert traj.meta["dims"] == (6, 12, 12, 12, 3)
    else:
        assert traj is None and ref_traj is None


def _three_sweeps(runner, net, data):
    """Three sweeps of *runner* on *net*: a run, or its single steps from a fresh state."""
    state, eta = SweepState(depth=net.depth), reference_gd_rate(net, data)
    rng = np.random.default_rng(39)
    if runner == "bcgd":
        run_bcgd(net, data, l2(), LrPolicy("optimal_l2"), max_sweeps=3, target_dist=-math.inf)
    elif runner == "bcsgd":
        sgd.run_bcsgd(net, data, l2(), 0.5, 3, seed=39)
    elif runner == "gd":
        run_gd(net, data, l2(), eta, max_iters=3, target_dist=-math.inf)
    elif runner == "bcgd_step":
        for _ in range(3 * net.depth):
            bcgd_step(net, data, l2(), state, LrPolicy("optimal_l2"))
    elif runner == "bcsgd_step":
        for _ in range(3 * net.depth):
            sgd.bcsgd_step(net, data, l2(), state, 0.5, rng)
    else:
        for _ in range(3):
            gd_step(net, data, l2(), eta, state=state)


@pytest.mark.parametrize("fail_at", [None, 6])
@pytest.mark.parametrize("runner", ["bcgd", "bcsgd", "gd", "bcgd_step", "bcsgd_step", "gd_step"])
def test_every_step_writes_its_head_blocks_through(monkeypatch, runner, fail_at):
    # _wide_run's chain (width 12, head 6).  After every step, also the one whose
    # update number *fail_at* raises (mid-iteration for GD: iteration 2, layer 2), each
    # layer of the caller's network holds run.work's block in its head, bit for bit,
    # and every entry outside the head as initialized.
    data = make_data(seed=37)
    net = initialize(InitScheme("orth_identity"), (6, 12, 12, 12, 3), seed=38)
    init = [w.copy() for w in net.layers]
    steps, updates, update = [], [], optim._update

    def failing_update(*args):
        updates.append(1)
        if len(updates) == fail_at:
            raise RuntimeError("stop")
        return update(*args)

    def checked(core):
        def step(run, *args):
            assert run.net is net and run.work is not net
            try:
                return core(run, *args)
            finally:
                steps.append(1)
                for w, block, w0 in zip(net.layers, run.work.layers, init):
                    k, kp = block.shape
                    assert w[:k, :kp].tobytes() == block.tobytes()
                    outside = w.copy()
                    outside[:k, :kp] = w0[:k, :kp]
                    assert outside.tobytes() == w0.tobytes()

        return step

    monkeypatch.setattr(optim, "_update", failing_update)
    for module, name in CORES.values():
        monkeypatch.setattr(module, name, checked(getattr(module, name)))
    gd = runner.startswith("gd")
    if fail_at is None:
        _three_sweeps(runner, net, data)
        assert len(steps) == (3 if gd else 12)  # depth 4
    else:
        with pytest.raises(RuntimeError, match="^stop$"):
            _three_sweeps(runner, net, data)
        assert len(steps) == (2 if gd else 6)
    assert any(not np.array_equal(w, w0) for w, w0 in zip(net.layers, init))


# The one layer update (optim._update) and the one run loop (optim._drive)
# that BCGD, BCSGD and GD share.
STEP_RATES = {"bcgd": (optim, "_lr_from_parts"), "bcsgd": (sgd, "_rate")}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("runner", [*sorted(STEP_RATES), "gd", "gd_step"])
def test_non_finite_update_names_the_step_and_keeps_the_layer(monkeypatch, runner):
    data = make_data(d_in=4, d_out=2, m=10, seed=41)
    net = initialize(InitScheme("random"), (4, 4, 2), seed=42)
    before = [w.tobytes() for w in net.layers]
    if runner in STEP_RATES:
        monkeypatch.setattr(*STEP_RATES[runner], lambda *args: math.inf)
    with pytest.raises(RuntimeError) as info:
        if runner == "bcgd":
            run_bcgd(net, data, l2(), LrPolicy("optimal_l2"), oracle_objective=0.0)
        elif runner == "bcsgd":
            sgd.run_bcsgd(net, data, l2(), 0.5, 1, seed=43, oracle_objective=0.0)
        elif runner == "gd":  # GD's rate is its eta: 1e308 times any |G_ij| > 2 overflows
            run_gd(net, data, l2(), 1e308, 1, oracle_objective=0.0)
        else:
            gd_step(net, data, l2(), 1e308, oracle_objective=0.0)
    lr = "inf" if runner in STEP_RATES else "1e+308"
    assert str(info.value).startswith(f"non-finite update at iteration 1, layer 1 (lr {lr}, |G|_F ")
    assert [w.tobytes() for w in net.layers] == before


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_gd_non_finite_gradient_names_the_iteration_and_keeps_every_layer():
    # X * 1e155 against Y = 0: D and B X are both about 1e155, so G overflows
    data = make_data(d_in=4, d_out=2, m=10, seed=48)
    data = Dataset(x=data.x * 1e155, y=np.zeros((2, 10)))
    net = initialize(InitScheme("random"), (4, 4, 2), seed=49)
    before = [w.tobytes() for w in net.layers]
    with pytest.raises(RuntimeError, match="^non-finite gradient at GD iteration 1, layer 1$"):
        gd_step(net, data, l2(), 0.1, oracle_objective=0.0)
    assert [w.tobytes() for w in net.layers] == before


def _mismatched(kind):
    """4 -> 3 data for a 4 -> 3 network, but with X of 5 rows ("input") or
    Y of 1 row ("output")."""
    rng = np.random.default_rng(50)
    d_in, d_out = (5, 3) if kind == "input" else (4, 1)
    return Dataset(x=rng.normal(size=(d_in, 10)), y=rng.normal(size=(d_out, 10)))


# every function that builds a run, with its other arguments
RUN_BUILDERS = {
    "run_bcgd": lambda net, data: run_bcgd(net, data, l2(), LrPolicy("optimal_l2"), max_sweeps=1),
    "run_gd": lambda net, data: run_gd(net, data, l2(), 0.01, max_iters=1),
    "run_bcsgd": lambda net, data: sgd.run_bcsgd(net, data, l2(), 0.5, 1, seed=0),
    "bcgd_step": lambda net, data: bcgd_step(
        net, data, l2(), SweepState(depth=2), LrPolicy("optimal_l2")
    ),
    "gd_step": lambda net, data: gd_step(net, data, l2(), 0.01),
    "bcsgd_step": lambda net, data: sgd.bcsgd_step(
        net, data, l2(), SweepState(depth=2), 0.5, np.random.default_rng(0)
    ),
    "compute_lr": lambda net, data: compute_lr(
        LrPolicy("optimal_l2"), net, data, l2(), SweepState(depth=2)
    ),
    "sampling_distribution": lambda net, data: sgd.sampling_distribution(
        net, data, SweepState(depth=2)
    ),
    "bcsgd_lr": lambda net, data: sgd.bcsgd_lr(net, data, SweepState(depth=2), 0, 0.5),
    "floor_brackets": lambda net, data: sgd.floor_brackets(net, data, SweepState(depth=2), 0.5, 1.0),
}


@pytest.mark.parametrize("kind", ["input", "output"])
@pytest.mark.parametrize("builder", sorted(RUN_BUILDERS))
def test_width_mismatch_between_network_and_data_raises(builder, kind):
    net = initialize(InitScheme("orth_identity"), (4, 6, 3), seed=0)
    before = [w.tobytes() for w in net.layers]
    data = _mismatched(kind)
    want = f"network maps 4 -> 3 but data is {data.d_in} -> {data.d_out}"
    with pytest.raises(ValueError, match=want):
        RUN_BUILDERS[builder](net, data)
    assert [w.tobytes() for w in net.layers] == before


@pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")
@pytest.mark.parametrize("runner", sorted(STEP_RATES))
def test_finite_update_with_overflowing_norm_passes(runner):
    # row 2 of layer 1 holds 1e200, which the zero column 2 of layer 2
    # hides from every prediction and every gradient: the updated layer is
    # finite, but its sum of squares overflows
    rng = np.random.default_rng(44)
    data = Dataset(x=rng.normal(size=(3, 4)), y=rng.uniform(-1, 2, size=(2, 4)))
    w1, w2 = rng.normal(size=(3, 3)), rng.normal(size=(2, 3))
    w1[2, 0], w2[:, 2] = 1e200, 0.0
    net = Network([w1, w2])
    state = SweepState(depth=2)
    if runner == "bcgd":
        record = bcgd_step(net, data, l2(), state, LrPolicy("optimal_l2"), oracle_objective=0.0)
    else:
        rng = np.random.default_rng(45)
        record = sgd.bcsgd_step(net, data, l2(), state, 0.5, rng, oracle_objective=0.0)
    assert math.isfinite(record.loss_after) and record.lr > 0.0
    assert net.layers[0][2, 0] == 1e200 and not np.array_equal(net.layers[0], w1)


def test_run_gd_stops_at_the_first_iteration_at_or_below_the_target():
    data = make_data(seed=46)
    net = initialize(InitScheme("orth_identity"), (6, 6, 3), seed=47)
    eta = reference_gd_rate(net, data)
    full = run_gd(net.copy(), data, l2(), eta, max_iters=30, target_dist=-math.inf)
    assert len(full) == 30
    target = full.records[9].dist_after
    first = next(i for i, r in enumerate(full.records) if r.dist_after <= target)
    stopped = run_gd(net, data, l2(), eta, max_iters=30, target_dist=target)
    assert stopped.records == full.records[: first + 1]


def test_run_bcsgd_runs_every_sweep():
    # the oracle objective puts every distance far below any target
    data = make_data(d_in=4, d_out=2, m=10, seed=48)
    net = initialize(InitScheme("orth_identity"), (4, 4, 4, 2), seed=49)
    traj, tracker = sgd.run_bcsgd(net, data, l2(), 0.5, 5, seed=50, oracle_objective=1e12)
    assert len(traj) == tracker.iterations == 5 * net.depth
    assert all(r.dist_after < 0.0 for r in traj.records)
    assert [r.sweep for r in traj.records[:: net.depth]] == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("runner", ["run_bcgd", "run_gd"])
def test_runners_default_to_the_reference_objective_of_their_loss(runner):
    # the reference the CLI measures against: the square-loss optimum
    # evaluated under lp(4), not the square loss's minimum
    data = make_data(d_in=6, d_out=2, m=30, seed=41)
    net = initialize(InitScheme("random"), (6, 6, 2), seed=42)
    lf = lp(4)
    traj = {
        "run_bcgd": lambda: run_bcgd(net, data, lf, LrPolicy("near_optimal_lp", p=4), max_sweeps=1),
        "run_gd": lambda: run_gd(net, data, lf, 1e-4, max_iters=1),
    }[runner]()
    want = reference_objective(data, lf, 2)
    assert want != optimal_loss(data.x, data.y, 2)
    assert traj.meta["oracle_objective"] == want
