import math
from dataclasses import replace

import numpy as np
import pytest

from deeplinlab.data import Dataset, gen_input_gaussian, gen_output_uniform
from deeplinlab.initializers import InitScheme, initialize
from deeplinlab.losses import l2
from deeplinlab.network import Network
from deeplinlab.optim import LrPolicy, StepRecord, SweepState, Trajectory, run_bcgd
from deeplinlab.oracle import least_norm_solution
from deeplinlab.theory import (
    audit_trajectory,
    basin_constants,
    basin_factor,
    drift_radius,
    gamma_factor,
    min_depth_one_sweep,
    verify_trajectory,
)


def make_data(d_in=6, d_out=2, m=18, seed=0):
    return Dataset(
        x=gen_input_gaussian(d_in, m, seed=seed),
        y=gen_output_uniform(d_out, m, seed=seed + 1),
    )


def test_drift_radius_depth_one():
    assert drift_radius(1) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="depth must be >= 1"):
        drift_radius(0)


def test_basin_factor_depth_one():
    assert basin_factor(1) == pytest.approx(0.25)


def test_depth_radius_product_decreasing_above_fifth():
    values = [depth * drift_radius(depth) for depth in (10, 100, 1000)]
    assert values[0] > values[1] > values[2] > 0.2


def test_radius_power_bound():
    for depth in (2, 5, 50, 500, 10_000):
        r = drift_radius(depth)
        power = math.exp(2 * (depth - 1) * math.log((1 - r) / (1 + r)))
        assert power >= 0.2


def test_gamma_factor_fresh_orth_identity():
    data = make_data(seed=3)
    net = initialize(InitScheme("orth_identity"), (6, 6, 6, 2), seed=4)
    sv = np.linalg.svd(data.x, compute_uv=False)
    kappa2 = (sv[0] / sv[-1]) ** 2
    state = SweepState(depth=3, ordering="descending")
    gamma = gamma_factor(net, data, state, eta=1.0)  # r = 2 (the top layer), r_x = 6
    assert gamma == pytest.approx(1.0 - 1.0 / kappa2, rel=1e-9)


def test_gamma_factor_bottleneck_is_one():
    data = make_data(d_in=6, d_out=2, m=18, seed=5)
    net = initialize(InitScheme("orth_identity"), (6, 2, 2, 2), seed=6)
    # updating an upper layer: the product below is rank-limited to 2 < r_x
    state = SweepState(depth=3, ordering="descending")
    gamma = gamma_factor(net, data, state, eta=1.0)
    assert gamma == 1.0


def test_gamma_factor_rank_zero_is_one():
    # a top layer with no rows (r = 0) or X = 0 (r_x = 0): a rank no matrix carries
    rng = np.random.default_rng(10)
    net = Network([rng.normal(size=(3, 3)), np.zeros((0, 3))])
    data = Dataset(x=rng.normal(size=(3, 8)), y=np.zeros((0, 8)))
    for ordering in ("ascending", "descending"):
        assert gamma_factor(net, data, SweepState(depth=2, ordering=ordering), eta=1.0) == 1.0
    data = Dataset(x=np.zeros((6, 18)), y=make_data(seed=3).y)
    net = initialize(InitScheme("orth_identity"), (6, 6, 6, 2), seed=4)
    state = SweepState(depth=3, ordering="descending")
    assert gamma_factor(net, data, state, eta=1.0) == 1.0


def test_theory_run_on_a_zero_row_top_layer_is_vacuous():
    # the top layer has no rows, so r = 0: every rate is 0 and every gamma 1
    rng = np.random.default_rng(10)
    net = Network([rng.normal(size=(3, 3)), np.zeros((0, 3))])
    data = Dataset(x=rng.normal(size=(3, 8)), y=np.zeros((0, 8)))
    traj = run_bcgd(
        net, data, l2(), LrPolicy("theory_l2", eta=1.0), max_sweeps=2,
        target_dist=-math.inf, oracle_objective=0.0,
    )
    assert [(r.lr, r.gamma_bound) for r in traj.records] == [(0.0, 1.0)] * 4


def test_a_theory_step_the_rate_floor_skips_records_gamma_one():
    # a top layer of 1e-160 puts ||A||^2 ||B X||^2 below the floor at layers 1 and 2:
    # those steps take rate 0 and do not move, so their bound is 1, not kappa's 0.73
    net = initialize(InitScheme("orthogonal"), (3, 3, 3, 2), seed=1)
    net.layers[-1] = net.layers[-1] * 1e-160
    data = Dataset(x=gen_input_gaussian(3, 8, seed=0), y=gen_output_uniform(2, 8, seed=1))
    gammas = [gamma_factor(net, data, SweepState(depth=3, position=k), eta=1.0) for k in (1, 2)]
    traj = run_bcgd(net, data, l2(), LrPolicy("theory_l2", eta=1.0), max_sweeps=1,
                    target_dist=-math.inf)
    assert [(r.lr, r.gamma_bound) for r in traj.records[:2]] == [(0.0, 1.0)] * 2
    assert gammas == [1.0, 1.0]
    assert traj.records[2].lr > 0 and traj.records[2].gamma_bound < 1.0
    report = verify_trajectory(traj)
    assert report.ok and report.vacuous_steps == 2


def test_gamma_factor_eta_two_branch():
    # max(1 - eta / kappa^2, eta - 1) at eta 1.5; eta = 2 (gamma >= 1, vacuous) is
    # outside the theory_l2 rate's domain
    data = make_data(seed=7)
    net = initialize(InitScheme("orth_identity"), (6, 6, 2), seed=8)
    sv = np.linalg.svd(data.x, compute_uv=False)
    state = SweepState(depth=2)  # layer 1: A is the orthonormal top layer, B X is X
    gamma = gamma_factor(net, data, state, eta=1.5)
    assert gamma == pytest.approx(max(1.0 - 1.5 * (sv[-1] / sv[0]) ** 2, 0.5), rel=1e-9)
    with pytest.raises(ValueError, match="0 < eta < 2"):
        gamma_factor(net, data, state, eta=2.0)


def test_basin_constants_forced_values_at_depth_one():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(3, 12))
    w_star = rng.normal(size=(2, 3))
    bc = basin_constants(x, w_star, depth=1, eta=1.0)
    assert bc.r_l == pytest.approx(1.0)
    assert bc.h_l == pytest.approx(0.25)
    sv = np.linalg.svd(x, compute_uv=False)
    kappa2 = (sv[0] / sv[-1]) ** 2
    assert bc.gamma_sweep == pytest.approx(1 - 1.0 / (5 * kappa2))
    assert bc.basin_radius == pytest.approx(bc.sigma_tilde_min / bc.c)


def test_basin_constants_requires_full_row_rank():
    x = np.vstack([np.ones((1, 8)), np.ones((1, 8))])  # rank 1, two rows
    with pytest.raises(ValueError, match="full-row-rank"):
        basin_constants(x, np.ones((1, 2)), depth=2, eta=1.0)
    with pytest.raises(ValueError, match="eta"):
        basin_constants(np.eye(2), np.eye(2), depth=2, eta=1.5)
    # full-row-rank X, but W* X has a zero row: sigma_min(W* X) = 0
    with pytest.raises(ValueError, match=r"sigma_min\(W\* X\) must be positive"):
        basin_constants(np.eye(2), np.array([[1.0, 0.0], [0.0, 0.0]]), depth=2, eta=1.0)


def test_min_depth_inside_basin_returns_one():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(3, 12))
    w_star = rng.normal(size=(1, 3))
    assert min_depth_one_sweep(x, w_star, initial_dist=0.0, eta=1.0) == 1
    # kappa(X) = 1 at eta = 1: the per-layer factor 1 - eta / kappa^2 is 0, one sweep lands
    assert min_depth_one_sweep(2.0 * np.eye(3), w_star, initial_dist=100.0, eta=1.0) == 1
    for eta in (0.0, 1.5):
        with pytest.raises(ValueError, match=r"eta must lie in \(0, 1\]"):
            min_depth_one_sweep(x, w_star, initial_dist=1.0, eta=eta)


@pytest.mark.parametrize("initial_dist", [math.nan, math.inf, -math.inf])
def test_min_depth_rejects_a_non_finite_initial_distance(initial_dist):
    x = np.diag([2.0, math.sqrt(2.0)])
    w_star = np.array([[1.0, 1.0]])
    with pytest.raises(ValueError, match="initial_dist must be finite"):
        min_depth_one_sweep(x, w_star, initial_dist=initial_dist, eta=1.0)


def test_min_depth_monotone_in_initial_distance():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(3, 30))
    w_star = rng.normal(size=(1, 3))
    dists = [0.01, 0.1, 1.0, 10.0, 100.0]
    depths = [min_depth_one_sweep(x, w_star, d, eta=1.0) for d in dists]
    for small, large in zip(depths, depths[1:]):
        assert large >= small
    assert min_depth_one_sweep(x, w_star, 2.0, eta=1.0) <= min_depth_one_sweep(
        x, w_star, 4.0, eta=1.0
    )


def test_min_depth_plausible_magnitude():
    # kappa(X) = sqrt(2), eta = 1: per-layer factor 1 - 1/kappa^2 = 0.5
    x = np.diag([2.0, math.sqrt(2.0)])
    w_star = np.array([[1.0, 1.0]])
    depth = min_depth_one_sweep(x, w_star, initial_dist=100.0, eta=1.0)
    bc = basin_constants(x, w_star, depth, eta=1.0)
    wx_smin = float(np.linalg.svd(w_star @ x, compute_uv=False)[-1])
    assert 100.0 * 0.5**depth <= wx_smin / bc.c + 1e-12


def test_verify_empty_trajectory():
    report = verify_trajectory(type("T", (), {"records": []})())
    assert report.ok and report.n_steps == 0


def test_verify_real_run_no_violations():
    data = make_data(seed=12)
    net = initialize(InitScheme("orth_identity"), (6, 6, 6, 2), seed=13)
    traj = run_bcgd(
        net, data, l2(), LrPolicy("theory_l2", eta=1.0), "descending", max_sweeps=10
    )
    report = verify_trajectory(traj)
    assert report.ok, report.violations[:3]
    assert report.n_steps == len(traj)


def test_verify_flags_vacuous_bottleneck():
    data = make_data(d_in=6, d_out=2, m=18, seed=14)
    net = initialize(InitScheme("orth_identity"), (6, 2, 2, 2), seed=15)
    traj = run_bcgd(
        net, data, l2(), LrPolicy("theory_l2", eta=1.0), "descending", max_sweeps=5
    )
    report = verify_trajectory(traj)
    assert report.ok
    assert report.vacuous_steps > 0
    assert "vacuous" in report.summary()


def test_verify_detects_planted_violation():
    data = make_data(seed=16)
    net = initialize(InitScheme("orth_identity"), (6, 6, 2), seed=17)
    traj = run_bcgd(net, data, l2(), LrPolicy("theory_l2", eta=1.0), max_sweeps=3)
    # gamma = 0 demands one-step convergence
    bad = Trajectory(records=[replace(r, gamma_bound=0.0) for r in traj.records])
    report = verify_trajectory(bad)
    assert not report.ok


def test_verify_needs_recorded_gamma_bounds():
    data = make_data(seed=18)
    net = initialize(InitScheme("orth_identity"), (6, 6, 2), seed=19)
    traj = run_bcgd(net, data, l2(), LrPolicy("optimal_l2"), max_sweeps=2)
    with pytest.raises(ValueError, match="no recorded gamma bounds"):
        verify_trajectory(traj)  # optimal policy records no bounds


def test_basin_contraction_observed_inside_basin():
    # engineer an optimum a small perturbation away from the initial
    # end-to-end map, so the run starts inside the basin, then audit the
    # per-sweep contraction gamma_sweep^(2L)
    from deeplinlab.network import end_to_end

    rng = np.random.default_rng(20)
    x = gen_input_gaussian(4, 40, seed=21)
    depth = 3
    net = initialize(InitScheme("orth_identity"), (4, 4, 4, 2), seed=22)
    w0 = end_to_end(net)
    w_star = w0 + 1e-3 * rng.normal(size=w0.shape)
    data = Dataset(x=x, y=w_star @ x)  # realizable: W* is the optimum
    assert np.allclose(least_norm_solution(data.x, data.y), w_star, atol=1e-8)
    bc = basin_constants(data.x, w_star, depth, eta=1.0)
    assert np.linalg.norm(w0 - w_star, "fro") <= bc.basin_radius
    sweeps = 8
    traj = run_bcgd(
        net, data, l2(), LrPolicy("theory_l2", eta=1.0), "descending",
        max_sweeps=sweeps, target_dist=0.0,
    )
    per_sweep = bc.gamma_sweep ** (2 * depth)
    dists = [traj.records[0].dist_before] + [
        traj.records[(s + 1) * depth - 1].dist_after for s in range(sweeps)
    ]
    for before, after in zip(dists, dists[1:]):
        assert after <= before * per_sweep + 1e-9 * abs(before) + 1e-24


def _record(iteration, lr, loss_before, loss_after, grad=1.0):
    return StepRecord(
        iteration=iteration, sweep=1, layer=iteration, lr=lr,
        loss_before=loss_before, loss_after=loss_after,
        dist_before=loss_before, dist_after=loss_after, grad_frobenius=grad,
    )


def test_audit_counts_skipped_steps():
    # rows 2 and 4 were skipped (rate 0, loss unchanged); the others follow
    # the optimal drop loss_after = loss_before - lr * |G|^2 exactly
    records = [
        _record(1, 0.5, 10.0, 9.5),
        _record(2, 0.0, 9.5, 9.5),
        _record(3, 0.25, 9.5, 9.25),
        _record(4, 0.0, 9.25, 9.25),
    ]
    traj = Trajectory(records=records)
    for policy in ("optimal_l2", "convex_safe"):
        report = audit_trajectory(traj, policy, "l2")
        assert report.ok and report.skipped_steps == 2
        assert report.summary() == "audit over 4 step(s): OK, 2 skipped (rate floored to 0)"
    with pytest.raises(ValueError, match="no checkable guarantee"):
        audit_trajectory(traj, "constant", "l2")
    with pytest.raises(ValueError, match="no checkable guarantee"):
        audit_trajectory(traj, "convex_safe", "l4")
    bumped = Trajectory(records=records[:2] + [_record(3, 0.25, 9.5, 9.6)])
    assert not audit_trajectory(bumped, "convex_safe", "l2").ok
    assert not audit_trajectory(bumped, "optimal_l2", "l2").ok
    plain = verify_trajectory(Trajectory(records=[replace(r, gamma_bound=1.0) for r in records]))
    assert plain.skipped_steps == 0 and "skipped" not in plain.summary()


def test_drop_audit_takes_an_overflowing_square_as_an_infinite_drop():
    # (1e200)^2 overflows: at a positive rate the stated drop is infinite
    # (expected -inf, a violation); at rate 0 there is no drop at all
    moved = _record(1, 0.5, 10.0, 9.5, grad=1e200)
    report = audit_trajectory(Trajectory(records=[moved]), "optimal_l2", "l2")
    assert [v["expected"] for v in report.violations] == [-math.inf]
    skipped = _record(1, 0.0, 10.0, 10.0, grad=1e200)
    report = audit_trajectory(Trajectory(records=[skipped]), "optimal_l2", "l2")
    assert report.ok and report.skipped_steps == 1


@pytest.mark.parametrize(
    "policy, fields",
    [
        ("theory_l2", ("dist_before", "dist_after", "gamma_bound")),
        ("optimal_l2", ("loss_before", "loss_after", "lr", "grad_frobenius")),
        ("convex_safe", ("loss_before", "loss_after")),
    ],
)
def test_a_nan_fails_every_audit(policy, fields):
    # both steps meet every bound: the exact drop, a falling loss and
    # dist_after <= dist_before * 0.99^2, per step and cumulatively
    records = [
        replace(_record(1, 0.5, 10.0, 9.5), gamma_bound=0.99),
        replace(_record(2, 0.25, 9.5, 9.25), gamma_bound=0.99),
    ]
    assert audit_trajectory(Trajectory(records=records), policy, "l2").ok
    for name in fields:
        for row in range(2):
            nan_row = replace(records[row], **{name: math.nan})
            bad = Trajectory(records=[nan_row if i == row else r for i, r in enumerate(records)])
            assert not audit_trajectory(bad, policy, "l2").ok, (name, row)


@pytest.mark.parametrize("grad", [1e200, math.inf], ids=["overflowing", "infinite"])
def test_drop_audit_squares_the_gradient_norm_through_matcore(grad):
    # ||G||_F^2 is inf either way (matcore._square): at a positive rate the stated
    # drop is infinite (expected -inf, a violation); at rate 0 there is none, so the
    # expected loss is loss_before, where 0 * inf would be NaN, and a rate-0 step whose
    # loss moved fails against it.  A NaN norm at rate 0 still fails.
    def audit(rec):
        return audit_trajectory(Trajectory(records=[rec]), "optimal_l2", "l2")

    assert [v["expected"] for v in audit(_record(1, 0.5, 10.0, 9.5, grad)).violations] == [-math.inf]
    report = audit(_record(1, 0.0, 10.0, 10.0, grad))
    assert report.ok and report.skipped_steps == 1
    assert [v["expected"] for v in audit(_record(1, 0.0, 10.0, 9.0, grad)).violations] == [10.0]
    assert not audit(_record(1, 0.0, 10.0, 10.0, math.nan)).ok
