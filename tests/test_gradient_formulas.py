"""The layer gradient through its d_out-wide side, against the formulas before it.

``losses.gradient_from_parts`` forms ``G = A^T (D (B X)^T)``, and a BCGD
step takes ``||G||_F^2`` once (``matcore._sq_fro``), for its record and for
the numerator of the optimal, general and lp rates.  Before, G was
``(A^T D) (B X)^T``, the rate's numerator was ``np.add.reduce(G * G)`` and
GD's per-layer squared norms were ``np.sum(G * G)``.  Both change only the
rounding, so these tests rebuild the previous formulas by monkeypatching
``optim`` and compare:

* square-loss runs (every l2 policy and GD) over whole runs, on the bounds
  the sample compression is held to: loss within 1e-12 relative (to its
  geometric mean with the run's largest loss, for runs that interpolate),
  distance and gamma within 1e-12 absolute (GD relative above magnitude 1,
  as its values can grow far above 1), network within 1e-10, and ``lr``
  within 1e-8 relative where the gradient stands above 1e-6 of the run's
  largest, each bound grown past ``AMPLIFICATION_FREE`` by the run's
  amplification;
* ``lp:<p>`` one step at a time from the same state, G within
  ``1e-12 ||A||_F ||D||_F ||B X||_F``.  Whole lp runs are not compared:
  along one a last-bit change can grow to a large change of ``lr`` (11% at
  step 125 of a depth-50 ``lp:4`` train, 128 -> 10, m 600) while the loss
  barely moves.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from deeplinlab import optim
from deeplinlab.data import Dataset
from deeplinlab.initializers import KINDS, InitScheme, initialize
from deeplinlab.losses import gradient_from_parts, l2, lp
from deeplinlab.network import Network, _factors
from deeplinlab.optim import LrPolicy, reference_gd_rate, run_bcgd, run_gd

SWEEPS = 3
L2_POLICIES = {
    "theory:1": LrPolicy("theory_l2", eta=1.0),
    "theory:1.5": LrPolicy("theory_l2", eta=1.5),
    "optimal": LrPolicy("optimal_l2"),
    "convex": LrPolicy("convex_safe"),
    "general": LrPolicy("near_optimal_general"),
    "const": LrPolicy("constant", eta=1e-3),
}
# Up to this amplification figure a run keeps the stated bounds; past it they
# grow with the run's largest figure, as a step moves the predictions by its
# figure times the rounding change of G.  Near-singular square X drive the
# figure up: dims [2, 2, 2, 2] on a 2 x 2 X of condition 178 (m 2) take one
# optimal step at figure 3.0e3 and one at 1.8e3 and end 1.3e-8 apart in a
# layer; over 5,500 random draws of such problems the largest error
# of a run with figures below 150 was a tenth of its bound.
AMPLIFICATION_FREE = 10.0
chains = st.lists(st.integers(1, 24), min_size=2, max_size=6)  # depth 1..5


def _parent_gradient(a, bx, d):
    return a.T.dot(d).dot(bx.T)


def _parent_formulas(mp, runner, figures):
    """Patch ``optim`` back to the formulas before: G through ``A^T D``,
    BCGD's rate numerator ``np.add.reduce(G * G)`` (its record took the
    ``ravel("K").dot`` it still takes), and GD's ``np.sum(G * G)``.  Each
    BCGD step appends its amplification figure to *figures*: its rate over
    the safe rate ``1 / (||A||_2^2 ||B X||_2^2)``, the factor by which a
    rounding change of G reaches the predictions."""
    mp.setattr(optim, "gradient_from_parts", _parent_gradient)
    if runner == "gd":
        mp.setattr(optim, "_sq_fro", lambda g: float(np.sum(g * g)))
    else:
        lr_from_parts = optim._lr_from_parts

        def parent_lr(policy, lf, spectra, a, bx, pred, y, g, g2):
            g2 = float(np.add.reduce(g * g, axis=None))
            lr = lr_from_parts(policy, lf, spectra, a, bx, pred, y, g, g2)
            figures.append(lr * (_spectral(a) * _spectral(bx)) ** 2)
            return lr

        mp.setattr(optim, "_lr_from_parts", parent_lr)


def _spectral(a):
    return float(np.linalg.norm(a, 2)) if a.size else 0.0


def _init_or_skip(scheme, dims, seed):
    try:
        return initialize(InitScheme(scheme), dims, seed)
    except ValueError:  # balanced needs every width >= min(n0, nL)
        assume(False)


def _train(runner, net, data, ordering, oracle_obj):
    """*runner*'s SWEEPS sweeps (GD: iterations at the reference rate) on
    *net*: the trajectory, or the RuntimeError a diverging run raises."""
    try:
        if runner == "gd":
            return run_gd(net, data, l2(), reference_gd_rate(net, data), max_iters=SWEEPS,
                          target_dist=-math.inf, oracle_objective=oracle_obj)
        return run_bcgd(net, data, l2(), L2_POLICIES[runner], ordering=ordering,
                        max_sweeps=SWEEPS, target_dist=-math.inf, oracle_objective=oracle_obj)
    except RuntimeError as exc:
        return exc


def _bound(tol, value, relative, scale):
    """``tol * scale``, times ``max(1, |value|)`` when *relative*."""
    return tol * scale * (max(1.0, abs(float(value))) if relative else 1.0)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(
    dims=chains,
    scheme=st.sampled_from(KINDS),
    m_offset=st.integers(-8, 8),  # on both sides of d_in: compressed samples above
    seed=st.integers(0, 2**32 - 1),
    ordering=st.sampled_from(optim.ORDERINGS),
    runner=st.sampled_from(sorted(L2_POLICIES) + ["gd"]),
)
@example(dims=[2, 2, 2, 2], scheme="orthogonal", m_offset=0, seed=67942, ordering="ascending",
         runner="optimal")  # figures 3.0e3 and 1.8e3 on a 2 x 2 X of condition 178
def test_square_loss_runs_match_the_parent_formulas(dims, scheme, m_offset, seed, ordering, runner):
    m = max(1, dims[0] + m_offset)
    net = _init_or_skip(scheme, dims, seed)
    rng = np.random.default_rng(seed)
    data = Dataset(x=rng.normal(size=(dims[0], m)), y=rng.uniform(-1, 2, size=(dims[-1], m)))
    oracle_obj = optim._resolve_oracle(net, data, l2(), None)
    parent_net = net.copy()
    got = _train(runner, net, data, ordering, oracle_obj)
    figures = []
    with pytest.MonkeyPatch.context() as mp:
        _parent_formulas(mp, runner, figures)
        want = _train(runner, parent_net, data, ordering, oracle_obj)
    if isinstance(want, Exception):  # a run that diverges must diverge in both
        assert type(got) is type(want)
        return
    assert not isinstance(got, Exception), got

    grows = runner == "gd"  # GD at the reference rate can take values far above 1
    scale = max(1.0, max(figures, default=0.0) / AMPLIFICATION_FREE)
    g_floor = 1e-6 * max(r.grad_frobenius for r in want.records)
    # The rounding of sum r^2 is about 2 r.delta, so it scales with ||r||, the
    # root of the loss: the loss is held to 1e-12 relative to its geometric
    # mean with the run's largest, which is the loss itself at the top and
    # shrinks only as its root where m <= d_in lets a run interpolate to 0.
    peak = max(max(r.loss_before, r.loss_after) for r in want.records)
    assert len(got) == len(want) == SWEEPS * (1 if grows else net.depth)
    for g, w in zip(got.records, want.records):
        assert (g.iteration, g.sweep, g.layer) == (w.iteration, w.sweep, w.layer)
        loss = max(abs(g.loss_after), abs(w.loss_after))  # one may round to exactly 0
        assert abs(g.loss_after - w.loss_after) <= 1e-12 * scale * math.sqrt(loss * peak)
        assert abs(g.dist_after - w.dist_after) <= _bound(1e-12, w.dist_after, grows, scale)
        if w.grad_frobenius >= g_floor:  # else G and the rate are ratios of rounding errors
            assert abs(g.grad_frobenius - w.grad_frobenius) <= 1e-8 * scale * w.grad_frobenius
            assert abs(g.lr - w.lr) <= 1e-8 * scale * abs(w.lr)
        if w.gamma_bound is None:
            assert g.gamma_bound is None
        else:  # gamma lies in [0, 1] and cancels at kappa 1: compare it on that scale
            assert abs(g.gamma_bound - w.gamma_bound) <= 1e-12
    for w, w_ref in zip(net.layers, parent_net.layers):
        assert w.shape == w_ref.shape
        assert np.max(np.abs(w - w_ref), initial=0.0) <= _bound(
            1e-10, np.max(np.abs(w_ref), initial=0.0), grows, scale
        )


@settings(max_examples=150, deadline=None)
@given(
    dims=chains,
    m=st.integers(1, 30),
    p=st.sampled_from((4, 6)),
    seed=st.integers(0, 2**32 - 1),
)
def test_lp_gradients_match_the_parent_association_step_by_step(dims, m, p, seed):
    rng = np.random.default_rng(seed)
    net = Network([rng.normal(0.0, 1.0 / math.sqrt(dims[l - 1]), size=(dims[l], dims[l - 1]))
                   for l in range(1, len(dims))])
    x, y = rng.normal(size=(dims[0], m)), rng.uniform(-1, 2, size=(dims[-1], m))
    lf = lp(p)
    for ell in range(1, net.depth + 1):
        a, bx = _factors(net, x, ell)
        d = lf.deriv(a.dot(net.layers[ell - 1]).dot(bx), y)
        got, want = gradient_from_parts(a, bx, d), _parent_gradient(a, bx, d)
        assert got.shape == want.shape == net.layers[ell - 1].shape
        scale = np.linalg.norm(a) * np.linalg.norm(d) * np.linalg.norm(bx)
        assert np.linalg.norm(got - want) <= 1e-12 * scale
