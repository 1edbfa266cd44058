"""Convergence-rate constants and trajectory auditing.

Three groups of machinery:

* the per-step contraction factor ``gamma_factor``, built from the
  condition numbers of the partial products around the updated layer:
  the bound a theory_l2 step records (``optim._evaluate``);
* the basin constants for layer-wise training near the optimum: the
  layer-drift radius R_L, the shape factor h(L), the constant c, and the
  per-sweep rate 1 - eta / (5 kappa^2(X));
* one replay pass (``_replay``) that holds each recorded step to the bounds
  its rate policy guarantees and fails any bound a NaN enters:
  ``verify_trajectory`` (dist_after <= dist_before * gamma^2, per step and
  cumulatively) and ``audit_trajectory``, which also checks the optimal
  step's exact drop or a loss that never increases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from . import optim  # optim imports theory too: read only at call time
from .data import Dataset
from .losses import l2
from .matcore import _kappa_r_from_svals, numeric_rank, singular_values
from .network import Network

__all__ = [
    "AuditReport",
    "BasinConstants",
    "audit_trajectory",
    "basin_constants",
    "basin_factor",
    "drift_radius",
    "gamma_factor",
    "min_depth_one_sweep",
    "verify_trajectory",
]

DROP_RTOL = 1e-8  # acceptance 3: |drop - lr ||G||_F^2| <= 1e-8 loss_before
# Slack of the gamma and monotone bounds: REL_SLACK |base| (dist_before, the cumulative
# bound or loss_before) plus PEAK_SLACK times the run's largest finite dist_before or loss_before;
# the drop bound adds the same PEAK_SLACK term, on losses.
REL_SLACK = 1e-10
PEAK_SLACK = 1e-14


def drift_radius(depth: int) -> float:
    """R_L = 2 / ((5L - 3) + sqrt((5L - 3)^2 - 4L)); equals 1 at depth 1.

    Bounds how far any layer can drift from its initialization during a
    run started inside the basin.  L * R_L decreases toward 1/5.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    a = 5.0 * depth - 3.0
    return 2.0 / (a + math.sqrt(a * a - 4.0 * depth))


def basin_factor(depth: int) -> float:
    """h(L) = L R_L (1 - R_L)^(2L-2) / (1 + R_L)^(3L-1); h(1) = 1/4."""
    r = drift_radius(depth)
    if depth == 1:
        return 1.0 / 4.0  # (1 - R_1)^0 = 1 by convention
    # log-space keeps the powers stable for depths in the thousands
    log_h = (
        math.log(depth * r)
        + (2 * depth - 2) * math.log1p(-r)
        - (3 * depth - 1) * math.log1p(r)
    )
    return math.exp(log_h)


@dataclass(frozen=True)
class BasinConstants:
    r_l: float
    h_l: float
    c: float
    sigma_tilde_min: float
    basin_radius: float
    gamma_sweep: float


def _basin_inputs(x, w_star) -> tuple[float, float, float]:
    """``(kappa^2(X), sigma_min(W* X), sigma_min(W* X) / ||X||_2)``: the inputs
    of the basin constant c, after the checks both basin functions share."""
    s = singular_values(x)
    shape = np.shape(x)
    if numeric_rank(s, shape) < shape[0]:
        raise ValueError("basin constants need a full-row-rank X")
    norm = float(s[0])
    kappa2 = (norm / s[-1]) ** 2
    wx_smin = float(singular_values(np.asarray(w_star) @ np.asarray(x))[-1])
    sigma_tilde = wx_smin / norm
    if sigma_tilde <= 0:
        raise ValueError("sigma_min(W* X) must be positive")
    return kappa2, wx_smin, sigma_tilde


def _basin_c(kappa2: float, sigma_tilde: float, h_l: float) -> float:
    """c = 1 + kappa^2 (1 + sqrt(1 + 4 h(L) sigma~ / kappa^2)) / (2 h(L) sigma~)."""
    return 1.0 + kappa2 * (
        (1.0 + math.sqrt(1.0 + 4.0 * h_l * sigma_tilde / kappa2))
        / (2.0 * h_l * sigma_tilde)
    )


def basin_constants(x, w_star, depth: int, eta: float) -> BasinConstants:
    """Basin radius and per-sweep contraction for layer-wise training.

    Requires full-row-rank X and 0 < eta <= 1.  A run whose initial
    Frobenius distance to the optimum is below ``basin_radius``
    contracts per sweep by at least ``gamma_sweep ** (2 * depth)``.
    """
    if not 0 < eta <= 1:
        raise ValueError("eta must lie in (0, 1]")
    kappa2, _wx_smin, sigma_tilde = _basin_inputs(x, w_star)
    h_l = basin_factor(depth)
    c = _basin_c(kappa2, sigma_tilde, h_l)
    return BasinConstants(
        r_l=drift_radius(depth),
        h_l=h_l,
        c=c,
        sigma_tilde_min=sigma_tilde,
        basin_radius=sigma_tilde / c,
        gamma_sweep=1.0 - eta / (5.0 * kappa2),
    )


def gamma_factor(net: Network, data: Dataset, state, eta: float) -> float:
    """Contraction bound max(1 - eta / (kappa_r^2(A) kappa_rx^2(B X)), eta - 1)
    of the state's next step: the ``gamma_bound`` that ``optim.bcgd_step``
    records there with ``LrPolicy("theory_l2", eta)`` (so 0 < eta < 2).

    A is the product above the layer the state updates next, B X the
    product below applied to the inputs, r and r_x the ranks of the top
    layer and of X (``optim._Run.ranks``).  If either matrix cannot carry
    its rank, the factor degenerates to 1: no contraction through that layer.
    """
    policy = optim.LrPolicy("theory_l2", eta)
    return optim._view(state, net, data, l2(), optim._evaluate, policy, state.iteration + 1)[4]


def _gamma_from_spectra(
    a_svals, a_shape, bx_svals, bx_shape, eta: float, r: int, r_x: int
) -> float:
    """``gamma_factor`` from the singular values of A and B X (and their shapes).

    A rank outside ``1..min(shape)`` is one the matrix cannot carry: r = 0
    (a rank-0 X, or a top layer with no rows) as much as a rank above the
    smaller side.  Its condition number is infinite
    (``matcore._kappa_r_from_svals``) and the bound 1.

    B X is conditioned by its r_x-th singular value, r_x the rank of X,
    even above a bottleneck narrower than r_x, where B X cannot carry that
    rank: there the bound is 1, vacuous, as acceptance 9 requires.  The
    contraction it states, ``dist_after <= dist_before * gamma^2``, rests
    on B X carrying X's rank; a bound from a capped rank would be finite
    with no theorem behind it, and ``verify`` would audit runs against it.
    The BCSGD rate and bracket tracker cap the rank at what B X can carry
    (``sgd._bx_rank``) for another reason: the rate must train every
    layer, and the bracket must bound the floor the chain can reach.
    """
    ka = _kappa_r_from_svals(a_svals, a_shape, r)
    kb = _kappa_r_from_svals(bx_svals, bx_shape, r_x)
    denom = ka * ka * kb * kb
    branch = 1.0 - eta / denom if math.isfinite(denom) else 1.0
    return max(branch, eta - 1.0)


def min_depth_one_sweep(x, w_star, initial_dist: float, eta: float) -> int:
    """Smallest depth whose first sweep is guaranteed to land in the basin.

    *initial_dist* is ||(W^0 - W*) X||_F, finite (else ValueError).
    Because the constant c feeds back through h(L), the bound is iterated
    to a fixed point (at most 100 rounds, monotone increasing).  Returns 1
    when the start is already inside the basin.
    """
    if not 0 < eta <= 1:
        raise ValueError("eta must lie in (0, 1]")
    if not math.isfinite(initial_dist):
        raise ValueError(f"initial_dist must be finite, got {initial_dist!r}")
    if initial_dist <= 0:
        return 1
    kappa2, wx_smin, sigma_tilde = _basin_inputs(x, w_star)
    base = 1.0 - eta / kappa2
    if base <= 0:
        return 1  # a single well-conditioned sweep contracts to zero
    log_base = math.log(base)
    depth = 1
    for _ in range(100):
        c = _basin_c(kappa2, sigma_tilde, basin_factor(depth))
        ratio = wx_smin / (c * initial_dist)
        if ratio >= 1.0:
            new_depth = 1
        else:
            new_depth = max(1, math.ceil(math.log(ratio) / log_base))
        if new_depth <= depth:
            return max(depth, new_depth)
        depth = new_depth
    raise RuntimeError("depth fixed point did not converge in 100 rounds")


@dataclass
class AuditReport:
    """Outcome of replaying a trajectory against its rate bounds."""

    n_steps: int
    violations: list = field(default_factory=list)
    vacuous_steps: int = 0
    skipped_steps: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} VIOLATION(S)"
        note = f", {self.vacuous_steps} vacuous (gamma >= 1)" if self.vacuous_steps else ""
        if self.skipped_steps:
            note += f", {self.skipped_steps} skipped (rate floored to 0)"
        return f"audit over {self.n_steps} step(s): {status}{note}"


def _peak_slack(values) -> float:
    """PEAK_SLACK times the largest finite value of *values*, floored at 0: a NaN
    (a CSV without its initial value) fails the bounds of its own step, not the
    slack of every step."""
    return PEAK_SLACK * max([0.0, *(v for v in values if math.isfinite(v))])


def _replay(records, step_bounds) -> AuditReport:
    """Replay *records* against ``step_bounds(idx, rec)``, the bounds of step
    *idx* as ``(value, limit, fields)`` triples.  A bound fails unless
    ``value <= limit``, so a NaN on either side fails it; each failure is
    recorded as ``{"step", "iteration", "layer", **fields}``.
    """
    report = AuditReport(n_steps=len(records))
    for idx, rec in enumerate(records):
        for value, limit, fields in step_bounds(idx, rec):
            if not value <= limit:
                report.violations.append(
                    {"step": idx, "iteration": rec.iteration, "layer": rec.layer, **fields}
                )
    return report


def verify_trajectory(traj) -> AuditReport:
    """Check dist_after <= dist_before * gamma^2 per step and cumulatively.

    *traj* is a Trajectory (or any object with ``records``) whose records
    carry their ``gamma_bound``.  Steps with gamma >= 1 are counted as
    vacuous (the bound still holds, it just guarantees nothing).  The
    slack is ``REL_SLACK * dist_before`` plus ``PEAK_SLACK`` times the
    largest finite distance seen, which keeps floating-point jitter at
    converged scales from raising violations.
    """
    records = traj.records
    if any(r.gamma_bound is None for r in records):
        raise ValueError("trajectory has no recorded gamma bounds")
    gammas = [float(r.gamma_bound) for r in records]
    if not records:
        return AuditReport(n_steps=0)
    atol = _peak_slack(r.dist_before for r in records)
    # the chain starts at the first finite dist_before (a CSV without its initial distance
    # has a NaN first): cum_bounds[i + 1] is that distance times the gamma^2 of steps
    # first..i, and that distance itself, or inf, for the steps before
    first = next((i for i, r in enumerate(records) if math.isfinite(r.dist_before)), 0)
    cum_bounds = [math.inf] * first + list(
        accumulate(gammas[first:], lambda c, g: c * g * g, initial=records[first].dist_before)
    )

    def step_bounds(idx, rec):
        gamma, cum_bound = gammas[idx], cum_bounds[idx + 1]
        bound = rec.dist_before * gamma * gamma + REL_SLACK * abs(rec.dist_before) + atol
        cum_limit = cum_bound + REL_SLACK * abs(cum_bound) + atol
        return (
            (rec.dist_after, bound, {"dist_before": rec.dist_before,
             "dist_after": rec.dist_after, "gamma": gamma, "bound": bound}),
            (rec.dist_after, cum_limit, {"dist_after": rec.dist_after,
             "gamma": gamma, "bound": cum_limit, "cumulative": True}),
        )

    report = _replay(records, step_bounds)
    report.vacuous_steps = sum(1 for g in gammas if g >= 1.0)
    return report


def _drop_bounds(rec, atol):
    """The optimal step's exact drop ``loss_after = loss_before - lr ||G||_F^2``,
    missed by at most ``DROP_RTOL * |loss_before| + atol``.  *atol* is
    ``PEAK_SLACK`` times the run's largest finite loss: the identity's rounding
    error scales with the run's loss scale (the cancellation in
    ``pred - y``), not with the current loss, which a noiseless run drives
    towards 0."""
    try:
        expected = rec.loss_before - rec.lr * rec.grad_frobenius ** 2
    except OverflowError:  # ||G||_F^2 beyond the float range: an infinite drop, none at rate 0
        expected = rec.loss_before - rec.lr * math.inf if rec.lr else rec.loss_before
    limit = DROP_RTOL * abs(rec.loss_before) + atol
    return ((abs(rec.loss_after - expected), limit, {"loss_before": rec.loss_before,
             "loss_after": rec.loss_after, "expected": expected, "limit": limit}),)


def audit_trajectory(traj, policy: str | None = None, loss: str | None = None) -> AuditReport:
    """Audit a recorded BCGD run against the guarantee of its rate policy.

    *policy* is the ``LrPolicy`` kind and *loss* the loss name the run
    recorded.  optimal_l2 is held to the exact drop identity, convex_safe
    and near_optimal_general under the l2 loss (whose curvature bound holds
    globally) to a loss that never increases, within ``verify_trajectory``'s
    slack taken on losses, theory_l2 (or an unnamed policy with recorded
    gamma bounds) to ``verify_trajectory``.  Any other policy guarantees
    nothing checkable: ValueError.  Steps with rate 0 (a denominator below
    the floor skips the step) are counted as skipped.
    """
    records = traj.records
    atol = _peak_slack(abs(r.loss_before) for r in records)
    if policy == "optimal_l2":
        report = _replay(records, lambda _idx, rec: _drop_bounds(rec, atol))
    elif policy in ("convex_safe", "near_optimal_general") and loss == "l2":

        def step_bounds(idx, rec):
            bound = rec.loss_before + REL_SLACK * abs(rec.loss_before) + atol
            return ((rec.loss_after, bound, {"loss_before": rec.loss_before,
                     "loss_after": rec.loss_after, "bound": bound}),)

        report = _replay(records, step_bounds)
    elif policy in (None, "theory_l2"):
        report = verify_trajectory(traj)
    else:
        raise ValueError(f"policy {policy!r} with loss {loss!r} has no checkable guarantee")
    report.skipped_steps = sum(1 for r in records if r.lr == 0.0)
    return report
