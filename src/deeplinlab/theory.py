"""Convergence-rate constants and trajectory auditing.

Three groups of machinery:

* per-iteration contraction factors ``gamma_factor`` built from the
  condition numbers of the partial products around the updated layer;
* the basin constants for layer-wise training near the optimum: the
  layer-drift radius R_L, the shape factor h(L), the constant c, and the
  per-sweep rate 1 - eta / (5 kappa^2(X));
* ``verify_trajectory``, which replays a recorded run against the
  per-step bound dist_after <= dist_before * gamma^2, and
  ``audit_trajectory``, which picks the check a run's rate policy
  guarantees (that bound, the optimal step's exact drop, or a loss that
  never increases).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .matcore import _kappa_r_from_svals, singular_values, spectral_summary
from .network import Network, _factors

__all__ = [
    "AuditReport",
    "BasinConstants",
    "audit_trajectory",
    "basin_constants",
    "basin_factor",
    "drift_radius",
    "gamma_factor",
    "min_depth_one_sweep",
    "verify_drop_identity",
    "verify_monotone",
    "verify_trajectory",
]

DROP_RTOL = 1e-8  # acceptance 3: |drop - lr ||G||_F^2| <= 1e-8 loss_before


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


def basin_constants(x, w_star, depth: int, eta: float) -> BasinConstants:
    """Basin radius and per-sweep contraction for layer-wise training.

    Requires full-row-rank X and 0 < eta <= 1.  A run whose initial
    Frobenius distance to the optimum is below ``basin_radius``
    contracts per sweep by at least ``gamma_sweep ** (2 * depth)``.
    """
    if not 0 < eta <= 1:
        raise ValueError("eta must lie in (0, 1]")
    xs = spectral_summary(x)
    if xs.numeric_rank < np.asarray(x).shape[0]:
        raise ValueError("basin constants need a full-row-rank X")
    kappa2 = (xs.spectral_norm / xs.singular_values[-1]) ** 2
    wx_smin = float(singular_values(np.asarray(w_star) @ np.asarray(x))[-1])
    sigma_tilde = wx_smin / xs.spectral_norm
    r_l = drift_radius(depth)
    h_l = basin_factor(depth)
    if sigma_tilde <= 0:
        raise ValueError("sigma_min(W* X) must be positive")
    c = 1.0 + kappa2 * (
        (1.0 + math.sqrt(1.0 + 4.0 * h_l * sigma_tilde / kappa2))
        / (2.0 * h_l * sigma_tilde)
    )
    return BasinConstants(
        r_l=r_l,
        h_l=h_l,
        c=c,
        sigma_tilde_min=sigma_tilde,
        basin_radius=sigma_tilde / c,
        gamma_sweep=1.0 - eta / (5.0 * kappa2),
    )


def gamma_factor(
    net: Network,
    data: Dataset,
    state,
    eta: float,
    r: int,
    r_x: int,
) -> float:
    """Contraction bound max(1 - eta / (kappa_r^2(A) kappa_rx^2(B X)), eta - 1).

    A is the product above the layer the state updates next, B X the
    product below applied to the inputs.  If either matrix cannot carry
    rank r (resp. r_x) the corresponding condition number is infinite
    and the factor degenerates to 1: no contraction through that layer.
    """
    a, bx = _factors(net, data.x, state.layer_to_update())
    return _gamma_from_spectra(
        singular_values(a), a.shape, singular_values(bx), bx.shape, eta, r, r_x
    )


def _gamma_from_spectra(
    a_svals, a_shape, bx_svals, bx_shape, eta: float, r: int, r_x: int
) -> float:
    """``gamma_factor`` from the singular values of A and B X (and their shapes)."""
    ka = math.inf if r > min(a_shape) else _kappa_r_from_svals(a_svals, a_shape, r)
    kb = math.inf if r_x > min(bx_shape) else _kappa_r_from_svals(bx_svals, bx_shape, r_x)
    denom = ka * ka * kb * kb
    branch = 1.0 - eta / denom if math.isfinite(denom) else 1.0
    return max(branch, eta - 1.0)


def min_depth_one_sweep(x, w_star, initial_dist: float, eta: float) -> int:
    """Smallest depth whose first sweep is guaranteed to land in the basin.

    *initial_dist* is ||(W^0 - W*) X||_F.  Because the constant c feeds
    back through h(L), the bound is iterated to a fixed point (at most
    100 rounds, monotone increasing).  Returns 1 when the start is
    already inside the basin.
    """
    if not 0 < eta <= 1:
        raise ValueError("eta must lie in (0, 1]")
    if initial_dist <= 0:
        return 1
    xs = spectral_summary(x)
    if xs.numeric_rank < np.asarray(x).shape[0]:
        raise ValueError("depth bound needs a full-row-rank X")
    kappa2 = (xs.spectral_norm / xs.singular_values[-1]) ** 2
    wx_smin = float(singular_values(np.asarray(w_star) @ np.asarray(x))[-1])
    if wx_smin <= 0:
        raise ValueError("sigma_min(W* X) must be positive")
    base = 1.0 - eta / kappa2
    if base <= 0:
        return 1  # a single well-conditioned sweep contracts to zero
    log_base = math.log(base)
    depth = 1
    for _ in range(100):
        c = basin_constants(x, w_star, depth, eta).c
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


def _records(traj) -> list:
    return traj.records if hasattr(traj, "records") else list(traj)


def verify_trajectory(traj, gammas=None, rel_slack: float = 1e-10) -> AuditReport:
    """Check dist_after <= dist_before * gamma^2 per step and cumulatively.

    *traj* is a Trajectory (or any object with ``records``); *gammas*
    defaults to the per-record ``gamma_bound`` values.  Steps with
    gamma >= 1 are counted as vacuous (the bound still holds, it just
    guarantees nothing).  The slack is ``rel_slack * dist_before`` plus
    an absolute guard tied to the largest distance seen, which keeps
    floating-point jitter at converged scales from raising violations.
    """
    records = _records(traj)
    if gammas is None:
        gammas = [r.gamma_bound for r in records]
        if any(g is None for g in gammas):
            raise ValueError("trajectory has no recorded gamma bounds; pass gammas")
    gammas = [float(g) for g in gammas]
    if len(gammas) != len(records):
        raise ValueError(
            f"{len(gammas)} gammas for {len(records)} records"
        )
    report = AuditReport(n_steps=len(records))
    if not records:
        return report
    peak = max(max(r.dist_before for r in records), 0.0)
    atol = 1e-14 * peak
    cum_bound = records[0].dist_before
    for idx, (rec, gamma) in enumerate(zip(records, gammas)):
        if gamma >= 1.0:
            report.vacuous_steps += 1
        bound = rec.dist_before * gamma * gamma + rel_slack * abs(rec.dist_before) + atol
        if rec.dist_after > bound:
            report.violations.append(
                {
                    "step": idx,
                    "iteration": rec.iteration,
                    "layer": rec.layer,
                    "dist_before": rec.dist_before,
                    "dist_after": rec.dist_after,
                    "gamma": gamma,
                    "bound": bound,
                }
            )
        cum_bound = cum_bound * gamma * gamma
        cum_limit = cum_bound + rel_slack * abs(cum_bound) + atol
        if rec.dist_after > cum_limit:
            report.violations.append(
                {
                    "step": idx,
                    "iteration": rec.iteration,
                    "layer": rec.layer,
                    "dist_after": rec.dist_after,
                    "gamma": gamma,
                    "bound": cum_limit,
                    "cumulative": True,
                }
            )
    return report


def verify_drop_identity(traj, rtol: float = DROP_RTOL) -> AuditReport:
    """Check the optimal step's exact drop ``loss_after = loss_before - lr ||G||_F^2``.

    The guarantee of the optimal_l2 policy (the square loss's exact line
    search); each step may miss it by ``rtol * |loss_before|``.
    """
    records = _records(traj)
    report = AuditReport(n_steps=len(records))
    for idx, rec in enumerate(records):
        expected = rec.loss_before - rec.lr * rec.grad_frobenius ** 2
        limit = rtol * abs(rec.loss_before)
        if not abs(rec.loss_after - expected) <= limit:
            report.violations.append(
                {
                    "step": idx,
                    "iteration": rec.iteration,
                    "layer": rec.layer,
                    "loss_before": rec.loss_before,
                    "loss_after": rec.loss_after,
                    "expected": expected,
                    "limit": limit,
                }
            )
    return report


def verify_monotone(traj, rel_slack: float = 1e-10) -> AuditReport:
    """Check that the loss never increases from one step to the next.

    The guarantee of convex_safe and near_optimal_general under the
    square loss, whose curvature bound holds globally.  The slack is
    ``verify_trajectory``'s, taken on losses: ``rel_slack * |loss_before|``
    plus ``1e-14`` times the largest loss seen.
    """
    records = _records(traj)
    report = AuditReport(n_steps=len(records))
    if not records:
        return report
    atol = 1e-14 * max(abs(r.loss_before) for r in records)
    for idx, rec in enumerate(records):
        bound = rec.loss_before + rel_slack * abs(rec.loss_before) + atol
        if not rec.loss_after <= bound:
            report.violations.append(
                {
                    "step": idx,
                    "iteration": rec.iteration,
                    "layer": rec.layer,
                    "loss_before": rec.loss_before,
                    "loss_after": rec.loss_after,
                    "bound": bound,
                }
            )
    return report


def audit_trajectory(traj, policy: str | None = None, loss: str | None = None) -> AuditReport:
    """Audit a recorded BCGD run against the guarantee of its rate policy.

    *policy* is the ``LrPolicy`` kind and *loss* the loss name the run
    recorded.  optimal_l2 is held to the exact drop identity, convex_safe
    and near_optimal_general under the l2 loss to a loss that never
    increases, theory_l2 (or an unnamed policy with recorded gamma
    bounds) to ``verify_trajectory``.  Any other policy guarantees nothing
    checkable: ValueError.  Steps with rate 0 (a denominator below the
    floor skips the step) are counted as skipped.
    """
    if policy == "optimal_l2":
        report = verify_drop_identity(traj)
    elif policy in ("convex_safe", "near_optimal_general") and loss == "l2":
        report = verify_monotone(traj)
    elif policy in (None, "theory_l2"):
        report = verify_trajectory(traj)
    else:
        raise ValueError(f"policy {policy!r} with loss {loss!r} has no checkable guarantee")
    report.skipped_steps = sum(1 for r in _records(traj) if r.lr == 0.0)
    return report
