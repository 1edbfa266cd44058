"""Block coordinate stochastic gradient descent with importance sampling.

Each iteration samples one training example from the state-dependent
distribution pi(i) proportional to ||(B x_i)^T B X||^2 (B the product of
the layers below the target layer), applies a rank-one update with the
scaled rate eta * sigma_k^2(B X) / (sigma_max^2(A) ||(B x_i)^T B X||^2),
and tracks the condition-number quantities the error-floor brackets are
built from.  sigma_k is B X's k-th singular value with k the rank B X
can carry: r_x (the numeric rank of X) capped by every width below the
target layer.  In a chain wider than rank(X) the smallest singular value
of B X would be rounding noise or 0, and the layer would not train.

``run_bcsgd`` enters ``optim`` as ``run_bcgd`` does, through ``optim._layerwise``,
and trains on its exact problem reduction (the head chain, and for m > d_in
the samples ``(R^T, Y Q)`` of ``X^T = Q R``): a step costs
O(n^2 d_in + m d_in^2) plus the SVDs of A and the n x d_in ``C = B R^T``
(``optim._spectra``), or O(n^2 m) uncompressed.  ``bcsgd_step`` takes that
step from a ``SweepState``, and ``sampling_distribution``, ``bcsgd_lr`` and
``floor_brackets`` see the state as the step does: ``_evaluate`` through
``optim._view``, the one entry of every state view, which runs it under the
steps' numpy warning state, so an overflowing state raises the step's error
with no numpy warning.

The floors come with the square loss only.  They bound the stationary
expected squared distance ||W_{L:1} X - W* X||_F^2 between

    eta^2 L* / (M_upp (1 - gamma_low^L))   and
    eta^2 L* / (M_low (1 - gamma_upp^L)),

with L* = ||W* X - Y||_F^2, M_upp / M_low the run's sup of
kappa^4(A) kt^4(B X) and inf of kt^4(B X) (kt the scaled condition
number), and gamma_upp / gamma_low the run's extreme per-iteration
contraction factors.  A is conditioned by its r-th singular value (r the
numeric rank of the top layer, at most n_L) and B X by its k-th, the same
k as the rate's.  A run that nears a rank-deficient partial product gets
a vacuous or unavailable bracket: an infinite condition number (also one
whose square overflows) makes the constants infinite and gamma 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .losses import LossFunction, l2
from .matcore import _column_sums, _fro
from .network import Network
from .optim import (
    StepRecord,
    SweepState,
    Trajectory,
    _descend,
    _drive,
    _layerwise,
    _single_step,
    _spectra,
    _view,
)

__all__ = [
    "BoundsTracker",
    "FloorBracket",
    "bcsgd_lr",
    "bcsgd_step",
    "floor_brackets",
    "run_bcsgd",
    "sampling_distribution",
]


def _draw(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF draw from *probs*; cheap and reproducible for desk-scale m."""
    idx = probs.cumsum().searchsorted(rng.random(), side="right")
    return int(min(idx, probs.size - 1))


def _bx_column_weights(bx: np.ndarray, q: np.ndarray | None = None) -> np.ndarray:
    """||(B x_i)^T B X||^2 for every example i.

    Without *q*, *bx* is the n x m matrix B X, and the weights use
    ||(B x_i)^T B X||^2 = (B x_i)^T (B X (B X)^T) (B x_i): the column sums
    of B X * (G B X) with the n x n Gram G, O(n^2 m) time and no m x m
    array.  Rounding can push the weight of a column nearly orthogonal to
    the rest of B X a hair below 0 (its exact value is at least
    ||B x_i||^4); such weights are clipped to 0.

    With *q* (m x d_in, orthonormal columns), *bx* is the compressed
    ``C = B R^T`` of ``X^T = Q R``, so B X = C Q^T and the weight of example
    i is ||C^T C q_i||^2, q_i the i-th row of Q: the squared row norms of
    ``Q (C^T C)``, sums of squares that need no clip, in O(m d_in^2) time
    and with no n x m array.  The rows are squared in place and summed with
    the bits of ``np.sum(rows * rows, axis=1)``: by ``matcore._column_sums``
    when d_in is at most 8, else by numpy.
    """
    if q is not None:
        rows = q.dot(bx.T.dot(bx))
        rows *= rows
        return _column_sums(rows) if rows.shape[1] <= 8 else np.add.reduce(rows, axis=1)
    weights = np.sum(bx * bx.dot(bx.T).dot(bx), axis=0)
    return np.maximum(weights, 0.0, out=weights)


def _bx_rank(net: Network, ell: int, r_x: int) -> int:
    """The rank B X = W_(ell-1:1) X can carry: r_x, capped by every width
    below layer *ell*.  The same on the head chain as on the full one."""
    return min([r_x] + [w.shape[0] for w in net.layers[: ell - 1]])


def _rate(sa: np.ndarray, sb: np.ndarray, k: int, eta: float, weight: float) -> float:
    """eta sigma_k^2(B X) / (sigma_max^2(A) w_i), from the singular values
    *sa* of A and *sb* of B X, the sampled weight and ``k = _bx_rank``
    (at least 1 wherever a weight is positive, and at most ``sb.size``)."""
    return float(sb[k - 1] ** 2 / sa[0] ** 2) * eta / weight


def _evaluate(run, ell: int, a, bx, eta=None, tracker=None):
    """``(weights, mass, sa, sb, k)`` of a BCSGD step at layer *ell* of
    ``run.work`` on ``run.samples``: the weights, their sum (ValueError
    unless positive and finite), the singular values of A and B X
    (``optim._spectra``) and ``k = _bx_rank``, with (r, r_x) the run's
    ``ranks``; a *tracker* folds in the step's constants."""
    weights = _bx_column_weights(bx, run.q)
    mass = float(weights.sum())
    if not 0.0 < mass < math.inf:
        raise ValueError(f"degenerate state at layer {ell}: sampling mass {mass!r}")
    sa, sb = _spectra(run, ell, a, bx)
    r, r_x = run.ranks
    k = _bx_rank(run.work, ell, r_x)
    if tracker is not None:
        tracker.update(sa, sb, _fro(bx), eta, (r, k))
    return weights, mass, sa, sb, k


def sampling_distribution(net: Network, data: Dataset, state: SweepState) -> np.ndarray:
    """The importance distribution over examples for the state's next
    update, as its probability vector: the one ``bcsgd_step`` draws from."""
    weights, mass = _view(state, net, data, l2(), _evaluate)[:2]
    return weights / mass


def bcsgd_lr(net: Network, data: Dataset, state: SweepState, i: int, eta: float) -> float:
    """The stochastic step's learning rate for sampled example *i*."""
    _check_eta(eta)
    if not 0 <= i < data.m:
        raise ValueError(f"sample index {i} out of range")
    weights, _mass, sa, sb, k = _view(state, net, data, l2(), _evaluate)
    weight = float(weights[i])
    if weight <= 0.0:
        raise ValueError(f"sampled column {i} has zero weight")
    return _rate(sa, sb, k, eta, weight)


@dataclass
class BoundsTracker:
    """Running sup/inf of the bracket constants over a BCSGD run."""

    m_upp: float = 0.0
    m_low: float = math.inf
    gamma_upp: float = 0.0
    gamma_low: float = math.inf
    iterations: int = 0

    def update(
        self, a_svals: np.ndarray, bx_svals: np.ndarray, bx_fro: float, eta: float,
        ranks: tuple[int, int],
    ) -> None:
        """Fold in one step's constants, conditioning A by its r-th and B X
        by its k-th singular value, *ranks* = (r, k): r from ``optim._Run.ranks``
        and k = ``_bx_rank``, the rank B X can carry (its smaller singular
        values are rounding noise or 0)."""
        r, k = ranks
        a_r, bx_r = _sval(a_svals, r), _sval(bx_svals, k)
        ka2 = _ratio_sq(a_svals[0], a_r)
        kb2 = _ratio_sq(bx_svals[0], bx_r)
        kt4 = _square(_ratio_sq(bx_fro, bx_r))
        product = _square(ka2) * kt4
        self.m_upp = max(self.m_upp, product)
        self.m_low = min(self.m_low, kt4)
        self.gamma_upp = max(self.gamma_upp, _gamma(eta, ka2, kt4))
        self.gamma_low = min(self.gamma_low, _gamma(eta, kb2, kt4 / _square(kb2)))
        self.iterations += 1

    def merge(self, other: "BoundsTracker") -> None:
        self.m_upp = max(self.m_upp, other.m_upp)
        self.m_low = min(self.m_low, other.m_low)
        self.gamma_upp = max(self.gamma_upp, other.gamma_upp)
        self.gamma_low = min(self.gamma_low, other.gamma_low)
        self.iterations += other.iterations


def _sval(s: np.ndarray, r: int) -> float:
    """The r-th singular value; 0 when the matrix cannot carry rank r."""
    return float(s[r - 1]) if 1 <= r <= s.size else 0.0


def _square(v: float) -> float:
    """``v ** 2``, or inf where that overflows (Python's float power raises)."""
    try:
        return v**2
    except OverflowError:
        return math.inf


def _ratio_sq(num: float, den: float) -> float:
    return math.inf if den <= 0.0 else _square(float(num / den))


def _gamma(eta: float, k2: float, d: float) -> float:
    """``1 - (1 - (1 - eta / k2)^2) / d``, gamma_upp from (kappa^2(A), kt^4(B X))
    and gamma_low from (kappa^2(B X), kt^4 / kappa^4 of B X); 1 where either
    is infinite (or *d*, at least 1 in exact arithmetic, underflows to 0)."""
    if not (math.isfinite(k2) and 0.0 < d < math.inf):
        return 1.0
    return 1.0 - (1.0 - (1.0 - eta / k2) ** 2) / d


@dataclass(frozen=True)
class FloorBracket:
    """Analytic bounds on the stationary expected squared distance."""

    gamma_upp: float
    gamma_low: float
    floor_upper: float
    floor_lower: float
    available: bool = True

    def __post_init__(self):
        if (
            math.isfinite(self.floor_lower)
            and math.isfinite(self.floor_upper)
            and self.floor_lower > self.floor_upper * (1 + 1e-12)
        ):
            raise ValueError("floor_lower exceeds floor_upper")


def floor_brackets(
    net: Network,
    data: Dataset,
    state: SweepState,
    eta: float,
    oracle_loss: float,
    tracker: BoundsTracker | None = None,
) -> FloorBracket:
    """Error-floor bracket from the run's tracked bounds (or this state's).

    ``oracle_loss`` is ||W* X - Y||_F^2.  With no tracker the bracket is
    evaluated from the current state's condition numbers alone.  An
    infinite condition number, or a tracker that saw no iteration, marks
    the bracket unavailable.
    """
    _check_eta(eta)
    if tracker is None:
        tracker = BoundsTracker()
        _view(state, net, data, l2(), _evaluate, eta, tracker)
    L = net.depth
    oracle_loss = float(oracle_loss)
    available = (
        tracker.iterations > 0
        and math.isfinite(tracker.m_upp)
        and tracker.m_low > 0
        and tracker.gamma_upp < 1.0
        and 0.0 < tracker.gamma_low
    )
    if tracker.gamma_upp < 1.0 and tracker.m_low > 0 and math.isfinite(tracker.m_low):
        floor_upper = eta**2 * oracle_loss / (tracker.m_low * (1.0 - tracker.gamma_upp**L))
    else:
        floor_upper = math.inf
    if math.isfinite(tracker.m_upp) and tracker.gamma_low < 1.0:
        floor_lower = eta**2 * oracle_loss / (tracker.m_upp * (1.0 - tracker.gamma_low**L))
    else:
        floor_lower = 0.0
    return FloorBracket(
        gamma_upp=tracker.gamma_upp,
        gamma_low=tracker.gamma_low,
        floor_upper=floor_upper,
        floor_lower=floor_lower,
        available=available,
    )


def bcsgd_step(
    net: Network,
    data: Dataset,
    lf: LossFunction,
    state: SweepState,
    eta: float,
    rng: np.random.Generator,
    oracle_objective: float | None = None,
    tracker: BoundsTracker | None = None,
) -> StepRecord:
    """One stochastic iteration: sample i ~ pi, rank-one update one layer.

    Square loss only (the sampling scheme and rate are derived for it).
    The step is ``run_bcsgd``'s, drawn from ``sampling_distribution``.
    """
    _require_l2(lf)
    _check_eta(eta)
    return _single_step(state, net, data, lf, oracle_objective, _bcsgd_step_core, eta, rng, tracker)


def _require_l2(lf: LossFunction) -> None:
    if lf.power != 2:
        raise ValueError("BCSGD is defined for the square loss")


def _check_eta(eta: float) -> None:
    """The one check of a BCSGD rate scale, run before any work."""
    if not 0 < eta < 2:
        raise ValueError("eta must lie in (0, 2)")


def _bcsgd_step_core(run, ell, iteration, sweep, a, bx, eta, rng, tracker):
    """BCSGD iteration *iteration* (of sweep *sweep*) at layer *ell*, from
    the sweep's factors, ended by ``optim._descend``.

    With compression (``run.q`` not None) *bx* is ``C = B R^T``, example i's
    column ``C q_i`` and its target the original ``y_i`` of ``run.data``.
    The run's ``ranks`` (r, r_x) condition A and B X in the rate and the
    *tracker* (``_evaluate``).  The caller has checked *eta*.
    """
    q = run.q
    weights, mass, sa, sb, k = _evaluate(run, ell, a, bx, eta, tracker)
    i = _draw(weights / mass, rng)
    lr = _rate(sa, sb, k, eta, float(weights[i]))
    pred = a.dot(run.work.layers[ell - 1]).dot(bx)
    if q is None:
        col, pred_i = bx[:, i], pred[:, i]
    else:
        q_i = q[i]
        col, pred_i = bx.dot(q_i), pred.dot(q_i)
    grad_i = np.outer(a.T.dot(pred_i - run.data.y[:, i]), col)
    grad_fro = _fro(grad_i)
    return _descend(run, ell, iteration, sweep, a, bx, pred, lr, grad_i, grad_fro, sample_index=i)


def run_bcsgd(
    net: Network,
    data: Dataset,
    lf: LossFunction,
    eta: float,
    sweeps: int,
    seed: int,
    ordering: str = "ascending",
    oracle_objective: float | None = None,
    meta: dict | None = None,
) -> tuple[Trajectory, BoundsTracker]:
    """Run BCSGD for a fixed number of sweeps with its own RNG stream.

    Returns the trajectory and the tracker holding the run's sup/inf of
    the bracket constants.  The network is updated in place, in the one
    run loop ``optim._drive``, by the sweep ``optim._layerwise`` builds, as
    ``run_bcgd``'s is; every run makes all its *sweeps* (no target).  The
    samples drawn, rates, losses and tracker constants are those of the full
    run up to rounding.  The QR of X^T and X's singular values (of R^T when
    compressed), which the ranks and layer 1's spectra read, are cached on
    *data*, so runs of several seeds on one dataset take them once.
    """
    _require_l2(lf)
    _check_eta(eta)
    rng, tracker = np.random.default_rng(seed), BoundsTracker()
    run, sweep = _layerwise(net, data, lf, oracle_objective, ordering,
                            _bcsgd_step_core, eta, rng, tracker)
    meta = {"ordering": ordering, "policy": f"bcsgd:{eta!r}", "seed": seed, **(meta or {})}
    return _drive(run, meta, sweeps, sweep), tracker
