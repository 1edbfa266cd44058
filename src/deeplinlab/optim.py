"""Block coordinate gradient descent, plain GD, and learning-rate policies.

A sweep visits every layer once, ascending (1..L) or descending (L..1);
each iteration updates one layer from the gradient evaluated at the
latest values of all layers (Gauss-Seidel).  Four adaptive learning-rate
policies are provided next to a constant rate:

* ``theory_l2``       eta / (||A||^2 ||B X||^2), 0 < eta < 2
* ``optimal_l2``      ||G||_F^2 / ||A G B X||_F^2  (exact line search)
* ``convex_safe``     1 / (||C(resid)||_max ||A||^2 ||B X||^2)
* ``near_optimal_general`` / ``near_optimal_lp``
                      ||G||_F^2 / (||C(resid)||_max ||A G B X||_F^2)

where A is the product of the layers above the target, B the product
below, G the layer gradient and C the curvature bound of the loss.

Trajectories record, per iteration, the tracked objective (for the
|z-b|^p family: sum |pred - y|^p, the convention in which the optimal
step's drop identity is exact), the normalized distance to the oracle
optimum, the rate used, and the contraction bound when one applies:
theory_l2's, which ``_evaluate`` takes beside its rate (``theory`` reads
it there and ``optim`` imports no ``theory``).  A rate whose denominator
is below 1e-300 is 0, a skipped step; the spectral denominators and the
GD reference rate square through ``matcore._square``, so one that
overflows is inf and its rate 0 too, not an OverflowError.

Every runner (``run_bcgd``, ``run_gd`` and ``sgd.run_bcsgd``) is one
``_drive`` loop over the run ``_reduce`` returns: the exact problem
reduction, each part taken only when it changes nothing but rounding.  A
block-diagonal chain trains only its head blocks, and a square-loss run
with m > d_in trains on the QR-compressed samples ``(R^T, Y Q)`` of
``X^T = Q R`` plus the constant residual of Y outside X's row space, so
no step touches an m-wide matrix.  ``_drive`` numbers the sweeps and
``_sweep`` picks each step's layer; BCGD and BCSGD runs enter through one
``_layerwise`` (the ordering check and ``_reduce``) and differ only in the
step core its sweep runs.  The public single-step functions and state
views enter through ``_at_state``: ``_reduce``'s run and the factors
``_sweep`` would hand out (``network._factors``); a single step is a
one-sweep ``_drive`` of the runner's step code, so N of them give a run's N
records bit for bit.  Every state view is ``_view``: its step's evaluation
at ``_at_state`` under ``_quiet``, the warning state of ``_drive``.  A BCGD
step and its state views (``compute_lr``, ``theory.gamma_factor``) share
``_evaluate``, a BCSGD step and its three ``sgd._evaluate``.  Every runner
replaces a layer through ``_update`` (in the caller's network too where the
head chain is a copy), and BCGD and BCSGD steps end in ``_descend``.

Every matrix product on a step's path is written ``a.dot(b)``, left to
right as ``a @ b @ c`` associates, but for the layer gradient, which
``losses.gradient_from_parts`` forms through its d_out-wide side as
``A^T (D (B X)^T)``.  On the C- or F-contiguous operands the steps form
(``Network`` and ``Dataset`` store a strided view as a copy) ``dot`` gives
the bits of ``@`` in about half its dispatch time at 32 x 32, as
``tests/test_dot_dispatch.py`` pins.  ``||G||_F^2`` is taken once per step
(``matcore._sq_fro``) and serves both the record and the rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .data import Dataset
from .losses import LossFunction, _check_dims, _objective, gradient_from_parts
from .matcore import _all_finite, _kappa_r_from_svals, _sq_fro, _square, _svals, numeric_rank
from .network import Network, _factors, _head_blocks, _prefixes, _suffixes, end_to_end
from .oracle import reference_objective

__all__ = [
    "LrPolicy",
    "ORDERINGS",
    "StepRecord",
    "SweepState",
    "Trajectory",
    "bcgd_step",
    "compute_lr",
    "gd_step",
    "reference_gd_rate",
    "run_bcgd",
    "run_gd",
]

ORDERINGS = ("ascending", "descending")
POLICY_KINDS = (
    "theory_l2",
    "optimal_l2",
    "convex_safe",
    "near_optimal_general",
    "near_optimal_lp",
    "constant",
)
_DENOM_FLOOR = 1e-300
# The ufuncs np.sum and np.max dispatch to for an ndarray (call them with
# axis=None): the same bits, without the wrapper's cost on every step.
_sum = np.add.reduce
_max = np.maximum.reduce
_SPECTRAL_KINDS = ("theory_l2", "convex_safe")  # rate needs ||A||_2 and ||B X||_2
# How every step and state view runs: numpy's overflow and invalid-value warnings
# off, since the steps' finiteness checks raise on what those warnings report.
_quiet = partial(np.errstate, over="ignore", invalid="ignore")


def _check_ordering(ordering: str) -> None:
    """The one check of a sweep ordering, run before any work."""
    if ordering not in ORDERINGS:
        raise ValueError(f"ordering must be one of {ORDERINGS}")


def _layer_order(depth: int, ordering: str) -> range:
    """The one layer order of a sweep: 1..L ascending, L..1 descending."""
    return range(1, depth + 1) if ordering == "ascending" else range(depth, 0, -1)


@dataclass
class SweepState:
    """Multi-index bookkeeping for the single-step functions.

    ``position`` is the 1-based slot within the current sweep; the layer
    it maps to depends on the ordering.  ``multi_index`` is derived from
    the sweep and the position, so a copy of a state is independent of it.
    """

    depth: int
    ordering: str = "ascending"
    sweep: int = 0
    position: int = 1

    def __post_init__(self):
        _check_ordering(self.ordering)
        if not 1 <= self.position <= self.depth:  # implies depth >= 1
            raise ValueError(f"need 1 <= position <= depth, got {self.position} and {self.depth}")

    def _check_depth(self, net: Network) -> None:
        """The one check that the state sweeps *net*, run before any work."""
        if self.depth != net.depth:
            raise ValueError(f"state depth {self.depth} does not match network depth {net.depth}")

    def layer_to_update(self) -> int:
        """The 1-based layer index the next iteration touches (``_layer_order``)."""
        return _layer_order(self.depth, self.ordering)[self.position - 1]

    @property
    def iteration(self) -> int:
        """Count of completed iterations."""
        return self.sweep * self.depth + self.position - 1

    @property
    def multi_index(self) -> list:
        """Per layer, the count of its updates so far: ``sweep``, plus one
        for each layer the current sweep has visited.  After a full sweep
        every entry has grown by exactly one."""
        visited = _layer_order(self.depth, self.ordering)[: self.position - 1]
        return [self.sweep + (ell in visited) for ell in range(1, self.depth + 1)]

    def advance(self) -> None:
        if self.position < self.depth:
            self.position += 1
        else:
            self.position = 1
            self.sweep += 1


@dataclass(frozen=True)
class LrPolicy:
    kind: str
    eta: float | None = None
    p: int | None = None

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy {self.kind!r}; pick from {POLICY_KINDS}")
        if self.kind == "theory_l2":
            if self.eta is None or not 0 < self.eta < 2:
                raise ValueError("theory_l2 needs 0 < eta < 2")
        if self.kind == "constant":
            if self.eta is None or not 0 <= self.eta < math.inf:
                raise ValueError("constant policy needs eta >= 0 and finite")
        if self.kind == "near_optimal_lp":
            if self.p is None or self.p < 2 or self.p % 2 != 0:
                raise ValueError("near_optimal_lp needs an even p >= 2")


def _check_policy(policy: LrPolicy, lf: LossFunction) -> None:
    """The one check that *policy* suits the loss *lf*, run before any work:
    theory_l2 and optimal_l2 hold for the l2 loss only, and near_optimal_lp
    for the loss of its own p."""
    if policy.kind in ("theory_l2", "optimal_l2") and lf.power != 2:
        raise ValueError(f"{policy.kind} needs the l2 loss, got {lf.name}")
    if policy.kind == "near_optimal_lp" and policy.p != lf.power:
        raise ValueError(f"near_optimal_lp with p={policy.p} does not match loss {lf.name}")


@dataclass(frozen=True)
class StepRecord:
    iteration: int
    sweep: int
    layer: int                 # 0 means all layers (plain GD step)
    lr: float
    loss_before: float
    loss_after: float
    dist_before: float
    dist_after: float
    grad_frobenius: float
    gamma_bound: float | None = None
    sample_index: int | None = None


@dataclass
class Trajectory:
    records: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.records)

    def losses(self) -> np.ndarray:
        return np.array([r.loss_after for r in self.records])

    def final_dist(self) -> float:
        return self.records[-1].dist_after if self.records else math.nan


def _spectra(run: _Run, ell: int, a: np.ndarray, bx: np.ndarray):
    """The one place a layer-wise step takes singular values: those of A and
    of B X around layer *ell* of ``run.work``.  Both ends of the chain are
    known without an SVD: at the top layer A is the identity on n_L
    (``network._suffixes``), whose singular values are all 1 (an empty A
    keeps ``_svals``' ``[0.0]``), and at layer 1 B X is ``run.samples``' X
    itself, whose spectrum ``Dataset._x_svals`` caches once per dataset."""
    a_svals = np.ones(len(a)) if ell == run.work.depth and a.size else _svals(a)
    return a_svals, run.samples._x_svals if ell == 1 else _svals(bx)


def _lr_from_parts(
    policy: LrPolicy,
    lf: LossFunction,
    spectra,
    a: np.ndarray,
    bx: np.ndarray,
    pred: np.ndarray,
    y: np.ndarray,
    g: np.ndarray,
    g2: float,
) -> float:
    """Learning rate for one step from the factored quantities.

    *spectra* is the step's ``_spectra`` or None; *pred* holds the current
    predictions (the point the curvature bound is evaluated at); *g2* is
    ``||G||_F^2`` as the step took it (``matcore._sq_fro``), the numerator
    of the optimal, general and lp rates; a denominator below 1e-300 yields
    rate 0, the skip-step convention for degenerate states.  The spectral
    denominators square ``||A||_2`` and ``||B X||_2`` through
    ``matcore._square``, so one that overflows is inf and its rate
    ``eta / inf = 0.0``: the same skip.  So is one that is 0 times an
    overflowed square (NaN), whose exact value is 0.
    """
    kind = policy.kind
    if kind == "constant":
        return float(policy.eta)
    if kind in _SPECTRAL_KINDS:
        a_svals, bx_svals = spectra
        denom = _square(float(a_svals[0])) * _square(float(bx_svals[0]))
        if kind == "convex_safe":
            denom *= float(_max(lf.curvature(pred, y), axis=None)) if pred.size else 0.0
        if not denom >= _DENOM_FLOOR:  # NaN too: 0 times an overflowed square
            return 0.0
        return (policy.eta if kind == "theory_l2" else 1.0) / denom
    agbx = a.dot(g).dot(bx)
    denom = float(_sum(agbx * agbx, axis=None))
    if kind == "near_optimal_general":
        denom *= float(_max(lf.curvature(pred, y), axis=None)) if pred.size else 0.0
    elif kind == "near_optimal_lp":
        p = policy.p
        max_abs = float(_max(np.abs(pred - y), axis=None)) if pred.size else 0.0
        denom *= (p - 1) * max_abs ** (p - 2)
    if denom < _DENOM_FLOOR:
        return 0.0
    return g2 / denom


def compute_lr(
    policy: LrPolicy,
    net: Network,
    data: Dataset,
    lf: LossFunction,
    state: SweepState,
) -> float:
    """The rate ``bcgd_step`` would take and record at the state (``_view``)."""
    _check_policy(policy, lf)
    return _view(state, net, data, lf, _evaluate, policy, state.iteration + 1)[3]


def _view(state: SweepState, net, data, lf, evaluate, *args):
    """``evaluate(run, ell, A, B X, *args)``, a runner's step evaluation, at
    the state's next step (``_at_state``) under ``_quiet``: the one entry of
    every state view (BCGD's ``_evaluate``, BCSGD's ``sgd._evaluate``)."""
    with _quiet():
        return evaluate(*_at_state(state, net, data, lf), *args)


def _resolve_oracle(net: Network, data: Dataset, lf: LossFunction, oracle_objective) -> float:
    """*oracle_objective*, else ``oracle.reference_objective`` at the rank of
    the chain's narrowest width (what the CLI uses without ``--rank``)."""
    if oracle_objective is not None:
        return float(oracle_objective)
    return reference_objective(data, lf, min(net.dims))


@dataclass(frozen=True)
class _Run:
    """What every step trains on and is stated for.

    *net* and *data* are the full chain and the original data: the
    trajectory's ``dims``, the snapshots, the distances (divided by
    ``data.m``), the ranks and the gamma bound's rank tolerances stay on
    them.  The steps train *work* on *samples*: ``_reduce``'s head chain
    and compressed samples, or *net* and *data* where it declines.  A
    compact *net*'s *work* is its own head chain, trained in place; any
    other head chain is a copy, whose every trained block ``_update``
    writes into *net*.
    *q* is the compression's Q (m x d_in) or None, *c* the residual every
    recorded objective adds (0.0 uncompressed), *oracle_obj* the optimum's
    objective the distances are measured from and *lf* the loss.
    """

    net: Network
    work: Network
    samples: Dataset
    data: Dataset
    q: np.ndarray | None
    c: float
    oracle_obj: float
    lf: LossFunction

    @cached_property
    def ranks(self) -> tuple[int, int]:
        """``(r, r_x)``: the numeric ranks of *net*'s top layer (at most n_L;
        ``Network._layer``, of a compact network the one layer built) and of
        *samples*' X (X, or the compressed R^T, its spectrum the cached
        ``Dataset._x_svals`` that ``_spectra`` reads), ranked at *data*'s X
        shape, that A and B X are conditioned by.  Taken when a run's first
        step reads them, before it moves its layer: before any layer moves."""
        top, x_svals = self.net._layer(self.net.depth), self.samples._x_svals
        return numeric_rank(_svals(top), top.shape), numeric_rank(x_svals, self.data.x.shape)


def _reduce(net: Network, data: Dataset, lf: LossFunction, oracle_objective) -> _Run:
    """The run a runner trains on: the exact problem reduction of *net* on
    *data*, each part taken only when it changes nothing but rounding.

    Width part: when every layer is block-diagonal around its head block
    ``W_l[:k_l, :k_(l-1)]``, ``k_l = min(n_l, max(n_0, n_L))``, with some
    ``k_l < n_l`` (``network._head_blocks``, the one width decision; the
    orth-identity, identity and balanced inits at widths above
    ``max(n_0, n_L)``), ``work`` is the head chain, else *net* itself.  A
    compact network's head chain is its own, handed over as it is: no scan,
    no copy, and the steps train it in place.  Every layer gradient
    ``A^T D (B X)^T`` and every rank-one BCSGD update lives in the head
    block, so training the head chain is training the full chain, and the
    other blocks stay bitwise as they were.

    Sample part: for the square loss with m > d_in, *data*'s cached
    ``Dataset._compressed`` gives ``samples`` = ``(R^T, Y Q)``, the constant
    c every objective adds and Q (m x d_in), so every run on one dataset
    shares one QR; else ``samples`` is *data*, c is 0.0 and q is None.
    The widths of *net* must match *data*'s (``losses._check_dims``).  The
    reduction runs under ``_quiet``, as the steps do: a reference or a
    compression that overflows leaves its non-finite numbers to the steps'
    checks, with no numpy warning.
    """
    with _quiet():
        _check_dims(net, data)
        oracle_obj = _resolve_oracle(net, data, lf, oracle_objective)
        chain = _head_blocks(net)
        samples, c, q = data._compressed if lf.power == 2 and data.m > data.d_in else (data, 0.0, None)
        return _Run(net, net if chain is None else chain, samples, data, q, c, oracle_obj, lf)


def _drive(run: _Run, meta: dict, sweeps: int, sweep, target_dist=-math.inf, on_sweep_end=None):
    """The run loop of every runner: ``sweep(s)`` for s = 1..*sweeps*, each
    call returning the records of sweep s (of iteration s for GD).

    The trajectory's meta is the full chain's ``dims``, the loss and the
    oracle objective, then *meta*, whose keys win.  Stop rule: the run
    ends after the first sweep whose last distance is at or below
    *target_dist* (never at -inf), so stops fall on sweep boundaries.
    After each sweep ``on_sweep_end(completed_sweeps, run.net)`` (the
    snapshot hook) sees the full chain as the sweep left it, since
    ``run.net`` holds every block ``_update`` trains.  The loop runs
    under ``_quiet``.
    """
    traj = Trajectory(
        meta={"dims": run.net.dims, "loss": run.lf.name, "oracle_objective": run.oracle_obj, **meta}
    )
    records = traj.records
    with _quiet():
        for done in range(1, sweeps + 1):
            records.extend(sweep(done))
            if on_sweep_end is not None:
                on_sweep_end(done, run.net)
            if records[-1].dist_after <= target_dist:
                break
    return traj


def _evaluate(run: _Run, ell, a, bx, policy: LrPolicy, iteration):
    """``(pred, G, ||G||_F^2, lr, gamma)`` of BCGD iteration *iteration* at
    layer *ell* of ``run.work`` on ``run.samples``, from its factors: the one
    evaluation of the BCGD step and its state views.

    A theory_l2 step's gamma bound (else None) is
    ``max(1 - eta / (kappa_r^2(A) kappa_rx^2(B X)), eta - 1)``, from the same
    spectra as the rate, with A taken as ``n_L x n_ell`` and B X as
    ``n_(ell-1) x m`` of the full chain in its rank tolerance, and
    ``(r, r_x) = run.ranks``.  A rank outside ``1..min(shape)`` is one the
    matrix cannot carry: r = 0 (a rank-0 X, or a top layer with no rows) as
    much as a rank above the smaller side.  Its condition number is infinite
    (``matcore._kappa_r_from_svals``) and the bound 1.  A step the rate
    floor skips (lr 0) does not move, so it records 1 too.

    B X is conditioned by its r_x-th singular value, r_x the rank of X,
    even above a bottleneck narrower than r_x, where B X cannot carry that
    rank: there the bound is 1, vacuous, as acceptance 9 requires.  The
    contraction it states, ``dist_after <= dist_before * gamma^2``, rests
    on B X carrying X's rank; a bound from a capped rank would be finite
    with no theorem behind it, and ``verify`` would audit runs against it.
    The BCSGD rate and bracket tracker cap the rank at what B X can carry
    (``sgd._bx_rank``) for another reason: the rate must train every
    layer, and the bracket must bound the floor the chain can reach.

    The gradient G must be finite, or RuntimeError names the iteration and
    the layer.  ``||G||_F^2`` is taken once per step (``matcore._sq_fro``):
    its root is the recorded ``grad_frobenius`` and it is the rate's
    numerator; only when it is not finite does the entrywise
    ``np.isfinite(G).all()`` run, so a finite G whose squared norm
    overflows passes on to ``_update``'s check.  A rate that is not finite
    (inf over an overflowing ``||A G B X||_F^2`` is NaN) raises here the
    error its update would raise (``_update_error``), so ``compute_lr`` and
    ``theory.gamma_factor`` raise it too.
    """
    y, lf = run.samples.y, run.lf
    pred = a.dot(run.work.layers[ell - 1]).dot(bx)
    g = gradient_from_parts(a, bx, lf.deriv(pred, y))
    g2 = _sq_fro(g)
    if not math.isfinite(g2) and not np.isfinite(g).all():
        raise RuntimeError(
            f"non-finite gradient at iteration {iteration}, "
            f"layer {ell} (loss so far {_objective(pred, y, lf) + run.c:.6g})"
        )
    spectra = _spectra(run, ell, a, bx) if policy.kind in _SPECTRAL_KINDS else None
    lr = _lr_from_parts(policy, lf, spectra, a, bx, pred, y, g, g2)
    if not lr < math.inf:  # NaN too: no update at this rate is finite
        raise _update_error(iteration, ell, lr, math.sqrt(g2))
    gamma = None
    if policy.kind == "theory_l2":
        (a_svals, bx_svals), (r, r_x), dims, eta = spectra, run.ranks, run.net.dims, policy.eta
        ka = _kappa_r_from_svals(a_svals, (dims[-1], dims[ell]), r)
        kb = _kappa_r_from_svals(bx_svals, (dims[ell - 1], run.data.m), r_x)
        denom = ka * ka * kb * kb
        gamma = max(1.0 - eta / denom if lr and math.isfinite(denom) else 1.0, eta - 1.0)
    return pred, g, g2, lr, gamma


def _step_core(run: _Run, ell, iteration, sweep, a, bx, policy: LrPolicy) -> StepRecord:
    """BCGD iteration *iteration* of sweep *sweep*: ``_evaluate``, then ``_descend``."""
    pred, g, g2, lr, gamma = _evaluate(run, ell, a, bx, policy, iteration)
    return _descend(run, ell, iteration, sweep, a, bx, pred, lr, g, math.sqrt(g2), gamma)


def _update(run: _Run, ell, iteration, lr, g, grad_fro) -> np.ndarray:
    """The one layer update of every runner: layer *ell* of ``run.work``,
    *w*, becomes ``w - lr * g`` (returned) once that is finite
    (``matcore._all_finite``); else ``_update_error``.  A compact network's
    own head chain needs no other write; a head chain that is a copy (of a
    network built dense, or of a compact one whose ``layers`` were read
    mid-run) writes the block into ``run.net``'s layer (``W[:k, :k'] = w``)."""
    new_w = run.work.layers[ell - 1] - lr * g
    if not _all_finite(new_w):
        raise _update_error(iteration, ell, lr, grad_fro)
    run.work.layers[ell - 1] = new_w
    if run.work is not run.net and run.work is not run.net._chain:
        run.net.layers[ell - 1][: new_w.shape[0], : new_w.shape[1]] = new_w
    return new_w


def _update_error(iteration, ell, lr, grad_fro) -> RuntimeError:
    """The error of an update that is not finite: an overflowing one, or any
    at a rate that is not finite (``_evaluate`` raises it before the update)."""
    return RuntimeError(
        f"non-finite update at iteration {iteration}, layer {ell} "
        f"(lr {lr:.6g}, |G|_F {grad_fro:.6g})"
    )


def _descend(run, ell, iteration, sweep, a, bx, pred, lr, g, grad_fro, gamma=None,
             sample_index=None) -> StepRecord:
    """The tail of every BCGD and BCSGD step: ``_update`` layer *ell* of
    ``run.work`` (predicting *pred*) and record the step of *iteration*
    and *sweep*; *sample_index* marks BCSGD.  ``_record`` checks the loss.
    """
    loss_before = _objective(pred, run.samples.y, run.lf) + run.c
    new_w = _update(run, ell, iteration, lr, g, grad_fro)
    loss_after = _objective(a.dot(new_w).dot(bx), run.samples.y, run.lf) + run.c
    return _record(
        run, iteration, sweep, ell, lr, loss_before, loss_after, grad_fro, gamma, sample_index
    )


def _record(run, iteration, sweep, layer, lr, loss_before, loss_after, grad_fro, gamma=None,
            sample_index=None) -> StepRecord:
    """A step's record, its distances ``(objective - oracle) / m`` taken
    with the true example count of ``run.data``.

    The one divergence rule of every runner: a non-finite *loss_after*
    raises RuntimeError naming the runner, the iteration and the layer
    (*layer* 0: all layers, a GD step; *sample_index* marks BCSGD).
    """
    if not math.isfinite(loss_after):
        runner = "GD" if not layer else "BCGD" if sample_index is None else "BCSGD"
        where = f"layer {layer}" if layer else "all layers"
        raise RuntimeError(
            f"non-finite loss ({loss_after!r}) after {runner} iteration {iteration}, "
            f"{where} (lr {lr:.6g})"
        )
    oracle_obj, m = run.oracle_obj, run.data.m
    return StepRecord(
        iteration, sweep, layer, lr, loss_before, loss_after,
        (loss_before - oracle_obj) / m, (loss_after - oracle_obj) / m,
        grad_fro, gamma, sample_index,
    )


def bcgd_step(
    net: Network,
    data: Dataset,
    lf: LossFunction,
    state: SweepState,
    policy: LrPolicy,
    oracle_objective: float | None = None,
) -> StepRecord:
    """One BCGD iteration on the layer the state designates.

    All other layers are untouched; the state's multi-index advances by
    the updated layer's unit vector.  The contraction bound is recorded
    for the theory_l2 policy (its rate guarantee applies there).  The
    step is ``run_bcgd``'s, with the theory_l2 ranks taken at this state.
    """
    _check_policy(policy, lf)
    return _single_step(state, net, data, lf, oracle_objective, _step_core, policy)


def _at_state(state: SweepState, net, data, lf, oracle_objective=math.nan):
    """``(run, ell, A, B X)`` at the state's next step, the one entry of the
    single steps and state views: ``_reduce``'s run (a state view reads no
    distance, so no optimum), the layer and its ``network._factors``."""
    state._check_depth(net)
    run = _reduce(net, data, lf, oracle_objective)
    ell = state.layer_to_update()
    return (run, ell, *_factors(run.work, run.samples.x, ell))


def _single_step(state: SweepState, net, data, lf, oracle_objective, core, *args) -> StepRecord:
    """The runner's *core* at the state's next step (``_at_state`` under
    ``_quiet``), numbered from the state, as a one-sweep ``_drive``; the
    state then advances."""
    with _quiet():
        run, ell, a, bx = _at_state(state, net, data, lf, oracle_objective)
    it, s = state.iteration + 1, state.sweep + 1
    record = _drive(run, {}, 1, lambda _s: [core(run, ell, it, s, a, bx, *args)]).records[0]
    state.advance()
    return record


def _sweep(net: Network, x: np.ndarray, ordering: str):
    """One sweep's factors ``(ell, A, B X)`` in ``_layer_order``, before each
    layer update: the one source of a runner's layers and of GD's factors.
    The side not visited yet is built from the layers at the sweep start
    (they do not change before their turn); the visited side is formed
    through ``net.layers[ell - 1]`` only after the caller has replaced it
    (``network._suffixes``, ``_prefixes``).  At layer 1, B X is *x* itself.
    """
    layers = _layer_order(net.depth, ordering)
    if ordering == "ascending":
        return zip(layers, list(_suffixes(net))[::-1], _prefixes(net, x))
    return zip(layers, _suffixes(net), list(_prefixes(net, x))[::-1])


def _layerwise(net, data, lf, oracle_objective, ordering: str, core, *args):
    """The one entry of the layer-wise runners (BCGD, BCSGD): ``(run, sweep)``,
    ``_reduce``'s run once *ordering* is checked, and the ``sweep(s)`` that
    ``_drive`` calls: ``core(run, ell, iteration, s, A, B X, *args)`` at each
    of ``_sweep``'s layers, iterations numbered from ``(s - 1) * depth + 1``."""
    _check_ordering(ordering)
    run = _reduce(net, data, lf, oracle_objective)

    def sweep(s):
        steps = enumerate(_sweep(run.work, run.samples.x, ordering), (s - 1) * run.work.depth + 1)
        return [core(run, ell, it, s, a, bx, *args) for it, (ell, a, bx) in steps]

    return run, sweep


def run_bcgd(
    net: Network,
    data: Dataset,
    lf: LossFunction,
    policy: LrPolicy,
    ordering: str = "ascending",
    max_sweeps: int = 100,
    target_dist: float = 1e-10,
    oracle_objective: float | None = None,
    meta: dict | None = None,
    on_sweep_end=None,
) -> Trajectory:
    """Run BCGD sweeps until ``max_sweeps`` or the target distance.

    The network is updated in place at every step; ``_drive`` holds the
    stop rule and ``on_sweep_end(completed_sweeps, net)`` (the snapshot
    hook).  Each sweep takes its factors ``(A, B X)`` from ``_sweep``, so it
    costs O(L) matrix products; each step takes the singular values of A
    and B X (``_spectra``) at most once, and only for the policies that need
    them (theory_l2 shares them between its rate and its gamma bound).  The
    theory_l2 ranks are taken once per run.
    """
    _check_ordering(ordering)  # an ordering's error comes before the policy's
    _check_policy(policy, lf)
    run, sweep = _layerwise(net, data, lf, oracle_objective, ordering, _step_core, policy)
    meta = {"ordering": ordering, "policy": policy.kind, **(meta or {})}
    return _drive(run, meta, max_sweeps, sweep, target_dist, on_sweep_end)


def gd_step(
    net: Network,
    data: Dataset,
    lf: LossFunction,
    eta: float,
    oracle_objective: float | None = None,
    state: SweepState | None = None,
) -> StepRecord:
    """One plain gradient-descent step: every layer moves simultaneously.

    All gradients are evaluated at the pre-step weights before any layer
    changes, so the result does not depend on layer order.  The step is
    ``run_gd``'s, as a one-sweep ``_drive``; a non-finite gradient, update
    or loss raises RuntimeError naming the GD iteration (one past the
    *state*'s sweeps; the state then advances one sweep).  A *state* of
    another depth than *net*'s raises ValueError before any work.
    """
    _check_gd_eta(eta)
    if state is not None:
        state._check_depth(net)
    step = state.sweep + 1 if state else 1
    run = _reduce(net, data, lf, oracle_objective)
    record = _drive(run, {}, 1, lambda _s: [_gd_step_core(run, step, eta)]).records[0]
    if state is not None:
        state.sweep += 1  # as depth advances would: one sweep on, the same position
    return record


def _check_gd_eta(eta: float) -> None:
    """The one check of a GD rate, run before any work: finite and >= 0."""
    if not 0 <= eta < math.inf:
        raise ValueError(f"eta must be >= 0 and finite, got {eta!r}")


def _gd_step_core(run: _Run, step: int, eta: float) -> StepRecord:
    """GD iteration *step* on ``run.work`` and ``run.samples``; the caller
    has checked *eta* (``_check_gd_eta``).  Every gradient is taken, and
    checked as ``_step_core`` checks its G, before any layer moves."""
    net, x, y, lf = run.work, run.samples.x, run.samples.y, run.lf
    factors = list(_sweep(net, x, "ascending"))  # (l, A, B X) for l = 1..L, none moved yet
    pred = factors[0][1].dot(net.layers[0]).dot(x)  # B X at layer 1 is x
    d = lf.deriv(pred, y)
    grads = [gradient_from_parts(a, bx, d) for _l, a, bx in factors]
    g2s = [_sq_fro(g) for g in grads]
    for l, (g, g2) in enumerate(zip(grads, g2s), start=1):
        if not math.isfinite(g2) and not np.isfinite(g).all():
            raise RuntimeError(f"non-finite gradient at GD iteration {step}, layer {l}")
    loss_before = _objective(pred, y, lf) + run.c
    lr = float(eta)
    for l, (g, g2) in enumerate(zip(grads, g2s), start=1):
        _update(run, l, step, lr, g, math.sqrt(g2))
    loss_after = _objective(end_to_end(net).dot(x), y, lf) + run.c
    return _record(run, step, step, 0, lr, loss_before, loss_after, math.sqrt(sum(g2s)))


def run_gd(
    net: Network,
    data: Dataset,
    lf: LossFunction,
    eta: float,
    max_iters: int = 100,
    target_dist: float = 1e-10,
    oracle_objective: float | None = None,
    meta: dict | None = None,
) -> Trajectory:
    """Plain GD baseline with a constant learning rate.

    The network is updated in place.  Each iteration is one of ``_drive``'s
    sweeps, so the target is checked after every iteration.
    """
    _check_gd_eta(eta)
    run = _reduce(net, data, lf, oracle_objective)
    meta = {"policy": f"gd_const:{eta!r}", **(meta or {})}
    return _drive(run, meta, max_iters, lambda step: [_gd_step_core(run, step, eta)], target_dist)


def reference_gd_rate(net: Network, data: Dataset) -> float:
    """The literature reference rate n_L / (3 L ||X||^2) for plain GD; 0.0
    (the skip-step convention) when the denominator is below 1e-300 or
    overflows (``||X||^2`` taken by ``matcore._square``: inf, not an
    OverflowError)."""
    denom = 3.0 * net.depth * _square(float(data._x_svals[0]))
    return 0.0 if denom < _DENOM_FLOOR else net.dims[-1] / denom
