"""Experiment harness: config-driven runs, CSV trajectories, audits.

Subcommands
-----------
gen-data   synthesize a dataset CSV (Gaussian inputs, uniform outputs,
           optionally a reshaped singular spectrum)
train      run BCGD on synthetic or CSV data, emit a trajectory CSV
gd         plain gradient-descent baseline
bcsgd      stochastic runs over several seeds plus a floor-bracket report
oracle     print the global optimum's loss and Frobenius norm
verify     audit a trajectory CSV against its rate policy's guarantee
batch      run several config files in sequence

Exit codes: 0 success, 1 audit violation or diverged run, 2 configuration error
(including an ``--out`` whose directory cannot be created).  Every command
that writes creates its output's parent directory before it computes.

Config files are flat ``key = value`` lines mirroring the long flags
(with underscores); command-line flags override file values.  The same
RunConfig (seed included) always produces byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import ast
import math
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import losses, sgd, theory
from .data import Dataset, gen_input_gaussian, gen_output_uniform, load_normalize_csv, reshape_spectrum, sample_spectrum, write_csv
from .initializers import InitScheme, initialize
from .network import Network, save_network, width_ok
from .optim import LrPolicy, SweepState, Trajectory, reference_gd_rate, run_bcgd, run_gd
from .oracle import optimal_loss, rank_constrained_solution

__all__ = ["RunConfig", "emit_trajectory_csv", "main", "read_trajectory_csv", "run_experiment"]

CSV_COLUMNS = (
    "iteration",
    "sweep",
    "layer_updated",
    "lr",
    "loss",
    "dist_to_opt_raw",
    "dist_display",
    "gamma_bound",
    "grad_frobenius",
)


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    """Everything one training run needs, mirroring the CLI flags."""

    d_in: int = 32
    d_out: int = 4
    m: int = 100
    data_seed: int = 0
    spectrum: str = "none"        # none | shaped
    spectrum_seed: int = 0
    csv: str | None = None        # dataset file overrides the synthetic recipe
    depth: int = 5
    width: int | None = None      # default max(d_in, d_out)
    dims: tuple | None = None     # explicit chain overrides depth/width
    init: str = "orth_identity"
    seed: int = 0
    loss: str = "l2"
    policy: str = "optimal"
    order: str = "desc"
    sweeps: int = 100
    target: float = 1e-10
    rank: int | None = None       # oracle rank; default min of the chain
    out: str = "trajectory.csv"
    snapshots: int = 0

    def dimension_chain(self) -> tuple:
        if self.dims is not None:
            return tuple(int(d) for d in self.dims)
        width = self.width if self.width is not None else max(self.d_in, self.d_out)
        return (self.d_in,) + (width,) * (self.depth - 1) + (self.d_out,)

    def validate(self) -> None:
        if self.dims is None and self.depth < 1:
            raise ConfigError(f"depth must be >= 1, got {self.depth}")
        chain = self.dimension_chain()
        if len(chain) < 2 or any(d < 1 for d in chain):
            raise ConfigError(f"bad dimension chain {chain}")
        if chain[0] != self.d_in or chain[-1] != self.d_out:
            raise ConfigError(
                f"chain {chain} does not match d_in={self.d_in}, d_out={self.d_out}"
            )
        if self.order not in ("asc", "desc"):
            raise ConfigError("order must be asc or desc")
        if self.sweeps < 0:
            raise ConfigError("sweeps must be >= 0")
        lf = parse_loss(self.loss)
        policy = parse_policy(self.policy)
        if policy.kind in ("theory_l2", "optimal_l2") and lf.power != 2:
            raise ConfigError(f"policy {self.policy!r} needs the l2 loss")
        if policy.kind == "near_optimal_lp" and policy.p != lf.power:
            raise ConfigError(
                f"policy {self.policy!r} does not match loss {self.loss!r}"
            )
        if self.init.replace("-", "_") not in (
            "orthogonal", "orth_identity", "identity", "balanced", "random",
        ):
            raise ConfigError(f"unknown init {self.init!r}")
        if self.spectrum not in ("none", "shaped"):
            raise ConfigError("spectrum must be none or shaped")


def parse_loss(text: str) -> losses.LossFunction:
    if text == "l2":
        return losses.l2()
    if text.startswith("lp:"):
        try:
            return losses.lp(int(text[3:]))
        except ValueError as exc:
            raise ConfigError(f"bad loss {text!r}: {exc}") from exc
    raise ConfigError(f"loss must be l2 or lp:<p>, got {text!r}")


def parse_policy(text: str) -> LrPolicy:
    try:
        if text == "optimal":
            return LrPolicy("optimal_l2")
        if text == "convex":
            return LrPolicy("convex_safe")
        if text == "general":
            return LrPolicy("near_optimal_general")
        if text.startswith("theory:"):
            return LrPolicy("theory_l2", eta=float(text[7:]))
        if text.startswith("lp:"):
            return LrPolicy("near_optimal_lp", p=int(text[3:]))
        if text.startswith("const:"):
            return LrPolicy("constant", eta=float(text[6:]))
    except ValueError as exc:
        raise ConfigError(f"bad policy {text!r}: {exc}") from exc
    raise ConfigError(
        f"policy must be theory:<eta>|optimal|convex|general|lp:<p>|const:<eta>, got {text!r}"
    )


def build_dataset(cfg: RunConfig) -> Dataset:
    if cfg.csv:
        return load_normalize_csv(cfg.csv, cfg.d_in, cfg.d_out)
    x = gen_input_gaussian(cfg.d_in, cfg.m, cfg.data_seed)
    if cfg.spectrum == "shaped":
        targets = sample_spectrum(min(x.shape), cfg.spectrum_seed)
        x = reshape_spectrum(x, targets)
    y = gen_output_uniform(cfg.d_out, cfg.m, cfg.data_seed + 1)
    return Dataset(x=x, y=y)


def build_network(cfg: RunConfig) -> Network:
    scheme = InitScheme(kind=cfg.init.replace("-", "_"))
    return initialize(scheme, cfg.dimension_chain(), cfg.seed)


def _oracle_rank(cfg: RunConfig) -> int:
    """Rank of the reference optimum: ``rank``, else the chain's narrowest width."""
    return cfg.rank if cfg.rank is not None else min(cfg.dimension_chain())


def _make_out_dir(out) -> None:
    """Create the parent directory of the output path *out*, as the snapshot
    directory is created; ConfigError (exit 2) when that fails, for example
    when the parent is a regular file.  Every writing command calls this
    before it computes anything."""
    try:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create the directory of --out {out}: {exc}") from exc


def _prepare(cfg: RunConfig) -> tuple[Dataset, losses.LossFunction, float]:
    """Validate *cfg* and create its output directory; return its dataset,
    loss and reference optimum."""
    cfg.validate()
    _make_out_dir(cfg.out)
    data = build_dataset(cfg)
    if data.d_in != cfg.d_in or data.d_out != cfg.d_out:
        raise ConfigError(
            f"dataset is {data.d_in} -> {data.d_out}, config says "
            f"{cfg.d_in} -> {cfg.d_out}"
        )
    lf = parse_loss(cfg.loss)
    return data, lf, reference_objective(data, lf, _oracle_rank(cfg))


def run_experiment(cfg: RunConfig) -> Trajectory:
    """Validate, run, and write the trajectory CSV (plus snapshots)."""
    data, lf, oracle_obj = _prepare(cfg)
    net = build_network(cfg)
    policy = parse_policy(cfg.policy)
    chain = cfg.dimension_chain()
    ordering = "ascending" if cfg.order == "asc" else "descending"

    snapshot_dir = None
    on_sweep_end = None
    if cfg.snapshots > 0:
        snapshot_dir = Path(str(cfg.out) + ".snapshots")
        snapshot_dir.mkdir(parents=True, exist_ok=True)
        every = max(1, cfg.sweeps // cfg.snapshots)

        def on_sweep_end(sweep_idx: int, current: Network) -> None:
            if sweep_idx % every == 0 or sweep_idx == cfg.sweeps:
                save_network(current, snapshot_dir / f"sweep_{sweep_idx:06d}.net")

    start = time.perf_counter()
    traj = run_bcgd(
        net,
        data,
        lf,
        policy,
        ordering=ordering,
        max_sweeps=cfg.sweeps,
        target_dist=cfg.target,
        oracle_objective=oracle_obj,
        meta={"seed": cfg.seed, "init": cfg.init, "width_ok": width_ok(chain, cfg.d_in, cfg.d_out)},
        on_sweep_end=on_sweep_end,
    )
    elapsed = time.perf_counter() - start
    emit_trajectory_csv(traj, cfg.out)
    final = traj.final_dist()
    sweeps_done = traj.records[-1].sweep if traj.records else 0
    print(
        f"final_dist={final!r} sweeps={sweeps_done} iterations={len(traj)} "
        f"wall_time_s={elapsed:.3f} out={cfg.out}"
    )
    return traj


def reference_objective(data: Dataset, lf: losses.LossFunction, n_star: int) -> float:
    """The optimum's tracked-objective value for distance bookkeeping.

    For the square loss this is the minimized ||W X - Y||_F^2 itself; for
    other losses the square-loss optimum W* is evaluated under the run's
    objective (the reference the real-data experiments plot against).
    """
    if lf.power == 2:
        return optimal_loss(data.x, data.y, n_star)
    w_star = rank_constrained_solution(data.x, data.y, n_star).w_star
    return losses._objective(w_star @ data.x, data.y, lf)


def emit_trajectory_csv(traj: Trajectory, path) -> None:
    """Write the trajectory: ``#`` meta lines, header, one row per step.

    Floats are written with ``repr`` so a read-back is lossless.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key in sorted(traj.meta):
            fh.write(f"# {key}={traj.meta[key]!r}\n")
        if traj.records:
            first = traj.records[0]
            fh.write(f"# initial_loss={first.loss_before!r}\n")
            fh.write(f"# initial_dist={first.dist_before!r}\n")
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for r in traj.records:
            gamma = "" if r.gamma_bound is None else repr(r.gamma_bound)
            fh.write(
                f"{r.iteration},{r.sweep},{r.layer},{r.lr!r},{r.loss_after!r},"
                f"{r.dist_after!r},{max(r.dist_after, losses.DISPLAY_FLOOR)!r},"
                f"{gamma},{r.grad_frobenius!r}\n"
            )


def read_trajectory_csv(path) -> Trajectory:
    """Rebuild a Trajectory from an emitted CSV (losses/dists chained).

    ``meta`` holds each ``# key=value`` line's value parsed back from its
    ``repr`` (the raw text when it is no Python literal, such as ``nan``).
    """
    from .optim import StepRecord

    meta: dict = {}
    records = []
    prev_loss = math.nan
    prev_dist = math.nan
    with open(path, "r", encoding="utf-8") as fh:
        header_seen = False
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                try:
                    value = ast.literal_eval(value)
                except (ValueError, SyntaxError):
                    pass  # no Python literal (nan, inf): keep the text
                meta[key.strip()] = value
                continue
            if not header_seen:
                if line != ",".join(CSV_COLUMNS):
                    raise ValueError(f"{path}: unexpected header {line!r}")
                header_seen = True
                prev_loss = float(meta.get("initial_loss", "nan"))
                prev_dist = float(meta.get("initial_dist", "nan"))
                continue
            parts = line.split(",")
            if len(parts) != len(CSV_COLUMNS):
                raise ValueError(f"{path}: bad row {line!r}")
            gamma = float(parts[7]) if parts[7] else None
            rec = StepRecord(
                iteration=int(parts[0]),
                sweep=int(parts[1]),
                layer=int(parts[2]),
                lr=float(parts[3]),
                loss_before=prev_loss,
                loss_after=float(parts[4]),
                dist_before=prev_dist,
                dist_after=float(parts[5]),
                grad_frobenius=float(parts[8]),
                gamma_bound=gamma,
            )
            records.append(rec)
            prev_loss = rec.loss_after
            prev_dist = rec.dist_after
    if not header_seen:
        raise ValueError(f"{path}: no header found")
    return Trajectory(records=records, meta=meta)


# ---------------------------------------------------------------------------
# command implementations


def _cmd_gen_data(args) -> int:
    if args.out is None:
        raise ConfigError("gen-data needs --out")
    cfg = _config_from_args(args)
    cfg.csv = None
    _make_out_dir(args.out)
    dataset = build_dataset(cfg)
    write_csv(args.out, dataset)
    sv = np.linalg.svd(dataset.x, compute_uv=False)
    kappa = sv[0] / sv[-1] if sv[-1] > 0 else math.inf
    print(f"wrote {dataset.m} examples to {args.out} (kappa(X)={kappa:.4g})")
    return 0


def _cmd_train(args) -> int:
    run_experiment(_config_from_args(args))
    return 0


def _cmd_gd(args) -> int:
    cfg = _config_from_args(args)
    if args.iters < 1:
        raise ConfigError(f"gd needs iters >= 1, got {args.iters}")
    data, lf, oracle_obj = _prepare(cfg)
    net = build_network(cfg)
    eta = args.eta
    if eta is None:
        eta = reference_gd_rate(net, data)
    start = time.perf_counter()
    traj = run_gd(
        net, data, lf, eta,
        max_iters=args.iters, target_dist=cfg.target,
        oracle_objective=oracle_obj, meta={"seed": cfg.seed, "init": cfg.init},
    )
    elapsed = time.perf_counter() - start
    emit_trajectory_csv(traj, cfg.out)
    print(
        f"final_dist={traj.final_dist()!r} iterations={len(traj)} "
        f"eta={eta!r} wall_time_s={elapsed:.3f} out={cfg.out}"
    )
    return 0


def _cmd_bcsgd(args) -> int:
    cfg = _config_from_args(args)
    if args.seeds < 1:
        raise ConfigError(f"bcsgd needs seeds >= 1, got {args.seeds}")
    if cfg.sweeps < 1:
        raise ConfigError(f"bcsgd needs sweeps >= 1, got {cfg.sweeps}")
    data, lf, oracle_obj = _prepare(cfg)
    if lf.power != 2:
        raise ConfigError("bcsgd requires the l2 loss")
    ordering = "ascending" if cfg.order == "asc" else "descending"
    aggregate = sgd.BoundsTracker()
    tails = []
    out = Path(cfg.out)
    for k in range(args.seeds):
        run_seed = cfg.seed + k
        net = build_network(cfg)
        traj, tracker = sgd.run_bcsgd(
            net, data, lf, args.eta, cfg.sweeps, run_seed,
            ordering=ordering, oracle_objective=oracle_obj,
            meta={"init": cfg.init},
        )
        aggregate.merge(tracker)
        path = out.with_name(f"{out.stem}_seed{run_seed}{out.suffix}")
        emit_trajectory_csv(traj, path)
        sq_dists = np.array([r.loss_after - oracle_obj for r in traj.records])
        tails.append(float(sq_dists[len(sq_dists) // 2 :].mean()))
        print(f"seed {run_seed}: tail_mean_sq_dist={tails[-1]!r} -> {path}")
    net = build_network(cfg)
    bracket = sgd.floor_brackets(
        net, data, SweepState(depth=net.depth, ordering=ordering),
        args.eta, oracle_obj, tracker=aggregate,
    )
    tail = float(np.mean(tails))
    print(
        f"aggregate: tail_mean_sq_dist={tail!r} floor_lower={bracket.floor_lower!r} "
        f"floor_upper={bracket.floor_upper!r} gamma_upp={bracket.gamma_upp!r} "
        f"gamma_low={bracket.gamma_low!r} available={bracket.available}"
    )
    if not bracket.available:  # floor_upper may be inf: no tail could fail
        print("bracket_check=unavailable")
        return 1
    in_bracket = 0.5 * bracket.floor_lower <= tail <= 2.0 * bracket.floor_upper
    print(f"bracket_check={'pass' if in_bracket else 'FAIL'}")
    return 0 if in_bracket else 1


def _cmd_oracle(args) -> int:
    cfg = _config_from_args(args)
    cfg.validate()
    data = build_dataset(cfg)
    sol = rank_constrained_solution(data.x, data.y, _oracle_rank(cfg))
    print(
        f"optimal_loss={sol.optimal_loss!r} w_star_frobenius="
        f"{float(np.linalg.norm(sol.w_star, 'fro'))!r} effective_rank={sol.effective_rank}"
    )
    return 0


def _cmd_verify(args) -> int:
    traj = read_trajectory_csv(args.trajectory)
    try:
        report = theory.audit_trajectory(traj, traj.meta.get("policy"), traj.meta.get("loss"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    print(report.summary())
    for v in report.violations[:20]:
        print(f"  violation at step {v['step']}: {v}")
    return 0 if report.ok else 1


def _cmd_batch(args) -> int:
    for config_path in args.configs:
        print(f"== {config_path}")
        cfg = RunConfig()
        _apply_config_file(cfg, config_path)
        run_experiment(cfg)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing

_CFG_FIELDS = {f.name: f for f in fields(RunConfig)}


def _apply_config_file(cfg: RunConfig, path) -> None:
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            key, eq, value = stripped.partition("=")
            if not eq:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            _set_cfg(cfg, key.strip().replace("-", "_"), value.strip(), f"{path}:{lineno}")


def _set_cfg(cfg: RunConfig, key: str, raw: str, where: str) -> None:
    if key not in _CFG_FIELDS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    if key == "dims":
        setattr(cfg, key, tuple(int(t) for t in raw.split(",")))
        return
    try:
        if key in ("d_in", "d_out", "m", "depth", "sweeps", "snapshots"):
            setattr(cfg, key, int(raw))
        elif key in ("width", "rank"):
            setattr(cfg, key, None if raw.lower() == "auto" else int(raw))
        elif key in ("target",):
            setattr(cfg, key, float(raw))
        elif key in ("data_seed", "seed", "spectrum_seed"):
            setattr(cfg, key, int(raw))
        else:
            setattr(cfg, key, raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key}: {raw!r}") from exc


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value config file; flags override")
    p.add_argument("--csv", help="dataset CSV (overrides the synthetic recipe)")
    p.add_argument("--d-in", type=int, dest="d_in")
    p.add_argument("--d-out", type=int, dest="d_out")
    p.add_argument("--m", type=int)
    p.add_argument("--data-seed", type=int, dest="data_seed")
    p.add_argument("--spectrum", choices=["none", "shaped"])
    p.add_argument("--spectrum-seed", type=int, dest="spectrum_seed")
    p.add_argument("--depth", type=int)
    p.add_argument("--width", type=int)
    p.add_argument("--dims", help="comma-separated dimension chain n0,...,nL")
    p.add_argument(
        "--init",
        choices=["orthogonal", "orth-identity", "identity", "balanced", "random"],
    )
    p.add_argument("--seed", type=int)
    p.add_argument("--loss", help="l2 or lp:<p>")
    p.add_argument("--policy", help="theory:<eta>|optimal|convex|general|lp:<p>|const:<eta>")
    p.add_argument("--order", choices=["asc", "desc"])
    p.add_argument("--sweeps", type=int)
    p.add_argument("--target", type=float)
    p.add_argument("--rank", type=int)
    p.add_argument("--out")
    p.add_argument("--snapshots", type=int)


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        _apply_config_file(cfg, args.config)
    for name in _CFG_FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            if name == "dims" and isinstance(value, str):
                value = tuple(int(t) for t in value.split(","))
            setattr(cfg, name, value)
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deeplinlab",
        description="Layer-wise training laboratory for deep linear networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic dataset CSV")
    _add_common(p)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="run BCGD and emit a trajectory CSV")
    _add_common(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("gd", help="plain gradient-descent baseline")
    _add_common(p)
    p.add_argument("--eta", type=float, help="constant rate; default n_L/(3L||X||^2)")
    p.add_argument("--iters", type=int, default=100)
    p.set_defaults(func=_cmd_gd)

    p = sub.add_parser("bcsgd", help="stochastic runs plus floor-bracket report")
    _add_common(p)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--seeds", type=int, default=20)
    p.set_defaults(func=_cmd_bcsgd)

    p = sub.add_parser("oracle", help="print the global optimum's loss and norm")
    _add_common(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify", help="audit a trajectory CSV")
    p.add_argument("--trajectory", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("batch", help="run each config file in sequence")
    p.add_argument("configs", nargs="+")
    p.set_defaults(func=_cmd_batch)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"run aborted: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
