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
that writes creates its output's parent directory before it runs, once its
inputs are built.  Runs measure against the library's one reference, the
optimum at the chain's narrowest width (``optim._resolve_oracle``).

Each RunConfig field is one long flag and one key of a flat ``key = value``
config file (underscores for dashes), parsed alike; flags override file
values.  A command takes only the keys it reads (``KEYS``): any other flag
or config line is a configuration error.  The same RunConfig (seed included)
produces byte-identical CSV output at a fixed BLAS thread count.
"""

from __future__ import annotations

import argparse
import ast
import math
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import losses, sgd, theory
from .data import Dataset, gen_input_gaussian, gen_output_uniform, load_normalize_csv, reshape_spectrum, sample_spectrum, write_csv
from .initializers import KINDS, InitScheme, initialize
from .network import Network, save_network, width_ok
from .optim import LrPolicy, StepRecord, SweepState, Trajectory, _check_gd_eta, _check_policy, _resolve_oracle, reference_gd_rate, run_bcgd, run_gd
from .oracle import rank_constrained_solution, reference_objective  # perfbench calls cli.reference_objective

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


def _key(default, help: str):
    """A RunConfig field with the help text of its ``--flag``."""
    return field(default=default, metadata={"help": help})


@dataclass
class RunConfig:
    """Everything one run of a command needs.  Each field is one config key
    and one ``--flag`` (dashes for underscores) of the commands that read it
    (``KEYS``); its annotation says how both parse their text (``_set_cfg``),
    and ``validate`` is the one value check."""

    d_in: int = 32
    d_out: int = 4
    m: int = 100
    data_seed: int = 0
    spectrum: str = _key("none", "none | shaped")
    spectrum_seed: int = 0
    csv: str | None = _key(None, "dataset CSV (overrides the synthetic recipe)")
    depth: int = 5
    width: int | None = _key(None, "hidden width, or auto for max(d_in, d_out)")
    dims: tuple | None = _key(None, "comma-separated dimension chain n0,...,nL")
    init: str = _key("orth_identity", " | ".join(KINDS))
    seed: int = 0
    loss: str = _key("l2", "l2 or lp:<p>")
    policy: str = _key("optimal", "theory:<eta>|optimal|convex|general|lp:<p>|const:<eta>")
    order: str = _key("desc", "asc | desc")
    sweeps: int = 100
    target: float = 1e-10
    rank: int | None = _key(None, "oracle rank, or auto for the chain's narrowest width")
    out: str | None = _key("trajectory.csv", "output path (gen-data has no default)")
    snapshots: int = 0
    eta: float | None = _key(None, "bcsgd's rate in (0, 2); gd's, default n_L/(3L||X||^2), 0 if X = 0")
    iters: int = 100
    seeds: int = 20

    def dimension_chain(self) -> tuple:
        if self.dims is not None:
            return tuple(int(d) for d in self.dims)
        width = self.width if self.width is not None else max(self.d_in, self.d_out)
        return (self.d_in,) + (width,) * (self.depth - 1) + (self.d_out,)

    def validate(self, command: str = "train") -> None:
        """The one value check of a run of *command*, made before anything
        is written.  The keys *command* does not read (``KEYS``) keep their
        defaults, which pass."""
        if self.dims is None and self.depth < 1:
            raise ConfigError(f"depth must be >= 1, got {self.depth}")
        chain = self.dimension_chain()
        if len(chain) < 2 or any(d < 1 for d in chain):
            raise ConfigError(f"bad dimension chain {chain}")
        if chain[0] != self.d_in or chain[-1] != self.d_out:
            raise ConfigError(
                f"chain {chain} does not match d_in={self.d_in}, d_out={self.d_out}"
            )
        if self.order not in _ORDERS:
            raise ConfigError("order must be asc or desc")
        lows = {"m": 1, "sweeps": 1 if command == "bcsgd" else 0, "snapshots": 0, "seed": 0,
                "data_seed": 0, "spectrum_seed": 0, "iters": 1, "seeds": 1}
        if self.rank is not None:
            lows["rank"] = 1
        for key, low in lows.items():
            if getattr(self, key) < low:
                raise ConfigError(f"{command} needs {key} >= {low}, got {getattr(self, key)}")
        if math.isnan(self.target):  # no distance compares to it: the run would never stop
            raise ConfigError(f"target must be a number, got {self.target}")
        lf = parse_loss(self.loss)
        if "policy" in KEYS[command]:
            try:
                _check_policy(parse_policy(self.policy), lf)
            except ValueError as exc:
                raise ConfigError(f"policy {self.policy!r}: {exc}") from exc
        if command == "bcsgd" and self.eta is None:
            raise ConfigError("bcsgd needs --eta (or an eta key in --config)")
        if self.eta is not None:
            try:
                (sgd._check_eta if command == "bcsgd" else _check_gd_eta)(self.eta)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        if command == "gen-data" and self.out is None:
            raise ConfigError("gen-data needs --out (or an out key in --config)")
        if self.init.replace("-", "_") not in KINDS:
            raise ConfigError(f"unknown init {self.init!r} (one of {', '.join(KINDS)})")
        if self.spectrum not in ("none", "shaped"):
            raise ConfigError("spectrum must be none or shaped")


_ORDERS = {"asc": "ascending", "desc": "descending"}  # order key -> optim ordering
_DATA_KEYS = ("d_in", "d_out", "m", "data_seed", "spectrum", "spectrum_seed")
_RUN_KEYS = (*_DATA_KEYS, "csv", "depth", "width", "dims", "init", "seed")
KEYS = {  # each command's RunConfig keys, in field order: its only flags and config keys
    "gen-data": (*_DATA_KEYS, "out"),
    "oracle": (*_DATA_KEYS, "csv", "depth", "width", "dims", "rank"),
    "train": (*_RUN_KEYS, "loss", "policy", "order", "sweeps", "target", "out", "snapshots"),
    "gd": (*_RUN_KEYS, "loss", "target", "out", "eta", "iters"),
    "bcsgd": (*_RUN_KEYS, "order", "sweeps", "out", "eta", "seeds"),
}


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


def _check_out_dir(out) -> None:
    """The ConfigError of an *out* that names a directory (``""``, ``.`` and
    ``/`` too), and ``_make_out_dir``'s for one whose nearest existing parent
    is no directory (a regular file), raised before anything is built."""
    if Path(out).is_dir():
        raise ConfigError(f"--out {str(out)!r} names a directory, not a file")
    nearest = next(p for p in Path(out).parents if p.exists())
    if not nearest.is_dir():
        raise ConfigError(f"cannot create the directory of --out {out}: {nearest} is no directory")


def _make_out_dir(out) -> None:
    """Create the parent directory of the output path *out*, as the snapshot
    directory is created; ConfigError (exit 2) when that fails.  Every
    writing command calls this before it runs."""
    try:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create the directory of --out {out}: {exc}") from exc


def _prepare(cfg: RunConfig, command: str = "train") -> tuple[Dataset, Network, losses.LossFunction, float]:
    """Validate *cfg* for *command*, build its dataset and network, then create
    its output directory; return those, its loss and its reference optimum."""
    cfg.validate(command)
    _check_out_dir(cfg.out)
    data, net, lf = build_dataset(cfg), build_network(cfg), parse_loss(cfg.loss)
    _make_out_dir(cfg.out)
    return data, net, lf, _resolve_oracle(net, data, lf, None)


def run_experiment(cfg: RunConfig) -> Trajectory:
    """Validate, run, and write the trajectory CSV (plus snapshots).

    With ``--snapshots N`` the network is saved every ``sweeps // N``
    sweeps, at ``--sweeps``, and at the sweep a run stops at on reaching
    ``--target`` early.
    """
    data, net, lf, oracle_obj = _prepare(cfg)
    policy = parse_policy(cfg.policy)
    chain = cfg.dimension_chain()
    ordering = _ORDERS[cfg.order]

    snapshot_dir = Path(str(cfg.out) + ".snapshots")
    every = max(1, cfg.sweeps // cfg.snapshots) if cfg.snapshots else 0
    if every:
        snapshot_dir.mkdir(parents=True, exist_ok=True)

    def snapshot(sweep_idx: int, current: Network) -> None:
        if sweep_idx % every == 0:
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
        on_sweep_end=snapshot if every else None,
    )
    elapsed = time.perf_counter() - start
    sweeps_done = traj.records[-1].sweep if traj.records else 0
    if every and sweeps_done % every:  # the last sweep run (--sweeps or the stop), off the cadence
        save_network(net, snapshot_dir / f"sweep_{sweeps_done:06d}.net")
    emit_trajectory_csv(traj, cfg.out)
    final = traj.final_dist()
    print(
        f"final_dist={final!r} sweeps={sweeps_done} iterations={len(traj)} "
        f"wall_time_s={elapsed:.3f} out={cfg.out}"
    )
    return traj


def emit_trajectory_csv(traj: Trajectory, path) -> None:
    """Write the trajectory: ``#`` meta lines, header, one row per step.

    Floats are written with ``repr`` so a read-back is lossless.
    ``dist_display`` is ``max(dist_after, DISPLAY_FLOOR)``, whose first
    argument wins unless the floor is greater: then that row reuses the
    ``dist_after`` text instead of formatting the same float twice.
    """
    floor = losses.DISPLAY_FLOOR
    floor_text = repr(floor)
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
            dist = repr(r.dist_after)
            fh.write(
                f"{r.iteration},{r.sweep},{r.layer},{r.lr!r},{r.loss_after!r},"
                f"{dist},{floor_text if floor > r.dist_after else dist},"
                f"{gamma},{r.grad_frobenius!r}\n"
            )


def read_trajectory_csv(path) -> Trajectory:
    """Rebuild a Trajectory from an emitted CSV (losses/dists chained).

    ``meta`` holds each ``# key=value`` line's value parsed back from its
    ``repr`` (the raw text when it is no Python literal, such as ``nan``).
    A malformed file raises ValueError naming *path* (and, for a row of the
    wrong length or a field that is no number, the 1-based line number; for
    an ``initial_loss`` or ``initial_dist`` that is none, the key).
    """
    meta: dict = {}
    records = []
    prev_loss = math.nan
    prev_dist = math.nan
    with open(path, "r", encoding="utf-8") as fh:
        header_seen = False
        for lineno, line in enumerate(fh, start=1):
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
                prev_loss = _meta_float(path, meta, "initial_loss")
                prev_dist = _meta_float(path, meta, "initial_dist")
                continue
            parts = line.split(",")
            if len(parts) != len(CSV_COLUMNS):
                raise ValueError(f"{path}:{lineno}: bad row {line!r}")
            try:
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
                    gamma_bound=float(parts[7]) if parts[7] else None,
                )
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric field") from exc
            records.append(rec)
            prev_loss = rec.loss_after
            prev_dist = rec.dist_after
    if not header_seen:
        raise ValueError(f"{path}: no header found")
    return Trajectory(records=records, meta=meta)


def _meta_float(path, meta: dict, key: str) -> float:
    """The float of meta *key* (nan when absent); ValueError naming *path*
    and the key when it is no number."""
    try:
        return float(meta.get(key, "nan"))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: non-numeric # {key}= value {meta[key]!r}") from exc


# ---------------------------------------------------------------------------
# command implementations


def _cmd_gen_data(args) -> int:
    cfg = _config_from_args(args, RunConfig(out=None))  # no default path to write
    cfg.validate("gen-data")
    _check_out_dir(cfg.out)
    _make_out_dir(cfg.out)
    dataset = build_dataset(cfg)
    write_csv(cfg.out, dataset)
    sv = dataset._x_svals
    kappa = sv[0] / sv[-1] if sv[-1] > 0 else math.inf
    print(f"wrote {dataset.m} examples to {cfg.out} (kappa(X)={kappa:.4g})")
    return 0


def _cmd_train(args) -> int:
    run_experiment(_config_from_args(args))
    return 0


def _cmd_gd(args) -> int:
    cfg = _config_from_args(args)
    data, net, lf, oracle_obj = _prepare(cfg, "gd")
    eta = reference_gd_rate(net, data) if cfg.eta is None else cfg.eta
    start = time.perf_counter()
    traj = run_gd(
        net, data, lf, eta,
        max_iters=cfg.iters, target_dist=cfg.target,
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
    data, net, lf, oracle_obj = _prepare(cfg, "bcsgd")
    ordering = _ORDERS[cfg.order]
    aggregate = sgd.BoundsTracker()
    tails = []
    out = Path(cfg.out)
    for k in range(cfg.seeds):  # every seed trains a copy of net; the bracket reads only its depth
        run_seed = cfg.seed + k
        traj, tracker = sgd.run_bcsgd(
            net.copy(), data, lf, cfg.eta, cfg.sweeps, run_seed,
            ordering=ordering, oracle_objective=oracle_obj,
            meta={"init": cfg.init},
        )
        aggregate.merge(tracker)
        path = out.with_name(f"{out.stem}_seed{run_seed}{out.suffix}")
        emit_trajectory_csv(traj, path)
        sq_dists = np.array([r.loss_after - oracle_obj for r in traj.records])
        tails.append(float(sq_dists[len(sq_dists) // 2 :].mean()))
        print(f"seed {run_seed}: tail_mean_sq_dist={tails[-1]!r} -> {path}")
    bracket = sgd.floor_brackets(
        net, data, SweepState(depth=net.depth, ordering=ordering),
        cfg.eta, oracle_obj, tracker=aggregate,
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
    cfg.validate("oracle")
    data = build_dataset(cfg)
    rank = cfg.rank if cfg.rank is not None else min(cfg.dimension_chain())
    sol = rank_constrained_solution(data.x, data.y, rank)
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
    cfgs = [RunConfig() for _ in args.configs]
    for cfg, config_path in zip(cfgs, args.configs):  # every file is checked before any run
        _apply_config_file(cfg, config_path, "train")
        cfg.validate("train")
        _check_out_dir(cfg.out)
    for cfg, config_path in zip(cfgs, args.configs):
        print(f"== {config_path}")
        run_experiment(cfg)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing

_CFG_FIELDS = {f.name: f for f in fields(RunConfig)}


def _apply_config_file(cfg: RunConfig, path, command: str) -> None:
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
            _set_cfg(cfg, key.strip().replace("-", "_"), value.strip(), f"{path}:{lineno}", command)


_PARSE = {  # a RunConfig annotation -> how its text parses (default: kept as text)
    "int": int,
    "float": float,
    "float | None": float,
    "int | None": lambda raw: None if raw.lower() == "auto" else int(raw),
    "tuple | None": lambda raw: tuple(int(t) for t in raw.split(",")),
}


def _set_cfg(cfg: RunConfig, key: str, raw: str, where: str, command: str) -> None:
    """Set field *key* of *cfg* from its text *raw*, a flag's or a config
    file's, parsed by the field's annotation; a key *command* does not read
    is a ConfigError."""
    if key not in KEYS[command]:
        raise ConfigError(f"{where}: {command} does not read key {key!r}")
    try:
        setattr(cfg, key, _PARSE.get(_CFG_FIELDS[key].type, str)(raw))
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key}: {raw!r}") from exc


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _config_from_args(args, cfg: RunConfig | None = None) -> RunConfig:
    """*cfg* (default ``RunConfig()``) with the ``--config`` file's keys and
    then the flags given applied to it."""
    cfg = RunConfig() if cfg is None else cfg
    if args.config:
        _apply_config_file(cfg, args.config, args.command)
    for name in KEYS[args.command]:
        raw = getattr(args, name)
        if raw is not None:
            _set_cfg(cfg, name, raw, _flag(name), args.command)
    return cfg


class _Parser(argparse.ArgumentParser):
    """A parser that takes a flag only as spelled in full (``--it`` is no
    ``--iters``) and raises a bad command line to ``main`` as a ConfigError
    instead of exiting: argparse reports both a bad argument and a missing
    required one (a subcommand, ``verify --trajectory``) through ``error``."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="deeplinlab",
        description="Layer-wise training laboratory for deep linear networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, func, text in (
        ("gen-data", _cmd_gen_data, "write a synthetic dataset CSV"),
        ("train", _cmd_train, "run BCGD and emit a trajectory CSV"),
        ("gd", _cmd_gd, "plain gradient-descent baseline"),
        ("bcsgd", _cmd_bcsgd, "stochastic runs plus floor-bracket report"),
        ("oracle", _cmd_oracle, "print the global optimum's loss and norm"),
    ):
        p = sub.add_parser(command, help=text)
        p.add_argument("--config", help="flat key=value config file; flags override")
        for name in KEYS[command]:  # a command's only flags: the keys it reads
            p.add_argument(_flag(name), dest=name, help=_CFG_FIELDS[name].metadata.get("help"))
        p.set_defaults(func=func)

    p = sub.add_parser("verify", help="audit a trajectory CSV")
    p.add_argument("--trajectory", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("batch", help="run each config file in sequence")
    p.add_argument("configs", nargs="+")
    p.set_defaults(func=_cmd_batch)
    return parser


def _attach_negative_values(argv) -> list:
    """``--flag -1e-5`` as ``--flag=-1e-5``: argparse reads a token that
    starts with ``-`` as an option unless it is a plain decimal (``-1``,
    ``-0.5``), so ``--target -1e-5`` and ``--target -inf`` would lack their
    value.  A number that follows a long flag is that flag's value, as
    after ``=`` and in a config line."""
    out = []
    for tok in argv:
        prev = out[-1] if out else ""
        takes_value = prev.startswith("--") and prev != "--" and "=" not in prev
        if takes_value and tok.startswith("-") and _is_number(tok):
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


def _is_number(tok: str) -> bool:
    try:
        float(tok)
    except ValueError:
        return False
    return True


def main(argv=None) -> int:
    argv = _attach_negative_values(sys.argv[1:] if argv is None else argv)
    try:
        args, unread = build_parser().parse_known_args(argv)
        if unread:  # a flag the command does not read: rejected before anything is written
            raise ConfigError(f"{args.command} does not read {' '.join(unread)}")
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
