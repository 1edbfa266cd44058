"""The four benchmark workloads: one CLI-equivalent run each, plus its checks.

Each run drives the public API in the order of the matching CLI
subcommand (``deeplinlab train`` or ``deeplinlab bcsgd``): build the
dataset, build the network, compute the oracle reference, run the
solver, write the trajectory CSV(s), audit.  Module attributes are
looked up at call time (``cli.build_dataset``, ``optim.run_bcgd``, ...)
so that a tracer installed around those functions sees every call.

Import this module only after ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from deeplinlab import cli, losses, network, optim, sgd, theory

# Stop target below any reachable distance, so every BCGD run does its full
# sweep count.  With target 0, rounding ends deep_narrow after 3 sweeps.
NO_STOP = float("-inf")
BCSGD_ETA = 0.5
BCSGD_SEEDS = 10
DROP_RTOL = 1e-8         # acceptance 3: |drop - lr |G|^2| <= 1e-8 loss_before
TWIN_ATOL = 1e-10        # acceptance 2: losses of the width-128 twin
LAST_LOSS_RTOL = 1e-10   # last recorded loss vs residual_objective(net)
TWIN_WIDTH = 128


@dataclass(frozen=True)
class Workload:
    name: str
    command: str         # the CLI subcommand this run reproduces
    why: str
    shape: dict

    def config(self, seed: int, out: Path) -> cli.RunConfig:
        return cli.RunConfig(data_seed=seed, seed=seed, out=str(out), **self.shape)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "deep_narrow", "train",
            "paper headline recipe: per-step overhead on 32x32 layers, CSV rows, snapshots",
            dict(d_in=32, d_out=4, m=100, depth=200, width=32, init="orth-identity",
                 policy="optimal", order="desc", sweeps=50, target=NO_STOP, snapshots=2),
        ),
        Workload(
            "wide_optimal", "train",
            "width-irrelevance recipe: 512-wide products and the stale-side cache",
            dict(d_in=128, d_out=10, m=600, depth=50, width=512, init="orth-identity",
                 policy="optimal", order="desc", sweeps=2, target=NO_STOP),
        ),
        Workload(
            "theory_audit", "train",
            "theory:1 ascending plus verify_trajectory: SVD-bound rate policy and gamma",
            dict(d_in=128, d_out=10, m=600, depth=50, width=128, init="orth-identity",
                 policy="theory:1", order="asc", sweeps=2, target=NO_STOP),
        ),
        Workload(
            "bcsgd_large_m", "bcsgd",
            "multi-seed BCSGD at m 2000: m x m sampling weights, floor brackets",
            dict(d_in=8, d_out=2, m=2000, depth=3, width=8, init="orth-identity",
                 order="desc", sweeps=2),
        ),
    )
}


@dataclass
class RunResult:
    """Timings, outputs and check results of one workload run."""

    wall_s: float = 0.0
    setup_s: float = 0.0
    runner_s: float = 0.0
    steps: int = 0
    runner_calls: int = 0
    sweep_s: list = field(default_factory=list)
    outputs: list = field(default_factory=list)   # files the run wrote, in order
    digests: list = field(default_factory=list)   # sha256 of each output
    failures: list = field(default_factory=list)  # one message per failed check
    worst: dict = field(default_factory=dict)     # check name -> worst margin seen


def file_digests(paths) -> list:
    return [hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths]


def _ordering(cfg: cli.RunConfig) -> str:
    return "ascending" if cfg.order == "asc" else "descending"


def _setup(cfg: cli.RunConfig):
    cfg.validate()
    data = cli.build_dataset(cfg)
    net = cli.build_network(cfg)
    lf = cli.parse_loss(cfg.loss)
    chain = cfg.dimension_chain()
    n_star = cfg.rank if cfg.rank is not None else min(chain)
    return data, net, lf, cli.reference_objective(data, lf, n_star)


def run_train(cfg: cli.RunConfig) -> tuple[RunResult, dict]:
    """One ``deeplinlab train`` run; returns the result and what the checks need."""
    res = RunResult(runner_calls=1)
    t0 = time.perf_counter()
    data, net, lf, oracle_obj = _setup(cfg)
    policy = cli.parse_policy(cfg.policy)
    t_setup = time.perf_counter()

    snapshot_dir = Path(str(cfg.out) + ".snapshots")
    every = max(1, cfg.sweeps // cfg.snapshots) if cfg.snapshots > 0 else 0
    if every:
        snapshot_dir.mkdir(parents=True, exist_ok=True)
    snapshot_s = 0.0
    sweep_start = time.perf_counter()

    def on_sweep_end(sweep_idx, current):
        nonlocal snapshot_s, sweep_start
        now = time.perf_counter()
        res.sweep_s.append(now - sweep_start)
        if every and (sweep_idx % every == 0 or sweep_idx == cfg.sweeps):
            path = snapshot_dir / f"sweep_{sweep_idx:06d}.net"
            network.save_network(current, path)
            res.outputs.append(path)
        sweep_start = time.perf_counter()
        snapshot_s += sweep_start - now

    chain = cfg.dimension_chain()
    t_run = time.perf_counter()
    sweep_start = t_run
    traj = optim.run_bcgd(
        net, data, lf, policy,
        ordering=_ordering(cfg), max_sweeps=cfg.sweeps, target_dist=cfg.target,
        oracle_objective=oracle_obj,
        meta={"seed": cfg.seed, "init": cfg.init, "width_ok": network.width_ok(chain, cfg.d_in, cfg.d_out)},
        on_sweep_end=on_sweep_end,
    )
    t_solved = time.perf_counter()
    cli.emit_trajectory_csv(traj, cfg.out)
    res.outputs.insert(0, Path(cfg.out))
    report = theory.verify_trajectory(traj) if policy.kind == "theory_l2" else None
    t_end = time.perf_counter()

    res.wall_s = t_end - t0
    res.setup_s = t_setup - t0
    res.runner_s = t_solved - t_run - snapshot_s
    res.steps = len(traj)
    if len(traj) != cfg.sweeps * net.depth:
        res.failures.append(f"{len(traj)} steps, expected {cfg.sweeps} sweeps x {net.depth}")
    return res, {"traj": traj, "net": net, "data": data, "lf": lf, "report": report}


def run_bcsgd(cfg: cli.RunConfig) -> tuple[RunResult, dict]:
    """One ``deeplinlab bcsgd`` run over BCSGD_SEEDS seeds plus the bracket check."""
    res = RunResult(runner_calls=BCSGD_SEEDS)
    t0 = time.perf_counter()
    cfg.validate()
    lf = cli.parse_loss(cfg.loss)
    data = cli.build_dataset(cfg)
    n_star = cfg.rank if cfg.rank is not None else min(cfg.dimension_chain())
    oracle_obj = cli.reference_objective(data, lf, n_star)
    res.setup_s = time.perf_counter() - t0
    ordering = _ordering(cfg)
    aggregate = sgd.BoundsTracker()
    tails, runs = [], []
    out = Path(cfg.out)
    for k in range(BCSGD_SEEDS):
        run_seed = cfg.seed + k
        t_init = time.perf_counter()
        net = cli.build_network(cfg)
        t_run = time.perf_counter()
        traj, tracker = sgd.run_bcsgd(
            net, data, lf, BCSGD_ETA, cfg.sweeps, run_seed,
            ordering=ordering, oracle_objective=oracle_obj, meta={"init": cfg.init},
        )
        t_solved = time.perf_counter()
        res.setup_s += t_run - t_init
        res.runner_s += t_solved - t_run
        res.sweep_s.append((t_solved - t_run) / cfg.sweeps)
        res.steps += len(traj)
        aggregate.merge(tracker)
        path = out.with_name(f"{out.stem}_seed{run_seed}{out.suffix}")
        cli.emit_trajectory_csv(traj, path)
        res.outputs.append(path)
        sq_dists = np.array([r.loss_after - oracle_obj for r in traj.records])
        tails.append(float(sq_dists[len(sq_dists) // 2 :].mean()))
        runs.append((traj, net))
    t_init = time.perf_counter()
    net = cli.build_network(cfg)
    res.setup_s += time.perf_counter() - t_init
    bracket = sgd.floor_brackets(
        net, data, optim.SweepState(depth=net.depth, ordering=ordering),
        BCSGD_ETA, oracle_obj, tracker=aggregate,
    )
    tail = float(np.mean(tails))
    in_bracket = 0.5 * bracket.floor_lower <= tail <= 2.0 * bracket.floor_upper
    res.wall_s = time.perf_counter() - t0
    return res, {"runs": runs, "data": data, "lf": lf, "tails": tails, "in_bracket": in_bracket}


def _check_last_loss(res: RunResult, traj, net, data, lf) -> None:
    recomputed = losses.residual_objective(net, data, lf)
    rel = abs(traj.records[-1].loss_after - recomputed) / abs(recomputed)
    res.worst["last_loss_rel"] = max(res.worst.get("last_loss_rel", 0.0), rel)
    if not rel <= LAST_LOSS_RTOL:
        res.failures.append(f"last loss differs from residual_objective by {rel:.3g} (rel)")


def check(wl: Workload, res: RunResult, state: dict, twin=None) -> None:
    """The workload's own invariants, appended to ``res.failures``."""
    if wl.command == "bcsgd":
        for traj, net in state["runs"]:
            values = [
                (r.lr, r.loss_before, r.loss_after, r.dist_before, r.dist_after, r.grad_frobenius)
                for r in traj.records
            ]
            if not np.isfinite(np.array(values)).all():
                res.failures.append(f"non-finite values in seed {traj.meta['seed']}")
            _check_last_loss(res, traj, net, state["data"], state["lf"])
        if not np.isfinite(state["tails"]).all():
            res.failures.append("non-finite tail means")
        if not state["in_bracket"]:
            res.failures.append("bracket check failed")
        return
    traj = state["traj"]
    _check_last_loss(res, traj, state["net"], state["data"], state["lf"])
    if wl.name == "deep_narrow":
        worst = 0.0
        for r in traj.records:
            err = abs(r.loss_after - (r.loss_before - r.lr * r.grad_frobenius**2))
            worst = max(worst, err / r.loss_before)
        res.worst["drop_identity_rel"] = worst
        if not worst <= DROP_RTOL:
            res.failures.append(f"optimal drop identity off by {worst:.3g} (rel)")
    elif wl.name == "wide_optimal":
        diff = float(np.max(np.abs(traj.losses() - twin)))
        res.worst["twin_abs"] = diff
        if not diff <= TWIN_ATOL:
            res.failures.append(f"losses differ from the width-{TWIN_WIDTH} twin by {diff:.3g}")
    elif wl.name == "theory_audit":
        report = state["report"]
        if not report.ok:
            res.failures.append(f"verify_trajectory: {report.summary()}")


def twin_losses(cfg: cli.RunConfig) -> np.ndarray:
    """Per-step losses of the same run at width 128 (acceptance 2's reference)."""
    twin = replace(cfg, width=TWIN_WIDTH, snapshots=0)
    data, net, lf, oracle_obj = _setup(twin)
    traj = optim.run_bcgd(
        net, data, lf, cli.parse_policy(twin.policy), ordering=_ordering(twin),
        max_sweeps=twin.sweeps, target_dist=twin.target, oracle_objective=oracle_obj,
    )
    return traj.losses()


def cli_flags(wl: Workload, cfg: cli.RunConfig) -> list:
    flags = [
        wl.command,
        "--d-in", str(cfg.d_in), "--d-out", str(cfg.d_out), "--m", str(cfg.m),
        "--data-seed", str(cfg.data_seed), "--depth", str(cfg.depth),
        "--width", str(cfg.width), "--init", cfg.init, "--seed", str(cfg.seed),
        "--order", cfg.order, "--sweeps", str(cfg.sweeps), "--out", cfg.out,
    ]
    if wl.command == "bcsgd":
        return flags + ["--eta", repr(BCSGD_ETA), "--seeds", str(BCSGD_SEEDS)]
    return flags + [
        "--policy", cfg.policy, f"--target={cfg.target!r}", "--snapshots", str(cfg.snapshots),
    ]


def cli_digests(wl: Workload, cfg: cli.RunConfig, outputs, src: Path, env: dict) -> tuple[list, str]:
    """Run the real CLI on *cfg* and digest its counterparts of *outputs*.

    *outputs* are the benchmark's own files for the same run, the first
    one named by its ``out``; the CLI writes next to ``cfg.out`` instead.
    Returns the digests (empty on failure) and a diagnostic.
    """
    cli_out = Path(cfg.out)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "deeplinlab.cli", *cli_flags(wl, cfg)],
            env={**env, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120,
        )
    except subprocess.TimeoutExpired:
        return [], "CLI did not finish within 120 s"
    if proc.returncode != 0:
        return [], f"CLI exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
    if wl.command == "train":
        # run.csv -> cli.csv, run.csv.snapshots/x -> cli.csv.snapshots/x
        mapped = [str(p).replace(str(outputs[0]), str(cli_out), 1) for p in outputs]
    else:
        # run_seed<k>.csv -> cli_seed<k>.csv
        mapped = [cli_out.with_name(Path(p).name.replace("run_", cli_out.stem + "_", 1)) for p in outputs]
    missing = [str(p) for p in mapped if not Path(p).exists()]
    if missing:
        return [], f"CLI did not write {missing}"
    return file_digests(mapped), "ok"
