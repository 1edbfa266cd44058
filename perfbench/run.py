#!/usr/bin/env python3
"""deeplinlab benchmark: four CLI recipe workloads, end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload deep_narrow --seed 0 --seconds 20 --trace 0

The process repeats one CLI-equivalent run of the workload (closed loop,
one client) until ``--seconds`` have passed, checks every run's outputs,
and prints a readable summary followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` alternates traced and untraced runs
and reports the per-layer roll-up of the traced ones.  See README.md in
this directory for the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

from tracing import Tracer, busy_seconds, by_run, calls, self_seconds, value_sum

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
# One BLAS thread for every workload, whatever nproc is: the workloads are
# chains of small products and SVDs, and one thread keeps runs steady.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUNNERS = ("optim.run_bcgd", "sgd.run_bcsgd")

# Time metrics are high quantiles (rates: low ones) of many samples.  A
# shared virtual machine can switch between a fast and a slow mode for
# seconds at a time, and a median mixes the two in proportions that change
# from run to run; the slow-mode quantile stays put.  Medians are printed,
# not gated.
END_TO_END_UNITS = {
    "wall_s.p90": "s",
    "setup_s": "s",
    "steps_per_s.p10": "1/s",
    "sweep_ms.p90": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "matcore.svd.calls": "count",
    "matcore.svd.solve_calls": "count",
    "matcore.svd.busy_s": "s",
    "matcore.svd.elements": "count",
    "network.partial_product.calls": "count",
    "network.partial_product.busy_s": "s",
    "theory.gamma_factor.calls": "count",
    "theory.gamma_factor.busy_s": "s",
    "theory.verify_trajectory.busy_s": "s",
    "optim.run_bcgd.self_s": "s",
    "losses.gradient_from_parts.calls": "count",
    "losses.gradient_from_parts.busy_s": "s",
    "sgd.run_bcsgd.self_s": "s",
    "sgd.floor_brackets.busy_s": "s",
    "cli.emit_trajectory_csv.busy_s": "s",
    "cli.emit_trajectory_csv.bytes": "bytes",
    "network.save_network.calls": "count",
    "network.save_network.busy_s": "s",
    "network.save_network.bytes": "bytes",
    "data.busy_s": "s",
    "initializers.initialize.busy_s": "s",
    "oracle.rank_constrained_solution.busy_s": "s",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["deep_narrow", "wide_optimal", "theory_audit", "bcsgd_large_m"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def git_sha(root: Path):
    """HEAD's commit read from ``.git``, or None outside a git checkout."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "deeplinlab").glob("*.py")):
        src_digest.update(path.read_bytes())
    return {
        "blas_threads": BLAS_THREADS,
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_sha": git_sha(ROOT),
        "src_sha256": src_digest.hexdigest(),
        "load": "closed loop, 1 client",
    }


def install_tracer(tracer, np):
    import deeplinlab
    from deeplinlab import cli, data, initializers, losses, matcore, network, optim, oracle, sgd, theory

    modules = {m.__name__.rsplit(".", 1)[1]: m
               for m in (cli, data, initializers, losses, matcore, network, optim, oracle, sgd, theory)}
    file_size = lambda args, kwargs: os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])
    measures = {
        "matcore.svd": lambda args, kwargs: np.asarray(args[0]).size,
        "cli.emit_trajectory_csv": file_size,
        "network.save_network": file_size,
    }
    tracer.install({"deeplinlab": deeplinlab, **modules},
                   extra=[(np.linalg, "svd", "matcore.svd")], measures=measures)


def layer_metrics(spans, idx) -> dict:
    def busy(name):
        return busy_seconds(spans, idx, name.__eq__)

    return {
        "matcore.svd.calls": calls(spans, idx, "matcore.svd"),
        "matcore.svd.solve_calls": calls(spans, idx, "matcore.svd", within=RUNNERS),
        "matcore.svd.busy_s": busy("matcore.svd"),
        "matcore.svd.elements": value_sum(spans, idx, "matcore.svd"),
        "network.partial_product.calls": calls(spans, idx, "network.partial_product"),
        "network.partial_product.busy_s": busy("network.partial_product"),
        "theory.gamma_factor.calls": calls(spans, idx, "theory.gamma_factor"),
        "theory.gamma_factor.busy_s": busy("theory.gamma_factor"),
        "theory.verify_trajectory.busy_s": busy("theory.verify_trajectory"),
        "optim.run_bcgd.self_s": self_seconds(spans, idx, "optim.run_bcgd"),
        "losses.gradient_from_parts.calls": calls(spans, idx, "losses.gradient_from_parts"),
        "losses.gradient_from_parts.busy_s": busy("losses.gradient_from_parts"),
        "sgd.run_bcsgd.self_s": self_seconds(spans, idx, "sgd.run_bcsgd"),
        "sgd.floor_brackets.busy_s": busy("sgd.floor_brackets"),
        "cli.emit_trajectory_csv.busy_s": busy("cli.emit_trajectory_csv"),
        "cli.emit_trajectory_csv.bytes": value_sum(spans, idx, "cli.emit_trajectory_csv"),
        "network.save_network.calls": calls(spans, idx, "network.save_network"),
        "network.save_network.busy_s": busy("network.save_network"),
        "network.save_network.bytes": value_sum(spans, idx, "network.save_network"),
        "data.busy_s": busy_seconds(spans, idx, lambda n: n.startswith("data.")),
        "initializers.initialize.busy_s": busy("initializers.initialize"),
        "oracle.rank_constrained_solution.busy_s": busy("oracle.rank_constrained_solution"),
    }


def decile(values, k: int) -> float:
    """The k-th decile (k = 1..9) of at least two values, interpolated."""
    return statistics.quantiles(values, n=10, method="inclusive")[k - 1]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "deeplinlab" / "__init__.py").is_file():
        print(f"error: no deeplinlab sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import deeplinlab
    import workloads

    if Path(deeplinlab.__file__).resolve().parent != (SRC / "deeplinlab").resolve():
        print(f"error: imported deeplinlab from {deeplinlab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    work = WORK / f"{wl.name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return run(args, wl, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, wl, work: Path) -> int:
    import numpy as np
    import workloads as wls

    env = environment(np)
    cfg = wl.config(args.seed, work / "run.csv")
    runner = wls.run_train if wl.command == "train" else wls.run_bcsgd
    twin = wls.twin_losses(cfg) if wl.name == "wide_optimal" else None
    tracer = Tracer() if args.trace else None
    min_runs = 5 if tracer else 3  # warm-up plus two measured runs of each kind

    runs = []  # (RunResult, traced)
    deadline = time.perf_counter() + args.seconds
    while len(runs) < min_runs or time.perf_counter() < deadline:
        traced = tracer is not None and len(runs) % 2 == 1
        if traced:
            tracer.run = len(runs)
            install_tracer(tracer, np)
        try:
            res, state = runner(cfg)
        finally:
            if traced:
                tracer.uninstall()
        wls.check(wl, res, state, twin)
        del state
        res.digests = wls.file_digests(res.outputs)
        runs.append((res, traced))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    cli_digests, cli_note = wls.cli_digests(
        wl, replace(cfg, out=str(work / "cli.csv")), runs[0][0].outputs, SRC, dict(os.environ))
    for res, _ in runs:
        if res.digests != cli_digests:
            res.failures.append(f"outputs differ from `deeplinlab {wl.command}` ({cli_note})")
    distinct = len({tuple(res.digests) for res, _ in runs})

    attempted = sum(res.runner_calls for res, _ in runs)
    failed = sum(res.runner_calls for res, _ in runs if res.failures)
    measured = [res for res, traced in runs[1:] if not traced]
    walls = [r.wall_s for r in measured]
    rates = [r.steps / r.runner_s for r in measured]
    sweeps_ms = [1000.0 * s for r in measured for s in r.sweep_s]
    worst = {}
    for res, _ in runs:
        for key, value in res.worst.items():
            worst[key] = max(worst.get(key, 0.0), value)

    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"workload {wl.name} (deeplinlab {wl.command}) seed {args.seed}: {len(runs)} runs "
          f"in a closed loop with 1 client, first run excluded as warm-up; {wl.why}")
    print(f"checks: {failed}/{attempted} runner calls failed (fail_ratio {failed / attempted:.4g}); "
          f"{distinct} distinct output digest(s) across runs; CLI equivalence: {cli_note}; "
          f"worst margins {json.dumps(worst)}")
    for res, _ in runs:
        for message in res.failures:
            print(f"  FAILED: {message}")

    if tracer is None:
        metrics = {
            "wall_s.p90": decile(walls, 9),
            "setup_s": statistics.median(r.setup_s for r in measured),
            "steps_per_s.p10": decile(rates, 1),
            "sweep_ms.p90": decile(sweeps_ms, 9),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
        print(f"samples: {len(measured)} runs for wall_s, setup_s and steps_per_s, "
              f"{len(sweeps_ms)} sweeps for sweep_ms; not gated: wall_s.p50 "
              f"{statistics.median(walls):.6g} s, steps_per_s.p50 {statistics.median(rates):.6g} 1/s, "
              f"sweep_ms.p50 {statistics.median(sweeps_ms):.6g} ms, fail_ratio {failed / attempted:.4g}")
    else:
        spans = tracer.spans
        per_run = [layer_metrics(spans, idx) for run_id, idx in sorted(by_run(spans).items())]
        # median_low picks a measured run, so counts stay whole numbers
        metrics = {name: statistics.median_low(row[name] for row in per_run) for name in per_run[0]}
        traced_wall = statistics.median(res.wall_s for res, traced in runs if traced)
        metrics["trace.overhead_s"] = traced_wall - statistics.median(walls)
        units = PER_LAYER_UNITS
        spans_path = WORK / f"spans-{wl.name}-seed{args.seed}-{os.getpid()}.jsonl"
        tracer.write_jsonl(spans_path)
        print(f"traced runs: {len(per_run)}, untraced measured runs: {len(measured)}; "
              f"{len(spans)} spans written to {spans_path.relative_to(ROOT)}")
    for name, value in metrics.items():
        print(f"  {name:<42} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
