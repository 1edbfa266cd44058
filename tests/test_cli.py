import math
import warnings
from dataclasses import fields, replace
from pathlib import Path

import pytest

from deeplinlab.cli import (
    ConfigError,
    RunConfig,
    main,
    read_trajectory_csv,
    run_experiment,
)
import numpy as np

from deeplinlab import cli
from deeplinlab.data import Dataset, gen_input_gaussian, gen_output_uniform, write_csv
from deeplinlab.losses import l2, residual_objective
from deeplinlab.network import load_network, save_network
from deeplinlab.oracle import optimal_loss


def base_args(tmp_path, **extra):
    out = tmp_path / "traj.csv"
    args = [
        "train",
        "--d-in", "6", "--d-out", "2", "--m", "20",
        "--data-seed", "3", "--depth", "3", "--seed", "5",
        "--policy", "optimal", "--order", "desc", "--sweeps", "4",
        "--target", "0", "--out", str(out),
    ]
    for key, value in extra.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return args, out


def test_train_writes_csv_and_exits_zero(tmp_path, capsys):
    args, out = base_args(tmp_path)
    assert main(args) == 0
    assert "final_dist=" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    data_rows = [l for l in lines if l and not l.startswith("#")]
    assert data_rows[0].startswith("iteration,sweep,layer_updated,lr,loss,")
    assert len(data_rows) == 1 + 3 * 4  # header + L * sweeps


def test_same_config_byte_identical(tmp_path):
    args1, out1 = base_args(tmp_path)
    main(args1)
    first = out1.read_bytes()
    out2 = tmp_path / "again.csv"
    args2, _ = base_args(tmp_path)
    args2[args2.index(str(out1))] = str(out2)
    main(args2)
    assert out2.read_bytes() == first


def test_trajectory_roundtrip(tmp_path):
    cfg = RunConfig(
        d_in=5, d_out=2, m=15, data_seed=1, depth=2, seed=2,
        policy="theory:1.0", sweeps=3, target=0.0,
        out=str(tmp_path / "t.csv"),
    )
    traj = run_experiment(cfg)
    back = read_trajectory_csv(cfg.out)
    assert len(back) == len(traj)
    for a, b in zip(traj.records, back.records):
        assert a.iteration == b.iteration
        assert a.lr == b.lr
        assert a.loss_after == b.loss_after
        assert a.dist_after == b.dist_after
        assert a.gamma_bound == b.gamma_bound
    assert back.records[0].dist_before == traj.records[0].dist_before


def test_zero_sweeps_header_only(tmp_path):
    cfg = RunConfig(d_in=4, d_out=2, m=10, sweeps=0, out=str(tmp_path / "e.csv"))
    traj = run_experiment(cfg)
    assert len(traj) == 0
    rows = [l for l in (tmp_path / "e.csv").read_text().splitlines() if not l.startswith("#")]
    assert rows == ["iteration,sweep,layer_updated,lr,loss,dist_to_opt_raw,dist_display,gamma_bound,grad_frobenius"]


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "# layer lab config\n"
        "d_in = 6\nd_out = 2\nm = 18\ndata_seed = 7\n"
        "depth = 2\nseed = 9\npolicy = optimal\norder = asc\nsweeps = 5\n"
        f"out = {tmp_path / 'cfg.csv'}\n"
    )
    code = main(["train", "--config", str(config), "--sweeps", "2", "--target", "0"])
    assert code == 0
    rows = [
        l for l in (tmp_path / "cfg.csv").read_text().splitlines()
        if l and not l.startswith("#")
    ]
    assert len(rows) == 1 + 2 * 2  # flag override wins: 2 sweeps, not 5


def test_bad_config_exit_code_2(tmp_path, capsys):
    assert main(["train", "--policy", "magic", "--out", str(tmp_path / "x.csv")]) == 2
    assert "config error" in capsys.readouterr().err
    config = tmp_path / "bad.cfg"
    config.write_text("nonsense_key = 1\n")
    assert main(["train", "--config", str(config)]) == 2


def test_bottleneck_chain_rejected_mismatch(tmp_path):
    cfg = RunConfig(d_in=6, d_out=2, dims=(6, 3, 3), out=str(tmp_path / "z.csv"))
    with pytest.raises(ConfigError):
        cfg.validate()


def test_gen_data_and_train_from_csv(tmp_path, capsys):
    data_path = tmp_path / "data.csv"
    assert main([
        "gen-data", "--d-in", "5", "--d-out", "2", "--m", "30",
        "--data-seed", "11", "--out", str(data_path),
    ]) == 0
    assert "kappa(X)" in capsys.readouterr().out
    out = tmp_path / "fromcsv.csv"
    code = main([
        "train", "--csv", str(data_path), "--d-in", "5", "--d-out", "2",
        "--depth", "2", "--sweeps", "2", "--target", "0", "--out", str(out),
    ])
    assert code == 0 and out.exists()


SMALL_DATA = ["--d-in", "6", "--d-out", "2", "--m", "20"]
SMALL_RUN = [*SMALL_DATA, "--depth", "2", "--sweeps", "1"]
WRITING_COMMANDS = {  # argv without --out; batch reads its out from a config file
    "train": ["train", *SMALL_RUN],
    "gd": ["gd", *SMALL_DATA, "--depth", "2", "--iters", "1"],
    "bcsgd": ["bcsgd", *SMALL_RUN, "--eta", "0.5", "--seeds", "1"],
    "gen-data": ["gen-data", *SMALL_DATA],
    "batch": None,
}
ORACLE = ["oracle", *SMALL_DATA, "--depth", "2"]  # oracle writes no file: no --out


def _writing_argv(tmp_path, command, out):
    if command != "batch":
        return [*WRITING_COMMANDS[command], "--out", str(out)]
    config = tmp_path / "run.cfg"
    config.write_text(f"d_in = 6\nd_out = 2\nm = 20\ndepth = 2\nsweeps = 1\nout = {out}\n")
    return ["batch", str(config)]


def _no_compute(cfg):  # stands in for build_dataset, the first step of every run
    raise AssertionError("the run started")


@pytest.mark.parametrize("command", sorted(WRITING_COMMANDS))
def test_out_into_a_missing_directory_creates_it(tmp_path, capsys, command):
    out = tmp_path / "nodir" / "sub" / "run.csv"
    code = main(_writing_argv(tmp_path, command, out))
    assert code != 2, capsys.readouterr().err
    written = out.with_name("run_seed0.csv") if command == "bcsgd" else out
    assert written.is_file()


@pytest.mark.parametrize("command", sorted(WRITING_COMMANDS))
def test_out_under_a_regular_file_exits_two_before_any_compute(
    tmp_path, capsys, monkeypatch, command
):
    blocker = tmp_path / "afile"
    blocker.write_text("")
    monkeypatch.setattr(cli, "build_dataset", _no_compute)
    assert main(_writing_argv(tmp_path, command, blocker / "run.csv")) == 2
    assert "cannot create the directory of --out" in capsys.readouterr().err
    assert blocker.read_text() == ""
    assert set(tmp_path.iterdir()) <= {blocker, tmp_path / "run.cfg"}


FIELD_TEXTS = {  # RunConfig field: (its text as a flag or a config value, parsed)
    "d_in": ("6", 6),
    "d_out": ("2", 2),
    "m": ("20", 20),
    "data_seed": ("3", 3),
    "spectrum": ("shaped", "shaped"),
    "spectrum_seed": ("4", 4),
    "csv": ("data.csv", "data.csv"),
    "depth": ("3", 3),
    "width": ("auto", None),
    "dims": ("6,3,6,2", (6, 3, 6, 2)),
    "init": ("orth-identity", "orth-identity"),
    "seed": ("5", 5),
    "loss": ("lp:4", "lp:4"),
    "policy": ("theory:0.5", "theory:0.5"),
    "order": ("asc", "asc"),
    "sweeps": ("7", 7),
    "target": ("-inf", -math.inf),
    "rank": ("auto", None),
    "out": ("run.csv", "run.csv"),
    "snapshots": ("2", 2),
    "eta": ("-0.5", -0.5),
    "iters": ("9", 9),
    "seeds": ("3", 3),
}


@pytest.mark.parametrize(
    "key,raw,value",
    [(f.name, *FIELD_TEXTS[f.name]) for f in fields(RunConfig)]  # every run key
    + [("width", "12", 12), ("rank", "3", 3)],
)
def test_flag_and_config_key_build_equal_configs(tmp_path, key, raw, value):
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} = {raw}\n")
    parser = cli.build_parser()
    command = next(c for c in ("train", "gd", "bcsgd", "oracle") if key in cli.KEYS[c])
    flag = f"--{key.replace('_', '-')}={raw}"  # = keeps -inf a value
    from_flag = cli._config_from_args(parser.parse_args([command, flag]))
    from_file = cli._config_from_args(parser.parse_args([command, "--config", str(config)]))
    assert from_flag == from_file == replace(RunConfig(), **{key: value})


UNREAD_KEYS = [  # (command, a RunConfig key it does not read)
    (command, f.name) for command in sorted(cli.KEYS) for f in fields(RunConfig)
    if f.name not in cli.KEYS[command]
]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command,key", UNREAD_KEYS)
def test_keys_a_command_does_not_read_exit_two_before_any_compute(
    tmp_path, capsys, monkeypatch, command, key, source
):
    # gd --snapshots 2 would write no snapshot, bcsgd --target 1e9 would run every
    # sweep: a key the command ignores is rejected, and named, not dropped
    monkeypatch.setattr(cli, "build_dataset", _no_compute)
    out = tmp_path / "new" / "run.csv"
    argv = [*WRITING_COMMANDS.get(command, ORACLE)]
    if "out" in cli.KEYS[command]:
        argv += ["--out", str(out)]
    raw = FIELD_TEXTS[key][0]
    if source == "flag":
        argv += [f"--{key.replace('_', '-')}", raw]
        named = f"--{key.replace('_', '-')}"
    else:
        (tmp_path / "run.cfg").write_text(f"{key} = {raw}\n")
        argv += ["--config", str(tmp_path / "run.cfg")]
        named = repr(key)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f"{command} does not read" in err and named in err
    assert not (tmp_path / "new").exists()


def test_batch_rejects_a_key_train_does_not_read(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_dataset", _no_compute)
    for line, key in (("iters = 5", "iters"), ("rank = 1", "rank")):
        argv = _writing_argv(tmp_path, "batch", tmp_path / "new" / "run.csv")
        with open(argv[1], "a", encoding="utf-8") as fh:
            fh.write(f"{line}\n")
        assert main(argv) == 2
        assert f"train does not read key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("second,named", [
    ("rank = 1\n", "train does not read key 'rank'"),
    ("sweeps = -1\n", "train needs sweeps >= 0, got -1"),
    (None, "cannot read config"),
    ("out = {tmp}/file/run.csv\n", "is no directory"),
], ids=["unread-key", "bad-value", "missing-file", "out-under-a-file"])
def test_batch_checks_every_config_before_the_first_run(tmp_path, capsys, second, named):
    # a.cfg is fine; b.cfg is not: the batch exits 2 before a.cfg runs or writes
    (tmp_path / "file").write_text("")
    first = _writing_argv(tmp_path, "batch", tmp_path / "a" / "run.csv")[1]
    other = tmp_path / "b.cfg"
    if second is not None:
        other.write_text(f"d_in = 6\nd_out = 2\nm = 20\n{second.format(tmp=tmp_path)}")
    assert main(["batch", first, str(other)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and named in captured.err
    assert not (tmp_path / "a").exists()


@pytest.mark.parametrize("extra,named", [
    (["--it", "3"], "gd does not read --it 3"),  # no prefix of --iters stands for it
    (["--s", "1"], "gd does not read --s 1"),  # nor one of --seed, --spectrum, ...
    (["--iters"], "argument --iters: expected one argument"),
], ids=["abbreviated", "ambiguous-prefix", "no-value"])
def test_a_bad_command_line_returns_two_from_main(tmp_path, capsys, monkeypatch, extra, named):
    monkeypatch.setattr(cli, "build_dataset", _no_compute)
    argv = [*WRITING_COMMANDS["gd"], "--out", str(tmp_path / "new" / "run.csv"), *extra]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"config error: {named}\n"
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("argv,missing", [
    ([], "command"),
    (["verify"], "--trajectory"),
], ids=["no-command", "verify-without-trajectory"])
def test_a_missing_required_argument_returns_two_from_main(capsys, argv, missing):
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"config error: the following arguments are required: {missing}\n"
    )


def test_gd_and_bcsgd_take_their_own_keys_from_a_config_file(tmp_path, capsys):
    common = ["--d-in", "4", "--d-out", "2", "--m", "12", "--depth", "2"]
    (tmp_path / "gd.cfg").write_text("iters = 5\n")
    assert main(["gd", *common, "--config", str(tmp_path / "gd.cfg"),
                 "--out", str(tmp_path / "gd.csv")]) == 0
    assert len(read_trajectory_csv(tmp_path / "gd.csv").records) == 5
    (tmp_path / "sgd.cfg").write_text("eta = 0.5\nseeds = 2\n")
    codes = [
        main(["bcsgd", *common, "--sweeps", "3", *extra, "--out", str(tmp_path / name / "s.csv")])
        for name, extra in (("file", ["--config", str(tmp_path / "sgd.cfg")]),
                            ("flags", ["--eta", "0.5", "--seeds", "2"]))
    ]
    assert codes[0] == codes[1]
    for seed in (0, 1):
        name = f"s_seed{seed}.csv"
        assert (tmp_path / "file" / name).read_bytes() == (tmp_path / "flags" / name).read_bytes()
    assert not (tmp_path / "file" / "s_seed2.csv").exists()


@pytest.mark.parametrize("key,value", [("init", "glorot"), ("spectrum", "bogus"), ("order", "up")])
@pytest.mark.parametrize("command,source", [
    (command, source)
    for command in sorted([*WRITING_COMMANDS, "oracle"])
    for source in (["config"] if command == "batch" else ["flag", "config"])
])
def test_values_outside_their_sets_exit_two_before_any_compute(
    tmp_path, capsys, monkeypatch, command, source, key, value
):
    monkeypatch.setattr(cli, "build_dataset", _no_compute)
    out = tmp_path / "new" / "run.csv"
    if command == "batch":
        argv = _writing_argv(tmp_path, command, out)
        with open(argv[1], "a", encoding="utf-8") as fh:
            fh.write(f"{key} = {value}\n")
    else:
        argv = [*WRITING_COMMANDS[command], "--out", str(out)] if command != "oracle" else [*ORACLE]
        if source == "flag":
            argv += [f"--{key}", value]
        else:
            (tmp_path / "run.cfg").write_text(f"{key} = {value}\n")
            argv += ["--config", str(tmp_path / "run.cfg")]
    assert main(argv) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("command,key,value", [
    *[
        (command, key, value)
        for command in sorted(WRITING_COMMANDS.keys() - {"batch"})
        for key, value in [
            ("m", "0"), ("seed", "-1"), ("data-seed", "-1"), ("spectrum-seed", "-1"), ("snapshots", "-1"),
        ]
    ],
    # gen-data reads no rank: --rank 0 is still refused, as a key it does not read
    ("gen-data", "rank", "0"),
])
def test_values_below_their_range_exit_two_before_the_out_directory(
    tmp_path, capsys, monkeypatch, command, key, value
):
    monkeypatch.setattr(cli, "build_dataset", _no_compute)
    out = tmp_path / "new" / "run.csv"
    assert main([*WRITING_COMMANDS[command], "--out", str(out), f"--{key}", value]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key.replace("-", "_") in err
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_oracle_rank_below_its_range_exits_two_before_any_compute(tmp_path, capsys, monkeypatch, source):
    monkeypatch.setattr(cli, "build_dataset", _no_compute)
    (tmp_path / "run.cfg").write_text("rank = 0\n")
    extra = ["--rank", "0"] if source == "flag" else ["--config", str(tmp_path / "run.cfg")]
    assert main([*ORACLE, *extra]) == 2
    assert capsys.readouterr().err == "config error: oracle needs rank >= 1, got 0\n"


@pytest.mark.parametrize("command", ["train", "gd", "bcsgd"])
@pytest.mark.parametrize("case", ["balanced-width-1", "missing-csv", "short-csv-line"])
def test_inputs_that_cannot_be_built_exit_two_and_create_no_directory(tmp_path, capsys, command, case):
    # the dataset and the network are built before the --out directory is made
    short = tmp_path / "short.csv"
    short.write_text("1,2,3\n")  # 3 fields where d_in + d_out = 5
    extra, message = {
        "balanced-width-1": (["--m", "8", "--depth", "3", "--width", "1", "--init", "balanced"],
                             "balanced initialization needs every width"),
        "missing-csv": (["--csv", str(tmp_path / "missing.csv")], "missing.csv"),
        "short-csv-line": (["--csv", str(short)], "short.csv:1: expected 5 fields, got 3"),
    }[case]
    argv = [command, "--d-in", "3", "--d-out", "2", *extra, "--out", str(tmp_path / "newdir" / "run.csv")]
    if command == "bcsgd":
        argv += ["--eta", "0.5"]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "newdir").exists()


@pytest.mark.parametrize("argv", [
    ["train", *SMALL_RUN, "--policy", "const:nan"],
    ["train", *SMALL_RUN, "--policy", "const:inf"],
    ["gd", *SMALL_DATA, "--depth", "2", "--eta", "nan"],
    ["gd", *SMALL_DATA, "--depth", "2", "--eta", "inf"],
], ids=["const:nan", "const:inf", "gd-nan", "gd-inf"])
def test_non_finite_rates_exit_two_before_any_compute(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "build_dataset", _no_compute)
    assert main([*argv, "--out", str(tmp_path / "new" / "run.csv")]) == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_nan_target_exits_two_before_the_out_directory(tmp_path, capsys, monkeypatch, source):
    # no distance compares to nan: the run would never stop at its target
    monkeypatch.setattr(cli, "build_dataset", _no_compute)
    argv = ["train", *SMALL_RUN, "--out", str(tmp_path / "new" / "run.csv")]
    if source == "flag":
        argv += ["--target", "nan"]
    else:
        (tmp_path / "run.cfg").write_text("target = nan\n")
        argv += ["--config", str(tmp_path / "run.cfg")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "target" in err
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("argv,cause", [
    (["bcsgd", *SMALL_RUN], "bcsgd needs --eta"),
    (["train", *SMALL_RUN, "--dims", "3"], "bad dimension chain (3,)"),
    (["train", *SMALL_RUN, "--dims", "3,0,2"], "bad dimension chain (3, 0, 2)"),
    (["train", *SMALL_RUN, "--loss", "l3"], "loss must be l2 or lp:<p>, got 'l3'"),
    (["train", *SMALL_RUN, "--loss", "lp:x"], "bad loss 'lp:x'"),
    (["train", *SMALL_RUN, "--config", "missing.cfg"], "cannot read config"),
    (["train", *SMALL_RUN, "--config", "noeq.cfg"], "noeq.cfg:2: expected key = value"),
    (["train", *SMALL_RUN, "--m", "abc"], "--m: bad value for m: 'abc'"),
], ids=["bcsgd-no-eta", "dims-3", "dims-3,0,2", "loss-l3", "loss-lp:x", "config-unreadable",
        "config-no-equals", "m-abc"])
def test_configuration_errors_exit_two_naming_their_cause(
    tmp_path, capsys, monkeypatch, argv, cause
):
    monkeypatch.setattr(cli, "build_dataset", _no_compute)
    (tmp_path / "noeq.cfg").write_text("depth = 2\nsweeps 1\n")
    argv = [str(tmp_path / a) if a.endswith(".cfg") else a for a in argv]
    assert main([*argv, "--out", str(tmp_path / "new" / "run.csv")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: ") and cause in lines[0]
    assert not (tmp_path / "new").exists()


def test_bcsgd_seeds_equal_single_seed_runs(tmp_path, monkeypatch):
    # compressed samples (m > d_in), tall enough for the column-ufunc row sums, and
    # an init that --seed does not move; seeds 1 and 2 of one call run on the warm
    # dataset cache, each --seeds 1 call on a cold one
    common = ["--d-in", "4", "--d-out", "2", "--m", "300", "--depth", "3", "--width", "4",
              "--init", "identity", "--sweeps", "3", "--eta", "0.5"]
    builds = []
    build_network = cli.build_network
    monkeypatch.setattr(cli, "build_network", lambda cfg: builds.append(cfg) or build_network(cfg))
    main(["bcsgd", *common, "--seeds", "3", "--out", str(tmp_path / "all" / "s.csv")])
    assert len(builds) == 1  # one network; every seed trains a copy
    for seed in (0, 1, 2):
        main(["bcsgd", *common, "--seeds", "1", "--seed", str(seed),
              "--out", str(tmp_path / "one" / "s.csv")])
        name = f"s_seed{seed}.csv"
        assert (tmp_path / "all" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


def test_gen_data_needs_out(capsys):
    assert main(["gen-data", "--d-in", "6", "--d-out", "2", "--m", "20"]) == 2
    assert "gen-data needs --out" in capsys.readouterr().err


def test_dist_display_is_max_of_dist_and_floor(tmp_path):
    from deeplinlab.losses import DISPLAY_FLOOR
    from deeplinlab.optim import StepRecord, Trajectory

    floor = DISPLAY_FLOOR
    dists = [1.0, floor, math.nextafter(floor, 0.0), 0.0, -0.0, -2.8e-16, math.nan, math.inf, -math.inf]
    records = [StepRecord(i, 1, 1, 0.1, 1.0, 1.0, 0.0, d, 1.0) for i, d in enumerate(dists, start=1)]
    cli.emit_trajectory_csv(Trajectory(records), tmp_path / "d.csv")
    lines = [l for l in (tmp_path / "d.csv").read_text().splitlines() if not l.startswith("#")]
    rows = [l.split(",") for l in lines[1:]]
    assert [(row[5], row[6]) for row in rows] == [(repr(d), repr(max(d, floor))) for d in dists]


def test_gen_data_takes_out_from_config(tmp_path, capsys):
    (tmp_path / "g.cfg").write_text(f"d_in = 6\nd_out = 2\nm = 20\nout = {tmp_path / 'cfg.csv'}\n")
    assert main(["gen-data", "--config", str(tmp_path / "g.cfg")]) == 0
    assert main(["gen-data", "--d-in", "6", "--d-out", "2", "--m", "20",
                 "--out", str(tmp_path / "flag.csv")]) == 0
    assert (tmp_path / "cfg.csv").read_bytes() == (tmp_path / "flag.csv").read_bytes()
    # the flag still overrides the file
    assert main(["gen-data", "--config", str(tmp_path / "g.cfg"),
                 "--out", str(tmp_path / "over.csv")]) == 0
    assert (tmp_path / "over.csv").exists()


@pytest.mark.parametrize("value", ["-1e-5", "-inf", "-2"])
def test_negative_flag_value_parses_as_a_value(tmp_path, value):
    # argparse alone takes "-1e-5" and "-inf" for options ("expected one argument")
    spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
    args, _ = base_args(tmp_path)
    at = args.index("--target")
    del args[at : at + 2]
    assert main([*args[:-1], str(spaced), "--target", value]) == 0
    assert main([*args[:-1], str(joined), f"--target={value}"]) == 0
    assert spaced.read_bytes() == joined.read_bytes()
    assert len(read_trajectory_csv(spaced).records) == 3 * 4  # no distance reaches the target


@pytest.mark.parametrize("command", ["gd", "bcsgd", "gen-data", "oracle"])
def test_only_train_checks_the_policy(tmp_path, capsys, command):
    # gd and bcsgd take their rate from --eta, gen-data and oracle train
    # nothing: a --policy they would ignore is rejected, and named
    argv = (ORACLE if command == "oracle"
            else [*WRITING_COMMANDS[command], "--out", str(tmp_path / "new" / "r.csv")])
    assert main([*argv, "--policy", "lp:4"]) == 2
    assert f"{command} does not read --policy lp:4" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()
    if command == "gd":  # the default policy (optimal) needs l2, yet gd runs lp:4
        assert main([*argv, "--loss", "lp:4"]) == 0
    # train keeps the check
    assert main(["train", *SMALL_RUN, "--out", str(tmp_path / "t.csv"), "--policy", "lp:4"]) == 2


def test_snapshots_spot_check(tmp_path):
    cfg = RunConfig(
        d_in=6, d_out=2, m=20, data_seed=13, depth=3, seed=1,
        policy="optimal", order="desc", sweeps=10, target=0.0,
        out=str(tmp_path / "snap.csv"), snapshots=10,
    )
    traj = run_experiment(cfg)
    x = gen_input_gaussian(6, 20, 13)
    y = gen_output_uniform(2, 20, 14)
    data = Dataset(x=x, y=y)
    ref = optimal_loss(x, y, 2)
    snapdir = tmp_path / "snap.csv.snapshots"
    snaps = sorted(snapdir.glob("sweep_*.net"))
    assert len(snaps) >= 10
    checked = 0
    for snap in snaps:
        sweep = int(snap.stem.split("_")[1])
        if sweep == 0 or sweep * 3 > len(traj.records):
            continue
        net = load_network(snap)
        dist = (residual_objective(net, data, l2()) - ref) / data.m
        row = traj.records[sweep * 3 - 1]
        assert dist == pytest.approx(row.dist_after, rel=1e-9, abs=1e-15)
        checked += 1
    assert checked >= 5


def test_snapshots_keep_the_sweep_a_run_stops_at(tmp_path, monkeypatch):
    saved = []

    def counting(net, path):
        saved.append(path)
        save_network(net, path)

    monkeypatch.setattr(cli, "save_network", counting)
    args = ["train", "--d-in", "3", "--d-out", "2", "--m", "8", "--depth", "3", "--width", "4"]

    def snapshots(name, *extra):
        out = tmp_path / name / "r.csv"
        assert main([*args, "--out", str(out), *extra]) == 0
        snapdir = Path(str(out) + ".snapshots")
        return {p.name: p.read_bytes() for p in sorted(snapdir.glob("*"))}

    # every 3 sweeps and at --sweeps, as a run that does all its sweeps saves them
    full = snapshots("full", "--sweeps", "10", "--snapshots", "3", "--target", "-inf")
    assert list(full) == [f"sweep_{s:06d}.net" for s in (3, 6, 9, 10)]
    # the target is met at sweep 2, before the first due snapshot: that sweep is saved,
    # as the run that is asked for 2 sweeps saves it
    early = snapshots("early", "--sweeps", "10", "--snapshots", "3", "--target", "1e-3")
    assert early == snapshots("two", "--sweeps", "2", "--snapshots", "1", "--target", "-inf")
    assert list(early) == ["sweep_000002.net"]
    # a stop on a due sweep is saved once, and --sweeps 0 saves nothing
    saved.clear()
    due = snapshots("due", "--sweeps", "10", "--snapshots", "5", "--target", "1e-3")
    assert list(due) == ["sweep_000002.net"] and len(saved) == 1
    assert snapshots("none", "--sweeps", "0", "--snapshots", "3") == {}


def test_verify_command_exit_codes(tmp_path):
    cfg = RunConfig(
        d_in=6, d_out=2, m=20, data_seed=17, depth=2, seed=3,
        policy="theory:1.0", sweeps=5, target=0.0, out=str(tmp_path / "v.csv"),
    )
    run_experiment(cfg)
    assert main(["verify", "--trajectory", str(tmp_path / "v.csv")]) == 0
    # plant a violation: increase one recorded distance mid-file
    lines = (tmp_path / "v.csv").read_text().splitlines()
    for i, line in enumerate(lines):
        if line.startswith("#") or line.startswith("iteration"):
            continue
        parts = line.split(",")
        parts[5] = repr(float(parts[5]) * 10 + 1.0)
        lines[i + 2] = lines[i + 2]  # keep later rows; only one bump needed
        lines[i] = ",".join(parts)
        break
    (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
    assert main(["verify", "--trajectory", str(tmp_path / "bad.csv")]) == 1
    # a policy without a checkable guarantee is a usage error
    cfg2 = RunConfig(
        d_in=6, d_out=2, m=20, data_seed=17, depth=2, seed=3,
        policy="const:0.001", sweeps=2, target=0.0, out=str(tmp_path / "nog.csv"),
    )
    run_experiment(cfg2)
    assert main(["verify", "--trajectory", str(tmp_path / "nog.csv")]) == 2


@pytest.mark.parametrize(
    "case, message",
    [
        ("truncated_header", "unexpected header"),
        ("no_header", "no header found"),
        ("short_row", "bad row"),
        ("non_numeric_field", "non-numeric field"),
        ("initial_loss", "non-numeric # initial_loss="),
        ("initial_dist", "non-numeric # initial_dist="),
    ],
)
def test_verify_names_the_path_of_a_malformed_trajectory(tmp_path, capsys, case, message):
    lines = (VERIFY_RUNS / "verify_optimal.csv").read_text().splitlines()
    h = next(i for i, line in enumerate(lines) if not line.startswith("#"))  # the header
    where = ""
    if case == "truncated_header":
        lines[h] = lines[h][:-5]
    elif case == "no_header":
        lines = lines[:h]
    elif case == "short_row":
        lines[h + 1] = lines[h + 1].rsplit(",", 1)[0]
    elif case.startswith("initial_"):
        k = next(i for i, line in enumerate(lines) if line.startswith(f"# {case}="))
        lines[k] = f"# {case}=abc"
    else:
        parts = lines[h + 1].split(",")
        parts[3] = "abc"  # the lr column
        lines[h + 1] = ",".join(parts)
        where = f":{h + 2}"  # 1-based line number of the row
    path = tmp_path / f"{case}.csv"
    path.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--trajectory", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}{where}: ") and message in err


@pytest.mark.parametrize("name", ["optimal", "convex"])
def test_verify_holds_a_missing_initial_loss_against_the_first_step_only(tmp_path, capsys, name):
    # without "# initial_loss=" the first loss_before is NaN: that step fails, and
    # the slack the other steps take from the run's peak loss stays finite
    lines = (VERIFY_RUNS / f"verify_{name}.csv").read_text().splitlines()
    path = tmp_path / "run.csv"
    path.write_text("\n".join(l for l in lines if not l.startswith("# initial_loss=")) + "\n")
    assert main(["verify", "--trajectory", str(path)]) == 1
    out = capsys.readouterr().out
    assert " 1 VIOLATION(S)" in out.splitlines()[0] and "'step': 0," in out


def test_verify_holds_a_missing_initial_dist_against_the_first_step_only(tmp_path, capsys):
    # without "# initial_dist=" the first dist_before is NaN: that step's own bound
    # fails, the slack comes from the finite peak and the cumulative chain starts at
    # the first finite distance, so no other bound reads the NaN
    src = VERIFY_RUNS / "verify_theory.csv"
    assert main(["verify", "--trajectory", str(src)]) == 0
    path = tmp_path / "run.csv"
    path.write_text("".join(l for l in src.read_text().splitlines(keepends=True)
                            if not l.startswith("# initial_dist=")))
    assert main(["verify", "--trajectory", str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "audit over 10 step(s): 1 VIOLATION(S)"
    assert "'step': 0," in out[2] and "'dist_before': nan" in out[2] and "cumulative" not in out[2]


def test_theory_run_on_a_rank_zero_x_is_vacuous(tmp_path, capsys):
    # constant input columns normalize to X = 0, so r_x = 0: no B X carries
    # that rank, every gamma bound is 1 and every step is skipped at rate 0
    csv = tmp_path / "c.csv"
    csv.write_text("".join(f"1,2,3,{i},{i * i % 7}\n" for i in range(1, 9)))
    out = tmp_path / "run.csv"
    assert main([
        "train", "--csv", str(csv), "--d-in", "3", "--d-out", "2", "--depth", "3",
        "--width", "4", "--policy", "theory:1", "--out", str(out),
    ]) == 0
    assert main(["verify", "--trajectory", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "audit over 3 step(s): OK, 3 vacuous (gamma >= 1), 3 skipped (rate floored to 0)"
    )


def test_gd_default_rate_on_a_rank_zero_x_skips_every_step(tmp_path, capsys):
    # ||X||_2 = 0 floors the reference rate to 0, the skip-step convention
    csv = tmp_path / "c.csv"
    csv.write_text("".join(f"1,2,3,{i},{i * i % 7}\n" for i in range(1, 9)))
    assert main([
        "gd", "--csv", str(csv), "--d-in", "3", "--d-out", "2", "--depth", "3",
        "--width", "4", "--iters", "3", "--out", str(tmp_path / "gd.csv"),
    ]) == 0
    assert " eta=0.0 " in capsys.readouterr().out


@pytest.mark.parametrize("target", ["0", "-inf"])
def test_optimal_run_on_noiseless_data_passes_verify(tmp_path, capsys, target):
    # Y = W X exactly: the loss falls towards 0, while the drop identity's rounding
    # error stays at the run's starting loss scale (the peak slack covers it)
    rows = []
    for i in range(1, 41):
        a, b, c, d = i, i * i % 11, 3 * i % 7, 5 * i * i % 13
        rows.append(f"{a},{b},{c},{d},{a + 2 * b - c},{d - a}\n")
    csv, out = tmp_path / "lin.csv", tmp_path / "run.csv"
    csv.write_text("".join(rows))
    assert main([
        "train", "--csv", str(csv), "--d-in", "4", "--d-out", "2", "--depth", "3",
        "--width", "4", "--sweeps", "200", "--target", target, "--policy", "optimal",
        "--out", str(out),
    ]) == 0
    assert main(["verify", "--trajectory", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith(" step(s): OK")


def test_oracle_command(tmp_path, capsys):
    assert main([
        "oracle", "--d-in", "5", "--d-out", "2", "--m", "25",
        "--data-seed", "19", "--rank", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "optimal_loss=" in out and "w_star_frobenius=" in out


def test_bcsgd_command(tmp_path, capsys):
    code = main([
        "bcsgd", "--d-in", "4", "--d-out", "2", "--m", "12",
        "--data-seed", "23", "--depth", "2", "--seed", "1",
        "--sweeps", "60", "--eta", "0.5", "--seeds", "2",
        "--out", str(tmp_path / "sgd.csv"),
    ])
    out = capsys.readouterr().out
    assert "aggregate:" in out
    assert code in (0, 1)  # bracket check result is data-dependent here
    assert (tmp_path / "sgd_seed1.csv").exists()
    assert (tmp_path / "sgd_seed2.csv").exists()


def test_batch_command(tmp_path):
    paths = []
    for k in (1, 2):
        cfg = tmp_path / f"b{k}.cfg"
        cfg.write_text(
            f"d_in = 4\nd_out = 2\nm = 10\ndata_seed = {k}\ndepth = 2\n"
            f"sweeps = 2\ntarget = 0\nout = {tmp_path / f'b{k}.csv'}\n"
        )
        paths.append(str(cfg))
    assert main(["batch", *paths]) == 0
    assert (tmp_path / "b1.csv").exists() and (tmp_path / "b2.csv").exists()


def test_gd_command(tmp_path, capsys):
    out = tmp_path / "gd.csv"
    code = main([
        "gd", "--d-in", "5", "--d-out", "2", "--m", "15", "--data-seed", "29",
        "--depth", "2", "--seed", "4", "--iters", "20", "--target", "0",
        "--out", str(out),
    ])
    assert code == 0
    assert "eta=" in capsys.readouterr().out
    assert out.exists()


def test_spectrum_shaped_flows_through(tmp_path):
    cfg = RunConfig(
        d_in=5, d_out=2, m=20, data_seed=31, spectrum="shaped", spectrum_seed=7,
        depth=2, sweeps=1, target=0.0, out=str(tmp_path / "s.csv"),
    )
    traj = run_experiment(cfg)
    assert len(traj) == 2


def test_write_csv_roundtrip_matches_generator(tmp_path):
    x = gen_input_gaussian(3, 8, 1)
    y = gen_output_uniform(2, 8, 2)
    write_csv(tmp_path / "d.csv", Dataset(x=x, y=y))
    text = (tmp_path / "d.csv").read_text()
    assert text.startswith("# d_in=3 d_out=2 m=8")
    assert len([l for l in text.splitlines() if not l.startswith("#")]) == 8


def test_policy_loss_pairing_validated(tmp_path):
    cfg = RunConfig(loss="lp:4", policy="optimal", out=str(tmp_path / "p.csv"))
    with pytest.raises(ConfigError, match="l2 loss"):
        cfg.validate()
    cfg2 = RunConfig(loss="lp:4", policy="lp:6", out=str(tmp_path / "q.csv"))
    with pytest.raises(ConfigError, match="does not match"):
        cfg2.validate()
    cfg3 = RunConfig(
        d_in=4, d_out=2, m=10, loss="lp:4", policy="lp:4", sweeps=2,
        target=0.0, out=str(tmp_path / "r.csv"),
    )
    traj = run_experiment(cfg3)
    assert len(traj) == 2 * cfg3.depth or len(traj) == 2 * 5


def test_depth_sweep_improves_per_sweep_convergence(tmp_path):
    # deeper chains convert each sweep into more contraction on the same data
    dists = []
    for depth in (1, 4, 16):
        cfg = RunConfig(
            d_in=16, d_out=3, m=60, data_seed=1, depth=depth, seed=9,
            policy="optimal", order="desc", sweeps=2, target=0.0,
            out=str(tmp_path / f"depth{depth}.csv"),
        )
        dists.append(run_experiment(cfg).final_dist())
    assert dists[0] > dists[1] > dists[2]


def test_long_trajectory_row_count(tmp_path):
    cfg = RunConfig(
        d_in=4, d_out=2, m=10, data_seed=2, depth=4, seed=1,
        policy="optimal", sweeps=250, target=-1.0, out=str(tmp_path / "long.csv"),
    )
    traj = run_experiment(cfg)
    assert len(traj) == 1000
    rows = [
        l for l in (tmp_path / "long.csv").read_text().splitlines()
        if l and not l.startswith("#")
    ]
    assert len(rows) == 1000 + 1  # steps + header


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_gd_divergence_exits_one_with_iteration(tmp_path, capsys):
    # the reference rate overshoots on this chain: the loss overflows at step 3
    code = main([
        "gd", "--d-in", "128", "--d-out", "10", "--m", "600", "--depth", "50",
        "--iters", "3", "--out", str(tmp_path / "gd.csv"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "run aborted" in err and "GD iteration 3" in err
    assert not (tmp_path / "gd.csv").exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_gd_non_finite_update_exits_one(tmp_path, capsys):
    code = main([
        "gd", "--d-in", "3", "--d-out", "2", "--m", "8", "--depth", "3", "--width", "4",
        "--iters", "5", "--eta", "1e308", "--out", str(tmp_path / "gd.csv"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "run aborted: non-finite update at iteration 1, layer 1 (lr 1e+308, " in err
    assert not (tmp_path / "gd.csv").exists()


@pytest.mark.parametrize("argv", [
    pytest.param(["gd", "--iters", "5", "--eta", "1e308"], id="gd-eta-1e308"),
    pytest.param(["train", "--sweeps", "5", "--policy", "const:1e300"], id="train-const-1e300"),
])
def test_an_aborted_run_prints_only_its_message(tmp_path, capsys, argv):
    # numpy's overflow and invalid-value warnings are off in the run loop: the
    # finiteness checks report the failure, once
    common = ["--d-in", "3", "--d-out", "2", "--m", "8", "--depth", "3", "--width", "4"]
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert main([*argv, *common, "--out", str(tmp_path / "r.csv")]) == 1
    assert [str(w.message) for w in seen] == []
    err = capsys.readouterr().err
    assert err.startswith("run aborted: ") and err.count("\n") == 1 and err.endswith("\n")


def test_depth_below_one_rejected(tmp_path, capsys):
    with pytest.raises(ConfigError, match="depth"):
        RunConfig(depth=0).validate()
    RunConfig(depth=0, dims=(4, 3, 2), d_in=4, d_out=2).validate()  # dims win
    args, out = base_args(tmp_path)
    args[args.index("--depth") + 1] = "0"
    assert main(args) == 2
    assert "depth must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_oracle_and_train_agree_at_narrow_width(tmp_path, capsys):
    # a width-2 chain can only reach the rank-2 optimum, a full-width one the
    # least-squares optimum: train, gd and bcsgd all measure against the one
    # that oracle prints for the chain
    data_flags = ["--d-in", "6", "--d-out", "4", "--m", "30", "--data-seed", "7"]
    runs = {
        "train": ["--sweeps", "1"],
        "gd": ["--iters", "1"],
        "bcsgd": ["--sweeps", "1", "--eta", "0.5", "--seeds", "1"],
    }
    printed_values = {}
    for width, rank in (("2", 2), ("6", 4)):
        common = [*data_flags, "--width", width]
        assert main(["oracle", *common]) == 0
        printed = capsys.readouterr().out
        oracle_value = printed_values[width] = float(printed.split("optimal_loss=")[1].split()[0])
        assert f"effective_rank={rank}" in printed
        for command, extra in runs.items():
            out = tmp_path / width / f"{command}.csv"
            assert main([command, *common, *extra, "--out", str(out)]) in (0, 1)  # bcsgd: its bracket
            written = out.with_name(f"{command}_seed0.csv") if command == "bcsgd" else out
            assert float(read_trajectory_csv(written).meta["oracle_objective"]) == oracle_value
    full = optimal_loss(gen_input_gaussian(6, 30, 7), gen_output_uniform(4, 30, 8), 4)
    assert printed_values["2"] > printed_values["6"] == full


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("rate", ["1e60", "1e80"])  # the loss overflows to inf / nan
def test_train_divergence_exits_one_with_iteration_and_layer(tmp_path, capsys, rate):
    out = tmp_path / "t.csv"
    code = main([
        "train", "--d-in", "4", "--d-out", "2", "--m", "12", "--depth", "2",
        "--policy", f"const:{rate}", "--sweeps", "1", "--target", "0",
        "--out", str(out),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "run aborted" in err and "BCGD iteration 2, layer 1" in err
    assert not out.exists()


@pytest.mark.parametrize("change,message", [
    pytest.param({"--seeds": "0"}, "seeds >= 1", id="seeds-0"),
    pytest.param({"--seeds": "-1"}, "seeds >= 1", id="seeds--1"),
    pytest.param({"--sweeps": "0"}, "sweeps >= 1", id="sweeps-0"),
    pytest.param({"--eta": "2.5"}, "eta must lie in (0, 2)", id="eta-2.5"),
    pytest.param({"--loss": "lp:4"}, "bcsgd does not read", id="loss-lp:4"),
])
def test_bcsgd_rejects_empty_runs(tmp_path, capsys, monkeypatch, change, message):
    monkeypatch.setattr(cli, "build_dataset", _no_compute)
    args = [
        "bcsgd", "--d-in", "4", "--d-out", "2", "--m", "12", "--depth", "2",
        "--eta", "0.5", "--sweeps", "3", "--seeds", "2",
        "--out", str(tmp_path / "sub" / "sgd.csv"),
    ]
    for flag, value in change.items():
        if flag in args:
            args[args.index(flag) + 1] = value
        else:
            args += [flag, value]
    assert main(args) == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_bcsgd_unavailable_bracket_exits_one(tmp_path, capsys):
    # two nearly equal input features: kappa(X) ~ 1e9 saturates gamma_upp
    # at 1.0, so floor_upper is inf and no tail mean could fall outside it
    rng = np.random.default_rng(0)
    x1 = rng.normal(size=12)
    data = Dataset(
        x=np.vstack([x1, x1 + 1e-9 * rng.normal(size=12)]),
        y=rng.uniform(-1, 2, size=(1, 12)),
    )
    write_csv(tmp_path / "dup.csv", data)
    code = main([
        "bcsgd", "--csv", str(tmp_path / "dup.csv"), "--d-in", "2", "--d-out", "1",
        "--depth", "2", "--eta", "0.5", "--sweeps", "3", "--seeds", "1",
        "--out", str(tmp_path / "sgd.csv"),
    ])
    out = capsys.readouterr().out
    assert "available=False" in out
    assert "bracket_check=unavailable" in out and "bracket_check=pass" not in out
    assert code == 1


def test_bcsgd_wide_chain_conditions_by_rank_of_x(tmp_path, capsys):
    # width 16 > d_in 6: B X has rank 6, and its 16th singular value is 0;
    # the bracket conditions by the 6th, so it stays available
    main([
        "bcsgd", "--d-in", "6", "--d-out", "2", "--m", "20", "--data-seed", "3",
        "--depth", "4", "--seed", "5", "--width", "16", "--sweeps", "4",
        "--eta", "0.5", "--seeds", "3", "--out", str(tmp_path / "sgd.csv"),
    ])
    out = capsys.readouterr().out
    gamma_upp = float(out.split("gamma_upp=")[1].split()[0])
    assert "available=True" in out and gamma_upp < 1.0
    assert "bracket_check=unavailable" not in out


def test_bcsgd_wide_chain_trains_every_layer(tmp_path, capsys):
    # the rate conditions B X by its rank-r_x singular value, not by its
    # 16th (0): every layer trains, and width 16 runs the width-6 problem
    common = [
        "bcsgd", "--d-in", "6", "--d-out", "2", "--m", "20", "--data-seed", "3",
        "--depth", "4", "--seed", "5", "--sweeps", "4", "--eta", "0.5", "--seeds", "3",
    ]
    tails = {}
    for width in (16, 6):
        out = tmp_path / f"w{width}.csv"
        code = main([*common, "--width", str(width), "--out", str(out)])
        printed = capsys.readouterr().out
        assert code == 0 and "bracket_check=pass" in printed
        tails[width] = float(printed.split("aggregate: tail_mean_sq_dist=")[1].split()[0])
        for seed in (5, 6, 7):
            records = read_trajectory_csv(tmp_path / f"w{width}_seed{seed}.csv").records
            assert len(records) == 16
            assert all(r.lr > 0 for r in records if r.layer >= 2)
    assert tails[16] == pytest.approx(tails[6], rel=1e-12)


def test_bcsgd_bottleneck_chain_brackets_by_the_rates_rank(tmp_path, capsys):
    # rank(X) is 6, but B X above the width-3 layer carries rank 3 at most:
    # the tracker conditions it by its 3rd singular value, as the rate does,
    # not by its 6th (rounding noise), so gamma_upp stays below 1
    code = main([
        "bcsgd", "--d-in", "6", "--d-out", "2", "--m", "20", "--data-seed", "3",
        "--dims", "6,3,6,2", "--seed", "5", "--sweeps", "50", "--eta", "0.5",
        "--seeds", "3", "--out", str(tmp_path / "sgd.csv"),
    ])
    out = capsys.readouterr().out
    gamma_upp = float(out.split("gamma_upp=")[1].split()[0])
    assert "available=True" in out and gamma_upp < 1.0
    assert "bracket_check=pass" in out
    assert code == 0


@pytest.mark.parametrize("flag,value,message", [
    pytest.param("--iters", "0", "iters >= 1", id="0"),
    pytest.param("--iters", "-3", "iters >= 1", id="-3"),
    pytest.param("--eta", "-1", "eta must be >= 0", id="eta--1"),
])
def test_gd_rejects_empty_runs(tmp_path, capsys, monkeypatch, flag, value, message):
    monkeypatch.setattr(cli, "build_dataset", _no_compute)
    code = main([
        "gd", "--d-in", "6", "--d-out", "2", "--m", "20", "--depth", "3",
        flag, value, "--out", str(tmp_path / "sub" / "gd.csv"),
    ])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_read_trajectory_csv_round_trips_meta(tmp_path, monkeypatch):
    written = []
    emit = cli.emit_trajectory_csv

    def capture(traj, path):
        written.append((traj, path))
        emit(traj, path)

    monkeypatch.setattr(cli, "emit_trajectory_csv", capture)
    common = ["--d-in", "4", "--d-out", "2", "--m", "12", "--depth", "2"]
    assert main(["train", *common, "--sweeps", "2", "--width", "6", "--out", str(tmp_path / "t.csv")]) == 0
    assert main(["gd", *common, "--iters", "3", "--out", str(tmp_path / "g.csv")]) == 0
    main(["bcsgd", *common, "--sweeps", "2", "--eta", "0.5", "--seeds", "1",
          "--out", str(tmp_path / "s.csv")])
    assert len(written) == 3
    for traj, path in written:
        first = traj.records[0]
        expected = {**traj.meta, "initial_loss": first.loss_before, "initial_dist": first.dist_before}
        back = read_trajectory_csv(path).meta
        assert back == expected
        assert all(type(back[k]) is type(v) for k, v in expected.items())  # True is not 1
    assert read_trajectory_csv(tmp_path / "t.csv").meta["policy"] == "optimal_l2"


def _tamper_row(src, dst, column, change):
    """Copy trajectory CSV *src* to *dst* with *change* applied to one field:
    *column* of the data row with the largest drop in loss."""
    lines = src.read_text().splitlines()
    rows = [i for i, line in enumerate(lines) if line[:1].isdigit()]
    prev = {i: float(lines[j].split(",")[4]) for i, j in zip(rows[1:], rows)}
    target = max(rows[1:], key=lambda i: prev[i] - float(lines[i].split(",")[4]))
    parts = lines[target].split(",")
    parts[column] = repr(change(float(parts[column]), prev[target]))
    lines[target] = ",".join(parts)
    dst.write_text("\n".join(lines) + "\n")


def _verify_run(tmp_path, policy, loss="l2", **extra):
    cfg = RunConfig(
        d_in=6, d_out=2, m=20, data_seed=17, depth=3, seed=3, loss=loss,
        policy=policy, sweeps=4, target=0.0, out=str(tmp_path / "run.csv"), **extra,
    )
    run_experiment(cfg)
    return tmp_path / "run.csv"


@pytest.mark.parametrize("width", [None, 12])  # width 12 trains on the head blocks
def test_verify_checks_optimal_drop_identity(tmp_path, capsys, width):
    path = _verify_run(tmp_path, "optimal", width=width)
    assert main(["verify", "--trajectory", str(path)]) == 0
    assert "audit over 12 step(s): OK" in capsys.readouterr().out
    _tamper_row(path, tmp_path / "bad.csv", 3, lambda lr, _: lr * 1.001)  # lr column
    assert main(["verify", "--trajectory", str(tmp_path / "bad.csv")]) == 1
    assert "1 VIOLATION(S)" in capsys.readouterr().out


@pytest.mark.parametrize("policy", ["convex", "general"])
def test_verify_checks_monotone_loss(tmp_path, capsys, policy):
    path = _verify_run(tmp_path, policy)
    assert main(["verify", "--trajectory", str(path)]) == 0
    assert "OK" in capsys.readouterr().out
    # the loss column of one row climbs above the row before it
    _tamper_row(path, tmp_path / "bad.csv", 4, lambda _, before: before * (1 + 1e-6))
    assert main(["verify", "--trajectory", str(tmp_path / "bad.csv")]) == 1
    assert "VIOLATION" in capsys.readouterr().out


@pytest.mark.parametrize(
    "policy, loss", [("const:0.001", "l2"), ("lp:4", "lp:4"), ("general", "lp:4"), ("convex", "lp:4")]
)
def test_verify_policy_without_guarantee_exits_two(tmp_path, capsys, policy, loss):
    path = _verify_run(tmp_path, policy, loss=loss)
    assert main(["verify", "--trajectory", str(path)]) == 2
    assert "no checkable guarantee" in capsys.readouterr().err


@pytest.mark.parametrize("column", [5, 7])  # dist_to_opt_raw, gamma_bound
def test_verify_flags_nan_in_the_first_row(tmp_path, capsys, column):
    path = tmp_path / "v.csv"
    cfg = RunConfig(
        d_in=6, d_out=2, m=20, data_seed=17, depth=2, seed=3,
        policy="theory:1.0", sweeps=5, target=0.0, out=str(path),
    )
    run_experiment(cfg)
    lines = path.read_text().splitlines()
    first = next(i for i, line in enumerate(lines) if line[:1].isdigit())
    parts = lines[first].split(",")
    parts[column] = "nan"
    lines[first] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--trajectory", str(path)]) == 1
    assert "VIOLATION(S)" in capsys.readouterr().out


# Written by ``deeplinlab train --d-in 6 --d-out 2 --m 20 --data-seed 17
# --seed 3 --sweeps 4 --target 0`` with ``--depth 3 --policy optimal`` and
# ``--depth 3 --policy convex``, and, for theory, ``--depth 2 --policy
# theory:1.0 --sweeps 5``: fixed files, so the audit's output depends on no BLAS.
VERIFY_RUNS = Path(__file__).parent / "data"
GOLDEN_VERIFY = {
    "theory": (5, lambda dist, _: dist * 10 + 1.0, """\
audit over 10 step(s): 2 VIOLATION(S)
  violation at step 1: {'step': 1, 'iteration': 2, 'layer': 1, 'dist_before': 0.26630140107842737, \
'dist_after': 2.5052026487021912, 'gamma': 0.8948135886318582, 'bound': 0.2132252306000242}
  violation at step 1: {'step': 1, 'iteration': 2, 'layer': 1, 'dist_after': 2.5052026487021912, \
'gamma': 0.8948135886318582, 'bound': 0.33347592173961, 'cumulative': True}
"""),
    "optimal": (3, lambda lr, _: lr * 1.001, """\
audit over 12 step(s): 1 VIOLATION(S)
  violation at step 1: {'step': 1, 'iteration': 2, 'layer': 2, 'loss_before': 36.727757449630815, \
'loss_after': 35.16214829279483, 'expected': 35.160582683638, 'limit': 3.672780895078019e-07}
"""),
    "convex": (4, lambda _, before: before * (1 + 1e-6), """\
audit over 12 step(s): 1 VIOLATION(S)
  violation at step 1: {'step': 1, 'iteration': 2, 'layer': 2, 'loss_before': 39.67368050170221, \
'loss_after': 39.673720175382705, 'bound': 39.673680505670085}
"""),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_VERIFY))
def test_verify_golden_output(tmp_path, capsys, name):
    """The full stdout and exit code of ``verify`` on a run and on the run
    with one field bumped (theory: a distance, optimal: a rate, convex: a loss)."""
    column, change, want = GOLDEN_VERIFY[name]
    src = VERIFY_RUNS / f"verify_{name}.csv"
    assert main(["verify", "--trajectory", str(src)]) == 0
    n_rows = sum(1 for line in src.read_text().splitlines() if line[:1].isdigit())
    assert capsys.readouterr().out == f"audit over {n_rows} step(s): OK\n"
    _tamper_row(src, tmp_path / "bad.csv", column, change)
    assert main(["verify", "--trajectory", str(tmp_path / "bad.csv")]) == 1
    assert capsys.readouterr().out == want


def test_verify_reports_an_overflowing_drop_as_a_violation(tmp_path, capsys):
    # ||G||_F = 1e200 in the first row of an optimal run: its square is beyond
    # the float range, so the drop it states is infinite and the row violates it
    lines = (VERIFY_RUNS / "verify_optimal.csv").read_text().splitlines()
    first = next(i for i, line in enumerate(lines) if line[:1].isdigit())
    parts = lines[first].split(",")
    parts[8] = "1e200"  # grad_frobenius
    lines[first] = ",".join(parts)
    path = tmp_path / "big.csv"
    path.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--trajectory", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("audit over 12 step(s): 1 VIOLATION(S)\n")
    assert "'step': 0" in out and "'expected': -inf" in out
