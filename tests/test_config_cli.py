"""Config file parsing, hashing, multiplier resolution, CLI behaviour."""

import csv
import dataclasses
import json

import re

import numpy as np
import pytest

from axmoe import cli, config
from axmoe.config import ExperimentConfig, config_hash, load_config, parse_config_text
from axmoe.datasets import DATA_DIR_ENV
from axmoe.errors import ConfigError
from axmoe.models import load_model, model_from_spec
from axmoe.tensor_io import load_checkpoint
from axmoe.multipliers import builtin_multiplier, save_lut


def test_parse_config_text_types_and_comments():
    text = """
    # experiment
    arch = toy_mlp
    variants = dense, hard   # trailing comment
    multipliers = exact,trunc2
    n_experts = 4
    moe_ratio = 0.5
    lr = 0.05
    deterministic = off
    data_path = none
    """
    values = parse_config_text(text)
    assert values["arch"] == "toy_mlp"
    assert values["variants"] == ("dense", "hard")
    assert values["multipliers"] == ("exact", "trunc2")
    assert values["n_experts"] == 4
    assert values["moe_ratio"] == 0.5
    assert values["lr"] == 0.05
    assert values["deterministic"] is False
    assert values["data_path"] is None


@pytest.mark.parametrize("line,fragment", [
    ("arch toy_mlp", "expected key = value"),
    ("colour = blue", "unknown key"),
    ("lr = fast", "bad value"),
    ("arch = a\narch = b", "duplicate key"),
])
def test_parse_config_text_errors_carry_line_numbers(line, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config_text(line, source="exp.cfg")
    assert "exp.cfg:" in str(err.value)
    assert fragment in str(err.value)


def test_config_parsers_come_from_field_annotations():
    assert set(config._PARSERS) == {f.name for f in dataclasses.fields(ExperimentConfig)}

    @dataclasses.dataclass
    class Unparseable:
        ratio: complex = 0j

    with pytest.raises(TypeError, match="ratio"):
        config._field_parsers(Unparseable)


def test_load_config_layering(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("arch = toy_mlp\nseed = 3\nlr = 0.2\n")
    cfg = load_config(path, {"seed": 9})
    assert cfg.arch == "toy_mlp"
    assert cfg.seed == 9        # override wins
    assert cfg.lr == 0.2        # file wins over default
    assert cfg.batch_size == 64  # untouched default


def test_none_override_clears_a_file_value(tmp_path, capsys):
    path = tmp_path / "r.cfg"
    path.write_text("arch = vit_small\nmoe_ratio = 0.5\ncheckpoint = ckpt_dense\n")
    cfg = load_config(path, {"moe_ratio": None, "checkpoint": None})
    assert cfg.moe_ratio is None and cfg.checkpoint is None
    with pytest.raises(ConfigError, match="seed"):
        load_config(path, {"seed": None})
    assert cli.main(["count", "--config", str(path), "--variant", "hard",
                     "--set", "moe_ratio = none"]) == 0
    assert "total    9831.90 M" in capsys.readouterr().out


def test_load_config_rejects_unknown_override():
    with pytest.raises(ConfigError):
        load_config(None, {"turbo": True})


def test_validate_catches_bad_fields():
    base = ExperimentConfig()
    cases = [
        {"arch": "alexnet"},
        {"variants": ()},
        {"variants": ("dense", "fuzzy")},
        {"multipliers": ()},
        {"n_experts": 0},
        {"moe_ratio": 1.5},
        {"dataset": "imagenet"},
        {"num_classes": 0},
        {"lr": 0.0},
        {"momentum": 1.0},
    ]
    for changes in cases:
        with pytest.raises(ConfigError):
            dataclasses.replace(base, **changes).validate()


def test_config_hash_ignores_out_but_not_science():
    a = ExperimentConfig()
    b = dataclasses.replace(a, out="elsewhere").validate()
    c = dataclasses.replace(a, seed=1).validate()
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)
    assert len(config_hash(a)) == 64
    int(config_hash(a), 16)  # hex digest


def test_resolve_multiplier_paths(tmp_path, monkeypatch):
    assert cli.resolve_multiplier("float") is None
    assert cli.resolve_multiplier("exact").name == "mul8s_1KV6"
    assert cli.resolve_multiplier("trunc3").name == "trunc3"

    m = builtin_multiplier("trunc2")
    lut_path = tmp_path / "custom.axm8"
    save_lut(m, lut_path)
    loaded = cli.resolve_multiplier(str(lut_path))
    assert np.array_equal(loaded.lut, m.lut)

    # reference design name resolves through the data dir
    monkeypatch.delenv(DATA_DIR_ENV, raising=False)
    with pytest.raises(ConfigError):
        cli.resolve_multiplier("mul8s_1L2J")
    ref = builtin_multiplier("trunc1")
    ref = type(ref)(name="mul8s_1L2J", power_nw=0.301, lut=ref.lut)
    save_lut(ref, tmp_path / "mul8s_1L2J.axm8")
    monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
    got = cli.resolve_multiplier("mul8s_1L2J")
    assert got.power_nw == pytest.approx(0.301)

    with pytest.raises(ConfigError):
        cli.resolve_multiplier("warp_drive")


def _base_args(out, extra=()):
    return ["--arch", "toy_mlp", "--out", str(out),
            "--set", "resolution = 6",
            "--set", "samples = 96",
            "--set", "eval_samples = 48",
            "--set", "num_classes = 3",
            "--set", "pretrain_epochs = 2",
            "--set", "retrain_epochs = 1",
            "--set", "batch_size = 32",
            *extra]


def _cli_config(argv):
    return cli._config(cli._build_parser().parse_args(["count", *argv]))


@pytest.mark.parametrize("key,setting,flag,from_set,from_flag", [
    ("arch", "arch = toy_mlp", ["--arch", "toy_cnn"], "toy_mlp", "toy_cnn"),
    ("seed", "seed = 5", ["--seed", "0"], 5, 0),
    ("variants", "variants = hard, soft", ["--variant", "dense"], ("hard", "soft"), ("dense",)),
], ids=["arch", "seed", "variants"])
def test_set_survives_absent_flags_and_a_given_flag_wins(key, setting, flag, from_set,
                                                         from_flag):
    assert getattr(_cli_config(["--set", setting]), key) == from_set
    assert getattr(_cli_config(["--set", setting, *flag]), key) == from_flag
    assert getattr(_cli_config([*flag, "--set", setting]), key) == from_flag


def test_cli_count_and_mulinfo_run_clean(tmp_path, capsys):
    assert cli.main(["count", *_base_args(tmp_path), "--variant", "dense",
                     "--variant", "hard"]) == 0
    out = capsys.readouterr().out
    assert "dense" in out and "hard" in out and "p_norm" in out

    assert cli.main(["mulinfo", "--multiplier", "trunc2"]) == 0
    out = capsys.readouterr().out
    assert "mul8s_1KV6" in out and "trunc2" in out


def test_cli_sweep_writes_csv_and_run_json(tmp_path, capsys):
    rc = cli.main(["sweep", *_base_args(tmp_path), "--variant", "dense",
                   "--multiplier", "float", "--multiplier", "trunc2"])
    assert rc == 0
    csv_path = tmp_path / "sweep.csv"
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == cli.CSV_COLUMNS
    assert len(rows) == 3
    assert {r[2] for r in rows[1:]} == {"float", "trunc2"}
    assert all(r[8] == "false" for r in rows[1:])
    # CRLF line endings from the default csv dialect
    assert b"\r\n" in csv_path.read_bytes()

    record = json.loads((tmp_path / "run.json").read_text())
    assert record["version"] == cli.VERSION
    assert record["config"]["arch"] == "toy_mlp"
    assert len(record["config_hash"]) == 64
    assert len(record["rows"]) == 2
    assert record["wall_clock_s"] >= 0
    assert (tmp_path / "ckpt_dense").is_dir()


def test_cli_retrain_flags_rows_and_improves_reload(tmp_path, capsys):
    rc = cli.main(["retrain", *_base_args(tmp_path), "--variant", "dense",
                   "--multiplier", "trunc2"])
    assert rc == 0
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1][8] == "true"


def test_cli_retrain_cluster_checkpoint_reloads_and_evaluates(tmp_path, capsys):
    rc = cli.main(["retrain", *_base_args(tmp_path), "--variant", "dense",
                   "--variant", "cluster", "--multiplier", "float", "--multiplier", "trunc2"])
    assert rc == 0
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = {(r[1], r[2]): r for r in list(csv.reader(fh))[1:]}
    assert set(rows) == {(v, m) for v in ("dense", "cluster") for m in ("float", "trunc2")}
    assert rows[("cluster", "trunc2")][8] == "true"

    ckpt = tmp_path / "ckpt_cluster"
    saved, saved_frozen, meta = load_checkpoint(ckpt)
    model, _ = load_model(ckpt)
    params = model.params()
    assert set(params) == set(saved)
    for name, arr in saved.items():
        assert params[name].dtype == arr.dtype and np.array_equal(params[name], arr), name
    # the pretrained replicas moved away from their seeded initial values
    fresh = model_from_spec(meta).params()
    assert any(not np.array_equal(fresh[k], v) for k, v in saved.items())
    gateway = set(model.gateway.params())
    assert gateway and all(k.startswith("gateway.") for k in gateway)
    assert model.frozen_names() == gateway == saved_frozen

    capsys.readouterr()
    rc = cli.main(["eval", *_base_args(tmp_path), "--multiplier", "float",
                   "--set", f"checkpoint = {ckpt}"])
    assert rc == 0
    assert f"cluster float: top1 {float(rows[('cluster', 'float')][7]):.4f}" in capsys.readouterr().out


@pytest.mark.parametrize("arch,resolution", [("toy_cnn", 8), ("toy_mlp", 6)])
def test_sweep_checkpoints_rebuild_every_variant(tmp_path, capsys, arch, resolution):
    variants = ("dense", "hard", "soft", "cluster")
    rc = cli.main(["sweep", *_base_args(tmp_path), "--arch", arch,
                   "--set", f"resolution = {resolution}", "--set", "pretrain_epochs = 1",
                   "--multiplier", "float", *(a for v in variants for a in ("--variant", v))])
    assert rc == 0
    for variant in variants:
        saved, _, meta = load_checkpoint(tmp_path / f"ckpt_{variant}")
        assert set(meta) == {"arch", "arch_kwargs", "variant", "n_experts", "moe_ratio", "seed"}
        assert (meta["arch"], meta["variant"]) == (arch, variant)
        rebuilt = model_from_spec(meta).params()
        assert {k: v.shape for k, v in rebuilt.items()} == {k: v.shape for k, v in saved.items()}


def test_cli_count_prices_every_multiplier_in_order(capsys):
    assert cli.main(["count", "--arch", "vit_small", "--variant", "hard",
                     "--multiplier", "trunc2", "--multiplier", "exact"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    assert re.search(r"  p_norm\(trunc2\) [0-9.]+  p_norm\(exact\) [0-9.]+$", out.rstrip("\n"))


def test_cli_count_reference_design_needs_no_table_file(monkeypatch, capsys):
    monkeypatch.delenv(DATA_DIR_ENV, raising=False)
    for arch in ("resnet20", "vgg11_bn", "vgg19_bn"):
        assert cli.main(["count", "--arch", arch, "--variant", "dense",
                         "--multiplier", "mul8s_1L2J"]) == 0
        p_norm = float(re.search(r"p_norm\(mul8s_1L2J\) ([0-9.]+)",
                                 capsys.readouterr().out).group(1))
        assert 0.70 <= p_norm <= 0.72, (arch, p_norm)  # criterion 4 band


def test_cli_sweep_reruns_byte_identical(tmp_path):
    args = ["sweep", *_base_args(tmp_path / "a"), "--variant", "dense",
            "--multiplier", "trunc2"]
    assert cli.main(args) == 0
    first = (tmp_path / "a" / "sweep.csv").read_bytes()
    args = ["sweep", *_base_args(tmp_path / "b"), "--variant", "dense",
            "--multiplier", "trunc2"]
    assert cli.main(args) == 0
    second = (tmp_path / "b" / "sweep.csv").read_bytes()
    assert first == second


def test_cli_pareto_flags_frontier(tmp_path, capsys):
    src = tmp_path / "sweep.csv"
    with open(src, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cli.CSV_COLUMNS)
        rows = [
            ("toy_mlp", "dense", "float", "10", "10", "0.0", "1.0", "0.90", "false", "0"),
            ("toy_mlp", "dense", "trunc2", "10", "10", "0.9", "0.80", "0.85", "false", "0"),
            ("toy_mlp", "hard", "trunc2", "30", "10", "0.9", "0.85", "0.84", "false", "0"),
        ]
        for r in rows:
            writer.writerow(r)
    rc = cli.main(["pareto", "--csv", str(src), "--out", str(tmp_path)])
    assert rc == 0
    with open(tmp_path / "pareto.csv", newline="") as fh:
        flagged = list(csv.reader(fh))
    assert tuple(flagged[0]) == cli.CSV_COLUMNS + ("pareto",)
    marks = {(r[1], r[2]): r[10] for r in flagged[1:]}
    assert marks[("dense", "float")] == "true"
    assert marks[("dense", "trunc2")] == "true"
    # dominated: higher power and lower accuracy than dense+trunc2
    assert marks[("hard", "trunc2")] == "false"
    dat = (tmp_path / "pareto.dat").read_text().splitlines()
    assert dat[0].startswith("#")
    assert len(dat) == 3


def test_cli_eval_reloads_checkpoints(tmp_path, capsys):
    assert cli.main(["sweep", *_base_args(tmp_path), "--variant", "dense",
                     "--multiplier", "float"]) == 0
    run = json.loads((tmp_path / "run.json").read_text())
    want = float(run["rows"][0]["top1"])
    capsys.readouterr()
    rc = cli.main(["eval", *_base_args(tmp_path), "--multiplier", "float",
                   "--set", f"checkpoint = {tmp_path / 'ckpt_dense'}"])
    assert rc == 0
    out = capsys.readouterr().out
    assert f"top1 {want:.4f}" in out


def test_cli_exit_codes(tmp_path, capsys):
    # unknown config key
    assert cli.main(["count", "--set", "quantum = 9"]) == 2
    # missing config file
    assert cli.main(["count", "--config", str(tmp_path / "missing.cfg")]) == 3
    # malformed sweep CSV header
    bad = tmp_path / "bad.csv"
    bad.write_text("nope,nope\n1,2\n")
    assert cli.main(["pareto", "--csv", str(bad), "--out", str(tmp_path)]) == 4
    # no subcommand prints help and fails
    assert cli.main([]) == 2
    capsys.readouterr()


def test_cli_nondeterministic_draws_fresh_seed(tmp_path, capsys):
    seeds = set()
    for _ in range(4):
        assert cli.main(["count", "--arch", "toy_mlp", "--no-deterministic",
                         "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        seeds.add(cli._config(cli._build_parser().parse_args(
            ["count", "--arch", "toy_mlp", "--no-deterministic"])).seed)
    assert len(seeds) > 1
