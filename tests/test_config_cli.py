"""Config file parsing, hashing, multiplier resolution, CLI behaviour."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import platform
import re
import shutil
import signal
import struct
import tempfile
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import axmoe
from axmoe import cli, config
from axmoe.config import ExperimentConfig, config_hash, load_config, parse_config_text
from axmoe.datasets import DATA_DIR_ENV
from axmoe.engine import RunContext
from axmoe.errors import ConfigError, FormatError, NumericError
from axmoe.graphs import VARIANTS, build_arch, substitute_moe
from axmoe.models import build_model, load_model, model_from_spec, save_model
from axmoe.multipliers import NAME_BYTES, builtin_multiplier, load_lut, save_lut


def test_parse_config_text_types_and_comments():
    text = """
    # experiment
    arch = toy_mlp
    variants = dense, hard   # trailing comment
    multipliers = exact,trunc2
    n_experts = 4
    moe_ratio = 0.5
    lr = 0.05
    data_path = none
    """
    values = parse_config_text(text)
    assert values["arch"] == "toy_mlp"
    assert values["variants"] == ("dense", "hard")
    assert values["multipliers"] == ("exact", "trunc2")
    assert values["n_experts"] == 4
    assert values["moe_ratio"] == 0.5
    assert values["lr"] == 0.05
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
        {"lr": float("nan")},
        {"lr": float("inf")},
        {"noise": -0.1},
        {"noise": float("nan")},
        {"seed": -1},
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
    out = capsys.readouterr().out.splitlines()
    assert out[:9] == [
        "name         power_nW  saving_%  derived_%  err_prob_%",
        "mul8s_1KV6      0.425       0.0       0.00        0.00",
        "mul8s_1KV8      0.422       0.7       0.71       50.00",
        "mul8s_1KV9      0.410       3.5       3.53       68.75",
        "mul8s_1KVA      0.391       8.0       8.00       81.25",
        "mul8s_1KVM      0.369      13.2      13.18       49.80",
        "mul8s_1KVP      0.363      14.6      14.59       74.80",
        "mul8s_1L2J      0.301      29.2      29.18       74.61",
        "mul8s_1L2L      0.200      52.9      52.94       93.16",
    ]
    assert out[9].startswith("trunc2: power 0.361 nW, per-op saving 15.13 %")


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
    assert record["version"] == axmoe.__version__
    assert record["config"]["arch"] == "toy_mlp"
    assert len(record["config_hash"]) == 64
    assert len(record["rows"]) == 2
    assert record["wall_clock_s"] >= 0
    env = record["environment"]
    assert env["python"] == platform.python_version() and env["numpy"] == np.__version__
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # a numpy without show_config(mode="dicts")
        blas = None
    assert env["blas"] == blas
    assert env["machine"] == platform.machine() and env["cpu_count"] == os.cpu_count()
    assert set(env["threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"}
    assert (tmp_path / "ckpt_dense").is_dir()


def test_cli_retrain_flags_rows_and_improves_reload(tmp_path, capsys):
    rc = cli.main(["retrain", *_base_args(tmp_path), "--variant", "dense",
                   "--multiplier", "trunc2"])
    assert rc == 0
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1][8] == "true"


def test_cli_sweep_without_pretraining_writes_a_row_per_variant(tmp_path, capsys):
    # fit makes no test pass of its own, so each row's top1 comes from the
    # sweep's own evaluate even when there is no epoch to train
    rc = cli.main(["sweep", *_base_args(tmp_path, ["--set", "pretrain_epochs = 0"]),
                   "--variant", "dense", "--variant", "hard", "--multiplier", "float"])
    assert rc == 0
    rows, points = cli._read_sweep_csv(tmp_path / "sweep.csv")
    assert [row[1] for row in rows] == ["dense", "hard"]
    assert all(0 <= point.top1 <= 1 for point in points)
    assert capsys.readouterr().out.count("top1") == 2


def _read_checkpoint(ckpt):
    """The parameters and the decoded meta in a checkpoint directory."""
    with np.load(ckpt / "checkpoint.npz", allow_pickle=False) as npz:
        params = {k: npz[k] for k in npz.files if k != "meta"}
        return params, json.loads(npz["meta"].item())


def test_cli_retrain_cluster_checkpoint_reloads_and_evaluates(tmp_path, capsys):
    rc = cli.main(["retrain", *_base_args(tmp_path), "--variant", "dense",
                   "--variant", "cluster", "--multiplier", "float", "--multiplier", "trunc2"])
    assert rc == 0
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = {(r[1], r[2]): r for r in list(csv.reader(fh))[1:]}
    assert set(rows) == {(v, m) for v in ("dense", "cluster") for m in ("float", "trunc2")}
    assert rows[("cluster", "trunc2")][8] == "true"

    ckpt = tmp_path / "ckpt_cluster"
    saved, meta = _read_checkpoint(ckpt)
    model, _ = load_model(ckpt)
    params = model.params()
    assert set(params) == set(saved)
    for name, arr in saved.items():
        assert params[name].dtype == arr.dtype and np.array_equal(params[name], arr), name
    # the pretrained replicas moved away from their seeded initial values
    fresh = model_from_spec(meta).params()
    assert any(not np.array_equal(fresh[k], v) for k, v in saved.items())
    gateway = set(model.layers[0].gateway.params())
    assert gateway and all(k.startswith("gateway.") for k in gateway)
    assert model.frozen_names() == gateway

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
        saved, meta = _read_checkpoint(tmp_path / f"ckpt_{variant}")
        assert set(meta) == {"arch", "arch_kwargs", "variant", "n_experts", "moe_ratio", "seed",
                             "pretrain", "params_sha256"}
        assert (meta["arch"], meta["variant"]) == (arch, variant)
        rebuilt = model_from_spec(meta).params()
        assert {k: v.shape for k, v in rebuilt.items()} == {k: v.shape for k, v in saved.items()}
        model, _ = load_model(tmp_path / f"ckpt_{variant}")
        assert all(v.dtype == np.float32 for v in model.params().values()), variant
        kw = meta["arch_kwargs"]
        x = np.random.default_rng(0).random(
            (2, kw["channels"], kw["resolution"], kw["resolution"]), dtype=np.float32)
        for mul in (None, builtin_multiplier("trunc2")):
            assert model.forward(x, RunContext(multiplier=mul)).dtype == np.float32, variant


@pytest.mark.parametrize("multiplier", ["float", "exact"])
def test_a_sweep_that_diverges_exits_5_and_writes_no_checkpoint(tmp_path, capsys, multiplier):
    rc = cli.main(["sweep", *_base_args(tmp_path), "--set", "lr = 1e30",
                   "--variant", "dense", "--multiplier", multiplier])
    assert rc == 5
    err = capsys.readouterr().err
    assert "training diverged" in err and "Traceback" not in err
    assert not list(tmp_path.rglob("checkpoint.npz"))


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


GOLDEN_COUNT = Path(__file__).with_name("golden_count.txt")


def test_cli_count_of_the_published_graphs_matches_its_golden_output(capsys):
    # four architectures in every variant, then vit_small and resnet20 at
    # moe_ratio 0.25 and 0.5; a change to how graphs are laid out or walked
    # must leave every figure as it was
    runs = [["--arch", arch, *(f for v in VARIANTS for f in ("--variant", v))]
            for arch in ("resnet20", "vgg11_bn", "vgg19_bn", "vit_small")]
    runs += [["--arch", arch, "--variant", "hard", "--variant", "soft",
              "--set", f"moe_ratio = {ratio}"]
             for arch in ("vit_small", "resnet20") for ratio in (0.25, 0.5)]
    out = []
    for run in runs:
        assert cli.main(["count", *run, "--multiplier", "exact",
                         "--multiplier", "mul8s_1L2L"]) == 0
        out.append(capsys.readouterr().out)
    assert "".join(out) == GOLDEN_COUNT.read_text()


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


@pytest.fixture(scope="module")
def sweep_csv(tmp_path_factory) -> bytes:
    """A sweep.csv as `sweep` writes it: two variants under two multipliers."""
    out = tmp_path_factory.mktemp("sweep")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["sweep", *_base_args(out), "--set", "samples = 32",
                         "--set", "pretrain_epochs = 1", "--variant", "dense",
                         "--variant", "hard", "--multiplier", "float",
                         "--multiplier", "trunc2"]) == 0
    return (out / "sweep.csv").read_bytes()


# A corruption of sweep.csv: replace cells by drawn text (rewritten through
# csv, so a comma or quote stays inside its cell), then flip bytes, then cut
_CELLS = st.lists(st.tuples(st.integers(0, 4), st.integers(0, len(cli.CSV_COLUMNS) - 1),
                            st.one_of(st.sampled_from(["", "nan", "inf", "-1", "1e400", "2",
                                                       "0", "1", "-0", " 0.5 ", "1_0", '"',
                                                       "a,b", "x\ny"]),
                                      st.text(max_size=6))), max_size=3)
_FLIPS = st.lists(st.tuples(st.floats(0, 1, exclude_max=True), st.integers(1, 255)), max_size=3)


@settings(max_examples=200, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cells=_CELLS, flips=_FLIPS, cut=st.none() | st.floats(0, 1))
def test_pareto_on_a_corrupted_sweep_csv_exits_cleanly(sweep_csv, cells, flips, cut):
    table = list(csv.reader(io.StringIO(sweep_csv.decode("utf-8"), newline="")))
    for row, col, value in cells:
        table[row % len(table)][col] = value
    text = io.StringIO(newline="")
    csv.writer(text).writerows(table)
    data = bytearray(text.getvalue().encode("utf-8"))
    for at, mask in flips:
        data[int(at * len(data))] ^= mask
    if cut is not None:
        del data[int(cut * len(data)):]
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp) / "sweep.csv", Path(tmp) / "out"
        src.write_bytes(data)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main(["pareto", "--csv", str(src), "--out", str(out)])
        err = err.getvalue()
        assert rc in (0, 2, 3, 4) and "Traceback" not in err
        if rc:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            return
        assert not err
        with open(src, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        with open(out / "pareto.csv", encoding="utf-8", newline="") as fh:
            flagged = list(csv.reader(fh))
        assert tuple(flagged[0]) == cli.CSV_COLUMNS + ("pareto",)
        assert [r[:-1] for r in flagged[1:]] == rows
        assert {r[-1] for r in flagged[1:]} <= {"true", "false"}
        dat = (out / "pareto.dat").read_text(encoding="utf-8").splitlines()
        assert dat[0] == "# p_norm top1"
        assert len(dat) - 1 == sum(r[-1] == "true" for r in flagged[1:])
        for line in dat[1:]:
            p_norm, top1 = map(float, line.split(" "))
            assert p_norm >= 0 and 0 <= top1 <= 1


@pytest.fixture(scope="module")
def sweep_checkpoint(tmp_path_factory) -> bytes:
    """A toy_mlp hard-variant checkpoint.npz as `sweep` writes it."""
    out = tmp_path_factory.mktemp("ckpt")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["sweep", *_base_args(out), "--set", "samples = 32",
                         "--set", "pretrain_epochs = 1", "--variant", "hard",
                         "--multiplier", "float"]) == 0
    return (out / "ckpt_hard" / "checkpoint.npz").read_bytes()


def _npz_regions(raw: bytes) -> tuple[range, list[int], range]:
    """The offsets of an .npz archive's whole file, of its members' local
    zip and .npy headers (each < 192 bytes with the name and zip64 extra),
    and of its central directory: the bytes no CRC covers, or that are read
    before a member's CRC is checked."""
    with zipfile.ZipFile(io.BytesIO(raw)) as archive:
        starts = [info.header_offset for info in archive.infolist()]
        end = archive.start_dir
    local = sorted({i for s in starts for i in range(s, min(s + 192, end))})
    return range(len(raw)), local, range(end, len(raw))


# A corruption of checkpoint.npz: flip bits of bytes, then set bytes, then
# cut. Each byte is one of the `_npz_regions` and an index into it, modulo
# its length. The examples are the escapes scans of the header bytes found.
# In the first central-directory entry: compression method 99, compression
# method 12 (bzip2, whose decoder raises OSError on a stored member), zip
# version 9.9, flag bit 5 (patched data) and flag bit 0 (encrypted). In the
# end record: a central-directory offset that seeks before the archive. In
# the .npy header of the second member, the first that holds more than
# zipfile reads at once (so its CRC is checked after its header is parsed):
# a header length cut to 0x36, a descr of ",f4", a bytes key
# (B'fortran_order'), and a descr of "<a4" (numpy's deprecated alias "a")
# and a shape of "(3L, 108)" (a Python 2 long), at which numpy only warns.
# A descr of "af4" never escaped and is pinned too. The file is always
# readable, so no corruption may exit 3, the I/O error's code.
_AT = st.tuples(st.integers(0, 2), st.integers(0, 65535))


@example(flips=[], sets=[((2, 10), 99)], cut=None)
@example(flips=[], sets=[((2, 10), 12)], cut=None)
@example(flips=[], sets=[((2, 6), 99)], cut=None)
@example(flips=[((2, 8), 0x20)], sets=[], cut=None)
@example(flips=[((2, 8), 0x01)], sets=[], cut=None)
@example(flips=[], sets=[((2, 628 + 19), 0xFF)], cut=None)
@example(flips=[((1, 192 + 79), 0x40)], sets=[], cut=None)
@example(flips=[], sets=[((1, 192 + 92), ord(","))], cut=None)
@example(flips=[], sets=[((1, 192 + 92), ord("a"))], cut=None)
@example(flips=[], sets=[((1, 192 + 97), ord("B"))], cut=None)
@example(flips=[], sets=[((1, 192 + 93), ord("a"))], cut=None)
@example(flips=[], sets=[((1, 192 + 133), ord("L"))], cut=None)
@settings(max_examples=150, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(flips=st.lists(st.tuples(_AT, st.integers(1, 255)), max_size=3),
       sets=st.lists(st.tuples(_AT, st.integers(0, 255)), max_size=3),
       cut=st.none() | st.floats(0, 1))
def test_eval_on_a_corrupted_checkpoint_exits_cleanly(sweep_checkpoint, flips, sets, cut):
    data = bytearray(sweep_checkpoint)
    regions = _npz_regions(sweep_checkpoint)

    def where(at):
        region, index = at
        return regions[region][index % len(regions[region])]

    for at, mask in flips:
        data[where(at)] ^= mask
    for at, value in sets:
        data[where(at)] = value
    if cut is not None:
        del data[int(cut * len(data)):]
    # a fresh path per example: rewriting one file that holds recent data
    # makes ext4 flush it first
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "checkpoint.npz").write_bytes(data)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main(["eval", "--set", f"checkpoint = {tmp}"])
    err = err.getvalue()
    assert rc in (0, 2, 4) and "Traceback" not in err
    if rc:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert not err


def _main(argv) -> tuple[int, str, str]:
    """`cli.main(argv)`'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _assert_one_error_line(rc, err) -> None:
    assert "Traceback" not in err
    if rc:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert not err


# One to three integer or float config keys and their values: small ones,
# which run, and sizes no array can hold. n_experts and the epoch counts stay
# small: a large one is a legal but long run. An n_experts whose parameters no
# array can hold is refused, and pinned as an example below.
_SIZE = st.integers(-1, 12) | st.integers(2**63, 10**30)
_REAL = st.floats(0, 1) | st.sampled_from([0.0, -0.0, 1e-300, 1.5, -1.0, 1e308, float("inf"),
                                           float("nan")]) | st.floats()
_VALUES = st.lists(st.one_of(
    *(st.tuples(st.just(key), _SIZE) for key in ("samples", "eval_samples", "channels",
                                                  "resolution", "num_classes", "batch_size",
                                                  "seed")),
    *(st.tuples(st.just(key), st.integers(-1, n)) for key, n in (("n_experts", 4),
                                                                 ("pretrain_epochs", 1),
                                                                 ("retrain_epochs", 1))),
    *(st.tuples(st.just(key), _REAL) for key in ("moe_ratio", "noise", "lr"))),
    min_size=1, max_size=3).map(dict)
# what a drawn value replaces: a run of a few milliseconds
_SMALL_RUN = {"samples": 8, "eval_samples": 8, "resolution": 4, "num_classes": 2,
              "pretrain_epochs": 1, "retrain_epochs": 1, "batch_size": 4}


@example(values={"samples": 99999999999999999999})
@example(values={"eval_samples": 99999999999999999999})
@example(values={"resolution": 99999999999999999999})
@example(values={"channels": 99999999999999999999})
@example(values={"resolution": 9223372036854775808})
@example(values={"samples": 2**50})
@example(values={"n_experts": 99999999999999999999})
@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(values=_VALUES)
def test_retrain_on_drawn_set_values_exits_cleanly(values):
    with tempfile.TemporaryDirectory() as tmp:
        rc, _, err = _main(["retrain", "--arch", "toy_mlp", "--variant", "hard",
                            "--multiplier", "float", "--multiplier", "trunc2", "--out", tmp,
                            *(arg for key, value in {**_SMALL_RUN, **values}.items()
                              for arg in ("--set", f"{key} = {value}"))])
        assert rc in (0, 2, 3, 4, 5)
        _assert_one_error_line(rc, err)
        if not rc:
            rows, _ = cli._read_sweep_csv(Path(tmp) / "sweep.csv")
            assert [row[2] for row in rows] == ["float", "trunc2"]
    if values and set(values) <= {"samples", "eval_samples", "channels", "resolution"} \
            and min(values.values()) >= 2**63:
        assert rc == 2 and "larger than numpy's largest array" in err, err
    if values == {"samples": 2**50}:  # 8 PiB of labels: no address space holds it
        assert rc == 2 and "do not fit in memory" in err, err
    if values == {"n_experts": 99999999999999999999}:
        assert rc == 2 and "numpy's largest array" in err, err


def test_count_refuses_a_huge_n_experts_within_a_second():
    def too_slow(signum, frame):
        raise AssertionError("count still running after 1 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        rc, out, err = _main(["count", "--arch", "toy_mlp", "--variant", "hard",
                              "--set", "n_experts = 99999999999999999999"])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert rc == 2 and not out and "numpy's largest array" in err
    _assert_one_error_line(rc, err)


@pytest.fixture(scope="module")
def saved_table(tmp_path_factory) -> bytes:
    """trunc2's table as `save_lut` writes it."""
    path = tmp_path_factory.mktemp("table") / "trunc2.axm8"
    save_lut(builtin_multiplier("trunc2"), path)
    return path.read_bytes()


# A corruption of an .axm8 table: flip bits of bytes, then set bytes, then
# cut. Each byte is in the header (magic, version, name and power) or
# anywhere, by an index modulo its length. The example sets the power to
# 1.7e308: finite, but a p_norm computed from it overflows to inf.
_TABLE_HEADER = 4 + 1 + NAME_BYTES + 8
_TABLE_AT = st.tuples(st.booleans(), st.integers(0, 2**17))
_HUGE_POWER = [((True, 5 + NAME_BYTES + i), byte)
               for i, byte in enumerate(struct.pack("<d", 1.7e308))]


@example(flips=[], sets=_HUGE_POWER, cut=None)
@settings(max_examples=200, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(flips=st.lists(st.tuples(_TABLE_AT, st.integers(1, 255)), max_size=3),
       sets=st.lists(st.tuples(_TABLE_AT, st.integers(0, 255)), max_size=3),
       cut=st.none() | st.floats(0, 1))
def test_a_corrupted_table_loads_or_fails_cleanly(saved_table, flips, sets, cut):
    data = bytearray(saved_table)

    def where(at):
        header, index = at
        return index % (_TABLE_HEADER if header else len(data))

    for at, mask in flips:
        data[where(at)] ^= mask
    for at, value in sets:
        data[where(at)] = value
    if cut is not None:
        del data[int(cut * len(data)):]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.axm8"
        path.write_bytes(data)
        try:
            load_lut(path)
            loaded = True
        except FormatError:
            loaded = False
        rc, _, err = _main(["mulinfo", "--multiplier", str(path)])
        assert rc in ((0, 5) if loaded else (4,))
        _assert_one_error_line(rc, err)
        mulinfo_rc = rc
        rc, out, err = _main(["count", "--arch", "toy_mlp", "--variant", "dense",
                              "--variant", "soft", "--multiplier", str(path)])
    assert rc in ((0, 5) if loaded else (4,))
    _assert_one_error_line(rc, err)
    # what count prints, sweep writes: a p_norm that pareto reads
    p_norms = [float(v) for v in re.findall(r"p_norm\(.*?\) (\S+)", out)]
    assert all(math.isfinite(p) and p >= 0 for p in p_norms)
    assert rc or len(p_norms) == 2
    if sets == _HUGE_POWER and not flips and cut is None:
        assert rc == 5 and "not finite" in err, err
        assert mulinfo_rc == 5


def test_cli_eval_reloads_checkpoints(tmp_path, capsys):
    # arch and shape differ from the defaults; eval must take them from the
    # checkpoint and keep the default draw the sweep used
    assert cli.main(["sweep", "--arch", "toy_mlp", "--out", str(tmp_path),
                     "--set", "num_classes = 3", "--set", "resolution = 6",
                     "--set", "channels = 1", "--variant", "dense"]) == 0
    run = json.loads((tmp_path / "run.json").read_text())
    want = float(run["rows"][0]["top1"])
    capsys.readouterr()
    rc = cli.main(["eval", "--set", f"checkpoint = {tmp_path / 'ckpt_dense'}"])
    assert rc == 0
    assert f"toy_mlp dense exact: top1 {want:.4f}" in capsys.readouterr().out


_TOY_MLP_KWARGS = {"num_classes": 3, "resolution": 6, "channels": 1}
_TOY_MLP_GRAPH = substitute_moe(build_arch("toy_mlp", **_TOY_MLP_KWARGS), "dense")


def _save_toy_mlp(model, ckpt):
    save_model(model, ckpt, {"arch": "toy_mlp", "arch_kwargs": _TOY_MLP_KWARGS,
                             "variant": "dense", "n_experts": 1, "moe_ratio": None, "seed": 0})


def _rewrite(edit):
    """Corruption that rewrites checkpoint.npz as the entries that
    edit(params, meta) returns, given its parameters and its decoded meta; a
    str entry is saved as a 0-d string."""
    def corrupt(path):
        params, meta = _read_checkpoint(path.parent)
        with open(path, "wb") as fh:
            np.savez(fh, **edit(params, meta))
    return corrupt


def _set_meta(**values):
    return _rewrite(lambda params, meta: {**params, "meta": json.dumps({**meta, **values})})


def _bare_npy(path):
    with open(path, "wb") as fh:
        np.save(fh, np.zeros(3, dtype=np.float32))


@pytest.mark.parametrize("corrupt", [
    _rewrite(lambda p, m: {"meta": json.dumps(m)}),
    _rewrite(lambda p, m: {**p, "meta": json.dumps([m])}),
    _rewrite(lambda p, m: {**p, "meta": json.dumps({k: v for k, v in m.items() if k != "arch"})}),
    _rewrite(lambda p, m: p),
    _set_meta(arch_kwargs={"classes": 3}), _set_meta(arch_kwargs=[1]),
    _set_meta(n_experts="x"), _set_meta(arch="alexnet"), _set_meta(variant="fuzzy"),
    _rewrite(lambda p, m: {**{k: v for k, v in p.items() if k != "fc1.w"},
                           "meta": json.dumps(m)}),
    _rewrite(lambda p, m: {**p, "meta": json.dumps(m)[:-1]}),
    _rewrite(lambda p, m: {**p, "meta": 1.0}),
    lambda path: path.write_bytes(b""),
    lambda path: path.write_bytes(path.read_bytes()[: path.stat().st_size // 2]),
    _bare_npy,
    lambda path: path.unlink(),
], ids=["no_tensors", "json_list", "meta_without_arch", "entry_without_file",
        "unknown_arch_kwarg", "arch_kwargs_list", "n_experts_not_int", "unknown_arch",
        "unknown_variant", "missing_tensor", "not_utf8", "numeric_meta", "empty_file",
        "truncated_file", "bare_npy", "no_checkpoint_file"])
def test_malformed_checkpoint_is_a_format_error(tmp_path, capsys, corrupt):
    ckpt = tmp_path / "ckpt"
    _save_toy_mlp(build_model(_TOY_MLP_GRAPH), ckpt)
    corrupt(ckpt / "checkpoint.npz")
    with pytest.raises(FormatError):
        load_model(ckpt)
    assert cli.main(["eval", "--set", f"checkpoint = {ckpt}"]) == 4
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_checkpoint_parameter_is_a_format_error(tmp_path, capsys, value):
    model = build_model(_TOY_MLP_GRAPH)
    _save_toy_mlp(model, tmp_path / "ckpt")
    saved = (tmp_path / "ckpt" / "checkpoint.npz").read_bytes()
    model.params()["fc1.b"][1] = value
    # the writer refuses what its reader would, and leaves the old file
    with pytest.raises(NumericError, match="fc1.b"):
        _save_toy_mlp(model, tmp_path / "ckpt")
    assert (tmp_path / "ckpt" / "checkpoint.npz").read_bytes() == saved

    def non_finite(params, meta):
        b = params["fc1.b"].copy()
        b[1] = value
        return {**params, "fc1.b": b, "meta": json.dumps(meta)}

    _rewrite(non_finite)(tmp_path / "ckpt" / "checkpoint.npz")
    with pytest.raises(FormatError, match="fc1.b"):
        load_model(tmp_path / "ckpt")
    # the float path multiplies no quantized code, so only the load can refuse it
    assert cli.main(["eval", "--multiplier", "float",
                     "--set", f"checkpoint = {tmp_path / 'ckpt'}"]) == 4
    err = capsys.readouterr().err
    assert "non-finite" in err and "Traceback" not in err


def test_checkpoint_saves_are_byte_identical(tmp_path):
    model = build_model(_TOY_MLP_GRAPH)
    for name in ("a", "b"):
        _save_toy_mlp(model, tmp_path / name)
    first = (tmp_path / "a" / "checkpoint.npz").read_bytes()
    assert first == (tmp_path / "b" / "checkpoint.npz").read_bytes()
    loaded, _ = load_model(tmp_path / "a")
    assert all(np.array_equal(v, model.params()[k]) for k, v in loaded.params().items())


# A sweep of hard and cluster: n_experts shapes both graphs, and the cluster
# builds its replicas from their own seeds.
_REUSE_ARGS = ("--variant", "hard", "--variant", "cluster", "--multiplier", "float")


def _count_pretrains(monkeypatch) -> list:
    """A list that gains one entry per pretraining `fit` call of the CLI
    from now on (retraining calls `train.fit`, not `cli.fit`)."""
    calls = []
    fit = cli.fit

    def counted(*args, **kwargs):
        calls.append(args[0])
        return fit(*args, **kwargs)

    monkeypatch.setattr(cli, "fit", counted)
    return calls


@pytest.fixture(scope="module")
def reuse_base(tmp_path_factory):
    """An --out that a toy_mlp sweep of `_REUSE_ARGS` wrote."""
    out = tmp_path_factory.mktemp("reuse") / "out"
    assert _main(["sweep", *_base_args(out), *_REUSE_ARGS])[0] == 0
    return out


def _flip_a_parameter_byte(params, meta):
    name = min(params)
    value = params[name].copy()
    value.view(np.uint8)[5] ^= 0x01
    return {**params, name: value, "meta": json.dumps(meta)}


def _without_fingerprint(params, meta):
    """The checkpoint as a sweep wrote it before pretraining was reused."""
    legacy = {k: v for k, v in meta.items() if k not in ("pretrain", "params_sha256")}
    return {**params, "meta": json.dumps(legacy)}


@pytest.mark.parametrize("command,extra,damage,trained", [
    ("sweep", [], None, ()),
    ("sweep", ["--set", "lr = 0.05"], None, ("hard", "cluster")),
    ("sweep", ["--set", "pretrain_epochs = 1"], None, ("hard", "cluster")),
    ("sweep", ["--set", "batch_size = 16"], None, ("hard", "cluster")),
    ("sweep", ["--seed", "1"], None, ("hard", "cluster")),
    ("sweep", ["--set", "noise = 0.3"], None, ("hard", "cluster")),
    ("sweep", ["--set", "samples = 64"], None, ("hard", "cluster")),
    ("sweep", ["--set", "n_experts = 2"], None, ("hard", "cluster")),
    ("sweep", [], _flip_a_parameter_byte, ("hard",)),
    ("sweep", [], _without_fingerprint, ("hard",)),
    ("sweep", ["--multiplier", "exact"], None, ()),
    ("sweep", ["--set", "eval_samples = 32"], None, ()),
    ("retrain", ["--set", "retrain_epochs = 2", "--multiplier", "trunc2"], None, ()),
], ids=["exact_rerun", "lr", "pretrain_epochs", "batch_size", "seed", "noise", "samples",
        "n_experts", "parameter_byte", "meta_without_fingerprint", "multipliers",
        "eval_samples", "retrain_epochs"])
def test_a_sweep_pretrains_exactly_the_variants_whose_pretraining_changed(
        tmp_path, monkeypatch, reuse_base, command, extra, damage, trained):
    out = tmp_path / "out"
    shutil.copytree(reuse_base, out)
    if damage is not None:
        _rewrite(damage)(out / "ckpt_hard" / "checkpoint.npz")
    calls = _count_pretrains(monkeypatch)
    assert _main([command, *_base_args(out), *_REUSE_ARGS, *extra])[0] == 0
    assert len(calls) == len(trained)
    record = json.loads((out / "run.json").read_text())
    assert record["pretrain"] == {v: "trained" if v in trained else "reused"
                                  for v in ("hard", "cluster")}
    # a rerun of the same command finds every checkpoint it just wrote
    calls.clear()
    assert _main([command, *_base_args(out), *_REUSE_ARGS, *extra])[0] == 0
    assert not calls


def test_an_edited_package_source_is_pretrained_on_again(tmp_path, monkeypatch, reuse_base):
    out, package = tmp_path / "out", tmp_path / "axmoe"
    shutil.copytree(reuse_base, out)
    shutil.copytree(Path(cli.__file__).parent, package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    # `_source_digest` reads the sources beside the cli module's file
    monkeypatch.setattr(cli, "__file__", str(package / "cli.py"))
    calls = _count_pretrains(monkeypatch)
    assert _main(["sweep", *_base_args(out), *_REUSE_ARGS])[0] == 0
    assert not calls
    with open(package / "engine.py", "a", encoding="utf-8") as fh:
        fh.write("# an edit that changes no behaviour\n")
    assert _main(["sweep", *_base_args(out), *_REUSE_ARGS])[0] == 0
    assert len(calls) == 2


def test_a_checkpoint_from_another_blas_is_pretrained_on_again(tmp_path, monkeypatch,
                                                              reuse_base):
    out = tmp_path / "out"
    shutil.copytree(reuse_base, out)
    calls = _count_pretrains(monkeypatch)
    assert cli._environment.cache_info().maxsize is None  # once per process
    env = cli._environment()
    for blas, pretrains in ((env["blas"], 0), ("another-blas", 2)):
        monkeypatch.setattr(cli, "_environment", lambda blas=blas: {**env, "blas": blas})
        assert _main(["sweep", *_base_args(out), *_REUSE_ARGS])[0] == 0
        assert len(calls) == pretrains, blas
        assert json.loads((out / "run.json").read_text())["environment"]["blas"] == blas


def test_an_npz_split_rewritten_at_its_path_is_pretrained_on_again(tmp_path, monkeypatch):
    data = tmp_path / "data"
    data.mkdir()
    rng = np.random.default_rng(0)
    splits = {split: (rng.normal(size=(n, 3, 6, 6)).astype(np.float32),
                      rng.integers(0, 3, size=n)) for split, n in (("train", 96), ("test", 48))}

    def write(split, x):
        # a fresh file each time: rewriting one that holds recent data makes
        # ext4 flush it first
        (data / f"{split}.npz").unlink(missing_ok=True)
        np.savez(data / f"{split}.npz", x=x, y=splits[split][1])

    for split, (x, _) in splits.items():
        write(split, x)
    argv = ["sweep", *_base_args(tmp_path / "out", ["--set", "dataset = npz",
                                                    "--set", f"data_path = {data}"]),
            *_REUSE_ARGS]
    calls = _count_pretrains(monkeypatch)
    for split, pixel, pretrains in (("train", None, 2), ("train", None, 0),
                                    ("test", 1.0, 0), ("train", 1.0, 2)):
        if pixel is not None:
            x = splits[split][0].copy()
            x[0, 0, 0, 0] += pixel
            write(split, x)
        calls.clear()
        assert _main(argv)[0] == 0
        assert len(calls) == pretrains, (split, pixel)


def _cut_in_half(out):
    path = out / "ckpt_hard" / "checkpoint.npz"
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _flip_the_middle_byte(out):
    path = out / "ckpt_hard" / "checkpoint.npz"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(data)


def _meta_not_json(out):
    _rewrite(lambda p, m: {**p, "meta": "{not json"})(out / "ckpt_hard" / "checkpoint.npz")


def _another_variants_checkpoint(out):
    shutil.copyfile(out / "ckpt_cluster" / "checkpoint.npz",
                    out / "ckpt_hard" / "checkpoint.npz")


@pytest.mark.parametrize("damage", [_cut_in_half, _flip_the_middle_byte, _meta_not_json,
                                    _another_variants_checkpoint],
                         ids=["truncated", "byte_flip", "meta_not_json", "other_variant"])
def test_an_unusable_checkpoint_is_pretrained_again_with_a_fresh_runs_outputs(
        tmp_path, reuse_base, damage):
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    shutil.copytree(reuse_base, out)
    damage(out)
    rc, stdout, err = _main(["sweep", *_base_args(out), *_REUSE_ARGS])
    assert (rc, err) == (0, "")
    assert json.loads((out / "run.json").read_text())["pretrain"] == {"hard": "trained",
                                                                      "cluster": "reused"}
    fresh_rc, fresh_stdout, _ = _main(["sweep", *_base_args(fresh), *_REUSE_ARGS])
    assert fresh_rc == 0
    assert stdout.replace(str(out), "<out>") == fresh_stdout.replace(str(fresh), "<out>")
    for name in ("sweep.csv", "ckpt_hard/checkpoint.npz", "ckpt_cluster/checkpoint.npz"):
        assert (out / name).read_bytes() == (fresh / name).read_bytes(), name


def test_data_that_does_not_match_the_config_exits_2(tmp_path, capsys):
    # two CIFAR-format records per split: coarse label, fine label 0 or 9,
    # then a 3x32x32 image
    records = np.zeros((2, 3074), dtype=np.uint8)
    records[:, 1] = (0, 9)
    for split in ("train", "test"):
        records.tofile(tmp_path / f"{split}.bin")
    base = ["sweep", "--out", str(tmp_path / "out"), "--set", "dataset = cifar100",
            "--set", f"data_path = {tmp_path}", "--set", "samples = 2",
            "--set", "eval_samples = 2", "--set", "channels = 3"]
    # the default resolution of 8 does not match the 32x32 images
    assert cli.main(base) == 2
    assert "resolution" in capsys.readouterr().err
    # label 9 is outside 4 classes
    assert cli.main(base + ["--set", "resolution = 32", "--set", "num_classes = 4"]) == 2
    assert "num_classes" in capsys.readouterr().err


def test_non_finite_input_exits_5(tmp_path, capsys):
    rng = np.random.default_rng(0)
    for split, n in (("train", 96), ("test", 48)):
        x = rng.normal(size=(n, 3, 6, 6)).astype(np.float32)
        if split == "train":
            x[5, 0, 2, 3] = np.nan
        np.savez(tmp_path / f"{split}.npz", x=x, y=rng.integers(0, 3, size=n))
    # float only: no LUT quantizer stands between the pixel and the network
    argv = ["sweep", *_base_args(tmp_path / "out", ["--set", "dataset = npz",
                                                    "--set", f"data_path = {tmp_path}",
                                                    "--multiplier", "float"])]
    assert cli.main(argv) == 5
    err = capsys.readouterr().err
    assert "non-finite" in err and "Traceback" not in err


@pytest.mark.parametrize("multiplier,code", [("bogus_mul", 2), ("missing.axm8", 3),
                                              ("bad.axm8", 4)],
                         ids=["unknown", "missing_table", "malformed_table"])
def test_a_bad_multiplier_fails_before_any_training_or_load(tmp_path, capsys, multiplier,
                                                            code):
    (tmp_path / "bad.axm8").write_bytes(b"AXM8 but not a table")
    multiplier = str(tmp_path / multiplier) if multiplier.endswith(".axm8") else multiplier
    out = tmp_path / "out"
    for command in ("sweep", "retrain"):
        assert cli.main([command, *_base_args(out), "--multiplier", "float",
                         "--multiplier", multiplier]) == code
        assert not out.exists()
    # the checkpoint is missing too, which would exit 4; the multiplier fails first
    assert cli.main(["eval", "--set", f"checkpoint = {tmp_path / 'none'}",
                     "--multiplier", "float", "--multiplier", multiplier]) == code
    err = capsys.readouterr().err
    assert err.count("error:") == 3 and "Traceback" not in err


def test_cli_exit_codes(tmp_path, capsys, sweep_checkpoint):
    # unknown config key
    assert cli.main(["count", "--set", "quantum = 9"]) == 2
    # missing config file
    assert cli.main(["count", "--config", str(tmp_path / "missing.cfg")]) == 3
    # config file that is not UTF-8
    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes(b"# caf\xe9\narch = toy_mlp\n")
    with pytest.raises(ConfigError, match="UTF-8"):
        load_config(latin1)
    assert cli.main(["count", "--config", str(latin1)]) == 2
    # learning rate that is not a number
    assert cli.main(["sweep", "--set", "lr = nan", "--out", str(tmp_path / "nan")]) == 2
    # negative seed, which numpy's generators refuse
    assert cli.main(["sweep", "--seed", "-1", "--out", str(tmp_path / "neg")]) == 2
    # malformed sweep CSV header
    bad = tmp_path / "bad.csv"
    bad.write_text("nope,nope\n1,2\n")
    assert cli.main(["pareto", "--csv", str(bad), "--out", str(tmp_path)]) == 4
    # sweep CSV that is not UTF-8
    bad.write_bytes(b"\xff\xfe")
    capsys.readouterr()
    assert cli.main(["pareto", "--csv", str(bad), "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: not UTF-8") and err.count("error:") == 1
    # a field past the csv module's size limit
    bad.write_text(",".join(cli.CSV_COLUMNS) + "\n" + "x" * 200_000 + "\n")
    assert cli.main(["pareto", "--csv", str(bad), "--out", str(tmp_path)]) == 4
    assert "field limit" in capsys.readouterr().err
    # sweep CSV rows whose p_norm or top1 is not finite, a top1 outside
    # [0, 1] and a negative p_norm: no sweep writes them
    for p_norm, top1 in (("nan", "0.5"), ("1.0", "inf"), ("1.0", "2.0"), ("1.0", "-0.1"),
                         ("-1", "0.5")):
        bad.write_text(",".join(cli.CSV_COLUMNS) + "\n"
                       f"toy_mlp,dense,exact,1,1,0.5,{p_norm},{top1},false,0\n"
                       f"toy_mlp,dense,exact,1,1,0.5,1.0,0.5,false,0\n")
        assert cli.main(["pareto", "--csv", str(bad), "--out", str(tmp_path)]) == 4
        assert f"{bad}:2:" in capsys.readouterr().err, (p_norm, top1)
    # 0 is a power normalized_power can return, and 0 and 1 are top-1 scores
    good = tmp_path / "edges.csv"
    good.write_text(",".join(cli.CSV_COLUMNS) + "\n"
                    "toy_mlp,dense,exact,1,1,0.5,0,0,false,0\n"
                    "toy_mlp,dense,exact,1,1,0.5,1.0,1,false,0\n")
    assert cli.main(["pareto", "--csv", str(good), "--out", str(tmp_path / "edges")]) == 0
    # an .axm8 table whose power field is infinite
    table = tmp_path / "inf.axm8"
    save_lut(builtin_multiplier("exact"), table)
    raw = bytearray(table.read_bytes())
    raw[5 + NAME_BYTES : 13 + NAME_BYTES] = struct.pack("<d", float("inf"))
    table.write_bytes(raw)
    assert cli.main(["count", "--multiplier", str(table)]) == 4
    # mulinfo reads only --multiplier, so argparse refuses the config flags
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["mulinfo", "--set", "quantum = 9"])
    assert exit_info.value.code == 2
    # no subcommand prints help and fails
    assert cli.main([]) == 2
    # eval scores a checkpoint, and none is given
    assert cli.main(["eval"]) == 2
    # a checkpoint whose first central-directory entry names compression
    # method 99, for which zipfile raises NotImplementedError
    raw = bytearray(sweep_checkpoint)
    with zipfile.ZipFile(io.BytesIO(sweep_checkpoint)) as archive:
        raw[archive.start_dir + 10] = 99
    (tmp_path / "method99").mkdir()
    (tmp_path / "method99" / "checkpoint.npz").write_bytes(raw)
    capsys.readouterr()
    assert cli.main(["eval", "--set", f"checkpoint = {tmp_path / 'method99'}"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "compression" in err
