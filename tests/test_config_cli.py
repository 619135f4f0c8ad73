"""Config file parsing, hashing, multiplier resolution, CLI behaviour."""

import contextlib
import csv
import dataclasses
import io
import json
import re
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
from axmoe.graphs import build_arch, substitute_moe
from axmoe.models import build_model, load_model, model_from_spec, save_model
from axmoe.multipliers import NAME_BYTES, builtin_multiplier, save_lut


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
    assert (tmp_path / "ckpt_dense").is_dir()


def test_cli_retrain_flags_rows_and_improves_reload(tmp_path, capsys):
    rc = cli.main(["retrain", *_base_args(tmp_path), "--variant", "dense",
                   "--multiplier", "trunc2"])
    assert rc == 0
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1][8] == "true"


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
        assert set(meta) == {"arch", "arch_kwargs", "variant", "n_experts", "moe_ratio", "seed"}
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
    with np.errstate(all="ignore"):  # the overflows on the way to a NaN loss warn
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
# its length. The examples are the escapes a scan of every header byte
# found: in the first central-directory entry, compression method 99, zip
# version 9.9, flag bit 5 (patched data) and flag bit 0 (encrypted); in the
# .npy header of the second member, the first that holds more than zipfile
# reads at once (so its CRC is checked after its header is parsed), a
# header length cut to 0x36, a descr of ",f4" and a bytes key (B'fortran_order').
_AT = st.tuples(st.integers(0, 2), st.integers(0, 65535))


@example(flips=[], sets=[((2, 10), 99)], cut=None)
@example(flips=[], sets=[((2, 6), 99)], cut=None)
@example(flips=[((2, 8), 0x20)], sets=[], cut=None)
@example(flips=[((2, 8), 0x01)], sets=[], cut=None)
@example(flips=[((1, 192 + 79), 0x40)], sets=[], cut=None)
@example(flips=[], sets=[((1, 192 + 92), ord(","))], cut=None)
@example(flips=[], sets=[((1, 192 + 97), ord("B"))], cut=None)
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
    assert rc in (0, 2, 3, 4) and "Traceback" not in err
    if rc:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert not err


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
