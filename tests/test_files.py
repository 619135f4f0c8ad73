"""The one output writer: outputs are replaced whole, never rewritten in
place, and a failed write leaves no temporary file behind."""

import errno
import io
import json
import os
import struct
import zipfile

import numpy as np
import pytest

from axmoe import cli, files
from axmoe.datasets import load_npz_split
from axmoe.errors import FormatError
from axmoe.files import replace_file
from axmoe.multipliers import builtin_multiplier, save_lut
from test_config_cli import _base_args


class _FullDisk(io.FileIO):
    """A file whose every write fails as on a full disk."""

    def write(self, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def _fail_rename(src, dst):
    raise OSError(errno.EIO, os.strerror(errno.EIO))


def test_a_symlinked_output_is_replaced_not_written_through(tmp_path):
    target, path = tmp_path / "target.bin", tmp_path / "out.bin"
    target.write_bytes(b"kept")
    path.symlink_to(target)
    replace_file(path, b"new")
    assert not path.is_symlink() and path.read_bytes() == b"new"
    assert target.read_bytes() == b"kept"


@pytest.mark.parametrize("had_output", [True, False])
def test_a_failed_rename_in_keeps_the_old_file(tmp_path, monkeypatch, had_output):
    path = tmp_path / "out.bin"
    if had_output:
        path.write_bytes(b"old")
    rename = os.rename

    def fail_the_rename_in(src, dst):
        if str(src).endswith(".tmp"):
            _fail_rename(src, dst)
        rename(src, dst)

    monkeypatch.setattr(os, "rename", fail_the_rename_in)
    with pytest.raises(OSError):
        replace_file(path, b"new")
    assert [p.name for p in tmp_path.iterdir()] == (["out.bin"] if had_output else [])
    if had_output:
        assert path.read_bytes() == b"old"


def test_a_failed_removal_of_the_old_file_still_counts_as_written(tmp_path, monkeypatch):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old")
    unlink = type(path).unlink

    def fail_on_the_aside(self, *args, **kwargs):
        if self.name.endswith(".old"):
            _fail_rename(self, None)
        unlink(self, *args, **kwargs)

    monkeypatch.setattr(type(path), "unlink", fail_on_the_aside)
    replace_file(path, b"new")
    assert path.read_bytes() == b"new"
    assert sorted(p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")) == []


def test_save_lut_twice_to_one_path_replaces_the_table(tmp_path):
    path, link, fresh = tmp_path / "t.axm8", tmp_path / "link.axm8", tmp_path / "fresh.axm8"
    save_lut(builtin_multiplier("trunc2"), path)
    first = path.read_bytes()
    os.link(path, link)
    save_lut(builtin_multiplier("trunc4"), path)
    save_lut(builtin_multiplier("trunc4"), fresh)
    assert path.read_bytes() == fresh.read_bytes() != first
    assert link.read_bytes() == first and not os.path.samefile(link, path)
    assert not list(tmp_path.glob("*.tmp"))


def _tree(root):
    """Every file under `root` by its relative path, with its bytes."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _comparable(tree):
    """`tree` with run.json's echoed output directory and wall clock left out."""
    record = json.loads(tree["run.json"])
    del record["config"]["out"], record["wall_clock_s"]
    return {**tree, "run.json": record}


def _sweep_argv(command, out, seed):
    return [command, *_base_args(out), "--variant", "dense", "--variant", "hard",
            "--multiplier", "float", "--multiplier", "trunc2", "--seed", str(seed)]


@pytest.mark.parametrize("command", ["sweep", "retrain"])
def test_a_rerun_into_the_same_out_replaces_every_output(tmp_path, capsys, command):
    out, links = tmp_path / "out", tmp_path / "links"
    links.mkdir()

    def run(dest, seed):
        assert cli.main(_sweep_argv(command, dest, seed)) == 0
        assert cli.main(["pareto", "--out", str(dest)]) == 0

    run(out, 0)
    first = _tree(out)
    assert {"sweep.csv", "run.json", "pareto.csv", "pareto.dat",
            "ckpt_dense/checkpoint.npz", "ckpt_hard/checkpoint.npz"} == first.keys()
    for seed in (0, 1):
        before = _tree(out)
        for name in before:
            os.link(out / name, links / f"{seed}_{name.replace('/', '_')}")
        run(out, seed)
        run(tmp_path / f"fresh{seed}", seed)
        assert _comparable(_tree(out)) == _comparable(_tree(tmp_path / f"fresh{seed}"))
        # the rerun put new files in place: every link still holds the old bytes
        for name, blob in before.items():
            link = links / f"{seed}_{name.replace('/', '_')}"
            assert link.read_bytes() == blob, name
            assert not os.path.samefile(link, out / name), name
        assert not list(out.rglob("*.tmp"))
    # seed 1 wrote other bytes, so the links above tell a rewrite from a replacement
    assert all(_tree(out)[name] != first[name] for name in first if name != "pareto.dat")


def test_sweep_exits_3_when_a_write_fails_and_keeps_the_previous_outputs(tmp_path, capsys,
                                                                         monkeypatch):
    out = tmp_path / "out"
    assert cli.main(_sweep_argv("sweep", out, 0)) == 0
    before = _tree(out)
    with monkeypatch.context() as patch:
        patch.setattr(files, "open", _FullDisk, raising=False)
        assert cli.main(_sweep_argv("sweep", out, 1)) == 3
    assert _tree(out) == before
    with monkeypatch.context() as patch:
        patch.setattr(os, "rename", _fail_rename)
        assert cli.main(_sweep_argv("sweep", out, 1)) == 3
    assert not list(out.rglob("*.tmp"))
    err = capsys.readouterr().err
    assert err.count("error:") == 2 and "Traceback" not in err


def test_pareto_exits_3_when_an_output_is_a_directory(tmp_path, capsys):
    assert cli.main(_sweep_argv("sweep", tmp_path, 0)) == 0
    (tmp_path / "pareto.dat").mkdir()
    assert cli.main(["pareto", "--out", str(tmp_path)]) == 3
    assert "Traceback" not in capsys.readouterr().err
    assert (tmp_path / "pareto.dat").is_dir() and not any((tmp_path / "pareto.dat").iterdir())
    assert not list(tmp_path.rglob("*.tmp"))


def _in_central_directory(offset, edit):
    """Corruption of an .npz archive's first central-directory entry: the
    byte `offset` bytes into it becomes edit(byte)."""
    def corrupt(raw):
        with zipfile.ZipFile(io.BytesIO(raw)) as archive:
            at = archive.start_dir + offset
        return raw[:at] + bytes([edit(raw[at])]) + raw[at + 1:]
    return corrupt


def _one_npy_member(header):
    """Corruption that makes the archive one `x.npy` member, with a valid
    CRC, whose version 1.0 .npy header is the text `header`."""
    def corrupt(raw):
        buf = io.BytesIO()
        with zipfile.ZipFile(buf, "w") as archive:
            archive.writestr("x.npy", b"\x93NUMPY\x01\x00" + struct.pack("<H", len(header))
                             + header + bytes(12))
        return buf.getvalue()
    return corrupt


@pytest.mark.parametrize("corrupt", [
    _in_central_directory(10, lambda b: 99),
    _in_central_directory(6, lambda b: 99),
    _in_central_directory(8, lambda b: b | 0x20),
    _in_central_directory(8, lambda b: b | 0x01),
    _one_npy_member(b"{'descr': '<f4', 'fortran_order': False, 'shape': (3,"),
    _one_npy_member(b"{'descr': ',f4', 'fortran_order': False, 'shape': (3,), }\n"),
    _one_npy_member(b"{'descr': '<f4',B'fortran_order': False, 'shape': (3,), }\n"),
], ids=["compression_method", "zip_version", "patched_data_flag", "encrypted_flag",
        "unclosed_npy_header", "comma_npy_descr", "bytes_npy_key"])
def test_read_npz_refuses_an_archive_that_zipfile_or_numpy_cannot_read(tmp_path, corrupt):
    # zipfile raises NotImplementedError or RuntimeError for these, and
    # numpy's .npy header parse TokenError, SyntaxError or TypeError; the
    # CLI maps none of them to an exit code
    path = tmp_path / "a.npz"
    buf = io.BytesIO()
    np.savez(buf, x=np.zeros((3, 1, 2, 2), np.float32), y=np.zeros(3, np.int64))
    path.write_bytes(corrupt(buf.getvalue()))
    with pytest.raises(FormatError, match=str(path)):
        files.read_npz(path)
    with pytest.raises(FormatError):  # dataset splits share the reader
        load_npz_split(path)
