"""Dataset parsing and the synthetic generator."""

import numpy as np
import pytest

from axmoe.datasets import (
    CIFAR_RECORD_BYTES,
    DATA_DIR_ENV,
    data_dir,
    load_cifar100_bin,
    load_dataset,
    load_npz_split,
    synthetic_blobs,
)
from axmoe.errors import ConfigError, FormatError, ParameterError


def test_synthetic_shapes_balance_and_range():
    rng = np.random.default_rng(0)
    for _ in range(6):
        classes = int(rng.integers(2, 11))
        n = classes * int(rng.integers(3, 9))
        res = int(rng.integers(4, 17))
        ch = int(rng.integers(1, 4))
        x, y = synthetic_blobs(n, classes, channels=ch, resolution=res, seed=int(rng.integers(1000)))
        assert x.shape == (n, ch, res, res)
        assert x.dtype == np.float32
        assert y.shape == (n,) and y.dtype == np.int64
        assert float(x.min()) >= 0.0 and float(x.max()) <= 1.0
        counts = np.bincount(y, minlength=classes)
        # n is a multiple of classes, so the split is exactly even
        assert np.all(counts == n // classes)


def test_synthetic_is_deterministic_per_seed():
    a = synthetic_blobs(32, 4, seed=5)
    b = synthetic_blobs(32, 4, seed=5)
    c = synthetic_blobs(32, 4, seed=6)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert not np.array_equal(a[0], c[0])


def test_synthetic_classes_are_separable_by_position_and_contrast():
    # noiseless bumps: mean brightness splits the contrast halves, and the
    # brightest pixel sits on the class angle
    x, y = synthetic_blobs(200, 4, channels=1, resolution=16, noise=0.0, seed=1)
    mean = x.mean(axis=(1, 2, 3))
    lo = mean[y < 2].mean()
    hi = mean[y >= 2].mean()
    assert hi > lo * 1.2


def test_synthetic_argument_validation():
    with pytest.raises(ParameterError):
        synthetic_blobs(10, 1)
    with pytest.raises(ParameterError):
        synthetic_blobs(3, 4)
    with pytest.raises(ParameterError):
        synthetic_blobs(10, 2, resolution=3)


def _write_cifar(path, n, rng):
    rec = rng.integers(0, 256, size=(n, CIFAR_RECORD_BYTES), dtype=np.uint8)
    rec[:, 1] = rng.integers(0, 100, size=n)
    path.write_bytes(rec.tobytes())
    return rec


def test_cifar_bin_parses_fine_labels_and_scales_pixels(tmp_path):
    rng = np.random.default_rng(2)
    p = tmp_path / "train.bin"
    rec = _write_cifar(p, 5, rng)
    x, y = load_cifar100_bin(p)
    assert x.shape == (5, 3, 32, 32) and x.dtype == np.float32
    assert np.array_equal(y, rec[:, 1].astype(np.int64))
    want = rec[:, 2:].reshape(5, 3, 32, 32).astype(np.float32) / 255.0
    assert np.array_equal(x, want)


def test_cifar_bin_rejects_partial_records(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"\x00" * (CIFAR_RECORD_BYTES + 7))
    with pytest.raises(FormatError):
        load_cifar100_bin(p)
    p.write_bytes(b"")
    with pytest.raises(FormatError):
        load_cifar100_bin(p)


def test_npz_split_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    x = rng.normal(size=(6, 3, 4, 4)).astype(np.float32)
    y = np.array([0, 1, 2, 0, 1, 2], dtype=np.int64)
    np.savez(tmp_path / "split.npz", x=x, y=y)
    gx, gy = load_npz_split(tmp_path / "split.npz")
    assert np.array_equal(gx, x) and gx.dtype == np.float32
    assert np.array_equal(gy, y) and gy.dtype == np.int64


@pytest.mark.parametrize("entries", [
    {"y": np.zeros((6, 1), dtype=np.int64)},
    {"y": np.zeros(5, dtype=np.int64)},
    {"y": np.zeros(6, dtype=np.float32)},
    {"y": np.array(["a"] * 6)},
    {"x": np.array(["a"] * 6)},
    {"x": np.float32(1.0), "y": np.zeros(1, dtype=np.int64)},
    {"y": None},
], ids=["labels_2d", "labels_short", "labels_float", "labels_str", "images_str",
        "images_0d", "no_labels"])
def test_npz_split_validation(tmp_path, entries):
    rng = np.random.default_rng(4)
    arrays = {"x": rng.normal(size=(6, 2)).astype(np.float32), "y": np.zeros(6, dtype=np.int64),
              **entries}
    np.savez(tmp_path / "split.npz", **{k: v for k, v in arrays.items() if v is not None})
    with pytest.raises(FormatError):
        load_npz_split(tmp_path / "split.npz")


def test_data_dir_resolution(monkeypatch, tmp_path):
    monkeypatch.delenv(DATA_DIR_ENV, raising=False)
    with pytest.raises(ConfigError):
        data_dir(None)
    monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
    assert data_dir(None) == tmp_path
    assert data_dir("/elsewhere") == __import__("pathlib").Path("/elsewhere")


def test_load_dataset_synthetic_uses_disjoint_split_seeds():
    split = load_dataset("synthetic", samples=40, eval_samples=20, classes=4)
    assert len(split.x_train) == 40 and len(split.x_test) == 20
    assert not np.array_equal(split.x_train[:20], split.x_test)


def test_load_dataset_truncates_file_sources(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    _write_cifar(tmp_path / "train.bin", 8, rng)
    _write_cifar(tmp_path / "test.bin", 6, rng)
    monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
    split = load_dataset("cifar100", samples=5, eval_samples=3, classes=100)
    assert len(split.x_train) == 5 and len(split.x_test) == 3


def test_load_dataset_npz_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    for split, n in (("train", 10), ("test", 4)):
        np.savez(tmp_path / f"{split}.npz", x=rng.normal(size=(n, 1, 4, 4)).astype(np.float32),
                 y=rng.integers(0, 3, size=n))
    split = load_dataset("npz", tmp_path, samples=10, eval_samples=4, classes=3)
    assert split.x_train.shape == (10, 1, 4, 4)
    assert split.y_test.dtype == np.int64


def test_load_dataset_rejects_unknown_kind_and_bad_sizes():
    with pytest.raises(ConfigError):
        load_dataset("imagenet", samples=4, eval_samples=4, classes=2)
    with pytest.raises(ParameterError):
        load_dataset("synthetic", samples=0, eval_samples=4, classes=2)
