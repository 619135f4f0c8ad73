"""Dataset loading.

Three sources: CIFAR-100 binary splits, numpy `.npz` splits, and a
self-contained synthetic task for the desk-scale experiments. Paths fall
back to the AXMOE_DATA_DIR environment variable when not given explicitly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, ParameterError
from .files import read_npz

DATA_DIR_ENV = "AXMOE_DATA_DIR"

# CIFAR-100 binary record: coarse label byte, fine label byte, then a
# channel-planar 3x32x32 image.
CIFAR_RECORD_BYTES = 3074

DATASETS = ("synthetic", "cifar100", "npz")


@dataclass
class Split:
    """Train/test arrays. Images are float32 NCHW, labels int64 class ids."""

    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray

    def __post_init__(self):
        if len(self.x_train) != len(self.y_train):
            raise ParameterError("train images and labels disagree on length")
        if len(self.x_test) != len(self.y_test):
            raise ParameterError("test images and labels disagree on length")
        if not len(self.x_train) or not len(self.x_test):
            raise ParameterError("train and test splits must not be empty")


def data_dir(explicit=None) -> Path:
    if explicit:
        return Path(explicit)
    env = os.environ.get(DATA_DIR_ENV)
    if env:
        return Path(env)
    raise ConfigError(f"no dataset path given and {DATA_DIR_ENV} is not set")


def load_cifar100_bin(path) -> tuple[np.ndarray, np.ndarray]:
    """One CIFAR-100 split file to (float32 NCHW in [0, 1], int64 fine labels)."""
    raw = np.fromfile(str(path), dtype=np.uint8)
    if raw.size == 0 or raw.size % CIFAR_RECORD_BYTES:
        raise FormatError(f"{path}: {raw.size} bytes is not a whole number of "
                          f"{CIFAR_RECORD_BYTES}-byte records")
    rec = raw.reshape(-1, CIFAR_RECORD_BYTES)
    labels = rec[:, 1].astype(np.int64)
    images = rec[:, 2:].reshape(-1, 3, 32, 32).astype(np.float32) / 255.0
    return images, labels


def load_npz_split(path) -> tuple[np.ndarray, np.ndarray]:
    """One `.npz` split file holding `x` (samples first) and `y` (one integer
    label per sample) to (float32 x, int64 y)."""
    arrays = read_npz(path)
    x, y = arrays.get("x"), arrays.get("y")
    if x is None or y is None:
        raise FormatError(f"{path}: needs arrays x and y, has {sorted(arrays)}")
    if x.dtype.kind not in "fiu" or y.dtype.kind not in "iu" or y.ndim != 1:
        raise FormatError(f"{path}: x must be numbers and y rank-1 integers, got x {x.dtype} "
                          f"and y {y.dtype} of rank {y.ndim}")
    if x.shape[:1] != y.shape:
        raise FormatError(f"{path}: x has shape {x.shape} but y has {len(y)} labels")
    return x.astype(np.float32), y.astype(np.int64)


# Contrast levels for the fine half of the synthetic label. Close enough
# that distinguishing them needs the low-significance part of the products.
CONTRAST_LO = 0.5
CONTRAST_HI = 0.68


def synthetic_blobs(n: int, classes: int, channels: int = 3, resolution: int = 8,
                    noise: float = 0.25, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Balanced K-class images built from one Gaussian bump each.

    A label encodes a coarse cue and a fine one: bump position on a ring
    (ceil(K/2) angles) and one of two contrast levels. Position survives
    coarse arithmetic; telling the contrast levels apart does not, which is
    what makes the task a useful probe for approximate multipliers."""
    if classes < 2:
        raise ParameterError(f"need at least 2 classes, got {classes}")
    if n < classes:
        raise ParameterError(f"need at least one sample per class, got {n} for {classes}")
    if resolution < 4:
        raise ParameterError(f"resolution must be >= 4, got {resolution}")
    # float64 images, sized in Python integers before numpy overflows on them
    if n * channels * resolution * resolution * 8 > np.iinfo(np.intp).max:
        raise ParameterError(f"{n} images of {channels} x {resolution} x {resolution} float64 "
                             "values are larger than numpy's largest array")
    try:
        rng = np.random.default_rng(seed)
        labels = rng.permutation(np.arange(n) % classes).astype(np.int64)
        n_pos = (classes + 1) // 2
        angles = 2.0 * np.pi * (labels % n_pos) / n_pos
        ring = resolution / 3.0
        cy = resolution / 2.0 + ring * np.sin(angles) + rng.normal(0.0, 0.35, size=n)
        cx = resolution / 2.0 + ring * np.cos(angles) + rng.normal(0.0, 0.35, size=n)
        grid = np.arange(resolution, dtype=np.float64)
        d2 = (grid[:, None] - cy[:, None, None]) ** 2 + (grid[None, :] - cx[:, None, None]) ** 2
        sigma = resolution / 8.0
        bumps = np.exp(-d2 / (2.0 * sigma * sigma))
        amp = np.where(labels // n_pos == 0, CONTRAST_LO, CONTRAST_HI)
        x = np.repeat((amp[:, None, None] * bumps)[:, None], channels, axis=1)
        x = x + rng.normal(0.0, noise, size=x.shape)
        return np.clip(x, 0.0, 1.0).astype(np.float32), labels
    except MemoryError:  # within numpy's limit, beyond what the machine can allocate
        raise ParameterError(f"{n} images of {channels} x {resolution} x {resolution} float64 "
                             "values do not fit in memory") from None


def load_dataset(kind: str, path=None, *, samples: int, eval_samples: int,
                 classes: int, channels: int = 3, resolution: int = 8,
                 noise: float = 0.25, seed: int = 0) -> Split:
    """Assemble a train/test split from any supported source.

    File-backed sources are truncated to the requested sizes; the synthetic
    source draws train and test from disjoint seeds.
    """
    if samples < 1 or eval_samples < 1:
        raise ParameterError("samples and eval_samples must be positive")
    if kind == "synthetic":
        x_tr, y_tr = synthetic_blobs(samples, classes, channels, resolution, noise, seed)
        x_te, y_te = synthetic_blobs(eval_samples, classes, channels, resolution, noise,
                                     seed + 1)
        return Split(x_tr, y_tr, x_te, y_te)
    if kind in ("cifar100", "npz"):
        root = data_dir(path)
        read, ext = (load_cifar100_bin, "bin") if kind == "cifar100" else (load_npz_split, "npz")
        x_tr, y_tr = read(root / f"train.{ext}")
        x_te, y_te = read(root / f"test.{ext}")
        return Split(x_tr[:samples], y_tr[:samples], x_te[:eval_samples], y_te[:eval_samples])
    raise ConfigError(f"unknown dataset kind {kind!r}, expected one of {DATASETS}")
