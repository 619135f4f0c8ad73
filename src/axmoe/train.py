"""Minibatch SGD on the desk-scale models.

Two phases share one loop. Pretraining runs in plain float with nothing
frozen, so routers learn alongside the experts. Retraining runs the forward
pass through a LUT multiplier with straight-through gradients and must skip
every parameter the model reports as frozen (routers, cluster gateways).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import RunContext, softmax_cross_entropy
from .errors import ParameterError
from .multipliers import AxMultiplier


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.1
    weight_decay: float = 5e-4
    momentum: float = 0.0
    batch_size: int = 128
    epochs: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.lr <= 0.0:
            raise ParameterError(f"lr must be positive, got {self.lr}")
        if self.weight_decay < 0.0:
            raise ParameterError(f"weight_decay must be non-negative, got {self.weight_decay}")
        if not 0.0 <= self.momentum < 1.0:
            raise ParameterError(f"momentum {self.momentum} outside [0, 1)")
        if self.batch_size < 1:
            raise ParameterError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ParameterError(f"epochs must be >= 0, got {self.epochs}")


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


@dataclass
class History:
    """Per-epoch mean training loss and test accuracy."""

    loss: list[float] = field(default_factory=list)
    top1: list[float] = field(default_factory=list)


def sgd_step(model, cfg: TrainConfig, frozen: set[str], velocity: dict) -> None:
    """One in-place parameter update. Parameters without a gradient (never on
    the sampled routing path, or behind an argmax) are left alone."""
    grads = model.qualified_grads()
    for name, p in model.params().items():
        if name in frozen:
            continue
        g = grads.get(name)
        if g is None:
            continue
        g = g + cfg.weight_decay * p
        if cfg.momentum > 0.0:
            v = velocity.get(name)
            v = g if v is None else cfg.momentum * v + g
            velocity[name] = v
            g = v
        p -= cfg.lr * g.astype(p.dtype, copy=False)


def train_epoch(model, x, y, cfg: TrainConfig, rng, multiplier: AxMultiplier | None,
                frozen: set[str], velocity: dict) -> float:
    order = rng.permutation(len(x))
    total = 0.0
    for start in range(0, len(order), cfg.batch_size):
        idx = order[start : start + cfg.batch_size]
        ctx = RunContext(multiplier=multiplier, train=True)
        logits = model.forward(x[idx], ctx)
        loss, dlogits = softmax_cross_entropy(logits, y[idx])
        model.zero_grads()
        model.backward(dlogits)
        sgd_step(model, cfg, frozen, velocity)
        total += loss * len(idx)
    return total / max(len(order), 1)


def evaluate(model, x, y, multiplier: AxMultiplier | None = None, batch_size: int = 256) -> float:
    """Top-1 accuracy over a labelled set, batched to bound memory."""
    correct = 0
    for start in range(0, len(x), batch_size):
        ctx = RunContext(multiplier=multiplier, train=False)
        logits = model.forward(x[start : start + batch_size], ctx)
        correct += int((np.argmax(logits, axis=1) == y[start : start + batch_size]).sum())
    return correct / max(len(x), 1)


def fit(model, data: Split, cfg: TrainConfig, multiplier: AxMultiplier | None = None) -> History:
    """Train in place and report per-epoch loss and test accuracy.

    Float training moves every parameter, routers included. Under a
    multiplier the model's own frozen set (router weights, gateway
    parameters) stays pinned.
    """
    frozen = set() if multiplier is None else model.frozen_names()
    rng = np.random.default_rng(cfg.seed)
    velocity: dict = {}
    hist = History()
    for _ in range(cfg.epochs):
        loss = train_epoch(model, data.x_train, data.y_train, cfg, rng,
                           multiplier, frozen, velocity)
        hist.loss.append(float(loss))
        hist.top1.append(evaluate(model, data.x_test, data.y_test, multiplier))
    return hist


def retrain(model, data: Split, cfg: TrainConfig, multiplier: AxMultiplier) -> History:
    """Adapt a pretrained model to a multiplier. Routing stays fixed: the
    model's own frozen set (router weights, gateway parameters) is pinned."""
    if multiplier is None:
        raise ParameterError("retraining needs a multiplier to adapt to")
    return fit(model, data, cfg, multiplier=multiplier)
