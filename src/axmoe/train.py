"""Minibatch SGD on the desk-scale models.

Two phases share one loop. Pretraining runs in plain float with nothing
frozen, so routers learn alongside the experts. Retraining runs the forward
pass through a LUT multiplier with straight-through gradients and must skip
every parameter the model reports as frozen (routers, cluster gateways).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .datasets import Split
from .engine import RunContext, softmax_cross_entropy
from .errors import NumericError, ParameterError
from .multipliers import AxMultiplier


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.1
    weight_decay: float = 5e-4
    batch_size: int = 128
    epochs: int = 5
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.lr < math.inf:
            raise ParameterError(f"lr must be finite and positive, got {self.lr}")
        if self.weight_decay < 0.0:
            raise ParameterError(f"weight_decay must be non-negative, got {self.weight_decay}")
        if self.batch_size < 1:
            raise ParameterError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ParameterError(f"epochs must be >= 0, got {self.epochs}")


@dataclass
class History:
    """Per-epoch mean training loss and test accuracy."""

    loss: list[float] = field(default_factory=list)
    top1: list[float] = field(default_factory=list)


def sgd_step(model, cfg: TrainConfig, frozen: set[str]) -> None:
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
        p -= cfg.lr * g.astype(p.dtype, copy=False)


def train_epoch(model, x, y, cfg: TrainConfig, rng, multiplier: AxMultiplier | None,
                frozen: set[str]) -> float:
    """One pass over the shuffled training set; the mean loss. A step whose
    loss is not finite raises NumericError: training has diverged."""
    order = rng.permutation(len(x))
    total = 0.0
    for step, start in enumerate(range(0, len(order), cfg.batch_size)):
        idx = order[start : start + cfg.batch_size]
        ctx = RunContext(multiplier=multiplier, train=True)
        logits = model.forward(x[idx], ctx)
        loss, dlogits = softmax_cross_entropy(logits, y[idx])
        if not math.isfinite(loss):
            raise NumericError(f"train_epoch: loss is {loss} at step {step}: training diverged")
        model.zero_grads()
        model.backward(dlogits, input_grad=False)
        sgd_step(model, cfg, frozen)
        total += loss * len(idx)
    return total / max(len(order), 1)


def evaluate(model, x, y, multiplier: AxMultiplier | None = None, batch_size: int = 256) -> float:
    """Top-1 accuracy over a labelled set, batched to bound memory. One
    RunContext serves the whole pass, so each layer's weights are quantized
    once."""
    if batch_size < 1:
        raise ParameterError(f"batch_size must be >= 1, got {batch_size}")
    if len(y) != len(x):
        raise ParameterError(f"{len(x)} images but {len(y)} labels")
    if not len(x):
        raise ParameterError("cannot evaluate on an empty set")
    ctx = RunContext(multiplier=multiplier, train=False)
    correct = 0
    for start in range(0, len(x), batch_size):
        logits = model.forward(x[start : start + batch_size], ctx)
        correct += int((np.argmax(logits, axis=1) == y[start : start + batch_size]).sum())
    return correct / len(x)


def fit(model, data: Split, cfg: TrainConfig, multiplier: AxMultiplier | None = None) -> History:
    """Train in place and report per-epoch loss and test accuracy.

    Float training moves every parameter, routers included. Under a
    multiplier the model's own frozen set (router weights, gateway
    parameters) stays pinned.
    """
    frozen = set() if multiplier is None else model.frozen_names()
    rng = np.random.default_rng(cfg.seed)
    hist = History()
    for _ in range(cfg.epochs):
        loss = train_epoch(model, data.x_train, data.y_train, cfg, rng, multiplier, frozen)
        hist.loss.append(float(loss))
        hist.top1.append(evaluate(model, data.x_test, data.y_test, multiplier))
    return hist


def retrain(model, data: Split, cfg: TrainConfig, multiplier: AxMultiplier) -> History:
    """Adapt a pretrained model to a multiplier. Routing stays fixed: the
    model's own frozen set (router weights, gateway parameters) is pinned."""
    if multiplier is None:
        raise ParameterError("retraining needs a multiplier to adapt to")
    return fit(model, data, cfg, multiplier=multiplier)
