"""Minibatch SGD on the desk-scale models.

Two phases share one loop. Pretraining runs in plain float with nothing
frozen, so routers learn alongside the experts. Retraining runs the forward
pass through a LUT multiplier with straight-through gradients and must skip
every parameter the model reports as frozen (routers, cluster gateways).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    """One pass over the shuffled training set; the mean loss. A step that
    overflows, or whose loss is not finite, raises NumericError: training
    has diverged."""
    order = rng.permutation(len(x))
    total = 0.0
    try:
        with np.errstate(all="raise", under="ignore"):
            for step, start in enumerate(range(0, len(order), cfg.batch_size)):
                idx = order[start : start + cfg.batch_size]
                ctx = RunContext(multiplier=multiplier, train=True)
                logits = model.forward(x[idx], ctx)
                loss, dlogits = softmax_cross_entropy(logits, y[idx])
                if not math.isfinite(loss):
                    raise NumericError(f"train_epoch: loss is {loss} at step {step}: "
                                       "training diverged")
                model.zero_grads()
                model.backward(dlogits, input_grad=False)
                sgd_step(model, cfg, frozen)
                total += loss * len(idx)
    except FloatingPointError as exc:
        raise NumericError(f"train_epoch: {exc} at step {step}: training diverged") from None
    return total / max(len(order), 1)


# Samples evaluate hands the model at once: as many of its batches as fit,
# and at least one. A LUT layer then makes one call per group, not per batch.
EVAL_GROUP = 256


def evaluate(model, x, y, multiplier: AxMultiplier | None = None,
             batch_size: int = EVAL_GROUP) -> float:
    """Top-1 accuracy over a labelled set. `batch_size` fixes the batches,
    each quantized with its own activation scales, and so the result; it
    does not fix the execution. The model runs a group of consecutive
    batches at once, as many as fit in EVAL_GROUP samples and at least one,
    and each batch's logits are the ones it gets alone (a batch of 129 or
    more runs alone). One RunContext serves the whole pass, so each layer's
    weights are quantized once. A pass that overflows raises NumericError
    rather than scoring logits that are not finite."""
    if batch_size < 1:
        raise ParameterError(f"batch_size must be >= 1, got {batch_size}")
    if len(y) != len(x):
        raise ParameterError(f"{len(x)} images but {len(y)} labels")
    if not len(x):
        raise ParameterError("cannot evaluate on an empty set")
    ctx = RunContext(multiplier=multiplier, train=False)
    group = max(1, EVAL_GROUP // batch_size) * batch_size
    correct = 0
    try:
        with np.errstate(all="raise", under="ignore"):
            for start in range(0, len(x), group):
                starts = range(start, min(start + group, len(x)), batch_size)
                logits = model.forward_batches([x[s : s + batch_size] for s in starts], ctx)
                for s, z in zip(starts, logits):
                    correct += int((np.argmax(z, axis=1) == y[s : s + batch_size]).sum())
    except FloatingPointError as exc:
        raise NumericError(f"evaluate: {exc}: the logits are not finite") from None
    return correct / len(x)


def fit(model, data: Split, cfg: TrainConfig,
        multiplier: AxMultiplier | None = None) -> list[float]:
    """Train in place on the training split; each epoch's mean loss, in
    order (empty at zero epochs). The test split is not read: callers that
    want accuracy call `evaluate`.

    Float training moves every parameter, routers included. Under a
    multiplier the model's own frozen set (router weights, gateway
    parameters) stays pinned.
    """
    frozen = set() if multiplier is None else model.frozen_names()
    rng = np.random.default_rng(cfg.seed)
    return [train_epoch(model, data.x_train, data.y_train, cfg, rng, multiplier, frozen)
            for _ in range(cfg.epochs)]


def retrain(model, data: Split, cfg: TrainConfig, multiplier: AxMultiplier) -> float:
    """Adapt a pretrained model to a multiplier; its top-1 on the test split
    under that multiplier afterwards. Routing stays fixed: the model's own
    frozen set (router weights, gateway parameters) is pinned."""
    if multiplier is None:
        raise ParameterError("retraining needs a multiplier to adapt to")
    fit(model, data, cfg, multiplier=multiplier)
    return evaluate(model, data.x_test, data.y_test, multiplier)
