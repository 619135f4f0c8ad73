"""Mixture-of-experts execution layers.

Routing always runs in exact float arithmetic, whatever multiplier the
experts execute under. Hard routing evaluates exactly one expert per sample
and keeps the winning gate value as an output scale (no renormalization);
ties go to the lowest expert index. Soft routing evaluates every expert and
mixes by gate weight. The cluster variant replaces per-layer routing with a
standalone exact gateway classifier that picks one full replica per image.
"""

from __future__ import annotations

import numpy as np

from .engine import Layer, Model, RunContext, stable_softmax
from .errors import ParameterError


def pool_features(x: np.ndarray) -> np.ndarray:
    """Router input: global average over spatial dims for feature maps."""
    if x.ndim == 4:
        return x.mean(axis=(2, 3))
    if x.ndim == 2:
        return x
    raise ParameterError(f"router features need a 2d or 4d input, got shape {x.shape}")


def _spread_to(df: np.ndarray, like: np.ndarray) -> np.ndarray:
    """Adjoint of pool_features."""
    if like.ndim == 4:
        h, w = like.shape[2], like.shape[3]
        return np.broadcast_to(df[:, :, None, None], like.shape) / (h * w)
    return df


def _bcast(per_sample: np.ndarray, like: np.ndarray) -> np.ndarray:
    return per_sample.reshape(-1, *([1] * (like.ndim - 1)))


class Router:
    """Softmax gate over pooled features. Weight shape (n_experts, features)."""

    def __init__(self, name: str, w: np.ndarray):
        self.name = name
        self.w = w

    def gates(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        feats = pool_features(x).astype(np.float64)
        return stable_softmax(feats @ self.w.T.astype(np.float64), axis=-1), feats


class MoELayer(Layer):
    """n experts behind one router, hard or soft combination."""

    def __init__(self, name: str, experts: list[Layer], router: Router, mode: str):
        super().__init__(name)
        if mode not in ("hard", "soft"):
            raise ParameterError(f"MoE mode must be hard or soft, got {mode!r}")
        if not experts:
            raise ParameterError("MoELayer needs at least one expert")
        self.experts = experts
        self.router = router
        self.mode = mode
        self._cache = None

    def children(self):
        return self.experts

    # router weight is a parameter so checkpoints carry it, but it is listed
    # frozen: retraining must never move routing gates
    def _params(self):
        return {"router.w": self.router.w}

    def frozen_names(self):
        return super().frozen_names() | {f"{self.name}.router.w"}

    def forward(self, x, ctx: RunContext):
        g, feats = self.router.gates(x)  # exact float, never quantized
        g = g.astype(x.dtype)
        if self.mode == "soft":
            ys = [e.forward(x, ctx) for e in self.experts]
            for i in range(len(self.experts)):
                ctx.count_routed(f"{self.name}.expert{i}", x.shape[0])
            y = sum(_bcast(g[:, i], ys[i]) * ys[i] for i in range(len(ys)))
            if ctx.train:
                self._cache = ("soft", x, feats, g, ys)
            return y.astype(x.dtype)
        sel = np.argmax(g, axis=1)  # ties resolve to the lowest index
        y = None
        masks, raw = [], []
        for i, e in enumerate(self.experts):
            mask = sel == i
            n_routed = int(mask.sum())
            ctx.count_routed(f"{self.name}.expert{i}", n_routed)
            if n_routed == 0:
                masks.append(mask)
                raw.append(None)
                continue
            yi = e.forward(x[mask], ctx)
            if y is None:
                y = np.zeros((x.shape[0],) + yi.shape[1:], dtype=yi.dtype)
            y[mask] = _bcast(g[mask, i], yi) * yi
            masks.append(mask)
            raw.append(yi)
        if ctx.train:
            self._cache = ("hard", x, feats, g, sel, masks, raw)
        return y.astype(x.dtype)

    def backward(self, dy):
        if self._cache[0] == "soft":
            return self._backward_soft(dy)
        return self._backward_hard(dy)

    def _router_backward(self, dg, g, feats, x):
        dz = g * (dg - (dg * g).sum(axis=1, keepdims=True))
        self.grads = {"router.w": dz.T @ feats.astype(dz.dtype)}
        df = dz @ self.router.w.astype(dz.dtype)
        return _spread_to(df, x)

    def _backward_soft(self, dy):
        _, x, feats, g, ys = self._cache
        sum_axes = tuple(range(1, dy.ndim))
        dg = np.stack([(dy * ys[i]).sum(axis=sum_axes) for i in range(len(ys))], axis=1)
        dx = self._router_backward(dg, g, feats, x)
        for i, e in enumerate(self.experts):
            dx = dx + e.backward(_bcast(g[:, i], dy) * dy)
        return dx

    def _backward_hard(self, dy):
        _, x, feats, g, sel, masks, raw = self._cache
        n = x.shape[0]
        sum_axes = tuple(range(1, dy.ndim))
        dg = np.zeros_like(g)
        dx = np.zeros_like(x)
        for i, e in enumerate(self.experts):
            mask = masks[i]
            if raw[i] is None:
                continue
            dg[mask, i] = (dy[mask] * raw[i]).sum(axis=sum_axes)
            dx[mask] += e.backward(_bcast(g[mask, i], dy[mask]) * dy[mask])
        dx += self._router_backward(dg, g, feats, x)
        return dx


class ClusterModel(Layer):
    """Exact gateway classifier in front of n complete replicas."""

    def __init__(self, name: str, gateway: Model, replicas: list[Model]):
        super().__init__(name)
        if not replicas:
            raise ParameterError("cluster needs at least one replica")
        self.gateway = gateway
        self.replicas = replicas
        self._cache = None

    def children(self):
        return [self.gateway, *self.replicas]

    def frozen_names(self):
        # the gateway is the routing gate of this variant
        return super().frozen_names() | set(self.gateway.params())

    def forward(self, x, ctx: RunContext):
        logits = self.gateway.forward(x, ctx)  # gateway layers are all exact
        sel = np.argmax(logits, axis=1)
        y = None
        masks = []
        for i, replica in enumerate(self.replicas):
            mask = sel == i
            n_routed = int(mask.sum())
            ctx.count_routed(f"{self.name}.replica{i}", n_routed)
            masks.append(mask)
            if n_routed == 0:
                continue
            yi = replica.forward(x[mask], ctx)
            if y is None:
                y = np.zeros((x.shape[0],) + yi.shape[1:], dtype=yi.dtype)
            y[mask] = yi
        if ctx.train:
            self._cache = (x, masks)
        return y

    def backward(self, dy):
        x, masks = self._cache
        dx = np.zeros_like(x)
        # selection is a hard argmax: gradients reach the chosen replica only
        for i, replica in enumerate(self.replicas):
            if masks[i].any():
                dx[masks[i]] = replica.backward(dy[masks[i]])
        return dx

