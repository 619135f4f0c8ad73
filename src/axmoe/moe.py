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

from .engine import (_GATHER_BUDGET, Layer, Model, RunContext, _blocks, _one_batch_if_training,
                     _run_batches, stable_softmax)
from .errors import ParameterError


def pool_features(x: np.ndarray) -> np.ndarray:
    """Router input: global average over spatial dims for feature maps."""
    if x.ndim == 4:
        # mean reduces in memory order: one layout makes the bits layout-free
        return np.ascontiguousarray(x).mean(axis=(2, 3))
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


def _mix(xs, picks, units, ctx: RunContext, prefix: str, gates=None, grouped=False):
    """Run unit i on its rows x[picks[j][i]] of each batch x = xs[j] and
    count the samples it gets, then add each output, scaled by
    gates[j][picks[j][i], i] when gates are given, into its picked rows of
    its batch's y, in unit order. Returns (outs, ys): outs[i][j] is unit i's
    output for batch j, None where it got no row of that batch, and ys[j]
    is batch j's mix (None for an empty batch). Each unit runs once, on the
    list of its non-empty parts of the batches; grouped units (soft experts
    of one layout) all read every batch, once, through one `forward_group`
    call. Hard and cluster picks do not overlap; soft picks are every row.
    The ys are made after every unit has run, so no unit's forward runs
    beside them. Each output is added in blocks of rows within the kernels'
    gather budget, a boolean pick through its row indices, so no gated copy
    of a whole output is held; every element still gets its one multiply
    and one add."""
    outs = []
    for i, unit in enumerate(units):
        parts = [x[pick[i]] for x, pick in zip(xs, picks)]  # a soft pick is all of x, uncopied
        ctx.count_routed(f"{prefix}{i}", sum(map(len, parts)))
        if not grouped:
            outs.append(_at_parts(parts, _run_batches(unit, [p for p in parts if len(p)], ctx)))
    if grouped:
        ran = units[0].forward_group(units, [x for x in xs if len(x)], ctx)
        outs = [_at_parts(xs, unit_outs) for unit_outs in ran]
    ys = []
    for j, x in enumerate(xs):
        y = None
        for i, unit_outs in enumerate(outs):
            out, pick = unit_outs[j], picks[j][i]
            if out is None:
                continue
            index = np.flatnonzero(pick) if isinstance(pick, np.ndarray) else None
            for at in _blocks(len(out), out[0].size, _GATHER_BUDGET):
                rows = at if index is None else index[at]
                part = out[at] if gates is None else _bcast(gates[j][rows, i], out[at]) * out[at]
                if y is None:
                    y = np.zeros((len(x),) + part.shape[1:], dtype=part.dtype)
                y[rows] += part
        ys.append(y)
    return outs, ys


def _at_parts(parts, outs) -> list:
    """outs, the outputs of the non-empty parts in order, set at those parts'
    places, with None at the empty ones."""
    outs = iter(outs)
    return [next(outs) if len(part) else None for part in parts]


def _unit_dy(dy, pick, gate, i) -> np.ndarray:
    """Unit i's output gradient: dy at its picks, scaled by its gate if any."""
    d = dy[pick]
    return d if gate is None else _bcast(gate[pick, i], d) * d


def _units_backward(dy, dx, units, picks, outs, gate=None, grouped=False) -> np.ndarray | None:
    """Add each unit's input gradient into dx at its picks, in unit order;
    with dx None, each unit computes only its parameter gradients. With
    `gate`, unit i's output was scaled by gate[:, i] in the forward pass.
    Grouped units go back through one `backward_group` call."""
    live = [i for i, out in enumerate(outs) if out is not None]
    dys = (_unit_dy(dy, picks[i], gate, i) for i in live)
    if grouped and live:
        parts = units[0].backward_group(units, dys, dx is not None)
    else:
        parts = (units[i].backward(d, input_grad=dx is not None) for i, d in zip(live, dys))
    for i, part in zip(live, parts):  # drives the one-by-one backwards, dx or not
        if dx is not None:
            dx[picks[i]] += part
    return dx


class Router:
    """Softmax gate over pooled features. Weight shape (n_experts, features)."""

    def __init__(self, name: str, w: np.ndarray):
        self.name = name
        self.w = w

    def gates(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        feats = pool_features(x).astype(np.float64)
        if feats.shape[1] != self.w.shape[1]:
            raise ParameterError(f"{self.name}: input {x.shape} is not {self.w.shape[1]} features")
        return stable_softmax(feats @ self.w.T.astype(np.float64)), feats


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
        # soft experts that are affine layers of one layout read x as one group
        key = experts[0].group_key()
        self._grouped = (mode == "soft" and len(experts) > 1 and key is not None
                         and all(e.group_key() == key for e in experts))
        self._cache = None

    def children(self):
        return self.experts

    # router weight is a parameter so checkpoints carry it, but it is listed
    # frozen: retraining must never move routing gates
    def _params(self):
        return {"router.w": self.router.w}

    def frozen_names(self):
        return super().frozen_names() | {f"{self.name}.router.w"}

    def forward_batches(self, xs, ctx: RunContext):
        _one_batch_if_training(self, xs, ctx)
        gated = [self.router.gates(x) for x in xs]  # exact float, never quantized, per batch
        gs = [g.astype(x.dtype) for (g, _), x in zip(gated, xs)]
        if self.mode == "soft":
            picks = [[slice(None)] * len(self.experts) for _ in xs]
        else:  # ties resolve to the lowest index
            picks = [[sel == i for i in range(len(self.experts))]
                     for sel in (np.argmax(g, axis=1) for g in gs)]
        outs, ys = _mix(xs, picks, self.experts, ctx, f"{self.name}.expert", gs, self._grouped)
        if ctx.train:
            self._cache = (xs[0], gated[0][1], gs[0], picks[0], [out[0] for out in outs])
        return ys

    def backward(self, dy, input_grad=True):
        x, feats, g, picks, outs = self._cache
        sum_axes = tuple(range(1, dy.ndim))
        dg = np.zeros_like(g)
        for i, (pick, out) in enumerate(zip(picks, outs)):
            if out is not None:
                dg[pick, i] = (dy[pick] * out).sum(axis=sum_axes)
        dz = g * (dg - (dg * g).sum(axis=1, keepdims=True))
        self.grads = {"router.w": dz.T @ feats.astype(dz.dtype)}
        # dx starts from the router term: soft then sums router + e0 + e1 + ...
        # in that order, and the float rounding of existing runs is kept
        dx = _spread_to(dz @ self.router.w.astype(dz.dtype), x) if input_grad else None
        return _units_backward(dy, dx, self.experts, picks, outs, g, self._grouped)


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

    def forward_batches(self, xs, ctx: RunContext):
        _one_batch_if_training(self, xs, ctx)
        # the gateway is exact and frozen: a fresh context keeps it in float and
        # keeps it from caching inputs for a backward that never runs
        picks = [[sel == i for i in range(len(self.replicas))]
                 for sel in (np.argmax(z, axis=1)
                             for z in self.gateway.forward_batches(xs, RunContext()))]
        outs, ys = _mix(xs, picks, self.replicas, ctx, f"{self.name}.replica")
        if ctx.train:
            self._cache = (xs[0], picks[0], [out[0] for out in outs])
        return ys

    def backward(self, dy, input_grad=True):
        x, picks, outs = self._cache
        # selection is a hard argmax: gradients reach the chosen replica only
        dx = np.zeros_like(x) if input_grad else None
        return _units_backward(dy, dx, self.replicas, picks, outs)
