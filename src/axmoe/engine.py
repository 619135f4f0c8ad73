"""Quantized inference and training engine.

Layers run in one of two arithmetic modes:

* float: plain numpy floating-point ops, the accuracy reference.
* approximate: operands are quantized to symmetric per-tensor int8, every
  scalar product goes through a multiplier lookup table, products are
  accumulated in 32-bit signed integers, and the result is dequantized by
  scale_x * scale_w. Bias is added in float afterwards.

The LUT path never skips operand pairs: padded zeros and zero weights are
looked up like any other pair, because an approximate table may map
(0, w) to a nonzero product. Per-layer invocation counters therefore equal
the shape-level MAC formulas exactly.

Training uses the straight-through estimator: the forward pass is the
quantized/LUT pass, the backward pass computes float gradients as if the
layer had run exact float arithmetic over the quantized-dequantized
operand values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ParameterError
from .multipliers import AxMultiplier

INT32_MIN = -(2**31)
INT32_MAX = 2**31 - 1

QMAX = 127  # symmetric range [-127, 127]; code -128 is never produced

# Rows per LUT gather chunk, bounds peak index-array memory.
_GATHER_BUDGET = 1 << 24


# ---------------------------------------------------------------------------
# Quantization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuantParams:
    scale: float

    def __post_init__(self):
        if not (self.scale > 0) or not np.isfinite(self.scale):
            raise ParameterError(f"scale must be positive and finite, got {self.scale}")


def _round_half_away(x: np.ndarray) -> np.ndarray:
    # np.round ties to even; the codec pins ties away from zero instead.
    return np.trunc(x + np.copysign(0.5, x))


def quantize(t: np.ndarray) -> tuple[np.ndarray, QuantParams]:
    """Symmetric per-tensor int8: scale = max|t| / 127, 1.0 for all-zero input."""
    t = np.asarray(t)
    if t.size and not np.all(np.isfinite(t)):
        raise NumericError("quantize: input contains non-finite values")
    amax = float(np.max(np.abs(t))) if t.size else 0.0
    scale = amax / QMAX if amax > 0 else 1.0
    codes = np.clip(_round_half_away(t / scale), -QMAX, QMAX).astype(np.int8)
    return codes, QuantParams(scale)


def dequantize(codes: np.ndarray, qp: QuantParams) -> np.ndarray:
    return codes.astype(np.float64) * qp.scale


# ---------------------------------------------------------------------------
# LUT arithmetic
# ---------------------------------------------------------------------------

def _check_codes(x: np.ndarray, what: str) -> np.ndarray:
    x = np.asarray(x)
    if x.dtype != np.int8:
        if not np.issubdtype(x.dtype, np.integer):
            raise ParameterError(f"{what}: expected integer codes, got {x.dtype}")
        if x.size and (x.min() < -128 or x.max() > 127):
            raise ParameterError(f"{what}: codes outside signed 8-bit range")
        x = x.astype(np.int8)
    return x


def lut_matmul(a: np.ndarray, b: np.ndarray, m: AxMultiplier) -> np.ndarray:
    """(N, K) x (M, K) -> (N, M) int32 through the multiplier table.

    Accumulates in int64 and fails loudly if any sum leaves the int32 range,
    mirroring a 32-bit hardware accumulator with overflow detection.
    """
    a = _check_codes(a, "lut_matmul lhs")
    b = _check_codes(b, "lut_matmul rhs")
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ParameterError(f"lut_matmul: incompatible shapes {a.shape} x {b.shape}")
    n, k = a.shape
    mrows = b.shape[0]
    out = np.empty((n, mrows), dtype=np.int64)
    if k == 0:
        out[:] = 0
        return out.astype(np.int32)
    b_idx = (b.astype(np.int32) + 128)[None, :, :]
    chunk = max(1, _GATHER_BUDGET // max(1, mrows * k))
    for start in range(0, n, chunk):
        stop = min(n, start + chunk)
        idx = (a[start:stop].astype(np.int32) + 128)[:, None, :] * 256 + b_idx
        out[start:stop] = m.lut[idx].sum(axis=2, dtype=np.int64)
    if out.size and (out.min() < INT32_MIN or out.max() > INT32_MAX):
        raise NumericError("lut_matmul: 32-bit accumulator overflow")
    return out.astype(np.int32)


# ---------------------------------------------------------------------------
# Shape helpers
# ---------------------------------------------------------------------------

def conv_out_hw(h: int, w: int, kernel, stride, padding) -> tuple[int, int]:
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    if oh <= 0 or ow <= 0:
        raise ParameterError(f"conv geometry yields empty output ({oh}, {ow})")
    return oh, ow


def im2col(x: np.ndarray, kernel, stride, padding) -> np.ndarray:
    """(N, C, H, W) -> (N, Ho, Wo, C, kh, kw) patch view (copied)."""
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    if ph or pw:
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    win = win[:, :, ::sh, ::sw]  # (N, C, Ho, Wo, kh, kw)
    return np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5))


def col2im(dcols: np.ndarray, x_shape, kernel, stride, padding) -> np.ndarray:
    """Scatter-add patch gradients back to input layout. Inverse of im2col."""
    n, c, h, w = x_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    oh, ow = dcols.shape[1], dcols.shape[2]
    dxp = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=dcols.dtype)
    dw = dcols.transpose(0, 3, 1, 2, 4, 5)  # (N, C, Ho, Wo, kh, kw)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw] += dw[:, :, :, :, i, j]
    return dxp[:, :, ph : ph + h, pw : pw + w]


def stable_softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


# ---------------------------------------------------------------------------
# Run context and layer base
# ---------------------------------------------------------------------------

@dataclass
class RunContext:
    """Per-forward execution state.

    multiplier None means pure float; a multiplier routes every layer whose
    `approximate` flag is set through the quantize + LUT path. `counters`
    accumulates LUT invocations per layer name, `routed` accumulates routed
    units per expert for MoE layers.
    """

    multiplier: AxMultiplier | None = None
    train: bool = False
    counters: dict = field(default_factory=dict)
    routed: dict = field(default_factory=dict)

    def count(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(n)

    def count_routed(self, name: str, n: int) -> None:
        self.routed[name] = self.routed.get(name, 0) + int(n)


class Layer:
    """Base class: named, optionally parameterized, optionally trainable.

    Containers list their sub-layers in `children()`; parameter, gradient
    and freeze-set traversal is implemented once here over that tree. Own
    parameters are qualified by the layer name, children name their own.
    """

    def __init__(self, name: str):
        self.name = name
        self.grads: dict[str, np.ndarray] = {}

    def children(self) -> list["Layer"]:
        return []

    def _params(self) -> dict[str, np.ndarray]:
        return {}

    def params(self) -> dict[str, np.ndarray]:
        out = {}
        for child in self.children():
            out.update(child.params())
        out.update({f"{self.name}.{k}": v for k, v in self._params().items()})
        return out

    def qualified_grads(self) -> dict[str, np.ndarray]:
        out = {}
        for child in self.children():
            out.update(child.qualified_grads())
        out.update({f"{self.name}.{k}": v for k, v in self.grads.items()})
        return out

    def frozen_names(self) -> set[str]:
        return set().union(*(child.frozen_names() for child in self.children()))

    def zero_grads(self) -> None:
        self.grads = {}
        for child in self.children():
            child.zero_grads()

    def load_params(self, values: dict[str, np.ndarray]) -> None:
        """Copy `values` into the live parameters, validating names and shapes."""
        live = self.params()
        unknown = set(values) - set(live)
        if unknown:
            raise ParameterError(f"unknown parameter names: {sorted(unknown)}")
        for name, arr in values.items():
            dst = live[name]
            if dst.shape != arr.shape:
                raise ParameterError(f"{name}: shape {arr.shape} does not match {dst.shape}")
            dst[...] = arr

    def forward(self, x: np.ndarray, ctx: RunContext) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dy: np.ndarray) -> np.ndarray:
        raise NotImplementedError(f"{type(self).__name__} has no backward pass")


# ---------------------------------------------------------------------------
# Parameterized layers
# ---------------------------------------------------------------------------

class _Affine(Layer):
    """y = cols @ w.T + b, one forward and one backward for Conv2d and Linear.

    Subclasses only describe layout: `_lead(shape)` gives the output's row
    axes, `_cols` lays x out as `(*lead, *w.shape[1:])`, `_uncols` is its
    adjoint, and `_out_axis` is where the output channel goes.
    """

    def __init__(self, name, w, b, approximate=True):
        super().__init__(name)
        self.w = w  # (out, fan_in...)
        self.b = b  # (out,)
        self.approximate = approximate
        self._cache = None

    def _params(self):
        return {"w": self.w, "b": self.b}

    def _rows(self, x):
        return self._cols(x).reshape(-1, self.w[0].size)

    def forward(self, x, ctx):
        """Float product, or quantize both operands per tensor, multiply every
        pair through the table and count the lookups. Training caches the
        operands the product saw (dequantized on the LUT path) for the
        straight-through backward."""
        lead = self._lead(x.shape)  # rejects bad geometry before any im2col
        w2d = self.w.reshape(self.w.shape[0], -1)
        if ctx.multiplier is not None and self.approximate:
            qx, sx = quantize(x)
            qw, sw = quantize(w2d)
            acc = lut_matmul(self._rows(qx), qw, ctx.multiplier)
            ctx.count(self.name, acc.size * qw.shape[1])
            y = acc.astype(np.float64) * (sx.scale * sw.scale)
            x_eff = dequantize(qx, sx).astype(x.dtype) if ctx.train else None
            w_eff = dequantize(qw, sw).astype(self.w.dtype)
        else:
            y = self._rows(x) @ w2d.T
            x_eff, w_eff = (x if ctx.train else None), w2d
        if ctx.train:
            self._cache = (x_eff, w_eff)
        y = (y + self.b).reshape(*lead, self.w.shape[0])
        return np.moveaxis(y, -1, self._out_axis).astype(x.dtype, copy=False)

    def backward(self, dy):
        x_eff, w_eff = self._cache
        drows = np.moveaxis(dy, self._out_axis, -1).reshape(-1, self.w.shape[0])
        self.grads = {"w": (drows.T @ self._rows(x_eff)).reshape(self.w.shape),
                      "b": drows.sum(axis=0)}
        dcols = (drows @ w_eff).reshape(*self._lead(x_eff.shape), *self.w.shape[1:])
        return self._uncols(dcols, x_eff.shape)


class Conv2d(_Affine):
    """w: (Cout, Cin, kh, kw) over NCHW input; the product runs over im2col
    columns, one row per output pixel."""

    _out_axis = 1

    def __init__(self, name, w, b, stride=(1, 1), padding=(0, 0), approximate=True):
        super().__init__(name, w, b, approximate)
        self.stride = stride
        self.padding = padding

    def _lead(self, shape):
        return (shape[0], *conv_out_hw(shape[2], shape[3], self.w.shape[2:], self.stride,
                                       self.padding))

    def _cols(self, x):
        return im2col(x, self.w.shape[2:], self.stride, self.padding)

    def _uncols(self, dcols, shape):
        return col2im(dcols, shape, self.w.shape[2:], self.stride, self.padding)


class Linear(_Affine):
    """Affine map on the last axis, w: (out, in). Leading axes (batch,
    tokens) are rows."""

    _out_axis = -1

    def _lead(self, shape):
        return shape[:-1]

    def _cols(self, x):
        return x

    def _uncols(self, dcols, shape):
        return dcols


class ReLU(Layer):
    def forward(self, x, ctx):
        if ctx.train:
            self._mask = x > 0
        return np.maximum(x, 0)

    def backward(self, dy):
        return dy * self._mask


class AvgPool2d(Layer):
    """Non-overlapping pooling; spatial dims must divide the window."""

    def __init__(self, name, k):
        super().__init__(name)
        self.k = k

    def forward(self, x, ctx):
        n, c, h, w = x.shape
        k = self.k
        if h % k or w % k:
            raise ParameterError(f"avgpool window {k} does not tile input {h}x{w}")
        # mean reduces in memory order: one layout makes the bits layout-free
        x = np.ascontiguousarray(x)
        return x.reshape(n, c, h // k, k, w // k, k).mean(axis=(3, 5))

    def backward(self, dy):
        k = self.k
        up = np.repeat(np.repeat(dy, k, axis=2), k, axis=3)
        return up / (k * k)


class Flatten(Layer):
    def forward(self, x, ctx):
        self._in_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dy):
        return dy.reshape(self._in_shape)


class Sequential(Layer):
    def __init__(self, name, layers):
        super().__init__(name)
        self.layers = list(layers)

    def children(self):
        return self.layers

    def forward(self, x, ctx):
        for layer in self.layers:
            x = layer.forward(x, ctx)
        return x

    def backward(self, dy):
        for layer in reversed(self.layers):
            dy = layer.backward(dy)
        return dy


class Model(Sequential):
    """Top-level sequential graph."""


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------

def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over the batch. Returns (loss, dloss/dlogits)."""
    n = logits.shape[0]
    p = stable_softmax(logits.astype(np.float64), axis=-1)
    eps = np.finfo(np.float64).tiny
    loss = float(-np.log(p[np.arange(n), labels] + eps).mean())
    dlogits = p.copy()
    dlogits[np.arange(n), labels] -= 1.0
    return loss, (dlogits / n).astype(logits.dtype)
