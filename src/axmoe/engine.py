"""Quantized inference and training engine.

Layers run in one of two arithmetic modes:

* float: plain numpy floating-point ops, the accuracy reference.
* approximate: operands are quantized to symmetric per-tensor int8, every
  scalar product goes through a multiplier lookup table, products are
  accumulated in 32-bit signed integers, and the result is dequantized by
  scale_x * scale_w. Bias is added in float afterwards.

`lut_matmul` is the one LUT entry point, with three kernels that agree bit
for bit. A rank-1 table, lut[a, b] == q * f(a) * g(b) with reduced integer
factors (exact, every truncN, DRUM), runs as GEMMs of its factors, which
it looks up two codes per index in tables of factor pairs. Any other table
runs through a code table when the call has at least as many rows as it
holds activation codes, N >= hi - lo + 1 for the span
[lo, hi] = [a.min(), a.max()]: the products of each code of the span with
each weight code, built once per call, from which each row gathers and
sums K table rows. Other calls look every operand pair up directly in the
table. The rule compares the two costs: the code table takes
(hi - lo + 1) * K * M products to build and the direct gather N * K * M
lookups, and summing whole table rows already wins at N = hi - lo + 1: at
N = 128 rows of codes 0..127 the code table took 16 us against the
gather's 21 us on (128, 9) x (8, 9), and 1.76 ms against 2.35 ms on
(128, 784) x (32, 784) (1 BLAS thread, 2-core AMD EPYC). Activations
that approximate layers read are images clipped to >= 0 or ReLU outputs,
whose codes span at most 0..127: half the table.

Every kernel sums integers in floating point, which is exact in any order
while every partial sum is an integer the type holds: float32 when K times
the largest product magnitude stays below 2^24, float64 (2^53) otherwise.
The bound comes from the table and K alone. So each kernel can work in
bounded blocks of rows (and of columns) and write every block straight into
the one int32 result: splitting the sums cannot change a bit.

The LUT path never skips operand pairs: padded zeros and zero weights are
looked up like any other pair, because an approximate table may map
(0, w) to a nonzero product. Per-layer invocation counters therefore equal
the shape-level MAC formulas exactly.

A conv layer multiplies its weights by im2col columns, one row per output
pixel (`im2col`): float inputs and int8 codes alike are one gather through
an index of the layer's geometry, built once and cached across calls.

A layer's input may hold consecutive batches of `sizes` samples
(`forward(x, ctx, sizes)`), each quantized alone (`quantize_segments`) in
one LUT call for all; float GEMMs run batch by batch (`_matmul`) and the
rest row by row, so each batch's outputs and counters are the ones it gets
alone. Evaluation passes up to 256 samples at once (`train.EVAL_GROUP`);
a training pass takes one batch, since the backward caches hold one.

Affine layers of one layout that read one input, such as the soft experts
of an MoE layer, run as one group (`_Affine.forward_group`): the input is
quantized and laid out once, and one LUT call multiplies it by every
layer's weight codes. A single layer is the group of one, so a group's
outputs, gradients and counters equal those of its layers run alone. A
float32 group's outputs are column slices of the int32 sums that the LUT
call returned, rescaled in place: a LUT layer call holds one
output-sized buffer, not the sums and a float copy of them.

Training uses the straight-through estimator: the forward pass is the
quantized/LUT pass, the backward pass computes float gradients as if the
layer had run exact float arithmetic over the quantized-dequantized
operand values. The model input gets no gradient: a training step's
backward stops at the first parameterized layer, which computes only its
parameter gradients (`Model.backward(dy, input_grad=False)`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ParameterError
from .graphs import conv_out_hw
from .multipliers import AxMultiplier

INT32_MIN = -(2**31)
INT32_MAX = 2**31 - 1

QMAX = 127  # symmetric range [-127, 127]; code -128 is never produced

# Entries per LUT kernel chunk: codes and their sums in a rank-1 block, table
# indices and gathered products in the gather, table products and gathered
# rows in the code table, float64 results in the rescale. Small chunks keep
# the kernels' transient arrays from setting the process's peak memory, whose
# size would otherwise follow each call's shape. A gather chunk of 2^15
# (256 KiB of indices) also stays small enough that glibc keeps its pages
# between calls: at 2^17, a fresh process took ~450 minor page faults per
# (8, 784) x (32, 784) call.
_GATHER_BUDGET = 1 << 15
_CODE_TABLE_BUDGET = 1 << 16

# Every index a kernel looks up is in range by construction, so each take
# runs with mode="wrap": the same values, and numpy's cheapest index check
# (~20% faster than the default "raise"). Kernels call the ndarray method,
# which skips np.take's Python dispatch (~0.4 us a call).

# Two adjacent int8 codes as one index of a rank-1 pair table (`_factors`).
_CODE_PAIR = np.dtype("<u2")


# ---------------------------------------------------------------------------
# Quantization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuantParams:
    scale: float

    def __post_init__(self):
        if not (self.scale > 0) or not math.isfinite(self.scale):
            raise ParameterError(f"scale must be positive and finite, got {self.scale}")


def quantize(t: np.ndarray) -> tuple[np.ndarray, QuantParams]:
    """Symmetric per-tensor int8: scale = max|t| / 127, 1.0 for all-zero
    input. Codes round half away from zero."""
    t = np.asarray(t)
    if t.dtype.kind != "f":  # -min of an integer type's minimum wraps
        t = t.astype(np.float64)
    # max and -min, not max(abs): no temp of t's size, and the same value
    lo, hi = (float(t.min()), float(t.max())) if t.size else (0.0, 0.0)
    amax = max(hi, -lo)
    if not math.isfinite(amax):  # a NaN or an infinity carries through max and min
        raise NumericError("quantize: input contains non-finite values")
    scale = amax / QMAX if amax > 0 else 1.0
    if scale == 0:
        raise NumericError(f"quantize: max|t| = {amax!r} has no float64 scale max|t| / {QMAX}")
    if scale < np.finfo(np.result_type(t, scale)).tiny:
        # t / scale would round the scale to a subnormal of t's type and lose
        # its digits; lifting by a power of two moves every value exactly
        lift = -np.frexp(amax)[1]
        x = np.ldexp(t.astype(np.float64), lift) / (np.ldexp(amax, lift) / QMAX)
    else:
        x = t / scale
    x = np.asarray(x)  # a 0-d t divides to a scalar, which `out=` cannot take
    # Half away from zero as trunc(x + copysign(0.5, x)): for x < 0, x - 0.5
    # is -(|x| + 0.5) exactly, and the int8 cast truncates toward zero on
    # both sides. |x| is at most 127 plus a few ulps of a normal scale, so
    # |x| + 0.5 stays below 128 and the cast needs no clip. With lo >= 0 no
    # code is negative (-0.0 rounds to code 0 either way) and the add takes
    # a scalar: ReLU outputs and clipped images, every activation an
    # approximate layer reads, take this one add and one cast.
    x += 0.5 if lo >= 0 else np.copysign(0.5, x)
    return x.astype(np.int8), QuantParams(scale)


def quantize_segments(t: np.ndarray, sizes) -> tuple[np.ndarray, np.ndarray]:
    """`quantize` of each segment of `sizes` rows of float t, bit for bit:
    one array of codes, and float64 scales (1.0 for an empty segment). Each
    scale is cast to t's type before the divide, as `t / scale` casts a
    Python float; copysign rounding gives the codes of `quantize`'s +0.5 on
    a segment whose min is >= 0. A segment that needs the subnormal lift,
    or has no scale, sends every segment through `quantize`."""
    sizes = np.asarray(sizes, dtype=np.intp)
    lo, hi = np.zeros((2, len(sizes)))
    if t.size:
        full = sizes > 0  # reduceat cannot reduce an empty segment
        starts = (np.cumsum(sizes) - sizes)[full]
        axes = tuple(range(1, t.ndim))
        lo[full] = np.minimum.reduceat(t.min(axis=axes), starts)
        hi[full] = np.maximum.reduceat(t.max(axis=axes), starts)
    amax = np.maximum(hi, -lo)
    if not np.isfinite(amax).all():
        raise NumericError("quantize: input contains non-finite values")
    scales = np.divide(amax, QMAX, out=np.ones_like(amax), where=amax > 0)
    if (scales < np.finfo(t.dtype).tiny).any():
        codes, params = zip(*map(quantize, np.split(t, np.cumsum(sizes)[:-1])))
        return np.concatenate(codes), np.array([p.scale for p in params])
    x = t / scales.astype(t.dtype).repeat(sizes).reshape(-1, *[1] * (t.ndim - 1))
    x += 0.5 if (lo >= 0).all() else np.copysign(0.5, x)
    return x.astype(np.int8), scales


def dequantize(codes: np.ndarray, qp: QuantParams) -> np.ndarray:
    return np.multiply(codes, qp.scale, dtype=np.float64)


# ---------------------------------------------------------------------------
# LUT arithmetic
# ---------------------------------------------------------------------------

def _check_codes(x: np.ndarray, what: str) -> np.ndarray:
    x = np.asarray(x)
    if x.dtype != np.int8:
        raise ParameterError(f"{what}: expected int8 codes, got {x.dtype}")
    return x


def lut_matmul(a: np.ndarray, b: np.ndarray, m: AxMultiplier) -> np.ndarray:
    """(N, K) x (M, K) int8 codes -> (N, M) int32: each output is the sum
    over K of m.lut's products of its row's and its column's codes, equal
    bit for bit whichever kernel the module docstring's rule picks.

    Fails loudly if any sum leaves the int32 range, mirroring a 32-bit
    hardware accumulator with overflow detection. Only a call whose K
    products could reach that range is scanned, block by block.
    """
    a = _check_codes(a, "lut_matmul lhs")
    b = _check_codes(b, "lut_matmul rhs")
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ParameterError(f"lut_matmul: incompatible shapes {a.shape} x {b.shape}")
    if m.rank1 is not None:
        return _rank1_gemm(a, b, m)
    if a.size:
        lo, hi = int(a.min()), int(a.max())
        if len(a) >= hi - lo + 1:
            return _lut_code_table(a, b, m, (lo, hi))
    return _lut_gather(a, b, m)


def _blocks(n: int, size: int, budget: int):
    """Slices that split range(n) in order into blocks of as many items of
    `size` entries as `budget` holds, and at least one. Every slice spans
    that one step: the last one's stop may pass n."""
    step = max(1, min(n, budget // max(1, size)))
    return (slice(start, start + step) for start in range(0, n, step))


def _accumulator(k: int, bound: int) -> type:
    """The float type that sums K integers of magnitude at most `bound`
    exactly in any order: float32 when every partial sum stays below 2^24,
    float64 (exact to 2^53, which no K that fits in memory reaches) else."""
    return np.float32 if k * bound < 2**24 else np.float64


def _int32_result(a: np.ndarray, b: np.ndarray, m: AxMultiplier) -> tuple[np.ndarray, bool]:
    """The (N, M) int32 array a kernel writes its sums into, and whether
    its blocks must be scanned: no sum of K products leaves int32 unless
    K * max|L| does."""
    return np.empty((a.shape[0], b.shape[0]), np.int32), a.shape[1] * m.max_abs > INT32_MAX


def _store(out: np.ndarray, at, sums: np.ndarray, scan: bool, q: int = 1) -> None:
    """Write a block of integer-valued float sums into the int32 result,
    after checking, when `scan` is set, that each one times q fits (the
    result is scaled by q later)."""
    if scan and sums.size:
        lo, hi = sorted((float(sums.min()) * q, float(sums.max()) * q))
        if lo < INT32_MIN or hi > INT32_MAX:
            raise NumericError("lut_matmul: 32-bit accumulator overflow")
    out[at] = sums


def _rank1_gemm(a: np.ndarray, b: np.ndarray, m: AxMultiplier) -> np.ndarray:
    """(N, M) int32 sums q * (f[a] @ g[b].T) of a rank-1 table's products:
    per block of rows, one GEMM of the reduced factors, whose products are
    bounded by max|L| / |q|, stored as int32; then one int32 multiply of
    the whole result by q, none for q = 1. Every q * sum fits int32 (or the
    block scan raises), so every sum does too. g[b] is looked up once per
    call, f[a] once per block, each two codes per index (`_factors`)."""
    f, g, q = m.rank1
    fp, gp = m.rank1_pairs
    k = a.shape[1]
    acc = _accumulator(k, m.max_abs // abs(q))
    out, scan = _int32_result(a, b, m)
    gbt = _factors(gp, g, b, acc).T
    for rows in _blocks(len(a), max(k, len(b)), _GATHER_BUDGET):
        _store(out, rows, _factors(fp, f, a[rows], acc) @ gbt, scan, q)
    if q != 1:
        out *= q
    return out


def _factors(pairs: np.ndarray, v: np.ndarray, codes: np.ndarray, acc: type) -> np.ndarray:
    """v[codes] as `acc` for int8 codes, two codes per lookup: the codes,
    C-contiguous (copied only if they are not), read as little-endian
    uint16 index `pairs` (`AxMultiplier.rank1_pairs`), and each uint64
    entry lands as two float32 factors. An odd count's last code is looked
    up alone in v. numpy widens every index to intp before it gathers, so
    half the indices halve that pass as well as the gather."""
    codes = np.ascontiguousarray(codes)
    out = np.empty(codes.shape, dtype=np.float32)
    flat, dst = codes.reshape(-1), out.reshape(-1)
    if flat.size & 1:
        dst[-1] = v[int(flat[-1]) & 255]
        flat, dst = flat[:-1], dst[:-1]
    pairs.take(flat.view(_CODE_PAIR), out=dst.view(np.uint64), mode="wrap")
    return out if acc is np.float32 else out.astype(acc)


def _lut_gather(a: np.ndarray, b: np.ndarray, m: AxMultiplier) -> np.ndarray:
    """(N, M) int32 sums of m.lut over every operand pair: the kernel for any
    table, one lookup per pair in the float32 table, summed over K as a GEMV
    against ones. Blocks of output columns, each with its own column index,
    and of rows (sized for a full block of columns) keep every block's
    indices and products inside the budget."""
    k = a.shape[1]
    acc = _accumulator(k, m.max_abs)
    out, scan = _int32_result(a, b, m)
    ones = np.ones(k, dtype=acc)
    for at in _blocks(len(b), k, _GATHER_BUDGET):
        # the index of pair (x, y) is (x + 128) * 256 + y + 128: x << 8 from
        # the row, y + 32896 from the column, each widened in its one op
        cols = np.add(b[at], 32896, dtype=np.intp)
        for rows in _blocks(len(a), (at.stop - at.start) * k, _GATHER_BUDGET):
            idx = np.left_shift(a[rows, None, :], 8, dtype=np.intp) + cols
            _store(out, (rows, at), m.lut_f32.take(idx, mode="wrap") @ ones, scan)
    return out


def _lut_code_table(a: np.ndarray, b: np.ndarray, m: AxMultiplier,
                    span: tuple[int, int] | None = None) -> np.ndarray:
    """(N, M) int32 sums of m.lut over every operand pair, through a table of
    the products of each activation code of the span [lo, hi] (a's own
    unless given; a must hold a code) with each weight code.

    For a block of S weight positions, table row (c - lo) * S + k holds the
    products of code c with every weight row's k-th code: the table columns
    of those codes, taken from rows lo..hi of the 256 x 256 table. Each
    output row then gathers one contiguous table row per position, the one
    of its code a[n, k], and sums them over K. Blocks of output columns and
    of positions, both sized by the span's code count, keep the table inside
    the code-table budget, and blocks of output rows keep the gathered rows
    there too. Each column block is written into the result after its last
    block of positions."""
    n, k = a.shape
    lo, hi = span if span is not None else (int(a.min()), int(a.max()))
    codes = hi - lo + 1
    acc = _accumulator(k, m.max_abs)
    out, scan = _int32_result(a, b, m)
    by_code = m.lut_f32.reshape(256, 256)[lo + 128 : hi + 129]
    for at in _blocks(len(b), codes, _CODE_TABLE_BUDGET):
        bt = np.add(b[at].T, 128, dtype=np.intp)  # (K, cols) table columns
        sums = np.zeros((n, bt.shape[1]), dtype=acc)
        for ks in _blocks(k, codes * bt.shape[1], _CODE_TABLE_BUDGET):
            bk = bt[ks]
            s = np.intp(len(bk))
            table = by_code.take(bk, axis=1, mode="wrap").reshape(-1, bk.shape[1])
            row_of_code = (-lo * s + np.arange(s, dtype=np.intp))[:, None]
            for rows in _blocks(n, bk.size, _CODE_TABLE_BUDGET):
                # widened before the multiply: int8 codes times s wrap in int8
                idx = np.multiply(a[rows, ks].T, s, dtype=np.intp)
                idx += row_of_code
                sums[rows] += table.take(idx, axis=0, mode="wrap").sum(axis=0, dtype=acc)
        _store(out, (slice(None), at), sums, scan)
    return out


# ---------------------------------------------------------------------------
# Shape helpers
# ---------------------------------------------------------------------------

def im2col(x: np.ndarray, kernel, stride, padding) -> np.ndarray:
    """(N, C, H, W) -> C-contiguous (N, Ho, Wo, C, kh, kw) columns: the input
    is copied once into a zero-padded NHWC buffer, then each image's columns
    are one gather from it through the cached index of `_im2col_index`.

    The gather writes the columns in order, once, where one strided slice
    copy per kernel offset (i, j) made kh * kw interleaved passes over them.
    On toy_cnn's conv2 at batch 200, (200, 8, 8, 8) with 3 x 3 kernels, a
    float32 call took 699 us against 2508 us for the slices (1 BLAS thread,
    2-core Intel Xeon). int8 codes, whose columns stay in cache, took 836 us
    against 576 us, but LUT runs moved inside noise end to end
    (`BENCH_34.json`), so every dtype takes the one path."""
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    hp, wp = h + 2 * ph, w + 2 * pw
    xp = np.zeros((n, hp, wp, c), dtype=x.dtype)
    xp[:, ph : ph + h, pw : pw + w] = x.transpose(0, 2, 3, 1)
    oh, ow = conv_out_hw(h, w, kernel, stride, padding)
    idx = _im2col_index(hp, wp, c, kh, kw, sh, sw, oh, ow)
    # explicit sizes, never -1: an empty batch has no size to infer. "wrap"
    # skips take's per-offset bounds check, which made a float32 call 30-40%
    # slower; every offset is in range by construction, and the oracle test
    # of im2col checks each one.
    return xp.reshape(n, hp * wp * c).take(idx, axis=1, mode="wrap")


@functools.lru_cache(maxsize=16)
def _im2col_index(hp, wp, c, kh, kw, sh, sw, oh, ow) -> np.ndarray:
    """Read-only intp offsets, in (Ho, Wo, C, kh, kw) order, of each column
    entry within one (hp, wp, c) padded NHWC image: entry (y, x, ch, i, j)
    reads pixel (y * sh + i, x * sw + j) of channel ch. intp, because take
    converts any other index type on every call. A conv layer sees one
    geometry per layer, whatever the batch, so a few entries serve a run;
    toy_cnn's conv2 index is 8 * 8 * 8 * 3 * 3 offsets (37 KB). Building it
    again on every call added about 25 us, which took a batch-8 float32
    conv2 call from 35 to 57 us."""
    rows = np.arange(0, oh * sh, sh, dtype=np.intp)[:, None, None, None, None]
    rows = rows + np.arange(kh, dtype=np.intp)[:, None]
    cols = np.arange(0, ow * sw, sw, dtype=np.intp)[:, None, None, None]
    cols = cols + np.arange(kw, dtype=np.intp)
    idx = (rows * wp + cols) * c + np.arange(c, dtype=np.intp)[:, None, None]
    idx.flags.writeable = False
    return idx


def col2im(dcols: np.ndarray, x_shape, kernel, stride, padding) -> np.ndarray:
    """Scatter-add patch gradients back to C-contiguous NCHW. Adjoint of
    im2col: each input element sums its (i, j) terms in kernel order."""
    n, c, h, w = x_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    oh, ow = dcols.shape[1], dcols.shape[2]
    dxp = np.zeros((n, h + 2 * ph, w + 2 * pw, c), dtype=dcols.dtype)
    for i in range(kh):
        for j in range(kw):
            dxp[:, i : i + sh * oh : sh, j : j + sw * ow : sw] += dcols[..., i, j]
    return np.ascontiguousarray(dxp[:, ph : ph + h, pw : pw + w].transpose(0, 3, 1, 2))


def _add_bias(y: np.ndarray, b: np.ndarray) -> np.ndarray:
    """y + b for (rows, Cout) y, written into y: (y + b).astype(y.dtype).

    The add runs over a (rows / r, r * Cout) view with r = gcd(rows, 64),
    against b repeated r times: numpy's inner loop then spans r * Cout
    elements instead of Cout, and every element still gets its one add.
    On conv1's (51200, 8) float64 output that takes 71 us against y += b's
    204 us (1 BLAS thread, 2-core AMD EPYC)."""
    r = math.gcd(len(y), 64)
    wide = y.reshape(-1, r * y.shape[1])
    # not np.tile, whose Python overhead (~1.4 us more) is a small layer's whole add
    wide += b[None].repeat(r, 0).ravel()
    return wide.reshape(y.shape)


def _rescale(out: np.ndarray, acc: np.ndarray, scale, b: np.ndarray) -> None:
    """out = acc * scale + b (one float, or a float64 column of one per
    row), computed in float64 and cast to out's type, in blocks of rows
    written straight into out: no float64 array of the whole call is ever
    held. Each element gets the same two float64 operations whatever the
    block, so the bits do not depend on it. out may be acc's own bytes,
    viewed as a float type of its width: each block of acc is read into
    its float64 temporary before the block's bytes are overwritten."""
    per_row = isinstance(scale, np.ndarray)
    for at in _blocks(len(out), out.shape[1], _GATHER_BUDGET):
        out[at] = _add_bias(np.multiply(acc[at], scale[at] if per_row else scale,
                                        dtype=np.float64), b)


def _matmul(a: np.ndarray, b: np.ndarray, rows=None) -> np.ndarray:
    """a @ b, one GEMM per segment of `rows` rows of 2-D a, each with the
    bits it gets alone (BLAS may pick its summation order by row count);
    equal segments as one matmul over a (G, rows, K) view."""
    if rows is None or len(rows) == 1:
        return a @ b
    if len(set(rows)) == 1:
        return np.matmul(a.reshape(len(rows), rows[0], -1), b).reshape(len(a), -1)
    stops = np.cumsum(rows)
    return np.concatenate([a[stop - n : stop] @ b for n, stop in zip(rows, stops)])


def stable_softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis."""
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# Run context and layer base
# ---------------------------------------------------------------------------

@dataclass
class RunContext:
    """Execution state of one pass: a training step's forward, or every
    batch of one evaluation.

    multiplier None means pure float; a multiplier routes every layer whose
    `approximate` flag is set through the quantize + LUT path. `counters`
    accumulates LUT invocations per layer name, `routed` accumulates routed
    units per expert for MoE layers.

    A layer's weights are quantized once per context and reused by every
    later forward through it (a group's, stacked once), so no parameter may
    change while a context is live: make a new one after each update.
    """

    multiplier: AxMultiplier | None = None
    train: bool = False
    counters: dict = field(default_factory=dict)
    routed: dict = field(default_factory=dict)
    weight_codes: dict = field(default_factory=dict, init=False, repr=False)

    def count(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(n)

    def count_routed(self, name: str, n: int) -> None:
        self.routed[name] = self.routed.get(name, 0) + int(n)

    def quantized_weights(self, layers: tuple) -> tuple[np.ndarray, tuple[QuantParams, ...]]:
        """`quantize` of each layer's weights as (out, fan_in) rows: the codes
        of all `layers` stacked in order, and each layer's scale. Made on the
        first forward through the layers and kept under the layer objects
        themselves (never their ids, which a collected layer can hand on)."""
        if layers not in self.weight_codes:
            codes, scales = zip(*(quantize(layer.w.reshape(layer.w.shape[0], -1))
                                  for layer in layers))
            self.weight_codes[layers] = np.concatenate(codes), scales
        return self.weight_codes[layers]


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

    def walk(self):
        """This layer and every layer below it, each child's tree before its
        parent."""
        for child in self.children():
            yield from child.walk()
        yield self

    def params(self) -> dict[str, np.ndarray]:
        return {f"{layer.name}.{k}": v
                for layer in self.walk() for k, v in layer._params().items()}

    def qualified_grads(self) -> dict[str, np.ndarray]:
        return {f"{layer.name}.{k}": v for layer in self.walk() for k, v in layer.grads.items()}

    def frozen_names(self) -> set[str]:
        return set().union(*(child.frozen_names() for child in self.children()))

    def zero_grads(self) -> None:
        for layer in self.walk():
            layer.grads = {}

    def load_params(self, values: dict[str, np.ndarray]) -> None:
        """Copy `values` into the live parameters. The names must be exactly
        the live ones and each shape must match."""
        live = self.params()
        unknown, missing = set(values) - set(live), set(live) - set(values)
        if unknown or missing:
            raise ParameterError(f"parameter names differ: unknown {sorted(unknown)}, "
                                 f"missing {sorted(missing)}")
        for name, arr in values.items():
            dst = live[name]
            if dst.shape != arr.shape:
                raise ParameterError(f"{name}: shape {arr.shape} does not match {dst.shape}")
            dst[...] = arr

    def forward(self, x: np.ndarray, ctx: RunContext, sizes=None) -> np.ndarray:
        """The output for x, batches of `sizes` samples, each as if alone."""
        raise NotImplementedError(f"{type(self).__name__} has no forward pass")

    def group_key(self):
        """Layers whose keys are equal and not None can run on one input as
        one group (`_Affine.forward_group`); None for a layer that runs alone."""
        return None

    def backward(self, dy: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Gradients of the parameters into `grads`, and the gradient of the
        input. A parameterized layer called with input_grad=False computes
        only its `grads` and returns None."""
        raise NotImplementedError(f"{type(self).__name__} has no backward pass")


def _split(layer: Layer, x: np.ndarray, ctx: RunContext, sizes) -> bool:
    """Whether `sizes`, which must add up to len(x), split x; training cannot."""
    if sizes is not None and (sum(sizes) != len(x) or min(sizes, default=0) < 0):
        raise ParameterError(f"{layer.name}: batch sizes {tuple(sizes)} do not split "
                             f"{len(x)} samples")
    split = sizes is not None and len(sizes) > 1
    if split and ctx.train:
        raise ParameterError(f"{layer.name}: a training pass takes one batch, got {len(sizes)}: "
                             "the backward caches hold one")
    return split


# ---------------------------------------------------------------------------
# Parameterized layers
# ---------------------------------------------------------------------------

class _Affine(Layer):
    """y = cols @ w.T + b, one forward and one backward for Conv2d and Linear,
    each the one-layer case of a group of layers that read one input.

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

    def _shaped(self, y, lead):
        """(rows, Cout) products as the layer's output for row axes `lead`."""
        y = y.reshape(*lead, self.w.shape[0])
        if self._out_axis != -1:  # moveaxis normalises its axes even with nothing to move
            y = np.moveaxis(y, -1, self._out_axis)
        return y

    def group_key(self):
        return type(self), self.w.shape[1:], self.approximate

    def forward(self, x, ctx, sizes=None):
        return self.forward_group((self,), x, ctx, sizes)[0]

    def backward(self, dy, input_grad=True):
        return next(self.backward_group((self,), (dy,), input_grad), None)

    @staticmethod
    def forward_group(layers, x, ctx, sizes=None) -> list:
        """Each layer's output for layers that share a `group_key` and read
        x, batches of `sizes` samples; x is laid out (im2col) once.

        Float products, one GEMM per layer and batch (`_matmul`). Or one
        LUT call of all of x's codes, each batch quantized alone, by every
        layer's weight codes, stacked; each batch's rows of each layer's
        columns are rescaled by the batch's scale times the layer's into
        the int32 sums' own bytes if x's type is as wide (float32), else
        one fresh array. Each layer counts its own lookups. Training (one
        batch) caches the operands the products saw (dequantized on the LUT
        path) for the straight-through backward."""
        first = layers[0]
        split = _split(first, x, ctx, sizes)
        if x.dtype.kind != "f":  # the float path would cast its products back and wrap
            raise ParameterError(f"{first.name}: input must be floating point, got {x.dtype}")
        lead = first._lead(x.shape)  # rejects bad geometry before any im2col
        rows_of = np.multiply(sizes, math.prod(lead[1:])) if split else None  # of each batch
        ys = []
        if ctx.multiplier is not None and first.approximate:
            codes, q = quantize_segments(x, sizes) if split else quantize(x)
            sx = q.repeat(rows_of)[:, None] if split else q.scale  # per row, or one
            qw, sws = ctx.quantized_weights(tuple(layers))
            acc = lut_matmul(first._rows(codes), qw, ctx.multiplier)
            # a float type of int32's width takes the sums' own bytes
            out = (acc.view(x.dtype) if x.dtype.itemsize == acc.itemsize
                   else np.empty(acc.shape, dtype=x.dtype))
            x_eff = dequantize(codes, q).astype(x.dtype) if ctx.train else None
            c0 = 0
            for layer, sw in zip(layers, sws):
                c1 = c0 + layer.w.shape[0]
                ctx.count(layer.name, len(acc) * (c1 - c0) * qw.shape[1])
                _rescale(out[:, c0:c1], acc[:, c0:c1], sx * sw.scale, layer.b)
                ys.append(layer._shaped(out[:, c0:c1], lead))
                if ctx.train:
                    layer._cache = (x_eff, dequantize(qw[c0:c1], sw).astype(layer.w.dtype))
                c0 = c1
            return ys
        rows = first._rows(x)
        for layer in layers:
            w2d = layer.w.reshape(layer.w.shape[0], -1)
            ys.append(layer._shaped(_add_bias(_matmul(rows, w2d.T, rows_of), layer.b),
                                    lead).astype(x.dtype, copy=False))
            if ctx.train:
                layer._cache = (x, w2d)
        return ys

    @staticmethod
    def backward_group(layers, dys, input_grad=True):
        """The backward of one `forward_group` call, for each layer's output
        gradient in `dys`: sets every layer's `grads`, over one layout of the
        shared cached input, before it returns. Returns a generator of each
        layer's input gradient, made one at a time in layer order, which
        yields nothing without input_grad."""
        # C-contiguous rows whatever the batch or dy's memory (conv rows were
        # copied anyway, by the reshape, except for one image), so the bias
        # gradient adds them in one sequence
        drows = [np.ascontiguousarray(np.moveaxis(dy, layer._out_axis, -1)).reshape(
            -1, layer.w.shape[0]) for layer, dy in zip(layers, dys)]
        x_eff = layers[0]._cache[0]
        rows = layers[0]._rows(x_eff)
        for layer, d in zip(layers, drows):
            layer.grads = {"w": (d.T @ rows).reshape(layer.w.shape),
                           "b": np.einsum("ij->j", d)}
        del rows
        lead = layers[0]._lead(x_eff.shape)
        # one expression per layer: nothing keeps its rows or columns alive
        # while the caller holds its input gradient
        return (layer._uncols((drows.pop(0) @ layer._cache[1]).reshape(
            *lead, *layer.w.shape[1:]), x_eff.shape) for layer in (layers if input_grad else ()))


class Conv2d(_Affine):
    """w: (Cout, Cin, kh, kw) over NCHW input; the product runs over im2col
    columns, one row per output pixel."""

    _out_axis = 1

    def __init__(self, name, w, b, stride=(1, 1), padding=(0, 0), approximate=True):
        super().__init__(name, w, b, approximate)
        self.stride = stride
        self.padding = padding

    def group_key(self):
        return (*super().group_key(), self.stride, self.padding)

    def _lead(self, shape):
        if len(shape) != 4 or shape[1] != self.w.shape[1]:
            raise ParameterError(f"{self.name}: input {shape} is not (N, {self.w.shape[1]}, H, W)")
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
        if len(shape) < 2 or shape[-1] != self.w.shape[1]:
            raise ParameterError(f"{self.name}: input {shape} is not (..., {self.w.shape[1]})")
        return shape[:-1]

    def _cols(self, x):
        return x

    def _uncols(self, dcols, shape):
        return dcols


class ReLU(Layer):
    def forward(self, x, ctx, sizes=None):
        if ctx.train:
            # C order whatever x's layout: the gradient it meets is C-contiguous
            self._mask = np.greater(x, 0, order="C")
        return np.maximum(x, 0)

    def backward(self, dy, input_grad=True):
        return dy * self._mask


class AvgPool2d(Layer):
    """Non-overlapping pooling; spatial dims must divide the window."""

    def __init__(self, name, k):
        super().__init__(name)
        self.k = k

    def forward(self, x, ctx, sizes=None):
        n, c, h, w = x.shape
        k = self.k
        if h % k or w % k:
            raise ParameterError(f"avgpool window {k} does not tile input {h}x{w}")
        # Each window row left to right, then the rows top to bottom, so the
        # bits do not depend on x's memory layout; for k = 2 that is
        # ((a + b) + (c + d)) / 4, numpy mean's order when Wo > 1. The adds
        # run through views of x (a conv's NHWC memory is not copied); a
        # generator, not a list, frees each row sum once it is added.
        x = x.reshape(n, c, h // k, k, w // k, k)
        rows = (functools.reduce(np.add, (x[:, :, :, i, :, j] for j in range(k)))
                for i in range(k))
        return functools.reduce(np.add, rows) / (k * k)

    def backward(self, dy, input_grad=True):
        k = self.k
        up = np.repeat(np.repeat(dy, k, axis=2), k, axis=3)
        return up / (k * k)


class Flatten(Layer):
    def forward(self, x, ctx, sizes=None):
        self._in_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dy, input_grad=True):
        return dy.reshape(self._in_shape)


class Model(Layer):
    """Layers run in order: a whole graph (a cluster's holds its ClusterModel),
    a multi-layer expert, a cluster gateway or replica. A whole graph's model
    (every one `build_model` returns) has an `input_shape` and rejects input
    that is misshapen, not floating point or not finite, or an empty batch,
    before any layer runs. A nested one (None) just runs its layers on what
    its graph passed on."""

    def __init__(self, name, layers, input_shape=None):
        super().__init__(name)
        self.layers = list(layers)
        self.input_shape = input_shape

    def children(self):
        return self.layers

    def forward(self, x, ctx, sizes=None):
        _split(self, x, ctx, sizes)
        if self.input_shape is not None:
            if x.shape[1:] != tuple(self.input_shape):
                raise ParameterError(f"{self.name}: input {x.shape} is not "
                                     f"(N, {', '.join(map(str, self.input_shape))})")
            if not len(x) or (sizes is not None and 0 in sizes):
                raise ParameterError(f"{self.name}: empty batch")
            if x.dtype.kind != "f":
                raise ParameterError(f"{self.name}: input must be floating point, got {x.dtype}")
            if not np.isfinite(x).all():
                raise NumericError(f"{self.name}: input contains non-finite values")
        for layer in self.layers:
            x = layer.forward(x, ctx, sizes)
        return x

    def backward(self, dy, input_grad=True):
        """With input_grad=False, layers below the first parameterized one
        get no backward, and that layer computes only its `grads`."""
        first = 0 if input_grad else next(
            (i for i, layer in enumerate(self.layers) if layer.params()), len(self.layers))
        for i in reversed(range(first, len(self.layers))):
            dy = self.layers[i].backward(dy, input_grad or i > first)
        return dy if input_grad else None


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------

def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over the batch. Returns (loss, dloss/dlogits).
    Each of the N labels must be an integer class in 0..C-1."""
    n, c = logits.shape
    labels = np.asarray(labels)
    if labels.dtype.kind not in "iu" or labels.shape != (n,):
        raise ParameterError(f"labels must be {n} integers, got {labels.dtype} {labels.shape}")
    if n and not (0 <= labels.min() and labels.max() < c):
        raise ParameterError(f"labels must be classes 0..{c - 1}, got "
                             f"{labels.min()}..{labels.max()}")
    p = stable_softmax(logits.astype(np.float64))
    eps = np.finfo(np.float64).tiny
    loss = float(-np.log(p[np.arange(n), labels] + eps).mean())
    dlogits = p.copy()
    dlogits[np.arange(n), labels] -= 1.0
    return loss, (dlogits / n).astype(logits.dtype)
