"""Quantized engine: codecs, LUT matmul, layer forward/backward math."""

import functools
import gc
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from axmoe import engine
from axmoe.engine import (INT32_MAX, QMAX, AvgPool2d, Conv2d, Flatten, Linear, Model, QuantParams,
                          ReLU, RunContext, _accumulator, _add_bias, _Affine, _blocks,
                          _lut_code_table, _lut_gather, _rank1_gemm, col2im, dequantize, im2col,
                          lut_matmul, quantize, softmax_cross_entropy, stable_softmax)
from axmoe.errors import NumericError, ParameterError
from axmoe.multipliers import (AxMultiplier, build_exact_multiplier,
                               build_truncation_multiplier, builtin_multiplier, lut_index)
from test_moe import _assert_grad_close, _central_differences

EXACT = build_exact_multiplier()


# ---------------------------------------------------------------------------
# codec
# ---------------------------------------------------------------------------

def _round_half_away(x: np.ndarray) -> np.ndarray:
    # np.round ties to even; the codec pins ties away from zero instead.
    return np.trunc(x + np.copysign(0.5, x))


def test_quantize_scale_and_range():
    rng = np.random.default_rng(0)
    for _ in range(20):
        t = rng.normal(scale=rng.uniform(0.01, 30.0), size=(17, 5))
        codes, qp = quantize(t)
        assert codes.dtype == np.int8
        assert qp.scale == pytest.approx(np.abs(t).max() / 127.0)
        assert codes.min() >= -127 and codes.max() <= 127
        # max-magnitude element maps to +-127 exactly
        flat = np.argmax(np.abs(t))
        assert abs(codes.reshape(-1)[flat]) == 127


def test_quantize_all_zero_uses_unit_scale():
    codes, qp = quantize(np.zeros((3, 4)))
    assert qp.scale == 1.0
    assert not codes.any()


def test_quantize_ties_round_away_from_zero():
    # scale is 1.0 (max|t| = 127): values land exactly on half-code boundaries
    t = np.array([0.5, -0.5, 2.5, -2.5, 126.5, 127.0])
    codes, qp = quantize(t)
    assert qp.scale == 1.0
    assert codes.tolist() == [1, -1, 3, -3, 127, 127]


def test_quantize_rejects_non_finite():
    for dtype in (np.float32, np.float64):
        for value in (np.nan, np.inf, -np.inf):
            for at in (0, 3, -1):  # first, middle and last
                t = np.linspace(-2.0, 3.0, 7).astype(dtype)
                t[at] = value
                with pytest.raises(NumericError):
                    quantize(t)


@pytest.mark.parametrize("dtype, values", [
    (dtype, values) for dtype in (np.float32, np.float64) for values in (
        [1e-43, -5e-44, 0.0],  # float32 max code was 71
        [1e-45],  # the float32 scale was 0: a division by zero, then NaN codes
        [0.0, -1e-45],
        [2e-38, -1e-39, 3e-41],  # just below 127 times float32's smallest normal
    )] + [
    (np.float64, [1e-310, -3e-311]),  # a subnormal float64 scale
    (np.float64, [1e-321, 2e-322]),
])
def test_quantize_reaches_the_full_range_on_tiny_tensors(dtype, values):
    t = np.array(values, dtype=dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        codes, qp = quantize(t)
    at = np.argmax(np.abs(t))
    assert codes[at] == np.sign(t[at]) * QMAX
    assert qp.scale == float(np.abs(t).max()) / QMAX
    # half a step, plus the rounding of a subnormal float64 scale, times 127
    err = np.abs(dequantize(codes, qp) - t.astype(np.float64))
    assert (err <= qp.scale * (0.5 + 1e-9) + QMAX * np.spacing(qp.scale)).all()


def test_quantize_codes_of_normal_scales_keep_their_bits():
    for dtype in (np.float32, np.float64):
        tiny = float(np.finfo(dtype).tiny)
        for amax in (tiny * QMAX, np.nextafter(tiny * QMAX, 1.0), 1e-30, 0.37, 3e4):
            # values on every half step, where a division in another type
            # rounds to the other code
            t = ((np.arange(-QMAX, QMAX) + 0.5) * (amax / QMAX)).astype(dtype)
            t[0] = amax
            scale = float(np.abs(t).max()) / QMAX
            assert scale >= tiny  # the smallest normal scales, and common ones
            want = np.clip(_round_half_away(t / scale), -QMAX, QMAX).astype(np.int8)
            assert quantize(t)[0].tobytes() == want.tobytes()


def test_quantize_rejects_a_tensor_too_small_for_any_scale():
    # max|t| / 127 rounds to 0 in float64 below 64 * 2^-1074
    with pytest.raises(NumericError):
        quantize(np.array([5e-324, 0.0]))


def _quantize_reference(t: np.ndarray):
    """The codec as first written: max|t| through abs, then ties away from
    zero through copysign, clipped to the symmetric range. (codes, scale),
    or None where quantize must raise."""
    amax = float(np.max(np.abs(t)))
    scale = amax / QMAX if amax > 0 else 1.0
    if scale == 0:
        return None
    if scale < np.finfo(np.result_type(t, scale)).tiny:
        lift = -np.frexp(amax)[1]
        x = np.ldexp(t.astype(np.float64), lift) / (np.ldexp(amax, lift) / QMAX)
    else:
        x = t / scale
    return np.clip(_round_half_away(x), -QMAX, QMAX).astype(np.int8), scale


@st.composite
def _codec_inputs(draw):
    """Float32 and float64 tensors of 1 to 40 elements: arbitrary finite
    values, values on exact half-code ties, signed zeros, all-negative
    tensors, tensors small enough that the scale must be lifted, and
    non-negative tensors (min >= 0, as ReLU outputs and clipped images are)
    that mix ties, -0.0 and tiny values."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["any", "ties", "zeros", "negative", "tiny", "nonnegative"]))
    width = 32 if dtype == np.float32 else 64

    def floats(bound, low=None):  # bounds the drawn width holds exactly
        bound = float(dtype(bound))
        return st.floats(-bound if low is None else float(dtype(low)), bound, width=width)

    if kind == "ties":
        # (c + 1/2) * max / 127 for integer c, with max itself present
        amax = draw(floats(1e30, low=1e-30))
        half = np.array(draw(st.lists(st.integers(-QMAX, QMAX - 1), min_size=n, max_size=n)))
        t = ((half + 0.5) * (amax / QMAX)).astype(dtype)
        t[draw(st.integers(0, n - 1))] = draw(st.sampled_from([amax, -amax]))
        return t
    if kind == "zeros":
        return np.array(draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=n, max_size=n)),
                        dtype=dtype)
    if kind == "nonnegative":
        # a max of any size or one below 127 times the smallest normal; each
        # other entry up to it, on a half-code tie below it, or -0.0
        top = draw(st.sampled_from([1e30, 127 * float(np.finfo(dtype).tiny)]))
        amax = draw(floats(top, low=0.0))
        ties = ((np.arange(QMAX) + 0.5) * (amax / QMAX)).astype(dtype).tolist()
        entry = st.one_of(floats(amax, low=0.0), st.sampled_from(ties), st.just(-0.0))
        t = np.array(draw(st.lists(entry, min_size=n, max_size=n)), dtype=dtype)
        t[draw(st.integers(0, n - 1))] = amax
        return t
    # below 127 times the smallest normal, so max|t| / 127 is subnormal
    bound = 127 * float(np.finfo(dtype).tiny) if kind == "tiny" else 1e30
    values = draw(st.lists(floats(bound), min_size=n, max_size=n))
    t = np.array(values, dtype=dtype)
    return -np.abs(t) if kind == "negative" else t


@settings(max_examples=400, deadline=None, database=None)
@given(t=_codec_inputs())
@example(t=np.array([3.0], np.float32))
@example(t=np.array(-2.5, np.float32))  # 0-d
@example(t=np.array([-0.0], np.float64))
@example(t=np.array([-2.5, 0.5, -127.0], np.float32))
@example(t=np.array([1e-320, -3e-321]))
@example(t=np.array([-1e-45, 0.0], np.float32))
# min >= 0: ties at scale 1 with -0.0 beside them, a -0.0 minimum under a
# lifted scale, and a 0-d tie
@example(t=np.array([0.5, -0.0, 2.5, 126.5, 127.0, 0.0], np.float32))
@example(t=np.array([-0.0, 3e-321, 1e-320]))
@example(t=np.array(0.5))
def test_quantize_equals_the_round_half_away_reference(t):
    want = _quantize_reference(t)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if want is None:
            with pytest.raises(NumericError):
                quantize(t)
            return
        codes, qp = quantize(t)
    assert codes.dtype == np.int8 and codes.shape == t.shape
    assert codes.tobytes() == want[0].tobytes()
    assert qp.scale == want[1]


def test_quantize_takes_integer_tensors_at_their_minimum():
    # |-128| wraps to -128 in int8, and so does -(-128)
    codes, qp = quantize(np.array([-128, 5], np.int8))
    assert qp.scale == 128 / QMAX and codes.tolist() == [-127, 5]


def test_dequantize_round_trip_error_is_at_most_half_step():
    rng = np.random.default_rng(1)
    t = rng.normal(size=200)
    codes, qp = quantize(t)
    err = np.abs(dequantize(codes, qp) - t)
    assert err.max() <= qp.scale / 2 + 1e-12


def test_quant_params_validation():
    with pytest.raises(ParameterError):
        QuantParams(0.0)
    with pytest.raises(ParameterError):
        QuantParams(float("inf"))


# ---------------------------------------------------------------------------
# LUT matmul
# ---------------------------------------------------------------------------

def test_lut_matmul_equals_integer_matmul():
    rng = np.random.default_rng(2)
    shapes = [tuple(rng.integers(1, 24, size=3)) for _ in range(10)] + [(3, 0, 4)]
    for n, k, m in shapes:
        a = rng.integers(-128, 128, size=(n, k)).astype(np.int8)
        b = rng.integers(-128, 128, size=(m, k)).astype(np.int8)
        got = lut_matmul(a, b, EXACT)
        want = a.astype(np.int64) @ b.astype(np.int64).T
        assert got.dtype == np.int32
        assert np.array_equal(got, want)


def test_lut_matmul_shape_and_dtype_errors():
    a = np.zeros((2, 3), dtype=np.int8)
    with pytest.raises(ParameterError):
        lut_matmul(a, np.zeros((2, 4), dtype=np.int8), EXACT)
    with pytest.raises(ParameterError):
        lut_matmul(a.astype(np.float32), a, EXACT)
    wide = np.full((1, 3), 300, dtype=np.int32)
    with pytest.raises(ParameterError):
        lut_matmul(wide, a, EXACT)


def _bent(m: AxMultiplier) -> AxMultiplier:
    """`m` with one changed entry, (0, 1), which the tests' operands never
    use: the same sums, but through a rank-2 table."""
    lut = m.lut.copy()
    lut[lut_index(0, 1)] = 0 if lut[lut_index(0, 1)] else 1
    return AxMultiplier(f"bent_{m.name}", 1.0, lut)


def test_lut_matmul_overflow_detection():
    k = 140_000  # 140000 * 127 * 127 > 2^31 - 1
    a = np.full((1, k), 127, dtype=np.int8)
    with pytest.raises(NumericError):
        lut_matmul(a, a, EXACT)
    bent = _bent(EXACT)
    assert EXACT.rank1 is not None and bent.rank1 is None
    for m in (EXACT, bent):
        with pytest.raises(NumericError):
            lut_matmul(a, -a, m)
    # Every product of a constant table is max|L|, so each sum is K * max|L|:
    # the last K that fits int32 must give exact sums, one more must raise.
    flat = AxMultiplier("flat", 1.0, np.full(256 * 256, 32767, dtype=np.int16))
    k = INT32_MAX // flat.max_abs
    assert flat.rank1 is not None and _bent(flat).rank1 is None
    for m, n in ((flat, 1), (_bent(flat), 1), (_bent(flat), 512)):  # GEMM, gather, code table
        b = np.full((2, k + 1), 5, dtype=np.int8)
        a = np.full((n, k + 1), 5, dtype=np.int8)
        a[:, ::2] = 6  # two codes: one row gathers, 512 rows build the code table
        got = lut_matmul(a[:, :k], b[:, :k], m)
        assert got.dtype == np.int32 and (got == k * flat.max_abs).all(), m.name
        with pytest.raises(NumericError):
            lut_matmul(a, b, m)


# Tables built here rather than by the package: one more rank-1 design that
# is not a truncation, and three that must keep the gather.

def _signed_table(magnitude_product) -> np.ndarray:
    ops = np.arange(-128, 128)
    mag = np.abs(ops)
    sign = np.multiply.outer(np.sign(ops), np.sign(ops))
    return (sign * magnitude_product(mag[:, None], mag[None, :])).astype(np.int16).ravel()


def _drum(mag, k=4):
    """DRUM-k (Hashemi et al., ICCAD 2015): keep the k bits from the leading
    one down, with the lowest kept bit forced to 1."""
    shift = np.maximum(np.floor(np.log2(np.maximum(mag, 1))).astype(int) - k + 1, 0)
    return np.where(shift > 0, ((mag >> shift) | 1) << shift, mag)


def _mitchell(x, y):
    """Mitchell's (1962) logarithmic product of magnitudes, truncated."""
    kx = np.floor(np.log2(np.maximum(x, 1)))
    ky = np.floor(np.log2(np.maximum(y, 1)))
    s = (x / 2**kx - 1) + (y / 2**ky - 1)
    prod = np.where(s < 1, 2 ** (kx + ky) * (1 + s), 2 ** (kx + ky + 1) * s)
    return np.where((x == 0) | (y == 0), 0, np.floor(prod))


def _full_rank_table() -> np.ndarray:
    rng = np.random.default_rng(11)
    lut = EXACT.lut.astype(np.int32)
    hit = rng.random(lut.shape) < 0.05
    return (lut + hit * rng.integers(-8, 9, size=lut.shape)).astype(np.int16)


BUILTINS = ("exact", *(f"trunc{k}" for k in range(1, 8)))
RANK1_TABLES = {name: builtin_multiplier(name) for name in BUILTINS}
RANK1_TABLES["drum4"] = AxMultiplier("drum4", 1.0, _signed_table(lambda x, y: _drum(x) * _drum(y)))
# L[a, b] = a * (b // 2): factors f != g, so g has a pair table of its own
RANK1_TABLES["half_b"] = AxMultiplier(
    "half_b", 1.0, np.multiply.outer(np.arange(-128, 128), np.arange(-128, 128) // 2)
    .astype(np.int16).ravel())
GATHER_TABLES = {
    "mitchell": AxMultiplier("mitchell", 1.0, _signed_table(_mitchell)),
    "full_rank": AxMultiplier("full_rank", 1.0, _full_rank_table()),
    "zero": AxMultiplier("zero", 1.0, np.zeros(256 * 256, dtype=np.int16)),
}
TABLES = {**RANK1_TABLES, **GATHER_TABLES}

# The engine's first gather kernel, kept as the oracle every kernel is held
# to: table indices in chunks of 2^18, summed over K in int64.
_ORACLE_BUDGET = 1 << 18


def _oracle_gather(a: np.ndarray, b: np.ndarray, m: AxMultiplier) -> np.ndarray:
    """(N, M) int64 sums of m.lut over every operand pair: the kernel for any
    table, and the oracle for the rank-1 GEMM."""
    n, k = a.shape
    mrows = b.shape[0]
    out = np.empty((n, mrows), dtype=np.int64)
    chunk = max(1, _ORACLE_BUDGET // max(1, mrows * k))
    for start in range(0, n, chunk):
        stop = min(n, start + chunk)
        idx = lut_index(a[start:stop, None, :], b[None, :, :])
        out[start:stop] = m.lut[idx].sum(axis=2, dtype=np.int64)
    return out


def test_factored_tables_reproduce_their_products():
    by_byte = np.arange(-128, 128).astype(np.int8).view(np.uint8)
    for name, m in RANK1_TABLES.items():
        f, g, q = m.rank1
        assert isinstance(q, int) and q != 0, name
        fi, gi = f.astype(np.int64), g.astype(np.int64)
        assert np.array_equal(fi, f) and np.array_equal(gi, g), name  # integers
        assert np.gcd.reduce(fi) == 1 and np.gcd.reduce(gi) == 1, name
        table = m.lut.reshape(256, 256).astype(np.int64)
        assert np.array_equal(q * np.multiply.outer(fi[by_byte], gi[by_byte]), table), name
        assert m.max_abs == abs(q) * np.abs(fi).max() * np.abs(gi).max(), name
    codes = np.arange(-128, 128)
    f, g, q = EXACT.rank1
    assert abs(q) == 1 and np.array_equal(np.abs(f[by_byte]), np.abs(codes))
    assert np.array_equal(np.abs(g[by_byte]), np.abs(codes))
    for name, m in GATHER_TABLES.items():
        assert m.rank1 is None, name


def test_rank1_pair_tables_hold_both_factors_of_every_code_pair():
    # every pair (c0, c1) of int8 codes, adjacent in memory as a kernel reads them
    codes = np.arange(-128, 128).astype(np.int8)
    pairs = np.stack(np.meshgrid(codes, codes, indexing="ij"), axis=-1).reshape(-1, 2)
    index = pairs.view("<u2").ravel()
    shared = {}
    for name, m in RANK1_TABLES.items():
        f, g, _ = m.rank1
        fp, gp = m.rank1_pairs
        assert m.rank1_pairs is m.rank1_pairs, name  # built once
        shared[name] = fp is gp
        assert shared[name] == np.array_equal(f, g), name
        for table, v in ((fp, f), (gp, g)):
            assert table.dtype == np.uint64 and table.shape == (256 * 256,), name
            assert not table.flags.writeable, name
            with pytest.raises(ValueError):
                table[0] = 0
            got = table[index].view(np.float32).reshape(-1, 2)
            assert got.tobytes() == v[pairs.view(np.uint8)].tobytes(), name
    assert not shared["half_b"] and all(shared[name] for name in BUILTINS)
    for name, m in GATHER_TABLES.items():
        assert m.rank1_pairs is None, name


def _laid_out(x: np.ndarray, layout: str) -> np.ndarray:
    """x's values in C order, in F order (a transpose's memory) or as every
    other column of a wider array."""
    if layout == "transposed":
        return np.asfortranarray(x)
    if layout == "strided":
        wide = np.zeros((x.shape[0], 2 * x.shape[1]), dtype=x.dtype)
        wide[:, ::2] = x
        return wide[:, ::2]
    return x


@st.composite
def _operands(draw):
    """Codes of every shape on both sides of the code-table rule, with
    K * M past the chunk budget, drawn uniformly, from the extremes, or
    (the activations) from a narrow span of codes, each operand C-contiguous
    or not."""
    n = draw(st.one_of(st.integers(0, 40), st.integers(500, 530)))
    k, mrows = draw(st.integers(0, 60)), draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = np.arange(-128, 128) if draw(st.booleans()) else np.array([-128, -127, -1, 0, 1, 127])
    lo = draw(st.integers(-128, 127))
    span = np.arange(lo, draw(st.integers(lo, min(127, lo + 40))) + 1)
    a = rng.choice(span if draw(st.booleans()) else pool, size=(n, k)).astype(np.int8)
    b = rng.choice(pool, size=(mrows, k)).astype(np.int8)
    layouts = st.sampled_from(["c", "transposed", "strided"])
    return _laid_out(a, draw(layouts)), _laid_out(b, draw(layouts))


def _full_range(n, k, mrows):
    """Seeded codes over the whole int8 range."""
    rng = np.random.default_rng(0)
    return (rng.integers(-128, 128, size=(n, k)).astype(np.int8),
            rng.integers(-128, 128, size=(mrows, k)).astype(np.int8))


def _spanning(n, k, mrows, lo, hi):
    """Seeded activation codes whose span is exactly [lo, hi] (n * k >= 2),
    against weight codes over the whole int8 range."""
    rng = np.random.default_rng(2)
    a = rng.integers(lo, hi + 1, size=(n, k)).astype(np.int8)
    a.flat[:2] = lo, hi
    return a, rng.integers(-128, 128, size=(mrows, k)).astype(np.int8)


def _near_the_bound(n, k, mrows):
    """Seeded codes in {-128, -127}: every product is near max|L| and of one
    sign, so the sums approach K * max|L| and, past 2^24, hold odd parts
    that float32 would round."""
    rng = np.random.default_rng(1)
    codes = np.array([-128, -127], dtype=np.int8)
    return rng.choice(codes, size=(n, k)), rng.choice(codes, size=(mrows, k))


KERNELS = {"gemm": _rank1_gemm, "code_table": _lut_code_table, "gather": _lut_gather}


def _expected_kernel(name, a):
    """The GEMM for a rank-1 table; else the code table once the call has
    as many rows as its activations span codes, N >= max - min + 1, which
    an empty call never has; else the gather."""
    if name in RANK1_TABLES:
        return "gemm"
    if a.size and len(a) >= int(a.max()) - int(a.min()) + 1:
        return "code_table"
    return "gather"


def _expected_accumulator(m, k):
    """float32 exactly when K times the largest product a kernel sums stays
    below 2^24: max|f| * max|g| for a factored table, max|L| otherwise."""
    if m.rank1 is not None:
        f, g, _ = m.rank1
        bound = int(np.abs(f).max()) * int(np.abs(g).max())
    else:
        bound = int(np.abs(m.lut.astype(np.int64)).max())
    return np.float32 if k * bound < 2**24 else np.float64


@settings(max_examples=300, deadline=None, database=None)
@given(name=st.sampled_from(sorted(TABLES)), operands=_operands())
@example(name="exact", operands=_full_range(32, 4096, 4))
@example(name="drum4", operands=_full_range(32, 4096, 4))
@example(name="exact", operands=(np.zeros((0, 5), np.int8), np.ones((3, 5), np.int8)))
@example(name="trunc2", operands=(np.ones((4, 0), np.int8), np.ones((3, 0), np.int8)))
@example(name="mitchell", operands=(np.zeros((0, 5), np.int8), np.ones((3, 5), np.int8)))
@example(name="full_rank", operands=(np.ones((4, 0), np.int8), np.ones((3, 0), np.int8)))
@example(name="full_rank", operands=(np.ones((512, 0), np.int8), np.ones((3, 0), np.int8)))
@example(name="zero", operands=(np.ones((600, 7), np.int8), np.ones((0, 7), np.int8)))
@example(name="mitchell", operands=_full_range(255, 60, 12))
@example(name="full_rank", operands=_full_range(256, 60, 12))  # 256 * K * M > budget
@example(name="trunc5", operands=_full_range(530, 60, 12))
@example(name="full_rank", operands=_full_range(512, 3, 600))  # more columns than one block
# Narrow spans on each side of the rule, N = codes - 1 and N = codes: a ReLU
# output's 0..127 (its table half the height), an all-negative span, and one
# repeated code, a table of one row.
@example(name="full_rank", operands=_spanning(127, 60, 12, 0, 127))
@example(name="full_rank", operands=_spanning(128, 60, 12, 0, 127))
@example(name="mitchell", operands=_spanning(300, 784, 32, 0, 127))  # K * M past the budget
@example(name="mitchell", operands=_spanning(27, 30, 5, -128, -101))
@example(name="mitchell", operands=_spanning(28, 30, 5, -128, -101))
@example(name="full_rank", operands=_spanning(1, 40, 6, 5, 5))
@example(name="zero", operands=_spanning(4, 40, 6, -7, -7))
@example(name="full_rank", operands=_spanning(1, 40, 6, 5, 6))
@example(name="full_rank", operands=_spanning(2, 40, 6, 5, 6))
# Both sides of the float32 bound, K * max|f| * max|g| < 2^24 for the GEMM and
# K * max|L| < 2^24 for the gather and the code table (K < 1024 for these
# tables), and K = 2048, where float32 sums would round.
@example(name="exact", operands=_near_the_bound(8, 1023, 3))
@example(name="exact", operands=_near_the_bound(8, 1024, 3))
@example(name="exact", operands=_near_the_bound(8, 2048, 3))
@example(name="full_rank", operands=_near_the_bound(8, 1023, 3))
@example(name="full_rank", operands=_near_the_bound(8, 1024, 3))
@example(name="full_rank", operands=_near_the_bound(8, 2048, 3))
@example(name="mitchell", operands=_near_the_bound(512, 1023, 2))
@example(name="mitchell", operands=_near_the_bound(512, 1024, 2))
@example(name="mitchell", operands=_near_the_bound(512, 2048, 2))
def test_lut_matmul_equals_the_gather_bit_for_bit(name, operands):
    a, b = operands
    m = TABLES[name]
    picked = []

    def accumulator(k, bound):
        picked.append(_accumulator(k, bound))
        return picked[-1]

    with mock.patch.multiple(engine, **{f.__name__: mock.DEFAULT for f in KERNELS.values()}) as ran:
        for f in KERNELS.values():
            ran[f.__name__].side_effect = f
        with mock.patch.object(engine, "_accumulator", accumulator):
            got = lut_matmul(a, b, m)
    took = {kernel for kernel, f in KERNELS.items() if ran[f.__name__].called}
    assert took == {_expected_kernel(name, a)}
    assert picked == [_expected_accumulator(m, a.shape[1])]
    assert got.dtype == np.int32 and got.shape == (a.shape[0], b.shape[0])
    assert np.array_equal(got, _oracle_gather(a, b, m))


def _traced_peak(kernel, *args):
    """The most bytes a call held at once, and what it returned."""
    tracemalloc.start()
    try:
        out = kernel(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, out


def test_lut_gather_memory_does_not_follow_the_call_shape():
    for shape in (
        (256, 784, 32),  # in one chunk: 64 MB of table indices and products
        (8, 4608, 512),  # VGG-sized, K * M past the budget: 28 MB in one output row
    ):
        peak, _ = _traced_peak(_lut_gather, *_full_range(*shape), TABLES["full_rank"])
        assert peak < 4 * 2**20, shape


def test_rank1_gemm_memory_does_not_follow_the_call_shape():
    # toy_cnn's conv2 at an evaluation batch of 200. Whole, the call held an
    # intp copy of the codes, their float32 factors and a float64 result.
    a, b = _full_range(12800, 72, 16)
    peak, out = _traced_peak(lut_matmul, a, b, RANK1_TABLES["trunc2"])
    assert out.dtype == np.int32 and peak < 2 * 2**20


@pytest.mark.parametrize("name, q", [("exact", 1), ("trunc2", 16), ("trunc4", 256)])
def test_rank1_gemm_scales_by_q_up_to_the_int32_bound(name, q):
    # Every product of codes (-128, -128) is max|L| = 16384 and every factor
    # product max|f| * max|g| = 16384 / q. At the first K whose sums are
    # scanned, K * max|L| is 2^31: one zero code per row brings the sum back
    # to 2^31 - 16384, which fits, while a full row overflows only once its
    # factor sum, which fits int32 by far, is scaled by q.
    m = RANK1_TABLES[name]
    assert m.rank1[2] == q and m.max_abs == 16384
    k = INT32_MAX // m.max_abs + 1
    a = np.full((5, k), -128, np.int8)
    b = np.full((3, k), -128, np.int8)
    a[np.arange(4), np.arange(4)] = 0
    b[1, -1] = 127  # negative products: a sum of -(k - 2) * |L(-128, 127)|
    blocks, recording = _recording_stores()
    with mock.patch.object(engine, "_GATHER_BUDGET", 2 * k), recording:
        got = _rank1_gemm(a[:4], b, m)
    assert got.dtype == np.int32 and np.array_equal(got, _oracle_gather(a[:4], b, m))
    assert got.max() == INT32_MAX - 16383
    written = np.zeros(got.shape, dtype=int)
    for at in blocks:
        written[at] += 1
    assert (written == 1).all() and len(blocks) == 2
    with pytest.raises(NumericError):
        _rank1_gemm(a, b, m)


# Budgets small enough that every kernel runs many blocks, the last of each
# run short: gather and GEMM blocks of a few rows (and gather blocks of a few
# columns), code-table blocks of up to 7 columns, a few weight positions and
# a few hundred rows.
_SMALL_BUDGETS = {"_GATHER_BUDGET": 100, "_CODE_TABLE_BUDGET": 256 * 7}


def _recording_stores():
    """A patch of engine._store that records where each block was written."""
    blocks = []

    def store(out, at, sums, *scan_and_q):
        blocks.append(at)
        return _store(out, at, sums, *scan_and_q)

    _store = engine._store
    return blocks, mock.patch.object(engine, "_store", store)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
# (22, 9, 13): K = 9 and 100 // 13 = 7 rows per rank-1 block, so every block
# (7, 7, 7 and 1 rows) and b hold an odd number of codes
@pytest.mark.parametrize("shape", [(37, 5, 10), (601, 5, 10), (13, 23, 9), (5, 40, 15),
                                   (22, 9, 13)])
def test_kernels_in_many_ragged_blocks_equal_the_gather(kernel, shape):
    names = sorted(RANK1_TABLES) if kernel == "gemm" else ["mitchell", "full_rank", "trunc3"]
    a, b = _full_range(*shape)
    for name in names:
        m = TABLES[name]
        blocks, recording = _recording_stores()
        with mock.patch.multiple(engine, **_SMALL_BUDGETS), recording:
            got = KERNELS[kernel](a, b, m)
        assert got.dtype == np.int32 and np.array_equal(got, _oracle_gather(a, b, m)), name
        # every output entry written by exactly one of several blocks
        written = np.zeros(got.shape, dtype=int)
        for at in blocks:
            written[at] += 1
        assert (written == 1).all() and len(blocks) > 1, name
        assert len({written[at].size for at in blocks}) > 1, name  # some block is short
        if kernel == "gemm" and shape == (22, 9, 13):  # each factor lookup's count is odd
            assert all(len(written[at]) * 9 % 2 for at in blocks) and b.size % 2, name


@settings(max_examples=300, deadline=None, database=None)
@given(n=st.integers(0, 300), size=st.integers(0, 3000), budget=st.integers(1, 1 << 16))
@example(n=0, size=0, budget=1)
@example(n=5, size=0, budget=3)
@example(n=7, size=100, budget=9)  # one item over budget: blocks of one
def test_blocks_partition_the_items_in_order_within_the_budget(n, size, budget):
    blocks = list(_blocks(n, size, budget))
    items = [range(n)[at] for at in blocks]
    assert [i for block in items for i in block] == list(range(n))
    for block in items:
        assert len(block) >= 1
        assert len(block) * size <= budget or len(block) == 1
    # every block but the last is as large as the budget allows, an item of
    # no entries counting as one
    for block in items[:-1]:
        assert len(block) == len(items[0]) and (len(block) + 1) * max(1, size) > budget


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_an_overflow_in_a_middle_block_raises(kernel):
    # Only out[4, 4] overflows: a narrower accumulator (|sum| <= 30000) makes
    # 4 * 100 * 100 too large, and small budgets put that entry in a block
    # that is neither the first nor the last: the GEMM writes rows one at a
    # time, the gather a row of two columns, the code table three columns
    # (its blocks hold budget / codes columns, and a spans the 101 codes 0..100).
    a = np.zeros((9, 4), np.int8)
    b = np.zeros((9, 4), np.int8)
    a[4], b[4] = 100, 100
    m = EXACT if kernel == "gemm" else _bent(EXACT)
    blocks, recording = _recording_stores()
    with mock.patch.multiple(engine, INT32_MAX=30_000, INT32_MIN=-30_001, _GATHER_BUDGET=9,
                             _CODE_TABLE_BUDGET=101 * 3):
        KERNELS[kernel](a // 2, b, m)  # every sum at most 4 * 50 * 100: no overflow
        blocks.clear()
        with recording, pytest.raises(NumericError):
            KERNELS[kernel](a, b, m)
    hit = np.zeros((9, 9), dtype=bool)
    hit[blocks[-1]] = True
    assert hit[4, 4] and not hit[0, 0] and not hit[8, 8] and len(blocks) > 1
    assert hit.sum() == {"gemm": 9, "gather": 2, "code_table": 9 * 3}[kernel]  # the sizes above


@pytest.mark.parametrize("shape", [
    (16384, 72, 16),  # in one chunk: 9.4 MB of row indices, 38 MB of gathered products
    (1024, 784, 32),  # in one block: a 51 MB table index
])
def test_lut_code_table_memory_does_not_follow_the_call_shape(shape):
    # Measured above the (N, M) int64 output, which follows the shape by design.
    peak, out = _traced_peak(_lut_code_table, *_full_range(*shape), TABLES["full_rank"])
    assert peak - out.nbytes < 4 * 2**20


@pytest.mark.parametrize("shape", [(16384, 72, 16), (1024, 784, 32)])
def test_lut_code_table_memory_on_a_relu_span_does_not_follow_the_call_shape(shape):
    # Codes 0..127, as every approximate layer's input has: a table half the
    # height, so each block holds twice the weight positions.
    a, b = _spanning(*shape, 0, 127)
    peak, out = _traced_peak(_lut_code_table, a, b, TABLES["full_rank"])
    assert peak - out.nbytes < 4 * 2**20
    assert np.array_equal(out[:64], _oracle_gather(a[:64], b, TABLES["full_rank"]))


def test_lut_matmul_never_runs_on_a_dropped_table():
    # A factor cache keyed on id(m.lut) runs a new table on the factors of
    # a collected one whenever the id is reused.
    rng = np.random.default_rng(5)
    a = rng.integers(-127, 128, size=(64, 30)).astype(np.int8)
    b = rng.integers(-127, 128, size=(8, 30)).astype(np.int8)
    for _ in range(5):
        for name in BUILTINS:
            m = builtin_multiplier(name)
            assert np.array_equal(lut_matmul(a, b, m), _oracle_gather(a, b, m)), name
            del m
        gc.collect()


def test_lut_matmul_routes_through_the_table():
    tr = build_truncation_multiplier(3)
    a = np.array([[7, -9]], dtype=np.int8)  # |7| truncates to 0, |-9| to -8
    b = np.array([[5, 16]], dtype=np.int8)
    got = lut_matmul(a, b, tr)
    assert got[0, 0] == 0 * 0 + (-8) * 16


# ---------------------------------------------------------------------------
# im2col / col2im
# ---------------------------------------------------------------------------

def test_im2col_col2im_are_adjoint():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n, c, h, w = 2, rng.integers(1, 4), rng.integers(4, 9), rng.integers(4, 9)
        kh, kw = rng.integers(1, 4), rng.integers(1, 4)
        sh, sw = rng.integers(1, 3), rng.integers(1, 3)
        ph, pw = rng.integers(0, 2), rng.integers(0, 2)
        if h + 2 * ph < kh or w + 2 * pw < kw:
            continue
        x = rng.normal(size=(n, c, h, w))
        cols = im2col(x, (kh, kw), (sh, sw), (ph, pw))
        y = rng.normal(size=cols.shape)
        lhs = float((cols * y).sum())
        rhs = float((x * col2im(y, x.shape, (kh, kw), (sh, sw), (ph, pw))).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)


def _im2col_oracle(x, kernel, stride, padding):
    """im2col as a transposed copy of a 6-D sliding-window view."""
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    if ph or pw:
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    win = win[:, :, ::sh, ::sw]  # (N, C, Ho, Wo, kh, kw)
    return np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5))


def _col2im_oracle(dcols, x_shape, kernel, stride, padding):
    """col2im accumulated in NCHW through a transposed view of the columns."""
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


@st.composite
def _conv_geometry(draw):
    kernel = (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    stride = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    padding = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
    h = draw(st.integers(max(1, kernel[0] - 2 * padding[0]), 9))
    w = draw(st.integers(max(1, kernel[1] - 2 * padding[1]), 9))
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 5)), h, w)
    return shape, kernel, stride, padding


def _spread(rng, shape, dtype):
    """Values over many binades, so any change in summation order shows."""
    if dtype == np.int8:
        return rng.integers(-128, 128, size=shape).astype(np.int8)
    return (rng.normal(size=shape) * 10.0 ** rng.uniform(-4, 4, size=shape)).astype(dtype)


@settings(max_examples=200, deadline=None, database=None)
@given(geometry=_conv_geometry(), seed=st.integers(0, 2**32 - 1))
@example(geometry=((2, 3, 7, 6), (3, 2), (2, 2), (0, 0)), seed=1)  # stride 2, no padding
@example(geometry=((0, 3, 5, 5), (3, 3), (1, 1), (1, 1)), seed=2)  # an empty batch
def test_im2col_and_col2im_equal_the_window_view_oracles(geometry, seed):
    shape, kernel, stride, padding = geometry
    rng = np.random.default_rng(seed)
    for dtype in (np.int8, np.float32, np.float64):
        x = _spread(rng, shape, dtype)
        # the same values as an NCHW view of NHWC memory, how a pool's
        # output of a conv reaches the next conv
        nhwc = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        want = _im2col_oracle(x, kernel, stride, padding)
        for view in (x, nhwc):
            cols = im2col(view, kernel, stride, padding)
            assert cols.dtype == want.dtype and cols.flags.c_contiguous
            assert cols.shape == want.shape and np.array_equal(cols, want)
        if dtype == np.int8:  # codes and floats fill the same positions
            assert np.array_equal(cols.astype(np.float32),
                                  im2col(x.astype(np.float32), kernel, stride, padding))
    for dtype in (np.float32, np.float64):
        dcols = _spread(rng, want.shape, dtype)
        dx = col2im(dcols, shape, kernel, stride, padding)
        want_dx = _col2im_oracle(dcols, shape, kernel, stride, padding)
        assert dx.dtype == want_dx.dtype and dx.shape == shape and dx.flags.c_contiguous
        assert dx.tobytes() == want_dx.tobytes()


def test_an_empty_batch_gives_empty_columns_and_an_empty_conv_output():
    w = np.ones((4, 2, 3, 3))
    for dtype in (np.int8, np.float32, np.float64):
        x = np.zeros((0, 2, 5, 6), dtype=dtype)
        cols = im2col(x, (3, 3), (2, 1), (1, 1))
        assert cols.shape == (0, 3, 6, 2, 3, 3) and cols.dtype == dtype
        if dtype == np.int8:  # a conv takes only floats; its LUT path lays out int8 codes
            x, ctxs = x.astype(np.float32), (RunContext(multiplier=EXACT),)
        else:
            ctxs = (RunContext(), RunContext(multiplier=EXACT))
        conv = Conv2d("conv", w.astype(x.dtype), np.zeros(4, x.dtype), (2, 1), (1, 1))
        for ctx in ctxs:
            y = conv.forward(x, ctx)
            assert y.shape == (0, 4, 3, 6) and y.dtype == x.dtype


def test_the_im2col_index_is_cached_read_only_and_bounded():
    assert 0 < engine._im2col_index.cache_info().maxsize <= 64
    x = _spread(np.random.default_rng(6), (3, 2, 6, 5), np.float32)
    geometry = (3, 2), (2, 1), (1, 0)
    want = _im2col_oracle(x, *geometry)
    engine._im2col_index.cache_clear()
    first = im2col(x, *geometry)
    first[...] = -1.0  # a result is the caller's own array
    assert np.array_equal(im2col(x, *geometry), want)
    info = engine._im2col_index.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    idx = engine._im2col_index(8, 5, 2, 3, 2, 2, 1, 3, 4)
    assert idx.dtype == np.intp and idx.shape == (3, 4, 2, 3, 2)
    assert not idx.flags.writeable
    with pytest.raises(ValueError):
        idx[0, 0, 0, 0, 0] = 0
    assert engine._im2col_index.cache_info().hits == 2


# ---------------------------------------------------------------------------
# float layer math against naive oracles
# ---------------------------------------------------------------------------

def _naive_conv(x, w, b, stride, padding):
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    sh, sw = stride
    ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (wd + 2 * pw - kw) // sw + 1
    out = np.zeros((n, cout, oh, ow))
    for ni in range(n):
        for oc in range(cout):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[ni, :, i * sh : i * sh + kh, j * sw : j * sw + kw]
                    out[ni, oc, i, j] = (patch * w[oc]).sum() + b[oc]
    return out


def test_conv2d_float_matches_naive_loop():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 4, 6, 5))
    w = rng.normal(size=(6, 4, 3, 2))
    b = rng.normal(size=6)
    for stride, padding in (((1, 1), (0, 0)), ((2, 1), (1, 1))):
        got = Conv2d("conv", w, b, stride, padding).forward(x, RunContext())
        want = _naive_conv(x, w, b, stride, padding)
        assert np.allclose(got, want, atol=1e-10)


def test_linear_float_matches_affine_oracle():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(7, 11))
    w = rng.normal(size=(3, 11))
    b = rng.normal(size=3)
    layer = Linear("linear", w, b)
    assert np.allclose(layer.forward(x, RunContext()), x @ w.T + b, atol=1e-12)
    # trailing-axis contraction on rank 3 input
    x3 = rng.normal(size=(2, 5, 11))
    assert np.allclose(layer.forward(x3, RunContext()), x3 @ w.T + b, atol=1e-12)


def test_input_smaller_than_kernel_raises_before_any_product():
    conv = Conv2d("conv", np.ones((2, 1, 3, 3)), np.zeros(2))
    for ctx in (RunContext(), RunContext(multiplier=EXACT)):
        with pytest.raises(ParameterError):
            conv.forward(np.ones((1, 1, 2, 4)), ctx)
        assert ctx.counters == {}


@pytest.mark.parametrize("kind", ["strided_conv", "token_linear"])
def test_affine_backward_matches_central_differences(kind):
    rng = np.random.default_rng(21)
    if kind == "strided_conv":
        layer = Conv2d("conv", rng.normal(size=(3, 2, 3, 2)) * 0.5, rng.normal(size=3),
                       stride=(2, 1), padding=(1, 0))
        x = rng.normal(size=(2, 2, 5, 4))
    else:
        layer = Linear("lin", rng.normal(size=(3, 4)) * 0.5, rng.normal(size=3))
        x = rng.normal(size=(2, 5, 4))
    y = layer.forward(x, RunContext(train=True))
    probe = rng.normal(size=y.shape)
    dx = layer.backward(probe)

    def loss():
        return float((layer.forward(x, RunContext()) * probe).sum())

    _assert_grad_close("x", dx, _central_differences(loss, x))
    for name, param in (("w", layer.w), ("b", layer.b)):
        _assert_grad_close(name, layer.grads[name], _central_differences(loss, param))


@pytest.mark.parametrize("mul", [None, EXACT], ids=["float", "exact"])
@pytest.mark.parametrize("kind", ["conv", "linear"])
def test_a_group_backward_sets_every_grad_before_it_is_iterated(kind, mul):
    rng = np.random.default_rng(23)
    if kind == "conv":
        layers = [Conv2d(f"c{i}", rng.normal(size=(2 + i, 3, 3, 3)), rng.normal(size=2 + i),
                         padding=(1, 1)) for i in range(3)]
        x = rng.normal(size=(4, 3, 5, 5))
    else:
        layers = [Linear(f"l{i}", rng.normal(size=(2 + i, 6)), rng.normal(size=2 + i))
                  for i in range(3)]
        x = rng.normal(size=(4, 6))
    dys = [rng.normal(size=y.shape)
           for y in _Affine.forward_group(layers, x, RunContext(mul, train=True))]
    want = []
    for layer, dy in zip(layers, dys):
        dx = layer.backward(dy)
        want.append((layer.grads, dx))
    for input_grad in (False, True):
        for layer in layers:
            layer.zero_grads()
        dxs = _Affine.backward_group(layers, dys, input_grad)
        for layer, (grads, _) in zip(layers, want):  # set before dxs is advanced
            assert grads.keys() == layer.grads.keys() == {"w", "b"}
            for name, g in grads.items():
                assert g.tobytes() == layer.grads[name].tobytes(), (layer.name, name)
        dxs = list(dxs)
        assert len(dxs) == (len(layers) if input_grad else 0)
        for dx, (_, alone) in zip(dxs, want):
            assert dx.tobytes() == alone.tobytes()


def test_a_model_without_parameters_runs_no_backward_without_the_input_gradient():
    model = Model("m", [AvgPool2d("pool", 2), ReLU("relu"), Flatten("flat")])
    x = np.random.default_rng(3).normal(size=(2, 3, 4, 4))
    y = model.forward(x, RunContext(train=True))
    spies = [mock.patch.object(type(layer), "backward", autospec=True,
                               side_effect=type(layer).backward) for layer in model.layers]
    with spies[0] as pool, spies[1] as relu, spies[2] as flat:
        assert model.backward(np.ones_like(y), input_grad=False) is None
        assert not (pool.called or relu.called or flat.called)
        assert model.backward(np.ones_like(y)).shape == x.shape
        assert pool.called and relu.called and flat.called


@pytest.mark.parametrize("dtypes", [(np.float32, np.float32), (np.float64, np.float64),
                                    (np.float64, np.float32), (np.float32, np.float64)])
def test_bias_add_over_wide_rows_equals_y_plus_b(dtypes):
    # The add is written into y, so y keeps its dtype: a float64 bias on
    # float32 rows adds in float64 and rounds once to float32.
    rng = np.random.default_rng(9)
    for rows in (1, 7, 63, 64, 100, 192, 51200):  # 51200: toy_cnn's conv1 at batch 200
        for cout in (1, 3, 8, 16):
            y = _spread(rng, (rows, cout), dtypes[0])
            b = _spread(rng, (cout,), dtypes[1])
            want = (y + b).astype(y.dtype)
            got = _add_bias(y.copy(), b)
            assert got.dtype == want.dtype and got.shape == want.shape, (rows, cout)
            assert got.tobytes() == want.tobytes(), (rows, cout)


def test_float32_layers_add_a_float64_bias_before_rounding():
    rng = np.random.default_rng(10)
    conv = Conv2d("conv", _spread(rng, (8, 2, 3, 3), np.float32), _spread(rng, (8,), np.float64),
                  padding=(1, 1))
    linear = Linear("linear", _spread(rng, (5, 12), np.float32), _spread(rng, (5,), np.float64))
    for layer, x in ((conv, _spread(rng, (3, 2, 8, 8), np.float32)),
                     (linear, _spread(rng, (4, 6, 12), np.float32))):
        rows = layer._rows(x)
        want = (rows @ layer.w.reshape(len(layer.w), -1).T + layer.b).astype(x.dtype)
        y = layer.forward(x, RunContext())
        assert y.dtype == np.float32
        assert np.moveaxis(y, layer._out_axis, -1).tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("cout", [1, 8, 16])
def test_bias_gradient_keeps_the_order_of_each_row_layout(cout, dtype):
    # One order whatever the batch or dy's memory: backward lays the rows out
    # C-contiguous (a one-image conv batch's dy reshapes to a view whose rows
    # axis is the contiguous one) and adds them in sequence. A single column
    # has einsum's own order, the same for every layout too.
    rng = np.random.default_rng(cout)
    for n in (1, 3):
        conv = Conv2d("conv", rng.normal(size=(cout, 2, 3, 3)).astype(dtype),
                      np.zeros(cout, dtype), padding=(1, 1))
        x = rng.normal(size=(n, 2, 16, 16)).astype(dtype)
        dy = _spread(rng, conv.forward(x, RunContext(train=True)).shape, dtype)
        nhwc = np.ascontiguousarray(dy.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        out = []
        for memory in (dy, nhwc):
            dx = conv.backward(memory)
            out.append((conv.grads["w"].tobytes(), conv.grads["b"].tobytes(), dx.tobytes()))
        assert out[0] == out[1], n
        drows = np.moveaxis(dy, 1, -1).reshape(-1, cout)
        in_sequence = functools.reduce(np.add, drows)
        assert in_sequence.tobytes() != np.ascontiguousarray(drows.T).sum(axis=1).tobytes()
        assert conv.grads["b"].dtype == dtype
        if cout > 1:
            assert conv.grads["b"].tobytes() == in_sequence.tobytes(), n


@pytest.mark.parametrize("mul", [None, EXACT], ids=["float", "exact"])
def test_a_layer_called_alone_rejects_integer_input(mul):
    # 3 * 100 in int8 wraps to 44 when the float path casts its product back
    layer = Linear("l", np.ones((1, 3), np.float32), np.zeros(1, np.float32))
    with pytest.raises(ParameterError, match="l: input must be floating point, got int8"):
        layer.forward(np.full((1, 3), 100, np.int8), RunContext(multiplier=mul))


def test_conv2d_counter_formula():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(3, 4, 8, 8))
    w = rng.normal(size=(6, 4, 3, 3))
    b = np.zeros(6)
    ctx = RunContext(multiplier=EXACT)
    Conv2d("conv", w, b, (1, 1), (1, 1)).forward(x, ctx)
    assert ctx.counters == {"conv": 3 * 6 * 8 * 8 * 4 * 3 * 3}


def test_linear_counter_formula():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(4, 9, 5))
    w = rng.normal(size=(2, 5))
    ctx = RunContext(multiplier=EXACT)
    Linear("linear", w, np.zeros(2)).forward(x, ctx)
    assert ctx.counters == {"linear": 4 * 9 * 5 * 2}


def test_exact_layers_skip_the_table():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(2, 6))
    w = rng.normal(size=(3, 6))
    ctx = RunContext(multiplier=EXACT)
    y = Linear("linear", w, np.zeros(3), approximate=False).forward(x, ctx)
    assert ctx.counters == {}
    assert np.allclose(y, x @ w.T, atol=1e-12)


def _affine_group(kind, n_layers, dtype, batch=5):
    """n_layers affine layers of one layout, of `dtype` weights, and an input
    that they all read: padded convolutions over a ReLU-like input, whose
    150 rows of codes 0..127 take the code table under a non-separable
    table, or a token Linear over 25 signed rows, which take the gather."""
    rng = np.random.default_rng(31 + n_layers)
    if kind == "conv":
        layers = [Conv2d(f"c{i}", rng.normal(size=(2 + i, 3, 3, 3)), rng.normal(size=2 + i),
                         padding=(1, 1)) for i in range(n_layers)]
        x = np.abs(rng.normal(size=(batch, 3, 6, 5)))
    else:
        layers = [Linear(f"l{i}", rng.normal(size=(2 + i, 7)), rng.normal(size=2 + i))
                  for i in range(n_layers)]
        x = rng.normal(size=(batch, 5, 7))
    for layer in layers:
        layer.w, layer.b = layer.w.astype(dtype), layer.b.astype(dtype)
    return layers, x.astype(dtype)


def _fresh_rescale_reference(layers, x, m):
    """Each layer's LUT output rescaled into a fresh array of x's type: its
    own sums from the gather oracle, times sx * sw and plus b in float64."""
    qx, sx = quantize(x)
    rows, lead = layers[0]._rows(qx), layers[0]._lead(x.shape)
    want = []
    for layer in layers:
        qw, sw = quantize(layer.w.reshape(len(layer.w), -1))
        sums = _oracle_gather(rows, qw, m)
        y = np.multiply(sums, sx.scale * sw.scale, dtype=np.float64) + layer.b
        want.append(layer._shaped(y.astype(x.dtype), lead))
    return want


@pytest.mark.parametrize("table", ["trunc2", "full_rank"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n_layers", [1, 3])
@pytest.mark.parametrize("kind", ["conv", "linear"])
def test_lut_outputs_equal_a_rescale_into_a_fresh_array(kind, n_layers, dtype, table):
    layers, x = _affine_group(kind, n_layers, dtype)
    ys = _Affine.forward_group(layers, x, RunContext(multiplier=TABLES[table]))
    want = _fresh_rescale_reference(layers, x, TABLES[table])
    for got, y in zip(ys, want, strict=True):
        assert got.dtype == y.dtype == dtype and got.shape == y.shape
        assert got.tobytes() == y.tobytes()


@pytest.mark.parametrize("kind", ["conv", "linear"])
def test_float32_outputs_of_a_group_are_slices_of_the_lut_calls_own_sums(monkeypatch, kind):
    returned = []

    def recording(*args):
        returned.append(lut_matmul(*args))
        return returned[-1]

    monkeypatch.setattr(engine, "lut_matmul", recording)
    for dtype in (np.float32, np.float64):
        returned.clear()
        layers, x = _affine_group(kind, 3, dtype)
        ys = _Affine.forward_group(layers, x, RunContext(multiplier=EXACT))
        assert len(returned) == 1 and returned[0].dtype == np.int32
        # a float64 output is wider than its int32 sums: a fresh buffer
        assert all(np.shares_memory(y, returned[0]) == (dtype == np.float32) for y in ys)


# ---------------------------------------------------------------------------
# element-wise layers
# ---------------------------------------------------------------------------

def test_avgpool_forward_and_backward():
    x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
    layer = AvgPool2d("pool", 2)
    y = layer.forward(x, RunContext(train=True))
    assert np.array_equal(y[0, 0], [[2.5, 4.5], [10.5, 12.5]])
    dy = np.ones_like(y)
    dx = layer.backward(dy)
    assert np.allclose(dx, 0.25)
    with pytest.raises(ParameterError):
        layer.forward(np.zeros((1, 1, 5, 5)), RunContext())


@settings(max_examples=100, deadline=None, database=None)
@given(shape=st.tuples(st.integers(1, 64), st.integers(1, 32), st.integers(1, 16).map(lambda v: 2 * v),
                       st.integers(1, 16).map(lambda v: 2 * v)),
       dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**32 - 1))
@example(shape=(5, 3, 6, 2), dtype=np.float32, seed=0)  # Wo == 1
@example(shape=(5, 3, 6, 2), dtype=np.float64, seed=0)
@example(shape=(6, 16, 2, 2), dtype=np.float32, seed=1)  # toy_cnn at resolution 4: pool2
@example(shape=(6, 8, 4, 4), dtype=np.float32, seed=1)  # and pool1
def test_avgpool_equals_numpy_mean_bit_for_bit(shape, dtype, seed):
    # Pins the pool to one explicit order on every shape: each window row
    # left to right, then the rows top to bottom. That is numpy mean's own
    # order where Wo > 1; at Wo == 1 mean folds the window into one axis and
    # sums it in sequence instead, so only the explicit order is pinned there.
    n, c, h, w = shape
    x = _spread(np.random.default_rng(seed), shape, dtype)
    y = AvgPool2d("pool", 2).forward(x, RunContext())
    win = x.reshape(n, c, h // 2, 2, w // 2, 2)
    want = ((win[:, :, :, 0, :, 0] + win[:, :, :, 0, :, 1])
            + (win[:, :, :, 1, :, 0] + win[:, :, :, 1, :, 1])) / 4
    assert y.dtype == want.dtype and y.flags.c_contiguous
    assert y.tobytes() == want.tobytes()
    if w > 2:
        assert y.tobytes() == win.mean(axis=(3, 5)).tobytes()


def test_avgpool_bits_do_not_depend_on_memory_layout():
    layer = AvgPool2d("pool", 2)
    for seed in range(20):
        x = np.random.default_rng(seed).normal(size=(8, 16, 8, 8)).astype(np.float32)
        nhwc = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        assert np.array_equal(layer.forward(x, RunContext()), layer.forward(nhwc, RunContext()))


def test_avgpool_pools_a_conv_output_on_its_own_layout():
    # The pairwise 2x2 path adds through a view of the input: it holds no
    # contiguous copy of it, and its output keeps the conv's NHWC memory.
    x = np.random.default_rng(3).normal(size=(64, 8, 16, 16)).astype(np.float32)  # toy_cnn's pool1
    nhwc = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    peak, y = _traced_peak(AvgPool2d("pool", 2).forward, nhwc, RunContext())
    assert peak < nhwc.nbytes
    assert y.transpose(0, 2, 3, 1).flags.c_contiguous
    assert y.tobytes(order="C") == AvgPool2d("pool", 2).forward(x, RunContext()).tobytes()


def test_relu_mask_is_c_order_whatever_the_input_layout():
    rng = np.random.default_rng(15)
    x = rng.normal(size=(4, 8, 6, 6)).astype(np.float32)
    x[:, :, 0] = 0.0
    nhwc = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)  # a conv's output
    dy = rng.normal(size=x.shape).astype(np.float32)
    grads = []
    for xin in (x, nhwc):
        layer = ReLU("act")
        layer.forward(xin, RunContext(train=True))
        assert layer._mask.flags.c_contiguous
        grads.append(layer.backward(dy))
    assert grads[0].tobytes() == grads[1].tobytes()


def test_softmax_cross_entropy_uniform_logits():
    loss, dlogits = softmax_cross_entropy(np.zeros((6, 4)), np.array([0, 1, 2, 3, 0, 1]))
    assert loss == pytest.approx(np.log(4.0))
    assert dlogits.shape == (6, 4)
    assert np.allclose(dlogits.sum(axis=1), 0.0, atol=1e-12)


def test_stable_softmax_shift_invariance():
    rng = np.random.default_rng(12)
    z = rng.normal(size=(5, 7)) * 50
    assert np.allclose(stable_softmax(z), stable_softmax(z + 1000.0), atol=1e-12)


# ---------------------------------------------------------------------------
# quantized path and straight-through gradients
# ---------------------------------------------------------------------------

def test_exact_lut_path_tracks_float_within_quant_noise():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(4, 3, 6, 6))
    w = rng.normal(size=(5, 3, 3, 3)) * 0.3
    b = rng.normal(size=5) * 0.1
    conv = Conv2d("conv", w, b, (1, 1), (1, 1), 1)
    y_float = conv.forward(x, RunContext())
    y_lut = conv.forward(x, RunContext(multiplier=EXACT))
    # generous envelope; the tight analytic bound is asserted elsewhere
    assert np.abs(y_lut - y_float).max() < 0.15


def test_ste_gradients_close_to_float_gradients():
    rng = np.random.default_rng(14)
    x = rng.normal(size=(6, 10)).astype(np.float64)
    w = rng.normal(size=(4, 10)) * 0.4
    layer_f = Linear("lin", w.copy(), np.zeros(4))
    layer_q = Linear("lin", w.copy(), np.zeros(4))
    dy = rng.normal(size=(6, 4))

    layer_f.forward(x, RunContext(train=True))
    dx_f = layer_f.backward(dy)
    layer_q.forward(x, RunContext(train=True, multiplier=EXACT))
    dx_q = layer_q.backward(dy)

    # quantization noise enters the cached operands, so the floor is absolute
    assert np.allclose(dx_q, dx_f, rtol=0.1, atol=0.06)
    assert np.allclose(layer_q.grads["w"], layer_f.grads["w"], rtol=0.1, atol=0.06)


# ---------------------------------------------------------------------------
# model container
# ---------------------------------------------------------------------------

def _tiny_model():
    rng = np.random.default_rng(17)
    return Model("tiny", [
        Linear("fc1", rng.normal(size=(5, 8)) * 0.3, np.zeros(5)),
        ReLU("act"),
        Linear("fc2", rng.normal(size=(3, 5)) * 0.3, np.zeros(3)),
    ])


def test_model_load_params_validates_names_and_shapes():
    model = _tiny_model()
    good = {k: np.zeros_like(v) for k, v in model.params().items()}
    model.load_params(good)
    assert not model.params()["fc1.w"].any()
    with pytest.raises(ParameterError, match=r"unknown \['nope.w'\], missing \[\]"):
        model.load_params({**good, "nope.w": np.zeros((5, 8))})
    with pytest.raises(ParameterError, match=r"unknown \[\], missing \['fc2.b'\]"):
        model.load_params({k: v for k, v in good.items() if k != "fc2.b"})
    with pytest.raises(ParameterError, match="shape"):
        model.load_params({**good, "fc1.w": np.zeros((5, 9))})
