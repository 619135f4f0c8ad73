"""Quantized engine: codecs, LUT matmul, layer forward/backward math."""

import numpy as np
import pytest

from axmoe.engine import (AvgPool2d, Conv2d, Linear, Model, QuantParams, ReLU, RunContext,
                          col2im, dequantize, im2col, lut_matmul, quantize,
                          softmax_cross_entropy, stable_softmax)
from axmoe.errors import NumericError, ParameterError
from axmoe.multipliers import build_exact_multiplier, build_truncation_multiplier
from test_moe import _assert_grad_close, _central_differences

EXACT = build_exact_multiplier()


# ---------------------------------------------------------------------------
# codec
# ---------------------------------------------------------------------------

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
    with pytest.raises(NumericError):
        quantize(np.array([1.0, np.nan]))


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
    for _ in range(10):
        n, k, m = rng.integers(1, 24, size=3)
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


def test_lut_matmul_overflow_detection():
    k = 140_000  # 140000 * 127 * 127 > 2^31 - 1
    a = np.full((1, k), 127, dtype=np.int8)
    with pytest.raises(NumericError):
        lut_matmul(a, a, EXACT)


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


def test_avgpool_bits_do_not_depend_on_memory_layout():
    layer = AvgPool2d("pool", 2)
    for seed in range(20):
        x = np.random.default_rng(seed).normal(size=(8, 16, 8, 8)).astype(np.float32)
        nhwc = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        assert np.array_equal(layer.forward(x, RunContext()), layer.forward(nhwc, RunContext()))


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
    with pytest.raises(ParameterError):
        model.load_params({"nope.w": np.zeros((5, 8))})
    with pytest.raises(ParameterError):
        model.load_params({"fc1.w": np.zeros((5, 9))})
