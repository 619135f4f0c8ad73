"""Routing algebra: gates, Top-1 selection, blending, cluster dispatch."""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axmoe import engine, moe
from axmoe.engine import Conv2d, Flatten, Linear, Model, RunContext
from axmoe.graphs import build_arch, substitute_moe
from axmoe.models import build_model
from axmoe.moe import ClusterModel, MoELayer, Router, _mix, pool_features
from axmoe.multipliers import AxMultiplier, build_exact_multiplier, builtin_multiplier


def _experts(rng, n, fin, fout, scale=0.5):
    return [Linear(f"e{i}", rng.normal(size=(fout, fin)) * scale,
                   rng.normal(size=fout) * 0.1) for i in range(n)]


def _router(rng, n, fin, scale=0.5):
    return Router("r", rng.normal(size=(n, fin)) * scale)


def test_gates_are_a_probability_distribution():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        fin = int(rng.integers(2, 10))
        router = _router(rng, n, fin, scale=3.0)
        x = rng.normal(size=(7, fin)).astype(np.float32)
        g, feats = router.gates(x)
        assert g.shape == (7, n)
        assert np.all(g >= 0)
        assert np.allclose(g.sum(axis=1), 1.0, atol=1e-6)
        assert feats.shape == (7, fin)


def test_gate_argmax_is_invariant_to_logit_shift():
    # Adding one vector v to every expert's router row shifts each sample's
    # logits by feats @ v, the same for every expert: the softmax is unmoved.
    rng = np.random.default_rng(1)
    for shape in [(9, 6)] * 10 + [(9, 6, 3, 3)] * 10:
        router = _router(rng, 4, 6, scale=10.0)
        x = rng.normal(size=shape)
        v = rng.normal(size=6) * 100
        g, feats = router.gates(x)
        gs, feats_s = Router("r", router.w + v).gates(x)
        assert np.array_equal(feats, feats_s)
        assert np.abs(feats @ v).max() > 10  # the shift is far from negligible
        assert np.array_equal(np.argmax(g, axis=1), np.argmax(gs, axis=1))
        assert np.abs(g - gs).max() <= 1e-12


def test_pool_features_global_average_on_images():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(3, 5, 4, 4))
    assert np.allclose(pool_features(x), x.mean(axis=(2, 3)))
    flat = rng.normal(size=(3, 7))
    assert pool_features(flat) is flat


def test_router_gates_do_not_depend_on_memory_layout():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(64, 16, 8, 8)).astype(np.float32)
        nhwc = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        router = _router(rng, 3, 16, 1.0)
        gates, feats = router.gates(x)
        gates_nhwc, feats_nhwc = router.gates(nhwc)
        assert np.array_equal(feats, feats_nhwc)
        assert np.array_equal(gates, gates_nhwc)


def test_identical_experts_make_soft_equal_single_expert():
    rng = np.random.default_rng(3)
    for trial in range(10):
        fin, fout = int(rng.integers(3, 9)), int(rng.integers(2, 6))
        base = _experts(rng, 1, fin, fout)[0]
        clones = []
        for i in range(3):
            c = Linear(f"c{i}", base.w.copy(), base.b.copy())
            clones.append(c)
        router = _router(rng, 3, fin, scale=2.0)
        x = rng.normal(size=(6, fin))
        y_soft = MoELayer("route", clones, router, "soft").forward(x, RunContext())
        y_single = base.forward(x, RunContext())
        assert np.allclose(y_soft, y_single, atol=1e-5)


def test_one_hot_gates_collapse_soft_to_hard():
    rng = np.random.default_rng(4)
    for trial in range(10):
        fin, fout = 6, 4
        experts_a = _experts(rng, 3, fin, fout)
        experts_b = [Linear(f"b{i}", e.w.copy(), e.b.copy()) for i, e in enumerate(experts_a)]
        # huge router weights drive the softmax to one-hot
        router = Router("r", rng.normal(size=(3, fin)) * 400.0)
        x = rng.normal(size=(8, fin))
        y_soft = MoELayer("route", experts_a, router, "soft").forward(x, RunContext())
        y_hard = MoELayer("route", experts_b, router, "hard").forward(x, RunContext())
        assert np.allclose(y_soft, y_hard, atol=1e-4)


def test_hard_routes_each_sample_through_exactly_one_expert():
    rng = np.random.default_rng(5)
    experts = _experts(rng, 4, 5, 3)
    router = _router(rng, 4, 5, scale=2.0)
    layer = MoELayer("mix", experts, router, "hard")
    x = rng.normal(size=(50, 5)).astype(np.float32)
    ctx = RunContext()
    y = layer.forward(x, ctx)
    routed = [ctx.routed.get(f"mix.expert{i}", 0) for i in range(4)]
    assert sum(routed) == 50
    # reconstruct the expected assignment from exact gates
    g, _ = router.gates(x)
    sel = np.argmax(g, axis=1)
    for i in range(4):
        assert routed[i] == int((sel == i).sum())
        mask = sel == i
        if mask.any():
            want = experts[i].forward(x[mask], RunContext())
            scaled = want * g[mask, i][:, None]
            assert np.allclose(y[mask], scaled, atol=1e-5)


def test_hard_ties_resolve_to_lowest_expert_index():
    # zero router weights give exactly uniform gates on every sample
    experts = [Linear(f"e{i}", np.full((2, 3), float(i + 1)), np.zeros(2))
               for i in range(3)]
    router = Router("r", np.zeros((3, 3)))
    layer = MoELayer("mix", experts, router, "hard")
    x = np.ones((4, 3), dtype=np.float64)
    ctx = RunContext()
    layer.forward(x, ctx)
    assert ctx.routed["mix.expert0"] == 4
    assert ctx.routed.get("mix.expert1", 0) == 0


def test_soft_gate_scaling_is_retained_not_renormalized():
    rng = np.random.default_rng(6)
    experts = _experts(rng, 2, 4, 3)
    router = _router(rng, 2, 4)
    x = rng.normal(size=(5, 4))
    y = MoELayer("route", experts, router, "soft").forward(x, RunContext())
    g, _ = router.gates(x)
    want = sum(g[:, i][:, None] * experts[i].forward(x, RunContext()) for i in range(2))
    assert np.allclose(y, want, atol=1e-6)


def test_moe_parameter_namespace_and_freeze_set():
    rng = np.random.default_rng(7)
    experts = _experts(rng, 2, 4, 3)
    router = _router(rng, 2, 4)
    layer = MoELayer("mix", experts, router, "soft")
    names = set(layer.params())
    assert "mix.router.w" in names
    assert {"e0.w", "e0.b", "e1.w", "e1.b"} <= names
    assert layer.frozen_names() == {"mix.router.w"}


def test_soft_router_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    experts = _experts(rng, 3, 4, 2)
    router = _router(rng, 3, 4)
    layer = MoELayer("mix", experts, router, "soft")
    x = rng.normal(size=(6, 4))
    dy = rng.normal(size=(6, 2))

    ctx = RunContext(train=True)
    layer.forward(x, ctx)
    layer.backward(dy)
    got = layer.qualified_grads()["mix.router.w"]

    eps = 1e-6
    for idx in [(0, 0), (1, 2), (2, 3)]:
        w0 = router.w[idx]
        router.w[idx] = w0 + eps
        up = float((layer.forward(x, RunContext()) * dy).sum())
        router.w[idx] = w0 - eps
        down = float((layer.forward(x, RunContext()) * dy).sum())
        router.w[idx] = w0
        assert got[idx] == pytest.approx((up - down) / (2 * eps), rel=1e-4, abs=1e-7)


def test_hard_backward_touches_only_selected_experts():
    rng = np.random.default_rng(9)
    experts = _experts(rng, 3, 4, 2)
    # bias the router so expert 1 wins every sample
    router = Router("r", np.vstack([np.full(4, -50.0), np.full(4, 50.0),
                                    np.full(4, -50.0)]))
    layer = MoELayer("mix", experts, router, "hard")
    x = np.abs(rng.normal(size=(5, 4)))
    ctx = RunContext(train=True)
    layer.forward(x, ctx)
    layer.backward(rng.normal(size=(5, 2)))
    grads = layer.qualified_grads()
    assert "e1.w" in grads
    assert "e0.w" not in grads and "e2.w" not in grads


# ---------------------------------------------------------------------------
# cluster
# ---------------------------------------------------------------------------

def _cluster(rng, n_rep=3, fin=6, classes=3):
    gateway = Model("gw", [Linear("gw.fc", rng.normal(size=(n_rep, fin)), np.zeros(n_rep),
                                  approximate=False)])
    replicas = [Model(f"replica{i}",
                      [Linear(f"replica{i}.fc", rng.normal(size=(classes, fin)) * 0.5,
                              np.zeros(classes))])
                for i in range(n_rep)]
    return ClusterModel("clu", gateway, replicas)


def test_cluster_output_comes_from_the_selected_replica():
    rng = np.random.default_rng(10)
    model = _cluster(rng)
    x = rng.normal(size=(12, 6)).astype(np.float64)
    ctx = RunContext()
    y = model.forward(x, ctx)
    sel = np.argmax(model.gateway.forward(x, RunContext()), axis=1)
    for i, replica in enumerate(model.replicas):
        mask = sel == i
        if mask.any():
            assert np.allclose(y[mask], replica.forward(x[mask], RunContext()), atol=1e-6)
        assert ctx.routed["clu.replica" + str(i)] == int(mask.sum())


def test_cluster_freezes_gateway_and_blocks_its_gradients():
    rng = np.random.default_rng(11)
    model = _cluster(rng)
    assert model.frozen_names() == {"gw.fc.w", "gw.fc.b"}
    x = rng.normal(size=(8, 6))
    ctx = RunContext(train=True)
    y = model.forward(x, ctx)
    model.backward(np.ones_like(y))
    grads = model.qualified_grads()
    assert "gw.fc.w" not in grads
    assert any(k.startswith("replica") for k in grads)


def test_cluster_gateway_caches_nothing_in_training():
    graph = substitute_moe(build_arch("toy_mlp", resolution=8), "cluster", n_experts=3)
    model = build_model(graph, seed=0)
    x = np.random.default_rng(12).normal(size=(16, 1, 8, 8)).astype(np.float32)
    model.forward(x, RunContext(train=True))
    (cluster,) = model.layers
    assert all(getattr(layer, "_cache", None) is None for layer in cluster.gateway.layers)
    assert any(layer._cache is not None for r in cluster.replicas for layer in r.layers
               if isinstance(layer, Linear))


# ---------------------------------------------------------------------------
# shared unit backward against central differences (criterion 9's eps and
# tolerance), for every topology and both expert kinds
# ---------------------------------------------------------------------------

def _unit(rng, kind, name):
    if kind == "conv":
        return Conv2d(name, rng.normal(size=(2, 3, 3, 3)) * 0.3, rng.normal(size=2) * 0.1,
                      padding=(1, 1))
    return Linear(name, rng.normal(size=(2, 4)) * 0.5, rng.normal(size=2) * 0.1)


def _topology(rng, mode, kind):
    """A 3-unit layer plus an input on which sample s routes to unit s % 3 with a
    logit margin of about 3, far beyond what an eps perturbation can flip."""
    x = rng.normal(size=(6, 3, 5, 5) if kind == "conv" else (6, 4)) * 0.5
    for s in range(len(x)):
        x[s, s % 3] += 3.0
    fin = x.shape[1]
    if mode == "cluster":
        if kind == "conv":  # per-channel mean of the flattened image
            gw = [Flatten("gw.flat"), Linear("gw.fc", np.kron(np.eye(3), np.full(25, 1 / 25)),
                                             np.zeros(3), approximate=False)]
        else:
            gw = [Linear("gw.fc", np.eye(3, fin), np.zeros(3), approximate=False)]
        replicas = [Model(f"rep{i}", [_unit(rng, kind, f"rep{i}.u")]) for i in range(3)]
        return ClusterModel("clu", Model("gw", gw), replicas), x
    w = np.eye(3, fin) if mode == "hard" else rng.normal(size=(3, fin)) * 0.5
    experts = [_unit(rng, kind, f"e{i}") for i in range(3)]
    return MoELayer("mix", experts, Router("mix.router", w), mode), x


def _central_differences(f, arr, eps=1e-6):
    fd = np.zeros_like(arr)
    for idx in np.ndindex(arr.shape):
        orig = arr[idx]
        arr[idx] = orig + eps
        up = f()
        arr[idx] = orig - eps
        down = f()
        arr[idx] = orig
        fd[idx] = (up - down) / (2 * eps)
    return fd


def _assert_grad_close(name, an, fd):
    denom = np.maximum(np.abs(an), np.abs(fd))
    ok = (denom < 1e-7) | (np.abs(an - fd) <= 1e-4 * denom)
    assert ok.all(), (name, np.max(np.abs(an - fd)))


@pytest.mark.parametrize("kind", ["conv", "linear"])
@pytest.mark.parametrize("mode", ["hard", "soft", "cluster"])
def test_unit_backward_matches_central_differences(mode, kind):
    rng = np.random.default_rng(13)
    layer, x = _topology(rng, mode, kind)
    ctx = RunContext(train=True)
    y = layer.forward(x, ctx)
    assert list(ctx.routed.values()) == ([6] * 3 if mode == "soft" else [2] * 3)
    probe = rng.normal(size=y.shape)
    layer.zero_grads()
    dx = layer.backward(probe)
    grads = layer.qualified_grads()
    unit_params = {k for k in layer.params() if k.startswith(("e", "rep"))}
    assert len(unit_params) == 6 and unit_params <= set(grads)

    def loss():
        return float((layer.forward(x, RunContext()) * probe).sum())

    _assert_grad_close("x", dx, _central_differences(loss, x))
    params = layer.params()
    for name in sorted(grads):
        _assert_grad_close(name, grads[name], _central_differences(loss, params[name]))


# ---------------------------------------------------------------------------
# soft experts run as one group of affine layers
# ---------------------------------------------------------------------------

def _recording(monkeypatch, *names):
    """Patch engine functions so each records the first argument of every call."""
    calls = {}
    for name in names:
        calls[name] = seen = []

        def record(*args, _f=getattr(engine, name), _seen=seen, **kwargs):
            _seen.append(args[0])
            return _f(*args, **kwargs)

        monkeypatch.setattr(engine, name, record)
    return calls


@pytest.mark.parametrize("kind", ["conv", "linear"])
def test_a_soft_layer_quantizes_lays_out_and_multiplies_its_input_once(monkeypatch, kind):
    rng = np.random.default_rng(21)
    soft, x = _topology(rng, "soft", kind)
    hard, _ = _topology(rng, "hard", kind)
    x[2::3, 2] -= 3.0  # samples 2 and 5 move to expert 0: expert 2 gets none
    x[2::3, 0] += 3.0
    calls = _recording(monkeypatch, "quantize", "lut_matmul", "im2col")
    ctx = RunContext(multiplier=builtin_multiplier("trunc2"), train=True)
    for weights_quantized in (3, 0):  # the second pass reuses the context's weight codes
        for seen in calls.values():
            seen.clear()
        soft.forward(x, ctx)
        assert sum(np.shares_memory(t, x) for t in calls["quantize"]) == 1
        assert len(calls["quantize"]) == 1 + weights_quantized
        assert len(calls["lut_matmul"]) == 1
        assert len(calls["im2col"]) == (kind == "conv")
    for seen in calls.values():
        seen.clear()
    ctx = RunContext(multiplier=builtin_multiplier("trunc2"))
    hard.forward(x, ctx)
    assert list(ctx.routed.values()) == [4, 2, 0]
    # one product per expert with samples, each after quantizing its input and weights
    assert len(calls["lut_matmul"]) == 2 and len(calls["quantize"]) == 2 + 2
    assert len(calls["im2col"]) == 2 * (kind == "conv")


def _nonseparable() -> AxMultiplier:
    rng = np.random.default_rng(7)
    lut = build_exact_multiplier().lut.astype(np.int32)
    lut += (rng.random(lut.shape) < 0.25) * rng.integers(-48, 49, size=lut.shape)
    return AxMultiplier("nonsep", 1.0, lut.astype(np.int16))


GROUP_MULTIPLIERS = {"float": None, "exact": builtin_multiplier("exact"),
                     "trunc2": builtin_multiplier("trunc2"), "nonsep": _nonseparable()}


@settings(max_examples=120, deadline=None, database=None)
@given(kind=st.sampled_from(["conv", "linear"]), stride=st.integers(1, 2),
       padding=st.integers(0, 1), dtype=st.sampled_from([np.float32, np.float64]),
       mul=st.sampled_from(sorted(GROUP_MULTIPLIERS)), train=st.booleans(),
       input_grad=st.booleans(), n_experts=st.integers(2, 3), batch=st.integers(1, 12),
       seed=st.integers(0, 2**32 - 1))
def test_a_soft_group_equals_its_experts_run_alone(kind, stride, padding, dtype, mul, train,
                                                   input_grad, n_experts, batch, seed):
    rng = np.random.default_rng(seed)
    cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 5))
    if kind == "conv":
        x = rng.normal(size=(batch, cin, *rng.integers(3, 8, size=2)))
        experts = [Conv2d(f"e{i}", rng.normal(size=(cout, cin, 3, 3)).astype(dtype),
                          rng.normal(size=cout).astype(dtype), (stride, stride),
                          (padding, padding)) for i in range(n_experts)]
    else:
        x = rng.normal(size=(batch, cin * 9))
        experts = [Linear(f"e{i}", rng.normal(size=(cout, cin * 9)).astype(dtype),
                          rng.normal(size=cout).astype(dtype)) for i in range(n_experts)]
    layer = MoELayer("mix", experts, Router("mix.router", rng.normal(size=(n_experts, x.shape[1]))),
                     "soft")
    x = x.astype(dtype)
    assert layer._grouped

    def run(grouped):
        layer._grouped = grouped
        ctx = RunContext(multiplier=GROUP_MULTIPLIERS[mul], train=train)
        y = layer.forward(x, ctx)
        out = {"y": y, "counters": list(ctx.counters.items()),
               "routed": list(ctx.routed.items())}
        if train:
            layer.zero_grads()
            out["dx"] = layer.backward(np.cos(np.arange(y.size)).reshape(y.shape).astype(dtype),
                                       input_grad)
            out["grads"] = {k: g.copy() for k, g in layer.qualified_grads().items()}
        return out

    grouped, alone = run(True), run(False)
    assert grouped["counters"] == alone["counters"] and grouped["routed"] == alone["routed"]
    outputs = [(grouped["y"], alone["y"])]
    if train:
        assert (grouped["dx"] is None) == (alone["dx"] is None) == (not input_grad)
        if input_grad:
            outputs.append((grouped["dx"], alone["dx"]))
    for a, b in outputs:
        assert a.dtype == b.dtype == dtype and a.tobytes() == b.tobytes()
    if train:
        assert grouped["grads"].keys() == alone["grads"].keys()
        assert len(grouped["grads"]) == 2 * n_experts + 1
        for name, g in grouped["grads"].items():
            assert g.dtype == alone["grads"][name].dtype, name
            assert g.tobytes() == alone["grads"][name].tobytes(), name


def _conv(rng, name, stride=1, padding=0, approximate=True):
    return Conv2d(name, rng.normal(size=(2, 3, 3, 3)), rng.normal(size=2), (stride, stride),
                  (padding, padding), approximate)


def test_only_soft_affine_experts_of_one_layout_are_grouped():
    rng = np.random.default_rng(22)

    def grouped(experts, mode="soft"):
        return MoELayer("mix", experts, _router(rng, len(experts), 3), mode)._grouped

    assert grouped([_conv(rng, f"e{i}") for i in range(2)])
    assert grouped(_experts(rng, 3, 3, 2))
    assert not grouped([_conv(rng, f"e{i}") for i in range(2)], "hard")
    assert not grouped(_experts(rng, 3, 3, 2), "hard")
    assert not grouped([_conv(rng, "e0")])
    assert not grouped([Model(f"e{i}", [e]) for i, e in enumerate(_experts(rng, 2, 3, 2))])
    assert not grouped([_conv(rng, "e0"), _conv(rng, "e1", stride=2, padding=1)])
    assert not grouped([_conv(rng, "e0"), _conv(rng, "e1", approximate=False)])


@pytest.mark.parametrize("mul", [None, "trunc2"], ids=["float", "trunc2"])
def test_a_soft_layer_of_two_strides_runs_its_experts_one_by_one(mul):
    rng = np.random.default_rng(23)
    mul = builtin_multiplier(mul) if mul else None
    # on 5x5 images, stride 1 unpadded and stride 2 padded both give 3x3
    # outputs; three experts, as a sum of two parts does not show their order
    experts = [_conv(rng, "e0"), _conv(rng, "e1", stride=2, padding=1), _conv(rng, "e2")]
    router = _router(rng, 3, 3)
    layer = MoELayer("mix", experts, router, "soft")
    assert not layer._grouped
    x = rng.normal(size=(4, 3, 5, 5))
    dy = rng.normal(size=(4, 2, 3, 3))
    ctx = RunContext(multiplier=mul, train=True)
    y = layer.forward(x, ctx)
    layer.zero_grads()
    dx = layer.backward(dy)
    grads = {k: g.copy() for k, g in layer.qualified_grads().items()}

    # the same experts, each run alone, mixed and differentiated by hand
    g, feats = router.gates(x)
    gate = [g[:, i, None, None, None] for i in range(3)]
    alone = RunContext(multiplier=mul, train=True)
    outs = [e.forward(x, alone) for e in experts]
    assert list(ctx.counters.items()) == list(alone.counters.items())
    assert list(ctx.routed.values()) == [4, 4, 4]
    y_alone = np.zeros_like(y)
    for gi, out in zip(gate, outs):
        y_alone += gi * out
    dg = np.stack([(dy * out).sum(axis=(1, 2, 3)) for out in outs], axis=1)
    dz = g * (dg - (dg * g).sum(axis=1, keepdims=True))
    dx_alone = np.broadcast_to((dz @ router.w)[:, :, None, None], x.shape) / 25
    for gi, e in zip(gate, experts):
        dx_alone += e.backward(gi * dy)
    grads_alone = {"mix.router.w": dz.T @ feats,
                   **{f"{e.name}.{k}": v for e in experts for k, v in e.grads.items()}}
    assert y.tobytes() == y_alone.tobytes() and dx.tobytes() == dx_alone.tobytes()
    assert grads.keys() == grads_alone.keys()
    for name, grad in grads.items():
        assert grad.tobytes() == grads_alone[name].tobytes(), name


# ---------------------------------------------------------------------------
# the combine, in blocks of rows, and what a soft LUT forward holds
# ---------------------------------------------------------------------------

def _whole_output_mix(n, picks, outs, gate):
    """_mix's combine with each unit's gated output made whole, then added
    into its picked rows of y, in unit order."""
    y = None
    for i, (pick, out) in enumerate(zip(picks, outs)):
        if out is not None:
            part = out if gate is None else gate[pick, i].reshape(-1, *[1] * (out.ndim - 1)) * out
            if y is None:
                y = np.zeros((n,) + part.shape[1:], dtype=part.dtype)
            y[pick] += part
    return y


@pytest.mark.parametrize("budget", [None, 50])
@pytest.mark.parametrize("mode", ["hard", "soft", "soft_grouped", "cluster"])
def test_the_blocked_mix_equals_each_gated_output_added_whole(monkeypatch, mode, budget):
    if budget is not None:  # one row per block
        monkeypatch.setattr(moe, "_GATHER_BUDGET", budget)
    rng = np.random.default_rng(41)
    # 120 x 2 x 300 entries per soft unit: three blocks at the default budget
    n, fin = 120, 4
    x = rng.normal(size=(n, 2, fin)).astype(np.float32)
    units = [Linear(f"e{i}", rng.normal(size=(300, fin)).astype(np.float32),
                    rng.normal(size=300).astype(np.float32)) for i in range(3)]
    if mode.startswith("soft"):
        picks = [slice(None)] * 3
    else:
        sel = rng.integers(0, 2, size=n)  # unit 2 gets no sample
        picks = [sel == i for i in range(3)]
    gate = None
    if mode != "cluster":
        gate = rng.random((n, 3)).astype(np.float32)
        gate[::7], gate[3::7] = 0.0, -0.0  # times a negative output: -0.0
    ctx = RunContext(multiplier=builtin_multiplier("trunc2"))
    outs, y = _mix(x, None, picks, units, ctx, "mix.expert", gate, mode == "soft_grouped")
    assert (outs[2] is None) == (mode in ("hard", "cluster"))
    want = _whole_output_mix(n, picks, outs, gate)
    assert y.dtype == want.dtype == np.float32 and y.tobytes() == want.tobytes()
    if gate is not None:
        parts = [gate[pick, i, None, None] * out
                 for i, (pick, out) in enumerate(zip(picks, outs)) if out is not None]
        assert any(np.signbit(part[part == 0]).any() for part in parts)


def test_a_soft_lut_forward_holds_one_output_sized_buffer_per_layer_call():
    arch = build_arch("toy_cnn", num_classes=10, resolution=16, channels=1)
    model = build_model(substitute_moe(arch, "soft", n_experts=3), seed=0)
    x = np.random.default_rng(0).random((200, 1, 16, 16)).astype(np.float32)
    ctx = RunContext(multiplier=builtin_multiplier("trunc2"))
    model.forward(x, ctx)  # quantizes every weight into the context once
    at = next(i for i, layer in enumerate(model.layers) if isinstance(layer, MoELayer))
    soft = model.layers[at]
    assert soft._grouped
    soft_in = functools.reduce(lambda h, layer: layer.forward(h, ctx), model.layers[:at], x)
    rows = math.prod(soft.experts[0]._lead(soft_in.shape))
    # the group's int32 sums, its int8 columns, the input and its quantize
    # temporary, and one float64 block of the rescale; a float copy of the
    # sums held beside them would add rows * 48 * 4 bytes and break the bound
    bound = (rows * sum(len(e.w) for e in soft.experts) * 4 + rows * soft.experts[0].w[0].size
             + 2 * soft_in.nbytes + engine._GATHER_BUDGET * 8)
    del soft_in
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        model.forward(x, ctx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < bound
