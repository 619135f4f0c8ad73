"""Routing algebra: gates, Top-1 selection, blending, cluster dispatch."""

import numpy as np
import pytest

from axmoe.engine import Conv2d, Flatten, Linear, Model, RunContext
from axmoe.graphs import build_arch, substitute_moe
from axmoe.models import build_model
from axmoe.moe import ClusterModel, MoELayer, Router, pool_features


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
    rng = np.random.default_rng(1)
    for _ in range(20):
        logits = rng.normal(size=(9, 4)) * 10
        shifted = logits + rng.normal() * 100
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        es = np.exp(shifted - shifted.max(axis=1, keepdims=True))
        g = e / e.sum(axis=1, keepdims=True)
        gs = es / es.sum(axis=1, keepdims=True)
        assert np.array_equal(np.argmax(g, axis=1), np.argmax(gs, axis=1))
        assert np.allclose(g, gs, atol=1e-12)


def test_pool_features_global_average_on_images():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(3, 5, 4, 4))
    assert np.allclose(pool_features(x), x.mean(axis=(2, 3)))
    flat = rng.normal(size=(3, 7))
    assert pool_features(flat) is flat


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
    assert all(getattr(layer, "_cache", None) is None for layer in model.gateway.layers)
    assert any(layer._cache is not None for r in model.replicas for layer in r.layers
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
