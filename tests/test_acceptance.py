"""Acceptance gate. One test per shipped guarantee; `pytest -v` prints one
pass/fail line per criterion. Every tolerance is pinned here as a constant."""

import csv
import time

import numpy as np
import pytest

from axmoe import cli
from axmoe.cost import (count_macs, dominates, normalized_power, pareto_frontier,
                        predict_lut_counts, SweepPoint)
from axmoe.datasets import load_dataset
from axmoe.engine import (Conv2d, Linear, Model, ReLU, Flatten, RunContext,
                          lut_matmul, quantize, softmax_cross_entropy)
from axmoe.graphs import VARIANTS, build_arch, substitute_moe
from axmoe.models import build_model
from axmoe.moe import MoELayer, Router
from axmoe.multipliers import (EXACT_POWER_NW, REFERENCE_MULTIPLIERS,
                               build_exact_multiplier, builtin_multiplier, per_op_saving)
from axmoe.train import TrainConfig, evaluate, fit, retrain

M = 1_000_000.0

LUT_BUDGET_S = 1.0           # criterion 1
SAVING_TOL_PP = 0.1          # criterion 2
DENSE_RTOL = 0.005           # criterion 3: published dense MACs within 0.5%
CNN_MOE_RTOL = 0.02          # criterion 3: CNN MoE rows within 2%
VIT_RTOL = 0.005             # criterion 3: every ViT row within 0.5%
MAC_CHECK_BUDGET_S = 1.0     # criterion 3
PNORM_L2J = (0.70, 0.72)     # criterion 4
PNORM_L2L = (0.47, 0.49)     # criterion 4
ROUTER_OVERHEAD_MAX = 0.0002  # criterion 5, ratio 0.25
VIT_EFF_RTOL = 0.001         # criterion 5
QUANT_BOUND_FACTOR = 2.0     # criterion 7
SOFT_EQ_ATOL = 1e-5          # criterion 8
GATE_SUM_ATOL = 1e-6         # criterion 8
GRAD_REL_TOL = 1e-4          # criterion 9
GRAD_PROBES = 50             # criterion 9
RETRAIN_BUDGET_S = 600.0     # criterion 10
PARETO_SETS = 1000           # criterion 11

# Published per-image MAC figures (millions): {arch: {variant: (total, eff)}}.
PUBLISHED_CNN_MACS = {
    "resnet20": {"dense": (41.63, 41.63), "hard": (123.25, 41.63),
                 "soft": (123.25, 123.25), "cluster": (250.69, 164.73)},
    "vgg11_bn": {"dense": (153.95, 153.95), "hard": (458.96, 153.95),
                 "soft": (458.96, 458.96), "cluster": (587.53, 279.77)},
    "vgg19_bn": {"dense": (399.92, 399.92), "hard": (1195.67, 399.92),
                 "soft": (1195.67, 1195.67), "cluster": (1325.45, 525.69)},
}
PUBLISHED_VIT_MACS = {
    ("dense", None): (4244.66, 4244.66),
    ("hard", 0.25): (5641.51, 4245.35),
    ("soft", 0.25): (5641.51, 5641.51),
    ("hard", 0.5): (7038.36, 4246.04),
    ("soft", 0.5): (7038.36, 7038.36),
    ("cluster", None): (16873.8, 8384.66),
}


def test_c01_exact_lut_matches_signed_products_exhaustively():
    start = time.perf_counter()
    m = build_exact_multiplier()
    ops = np.arange(-128, 128, dtype=np.int32)
    want = np.multiply.outer(ops, ops).astype(np.int16).ravel()
    assert m.lut.shape == (65536,)
    mismatches = int(np.count_nonzero(m.lut != want))
    assert mismatches == 0
    assert time.perf_counter() - start < LUT_BUDGET_S


def test_c02_reference_savings_rederive_from_power_within_tenth_pp():
    for entry in REFERENCE_MULTIPLIERS.values():
        derived = per_op_saving(entry)
        assert derived == pytest.approx(entry.saving_pct, abs=SAVING_TOL_PP), entry.name


def _report(arch, variant, **kw):
    return count_macs(substitute_moe(arch, variant, n_experts=3, **kw))


def test_c03_table_of_mac_totals_reproduces_from_shapes_alone():
    start = time.perf_counter()
    for name, rows in PUBLISHED_CNN_MACS.items():
        arch = build_arch(name)
        for variant, (want_total, want_eff) in rows.items():
            rep = _report(arch, variant)
            rtol = DENSE_RTOL if variant == "dense" else CNN_MOE_RTOL
            assert rep.m_total / M == pytest.approx(want_total, rel=rtol), (name, variant)
            assert rep.m_eff / M == pytest.approx(want_eff, rel=rtol), (name, variant)
    vit = build_arch("vit_small")
    for (variant, ratio), (want_total, want_eff) in PUBLISHED_VIT_MACS.items():
        kw = {"moe_ratio": ratio} if ratio else {}
        rep = _report(vit, variant, **kw)
        assert rep.m_total / M == pytest.approx(want_total, rel=VIT_RTOL), (variant, ratio)
        assert rep.m_eff / M == pytest.approx(want_eff, rel=VIT_RTOL), (variant, ratio)
    # known discrepancy: gateway + one-replica arithmetic gives ~167.4 M for
    # the ResNet-20 cluster effective figure, the published table prints
    # 164.73 M; the VGG rows confirm the additive rule exactly, so the gap is
    # reported rather than fitted. It stays inside the 2% acceptance band.
    resnet_cluster = _report(build_arch("resnet20"), "cluster")
    gap = resnet_cluster.m_eff / M / 164.73 - 1.0
    assert 0.01 < gap < 0.02
    print(f"resnet20 cluster eff computed {resnet_cluster.m_eff / M:.2f} M "
          f"vs published 164.73 M (+{gap * 100:.2f}%)")
    assert time.perf_counter() - start < MAC_CHECK_BUDGET_S


def test_c04_normalized_power_reproduces_dense_headline_points():
    for name in PUBLISHED_CNN_MACS:
        base = count_macs(substitute_moe(build_arch(name), "dense"))
        p_kv6 = normalized_power(base.m_eff, base.m_total, base.f_apx, EXACT_POWER_NW)
        assert p_kv6 == 1.0  # exact, not approx
        p_l2j = normalized_power(base.m_eff, base.m_total, base.f_apx, 0.301)
        p_l2l = normalized_power(base.m_eff, base.m_total, base.f_apx, 0.200)
        assert PNORM_L2J[0] <= p_l2j <= PNORM_L2J[1], (name, p_l2j)
        assert PNORM_L2L[0] <= p_l2l <= PNORM_L2L[1], (name, p_l2l)


def test_c05_vit_hard_router_overhead_is_negligible():
    vit = build_arch("vit_small")
    dense = count_macs(substitute_moe(vit, "dense"))
    quarter = count_macs(substitute_moe(vit, "hard", n_experts=3, moe_ratio=0.25))
    half = count_macs(substitute_moe(vit, "hard", n_experts=3, moe_ratio=0.5))
    overhead = quarter.m_eff / dense.m_eff - 1.0
    assert 0.0 < overhead < ROUTER_OVERHEAD_MAX
    assert quarter.m_eff / M == pytest.approx(4245.35, rel=VIT_EFF_RTOL)
    assert half.m_eff / M == pytest.approx(4246.04, rel=VIT_EFF_RTOL)


def test_c06_runtime_lut_counters_equal_cost_model_exactly():
    mul = build_exact_multiplier()
    rng = np.random.default_rng(42)
    cases = [("toy_cnn", {"num_classes": 5, "resolution": 8, "channels": 2}),
             ("toy_mlp", {"num_classes": 5, "resolution": 6, "channels": 2})]
    batch = 17  # odd size so hard routing splits unevenly
    for arch_name, kwargs in cases:
        arch = build_arch(arch_name, **kwargs)
        for variant in VARIANTS:
            graph = substitute_moe(arch, variant, n_experts=3)
            model = build_model(graph, seed=7)
            x = rng.normal(size=(batch,) + arch.input_shape).astype(np.float32)
            ctx = RunContext(multiplier=mul)
            model.forward(x, ctx)
            assert ctx.counters == predict_lut_counts(graph, ctx.routed, batch), (arch_name, variant)


def test_c07_exact_lut_path_stays_inside_twice_the_analytic_bound():
    mul = build_exact_multiplier()
    rng = np.random.default_rng(1234)
    for trial in range(100):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, 65))
        m = int(rng.integers(1, 17))
        scale_x = 10.0 ** rng.uniform(-2, 2)
        scale_w = 10.0 ** rng.uniform(-2, 2)
        x = (rng.normal(size=(n, k)) * scale_x).astype(np.float32)
        w = (rng.normal(size=(m, k)) * scale_w).astype(np.float32)
        y_float = x.astype(np.float64) @ w.astype(np.float64).T
        qx, px = quantize(x)
        qw, pw = quantize(w)
        sx, sw = px.scale, pw.scale
        y_apx = lut_matmul(qx, qw, mul).astype(np.float64) * (sx * sw)
        x_hat = np.abs(qx.astype(np.float64)) * sx
        w_hat = np.abs(qw.astype(np.float64)) * sw
        bound = ((sw / 2.0) * x_hat.sum(axis=1)[:, None]
                 + (sx / 2.0) * w_hat.sum(axis=1)[None, :]
                 + k * sx * sw / 4.0)
        assert np.all(np.abs(y_apx - y_float) <= QUANT_BOUND_FACTOR * bound + 1e-12), trial


def test_c08_moe_routing_algebra_holds_on_random_instances():
    rng = np.random.default_rng(77)
    for trial in range(20):
        fin = int(rng.integers(3, 10))
        fout = int(rng.integers(2, 7))
        n_exp = int(rng.integers(2, 5))
        x = rng.normal(size=(11, fin)).astype(np.float64)

        # gates form a probability distribution
        router = Router("r", rng.normal(size=(n_exp, fin)) * 2.0)
        g, _ = router.gates(x)
        assert np.all(g >= 0.0)
        assert np.allclose(g.sum(axis=1), 1.0, atol=GATE_SUM_ATOL)

        # logit-shift argmax invariance
        shifted = Router("r", router.w.copy())
        logits = x @ router.w.T
        moved = logits + rng.normal() * 50.0
        assert np.array_equal(np.argmax(logits, axis=1), np.argmax(moved, axis=1))

        # identical experts: soft output equals the single expert
        base = Linear("e", rng.normal(size=(fout, fin)) * 0.5, rng.normal(size=fout))
        clones = [Linear(f"c{i}", base.w.copy(), base.b.copy()) for i in range(n_exp)]
        y_soft = MoELayer("route", clones, router, "soft").forward(x, RunContext())
        y_single = base.forward(x, RunContext())
        assert np.allclose(y_soft, y_single, atol=SOFT_EQ_ATOL)

        # one-hot gates collapse soft onto hard: scale the router until the
        # smallest retained top-two logit margin is enormous, which drives
        # the losing gates below double-precision resolution
        experts = [Linear(f"e{i}", rng.normal(size=(fout, fin)) * 0.5,
                          rng.normal(size=fout)) for i in range(n_exp)]
        copies = [Linear(f"f{i}", e.w.copy(), e.b.copy()) for i, e in enumerate(experts)]
        logits = x @ router.w.T
        part = np.partition(logits, -2, axis=1)
        margin = part[:, -1] - part[:, -2]
        keep = margin > 1e-3
        assert keep.sum() >= 3
        sharp = Router("r", router.w * (120.0 / float(margin[keep].min())))
        xs = x[keep]
        assert np.allclose(MoELayer("route", experts, sharp, "soft").forward(xs, RunContext()),
                           MoELayer("route", copies, sharp, "hard").forward(xs, RunContext()),
                           atol=1e-4)

        # hard routing touches exactly one expert per sample
        layer = MoELayer("mix", experts, router, "hard")
        ctx = RunContext()
        layer.forward(x, ctx)
        routed = np.array([ctx.routed[f"mix.expert{i}"] for i in range(n_exp)])
        sel = np.argmax(g, axis=1)
        assert routed.sum() == len(x)
        assert np.array_equal(routed, np.bincount(sel, minlength=n_exp))


def _two_layer_net(dtype=np.float64):
    rng = np.random.default_rng(5)
    conv_w = (rng.normal(size=(3, 2, 3, 3)) * 0.4).astype(dtype)
    lin_w = (rng.normal(size=(4, 3 * 6 * 6)) * 0.2).astype(dtype)
    model = Model("net", [
        Conv2d("conv", conv_w, rng.normal(size=3).astype(dtype) * 0.1, padding=(1, 1)),
        ReLU("relu"),
        Flatten("flatten"),
        Linear("fc", lin_w, rng.normal(size=4).astype(dtype) * 0.1),
    ])
    x = rng.normal(size=(8, 2, 6, 6)).astype(dtype)
    labels = rng.integers(0, 4, size=8).astype(np.int64)
    return model, x, labels


def test_c09_backward_pass_matches_central_finite_differences():
    model, x, labels = _two_layer_net()

    def loss_at():
        logits = model.forward(x, RunContext())
        return softmax_cross_entropy(logits, labels)[0]

    logits = model.forward(x, RunContext(train=True))
    _, dlogits = softmax_cross_entropy(logits, labels)
    model.zero_grads()
    model.backward(dlogits)
    grads = model.qualified_grads()
    params = model.params()

    rng = np.random.default_rng(9)
    names = sorted(params)
    eps = 1e-6
    checked = 0
    while checked < GRAD_PROBES:
        name = names[int(rng.integers(len(names)))]
        p = params[name]
        idx = tuple(int(rng.integers(s)) for s in p.shape)
        orig = p[idx]
        p[idx] = orig + eps
        up = loss_at()
        p[idx] = orig - eps
        down = loss_at()
        p[idx] = orig
        fd = (up - down) / (2.0 * eps)
        an = float(grads[name][idx])
        denom = max(abs(fd), abs(an))
        if denom < 1e-7:
            continue  # both effectively zero; relative error is undefined
        assert abs(fd - an) / denom < GRAD_REL_TOL, (name, idx, fd, an)
        checked += 1

    # STE sanity: the same backward runs under the LUT path and stays close
    # to the float gradients (it differs only by quantization of the cache)
    logits = model.forward(x, RunContext(multiplier=build_exact_multiplier(), train=True))
    _, dlogits = softmax_cross_entropy(logits, labels)
    model.zero_grads()
    model.backward(dlogits)
    ste = model.qualified_grads()
    assert set(ste) == set(grads)
    for name in grads:
        assert np.all(np.isfinite(ste[name]))
        assert np.allclose(ste[name], grads[name], rtol=0.2, atol=0.08), name


def test_c10_retraining_recovers_accuracy_with_routers_pinned():
    start = time.perf_counter()
    mul = builtin_multiplier("trunc2")
    arch = build_arch("toy_cnn", num_classes=10, resolution=16, channels=1)
    data = load_dataset("synthetic", samples=768, eval_samples=500, classes=10,
                        channels=1, resolution=16, noise=0.2, seed=0)
    pre_cfg = TrainConfig(lr=0.1, weight_decay=5e-4, batch_size=64, epochs=20, seed=0)
    re_cfg = TrainConfig(lr=0.02, weight_decay=5e-4, batch_size=64, epochs=5, seed=1)
    for variant in ("dense", "hard", "soft"):
        graph = substitute_moe(arch, variant, n_experts=3)
        model = build_model(graph, seed=0)
        fit(model, data, pre_cfg)
        baseline = evaluate(model, data.x_test, data.y_test, mul)
        frozen = {k: model.params()[k].tobytes() for k in model.frozen_names()}
        retrain(model, data, re_cfg, mul)
        recovered = evaluate(model, data.x_test, data.y_test, mul)
        print(f"{variant}: approx top1 {baseline:.3f} -> {recovered:.3f}")
        assert recovered > baseline, (variant, baseline, recovered)
        for name, blob in frozen.items():
            assert model.params()[name].tobytes() == blob, name
    assert time.perf_counter() - start < RETRAIN_BUDGET_S


def _oracle_frontier(points):
    def dom(a, b):
        return (a.p_norm <= b.p_norm and a.top1 >= b.top1
                and (a.p_norm < b.p_norm or a.top1 > b.top1))

    return [q for q in points if not any(dom(p, q) for p in points)]


def test_c11_pareto_frontier_equals_quadratic_oracle():
    rng = np.random.default_rng(2024)
    key = lambda p: (p.p_norm, p.top1, p.label)
    for trial in range(PARETO_SETS):
        n = int(rng.integers(1, 28))
        # discrete grid makes ties and duplicates common
        ps = rng.integers(0, 6, size=n) / 5.0
        ts = rng.integers(0, 6, size=n) / 5.0
        points = [SweepPoint(float(a), float(b), label=str(i))
                  for i, (a, b) in enumerate(zip(ps, ts))]
        front = pareto_frontier(points)
        assert sorted(front, key=key) == sorted(_oracle_frontier(points), key=key), trial
        for a in front:
            assert not any(dominates(b, a) for b in front)


def test_c12_fixed_seed_sweeps_rerun_byte_identical(tmp_path):
    def run(out):
        args = ["sweep", "--arch", "toy_mlp", "--out", str(out),
                "--set", "resolution = 6", "--set", "num_classes = 3",
                "--set", "samples = 96", "--set", "eval_samples = 48",
                "--set", "pretrain_epochs = 2", "--set", "batch_size = 32",
                "--multiplier", "float", "--multiplier", "trunc2"]
        assert cli.main(args) == 0
        return (out / "sweep.csv").read_bytes()

    first = run(tmp_path / "a")
    second = run(tmp_path / "b")
    assert first == second
    rows = list(csv.reader(first.decode("utf-8").splitlines()))
    assert tuple(rows[0]) == cli.CSV_COLUMNS
    assert len(rows) == 3
