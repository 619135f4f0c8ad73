"""Shape-level graphs, MAC accounting, power model, Pareto culling."""

import numpy as np
import pytest

from axmoe.cost import (MacReport, SweepPoint, approx_fraction, count_macs, dominates,
                        layer_macs, layer_params, normalized_power,
                        pareto_frontier)
from axmoe.errors import ParameterError
from axmoe.graphs import (APPROX, ARCHITECTURES, ArchSpec, ClusterArch, LayerSpec,
                          MoEGroup, build_arch, default_gateway, substitute_moe)


# ---------------------------------------------------------------------------
# per-layer op model
# ---------------------------------------------------------------------------

def test_layer_macs_hand_arithmetic():
    conv = LayerSpec(kind="conv2d", name="c", in_channels=3, out_channels=8,
                     kernel=(3, 3), stride=(1, 1), padding=(1, 1), out_hw=(8, 8),
                     arithmetic=APPROX)
    assert layer_macs(conv) == 8 * 8 * 8 * 3 * 3 * 3
    lin = LayerSpec(kind="linear", name="l", in_features=16, out_features=10, tokens=7)
    assert layer_macs(lin) == 16 * 10 * 7
    bn = LayerSpec(kind="batchnorm2d", name="b", out_channels=4, elements=4 * 25)
    assert layer_macs(bn) == 4 * 4 * 25
    pool = LayerSpec(kind="avgpool", name="p", kernel=(2, 2), elements=64, out_hw=(4, 4))
    assert layer_macs(pool) == 64
    gelu = LayerSpec(kind="gelu", name="gl", elements=100)
    assert layer_macs(gelu) == 100
    for free_kind in ("relu", "maxpool", "softmax", "layernorm", "flatten", "residual"):
        spec = LayerSpec(kind=free_kind, name="x", elements=1000)
        assert layer_macs(spec) == 0


def test_layer_params_hand_arithmetic():
    conv = LayerSpec(kind="conv2d", name="c", in_channels=3, out_channels=8,
                     kernel=(3, 3), stride=(1, 1), padding=(1, 1), out_hw=(8, 8))
    assert layer_params(conv) == 8 * 3 * 3 * 3 + 8
    lin = LayerSpec(kind="linear", name="l", in_features=16, out_features=10)
    assert layer_params(lin) == 16 * 10 + 10
    bn = LayerSpec(kind="batchnorm2d", name="b", out_channels=4, elements=100)
    assert layer_params(bn) == 2 * 4


# ---------------------------------------------------------------------------
# published dense totals (unit-level spot checks; the full sweep lives in
# the acceptance suite)
# ---------------------------------------------------------------------------

def test_dense_totals_for_reference_architectures():
    assert count_macs(build_arch("resnet20")).m_total == 41_625_856
    assert count_macs(build_arch("vgg11_bn")).m_total == 153_946_112
    assert count_macs(build_arch("vgg19_bn")).m_total == 399_919_104
    assert count_macs(build_arch("vit_small")).m_total == 4_244_542_464


def test_registry_contains_all_builders():
    for name in ("resnet20", "vgg11_bn", "vgg19_bn", "vit_small", "toy_cnn", "toy_mlp"):
        assert name in ARCHITECTURES
    with pytest.raises(ParameterError):
        build_arch("lenet5")


# ---------------------------------------------------------------------------
# variant substitution
# ---------------------------------------------------------------------------

def test_dense_substitution_is_identity_on_layers():
    arch = build_arch("toy_cnn")
    dense = substitute_moe(arch, "dense")
    assert dense.layers == arch.layers
    assert dense.variant == "dense"


def test_hard_substitution_replaces_tagged_units():
    arch = build_arch("toy_cnn")
    hard = substitute_moe(arch, "hard", n_experts=3)
    groups = [ly for ly in hard.layers if isinstance(ly, MoEGroup)]
    assert len(groups) == 1
    assert groups[0].n_experts == 3
    assert groups[0].mode == "hard"
    member_names = [m.name for m in groups[0].members]
    assert member_names == ["conv2"]


def test_vit_ratio_selects_even_block_spread():
    arch = build_arch("vit_small")
    quarter = substitute_moe(arch, "hard", n_experts=3, moe_ratio=0.25)
    units_q = {ly.name for ly in quarter.layers if isinstance(ly, MoEGroup)}
    assert units_q == {"ffn3", "ffn7", "ffn11"}
    half = substitute_moe(arch, "hard", n_experts=3, moe_ratio=0.5)
    units_h = {ly.name for ly in half.layers if isinstance(ly, MoEGroup)}
    assert units_h == {f"ffn{i}" for i in range(1, 12, 2)}


def test_substitution_errors():
    arch = build_arch("toy_cnn")
    with pytest.raises(ParameterError):
        substitute_moe(arch, "fuzzy")
    with pytest.raises(ParameterError):
        substitute_moe(arch, "hard", n_experts=0)
    no_units = ArchSpec("bare", (1, 4, 4), 2, (
        LayerSpec(kind="flatten", name="flat"),
        LayerSpec(kind="linear", name="fc", in_features=16, out_features=2),
    ))
    with pytest.raises(ParameterError):
        substitute_moe(no_units, "soft")


def test_cluster_uses_budget_or_counted_gateway():
    arch = build_arch("toy_cnn")
    budget = substitute_moe(arch, "cluster", n_experts=3, gateway_macs=10_000)
    assert isinstance(budget, ClusterArch)
    rep_budget = count_macs(budget)
    counted = substitute_moe(arch, "cluster", n_experts=3)
    assert counted.gateway is not None
    rep_counted = count_macs(counted)
    dense_eff = count_macs(arch).m_eff
    assert rep_budget.m_eff == dense_eff + 10_000
    gw = sum(layer_macs(s) for s in counted.gateway.layers)
    assert rep_counted.m_eff == dense_eff + gw
    assert rep_counted.m_total == 3 * count_macs(arch).m_total + gw


def test_default_gateway_shape():
    arch = build_arch("toy_cnn", num_classes=7, resolution=8, channels=2)
    gw = default_gateway(arch, n_experts=3)
    linear = [s for s in gw.layers if s.kind == "linear"]
    assert len(linear) == 1
    assert linear[0].in_features == 2 * 8 * 8
    assert linear[0].out_features == 3


# ---------------------------------------------------------------------------
# aggregate accounting
# ---------------------------------------------------------------------------

def test_soft_replicates_experts_in_both_totals():
    arch = build_arch("toy_cnn")
    dense = count_macs(arch)
    soft = count_macs(substitute_moe(arch, "soft", n_experts=3))
    hard = count_macs(substitute_moe(arch, "hard", n_experts=3))
    unit = next(ly for ly in substitute_moe(arch, "soft").layers
                if isinstance(ly, MoEGroup))
    unit_macs = sum(layer_macs(m) for m in unit.members)
    router_macs = layer_macs(unit.router)
    assert soft.m_total == dense.m_total + 2 * unit_macs + router_macs
    assert soft.m_eff == soft.m_total
    assert hard.m_total == soft.m_total
    assert hard.m_eff == dense.m_eff + router_macs
    assert hard.m_eff < soft.m_eff


def test_approx_fraction_clamps_soft_overshoot():
    assert approx_fraction(80, 100) == pytest.approx(0.8)
    assert approx_fraction(300, 100) == 1.0
    with pytest.raises(ParameterError):
        approx_fraction(-1, 100)
    with pytest.raises(ParameterError):
        approx_fraction(5, 0)


def test_mac_report_invariants():
    with pytest.raises(ParameterError):
        MacReport(arch="a", variant="dense", n_experts=1, m_total=10, m_eff=20,
                  m_approx=5, f_apx=0.5, total_params=1, active_params=1, per_layer=())
    with pytest.raises(ParameterError):
        MacReport(arch="a", variant="dense", n_experts=1, m_total=10, m_eff=10,
                  m_approx=5, f_apx=1.5, total_params=1, active_params=1, per_layer=())


# ---------------------------------------------------------------------------
# normalized power
# ---------------------------------------------------------------------------

def test_normalized_power_hand_values():
    # dense on the reference multiplier is the unit by construction
    assert normalized_power(100, 100, 0.75, 0.425, 0.425) == 1.0
    got = normalized_power(150, 100, 0.5, 0.2125, 0.425)
    assert got == pytest.approx(1.5 * (0.5 * 0.5 + 0.5))
    for bad in (dict(m_eff=-1, m_base=10, f_apx=0.5, p_apx=0.4, p_base=0.4),
                dict(m_eff=1, m_base=0, f_apx=0.5, p_apx=0.4, p_base=0.4),
                dict(m_eff=1, m_base=10, f_apx=1.2, p_apx=0.4, p_base=0.4),
                dict(m_eff=1, m_base=10, f_apx=0.5, p_apx=0.0, p_base=0.4)):
        with pytest.raises(ParameterError):
            normalized_power(**bad)


# ---------------------------------------------------------------------------
# Pareto culling
# ---------------------------------------------------------------------------

def test_dominates_truth_table():
    a = SweepPoint(0.5, 0.9)
    assert dominates(SweepPoint(0.4, 0.9), a)
    assert dominates(SweepPoint(0.5, 0.95), a)
    assert dominates(SweepPoint(0.4, 0.95), a)
    assert not dominates(a, a)  # equal in both: no strict edge
    assert not dominates(SweepPoint(0.6, 0.95), a)
    assert not dominates(SweepPoint(0.4, 0.8), a)


def test_frontier_keeps_trade_offs_and_duplicates():
    pts = [SweepPoint(1.0, 0.90, "a"), SweepPoint(0.7, 0.85, "b"),
           SweepPoint(0.7, 0.85, "b2"), SweepPoint(0.9, 0.80, "dominated"),
           SweepPoint(0.5, 0.60, "c")]
    front = pareto_frontier(pts)
    labels = [p.label for p in front]
    assert "dominated" not in labels
    assert labels.count("b") == 1 and labels.count("b2") == 1
    assert [p.p_norm for p in front] == sorted(p.p_norm for p in front)


def test_frontier_matches_quadratic_oracle_on_random_sets():
    rng = np.random.default_rng(21)
    for _ in range(100):
        n = int(rng.integers(0, 30))
        pts = [SweepPoint(float(rng.integers(0, 8)) / 4.0,
                          float(rng.integers(0, 8)) / 8.0, str(i))
               for i in range(n)]
        want = [p for p in pts if not any(dominates(q, p) for q in pts)]
        want.sort(key=lambda p: (p.p_norm, -p.top1, p.label))
        got = sorted(pareto_frontier(pts), key=lambda p: (p.p_norm, -p.top1, p.label))
        assert [(p.p_norm, p.top1, p.label) for p in got] == \
               [(p.p_norm, p.top1, p.label) for p in want]
