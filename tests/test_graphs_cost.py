"""Shape-level graphs, MAC accounting, power model, Pareto culling."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axmoe import models
from axmoe.cost import (MacReport, SweepPoint, _copies, count_macs, dominates, layer_macs,
                        layer_params, normalized_power, pareto_frontier, predict_lut_counts)
from axmoe.engine import RunContext, softmax_cross_entropy
from axmoe.errors import NumericError, ParameterError
from axmoe.graphs import (APPROX, ARCHITECTURES, EXACT, VARIANTS, ArchSpec, ClusterArch,
                          LayerSpec, MoEGroup, Residual, build_arch, default_gateway,
                          stored_params, substitute_moe, walk)
from axmoe.models import build_model
from axmoe.moe import ClusterModel, MoELayer, pool_features
from axmoe.multipliers import build_exact_multiplier


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
    for free_kind in ("relu", "maxpool", "softmax", "layernorm", "flatten", "attention_mix"):
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
    ln = LayerSpec(kind="layernorm", name="n", out_features=384, elements=197 * 384)
    assert layer_params(ln) == 2 * 384
    # 25 LayerNorms (two per block, twelve blocks, plus the final one) of
    # width 384 on top of the conv and linear weights
    assert count_macs(build_arch("vit_small")).total_params == 21_647_432 + 25 * 2 * 384


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
    assert dense is arch
    assert count_macs(dense).variant == "dense"


def test_report_label_comes_from_the_graph():
    arch = build_arch("toy_cnn")
    for variant in VARIANTS:
        assert count_macs(substitute_moe(arch, variant, n_experts=3)).variant == variant
    vit = substitute_moe(build_arch("vit_small"), "hard", n_experts=3, moe_ratio=0.25)
    assert count_macs(vit).variant == "hard"


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
    units_q = {ly.name for ly in walk(quarter.layers) if isinstance(ly, MoEGroup)}
    assert units_q == {"ffn3", "ffn7", "ffn11"}
    half = substitute_moe(arch, "hard", n_experts=3, moe_ratio=0.5)
    units_h = {ly.name for ly in walk(half.layers) if isinstance(ly, MoEGroup)}
    assert units_h == {f"ffn{i}" for i in range(1, 12, 2)}


def test_substitution_errors():
    arch = build_arch("toy_cnn")
    with pytest.raises(ParameterError):
        substitute_moe(arch, "fuzzy")
    with pytest.raises(ParameterError):
        substitute_moe(arch, "hard", n_experts=0)
    no_units = ArchSpec("bare", (1, 4, 4), (
        LayerSpec(kind="flatten", name="flat"),
        LayerSpec(kind="linear", name="fc", in_features=16, out_features=2),
    ))
    with pytest.raises(ParameterError):
        substitute_moe(no_units, "soft")
    # only a dense spec is substituted: a spec that already holds expert
    # groups and a cluster graph are refused for every variant
    hard = substitute_moe(arch, "hard")
    cluster = substitute_moe(arch, "cluster")
    for graph in (hard, cluster):
        for variant in VARIANTS:
            with pytest.raises(ParameterError):
                substitute_moe(graph, variant)


def test_cluster_uses_budget_or_counted_gateway():
    arch = build_arch("toy_cnn")
    budget = substitute_moe(replace(arch, gateway_macs=10_000), "cluster", n_experts=3)
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
    # a published budget is one exact layer carrying it, priced but not built
    (layer,) = budget.gateway.layers
    assert (layer.kind, layer.elements, layer.arithmetic) == ("gateway", 10_000, EXACT)
    with pytest.raises(ParameterError):
        build_model(budget)
    with pytest.raises(ParameterError, match="gateway"):
        substitute_moe(replace(arch, gateway_macs=-1), "cluster")


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
    unit_approx = sum(layer_macs(m) for m in unit.members if m.arithmetic == APPROX)
    router_macs = layer_macs(unit.router)
    assert soft.m_total == dense.m_total + 2 * unit_macs + router_macs
    # a sample runs through every expert copy, so each copy's approximate
    # MACs count once per sample
    assert soft.m_approx == dense.m_approx + 2 * unit_approx
    assert hard.m_approx == dense.m_approx
    assert soft.m_eff == soft.m_total
    assert hard.m_total == soft.m_total
    assert hard.m_eff == dense.m_eff + router_macs
    assert hard.m_eff < soft.m_eff


@pytest.mark.parametrize("arch_name", ["toy_cnn", "toy_mlp"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_engine_lookups_equal_batch_times_approximate_macs(arch_name, variant):
    arch = build_arch(arch_name, num_classes=5, resolution=8, channels=2)
    batch = 17  # odd, so hard routing splits unevenly and can leave an expert idle
    x = np.random.default_rng(3).normal(size=(batch,) + arch.input_shape).astype(np.float32)
    for n_experts in range(1, 5):
        graph = substitute_moe(arch, variant, n_experts=n_experts)
        ctx = RunContext(multiplier=build_exact_multiplier())
        build_model(graph, seed=7).forward(x, ctx)
        predicted = predict_lut_counts(graph, ctx.routed, batch)
        assert ctx.counters == predicted, n_experts
        assert sum(predicted.values()) == batch * count_macs(graph).m_approx, n_experts


@pytest.mark.parametrize("arch_name", ["toy_cnn", "toy_mlp"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_the_walk_names_every_layer_build_model_gives_parameters(arch_name, variant):
    # the cost walk and models.build_model name each layer copy on their own
    arch = build_arch(arch_name, num_classes=5, resolution=8, channels=2)
    for n_experts in range(1, 5):
        graph = substitute_moe(arch, variant, n_experts=n_experts)
        params = build_model(graph, seed=7).params()
        walked = [name for name, _, _, spec in _copies(graph) if layer_params(spec)]
        assert len(walked) == len(set(walked)), n_experts
        assert set(walked) == {key.rsplit(".", 1)[0] for key in params}, n_experts
        assert count_macs(graph).total_params == sum(p.size for p in params.values())


@pytest.mark.parametrize("arch_name", sorted(ARCHITECTURES))
def test_stored_params_equal_the_walk_of_every_copy(arch_name):
    arch = build_arch(arch_name)
    for variant in VARIANTS:
        for n_experts in range(1, 5):
            graph = substitute_moe(arch, variant, n_experts=n_experts)
            assert stored_params(graph) == count_macs(graph).total_params, (variant, n_experts)


@pytest.mark.parametrize("variant", ["hard", "soft", "cluster"])
def test_a_graph_whose_parameters_no_array_holds_is_refused_before_its_copies_are_walked(variant):
    arch = build_arch("toy_mlp")
    one, two = (stored_params(substitute_moe(arch, variant, n_experts=n)) for n in (1, 2))
    # parameters grow by `two - one` per expert; the largest n whose float32
    # bytes still fit numpy's largest array is built, one more is refused
    most = (np.iinfo(np.intp).max // 4 - one) // (two - one) + 1
    with mock.patch("axmoe.cost._copies", side_effect=AssertionError("walked")):
        assert stored_params(substitute_moe(arch, variant, n_experts=most)) * 4 \
            <= np.iinfo(np.intp).max
        for n_experts in (most + 1, 99999999999999999999):
            with pytest.raises(ParameterError, match="numpy's largest array"):
                substitute_moe(arch, variant, n_experts=n_experts)
    assert substitute_moe(arch, "dense", n_experts=99999999999999999999) is arch


def _routed_split(graph, batch, rng) -> dict[str, int]:
    """Samples per expert or replica key as the engine would record them:
    the whole batch for every soft expert, a random split of it over each
    hard group's experts or a cluster's replicas. The walk gives a sample's
    copy runs = 1, so each routed key with runs = 1 opens a split, and the
    keys with runs = 0 that follow it, its hard siblings, share that split."""
    splits, seen = [], set()
    for _, key, runs, _ in _copies(graph):
        if key is None or key in seen:
            continue
        seen.add(key)
        if runs:
            splits.append([key])
        else:
            splits[-1].append(key)
    routed = {}
    for keys in splits:
        routed |= dict(zip(keys, map(int, rng.multinomial(batch, [1 / len(keys)] * len(keys)))))
    return routed


def _conv_spec(name, cin, cout, k, stride, out, arithmetic=APPROX, unit=""):
    return LayerSpec(kind="conv2d", name=name, in_channels=cin, out_channels=cout,
                     kernel=(k, k), stride=(stride, stride), padding=(k // 2, k // 2),
                     out_hw=(out, out), arithmetic=arithmetic, moe_unit=unit)


def _residual_graphs():
    """A hand-built graph of two Residual blocks, one with the identity as
    its shortcut and one with a strided 1x1 conv, each with a unit tag
    inside its body, and the same layers laid out flat."""
    same = Residual("same", (_conv_spec("same.conv1", 3, 3, 3, 1, 6, unit="u"),
                             LayerSpec(kind="relu", name="same.relu", moe_unit="u"),
                             _conv_spec("same.conv2", 3, 3, 3, 1, 6, unit="u")))
    down = Residual("down", (_conv_spec("down.conv", 3, 4, 3, 2, 3, unit="v"),),
                    (_conv_spec("down.ds", 3, 4, 1, 2, 3, arithmetic=EXACT),))
    head = (LayerSpec(kind="relu", name="relu"), down, LayerSpec(kind="flatten", name="flat"),
            LayerSpec(kind="linear", name="fc", in_features=36, out_features=2))
    layers = (_conv_spec("stem", 2, 3, 3, 1, 6), same) + head
    flat = (layers[0], *same.body, head[0], *down.body, *down.shortcut, *head[2:])
    return ArchSpec("blocks", (2, 6, 6), layers), ArchSpec("blocks", (2, 6, 6), flat)


def test_residual_blocks_price_group_and_count_like_their_flat_layers():
    arch, flat = _residual_graphs()
    assert [spec.name for spec in walk(arch.layers)] == [spec.name for spec in flat.layers]
    rng = np.random.default_rng(8)
    for variant in VARIANTS:
        graph = substitute_moe(arch, variant, n_experts=3)
        assert count_macs(graph) == count_macs(substitute_moe(flat, variant, n_experts=3))
        predicted = predict_lut_counts(graph, _routed_split(graph, 17, rng), 17)
        assert sum(predicted.values()) == 17 * count_macs(graph).m_approx, variant
        with pytest.raises(ParameterError, match="same"):
            build_model(graph)
    for variant in ("hard", "soft"):
        graph = substitute_moe(arch, variant, n_experts=3)
        same, down = graph.layers[1], graph.layers[3]
        (group,) = same.body
        assert (group.name, group.mode) == ("u", variant)
        assert [m.name for m in group.members] == ["same.conv1", "same.relu", "same.conv2"]
        assert same.shortcut == ()
        assert [g.name for g in down.body] == ["v"]
        assert down.shortcut == arch.layers[3].shortcut
        # the groups sit inside blocks, and are still seen there
        with pytest.raises(ParameterError, match="already holds expert groups"):
            substitute_moe(graph, "hard")


@pytest.mark.parametrize("arch_name", ["resnet20", "vgg11_bn", "vgg19_bn", "vit_small"])
def test_predicted_lookups_of_published_graphs_sum_to_batch_times_approximate_macs(arch_name):
    arch = build_arch(arch_name)
    batch = 17
    rng = np.random.default_rng(5)
    ratios = (None, 0.25, 0.5) if arch_name == "vit_small" else (None,)
    for variant in VARIANTS:
        for ratio in ratios:
            graph = substitute_moe(arch, variant, n_experts=3, moe_ratio=ratio)
            predicted = predict_lut_counts(graph, _routed_split(graph, batch, rng), batch)
            assert sum(predicted.values()) == batch * count_macs(graph).m_approx, (variant, ratio)


@st.composite
def _small_archs(draw):
    """A small dense ArchSpec: up to two conv blocks (a conv, then maybe a
    relu, then maybe a 2x2 avgpool), a flatten and one or two linear layers,
    each conv or linear approximate or exact. Each expert unit is a run that
    starts at a conv or linear layer, as every builder's does, and holds
    what follows it up to the next one or, as drawn, past it."""
    channels, hw = draw(st.integers(2, 3)), draw(st.integers(3, 7))
    input_shape = (channels, hw, hw)
    arithmetic = st.sampled_from([APPROX, EXACT])
    layers, affine = [], []
    for i in range(draw(st.integers(0, 2))):
        pad = draw(st.integers(0, 1))
        k = draw(st.integers(1, min(3, hw + 2 * pad)))
        stride, cout = draw(st.integers(1, 2)), draw(st.integers(2, 4))
        out = (hw + 2 * pad - k) // stride + 1
        affine.append(len(layers))
        layers.append(LayerSpec(kind="conv2d", name=f"conv{i}", in_channels=channels,
                                out_channels=cout, kernel=(k, k), stride=(stride, stride),
                                padding=(pad, pad), out_hw=(out, out),
                                arithmetic=draw(arithmetic)))
        if draw(st.booleans()):
            layers.append(LayerSpec(kind="relu", name=f"relu{i}"))
        if out % 2 == 0 and draw(st.booleans()):
            layers.append(LayerSpec(kind="avgpool", name=f"pool{i}", kernel=(2, 2),
                                    elements=cout * out * out))
            out //= 2
        channels, hw = cout, out
    layers.append(LayerSpec(kind="flatten", name="flatten"))
    fin = channels * hw * hw
    hidden = [draw(st.integers(2, 5)) for _ in range(draw(st.integers(0, 1)))]
    for j, fout in enumerate(hidden + [draw(st.integers(2, 4))]):
        if j:
            layers.append(LayerSpec(kind="relu", name=f"fc{j - 1}.relu"))
        affine.append(len(layers))
        layers.append(LayerSpec(kind="linear", name=f"fc{j}", in_features=fin,
                                out_features=fout, arithmetic=draw(arithmetic)))
        fin = fout
    # at each conv or linear layer: no unit, a new one, or the one before it
    # goes on; the layers up to the next conv or linear follow that choice
    choices = [draw(st.sampled_from(["none", "new", "on"])) for _ in affine]
    if "new" not in choices:
        choices[0] = "new"
    unit = ""
    for at, (start, choice) in enumerate(zip(affine, choices)):
        unit = {"none": "", "new": f"u{at}", "on": unit}[choice]
        for i in range(start, (affine + [len(layers)])[at + 1]):
            layers[i] = replace(layers[i], moe_unit=unit)
    return ArchSpec("random", input_shape, tuple(layers))


def _weights_apart(feats: np.ndarray, n: int) -> np.ndarray | None:
    """(n, features) routing weights under which two samples of `feats`
    win experts 0 and 1, or None when every sample's features are a
    multiple of one vector, which no bias-free score splits as such.

    Scaling a bias-free score does not move its argmax, and fresh weights
    send a whole batch to one expert, so the rows are built from the batch.
    With each sample's features centred, and with the mean's direction
    (which scores every sample alike) taken out, as e_s, row r scores
    e_s . e_r. The sample with the longest e wins row 0, and the sample
    whose e is most opposed to it (the e sum to 0, so one is) wins row 1."""
    f = feats.astype(np.float64)
    mean = f.mean(axis=0)
    e = f - mean
    if mean @ mean:
        e -= np.outer(e @ mean, mean) / (mean @ mean)
    norms = (e * e).sum(axis=1)
    if norms.max() <= 1e-6 * (f * f).sum(axis=1).max():
        return None
    first = int(np.argmax(norms))
    w = np.zeros((n, f.shape[1]))
    w[:2] = e[first], e[int(np.argmin(e @ e[first]))]
    return w


def _route_apart(model, x, ctx_of) -> list[str]:
    """Give each hard router of `model`, and a cluster's gateway, weights
    under which it sends samples of x to two experts, in forward order, each
    from the features it reads in a forward of x under `ctx_of()`. Returns
    the names of the layers it could route apart."""
    apart = []
    for layer in model.walk():
        if isinstance(layer, ClusterModel) and len(layer.replicas) > 1:
            w, feats = layer.gateway.layers[-1].w, x.reshape(len(x), -1)
        elif isinstance(layer, MoELayer) and layer.mode == "hard" and len(layer.experts) > 1:
            w = layer.router.w
            with mock.patch.object(layer.router, "gates", wraps=layer.router.gates) as gates:
                model.forward(x, ctx_of())
            feats = pool_features(gates.call_args.args[0])
        else:
            continue
        weights = _weights_apart(feats, len(w))
        if weights is not None:
            w[...] = weights
            apart.append(layer.name)
    return apart


def _graphs_of(arch, n_experts_range):
    for variant in VARIANTS:
        for n in n_experts_range if variant != "dense" else (1,):
            yield variant, n, substitute_moe(arch, variant, n_experts=n)


GRAD_REL_TOL = 1e-4  # criterion 9's
SMALL_PARAMS = 120   # dense graphs up to this size also check their backward


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(arch=_small_archs())
def test_random_graphs_check_the_two_halves(arch):
    batch = 9
    rng = np.random.default_rng(4)
    x = rng.normal(size=(batch,) + arch.input_shape).astype(np.float32)
    exact = build_exact_multiplier()
    classes = arch.layers[-1].out_features
    for variant, n, graph in _graphs_of(arch, range(1, 5)):
        model = build_model(graph, seed=1)
        apart = _route_apart(model, x, lambda: RunContext(multiplier=exact))
        ctx = RunContext(multiplier=exact)
        assert model.forward(x, ctx).shape == (batch, classes)
        report = count_macs(graph)
        predicted = predict_lut_counts(graph, ctx.routed, batch)
        assert ctx.counters == predicted, (variant, n)
        assert sum(predicted.values()) == batch * report.m_approx, (variant, n)
        assert report.total_params == sum(p.size for p in model.params().values())
        for name in apart:
            used = [k for k, v in ctx.routed.items() if k.startswith(f"{name}.") and v]
            assert len(used) > 1, (variant, n, name, ctx.routed)
    if count_macs(arch).total_params > SMALL_PARAMS:
        return
    # the backward, in float64, against central differences; two experts,
    # so no sample's hard routing is a tie an eps could break
    x64 = x.astype(np.float64)
    labels = rng.integers(0, classes, size=batch)
    with mock.patch.object(models, "DTYPE", np.float64):
        built = [(variant, build_model(graph, seed=1)) for variant, _, graph
                 in _graphs_of(arch, (2,))]
    for variant, model in built:
        # biases off 0, so that no ReLU input sits on its kink
        for name, p in model.params().items():
            if name.endswith(".b"):
                p[...] = rng.normal(0.0, 0.1, p.shape)
        _route_apart(model, x64, RunContext)
        _, dlogits = softmax_cross_entropy(model.forward(x64, RunContext(train=True)), labels)
        model.zero_grads()
        model.backward(dlogits)
        grads, params = model.qualified_grads(), model.params()
        for name in sorted(grads):
            p = params[name]
            idx = tuple(int(rng.integers(s)) for s in p.shape)
            orig, eps, losses = p[idx], 1e-6, []
            for step in (eps, -eps):
                p[idx] = orig + step
                losses.append(softmax_cross_entropy(model.forward(x64, RunContext()), labels)[0])
            p[idx] = orig
            fd, an = (losses[0] - losses[1]) / (2 * eps), float(grads[name][idx])
            if max(abs(fd), abs(an)) >= 1e-7:
                assert abs(fd - an) / max(abs(fd), abs(an)) < GRAD_REL_TOL, (variant, name, fd, an)


def test_mac_report_invariants():
    with pytest.raises(ParameterError):
        MacReport(arch="a", variant="dense", m_total=10, m_eff=20,
                  m_approx=5, f_apx=0.5, total_params=1, active_params=1)
    with pytest.raises(ParameterError):
        MacReport(arch="a", variant="dense", m_total=10, m_eff=10,
                  m_approx=5, f_apx=1.5, total_params=1, active_params=1)


# ---------------------------------------------------------------------------
# normalized power
# ---------------------------------------------------------------------------

def test_normalized_power_hand_values():
    # dense on the reference multiplier is the unit by construction
    assert normalized_power(100, 100, 0.75, 0.425) == 1.0
    got = normalized_power(150, 100, 0.5, 0.2125)
    assert got == pytest.approx(1.5 * (0.5 * 0.5 + 0.5))
    for bad in (dict(m_eff=-1, m_base=10, f_apx=0.5, p_apx=0.4),
                dict(m_eff=1, m_base=0, f_apx=0.5, p_apx=0.4),
                dict(m_eff=1, m_base=10, f_apx=1.2, p_apx=0.4),
                dict(m_eff=1, m_base=10, f_apx=0.5, p_apx=0.0)):
        with pytest.raises(ParameterError):
            normalized_power(**bad)
    # a finite power, as an .axm8 header may hold, whose p_norm is not
    for p_apx in (1.7e308, float("nan")):
        with pytest.raises(NumericError):
            normalized_power(3, 1, 1.0, p_apx)


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
