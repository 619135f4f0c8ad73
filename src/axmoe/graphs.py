"""Shape-level model graphs.

An ArchSpec is a flat list of layer descriptions carrying exactly the
geometry the cost model needs. The same spec drives the executable builder
(models.py), so cost predictions and runtime counters share one source of
truth. Layers that may be replaced by expert mixtures carry a `moe_unit`
tag; substitute_moe gathers tagged layers into MoEGroup entries or wraps the
whole spec in a ClusterArch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .errors import ParameterError

APPROX = "approximate"
EXACT = "exact"

VARIANTS = ("dense", "hard", "soft", "cluster")

# Published per-image MAC budgets of the standalone gateway classifier that
# fronts the cluster variant. Inputs to the model, not derived quantities.
CNN_GATEWAY_MACS = 125_800_000
VIT_GATEWAY_MACS = 4_140_000_000


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    name: str
    # conv geometry
    in_channels: int = 0
    out_channels: int = 0
    kernel: tuple[int, int] = (0, 0)
    stride: tuple[int, int] = (1, 1)
    padding: tuple[int, int] = (0, 0)
    out_hw: tuple[int, int] = (0, 0)
    # linear geometry; tokens is the per-sample row multiplicity
    in_features: int = 0
    out_features: int = 0
    tokens: int = 1
    # elementwise kinds: element count per sample (avgpool counts input elems)
    elements: int = 0
    arithmetic: str = EXACT
    moe_unit: str = ""


@dataclass(frozen=True)
class MoEGroup:
    """n_experts copies of a member stack behind one routing gate."""

    name: str
    n_experts: int
    members: tuple[LayerSpec, ...]
    router: LayerSpec
    mode: str  # hard | soft


@dataclass(frozen=True)
class ArchSpec:
    name: str
    input_shape: tuple[int, ...]
    num_classes: int
    layers: tuple
    variant: str = "dense"
    n_experts: int = 1
    moe_ratio: float | None = None
    gateway_macs: int | None = None


@dataclass(frozen=True)
class ClusterArch:
    """Standalone gateway plus n full replicas; one replica runs per image."""

    name: str
    replica: ArchSpec
    n_experts: int
    gateway_macs: int | None = None
    gateway: ArchSpec | None = None


def _conv(name, cin, cout, k, hw_in, stride=1, pad=None, unit="", arithmetic=APPROX):
    if pad is None:
        pad = k // 2
    oh = (hw_in + 2 * pad - k) // stride + 1
    return LayerSpec(
        kind="conv2d", name=name, in_channels=cin, out_channels=cout,
        kernel=(k, k), stride=(stride, stride), padding=(pad, pad),
        out_hw=(oh, oh), arithmetic=arithmetic, moe_unit=unit,
    ), oh


def _bn(name, c, hw):
    return LayerSpec(kind="batchnorm2d", name=name, out_channels=c, elements=c * hw * hw)


def _relu(name, elems=0):
    return LayerSpec(kind="relu", name=name, elements=elems)


def _linear(name, fin, fout, tokens=1, arithmetic=EXACT, unit=""):
    return LayerSpec(kind="linear", name=name, in_features=fin, out_features=fout,
                     tokens=tokens, arithmetic=arithmetic, moe_unit=unit)


# ---------------------------------------------------------------------------
# Architecture builders
# ---------------------------------------------------------------------------

def resnet20(num_classes: int = 100) -> ArchSpec:
    """Three stages of three two-conv residual blocks, widths 16/32/64."""
    layers = []
    conv, hw = _conv("stem.conv", 3, 16, 3, 32)
    layers += [conv, _bn("stem.bn", 16, hw), _relu("stem.relu", 16 * hw * hw)]
    cin = 16
    for s, width in enumerate((16, 32, 64)):
        for b in range(3):
            stride = 2 if (s > 0 and b == 0) else 1
            unit = f"s{s}b{b}"
            pre = f"{unit}."
            c1, ohw = _conv(pre + "conv1", cin, width, 3, hw, stride, unit=unit)
            layers += [c1, _bn(pre + "bn1", width, ohw), _relu(pre + "relu1", width * ohw * ohw)]
            c2, ohw = _conv(pre + "conv2", width, width, 3, ohw, unit=unit)
            layers += [c2, _bn(pre + "bn2", width, ohw)]
            if stride != 1 or cin != width:
                ds, _ = _conv(pre + "downsample", cin, width, 1, hw, stride, pad=0)
                layers += [ds, _bn(pre + "bn_ds", width, ohw)]
            layers += [
                LayerSpec(kind="residual_add", name=pre + "add", elements=width * ohw * ohw),
                _relu(pre + "relu2", width * ohw * ohw),
            ]
            cin, hw = width, ohw
    layers += [
        LayerSpec(kind="avgpool", name="pool", elements=cin * hw * hw, out_hw=(1, 1)),
        LayerSpec(kind="flatten", name="flatten"),
        _linear("fc", cin, num_classes),
    ]
    return ArchSpec("resnet20", (3, 32, 32), num_classes, tuple(layers),
                    gateway_macs=CNN_GATEWAY_MACS)


_VGG_CFG = {
    "vgg11_bn": (64, "M", 128, "M", 256, 256, "M", 512, 512, "M", 512, 512, "M"),
    "vgg19_bn": (64, 64, "M", 128, 128, "M", 256, 256, 256, 256, "M",
                 512, 512, 512, 512, "M", 512, 512, 512, 512, "M"),
}


def _vgg(name: str, num_classes: int = 100) -> ArchSpec:
    """Batch-normalized VGG feature stack with the compact 3-linear head.

    Every conv after the first is its own expert-substitution unit.
    """
    layers = []
    hw, cin, idx = 32, 3, 0
    for v in _VGG_CFG[name]:
        if v == "M":
            layers.append(LayerSpec(kind="maxpool", name=f"pool{idx}",
                                    elements=cin * hw * hw, out_hw=(hw // 2, hw // 2)))
            hw //= 2
            continue
        unit = f"conv{idx}" if idx > 0 else ""
        conv, hw = _conv(f"conv{idx}", cin, v, 3, hw, unit=unit)
        layers += [conv, _bn(f"bn{idx}", v, hw), _relu(f"relu{idx}", v * hw * hw)]
        cin = v
        idx += 1
    layers += [
        LayerSpec(kind="flatten", name="flatten"),
        _linear("fc0", 512, 512), _relu("fc0.relu", 512),
        _linear("fc1", 512, 512), _relu("fc1.relu", 512),
        _linear("fc2", 512, num_classes),
    ]
    return ArchSpec(name, (3, 32, 32), num_classes, tuple(layers),
                    gateway_macs=CNN_GATEWAY_MACS)


def vgg11_bn(num_classes: int = 100) -> ArchSpec:
    return _vgg("vgg11_bn", num_classes)


def vgg19_bn(num_classes: int = 100) -> ArchSpec:
    return _vgg("vgg19_bn", num_classes)


def vit_small_spec(num_classes: int = 200, image_size: int = 224, patch: int = 16,
                   dim: int = 384, depth: int = 12, heads: int = 6, mlp_dim: int = 1536) -> ArchSpec:
    """Cost-model description of the small vision transformer.

    Patch embedding and classifier head stay exact; every in-block linear is
    approximable; each block's feed-forward is an expert-substitution unit.
    Attention score and score-value matmuls are modelled as zero-MAC mixes.
    """
    grid = image_size // patch
    tokens = grid * grid + 1  # class token
    layers = []
    pe, _ = _conv("patch_embed", 3, dim, patch, image_size, stride=patch, pad=0,
                  arithmetic=EXACT)
    layers.append(pe)
    for i in range(depth):
        pre = f"block{i}."
        unit = f"ffn{i}"
        layers += [
            LayerSpec(kind="layernorm", name=pre + "ln1", elements=tokens * dim),
            _linear(pre + "qkv", dim, 3 * dim, tokens, APPROX),
            LayerSpec(kind="attention_mix", name=pre + "attn", elements=heads * tokens * tokens),
            _linear(pre + "proj", dim, dim, tokens, APPROX),
            LayerSpec(kind="residual_add", name=pre + "add1", elements=tokens * dim),
            LayerSpec(kind="layernorm", name=pre + "ln2", elements=tokens * dim),
            _linear(pre + "fc1", dim, mlp_dim, tokens, APPROX, unit=unit),
            LayerSpec(kind="gelu", name=pre + "gelu", elements=tokens * mlp_dim, moe_unit=unit),
            _linear(pre + "fc2", mlp_dim, dim, tokens, APPROX, unit=unit),
            LayerSpec(kind="residual_add", name=pre + "add2", elements=tokens * dim),
        ]
    layers += [
        LayerSpec(kind="layernorm", name="ln_final", elements=tokens * dim),
        _linear("head", dim, num_classes, tokens=1),
    ]
    return ArchSpec("vit_small", (3, image_size, image_size), num_classes,
                    tuple(layers), gateway_macs=VIT_GATEWAY_MACS)


def toy_cnn(num_classes: int = 10, resolution: int = 16, channels: int = 1) -> ArchSpec:
    if resolution % 4:
        raise ParameterError("toy_cnn resolution must be divisible by 4")
    layers = []
    c1, hw = _conv("conv1", channels, 8, 3, resolution)
    layers += [c1, _relu("relu1", 8 * hw * hw),
               LayerSpec(kind="avgpool", name="pool1", kernel=(2, 2), elements=8 * hw * hw,
                         out_hw=(hw // 2, hw // 2))]
    hw //= 2
    c2, hw = _conv("conv2", 8, 16, 3, hw, unit="conv2")
    layers += [c2, _relu("relu2", 16 * hw * hw),
               LayerSpec(kind="avgpool", name="pool2", kernel=(2, 2), elements=16 * hw * hw,
                         out_hw=(hw // 2, hw // 2))]
    hw //= 2
    layers += [
        LayerSpec(kind="flatten", name="flatten"),
        _linear("fc", 16 * hw * hw, num_classes),
    ]
    return ArchSpec("toy_cnn", (channels, resolution, resolution), num_classes, tuple(layers))


def toy_mlp(num_classes: int = 10, resolution: int = 28, channels: int = 1) -> ArchSpec:
    fin = channels * resolution * resolution
    layers = (
        LayerSpec(kind="flatten", name="flatten"),
        _linear("fc1", fin, 32, arithmetic=APPROX, unit="fc1"),
        _relu("relu1", 32),
        _linear("fc2", 32, num_classes, arithmetic=APPROX),
    )
    return ArchSpec("toy_mlp", (channels, resolution, resolution), num_classes, layers)


ARCHITECTURES = {
    "resnet20": resnet20,
    "vgg11_bn": vgg11_bn,
    "vgg19_bn": vgg19_bn,
    "vit_small": vit_small_spec,
    "toy_cnn": toy_cnn,
    "toy_mlp": toy_mlp,
}


def build_arch(name: str, **kwargs) -> ArchSpec:
    if name not in ARCHITECTURES:
        raise ParameterError(f"unknown architecture {name!r}, have {sorted(ARCHITECTURES)}")
    return ARCHITECTURES[name](**kwargs)


# ---------------------------------------------------------------------------
# Expert substitution
# ---------------------------------------------------------------------------

def _substitutable_units(arch: ArchSpec) -> list[str]:
    seen = []
    for layer in arch.layers:
        if isinstance(layer, LayerSpec) and layer.moe_unit and layer.moe_unit not in seen:
            seen.append(layer.moe_unit)
    return seen


def _select_units(units: list[str], ratio: float | None) -> set[str]:
    if ratio is None:
        return set(units)
    if not 0 < ratio <= 1:
        raise ParameterError(f"moe_ratio must be in (0, 1], got {ratio}")
    k = round(ratio * len(units))
    if k < 1:
        raise ParameterError(f"moe_ratio {ratio} selects no units out of {len(units)}")
    # evenly spaced, biased toward the end of the list
    picks = {math.ceil((j + 1) * len(units) / k) - 1 for j in range(k)}
    return {units[i] for i in picks}


def _router_for(members: tuple[LayerSpec, ...], unit: str, n_experts: int) -> LayerSpec:
    first = members[0]
    if first.kind == "conv2d":
        # per-sample routing on globally pooled feature maps
        return _linear(f"{unit}.router", first.in_channels, n_experts)
    return _linear(f"{unit}.router", first.in_features, n_experts, tokens=first.tokens)


def default_gateway(arch: ArchSpec, n_experts: int) -> ArchSpec:
    """Flat linear classifier over raw input pixels, used as the cluster
    gateway for toy architectures that have no published gateway budget."""
    fin = math.prod(arch.input_shape)
    layers = (
        LayerSpec(kind="flatten", name="gateway.flatten"),
        _linear("gateway.fc", fin, n_experts),
    )
    return ArchSpec(f"{arch.name}_gateway", arch.input_shape, n_experts, layers)


def substitute_moe(arch: ArchSpec, variant: str, n_experts: int = 3,
                   moe_ratio: float | None = None, gateway_macs: int | None = None):
    """Derive a mixture-of-experts graph from a dense spec.

    hard/soft replace each selected substitution unit by an n-expert group
    with its own router; cluster wraps the whole dense spec behind a
    standalone gateway. dense returns the spec unchanged apart from the
    variant field.
    """
    if variant not in VARIANTS:
        raise ParameterError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    if n_experts < 1:
        raise ParameterError(f"n_experts must be >= 1, got {n_experts}")
    if variant == "dense":
        return replace(arch, variant="dense", n_experts=1)
    if variant == "cluster":
        if gateway_macs is None:
            gateway_macs = arch.gateway_macs
        gateway = default_gateway(arch, n_experts) if gateway_macs is None else None
        return ClusterArch(name=arch.name, replica=arch, n_experts=n_experts,
                           gateway_macs=gateway_macs, gateway=gateway)

    units = _substitutable_units(arch)
    if not units:
        raise ParameterError(f"{arch.name} has no expert-substitutable layers")
    selected = _select_units(units, moe_ratio)
    out, pending, pending_unit = [], [], None

    def flush():
        nonlocal pending, pending_unit
        if pending:
            members = tuple(pending)
            out.append(MoEGroup(name=pending_unit, n_experts=n_experts, members=members,
                                router=_router_for(members, pending_unit, n_experts), mode=variant))
        pending, pending_unit = [], None

    for layer in arch.layers:
        unit = layer.moe_unit if isinstance(layer, LayerSpec) else ""
        if unit and unit in selected:
            if pending_unit not in (None, unit):
                flush()
            pending_unit = unit
            pending.append(layer)
        else:
            flush()
            out.append(layer)
    flush()
    return replace(arch, layers=tuple(out), variant=variant, n_experts=n_experts,
                   moe_ratio=moe_ratio)
