"""Shape-level model graphs.

An ArchSpec is a sequence of layer descriptions carrying exactly the
geometry the cost model needs; a Residual block holds its body and shortcut
sequences, and `walk` reads the layers inside them in order. The same spec
drives the executable builder (models.py), so cost predictions and runtime
counters share one source of truth. Layers that may be replaced by expert
mixtures carry a `moe_unit` tag; substitute_moe gathers tagged layers into
MoEGroup entries or wraps the whole spec in a ClusterArch. A graph's variant
is its structure; no label is stored beside it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError

APPROX = "approximate"
EXACT = "exact"

VARIANTS = ("dense", "hard", "soft", "cluster")

# Published per-image MAC budgets of the standalone gateway classifier that
# fronts the cluster variant. Inputs to the model, not derived quantities.
CNN_GATEWAY_MACS = 125_800_000
VIT_GATEWAY_MACS = 4_140_000_000

# The CNNs are published for CIFAR-100.
CIFAR100_CLASSES = 100


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
    # linear and router geometry; tokens is the per-sample row multiplicity
    in_features: int = 0
    out_features: int = 0
    tokens: int = 1
    # batchnorm2d, avgpool, gelu: element count per sample (avgpool counts input
    # elems); gateway: the published MAC budget it stands for
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
class Residual:
    """body(x) + shortcut(x); an empty shortcut is the identity. The add is
    part of the block, not a layer of its own."""

    name: str
    body: tuple
    shortcut: tuple = ()


@dataclass(frozen=True)
class ArchSpec:
    name: str
    input_shape: tuple[int, ...]
    layers: tuple
    gateway_macs: int | None = None


@dataclass(frozen=True)
class ClusterArch:
    """Standalone gateway plus n full replicas; one replica runs per image."""

    name: str
    replica: ArchSpec
    n_experts: int
    gateway: ArchSpec


def walk(entries):
    """Every layer spec and expert group of `entries`, in order, reading
    each Residual's body and then its shortcut in place of the block."""
    for entry in entries:
        if isinstance(entry, Residual):
            yield from walk(entry.body)
            yield from walk(entry.shortcut)
        else:
            yield entry


def layer_params(spec: LayerSpec) -> int:
    if spec.kind == "conv2d":
        return spec.out_channels * (spec.in_channels * spec.kernel[0] * spec.kernel[1] + 1)
    if spec.kind == "linear":
        return spec.out_features * (spec.in_features + 1)
    if spec.kind == "router":
        return spec.out_features * spec.in_features
    if spec.kind in ("batchnorm2d", "layernorm"):
        return 2 * spec.out_channels if spec.kind == "batchnorm2d" else 2 * spec.out_features
    return 0


def stored_params(graph) -> int:
    """Parameters a graph stores, every copy counted, from one read of its
    specs: each expert group's members and a cluster's replica count
    n_experts times."""
    if isinstance(graph, ClusterArch):
        return stored_params(graph.gateway) + graph.n_experts * stored_params(graph.replica)
    return sum(entry.n_experts * sum(map(layer_params, entry.members)) + layer_params(entry.router)
               if isinstance(entry, MoEGroup) else layer_params(entry)
               for entry in walk(graph.layers))


def conv_out_hw(h: int, w: int, kernel, stride, padding) -> tuple[int, int]:
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    if oh <= 0 or ow <= 0:
        raise ParameterError(f"conv geometry yields empty output ({oh}, {ow})")
    return oh, ow


def _conv(name, cin, cout, k, hw_in, stride=1, pad=None, unit="", arithmetic=APPROX):
    if pad is None:
        pad = k // 2
    out_hw = conv_out_hw(hw_in, hw_in, (k, k), (stride, stride), (pad, pad))
    return LayerSpec(
        kind="conv2d", name=name, in_channels=cin, out_channels=cout,
        kernel=(k, k), stride=(stride, stride), padding=(pad, pad),
        out_hw=out_hw, arithmetic=arithmetic, moe_unit=unit,
    ), out_hw[0]


def _bn(name, c, hw):
    return LayerSpec(kind="batchnorm2d", name=name, out_channels=c, elements=c * hw * hw)


def _ln(name, dim):
    return LayerSpec(kind="layernorm", name=name, out_features=dim)


def _relu(name):
    return LayerSpec(kind="relu", name=name)


def _linear(name, fin, fout, tokens=1, arithmetic=EXACT, unit=""):
    return LayerSpec(kind="linear", name=name, in_features=fin, out_features=fout,
                     tokens=tokens, arithmetic=arithmetic, moe_unit=unit)


# ---------------------------------------------------------------------------
# Architecture builders
# ---------------------------------------------------------------------------

def resnet20() -> ArchSpec:
    """Three stages of three two-conv residual blocks, widths 16/32/64."""
    layers = []
    conv, hw = _conv("stem.conv", 3, 16, 3, 32)
    layers += [conv, _bn("stem.bn", 16, hw), _relu("stem.relu")]
    cin = 16
    for s, width in enumerate((16, 32, 64)):
        for b in range(3):
            stride = 2 if (s > 0 and b == 0) else 1
            unit = f"s{s}b{b}"
            pre = f"{unit}."
            c1, ohw = _conv(pre + "conv1", cin, width, 3, hw, stride, unit=unit)
            c2, ohw = _conv(pre + "conv2", width, width, 3, ohw, unit=unit)
            body = (c1, _bn(pre + "bn1", width, ohw), _relu(pre + "relu1"),
                    c2, _bn(pre + "bn2", width, ohw))
            shortcut = ()
            if stride != 1 or cin != width:
                ds, _ = _conv(pre + "downsample", cin, width, 1, hw, stride, pad=0)
                shortcut = (ds, _bn(pre + "bn_ds", width, ohw))
            layers += [Residual(pre + "res", body, shortcut), _relu(pre + "relu2")]
            cin, hw = width, ohw
    layers += [
        LayerSpec(kind="avgpool", name="pool", elements=cin * hw * hw),
        LayerSpec(kind="flatten", name="flatten"),
        _linear("fc", cin, CIFAR100_CLASSES),
    ]
    return ArchSpec("resnet20", (3, 32, 32), tuple(layers), gateway_macs=CNN_GATEWAY_MACS)


_VGG_CFG = {
    "vgg11_bn": (64, "M", 128, "M", 256, 256, "M", 512, 512, "M", 512, 512, "M"),
    "vgg19_bn": (64, 64, "M", 128, 128, "M", 256, 256, 256, 256, "M",
                 512, 512, 512, 512, "M", 512, 512, 512, 512, "M"),
}


def _vgg(name: str) -> ArchSpec:
    """Batch-normalized VGG feature stack with the compact 3-linear head.

    Every conv after the first is its own expert-substitution unit.
    """
    layers = []
    hw, cin, idx = 32, 3, 0
    for v in _VGG_CFG[name]:
        if v == "M":
            layers.append(LayerSpec(kind="maxpool", name=f"pool{idx}"))
            hw //= 2
            continue
        unit = f"conv{idx}" if idx > 0 else ""
        conv, hw = _conv(f"conv{idx}", cin, v, 3, hw, unit=unit)
        layers += [conv, _bn(f"bn{idx}", v, hw), _relu(f"relu{idx}")]
        cin = v
        idx += 1
    layers += [
        LayerSpec(kind="flatten", name="flatten"),
        _linear("fc0", 512, 512), _relu("fc0.relu"),
        _linear("fc1", 512, 512), _relu("fc1.relu"),
        _linear("fc2", 512, CIFAR100_CLASSES),
    ]
    return ArchSpec(name, (3, 32, 32), tuple(layers), gateway_macs=CNN_GATEWAY_MACS)


def vgg11_bn() -> ArchSpec:
    return _vgg("vgg11_bn")


def vgg19_bn() -> ArchSpec:
    return _vgg("vgg19_bn")


def vit_small_spec() -> ArchSpec:
    """Cost-model description of the small vision transformer: 224x224
    images in 16x16 patches, width 384, 12 blocks of 6 heads with a 1536-wide
    feed-forward, and 200 classes (Tiny ImageNet-200).

    Patch embedding and classifier head stay exact; every in-block linear is
    approximable; each block's feed-forward is an expert-substitution unit.
    Attention score and score-value matmuls are modelled as zero-MAC mixes.
    """
    num_classes, image_size, patch = 200, 224, 16
    dim, depth, mlp_dim = 384, 12, 1536
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
            Residual(pre + "res1", (
                _ln(pre + "ln1", dim),
                _linear(pre + "qkv", dim, 3 * dim, tokens, APPROX),
                LayerSpec(kind="attention_mix", name=pre + "attn"),
                _linear(pre + "proj", dim, dim, tokens, APPROX),
            )),
            Residual(pre + "res2", (
                _ln(pre + "ln2", dim),
                _linear(pre + "fc1", dim, mlp_dim, tokens, APPROX, unit=unit),
                LayerSpec(kind="gelu", name=pre + "gelu", elements=tokens * mlp_dim,
                          moe_unit=unit),
                _linear(pre + "fc2", mlp_dim, dim, tokens, APPROX, unit=unit),
            )),
        ]
    layers += [
        _ln("ln_final", dim),
        _linear("head", dim, num_classes, tokens=1),
    ]
    return ArchSpec("vit_small", (3, image_size, image_size), tuple(layers),
                    gateway_macs=VIT_GATEWAY_MACS)


def toy_cnn(num_classes: int = 10, resolution: int = 16, channels: int = 1) -> ArchSpec:
    if resolution % 4:
        raise ParameterError("toy_cnn resolution must be divisible by 4")
    layers = []
    c1, hw = _conv("conv1", channels, 8, 3, resolution)
    layers += [c1, _relu("relu1"),
               LayerSpec(kind="avgpool", name="pool1", kernel=(2, 2), elements=8 * hw * hw)]
    hw //= 2
    c2, hw = _conv("conv2", 8, 16, 3, hw, unit="conv2")
    layers += [c2, _relu("relu2"),
               LayerSpec(kind="avgpool", name="pool2", kernel=(2, 2), elements=16 * hw * hw)]
    hw //= 2
    layers += [
        LayerSpec(kind="flatten", name="flatten"),
        _linear("fc", 16 * hw * hw, num_classes),
    ]
    return ArchSpec("toy_cnn", (channels, resolution, resolution), tuple(layers))


def toy_mlp(num_classes: int = 10, resolution: int = 28, channels: int = 1) -> ArchSpec:
    fin = channels * resolution * resolution
    layers = (
        LayerSpec(kind="flatten", name="flatten"),
        _linear("fc1", fin, 32, arithmetic=APPROX, unit="fc1"),
        _relu("relu1"),
        _linear("fc2", 32, num_classes, arithmetic=APPROX),
    )
    return ArchSpec("toy_mlp", (channels, resolution, resolution), layers)


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
    """Exact gate with no bias, priced like a linear map for MACs."""
    first = members[0]
    # conv experts route per sample on globally pooled feature maps
    fin, tokens = ((first.in_channels, 1) if first.kind == "conv2d"
                   else (first.in_features, first.tokens))
    return LayerSpec(kind="router", name=f"{unit}.router", in_features=fin,
                     out_features=n_experts, tokens=tokens)


def default_gateway(arch: ArchSpec, n_experts: int) -> ArchSpec:
    """The cluster gateway: one exact `gateway` layer carrying the
    architecture's published MAC budget, or, for the toy architectures that
    have none, a flat linear classifier over raw input pixels."""
    if arch.gateway_macs is not None:
        if arch.gateway_macs < 0:
            raise ParameterError(f"gateway MAC budget must be non-negative, "
                                 f"got {arch.gateway_macs}")
        layers = (LayerSpec(kind="gateway", name="gateway", elements=arch.gateway_macs),)
    else:
        layers = (
            LayerSpec(kind="flatten", name="gateway.flatten"),
            _linear("gateway.fc", math.prod(arch.input_shape), n_experts),
        )
    return ArchSpec(f"{arch.name}_gateway", arch.input_shape, layers)


def substitute_moe(arch: ArchSpec, variant: str, n_experts: int = 3,
                   moe_ratio: float | None = None):
    """Derive a mixture-of-experts graph from a dense spec.

    hard/soft replace each selected substitution unit by an n-expert group
    with its own router, inside the Residual body that holds it; cluster
    wraps the whole dense spec behind `default_gateway`. dense returns the
    spec itself. Only a dense spec is accepted: a substituted spec or a
    ClusterArch raises ParameterError.
    """
    if variant not in VARIANTS:
        raise ParameterError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    if n_experts < 1:
        raise ParameterError(f"n_experts must be >= 1, got {n_experts}")
    if not isinstance(arch, ArchSpec):
        raise ParameterError(f"expected a dense layer spec, got a {type(arch).__name__}")
    if any(isinstance(entry, MoEGroup) for entry in walk(arch.layers)):
        raise ParameterError(f"{arch.name} already holds expert groups; "
                             "substitute into its dense spec")
    if variant == "dense":
        return arch
    if variant == "cluster":
        return _storable(ClusterArch(name=arch.name, replica=arch, n_experts=n_experts,
                                     gateway=default_gateway(arch, n_experts)))

    units = list(dict.fromkeys(layer.moe_unit for layer in walk(arch.layers) if layer.moe_unit))
    if not units:
        raise ParameterError(f"{arch.name} has no expert-substitutable layers")
    selected = _select_units(units, moe_ratio)

    def unit_of(entry) -> str:
        unit = "" if isinstance(entry, Residual) else entry.moe_unit
        return unit if unit in selected else ""

    def grouped(entries) -> tuple:
        out = []
        for unit, run in itertools.groupby(entries, key=unit_of):
            if not unit:
                out.extend(Residual(e.name, grouped(e.body), grouped(e.shortcut))
                           if isinstance(e, Residual) else e for e in run)
                continue
            members = tuple(run)
            out.append(MoEGroup(name=unit, n_experts=n_experts, members=members,
                                router=_router_for(members, unit, n_experts), mode=variant))
        return tuple(out)

    return _storable(replace(arch, layers=grouped(arch.layers)))


def _storable(graph):
    """graph, once its float32 parameters are known to fit one numpy array:
    a graph past that (a huge n_experts) is refused before anything walks
    its copies one by one."""
    params = stored_params(graph)
    if params * 4 > np.iinfo(np.intp).max:
        raise ParameterError(f"{graph.name} stores {params} float32 parameters, "
                             "more bytes than numpy's largest array")
    return graph
