"""Instantiate executable models from shape-level graphs.

Only desk-scale graphs are executable (toy architectures, their MoE
variants, and cluster gateways). The large published architectures exist
for cost accounting and will raise here if instantiation is attempted.

Expert initialization: expert 0 is an exact copy of the dense layer, the
others add small seeded jitter. Exact copies with a zero router make every
expert receive identical gradients, which would pin them together forever.
"""

from __future__ import annotations

import copy

import numpy as np

from . import tensor_io
from .engine import AvgPool2d, Conv2d, Flatten, Layer, Linear, Model, ReLU, Sequential
from .errors import ParameterError
from .graphs import APPROX, ArchSpec, ClusterArch, LayerSpec, MoEGroup, build_arch, substitute_moe
from .moe import ClusterModel, MoELayer, Router

ROUTER_INIT_STD = 0.05
EXPERT_JITTER = 0.02


def _init_conv(rng, spec: LayerSpec, dtype):
    cout, cin = spec.out_channels, spec.in_channels
    kh, kw = spec.kernel
    std = np.sqrt(2.0 / (cin * kh * kw))
    w = rng.normal(0.0, std, size=(cout, cin, kh, kw)).astype(dtype)
    return w, np.zeros(cout, dtype=dtype)


def _init_linear(rng, spec: LayerSpec, dtype):
    std = np.sqrt(2.0 / spec.in_features)
    w = rng.normal(0.0, std, size=(spec.out_features, spec.in_features)).astype(dtype)
    return w, np.zeros(spec.out_features, dtype=dtype)


def _instantiate(spec: LayerSpec, rng, dtype, prefix: str) -> Layer:
    name = prefix + spec.name
    kind = spec.kind
    if kind == "conv2d":
        w, b = _init_conv(rng, spec, dtype)
        return Conv2d(name, w, b, spec.stride, spec.padding,
                      approximate=spec.arithmetic == APPROX)
    if kind == "linear":
        w, b = _init_linear(rng, spec, dtype)
        return Linear(name, w, b, approximate=spec.arithmetic == APPROX)
    if kind == "relu":
        return ReLU(name)
    if kind == "avgpool":
        return AvgPool2d(name, spec.kernel[0])
    if kind == "flatten":
        return Flatten(name)
    raise ParameterError(f"layer kind {kind!r} ({name}) is not executable at desk scale")


def _jitter(arr: np.ndarray, rng, amount: float) -> np.ndarray:
    if amount <= 0:
        return arr.copy()
    scale = float(np.std(arr)) or 1.0
    return arr + (amount * scale * rng.standard_normal(arr.shape)).astype(arr.dtype)


def _build_group(group: MoEGroup, rng, dtype, prefix: str) -> MoELayer:
    base = [_instantiate(m, rng, dtype, prefix="") for m in group.members]
    experts: list[Layer] = []
    for i in range(group.n_experts):
        copies = []
        for layer in base:
            dup = copy.deepcopy(layer)
            dup.name = f"{prefix}{group.name}.expert{i}.{layer.name}"
            for pname, arr in layer._params().items():
                setattr(dup, pname, arr.copy() if i == 0 else _jitter(arr, rng, EXPERT_JITTER))
            copies.append(dup)
        if len(copies) == 1:
            experts.append(copies[0])
        else:
            experts.append(Sequential(f"{prefix}{group.name}.expert{i}", copies))
    rname = f"{prefix}{group.name}"
    router_w = (ROUTER_INIT_STD * rng.standard_normal(
        (group.n_experts, group.router.in_features))).astype(dtype)
    return MoELayer(rname, experts, Router(f"{rname}.router", router_w), group.mode)


def build_model(graph, seed: int = 0, dtype=np.float32):
    """Executable model from an ArchSpec, substituted spec, or ClusterArch."""
    if isinstance(graph, ClusterArch):
        return _build_cluster(graph, seed, dtype)
    rng = np.random.default_rng(seed)
    layers: list[Layer] = []
    for entry in graph.layers:
        if isinstance(entry, MoEGroup):
            layers.append(_build_group(entry, rng, dtype, prefix=""))
        else:
            layers.append(_instantiate(entry, rng, dtype, prefix=""))
    return Model(graph.name, layers)


def _build_cluster(cluster: ClusterArch, seed: int, dtype) -> ClusterModel:
    if cluster.gateway is None:
        raise ParameterError(
            "cluster with a budget-only gateway has no executable gateway network")
    gw_rng = np.random.default_rng([seed, 0xBEEF])
    gw_layers = [_instantiate(s, gw_rng, dtype, prefix="") for s in cluster.gateway.layers]
    gateway = Model(cluster.gateway.name, gw_layers)
    replicas = []
    for i in range(cluster.n_experts):
        rng = np.random.default_rng([seed, i])
        layers = [_instantiate(s, rng, dtype, prefix=f"replica{i}.")
                  for s in cluster.replica.layers]
        replicas.append(Model(f"replica{i}", layers))
    return ClusterModel(cluster.name, gateway, replicas)


# ---------------------------------------------------------------------------
# Checkpoint round trip
# ---------------------------------------------------------------------------

def save_model(model, directory, meta: dict) -> None:
    tensor_io.save_checkpoint(directory, model.params(), model.frozen_names(), meta)


def model_from_spec(meta: dict, dtype=np.float32):
    """Rebuild the graph a checkpoint was trained as, without its weights."""
    arch = build_arch(meta["arch"], **meta.get("arch_kwargs", {}))
    graph = substitute_moe(arch, meta.get("variant", "dense"),
                           n_experts=int(meta.get("n_experts", 1) or 1),
                           moe_ratio=meta.get("moe_ratio"))
    return build_model(graph, seed=int(meta.get("seed", 0)), dtype=dtype)


def load_model(directory, dtype=np.float32):
    params, frozen, meta = tensor_io.load_checkpoint(directory)
    model = model_from_spec(meta, dtype=dtype)
    model.load_params({k: v.astype(dtype) for k, v in params.items()})
    expected_frozen = model.frozen_names()
    if frozen - expected_frozen:
        raise ParameterError(f"checkpoint freezes unknown parameters: {sorted(frozen - expected_frozen)}")
    return model, meta
