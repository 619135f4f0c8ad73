"""Instantiate executable models from shape-level graphs.

Only desk-scale graphs are executable (toy architectures, their MoE
variants, and cluster gateways). The large published architectures exist
for cost accounting and will raise here if instantiation is attempted, as
will any graph that holds a Residual block.

Expert initialization: expert 0 is an exact copy of the dense layer, the
others add small seeded jitter. Exact copies with a zero router make every
expert receive identical gradients, which would pin them together forever.
"""

from __future__ import annotations

import hashlib
import io
import json
from pathlib import Path

import numpy as np

from .engine import AvgPool2d, Conv2d, Flatten, Layer, Linear, Model, ReLU
from .errors import FormatError, NumericError, ParameterError
from .files import read_npz, replace_file
from .graphs import APPROX, ClusterArch, MoEGroup, Residual, build_arch, substitute_moe
from .moe import ClusterModel, MoELayer, Router

ROUTER_INIT_STD = 0.05
EXPERT_JITTER = 0.02
DTYPE = np.float32  # parameter dtype of every executable model
# What a checkpoint's meta must hold for `model_from_spec` to rebuild it.
META_KEYS = ("arch", "arch_kwargs", "variant", "n_experts", "moe_ratio", "seed")
CHECKPOINT_FILE = "checkpoint.npz"


def _init(rng, spec) -> tuple:
    """He-normal weight and zero bias of a conv2d or linear spec; () for
    every other kind, which draws nothing."""
    if spec.kind == "conv2d":
        shape = (spec.out_channels, spec.in_channels, *spec.kernel)
    elif spec.kind == "linear":
        shape = (spec.out_features, spec.in_features)
    else:
        return ()
    std = np.sqrt(2.0 / np.prod(shape[1:]))
    return rng.normal(0.0, std, size=shape).astype(DTYPE), np.zeros(shape[0], dtype=DTYPE)


def _layer(spec, name: str, params: tuple) -> Layer:
    """Executable layer for `spec` under `name`, holding `_init`'s params."""
    kind = spec.kind
    if kind == "conv2d":
        return Conv2d(name, *params, spec.stride, spec.padding,
                      approximate=spec.arithmetic == APPROX)
    if kind == "linear":
        return Linear(name, *params, approximate=spec.arithmetic == APPROX)
    if kind == "relu":
        return ReLU(name)
    if kind == "avgpool":
        return AvgPool2d(name, spec.kernel[0])
    if kind == "flatten":
        return Flatten(name)
    raise ParameterError(f"layer kind {kind!r} ({name}) is not executable at desk scale")


def _build_layer(spec, name: str, rng) -> Layer:
    """`_layer` for a layer spec, with its params drawn from `rng`."""
    if isinstance(spec, Residual):
        raise ParameterError(f"residual block {name!r} is not executable at desk scale")
    return _layer(spec, name, _init(rng, spec))


def _jitter(arr: np.ndarray, rng) -> np.ndarray:
    scale = float(np.std(arr)) or 1.0
    return arr + (EXPERT_JITTER * scale * rng.standard_normal(arr.shape)).astype(arr.dtype)


def _build_group(group: MoEGroup, rng) -> MoELayer:
    base = [(spec, _init(rng, spec)) for spec in group.members]
    experts: list[Layer] = []
    for i in range(group.n_experts):
        prefix = f"{group.name}.expert{i}"
        layers = [_layer(spec, f"{prefix}.{spec.name}",
                         params if i == 0 else tuple(_jitter(p, rng) for p in params))
                  for spec, params in base]
        experts.append(layers[0] if len(layers) == 1 else Model(prefix, layers))
    router_w = (ROUTER_INIT_STD * rng.standard_normal(
        (group.n_experts, group.router.in_features))).astype(DTYPE)
    return MoELayer(group.name, experts, Router(group.router.name, router_w), group.mode)


def build_model(graph, seed: int = 0) -> Model:
    """Executable model from an ArchSpec, substituted spec, or ClusterArch:
    a Model that takes only samples of the graph's `input_shape`."""
    if isinstance(graph, ClusterArch):
        return Model(graph.name, [_build_cluster(graph, seed)], graph.replica.input_shape)
    rng = np.random.default_rng(seed)
    return Model(graph.name, [_build_group(e, rng) if isinstance(e, MoEGroup)
                              else _build_layer(e, e.name, rng) for e in graph.layers],
                 graph.input_shape)


def _build_cluster(cluster: ClusterArch, seed: int) -> ClusterModel:
    gw_rng = np.random.default_rng([seed, 0xBEEF])
    gateway = Model(cluster.gateway.name,
                    [_build_layer(s, s.name, gw_rng) for s in cluster.gateway.layers])
    replicas = []
    for i in range(cluster.n_experts):
        rng = np.random.default_rng([seed, i])
        replicas.append(Model(f"replica{i}", [_build_layer(s, f"replica{i}.{s.name}", rng)
                                              for s in cluster.replica.layers]))
    return ClusterModel(cluster.name, gateway, replicas)


# ---------------------------------------------------------------------------
# Checkpoint round trip
# ---------------------------------------------------------------------------

def save_model(model, directory, meta: dict) -> None:
    """Write `directory`/checkpoint.npz: every parameter under its qualified
    name, which always holds a ".", plus `meta` as one JSON string entry.
    NaN or infinite parameters, which `load_model` rejects, raise
    NumericError and write nothing."""
    params = model.params()
    non_finite = _non_finite(params)
    if non_finite:
        raise NumericError(f"{directory}: non-finite values in {non_finite}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    buf = io.BytesIO()
    np.savez(buf, meta=json.dumps(meta, sort_keys=True), **params)
    replace_file(directory / CHECKPOINT_FILE, buf.getbuffer())


def _non_finite(params: dict) -> list[str]:
    return sorted(k for k, v in params.items() if not np.isfinite(v).all())


def model_from_spec(meta: dict):
    """Rebuild the graph a checkpoint was trained as, without its weights."""
    arch = build_arch(meta["arch"], **meta["arch_kwargs"])
    graph = substitute_moe(arch, meta["variant"], n_experts=int(meta["n_experts"]),
                           moe_ratio=meta["moe_ratio"])
    return build_model(graph, seed=int(meta["seed"]))


def read_checkpoint(directory) -> tuple[dict[str, np.ndarray], dict]:
    """The parameters and the decoded meta that `save_model` wrote to
    `directory`, unchecked against any graph; a missing file or anything
    that is not such an archive raises FormatError."""
    path = Path(directory) / CHECKPOINT_FILE
    if not path.is_file():
        raise FormatError(f"{directory}: no {CHECKPOINT_FILE}")
    params = read_npz(path)
    meta = params.pop("meta", None)
    if meta is None or meta.ndim != 0 or meta.dtype.kind != "U":
        raise FormatError(f"{path}: meta must be one JSON string entry")
    try:
        meta = json.loads(meta.item())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: meta: {exc}") from exc
    if not isinstance(meta, dict):
        raise FormatError(f"{path}: meta must be a JSON object")
    return params, meta


def load_model(directory):
    """The model and meta that `save_model` wrote to `directory`; anything
    else there raises FormatError."""
    params, meta = read_checkpoint(directory)
    missing = [k for k in META_KEYS if k not in meta]
    if missing:
        raise FormatError(f"{directory}: checkpoint meta lacks {missing}")
    try:
        model = model_from_spec(meta)
        model.load_params(params)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{directory}: checkpoint meta does not rebuild a model: {exc}") from exc
    non_finite = _non_finite(model.params())
    if non_finite:
        raise FormatError(f"{directory}: non-finite values in {non_finite}")
    return model, meta


def arrays_sha256(arrays: dict[str, np.ndarray]) -> str:
    """Hex sha256 over `arrays` in sorted name order: each name, dtype and
    shape, then the array's bytes, read in place when the array is
    C-contiguous."""
    digest = hashlib.sha256()
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        digest.update(repr((name, arr.dtype.str, arr.shape)).encode("utf-8"))
        digest.update(arr)
    return digest.hexdigest()
