"""Shape-level MAC accounting and the normalized power metric.

Per-op costs follow the profiler convention the published per-architecture
figures were produced with:

    conv2d          out_ch * Ho * Wo * in_ch * kh * kw
    linear, router  in * out * tokens
    batchnorm2d     4 per output element (subtract, divide, scale, shift)
    avgpool         1 per input element
    gelu            1 per element
    gateway         its published MAC budget
    relu, maxpool, softmax, layernorm, the add that closes a Residual
    block, attention score and score-value matmuls: 0

Only conv2d and linear layers can be approximate, so the remaining op costs
never enter the approximable-MAC numerator, only the effective-MAC
denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NumericError, ParameterError
from .graphs import APPROX, ClusterArch, LayerSpec, MoEGroup, layer_params, walk
from .multipliers import EXACT_POWER_NW


def layer_macs(spec: LayerSpec) -> int:
    """Per-sample MAC count of a single layer under the op-cost convention."""
    if spec.kind == "conv2d":
        oh, ow = spec.out_hw
        return spec.out_channels * oh * ow * spec.in_channels * spec.kernel[0] * spec.kernel[1]
    if spec.kind in ("linear", "router"):
        return spec.in_features * spec.out_features * spec.tokens
    if spec.kind == "batchnorm2d":
        return 4 * spec.elements
    if spec.kind in ("avgpool", "gelu", "gateway"):
        return spec.elements
    return 0


@dataclass(frozen=True)
class MacReport:
    arch: str
    variant: str
    m_total: int
    m_eff: int
    m_approx: int
    f_apx: float
    total_params: int
    active_params: int

    def __post_init__(self):
        if min(self.m_total, self.m_eff, self.m_approx) < 0:
            raise ParameterError("MAC counts must be non-negative")
        if self.m_eff > self.m_total:
            raise ParameterError(f"m_eff {self.m_eff} exceeds m_total {self.m_total}")
        if not 0.0 <= self.f_apx <= 1.0:
            raise ParameterError(f"f_apx {self.f_apx} outside [0, 1]")

    def summary(self) -> str:
        return (f"{self.arch:>14s} {self.variant:>7s}  total {self.m_total / 1e6:10.2f} M  "
                f"eff {self.m_eff / 1e6:10.2f} M  f_apx {self.f_apx:.4f}  "
                f"active params {self.active_params / 1e6:.3f} M")


def _copies(graph):
    """(name, routed key, runs, spec) of every stored copy of every layer of
    a graph: a dense spec, a substituted hard/soft spec, or a ClusterArch.

    `name` is the one `models.build_model` gives the copy. `key` names the
    routed count of the samples the copy sees, or is None when it sees every
    sample. `runs` is how many times one sample runs through the copy: once
    for a plain layer, a router, a gateway layer or a soft expert; a sample
    runs exactly one hard expert or cluster replica, so copy 0 counts once
    and the others not at all.
    """
    if isinstance(graph, ClusterArch):
        yield from _copies(graph.gateway)
        for i in range(graph.n_experts):
            for spec in walk(graph.replica.layers):
                yield f"replica{i}.{spec.name}", f"{graph.name}.replica{i}", int(i == 0), spec
        return
    for entry in walk(graph.layers):
        if isinstance(entry, MoEGroup):
            yield entry.router.name, None, 1, entry.router
            for i in range(entry.n_experts):
                key, runs = f"{entry.name}.expert{i}", int(entry.mode == "soft" or i == 0)
                for spec in entry.members:
                    yield f"{key}.{spec.name}", key, runs, spec
        else:
            yield entry.name, None, 1, entry


def _variant(graph) -> str:
    """Report label, read from the graph's structure."""
    if isinstance(graph, ClusterArch):
        return "cluster"
    return next((entry.mode for entry in walk(graph.layers) if isinstance(entry, MoEGroup)),
                "dense")


def count_macs(graph) -> MacReport:
    """MAC, parameter, and approximable-fraction accounting for any graph:
    a dense spec, a substituted hard/soft spec, or a ClusterArch.

    Totals and stored params count every stored copy of a part; effective
    and approximate MACs and active params count the copies one sample runs
    through, so batch * m_approx is the engine's LUT lookups for the batch.
    """
    m_total = m_eff = m_approx = total_params = active_params = 0
    for _, _, runs, spec in _copies(graph):
        macs, params = layer_macs(spec), layer_params(spec)
        m_total += macs
        m_eff += runs * macs
        if spec.arithmetic == APPROX:
            m_approx += runs * macs
        total_params += params
        active_params += runs * params
    return MacReport(
        arch=graph.name, variant=_variant(graph),
        m_total=m_total, m_eff=m_eff, m_approx=m_approx,
        f_apx=m_approx / m_eff if m_eff else 0.0,
        total_params=total_params, active_params=active_params,
    )


def predict_lut_counts(graph, routed: dict, batch: int) -> dict[str, int]:
    """LUT lookups per layer the int8 engine makes running `batch` samples
    through `graph`, given `routed`, the samples each expert or replica saw
    (`RunContext.routed`): a copy's approximate MACs times the samples it
    sees. A layer that makes no lookup is left out, as the engine leaves it
    out of its counters."""
    counts = {}
    for name, key, _, spec in _copies(graph):
        if spec.arithmetic == APPROX:
            lookups = layer_macs(spec) * (batch if key is None else routed.get(key, 0))
            if lookups:
                counts[name] = lookups
    return counts


def normalized_power(m_eff: int, m_base: int, f_apx: float, p_apx: float) -> float:
    """Power of a variant relative to the dense network on the exact design:

        (m_eff / m_base) * (f_apx * p_apx / EXACT_POWER_NW + (1 - f_apx))
    """
    if m_base <= 0:
        raise ParameterError(f"m_base must be positive, got {m_base}")
    if m_eff < 0:
        raise ParameterError(f"m_eff must be non-negative, got {m_eff}")
    if p_apx <= 0:
        raise ParameterError(f"multiplier power must be positive, got {p_apx}")
    if not 0.0 <= f_apx <= 1.0:
        raise ParameterError(f"f_apx {f_apx} outside [0, 1]")
    p_norm = (m_eff / m_base) * (f_apx * (p_apx / EXACT_POWER_NW) + (1.0 - f_apx))
    if not math.isfinite(p_norm):  # a finite but huge power overflows it
        raise NumericError(f"normalized power of a {p_apx} nW multiplier is not finite")
    return p_norm


# ---------------------------------------------------------------------------
# Power-accuracy frontier
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepPoint:
    p_norm: float
    top1: float
    label: str = ""


def dominates(p: SweepPoint, q: SweepPoint) -> bool:
    """p is at least as cheap and at least as accurate, strictly better in one."""
    return (p.p_norm <= q.p_norm and p.top1 >= q.top1
            and (p.p_norm < q.p_norm or p.top1 > q.top1))


def pareto_frontier(points) -> list[SweepPoint]:
    """The points no other point dominates, by p_norm ascending, then top1
    descending. Exact duplicates do not dominate each other and are all kept."""
    points = list(points)
    return sorted((p for p in points if not any(dominates(q, p) for q in points)),
                  key=lambda p: (p.p_norm, -p.top1))
