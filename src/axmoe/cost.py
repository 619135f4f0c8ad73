"""Shape-level MAC accounting and the normalized power metric.

Per-op costs follow the profiler convention the published per-architecture
figures were produced with:

    conv2d          out_ch * Ho * Wo * in_ch * kh * kw
    linear, router  in * out * tokens
    batchnorm2d     4 per output element (subtract, divide, scale, shift)
    avgpool         1 per input element
    gelu            1 per element
    gateway         its published MAC budget
    relu, maxpool, softmax, layernorm, residual adds,
    attention score and score-value matmuls: 0

Only conv2d and linear layers can be approximate, so the remaining op costs
never enter the approximable-MAC numerator, only the effective-MAC
denominator.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParameterError
from .graphs import APPROX, ClusterArch, LayerSpec, MoEGroup
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


def _price(spec: LayerSpec) -> tuple[int, int, int]:
    """(MACs, approximate MACs, params) of one layer."""
    macs = layer_macs(spec)
    return macs, macs if spec.arithmetic == APPROX else 0, layer_params(spec)


def _parts(graph):
    """(copies stored, copies a sample runs through, MACs, approximate MACs,
    params) of every part of a graph.

    A plain layer, a router and a cluster gateway's layers are stored and
    run once. An expert member is stored n times and runs once per sample
    under hard routing, n times under soft routing. A cluster replica is
    stored n times and one of them runs per sample.
    """
    if isinstance(graph, ClusterArch):
        yield from _parts(graph.gateway)
        for stored, runs, *price in _parts(graph.replica):
            yield graph.n_experts * stored, runs, *price
        return
    for entry in graph.layers:
        if isinstance(entry, MoEGroup):
            yield 1, 1, *_price(entry.router)
            runs = entry.n_experts if entry.mode == "soft" else 1
            for member in entry.members:
                yield entry.n_experts, runs, *_price(member)
        else:
            yield 1, 1, *_price(entry)


def _variant(graph) -> str:
    """Report label, read from the graph's structure."""
    if isinstance(graph, ClusterArch):
        return "cluster"
    return next((entry.mode for entry in graph.layers if isinstance(entry, MoEGroup)), "dense")


def count_macs(graph) -> MacReport:
    """MAC, parameter, and approximable-fraction accounting for any graph:
    a dense spec, a substituted hard/soft spec, or a ClusterArch.

    Totals and stored params count every stored copy of a part; effective
    and approximate MACs and active params count the copies one sample runs
    through, so batch * m_approx is the engine's LUT lookups for the batch.
    """
    m_total = m_eff = m_approx = total_params = active_params = 0
    for stored, runs, macs, approx, params in _parts(graph):
        m_total += stored * macs
        m_eff += runs * macs
        m_approx += runs * approx
        total_params += stored * params
        active_params += runs * params
    return MacReport(
        arch=graph.name, variant=_variant(graph),
        m_total=m_total, m_eff=m_eff, m_approx=m_approx,
        f_apx=m_approx / m_eff if m_eff else 0.0,
        total_params=total_params, active_params=active_params,
    )


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
    return (m_eff / m_base) * (f_apx * (p_apx / EXACT_POWER_NW) + (1.0 - f_apx))


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
