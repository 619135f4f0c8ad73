"""Shape-level MAC accounting and the normalized power metric.

Per-op costs follow the profiler convention the published per-architecture
figures were produced with:

    conv2d        out_ch * Ho * Wo * in_ch * kh * kw
    linear        in * out * tokens
    batchnorm2d   4 per output element (subtract, divide, scale, shift)
    avgpool       1 per input element
    gelu          1 per element
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


def layer_macs(spec: LayerSpec) -> int:
    """Per-sample MAC count of a single layer under the op-cost convention."""
    if spec.kind == "conv2d":
        oh, ow = spec.out_hw
        return spec.out_channels * oh * ow * spec.in_channels * spec.kernel[0] * spec.kernel[1]
    if spec.kind == "linear":
        return spec.in_features * spec.out_features * spec.tokens
    if spec.kind == "batchnorm2d":
        return 4 * spec.elements
    if spec.kind in ("avgpool", "gelu"):
        return spec.elements
    return 0


def layer_params(spec: LayerSpec) -> int:
    if spec.kind == "conv2d":
        return spec.out_channels * (spec.in_channels * spec.kernel[0] * spec.kernel[1] + 1)
    if spec.kind == "linear":
        return spec.out_features * (spec.in_features + 1)
    if spec.kind in ("batchnorm2d", "layernorm"):
        return 2 * spec.out_channels if spec.kind == "batchnorm2d" else 2 * spec.out_features
    return 0


@dataclass(frozen=True)
class MacReport:
    arch: str
    variant: str
    n_experts: int
    m_total: int
    m_eff: int
    m_approx: int
    f_apx: float
    total_params: int
    active_params: int
    per_layer: tuple[tuple[str, str, int], ...]  # (name, kind, per-sample MACs, once per expert)

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


def approx_fraction(m_approx: int, m_eff: int) -> float:
    """Share of effective MACs executed on the approximate multiplier,
    clamped to 1.0 when replication overshoots the effective count."""
    if m_eff <= 0:
        raise ParameterError(f"m_eff must be positive, got {m_eff}")
    if m_approx < 0:
        raise ParameterError(f"m_approx must be non-negative, got {m_approx}")
    return min(m_approx / m_eff, 1.0)


def count_macs(graph) -> MacReport:
    """MAC, parameter, and approximable-fraction accounting for any graph.

    Accepts a dense spec, a substituted hard/soft spec, or a ClusterArch.
    """
    if isinstance(graph, ClusterArch):
        return _count_cluster(graph)
    total = eff = 0
    backbone_approx = 0
    total_params = active_params = 0
    per_layer = []
    for entry in graph.layers:
        if isinstance(entry, MoEGroup):
            member_macs = sum(layer_macs(m) for m in entry.members)
            member_params = sum(layer_params(m) for m in entry.members)
            router_macs = layer_macs(entry.router)
            total += entry.n_experts * member_macs + router_macs
            eff += (member_macs if entry.mode == "hard" else entry.n_experts * member_macs) + router_macs
            backbone_approx += sum(layer_macs(m) for m in entry.members if m.arithmetic == APPROX)
            total_params += entry.n_experts * member_params + layer_params(entry.router)
            active_params += (member_params if entry.mode == "hard"
                              else entry.n_experts * member_params) + layer_params(entry.router)
            per_layer.extend((m.name, m.kind, layer_macs(m)) for m in entry.members)
            per_layer.append((entry.router.name, "linear", router_macs))
        else:
            macs = layer_macs(entry)
            total += macs
            eff += macs
            if entry.arithmetic == APPROX:
                backbone_approx += macs
            p = layer_params(entry)
            total_params += p
            active_params += p
            per_layer.append((entry.name, entry.kind, macs))
    m_approx = graph.n_experts * backbone_approx if graph.variant == "soft" else backbone_approx
    return MacReport(
        arch=graph.name, variant=graph.variant, n_experts=graph.n_experts,
        m_total=total, m_eff=eff, m_approx=m_approx,
        f_apx=approx_fraction(m_approx, eff) if eff else 0.0,
        total_params=total_params, active_params=active_params,
        per_layer=tuple(per_layer),
    )


def _count_cluster(cluster: ClusterArch) -> MacReport:
    replica = count_macs(cluster.replica)
    if cluster.gateway_macs is not None:
        budget = int(cluster.gateway_macs)
        gw_params = 0
    elif cluster.gateway is not None:
        gw = count_macs(cluster.gateway)
        budget, gw_params = gw.m_total, gw.total_params
    else:
        raise ParameterError("cluster graph needs gateway_macs or a gateway spec")
    if budget < 0:
        raise ParameterError(f"gateway MAC budget must be non-negative, got {budget}")
    m_total = budget + cluster.n_experts * replica.m_total
    m_eff = budget + replica.m_total
    m_approx = replica.m_approx  # gateway runs exact arithmetic
    return MacReport(
        arch=cluster.name, variant="cluster", n_experts=cluster.n_experts,
        m_total=m_total, m_eff=m_eff, m_approx=m_approx,
        f_apx=approx_fraction(m_approx, m_eff),
        total_params=gw_params + cluster.n_experts * replica.total_params,
        active_params=gw_params + replica.active_params,
        per_layer=replica.per_layer,
    )


def normalized_power(m_eff: int, m_base: int, f_apx: float, p_apx: float, p_base: float) -> float:
    """Power of a variant relative to the dense network on the exact design:

        (m_eff / m_base) * (f_apx * p_apx / p_base + (1 - f_apx))
    """
    if m_base <= 0:
        raise ParameterError(f"m_base must be positive, got {m_base}")
    if m_eff < 0:
        raise ParameterError(f"m_eff must be non-negative, got {m_eff}")
    if p_base <= 0 or p_apx <= 0:
        raise ParameterError("multiplier powers must be positive")
    if not 0.0 <= f_apx <= 1.0:
        raise ParameterError(f"f_apx {f_apx} outside [0, 1]")
    return (m_eff / m_base) * (f_apx * (p_apx / p_base) + (1.0 - f_apx))


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
    """Non-dominated subset, sorted by p_norm ascending.

    Exact duplicates do not dominate each other and are all retained.
    """
    ordered = sorted(points, key=lambda p: (p.p_norm, -p.top1))
    frontier: list[SweepPoint] = []
    best_top1 = float("-inf")
    best_pnorm = None
    for p in ordered:
        if p.top1 > best_top1:
            frontier.append(p)
            best_top1, best_pnorm = p.top1, p.p_norm
        elif p.top1 == best_top1 and p.p_norm == best_pnorm:
            frontier.append(p)  # duplicate of the current frontier point
    return frontier
