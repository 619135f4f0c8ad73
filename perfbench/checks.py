"""Correctness checks that live in the benchmark, independent of axmoe's
own implementation of the same rules."""

from __future__ import annotations

import re

import numpy as np


class CheckLog:
    """Counts checks and records every failure with a message."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


# ---------------------------------------------------------------------------
# LUT gather oracle
# ---------------------------------------------------------------------------

ORACLE_ROWS = 256


def oracle_rows(a: np.ndarray, b: np.ndarray, lut: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Reference (len(rows), M) int64 products: lut[(a+128)*256+(b+128)] summed."""
    ia = a[rows].astype(np.int64) + 128
    ib = b.astype(np.int64) + 128
    table = lut.astype(np.int64)
    out = np.empty((len(rows), b.shape[0]), dtype=np.int64)
    for j in range(b.shape[0]):
        out[:, j] = table[ia * 256 + ib[j]].sum(axis=1)
    return out


class OracleCheck:
    """Wraps engine.lut_matmul; every call made while installed is compared
    with the gather oracle on a seeded sample of its output rows, always
    including the first and the last row."""

    def __init__(self, log: CheckLog, seed: int):
        self.log = log
        self.rng = np.random.default_rng([seed, 0x0AC1E])
        self.calls = 0
        self.mismatches = 0

    def install(self, patcher, lut_matmul) -> None:
        def checked(a, b, m):
            out = lut_matmul(a, b, m)
            n = a.shape[0]
            pick = self.rng.choice(n, size=min(n, ORACLE_ROWS), replace=False)
            rows = np.unique(np.concatenate([pick, [0, n - 1]]))
            want = oracle_rows(np.asarray(a), np.asarray(b), m.lut, rows)
            ok = (out.dtype == np.int32 and out.shape == (n, b.shape[0])
                  and np.array_equal(out[rows].astype(np.int64), want))
            self.calls += 1
            if not self.log.check(ok, f"lut_matmul {a.shape}x{b.shape} under {m.name} "
                                      f"differs from the gather oracle"):
                self.mismatches += 1
            return out

        patcher.replace_function(lut_matmul, checked)


# ---------------------------------------------------------------------------
# Criterion-6 predictor
# ---------------------------------------------------------------------------

def predict_lut_counts(graph, routed: dict, samples: int, cost, graphs) -> dict[str, int]:
    """LUT invocations per layer the cost model predicts for `samples`
    images through `graph`, given how many reached each expert or replica.

    Approximate conv2d/linear layers cost layer_macs per image they see:
    every image for backbone layers, the routed images for expert and
    replica layers. Exact layers (routers, gateways, the toy heads) cost
    no lookups."""
    pred: dict[str, int] = {}

    def add(key, spec, runs):
        if spec.kind in ("conv2d", "linear") and spec.arithmetic == graphs.APPROX:
            ops = cost.layer_macs(spec)
            if ops and runs:
                pred[key] = pred.get(key, 0) + ops * runs

    if isinstance(graph, graphs.ClusterArch):
        for spec in graph.gateway.layers:
            add(spec.name, spec, samples)
        for i in range(graph.n_experts):
            runs = routed.get(f"{graph.name}.replica{i}", 0)
            for spec in graph.replica.layers:
                add(f"replica{i}.{spec.name}", spec, runs)
        return pred
    for entry in graph.layers:
        if isinstance(entry, graphs.MoEGroup):
            for i in range(entry.n_experts):
                runs = routed.get(f"{entry.name}.expert{i}", 0)
                for spec in entry.members:
                    add(f"{entry.name}.expert{i}.{spec.name}", spec, runs)
        else:
            add(entry.name, entry, samples)
    return pred


def routed_total_ok(graph, routed: dict, samples: int, graphs) -> bool:
    """Hard routing and clusters send each image to exactly one expert or
    replica; soft routing sends it to all of them."""
    if isinstance(graph, graphs.ClusterArch):
        return sum(routed.get(f"{graph.name}.replica{i}", 0)
                   for i in range(graph.n_experts)) == samples
    for entry in graph.layers:
        if isinstance(entry, graphs.MoEGroup):
            got = [routed.get(f"{entry.name}.expert{i}", 0) for i in range(entry.n_experts)]
            want = samples * (entry.n_experts if entry.mode == "soft" else 1)
            if sum(got) != want:
                return False
    return True


# ---------------------------------------------------------------------------
# Published MAC table (criterion 3)
# ---------------------------------------------------------------------------

DENSE_RTOL = 0.005      # published dense rows within 0.5 %
CNN_MOE_RTOL = 0.02     # CNN hard/soft/cluster rows within 2 %
VIT_RTOL = 0.005        # every ViT row within 0.5 %
# The ResNet-20 cluster effective figure is known to come out 1-2 % above
# the published 164.73 M (gateway plus one replica gives ~167.4 M).
RESNET_CLUSTER_GAP = (0.01, 0.02)

# Published per-image MACs in millions, (total, effective), keyed by
# (arch, variant, moe_ratio). ViT hard/soft are published at ratios 0.25 and
# 0.5 only.
PUBLISHED_MACS = {
    ("resnet20", "dense", None): (41.63, 41.63),
    ("resnet20", "hard", None): (123.25, 41.63),
    ("resnet20", "soft", None): (123.25, 123.25),
    ("resnet20", "cluster", None): (250.69, 164.73),
    ("vgg11_bn", "dense", None): (153.95, 153.95),
    ("vgg11_bn", "hard", None): (458.96, 153.95),
    ("vgg11_bn", "soft", None): (458.96, 458.96),
    ("vgg11_bn", "cluster", None): (587.53, 279.77),
    ("vgg19_bn", "dense", None): (399.92, 399.92),
    ("vgg19_bn", "hard", None): (1195.67, 399.92),
    ("vgg19_bn", "soft", None): (1195.67, 1195.67),
    ("vgg19_bn", "cluster", None): (1325.45, 525.69),
    ("vit_small", "dense", None): (4244.66, 4244.66),
    ("vit_small", "cluster", None): (16873.8, 8384.66),
    ("vit_small", "hard", 0.25): (5641.51, 4245.35),
    ("vit_small", "soft", 0.25): (5641.51, 5641.51),
    ("vit_small", "hard", 0.5): (7038.36, 4246.04),
    ("vit_small", "soft", 0.5): (7038.36, 7038.36),
}

COUNT_KEYS = tuple((arch, variant, None)
                   for arch in ("resnet20", "vgg11_bn", "vgg19_bn", "vit_small")
                   for variant in ("dense", "hard", "soft", "cluster")) + tuple(
    ("vit_small", variant, ratio) for ratio in (0.25, 0.5) for variant in ("hard", "soft"))

_COUNT_LINE = re.compile(r"total\s+([0-9.]+) M\s+eff\s+([0-9.]+) M")


def check_count_output(key, text: str, log: CheckLog) -> None:
    """One `axmoe count` line against the published figures for `key`;
    a row with no published figure must still keep eff <= total, with
    equality exactly for soft routing."""
    arch, variant, _ = key
    match = _COUNT_LINE.search(text)
    if not log.check(match is not None and text.count("\n") == 1,
                     f"count {key}: expected one report line, got {text!r}"):
        return
    total, eff = float(match.group(1)), float(match.group(2))
    if key not in PUBLISHED_MACS:
        log.check(eff == total if variant == "soft" else eff < total,
                  f"count {key}: effective {eff} M vs total {total} M")
        return
    want_total, want_eff = PUBLISHED_MACS[key]
    if arch == "vit_small":
        rtol = VIT_RTOL
    else:
        rtol = DENSE_RTOL if variant == "dense" else CNN_MOE_RTOL
    log.check(abs(total / want_total - 1.0) <= rtol,
              f"count {key}: total {total} M vs published {want_total} M")
    if key == ("resnet20", "cluster", None):
        gap = eff / want_eff - 1.0
        log.check(RESNET_CLUSTER_GAP[0] < gap < RESNET_CLUSTER_GAP[1],
                  f"count {key}: effective gap {gap:+.4f} outside the known 1-2 % band")
    else:
        log.check(abs(eff / want_eff - 1.0) <= rtol,
                  f"count {key}: effective {eff} M vs published {want_eff} M")


# ---------------------------------------------------------------------------
# Seeded non-separable multiplier table
# ---------------------------------------------------------------------------

NONSEP_ERROR_RATE = 0.25   # share of the 65536 products that are perturbed
NONSEP_MAX_ERROR = 48      # perturbation magnitude bound


def nonseparable_table(seed: int) -> np.ndarray:
    """Exact signed products plus seeded errors on a fraction of entries,
    (65536,) int16 in the axmoe table layout."""
    rng = np.random.default_rng([seed, 0x5E9])
    ops = np.arange(-128, 128, dtype=np.int64)
    table = np.multiply.outer(ops, ops)
    hit = rng.random(table.shape) < NONSEP_ERROR_RATE
    err = rng.integers(-NONSEP_MAX_ERROR, NONSEP_MAX_ERROR + 1, size=table.shape)
    return np.where(hit, table + err, table).astype(np.int16).ravel()


def table_rank(lut: np.ndarray) -> int:
    return int(np.linalg.matrix_rank(lut.reshape(256, 256).astype(np.float64)))
