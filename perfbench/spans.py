"""Instrumentation installed from the benchmark's own files.

Nothing here edits axmoe's source. Every hook replaces a module attribute
(or a class method) for the duration of a `with Patcher()` block and puts
the original back on exit:

* PhaseClock times `train.fit` and `train.evaluate` so a workload can split
  its wall time into training and evaluation. A handful of calls per round,
  so it stays on in untraced runs.
* LutTally keeps what `RunContext.count` and `RunContext.count_routed`
  report. The engine computes those counters anyway and the training loop
  discards them; the tally is the exact LUT-invocation numerator and the
  input of the cost-model cross-check.
* Tracer records one span per call of every public function of the axmoe
  modules, plus the layer methods, and derives the per-layer metrics. Only
  traced runs install it.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

# Modules whose public functions the tracer wraps, in the order they are
# reported. tensor_io and errors sit below every layer and are left alone.
TRACED_MODULES = ("engine", "moe", "train", "models", "multipliers", "datasets",
                  "cost", "graphs", "config", "cli")


class Patcher:
    """Replaces attributes and restores them, last patch first, on exit."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def replace_function(self, current, wrapper) -> None:
        """Point every axmoe namespace that holds `current` at `wrapper`.

        A function imported with `from .train import evaluate` lives under
        two names (`train.evaluate` and `cli.evaluate`); both must change or
        calls through one of them escape the hook."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "axmoe" or modname.startswith("axmoe.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is current:
                    self.set(module, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class PhaseClock:
    """Training and evaluation time and samples, accumulated until reset.

    Training time is time in `fit` minus the per-epoch evaluations that
    `fit` itself runs; those count as evaluation."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.train_s = 0.0
        self.train_samples = 0
        self.eval_s = 0.0
        self.eval_samples = 0
        self._in_fit = 0
        self._eval_in_fit_s = 0.0

    def install(self, patcher: Patcher, train_module) -> None:
        fit, evaluate = train_module.fit, train_module.evaluate

        @functools.wraps(fit)
        def timed_fit(model, data, cfg, *args, **kwargs):
            self._in_fit += 1
            before = self._eval_in_fit_s
            t0 = time.perf_counter()
            try:
                return fit(model, data, cfg, *args, **kwargs)
            finally:
                spent = time.perf_counter() - t0
                self._in_fit -= 1
                self.train_s += spent - (self._eval_in_fit_s - before)
                self.train_samples += cfg.epochs * len(data.x_train)

        @functools.wraps(evaluate)
        def timed_evaluate(model, x, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return evaluate(model, x, *args, **kwargs)
            finally:
                spent = time.perf_counter() - t0
                self.eval_s += spent
                self.eval_samples += len(x)
                if self._in_fit:
                    self._eval_in_fit_s += spent

        patcher.replace_function(fit, timed_fit)
        patcher.replace_function(evaluate, timed_evaluate)


class LutTally:
    """Per-layer LUT invocations and per-expert routed samples, as the
    engine's RunContext reports them, accumulated until reset."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.counters: dict[str, int] = defaultdict(int)
        self.routed: dict[str, int] = defaultdict(int)

    def snapshot(self) -> tuple[dict, dict]:
        out = dict(self.counters), dict(self.routed)
        self.reset()
        return out

    def install(self, patcher: Patcher, engine_module) -> None:
        ctx_cls = engine_module.RunContext
        count, count_routed = ctx_cls.count, ctx_cls.count_routed
        tally = self

        def tallied_count(ctx, name, n):
            count(ctx, name, n)
            tally.counters[name] += int(n)

        def tallied_count_routed(ctx, name, n):
            count_routed(ctx, name, n)
            tally.routed[name] += int(n)

        patcher.set(ctx_cls, "count", tallied_count)
        patcher.set(ctx_cls, "count_routed", tallied_count_routed)


def load_cv(routed: dict[str, int]) -> float:
    """Mean coefficient of variation of the routed counts per MoE layer or
    cluster (keys `<layer>.expert<i>` / `<cluster>.replica<i>`); 0 if none."""
    groups: dict[str, list[int]] = defaultdict(list)
    for key, n in routed.items():
        head, _, tail = key.rpartition(".")
        if tail.startswith(("expert", "replica")):
            groups[head].append(n)
    cvs = []
    for counts in groups.values():
        mean = sum(counts) / len(counts)
        if len(counts) > 1 and mean > 0:
            cvs.append(statistics.pstdev(counts) / mean)
    return sum(cvs) / len(cvs) if cvs else 0.0


# ---------------------------------------------------------------------------
# Span recorder
# ---------------------------------------------------------------------------

# Span name -> reported layer. Spans of one layer that nest inside each other
# (a builtin multiplier built from cli.resolve_multiplier, count_macs on a
# cluster's replica) are counted once, at the outermost call.
LAYER_OF_SPAN = {
    "multipliers.builtin_multiplier": "multipliers.build",
    "multipliers.build_exact_multiplier": "multipliers.build",
    "multipliers.build_truncation_multiplier": "multipliers.build",
    "cli.resolve_multiplier": "multipliers.build",
    "moe.Router.gates": "moe.router",
}

# Layers whose time is subtracted from an enclosing span's self time. A span
# that is not listed (say `train.fit` or `engine.stable_softmax`) counts as
# part of its nearest listed ancestor.
LISTED_LAYERS = (
    "engine.lut_matmul", "engine.quantize", "engine.im2col", "engine.col2im",
    "engine.conv2d.forward_float", "engine.conv2d.forward_lut", "engine.conv2d.backward",
    "engine.linear.forward_float", "engine.linear.forward_lut", "engine.linear.backward",
    "moe.router", "moe.moe_layer.forward", "moe.moe_layer.backward",
    "moe.cluster.forward", "moe.cluster.backward",
    "train.sgd_step", "train.train_epoch", "train.evaluate",
    "models.build_model", "models.save_model", "models.load_model",
    "multipliers.build", "multipliers.load_lut", "datasets.load_dataset",
    "cost.count_macs", "graphs.substitute_moe", "graphs.build_arch",
    "config.load_config", "cli.main",
)
_LISTED = frozenset(LISTED_LAYERS)


def _dir_bytes(path) -> int:
    total = 0
    for root, _, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(root, f))
    return total


class Tracer:
    """In-memory span recorder.

    A span is (id, parent id, name, start, end, cell id, amount). `amount`
    is a per-call work count where one is defined: LUT lookups for
    lut_matmul, bytes for im2col's columns and a saved checkpoint. Spans of
    one benchmark cell share its cell id. Nothing is written until `dump`.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.cell = 0

    # -- recording ----------------------------------------------------------

    def _recorder(self, fn, name, measure=None):
        """`fn` wrapped in a span. `name` is a string or, for layer methods
        whose span name depends on the call, a function of the arguments."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        name_of = name if callable(name) else (lambda args: name)

        @functools.wraps(fn)
        def call(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            label = name_of(args)
            spans.append(None)
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (sid, parent, label, t0, t1, self.cell, 0)
            if measure is not None:
                spans[sid] = spans[sid][:6] + (measure(args, out),)
            return out

        return call

    def install(self, patcher: Patcher, axmoe_modules: dict) -> None:
        measures = {
            "engine.lut_matmul": lambda args, out: int(out.size) * int(args[0].shape[1]),
            "engine.im2col": lambda args, out: int(out.nbytes),
            "models.save_model": lambda args, out: _dir_bytes(args[1]),
        }
        for short in TRACED_MODULES:
            module = axmoe_modules[short]
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ != module.__name__:
                    continue  # imported from elsewhere; wrapped by its owner
                name = f"{short}.{attr}"
                patcher.replace_function(value, self._recorder(value, name, measures.get(name)))
        engine, moe = axmoe_modules["engine"], axmoe_modules["moe"]

        def forward_name(kind):
            def name_of(args):  # (layer, x, ctx)
                lut = args[2].multiplier is not None and args[0].approximate
                return f"engine.{kind}.forward_{'lut' if lut else 'float'}"
            return name_of

        methods = [(engine.Conv2d, "forward", forward_name("conv2d")),
                   (engine.Conv2d, "backward", "engine.conv2d.backward"),
                   (engine.Linear, "forward", forward_name("linear")),
                   (engine.Linear, "backward", "engine.linear.backward"),
                   (moe.Router, "gates", "moe.Router.gates")]
        methods += [(cls, attr, f"moe.{label}.{attr}")
                    for cls, label in ((moe.MoELayer, "moe_layer"), (moe.ClusterModel, "cluster"))
                    for attr in ("forward", "backward")]
        for cls, attr, name in methods:
            patcher.set(cls, attr, self._recorder(getattr(cls, attr), name))

    # -- aggregation --------------------------------------------------------

    def layer_totals(self, rounds: int) -> dict[str, dict[str, float]]:
        """Per listed layer, for one traced set-up plus one round: calls and
        busy time of outermost spans, self time (duration minus nearest
        listed descendants) and summed amount.

        Spans of cell 0 (the traced set-up) count once; spans of the timed
        cells are divided by `rounds`, so the figures do not grow with the
        number of rounds that fit in the time budget."""
        spans = self.spans
        layer = [LAYER_OF_SPAN.get(s[2], s[2]) for s in spans]
        listed_parent = [-1] * len(spans)   # nearest listed ancestor
        for s in spans:  # parents precede children
            sid, parent = s[0], s[1]
            if parent >= 0:
                listed_parent[sid] = parent if layer[parent] in _LISTED else listed_parent[parent]

        def nested_in_same_layer(sid: int) -> bool:
            up = listed_parent[sid]
            while up >= 0:
                if layer[up] == layer[sid]:
                    return True
                up = listed_parent[up]
            return False

        covered = [0.0] * len(spans)
        for s in spans:
            lp = listed_parent[s[0]]
            if lp >= 0 and layer[s[0]] in _LISTED:
                covered[lp] += s[4] - s[3]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0.0, "busy_s": 0.0, "self_s": 0.0, "amount": 0.0})
        for s in spans:
            name = layer[s[0]]
            if name not in _LISTED:
                continue
            weight = 1.0 if s[5] == 0 else 1.0 / max(rounds, 1)
            row = out[name]
            dur = s[4] - s[3]
            row["self_s"] += weight * (dur - covered[s[0]])
            row["amount"] += weight * s[6]
            if not nested_in_same_layer(s[0]):
                row["calls"] += weight
                row["busy_s"] += weight * dur
        return out

    def lookups_by_caller(self) -> dict[str, tuple[int, float]]:
        """lut_matmul (lookups, busy seconds) split by the layer kind that
        called it: conv2d or linear."""
        spans = self.spans
        out = {"conv": [0, 0.0], "linear": [0, 0.0]}
        for s in spans:
            if s[2] != "engine.lut_matmul" or s[1] < 0:
                continue
            caller = spans[s[1]][2]
            kind = "conv" if caller.startswith("engine.conv2d") else (
                "linear" if caller.startswith("engine.linear") else None)
            if kind:
                out[kind][0] += s[6]
                out[kind][1] += s[4] - s[3]
        return {k: (v[0], v[1]) for k, v in out.items()}

    def dump(self, path: Path) -> None:
        """Write all spans as gzipped JSON lines, times relative to the first
        span. Cell 0 is the traced set-up."""
        path.parent.mkdir(parents=True, exist_ok=True)
        base = self.spans[0][3] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write('{"fields": ["id", "parent", "name", "start_s", "end_s", "cell", "amount"]}\n')
            for s in self.spans:
                fh.write(json.dumps([s[0], s[1], s[2], round(s[3] - base, 7),
                                     round(s[4] - base, 7), s[5], s[6]]) + "\n")
