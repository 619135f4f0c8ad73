"""The four benchmark workloads.

Each workload builds its inputs from the seed in `setup` (run several times;
the last build is kept), hands the harness one round of timed cells, and
checks every cell's output outside the timed part. All calls into axmoe go
through module attributes (`train.evaluate`, never a saved reference) so
the harness's hooks see them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import statistics
from pathlib import Path

import numpy as np

from checks import (COUNT_KEYS, check_count_output, nonseparable_table,
                    predict_lut_counts, routed_total_ok, table_rank)

VARIANTS = ("dense", "hard", "soft", "cluster")
N_EXPERTS = 3


class Cell:
    """One timed unit. `prepare` runs untimed before `run`."""

    def __init__(self, name: str, run, prepare=None):
        self.name, self.run, self.prepare = name, run, prepare


class Workload:
    name = ""
    graphs_per_round = 0  # graphs accounted per round (count_published only)

    def __init__(self, mods: dict, seed: int, work: Path, smoke: bool, clock, log):
        self.m = mods
        self.seed = seed
        self.work = work
        self.smoke = smoke
        self.clock = clock
        self.log = log
        self.first: dict[str, object] = {}  # cell name -> round-0 output

    def setup(self) -> None:
        raise NotImplementedError

    def cells(self) -> list[Cell]:
        raise NotImplementedError

    def check_cell(self, cell: Cell, out, counters: dict, routed: dict) -> None:
        raise NotImplementedError

    def final_checks(self, oracle) -> None:
        """Untimed checks run once with the lut_matmul oracle installed."""

    def top1(self) -> float | None:
        return None

    def crosscheck(self, rounds: list[dict]) -> dict[str, float]:
        return {}

    # -- shared helpers -----------------------------------------------------

    def repeats(self, name: str, out) -> bool:
        """Record the round-0 output of a cell; later rounds must match it."""
        if name not in self.first:
            self.first[name] = out
            return True
        return self.first[name] == out

    def check_counts(self, label: str, graph, counters: dict, routed: dict, samples: int) -> None:
        """LUT invocations the engine reported for a cell must equal the
        cost model's prediction for the routing that happened."""
        g, c = self.m["graphs"], self.m["cost"]
        pred = predict_lut_counts(graph, routed, samples, c, g)
        self.log.check(counters == pred,
                       f"{label}: LUT counters {sum(counters.values())} differ from "
                       f"the cost-model prediction {sum(pred.values())}")
        self.log.check(routed_total_ok(graph, routed, samples, g),
                       f"{label}: routed counts {routed} do not cover {samples} samples")


def _train_config(train, *, lr, epochs, seed, batch_size=64):
    return train.TrainConfig(lr=lr, weight_decay=5e-4, batch_size=batch_size,
                             epochs=epochs, seed=seed)


# ---------------------------------------------------------------------------
# sweep_float
# ---------------------------------------------------------------------------

class SweepFloat(Workload):
    """`axmoe sweep` on the README exp.cfg shape with the float multiplier.

    The CLI sweep cannot run the cluster variant: reloading pretrained
    weights calls `load_params`, which ClusterModel lacks. The cluster
    variant is pretrained through the same public calls the CLI makes
    (build, fit, save_model, evaluate) in a second cell instead."""

    name = "sweep_float"
    CLI_VARIANTS = ("dense", "hard", "soft")

    def setup(self):
        samples, eval_samples, epochs = (40, 20, 1) if self.smoke else (256, 200, 2)
        self.cfg_path = self.work / "exp.cfg"
        self.out = self.work / "sweep"
        self.cfg_path.write_text(
            "arch            = toy_cnn\n"
            f"variants        = {', '.join(self.CLI_VARIANTS)}\n"
            "multipliers     = float\n"
            f"n_experts       = {N_EXPERTS}\n"
            "num_classes     = 10\n"
            "resolution      = 16\n"
            "channels        = 1\n"
            f"samples         = {samples}\n"
            f"eval_samples    = {eval_samples}\n"
            "noise           = 0.2\n"
            f"pretrain_epochs = {epochs}\n"
            "lr              = 0.1\n"
            "batch_size      = 64\n"
            f"seed            = {self.seed}\n", encoding="utf-8")

    def cells(self):
        return [Cell("sweep", self._sweep), Cell("cluster", self._cluster)]

    def _sweep(self):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self.m["cli"].main(["sweep", "--config", str(self.cfg_path),
                                     "--out", str(self.out)])
        return rc, (self.out / "sweep.csv").read_bytes()

    def _cluster(self):
        cfg_mod, graphs, models, train = (self.m[k] for k in ("config", "graphs", "models", "train"))
        cfg = cfg_mod.load_config(str(self.cfg_path))
        kwargs = {"num_classes": cfg.num_classes, "resolution": cfg.resolution,
                  "channels": cfg.channels}
        graph = graphs.substitute_moe(graphs.build_arch(cfg.arch, **kwargs), "cluster",
                                      n_experts=cfg.n_experts)
        self.m["cost"].count_macs(graph)
        data = self.m["datasets"].load_dataset(
            cfg.dataset, samples=cfg.samples, eval_samples=cfg.eval_samples,
            classes=cfg.num_classes, channels=cfg.channels, resolution=cfg.resolution,
            noise=cfg.noise, seed=cfg.seed)
        model = models.build_model(graph, seed=cfg.seed)
        train.fit(model, data, _train_config(train, lr=cfg.lr, epochs=cfg.pretrain_epochs,
                                             seed=cfg.seed, batch_size=cfg.batch_size))
        models.save_model(model, self.out / "ckpt_cluster",
                          {"arch": cfg.arch, "arch_kwargs": kwargs, "variant": "cluster",
                           "n_experts": cfg.n_experts, "moe_ratio": None, "seed": cfg.seed})
        return train.evaluate(model, data.x_test, data.y_test, None)

    def check_cell(self, cell, out, counters, routed):
        log = self.log
        log.check(not counters, f"{cell.name}: float sweep made LUT calls {counters}")
        if cell.name == "cluster":
            log.check(0.0 <= out <= 1.0, f"cluster: top1 {out} outside [0, 1]")
            log.check(self.repeats(cell.name, out), "cluster: top1 changed between rounds")
            return
        rc, blob = out
        log.check(rc == 0, f"sweep: exit code {rc}")
        rows = list(csv.reader(blob.decode("utf-8").splitlines()))
        log.check(len(rows) == 1 + len(self.CLI_VARIANTS)
                  and all(0.0 <= float(r[7]) <= 1.0 for r in rows[1:]),
                  f"sweep: unexpected sweep.csv rows {rows}")
        log.check(self.repeats(cell.name, blob),
                  "sweep: sweep.csv is not byte-identical to the first round's")

    def top1(self):
        rows = list(csv.reader(self.first["sweep"].decode("utf-8").splitlines()))[1:]
        values = [float(r[7]) for r in rows] + [self.first["cluster"]]
        return statistics.fmean(values)


# ---------------------------------------------------------------------------
# retrain_lut
# ---------------------------------------------------------------------------

class RetrainLut(Workload):
    """Criterion-10 shape: float-pretrained checkpoints, then retraining and
    evaluation under trunc2 with routers frozen."""

    name = "retrain_lut"
    RETRAIN_VARIANTS = ("dense", "hard", "soft")

    def setup(self):
        datasets, graphs, models, multipliers, train = (
            self.m[k] for k in ("datasets", "graphs", "models", "multipliers", "train"))
        samples, eval_samples, pre_epochs, self.epochs = (
            (32, 16, 1, 1) if self.smoke else (256, 200, 2, 1))
        kwargs = {"num_classes": 10, "resolution": 16, "channels": 1}
        self.data = datasets.load_dataset("synthetic", samples=samples,
                                          eval_samples=eval_samples, classes=10, channels=1,
                                          resolution=16, noise=0.2, seed=self.seed)
        self.mul = multipliers.builtin_multiplier("trunc2")
        arch = graphs.build_arch("toy_cnn", **kwargs)
        self.models = {}
        self.clock.reset()
        for variant in self.RETRAIN_VARIANTS:
            graph = graphs.substitute_moe(arch, variant, n_experts=N_EXPERTS)
            model = models.build_model(graph, seed=self.seed)
            train.fit(model, self.data, _train_config(train, lr=0.1, epochs=pre_epochs,
                                                      seed=self.seed))
            ckpt = self.work / f"ckpt_{variant}"
            models.save_model(model, ckpt, {"arch": "toy_cnn", "arch_kwargs": kwargs,
                                            "variant": variant, "n_experts": N_EXPERTS,
                                            "moe_ratio": None, "seed": self.seed})
            loaded, _ = models.load_model(ckpt)
            pretrained = {k: v.copy() for k, v in loaded.params().items()}
            self.models[variant] = (graph, loaded, pretrained)
        self.float_epoch_s = self.clock.train_s / (pre_epochs * len(self.RETRAIN_VARIANTS))
        self.re_cfg = _train_config(train, lr=0.02, epochs=self.epochs, seed=self.seed + 1)

    def cells(self):
        return [Cell(v, lambda v=v: self._retrain(v), lambda v=v: self._reset(v))
                for v in self.RETRAIN_VARIANTS]

    def _reset(self, variant):
        _, model, pretrained = self.models[variant]
        model.load_params(pretrained)
        self.frozen = {k: model.params()[k].tobytes() for k in model.frozen_names()}

    def _retrain(self, variant):
        train = self.m["train"]
        _, model, _ = self.models[variant]
        train.retrain(model, self.data, self.re_cfg, self.mul)
        return train.evaluate(model, self.data.x_test, self.data.y_test, self.mul)

    def check_cell(self, cell, out, counters, routed):
        graph, model, _ = self.models[cell.name]
        params = model.params()
        self.log.check(bool(self.frozen) == (cell.name != "dense")
                       and all(params[k].tobytes() == b for k, b in self.frozen.items()),
                       f"{cell.name}: router parameters moved during retraining")
        self.log.check(self.repeats(cell.name, out), f"{cell.name}: top1 changed between rounds")
        n_train, n_test = len(self.data.x_train), len(self.data.x_test)
        samples = self.epochs * (n_train + n_test) + n_test
        self.check_counts(f"retrain {cell.name}", graph, counters, routed, samples)

    def final_checks(self, oracle):
        engine = self.m["engine"]
        x = self.data.x_test[:64]
        for variant, (graph, model, _) in self.models.items():
            ctx = engine.RunContext(multiplier=self.mul)
            model.forward(x, ctx)
            self.check_counts(f"oracle pass {variant}", graph, ctx.counters, ctx.routed, len(x))

    def top1(self):
        return statistics.fmean(self.first[v] for v in self.RETRAIN_VARIANTS)

    def crosscheck(self, rounds):
        per_round = [sum(c["train_s"] for c in r["cells"].values()) for r in rounds]
        lut_epoch = statistics.median(per_round) / (self.epochs * len(self.RETRAIN_VARIANTS))
        return {"train.lut_epoch_over_float_epoch": lut_epoch / self.float_epoch_s}


# ---------------------------------------------------------------------------
# eval_lut_mix
# ---------------------------------------------------------------------------

class EvalLutMix(Workload):
    """Forward-only evaluation over models x variants x multipliers x batch
    sizes, with separable (exact, trunc4) and non-separable tables."""

    name = "eval_lut_mix"
    BATCH_SIZES = (256, 8)
    MODELS = (("toy_cnn", 16), ("toy_mlp", 28))

    def setup(self):
        datasets, graphs, models, multipliers, train = (
            self.m[k] for k in ("datasets", "graphs", "models", "multipliers", "train"))
        train_n = 32 if self.smoke else 256
        # toy_cnn costs ~5x the lookups per image of toy_mlp
        eval_n = {"toy_cnn": 10 if self.smoke else 64, "toy_mlp": 20 if self.smoke else 256}
        self.data, self.models = {}, {}
        for arch_name, res in self.MODELS:
            self.data[arch_name] = datasets.load_dataset(
                "synthetic", samples=train_n, eval_samples=eval_n[arch_name], classes=10,
                channels=1, resolution=res, noise=0.2, seed=self.seed)
            arch = graphs.build_arch(arch_name, num_classes=10, resolution=res, channels=1)
            for variant in VARIANTS:
                graph = graphs.substitute_moe(arch, variant, n_experts=N_EXPERTS)
                model = models.build_model(graph, seed=self.seed)
                train.fit(model, self.data[arch_name],
                          _train_config(train, lr=0.1, epochs=1, seed=self.seed))
                self.models[arch_name, variant] = (graph, model)
        self.nonsep = nonseparable_table(self.seed)
        path = self.work / "nonsep.axm8"
        multipliers.save_lut(multipliers.AxMultiplier(name=f"nonsep_s{self.seed}",
                                                      power_nw=0.3, lut=self.nonsep), path)
        self.muls = {"exact": multipliers.builtin_multiplier("exact"),
                     "trunc4": multipliers.builtin_multiplier("trunc4"),
                     "nonsep": multipliers.load_lut(path)}

    def _grid(self):
        for (arch_name, variant) in self.models:
            for mul_name in self.muls:
                for bs in self.BATCH_SIZES:
                    yield f"{arch_name}/{variant}/{mul_name}/b{bs}", arch_name, variant, mul_name, bs

    def cells(self):
        train = self.m["train"]
        out = []
        for name, arch_name, variant, mul_name, bs in self._grid():
            _, model = self.models[arch_name, variant]
            data, mul = self.data[arch_name], self.muls[mul_name]
            out.append(Cell(name, lambda model=model, data=data, mul=mul, bs=bs:
                            train.evaluate(model, data.x_test, data.y_test, mul,
                                           batch_size=bs)))
        return out

    def check_cell(self, cell, out, counters, routed):
        arch_name, variant = cell.name.split("/")[:2]
        graph, _ = self.models[arch_name, variant]
        self.log.check(self.repeats(cell.name, out), f"{cell.name}: top1 changed between rounds")
        self.check_counts(cell.name, graph, counters, routed, len(self.data[arch_name].x_test))

    def final_checks(self, oracle):
        log = self.log
        log.check(np.array_equal(self.muls["nonsep"].lut, self.nonsep),
                  "nonsep: .axm8 round trip changed the table")
        ranks = {k: table_rank(m.lut) for k, m in self.muls.items()}
        log.check(ranks["exact"] == 1 and ranks["trunc4"] == 1 and ranks["nonsep"] > 1,
                  f"table ranks {ranks}: expected separable exact/trunc4, non-separable nonsep")
        engine = self.m["engine"]
        for name, arch_name, variant, mul_name, bs in self._grid():
            graph, model = self.models[arch_name, variant]
            x = self.data[arch_name].x_test[:bs]
            ctx = engine.RunContext(multiplier=self.muls[mul_name])
            model.forward(x, ctx)
            self.check_counts(f"oracle pass {name}", graph, ctx.counters, ctx.routed, len(x))

    def top1(self):
        return statistics.fmean(self.first[name] for name, *_ in self._grid())


# ---------------------------------------------------------------------------
# count_published
# ---------------------------------------------------------------------------

class CountPublished(Workload):
    """`axmoe count` for every published architecture and variant, in a
    seeded order per round."""

    name = "count_published"
    KEYS = COUNT_KEYS
    graphs_per_round = len(KEYS)

    def setup(self):
        self.argv = {}
        for arch, variant, ratio in self.KEYS:
            argv = ["count", "--arch", arch, "--variant", variant]
            if ratio is not None:
                argv += ["--set", f"moe_ratio = {ratio}"]
            self.argv[arch, variant, ratio] = argv
        self.rng = np.random.default_rng(self.seed)

    def cells(self):
        order = self.rng.permutation(len(self.KEYS))
        return [Cell(self._name(self.KEYS[i]), lambda key=self.KEYS[i]: self._count(key))
                for i in order]

    @staticmethod
    def _name(key):
        arch, variant, ratio = key
        return f"{arch}/{variant}" + (f"@{ratio}" if ratio is not None else "")

    def _count(self, key):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.m["cli"].main(self.argv[key])
        return rc, buf.getvalue()

    def check_cell(self, cell, out, counters, routed):
        rc, text = out
        self.log.check(rc == 0, f"{cell.name}: exit code {rc}")
        if cell.name not in self.first:
            key = next(k for k in self.KEYS if self._name(k) == cell.name)
            check_count_output(key, text, self.log)
        self.log.check(self.repeats(cell.name, out), f"{cell.name}: report changed between rounds")


WORKLOADS = {w.name: w for w in (SweepFloat, RetrainLut, EvalLutMix, CountPublished)}
