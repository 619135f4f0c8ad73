"""Command line front end.

Subcommands:
  count    MAC and power accounting for an architecture's variants
  mulinfo  reference multiplier table, with measured LUT statistics
  eval     accuracy of a model under one or more multipliers
  sweep    pretrain per variant, evaluate every multiplier, write a CSV
  retrain  sweep with approximate retraining before each evaluation
  pareto   flag the power/accuracy-efficient rows of a sweep CSV

Exit codes: 0 success, 2 configuration, 3 I/O, 4 file format, 5 numeric
overflow.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, config_hash, load_config, parse_config_text
from .cost import MacReport, SweepPoint, count_macs, normalized_power, pareto_frontier
from .datasets import DATA_DIR_ENV, load_dataset
from .errors import ConfigError, FormatError, NumericError, ParameterError
from .graphs import ArchSpec, build_arch, substitute_moe
from .models import build_model, load_model, save_model
from .multipliers import (EXACT_POWER_NW, REFERENCE_MULTIPLIERS, REFERENCE_POWER_NW,
                          AxMultiplier, builtin_multiplier, error_stats, load_lut,
                          per_op_saving, build_exact_multiplier)
from .train import TrainConfig, evaluate, fit, retrain

VERSION = "0.1.0"

CSV_COLUMNS = ("arch", "variant", "multiplier", "m_total", "m_eff", "f_apx",
               "p_norm", "top1", "retrained", "seed")

# Pseudo-multiplier name: run the float path, no quantization at all.
FLOAT_NAME = "float"


def resolve_multiplier(name: str) -> AxMultiplier | None:
    """Name or path to a multiplier.

    Accepts the float pseudo-name, a LUT file path, a builtin (exact or
    truncN), or a reference design name looked up under $AXMOE_DATA_DIR.
    """
    if name == FLOAT_NAME:
        return None
    path = Path(name)
    if name.endswith(".axm8") or path.is_file():
        return load_lut(path)
    try:
        return builtin_multiplier(name)
    except ParameterError:
        pass
    if name in REFERENCE_POWER_NW:
        root = os.environ.get(DATA_DIR_ENV)
        if root:
            candidate = Path(root) / f"{name}.axm8"
            if candidate.is_file():
                return load_lut(candidate)
        raise ConfigError(f"{name} is a known design but no LUT file was found; "
                          f"pass a .axm8 path or set {DATA_DIR_ENV}")
    raise ConfigError(f"unknown multiplier {name!r}")


def _arch_kwargs(cfg: ExperimentConfig) -> dict:
    # Published architectures keep their reference head sizes; the toys are
    # shaped by the experiment config.
    if cfg.arch.startswith("toy_"):
        return {"num_classes": cfg.num_classes, "resolution": cfg.resolution,
                "channels": cfg.channels}
    return {}


def _graphs(cfg: ExperimentConfig) -> tuple[ArchSpec, dict]:
    """The dense spec, which is the p_norm base, and each configured
    variant's graph, from one build of the architecture."""
    arch = build_arch(cfg.arch, **_arch_kwargs(cfg))
    return arch, {variant: substitute_moe(arch, variant, n_experts=cfg.n_experts,
                                          moe_ratio=cfg.moe_ratio)
                  for variant in cfg.variants}


def _checkpoint_meta(cfg: ExperimentConfig, variant: str) -> dict:
    """What `models.model_from_spec` needs to rebuild a variant's graph."""
    return {"arch": cfg.arch, "arch_kwargs": _arch_kwargs(cfg), "variant": variant,
            "n_experts": cfg.n_experts, "moe_ratio": cfg.moe_ratio, "seed": cfg.seed}


def _p_norm(rep: MacReport, m_base: int, design) -> float:
    """p_norm of `rep` from the `power_nw` of a multiplier or registry entry;
    None, the float path, is costed as the exact design."""
    p_apx = EXACT_POWER_NW if design is None else design.power_nw
    return normalized_power(rep.m_eff, m_base, rep.f_apx, p_apx, EXACT_POWER_NW)


def _dataset(cfg: ExperimentConfig):
    return load_dataset(cfg.dataset, cfg.data_path, samples=cfg.samples,
                        eval_samples=cfg.eval_samples, classes=cfg.num_classes,
                        channels=cfg.channels, resolution=cfg.resolution,
                        noise=cfg.noise, seed=cfg.seed)


# Shortcut flag -> the config key it sets. A given flag wins over --set; an
# absent (None) or empty-string flag leaves the key alone.
_FLAG_KEYS = {"arch": "arch", "variant": "variants", "multiplier": "multipliers",
              "seed": "seed", "out": "out", "deterministic": "deterministic"}


def _config(args) -> ExperimentConfig:
    overrides: dict = {}
    for item in getattr(args, "set", None) or []:
        overrides.update(parse_config_text(item, source="--set"))
    for flag, key in _FLAG_KEYS.items():
        value = getattr(args, flag, None)
        if value is not None and value != "":
            overrides[key] = tuple(value) if isinstance(value, list) else value
    cfg = load_config(args.config, overrides)
    if not cfg.deterministic:
        # A fresh entropy-derived seed; everything downstream stays seeded so
        # the run is still internally consistent, just not repeatable.
        fresh = int(np.random.SeedSequence().generate_state(1)[0]) & 0x7FFFFFFF
        cfg = replace(cfg, seed=fresh)
    return cfg


# ---------------------------------------------------------------------------
# count / mulinfo
# ---------------------------------------------------------------------------

def cmd_count(args) -> int:
    cfg = _config(args)
    dense, graphs = _graphs(cfg)
    m_base = count_macs(dense).m_total
    # only the power figure is needed: reference designs take it from the
    # registry, so their table files need not be present
    reference = {entry.name: entry for entry in REFERENCE_MULTIPLIERS}
    designs = [(name, reference[name] if name in reference else resolve_multiplier(name))
               for name in cfg.multipliers]
    for graph in graphs.values():
        rep = count_macs(graph)
        print(rep.summary() + "".join(f"  p_norm({name}) {_p_norm(rep, m_base, design):.4f}"
                                      for name, design in designs))
    return 0


def cmd_mulinfo(args) -> int:
    baseline = build_exact_multiplier()
    print(f"{'name':<12} {'power_nW':>8} {'saving_%':>9} {'derived_%':>10} {'err_prob_%':>11}")
    for entry in REFERENCE_MULTIPLIERS:
        derived = (1.0 - entry.power_nw / EXACT_POWER_NW) * 100.0
        print(f"{entry.name:<12} {entry.power_nw:>8.3f} {entry.saving_pct:>9.1f} "
              f"{derived:>10.2f} {entry.error_probability_pct:>11.2f}")
    for name in args.multiplier or []:
        m = resolve_multiplier(name)
        if m is None:
            print(f"{name}: float path, no table")
            continue
        stats = error_stats(m)
        print(f"{m.name}: power {m.power_nw:.3f} nW, per-op saving "
              f"{per_op_saving(m, baseline):.2f} %, error probability "
              f"{stats.error_probability * 100.0:.2f} %, mean |error| "
              f"{stats.mean_abs_error:.3f}, max |error| {stats.max_abs_error}")
    return 0


# ---------------------------------------------------------------------------
# eval / sweep / retrain
# ---------------------------------------------------------------------------

def cmd_eval(args) -> int:
    cfg = _config(args)
    if cfg.checkpoint:
        model, meta = load_model(cfg.checkpoint)
        label = meta.get("variant", "checkpoint")
    else:
        label = cfg.variants[0]
        _, graphs = _graphs(cfg)
        model = build_model(graphs[label], seed=cfg.seed)
    data = _dataset(cfg)
    for name in cfg.multipliers:
        top1 = evaluate(model, data.x_test, data.y_test, resolve_multiplier(name))
        print(f"{cfg.arch} {label} {name}: top1 {top1:.4f}")
    return 0


def _train_cfg(cfg: ExperimentConfig, epochs: int, seed: int) -> TrainConfig:
    return TrainConfig(lr=cfg.lr, weight_decay=cfg.weight_decay, momentum=cfg.momentum,
                       batch_size=cfg.batch_size, epochs=epochs, seed=seed)


def _format_row(row: dict) -> list[str]:
    return [row["arch"], row["variant"], row["multiplier"],
            str(row["m_total"]), str(row["m_eff"]), f"{row['f_apx']:.6f}",
            f"{row['p_norm']:.6f}", f"{row['top1']:.6f}",
            "true" if row["retrained"] else "false", str(row["seed"])]


def _write_csv(path: Path, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)  # default dialect terminates lines with CRLF
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow(_format_row(row))


def cmd_sweep(args) -> int:
    """sweep, and with `args.do_retrain` set, retrain."""
    cfg = _config(args)
    started = time.perf_counter()
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    data = _dataset(cfg)
    dense, graphs = _graphs(cfg)
    m_base = count_macs(dense).m_total
    rows: list[dict] = []
    reports: dict = {}
    for variant, graph in graphs.items():
        rep = count_macs(graph)
        reports[variant] = {"m_total": rep.m_total, "m_eff": rep.m_eff,
                            "m_approx": rep.m_approx, "f_apx": rep.f_apx,
                            "total_params": rep.total_params,
                            "active_params": rep.active_params}
        model = build_model(graph, seed=cfg.seed)
        fit(model, data, _train_cfg(cfg, cfg.pretrain_epochs, cfg.seed))
        save_model(model, out / f"ckpt_{variant}", _checkpoint_meta(cfg, variant))
        pretrained = {k: v.copy() for k, v in model.params().items()}
        for name in cfg.multipliers:
            mul = resolve_multiplier(name)
            model.load_params(pretrained)
            retrained = False
            if args.do_retrain and cfg.retrain_epochs > 0 and mul is not None:
                retrain(model, data, _train_cfg(cfg, cfg.retrain_epochs, cfg.seed + 1), mul)
                retrained = True
            top1 = evaluate(model, data.x_test, data.y_test, mul)
            p_norm = _p_norm(rep, m_base, mul)
            rows.append({"arch": cfg.arch, "variant": variant, "multiplier": name,
                         "m_total": rep.m_total, "m_eff": rep.m_eff, "f_apx": rep.f_apx,
                         "p_norm": p_norm, "top1": top1, "retrained": retrained,
                         "seed": cfg.seed})
            print(f"{cfg.arch} {variant} {name}: top1 {top1:.4f} p_norm {p_norm:.4f}"
                  f"{' (retrained)' if retrained else ''}")
    csv_path = out / "sweep.csv"
    _write_csv(csv_path, rows)
    record = {"version": VERSION, "config_hash": config_hash(cfg), "config": asdict(cfg),
              "rows": [dict(zip(CSV_COLUMNS, _format_row(r))) for r in rows],
              "reports": reports, "wall_clock_s": round(time.perf_counter() - started, 3)}
    with open(out / "run.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {csv_path}")
    return 0


# ---------------------------------------------------------------------------
# pareto
# ---------------------------------------------------------------------------

def _read_sweep_csv(path) -> tuple[list[dict], list[SweepPoint]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty file") from None
        if tuple(header) != CSV_COLUMNS:
            raise FormatError(f"{path}: unexpected header {header}")
        raw_rows, points = [], []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(CSV_COLUMNS):
                raise FormatError(f"{path}:{line_no}: expected {len(CSV_COLUMNS)} "
                                  f"fields, got {len(row)}")
            record = dict(zip(CSV_COLUMNS, row))
            try:
                p_norm = float(record["p_norm"])
                top1 = float(record["top1"])
            except ValueError as exc:
                raise FormatError(f"{path}:{line_no}: {exc}") from None
            raw_rows.append(record)
            points.append(SweepPoint(p_norm, top1,
                                     label=f"{record['variant']}+{record['multiplier']}"))
    return raw_rows, points


def cmd_pareto(args) -> int:
    cfg = _config(args)
    src = Path(args.csv) if args.csv else Path(cfg.out) / "sweep.csv"
    raw_rows, points = _read_sweep_csv(src)
    front = pareto_frontier(points)
    keep = {(p.p_norm, p.top1) for p in front}
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    flagged = out / "pareto.csv"
    with open(flagged, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS + ("pareto",))
        for record, point in zip(raw_rows, points):
            row = [record[c] for c in CSV_COLUMNS]
            row.append("true" if (point.p_norm, point.top1) in keep else "false")
            writer.writerow(row)
    plot = out / "pareto.dat"
    with open(plot, "w", encoding="utf-8") as fh:
        fh.write("# p_norm top1\n")
        for p in front:
            fh.write(f"{p.p_norm:.6f} {p.top1:.6f}\n")
    for p in front:
        print(f"frontier: p_norm {p.p_norm:.4f} top1 {p.top1:.4f} ({p.label})")
    print(f"wrote {flagged} and {plot}")
    return 0


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="axmoe",
                                     description="approximate-multiplier MoE workbench")
    parser.add_argument("--version", action="version", version=f"%(prog)s {VERSION}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value experiment file")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one config key (repeatable)")
    common.add_argument("--arch", help="architecture name")
    common.add_argument("--variant", action="append",
                        help="variant to run (repeatable)")
    common.add_argument("--multiplier", action="append",
                        help="multiplier name or .axm8 path (repeatable)")
    common.add_argument("--seed", type=int)
    common.add_argument("--out", help="output directory")
    common.add_argument("--deterministic", action=argparse.BooleanOptionalAction,
                        default=None, help="reuse the configured seed (default on)")
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("count", parents=[common],
                   help="MAC and power accounting").set_defaults(func=cmd_count)
    info = sub.add_parser("mulinfo", parents=[common],
                          help="reference multiplier table")
    info.set_defaults(func=cmd_mulinfo)
    sub.add_parser("eval", parents=[common],
                   help="evaluate a model").set_defaults(func=cmd_eval)
    sweep_cmd = sub.add_parser("sweep", parents=[common],
                               help="pretrain and evaluate all variants")
    sweep_cmd.set_defaults(func=cmd_sweep, do_retrain=False)
    retrain_cmd = sub.add_parser("retrain", parents=[common],
                                 help="sweep with approximate retraining")
    retrain_cmd.set_defaults(func=cmd_sweep, do_retrain=True)
    par = sub.add_parser("pareto", parents=[common], help="flag efficient sweep rows")
    par.add_argument("--csv", help="sweep CSV to read (default <out>/sweep.csv)")
    par.set_defaults(func=cmd_pareto)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except (ConfigError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
