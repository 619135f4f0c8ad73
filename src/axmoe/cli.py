"""Command line front end.

Subcommands:
  count    MAC and power accounting for an architecture's variants
  mulinfo  reference multiplier table, with measured LUT statistics
  eval     accuracy of a checkpoint under one or more multipliers
  sweep    pretrain per variant (or reuse its matching checkpoint), evaluate
           every multiplier, write a CSV
  retrain  sweep with approximate retraining before each evaluation
  pareto   flag the power/accuracy-efficient rows of a sweep CSV

Exit codes: 0 success, 2 configuration, 3 I/O, 4 file format, 5 numeric
(accumulator overflow or non-finite input).
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import os
import platform
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, config_hash, load_config, parse_config_text
from .cost import MacReport, SweepPoint, count_macs, normalized_power, pareto_frontier
from .datasets import DATA_DIR_ENV, load_dataset
from .errors import ConfigError, FormatError, NumericError, ParameterError
from .files import replace_file
from .graphs import ArchSpec, build_arch, substitute_moe
from .models import arrays_sha256, build_model, load_model, read_checkpoint, save_model
from .multipliers import (EXACT_POWER_NW, REFERENCE_MULTIPLIERS, AxMultiplier,
                          builtin_multiplier, error_stats, load_lut, per_op_saving)
from .train import TrainConfig, evaluate, fit, retrain

CSV_COLUMNS = ("arch", "variant", "multiplier", "m_total", "m_eff", "f_apx",
               "p_norm", "top1", "retrained", "seed")

# Exit code of each error class a command may raise.
_EXIT_CODES = ((ConfigError, 2), (ParameterError, 2), (OSError, 3), (FormatError, 4),
              (NumericError, 5))

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
    if name in REFERENCE_MULTIPLIERS:
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
    return normalized_power(rep.m_eff, m_base, rep.f_apx, p_apx)


def _dataset(cfg: ExperimentConfig):
    """The configured split, checked against the shape and class count the
    model is built for."""
    data = load_dataset(cfg.dataset, cfg.data_path, samples=cfg.samples,
                        eval_samples=cfg.eval_samples, classes=cfg.num_classes,
                        channels=cfg.channels, resolution=cfg.resolution,
                        noise=cfg.noise, seed=cfg.seed)
    shape = (cfg.channels, cfg.resolution, cfg.resolution)
    for split, x, y in (("train", data.x_train, data.y_train),
                        ("test", data.x_test, data.y_test)):
        if x.shape[1:] != shape:
            raise ConfigError(f"{cfg.dataset} {split} images are {x.shape[1:]}, not the "
                              f"configured {shape}; set channels and resolution to match")
        if y.min() < 0 or y.max() >= cfg.num_classes:
            raise ConfigError(f"{cfg.dataset} {split} labels span {y.min()}..{y.max()}, outside "
                              f"0..{cfg.num_classes - 1}; set num_classes to match")
    return data


# Shortcut flag -> the config key it sets. A given flag wins over --set; an
# absent (None) or empty-string flag leaves the key alone.
_FLAG_KEYS = {"arch": "arch", "variant": "variants", "multiplier": "multipliers",
              "seed": "seed", "out": "out"}


def _config(args) -> ExperimentConfig:
    overrides: dict = {}
    for item in getattr(args, "set", None) or []:
        overrides.update(parse_config_text(item, source="--set"))
    for flag, key in _FLAG_KEYS.items():
        value = getattr(args, flag, None)
        if value is not None and value != "":
            overrides[key] = tuple(value) if isinstance(value, list) else value
    return load_config(args.config, overrides)


# ---------------------------------------------------------------------------
# count / mulinfo
# ---------------------------------------------------------------------------

def cmd_count(args) -> int:
    cfg = _config(args)
    dense, graphs = _graphs(cfg)
    m_base = count_macs(dense).m_total
    # only the power figure is needed: reference designs take it from the
    # registry, so their table files need not be present
    designs = [(name, REFERENCE_MULTIPLIERS.get(name) or resolve_multiplier(name))
               for name in cfg.multipliers]
    for graph in graphs.values():
        rep = count_macs(graph)
        print(rep.summary() + "".join(f"  p_norm({name}) {_p_norm(rep, m_base, design):.4f}"
                                      for name, design in designs))
    return 0


def cmd_mulinfo(args) -> int:
    print(f"{'name':<12} {'power_nW':>8} {'saving_%':>9} {'derived_%':>10} {'err_prob_%':>11}")
    for entry in REFERENCE_MULTIPLIERS.values():
        print(f"{entry.name:<12} {entry.power_nw:>8.3f} {entry.saving_pct:>9.1f} "
              f"{per_op_saving(entry):>10.2f} {entry.error_probability_pct:>11.2f}")
    for name in args.multiplier or []:
        m = resolve_multiplier(name)
        if m is None:
            print(f"{name}: float path, no table")
            continue
        stats = error_stats(m)
        print(f"{m.name}: power {m.power_nw:.3f} nW, per-op saving "
              f"{per_op_saving(m):.2f} %, error probability "
              f"{stats.error_probability * 100.0:.2f} %, mean |error| "
              f"{stats.mean_abs_error:.3f}, max |error| {stats.max_abs_error}")
    return 0


# ---------------------------------------------------------------------------
# eval / sweep / retrain
# ---------------------------------------------------------------------------

def _multipliers(cfg: ExperimentConfig) -> list[tuple[str, AxMultiplier | None]]:
    """Each configured multiplier name and its multiplier, resolved once
    before any data or weights load, so a bad name or table fails first and
    every variant runs the same table objects."""
    return [(name, resolve_multiplier(name)) for name in cfg.multipliers]


def cmd_eval(args) -> int:
    cfg = _config(args)
    if not cfg.checkpoint:
        raise ConfigError('eval needs a trained model: --set "checkpoint = <dir>"')
    muls = _multipliers(cfg)
    model, meta = load_model(cfg.checkpoint)
    # the checkpoint fixes the architecture and the data shape; the config
    # only picks the draw
    cfg = replace(cfg, arch=meta["arch"], **meta["arch_kwargs"])
    data = _dataset(cfg)
    for name, mul in muls:
        top1 = evaluate(model, data.x_test, data.y_test, mul)
        print(f"{cfg.arch} {meta['variant']} {name}: top1 {top1:.4f}")
    return 0


def _train_cfg(cfg: ExperimentConfig, epochs: int, seed: int) -> TrainConfig:
    return TrainConfig(lr=cfg.lr, batch_size=cfg.batch_size, epochs=epochs, seed=seed)


def _source_digest() -> str:
    """sha256 of the package's own `.py` files by name. The version string
    does not change when the engine does, so it cannot stand for them."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        blob = path.read_bytes()
        digest.update(repr((path.name, len(blob))).encode("utf-8"))
        digest.update(blob)
    return digest.hexdigest()


@functools.cache
def _environment() -> dict:
    """What this process runs on, for `run.json`: the python and numpy
    versions, the BLAS numpy was built against (None for a numpy without
    `show_config(mode="dicts")`), the machine type, the BLAS thread
    variables and the CPU count. Computed once per process."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "machine": platform.machine(),
            "threads": {var: os.environ.get(var)
                        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
            "cpu_count": os.cpu_count()}


def _pretrain_fingerprint(data, graph, train_cfg: TrainConfig, seed: int,
                          sources: str) -> str:
    """sha256 of everything that fixes a variant's pretrained weights: the
    training split's arrays, the graph, the pretrain config, the build
    seed, the numpy version, the BLAS name and version, the machine type
    and `_source_digest`. Another BLAS may round float sums differently,
    so an `--out` copied to a machine with one is pretrained again."""
    split = arrays_sha256({"x_train": data.x_train, "y_train": data.y_train})
    env = _environment()
    return hashlib.sha256(repr((split, repr(graph), repr(train_cfg), seed, np.__version__,
                                env["blas"], env["blas_version"], env["machine"],
                                sources)).encode("utf-8")).hexdigest()


def _reuse_pretrained(ckpt: Path, graph, seed: int, fingerprint: str):
    """A model of `graph` holding the weights in `ckpt` and the checkpoint's
    meta, when that meta records this exact pretraining and its parameters
    hash to what the meta records; (None, None) when the checkpoint is
    missing, unreadable or malformed, or comes from any other pretraining."""
    try:
        params, meta = read_checkpoint(ckpt)
    except (OSError, FormatError):
        return None, None
    if meta.get("pretrain") != fingerprint or meta.get("params_sha256") != arrays_sha256(params):
        return None, None
    model = build_model(graph, seed=seed)
    model.load_params(params)
    return model, meta


def cmd_sweep(args) -> int:
    """sweep, and with `args.do_retrain` set, retrain. A variant whose
    `ckpt_<variant>` holds exactly the weights this run's pretraining would
    compute is not pretrained again, nor written again when it holds this
    run's meta; every other checkpoint is written."""
    cfg = _config(args)
    started = time.perf_counter()
    muls = _multipliers(cfg)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    data = _dataset(cfg)
    dense, graphs = _graphs(cfg)
    m_base = count_macs(dense).m_total
    sources = _source_digest()
    rows: list[list[str]] = []  # sweep.csv rows, in CSV_COLUMNS order
    reports: dict = {}
    pretrain: dict[str, str] = {}  # variant -> "trained" or "reused"
    for variant, graph in graphs.items():
        rep = count_macs(graph)
        reports[variant] = {k: v for k, v in asdict(rep).items() if k not in ("arch", "variant")}
        pretrain_cfg = _train_cfg(cfg, cfg.pretrain_epochs, cfg.seed)
        fingerprint = _pretrain_fingerprint(data, graph, pretrain_cfg, cfg.seed, sources)
        ckpt = out / f"ckpt_{variant}"
        model, stored = _reuse_pretrained(ckpt, graph, cfg.seed, fingerprint)
        pretrain[variant] = "trained" if model is None else "reused"
        if model is None:
            model = build_model(graph, seed=cfg.seed)
            fit(model, data, pretrain_cfg)
        meta = {**_checkpoint_meta(cfg, variant), "pretrain": fingerprint,
                "params_sha256": arrays_sha256(model.params())}
        if meta != stored:
            save_model(model, ckpt, meta)
        pretrained = {k: v.copy() for k, v in model.params().items()}
        for name, mul in muls:
            model.load_params(pretrained)
            retrained = args.do_retrain and cfg.retrain_epochs > 0 and mul is not None
            if retrained:
                top1 = retrain(model, data, _train_cfg(cfg, cfg.retrain_epochs, cfg.seed + 1),
                               mul)
            else:
                top1 = evaluate(model, data.x_test, data.y_test, mul)
            p_norm = _p_norm(rep, m_base, mul)
            rows.append([cfg.arch, variant, name, str(rep.m_total), str(rep.m_eff),
                         f"{rep.f_apx:.6f}", f"{p_norm:.6f}", f"{top1:.6f}",
                         "true" if retrained else "false", str(cfg.seed)])
            print(f"{cfg.arch} {variant} {name}: top1 {top1:.4f} p_norm {p_norm:.4f}"
                  f"{' (retrained)' if retrained else ''}")
    csv_path = out / "sweep.csv"
    replace_file(csv_path, _csv_bytes(CSV_COLUMNS, rows))
    record = {"version": __version__, "config_hash": config_hash(cfg), "config": asdict(cfg),
              "rows": [dict(zip(CSV_COLUMNS, row)) for row in rows],
              "reports": reports, "pretrain": pretrain, "environment": _environment(),
              "wall_clock_s": round(time.perf_counter() - started, 3)}
    replace_file(out / "run.json",
                 (json.dumps(record, indent=2, sort_keys=True) + "\n").encode("utf-8"))
    print(f"wrote {csv_path}")
    return 0


def _csv_bytes(header, rows) -> bytes:
    """`header` and `rows` as UTF-8 CSV in the default dialect, which ends
    every line with CRLF."""
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    return text.getvalue().encode("utf-8")


# ---------------------------------------------------------------------------
# pareto
# ---------------------------------------------------------------------------

def _read_sweep_csv(path) -> tuple[list[list[str]], list[SweepPoint]]:
    """Each row as read, and its (p_norm, top1) point."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            table = list(csv.reader(fh))
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc
        except csv.Error as exc:  # a field past csv's size limit
            raise FormatError(f"{path}: {exc}") from exc
        if not table:
            raise FormatError(f"{path}: empty file")
        if tuple(table[0]) != CSV_COLUMNS:
            raise FormatError(f"{path}: unexpected header {table[0]}")
        rows, points = [], []
        for line_no, row in enumerate(table[1:], start=2):
            if len(row) != len(CSV_COLUMNS):
                raise FormatError(f"{path}:{line_no}: expected {len(CSV_COLUMNS)} "
                                  f"fields, got {len(row)}")
            record = dict(zip(CSV_COLUMNS, row))
            try:
                p_norm = float(record["p_norm"])
                top1 = float(record["top1"])
            except ValueError as exc:
                raise FormatError(f"{path}:{line_no}: {exc}") from None
            if not (math.isfinite(p_norm) and math.isfinite(top1)):
                raise FormatError(f"{path}:{line_no}: p_norm {p_norm} and top1 {top1} "
                                  "must be finite")
            # what a sweep writes: a fraction of correct samples, and a power
            # that `normalized_power` can bring down to 0 but never below
            if not 0 <= top1 <= 1:
                raise FormatError(f"{path}:{line_no}: top1 {top1} is not in [0, 1]")
            if p_norm < 0:
                raise FormatError(f"{path}:{line_no}: p_norm {p_norm} is negative")
            rows.append(row)
            points.append(SweepPoint(p_norm, top1,
                                     label=f"{record['variant']}+{record['multiplier']}"))
    return rows, points


def cmd_pareto(args) -> int:
    cfg = _config(args)
    src = Path(args.csv) if args.csv else Path(cfg.out) / "sweep.csv"
    rows, points = _read_sweep_csv(src)
    front = pareto_frontier(points)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    flagged = out / "pareto.csv"
    replace_file(flagged, _csv_bytes(CSV_COLUMNS + ("pareto",),
                                     (row + ["true" if point in front else "false"]
                                      for row, point in zip(rows, points))))
    plot = out / "pareto.dat"
    lines = ["# p_norm top1\n"] + [f"{p.p_norm:.6f} {p.top1:.6f}\n" for p in front]
    replace_file(plot, "".join(lines).encode("utf-8"))
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
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    multiplier = argparse.ArgumentParser(add_help=False)
    multiplier.add_argument("--multiplier", action="append",
                            help="multiplier name or .axm8 path (repeatable)")
    common = argparse.ArgumentParser(add_help=False, parents=[multiplier])
    common.add_argument("--config", help="key=value experiment file")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one config key (repeatable)")
    common.add_argument("--arch", help="architecture name")
    common.add_argument("--variant", action="append",
                        help="variant to run (repeatable)")
    common.add_argument("--seed", type=int)
    common.add_argument("--out", help="output directory")
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("count", parents=[common],
                   help="MAC and power accounting").set_defaults(func=cmd_count)
    sub.add_parser("mulinfo", parents=[multiplier],
                   help="reference multiplier table").set_defaults(func=cmd_mulinfo)
    sub.add_parser("eval", parents=[common],
                   help="evaluate a checkpoint").set_defaults(func=cmd_eval)
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
    except tuple(cls for cls, _ in _EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))

if __name__ == "__main__":
    sys.exit(main())
