"""Experiment configuration: a flat key=value file plus CLI overrides.

The file format is intentionally dumb: one `key = value` per line, `#`
comments, list values comma-separated. Unknown keys and bad literals are
rejected with the line number so sweep scripts fail fast.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields
from typing import get_args, get_type_hints

from .datasets import DATASETS
from .errors import ConfigError
from .graphs import ARCHITECTURES, VARIANTS


@dataclass(frozen=True)
class ExperimentConfig:
    arch: str = "toy_cnn"
    variants: tuple[str, ...] = ("dense",)
    multipliers: tuple[str, ...] = ("exact",)
    n_experts: int = 3
    moe_ratio: float | None = None
    num_classes: int = 4
    resolution: int = 8
    channels: int = 3
    dataset: str = "synthetic"
    data_path: str | None = None
    samples: int = 512
    eval_samples: int = 256
    noise: float = 0.25
    pretrain_epochs: int = 4
    retrain_epochs: int = 2
    lr: float = 0.1
    batch_size: int = 64
    seed: int = 0
    checkpoint: str | None = None
    out: str = "results"

    def validate(self) -> "ExperimentConfig":
        if self.arch not in ARCHITECTURES:
            raise ConfigError(f"unknown arch {self.arch!r}, expected one of "
                              f"{sorted(ARCHITECTURES)}")
        if not self.variants:
            raise ConfigError("variants must not be empty")
        bad = [v for v in self.variants if v not in VARIANTS]
        if bad:
            raise ConfigError(f"unknown variants {bad}, expected subset of {VARIANTS}")
        if not self.multipliers:
            raise ConfigError("multipliers must not be empty")
        if self.n_experts < 1:
            raise ConfigError(f"n_experts must be >= 1, got {self.n_experts}")
        if self.moe_ratio is not None and not 0.0 < self.moe_ratio <= 1.0:
            raise ConfigError(f"moe_ratio {self.moe_ratio} outside (0, 1]")
        if self.dataset not in DATASETS:
            raise ConfigError(f"unknown dataset {self.dataset!r}, expected one of {DATASETS}")
        for name in ("num_classes", "resolution", "channels", "samples", "eval_samples",
                     "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("pretrain_epochs", "retrain_epochs", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 < self.lr < math.inf:
            raise ConfigError(f"lr must be finite and positive, got {self.lr}")
        if not 0.0 <= self.noise < math.inf:
            raise ConfigError(f"noise must be finite and non-negative, got {self.noise}")
        return self


def _parse_tuple(raw: str) -> tuple[str, ...]:
    items = tuple(part.strip() for part in raw.split(",") if part.strip())
    if not items:
        raise ValueError("empty list")
    return items


def _optional(parse):
    def inner(raw: str):
        return None if raw.lower() in ("", "none", "null") else parse(raw)

    return inner


_PARSER_OF_TYPE = {
    str: str,
    int: int,
    float: float,
    tuple[str, ...]: _parse_tuple,
    float | None: _optional(float),
    str | None: _optional(str),
}


def _field_parsers(cls) -> dict:
    """Parser of each field of `cls`, chosen by its annotation."""
    hints = get_type_hints(cls)
    parsers = {}
    for f in fields(cls):
        if hints[f.name] not in _PARSER_OF_TYPE:
            raise TypeError(f"no config parser for {cls.__name__}.{f.name}: {hints[f.name]}")
        parsers[f.name] = _PARSER_OF_TYPE[hints[f.name]]
    return parsers


_PARSERS = _field_parsers(ExperimentConfig)
_NULLABLE = {name for name, hint in get_type_hints(ExperimentConfig).items()
             if type(None) in get_args(hint)}


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """key=value lines to a typed mapping. Errors carry the line number."""
    values: dict = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{line_no}: expected key = value, got {line.strip()!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _PARSERS:
            raise ConfigError(f"{source}:{line_no}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{line_no}: duplicate key {key!r}")
        try:
            values[key] = _PARSERS[key](raw)
        except ValueError as exc:
            raise ConfigError(f"{source}:{line_no}: bad value for {key}: {exc}") from exc
    return values


def load_config(path=None, overrides: dict | None = None) -> ExperimentConfig:
    """Defaults, overlaid with the file (if any), overlaid with overrides. A
    None override sets the key to None, which clears an optional file value."""
    values: dict = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
        values.update(parse_config_text(text, source=str(path)))
    if overrides:
        unknown = set(overrides) - set(_PARSERS)
        if unknown:
            raise ConfigError(f"unknown override keys {sorted(unknown)}")
        not_nullable = {k for k, v in overrides.items() if v is None} - _NULLABLE
        if not_nullable:
            raise ConfigError(f"override keys {sorted(not_nullable)} cannot be None")
        values.update(overrides)
    return ExperimentConfig(**values).validate()


def config_hash(cfg: ExperimentConfig) -> str:
    """Stable digest of everything that affects results. The output location
    is excluded so moving a run does not change its identity."""
    payload = asdict(cfg)
    payload.pop("out")
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()
