"""Approximate-multiplier workbench for mixture-of-experts networks.

Emulates signed 8-bit approximate multipliers through exhaustive product
tables, runs quantized inference and straight-through retraining on small
models, and accounts MACs and normalized power for the published
architectures and their expert-routed variants.
"""

from .config import ExperimentConfig, config_hash, load_config
from .cost import (MacReport, SweepPoint, count_macs, dominates, layer_macs, layer_params,
                   normalized_power, pareto_frontier)
from .datasets import Split, load_cifar100_bin, load_dataset, synthetic_blobs
from .engine import (Model, QuantParams, RunContext, dequantize, lut_matmul, quantize,
                     softmax_cross_entropy)
from .errors import ConfigError, FormatError, NumericError, ParameterError
from .graphs import (ARCHITECTURES, VARIANTS, ArchSpec, ClusterArch, LayerSpec, MoEGroup,
                     build_arch, substitute_moe)
from .models import build_model, load_model, model_from_spec, save_model
from .moe import ClusterModel, MoELayer, Router
from .multipliers import (REFERENCE_MULTIPLIERS, AxMultiplier, ErrorStats,
                          build_exact_multiplier, build_truncation_multiplier,
                          builtin_multiplier, error_stats, load_lut, per_op_saving,
                          save_lut)
from .train import TrainConfig, evaluate, fit, retrain

__version__ = "0.1.0"

__all__ = [
    "ARCHITECTURES", "VARIANTS", "REFERENCE_MULTIPLIERS",
    "ArchSpec", "AxMultiplier", "ClusterArch", "ClusterModel", "ConfigError",
    "ErrorStats", "ExperimentConfig", "FormatError", "LayerSpec",
    "MacReport", "Model", "MoEGroup", "MoELayer", "NumericError", "ParameterError",
    "QuantParams", "Router", "RunContext", "Split", "SweepPoint", "TrainConfig",
    "build_arch", "build_exact_multiplier", "build_model",
    "build_truncation_multiplier", "builtin_multiplier", "config_hash",
    "count_macs", "dequantize", "dominates",
    "error_stats", "evaluate", "fit", "layer_macs", "layer_params",
    "load_cifar100_bin", "load_config",
    "load_dataset", "load_lut", "load_model", "lut_matmul",
    "model_from_spec", "normalized_power", "pareto_frontier", "per_op_saving",
    "quantize", "retrain",
    "save_lut", "save_model", "softmax_cross_entropy",
    "substitute_moe", "synthetic_blobs",
]
