"""PatchX: hybrid patch-based time-series classification with patch-level explanations.

Pipeline: (1) cut samples into length-preserved patches, (2) train a 1-D
CNN on the patches with inherited labels, (3) distill a class-presence matrix,
one row per sample, from the patch predictions, (4) classify samples with a
shallow model.
"""

from .bundle import PatchXBundle, load_bundle, save_bundle
from .data import (
    AnomalyGenSpec,
    Dataset,
    NormStats,
    TimeSeriesSample,
    anomaly_label,
    generate_anomaly,
    load_dataset,
    normalization_stats,
    save_dataset,
    znormalize,
)
from .metadata import PresenceMatrix, extract_all
from .neuralnet import NetworkSpec, PatchNet, TrainSpec, build_network, gradient_check, train
from .patching import PatchConfig, build_patch_arrays, enumerate_patches
from .pipeline import run_pipeline
from .shallow import ForestSpec, ShallowSpec, SvmSpec, TrivialSpec, evaluate, fit, predict_all

__version__ = "0.1.0"

__all__ = [
    "AnomalyGenSpec",
    "Dataset",
    "ForestSpec",
    "NetworkSpec",
    "NormStats",
    "PatchConfig",
    "PatchNet",
    "PatchXBundle",
    "PresenceMatrix",
    "ShallowSpec",
    "SvmSpec",
    "TimeSeriesSample",
    "TrainSpec",
    "TrivialSpec",
    "anomaly_label",
    "build_network",
    "build_patch_arrays",
    "enumerate_patches",
    "evaluate",
    "extract_all",
    "fit",
    "generate_anomaly",
    "gradient_check",
    "load_bundle",
    "load_dataset",
    "normalization_stats",
    "predict_all",
    "run_pipeline",
    "save_bundle",
    "save_dataset",
    "train",
    "znormalize",
]
