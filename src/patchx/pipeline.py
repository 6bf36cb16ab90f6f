"""End-to-end workflow: patching, network training, metadata, shallow fitting.

run_pipeline executes the four processing steps on prepared datasets and
returns the trained bundle together with deterministic metrics and wall-clock
timings (kept apart so metrics files stay bit-identical across reruns).
refit_shallow swaps the shallow model of such a result; both take that step
through _fit_shallow, which scores the result's cached test vectors when it
carries them and runs inference over the test split (if any) otherwise.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from . import neuralnet
from .bundle import PatchXBundle
from .data import Dataset, check_splits, normalization_stats, znormalize
from .metadata import PresenceMatrix
from .neuralnet import NetworkSpec, TrainLog, TrainSpec, build_network
from .patching import PatchConfig, _check_configs, build_patch_arrays
from .shallow import ShallowSpec, evaluate, fit


def default_network_spec(
    dataset: Dataset,
    configs: list[PatchConfig],
    seed: int = 0,
    conv_blocks: tuple = NetworkSpec.conv_blocks,
) -> NetworkSpec:
    """A network sized for the dataset's patches, with the attach channel when
    the configs add one; configs that patching rejects raise its ConfigError."""
    _check_configs(configs)
    channels = dataset.channels + (1 if configs[0].attach else 0)
    return NetworkSpec(
        input_channels=channels,
        input_length=dataset.length,
        class_count=dataset.class_count,
        conv_blocks=conv_blocks,
        seed=seed,
    )


@dataclass
class PipelineResult:
    bundle: PatchXBundle
    train_log: TrainLog
    metrics: dict
    timing: dict
    train_vectors: PresenceMatrix
    test_vectors: PresenceMatrix | None


# the stages a run's train_seconds sums; a refit's counts its own shallow fit
TRAIN_STAGES = ("patching_seconds", "network_train_seconds", "train_vectors_seconds", "shallow_fit_seconds")


def _fit_shallow(result: PipelineResult, shallow_spec: ShallowSpec, test: Dataset | None) -> PipelineResult:
    """The result with a shallow model fitted on its train vectors, scored on
    them and on the test split: its cached test vectors, or else one inference
    pass over test. The given result is left unchanged."""
    metrics, timing = dict(result.metrics), dict(result.timing)
    t0 = time.perf_counter()
    bundle = replace(result.bundle, shallow_model=fit(shallow_spec, result.train_vectors))
    timing["shallow_fit_seconds"] = time.perf_counter() - t0
    metrics["shallow_kind"] = shallow_spec.kind
    metrics["train_accuracy"] = evaluate(bundle.shallow_model, result.train_vectors).accuracy
    test_vectors = result.test_vectors
    if test is not None and test_vectors is None:
        t0 = time.perf_counter()
        _, test_vectors = bundle.predict_dataset(test)
        timing["inference_seconds"] = time.perf_counter() - t0
    if test_vectors is not None:
        scored = evaluate(bundle.shallow_model, test_vectors)
        metrics["test_accuracy"] = scored.accuracy
        metrics["test_confusion"] = scored.confusion.tolist()
    timing["train_seconds"] = sum(timing[k] for k in TRAIN_STAGES)
    return replace(result, bundle=bundle, metrics=metrics, timing=timing, test_vectors=test_vectors)


def run_pipeline(
    train: Dataset,
    val: Dataset,
    test: Dataset | None,
    configs: list[PatchConfig],
    net_spec: NetworkSpec | None = None,
    train_spec: TrainSpec | None = None,
    shallow_spec: ShallowSpec | None = None,
    normalize: bool = True,
) -> PipelineResult:
    """Train the full hybrid pipeline; deterministic for fixed specs and seeds."""
    check_splits({"train": train, "val": val, "test": test})
    train_spec = train_spec or TrainSpec()
    shallow_spec = shallow_spec or ShallowSpec()
    if net_spec is None:
        net_spec = default_network_spec(train, configs, seed=train_spec.seed)

    network = build_network(net_spec)
    t0 = time.perf_counter()
    stats = normalization_stats(train) if normalize else None
    bundle = PatchXBundle(network=network, patch_configs=list(configs), norm_stats=stats, shallow_model=None)
    values = train.values_array()
    if stats:
        values = znormalize(values, stats)
    train_patches = build_patch_arrays(values, train.labels_array(), configs, network.halo)
    del values  # the value table holds what training reads
    val_patches = bundle.patch_groups(val)  # validation is the bundle's evaluation
    timing = {"patching_seconds": time.perf_counter() - t0}

    t0 = time.perf_counter()
    log = neuralnet.train(network, train_patches, val_patches, train_spec)
    timing["network_train_seconds"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    train_vectors = bundle.vectors(train)
    timing["train_vectors_seconds"] = time.perf_counter() - t0
    metrics: dict = {
        "patch_configs": [[c.stride, c.length] for c in configs],
        "flags": {
            "zero": configs[0].zero,
            "attach": configs[0].attach,
            "notemp": any(c.notemp for c in configs),
        },
        "train_epochs_run": log.epochs_run,
        "best_epoch": log.best_epoch,
        "val_patch_accuracy": log.best_val_accuracy,
        "train_loss_curve": log.train_loss,
    }
    result = PipelineResult(bundle=bundle, train_log=log, metrics=metrics, timing=timing,
                            train_vectors=train_vectors, test_vectors=None)
    return _fit_shallow(result, shallow_spec, test)


def refit_shallow(result: PipelineResult, shallow_spec: ShallowSpec, test: Dataset | None = None) -> PipelineResult:
    """Swap the sample-level classifier on top of an already trained network;
    test is not read when the result already carries test vectors."""
    return _fit_shallow(result, shallow_spec, test)
