"""run_pipeline and refit_shallow take the shallow step through one function,
which returns a new result and leaves the one it was given as it was."""

import copy
from dataclasses import replace

import pytest

from patchx.bundle import PatchXBundle
from patchx.patching import ConfigError
from patchx.pipeline import refit_shallow, run_pipeline
from patchx.shallow import ForestSpec, ShallowSpec

STAGES = ("patching_seconds", "network_train_seconds", "train_vectors_seconds", "shallow_fit_seconds")
FOREST, TRIVIAL = ShallowSpec(kind="forest", forest=ForestSpec(trees=5, seed=1)), ShallowSpec(kind="trivial")


def test_run_pipeline_needs_a_patch_config(anomaly_splits):
    with pytest.raises(ConfigError, match="at least one patch config is required"):
        run_pipeline(*anomaly_splits, [])


@pytest.mark.parametrize("spec", [FOREST, TRIVIAL], ids=lambda spec: spec.kind)
def test_a_refits_train_seconds_counts_its_own_fit(small_pipeline, spec):
    """train_seconds sums the base's patching, network training and train
    vectors with the refit's own shallow fit, as a run's sums its stages."""
    refit = refit_shallow(small_pipeline, spec)
    for result in (small_pipeline, refit):
        assert result.timing["train_seconds"] == sum(result.timing[k] for k in STAGES)


def test_a_refit_leaves_the_base_result_unchanged(small_pipeline, anomaly_splits):
    bundle, model = small_pipeline.bundle, small_pipeline.bundle.shallow_model
    metrics, timing = copy.deepcopy(small_pipeline.metrics), dict(small_pipeline.timing)
    refit = refit_shallow(small_pipeline, FOREST, anomaly_splits[2])
    assert small_pipeline.bundle is bundle and bundle.shallow_model is model
    assert small_pipeline.metrics == metrics and small_pipeline.timing == timing
    assert refit.bundle.network is bundle.network and refit.bundle.shallow_model is not model
    assert (refit.metrics["shallow_kind"], metrics["shallow_kind"]) == ("forest", "svm")


def test_a_refit_scores_cached_test_vectors_without_reading_test(small_pipeline, anomaly_splits, monkeypatch):
    monkeypatch.setattr(PatchXBundle, "predict_dataset", lambda *args: pytest.fail("inference ran"))
    refit = refit_shallow(small_pipeline, TRIVIAL, anomaly_splits[2])
    assert refit.test_vectors is small_pipeline.test_vectors
    assert refit.timing["inference_seconds"] == small_pipeline.timing["inference_seconds"]


def test_a_refit_without_test_vectors_runs_one_inference_pass(small_pipeline, anomaly_splits, monkeypatch):
    """The pass reads the vectors that the cached ones hold, so both score alike."""
    test, calls, predict = anomaly_splits[2], [], PatchXBundle.predict_dataset
    monkeypatch.setattr(PatchXBundle, "predict_dataset", lambda b, ds: calls.append(ds) or predict(b, ds))
    refit = refit_shallow(replace(small_pipeline, test_vectors=None), TRIVIAL, test)
    assert len(calls) == 1 and calls[0] is test
    assert refit.metrics["test_accuracy"] == refit_shallow(small_pipeline, TRIVIAL).metrics["test_accuracy"]
