"""The benchmark's tracer wraps patchx entry points by name from outside the
package. A renamed or removed entry point must fail here, not only in a traced
benchmark run."""

import sys
from pathlib import Path

import numpy as np

from patchx import cli, neuralnet, pipeline
from patchx.data import znormalize
from patchx.patching import build_patch_arrays, patch_spans

from oracles import backward, zero_offsets

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import spans
        from workloads import CONV_LABELS
    finally:
        sys.path.remove(str(PERFBENCH))
    return spans, spans.Tracer(CONV_LABELS), CONV_LABELS


def test_tracer_installs_and_removes_every_hook():
    _, tracer, _ = load_tracer()
    installed = []
    try:
        with tracer.group():
            installed = list(tracer._undo)
            for owner, attr, original in installed:
                assert getattr(owner, attr) is not original, f"{attr} was not wrapped"
    finally:
        tracer._uninstall()  # an install that failed half way leaves wrappers behind
    assert installed
    for owner, attr, original in installed:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} is still wrapped"


def test_conv_spans_count_flop_of_logical_shapes():
    """The tracer reads (batch, channels, length) shapes off Conv1d's arguments
    to count flop; an array of another layout would miscount neuralnet.gflop.
    The rows are whole frames, and a training step runs each pass on the
    batch and the all-zero crop after it, as it does for any crops."""
    spans, tracer, labels = load_tracer()
    (small, first), (large, second) = sorted(labels.items())
    batch, channels, length = 5, 4, 12  # length differs from every channel count
    blocks = ((small, 3, "relu"), (large, 2, "relu"))
    net = neuralnet.build_network(neuralnet.NetworkSpec(channels, length, 2, blocks, seed=0))
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(batch, channels, length)), np.array([0, 1, 0, 1, 1])
    with tracer.group():
        backward(net, (x, y, zero_offsets(x)))
    flop = {}
    for s in tracer.groups[-1]:
        if s[spans.NAME].startswith("neuralnet.conv"):
            flop[s[spans.NAME]] = flop.get(s[spans.NAME], 0) + s[spans.META]["flop"]
    rows = batch + 1
    per_pass = {first: rows * length * small * channels * 3,
                second: rows * length * large * small * 2}
    assert flop == {
        **{f"neuralnet.{label}.eval_fwd": 2 * n for label, n in per_pass.items()},
        **{f"neuralnet.{label}.bwd": 4 * n for label, n in per_pass.items()},
    }


def test_patching_spans_read_the_cropped_tensor(small_bundle, anomaly_splits):
    """patching.patches and patching.tensor_mb read the crops that
    build_patch_arrays returns first: their row count and the bytes they
    hold (their value table's). Evaluation cuts one group per config, so
    there is one span per config: n * P_c crops of that config's width W_c,
    and the rows add up to n * P."""
    spans, tracer, _ = load_tracer()
    test, net, configs = anomaly_splits[2], small_bundle.network, small_bundle.patch_configs
    with tracer.group():
        small_bundle.patch_predictions(test)
    metas = [s[spans.META] for s in tracer.groups[-1] if s[spans.NAME] == "patching.build_patch_arrays"]
    assert len(metas) == len(configs)
    before, after = sum(conv.pad_right for conv in net.convs), sum(conv.pad_left for conv in net.convs)
    values = znormalize(test.values_array(), small_bundle.norm_stats)
    for meta, config in zip(metas, configs):
        windows = [(start, end) for _, _, start, end in patch_spans(test.length, [config])]
        width = max(min(end + after, test.length) - max(start - before, 0) for start, end in windows)
        assert width < test.length
        rows = len(test) * len(windows)
        crops = build_patch_arrays(values, test.labels_array(), [config], net.halo)[0]
        assert crops.shape == (rows, net.spec.input_channels, width)
        assert meta["rows"] == rows
        assert meta["bytes"] == crops.nbytes
    assert sum(meta["rows"] for meta in metas) == len(test) * len(patch_spans(test.length, configs))


def test_a_traced_run_times_every_pipeline_stage(tmp_path, capsys):
    """One small `patchx run` traced through patchx.cli.main, as the train
    workload runs it: every stage of run_pipeline and the validation passes
    read a time, and patching.patches counts every patch cut, P a sample of
    each split and of train once more, for its vectors. Validation is cut
    inside the bundle, so a move of that cut must not zero a metric."""
    spans, tracer, _ = load_tracer()
    sys.path.insert(0, str(PERFBENCH))
    try:
        from workloads import LENGTH, PATCHES, run_argv
    finally:
        sys.path.remove(str(PERFBENCH))
    n_train, n_val, n_test = 60, 30, 40
    data = tmp_path / "data"
    assert cli.main(["generate", "--out", str(data), "--train-count", str(n_train), "--val-count", str(n_val),
                     "--test-count", str(n_test), "--length", str(LENGTH), "--seed", "1"]) == 0
    with tracer.group():
        assert cli.main(run_argv(data, tmp_path / "runs", "traced", epochs=1)) == 0
    capsys.readouterr()
    metrics = {name: entry["value"] for name, entry in spans.layer_metrics(tracer, "train", 0.0).items()}
    for name in ("pipeline.patching_s", "pipeline.network_train_s", "pipeline.train_vectors_s",
                 "pipeline.shallow_fit_s", "pipeline.test_inference_s", "data.znormalize_s",
                 "neuralnet.val_eval_s"):
        assert metrics[name] > 0, name
    patches = len(patch_spans(LENGTH, cli.parse_patch_tokens(PATCHES, True, False)))
    assert metrics["patching.patches"] == patches * (2 * n_train + n_val + n_test)


def test_traced_refits_time_every_shallow_fit(small_pipeline, anomaly_splits):
    """The infer workload's start refits svm, forest and trivial on one
    result's cached vectors: each fit reads a time through the tracer's
    wrapped pipeline.fit."""
    spans, tracer, _ = load_tracer()
    sys.path.insert(0, str(PERFBENCH))
    try:
        from workloads import REFIT_SPECS
    finally:
        sys.path.remove(str(PERFBENCH))
    with tracer.group():
        for spec in REFIT_SPECS.values():
            pipeline.refit_shallow(small_pipeline, spec, anomaly_splits[2])
    metrics = {name: entry["value"] for name, entry in spans.layer_metrics(tracer, "infer", 0.0).items()}
    for name in ("shallow.svm_fit_s", "shallow.forest_fit_s", "shallow.trivial_fit_s"):
        assert metrics[name] > 0, name
