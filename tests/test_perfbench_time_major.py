"""The benchmark's tracer counts conv flop from the shape of Conv1d.forward's
first argument. The network keeps its activations in time-major memory, so
that argument must stay a logical (batch, channels, length) view, or
neuralnet.gflop and the per-call batch filter would read the wrong axes."""

import numpy as np

from patchx.neuralnet import NetworkSpec, build_network, forward_all
from patchx.patching import PatchConfig, build_patch_arrays

from test_perfbench_hooks import load_tracer


def test_traced_forward_all_counts_crops_of_width_14():
    """Crops of a 5:10 config through two kernel-3 blocks are 14 steps wide.
    Each conv has one span over the crops, with batch = crops and flop
    2 * crops * 14 * out * in * k, and one over the batch-1 empty frame,
    which is frame_width = 2 + 2 + 1 steps wide."""
    spans, tracer, labels = load_tracer()
    (small, first), (large, second) = sorted(labels.items())
    net = build_network(NetworkSpec(2, 50, 2, ((small, 3, "relu"), (large, 3, "relu")), seed=0))
    rng = np.random.default_rng(0)
    crops, _, offsets = build_patch_arrays(rng.normal(size=(20, 1, 50)), np.zeros(20, np.int64),
                                           [PatchConfig(5, 10, attach=True)], net.halo)
    rows, _, width = crops.shape
    assert width == 14 and rows == 200 and net.frame_width == 5
    with tracer.group():
        forward_all(net, [(crops, offsets)])
    metas = {}
    for s in tracer.groups[-1]:
        if s[spans.NAME].startswith("neuralnet.conv"):
            metas.setdefault(s[spans.NAME], []).append(s[spans.META])
    layers = {first: (small, 2), second: (large, small)}
    assert metas.keys() == {f"neuralnet.{label}.eval_fwd" for label in layers}
    for label, (out_channels, in_channels) in layers.items():
        per_step = 2 * out_channels * in_channels * 3
        assert sorted(metas[f"neuralnet.{label}.eval_fwd"], key=lambda m: m["batch"]) == [
            {"batch": 1, "flop": net.frame_width * per_step},  # the empty frame
            {"batch": rows, "flop": rows * width * per_step},
        ]
