"""The benchmark's tracer counts conv flop from the shape of Conv1d.forward's
first argument. The network keeps its activations in time-major memory, so
that argument must stay a logical (batch, channels, length) view, or
neuralnet.gflop and the per-call batch filter would read the wrong axes."""

import numpy as np
import pytest

from patchx.neuralnet import EVAL_BATCH, NetworkSpec, build_network, forward_all
from patchx.patching import PatchConfig, build_patch_arrays

from test_perfbench_hooks import load_tracer


@pytest.mark.parametrize("samples", [20, 120])
def test_traced_forward_all_counts_crops_of_width_14(samples):
    """Crops of a 5:10 config through two kernel-3 blocks are 14 steps wide.
    Each conv has one span a slice, with batch = the slice's crops + 1 (the
    all-zero crop after them) and flop 2 * batch * 14 * out * in * k, and
    none of batch 1. 200 crops are one slice; 1,200 are a full slice of
    EVAL_BATCH rows, the batch that the eval_fwd_ms medians keep, and one of
    the rest."""
    spans, tracer, labels = load_tracer()
    (small, first), (large, second) = sorted(labels.items())
    net = build_network(NetworkSpec(2, 50, 2, ((small, 3, "relu"), (large, 3, "relu")), seed=0))
    rng = np.random.default_rng(0)
    crops, _, offsets = build_patch_arrays(rng.normal(size=(samples, 1, 50)), np.zeros(samples, np.int64),
                                           [PatchConfig(5, 10, attach=True)], net.halo)
    rows, _, width = crops.shape
    assert width == 14 and rows == 10 * samples
    with tracer.group():
        forward_all(net, [(crops, offsets)])
    metas = {}
    for s in tracer.groups[-1]:
        if s[spans.NAME].startswith("neuralnet.conv"):
            metas.setdefault(s[spans.NAME], []).append(s[spans.META])
    layers = {first: (small, 2), second: (large, small)}
    assert metas.keys() == {f"neuralnet.{label}.eval_fwd" for label in layers}
    batches = [rows + 1] if rows < EVAL_BATCH else [EVAL_BATCH, rows - (EVAL_BATCH - 1) + 1]
    for label, (out_channels, in_channels) in layers.items():
        per_step = 2 * out_channels * in_channels * 3
        assert metas[f"neuralnet.{label}.eval_fwd"] == [
            {"batch": batch, "flop": batch * width * per_step} for batch in batches
        ]
