"""Training memory grows with the samples, not with patches times crop width.

tracemalloc measures the peak of build_patch_arrays plus one epoch of train()
on n and on 2n training samples (the validation split fixed). Each added
sample may cost less than half of what a (n * P, C', W) float64 patch tensor
would hold for it, P * C' * W * 8 bytes.
"""

import tracemalloc

import numpy as np
import pytest

from patchx.neuralnet import NetworkSpec, TrainSpec, build_network, train
from patchx.patching import PatchConfig, build_patch_arrays

LENGTH, CHANNELS = 50, 3


def traced_peak(n: int, configs: list[PatchConfig], val) -> tuple[int, int]:
    """(peak bytes, tensor bytes a sample) of patching n samples and one epoch of training."""
    rng = np.random.default_rng(n)
    values = rng.normal(size=(n, CHANNELS, LENGTH))
    labels = rng.integers(0, 2, n)
    net = build_network(NetworkSpec(CHANNELS + 1, LENGTH, 2, conv_blocks=((4, 3, "relu"),), seed=0))
    spec = TrainSpec(epochs=1, batch_size=64, early_stopping_patience=0, seed=0)
    tracemalloc.start()
    try:
        train_patches = build_patch_arrays(values, labels, configs, net.halo)
        val_patches = build_patch_arrays(*val, configs, net.halo)
        train(net, train_patches, [val_patches], spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows, channels, width = train_patches[0].shape
    return peak, rows // n * channels * width * 8


@pytest.mark.parametrize("tokens", [[(5, 10), (10, 20)], [(1, 10)]], ids=["5:10,10:20", "stride-1"])
def test_growth_per_sample_below_half_the_tensor(tokens):
    configs = [PatchConfig(stride, size, attach=True) for stride, size in tokens]
    rng = np.random.default_rng(0)
    val = (rng.normal(size=(20, CHANNELS, LENGTH)), rng.integers(0, 2, 20))
    n = 200
    small, tensor_per_sample = traced_peak(n, configs, val)
    large, _ = traced_peak(2 * n, configs, val)
    growth = (large - small) / n
    assert growth < tensor_per_sample / 2, f"{growth:.0f} bytes a sample, tensor {tensor_per_sample}"
