"""Length-preserving patch extraction.

A patch config is a (stride, length) pair plus three transformation flags:

* zero    - values outside the patch window are set to 0 (mandatory; the patch
            classifier must only ever see the window content),
* attach  - append a binary mask channel marking the window,
* notemp  - shift the window content to the start of the frame, discarding the
            absolute temporal position.

Patch p of a sample starts at p*stride; every p with p*stride < sample length
is enumerated and the final window is truncated at the sample boundary.

All samples of a dataset share one patch layout, the patch_spans table: slot
k of every sample is the patch (config_index, p, start, end) = spans[k], and
a patch row is addressed by its position, (sample row, slot).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class PatchConfig:
    stride: int
    length: int
    zero: bool = True
    attach: bool = True
    notemp: bool = False

    def __post_init__(self) -> None:
        if not (self.stride >= 1):
            raise ConfigError(f"stride must be >= 1, got {self.stride}")
        if not (self.length >= 1):
            raise ConfigError(f"patch length must be >= 1, got {self.length}")
        if not self.zero:
            raise ConfigError(
                "zero=False is rejected: zeroing the data outside the patch is "
                "mandatory to force a patch-level classification"
            )


def check_fits(config: PatchConfig, sample_length: int) -> None:
    """A ConfigError if the config's patches are longer than the sample."""
    if config.length > sample_length:
        raise ConfigError(f"patch length {config.length} exceeds sample length {sample_length}")


def enumerate_patches(sample_length: int, config: PatchConfig) -> list[tuple[int, int, int]]:
    """All (p, start, end) with p*stride < sample_length, in p order; end is
    truncated at the sample boundary."""
    check_fits(config, sample_length)
    out = []
    p = 0
    while p * config.stride < sample_length:
        start = p * config.stride
        out.append((p, start, min(start + config.length, sample_length)))
        p += 1
    return out


def patch_spans(sample_length: int, configs: list[PatchConfig]) -> list[tuple[int, int, int, int]]:
    """(config_index, p, start, end) of every patch slot of a sample, configs
    first, then patch index: the layout every sample shares."""
    return [
        (ci, p, start, end)
        for ci, config in enumerate(configs)
        for p, start, end in enumerate_patches(sample_length, config)
    ]


def _check_configs(configs: list[PatchConfig]) -> None:
    if not configs:
        raise ConfigError("at least one patch config is required")
    attach_flags = {c.attach for c in configs}
    if len(attach_flags) > 1:
        raise ConfigError(
            "all configs must agree on the attach flag so patches share one channel count"
        )


def build_patch_arrays(
    values: np.ndarray, labels: np.ndarray, configs: list[PatchConfig], halo: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every patch of the stacked samples values (n, channels, length), cut to its crop.

    Returns (patches, patch_labels, offsets). Row i * P + k of patches, shape
    (n * P, channels [+1 if attach], W) with P = len(patch_spans(length,
    configs)), is slot k of sample row i: steps [offset, offset + W) of its
    frame. That crop is the slot's window (at step 0 under notemp) widened by
    halo = (before, after) steps, clamped to the frame and padded to the
    widest crop, W. patch_labels repeats each of the (n,) labels P times.
    """
    _check_configs(configs)
    n, channels, length = values.shape
    spans = patch_spans(length, configs)
    windows = np.array([(0, end - start) if configs[ci].notemp else (start, end) for ci, _, start, end in spans])
    lo = np.maximum(windows[:, 0] - halo[0], 0)
    width = int(np.max(np.minimum(windows[:, 1] + halo[1], length) - lo))
    offsets = np.minimum(lo, length - width)
    attach = configs[0].attach
    patches = np.zeros((n, len(spans), channels + int(attach), width))
    for slot, ((_, _, start, end), (a, b)) in enumerate(zip(spans, windows - offsets[:, None])):
        patches[:, slot, :channels, a:b] = values[:, :, start:end]
        if attach:
            patches[:, slot, -1, a:b] = 1.0
    return patches.reshape(n * len(spans), -1, width), np.repeat(labels, len(spans)), np.tile(offsets, n)
