"""Length-preserving patch extraction.

A patch config is a (stride, length) pair plus three transformation flags:

* zero    - values outside the patch window are set to 0 (mandatory; the patch
            classifier must only ever see the window content),
* attach  - append a binary mask channel marking the window,
* notemp  - shift the window content to the start of the frame, discarding the
            absolute temporal position.

Patch p of a sample starts at p*stride; every p with p*stride < sample length
is enumerated and the final window is truncated at the sample boundary.

build_patch_arrays is the one patch builder the pipeline runs. transform,
PatchInstance and build_patch_dataset cut one patch object at a time; they
are the reference its tests check it against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, TimeSeriesSample


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class PatchConfig:
    stride: int
    length: int
    zero: bool = True
    attach: bool = True
    notemp: bool = False

    def validate(self, sample_length: int | None = None) -> None:
        if self.stride < 1:
            raise ConfigError(f"stride must be >= 1, got {self.stride}")
        if self.length < 1:
            raise ConfigError(f"patch length must be >= 1, got {self.length}")
        if not self.zero:
            raise ConfigError(
                "zero=False is rejected: zeroing the data outside the patch is "
                "mandatory to force a patch-level classification"
            )
        if self.notemp and not self.zero:
            raise ConfigError("notemp requires zero")
        if sample_length is not None and self.length > sample_length:
            raise ConfigError(
                f"patch length {self.length} exceeds sample length {sample_length}"
            )


@dataclass
class PatchInstance:
    """One transformed patch, same time dimension as its source sample.

    valid_range is the half-open [start, end) interval of time-steps that carry
    window content in this instance's own coordinates (so it starts at 0 when
    notemp shifted). The label is inherited from the source sample.
    """

    sample_id: int
    config_index: int
    patch_index: int
    values: np.ndarray  # (channels [+1 if attach], length)
    valid_range: tuple[int, int]
    label: int


def enumerate_patches(sample_length: int, config: PatchConfig) -> list[tuple[int, int, int]]:
    """All (p, start, end) with p*stride < sample_length, in p order; end is
    truncated at the sample boundary."""
    config.validate(sample_length)
    out = []
    p = 0
    while p * config.stride < sample_length:
        start = p * config.stride
        out.append((p, start, min(start + config.length, sample_length)))
        p += 1
    return out


def patch_spans(sample_length: int, configs: list[PatchConfig]) -> list[tuple[int, int, int, int]]:
    """(config_index, p, start, end) of every patch of a sample, in the order
    samples -> configs -> patch index that build_patch_arrays uses."""
    return [
        (ci, p, start, end)
        for ci, config in enumerate(configs)
        for p, start, end in enumerate_patches(sample_length, config)
    ]


def transform(
    sample: TimeSeriesSample,
    p: int,
    config: PatchConfig,
    config_index: int = 0,
) -> PatchInstance:
    """Cut patch p out of the sample, keeping the full sample length."""
    length = sample.length
    config.validate(length)
    start = p * config.stride
    if p < 0 or start >= length:
        raise IndexError(f"patch index {p} invalid for sample length {length}")
    end = min(start + config.length, length)
    width = end - start
    channels = sample.channels + (1 if config.attach else 0)
    values = np.zeros((channels, length), dtype=np.float64)
    if config.notemp:
        values[: sample.channels, :width] = sample.values[:, start:end]
        valid = (0, width)
    else:
        values[: sample.channels, start:end] = sample.values[:, start:end]
        valid = (start, end)
    if config.attach:
        values[-1, valid[0] : valid[1]] = 1.0
    return PatchInstance(
        sample_id=sample.id,
        config_index=config_index,
        patch_index=p,
        values=values,
        valid_range=valid,
        label=sample.label,
    )


def _check_configs(configs: list[PatchConfig], sample_length: int | None = None) -> None:
    if not configs:
        raise ConfigError("at least one patch config is required")
    for config in configs:
        config.validate(sample_length)
    attach_flags = {c.attach for c in configs}
    if len(attach_flags) > 1:
        raise ConfigError(
            "all configs must agree on the attach flag so patches share one channel count"
        )


def build_patch_dataset(dataset: Dataset, configs: list[PatchConfig]) -> list[PatchInstance]:
    """Transform every sample under every config; order is samples, then
    configs, then patch index."""
    if not dataset.samples:
        _check_configs(configs)
        return []
    _check_configs(configs, dataset.length)
    instances = []
    for sample in dataset.samples:
        for ci, config in enumerate(configs):
            for p, _, _ in enumerate_patches(sample.length, config):
                instances.append(transform(sample, p, config, config_index=ci))
    return instances


def build_patch_arrays(
    dataset: Dataset, configs: list[PatchConfig]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every patch of every sample as one array; build_patch_dataset is its
    one-object-per-patch reference.

    Returns (values, labels, sample_ids, config_indices) where values has shape
    (n_samples * patches_per_sample, channels, length) in exactly the order
    build_patch_dataset would produce.
    """
    if not dataset.samples:
        _check_configs(configs)
        empty = np.zeros((0,), dtype=np.int64)
        return np.zeros((0, 0, 0)), empty, empty.copy(), empty.copy()
    length = dataset.length
    _check_configs(configs, length)
    spans = patch_spans(length, configs)
    per_sample = len(spans)
    raw = dataset.values_array()  # (n, c, l)
    n = raw.shape[0]
    attach = configs[0].attach
    channels = raw.shape[1] + (1 if attach else 0)
    values = np.zeros((n, per_sample, channels, length), dtype=np.float64)
    for slot, (ci, p, start, end) in enumerate(spans):
        width = end - start
        if configs[ci].notemp:
            lo, hi = 0, width
        else:
            lo, hi = start, end
        values[:, slot, : raw.shape[1], lo:hi] = raw[:, :, start:end]
        if attach:
            values[:, slot, -1, lo:hi] = 1.0
    labels = np.repeat(dataset.labels_array(), per_sample)
    sample_ids = np.repeat(np.array(dataset.ids(), dtype=np.int64), per_sample)
    config_indices = np.tile(np.array([ci for ci, _, _, _ in spans], dtype=np.int64), n)
    return values.reshape(n * per_sample, channels, length), labels, sample_ids, config_indices
