"""Distilling per-patch predictions into per-sample class-presence features.

For every sample and every patch config, the winning (maximum) softmax value
of each patch is added to the entry of the winning class; argmax ties go to
the lowest class index. The result is a time-independent feature vector with
one block of class_count entries per config. Alongside the confidence sums the
per-class win counts are kept, which is what occurrence voting needs.

All samples of a dataset live in one PresenceMatrix, built in one np.add.at
pass from the (samples, slots, classes) patch softmaxes, where slot k of every
sample is row k of patching.patch_spans; every inference path (datasets,
single samples, explanations) goes through extract_all.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass
class PresenceMatrix:
    """Class-presence features of n samples."""

    sample_ids: np.ndarray  # (n,) int64
    labels: np.ndarray  # (n,) int64
    blocks: np.ndarray  # (n, n_configs, class_count) summed winning confidences
    counts: np.ndarray  # (n, n_configs, class_count) number of argmax wins

    def __len__(self) -> int:
        return len(self.sample_ids)

    def features(self, collapse: bool = False, normalize: bool = False) -> np.ndarray:
        """(n, d) feature rows: the blocks flattened, optionally divided by the
        patch count of their config (its wins summed over classes, as every
        patch wins one class) and/or summed over configs."""
        blocks = self.blocks
        if normalize:
            blocks = blocks / np.maximum(self.counts.sum(axis=2, keepdims=True), 1)
        if collapse:
            blocks = blocks.sum(axis=1, keepdims=True)
        return blocks.reshape(len(blocks), -1)


def extract_all(
    softmaxes: np.ndarray,
    slot_configs: np.ndarray,
    sample_ids: np.ndarray,
    labels: np.ndarray,
    class_count: int,
    n_configs: int,
) -> PresenceMatrix:
    """One presence row per sample row of (n, P, class_count) patch softmaxes.

    slot_configs (P,) is the config index of each slot, the same for every
    sample; sample_ids and labels (n,) are copied to the rows. Every softmax
    contributes its maximum to exactly one (sample, config, argmax class)
    entry, accumulated sample by sample in slot order.
    """
    softmaxes = np.asarray(softmaxes)
    if softmaxes.size == 0:
        raise ValueError("empty prediction list: no patch predictions to extract from")
    slot_configs = np.asarray(slot_configs, dtype=np.int64)
    if softmaxes.ndim != 3 or softmaxes.shape[1:] != (len(slot_configs), class_count):
        raise ValueError(f"softmax shape {softmaxes.shape} is not "
                         f"(samples, {len(slot_configs)} slots, {class_count} classes)")
    bad = (slot_configs < 0) | (slot_configs >= n_configs)
    if bad.any():
        raise ValueError(f"config index {slot_configs[bad][0]} out of range [0, {n_configs})")
    n = len(softmaxes)
    winners = np.argmax(softmaxes, axis=2)  # (n, P); ties go to the lowest class index
    at = (np.arange(n)[:, None], slot_configs, winners)
    blocks = np.zeros((n, n_configs, class_count))
    counts = np.zeros((n, n_configs, class_count), dtype=np.int64)
    np.add.at(blocks, at, np.take_along_axis(softmaxes, winners[..., None], axis=2)[..., 0])
    np.add.at(counts, at, 1)
    return PresenceMatrix(
        sample_ids=np.asarray(sample_ids, dtype=np.int64),
        labels=np.asarray(labels, dtype=np.int64),
        blocks=blocks,
        counts=counts,
    )


def save_vectors(matrix: PresenceMatrix, path: str | Path) -> None:
    """Delimited-text export, one sample per line: sample_id, label, then the
    raw (uncollapsed, unnormalized) features."""
    with Path(path).open("w", encoding="utf-8") as f:
        for sample_id, label, row in zip(matrix.sample_ids, matrix.labels, matrix.features()):
            fields = [str(sample_id), str(label)]
            fields.extend(repr(float(x)) for x in row)
            f.write(",".join(fields))
            f.write("\n")
