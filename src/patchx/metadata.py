"""Distilling per-patch predictions into per-sample class-presence features.

For every sample and every patch config, the winning (maximum) softmax value
of each patch is added to the entry of the winning class; argmax ties go to
the lowest class index. The result is a time-independent feature vector with
one block of class_count entries per config. Alongside the confidence sums the
per-class win counts are kept, which is what occurrence voting needs.

All samples of a dataset live in one PresenceMatrix, built from the batched
patch softmaxes in a single np.add.at pass; every inference path (datasets,
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
    patch_counts: np.ndarray  # (n, n_configs) patches per config and sample

    def __len__(self) -> int:
        return len(self.sample_ids)

    def features(self, collapse: bool = False, normalize: bool = False) -> np.ndarray:
        """(n, d) feature rows: the blocks flattened, optionally divided by the
        patch count of their config and/or summed over configs."""
        blocks = self.blocks
        if normalize:
            blocks = blocks / np.maximum(self.patch_counts[:, :, None], 1)
        if collapse:
            blocks = blocks.sum(axis=1, keepdims=True)
        return blocks.reshape(len(blocks), -1)


def extract_all(
    softmaxes: np.ndarray,
    sample_ids: np.ndarray,
    config_indices: np.ndarray,
    labels: np.ndarray,
    class_count: int,
    n_configs: int,
) -> PresenceMatrix:
    """Group batched patch predictions by sample id into one presence matrix.

    Rows must be ordered so that all patches of one sample are contiguous (the
    order build_patch_arrays produces). Every softmax row contributes its
    maximum to exactly one (sample, config, argmax class) entry; entries are
    accumulated in row order, so patch order within a sample affects the
    result only through float accumulation order.
    """
    softmaxes = np.asarray(softmaxes)
    if len(softmaxes) == 0:
        raise ValueError("empty prediction list: no patch predictions to extract from")
    if softmaxes.ndim != 2 or softmaxes.shape[1] != class_count:
        raise ValueError(f"softmax length {softmaxes.shape[1:]} != ({class_count},)")
    config_indices = np.asarray(config_indices, dtype=np.int64)
    bad = (config_indices < 0) | (config_indices >= n_configs)
    if bad.any():
        raise ValueError(f"config index {config_indices[bad][0]} out of range [0, {n_configs})")
    sample_ids = np.asarray(sample_ids, dtype=np.int64)
    first = np.diff(sample_ids, prepend=sample_ids[0] - 1) != 0  # first row of each sample
    starts = np.flatnonzero(first)
    row_sample = np.cumsum(first) - 1
    winners = np.argmax(softmaxes, axis=1)  # ties go to the lowest class index
    n = len(starts)
    blocks = np.zeros((n, n_configs, class_count))
    counts = np.zeros((n, n_configs, class_count), dtype=np.int64)
    patch_counts = np.zeros((n, n_configs), dtype=np.int64)
    np.add.at(blocks, (row_sample, config_indices, winners),
              softmaxes[np.arange(len(winners)), winners])
    np.add.at(counts, (row_sample, config_indices, winners), 1)
    np.add.at(patch_counts, (row_sample, config_indices), 1)
    return PresenceMatrix(
        sample_ids=sample_ids[starts],
        labels=np.asarray(labels, dtype=np.int64)[starts],
        blocks=blocks,
        counts=counts,
        patch_counts=patch_counts,
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
