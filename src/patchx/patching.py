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

No patch tensor is built. build_patch_arrays holds the samples as one value
table, a row per step (and a zero row per sample), and the layout as a
(P, W) slot table of the table rows each crop column reads. Its Crops cut any
rows, a training batch or an evaluation slice, with one take from the table,
so patching memory grows with the samples, not with patches times crop width.
"""

from __future__ import annotations

import functools
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
        if not (type(self.stride) is int and self.stride >= 1):  # a bool or a float is no stride
            raise ConfigError(f"stride must be >= 1 and an integer, got {self.stride!r}")
        if not (type(self.length) is int and self.length >= 1):
            raise ConfigError(f"patch length must be >= 1 and an integer, got {self.length!r}")
        if not all(type(flag) is bool for flag in (self.zero, self.attach, self.notemp)):
            raise ConfigError(f"zero, attach and notemp must be bools, got {(self.zero, self.attach, self.notemp)}")
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


def least_width(length: int, halo: tuple[int, int]) -> int:
    """min(length, before + after + 1): the narrowest all-zero input whose
    activations, through a conv stack of this halo, hold every value of the
    length-long empty frame's; every crop is cut at least this wide."""
    return min(length, halo[0] + halo[1] + 1)


def _check_configs(configs: list[PatchConfig]) -> None:
    if not configs:
        raise ConfigError("at least one patch config is required")
    attach_flags = {c.attach for c in configs}
    if len(attach_flags) > 1:
        raise ConfigError(
            "all configs must agree on the attach flag so patches share one channel count"
        )


@dataclass(frozen=True)
class ValueTable:
    """The steps of n stacked samples as rows of one array, length + 1 rows
    a sample: row i * (length + 1) is zeros, and row i * (length + 1) + 1 + t
    is step t of sample i, its channels and, under attach, the mask's 1."""

    rows: np.ndarray  # (n * (length + 1), channels [+1 if attach])
    n: int
    length: int
    attach: bool


def value_table(values: np.ndarray, attach: bool) -> ValueTable:
    """The value table of the stacked samples values (n, channels, length)."""
    n, channels, length = values.shape
    rows = np.zeros((n, length + 1, channels + int(attach)))
    rows[:, 1:, :channels] = values.transpose(0, 2, 1)
    if attach:
        rows[:, 1:, -1] = 1.0
    return ValueTable(rows.reshape(n * (length + 1), channels + int(attach)), n, length, attach)


class Crops:
    """The (n * P, channels [+1 if attach], W) patch crops of a value table,
    cut on demand; only the table and a (P, W) slot table are held.

    slots[k, c] is 1 + the step that column c of slot k's crop reads, or 0
    (the zero row) outside the slot's window; row i * P + k, slot k of
    sample i, reads table rows slots[k] + i * (length + 1). Indexing by a
    1-D integer array or a slice cuts those rows with one take from the
    table; any other index, such as an integer or a boolean mask, is a
    TypeError, and so is iteration."""

    ndim = 3

    def __init__(self, table: ValueTable, slots: np.ndarray):
        self.table, self.slots = table, slots
        self.shape = (table.n * len(slots), table.rows.shape[1], slots.shape[1])

    def __len__(self) -> int:
        return self.shape[0]

    @property
    def nbytes(self) -> int:
        return self.table.rows.nbytes

    def __getitem__(self, rows: np.ndarray | slice) -> np.ndarray:
        return self.cut(rows)

    def cut(self, rows: np.ndarray | slice, out: np.ndarray | None = None, *, zero_row: bool = False) -> np.ndarray:
        """Rows (a 1-D integer array or a slice) as (len(rows), channels, W)
        over time-major memory, (W, len(rows), channels); with zero_row, one
        more row follows them, an all-zero crop, which reads the table's zero
        row 0. With out, an array of that memory shape, such as the inside of
        a conv's frame, the cut is written there unchecked, so the rows must
        lie in [0, len(self)); without it, a row past the end raises
        IndexError."""
        if isinstance(rows, slice):
            rows = np.arange(*rows.indices(len(self)))
        elif not (isinstance(rows, np.ndarray) and rows.ndim == 1 and rows.dtype.kind in "iu"):
            kind = f"{getattr(rows, 'dtype', type(rows).__name__)} of shape {np.shape(rows)}"
            raise TypeError(f"crops take a slice or a 1-D integer array as index, got {kind}")
        sample, slot = np.divmod(rows, len(self.slots))
        index = self.slots.T[:, slot]  # (W, len(rows)): column c of each row's crop
        index += sample * (self.table.length + 1)
        if zero_row:  # table row 0, sample 0's zero row
            index = np.concatenate((index, np.zeros_like(index[:, :1])), axis=1)
        mode = "raise" if out is None else "clip"  # "clip" lets take write to out without a temporary
        return self.table.rows.take(index, axis=0, out=out, mode=mode).transpose(1, 2, 0)


def build_patch_arrays(
    values: np.ndarray | ValueTable, labels: np.ndarray, configs: list[PatchConfig], halo: tuple[int, int]
) -> tuple[Crops, np.ndarray, np.ndarray]:
    """Every patch of the stacked samples values (n, channels, length), or of
    their value table, as crops.

    Returns (crops, patch_labels, offsets). Row i * P + k of crops, shape
    (n * P, channels [+1 if attach], W) with P = len(patch_spans(length,
    configs)), is slot k of sample row i: steps [offset, offset + W) of its
    frame. That crop is the slot's window (at step 0 under notemp) widened by
    halo = (before, after) steps, clamped to the frame and padded to the
    widest crop, W. patch_labels repeats each of the (n,) labels P times.
    """
    _check_configs(configs)
    attach = configs[0].attach
    table = values if isinstance(values, ValueTable) else value_table(values, attach)
    if table.attach != attach:
        raise ConfigError("the value table's attach flag differs from the configs'")
    slots, offsets = _crop_layout(table.length, tuple(configs), tuple(halo))
    return Crops(table, slots), np.repeat(labels, len(slots)), np.tile(offsets, table.n)


@functools.lru_cache(maxsize=64)
def _crop_layout(
    length: int, configs: tuple[PatchConfig, ...], halo: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """The (P, W) slot table and the (P,) crop offsets of the patch layout,
    read-only; a pure function of its arguments, kept per layout because
    every evaluation call asks for the same few."""
    spans = np.array(patch_spans(length, list(configs)))
    start, end = spans[:, 2:3], spans[:, 3:]
    shift = start * np.array([c.notemp for c in configs])[spans[:, :1]]  # a notemp window starts at 0
    a, b = start - shift, end - shift  # each window in its frame
    lo = np.maximum(a - halo[0], 0)
    width = max(int(np.max(np.minimum(b + halo[1], length) - lo)), least_width(length, halo))
    offsets = np.minimum(lo, length - width)
    steps = offsets + np.arange(width)  # the frame step of each crop column
    slots = np.where((a <= steps) & (steps < b), 1 + shift + steps, 0)
    offsets = offsets[:, 0]
    slots.flags.writeable = offsets.flags.writeable = False
    return slots, offsets
