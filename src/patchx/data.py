"""Loading, generation, and normalization of labeled time-series datasets.

A dataset is an ordered list of fixed-shape multichannel samples with integer
class labels. The synthetic point-anomaly generator reproduces the shape of the
benchmark anomaly task (length 50, 3 channels, 2 classes) and labels each
sample with a deterministic mean + k*std exceedance rule, so labels can always
be recomputed from the raw values.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SIGMA_MULTIPLIER = 4.0


class ParseError(ValueError):
    """Raised for malformed dataset files; carries the offending 1-based row."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message if row is None else f"row {row}: {message}")
        self.row = row


class SplitError(ValueError):
    """Raised for a split that is empty or whose shape differs from train's."""


@dataclass
class TimeSeriesSample:
    """One multichannel series with a class label.

    values has shape (channels, length). meta optionally carries generator
    provenance such as the injected peak location.
    """

    id: int
    values: np.ndarray
    label: int
    meta: dict | None = None

    @property
    def channels(self) -> int:
        return self.values.shape[0]

    @property
    def length(self) -> int:
        return self.values.shape[1]


@dataclass
class Dataset:
    samples: list[TimeSeriesSample]
    class_count: int
    split: str = "train"

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def channels(self) -> int:
        return self.samples[0].channels

    @property
    def length(self) -> int:
        return self.samples[0].length

    def values_array(self) -> np.ndarray:
        """Stack all sample values into an (n, channels, length) array."""
        return np.stack([s.values for s in self.samples])

    def labels_array(self) -> np.ndarray:
        return np.array([s.label for s in self.samples], dtype=np.int64)

    def ids(self) -> list[int]:
        return [s.id for s in self.samples]

    def validate(self) -> None:
        """class_count >= 2, and every sample has the first's 2-D shape, a label
        in range and finite values; raises ValueError naming the first that fails."""
        if self.class_count < 2:
            raise ValueError(f"class_count must be >= 2, got {self.class_count}")
        if not self.samples:
            return
        shape = self.samples[0].values.shape
        for s in self.samples:
            if s.values.ndim != 2 or s.values.shape != shape:
                raise ValueError(
                    f"sample {s.id}: shape {s.values.shape} differs from {shape}"
                )
            if not (0 <= s.label < self.class_count):
                raise ValueError(
                    f"sample {s.id}: label {s.label} outside [0, {self.class_count})"
                )
            if not np.all(np.isfinite(s.values)):
                raise ValueError(f"sample {s.id}: values contain NaN or Inf")


@dataclass(frozen=True)
class AnomalyGenSpec:
    """Parameters of the synthetic point-anomaly generator.

    Half of the samples receive a single-point peak in one random channel at a
    uniform position in [2, length-2]; the label is then derived from the
    mean + k*std rule regardless of whether a peak was injected.
    """

    train_count: int = 3500
    val_count: int = 1500
    test_count: int = 1000
    length: int = 50
    channels: int = 3
    noise_sigma: float = 1.0
    peak_amplitude_range: tuple[float, float] = (5.0, 10.0)
    sigma_multiplier: float = DEFAULT_SIGMA_MULTIPLIER
    seed: int = 0

    def __post_init__(self) -> None:
        if not (min(self.train_count, self.val_count, self.test_count) > 0):
            raise ValueError("split counts must be positive")
        if not (self.length >= 5):
            raise ValueError(f"length must be >= 5, got {self.length}")
        if not (self.channels >= 1):
            raise ValueError("channels must be >= 1")
        if not (0 < self.noise_sigma < np.inf):
            raise ValueError(f"noise_sigma must be > 0 and finite, got {self.noise_sigma}")
        lo, hi = self.peak_amplitude_range
        if not (0 < lo <= hi < np.inf):
            raise ValueError(f"bad peak_amplitude_range {self.peak_amplitude_range}: need 0 < min <= max, finite")
        if not (0 < self.sigma_multiplier < np.inf):
            raise ValueError(f"sigma_multiplier must be > 0 and finite, got {self.sigma_multiplier}")


def anomaly_label(values: np.ndarray, sigma_multiplier: float = DEFAULT_SIGMA_MULTIPLIER) -> np.ndarray:
    """Label rule of the anomaly family, one label per (channels, length) sample
    of values (..., channels, length): 1 iff any point in any channel exceeds
    that channel's within-sample mean + k*std (population std)."""
    mean = values.mean(axis=-1, keepdims=True)
    std = values.std(axis=-1, keepdims=True)
    return np.any(values > mean + sigma_multiplier * std, axis=(-2, -1)).astype(np.int64)


@np.errstate(over="ignore", invalid="ignore")  # the split's own check reports an overflow
def generate_anomaly(spec: AnomalyGenSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Generate (train, val, test) datasets; deterministic for a fixed seed.

    Each split is drawn sample by sample into one (count, channels, length)
    array whose rows the samples view, and labelled in one call. Peaked
    samples carry meta = {peak_channel, peak_step, peak_value}. A split whose
    values, per-sample channel std (the label rule's) or split channel std
    (normalization_stats') is not finite raises a ValueError naming the split
    and the noise and peak settings.
    """
    rng = np.random.default_rng(spec.seed)
    splits = []
    for split_name, count in zip(("train", "val", "test"), (spec.train_count, spec.val_count, spec.test_count)):
        values = np.empty((count, spec.channels, spec.length))
        metas = []
        for row in values:
            row[...] = rng.normal(0.0, spec.noise_sigma, size=row.shape)
            meta = None
            if rng.random() < 0.5:
                channel = int(rng.integers(0, spec.channels))
                step = int(rng.integers(2, spec.length - 1))
                amplitude = float(rng.uniform(*spec.peak_amplitude_range))
                row[channel, step] = amplitude
                meta = {"peak_channel": channel, "peak_step": step, "peak_value": amplitude}
            metas.append(meta)
        if not (np.isfinite(values).all() and np.isfinite(values.std(axis=-1)).all()
                and np.isfinite(values.std(axis=(0, 2))).all()):
            raise ValueError(f"split {split_name!r}: values contain NaN or Inf or overflow their std (drawn with "
                             f"noise_sigma={spec.noise_sigma}, peak_amplitude_range={spec.peak_amplitude_range})")
        labels = anomaly_label(values, spec.sigma_multiplier).tolist()
        samples = [TimeSeriesSample(id=i, values=v, label=label, meta=meta)
                   for i, (v, label, meta) in enumerate(zip(values, labels, metas))]
        splits.append(Dataset(samples=samples, class_count=2, split=split_name))
    return splits[0], splits[1], splits[2]


@dataclass
class NormStats:
    """Per-channel normalization statistics computed on a training split."""

    mean: np.ndarray  # (channels,)
    std: np.ndarray  # (channels,), clamped below at 1e-8

    def __post_init__(self) -> None:
        if not (np.ndim(self.mean) == 1 and np.shape(self.std) == np.shape(self.mean)
                and np.all((self.std > 0) & (self.std < np.inf))):
            raise ValueError(f"norm stats mean {np.shape(self.mean)} and std {np.shape(self.std)} "
                             "are not (channels,) with a finite positive std")


def normalization_stats(dataset: Dataset) -> NormStats:
    if not dataset.samples:
        raise ValueError("cannot compute statistics of an empty dataset")
    values = dataset.values_array()  # (n, c, l)
    mean = values.mean(axis=(0, 2))
    std = np.maximum(values.std(axis=(0, 2)), 1e-8)
    return NormStats(mean=mean, std=std)


def znormalize(values: np.ndarray, stats: NormStats) -> np.ndarray:
    """(n, channels, length) values z-normalized per channel by stats, the
    training split's statistics for every split."""
    return (values - stats.mean[:, None]) / stats.std[:, None]


def check_splits(splits: dict[str, Dataset | None]) -> None:
    """Each split (None entries aside) is non-empty and has the first split's
    channels, length and class count; raises SplitError naming the split."""
    named = [(name, ds) for name, ds in splits.items() if ds is not None]
    for name, ds in named:
        if not ds.samples:
            raise SplitError(f"split {name!r} is empty")
    shape = lambda ds: (ds.channels, ds.length, ds.class_count)
    first, reference = named[0]
    for name, ds in named[1:]:
        if shape(ds) != shape(reference):
            raise SplitError(f"split {name!r} has (channels, length, classes) {shape(ds)}, "
                             f"split {first!r} has {shape(reference)}")


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write the comma-separated layout: a `channels,length,class_count` header,
    then one sample per row (channel-major values followed by the label).
    What decode_dataset would reject raises before the file is opened: an
    empty dataset SplitError, and a sample of another shape, a NaN or an
    infinity, or a label out of range a ValueError naming the sample. Ids
    may repeat, since the loader numbers the rows."""
    check_splits({dataset.split: dataset})  # decode_dataset rejects a file without samples
    dataset.validate()
    path = Path(path)
    with path.open("w", encoding="utf-8") as f:
        f.write(",".join(str(v) for v in (dataset.channels, dataset.length, dataset.class_count)))
        f.write("\n")
        for s in dataset.samples:
            fields = [repr(float(v)) for v in s.values.reshape(-1)]
            fields.append(str(s.label))
            f.write(",".join(fields))
            f.write("\n")


def load_dataset(path: str | Path, split: str = "train") -> Dataset:
    """Parse a comma-separated dataset file; row order gives the sample ids."""
    path = Path(path)
    return decode_dataset(path.read_bytes(), path, split)


def decode_dataset(raw: bytes, origin: str | Path, split: str = "train") -> Dataset:
    """Parse the bytes of a comma-separated dataset file, read as UTF-8 text
    with universal newlines; errors that concern the whole file name origin.
    Blank lines are skipped, the first line is the header, and each field is
    read as Python's float() and int() read it.

    One numpy pass reads the data rows into one table, and each sample's
    values view its row. When that pass cannot read the rows, or the table
    fails a check, the row scan reads them instead and decides: it raises
    ParseError naming the 1-based data row of the first malformed one (a
    file without samples names origin), or returns its own dataset for the
    spellings that only float() and int() accept, such as 1_0. Both check
    everything that Dataset.validate does: the field count fixes each
    sample's shape, values are finite and labels are in range. Ids are row
    numbers.
    """
    try:
        lines = [line.rstrip("\n") for line in io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")]
    except UnicodeDecodeError as err:
        raise ParseError(f"{origin} is not UTF-8 text ({err.reason})") from None
    lines = [line for line in lines if line.strip()]
    if not lines:
        raise ParseError(f"{origin} is empty")
    header = lines[0].split(",")
    if len(header) != 3:
        raise ParseError("header must be 'channels,length,class_count'")
    try:
        channels, length, class_count = (int(v) for v in header)
    except ValueError:
        raise ParseError(f"non-integer header field in {lines[0]!r}") from None
    if channels < 1 or length < 1 or class_count < 2:
        raise ParseError(f"header {lines[0]!r} needs channels >= 1, length >= 1, class_count >= 2")
    rows = lines[1:]
    if not rows:
        raise ParseError(f"{origin} has a header but no samples")
    table = _read_table(rows, channels * length + 1, class_count)
    if table is None:
        return _scan_rows(rows, channels, length, class_count, split)
    values = table[:, :-1].reshape(len(rows), channels, length)  # a view: each row's values are contiguous
    labels = table[:, -1].astype(np.int64).tolist()
    samples = [TimeSeriesSample(id=i, values=v, label=label) for i, (v, label) in enumerate(zip(values, labels))]
    return Dataset(samples=samples, class_count=class_count, split=split)


def _read_table(rows: list[str], fields: int, class_count: int) -> np.ndarray | None:
    """The rows as one (len(rows), fields) float64 table, labels last, read
    in one np.loadtxt pass with the label column through int(); None when
    that pass cannot read them or the table fails a check the row scan makes.
    A first row of another field count is left to the row scan before the
    pass, since the header's count may be too large for a column index.
    Labels travel as float64, exact only up to 2**53, so a larger class
    count is left to it too."""
    if rows[0].count(",") + 1 != fields or class_count > 2**53:
        return None
    try:
        table = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2, converters={fields - 1: int})
    except ValueError:
        return None
    labels = table[:, -1]
    if (table.shape != (len(rows), fields) or not np.isfinite(table[:, :-1]).all()
            or not ((labels >= 0) & (labels < class_count)).all()):
        return None
    return table


def _scan_rows(rows: list[str], channels: int, length: int, class_count: int, split: str) -> Dataset:
    """The data rows read one field at a time; raises ParseError naming the
    first malformed row."""
    expected = channels * length + 1
    samples = []
    for row_no, line in enumerate(rows, start=1):
        fields = line.split(",")
        if len(fields) != expected:
            raise ParseError(
                f"inconsistent length: expected {expected} fields "
                f"({channels}x{length} values + label), got {len(fields)}",
                row=row_no,
            )
        try:
            values = np.array([float(v) for v in fields[:-1]], dtype=np.float64)
        except ValueError:
            bad = next(v for v in fields[:-1] if not _is_number(v))
            raise ParseError(f"non-numeric value {bad!r}", row=row_no) from None
        if not np.all(np.isfinite(values)):
            raise ParseError("values contain NaN or Inf", row=row_no)
        try:
            label = int(fields[-1])
        except ValueError:
            raise ParseError(f"non-integer label {fields[-1]!r}", row=row_no) from None
        if not (0 <= label < class_count):
            raise ParseError(f"label {label} outside [0, {class_count})", row=row_no)
        samples.append(
            TimeSeriesSample(id=row_no - 1, values=values.reshape(channels, length), label=label)
        )
    return Dataset(samples=samples, class_count=class_count, split=split)


def _is_number(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False
