"""Explanation artifacts: per-patch record tables, overlays, confidence
histograms, class-boundary probes, and mislabel inspection reports.

Every artifact is a set of arrays that serializes to delimited text or JSON;
rendering is left to external tooling.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .bundle import PatchXBundle
from .data import DEFAULT_SIGMA_MULTIPLIER, Dataset, TimeSeriesSample, anomaly_label
from .patching import ConfigError, patch_spans
from .shallow import predict_all

CATEGORY_SPECIFIC = "class-specific"
CATEGORY_SHARED = "shared"
CATEGORY_UNRELATED = "unrelated"

# confidence >= SPECIFIC_THRESHOLD -> class-specific pattern;
# confidence <= 1/C + UNRELATED_MARGIN -> unrelated; shared in between
SPECIFIC_THRESHOLD = 0.9
UNRELATED_MARGIN = 0.1
MAX_HISTOGRAM_BINS = 10_000  # bins over [1/C, 1]; a finer width is rejected
RECORD_FIELDS = ("sample_id", "config_index", "patch_index", "start", "end", "predicted_class", "confidence",
                 "category", "softmax")


@dataclass
class PatchRecords:
    """The per-patch records of n samples as one table: record (i, k) is patch
    slot k of sample i, slots in patch_spans order."""

    sample_ids: np.ndarray  # (n,)
    spans: np.ndarray  # (P, 4): config_index, patch_index, [start, end) in source time-steps
    softmax: np.ndarray  # (n, P, C)

    def __len__(self) -> int:
        return self.softmax.shape[0] * self.softmax.shape[1]

    @property
    def predicted_class(self) -> np.ndarray:
        return self.softmax.argmax(axis=2)

    @property
    def confidence(self) -> np.ndarray:
        """The max softmax value of each record, (n, P)."""
        return self.softmax.max(axis=2)

    @property
    def category(self) -> np.ndarray:
        """Each record's tier by the two confidence thresholds."""
        confidence = self.confidence
        unrelated = confidence <= 1.0 / self.softmax.shape[2] + UNRELATED_MARGIN
        return np.where(confidence >= SPECIFIC_THRESHOLD, CATEGORY_SPECIFIC,
                        np.where(unrelated, CATEGORY_UNRELATED, CATEGORY_SHARED))

    @property
    def overlay_alpha(self) -> np.ndarray:
        """Confidence rescaled to [0, 1] for use as an overlay opacity."""
        chance = 1.0 / self.softmax.shape[2]
        return (self.confidence - chance) / (1.0 - chance)

    def rows(self, i: int) -> Iterator[dict]:
        """The record dicts of sample i, in patch_spans order."""
        one = PatchRecords(self.sample_ids[i : i + 1], self.spans, self.softmax[i : i + 1])
        columns = (one.predicted_class[0], one.confidence[0], one.category[0], one.softmax[0])
        for span, *values in zip(self.spans.tolist(), *(column.tolist() for column in columns)):
            yield dict(zip(RECORD_FIELDS, (int(self.sample_ids[i]), *span, *values)))


def _records(bundle: PatchXBundle, sample_ids, length: int, softmax: np.ndarray) -> PatchRecords:
    return PatchRecords(np.asarray(sample_ids), np.array(patch_spans(length, bundle.patch_configs)), softmax)


def explain_sample(bundle: PatchXBundle, sample: TimeSeriesSample) -> tuple[PatchRecords, int]:
    """The sample's one-row record table plus its sample-level prediction.

    The records carry everything the overlay figures need: source spans,
    per-patch classes, and a confidence gradient.
    """
    probs, prediction, _ = bundle.sample_patch_predictions(sample)
    return _records(bundle, [sample.id], sample.length, probs[None]), prediction


def save_records(records: PatchRecords, path: str | Path) -> None:
    """One record per line: the RECORD_FIELDS, the softmax values last."""
    with Path(path).open("w", encoding="utf-8") as f:
        f.write(",".join(RECORD_FIELDS) + "...\n")
        for i in range(len(records.sample_ids)):
            for r in records.rows(i):
                *ints, confidence, category, softmax = r.values()
                f.write(",".join([*map(str, ints), repr(confidence), category, *map(repr, softmax)]) + "\n")


@dataclass
class HistogramReport:
    bin_edges: np.ndarray
    counts: np.ndarray
    per_class: dict[int, np.ndarray] | None = None

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def to_dict(self) -> dict:
        out = {
            "report": "patch-confidence-histogram",
            "bin_edges": [float(e) for e in self.bin_edges],
            "counts": [int(c) for c in self.counts],
            "total_patches": self.total,
        }
        if self.per_class is not None:
            out["per_class_counts"] = {
                str(c): [int(v) for v in counts] for c, counts in self.per_class.items()
            }
        return out


def _confidence_bin_edges(class_count: int, bin_width: float) -> np.ndarray:
    lo = 1.0 / class_count
    edges = [lo]
    while edges[-1] + bin_width < 1.0 - 1e-12:
        edges.append(edges[-1] + bin_width)
    edges.append(1.0)
    return np.array(edges)


def confidence_histogram(
    bundle: PatchXBundle,
    dataset: Dataset,
    bin_width: float = 0.05,
    per_class: bool = False,
) -> HistogramReport:
    """Histogram of the max-softmax confidence of every patch in the dataset.

    The softmax maximum is never below 1/C, so the bins cover [1/C, 1].
    """
    if not (0 < bin_width < np.inf):
        raise ConfigError(f"bin width must be a finite number > 0, got {bin_width}")
    bins = (1.0 - 1.0 / bundle.class_count) / bin_width
    if bins > MAX_HISTOGRAM_BINS:
        raise ConfigError(f"bin width {bin_width} gives {bins:.3g} bins, more than {MAX_HISTOGRAM_BINS}")
    probs = bundle.patch_predictions(dataset)
    confidences = probs.max(axis=2)
    winners = probs.argmax(axis=2)
    edges = _confidence_bin_edges(bundle.class_count, bin_width)
    counts, _ = np.histogram(confidences, bins=edges)
    breakdown = None
    if per_class:
        breakdown = {}
        for c in range(bundle.class_count):
            breakdown[c], _ = np.histogram(confidences[winners == c], bins=edges)
    return HistogramReport(bin_edges=edges, counts=counts, per_class=breakdown)


@dataclass
class BoundaryProbeResult:
    sample_id: int
    position: tuple[int, int]  # (channel, time-step) scaled by each factor
    factors: np.ndarray  # (k,) strictly increasing
    ground_truth: np.ndarray  # (k,) the label rule on each perturbed sample
    predictions: np.ndarray  # (k,) the pipeline's label of each perturbed sample
    records: PatchRecords  # one row per factor

    def _first_change(self, values: np.ndarray) -> float | None:
        """First factor at which values depart from their initial value."""
        changed = np.flatnonzero(values != values[0])
        return float(self.factors[changed[0]]) if changed.size else None

    def ground_truth_flip_factor(self) -> float | None:
        """First factor at which the label rule departs from its initial value."""
        return self._first_change(self.ground_truth)

    def prediction_flip_factor(self) -> float | None:
        return self._first_change(self.predictions)

    def to_dict(self) -> dict:
        return {
            "report": "class-boundary-probe",
            "sample_id": self.sample_id,
            "channel": self.position[0],
            "time_step": self.position[1],
            "ground_truth_flip_factor": self.ground_truth_flip_factor(),
            "prediction_flip_factor": self.prediction_flip_factor(),
            "steps": [
                {"factor": factor, "ground_truth": truth, "sample_prediction": prediction,
                 "records": list(self.records.rows(i))}
                for i, (factor, truth, prediction) in enumerate(
                    zip(self.factors.tolist(), self.ground_truth.tolist(), self.predictions.tolist()))
            ],
        }


def boundary_probe(
    bundle: PatchXBundle,
    sample: TimeSeriesSample,
    position: tuple[int, int],
    factors: list[float],
    sigma_multiplier: float = DEFAULT_SIGMA_MULTIPLIER,
) -> BoundaryProbeResult:
    """Scale the value at `position` by each factor, recompute the label rule on
    the raw values, and run the full pipeline on the perturbed samples: one
    dataset of one row per factor, scored in one pass."""
    channel, step = position
    if not (0 <= channel < sample.channels) or not (0 <= step < sample.length):
        raise IndexError(f"position {position} outside sample of shape {sample.values.shape}")
    factors = np.asarray(factors, dtype=np.float64)
    if not (factors.size and np.isfinite(factors).all() and (np.diff(factors) > 0).all()):
        raise ValueError("factors must be a non-empty, strictly increasing list of finite numbers")
    perturbed = np.repeat(sample.values[None], len(factors), axis=0)
    perturbed[:, channel, step] *= factors
    dataset = Dataset([TimeSeriesSample(sample.id, values, sample.label) for values in perturbed],
                      bundle.class_count, split="probe")
    softmaxes = bundle.patch_predictions(dataset)
    return BoundaryProbeResult(
        sample_id=sample.id,
        position=position,
        factors=factors,
        ground_truth=anomaly_label(perturbed, sigma_multiplier),
        predictions=predict_all(bundle.shallow_model, bundle.presence(dataset, softmaxes)),
        records=_records(bundle, np.full(len(factors), sample.id), sample.length, softmaxes),
    )


@dataclass
class MislabelReport:
    """The misclassified samples, closest to the decision boundary first."""

    true_labels: np.ndarray  # (m,)
    predicted_labels: np.ndarray  # (m,)
    margins: np.ndarray  # (m,) top decision score minus runner-up; small = near the boundary
    records: PatchRecords  # one row per misclassified sample

    def __len__(self) -> int:
        return len(self.margins)

    def to_dict(self) -> dict:
        columns = zip(self.records.sample_ids.tolist(), self.true_labels.tolist(),
                      self.predicted_labels.tolist(), self.margins.tolist())
        entries = [
            {"sample_id": sample_id, "true_label": truth, "predicted_label": predicted, "margin": margin,
             "records": list(self.records.rows(i))}
            for i, (sample_id, truth, predicted, margin) in enumerate(columns)
        ]
        return {"report": "mislabels", "count": len(self), "entries": entries}


def mislabel_report(bundle: PatchXBundle, dataset: Dataset) -> MislabelReport:
    """Patch records for every misclassified sample, ordered by (margin, sample id).

    One network pass serves the sample labels and every sample's records, and
    one scoring of the shallow model serves the labels and the margins.
    """
    softmaxes = bundle.patch_predictions(dataset)
    matrix = bundle.presence(dataset, softmaxes)
    scores = bundle.shallow_model.decision_scores(matrix)
    preds = np.argmax(scores, axis=1)  # predict_all's labels: ties go to the lowest index
    ranked = np.sort(scores, axis=1)
    margins = ranked[:, -1] - ranked[:, -2]
    wrong = np.flatnonzero(preds != matrix.labels)
    wrong = wrong[np.lexsort((matrix.sample_ids[wrong], margins[wrong]))]
    return MislabelReport(matrix.labels[wrong], preds[wrong], margins[wrong],
                          _records(bundle, matrix.sample_ids[wrong], dataset.length, softmaxes[wrong]))
