"""Explanation artifacts: per-patch records, overlays, confidence histograms,
class-boundary probes, and mislabel inspection reports.

All artifacts are plain records/report objects that serialize to delimited
text or JSON; rendering is left to external tooling.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

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


def categorize_confidence(confidence: float, class_count: int) -> str:
    if confidence >= SPECIFIC_THRESHOLD:
        return CATEGORY_SPECIFIC
    if confidence <= 1.0 / class_count + UNRELATED_MARGIN:
        return CATEGORY_UNRELATED
    return CATEGORY_SHARED


@dataclass
class ExplanationRecord:
    sample_id: int
    config_index: int
    patch_index: int
    span: tuple[int, int]  # [start, end) in source time-steps
    predicted_class: int
    confidence: float  # max softmax value
    softmax: np.ndarray
    category: str

    def overlay_alpha(self) -> float:
        """Confidence rescaled to [0, 1] for use as an overlay opacity."""
        class_count = len(self.softmax)
        return (self.confidence - 1.0 / class_count) / (1.0 - 1.0 / class_count)

    def to_dict(self) -> dict:
        return {
            "sample_id": self.sample_id,
            "config_index": self.config_index,
            "patch_index": self.patch_index,
            "start": self.span[0],
            "end": self.span[1],
            "predicted_class": self.predicted_class,
            "confidence": self.confidence,
            "category": self.category,
            "softmax": [float(v) for v in self.softmax],
        }


def explain_sample(
    bundle: PatchXBundle, sample: TimeSeriesSample
) -> tuple[list[ExplanationRecord], int]:
    """One record per (config, patch) plus the sample-level prediction.

    The records carry everything the overlay figures need: source spans,
    per-patch classes, and a confidence gradient.
    """
    probs, prediction, _ = bundle.sample_patch_predictions(sample)
    return _patch_records(bundle, sample.id, sample.length, probs), prediction


def _patch_records(
    bundle: PatchXBundle, sample_id: int, length: int, probs: np.ndarray
) -> list[ExplanationRecord]:
    """The records of one sample from its softmax rows, in patch_spans order."""
    records = []
    for (ci, p, start, end), row in zip(patch_spans(length, bundle.patch_configs), probs):
        winner = int(np.argmax(row))
        confidence = float(row[winner])
        records.append(
            ExplanationRecord(
                sample_id=sample_id,
                config_index=ci,
                patch_index=p,
                span=(start, end),
                predicted_class=winner,
                confidence=confidence,
                softmax=row,
                category=categorize_confidence(confidence, bundle.class_count),
            )
        )
    return records


def save_records(records: list[ExplanationRecord], path: str | Path) -> None:
    """One record per line: sample_id,config_index,patch_index,start,end,
    predicted_class,confidence,category,softmax values."""
    with Path(path).open("w", encoding="utf-8") as f:
        f.write("sample_id,config_index,patch_index,start,end,predicted_class,confidence,category,softmax...\n")
        for r in records:
            fields = [
                str(r.sample_id), str(r.config_index), str(r.patch_index),
                str(r.span[0]), str(r.span[1]), str(r.predicted_class),
                repr(r.confidence), r.category,
            ]
            fields.extend(repr(float(v)) for v in r.softmax)
            f.write(",".join(fields))
            f.write("\n")


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
class BoundaryProbeStep:
    factor: float
    ground_truth: int
    sample_prediction: int
    records: list[ExplanationRecord]


@dataclass
class BoundaryProbeResult:
    sample_id: int
    position: tuple[int, int]  # (channel, time-step) scaled by each factor
    steps: list[BoundaryProbeStep]

    def _first_change(self, field: str) -> float | None:
        """First factor at which the step's field departs from its initial value."""
        first = getattr(self.steps[0], field)
        return next((s.factor for s in self.steps if getattr(s, field) != first), None)

    def ground_truth_flip_factor(self) -> float | None:
        """First factor at which the label rule departs from its initial value."""
        return self._first_change("ground_truth")

    def prediction_flip_factor(self) -> float | None:
        return self._first_change("sample_prediction")

    def to_dict(self) -> dict:
        return {
            "report": "class-boundary-probe",
            "sample_id": self.sample_id,
            "channel": self.position[0],
            "time_step": self.position[1],
            "ground_truth_flip_factor": self.ground_truth_flip_factor(),
            "prediction_flip_factor": self.prediction_flip_factor(),
            "steps": [
                {
                    "factor": s.factor,
                    "ground_truth": s.ground_truth,
                    "sample_prediction": s.sample_prediction,
                    "records": [r.to_dict() for r in s.records],
                }
                for s in self.steps
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
    if not factors or any(b <= a for a, b in zip(factors, factors[1:])):
        raise ValueError("factors must be a non-empty, strictly increasing list")
    perturbed = np.repeat(sample.values[None], len(factors), axis=0)
    perturbed[:, channel, step] *= factors
    dataset = Dataset([TimeSeriesSample(sample.id, values, sample.label) for values in perturbed],
                      bundle.class_count, split="probe")
    softmaxes = bundle.patch_predictions(dataset)
    predictions = predict_all(bundle.shallow_model, bundle.presence(dataset, softmaxes))
    steps = [
        BoundaryProbeStep(
            factor=float(factor),
            ground_truth=anomaly_label(values, sigma_multiplier),
            sample_prediction=int(prediction),
            records=_patch_records(bundle, sample.id, sample.length, probs),
        )
        for factor, values, prediction, probs in zip(factors, perturbed, predictions, softmaxes)
    ]
    return BoundaryProbeResult(sample_id=sample.id, position=position, steps=steps)


@dataclass
class MislabelEntry:
    sample_id: int
    true_label: int
    predicted_label: int
    margin: float  # top decision score minus runner-up; small = near the boundary
    records: list[ExplanationRecord]

    def to_dict(self) -> dict:
        return {
            "sample_id": self.sample_id,
            "true_label": self.true_label,
            "predicted_label": self.predicted_label,
            "margin": self.margin,
            "records": [r.to_dict() for r in self.records],
        }


def mislabel_report(bundle: PatchXBundle, dataset: Dataset) -> list[MislabelEntry]:
    """Patch records for every misclassified sample, closest-to-boundary first.

    One network pass serves the sample labels and every sample's records.
    """
    softmaxes = bundle.patch_predictions(dataset)
    matrix = bundle.presence(dataset, softmaxes)
    preds = predict_all(bundle.shallow_model, matrix)
    scores = np.sort(bundle.shallow_model.decision_scores(matrix), axis=1)
    margins = scores[:, -1] - scores[:, -2]
    entries = []
    for i in np.flatnonzero(preds != matrix.labels):
        sample_id = int(matrix.sample_ids[i])
        entries.append(
            MislabelEntry(
                sample_id=sample_id,
                true_label=int(matrix.labels[i]),
                predicted_label=int(preds[i]),
                margin=float(margins[i]),
                records=_patch_records(bundle, sample_id, dataset.length, softmaxes[i]),
            )
        )
    entries.sort(key=lambda e: (e.margin, e.sample_id))
    return entries


def save_report(report_dict: dict, path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as f:
        json.dump(report_dict, f, sort_keys=True, indent=2)
        f.write("\n")
