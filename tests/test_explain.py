import json
from dataclasses import replace

import numpy as np
import pytest

from patchx.bundle import PatchXBundle
from patchx.cli import write_json
from patchx.data import Dataset, TimeSeriesSample, anomaly_label
from patchx.explain import (
    BoundaryProbeResult,
    PatchRecords,
    boundary_probe,
    confidence_histogram,
    explain_sample,
    mislabel_report,
    save_records,
)
from patchx.metadata import extract_all
from patchx.neuralnet import DimensionError, NetworkSpec, TrainSpec
from patchx.patching import PatchConfig, enumerate_patches
from patchx.pipeline import run_pipeline
from patchx.shallow import ForestSpec, ShallowSpec, TrivialSpec, fit, predict_all

from oracles import boundary_probe_loop


def one_sample_table(softmax_rows):
    """A one-sample record table whose records have the given softmax rows."""
    return PatchRecords(np.array([0]), np.zeros((len(softmax_rows), 4), dtype=np.int64),
                        np.array([softmax_rows], dtype=np.float64))


class TestCategorize:
    def test_tiers(self):
        records = one_sample_table([[0.95, 0.05], [0.1, 0.9], [0.55, 0.45], [0.25, 0.75]])
        assert records.category.tolist() == [["class-specific", "class-specific", "unrelated", "shared"]]

    def test_unrelated_band_tracks_class_count(self):
        records = one_sample_table([[0.3, 0.2, 0.2, 0.15, 0.15], [0.45, 0.2, 0.15, 0.1, 0.1]])
        assert records.category.tolist() == [["unrelated", "shared"]]


class TestExplainSample:
    def test_spans_match_patch_enumeration(self, small_bundle, anomaly_splits):
        sample = anomaly_splits[2].samples[0]
        records, _ = explain_sample(small_bundle, sample)
        expected = []
        for ci, config in enumerate(small_bundle.patch_configs):
            for p, start, end in enumerate_patches(sample.length, config):
                expected.append((ci, p, start, end))
        assert [tuple(span) for span in records.spans.tolist()] == expected
        assert records.sample_ids.tolist() == [sample.id] and len(records) == len(expected)

    def test_prediction_matches_shallow_on_extracted_vector(self, small_bundle, anomaly_splits):
        sample = anomaly_splits[2].samples[3]
        records, prediction = explain_sample(small_bundle, sample)
        matrix = extract_all(
            records.softmax,
            records.spans[:, 0],
            records.sample_ids,
            [sample.label],
            class_count=small_bundle.class_count,
            n_configs=len(small_bundle.patch_configs),
        )
        assert prediction == predict_all(small_bundle.shallow_model, matrix)[0]

    def test_matches_dataset_pipeline_prediction(self, small_bundle, anomaly_splits):
        test = anomaly_splits[2]
        preds, _ = small_bundle.predict_dataset(test)
        for sample, expected in list(zip(test.samples, preds))[:10]:
            _, prediction = explain_sample(small_bundle, sample)
            assert prediction == int(expected)

    def test_confidence_is_max_softmax(self, small_bundle, anomaly_splits):
        records, _ = explain_sample(small_bundle, anomaly_splits[2].samples[1])
        np.testing.assert_array_equal(records.confidence, records.softmax.max(axis=2))
        assert np.all((0.0 <= records.overlay_alpha) & (records.overlay_alpha <= 1.0))

    def test_rows_are_the_table_columns(self, small_bundle, anomaly_splits):
        records, _ = explain_sample(small_bundle, anomaly_splits[2].samples[2])
        rows = list(records.rows(0))
        assert len(rows) == len(records)
        for k, r in enumerate(rows):
            assert r["sample_id"] == anomaly_splits[2].samples[2].id
            assert [r["config_index"], r["patch_index"], r["start"], r["end"]] == records.spans[k].tolist()
            assert (r["predicted_class"], r["confidence"], r["category"]) == (
                records.predicted_class[0, k], records.confidence[0, k], records.category[0, k])
            assert r["softmax"] == records.softmax[0, k].tolist()

    def test_records_export(self, small_bundle, anomaly_splits, tmp_path):
        records, _ = explain_sample(small_bundle, anomaly_splits[2].samples[0])
        path = tmp_path / "records.csv"
        save_records(records, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == len(records) + 1  # header
        assert lines[0].startswith("sample_id,config_index")


    def test_predict_sample_matches_explain(self, small_bundle, anomaly_splits):
        sample = anomaly_splits[2].samples[5]
        label, matrix = small_bundle.predict_sample(sample)
        _, prediction = explain_sample(small_bundle, sample)
        assert label == prediction
        assert matrix.sample_ids.tolist() == [sample.id]
        assert matrix.counts.sum(axis=2).tolist() == [[10, 5]]  # every patch wins one class of its config

    def test_adjacent_shared_id_gets_two_rows(self, small_bundle, anomaly_splits):
        # rows are addressed by position, so a repeated id never merges two samples
        a, b = anomaly_splits[2].samples[:2]
        twin = TimeSeriesSample(id=a.id, values=b.values, label=b.label)
        dataset = Dataset(samples=[a, twin], class_count=2, split="test")
        preds, matrix = small_bundle.predict_dataset(dataset)
        assert matrix.sample_ids.tolist() == [a.id, a.id]
        assert matrix.labels.tolist() == [a.label, b.label]
        assert not np.array_equal(matrix.blocks[0], matrix.blocks[1])
        for row, sample in enumerate((a, twin)):
            label, own = small_bundle.predict_sample(sample)
            assert preds[row] == label
            np.testing.assert_allclose(matrix.blocks[row], own.blocks[0], rtol=0, atol=1e-12)
            np.testing.assert_array_equal(matrix.counts[row], own.counts[0])


class TestInputChecks:
    def test_length_mismatch_is_a_dimension_error(self, small_bundle, anomaly_splits):
        test = anomaly_splits[2]
        short = Dataset(
            samples=[TimeSeriesSample(id=s.id, values=s.values[:, :40], label=s.label)
                     for s in test.samples[:60]],
            class_count=2, split="test",
        )
        with pytest.raises(DimensionError, match=r"\(3, 40\).*expects \(3, 50\)"):
            small_bundle.predict_dataset(short)
        with pytest.raises(DimensionError, match="expects"):
            explain_sample(small_bundle, short.samples[0])

    def test_channel_mismatch_is_a_dimension_error(self, small_bundle, anomaly_splits):
        sample = anomaly_splits[2].samples[0]
        extra = TimeSeriesSample(id=0, values=np.vstack([sample.values, sample.values[:1]]), label=0)
        with pytest.raises(DimensionError, match=r"\(4, 50\).*expects \(3, 50\)"):
            small_bundle.predict_sample(extra)

    def test_empty_dataset_rejected(self, small_bundle):
        with pytest.raises(ValueError, match="empty"):
            small_bundle.predict_dataset(Dataset(samples=[], class_count=2, split="test"))


class TestHistogram:
    def test_counts_sum_to_patch_total(self, small_bundle, anomaly_splits):
        test = anomaly_splits[2]
        report = confidence_histogram(small_bundle, test)
        assert report.total == len(test) * 15  # 10 + 5 patches per sample

    def test_lower_bound_is_chance(self, small_bundle, anomaly_splits):
        report = confidence_histogram(small_bundle, anomaly_splits[2])
        assert report.bin_edges[0] == pytest.approx(0.5)
        assert report.bin_edges[-1] == pytest.approx(1.0)

    def test_uniform_network_masses_lowest_bin(self, small_bundle, anomaly_splits):
        import copy

        uniform = copy.deepcopy(small_bundle)
        uniform.network.dense.w[...] = 0.0
        uniform.network.dense.b[...] = 0.0
        report = confidence_histogram(uniform, anomaly_splits[2])
        assert report.counts[0] == report.total  # every confidence is exactly 0.5

    def test_confident_network_masses_top_bin(self, small_bundle, anomaly_splits):
        import copy

        confident = copy.deepcopy(small_bundle)
        confident.network.dense.w[...] = 0.0
        confident.network.dense.b[...] = np.array([80.0, 0.0])
        report = confidence_histogram(confident, anomaly_splits[2])
        assert report.counts[-1] == report.total

    def test_per_class_breakdown_sums(self, small_bundle, anomaly_splits):
        report = confidence_histogram(small_bundle, anomaly_splits[2], per_class=True)
        stacked = sum(report.per_class.values())
        np.testing.assert_array_equal(stacked, report.counts)

    def test_report_serializes(self, small_bundle, anomaly_splits, tmp_path):
        report = confidence_histogram(small_bundle, anomaly_splits[2], per_class=True)
        path = tmp_path / "hist.json"
        write_json(report.to_dict(), path)
        loaded = json.loads(path.read_text())
        assert loaded["total_patches"] == report.total


class TestBoundaryProbe:
    def probe_sample(self, anomaly_splits):
        test = anomaly_splits[2]
        return next(s for s in test.samples if s.meta is not None)

    def test_factor_one_identity(self, small_bundle, anomaly_splits):
        sample = self.probe_sample(anomaly_splits)
        pos = (sample.meta["peak_channel"], sample.meta["peak_step"])
        result = boundary_probe(small_bundle, sample, pos, [1.0])
        records, prediction = explain_sample(small_bundle, sample)
        assert result.predictions.tolist() == [prediction]
        assert result.ground_truth.tolist() == [anomaly_label(sample.values)]
        np.testing.assert_array_equal(result.records.softmax, records.softmax)

    def test_flip_factor_matches_label_rule(self, small_bundle, anomaly_splits):
        sample = self.probe_sample(anomaly_splits)
        pos = (sample.meta["peak_channel"], sample.meta["peak_step"])
        factors = list(np.linspace(0.2, 2.0, 10))
        result = boundary_probe(small_bundle, sample, pos, factors)
        flips = []
        for f in factors:
            v = sample.values.copy()
            v[pos] *= f
            mean = v.mean(axis=1, keepdims=True)
            std = v.std(axis=1, keepdims=True)
            flips.append(int(np.any(v > mean + 4.0 * std)))
        expected = next((factors[i] for i in range(len(flips)) if flips[i] != flips[0]), None)
        assert result.ground_truth_flip_factor() == expected

    def test_one_pass_equals_the_per_factor_oracle(self, small_bundle, anomaly_splits, monkeypatch):
        """Every factor is scored in one patch_predictions call, and the steps
        are those of one explain_sample per factor."""
        sample = self.probe_sample(anomaly_splits)
        pos = (sample.meta["peak_channel"], sample.meta["peak_step"])
        factors = list(np.linspace(0.2, 2.0, 10))
        rows = []
        patch_predictions = PatchXBundle.patch_predictions
        monkeypatch.setattr(PatchXBundle, "patch_predictions",
                            lambda bundle, ds: rows.append(len(ds)) or patch_predictions(bundle, ds))
        result = boundary_probe(small_bundle, sample, pos, factors)
        assert rows == [len(factors)]
        monkeypatch.undo()
        oracle = boundary_probe_loop(small_bundle, sample, pos, factors)
        fields = lambda probe: (probe.factors.tolist(), probe.ground_truth.tolist(), probe.predictions.tolist(),
                                probe.records.sample_ids.tolist(), probe.records.spans.tolist(),
                                probe.records.predicted_class.tolist(), probe.records.category.tolist())
        assert fields(result) == fields(oracle)
        np.testing.assert_allclose(result.records.softmax, oracle.records.softmax, rtol=0, atol=1e-12)

    def test_factors_must_increase(self, small_bundle, anomaly_splits):
        sample = self.probe_sample(anomaly_splits)
        with pytest.raises(ValueError, match="increasing"):
            boundary_probe(small_bundle, sample, (0, 5), [1.0, 0.5])

    @pytest.mark.parametrize("factors", [[np.nan, 1.0], [-np.inf, 1.0], [1.0, np.inf]],
                             ids=["nan", "-inf", "inf"])
    def test_factors_must_be_finite(self, small_bundle, anomaly_splits, factors):
        sample = self.probe_sample(anomaly_splits)
        with pytest.raises(ValueError, match="finite"):
            boundary_probe(small_bundle, sample, (0, 5), factors)

    def test_position_out_of_range(self, small_bundle, anomaly_splits):
        sample = self.probe_sample(anomaly_splits)
        with pytest.raises(IndexError):
            boundary_probe(small_bundle, sample, (0, 500), [1.0])
        with pytest.raises(IndexError):
            boundary_probe(small_bundle, sample, (9, 5), [1.0])

    def test_flip_factors_are_each_fields_first_change(self):
        def probe(steps):
            factors, truth, pred = (np.array(column) for column in zip(*steps))
            records = PatchRecords(np.zeros(len(steps), dtype=np.int64), np.zeros((0, 4), dtype=np.int64),
                                   np.zeros((len(steps), 0, 2)))
            return BoundaryProbeResult(0, (0, 0), factors, truth, pred, records)

        steps = [(0.5, 0, 1), (1.0, 0, 0), (1.5, 1, 1), (2.0, 0, 1)]
        result = probe(steps)
        assert (result.ground_truth_flip_factor(), result.prediction_flip_factor()) == (1.5, 1.0)
        still = probe(steps[:2])
        assert (still.ground_truth_flip_factor(), still.prediction_flip_factor()) == (None, 1.0)

    def test_report_round_trips_json(self, small_bundle, anomaly_splits, tmp_path):
        sample = self.probe_sample(anomaly_splits)
        pos = (sample.meta["peak_channel"], sample.meta["peak_step"])
        result = boundary_probe(small_bundle, sample, pos, [0.5, 1.0])
        path = tmp_path / "probe.json"
        write_json(result.to_dict(), path)
        loaded = json.loads(path.read_text())
        assert loaded["sample_id"] == sample.id
        assert len(loaded["steps"]) == 2


class TestMislabelReport:
    def test_count_consistent_with_accuracy(self, small_pipeline, anomaly_splits):
        test = anomaly_splits[2]
        report = mislabel_report(small_pipeline.bundle, test)
        accuracy = small_pipeline.metrics["test_accuracy"]
        assert len(report) == round(len(test) * (1.0 - accuracy))

    def test_entries_match_explain_sample(self, small_pipeline, anomaly_splits):
        test = anomaly_splits[2]
        report = mislabel_report(small_pipeline.bundle, test)
        assert len(report)
        for i, sample_id in enumerate(report.records.sample_ids.tolist()):
            sample = next(s for s in test.samples if s.id == sample_id)
            records, prediction = explain_sample(small_pipeline.bundle, sample)
            assert report.predicted_labels[i] == prediction != report.true_labels[i]
            assert records.sample_ids.tolist() == [sample_id]
            assert report.records.spans.tolist() == records.spans.tolist()
            assert report.records.predicted_class[i].tolist() == records.predicted_class[0].tolist()
            np.testing.assert_allclose(report.records.softmax[i], records.softmax[0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shallow", [ShallowSpec(kind="svm"), ShallowSpec(kind="forest", forest=ForestSpec(10)),
                                         ShallowSpec(kind="trivial", trivial=TrivialSpec("occurrence"))],
                             ids=["svm", "forest", "trivial"])
    def test_scores_the_shallow_model_once(self, small_bundle, anomaly_splits, monkeypatch, shallow):
        """One decision_scores call gives the labels and the margins that
        predict_all and decision_scores give when run separately."""
        train, _, test = anomaly_splits
        bundle = replace(small_bundle, shallow_model=fit(shallow, small_bundle.vectors(train)))
        model, calls = bundle.shallow_model, []
        score = type(model).decision_scores
        monkeypatch.setattr(type(model), "decision_scores", lambda self, m: calls.append(m) or score(self, m))
        report = mislabel_report(bundle, test)
        assert len(calls) == 1
        monkeypatch.undo()
        matrix = bundle.vectors(test)
        preds = predict_all(model, matrix)
        ranked = np.sort(model.decision_scores(matrix), axis=1)
        margins = ranked[:, -1] - ranked[:, -2]
        wrong = np.flatnonzero(preds != matrix.labels)
        wrong = wrong[np.lexsort((matrix.sample_ids[wrong], margins[wrong]))]
        assert len(report) == len(wrong) > 0
        np.testing.assert_array_equal(report.predicted_labels, preds[wrong])
        np.testing.assert_array_equal(report.true_labels, matrix.labels[wrong])
        np.testing.assert_array_equal(report.margins, margins[wrong])
        np.testing.assert_array_equal(report.records.sample_ids, matrix.sample_ids[wrong])

    def test_sorted_by_margin(self, small_pipeline, anomaly_splits):
        report = mislabel_report(small_pipeline.bundle, anomaly_splits[2])
        keys = list(zip(report.margins.tolist(), report.records.sample_ids.tolist()))
        assert keys == sorted(keys)

    def test_perfect_pipeline_empty_report(self):
        # trivially separable task: constant-level classes
        rng = np.random.default_rng(5)
        def make(n, split):
            samples = []
            for i in range(n):
                label = i % 2
                level = 3.0 if label else -3.0
                samples.append(TimeSeriesSample(
                    id=i, values=level + rng.normal(0, 0.05, (1, 20)), label=label))
            return Dataset(samples=samples, class_count=2, split=split)
        train, val, test = make(40, "train"), make(20, "val"), make(20, "test")
        result = run_pipeline(
            train, val, test, [PatchConfig(10, 10)],
            net_spec=NetworkSpec(2, 20, 2, conv_blocks=((4, 3, "relu"),), seed=1),
            train_spec=TrainSpec(epochs=10, batch_size=16, learning_rate=5e-3,
                                 early_stopping_patience=9, seed=1),
        )
        assert result.metrics["test_accuracy"] == 1.0
        assert len(mislabel_report(result.bundle, test)) == 0
