import random

import numpy as np
import pytest

from patchx.data import (
    AnomalyGenSpec,
    Dataset,
    NormStats,
    ParseError,
    SplitError,
    TimeSeriesSample,
    anomaly_label,
    decode_dataset,
    generate_anomaly,
    load_dataset,
    normalization_stats,
    save_dataset,
    znormalize,
)


def write_lines(tmp_path, lines, name="data.csv"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


class TestLoadDataset:
    def test_minimal_well_formed(self, tmp_path):
        path = write_lines(tmp_path, [
            "1,4,2",
            "0.5,1.0,1.5,2.0,0",
            "2.0,2.5,3.0,3.5,1",
            "0.1,0.2,0.3,0.4,0",
        ])
        ds = load_dataset(path)
        assert len(ds) == 3
        assert ds.class_count == 2
        assert ds.channels == 1 and ds.length == 4
        assert ds.labels_array().tolist() == [0, 1, 0]
        assert ds.ids() == [0, 1, 2]  # row order becomes the id

    def test_non_numeric_value_names_row(self, tmp_path):
        path = write_lines(tmp_path, [
            "1,3,2",
            "1.0,2.0,3.0,0",
            "1.0,abc,3.0,1",
        ])
        with pytest.raises(ParseError, match="row 2.*abc"):
            load_dataset(path)

    def test_inconsistent_row_length(self, tmp_path):
        path = write_lines(tmp_path, [
            "1,50,2",
            ",".join(["0.0"] * 50) + ",0",
            ",".join(["0.0"] * 49) + ",1",
        ])
        with pytest.raises(ParseError, match="row 2.*inconsistent length"):
            load_dataset(path)

    def test_label_out_of_range(self, tmp_path):
        path = write_lines(tmp_path, ["1,2,2", "1.0,2.0,5"])
        with pytest.raises(ParseError, match="row 1.*label 5"):
            load_dataset(path)

    def test_nan_rejected(self, tmp_path):
        path = write_lines(tmp_path, ["1,2,2", "nan,2.0,0"])
        with pytest.raises(ParseError, match="row 1"):
            load_dataset(path)

    def test_header_only_rejected(self, tmp_path):
        path = write_lines(tmp_path, ["3,50,2"])
        with pytest.raises(ParseError, match="header but no samples"):
            load_dataset(path)

    def test_non_utf8_byte_raises_parse_error(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"1,2,2\n1.0,2\xff0,0\n")
        with pytest.raises(ParseError, match="not UTF-8"):
            load_dataset(path)

    def test_header_class_count_below_two_raises_parse_error(self, tmp_path):
        path = write_lines(tmp_path, ["3,2,1", "1.0,2.0,3.0,4.0,5.0,6.0,0"])
        with pytest.raises(ParseError, match="class_count >= 2"):
            load_dataset(path)

    def test_byte_mutations_load_or_raise_parse_error(self, tmp_path):
        """Seeded single-byte mutations of a small saved dataset."""
        rng = np.random.default_rng(0)
        samples = [TimeSeriesSample(i, rng.normal(size=(2, 4)), i % 2) for i in range(6)]
        path = tmp_path / "data.csv"
        save_dataset(Dataset(samples, class_count=2), path)
        raw = path.read_bytes()
        mutations = random.Random(5)
        for _ in range(400):
            mutant = bytearray(raw)
            position = mutations.randrange(len(raw))
            mutant[position] = mutations.randrange(256)
            try:
                decode_dataset(bytes(mutant), path).validate()  # what the row scan lets through is a valid dataset
            except ParseError:
                pass
            except Exception as err:
                pytest.fail(f"byte {position} set to {mutant[position]}: {type(err).__name__}: {err}")

    def test_decoder_keeps_universal_newlines_and_names_its_origin(self):
        raw = b"1,2,2\r1.0,2.0,0\r\n3.0,4.0,1\n"
        assert decode_dataset(raw, "memory").labels_array().tolist() == [0, 1]
        with pytest.raises(ParseError, match="memory is not UTF-8"):
            decode_dataset(b"1,2,2\n\xff", "memory")

    def test_rows_are_scanned_once(self, tmp_path, monkeypatch):
        """The row scan makes the checks; no validate walk follows it."""
        path = write_lines(tmp_path, ["1,2,2", "1.0,2.0,0", "3.0,4.0,1"])

        def walk(dataset):
            raise AssertionError("load_dataset walked its rows a second time")

        monkeypatch.setattr(Dataset, "validate", walk)
        assert len(load_dataset(path)) == 2

    def test_class_count_comes_from_header_not_labels(self, tmp_path):
        # a split may lack some classes entirely; C stays fixed by the header
        path = write_lines(tmp_path, ["1,2,3", "1.0,2.0,0", "3.0,4.0,0"])
        ds = load_dataset(path)
        assert ds.class_count == 3
        assert set(ds.labels_array()) == {0}

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        samples = [
            TimeSeriesSample(id=i, values=rng.normal(size=(2, 5)), label=i % 3)
            for i in range(4)
        ]
        ds = Dataset(samples=samples, class_count=3)
        path = tmp_path / "rt.csv"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert loaded.class_count == 3
        for a, b in zip(ds.samples, loaded.samples):
            np.testing.assert_array_equal(a.values, b.values)
            assert a.label == b.label

    def test_saving_an_empty_dataset_raises_split_error(self, tmp_path):
        """As check_splits does, naming the split, and before any file is written."""
        path = tmp_path / "empty.csv"
        with pytest.raises(SplitError, match="split 'val' is empty"):
            save_dataset(Dataset([], class_count=2, split="val"), path)
        assert not path.exists()


class TestGenerateAnomaly:
    def test_deterministic_for_seed(self):
        spec = AnomalyGenSpec(train_count=30, val_count=10, test_count=10, seed=7)
        a = generate_anomaly(spec)
        b = generate_anomaly(spec)
        for ds_a, ds_b in zip(a, b):
            np.testing.assert_array_equal(ds_a.values_array(), ds_b.values_array())
            assert ds_a.labels_array().tolist() == ds_b.labels_array().tolist()

    def test_huge_peaks_always_flip_label(self):
        # independent recomputation of the mean + k*std rule over the raw values
        spec = AnomalyGenSpec(
            train_count=200, val_count=10, test_count=10,
            peak_amplitude_range=(100.0, 120.0), seed=5,
        )
        train, _, _ = generate_anomaly(spec)
        peaked = [s for s in train.samples if s.meta is not None]
        assert peaked
        for s in peaked:
            mean = s.values.mean(axis=1, keepdims=True)
            std = s.values.std(axis=1, keepdims=True)
            assert bool(np.any(s.values > mean + spec.sigma_multiplier * std))
            assert s.label == 1

    def test_label_rule_oracle_reproduces_every_label(self):
        spec = AnomalyGenSpec(train_count=150, val_count=50, test_count=50, seed=11)
        for ds in generate_anomaly(spec):
            for s in ds.samples:
                mean = s.values.mean(axis=1, keepdims=True)
                std = s.values.std(axis=1, keepdims=True)
                expected = int(np.any(s.values > mean + 4.0 * std))
                assert s.label == expected

    def test_table_sizes_and_shape(self):
        spec = AnomalyGenSpec(train_count=3500, val_count=1500, test_count=1000, seed=2)
        train, val, test = generate_anomaly(spec)
        assert (len(train), len(val), len(test)) == (3500, 1500, 1000)
        for ds in (train, val, test):
            assert ds.channels == 3 and ds.length == 50 and ds.class_count == 2

    def test_default_balance_within_five_points(self):
        spec = AnomalyGenSpec(train_count=2000, val_count=500, test_count=500, seed=17)
        train, _, _ = generate_anomaly(spec)
        frac = train.labels_array().mean()
        assert 0.45 <= frac <= 0.55

    def test_degenerate_spec_rejected(self):
        with pytest.raises(ValueError, match="noise_sigma"):
            generate_anomaly(AnomalyGenSpec(noise_sigma=0.0))
        with pytest.raises(ValueError, match="counts"):
            generate_anomaly(AnomalyGenSpec(train_count=0))

    @pytest.mark.parametrize("name", ["noise_sigma", "sigma_multiplier"])
    def test_nan_spec_rejected(self, name):
        with pytest.raises(ValueError, match=f"{name} must be > 0"):
            AnomalyGenSpec(**{name: float("nan")})


class TestZnormalize:
    def make(self, values):
        samples = [
            TimeSeriesSample(id=i, values=np.asarray(v, dtype=float), label=0)
            for i, v in enumerate(values)
        ]
        return Dataset(samples=samples, class_count=2)

    def test_constant_channel_becomes_zero(self):
        ds = self.make([[[5.0, 5.0, 5.0]], [[5.0, 5.0, 5.0]]])
        out = znormalize(ds.values_array(), normalization_stats(ds))
        assert np.allclose(out, 0.0)

    def test_unit_variance_channel_unchanged(self):
        ds = self.make([[[-1.0, 1.0]], [[1.0, -1.0]]])
        out = znormalize(ds.values_array(), normalization_stats(ds))
        np.testing.assert_allclose(out, ds.values_array())

    def test_test_split_keeps_train_statistics(self):
        train = self.make([[[0.0, 2.0]], [[2.0, 0.0]]])  # mean 1, std 1
        skewed = self.make([[[10.0, 10.0]], [[10.0, 10.0]]])
        stats = normalization_stats(train)
        out = znormalize(skewed.values_array(), stats)
        assert abs(out.mean()) > 1.0  # not re-centered to zero

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        ds = self.make([rng.normal(2.0, 3.0, size=(2, 20)) for _ in range(10)])
        a = znormalize(ds.values_array(), normalization_stats(ds))
        b = znormalize(a, normalization_stats(self.make(a)))
        assert np.max(np.abs(a - b) / np.maximum(np.abs(a), 1e-3)) < 1e-6


    @pytest.mark.parametrize("mean, std", [
        (np.zeros(3), np.ones(2)),
        (np.zeros((1, 3)), np.ones((1, 3))),
        (np.zeros(3), np.array([1.0, 0.0, 1.0])),
        (np.zeros(3), np.array([1.0, np.nan, 1.0])),
    ], ids=["shape-mismatch", "not-1d", "zero-std", "nan-std"])
    def test_norm_stats_check_their_state(self, mean, std):
        with pytest.raises(ValueError, match="finite positive std"):
            NormStats(mean=mean, std=std)


class TestDatasetValidation:
    def test_duplicate_ids(self):
        samples = [
            TimeSeriesSample(id=0, values=np.zeros((1, 3)), label=0),
            TimeSeriesSample(id=0, values=np.zeros((1, 3)), label=1),
        ]
        with pytest.raises(ValueError, match="duplicate"):
            Dataset(samples=samples, class_count=2).validate()

    def test_shape_mismatch(self):
        samples = [
            TimeSeriesSample(id=0, values=np.zeros((1, 3)), label=0),
            TimeSeriesSample(id=1, values=np.zeros((1, 4)), label=1),
        ]
        with pytest.raises(ValueError, match="shape"):
            Dataset(samples=samples, class_count=2).validate()


def test_anomaly_label_constant_channel_is_normal():
    assert anomaly_label(np.full((2, 10), 3.0)) == 0
