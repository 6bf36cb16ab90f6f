import random
import warnings

import numpy as np
import pytest

from oracles import anomaly_label_one, generate_anomaly_loop, row_scan_decode
from patchx import data
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


def assert_decodes_as_row_scan(raw: bytes, origin="memory") -> None:
    """decode_dataset returns the row scan's ids, int labels and value bits,
    or raises its ParseError with the same message."""
    try:
        want = row_scan_decode(raw, origin)
    except ParseError as err:
        with pytest.raises(ParseError) as got:
            decode_dataset(raw, origin)
        assert (str(got.value), got.value.row) == (str(err), err.row)
        return
    got = decode_dataset(raw, origin)
    assert (got.class_count, got.split, got.ids()) == (want.class_count, want.split, want.ids())
    assert [(type(s.label), s.label) for s in got.samples] == [(type(s.label), s.label) for s in want.samples]
    assert got.values_array().shape == want.values_array().shape
    assert got.values_array().tobytes() == want.values_array().tobytes()


def fixed_point_file(values: np.ndarray, labels: np.ndarray) -> bytes:
    """The benchmark's layout: four decimals, "-" or a space before each value."""
    channels, length = values.shape[1:]
    rows = ["".join(f"{v: .4f}," for v in row.reshape(-1)) + str(label) for row, label in zip(values, labels)]
    return "\n".join([f"{channels},{length},2", *rows, ""]).encode()


# Inputs on which the numpy pass and the row scan could part ways.
CRAFTED = {
    "comment-line": b"1,2,2\n# note\n1.0,2.0,0\n",
    "hash-in-value": b"1,2,2\n1.0,#2.0,0\n",
    "whitespace-only-lines": b"1,2,2\n   \n1.0,2.0,0\n\t \n3.0,4.0,1\n",
    "lone-cr": b"1,2,2\r1.0,2.0,0\r3.0,4.0,1",
    "utf8-bom-header": b"\xef\xbb\xbf1,2,2\n1.0,2.0,0\n",
    "underscore-value": b"1,2,2\n1_0,2.0,0\n3.0,4.0,1\n",
    "arabic-indic-value": "1,2,2\n\u0661.5,2.0,0\n".encode(),
    "arabic-indic-label": "1,2,2\n1.5,2.0,\u0661\n".encode(),
    "plus-label": b"1,2,2\n1.0,2.0,+1\n",
    "minus-zero-label": b"1,2,2\n1.0,2.0,-0\n",
    "float-label": b"1,2,2\n1.0,2.0,0\n1.0,2.0,1.0\n",
    "nan-value": b"1,2,2\n1.0,2.0,0\nnan,2.0,1\n",
    "inf-value": b"1,2,2\n1.0,-inf,0\n",
    "overflowing-value": b"1,2,2\n1e999,2.0,0\n",
    "empty-field": b"1,2,2\n1.0,,0\n",
    "trailing-comma": b"1,2,2\n1.0,2.0,0,\n",
    "header-dims-overflow": b"99999999999999999999,99999999999999999999,2\n1.0,2.0,0\n",
    "one-row": b"1,2,2\n1.0,2.0,1\n",
    "spaced-fields": b"1,2,2\n 1.0 ,\t-2.5, 1 \n",
    "non-ascii-spaces": "1,2,2\n\u00a01.0\u00a0,2.0\u2003,0\n".encode(),
    "label-beyond-float-precision": b"1,2,9007199254740995\n1.0,2.0,9007199254740993\n",
    "label-out-of-range": b"1,2,2\n1.0,2.0,0\n1.0,2.0,2\n",
    "negative-label": b"1,2,2\n1.0,2.0,-1\n",
    "ragged-rows": b"1,2,2\n1.0,2.0,0\n1.0,0\n",
    "nul-byte": b"1,2,2\n1.0,2.0\x00,0\n",
}


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
        """Seeded single-byte mutations of a small saved dataset decode as the row scan does."""
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
                assert_decodes_as_row_scan(bytes(mutant), path)
            except Exception as err:
                pytest.fail(f"byte {position} set to {mutant[position]}: {type(err).__name__}: {err}")

    @pytest.mark.parametrize("raw", CRAFTED.values(), ids=CRAFTED.keys())
    def test_crafted_inputs_decode_as_the_row_scan_does(self, raw):
        assert_decodes_as_row_scan(raw)

    def test_well_formed_files_skip_the_row_scan(self, tmp_path, monkeypatch):
        """The benchmark's fixed-point layout and save_dataset's repr floats
        are read by the numpy pass alone, into one table."""
        rng = np.random.default_rng(4)
        values, labels = rng.normal(size=(30, 3, 7)) * 5, rng.integers(0, 2, size=30)
        fixed = fixed_point_file(values, labels)
        path = tmp_path / "saved.csv"
        save_dataset(Dataset([TimeSeriesSample(i, v, int(y)) for i, (v, y) in enumerate(zip(values, labels))],
                             class_count=2), path)
        saved = path.read_bytes()
        wants = [row_scan_decode(raw, "memory") for raw in (fixed, saved)]

        def scan(*args):
            raise AssertionError("a well-formed file went through the row scan")

        monkeypatch.setattr(data, "_scan_rows", scan)
        for raw, want in zip((fixed, saved), wants):
            got = decode_dataset(raw, "memory")
            assert got.labels_array().tolist() == want.labels_array().tolist() == labels.tolist()
            assert got.values_array().tobytes() == want.values_array().tobytes()
            assert all(s.values.base is got.samples[0].values.base for s in got.samples)
        with pytest.raises(AssertionError, match="row scan"):  # what the numpy pass cannot read goes there
            decode_dataset(b"1,2,2\n1_0,2.0,0\n", "memory")

    def test_decoder_keeps_universal_newlines_and_names_its_origin(self):
        raw = b"1,2,2\r1.0,2.0,0\r\n3.0,4.0,1\n"
        assert decode_dataset(raw, "memory").labels_array().tolist() == [0, 1]
        with pytest.raises(ParseError, match="memory is not UTF-8"):
            decode_dataset(b"1,2,2\n\xff", "memory")

    def test_rows_are_scanned_once(self, tmp_path, monkeypatch):
        """The numpy pass (or the row scan) makes the checks; no validate walk follows it."""
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

    @pytest.mark.parametrize("values, labels, match", [
        ([[[1.0, np.nan]], [[3.0, 4.0]]], [0, 1], "sample 0: values contain NaN"),
        ([[[1.0, 2.0]], [[3.0, 4.0]]], [0, 5], r"sample 1: label 5 outside \[0, 2\)"),
        ([[[1.0, 2.0]], [[3.0, 4.0, 5.0]]], [0, 1], r"sample 1: shape \(1, 3\) differs"),
    ], ids=["nan", "label-out-of-range", "two-shapes"])
    def test_saving_an_invalid_dataset_raises_before_writing(self, tmp_path, values, labels, match):
        """What the loader would reject is not written: validate names the sample."""
        samples = [TimeSeriesSample(i, np.asarray(v), y) for i, (v, y) in enumerate(zip(values, labels))]
        path = tmp_path / "bad.csv"
        with pytest.raises(ValueError, match=match):
            save_dataset(Dataset(samples, class_count=2), path)
        assert not path.exists()

    def test_saving_repeated_ids_round_trips_with_row_ids(self, tmp_path):
        """Ids are not written, so repeats are no reason to refuse a dataset."""
        samples = [TimeSeriesSample(7, np.full((1, 2), float(i)), i % 2) for i in range(3)]
        path = tmp_path / "repeats.csv"
        save_dataset(Dataset(samples, class_count=2), path)
        loaded = load_dataset(path)
        assert loaded.ids() == [0, 1, 2]
        assert loaded.values_array().tobytes() == Dataset(samples, class_count=2).values_array().tobytes()


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

    @pytest.mark.parametrize("seed", [0, 7, 11])
    @pytest.mark.parametrize("channels, length", [(1, 5), (1, 50), (3, 5), (3, 50)])
    @pytest.mark.parametrize("peaks", [(5.0, 10.0), (100.0, 120.0)])
    def test_equals_the_per_sample_generator(self, seed, channels, length, peaks):
        """Drawing each split into one array and labelling it in one call keeps
        the per-sample generator's values, labels, ids and meta bit for bit."""
        spec = AnomalyGenSpec(train_count=40, val_count=15, test_count=15, length=length, channels=channels,
                              peak_amplitude_range=peaks, seed=seed)
        for got, want in zip(generate_anomaly(spec), generate_anomaly_loop(spec)):
            assert (got.split, got.class_count, got.ids()) == (want.split, want.class_count, want.ids())
            assert got.values_array().tobytes() == want.values_array().tobytes()
            assert [(type(s.label), s.label) for s in got.samples] == [(int, s.label) for s in want.samples]
            assert [s.meta for s in got.samples] == [s.meta for s in want.samples]

    def test_samples_view_one_array_per_split(self):
        for ds in generate_anomaly(AnomalyGenSpec(train_count=20, val_count=5, test_count=5, seed=1)):
            stack = ds.samples[0].values.base
            assert stack.shape == (len(ds), ds.channels, ds.length)
            assert all(s.values.base is stack for s in ds.samples)

    @pytest.mark.parametrize("settings", [
        {"noise_sigma": 1e308},
        {"noise_sigma": 1e200},
        {"peak_amplitude_range": (1e307, 1.7e308)},
        {"peak_amplitude_range": (1.3e154, 1.3e154)},
    ], ids=["infinite-values", "overflowing-sample-std", "overflowing-peak-std", "overflowing-split-std"])
    def test_overflow_raises_one_value_error_without_warnings(self, settings):
        """Values drawn to an infinity, or finite values whose channel std
        overflows, in one sample or only over the split, stop the generator
        with one ValueError naming the split and the settings, and numpy
        warns of nothing."""
        spec = AnomalyGenSpec(train_count=40, val_count=10, test_count=10, seed=3, **settings)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as err:
                generate_anomaly(spec)
        message = str(err.value)
        assert message.startswith("split 'train': values contain NaN or Inf")
        assert f"noise_sigma={spec.noise_sigma}" in message
        assert f"peak_amplitude_range={spec.peak_amplitude_range}" in message


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
    def test_shape_mismatch(self):
        samples = [
            TimeSeriesSample(id=0, values=np.zeros((1, 3)), label=0),
            TimeSeriesSample(id=1, values=np.zeros((1, 4)), label=1),
        ]
        with pytest.raises(ValueError, match="shape"):
            Dataset(samples=samples, class_count=2).validate()


def test_anomaly_label_constant_channel_is_normal():
    assert anomaly_label(np.full((2, 10), 3.0)) == 0


@pytest.mark.parametrize("shape", [(3, 20), (7, 3, 20), (2, 5, 1, 24)])
def test_anomaly_label_of_a_stack_equals_the_per_sample_rule(shape):
    rng = np.random.default_rng(4)
    values = rng.normal(size=shape)
    flat = values.reshape(-1, *shape[-2:])
    flat[::2, 0, rng.integers(0, shape[-1])] = 50.0  # every other sample peaked
    flat[1::3, -1] = 1.5  # some constant channels
    labels = anomaly_label(values)
    assert labels.shape == shape[:-2] and labels.dtype == np.int64
    assert labels.reshape(-1).tolist() == [anomaly_label_one(row) for row in flat]
    assert labels.size == 1 or 0 < labels.sum() < labels.size  # a stack holds both labels
