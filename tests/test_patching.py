import numpy as np
import pytest

from patchx.data import Dataset, TimeSeriesSample
from patchx.neuralnet import NetworkSpec, build_network
from patchx.patching import (
    ConfigError,
    PatchConfig,
    build_patch_arrays,
    enumerate_patches,
    patch_spans,
    value_table,
)

from oracles import (
    build_patch_dataset, content_crop, expand_crops, full_frame_patch_arrays, patch_tensor, transform,
)


def brute_force_spans(sample_length, stride, length):
    """Directly scan the patch condition p * stride < sample_length."""
    spans = []
    for p in range(sample_length + 1):
        if p * stride < sample_length:
            spans.append((p, p * stride, min(p * stride + length, sample_length)))
    return spans


def make_sample(values, sample_id=0, label=1):
    return TimeSeriesSample(id=sample_id, values=np.asarray(values, dtype=float), label=label)


def make_dataset(n=10, channels=1, length=50, seed=0):
    rng = np.random.default_rng(seed)
    samples = [
        TimeSeriesSample(id=i, values=rng.normal(size=(channels, length)), label=i % 2)
        for i in range(n)
    ]
    return Dataset(samples=samples, class_count=2)


class TestEnumerate:
    def test_length50_stride5(self):
        spans = enumerate_patches(50, PatchConfig(5, 10))
        assert len(spans) == 10
        assert [p for p, _, _ in spans] == list(range(10))
        assert spans[-1] == (9, 45, 50)  # truncated final patch

    def test_whole_sample_patch(self):
        assert enumerate_patches(50, PatchConfig(50, 50)) == [(0, 0, 50)]

    def test_length50_stride10_length20(self):
        spans = enumerate_patches(50, PatchConfig(10, 20))
        assert spans == [(0, 0, 20), (1, 10, 30), (2, 20, 40), (3, 30, 50), (4, 40, 50)]

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            sample_length = int(rng.integers(2, 200))
            stride = int(rng.integers(1, sample_length + 1))
            length = int(rng.integers(1, sample_length + 1))
            config = PatchConfig(stride, length)
            assert enumerate_patches(sample_length, config) == brute_force_spans(
                sample_length, stride, length
            )


class TestConfigValidation:
    def test_zero_false_rejected(self):
        with pytest.raises(ConfigError, match="mandatory"):
            PatchConfig(5, 10, zero=False)

    def test_notemp_without_zero_rejected(self):
        with pytest.raises(ConfigError):
            PatchConfig(5, 10, zero=False, notemp=True)

    def test_patch_longer_than_sample(self):
        with pytest.raises(ConfigError, match="exceeds"):
            enumerate_patches(10, PatchConfig(5, 20))

    def test_nonpositive_params(self):
        with pytest.raises(ConfigError):
            PatchConfig(0, 10)
        with pytest.raises(ConfigError):
            PatchConfig(5, 0)

    @pytest.mark.parametrize("fields, cause", [
        ({"stride": 2.5}, "stride"), ({"stride": True}, "stride"), ({"length": 4.0}, "patch length"),
        ({"length": False}, "patch length"), ({"notemp": "yes"}, "notemp must be a bool, got 'yes'"),
        ({"attach": 1}, "attach must be a bool, got 1"), ({"zero": 1.0}, "zero must be a bool, got 1.0"),
    ])
    def test_wrong_types_rejected(self, fields, cause):
        """A stride or length that is a float or a bool, or a flag that is
        not a bool, fails when the config is built."""
        with pytest.raises(ConfigError, match=cause):
            PatchConfig(**{"stride": 5, "length": 10} | fields)


class TestTransform:
    def test_whole_sample_identity(self):
        sample = make_sample([[1.0, 2.0, 3.0, 4.0]])
        out = transform(sample, 0, PatchConfig(4, 4, attach=False))
        np.testing.assert_array_equal(out.values, sample.values)
        assert out.valid_range == (0, 4)
        assert out.label == sample.label

    def test_zero_attach(self):
        sample = make_sample([[1, 2, 3, 4, 5, 6]])
        out = transform(sample, 1, PatchConfig(2, 2, attach=True))
        np.testing.assert_array_equal(out.values[0], [0, 0, 3, 4, 0, 0])
        np.testing.assert_array_equal(out.values[1], [0, 0, 1, 1, 0, 0])
        assert out.valid_range == (2, 4)

    def test_notemp_shifts_to_front(self):
        sample = make_sample([[1, 2, 3, 4, 5, 6]])
        out = transform(sample, 1, PatchConfig(2, 2, attach=True, notemp=True))
        np.testing.assert_array_equal(out.values[0], [3, 4, 0, 0, 0, 0])
        np.testing.assert_array_equal(out.values[1], [1, 1, 0, 0, 0, 0])
        assert out.valid_range == (0, 2)

    def test_invalid_patch_index(self):
        sample = make_sample([[1, 2, 3, 4]])
        with pytest.raises(IndexError):
            transform(sample, 2, PatchConfig(4, 4))
        with pytest.raises(IndexError):
            transform(sample, -1, PatchConfig(2, 2))

    def test_truncated_final_patch_masks_true_extent(self):
        sample = make_sample([np.arange(1.0, 8.0)])  # length 7
        out = transform(sample, 2, PatchConfig(3, 3, attach=True))  # span [6, 7)
        np.testing.assert_array_equal(out.values[0], [0, 0, 0, 0, 0, 0, 7])
        np.testing.assert_array_equal(out.values[1], [0, 0, 0, 0, 0, 0, 1])


class TestBuildPatchDataset:
    def test_counts_single_config(self):
        ds = make_dataset(n=10)
        patches = build_patch_dataset(ds, [PatchConfig(5, 10)])
        assert len(patches) == 100

    def test_counts_two_configs(self):
        ds = make_dataset(n=10)
        patches = build_patch_dataset(ds, [PatchConfig(5, 10), PatchConfig(10, 20)])
        assert len(patches) == 150

    def test_empty_dataset(self):
        ds = Dataset(samples=[], class_count=2)
        assert build_patch_dataset(ds, [PatchConfig(5, 10)]) == []

    def test_mixed_attach_rejected(self):
        ds = make_dataset(n=2)
        with pytest.raises(ConfigError, match="attach"):
            build_patch_dataset(ds, [PatchConfig(5, 10, attach=True), PatchConfig(10, 20, attach=False)])

    def test_order_samples_configs_patches(self):
        ds = make_dataset(n=3)
        configs = [PatchConfig(10, 20), PatchConfig(25, 25)]
        patches = build_patch_dataset(ds, configs)
        key = [(p.sample_id, p.config_index, p.patch_index) for p in patches]
        assert key == sorted(key)

    def test_label_inheritance(self):
        ds = make_dataset(n=4)
        for patch in build_patch_dataset(ds, [PatchConfig(10, 20)]):
            assert patch.label == ds.samples[patch.sample_id].label


class TestInvariants:
    FLAG_SETS = [
        dict(attach=False, notemp=False),
        dict(attach=True, notemp=False),
        dict(attach=False, notemp=True),
        dict(attach=True, notemp=True),
    ]

    def test_length_preservation_all_flags(self):
        rng = np.random.default_rng(5)
        for flags in self.FLAG_SETS:
            sample = make_sample(rng.normal(size=(2, 37)))
            config = PatchConfig(4, 9, **flags)
            for p, _, _ in enumerate_patches(37, config):
                out = transform(sample, p, config)
                assert out.values.shape[1] == 37

    def test_reconstruction_from_coverage(self):
        # without notemp, coverage-weighted patch sums reproduce the sample
        rng = np.random.default_rng(8)
        sample = make_sample(rng.normal(size=(3, 41)))
        config = PatchConfig(6, 14, attach=True)
        spans = enumerate_patches(41, config)
        coverage = np.zeros(41)
        total = np.zeros((3, 41))
        for p, start, end in spans:
            coverage[start:end] += 1
            total += transform(sample, p, config).values[:3]
        covered = coverage > 0
        np.testing.assert_allclose(
            total[:, covered] / coverage[covered], sample.values[:, covered]
        )

    def test_mask_matches_nonzero_permission(self):
        rng = np.random.default_rng(13)
        sample = make_sample(rng.normal(size=(1, 29)))
        for flags in (dict(attach=True), dict(attach=True, notemp=True)):
            config = PatchConfig(3, 7, **flags)
            for p, _, _ in enumerate_patches(29, config):
                out = transform(sample, p, config)
                mask = out.values[-1]
                lo, hi = out.valid_range
                expected = np.zeros(29)
                expected[lo:hi] = 1.0
                np.testing.assert_array_equal(mask, expected)
                assert np.all(out.values[0][mask == 0] == 0.0)

    def test_vectorized_arrays_match_object_path(self):
        # build_patch_arrays is the runtime builder; transform is its reference.
        # Row i * P + k is slot k of sample row i, with P = len(patch_spans);
        # re-expanded at its offset, each crop is the transformed patch.
        ds = make_dataset(n=6, channels=2, length=23, seed=3)
        for flags in self.FLAG_SETS:
            configs = [PatchConfig(4, 9, **flags), PatchConfig(8, 16, **flags)]
            patches = build_patch_dataset(ds, configs)
            crops, labels, offsets = build_patch_arrays(ds.values_array(), ds.labels_array(), configs, (1, 2))
            values = expand_crops(crops[:], offsets, ds.length)
            assert len(patches) == len(values)
            spans = patch_spans(ds.length, configs)
            for i, patch in enumerate(patches):
                row, slot = divmod(i, len(spans))
                np.testing.assert_array_equal(values[i], patch.values)
                assert labels[i] == patch.label
                assert ds.samples[row].id == patch.sample_id
                assert spans[slot][:2] == (patch.config_index, patch.patch_index)


class TestLayoutCrop:
    """Each slot's crop comes from the layout: re-expanded, the crops are the
    full frames bit for bit, and they hold every step the content scan finds."""

    @pytest.mark.parametrize("attach, notemp", [(False, False), (True, False), (False, True), (True, True)],
                             ids=["plain", "attach", "notemp", "attach-notemp"])
    @pytest.mark.parametrize("kernel", [1, 2, 3, 5])
    @pytest.mark.parametrize("whole", [False, True], ids=["windows", "whole-frame-window"])
    def test_layout_crops_hold_the_content_crops(self, attach, notemp, kernel, whole):
        length = 23
        rng = np.random.default_rng(kernel)
        values = rng.normal(size=(4, 2, length))
        values[1] = 0.0  # an all-zero sample
        tokens = [(4, 6), (7, 9)] + ([(length, length)] if whole else [])  # last windows truncated
        configs = [PatchConfig(stride, size, attach=attach, notemp=notemp) for stride, size in tokens]
        blocks = ((3, kernel, "relu"), (3, kernel, "relu"))
        halo = build_network(NetworkSpec(2 + attach, length, 2, blocks)).halo
        crops, labels, offsets = build_patch_arrays(values, np.arange(4) % 2, configs, halo)
        frames, frame_labels = full_frame_patch_arrays(values, np.arange(4) % 2, configs)
        width = crops.shape[2]
        assert (width == length) == whole and offsets.min() >= 0 and offsets.max() <= length - width
        np.testing.assert_array_equal(expand_crops(crops[:], offsets, length), frames)
        np.testing.assert_array_equal(labels, frame_labels)
        if attach:
            found, found_width = content_crop(frames, halo)
            assert found_width == width
            np.testing.assert_array_equal(found, offsets)
        for row in np.flatnonzero(frames.any(axis=(1, 2))):
            found, found_width = content_crop(frames[row : row + 1], halo)
            assert offsets[row] <= found[0] and found[0] + found_width <= offsets[row] + width


FLAGS = [(False, False), (True, False), (False, True), (True, True)]
FLAG_IDS = ["plain", "attach", "notemp", "attach-notemp"]


def same_bits(a, b):
    """Equal shapes and equal float64 bit patterns, sign bits of zeros included."""
    return a.shape == b.shape and np.array_equal(np.ascontiguousarray(a).view(np.uint64),
                                                 np.ascontiguousarray(b).view(np.uint64))


class TestCrops:
    """The crops cut from the value table against the oracle's slot-loop
    tensor (patch_tensor), bit for bit."""

    LENGTH = 23

    def case(self, attach, notemp, n, whole=False, seed=0):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(n, 2, self.LENGTH))
        values[0, 0, ::3] = -0.0  # sign bits the cut must keep
        if n > 1:
            values[1] = 0.0
        tokens = [(4, 6), (7, 9)] + ([(self.LENGTH, self.LENGTH)] if whole else [])  # last windows truncated
        configs = [PatchConfig(stride, size, attach=attach, notemp=notemp) for stride, size in tokens]
        labels = np.arange(n) % 3
        return values, labels, configs

    @pytest.mark.parametrize("attach, notemp", FLAGS, ids=FLAG_IDS)
    @pytest.mark.parametrize("n", [1, 5])
    @pytest.mark.parametrize("whole", [False, True], ids=["windows", "whole-frame-window"])
    @pytest.mark.parametrize("halo", [(0, 0), (2, 1), (1, 2)])
    def test_cut_equals_the_tensor(self, attach, notemp, n, whole, halo):
        values, labels, configs = self.case(attach, notemp, n, whole, seed=n)
        crops, got_labels, got_offsets = build_patch_arrays(values, labels, configs, halo)
        tensor, want_labels, want_offsets = patch_tensor(values, labels, configs, halo)
        assert crops.shape == tensor.shape and len(crops) == len(tensor)
        np.testing.assert_array_equal(got_labels, want_labels)
        np.testing.assert_array_equal(got_offsets, want_offsets)
        assert same_bits(crops[:], tensor)
        rng = np.random.default_rng(n)
        P = len(patch_spans(self.LENGTH, configs))
        for rows in (rng.permutation(len(tensor)), np.arange(P - 2, min(P + 3, len(tensor))),
                     np.array([len(tensor) - 1, 0, len(tensor) - 1]), np.array([], dtype=np.int64)):
            assert same_bits(crops[rows], tensor[rows])  # index arrays across sample boundaries
        for rows in (slice(P - 1, P + 2), slice(1, None, 4), slice(None, None, -1), slice(5, 3)):
            assert same_bits(crops[rows], tensor[rows])

    @pytest.mark.parametrize("attach, notemp", FLAGS, ids=FLAG_IDS)
    def test_cut_into_a_buffer(self, attach, notemp):
        """With out, the cut fills it and returns its transposed view."""
        values, labels, configs = self.case(attach, notemp, 5)
        crops = build_patch_arrays(values, labels, configs, (2, 1))[0]
        tensor = patch_tensor(values, labels, configs, (2, 1))[0]
        rows = np.array([3, 17, 2, 29])
        out = np.full((crops.shape[2], len(rows), crops.shape[1]), np.nan)  # time-major
        got = crops.cut(rows, out=out)
        assert np.shares_memory(got, out) and same_bits(got, tensor[rows])

    @pytest.mark.parametrize("attach, notemp", FLAGS, ids=FLAG_IDS)
    def test_cut_with_a_zero_row(self, attach, notemp):
        """With zero_row, an all-zero crop (+0.0 bits, the table's zero row)
        follows the rows, with out or without it."""
        values, labels, configs = self.case(attach, notemp, 5)
        crops = build_patch_arrays(values, labels, configs, (2, 1))[0]
        tensor = patch_tensor(values, labels, configs, (2, 1))[0]
        rows = np.array([3, 17, 2, 29])
        out = np.full((crops.shape[2], len(rows) + 1, crops.shape[1]), np.nan)
        got = crops.cut(rows, out=out, zero_row=True)
        assert np.shares_memory(got, out) and same_bits(got[:-1], tensor[rows])
        assert same_bits(got[-1], np.zeros(crops.shape[1:]))
        assert same_bits(crops.cut(rows, zero_row=True), got)

    @pytest.mark.parametrize("length, config, halo, width", [
        (50, PatchConfig(50, 1), (2, 2), 5), (30, PatchConfig(30, 2), (6, 6), 13), (4, PatchConfig(4, 1), (2, 2), 4),
    ], ids=["one-step-window", "two-step-window", "short-frame"])
    def test_crops_are_at_least_the_empty_frame_width(self, length, config, halo, width):
        """Each crop is at least min(length, before + after + 1) wide, where
        the windows widened by the halo are narrower (3 of 5, 8 of 13 and 3
        of 4 steps): an all-zero crop that wide holds every value of the
        empty frame. The crops still hold their full frames."""
        values = np.random.default_rng(length).normal(size=(3, 2, length))
        labels = np.arange(3)
        crops, _, offsets = build_patch_arrays(values, labels, [config], halo)
        assert crops.shape[2] == width
        np.testing.assert_array_equal(expand_crops(crops[:], offsets, length),
                                      full_frame_patch_arrays(values, labels, [config])[0])
        assert same_bits(crops[:], patch_tensor(values, labels, [config], halo)[0])

    @pytest.mark.parametrize("attach", [False, True])
    def test_zero_samples_give_zero_crops(self, attach):
        configs = [PatchConfig(4, 6, attach=attach), PatchConfig(7, 9, attach=attach)]
        assert value_table(np.zeros((0, 2, self.LENGTH)), attach).rows.shape == (0, 2 + attach)
        crops, labels, offsets = build_patch_arrays(np.zeros((0, 2, self.LENGTH)), np.zeros(0, np.int64),
                                                    configs, (2, 1))
        assert len(crops) == len(labels) == len(offsets) == 0 and crops.shape[1] == 2 + attach
        assert crops[np.arange(0)].shape == (0, 2 + attach, crops.shape[2])

    def test_shared_value_table(self):
        """Crops of one value table, cut per config, equal crops built from
        the values; the table holds n * (L + 1) rows, one zero row a sample."""
        values, labels, configs = self.case(True, False, 5)
        table = value_table(values, attach=True)
        assert table.rows.shape == (5 * (self.LENGTH + 1), 3)
        assert not table.rows[:: self.LENGTH + 1].any()
        for config in configs:
            shared = build_patch_arrays(table, labels, [config], (2, 1))
            own = build_patch_arrays(values, labels, [config], (2, 1))
            assert shared[0].table is table and shared[0].nbytes == table.rows.nbytes
            assert same_bits(shared[0][:], own[0][:])
            for a, b in zip(shared[1:], own[1:]):
                np.testing.assert_array_equal(a, b)

    def test_one_read_only_layout_per_call_shape(self):
        """Calls with the same length, configs and halo share one slot table,
        which no caller can write; other values get their own."""
        values, labels, configs = self.case(True, False, 2)
        first, _, offsets = build_patch_arrays(values, labels, configs, (1, 1))
        again = build_patch_arrays(values[:1], labels[:1], list(configs), [1, 1])[0]
        assert again.slots is first.slots
        with pytest.raises(ValueError, match="read-only"):
            first.slots[0, 0] = 5
        offsets[0] = 7  # the offsets returned are the caller's own
        assert build_patch_arrays(values, labels, configs, (1, 1))[2][0] != 7
        assert build_patch_arrays(values, labels, configs, (2, 1))[0].slots is not first.slots

    def test_table_attach_must_match_the_configs(self):
        values, labels, configs = self.case(True, False, 2)
        with pytest.raises(ConfigError, match="attach"):
            build_patch_arrays(value_table(values, attach=False), labels, configs, (1, 1))

    def test_rows_past_the_end_raise(self):
        values, labels, configs = self.case(True, False, 2)
        crops = build_patch_arrays(values, labels, configs, (1, 1))[0]
        with pytest.raises(IndexError):
            crops[np.array([0, len(crops)])]

    @pytest.mark.parametrize("cut", [
        lambda crops: crops[np.isin(np.arange(len(crops)), [5, 17])],
        lambda crops: crops[5],
        lambda crops: crops[np.array([[5], [17]])],
        list,
    ], ids=["mask", "integer", "2-D", "iteration"])
    def test_any_other_index_is_a_type_error(self, cut):
        """A boolean mask once cut rows 0 and 1 (20 crops, where the tensor
        gives 2), and an integer or iteration met the read-only slot table."""
        values, labels, configs = self.case(True, False, 2)
        crops = build_patch_arrays(values, labels, configs, (1, 1))[0]
        assert len(crops) == 20
        with pytest.raises(TypeError, match="a slice or a 1-D integer array"):
            cut(crops)

    def test_holds_the_table_not_the_tensor(self):
        """nbytes is the value table's: (L + 1) * C' floats a sample, where the
        tensor takes P * C' * W."""
        values, labels, configs = self.case(True, False, 5)
        crops = build_patch_arrays(values, labels, configs, (2, 1))[0]
        assert crops.nbytes == 5 * (self.LENGTH + 1) * 3 * 8
        assert crops.nbytes < patch_tensor(values, labels, configs, (2, 1))[0].nbytes / 4
