import numpy as np
import pytest

from patchx.metadata import PresenceMatrix, extract_all, save_vectors
from patchx.patching import PatchConfig, patch_spans

from oracles import extract_loop


def softmaxes(*rows):
    return [np.array(r, dtype=float) for r in rows]


def extract(sample_id, predictions, class_count, n_configs, label=-1):
    """One sample whose slots hold these (config_index, softmax) pairs through
    extract_all; returns its presence blocks, counts and patch counts."""
    n = len(predictions)
    probs = np.array([p for _, p in predictions]) if n else np.zeros((0, class_count))
    matrix = extract_all(
        probs[None],
        np.array([ci for ci, _ in predictions], dtype=np.int64),
        [sample_id],
        [label],
        class_count,
        n_configs,
    )
    assert len(matrix) == 1
    assert matrix.sample_ids.tolist() == [sample_id] and matrix.labels.tolist() == [label]
    return matrix.blocks[0], matrix.counts[0]


class TestExtract:
    def test_single_patch(self):
        blocks, counts = extract(0, [(0, np.array([0.7, 0.3]))], class_count=2, n_configs=1)
        np.testing.assert_allclose(blocks, [[0.7, 0.0]])
        assert counts.tolist() == [[1, 0]]

    def test_three_patches(self):
        preds = [(0, p) for p in softmaxes([0.9, 0.1], [0.6, 0.4], [0.2, 0.8])]
        blocks, counts = extract(5, preds, class_count=2, n_configs=1)
        np.testing.assert_allclose(blocks, [[1.5, 0.8]])
        assert counts.tolist() == [[2, 1]]

    def test_tie_goes_to_lowest_class(self):
        blocks, _ = extract(0, [(0, np.array([0.5, 0.5]))], class_count=2, n_configs=1)
        np.testing.assert_allclose(blocks, [[0.5, 0.0]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            extract(3, [], class_count=2, n_configs=1)

    def test_wrong_softmax_length(self):
        with pytest.raises(ValueError, match="softmax shape"):
            extract(0, [(0, np.array([0.5, 0.3, 0.2]))], class_count=2, n_configs=1)

    def test_block_locality(self):
        preds = [(0, np.array([0.9, 0.1])), (1, np.array([0.2, 0.8]))]
        blocks, _ = extract(0, preds, class_count=2, n_configs=2)
        np.testing.assert_allclose(blocks, [[0.9, 0.0], [0.0, 0.8]])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        preds = []
        for _ in range(30):
            p = rng.dirichlet(np.ones(3))
            preds.append((int(rng.integers(0, 2)), p))
        a_blocks, a_counts = extract(0, preds, class_count=3, n_configs=2)
        order = rng.permutation(len(preds))
        b_blocks, b_counts = extract(0, [preds[i] for i in order], class_count=3, n_configs=2)
        np.testing.assert_allclose(a_blocks, b_blocks, atol=1e-12)
        np.testing.assert_array_equal(a_counts, b_counts)

    def test_mass_conservation(self):
        rng = np.random.default_rng(7)
        preds = [(int(rng.integers(0, 3)), rng.dirichlet(np.ones(4))) for _ in range(50)]
        blocks, _ = extract(0, preds, class_count=4, n_configs=3)
        total_max = sum(float(np.max(p)) for _, p in preds)
        assert blocks.sum() == pytest.approx(total_max, abs=1e-9)

    def test_entries_bounded_by_patch_count(self):
        rng = np.random.default_rng(9)
        preds = [(0, rng.dirichlet(np.ones(2))) for _ in range(20)]
        blocks, counts = extract(0, preds, class_count=2, n_configs=1)
        assert counts.sum() == 20  # every patch wins one class
        assert np.all(blocks <= 20)
        assert np.all(blocks >= 0)

    def test_matches_independent_resummation(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n_configs = int(rng.integers(1, 4))
            class_count = int(rng.integers(2, 5))
            preds = [
                (int(rng.integers(0, n_configs)), rng.dirichlet(np.ones(class_count)))
                for _ in range(int(rng.integers(1, 40)))
            ]
            blocks, _ = extract(0, preds, class_count=class_count, n_configs=n_configs)
            expected = np.zeros((n_configs, class_count))
            for k, p in preds:
                c = min(np.flatnonzero(p == p.max()))  # lowest-index tie break
                expected[k, c] += p[c]
            np.testing.assert_allclose(blocks, expected, atol=1e-9)


class TestExtractAll:
    def test_two_configs_two_classes_gives_four_features(self):
        probs = np.array([[[0.6, 0.4]] * 3] * 2)  # 2 samples, 3 slots
        matrix = extract_all(probs, [0, 0, 1], [0, 1], [0, 1], 2, 2)
        assert len(matrix) == 2
        assert matrix.features().shape == (2, 4)
        assert matrix.labels.tolist() == [0, 1]

    def test_matches_per_sample_extract(self):
        rng = np.random.default_rng(3)
        probs = rng.dirichlet(np.ones(2), size=(5, 7))
        slot_configs = rng.integers(0, 2, 7)
        matrix = extract_all(probs, slot_configs, np.arange(5), np.arange(5) % 2, 2, 2)
        assert matrix.sample_ids.tolist() == list(range(5))
        blocks, counts = extract_loop(probs, slot_configs, 2, 2)
        np.testing.assert_array_equal(matrix.blocks, blocks)  # bit for bit
        np.testing.assert_array_equal(matrix.counts, counts)
        own = slot_configs.tolist()  # every patch wins one class of its config
        assert matrix.counts.sum(axis=2).tolist() == [[own.count(0), own.count(1)]] * 5
        assert matrix.labels.tolist() == [0, 1, 0, 1, 0]

    @pytest.mark.parametrize("length, tokens", [
        (50, [(5, 10), (10, 20)]), (23, [(4, 9), (8, 16), (23, 23)]), (7, [(3, 3)]),
        (40, [(1, 5), (13, 17)]),
    ])
    def test_matches_loop_oracle_over_spans_tables(self, length, tokens):
        configs = [PatchConfig(stride, size) for stride, size in tokens]
        slot_configs = [ci for ci, _, _, _ in patch_spans(length, configs)]
        rng = np.random.default_rng(length)
        for class_count in (2, 3, 5):
            probs = rng.dirichlet(np.ones(class_count), size=(9, len(slot_configs)))
            probs[rng.random(probs.shape[:2]) < 0.2] = 1.0 / class_count  # full ties
            top2 = rng.random(probs.shape[:2]) < 0.2  # ties between two classes
            probs[top2, :2] = probs[top2, :2].max(axis=1, keepdims=True)
            ids = rng.permutation(9)
            matrix = extract_all(probs, slot_configs, ids, ids % class_count,
                                 class_count, len(configs))
            blocks, counts = extract_loop(probs, slot_configs, class_count, len(configs))
            assert matrix.blocks.tobytes() == blocks.tobytes()  # bit for bit
            np.testing.assert_array_equal(matrix.counts, counts)
            assert matrix.sample_ids.tolist() == ids.tolist()

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            extract_all(np.zeros((0, 3, 2)), [0, 0, 0], [], [], 2, 1)

    def test_slot_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="3 slots"):
            extract_all(np.full((1, 2, 2), 0.5), [0, 0, 0], [0], [0], 2, 1)

    def test_config_index_out_of_range(self):
        with pytest.raises(ValueError, match="config index 2 out of range"):
            extract_all(np.full((1, 2, 2), 0.5), [0, 2], [0], [0], 2, 2)


class TestFeatureVariants:
    def make_vector(self):
        return PresenceMatrix(
            sample_ids=np.array([0]),
            labels=np.array([1]),
            blocks=np.array([[[2.0, 1.0], [0.5, 1.5]]]),
            counts=np.array([[[3, 1], [1, 2]]]),  # 4 and 3 patches
        )

    def test_collapse_sums_blocks(self):
        v = self.make_vector()
        np.testing.assert_allclose(v.features(collapse=True), [[2.5, 2.5]])

    def test_normalize_divides_by_patch_count(self):
        v = self.make_vector()
        np.testing.assert_allclose(v.features(normalize=True), [[0.5, 0.25, 0.5 / 3, 0.5]])

    def test_raw_flattening(self):
        v = self.make_vector()
        np.testing.assert_allclose(v.features(), [[2.0, 1.0, 0.5, 1.5]])


def test_save_vectors_round_trips_text(tmp_path):
    vectors = PresenceMatrix(
        sample_ids=np.arange(3),
        labels=np.arange(3) % 2,
        blocks=np.tile([[[1.25, 0.5]]], (3, 1, 1)),
        counts=np.tile([[[2, 1]]], (3, 1, 1)),
    )
    path = tmp_path / "vectors.csv"
    save_vectors(vectors, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 3
    first = lines[0].split(",")
    assert first[0] == "0" and first[1] == "0"
    assert [float(v) for v in first[2:]] == [1.25, 0.5]
