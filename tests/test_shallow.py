import warnings

import numpy as np
import pytest

from dataclasses import fields, replace

from patchx.data import SplitError
from patchx.metadata import PresenceMatrix, extract_all
from patchx.shallow import (
    KINDS,
    ForestSpec,
    ShallowSpec,
    SvmSpec,
    TrivialSpec,
    check_train_classes,
    evaluate,
    fit,
    predict_all,
    sgd_hinge,
    ForestModel,
    SvmModel,
    TreeArrays,
    TrivialModel,
)


def vector(blocks, counts=None, label=0, sample_id=0):
    """A one-row presence matrix."""
    blocks = np.atleast_2d(np.asarray(blocks, dtype=float))
    if counts is None:
        counts = np.ceil(blocks).astype(np.int64)
    return PresenceMatrix(
        sample_ids=np.array([sample_id]),
        labels=np.array([label]),
        blocks=blocks[None],
        counts=np.atleast_2d(np.asarray(counts, dtype=np.int64))[None],
    )


def stack(matrices):
    return PresenceMatrix(*(np.concatenate([getattr(m, f.name) for m in matrices])
                            for f in fields(PresenceMatrix)))


def row(matrix, i):
    return PresenceMatrix(*(getattr(matrix, f.name)[i : i + 1] for f in fields(PresenceMatrix)))


def extract(preds, class_count, n_configs):
    """One sample's (config_index, softmax) pairs as a one-row presence matrix:
    its slots carry those configs."""
    return extract_all(np.array([[p for _, p in preds]]), [ci for ci, _ in preds], [0], [0],
                       class_count, n_configs)


def predict(model, matrix):
    """The label of a one-row matrix."""
    (label,) = predict_all(model, matrix)
    return int(label)


def separable_vectors(n_per_class=20, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n_per_class):
        out.append(vector([[2.0 + rng.normal(0, 0.1), rng.normal(0, 0.05) ** 2]],
                          label=0, sample_id=i))
        out.append(vector([[rng.normal(0, 0.05) ** 2, 2.0 + rng.normal(0, 0.1)]],
                          label=1, sample_id=n_per_class + i))
    return stack(out)


class TestFit:
    def test_svm_separable_perfect_training(self):
        vectors = separable_vectors()
        model = fit(ShallowSpec(kind="svm"), vectors)
        assert evaluate(model, vectors).accuracy == 1.0

    def test_forest_one_stump_separable(self):
        vectors = separable_vectors()
        spec = ShallowSpec(kind="forest", forest=ForestSpec(trees=1, max_depth=1, feature_subsample="all"))
        model = fit(spec, vectors)
        assert evaluate(model, vectors).accuracy == 1.0

    def test_trivial_is_pass_through(self):
        vectors = separable_vectors(n_per_class=2)
        model = fit(ShallowSpec(kind="trivial"), vectors)
        assert model.kind == "trivial"
        assert model.class_count == 2

    def test_single_class_rejected(self):
        vectors = stack([vector([[1.0, 0.0]], label=0, sample_id=i) for i in range(5)])
        with pytest.raises(ValueError, match="single class"):
            fit(ShallowSpec(kind="svm"), vectors)

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_two_class_rule_for_fit_and_the_early_check(self, kind):
        """fit and the check a run makes before training state one rule: an
        svm or a forest needs two train classes, trivial voting fits one."""
        vectors = stack([vector([[1.0, 0.0]], label=1, sample_id=i) for i in range(5)])
        spec = ShallowSpec(kind=kind)
        if kind == "trivial":
            check_train_classes(spec, vectors.labels)
            assert fit(spec, vectors).kind == "trivial"
            return
        message = f"split 'train' holds the single class \\[1\\]; shallow kind '{kind}' needs at least 2"
        with pytest.raises(SplitError, match=message):
            check_train_classes(spec, vectors.labels)
        with pytest.raises(SplitError, match=message):
            fit(spec, vectors)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ShallowSpec(kind="boosting")
        with pytest.raises(ValueError):
            ShallowSpec(trivial=TrivialSpec(mode="median"))

    @pytest.mark.parametrize("name", ["c_reg", "learning_rate"])
    def test_nan_svm_parameter_rejected(self, name):
        with pytest.raises(ValueError, match="must be positive"):
            SvmSpec(**{name: float("nan")})

    @pytest.mark.parametrize("spec, field", [
        (lambda: SvmSpec(learning_rate=float("inf")), "learning_rate must be positive and finite, got inf"),
        (lambda: SvmSpec(c_reg=float("inf")), "c_reg must be positive and finite, got inf"),
        (lambda: SvmSpec(c_reg=True), "c_reg must be positive and finite, got True"),
        (lambda: SvmSpec(epochs=2.5), "epochs must be >= 1 and an integer, got 2.5"),
        (lambda: SvmSpec(epochs=True), "epochs must be >= 1 and an integer, got True"),
        (lambda: SvmSpec(seed=-1), "seed must be >= 0 and an integer, got -1"),
        (lambda: SvmSpec(standardize=1), "standardize must be a bool, got 1"),
        (lambda: ForestSpec(trees=2.5), "trees must be >= 1 and an integer, got 2.5"),
        (lambda: ForestSpec(min_leaf=1.5), r"min_leaf must be >= 1 and an integer, got 1.5"),
        (lambda: ForestSpec(max_depth=2.0), r"max_depth must be >= 1 and an integer, got 2.0"),
        (lambda: ForestSpec(seed=0.0), r"seed must be >= 0 and an integer, got 0.0"),
    ], ids=["svm-rate-inf", "svm-c-reg-inf", "svm-c-reg-bool", "svm-epochs-float", "svm-epochs-bool",
            "svm-seed-negative", "svm-standardize-int", "forest-trees-float", "forest-min-leaf-float",
            "forest-max-depth-float", "forest-seed-float"])
    def test_spec_fields_checked_as_train_spec_does(self, spec, field):
        """Counts are integers and no bools, rates positive and finite: a
        field that fit would trip on, or that would train to no end, stops at
        the spec."""
        with pytest.raises(ValueError, match=f"^{field}$"):
            spec()

    @pytest.mark.parametrize("setting", [{"learning_rate": 1e300}, {"c_reg": 1e-320}],
                             ids=["rate-1e300", "c-reg-1e-320"])
    def test_diverged_svm_raises(self, setting):
        """Settings that SvmSpec accepts but that drive the weights past float
        range: fit names the divergence, without a numpy warning, and returns
        no model."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="svm training diverged: its weights or biases are not finite"):
                fit(ShallowSpec(kind="svm", svm=SvmSpec(**setting)), separable_vectors())


class TestPredict:
    def test_occurrence_majority_with_recount_oracle(self):
        # blocks equal the per-class win counts (every winning confidence is 1.0)
        preds = [(0, np.array([1.0, 0.0]))] * 3 + [(0, np.array([0.0, 1.0]))]
        v = extract(preds, class_count=2, n_configs=1)
        model = fit(ShallowSpec(kind="trivial", trivial=TrivialSpec(mode="occurrence")), stack([
            vector([[1.0, 0.0]], label=0), vector([[0.0, 1.0]], label=1)]))
        assert predict(model, v) == 0
        # independent recount of argmax wins
        wins = np.zeros(2)
        for _, p in preds:
            wins[int(np.argmax(p))] += 1
        assert int(np.argmax(wins)) == 0

    def test_confidence_sum(self):
        model = fit(ShallowSpec(kind="trivial", trivial=TrivialSpec(mode="confidence-sum")), stack([
            vector([[1.0, 0.0]], label=0), vector([[0.0, 1.0]], label=1)]))
        assert predict(model, vector([[1.5, 0.8]])) == 0
        assert predict(model, vector([[0.3, 0.9]])) == 1

    def test_logodds_confident_minority_outvotes_uncertain_majority(self):
        # 11 noise-grade class-0 wins vs 4 high-confidence class-1 wins
        preds = [(0, np.array([0.58, 0.42]))] * 11 + [(0, np.array([0.02, 0.98]))] * 4
        v = extract(preds, class_count=2, n_configs=1)
        model = fit(ShallowSpec(kind="trivial"), stack([
            vector([[1.0, 0.0]], label=0), vector([[0.0, 1.0]], label=1)]))
        assert model.mode == "logodds"
        assert predict(model, v) == 1
        # occurrence voting on the same vector prefers the majority class
        occ = fit(ShallowSpec(kind="trivial", trivial=TrivialSpec(mode="occurrence")), stack([
            vector([[1.0, 0.0]], label=0), vector([[0.0, 1.0]], label=1)]))
        assert predict(occ, v) == 0

    def test_logodds_uniform_ties_to_lowest(self):
        preds = [(0, np.array([0.5, 0.5]))] * 4
        v = extract(preds, class_count=2, n_configs=1)
        model = fit(ShallowSpec(kind="trivial"), stack([
            vector([[1.0, 0.0]], label=0), vector([[0.0, 1.0]], label=1)]))
        assert predict(model, v) == 0

    def test_svm_boundary_tie_breaks_to_lowest(self):
        model = SvmModel(
            weights=np.array([[1.0, 0.0], [0.0, 1.0]]),
            biases=np.zeros(2),
            class_count=2,
            feature_mean=None,
            feature_std=None,
            collapse=False,
            normalize=False,
        )
        on_boundary = vector([[1.0, 1.0]])  # identical scores for both machines
        assert predict(model, on_boundary) == 0

    def test_dimension_mismatch_rejected(self):
        vectors = separable_vectors()
        model = fit(ShallowSpec(kind="svm"), vectors)
        wrong = vector([[1.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="dimension"):
            predict(model, wrong)

    def test_trivial_shape_mismatch_rejected(self):
        model = fit(ShallowSpec(kind="trivial"), separable_vectors(n_per_class=2))
        with pytest.raises(ValueError):
            predict(model, vector([[1.0, 0.0, 0.5]]))


class TestEvaluate:
    def test_all_correct(self):
        vectors = separable_vectors(n_per_class=10)
        model = fit(ShallowSpec(kind="svm"), vectors)
        result = evaluate(model, vectors)
        assert result.accuracy == 1.0
        assert np.all(result.confusion == np.diag(np.diag(result.confusion)))

    def test_random_labels_near_chance(self):
        rng = np.random.default_rng(12)
        vectors = stack([
            vector([list(rng.dirichlet(np.ones(2)))], label=int(rng.integers(0, 2)), sample_id=i)
            for i in range(1000)
        ])
        model = fit(ShallowSpec(kind="trivial", trivial=TrivialSpec(mode="confidence-sum")), vectors)
        acc = evaluate(model, vectors).accuracy
        assert 0.44 <= acc <= 0.56

    def test_confusion_total_is_n(self):
        vectors = separable_vectors(n_per_class=17)
        model = fit(ShallowSpec(kind="svm"), vectors)
        assert evaluate(model, vectors).confusion.sum() == len(vectors)

    def test_confusion_row_sums_are_class_supports(self):
        vectors = separable_vectors(n_per_class=9)
        model = fit(ShallowSpec(kind="svm"), vectors)
        confusion = evaluate(model, vectors).confusion
        assert confusion.sum(axis=1).tolist() == [9, 9]


class TestInvariants:
    def test_ovr_agrees_with_single_binary_machine(self):
        vectors = separable_vectors(seed=4)
        features = vectors.features()
        labels = vectors.labels
        model = fit(ShallowSpec(kind="svm"), vectors)
        signs = np.where(labels == 1, 1.0, -1.0)[:, None]
        w, b = sgd_hinge(features, signs, 1.0, 200, 0.1, 0)
        test_vectors = separable_vectors(seed=99)
        preds = predict_all(model, test_vectors)
        for x, pred in zip(test_vectors.features(), preds):
            score = float(x @ w[0] + b[0])
            binary_pred = 1 if score > 0 else 0
            assert pred == binary_pred

    def test_forest_deterministic_bitwise(self):
        vectors = separable_vectors(seed=6)
        spec = ShallowSpec(kind="forest", forest=ForestSpec(trees=12, seed=42))
        a = fit(spec, vectors)
        b = fit(spec, vectors)
        for tree_a, tree_b in zip(a.trees, b.trees):
            for node in fields(TreeArrays):
                np.testing.assert_array_equal(getattr(tree_a, node.name), getattr(tree_b, node.name))
        np.testing.assert_array_equal(predict_all(a, vectors), predict_all(b, vectors))

    def test_forest_scale_invariance(self):
        rng = np.random.default_rng(8)
        vectors = []
        for i in range(60):
            label = i % 2
            base = np.array([[1.0 + label + rng.normal(0, 0.2), 2.0 - label + rng.normal(0, 0.2)]])
            vectors.append(vector(base, label=label, sample_id=i))
        vectors = stack(vectors)
        scale = 37.5
        scaled = replace(vectors, blocks=vectors.blocks * scale)
        spec = ShallowSpec(kind="forest", forest=ForestSpec(trees=15, seed=5))
        model = fit(spec, vectors)
        model_scaled = fit(spec, scaled)
        test = stack([vector([[1.3 + rng.normal(0, 0.3), 1.7 + rng.normal(0, 0.3)]], sample_id=i)
                      for i in range(40)])
        test_scaled = replace(test, blocks=test.blocks * scale)
        np.testing.assert_array_equal(predict_all(model, test), predict_all(model_scaled, test_scaled))

    def test_svm_deterministic(self):
        vectors = separable_vectors(seed=10)
        a = fit(ShallowSpec(kind="svm"), vectors)
        b = fit(ShallowSpec(kind="svm"), vectors)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.biases, b.biases)

    def test_multiclass_ovr(self):
        rng = np.random.default_rng(14)
        vectors = []
        for i in range(90):
            label = i % 3
            blocks = np.full((1, 3), 0.2) + rng.normal(0, 0.03, (1, 3))
            blocks[0, label] += 2.0
            vectors.append(vector(blocks, label=label, sample_id=i))
        vectors = stack(vectors)
        model = fit(ShallowSpec(kind="svm"), vectors)
        assert evaluate(model, vectors).accuracy == 1.0

    @pytest.mark.parametrize("spec", [
        ShallowSpec(kind="svm"),
        ShallowSpec(kind="svm", svm=SvmSpec(standardize=True)),
        ShallowSpec(kind="forest", forest=ForestSpec(trees=9, seed=2)),
        ShallowSpec(kind="trivial", trivial=TrivialSpec(mode="occurrence")),
        ShallowSpec(kind="trivial", trivial=TrivialSpec(mode="confidence-sum")),
        ShallowSpec(kind="trivial", trivial=TrivialSpec(mode="logodds")),
    ], ids=["svm", "svm-standardized", "forest", "occurrence", "confidence-sum", "logodds"])
    def test_decision_scores_batch_independent(self, spec):
        rng = np.random.default_rng(17)
        blocks = rng.dirichlet(np.ones(3), size=(150, 2)) * rng.integers(1, 9, size=(150, 2, 1))
        matrix = PresenceMatrix(
            sample_ids=np.arange(150), labels=np.arange(150) % 3, blocks=blocks,
            counts=rng.integers(0, 6, size=(150, 2, 3)),
        )
        model = fit(spec, matrix)
        batch = model.decision_scores(matrix)
        for i in range(len(matrix)):
            np.testing.assert_array_equal(model.decision_scores(row(matrix, i))[0], batch[i])


def stump(**nodes):
    """A root split on feature 0 over two leaves, with node arrays replaced."""
    arrays = dict(feature=np.array([0, -1, -1]), threshold=np.array([0.5, 0.0, 0.0]),
                  left=np.array([1, -1, -1]), right=np.array([2, -1, -1]), leaf=np.array([-1, 0, 1]))
    return TreeArrays(**{**arrays, **nodes})


class TestStateChecks:
    """Each model checks its own fields on construction, for fit and bundle alike."""

    @pytest.mark.parametrize("build, cause", [
        (lambda: SvmModel(np.ones((1, 2)), np.zeros(4), 2, False, False), r"weights \(1, 2\)"),
        (lambda: SvmModel(np.ones((2, 2)), np.zeros(2), 2, False, False, feature_mean=np.zeros(2)),
         "disagrees"),
        (lambda: SvmModel(np.ones((2, 2)), np.zeros(2), 2, False, False, standardized=True),
         "disagrees"),
        (lambda: SvmModel(np.ones((2, 2)), np.zeros(2), 2, False, False,
                          feature_mean=np.zeros(2), feature_std=np.array([1.0, np.inf])),
         "finite positive std"),
        (lambda: stump(left=np.array([0, -1, -1])), "children must come after it"),
        (lambda: stump(right=np.array([3, -1, -1])), "children must come after it"),
        (lambda: stump(feature=np.array([0.0, -1.0, -1.0])), "integer indices"),
        (lambda: stump(leaf=np.array([-1, 0])), "equal length"),
        (lambda: ForestModel([stump(feature=np.array([3, -1, -1]))], 2, 2, False, False),
         r"feature outside \[0, 2\)"),
        (lambda: ForestModel([stump(leaf=np.array([-1, 0, 2]))], 2, 2, False, False),
         r"leaf class is outside \[0, 2\)"),
        (lambda: ForestModel([], 2, 2, False, False), "at least one tree"),
        (lambda: TrivialModel("bogus", 2, 1), "unknown trivial mode"),
    ], ids=["svm-shapes", "svm-mean-without-std", "svm-standardized-without-stats", "svm-inf-std",
            "tree-child-is-parent", "tree-child-past-end", "tree-float-feature", "tree-ragged",
            "forest-feature-dim", "forest-leaf-class", "forest-no-trees", "trivial-mode"])
    def test_bad_state_raises(self, build, cause):
        with pytest.raises(ValueError, match=cause):
            build()
