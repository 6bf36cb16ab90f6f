"""Sample-level classifiers over the class-presence matrix.

Three interchangeable kinds:

* svm     - linear one-vs-rest SVM trained by mini-batch subgradient descent
            on L2-regularized hinge loss,
* forest  - random forest with Gini-impurity CART trees, bootstrap sampling
            and per-tree seeds derived from the master seed,
* trivial - voting directly on the class-presence vector, no fitting. Modes:
            occurrence (most argmax wins, confidence-sum tie-break),
            confidence-sum (largest summed winning confidence), and logodds
            (wins weighted by the log-odds of their mean confidence, the
            default: near-chance patch predictions then carry almost no
            weight, so a few confident patches can outvote many uncertain
            ones).

Every model has one scoring method, decision_scores(matrix) -> (n, C), and a
row's scores do not depend on the other rows of its batch. predict_all is the
single argmax over them; ties always go to the lowest class index. Each model
checks its own fields when it is constructed, whether by fit or by a bundle.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .data import SplitError
from .metadata import PresenceMatrix
from .patching import require_bool, require_choice, require_count, require_rate

KINDS = ("svm", "forest", "trivial")
FEATURE_SUBSAMPLES = ("sqrt", "all")
TRIVIAL_MODES = ("occurrence", "confidence-sum", "logodds")
_LOGIT_CLAMP = 1e-12


def _require(ok, message: str) -> None:
    if not ok:
        raise ValueError(message)


@dataclass(frozen=True)
class SvmSpec:
    c_reg: float = 1.0
    epochs: int = 200
    learning_rate: float = 0.1
    seed: int = 0
    standardize: bool = False

    def __post_init__(self) -> None:
        require_rate("c_reg", self.c_reg)
        require_count("epochs", self.epochs)
        require_rate("learning_rate", self.learning_rate)
        require_count("seed", self.seed, least=0)
        require_bool("standardize", self.standardize)


@dataclass(frozen=True)
class ForestSpec:
    trees: int = 100
    max_depth: int | None = None
    min_leaf: int = 1
    feature_subsample: str = "sqrt"  # one of FEATURE_SUBSAMPLES
    seed: int = 0

    def __post_init__(self) -> None:
        require_count("trees", self.trees)
        if self.max_depth is not None:
            require_count("max_depth", self.max_depth)
        require_count("min_leaf", self.min_leaf)
        require_choice("feature_subsample", self.feature_subsample, FEATURE_SUBSAMPLES)
        require_count("seed", self.seed, least=0)


@dataclass(frozen=True)
class TrivialSpec:
    mode: str = "logodds"

    def __post_init__(self) -> None:
        require_choice("trivial mode", self.mode, TRIVIAL_MODES)


@dataclass(frozen=True)
class ShallowSpec:
    """The classifier, and the layout of the presence features it is fitted on:
    each block divided by its config's patch count (normalize), then the blocks
    summed over configs (collapse). The fitted svm or forest records the layout."""

    kind: str = "svm"  # one of KINDS
    svm: SvmSpec = field(default_factory=SvmSpec)
    forest: ForestSpec = field(default_factory=ForestSpec)
    trivial: TrivialSpec = field(default_factory=TrivialSpec)
    collapse: bool = False
    normalize: bool = False

    def __post_init__(self) -> None:
        require_choice("shallow kind", self.kind, KINDS)
        require_bool("collapse", self.collapse)
        require_bool("normalize", self.normalize)


# -- linear SVM --------------------------------------------------------------


# A diverging fit overflows; fit's finite check alone reports it.
@np.errstate(over="ignore", invalid="ignore")
def sgd_hinge(
    features: np.ndarray,
    signs: np.ndarray,
    c_reg: float,
    epochs: int,
    learning_rate: float,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Mini-batch subgradient descent on mean hinge loss + ||w||^2 / (2*c_reg).

    signs is an (n, machines) matrix of +-1 targets; all machines share the
    shuffling, so a one-vs-rest bank trains in a single pass.

    Returns (weights (machines, dim), biases (machines,)).
    """
    n, dim = features.shape
    machines = signs.shape[1]
    w = np.zeros((machines, dim))
    b = np.zeros(machines)
    lam = 1.0 / c_reg
    rng = np.random.default_rng(seed)
    batch = min(64, n)
    for epoch in range(epochs):
        lr = learning_rate / (1.0 + 0.01 * epoch)
        order = rng.permutation(n)
        shuffled, shuffled_signs = features[order], signs[order]  # one gather an epoch; batches are views
        for lo in range(0, n, batch):
            xb = shuffled[lo : lo + batch]
            sb = shuffled_signs[lo : lo + batch]
            scores = xb @ w.T + b
            violating = (sb * scores < 1.0).astype(np.float64) * sb
            w -= lr * (lam * w / n - violating.T @ xb / len(xb))
            b += lr * violating.sum(axis=0) / len(xb)
    return w, b


@dataclass
class SvmModel:
    weights: np.ndarray  # (class_count, dim)
    biases: np.ndarray  # (class_count,)
    class_count: int
    collapse: bool
    normalize: bool
    feature_mean: np.ndarray | None = None  # (dim,) with feature_std, or neither
    feature_std: np.ndarray | None = None
    standardized: InitVar[bool | None] = None  # a bundle's record of the pair above

    kind = "svm"

    def __post_init__(self, standardized: bool | None) -> None:
        c, shape = self.class_count, np.shape(self.weights)
        mean, std = self.feature_mean, self.feature_std
        _require(len(shape) == 2 and shape[0] == c and np.shape(self.biases) == (c,),
                 f"svm weights {shape} and biases {np.shape(self.biases)} are not ({c}, dim) and ({c},)")
        _require((mean is None) == (std is None) and standardized in (None, mean is not None),
                 f"svm standardized={standardized!r} disagrees with its feature statistics")
        _require(mean is None or np.shape(mean) == np.shape(std) == shape[1:]
                 and np.all((std > 0) & (std < np.inf)),
                 f"svm feature_mean and feature_std are not {shape[1:]} with a finite positive std")

    def decision_scores(self, matrix: PresenceMatrix) -> np.ndarray:
        x = _features(matrix, self.collapse, self.normalize, self.weights.shape[1])
        if self.feature_mean is not None:
            x = (x - self.feature_mean) / self.feature_std
        # an elementwise product and a row sum, not a BLAS product, so that a
        # row scores bit for bit the same in any batch
        return (x[:, None, :] * self.weights[None]).sum(axis=-1) + self.biases


def _features(matrix: PresenceMatrix, collapse: bool, normalize: bool, dim: int) -> np.ndarray:
    x = matrix.features(collapse=collapse, normalize=normalize)
    if x.shape[1] != dim:
        raise ValueError(f"feature dimension {x.shape[1]} does not match fitted dimension {dim}")
    return x


# -- random forest ------------------------------------------------------------


@dataclass
class TreeArrays:
    """One CART tree flattened to arrays; leaf nodes have feature == -1."""

    feature: np.ndarray  # int64
    threshold: np.ndarray  # float64
    left: np.ndarray  # int64
    right: np.ndarray  # int64
    leaf: np.ndarray  # int64 class of a leaf, -1 on internal nodes

    def __post_init__(self) -> None:
        """Node i's children, numbered in preorder, lie in (i, size): every walk ends."""
        n, indices = len(self.feature), (self.feature, self.left, self.right, self.leaf)
        _require(n > 0 and all(np.shape(a) == (n,) for a in (*indices, self.threshold))
                 and all(a.dtype.kind == "i" for a in indices),
                 "tree node arrays must be non-empty, 1-D, of equal length, with integer indices")
        i, internal = np.arange(n), self.feature >= 0
        children = (i < self.left) & (self.left < n) & (i < self.right) & (self.right < n)
        _require(np.all(children[internal]), "a tree node's children must come after it in the tree")

    def predict(self, features: np.ndarray) -> np.ndarray:
        node = np.zeros(len(features), dtype=np.int64)
        while True:
            internal = self.feature[node] >= 0
            if not internal.any():
                return self.leaf[node]
            rows = np.flatnonzero(internal)
            current = node[rows]
            go_left = features[rows, self.feature[current]] <= self.threshold[current]
            node[rows] = np.where(go_left, self.left[current], self.right[current])


def _majority(labels: np.ndarray, class_count: int) -> int:
    return int(np.argmax(np.bincount(labels, minlength=class_count)))


def _best_split(
    features: np.ndarray,
    labels: np.ndarray,
    candidates: np.ndarray,
    class_count: int,
    min_leaf: int,
) -> tuple[int, float] | None:
    n = len(labels)
    onehot = np.zeros((n, class_count))
    onehot[np.arange(n), labels] = 1.0
    total = onehot.sum(axis=0)
    best = None
    best_score = np.inf
    for f in candidates:
        order = np.argsort(features[:, f], kind="stable")
        xs = features[order, f]
        left_counts = np.cumsum(onehot[order], axis=0)
        sizes_left = np.arange(1, n + 1, dtype=np.float64)
        valid = np.flatnonzero(
            (xs[:-1] < xs[1:])
            & (sizes_left[:-1] >= min_leaf)
            & (n - sizes_left[:-1] >= min_leaf)
        )
        if len(valid) == 0:
            continue
        nl = sizes_left[valid]
        nr = n - nl
        cl = left_counts[valid]
        cr = total - cl
        gini_left = 1.0 - ((cl / nl[:, None]) ** 2).sum(axis=1)
        gini_right = 1.0 - ((cr / nr[:, None]) ** 2).sum(axis=1)
        weighted = (nl * gini_left + nr * gini_right) / n
        k = int(np.argmin(weighted))
        if weighted[k] < best_score:
            best_score = float(weighted[k])
            pos = valid[k]
            best = (int(f), float((xs[pos] + xs[pos + 1]) / 2.0))
    return best


def _grow_tree(
    features: np.ndarray,
    labels: np.ndarray,
    class_count: int,
    spec: ForestSpec,
    rng: np.random.Generator,
) -> TreeArrays:
    nodes: list[dict] = []  # the TreeArrays fields of each node, in preorder
    dim = features.shape[1]
    n_candidates = dim if spec.feature_subsample == "all" else max(1, int(math.isqrt(dim)))

    def build(idx: np.ndarray, depth: int) -> int:
        node = len(nodes)
        nodes.append(dict(feature=-1, threshold=0.0, left=-1, right=-1, leaf=-1))
        y = labels[idx]
        split = None
        if not (
            len(idx) < 2 * spec.min_leaf
            or (spec.max_depth is not None and depth >= spec.max_depth)
            or len(np.unique(y)) == 1
        ):
            candidates = np.sort(rng.choice(dim, size=n_candidates, replace=False))
            split = _best_split(features[idx], y, candidates, class_count, spec.min_leaf)
        if split is None:
            nodes[node]["leaf"] = _majority(y, class_count)
            return node
        f, threshold = split
        go_left = features[idx, f] <= threshold
        nodes[node].update(feature=f, threshold=threshold)
        nodes[node]["left"] = build(idx[go_left], depth + 1)
        nodes[node]["right"] = build(idx[~go_left], depth + 1)
        return node

    build(np.arange(len(labels)), 0)
    return TreeArrays(**{
        name: np.array([n[name] for n in nodes], dtype=np.float64 if name == "threshold" else np.int64)
        for name in nodes[0]
    })


@dataclass
class ForestModel:
    trees: list[TreeArrays]
    class_count: int
    feature_dim: int
    collapse: bool
    normalize: bool

    kind = "forest"

    def __post_init__(self) -> None:
        _require(len(self.trees) > 0, "a forest needs at least one tree")
        for tree in self.trees:
            leaves = tree.leaf[tree.feature < 0]
            _require(np.all(tree.feature < self.feature_dim),
                     f"a tree splits on a feature outside [0, {self.feature_dim})")
            _require(np.all((leaves >= 0) & (leaves < self.class_count)),
                     f"a tree leaf class is outside [0, {self.class_count})")

    def decision_scores(self, matrix: PresenceMatrix) -> np.ndarray:
        """Share of the trees voting for each class."""
        x = _features(matrix, self.collapse, self.normalize, self.feature_dim)
        votes = np.zeros((len(x), self.class_count))
        for tree in self.trees:
            votes[np.arange(len(x)), tree.predict(x)] += 1.0
        return votes / len(self.trees)


# -- trivial voting ------------------------------------------------------------


@dataclass
class TrivialModel:
    mode: str
    class_count: int
    n_configs: int

    kind = "trivial"

    def __post_init__(self) -> None:
        require_choice("trivial mode", self.mode, TRIVIAL_MODES)

    def decision_scores(self, matrix: PresenceMatrix) -> np.ndarray:
        _require(matrix.blocks.shape[1:] == (self.n_configs, self.class_count),
                 f"presence blocks {matrix.blocks.shape[1:]} do not match ({self.n_configs}, {self.class_count})")
        counts = matrix.counts.sum(axis=1).astype(np.float64)
        sums = matrix.blocks.sum(axis=1)
        if self.mode == "occurrence":
            # confidence sums only break ties between equal win counts
            span = sums.max(axis=1, keepdims=True) + 1.0
            return counts + sums / span
        if self.mode == "confidence-sum":
            return sums
        mean_conf = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
        mean_conf = np.clip(mean_conf, _LOGIT_CLAMP, 1.0 - _LOGIT_CLAMP)
        logit = np.log(mean_conf) - np.log1p(-mean_conf)
        return np.where(counts > 0, counts * logit, 0.0)


ShallowModel = SvmModel | ForestModel | TrivialModel


# -- spec operations -----------------------------------------------------------


def check_train_classes(spec: ShallowSpec, labels: np.ndarray) -> None:
    """A SplitError unless the train split's labels hold two classes or
    more, which an svm and a forest need; trivial voting fits nothing."""
    classes = np.unique(labels)
    if spec.kind != "trivial" and len(classes) < 2:
        raise SplitError(f"split 'train' holds the single class {classes.tolist()}; "
                         f"shallow kind {spec.kind!r} needs at least 2")


def fit(spec: ShallowSpec, train_vectors: PresenceMatrix) -> ShallowModel:
    """Train the configured classifier on a class-presence matrix."""
    if not len(train_vectors):
        raise ValueError("no training vectors")
    _, n_configs, class_count = train_vectors.blocks.shape
    labels = train_vectors.labels
    check_train_classes(spec, labels)
    if spec.kind == "trivial":
        return TrivialModel(mode=spec.trivial.mode, class_count=class_count, n_configs=n_configs)
    features = train_vectors.features(collapse=spec.collapse, normalize=spec.normalize)
    if spec.kind == "svm":
        mean = std = None
        if spec.svm.standardize:
            mean = features.mean(axis=0)
            std = np.maximum(features.std(axis=0), 1e-8)
            features = (features - mean) / std
        signs = np.where(labels[:, None] == np.arange(class_count)[None, :], 1.0, -1.0)
        w, b = sgd_hinge(
            features, signs, spec.svm.c_reg, spec.svm.epochs, spec.svm.learning_rate, spec.svm.seed
        )
        _require(np.isfinite(w).all() and np.isfinite(b).all(),
                 f"svm training diverged: its weights or biases are not finite "
                 f"(learning_rate={spec.svm.learning_rate!r}, c_reg={spec.svm.c_reg!r})")
        return SvmModel(w, b, class_count, spec.collapse, spec.normalize, feature_mean=mean, feature_std=std)
    seeds = np.random.SeedSequence(spec.forest.seed).spawn(spec.forest.trees)
    trees = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        bootstrap = rng.integers(0, len(labels), len(labels))
        trees.append(_grow_tree(features[bootstrap], labels[bootstrap], class_count, spec.forest, rng))
    return ForestModel(trees, class_count, features.shape[1], spec.collapse, spec.normalize)


def predict_all(model: ShallowModel, matrix: PresenceMatrix) -> np.ndarray:
    """Class index in [0, class_count) per row; ties go to the lowest index."""
    return np.argmax(model.decision_scores(matrix), axis=1)


@dataclass
class EvalResult:
    accuracy: float
    confusion: np.ndarray  # (class_count, class_count), rows = true class


def evaluate(model: ShallowModel, matrix: PresenceMatrix) -> EvalResult:
    """Accuracy plus confusion matrix (row = true class, column = prediction)."""
    if not len(matrix):
        raise ValueError("no vectors to evaluate")
    preds = predict_all(model, matrix)
    truth = matrix.labels
    confusion = np.zeros((model.class_count, model.class_count), dtype=np.int64)
    np.add.at(confusion, (truth, preds), 1)
    return EvalResult(accuracy=float((preds == truth).mean()), confusion=confusion)
