"""The workloads: inputs made from the seed, set-up, operations and checks.

Each workload is a closed loop: one client in one process sends the next
operation only after the previous one returned.

* train  - one `patchx run` at the acceptance scale. CNN training dominates, so
           conv kernels and patch-tensor layout show their gains here.
* infer  - a saved bundle is loaded and serves full-split predict_dataset
           passes, interleaved with explain_sample calls. The network runs
           forward only; metadata, bundle and explain work is concentrated here.
           Once per run it also refits the shallow classifier (svm, forest,
           trivial) on cached vectors, so the shallow layer is measured alone.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import shutil
from pathlib import Path
from time import perf_counter

import numpy as np

import patchx.bundle
import patchx.cli
import patchx.data
import patchx.explain
import patchx.pipeline
from patchx.neuralnet import NetworkSpec, TrainSpec
from patchx.patching import PatchConfig
from patchx.shallow import ForestSpec, ShallowSpec, SvmSpec, TrivialSpec, predict_all

CHANNELS, LENGTH = 3, 50
DECIMALS = 4  # places of the generated values
PATCHES = "5:10,10:20"
CONFIGS = [PatchConfig(stride=5, length=10, attach=True), PatchConfig(stride=10, length=20, attach=True)]
FILTERS = (16, 32)
KERNEL = 3
PATCHES_PER_SAMPLE = 15  # 10 windows of 5:10 plus 5 of 10:20 on 50 steps
CONV_LABELS = {f: f"conv{i}" for i, f in enumerate(FILTERS)}
SMALL_COUNTS = (1000, 300, 2000)  # train/val/test of the infer set-up
ACCURACY_GATE = 0.95  # the acceptance gate for CNN+SVM at the train scale
REFIT_SPECS = {
    "svm": ShallowSpec(kind="svm", svm=SvmSpec(standardize=True)),
    "forest": ShallowSpec(kind="forest", forest=ForestSpec(trees=100)),
    "trivial": ShallowSpec(kind="trivial", trivial=TrivialSpec()),
}


class Recorder:
    """Timings and check outcomes of one run; spans go to the tracer when one is active."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.tracer = None
        self.accuracy: list[float] = []

    @contextlib.contextmanager
    def timed(self, name: str):
        span = self.tracer.span(name) if self.tracer else contextlib.nullcontext()
        with span:
            t0 = perf_counter()
            yield
            self.samples.setdefault(name, []).append(perf_counter() - t0)

    def check(self, ok: bool, what: str) -> None:
        """Count one attempted operation; a failed check makes it a failed one."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


# -- inputs ------------------------------------------------------------------------


def generate(seed: int, counts: tuple[int, int, int], out_dir: Path) -> dict[str, list[int]]:
    """Synthetic point-anomaly splits written as the program's delimited text;
    returns each split's labels.

    The distribution is that of the program's anomaly generator: Gaussian noise,
    and in half of the samples one peak of amplitude U(5, 10) in a random
    channel; the label is 1 iff a point exceeds its channel's mean + 4 std.
    The benchmark draws it itself, from the seed alone, so that a change to the
    program cannot change the inputs. Values are written as fixed-point
    decimals with DECIMALS places, formatted in numpy, so that set-up time is
    mostly the program reading the files back, and labels are computed from
    the values as written.
    """
    rng = np.random.default_rng(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    labels = {}
    for split, count in zip(("train", "val", "test"), counts):
        values = rng.normal(0.0, 1.0, size=(count, CHANNELS, LENGTH))
        peaked = np.flatnonzero(rng.random(count) < 0.5)
        channel = rng.integers(0, CHANNELS, size=len(peaked))
        step = rng.integers(2, LENGTH - 1, size=len(peaked))
        values[peaked, channel, step] = rng.uniform(5.0, 10.0, size=len(peaked))
        # One digit before the point: |value| < 10.
        fixed = np.rint(np.clip(values, -9.9999, 9.9999) * 10**DECIMALS).astype(np.int64)
        values = fixed / 10**DECIMALS  # the nearest double, as the program parses it
        threshold = values.mean(axis=2, keepdims=True) + 4.0 * values.std(axis=2, keepdims=True)
        label = np.any(values > threshold, axis=(1, 2)).astype(np.uint8)
        labels[split] = label.tolist()
        # Each value is the field "-d.dddd," (a space in place of "-" when positive).
        fixed = fixed.reshape(count, -1)
        digits = np.abs(fixed)[..., None] // 10 ** np.arange(DECIMALS, -1, -1) % 10
        fields = np.empty((*fixed.shape, DECIMALS + 4), dtype=np.uint8)
        fields[..., 0] = np.where(fixed < 0, ord("-"), ord(" "))
        fields[..., 1] = digits[..., 0] + ord("0")
        fields[..., 2] = ord(".")
        fields[..., 3:-1] = digits[..., 1:] + ord("0")
        fields[..., -1] = ord(",")
        rows = np.column_stack([fields.reshape(count, -1), label + ord("0"),
                                np.full(count, ord("\n"), dtype=np.uint8)])
        (out_dir / f"{split}.csv").write_bytes(f"{CHANNELS},{LENGTH},2\n".encode() + rows.tobytes())
    return labels


def load_splits(data_dir: Path, labels: dict[str, list[int]], rec: Recorder) -> list:
    """The generated splits read back through the program's loader, checked
    against the labels they were written with."""
    splits = []
    for split, expected in labels.items():
        dataset = patchx.data.load_dataset(data_dir / f"{split}.csv", split=split)
        got = [s.label for s in dataset.samples]
        rec.check(got == expected, f"{split}.csv reads back {len(got)} samples, "
                                   f"{sum(a != b for a, b in zip(got, expected))} labels differ")
        splits.append(dataset)
    return splits


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_argv(data_dir: Path, out: Path, run_name: str, epochs: int) -> list[str]:
    """`patchx run` on generated files with the benchmark's network and shallow settings."""
    return [
        "run", "--source", "files", "--data-dir", str(data_dir),
        "--out", str(out), "--run-name", run_name,
        "--patches", PATCHES, "--attach", "true",
        "--filters", ",".join(map(str, FILTERS)), "--kernel", str(KERNEL),
        "--epochs", str(epochs), "--patience", "0",
        "--shallow", "svm", "--standardize", "true", "--seed", "0",
    ]


# -- train ---------------------------------------------------------------------------


class Train:
    """One `patchx run` per operation, in-process through patchx.cli.main."""

    name = "train"
    counts = (3500, 1500, 1000)
    min_ops = 2  # the determinism check compares two runs
    setup_repeats = 9

    def setup(self, work: Path, seed: int, rec: Recorder) -> None:
        """Generate the splits and read them back through the program's loader."""
        self.work = work
        self.data_dir = work / "data"
        load_splits(self.data_dir, generate(seed, self.counts, self.data_dir), rec)
        self.hashes = None
        self.last_run = None

    def start(self, rec: Recorder) -> None:
        pass

    def operation(self, rec: Recorder, i: int) -> None:
        run_dir = self.work / "runs" / f"op{i}"
        with rec.timed("train"), contextlib.redirect_stdout(io.StringIO()):
            code = patchx.cli.main(run_argv(self.data_dir, run_dir.parent, run_dir.name, epochs=2))
        rec.check(code == 0, f"patchx run exited with {code}")
        if code != 0:
            return
        metrics = json.loads((run_dir / "metrics.json").read_text(encoding="utf-8"))
        accuracy = metrics.get("test_accuracy", 0.0)
        rec.accuracy.append(accuracy)
        rec.check(accuracy >= ACCURACY_GATE, f"test_accuracy {accuracy} < {ACCURACY_GATE}")
        hashes = {f: digest(run_dir / f) for f in
                  ("metrics.json", "vectors_train.csv", "vectors_test.csv", "bundle.pchx")}
        if self.hashes is None:
            self.hashes = hashes
        else:
            differ = sorted(f for f in hashes if hashes[f] != self.hashes[f])
            rec.check(not differ, f"rerun of one seed changed {differ}")
        if self.last_run is not None:
            shutil.rmtree(self.last_run)
        self.last_run = run_dir

    def done(self) -> bool:
        return True

    def other_layers(self) -> None:
        """The layers `patchx run` does not use, on 200 test samples and the last
        run's bundle: bundle loading, explanations, forest and trivial fits."""
        if self.last_run is None:
            raise RuntimeError("no patchx run succeeded")
        bundle = patchx.bundle.load_bundle(self.last_run / "bundle.pchx")
        test = patchx.data.load_dataset(self.data_dir / "test.csv", split="test")
        subset = dataclasses.replace(test, samples=test.samples[:200])
        for sample in subset.samples[:50]:
            patchx.explain.explain_sample(bundle, sample)
        patchx.explain.confidence_histogram(bundle, subset)
        patchx.explain.mislabel_report(bundle, subset)
        vectors = bundle.vectors(subset)
        for kind in ("forest", "trivial"):
            patchx.pipeline.fit(REFIT_SPECS[kind], vectors)


# -- infer ---------------------------------------------------------------------------------


def train_small_bundle(work: Path, seed: int, rec: Recorder):
    """Generate SMALL_COUNTS splits, train a one-epoch pipeline and save its bundle."""
    data_dir = work / "data"
    train, val, test = load_splits(data_dir, generate(seed, SMALL_COUNTS, data_dir), rec)
    net_spec = NetworkSpec(
        input_channels=CHANNELS + 1, input_length=LENGTH, class_count=2,
        conv_blocks=tuple((f, KERNEL, "relu") for f in FILTERS), seed=0,
    )
    result = patchx.pipeline.run_pipeline(
        train, val, None, CONFIGS,
        net_spec=net_spec,
        train_spec=TrainSpec(epochs=1, early_stopping_patience=0, seed=0),
        shallow_spec=ShallowSpec(kind="svm", svm=SvmSpec(standardize=True)),
    )
    patchx.bundle.save_bundle(result.bundle, work / "bundle.pchx")
    return result, test


class Infer:
    """Full-split predict_dataset passes over a loaded bundle, interleaved with
    explain_sample calls so that both sample the same stretch of host time."""

    name = "infer"
    min_ops = 3
    setup_repeats = 3
    chunk = 250  # explain calls per operation

    def setup(self, work: Path, seed: int, rec: Recorder) -> None:
        self.work = work
        self.result, self.test = train_small_bundle(work, seed, rec)
        self.labels = np.array([s.label for s in self.test.samples])
        self.explained = 0

    def start(self, rec: Recorder) -> None:
        with rec.timed("load"):
            self.bundle = patchx.bundle.load_bundle(self.work / "bundle.pchx")
        self.preds, vectors = self.bundle.predict_dataset(self.test)  # warm-up, untimed
        self.refit(rec, dataclasses.replace(self.result, test_vectors=vectors))
        with rec.timed("histogram"):
            hist = patchx.explain.confidence_histogram(self.bundle, self.test)
        rec.check(hist.total == PATCHES_PER_SAMPLE * len(self.test),
                  f"histogram holds {hist.total} patches")
        with rec.timed("mislabels"):
            entries = patchx.explain.mislabel_report(self.bundle, self.test)
        wrong = int((self.preds != self.labels).sum())
        rec.check(len(entries) == wrong, f"{len(entries)} mislabels reported, {wrong} expected")

    def operation(self, rec: Recorder, i: int) -> None:
        # Counted before the pass, so that a pass that raises still ends the run.
        n = len(self.test.samples)
        chosen = [self.test.samples[(self.explained + k) % n] for k in range(self.chunk)]
        self.explained += self.chunk
        with rec.timed("infer"):
            preds, _ = self.bundle.predict_dataset(self.test)
        rec.check(np.array_equal(preds, self.preds), "predict_dataset passes disagree")
        rec.accuracy.append(float((preds == self.labels).mean()))
        for sample in chosen:
            with rec.timed("explain"):
                records, prediction = patchx.explain.explain_sample(self.bundle, sample)
            label = int(self.bundle.predict_sample(sample)[0])
            rec.check(prediction == label == preds[sample.id] and len(records) == PATCHES_PER_SAMPLE,
                      f"sample {sample.id}: explain/predict_sample/predict_dataset disagree")

    def done(self) -> bool:
        return self.explained >= len(self.test.samples)

    def other_layers(self) -> None:
        """The layers serving does not use: one `patchx run` of one epoch on this
        workload's files, which loads data, trains, and persists a bundle."""
        with contextlib.redirect_stdout(io.StringIO()):
            patchx.cli.main(run_argv(self.work / "data", self.work / "runs", "other-layers", epochs=1))

    def refit(self, rec: Recorder, result) -> None:
        """svm, forest (100 trees) and trivial refitted on the cached vectors and
        scored on the cached test vectors; the network does no work here."""
        refits = {}
        with rec.timed("refit"):
            for kind, spec in REFIT_SPECS.items():
                refits[kind] = patchx.pipeline.refit_shallow(result, spec, self.test)
        chance = max(self.labels.mean(), 1 - self.labels.mean())
        for kind, r in refits.items():
            accuracy = r.metrics["test_accuracy"]
            rec.check(accuracy > chance, f"{kind} accuracy {accuracy} not above chance {chance}")
        again = patchx.pipeline.refit_shallow(result, REFIT_SPECS["forest"], self.test)
        first, second = (predict_all(r.bundle.shallow_model, result.test_vectors)
                         for r in (refits["forest"], again))
        rec.check(np.array_equal(first, second), "two forest fits of one seed predict differently")


WORKLOADS = {w.name: w for w in (Train, Infer)}
