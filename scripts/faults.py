"""Seconds, minor page faults and max RSS of each stage of one training run,
or of serving a saved bundle.

    python3 scripts/faults.py [--workload {train,infer}] [--seed N]

Both run with one BLAS thread, on the anomaly generator (3 channels, 50
steps), configs 5:10,10:20 with the mask channel, conv blocks 16/32 of kernel
3 and a standardized SVM: the benchmark's shapes.

train draws 3500/1500/1000 samples, writes them with `save_dataset` to a
temporary directory and reads them back with `load_dataset` (the load
stage). It then runs one `run_pipeline` on what was read, in this fresh
process, 2 epochs without early stopping, as `patchx run --source files`
does. The stage functions are wrapped from outside, at the names their
callers look up, so the script runs unchanged against any checkout that has
them. A stage called inside another is counted in the outer one only.

infer trains a one-epoch bundle on 1000/300 samples in a child process and
saves it to a temporary directory. This process then draws the 2,000 test
samples, loads the bundle and runs two `predict_dataset` passes over them,
each counted as a stage.

For each stage it prints its seconds, the minor page faults taken during it
and the process's max RSS when it ended (`resource.getrusage`).
"""

from __future__ import annotations

import os

# One BLAS thread, pinned before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import patchx.pipeline  # noqa: E402
from patchx.bundle import PatchXBundle, load_bundle, save_bundle  # noqa: E402
from patchx.data import AnomalyGenSpec, generate_anomaly, load_dataset, save_dataset  # noqa: E402
from patchx.neuralnet import NetworkSpec, TrainSpec  # noqa: E402
from patchx.patching import PatchConfig  # noqa: E402
from patchx.shallow import ShallowSpec, SvmSpec  # noqa: E402

CONFIGS = [PatchConfig(5, 10, attach=True), PatchConfig(10, 20, attach=True)]
NET_SPEC = NetworkSpec(4, 50, 2, conv_blocks=((16, 3, "relu"), (32, 3, "relu")), seed=0)
SHALLOW_SPEC = ShallowSpec(kind="svm", svm=SvmSpec(standardize=True))
INFER_COUNTS = (1000, 300, 2000)

# (stage, owner, attribute): the functions run_pipeline calls for each stage.
STAGES = [
    ("patching", patchx.pipeline, "normalization_stats"),
    ("patching", patchx.pipeline, "znormalize"),
    ("patching", patchx.pipeline, "build_patch_arrays"),
    ("network_train", patchx.pipeline.neuralnet, "train"),
    ("train_vectors", PatchXBundle, "vectors"),
    ("shallow_fit", patchx.pipeline, "fit"),
    ("test_inference", PatchXBundle, "predict_dataset"),
]


def usage() -> tuple[float, int, float]:
    """(seconds, minor faults, max RSS in MB) of this process so far."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return perf_counter(), ru.ru_minflt, ru.ru_maxrss / 1024


def wrap(totals: dict, active: list, stage: str, owner, attr: str) -> None:
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        if active:  # inside another stage, which counts it
            return original(*args, **kwargs)
        active.append(stage)
        t0, faults0, _ = usage()
        try:
            return original(*args, **kwargs)
        finally:
            t1, faults1, rss = usage()
            active.pop()
            seconds, faults, _ = totals.get(stage, (0.0, 0, 0.0))
            totals[stage] = (seconds + t1 - t0, faults + faults1 - faults0, rss)

    setattr(owner, attr, wrapper)


def print_table(rows: list[tuple[str, float, int, float]]) -> None:
    print(f"{'stage':<16} {'seconds':>8} {'minor faults':>13} {'max RSS MB':>11}")
    for stage, seconds, faults, rss in rows:
        print(f"{stage:<16} {seconds:>8.3f} {faults:>13} {rss:>11.1f}")


def read_back(seed: int) -> tuple[list, tuple[str, float, int, float]]:
    """The drawn splits written and read back, and the load stage's row."""
    names = ("train", "val", "test")
    with tempfile.TemporaryDirectory() as tmp:
        for dataset in generate_anomaly(AnomalyGenSpec(3500, 1500, 1000, seed=seed)):
            save_dataset(dataset, Path(tmp) / f"{dataset.split}.csv")
        t0, faults0, _ = usage()
        splits = [load_dataset(Path(tmp) / f"{name}.csv", split=name) for name in names]
        t1, faults1, rss = usage()
    return splits, ("load", t1 - t0, faults1 - faults0, rss)


def run_train(seed: int) -> None:
    (train, val, test), load = read_back(seed)
    train_spec = TrainSpec(epochs=2, early_stopping_patience=0, seed=0)
    totals: dict = {}
    active: list = []
    for stage, owner, attr in STAGES:
        wrap(totals, active, stage, owner, attr)
    _, faults0, rss0 = usage()
    t0 = perf_counter()
    result = patchx.pipeline.run_pipeline(train, val, test, CONFIGS, NET_SPEC, train_spec, SHALLOW_SPEC)
    whole, faults, rss = usage()
    print(f"before run_pipeline: max RSS {rss0:.1f} MB")
    stages = dict.fromkeys(stage for stage, _, _ in STAGES)
    print_table([load] + [(stage, *totals[stage]) for stage in stages]
                + [("run_pipeline", whole - t0, faults - faults0, rss)])
    print(f"test_accuracy {result.metrics['test_accuracy']!r}")


def save_infer_bundle(seed: int, path: str) -> None:
    train, val, _ = generate_anomaly(AnomalyGenSpec(*INFER_COUNTS, seed=seed))
    train_spec = TrainSpec(epochs=1, early_stopping_patience=0, seed=0)
    result = patchx.pipeline.run_pipeline(train, val, None, CONFIGS, NET_SPEC, train_spec, SHALLOW_SPEC)
    save_bundle(result.bundle, path)


def run_infer(seed: int) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "bundle.pchx")
        subprocess.run([sys.executable, __file__, "--seed", str(seed), "--save-bundle", path], check=True)
        test = generate_anomaly(AnomalyGenSpec(*INFER_COUNTS, seed=seed))[2]
        _, _, rss0 = usage()
        rows = []
        for stage in ("load_bundle", "predict_1", "predict_2"):
            t0, faults0, _ = usage()
            if stage == "load_bundle":
                bundle = load_bundle(path)
            else:
                preds, _ = bundle.predict_dataset(test)
            t1, faults1, rss = usage()
            rows.append((stage, t1 - t0, faults1 - faults0, rss))
    print(f"before load_bundle: max RSS {rss0:.1f} MB")
    print_table(rows)
    print(f"test_accuracy {float((preds == [s.label for s in test.samples]).mean())!r}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("train", "infer"), default="train")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--save-bundle", help=argparse.SUPPRESS)  # the infer workload's child process
    args = parser.parse_args()
    if args.save_bundle:
        save_infer_bundle(args.seed, args.save_bundle)
    elif args.workload == "infer":
        run_infer(args.seed)
    else:
        run_train(args.seed)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
