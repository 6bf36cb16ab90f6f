"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavyweight end-to-end pipeline (criterion 5) is trained once per module
run and shared with the explanation-coherence and boundary-probe criteria.
All seeds are fixed, so every gate here is reproducible bit for bit.
"""

import time

import numpy as np
import pytest

from patchx.cli import main as cli_main
from patchx.data import AnomalyGenSpec, Dataset, TimeSeriesSample, generate_anomaly
from patchx.explain import boundary_probe, explain_sample
from patchx.metadata import extract_all
from patchx.neuralnet import (
    NetworkSpec,
    TrainSpec,
    gradcheck_case,
    gradient_check,
)
from patchx.patching import ConfigError, PatchConfig, enumerate_patches
from patchx.pipeline import refit_shallow, run_pipeline
from patchx.shallow import ShallowSpec, SvmSpec

from oracles import transform


def report(criterion: int, name: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:>2} {name}: {'PASS' if passed else 'FAIL'} ({detail})")


# -- shared end-to-end pipeline (criterion 5 scale) ---------------------------

CONFIGS = [PatchConfig(5, 10), PatchConfig(10, 20)]


@pytest.fixture(scope="module")
def anomaly_e2e():
    """Generator at 3500/1500/1000 with configs S5L10 + S10L20; one CNN, then
    SVM and trivial voting on top."""
    spec = AnomalyGenSpec(train_count=3500, val_count=1500, test_count=1000, seed=11)
    train, val, test = generate_anomaly(spec)
    net_spec = NetworkSpec(
        input_channels=4, input_length=50, class_count=2,
        conv_blocks=((16, 3, "relu"), (32, 3, "relu")), seed=3,
    )
    train_spec = TrainSpec(epochs=8, batch_size=64, learning_rate=1e-3,
                           early_stopping_patience=3, seed=3)
    svm_result = run_pipeline(
        train, val, test, CONFIGS,
        net_spec=net_spec, train_spec=train_spec,
        shallow_spec=ShallowSpec(kind="svm", svm=SvmSpec(standardize=True)),
    )
    trivial_result = refit_shallow(svm_result, ShallowSpec(kind="trivial"), test)
    return {"train": train, "val": val, "test": test,
            "svm": svm_result, "trivial": trivial_result}


# -- criterion 1: gradient correctness ----------------------------------------


def test_criterion_1_gradient_correctness():
    cases = {
        "conv": NetworkSpec(2, 10, 2, conv_blocks=((3, 3, "relu"),), seed=0),
        "dense": NetworkSpec(2, 8, 3, conv_blocks=(), seed=0),
        "composite": NetworkSpec(2, 12, 3, conv_blocks=((4, 3, "relu"), (5, 3, "relu")), seed=0),
    }
    t0 = time.perf_counter()
    worst = 0.0
    ok = True
    for name, spec in cases.items():
        for seed in range(10):
            net, batch = gradcheck_case(spec, seed=seed)
            assert net.flat_params.size <= 500
            check = gradient_check(net, batch, tolerance=1e-3)
            worst = max(worst, check.worst().max_rel_error)
            ok &= check.passed
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    report(1, "gradient correctness", ok,
           f"worst relative error {worst:.2e} over 3 layouts x 10 seeds in {elapsed:.1f}s")
    assert ok


# -- criterion 2: patch enumeration oracle ------------------------------------


def test_criterion_2_patch_enumeration_oracle():
    rng = np.random.default_rng(2024)
    mismatches = 0
    for _ in range(200):
        sample_length = int(rng.integers(2, 400))
        stride = int(rng.integers(1, sample_length + 1))
        length = int(rng.integers(1, sample_length + 1))
        got = enumerate_patches(sample_length, PatchConfig(stride, length))
        expected = [
            (p, p * stride, min(p * stride + length, sample_length))
            for p in range(sample_length + 1)
            if p * stride < sample_length
        ]
        mismatches += got != expected
    report(2, "patch enumeration oracle", mismatches == 0,
           f"{mismatches} mismatches over 200 random (length, stride, patch-length) triples")
    assert mismatches == 0


# -- criterion 3: transform semantics ------------------------------------------


def test_criterion_3_transform_semantics():
    rng = np.random.default_rng(33)
    flag_sets = [
        dict(attach=False, notemp=False),
        dict(attach=True, notemp=False),
        dict(attach=False, notemp=True),
        dict(attach=True, notemp=True),
    ]
    checked = 0
    for _ in range(100):
        channels = int(rng.integers(1, 4))
        length = int(rng.integers(4, 80))
        stride = int(rng.integers(1, length + 1))
        patch_len = int(rng.integers(1, length + 1))
        values = rng.normal(size=(channels, length))
        sample = TimeSeriesSample(id=0, values=values, label=1)
        for flags in flag_sets:
            config = PatchConfig(stride, patch_len, **flags)
            spans = enumerate_patches(length, config)
            coverage = np.zeros(length)
            total = np.zeros((channels, length))
            for p, start, end in spans:
                out = transform(sample, p, config)
                width = end - start
                assert out.values.shape[1] == length  # length preservation
                if flags["attach"]:
                    lo, hi = out.valid_range
                    mask = out.values[-1]
                    expected_mask = np.zeros(length)
                    expected_mask[lo:hi] = 1.0
                    np.testing.assert_array_equal(mask, expected_mask)
                    assert np.all(out.values[:channels][:, mask == 0] == 0.0)
                if flags["notemp"]:
                    # hand-shifted oracle: content moved to the frame start
                    np.testing.assert_array_equal(
                        out.values[:channels, :width], values[:, start:end])
                    assert np.all(out.values[:channels, width:] == 0.0)
                else:
                    coverage[start:end] += 1
                    total += out.values[:channels]
            if not flags["notemp"]:
                covered = coverage > 0
                np.testing.assert_allclose(
                    total[:, covered] / coverage[covered], values[:, covered],
                    atol=1e-12,
                )
            checked += 1
    report(3, "transform semantics", True,
           f"reconstruction, masks and notemp shifts verified on {checked} sample x flag cases")


# -- criterion 4: metadata oracle ----------------------------------------------


def test_criterion_4_metadata_oracle():
    rng = np.random.default_rng(44)
    worst = 0.0
    for case in range(1000):
        class_count = int(rng.integers(2, 6))
        n_configs = int(rng.integers(1, 4))
        n_patches = int(rng.integers(1, 30))
        preds = []
        for _ in range(n_patches):
            p = rng.dirichlet(np.ones(class_count))
            if case % 10 == 0:  # forced tie between the two largest entries
                top = np.argsort(p)[-2:]
                tied = (p[top[0]] + p[top[1]]) / 2.0
                p[top[0]] = p[top[1]] = tied
                p /= p.sum()
            preds.append((int(rng.integers(0, n_configs)), p))
        vector = extract_all(  # one sample whose slots carry these configs
            np.array([[p for _, p in preds]]), [k for k, _ in preds], [0], [0],
            class_count=class_count, n_configs=n_configs,
        )
        expected = np.zeros((n_configs, class_count))
        counts = np.zeros((n_configs, class_count), dtype=np.int64)
        for k, p in preds:
            winner = min(np.flatnonzero(p == p.max()))
            expected[k, winner] += p[winner]
            counts[k, winner] += 1
        worst = max(worst, float(np.abs(vector.blocks[0] - expected).max()))
        np.testing.assert_array_equal(vector.counts[0], counts)
    report(4, "metadata oracle", worst <= 1e-9,
           f"max deviation {worst:.2e} from per-patch re-summation over 1000 sets incl. ties")
    assert worst <= 1e-9


# -- criterion 5: end-to-end synthetic anomaly ---------------------------------


def test_criterion_5_end_to_end_anomaly(anomaly_e2e):
    svm_acc = anomaly_e2e["svm"].metrics["test_accuracy"]
    trivial_acc = anomaly_e2e["trivial"].metrics["test_accuracy"]
    gap = abs(svm_acc - trivial_acc)
    ok = svm_acc >= 0.95 and gap <= 0.02
    report(5, "end-to-end synthetic anomaly", ok,
           f"CNN+SVM {svm_acc:.4f} (>= 0.95), CNN+Trivial {trivial_acc:.4f}, gap {100 * gap:.2f} points (<= 2)")
    assert svm_acc >= 0.95
    assert gap <= 0.02


def test_criterion_5_patch_level_accuracy(anomaly_e2e):
    # fine-grained sanity behind criterion 5: patch predictions against the
    # generator's patch truth (peak inside the span of an anomalous sample)
    bundle = anomaly_e2e["svm"].bundle
    test = anomaly_e2e["test"]
    probs = bundle.patch_predictions(test)  # (samples, slots, classes)
    preds = np.argmax(probs, axis=2)
    spans = [
        (ci, start, end)
        for ci, config in enumerate(bundle.patch_configs)
        for _, start, end in enumerate_patches(test.length, config)
    ]
    truth = np.zeros(preds.shape, dtype=np.int64)
    for i, sample in enumerate(test.samples):
        if sample.meta is not None and sample.label == 1:
            for k, (_, start, end) in enumerate(spans):
                truth[i, k] = int(start <= sample.meta["peak_step"] < end)
    acc = float((preds == truth).mean())
    report(5, "patch-level accuracy vs generator truth", acc >= 0.95, f"{acc:.4f} >= 0.95")
    assert acc >= 0.95


# -- criterion 6: config robustness ---------------------------------------------


def make_pulse_pair_task(counts, seed, length=50, noise=0.05, amp=1.0):
    """Class 0: two unit pulses 12 steps apart (fits inside one length-20
    window); class 1: 25 apart (never shares a window of length <= 20)."""
    rng = np.random.default_rng(seed)
    out = []
    for split, n in zip(("train", "val", "test"), counts):
        samples = []
        for i in range(n):
            label = int(rng.random() < 0.5)
            gap = 25 if label else 12
            start = int(rng.integers(1, length - gap - 2 + 1))
            values = rng.normal(0, noise, size=(1, length))
            values[0, start] += amp
            values[0, start + gap] += amp
            samples.append(TimeSeriesSample(
                id=i, values=values, label=label,
                meta={"start": start, "gap": gap}))
        out.append(Dataset(samples=samples, class_count=2, split=split))
    return out


def test_criterion_6_config_robustness():
    train, val, test = make_pulse_pair_task((1500, 500, 600), seed=41)

    # brute-force verification that no length-10 window separates the classes:
    # (a) no window ever contains both pulses, (b) the best rule conditioned on
    # the exact in-window pulse pattern stays near chance.
    max_in_window = 0
    best_rule = 0.0
    for w in range(41):
        table: dict = {}
        for s in train.samples:
            a = s.meta["start"]
            b = a + s.meta["gap"]
            inside = tuple(p - w for p in (a, b) if w <= p < w + 10)
            max_in_window = max(max_in_window, len(inside))
            table.setdefault(inside, [0, 0])[s.label] += 1
        best_rule = max(best_rule, sum(max(c) for c in table.values()) / len(train.samples))
    assert max_in_window <= 1
    assert best_rule <= 0.70

    train_spec = TrainSpec(epochs=20, batch_size=64, learning_rate=2e-3,
                           early_stopping_patience=6, seed=9)
    accs = {}
    for name, configs in (("single", [PatchConfig(5, 10)]),
                          ("combined", [PatchConfig(5, 10), PatchConfig(10, 20)])):
        net_spec = NetworkSpec(input_channels=2, input_length=50, class_count=2,
                               conv_blocks=((16, 7, "relu"), (32, 7, "relu")), seed=9)
        result = run_pipeline(train, val, test, configs,
                              net_spec=net_spec, train_spec=train_spec,
                              shallow_spec=ShallowSpec(kind="svm", svm=SvmSpec(standardize=True)))
        accs[name] = result.metrics["test_accuracy"]
    gain = accs["combined"] - accs["single"]
    ok = gain >= 0.10
    report(6, "config robustness", ok,
           f"combined {accs['combined']:.4f} vs single {accs['single']:.4f}: "
           f"+{100 * gain:.1f} points (>= 10); best 10-window rule {best_rule:.3f}")
    assert ok


# -- criterion 7: transformation-flag ablation ----------------------------------


def test_criterion_7_flag_ablation():
    spec = AnomalyGenSpec(train_count=1200, val_count=400, test_count=600, seed=23)
    train, val, test = generate_anomaly(spec)
    train_spec = TrainSpec(epochs=8, batch_size=64, learning_rate=1e-3,
                           early_stopping_patience=3, seed=5)
    rows = {
        "zero": dict(attach=False, notemp=False),
        "zero+attach": dict(attach=True, notemp=False),
        "zero+notemp": dict(attach=False, notemp=True),
        "zero+attach+notemp": dict(attach=True, notemp=True),
    }
    accs = {}
    for name, flags in rows.items():
        configs = [PatchConfig(5, 10, **flags), PatchConfig(10, 20, **flags)]
        net_spec = NetworkSpec(input_channels=3 + flags["attach"], input_length=50,
                               class_count=2, conv_blocks=((16, 3, "relu"), (32, 3, "relu")),
                               seed=5)
        result = run_pipeline(train, val, test, configs,
                              net_spec=net_spec, train_spec=train_spec,
                              shallow_spec=ShallowSpec(kind="svm", svm=SvmSpec(standardize=True)))
        accs[name] = result.metrics["test_accuracy"]
    spread = max(accs.values()) - min(accs.values())
    ok = min(accs.values()) >= 0.95 and spread <= 0.02

    # the struck-out zero=False row is rejected at validation time
    with pytest.raises(ConfigError):
        PatchConfig(5, 10, zero=False, attach=True)

    detail = ", ".join(f"{k} {v:.4f}" for k, v in accs.items())
    report(7, "transformation-flag ablation", ok,
           f"{detail}; spread {100 * spread:.2f} points (<= 2); zero=False rejected")
    assert ok


# -- criterion 8: explanation coherence ------------------------------------------


def test_criterion_8_explanation_coherence(anomaly_e2e):
    bundle = anomaly_e2e["svm"].bundle
    test = anomaly_e2e["test"]
    peaked = [s for s in test.samples if s.meta is not None and s.label == 1][:100]
    assert len(peaked) == 100
    covering = [0, 0]
    excluding = [0, 0]
    for sample in peaked:
        records, _ = explain_sample(bundle, sample)
        peak = sample.meta["peak_step"]
        covers = (records.spans[:, 2] <= peak) & (peak < records.spans[:, 3])
        anomalous = records.predicted_class[0] == 1
        covering[0] += int(covers.sum())
        covering[1] += int((covers & anomalous).sum())
        excluding[0] += int((~covers).sum())
        excluding[1] += int((~covers & ~anomalous).sum())
    frac_cov = covering[1] / covering[0]
    frac_exc = excluding[1] / excluding[0]
    ok = frac_cov >= 0.90 and frac_exc >= 0.90
    report(8, "explanation coherence", ok,
           f"peak-covering -> anomaly {frac_cov:.3f}, peak-free -> normal {frac_exc:.3f} (both >= 0.90)")
    assert ok


# -- criterion 9: boundary probe ---------------------------------------------------


def test_criterion_9_boundary_probe(anomaly_e2e):
    bundle = anomaly_e2e["svm"].bundle
    test = anomaly_e2e["test"]
    factors = list(np.linspace(0.2, 2.0, 19))
    probed = [s for s in test.samples if s.meta is not None][:20]
    assert len(probed) == 20
    agreements = 0
    for sample in probed:
        position = (sample.meta["peak_channel"], sample.meta["peak_step"])
        result = boundary_probe(bundle, sample, position, factors)
        flips = []
        for f in factors:  # independent label-rule oracle on the raw values
            v = sample.values.copy()
            v[position] *= f
            mean = v.mean(axis=1, keepdims=True)
            std = v.std(axis=1, keepdims=True)
            flips.append(int(np.any(v > mean + 4.0 * std)))
        oracle = next((factors[i] for i in range(len(flips)) if flips[i] != flips[0]), None)
        agreements += result.ground_truth_flip_factor() == oracle
    report(9, "boundary probe", agreements == 20,
           f"flip factor agrees with the label-rule oracle on {agreements}/20 samples")
    assert agreements == 20


# -- criterion 10: determinism -------------------------------------------------------


def test_criterion_10_determinism(tmp_path):
    args = [
        "run", "--out", str(tmp_path),
        "--train-count", "150", "--val-count", "60", "--test-count", "80",
        "--epochs", "3", "--patience", "2", "--filters", "8,16", "--seed", "21",
    ]
    assert cli_main(args + ["--run-name", "first"]) == 0
    assert cli_main(args + ["--run-name", "second"]) == 0
    identical = True
    for name in ("vectors_train.csv", "vectors_test.csv", "bundle.pchx", "metrics.json"):
        a = (tmp_path / "first" / name).read_bytes()
        b = (tmp_path / "second" / name).read_bytes()
        identical &= a == b
    report(10, "determinism", identical,
           "metadata vectors, bundle and metrics byte-identical over two serial runs")
    assert identical


# -- criterion 11: scaling trend ------------------------------------------------------


def test_criterion_11_scaling_trend():
    from patchx.data import normalization_stats, znormalize
    from patchx.neuralnet import build_network, train as train_network
    from patchx.patching import build_patch_arrays

    sizes = [1000, 2000, 4000, 8000]
    times = []
    for n in sizes:
        spec = AnomalyGenSpec(train_count=n, val_count=200, test_count=10, seed=13)
        train, val, _ = generate_anomaly(spec)
        stats = normalization_stats(train)
        net = build_network(NetworkSpec(4, 50, 2, conv_blocks=((8, 3, "relu"), (16, 3, "relu")), seed=1))
        train_patches, val_patches = [
            build_patch_arrays(znormalize(ds.values_array(), stats), ds.labels_array(), CONFIGS, net.halo)
            for ds in (train, val)]
        t0 = time.perf_counter()
        train_network(net, train_patches, val_patches,
                      TrainSpec(epochs=2, batch_size=64, learning_rate=1e-3,
                                early_stopping_patience=1, seed=1))
        times.append(time.perf_counter() - t0)
    slope = float(np.polyfit(np.log(sizes), np.log(times), 1)[0])
    ok = slope <= 1.2
    detail = ", ".join(f"{n}: {t:.2f}s" for n, t in zip(sizes, times))
    report(11, "scaling trend", ok, f"log-log slope {slope:.3f} <= 1.2 ({detail})")
    assert ok
