"""Command-line workflow: generate, run, bench, explain, probe, histogram, gradcheck.

Configuration comes from an INI file with sections [data] [patching] [network]
[train] [shallow]; every key can be overridden by a flag. The PATCHX_SEED
environment variable overrides the configured seed when no --seed flag is
given. Each run writes into its own directory with a manifest and a resolved
copy of the configuration; metrics files contain no timestamps, so reruns of
the same config are byte-identical.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from .bundle import load_bundle, save_bundle
from .data import (
    AnomalyGenSpec,
    Dataset,
    generate_anomaly,
    load_dataset,
    save_dataset,
)
from .explain import (
    boundary_probe,
    confidence_histogram,
    explain_sample,
    mislabel_report,
    save_records,
    save_report,
)
from .metadata import save_vectors
from .neuralnet import NetworkSpec, TrainSpec, gradcheck_case, gradient_check
from .patching import ConfigError, PatchConfig
from .pipeline import default_network_spec, refit_shallow, run_pipeline, train_blackbox
from .shallow import ForestSpec, ShallowSpec, SvmSpec, TrivialSpec

DEFAULTS = {
    "data": {
        "source": "generate",
        "dir": "",
        "train_count": "1000",
        "val_count": "300",
        "test_count": "400",
        "length": "50",
        "channels": "3",
        "noise_sigma": "1.0",
        "peak_min": "5.0",
        "peak_max": "10.0",
        "sigma_multiplier": "4.0",
        "normalize": "true",
        "seed": "0",
    },
    "patching": {
        "configs": "5:10,10:20",
        "zero": "true",
        "attach": "true",
        "notemp": "false",
    },
    "network": {
        "filters": "32,64,64",
        "kernel": "3",
    },
    "train": {
        "epochs": "50",
        "batch_size": "64",
        "learning_rate": "0.001",
        "optimizer": "adam",
        "patience": "5",
    },
    "shallow": {
        "kind": "svm",
        "c_reg": "1.0",
        "svm_epochs": "200",
        "svm_learning_rate": "0.1",
        "standardize": "false",
        "trees": "100",
        "max_depth": "0",
        "min_leaf": "1",
        "feature_subsample": "sqrt",
        "trivial_mode": "logodds",
        "collapse": "false",
        "normalize_features": "false",
    },
}


def _bool(text: str) -> bool:
    if text.lower() in ("1", "true", "yes", "on"):
        return True
    if text.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def load_config(path: str | None) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    parser.read_dict(DEFAULTS)
    if path:
        if not Path(path).exists():
            raise FileNotFoundError(f"config file {path} does not exist")
        parser.read(path)
    return parser


def apply_overrides(config: configparser.ConfigParser, args: argparse.Namespace) -> None:
    """Flags and PATCHX_SEED override config values; flags win over the env var."""
    mapping = {
        "train_count": ("data", "train_count"),
        "val_count": ("data", "val_count"),
        "test_count": ("data", "test_count"),
        "length": ("data", "length"),
        "channels": ("data", "channels"),
        "noise_sigma": ("data", "noise_sigma"),
        "peak_min": ("data", "peak_min"),
        "peak_max": ("data", "peak_max"),
        "sigma_multiplier": ("data", "sigma_multiplier"),
        "data_dir": ("data", "dir"),
        "source": ("data", "source"),
        "normalize": ("data", "normalize"),
        "patches": ("patching", "configs"),
        "zero": ("patching", "zero"),
        "attach": ("patching", "attach"),
        "notemp": ("patching", "notemp"),
        "filters": ("network", "filters"),
        "kernel": ("network", "kernel"),
        "epochs": ("train", "epochs"),
        "batch_size": ("train", "batch_size"),
        "learning_rate": ("train", "learning_rate"),
        "optimizer": ("train", "optimizer"),
        "patience": ("train", "patience"),
        "shallow": ("shallow", "kind"),
        "c_reg": ("shallow", "c_reg"),
        "svm_epochs": ("shallow", "svm_epochs"),
        "svm_learning_rate": ("shallow", "svm_learning_rate"),
        "standardize": ("shallow", "standardize"),
        "trivial_mode": ("shallow", "trivial_mode"),
        "trees": ("shallow", "trees"),
        "max_depth": ("shallow", "max_depth"),
        "min_leaf": ("shallow", "min_leaf"),
        "feature_subsample": ("shallow", "feature_subsample"),
        "collapse": ("shallow", "collapse"),
        "normalize_features": ("shallow", "normalize_features"),
    }
    env_seed = os.environ.get("PATCHX_SEED")
    if env_seed is not None:
        config.set("data", "seed", env_seed)
    for attr, (section, key) in mapping.items():
        value = getattr(args, attr, None)
        if value is not None:
            config.set(section, key, str(value))
    if getattr(args, "seed", None) is not None:
        config.set("data", "seed", str(args.seed))


def parse_patch_tokens(
    tokens: str, attach: bool, notemp: bool, zero: bool = True
) -> list[PatchConfig]:
    """Parse 'stride:length' tokens, e.g. '5:10,10:20'; configs are validated
    immediately (zero=false is rejected here)."""
    configs = []
    for token in tokens.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            stride, length = (int(v) for v in token.split(":"))
        except ValueError:
            raise ConfigError(f"bad patch token {token!r}; expected 'stride:length'") from None
        config = PatchConfig(stride=stride, length=length, zero=zero, attach=attach, notemp=notemp)
        config.validate()
        configs.append(config)
    if not configs:
        raise ConfigError("no patch configs given")
    return configs


def build_specs(config: configparser.ConfigParser):
    seed = config.getint("data", "seed")
    zero = _bool(config.get("patching", "zero"))
    attach = _bool(config.get("patching", "attach"))
    notemp = _bool(config.get("patching", "notemp"))
    patch_configs = parse_patch_tokens(config.get("patching", "configs"), attach, notemp, zero=zero)
    filters = [int(v) for v in config.get("network", "filters").split(",") if v.strip()]
    kernel = config.getint("network", "kernel")
    conv_blocks = tuple((f, kernel, "relu") for f in filters)
    train_spec = TrainSpec(
        epochs=config.getint("train", "epochs"),
        batch_size=config.getint("train", "batch_size"),
        learning_rate=config.getfloat("train", "learning_rate"),
        optimizer=config.get("train", "optimizer"),
        early_stopping_patience=config.getint("train", "patience"),
        seed=seed,
    )
    max_depth = config.getint("shallow", "max_depth")
    shallow_spec = ShallowSpec(
        kind=config.get("shallow", "kind"),
        svm=SvmSpec(
            c_reg=config.getfloat("shallow", "c_reg"),
            epochs=config.getint("shallow", "svm_epochs"),
            learning_rate=config.getfloat("shallow", "svm_learning_rate"),
            seed=seed,
            standardize=_bool(config.get("shallow", "standardize")),
        ),
        forest=ForestSpec(
            trees=config.getint("shallow", "trees"),
            max_depth=None if max_depth <= 0 else max_depth,
            min_leaf=config.getint("shallow", "min_leaf"),
            feature_subsample=config.get("shallow", "feature_subsample"),
            seed=seed,
        ),
        trivial=TrivialSpec(mode=config.get("shallow", "trivial_mode")),
    )
    return patch_configs, conv_blocks, train_spec, shallow_spec


def load_run_datasets(config: configparser.ConfigParser) -> tuple[Dataset, Dataset, Dataset]:
    source = config.get("data", "source")
    if source == "generate":
        spec = AnomalyGenSpec(
            train_count=config.getint("data", "train_count"),
            val_count=config.getint("data", "val_count"),
            test_count=config.getint("data", "test_count"),
            length=config.getint("data", "length"),
            channels=config.getint("data", "channels"),
            noise_sigma=config.getfloat("data", "noise_sigma"),
            peak_amplitude_range=(
                config.getfloat("data", "peak_min"),
                config.getfloat("data", "peak_max"),
            ),
            sigma_multiplier=config.getfloat("data", "sigma_multiplier"),
            seed=config.getint("data", "seed"),
        )
        return generate_anomaly(spec)
    if source == "files":
        directory = Path(config.get("data", "dir"))
        return (
            load_dataset(directory / "train.csv", split="train"),
            load_dataset(directory / "val.csv", split="val"),
            load_dataset(directory / "test.csv", split="test"),
        )
    raise ValueError(f"unknown data source {source!r}; use 'generate' or 'files'")


def make_run_dir(out: str, name: str | None) -> Path:
    base = Path(out)
    base.mkdir(parents=True, exist_ok=True)
    if name is None:
        name = time.strftime("run-%Y%m%d-%H%M%S")
        candidate = base / name
        suffix = 1
        while candidate.exists():
            candidate = base / f"{name}-{suffix}"
            suffix += 1
        run_dir = candidate
    else:
        run_dir = base / name
    run_dir.mkdir(parents=True, exist_ok=True)
    return run_dir


def write_json(payload: dict, path: Path) -> None:
    with path.open("w", encoding="utf-8") as f:
        json.dump(payload, f, sort_keys=True, indent=2)
        f.write("\n")


def write_manifest(run_dir: Path, command: str) -> None:
    files = sorted(p.name for p in run_dir.iterdir() if p.name != "manifest.json")
    write_json(
        {"command": command, "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
         "files": files},
        run_dir / "manifest.json",
    )


def write_resolved_config(config: configparser.ConfigParser, path: Path) -> None:
    with path.open("w", encoding="utf-8") as f:
        config.write(f)


# -- subcommands --------------------------------------------------------------


def cmd_generate(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    apply_overrides(config, args)
    train, val, test = load_run_datasets(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, ds in (("train.csv", train), ("val.csv", val), ("test.csv", test)):
        save_dataset(ds, out / name)
    counts = {ds.split: len(ds) for ds in (train, val, test)}
    print(f"wrote {counts} to {out}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    apply_overrides(config, args)
    run_dir = make_run_dir(args.out, args.run_name)
    stage = "configure"
    try:
        patch_configs, conv_blocks, train_spec, shallow_spec = build_specs(config)
        stage = "data"
        train, val, test = load_run_datasets(config)
        stage = "pipeline"
        net_spec = default_network_spec(
            train, patch_configs, seed=config.getint("data", "seed"), conv_blocks=conv_blocks
        )
        result = run_pipeline(
            train, val, test, patch_configs,
            net_spec=net_spec, train_spec=train_spec, shallow_spec=shallow_spec,
            normalize=_bool(config.get("data", "normalize")),
            collapse=_bool(config.get("shallow", "collapse")),
            normalize_features=_bool(config.get("shallow", "normalize_features")),
        )
        stage = "persist"
        write_resolved_config(config, run_dir / "resolved_config.ini")
        save_bundle(result.bundle, run_dir / "bundle.pchx")
        write_json(result.metrics, run_dir / "metrics.json")
        write_json(result.timing, run_dir / "timing.json")
        with (run_dir / "metrics.csv").open("w", encoding="utf-8") as f:
            f.write("variant,test_accuracy\n")
            f.write(f"cnn+{result.metrics['shallow_kind']},{result.metrics.get('test_accuracy', '')!r}\n")
        with (run_dir / "train_log.csv").open("w", encoding="utf-8") as f:
            f.write("epoch,train_loss,val_accuracy\n")
            for i, (loss, acc) in enumerate(zip(result.train_log.train_loss, result.train_log.val_accuracy)):
                f.write(f"{i},{loss!r},{acc!r}\n")
        save_vectors(result.train_vectors, run_dir / "vectors_train.csv")
        if result.test_vectors is not None:
            save_vectors(result.test_vectors, run_dir / "vectors_test.csv")
        write_manifest(run_dir, "run")
    except Exception as err:
        print(f"run aborted during stage {stage!r}: {err}", file=sys.stderr)
        return 1
    print(f"run directory: {run_dir}")
    if "test_accuracy" in result.metrics:
        print(f"test accuracy ({result.metrics['shallow_kind']}): {result.metrics['test_accuracy']:.4f}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    apply_overrides(config, args)
    run_dir = make_run_dir(args.out, args.run_name)
    _, conv_blocks, train_spec, shallow_spec = build_specs(config)
    train, val, test = load_run_datasets(config)
    seed = config.getint("data", "seed")

    cells = []
    for token in args.grid.split("|"):
        token = token.strip()
        if not token:
            continue
        flags = {"attach": _bool(config.get("patching", "attach")),
                 "notemp": _bool(config.get("patching", "notemp"))}
        if "@" in token:
            token, flag_part = token.split("@", 1)
            names = {f.strip() for f in flag_part.split(",") if f.strip()}
            unknown = names - {"attach", "notemp"}
            if unknown:
                raise ConfigError(f"unknown flags {sorted(unknown)} in grid cell")
            flags = {"attach": "attach" in names, "notemp": "notemp" in names}
        cells.append((token.strip(), flags))

    report: dict = {"cells": [], "blackbox": None}
    blackbox_spec = default_network_spec(train, [], seed=seed, conv_blocks=conv_blocks)
    bb = train_blackbox(train, val, test, net_spec=blackbox_spec, train_spec=train_spec)
    report["blackbox"] = {"metrics": bb.metrics, "timing": bb.timing}

    for token, flags in cells:
        cell_name = token + ("@" + ",".join(k for k in ("attach", "notemp") if flags[k]) if any(flags.values()) else "")
        try:
            patch_configs = parse_patch_tokens(token, flags["attach"], flags["notemp"])
            net_spec = default_network_spec(train, patch_configs, seed=seed, conv_blocks=conv_blocks)
            base = run_pipeline(
                train, val, test, patch_configs,
                net_spec=net_spec, train_spec=train_spec,
                shallow_spec=ShallowSpec(kind="svm", svm=shallow_spec.svm),
            )
            variants = {"cnn+svm": {"metrics": base.metrics, "timing": base.timing}}
            for kind in ("forest", "trivial"):
                sub = ShallowSpec(kind=kind, svm=shallow_spec.svm,
                                  forest=shallow_spec.forest, trivial=shallow_spec.trivial)
                refit = refit_shallow(base, sub, test)
                variants[f"cnn+{kind if kind != 'forest' else 'rf'}"] = {
                    "metrics": refit.metrics, "timing": refit.timing,
                }
            report["cells"].append({"configs": cell_name, "variants": variants})
        except Exception as err:
            report["cells"].append({"configs": cell_name, "error": str(err)})
            print(f"cell {cell_name!r} failed: {err}", file=sys.stderr)

    write_resolved_config(config, run_dir / "resolved_config.ini")
    write_json(report, run_dir / "bench_report.json")
    lines = ["variant              " + "".join(f"{c['configs']:>24}" for c in report["cells"])]
    for variant in ("cnn+svm", "cnn+rf", "cnn+trivial"):
        row = f"{variant:<20}"
        for cell in report["cells"]:
            if "error" in cell:
                row += f"{'error':>24}"
            else:
                row += f"{cell['variants'][variant]['metrics'].get('test_accuracy', float('nan')):>24.4f}"
        lines.append(row)
    lines.append(f"{'blackbox cnn':<20}{bb.metrics.get('test_accuracy', float('nan')):>24.4f}")
    lines.append("")
    lines.append("timing (seconds): T = full training, I = test inference")
    for cell in report["cells"]:
        if "error" in cell:
            continue
        timing = cell["variants"]["cnn+svm"]["timing"]
        lines.append(
            f"  {cell['configs']:<22} T={timing['train_seconds']:.2f} I={timing.get('inference_seconds', float('nan')):.2f}"
        )
    lines.append(
        f"  {'blackbox':<22} T={bb.timing['train_seconds']:.2f} I={bb.timing.get('inference_seconds', float('nan')):.2f}"
    )
    (run_dir / "bench_table.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    write_manifest(run_dir, "bench")
    print("\n".join(lines))
    print(f"bench directory: {run_dir}")
    return 0


def _load_single_dataset(path: str) -> Dataset:
    return load_dataset(path, split="test")


def cmd_explain(args: argparse.Namespace) -> int:
    bundle = load_bundle(args.bundle)
    dataset = _load_single_dataset(args.data)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.mislabels:
        entries = mislabel_report(bundle, dataset)
        save_report(
            {"report": "mislabels", "count": len(entries),
             "entries": [e.to_dict() for e in entries]},
            out / "mislabel_report.json",
        )
        print(f"{len(entries)} misclassified samples -> {out / 'mislabel_report.json'}")
        return 0
    ids = {int(v) for v in args.sample_id}
    chosen = [s for s in dataset.samples if s.id in ids]
    if not chosen:
        print(f"no samples with ids {sorted(ids)} in {args.data}", file=sys.stderr)
        return 1
    for sample in chosen:
        records, prediction = explain_sample(bundle, sample)
        save_records(records, out / f"records_{sample.id}.csv")
        save_report(
            {
                "report": "sample-explanation",
                "sample_id": sample.id,
                "true_label": sample.label,
                "prediction": prediction,
                "overlay": [
                    {"start": r.span[0], "end": r.span[1], "class": r.predicted_class,
                     "alpha": r.overlay_alpha()}
                    for r in records
                ],
                "records": [r.to_dict() for r in records],
            },
            out / f"explanation_{sample.id}.json",
        )
    print(f"explained {len(chosen)} sample(s) -> {out}")
    return 0


def cmd_probe(args: argparse.Namespace) -> int:
    bundle = load_bundle(args.bundle)
    dataset = _load_single_dataset(args.data)
    sample = next((s for s in dataset.samples if s.id == args.sample_id), None)
    if sample is None:
        print(f"sample {args.sample_id} not found", file=sys.stderr)
        return 1
    if args.position:
        channel, step = (int(v) for v in args.position.split(","))
    else:
        # default to the most extreme point by the label rule's z-score
        mean = sample.values.mean(axis=1, keepdims=True)
        std = np.maximum(sample.values.std(axis=1, keepdims=True), 1e-12)
        z = (sample.values - mean) / std
        channel, step = np.unravel_index(int(np.argmax(z)), z.shape)
    factors = [float(v) for v in args.factors.split(",")]
    result = boundary_probe(
        bundle, sample, (int(channel), int(step)), factors,
        sigma_multiplier=args.sigma_multiplier,
    )
    save_report(result.to_dict(), args.out)
    print(
        f"probed sample {sample.id} at channel {channel}, step {step}; "
        f"ground-truth flip factor: {result.ground_truth_flip_factor()}"
    )
    return 0


def cmd_histogram(args: argparse.Namespace) -> int:
    bundle = load_bundle(args.bundle)
    dataset = _load_single_dataset(args.data)
    report = confidence_histogram(bundle, dataset, bin_width=args.bin_width, per_class=args.per_class)
    save_report(report.to_dict(), args.out)
    print(f"{report.total} patch confidences binned -> {args.out}")
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    cases = {
        "conv-only": NetworkSpec(2, 16, 3, conv_blocks=((4, 3, "relu"),), seed=0),
        "dense-softmax": NetworkSpec(3, 12, 3, conv_blocks=(), seed=0),
        "composite": NetworkSpec(2, 16, 3, conv_blocks=((4, 3, "relu"), (5, 3, "relu")), seed=0),
    }
    failed = False
    for name, spec in cases.items():
        net, x, y = gradcheck_case(spec, seed=args.seed)
        report = gradient_check(net, (x, y), tolerance=args.tolerance)
        print(f"[{name}] {report.summary()}")
        failed |= not report.passed
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="patchx", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="INI config file")
        p.add_argument("--seed", type=int, help="run seed (overrides config and PATCHX_SEED)")
        p.add_argument("--train-count", dest="train_count", type=int)
        p.add_argument("--val-count", dest="val_count", type=int)
        p.add_argument("--test-count", dest="test_count", type=int)
        p.add_argument("--length", type=int)
        p.add_argument("--channels", type=int)
        p.add_argument("--noise-sigma", dest="noise_sigma", type=float)
        p.add_argument("--peak-min", dest="peak_min", type=float)
        p.add_argument("--peak-max", dest="peak_max", type=float)
        p.add_argument("--sigma-multiplier", dest="sigma_multiplier", type=float)
        p.add_argument("--source", choices=("generate", "files"))
        p.add_argument("--data-dir", dest="data_dir")
        p.add_argument("--normalize", choices=("true", "false"))
        p.add_argument("--patches", help="patch configs as stride:length tokens, e.g. 5:10,10:20")
        p.add_argument("--zero", choices=("true", "false"),
                       help="zeroing outside the patch is mandatory; 'false' is rejected")
        p.add_argument("--attach", choices=("true", "false"))
        p.add_argument("--notemp", choices=("true", "false"))
        p.add_argument("--filters", help="conv filters, e.g. 32,64,64")
        p.add_argument("--kernel", type=int)
        p.add_argument("--epochs", type=int)
        p.add_argument("--batch-size", dest="batch_size", type=int)
        p.add_argument("--learning-rate", dest="learning_rate", type=float)
        p.add_argument("--optimizer", choices=("adam", "sgd-momentum"))
        p.add_argument("--patience", type=int)
        p.add_argument("--shallow", choices=("svm", "forest", "trivial"))
        p.add_argument("--c-reg", dest="c_reg", type=float)
        p.add_argument("--svm-epochs", dest="svm_epochs", type=int)
        p.add_argument("--svm-learning-rate", dest="svm_learning_rate", type=float)
        p.add_argument("--standardize", choices=("true", "false"))
        p.add_argument("--trivial-mode", dest="trivial_mode",
                       choices=("occurrence", "confidence-sum", "logodds"))
        p.add_argument("--trees", type=int)
        p.add_argument("--max-depth", dest="max_depth", type=int)
        p.add_argument("--min-leaf", dest="min_leaf", type=int)
        p.add_argument("--feature-subsample", dest="feature_subsample", choices=("sqrt", "all"))
        p.add_argument("--collapse", choices=("true", "false"))
        p.add_argument("--normalize-features", dest="normalize_features", choices=("true", "false"))

    p_gen = sub.add_parser("generate", help="write synthetic anomaly datasets as delimited text")
    add_common(p_gen)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_generate)

    p_run = sub.add_parser("run", help="execute the full pipeline and persist a bundle")
    add_common(p_run)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--run-name", dest="run_name")
    p_run.set_defaults(func=cmd_run)

    p_bench = sub.add_parser("bench", help="benchmark a grid of patch configs and variants")
    add_common(p_bench)
    p_bench.add_argument("--out", required=True)
    p_bench.add_argument("--run-name", dest="run_name")
    p_bench.add_argument(
        "--grid", default="5:10|10:20|5:10,10:20",
        help="cells separated by '|'; configs within a cell by ','; optional '@attach,notemp' flags",
    )
    p_bench.set_defaults(func=cmd_bench)

    p_explain = sub.add_parser("explain", help="export per-patch explanation records")
    p_explain.add_argument("--bundle", required=True)
    p_explain.add_argument("--data", required=True)
    p_explain.add_argument("--sample-id", dest="sample_id", action="append", default=[])
    p_explain.add_argument("--mislabels", action="store_true")
    p_explain.add_argument("--out", required=True)
    p_explain.set_defaults(func=cmd_explain)

    p_probe = sub.add_parser("probe", help="class-boundary probe around a peak")
    p_probe.add_argument("--bundle", required=True)
    p_probe.add_argument("--data", required=True)
    p_probe.add_argument("--sample-id", dest="sample_id", type=int, required=True)
    p_probe.add_argument("--position", help="channel,step of the point to scale")
    p_probe.add_argument("--factors", default="0.25,0.5,0.75,1.0,1.25,1.5,1.75,2.0")
    p_probe.add_argument("--sigma-multiplier", dest="sigma_multiplier", type=float, default=4.0)
    p_probe.add_argument("--out", required=True)
    p_probe.set_defaults(func=cmd_probe)

    p_hist = sub.add_parser("histogram", help="patch-confidence histogram over a dataset")
    p_hist.add_argument("--bundle", required=True)
    p_hist.add_argument("--data", required=True)
    p_hist.add_argument("--bin-width", dest="bin_width", type=float, default=0.05)
    p_hist.add_argument("--per-class", dest="per_class", action="store_true")
    p_hist.add_argument("--out", required=True)
    p_hist.set_defaults(func=cmd_histogram)

    p_grad = sub.add_parser("gradcheck", help="verify analytic gradients against finite differences")
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument("--tolerance", type=float, default=1e-3)
    p_grad.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
