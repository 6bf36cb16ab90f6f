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
from dataclasses import replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .bundle import BundleError, load_bundle, save_bundle
from .data import (
    DEFAULT_SIGMA_MULTIPLIER, AnomalyGenSpec, Dataset, ParseError, SplitError, check_splits, generate_anomaly,
    load_dataset, save_dataset,
)
from .explain import (
    boundary_probe, confidence_histogram, explain_sample, mislabel_report, save_records,
)
from .metadata import save_vectors
from .neuralnet import (
    OPTIMIZERS, DimensionError, NetworkSpec, TrainingError, TrainSpec, gradcheck_case, gradient_check,
)
from .patching import ConfigError, PatchConfig, patch_spans
from .pipeline import default_network_spec, refit_shallow, run_pipeline
from .shallow import (
    FEATURE_SUBSAMPLES, KINDS, TRIVIAL_MODES, ForestSpec, ShallowSpec, SvmSpec, TrivialSpec, check_train_classes,
)


def _bool(text: str) -> bool:
    if text.lower() in ("1", "true", "yes", "on"):
        return True
    if text.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _seed(text: str) -> int:
    """An integer >= 0, as numpy's generators take."""
    value = int(text)
    if value < 0:
        raise ValueError(f"negative seed {value}")
    return value


def _ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def _position(text: str) -> tuple[int, int]:
    try:
        channel, step = (int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not two integers 'channel,step'") from None
    return channel, step


def _positive(text: str) -> float:
    """A finite number > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not 0 < value < np.inf:
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number > 0")
    return value


def _factors(text: str) -> list[float]:
    try:
        factors = [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated list of numbers") from None
    if not all(np.isfinite(factors)) or any(b <= a for a, b in zip(factors, factors[1:])):
        raise argparse.ArgumentTypeError(f"{text!r} is not a strictly increasing list of finite numbers")
    return factors


class Option(NamedTuple):
    """One config key: its INI section and name, its flag, its INI default,
    and its type (int, float, str, _bool, _seed or _ints) or tuple of choices."""

    section: str
    key: str
    flag: str
    default: str
    kind: Callable | tuple[str, ...]
    help: str | None = None


# The INI defaults, the flags shared by generate/run/bench and the override
# loop are all built from this table; rows keep the resolved_config.ini order.
OPTIONS = (
    Option("data", "source", "--source", "generate", ("generate", "files")),
    Option("data", "dir", "--data-dir", "", str),
    Option("data", "train_count", "--train-count", "1000", int),
    Option("data", "val_count", "--val-count", "300", int),
    Option("data", "test_count", "--test-count", "400", int),
    Option("data", "length", "--length", "50", int),
    Option("data", "channels", "--channels", "3", int),
    Option("data", "noise_sigma", "--noise-sigma", "1.0", float),
    Option("data", "peak_min", "--peak-min", "5.0", float),
    Option("data", "peak_max", "--peak-max", "10.0", float),
    Option("data", "sigma_multiplier", "--sigma-multiplier", str(DEFAULT_SIGMA_MULTIPLIER), float),
    Option("data", "normalize", "--normalize", "true", _bool),
    Option("data", "seed", "--seed", "0", _seed, "run seed (overrides config and PATCHX_SEED)"),
    Option("patching", "configs", "--patches", "5:10,10:20", str,
           "patch configs as stride:length tokens, e.g. 5:10,10:20"),
    Option("patching", "zero", "--zero", "true", _bool,
           "zeroing outside the patch is mandatory; 'false' is rejected"),
    Option("patching", "attach", "--attach", "true", _bool),
    Option("patching", "notemp", "--notemp", "false", _bool),
    Option("network", "filters", "--filters", "32,64,64", _ints, "conv filters, e.g. 32,64,64"),
    Option("network", "kernel", "--kernel", "3", int),
    Option("train", "epochs", "--epochs", "50", int),
    Option("train", "batch_size", "--batch-size", "64", int),
    Option("train", "learning_rate", "--learning-rate", "0.001", float),
    Option("train", "optimizer", "--optimizer", "adam", OPTIMIZERS),
    Option("train", "patience", "--patience", "5", int),
    Option("shallow", "kind", "--shallow", "svm", KINDS),
    Option("shallow", "c_reg", "--c-reg", "1.0", float),
    Option("shallow", "svm_epochs", "--svm-epochs", "200", int),
    Option("shallow", "svm_learning_rate", "--svm-learning-rate", "0.1", float),
    Option("shallow", "standardize", "--standardize", "false", _bool),
    Option("shallow", "trees", "--trees", "100", int),
    Option("shallow", "max_depth", "--max-depth", "0", int),
    Option("shallow", "min_leaf", "--min-leaf", "1", int),
    Option("shallow", "feature_subsample", "--feature-subsample", "sqrt", FEATURE_SUBSAMPLES),
    Option("shallow", "trivial_mode", "--trivial-mode", "logodds", TRIVIAL_MODES),
    Option("shallow", "collapse", "--collapse", "false", _bool),
    Option("shallow", "normalize_features", "--normalize-features", "false", _bool),
)
_BY_KEY = {(o.section, o.key): o for o in OPTIONS}
_EXPECTED = {int: "an integer", float: "a number", _bool: "a boolean", _seed: "an integer >= 0",
             _ints: "a comma-separated list of integers"}


def _checked(option: Option, text: str, origin: str) -> str:
    """text, if it parses as the option's type or is one of its choices."""
    kind = option.kind
    if isinstance(kind, tuple):
        valid = text in kind
    else:
        try:
            kind(text)
            valid = True
        except ValueError:
            valid = False
    if not valid:
        expected = f"one of {', '.join(kind)}" if isinstance(kind, tuple) else _EXPECTED[kind]
        raise ConfigError(f"{origin}: [{option.section}] {option.key} = {text!r} is not {expected}")
    return text


def load_config(path: str | None) -> configparser.ConfigParser:
    """The OPTIONS defaults overlaid with an INI file whose every section, key
    and value is checked against the table. Values are literal: '%' is no
    interpolation syntax."""
    config = configparser.ConfigParser(interpolation=None)
    for o in OPTIONS:
        config.read_dict({o.section: {o.key: o.default}})
    if not path:
        return config
    if not Path(path).exists():
        raise ConfigError(f"config file {path} does not exist")
    try:  # an OSError, such as a directory's, reaches main and names the path
        config.read_string(Path(path).read_text(encoding="utf-8"), source=path)
        for section in config.sections():
            if section not in {o.section for o in OPTIONS}:
                raise ConfigError(f"{path}: unknown config section [{section}]")
            for key in config.options(section):
                if (section, key) not in _BY_KEY:
                    raise ConfigError(f"{path}: unknown config key [{section}] {key}")
                _checked(_BY_KEY[section, key], config.get(section, key), path)
    except (configparser.Error, UnicodeDecodeError) as err:
        raise ConfigError(f"{path}: {err}") from None
    return config


def apply_overrides(config: configparser.ConfigParser, args: argparse.Namespace) -> None:
    """Flags and PATCHX_SEED override config values; flags win over the env var.
    Each value is checked against its OPTIONS row."""
    env_seed = os.environ.get("PATCHX_SEED")
    if env_seed is not None:
        config.set("data", "seed", _checked(_BY_KEY["data", "seed"], env_seed, "PATCHX_SEED"))
    for o in OPTIONS:
        value = getattr(args, o.flag[2:].replace("-", "_"), None)
        if value is not None:
            config.set(o.section, o.key, _checked(o, value, o.flag))


def parse_patch_tokens(
    tokens: str, attach: bool, notemp: bool, zero: bool = True
) -> list[PatchConfig]:
    """Parse 'stride:length' tokens, e.g. '5:10,10:20'; each config checks
    itself when it is built (zero=false is rejected here)."""
    configs = []
    for token in tokens.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            stride, length = (int(v) for v in token.split(":"))
        except ValueError:
            raise ConfigError(f"bad patch token {token!r}; expected 'stride:length'") from None
        configs.append(PatchConfig(stride=stride, length=length, zero=zero, attach=attach, notemp=notemp))
    if not configs:
        raise ConfigError("no patch configs given")
    return configs


def _values(config: configparser.ConfigParser) -> dict:
    """Every config value parsed by its OPTIONS row, keyed by its key."""
    return {o.key: config.get(o.section, o.key) if isinstance(o.kind, tuple)
            else o.kind(config.get(o.section, o.key)) for o in OPTIONS}


def build_specs(config: configparser.ConfigParser):
    """The patch configs, conv blocks, train and shallow specs of a config; a
    value that a spec rejects raises ConfigError."""
    v = _values(config)
    patch_configs = parse_patch_tokens(v["configs"], v["attach"], v["notemp"], zero=v["zero"])
    train_spec = TrainSpec(
        epochs=v["epochs"], batch_size=v["batch_size"], learning_rate=v["learning_rate"],
        optimizer=v["optimizer"], early_stopping_patience=v["patience"], seed=v["seed"],
    )
    shallow_spec = ShallowSpec(
        kind=v["kind"],
        svm=SvmSpec(c_reg=v["c_reg"], epochs=v["svm_epochs"], learning_rate=v["svm_learning_rate"],
                    seed=v["seed"], standardize=v["standardize"]),
        forest=ForestSpec(trees=v["trees"], max_depth=v["max_depth"] or None,
                          min_leaf=v["min_leaf"], feature_subsample=v["feature_subsample"],
                          seed=v["seed"]),
        trivial=TrivialSpec(mode=v["trivial_mode"]),
        collapse=v["collapse"], normalize=v["normalize_features"],
    )
    conv_blocks = tuple((f, v["kernel"], "relu") for f in v["filters"])
    return patch_configs, conv_blocks, train_spec, shallow_spec


def load_run_datasets(config: configparser.ConfigParser) -> tuple[Dataset, Dataset, Dataset]:
    """The train, val and test splits; read ones that are empty or differ from
    train's shape raise SplitError (generated ones always agree), and so do
    generated ones whose values or std overflow."""
    v = _values(config)
    if v["source"] == "files":
        if not v["dir"]:
            raise ConfigError("--source files needs --data-dir (or [data] dir)")
        directory = Path(v["dir"])
        splits = tuple(load_dataset(directory / f"{s}.csv", split=s) for s in ("train", "val", "test"))
        check_splits(dict(zip(("train", "val", "test"), splits)))
        return splits
    return generate_anomaly(AnomalyGenSpec(
        train_count=v["train_count"], val_count=v["val_count"], test_count=v["test_count"],
        length=v["length"], channels=v["channels"], noise_sigma=v["noise_sigma"],
        peak_amplitude_range=(v["peak_min"], v["peak_max"]),
        sigma_multiplier=v["sigma_multiplier"], seed=v["seed"],
    ))


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


def write_json(payload: dict, path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as f:
        json.dump(payload, f, sort_keys=True, indent=2)
        f.write("\n")


def run_environment() -> dict:
    """What a run's timings depend on beyond its inputs: the numpy version,
    the BLAS numpy was built with, and the thread counts this process was
    given (None where unset). timing.json holds it; metrics.json, which
    must not vary from host to host, does not."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {var: os.environ.get(var) for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


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
    patch_configs, conv_blocks, train_spec, shallow_spec = build_specs(config)
    t0 = time.perf_counter()
    train, val, test = load_run_datasets(config)
    data_seconds = time.perf_counter() - t0
    v = _values(config)
    patch_spans(train.length, patch_configs)
    net_spec = default_network_spec(train, patch_configs, seed=v["seed"], conv_blocks=conv_blocks)
    check_train_classes(shallow_spec, train.labels_array())  # a SplitError exits 2, unlike the stage's errors
    stage = "pipeline"
    try:
        result = run_pipeline(
            train, val, test, patch_configs,
            net_spec=net_spec, train_spec=train_spec, shallow_spec=shallow_spec, normalize=v["normalize"],
        )
        stage = "run directory"
        run_dir = make_run_dir(args.out, args.run_name)
        stage = "persist"
        write_resolved_config(config, run_dir / "resolved_config.ini")
        save_bundle(result.bundle, run_dir / "bundle.pchx")
        write_json(result.metrics, run_dir / "metrics.json")
        write_json({**result.timing, "data_seconds": data_seconds, "environment": run_environment()},
                   run_dir / "timing.json")
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
    _, conv_blocks, train_spec, shallow_spec = build_specs(config)
    train, val, test = load_run_datasets(config)
    v = _values(config)
    whole = [PatchConfig(stride=train.length, length=train.length, attach=False)]  # one window: the sample
    blackbox_spec = default_network_spec(train, whole, seed=v["seed"], conv_blocks=conv_blocks)

    cells = []
    for token in args.grid.split("|"):
        token = token.strip()
        if not token:
            continue
        flags = {"attach": v["attach"], "notemp": v["notemp"]}
        if "@" in token:
            token, flag_part = token.split("@", 1)
            names = {f.strip() for f in flag_part.split(",") if f.strip()}
            unknown = names - {"attach", "notemp"}
            if unknown:
                raise ConfigError(f"unknown flags {sorted(unknown)} in grid cell")
            flags = {"attach": "attach" in names, "notemp": "notemp" in names}
        cells.append((token.strip(), flags))

    # with one patch per sample, confidence-sum voting is the network's argmax
    bb = run_pipeline(
        train, val, test, whole, net_spec=blackbox_spec, train_spec=train_spec,
        shallow_spec=replace(shallow_spec, kind="trivial", trivial=TrivialSpec("confidence-sum")),
        normalize=v["normalize"],
    )
    report: dict = {"cells": [], "blackbox": {"metrics": bb.metrics, "timing": bb.timing}}

    for token, flags in cells:
        cell_name = token + ("@" + ",".join(k for k in ("attach", "notemp") if flags[k]) if any(flags.values()) else "")
        try:
            patch_configs = parse_patch_tokens(token, flags["attach"], flags["notemp"])
            net_spec = default_network_spec(train, patch_configs, seed=v["seed"], conv_blocks=conv_blocks)
            base = run_pipeline(
                train, val, test, patch_configs,
                net_spec=net_spec, train_spec=train_spec,
                shallow_spec=replace(shallow_spec, kind="svm"), normalize=v["normalize"],
            )
            variants = {"cnn+svm": {"metrics": base.metrics, "timing": base.timing}}
            for kind in KINDS[1:]:  # refits beside the svm base
                refit = refit_shallow(base, replace(shallow_spec, kind=kind), test)
                variants[f"cnn+{kind if kind != 'forest' else 'rf'}"] = {
                    "metrics": refit.metrics, "timing": refit.timing,
                }
            report["cells"].append({"configs": cell_name, "variants": variants})
        except Exception as err:
            report["cells"].append({"configs": cell_name, "error": str(err)})
            print(f"cell {cell_name!r} failed: {err}", file=sys.stderr)

    run_dir = make_run_dir(args.out, args.run_name)
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


def cmd_explain(args: argparse.Namespace) -> int:
    bundle = load_bundle(args.bundle)
    dataset = load_dataset(args.data, split="test")
    ids = set(args.sample_id)
    chosen = [s for s in dataset.samples if s.id in ids]
    missing = ids - {s.id for s in chosen}
    if missing:
        raise ConfigError(f"--sample-id {sorted(missing)}: no such sample in {args.data}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.mislabels:
        report = mislabel_report(bundle, dataset)
        write_json(report.to_dict(), out / "mislabel_report.json")
        print(f"{len(report)} misclassified samples -> {out / 'mislabel_report.json'}")
        return 0
    for sample in chosen:
        records, prediction = explain_sample(bundle, sample)
        save_records(records, out / f"records_{sample.id}.csv")
        rows = list(records.rows(0))
        write_json(
            {
                "report": "sample-explanation",
                "sample_id": sample.id,
                "true_label": sample.label,
                "prediction": prediction,
                "overlay": [
                    {"start": r["start"], "end": r["end"], "class": r["predicted_class"], "alpha": alpha}
                    for r, alpha in zip(rows, records.overlay_alpha[0].tolist())
                ],
                "records": rows,
            },
            out / f"explanation_{sample.id}.json",
        )
    print(f"explained {len(chosen)} sample(s) -> {out}")
    return 0


def cmd_probe(args: argparse.Namespace) -> int:
    bundle = load_bundle(args.bundle)
    dataset = load_dataset(args.data, split="test")
    sample = next((s for s in dataset.samples if s.id == args.sample_id), None)
    if sample is None:
        raise ConfigError(f"--sample-id {args.sample_id}: no such sample in {args.data}")
    if args.position:
        channel, step = args.position
        if not (0 <= channel < sample.channels and 0 <= step < sample.length):
            raise ConfigError(f"--position {channel},{step} is outside sample {sample.id} "
                              f"of shape {sample.values.shape}")
    else:
        # default to the most extreme point by the label rule's z-score
        mean = sample.values.mean(axis=1, keepdims=True)
        std = np.maximum(sample.values.std(axis=1, keepdims=True), 1e-12)
        z = (sample.values - mean) / std
        channel, step = np.unravel_index(int(np.argmax(z)), z.shape)
    result = boundary_probe(
        bundle, sample, (int(channel), int(step)), args.factors,
        sigma_multiplier=args.sigma_multiplier,
    )
    write_json(result.to_dict(), args.out)
    print(
        f"probed sample {sample.id} at channel {channel}, step {step}; "
        f"ground-truth flip factor: {result.ground_truth_flip_factor()}"
    )
    return 0


def cmd_histogram(args: argparse.Namespace) -> int:
    bundle = load_bundle(args.bundle)
    dataset = load_dataset(args.data, split="test")
    report = confidence_histogram(bundle, dataset, bin_width=args.bin_width, per_class=args.per_class)
    write_json(report.to_dict(), args.out)
    print(f"{report.total} patch confidences binned -> {args.out}")
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    cases = {
        "conv-only": NetworkSpec(2, 16, 3, conv_blocks=((4, 3, "relu"),), seed=0),
        "dense-softmax": NetworkSpec(3, 12, 3, conv_blocks=(), seed=0),
        "composite": NetworkSpec(2, 16, 3, conv_blocks=((4, 3, "relu"), (5, 3, "relu")), seed=0),
    }
    seed = _seed(_checked(_BY_KEY["data", "seed"], args.seed, "--seed"))
    failed = False
    for name, spec in cases.items():
        net, batch = gradcheck_case(spec, seed=seed)
        report = gradient_check(net, batch, tolerance=args.tolerance)
        print(f"[{name}] {report.summary()}")
        failed |= not report.passed
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="patchx", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="INI config file")
        for o in OPTIONS:  # text, checked by apply_overrides as a file's value is
            choices = ("true", "false") if o.kind is _bool else o.kind if isinstance(o.kind, tuple) else None
            p.add_argument(o.flag, metavar="{" + ",".join(choices) + "}" if choices else None, help=o.help)

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
    which = p_explain.add_mutually_exclusive_group(required=True)
    which.add_argument("--sample-id", dest="sample_id", type=int, action="append", default=[])
    which.add_argument("--mislabels", action="store_true")
    p_explain.add_argument("--out", required=True)
    p_explain.set_defaults(func=cmd_explain)

    p_probe = sub.add_parser("probe", help="class-boundary probe around a peak")
    p_probe.add_argument("--bundle", required=True)
    p_probe.add_argument("--data", required=True)
    p_probe.add_argument("--sample-id", dest="sample_id", type=int, required=True)
    p_probe.add_argument("--position", type=_position, help="channel,step of the point to scale")
    p_probe.add_argument("--factors", type=_factors, default="0.25,0.5,0.75,1.0,1.25,1.5,1.75,2.0")
    p_probe.add_argument("--sigma-multiplier", dest="sigma_multiplier", type=_positive,
                         default=DEFAULT_SIGMA_MULTIPLIER)
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
    p_grad.add_argument("--seed", default="0", help="an integer >= 0, checked as [data] seed is")
    p_grad.add_argument("--tolerance", type=_positive, default=1e-3)
    p_grad.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (BundleError, ConfigError, DimensionError, ParseError, SplitError, OSError) as err:
        print(f"patchx {args.command}: {err}", file=sys.stderr)  # an OSError names its path
        return 2
    except TrainingError as err:
        print(f"patchx {args.command}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
