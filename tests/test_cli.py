import configparser
import json
import os
import re
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import patchx
from patchx import cli, pipeline
from patchx.bundle import save_bundle
from patchx.cli import (
    OPTIONS, apply_overrides, build_parser, build_specs, load_config, main, parse_patch_tokens,
    write_resolved_config,
)
from patchx.data import Dataset, SplitError, TimeSeriesSample, load_dataset, save_dataset
from patchx.neuralnet import NetworkSpec, TrainingError
from patchx.patching import ConfigError, PatchConfig

from oracles import blackbox_train

FAST = [
    "--train-count", "40", "--val-count", "20", "--test-count", "20",
    "--epochs", "2", "--patience", "1", "--filters", "4,8", "--seed", "3",
]


def run_cli(*argv):
    return main(list(argv))


def exit_code(*argv):
    """main's return value, or the code of the SystemExit that argparse raises."""
    try:
        return run_cli(*argv)
    except SystemExit as stop:
        return stop.code


@pytest.fixture(scope="module")
def saved_bundle(small_bundle, anomaly_splits, tmp_path_factory):
    """The small pipeline's bundle and its 3x50 test split, as files."""
    directory = tmp_path_factory.mktemp("saved")
    save_bundle(small_bundle, directory / "bundle.pchx")
    save_dataset(anomaly_splits[2], directory / "test.csv")
    return str(directory / "bundle.pchx"), str(directory / "test.csv")


class TestParseTokens:
    def test_tokens(self):
        configs = parse_patch_tokens("5:10,10:20", attach=True, notemp=False)
        assert configs == [PatchConfig(5, 10), PatchConfig(10, 20)]

    def test_bad_token(self):
        with pytest.raises(ConfigError):
            parse_patch_tokens("5x10", attach=True, notemp=False)

    def test_empty(self):
        with pytest.raises(ConfigError):
            parse_patch_tokens(" , ", attach=True, notemp=False)


class TestGenerate:
    def test_writes_loadable_files(self, tmp_path):
        assert run_cli("generate", "--out", str(tmp_path), *FAST) == 0
        for name, expected in (("train.csv", 40), ("val.csv", 20), ("test.csv", 20)):
            ds = load_dataset(tmp_path / name)
            assert len(ds) == expected
            assert ds.channels == 3 and ds.length == 50

    def test_header_line(self, tmp_path):
        run_cli("generate", "--out", str(tmp_path), *FAST)
        header = (tmp_path / "train.csv").read_text().splitlines()[0]
        assert header == "3,50,2"


class TestRun:
    def test_smoke_outputs(self, tmp_path):
        code = run_cli("run", "--out", str(tmp_path), "--run-name", "a", *FAST)
        assert code == 0
        run_dir = tmp_path / "a"
        for name in ("bundle.pchx", "metrics.json", "metrics.csv", "timing.json",
                     "train_log.csv", "vectors_train.csv", "vectors_test.csv",
                     "resolved_config.ini", "manifest.json"):
            assert (run_dir / name).exists(), name
        metrics = json.loads((run_dir / "metrics.json").read_text())
        assert "test_accuracy" in metrics
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert "bundle.pchx" in manifest["files"]

    def test_timing_records_the_environment(self, tmp_path, monkeypatch):
        """timing.json names numpy, its BLAS and the thread counts the process
        saw; metrics.json holds none of it, so its bytes do not move with them."""
        runs = {"one": ("1", None), "two": ("2", "3")}
        for name, (omp, openblas) in runs.items():
            monkeypatch.setenv("OMP_NUM_THREADS", omp)
            if openblas is None:
                monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
            else:
                monkeypatch.setenv("OPENBLAS_NUM_THREADS", openblas)
            assert run_cli("run", "--out", str(tmp_path), "--run-name", name, *FAST) == 0
            environment = json.loads((tmp_path / name / "timing.json").read_text())["environment"]
            assert environment["numpy"] == np.__version__
            assert set(environment["blas"]) == {"name", "version"}
            assert isinstance(environment["blas"]["name"], str)
            assert environment["threads"] == {"OMP_NUM_THREADS": omp, "OPENBLAS_NUM_THREADS": openblas}
            metrics = (tmp_path / name / "metrics.json").read_text()
            assert "environment" not in metrics and "numpy" not in metrics and "THREADS" not in metrics
        assert (tmp_path / "one" / "metrics.json").read_bytes() == (tmp_path / "two" / "metrics.json").read_bytes()

    def test_timing_records_the_data_stage(self, tmp_path):
        """timing.json times generating or loading the splits as data_seconds,
        outside train_seconds; metrics.json holds no such key, so a run that
        generates its splits and one that reads them from files write the
        same bytes."""
        data_dir = tmp_path / "data"
        assert run_cli("generate", "--out", str(data_dir), *FAST) == 0
        sources = {"generate": [], "files": ["--source", "files", "--data-dir", str(data_dir)]}
        for name, flags in sources.items():
            assert run_cli("run", "--out", str(tmp_path), "--run-name", name, *FAST, *flags) == 0
            timing = json.loads((tmp_path / name / "timing.json").read_text())
            assert timing["data_seconds"] > 0
            stages = ("patching_seconds", "network_train_seconds", "train_vectors_seconds", "shallow_fit_seconds")
            assert timing["train_seconds"] == pytest.approx(sum(timing[k] for k in stages))
            assert "data_seconds" not in (tmp_path / name / "metrics.json").read_text()
        assert (tmp_path / "generate" / "metrics.json").read_bytes() == (tmp_path / "files" / "metrics.json").read_bytes()

    def test_serial_determinism(self, tmp_path):
        run_cli("run", "--out", str(tmp_path), "--run-name", "a", *FAST)
        run_cli("run", "--out", str(tmp_path), "--run-name", "b", *FAST)
        for name in ("metrics.json", "vectors_train.csv", "vectors_test.csv", "bundle.pchx"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"

    def test_config_file_and_flag_override(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text(
            "[data]\ntrain_count = 40\nval_count = 20\ntest_count = 20\nseed = 3\n"
            "[network]\nfilters = 4,8\n"
            "[train]\nepochs = 2\npatience = 1\n"
        )
        code = run_cli("run", "--config", str(config), "--out", str(tmp_path),
                       "--run-name", "c", "--epochs", "1", "--patience", "0")
        assert code == 0
        resolved = (tmp_path / "c" / "resolved_config.ini").read_text()
        assert "epochs = 1" in resolved  # the flag overrode the file
        assert "train_count = 40" in resolved

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PATCHX_SEED", "77")
        run_cli("run", "--out", str(tmp_path), "--run-name", "env",
                "--train-count", "40", "--val-count", "20", "--test-count", "20",
                "--epochs", "1", "--patience", "0", "--filters", "4")
        resolved = (tmp_path / "env" / "resolved_config.ini").read_text()
        assert "seed = 77" in resolved

    def test_flag_beats_env_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PATCHX_SEED", "77")
        run_cli("run", "--out", str(tmp_path), "--run-name", "flag",
                "--train-count", "40", "--val-count", "20", "--test-count", "20",
                "--epochs", "1", "--patience", "0", "--filters", "4", "--seed", "5")
        resolved = (tmp_path / "flag" / "resolved_config.ini").read_text()
        assert "seed = 5" in resolved

    def test_run_from_files(self, tmp_path):
        data_dir = tmp_path / "data"
        run_cli("generate", "--out", str(data_dir), *FAST)
        code = run_cli("run", "--out", str(tmp_path), "--run-name", "files",
                       "--source", "files", "--data-dir", str(data_dir),
                       "--epochs", "1", "--patience", "0", "--filters", "4", "--seed", "3")
        assert code == 0

    def test_bad_stage_reports_failure(self, tmp_path, capsys):
        code = run_cli("run", "--out", str(tmp_path), "--run-name", "bad",
                       "--patches", "0:10", *FAST)
        assert code == 2
        assert "stride must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()  # patch configs are checked before the run dir

    @pytest.mark.parametrize("files, argv, message", [
        (True, ["--patches", "60:60"], "patch length 60 exceeds sample length 50"),
        (False, ["--length", "8"], "patch length 10 exceeds sample length 8"),
    ], ids=["patch-60-on-50-step-files", "default-patches-on-8-steps"])
    def test_patch_longer_than_the_samples_stops_before_the_run_dir(self, tmp_path, capsys, files, argv, message):
        source = []
        if files:
            assert run_cli("generate", "--out", str(tmp_path / "data"), *FAST) == 0
            source = ["--source", "files", "--data-dir", str(tmp_path / "data")]
        capsys.readouterr()
        code = run_cli("run", "--out", str(tmp_path / "out"), "--run-name", "long", *FAST, *source, *argv)
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
        assert not (tmp_path / "out").exists()

    def test_failed_stage_is_reported(self, tmp_path, capsys, monkeypatch):
        def diverge(*args, **kwargs):
            raise TrainingError("training loss diverged at epoch 0, batch 0")

        monkeypatch.setattr(cli, "run_pipeline", diverge)
        code = run_cli("run", "--out", str(tmp_path), "--run-name", "bad", *FAST)
        assert code == 1
        err = capsys.readouterr().err
        assert "stage 'pipeline'" in err and "diverged" in err

    @pytest.mark.parametrize("command", ["run", "bench"])
    def test_diverging_training_leaves_no_directory(self, tmp_path, capfd, command):
        """A learning rate of 1e300 drives the loss past float range in the first
        epoch. The command writes one stderr line, and no numpy warning precedes it."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(command, "--out", str(tmp_path / "out"), "--run-name", "d", *FAST,
                           "--learning-rate", "1e300")
        assert code == 1
        err = capfd.readouterr().err
        assert len(err.splitlines()) == 1 and "training loss diverged at epoch" in err
        assert [str(w.message) for w in caught] == []
        assert not (tmp_path / "out").exists()

    def test_diverging_svm_leaves_no_directory(self, tmp_path, capfd):
        """An infinite SVM learning rate gives non-finite weights. The run
        stops in stage 'pipeline' with one stderr line and writes no bundle
        that load_bundle would reject."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("run", "--out", str(tmp_path / "out"), "--run-name", "d", *FAST,
                           "--svm-learning-rate", "inf")
        assert code == 1
        out, err = capfd.readouterr()
        assert err.splitlines() == ["run aborted during stage 'pipeline': svm training diverged: its weights or "
                                    "biases are not finite (learning_rate=inf, c_reg=1.0)"]
        assert "test accuracy" not in out
        assert [str(w.message) for w in caught] == []
        assert not (tmp_path / "out").exists()

    def test_zero_false_rejected(self, tmp_path, capsys):
        code = run_cli("run", "--out", str(tmp_path), "--run-name", "nozero",
                       "--zero", "false", *FAST)
        assert code == 2
        assert "mandatory" in capsys.readouterr().err
        assert not (tmp_path / "nozero").exists()

    def test_shallow_flags_reach_resolved_config(self, tmp_path):
        run_cli("run", "--out", str(tmp_path), "--run-name", "flags",
                "--collapse", "true", "--c-reg", "2.5", "--min-leaf", "2", *FAST)
        resolved = (tmp_path / "flags" / "resolved_config.ini").read_text()
        assert "collapse = true" in resolved
        assert "c_reg = 2.5" in resolved
        assert "min_leaf = 2" in resolved


class TestConfigChecks:
    """A config value enters through the INI file, a flag or PATCHX_SEED, and
    each is checked against its OPTIONS row before any run directory exists."""

    @pytest.mark.parametrize("text, message", [
        ("[train]\nepoch = 1\n", r"unknown config key \[train\] epoch"),
        ("[netwrk]\nfilters = 4\n", r"unknown config section \[netwrk\]"),
        ("[train]\noptimizer = adamw\n", "optimizer = 'adamw' is not one of adam, sgd-momentum"),
        ("[shallow]\ncollapse = maybe\n", "collapse = 'maybe' is not a boolean"),
        ("[data]\nnoise_sigma = loud\n", "noise_sigma = 'loud' is not a number"),
        ("[network]\nfilters = 4,x\n", "filters = '4,x' is not a comma-separated list of integers"),
    ], ids=["typo", "section", "choice", "boolean", "float", "int-list"])
    def test_bad_file_rejected_before_run_dir(self, tmp_path, capsys, text, message):
        config = tmp_path / "bad.ini"
        config.write_text(text)
        code = run_cli("run", "--config", str(config), "--out", str(tmp_path / "out"), *FAST)
        assert code != 0
        assert re.search(message, capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_directory_config_rejected_before_run_dir(self, tmp_path, capsys):
        """A --config path that cannot be read as a file stops the run with the
        path named, rather than leaving the defaults in force."""
        code = run_cli("run", "--config", str(tmp_path), "--out", str(tmp_path / "out"), *FAST)
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(tmp_path) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["generate", "run", "bench"])
    def test_bad_int_rejected_by_every_command(self, tmp_path, capsys, command):
        config = tmp_path / "bad.ini"
        config.write_text("[data]\ntrain_count = abc\n")
        code = run_cli(command, "--config", str(config), "--out", str(tmp_path / "out"))
        assert code != 0
        assert "[data] train_count = 'abc' is not an integer" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, message", [
        (["run", "--epochs", "0"], "must be positive"),
        (["run", "--patience", "3", "--epochs", "1"], r"early_stopping_patience must be in \[0, epochs\)"),
        (["run", "--kernel", "99"], r"kernel size 99 outside \[1, 50\]"),
        (["run", "--learning-rate", "nan"], "must be positive"),
        (["run", "--c-reg", "nan"], "must be positive"),
        (["run", "--sigma-multiplier", "nan"], "sigma_multiplier must be > 0"),
        (["run", "--noise-sigma", "inf"], "noise_sigma must be > 0 and finite"),
        (["run", "--peak-max", "inf"], r"bad peak_amplitude_range \(5.0, inf\)"),
        (["run", "--sigma-multiplier", "inf"], "sigma_multiplier must be > 0 and finite"),
        (["bench", "--kernel", "0"], r"kernel size 0 outside \[1, 50\]"),
        (["bench", "--trees", "0"], "trees and min_leaf must be positive"),
        (["run", "--max-depth", "-3"], "max_depth must be >= 1"),
        (["bench", "--max-depth", "-3"], "max_depth must be >= 1"),
    ], ids=["run-epochs-0", "run-patience-past-epochs", "run-kernel-99", "run-nan-learning-rate",
            "run-nan-c-reg", "run-nan-sigma-multiplier", "run-inf-noise-sigma", "run-inf-peak-max",
            "run-inf-sigma-multiplier", "bench-kernel-0", "bench-trees-0",
            "run-negative-max-depth", "bench-negative-max-depth"])
    def test_bad_spec_value_stops_before_any_output(self, tmp_path, capsys, argv, message):
        """A value that parses but that its spec rejects stops the command with
        one line, before any training and before any run directory."""
        command, *flags = argv
        code = run_cli(command, "--out", str(tmp_path / "out"), *FAST, *flags)
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and re.search(message, err)
        assert not (tmp_path / "out").exists()

    def test_bad_env_seed_rejected(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PATCHX_SEED", "abc")
        code = run_cli("run", "--out", str(tmp_path / "out"), *FAST[:-2])
        assert code != 0
        assert "PATCHX_SEED: [data] seed = 'abc' is not an integer" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, entry", [
        ("run", "flag"), ("generate", "flag"), ("bench", "flag"), ("run", "env"), ("run", "file"),
        ("run", "files-source"), ("gradcheck", "flag"),
    ], ids=["run-flag", "generate-flag", "bench-flag", "run-env", "run-file", "run-files-source",
            "gradcheck-flag"])
    def test_negative_seed_rejected_where_it_enters(self, tmp_path, capsys, monkeypatch, command, entry):
        """A seed of -1 once reached numpy's default_rng and ended in its
        traceback, after the data were loaded under --source files. Every
        entry point now stops with one line naming the seed, and no output."""
        monkeypatch.delenv("PATCHX_SEED", raising=False)
        out = tmp_path / "out"
        argv = [command] if command == "gradcheck" else [command, "--out", str(out), *FAST[:-2]]
        if entry == "env":
            monkeypatch.setenv("PATCHX_SEED", "-1")
        elif entry == "file":
            (tmp_path / "seed.ini").write_text("[data]\nseed = -1\n")
            argv += ["--config", str(tmp_path / "seed.ini")]
        else:
            argv += ["--seed", "-1"]
        if entry == "files-source":
            assert run_cli("generate", "--out", str(tmp_path / "data"), *FAST) == 0
            capsys.readouterr()
            argv += ["--source", "files", "--data-dir", str(tmp_path / "data")]
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert not captured.out and captured.err.count("\n") == 1
        assert "seed = '-1' is not an integer >= 0" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "run", "bench"])
    @pytest.mark.parametrize("flags, setting", [
        (["--noise-sigma", "1e308"], "noise_sigma=1e+308"),
        (["--noise-sigma", "1e200"], "noise_sigma=1e+200"),
        (["--peak-min", "1e307", "--peak-max", "1.7e308"], "peak_amplitude_range=(1e+307, 1.7e+308)"),
    ], ids=["infinite-values", "overflowing-std", "overflowing-peaks"])
    def test_generator_overflow_stops_before_any_output(self, tmp_path, capsys, command, flags, setting):
        """A noise sigma near the float maximum draws infinite values: numpy
        warned five times and the splits' own check ended in a traceback.
        Finite values whose std overflows went on to abort the pipeline
        after numpy's warnings. The one line names the split and the
        generator settings that drew it."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning of the draw escapes
            code = run_cli(command, "--out", str(tmp_path / "out"), *FAST, *flags)
        assert code == 2
        captured = capsys.readouterr()
        assert not captured.out and captured.err.count("\n") == 1
        assert "values contain NaN or Inf" in captured.err
        assert "split 'train'" in captured.err and setting in captured.err
        assert "noise_sigma" in captured.err and "peak_amplitude_range" in captured.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["generate", "run", "bench"])
    @pytest.mark.parametrize("flag, value, named", [
        ("--epochs", "1.5", "[train] epochs = '1.5' is not an integer"),
        ("--learning-rate", "abc", "[train] learning_rate = 'abc' is not a number"),
        ("--shallow", "svmm", "[shallow] kind = 'svmm' is not one of svm, forest, trivial"),
    ], ids=["float-epochs", "text-learning-rate", "unknown-shallow"])
    def test_bad_flag_is_checked_as_a_file_value(self, tmp_path, capsys, command, flag, value, named):
        """argparse once checked typed and choice flags itself and printed its
        usage; every flag is now text that _checked reads as it reads the file."""
        code = run_cli(command, "--out", str(tmp_path / "out"), *FAST, flag, value)
        assert code == 2
        captured = capsys.readouterr()
        assert not captured.out and captured.err.count("\n") == 1
        assert captured.err == f"patchx {command}: {flag}: {named}\n"
        assert not (tmp_path / "out").exists()

    def test_flag_and_file_spellings_resolve_alike(self, tmp_path, monkeypatch):
        """A flag is written to resolved_config.ini as spelled, as a file value is."""
        monkeypatch.delenv("PATCHX_SEED", raising=False)
        ini = tmp_path / "spelled.ini"
        ini.write_text("[train]\nlearning_rate = 1e-3\nepochs = 007\n")
        resolved = []
        for extra in (["--learning-rate", "1e-3", "--epochs", "007"], ["--config", str(ini)]):
            args = build_parser().parse_args(["run", "--out", str(tmp_path), *extra])
            config = load_config(args.config)
            apply_overrides(config, args)
            path = tmp_path / f"resolved{len(resolved)}.ini"
            write_resolved_config(config, path)
            resolved.append(path.read_text())
        assert resolved[0] == resolved[1]
        assert "learning_rate = 1e-3" in resolved[0] and "epochs = 007" in resolved[0]

    def test_percent_in_file_is_a_literal(self, tmp_path, capsys):
        config = tmp_path / "pct.ini"
        config.write_text("[data]\nseed = 1%\n")
        code = run_cli("run", "--config", str(config), "--out", str(tmp_path / "out"), *FAST[:-2])
        assert code == 2
        assert "[data] seed = '1%' is not an integer" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_percent_in_flag_is_a_literal(self, tmp_path):
        data_dir = tmp_path / "data%1"
        run_cli("generate", "--out", str(data_dir), *FAST)
        code = run_cli("run", "--out", str(tmp_path), "--run-name", "pct", "--source", "files",
                       "--data-dir", str(data_dir), "--epochs", "1", "--patience", "0",
                       "--filters", "4", "--seed", "3")
        assert code == 0
        resolved = configparser.ConfigParser(interpolation=None)
        resolved.read(tmp_path / "pct" / "resolved_config.ini")
        assert resolved.get("data", "dir") == str(data_dir)

    @pytest.mark.parametrize("option", OPTIONS, ids=lambda o: o.key)
    def test_every_key_set_by_flag_and_by_file_alike(self, tmp_path, monkeypatch, option):
        monkeypatch.delenv("PATCHX_SEED", raising=False)
        value = other_value(option)
        ini = tmp_path / "set.ini"
        ini.write_text(f"[{option.section}]\n{option.key} = {value}\n")
        resolved = []
        for extra in ([option.flag, value], ["--config", str(ini)]):
            args = build_parser().parse_args(["run", "--out", str(tmp_path), *extra])
            config = load_config(args.config)
            apply_overrides(config, args)
            path = tmp_path / f"resolved{len(resolved)}.ini"
            write_resolved_config(config, path)
            resolved.append(path.read_text())
            written = configparser.ConfigParser()
            written.read_string(resolved[-1])
            assert written.get(option.section, option.key) == value
        assert resolved[0] == resolved[1]


def other_value(option):
    """A valid value of the option other than its default."""
    if isinstance(option.kind, tuple):
        return next(c for c in option.kind if c != option.default)
    for text in ("2.5", "7", "false", "true"):
        try:
            option.kind(text)
        except ValueError:
            continue
        if text != option.default:
            return text


def test_readme_example_config(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    example = tmp_path / "readme.ini"
    example.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
    config = load_config(str(example))
    build_specs(config)
    assert config.get("data", "source") == "generate"


class TestMissingFiles:
    """A missing dataset or bundle stops a command with one line naming the
    path, and leaves no run directory behind."""

    def test_run_leaves_no_run_dir(self, tmp_path, capsys):
        code = run_cli("run", "--out", str(tmp_path), "--run-name", "c", "--source", "files",
                       "--data-dir", str(tmp_path / "nowhere"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(tmp_path / "nowhere" / "train.csv") in err
        assert not (tmp_path / "c").exists()

    def test_bench_leaves_no_run_dir(self, tmp_path, capsys):
        code = run_cli("bench", "--out", str(tmp_path), "--run-name", "c", "--source", "files",
                       "--data-dir", str(tmp_path / "nowhere"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(tmp_path / "nowhere" / "train.csv") in err
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("command", ["run", "bench"])
    def test_files_source_needs_a_data_dir(self, tmp_path, capsys, monkeypatch, command):
        """Without a data directory the splits were read from the working directory."""
        assert run_cli("generate", "--out", str(tmp_path), *FAST) == 0
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        code = run_cli(command, "--out", str(tmp_path / "out"), "--run-name", "c", *FAST, "--source", "files")
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--data-dir" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("missing", ["bundle", "data"])
    def test_explain_names_the_missing_path(self, tmp_path, capsys, missing):
        data_dir = tmp_path / "data"
        run_cli("generate", "--out", str(data_dir), *FAST)
        run_cli("run", "--out", str(tmp_path), "--run-name", "r", *FAST)
        paths = {"bundle": tmp_path / "r" / "bundle.pchx", "data": data_dir / "test.csv"}
        paths[missing] = tmp_path / f"no-{missing}"
        code = run_cli("explain", "--bundle", str(paths["bundle"]), "--data", str(paths["data"]),
                       "--sample-id", "0", "--out", str(tmp_path / "expl"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("patchx explain: ") and err.count("\n") == 1
        assert str(paths[missing]) in err


class TestSplitChecks:
    """val and test must match train's channels, length and class count. A
    split that does not, or that is empty, stops run and bench with one line
    naming it, before any training and before any output directory."""

    @pytest.mark.parametrize("command", ["run", "bench"])
    @pytest.mark.parametrize("split, shape, message", [
        ("val", (3, 40), r"split 'val' has \(channels, length, classes\) \(3, 40, 2\), "
                         r"split 'train' has \(3, 50, 2\)"),
        ("val", (2, 50), r"split 'val' has \(channels, length, classes\) \(2, 50, 2\), "
                         r"split 'train' has \(3, 50, 2\)"),
        ("test", (3, 40), r"split 'test' has \(channels, length, classes\) \(3, 40, 2\), "
                          r"split 'train' has \(3, 50, 2\)"),
        ("val", None, r"val\.csv has a header but no samples"),
    ], ids=["val-short", "val-2-channels", "test-short", "val-empty"])
    def test_split_that_differs_from_train_stops_before_any_output(
            self, tmp_path, capsys, command, split, shape, message):
        data_dir = tmp_path / "data"
        assert run_cli("generate", "--out", str(data_dir), *FAST) == 0
        path = data_dir / f"{split}.csv"
        if shape is None:
            path.write_text("3,50,2\n")
        else:
            rng = np.random.default_rng(0)
            samples = [TimeSeriesSample(i, rng.normal(size=shape), i % 2) for i in range(20)]
            save_dataset(Dataset(samples, class_count=2), path)
        capsys.readouterr()
        grid = ["--grid", "5:10"] if command == "bench" else []
        code = run_cli(command, "--out", str(tmp_path / "out"), "--source", "files",
                       "--data-dir", str(data_dir), *grid, *FAST[6:])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and re.search(message, err)
        assert not (tmp_path / "out").exists()

    def test_run_pipeline_names_an_empty_split(self, anomaly_splits):
        train, _, test = anomaly_splits
        with pytest.raises(SplitError, match="split 'val' is empty"):
            pipeline.run_pipeline(train, Dataset([], class_count=2, split="val"), test, [PatchConfig(5, 10)])


class TestBench:
    def test_tiny_grid_mirrors_table_layout(self, tmp_path):
        code = run_cli("bench", "--out", str(tmp_path), "--run-name", "bench",
                       "--grid", "5:10|10:20|5:10,10:20", *FAST)
        assert code == 0
        report = json.loads((tmp_path / "bench" / "bench_report.json").read_text())
        assert len(report["cells"]) == 3
        for cell in report["cells"]:
            assert set(cell["variants"]) == {"cnn+svm", "cnn+rf", "cnn+trivial"}
            for variant in cell["variants"].values():
                assert "test_accuracy" in variant["metrics"]
                assert "train_seconds" in variant["timing"]
        assert report["blackbox"]["metrics"]["test_accuracy"] >= 0.0
        table = (tmp_path / "bench" / "bench_table.txt").read_text()
        assert "cnn+svm" in table and "blackbox" in table

    def test_every_variant_fits_the_configured_layout(self, tmp_path, monkeypatch):
        specs = []
        fit = pipeline.fit
        monkeypatch.setattr(pipeline, "fit", lambda spec, *a, **k: specs.append(spec) or fit(spec, *a, **k))
        code = run_cli("bench", "--out", str(tmp_path), "--run-name", "bench", "--grid", "5:10",
                       "--collapse", "true", "--normalize-features", "true", *FAST)
        assert code == 0
        # the blackbox's confidence-sum vote first, then the cell's svm, forest and trivial fits
        assert [s.kind for s in specs] == ["trivial", "svm", "forest", "trivial"]
        assert specs[0].trivial.mode == "confidence-sum"
        assert all(s.collapse and s.normalize for s in specs)

    @pytest.mark.parametrize("normalize, calls", [("true", 2), ("false", 0)])
    def test_normalize_option_reaches_every_training(self, tmp_path, monkeypatch, normalize, calls):
        """The blackbox and each cell z-normalize only when [data] normalize says so."""
        seen = []
        stats = pipeline.normalization_stats
        monkeypatch.setattr(pipeline, "normalization_stats", lambda ds: seen.append(ds) or stats(ds))
        code = run_cli("bench", "--out", str(tmp_path), "--run-name", "bench", "--grid", "5:10",
                       "--normalize", normalize, *FAST)
        assert code == 0
        assert len(seen) == calls

    @pytest.mark.parametrize("normalize", ["true", "false"])
    def test_blackbox_is_the_whole_sample_network(self, tmp_path, monkeypatch, normalize):
        """The one-window patch run trains the parameters that training on the
        whole samples trains, bit for bit, and scores the same accuracies."""
        runs = []
        run = cli.run_pipeline
        monkeypatch.setattr(cli, "run_pipeline", lambda *a, **k: runs.append(run(*a, **k)) or runs[-1])
        argv = ["--grid", "5:10", "--normalize", normalize, *FAST]
        assert run_cli("bench", "--out", str(tmp_path), "--run-name", "bench", *argv) == 0
        blackbox = runs[0]
        args = build_parser().parse_args(["bench", "--out", str(tmp_path), *argv])
        config = load_config(None)
        apply_overrides(config, args)
        _, conv_blocks, train_spec, _ = build_specs(config)
        train, val, test = cli.load_run_datasets(config)
        spec = NetworkSpec(train.channels, train.length, train.class_count, conv_blocks, seed=3)
        network, val_accuracy, test_accuracy = blackbox_train(
            train, val, test, spec, train_spec, normalize=normalize == "true")
        assert blackbox.bundle.network.spec == spec
        assert blackbox.bundle.network.flat_params.tobytes() == network.flat_params.tobytes()
        assert blackbox.metrics["val_patch_accuracy"] == val_accuracy
        assert blackbox.metrics["test_accuracy"] == test_accuracy
        report = json.loads((tmp_path / "bench" / "bench_report.json").read_text())
        assert report["blackbox"]["metrics"]["test_accuracy"] == test_accuracy

    def test_failed_cell_recorded_and_run_continues(self, tmp_path):
        code = run_cli("bench", "--out", str(tmp_path), "--run-name", "bench",
                       "--grid", "0:10|5:10", *FAST)
        assert code == 0
        report = json.loads((tmp_path / "bench" / "bench_report.json").read_text())
        assert "error" in report["cells"][0]
        assert "variants" in report["cells"][1]

    def test_flag_cell_syntax(self, tmp_path):
        code = run_cli("bench", "--out", str(tmp_path), "--run-name", "bench",
                       "--grid", "5:10@attach,notemp", *FAST)
        assert code == 0
        report = json.loads((tmp_path / "bench" / "bench_report.json").read_text())
        assert report["cells"][0]["configs"] == "5:10@attach,notemp"


class TestExplainCommands:
    @pytest.fixture()
    def run_dir(self, tmp_path):
        data_dir = tmp_path / "data"
        run_cli("generate", "--out", str(data_dir), *FAST)
        run_cli("run", "--out", str(tmp_path), "--run-name", "r", *FAST)
        return tmp_path / "r", data_dir

    def test_explain_export(self, run_dir, tmp_path):
        bundle, data_dir = run_dir
        out = tmp_path / "expl"
        code = run_cli("explain", "--bundle", str(bundle / "bundle.pchx"),
                       "--data", str(data_dir / "test.csv"),
                       "--sample-id", "0", "--out", str(out))
        assert code == 0
        payload = json.loads((out / "explanation_0.json").read_text())
        assert payload["report"] == "sample-explanation"
        assert len(payload["overlay"]) == 15
        assert (out / "records_0.csv").exists()

    def test_explain_missing_sample(self, run_dir, tmp_path):
        bundle, data_dir = run_dir
        code = run_cli("explain", "--bundle", str(bundle / "bundle.pchx"),
                       "--data", str(data_dir / "test.csv"),
                       "--sample-id", "999", "--out", str(tmp_path / "x"))
        assert code == 2

    def test_mislabel_export(self, run_dir, tmp_path):
        bundle, data_dir = run_dir
        out = tmp_path / "mis"
        code = run_cli("explain", "--bundle", str(bundle / "bundle.pchx"),
                       "--data", str(data_dir / "test.csv"),
                       "--mislabels", "--out", str(out))
        assert code == 0
        payload = json.loads((out / "mislabel_report.json").read_text())
        assert payload["report"] == "mislabels"
        assert payload["count"] == len(payload["entries"])

    def test_probe_and_histogram(self, run_dir, tmp_path):
        bundle, data_dir = run_dir
        probe_out = tmp_path / "probe.json"
        code = run_cli("probe", "--bundle", str(bundle / "bundle.pchx"),
                       "--data", str(data_dir / "test.csv"),
                       "--sample-id", "1", "--factors", "0.5,1.0,1.5",
                       "--out", str(probe_out))
        assert code == 0
        payload = json.loads(probe_out.read_text())
        assert len(payload["steps"]) == 3
        hist_out = tmp_path / "hist.json"
        code = run_cli("histogram", "--bundle", str(bundle / "bundle.pchx"),
                       "--data", str(data_dir / "test.csv"),
                       "--per-class", "--out", str(hist_out))
        assert code == 0
        payload = json.loads(hist_out.read_text())
        assert payload["total_patches"] == 20 * 15


class TestExplainArguments:
    @pytest.mark.parametrize("argv, flag", [
        (["explain", "--sample-id", "x"], "--sample-id"),
        (["probe", "--sample-id", "0", "--position", "0"], "--position"),
        (["probe", "--sample-id", "0", "--position", "9,25"], "--position"),
        (["probe", "--sample-id", "0", "--factors", "2,1"], "--factors"),
        (["probe", "--sample-id", "0", "--factors", "a,b"], "--factors"),
        (["explain", "--sample-id", "999"], "--sample-id"),
        (["explain"], "--sample-id"),
        (["probe", "--sample-id", "999"], "--sample-id"),
        (["explain", "--sample-id", "0", "--mislabels"], "--mislabels"),
        (["probe", "--sample-id", "0", "--sigma-multiplier", "0"], "--sigma-multiplier"),
        (["probe", "--sample-id", "0", "--sigma-multiplier", "-1"], "--sigma-multiplier"),
        (["probe", "--sample-id", "0", "--sigma-multiplier", "nan"], "--sigma-multiplier"),
        (["probe", "--sample-id", "0", "--sigma-multiplier", "inf"], "--sigma-multiplier"),
    ], ids=["explain-id-not-int", "probe-one-coordinate", "probe-channel-outside",
            "probe-factors-decrease", "probe-factors-not-numbers", "explain-unknown-id",
            "explain-no-id", "probe-unknown-id", "explain-id-and-mislabels", "probe-sigma-multiplier-0",
            "probe-sigma-multiplier-negative", "probe-sigma-multiplier-nan", "probe-sigma-multiplier-inf"])
    def test_bad_argument_exits_2_naming_the_flag(self, saved_bundle, tmp_path, capsys, argv, flag):
        bundle, data = saved_bundle
        command, *rest = argv
        code = exit_code(command, "--bundle", bundle, "--data", data, *rest, "--out", str(tmp_path / "out"))
        assert code == 2
        assert flag in capsys.readouterr().err.splitlines()[-1]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("width, message", [
        ("0", "bin width must be a finite number > 0"),
        ("-0.05", "bin width must be a finite number > 0"),
        ("nan", "bin width must be a finite number > 0"),
        ("inf", "bin width must be a finite number > 0"),
        ("1e-9", "gives 5e+08 bins, more than 10000"),
    ], ids=["0", "-0.05", "nan", "inf", "1e-9"])
    def test_histogram_rejects_a_bin_width_that_is_not_positive(self, saved_bundle, tmp_path, width, message):
        """In a subprocess under a 1 GiB address-space cap: a width <= 0, or
        one so small that its bins do not fit, once appended bin edges until
        memory ran out."""
        bundle, data = saved_bundle
        src = str(Path(patchx.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
        cap = lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        done = subprocess.run(
            [sys.executable, "-m", "patchx", "histogram", "--bundle", bundle, "--data", data,
             f"--bin-width={width}", "--out", str(tmp_path / "hist.json")],
            env=env, preexec_fn=cap, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 2
        assert done.stderr.count("\n") == 1 and message in done.stderr
        assert not (tmp_path / "hist.json").exists()


def test_gradcheck_command(capsys):
    assert run_cli("gradcheck", "--seed", "2") == 0
    out = capsys.readouterr().out
    assert "conv-only" in out and "composite" in out and "pass" in out


@pytest.mark.parametrize("tolerance", ["nan", "0", "-1"])
def test_gradcheck_rejects_a_tolerance_that_is_not_positive(capsys, tolerance):
    """Such a tolerance failed every gradient, as if the gradients were wrong."""
    assert exit_code("gradcheck", "--tolerance", tolerance) == 2
    assert "--tolerance" in capsys.readouterr().err.splitlines()[-1]
