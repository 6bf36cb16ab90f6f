"""The golden runs of a refactor: seeded runs whose outputs must stay byte-identical.

    python3 scripts/golden.py OUT_DIR

Runs in-process, from the checkout's own src/:

* `patchx generate --seed 7` at 1000/300/400 into OUT_DIR/data;
* `patchx run --source files --epochs 2 --patience 0 --filters 16,32 --seed 7
  --standardize true` with `--shallow svm`, `forest` and `trivial`, as
  `svm-collapse` with `--shallow svm --collapse true --normalize-features true`,
  and as `svm-notemp` with `--shallow svm --attach false --notemp true`: with
  no mask channel, a patch's nonzero steps can span less than its crop;
* on the svm run, `patchx explain` for sample ids 0-4, `explain --mislabels`,
  `histogram --per-class`, and `probe` of test ids 0 and 1 at the default
  position and factors;
* `patchx bench --grid 5:10` on the same data with the same training flags;
* `patchx gradcheck --seed 0`.

The commands run from inside OUT_DIR, with relative paths, so no output
depends on where OUT_DIR lies. Prints two lines naming numpy's version and
its BLAS (golden bytes hold for one numpy and one BLAS), then one
`<sha256 prefix>  <path>` line per output file, paths relative to OUT_DIR,
the generated `data/{train,val,test}.csv` first, so that the generator is
checked on its own. Then come each run's `test_accuracy` and
`val_patch_accuracy`, so that a change to the training arithmetic shows its
drift beside the hashes. Last
come the bench's blackbox run and each variant: its `test_accuracy` and a
sha256 prefix of its `metrics` dict (sorted-key JSON). `bench_report.json`
itself is not hashed, because it holds timings. The gradient check's summary
lines close the output.
Timings and manifests are not listed: they carry wall-clock values.
tests/golden.txt holds this output, and tests/test_golden.py compares a fresh
run with it; a change that moves golden output rewrites it in the same commit:

    python3 scripts/golden.py OUT_DIR > tests/golden.txt
"""

from __future__ import annotations

import os

# One BLAS thread, pinned before numpy is imported: the serial determinism contract.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("PATCHX_SEED", None)

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from patchx.cli import main as patchx, run_environment  # noqa: E402

RUN_FILES = ("metrics.json", "vectors_train.csv", "vectors_test.csv", "bundle.pchx",
             "resolved_config.ini")
RUNS = {
    "svm": ("--shallow", "svm"),
    "forest": ("--shallow", "forest"),
    "trivial": ("--shallow", "trivial"),
    "svm-collapse": ("--shallow", "svm", "--collapse", "true", "--normalize-features", "true"),
    "svm-notemp": ("--shallow", "svm", "--attach", "false", "--notemp", "true"),
}


def call(*argv: str) -> str:
    """Runs one patchx command and returns what it printed."""
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        code = patchx(list(argv))
    if code != 0:
        raise SystemExit(f"patchx {' '.join(argv)} exited with {code}")
    return printed.getvalue()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    env = run_environment()
    print(f"# numpy {env['numpy']}\n# blas {env['blas']['name']} {env['blas']['version']}")
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)  # resolved_config.ini records --data-dir as given
    out, data, runs = Path("."), Path("data"), Path("runs")
    call("generate", "--out", str(data), "--train-count", "1000", "--val-count", "300",
         "--test-count", "400", "--seed", "7")
    training = ("--source", "files", "--data-dir", str(data), "--epochs", "2", "--patience", "0",
                "--filters", "16,32", "--seed", "7", "--standardize", "true")
    for name, shallow in RUNS.items():
        call("run", *training, "--out", str(runs), "--run-name", name, *shallow)
    call("bench", *training, "--out", str(out), "--run-name", "bench", "--grid", "5:10")
    bundle, test = str(runs / "svm" / "bundle.pchx"), str(data / "test.csv")
    ids = [arg for i in range(5) for arg in ("--sample-id", str(i))]
    call("explain", "--bundle", bundle, "--data", test, *ids, "--out", str(out / "explain"))
    call("explain", "--bundle", bundle, "--data", test, "--mislabels", "--out", str(out / "mislabels"))
    call("histogram", "--bundle", bundle, "--data", test, "--per-class", "--out", str(out / "histogram.json"))
    probes = [out / f"probe_{i}.json" for i in (0, 1)]
    for i, path in enumerate(probes):
        call("probe", "--bundle", bundle, "--data", test, "--sample-id", str(i), "--out", str(path))

    paths = [data / f"{split}.csv" for split in ("train", "val", "test")]
    paths += [runs / run / name for run in RUNS for name in RUN_FILES]
    paths += sorted((out / "explain").iterdir()) + [out / "mislabels" / "mislabel_report.json",
                                                     out / "histogram.json", *probes]
    for path in paths:
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()[:12]}  {path.as_posix()}")
    for run in RUNS:
        metrics = json.loads((runs / run / "metrics.json").read_text(encoding="utf-8"))
        print(f"{run}: test_accuracy {metrics['test_accuracy']!r}, "
              f"val_patch_accuracy {metrics['val_patch_accuracy']!r}")
    report = json.loads((out / "bench" / "bench_report.json").read_text(encoding="utf-8"))
    entries = [("blackbox", report["blackbox"])]
    entries += [(f"{cell['configs']} {variant}", entry)
                for cell in report["cells"] for variant, entry in cell["variants"].items()]
    for name, entry in entries:
        digest = hashlib.sha256(json.dumps(entry["metrics"], sort_keys=True).encode("utf-8")).hexdigest()[:12]
        print(f"bench {name}: test_accuracy {entry['metrics']['test_accuracy']!r}, metrics {digest}")
    print(call("gradcheck", "--seed", "0"), end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
