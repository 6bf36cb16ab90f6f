"""Benchmark of the patchx pipeline.

    python3 perfbench/run.py --workload {train,infer} --seed N --seconds S --trace {0,1}

Run from the root of a checkout. Inputs are made from --seed; operations run in
a closed loop for --seconds (and at least until every workload's minimum is
met). The workload is set up several times, once before the first operation
and the others spread over the measured time; setup_s is their median. With
--trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 every other operation is traced and the last line holds the
per-layer metrics. See perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread, pinned before numpy is imported anywhere in the process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("PATCHX_SEED", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail(values: list[float]) -> tuple[float | None, float | None]:
    """Highest percentile with at least ten samples beyond it, and its value."""
    import numpy as np

    for p in TAIL_PERCENTILES:
        if len(values) * (1 - p / 100) >= 10:
            return p, float(np.percentile(values, p))
    return None, None


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None when it cannot be asked."""
    import numpy as np

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m_at_start": os.getloadavg()[0],
    }


def import_patchx() -> bool:
    """Import the checkout's own patchx from src/, never an installed copy."""
    src = ROOT / "src"
    if not (src / "patchx" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    import patchx

    return Path(patchx.__file__).resolve().is_relative_to(src.resolve())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "infer"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env_at_start = os.getloadavg()[0]
    if not import_patchx():
        print(f"no patchx sources under {ROOT / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    import spans
    from workloads import CONFIGS, CONV_LABELS, LENGTH, SMALL_COUNTS, WORKLOADS, Recorder

    env = environment()
    env["loadavg_1m_at_start"] = env_at_start
    if env["blas_threads"] is None or env["blas_threads"] > 1:
        print(f"warning: BLAS reports {env['blas_threads']} threads; timings assume one",
              file=sys.stderr)

    # A terminated run still removes its scratch directory (the finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workload = WORKLOADS[args.workload]()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    rec = Recorder()
    setup_times = []

    def set_up_again() -> None:
        """One more set-up of a spare workload in its own directory, timed and discarded."""
        spare = work / f"setup{len(setup_times)}"
        t0 = perf_counter()
        WORKLOADS[args.workload]().setup(spare, args.seed, rec)
        setup_times.append(perf_counter() - t0)
        shutil.rmtree(spare)

    try:
        t0 = perf_counter()
        workload.setup(work / "main", args.seed, rec)
        setup_times.append(perf_counter() - t0)

        tracer = spans.Tracer(CONV_LABELS) if args.trace else None
        began = perf_counter()
        with tracer.group() if tracer else contextlib.nullcontext():
            rec.tracer = tracer
            try:
                workload.start(rec)
            except Exception as err:  # the operations then fail and are counted
                rec.check(False, f"start raised {type(err).__name__}: {err}")
        i = 0
        op_times = {False: [], True: []}  # by whether the operation was traced
        call_times = []  # whole operations, in case none records its own timing
        while (i < workload.min_ops or perf_counter() - began < args.seconds
               or not (workload.done() or rec.failed)):
            traced = tracer is not None and i % 2 == 1
            rec.tracer = tracer if traced else None
            timed = rec.samples.setdefault(workload.name, [])
            before = len(timed)
            t0 = perf_counter()
            with tracer.group() if traced else contextlib.nullcontext():
                try:
                    workload.operation(rec, i)
                except Exception as err:  # an operation that raises is a failed one
                    rec.check(False, f"operation {i} raised {type(err).__name__}: {err}")
            call_times.append(perf_counter() - t0)
            op_times[traced].extend(timed[before:])
            i += 1
            # Set-ups after the first are spread evenly over the measured time,
            # so that setup_s samples the same stretch of host time as op_s.
            elapsed = perf_counter() - began
            while (len(setup_times) < workload.setup_repeats
                   and elapsed >= len(setup_times) * args.seconds / workload.setup_repeats):
                set_up_again()
        while len(setup_times) < workload.setup_repeats:
            set_up_again()
        rec.tracer = None
        if tracer is not None:
            with tracer.group(fallback=True):
                try:
                    workload.other_layers()
                except Exception as err:
                    rec.check(False, f"pass over the other layers raised {type(err).__name__}: {err}")
        measured = perf_counter() - began
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    for failure in rec.failures:
        print(f"FAILED CHECK: {failure}")
    # When operations failed before timing themselves, report whole calls and
    # an accuracy of 0, so that the result line with its failed count still prints.
    ops = op_times[False] or op_times[True] or call_times
    accuracy = rec.accuracy or [0.0]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report = {
        "setup_s": (statistics.median(setup_times), "s", setup_times),
        "op_s": (statistics.median(ops), "s", ops),
        "test_accuracy": (statistics.median(accuracy), "fraction", accuracy),
        "peak_rss_mb": (peak_rss_mb, "MB", [peak_rss_mb]),
    }

    print(json.dumps({"environment": env, "workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "operations": i, "measured_s": round(measured, 3)}))
    print_human(args.workload, report, rec, measured, SMALL_COUNTS[2])

    if tracer is not None:
        window = spans.window_fraction(CONFIGS, LENGTH)
        metrics = spans.layer_metrics(tracer, workload.name, window)
        print_trace(workload.name, metrics, op_times, spans.COMPUTED)
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _) in report.items()}
    result = {"correct": rec.failed == 0, "attempted": rec.attempted, "failed": rec.failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


OP_NAMES = {"train": "train_s", "infer": "predict_dataset pass"}


def print_human(workload: str, report: dict, rec, measured: float, test_count: int) -> None:
    print(f"# {workload}: {measured:.1f} s measured; "
          f"{rec.failed} of {rec.attempted} checked operations failed "
          f"({rec.failed / max(rec.attempted, 1):.1%})")
    for name, (value, unit, samples) in report.items():
        p, tail_value = tail(samples)
        extra = f", p{p:g} {tail_value:.6g}" if p is not None else ""
        label = f" [{OP_NAMES[workload]}]" if name == "op_s" else ""
        print(f"  {name:<16} {value:.6g} {unit}  (median of n={len(samples)}{extra}){label}")
    if workload == "infer":
        per_s = [test_count / t for t in report["op_s"][2]]
        print(f"  infer_samples_per_s {statistics.median(per_s):.6g} samples/s "
              f"(median of n={len(per_s)})")
    if "explain" in rec.samples:
        explain_ms = [t * 1e3 for t in rec.samples["explain"]]
        p, tail_value = tail(explain_ms)
        print(f"  explain_sample   p50 {statistics.median(explain_ms):.6g} ms, "
              f"p{p:g} {tail_value:.6g} ms (n={len(explain_ms)})")
    for name in ("load", "histogram", "mislabels", "refit"):
        if name in rec.samples:
            print(f"  {name}_s {statistics.median(rec.samples[name]):.6g} s "
                  f"(n={len(rec.samples[name])})")


def print_trace(workload: str, metrics: dict, op_times: dict, computed: set) -> None:
    if op_times[True] and op_times[False]:
        traced, untraced = statistics.median(op_times[True]), statistics.median(op_times[False])
        print(f"  trace: overhead {traced - untraced:+.4f} s per {workload} operation "
              f"(traced median {traced:.4f} s of n={len(op_times[True])}, "
              f"untraced {untraced:.4f} s of n={len(op_times[False])})")
    if "trace.coverage" in metrics and metrics["trace.coverage"]["value"]:
        print(f"  trace: top-level spans cover {metrics['trace.coverage']['value']:.2%} of "
              f"{workload}; unattributed {metrics['trace.unattributed_s']['value']:.4f} s")
    for name, m in metrics.items():
        tag = "  (computed)" if name in computed else ""
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}{tag}")


if __name__ == "__main__":
    sys.exit(main())
