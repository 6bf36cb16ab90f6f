"""Run the benchmark on several seeds and print each metric's median and spread.

    python3 perfbench/spread.py --workload infer --seeds 1-10 --seconds 40

The spread is the distance between the first and third quartiles of the
per-seed values (statistics.quantiles, n=4), as a share of their median: the
figure each end-to-end bound in BENCHMARK.json is compared against. Runs are
untraced, as the bounds are.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range a-b")
    parser.add_argument("--seconds", type=int, default=40)
    args = parser.parse_args()
    lo, hi = (int(v) for v in args.seeds.split("-"))
    values: dict[str, list[float]] = {}
    for seed in range(lo, hi + 1):
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} failed", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
              flush=True)
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{args.workload} {name:<16} median {med:.6g}  spread {spread:.4f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
