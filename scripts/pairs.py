"""Alternating parent/change pairs of benchmark runs: no regression, and whether a claimed gain holds.

    python3 scripts/pairs.py PARENT_DIR CHANGE_DIR --workload W --seed N --pairs 10
        [--seconds 40] [--claim op_s]

PARENT_DIR and CHANGE_DIR are the roots of two checkouts. Each run is that
checkout's own `perfbench/run.py --workload W --seed N+i --seconds S --trace 0`
in pair i+1, so both sides of a pair share a seed and the pairs span seeds N
to N+pairs-1: the spread between seeds lands in each side's quartiles rather
than one seed deciding the verdict. Runs start from the checkout's root in a
fresh process, one at a time; the side that runs first alternates from pair
to pair (the parent first in pair 1). Every end-to-end metric of the run's
result line is read, and `explain_sample` p50 where the run prints it.

Prints each pair's metrics, then for each metric each side's median and
quartiles and the pairs each side won (a tie counts for neither side), in the
direction CHANGE_DIR's BENCHMARK.json gives (lower is better for
`explain_p50_ms`). Each end-to-end metric then gets the no-regression
verdict against the relative bound BENCHMARK.json gives it:

* `within bound`: the change's median is no worse than the parent's by more
  than bound times the parent's median;
* `worse`: it is worse by more than that;
* `unresolved`: the parent's interquartile range is wider than that, so the
  runs spread too widely to tell, unless every change run beats every parent
  run (then `within bound`).

Last, only with --claim, comes the claim rule: the change wins at least nine
tenths of the pairs, and its median is better than the parent's by more than
the parent's interquartile range. Exits 1 when a run fails or reports a
failed operation, else 0, whatever the verdicts and the claim.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

EXPLAIN = re.compile(r"explain_sample\s+p50 ([0-9.eE+-]+) ms")


def summarize(parent: list[float], change: list[float], better: str, bound: float | None = None) -> dict:
    """Medians, quartiles and win counts of paired runs, parent[i] beside
    change[i]; better is "lower" or "higher". claim holds when the change
    wins at least 9/10 of the pairs and its median beats the parent's by more
    than the parent's interquartile range. verdict is the no-regression
    verdict against the relative bound, or None without one."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent and one change value per pair, and at least one pair")
    sign = 1.0 if better == "lower" else -1.0  # sign * (parent - change) > 0 where the change is better
    gains = [sign * (p - c) for p, c in zip(parent, change)]
    p25, p50, p75 = np.percentile(parent, [25, 50, 75])
    c25, c50, c75 = np.percentile(change, [25, 50, 75])
    change_wins, parent_wins = sum(g > 0 for g in gains), sum(g < 0 for g in gains)
    gap = sign * (p50 - c50)
    verdict = None
    if bound is not None:
        allowed = bound * abs(p50)
        if all(sign * (p - c) > 0 for p in parent for c in change):
            verdict = "within bound"
        elif p75 - p25 > allowed:
            verdict = "unresolved"
        else:
            verdict = "worse" if -gap > allowed else "within bound"
    return {
        "parent": (float(p50), float(p25), float(p75)),
        "change": (float(c50), float(c25), float(c75)),
        "change_wins": change_wins,
        "parent_wins": parent_wins,
        "ties": len(gains) - change_wins - parent_wins,
        "median_gap": float(gap),
        "parent_iqr": float(p75 - p25),
        "claim": bool(10 * change_wins >= 9 * len(gains) and gap > p75 - p25),
        "verdict": verdict,
    }


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The end-to-end metrics of one untraced run of root's benchmark: name -> value."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{root}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(lines[-1])
    if result.get("failed"):
        raise RuntimeError(f"{root}: {result['failed']} of {result['attempted']} operations failed")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    explain = EXPLAIN.search(done.stdout)
    if explain:
        metrics["explain_p50_ms"] = float(explain.group(1))
    return metrics


def directions(root: Path) -> dict:
    """Metric name -> ("lower" or "higher", relative bound or None), from
    root's BENCHMARK.json; explain_p50_ms has no bound."""
    declared = json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]
    return {m["name"]: (m["better"], m.get("bound")) for m in declared} | {"explain_p50_ms": ("lower", None)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True, choices=("train", "infer"))
    parser.add_argument("--seed", type=int, required=True,
                        help="the first pair's seed; pair i runs seed + i - 1 on both sides")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--claim", help="the metric whose gain is claimed, if any")
    args = parser.parse_args()
    declared = directions(args.change)
    if args.claim is not None and args.claim not in declared:
        parser.error(f"--claim must be one of {sorted(declared)}")
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            try:
                runs[side].append(run_once(getattr(args, side), args.workload, args.seed + i, args.seconds))
            except RuntimeError as err:
                print(f"pair {i + 1}, {side}: {err}", file=sys.stderr)
                return 1
        cells = "  ".join(f"{name} {runs['parent'][-1][name]:.6g}/{value:.6g}"
                          for name, value in runs["change"][-1].items())
        print(f"pair {i + 1:>2} (seed {args.seed + i}, {order[0]} first)  parent/change  {cells}", flush=True)
    print(f"{args.workload}, seeds {args.seed}-{args.seed + args.pairs - 1}, {args.pairs} pairs, "
          f"{args.seconds:g} s per run")
    summaries = {name: summarize([r[name] for r in runs["parent"]], [r[name] for r in runs["change"]],
                                 *declared.get(name, ("lower", None)))
                 for name in runs["change"][0]}
    for name, s in summaries.items():
        (p50, p25, p75), (c50, c25, c75) = s["parent"], s["change"]
        print(f"  {name:<16} parent {p50:.6g} [{p25:.6g}, {p75:.6g}]  change {c50:.6g} [{c25:.6g}, {c75:.6g}]  "
              f"change better in {s['change_wins']}, parent in {s['parent_wins']}, ties {s['ties']}")
    for name, s in summaries.items():
        if s["verdict"] is not None:
            bound, p50 = declared[name][1], s["parent"][0]
            print(f"  {name:<16} {s['verdict']} (change worse by {-s['median_gap']:.6g}, parent IQR "
                  f"{s['parent_iqr']:.6g}, bound {bound:g} x {p50:.6g} = {bound * abs(p50):.6g})")
    if args.claim is None:
        return 0
    if args.claim not in summaries:
        print(f"no run reported {args.claim}", file=sys.stderr)
        return 1
    claim = summaries[args.claim]
    print(f"claim on {args.claim}: {'holds' if claim['claim'] else 'does not hold'} "
          f"(change better in {claim['change_wins']} of {args.pairs} pairs; median gap "
          f"{claim['median_gap']:.6g} against a parent IQR of {claim['parent_iqr']:.6g})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
