"""Training step time against the series length L.

    python3 scripts/lengths.py [--lengths 50,500,2000] [--repeats 5] [--steps 300]

Runs from the checkout's own src/, on one BLAS thread. For each L it builds
the network 4 -> 16 -> 32 -> 2 (two kernel-3 ReLU blocks), draws a batch of
64 crops of width 24 at random offsets in [0, L - 24], and times training
steps on it: one `_loss_and_gradients` through a training Scratch and one
Adam step. It prints the minimum time per step over `repeats` runs of
`steps` steps each, in microseconds, and its ratio to the first length's.
The crops are arrays, so no value table is cut: what grows with L here is
the network's own work.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from patchx import neuralnet  # noqa: E402

CHANNELS, BLOCKS, CLASSES, WIDTH, BATCH = 4, ((16, 3, "relu"), (32, 3, "relu")), 2, 24, 64


def step_seconds(length: int, repeats: int, steps: int) -> float:
    """The least mean time of one training step at this L over the repeats."""
    net = neuralnet.build_network(neuralnet.NetworkSpec(CHANNELS, length, CLASSES, BLOCKS, seed=0))
    rng = np.random.default_rng(length)
    x = rng.normal(size=(BATCH, CHANNELS, WIDTH))
    batch = (x, rng.integers(0, CLASSES, BATCH), rng.integers(0, length - WIDTH + 1, BATCH))
    scratch = net.scratch(BATCH, WIDTH, backward=True)
    optimizer = neuralnet.Adam(net.flat_params.size, 1e-3)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(steps):
            _, grad = neuralnet._loss_and_gradients(net, batch, scratch=scratch)
            optimizer.step(net.flat_params, grad)
        best = min(best, (time.perf_counter() - start) / steps)
    return best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lengths", default="50,500,2000")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--steps", type=int, default=300)
    args = parser.parse_args()
    lengths = [int(token) for token in args.lengths.split(",")]
    print(f"network {CHANNELS} -> {' -> '.join(str(f) for f, _, _ in BLOCKS)} -> {CLASSES}, "
          f"crop width {WIDTH}, batch {BATCH}, min of {args.repeats} x {args.steps} steps")
    print(f"{'L':>6}  {'step us':>9}  {'vs first':>8}")
    first = None
    for length in lengths:
        seconds = step_seconds(length, args.repeats, args.steps)
        first = first or seconds
        print(f"{length:>6}  {seconds * 1e6:>9.0f}  {seconds / first:>8.2f}")


if __name__ == "__main__":
    main()
