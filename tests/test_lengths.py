"""scripts/lengths.py: training step time against the series length, run as a script."""

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "lengths.py"


def test_prints_one_row_per_length():
    """Two lengths, one repeat of two steps: a header, then one row per L
    with its positive step time and its ratio to the first (1.00 there)."""
    result = subprocess.run([sys.executable, str(SCRIPT), "--lengths", "30,60", "--repeats", "1", "--steps", "2"],
                            capture_output=True, text=True, timeout=120, check=True)
    lines = result.stdout.splitlines()
    assert lines[0].startswith("network 4 -> 16 -> 32 -> 2, crop width 24, batch 64")
    assert lines[1].split() == ["L", "step", "us", "vs", "first"]
    rows = [re.fullmatch(r"\s*(\d+)\s+(\d+)\s+(\d+\.\d\d)", line) for line in lines[2:]]
    assert all(rows) and [int(row[1]) for row in rows] == [30, 60]
    assert all(int(row[2]) > 0 for row in rows) and rows[0][3] == "1.00"
