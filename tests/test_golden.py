"""The golden runs (scripts/golden.py) against their record, tests/golden.txt.

The record's first two lines name the numpy and the BLAS it was made with;
golden bytes hold for those alone, so the test skips, naming both sides,
where either differs. Everywhere else every line must match.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_golden_output_matches_the_record(tmp_path):
    want = (ROOT / "tests" / "golden.txt").read_text(encoding="utf-8").splitlines()
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "golden.py"), str(tmp_path)],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    got = done.stdout.splitlines()
    if got[:2] != want[:2]:
        made, runs = ("; ".join(line.removeprefix("# ") for line in lines[:2]) for lines in (want, got))
        pytest.skip(f"golden.txt was made with {made}; this host runs {runs}")
    assert got == want
