"""Numeric drift between two output directories of scripts/golden.py.

    python3 scripts/drift.py A B

For each file whose bytes differ between A and B (same path relative to each),
prints the largest absolute difference between the numbers of the two files,
paired in the order they appear, and whether the two files are the same once
every number is masked out. A bundle's numbers are those of its JSON header
followed by every value of its array payload; its masked text is the magic,
the version and the masked header. Files present on one side only are listed
as such. Exits 1 when a file is on one side only, or when two files differ in
their masked text or their count of numbers; else 0, so the drift lines alone
describe the change.
"""

from __future__ import annotations

import json
import math
import re
import struct
import sys
from pathlib import Path

import numpy as np

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:nan|inf|NaN|Infinity)\b")
MAGIC, PREFIX = b"PCHX1", 15  # the bundle's magic, and its magic, version and header length


def scan(text: str) -> tuple[list[float], str]:
    """The numbers of text, in order, and text with each one replaced by '#'."""
    return [float(m) for m in NUMBER.findall(text)], NUMBER.sub("#", text)


def numbers_and_mask(raw: bytes) -> tuple[np.ndarray, str] | None:
    """The numbers of a file and its masked text; None for a binary file that is not a bundle."""
    if raw[:5] == MAGIC and len(raw) >= PREFIX:
        (header_len,) = struct.unpack("<Q", raw[7:PREFIX])
        header = raw[PREFIX : PREFIX + header_len].decode("utf-8")
        numbers, mask = scan(header)
        offset, payload = PREFIX + header_len, []
        for entry in json.loads(header)["arrays"]:
            array = np.frombuffer(raw, entry["dtype"], math.prod(entry["shape"]), offset)
            payload.append(array.astype(np.float64))
            offset += array.nbytes
        return np.concatenate([numbers, *payload]), raw[:7].hex() + mask
    try:
        numbers, mask = scan(raw.decode("utf-8"))
    except UnicodeDecodeError:
        return None
    return np.array(numbers, dtype=np.float64), mask


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    a_dir, b_dir = map(Path, argv)
    paths = {p.relative_to(d) for d in (a_dir, b_dir) for p in d.rglob("*") if p.is_file()}
    failed = False
    for path in sorted(paths):
        a, b = a_dir / path, b_dir / path
        if not (a.is_file() and b.is_file()):
            print(f"only in {a_dir if a.is_file() else b_dir}  {path}")
            failed = True
            continue
        raw_a, raw_b = a.read_bytes(), b.read_bytes()
        if raw_a == raw_b:
            continue
        parsed_a, parsed_b = numbers_and_mask(raw_a), numbers_and_mask(raw_b)
        if parsed_a is None or parsed_b is None:
            print(f"binary, not compared  {path}")
            failed = True
            continue
        (x, mask_a), (y, mask_b) = parsed_a, parsed_b
        if len(x) != len(y):
            print(f"{len(x)} numbers against {len(y)}  {path}")
            failed = True
            continue
        same = (x == y) | (np.isnan(x) & np.isnan(y))
        drift = float(np.max(np.abs(x - y), where=~same, initial=0.0))
        masked = "identical" if mask_a == mask_b else "differs"
        failed |= mask_a != mask_b
        print(f"max |diff| {drift:.3e} over {len(x)} numbers ({int((~same).sum())} differ), "
              f"masked text {masked}  {path}")
    return int(failed)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
