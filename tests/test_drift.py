"""scripts/drift.py: the numeric drift between two golden output directories."""

import importlib.util
from pathlib import Path

from patchx.bundle import save_bundle

from test_bundle import make_bundle

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "drift.py"


def load_drift():
    spec = importlib.util.spec_from_file_location("drift", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write(root: Path, files: dict) -> Path:
    for name, content in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_bytes(content if isinstance(content, bytes) else content.encode())
    return root


def lines(capsys) -> dict[str, str]:
    return {line.rsplit("  ", 1)[1]: line.rsplit("  ", 1)[0] for line in capsys.readouterr().out.splitlines()}


def test_reports_the_largest_difference_of_each_changed_file(tmp_path, capsys):
    drift = load_drift()
    bundle = make_bundle()
    a = write(tmp_path / "a", {"same.txt": "x 1.5\n", "run/v.csv": "id,v\n0,0.25\n1,-3e-05\n",
                               "r.json": '{"m": [1.0, 2.0]}'})
    b = write(tmp_path / "b", {"same.txt": "x 1.5\n", "run/v.csv": "id,v\n0,0.2500000000000001\n1,-3e-05\n",
                               "r.json": '{"m": [1.0, 2.5]}'})
    save_bundle(bundle, a / "bundle.pchx")
    bundle.network.flat_params[3] += 2.0 ** -40
    save_bundle(bundle, b / "bundle.pchx")
    assert drift.main([str(a), str(b)]) == 0
    out = lines(capsys)
    assert set(out) == {"run/v.csv", "r.json", "bundle.pchx"}
    assert out["run/v.csv"] == "max |diff| 1.110e-16 over 4 numbers (1 differ), masked text identical"
    assert out["r.json"] == "max |diff| 5.000e-01 over 2 numbers (1 differ), masked text identical"
    assert out["bundle.pchx"].startswith("max |diff| 9.095e-13 over ")
    assert out["bundle.pchx"].endswith("(1 differ), masked text identical")


def test_masked_text_counts_and_missing_files_fail(tmp_path, capsys):
    drift = load_drift()
    a = write(tmp_path / "a", {"t.txt": "class-specific 0.9\n", "n.txt": "1 2\n", "only.txt": "0\n",
                               "raw.bin": b"\xff\x00"})
    b = write(tmp_path / "b", {"t.txt": "shared 0.9\n", "n.txt": "1 2 3\n", "raw.bin": b"\xff\x01"})
    assert drift.main([str(a), str(b)]) == 1
    out = lines(capsys)
    assert out["t.txt"].endswith("masked text differs")
    assert out["n.txt"] == "2 numbers against 3"
    assert out["only.txt"] == f"only in {a}"
    assert out["raw.bin"] == "binary, not compared"
