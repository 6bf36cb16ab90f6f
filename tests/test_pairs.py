"""scripts/pairs.py: the summary of alternating parent/change benchmark pairs."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "pairs.py"


def load_pairs():
    spec = importlib.util.spec_from_file_location("pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pairs = load_pairs()
PARENT = [1.0, 1.1, 1.2, 1.3, 1.4, 1.0, 1.1, 1.2, 1.3, 1.4]  # median 1.2, quartiles 1.1 and 1.3


def test_a_clear_gain_holds():
    s = pairs.summarize(PARENT, [p - 0.5 for p in PARENT], "lower")
    assert s["parent"] == pytest.approx((1.2, 1.1, 1.3))
    assert s["change"] == pytest.approx((0.7, 0.6, 0.8))
    assert (s["change_wins"], s["parent_wins"], s["ties"]) == (10, 0, 0)
    assert s["median_gap"] == pytest.approx(0.5) and s["parent_iqr"] == pytest.approx(0.2)
    assert s["claim"]


@pytest.mark.parametrize("losses, ties, holds",
                         [(0, 1, True), (1, 0, True), (0, 2, False), (2, 0, False), (1, 1, False)])
def test_nine_wins_in_ten_are_needed_and_ties_count_for_neither(losses, ties, holds):
    change = [p - 0.5 for p in PARENT]
    for i in range(losses):
        change[i] = PARENT[i] + 0.1
    for i in range(losses, losses + ties):
        change[i] = PARENT[i]
    s = pairs.summarize(PARENT, change, "lower")
    assert (s["change_wins"], s["parent_wins"], s["ties"]) == (10 - losses - ties, losses, ties)
    assert s["claim"] is holds


def test_a_gap_inside_the_parents_spread_does_not_hold():
    s = pairs.summarize(PARENT, [p - 0.15 for p in PARENT], "lower")
    assert s["change_wins"] == 10
    assert s["median_gap"] == pytest.approx(0.15)
    assert s["median_gap"] < s["parent_iqr"]
    assert not s["claim"]


def test_higher_is_better():
    s = pairs.summarize(PARENT, [p + 0.5 for p in PARENT], "higher")
    assert s["change_wins"] == 10 and s["median_gap"] == pytest.approx(0.5) and s["claim"]
    assert not pairs.summarize(PARENT, [p + 0.5 for p in PARENT], "lower")["claim"]


def test_one_value_per_pair():
    with pytest.raises(ValueError):
        pairs.summarize(PARENT, PARENT[:-1], "lower")
    with pytest.raises(ValueError):
        pairs.summarize([], [], "lower")


def test_reads_the_result_line_and_explain_p50(tmp_path):
    """run_once runs the checkout's own benchmark script and reads its last line."""
    bench = tmp_path / "perfbench"
    bench.mkdir()
    result = {"correct": True, "attempted": 3, "failed": 0,
              "metrics": {"op_s": {"value": 0.05, "unit": "s"}, "peak_rss_mb": {"value": 90.0, "unit": "MB"}}}
    (bench / "run.py").write_text(
        "import sys\n"
        "assert sys.argv[1:] == ['--workload', 'infer', '--seed', '4', '--seconds', '1.5', '--trace', '0']\n"
        "print('  explain_sample   p50 0.183 ms, p99 0.25 ms (n=500)')\n"
        f"print({json.dumps(json.dumps(result))})\n"
    )
    assert pairs.run_once(tmp_path, "infer", 4, 1.5) == {"op_s": 0.05, "peak_rss_mb": 90.0, "explain_p50_ms": 0.183}
    result["failed"] = 1
    (bench / "run.py").write_text(f"print({json.dumps(json.dumps(result))})\n")
    with pytest.raises(RuntimeError, match="1 of 3 operations failed"):
        pairs.run_once(tmp_path, "infer", 4, 1.5)
