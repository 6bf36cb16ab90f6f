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


@pytest.mark.parametrize("shift, bound, verdict", [
    (0.0, 0.25, "within bound"),
    (0.2, 0.25, "within bound"),  # worse by 0.2, under 0.25 x 1.2
    (0.5, 0.25, "worse"),
    (0.05, 0.1, "unresolved"),  # the parent's IQR, 0.2, is wider than 0.1 x 1.2
    (-0.1, 0.1, "unresolved"),  # better in the median, but not every change run beats every parent run
    (-0.5, 0.1, "within bound"),  # every change run beats every parent run
], ids=["equal", "worse-within", "worse-past", "wide-parent", "better-inside-spread", "better-than-all"])
def test_no_regression_verdict(shift, bound, verdict):
    assert pairs.summarize(PARENT, [p + shift for p in PARENT], "lower", bound)["verdict"] == verdict


def test_verdict_follows_the_direction_and_needs_a_bound():
    lower = [p - 0.5 for p in PARENT]
    assert pairs.summarize(PARENT, lower, "higher", 0.25)["verdict"] == "worse"
    assert pairs.summarize(PARENT, lower, "lower", 0.25)["verdict"] == "within bound"
    assert pairs.summarize(PARENT, lower, "lower")["verdict"] is None


def fake_checkout(root, op_s):
    """A checkout whose benchmark prints one fixed result line and appends
    the seed it was given to seeds.txt."""
    (root / "perfbench").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "op_s", "better": "lower", "bound": 0.25},
        {"name": "test_accuracy", "better": "higher", "bound": 0.15}]}))
    result = {"attempted": 3, "failed": 0,
              "metrics": {"op_s": {"value": op_s}, "test_accuracy": {"value": 0.9}}}
    (root / "perfbench" / "run.py").write_text(
        "import sys\n"
        "open('seeds.txt', 'a').write(sys.argv[sys.argv.index('--seed') + 1] + '\\n')\n"
        f"print({json.dumps(json.dumps(result))})\n"
    )
    return root


@pytest.mark.parametrize("claim", [[], ["--claim", "op_s"]], ids=["no-claim", "claim"])
def test_main_prints_a_verdict_per_metric_and_the_claim_only_when_asked(tmp_path, monkeypatch, capsys, claim):
    """Pair i runs seed --seed + i on both sides, and the header prints the range."""
    parent, change = fake_checkout(tmp_path / "parent", 1.0), fake_checkout(tmp_path / "change", 2.0)
    monkeypatch.setattr("sys.argv", ["pairs.py", str(parent), str(change), "--workload", "infer", "--seed", "7",
                                     "--pairs", "3", *claim])
    assert pairs.main() == 0
    for root in (parent, change):
        assert (root / "seeds.txt").read_text().split() == ["7", "8", "9"]
    out = capsys.readouterr().out
    assert "infer, seeds 7-9, 3 pairs" in out
    assert "op_s             worse" in out and "test_accuracy    within bound" in out
    assert ("claim on op_s: does not hold" in out) is bool(claim)
