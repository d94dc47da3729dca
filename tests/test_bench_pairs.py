"""tools/bench_pairs.py: the summary of alternating benchmark pairs."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pairs(parent, change):
    return [{"parent": {"m": b}, "change": {"m": c}} for b, c in zip(parent, change)]


def test_summary_of_fixed_pairs():
    tool = _load_tool()
    pairs = _pairs([10, 20, 30, 40, 50], [12, 20, 29, 44, 60])
    (up,) = tool.summarize(pairs, {"m": "higher"}).values()
    # inclusive quartiles of 10..50: the 25th and 75th percentiles by
    # linear interpolation between closest ranks
    assert up["parent"] == {"q1": 20, "median": 30, "q3": 40}
    assert up["change"] == {"q1": 20, "median": 29, "q3": 44}
    assert (up["change_wins"], up["parent_wins"]) == (3, 1)  # one tie
    assert up["median_change_pct"] == round(100 * (29 - 30) / 30, 2) == -3.33
    assert up["parent_iqr"] == 20
    assert up["median_diff"] == -1
    (down,) = tool.summarize(pairs, {"m": "lower"}).values()
    assert (down["change_wins"], down["parent_wins"]) == (1, 3)
    assert down["median_diff"] == up["median_diff"]


def test_summary_of_even_and_single_pairs():
    tool = _load_tool()
    (even,) = tool.summarize(_pairs([1, 2, 3, 4], [2, 2, 2, 2]), {"m": "lower"}).values()
    assert even["parent"] == {"q1": 1.75, "median": 2.5, "q3": 3.25}
    assert (even["change_wins"], even["parent_wins"]) == (2, 1)
    assert even["parent_iqr"] == 1.5 and even["median_diff"] == -0.5
    (one,) = tool.summarize(_pairs([4.0], [5.0]), {"m": "higher"}).values()
    assert one["parent"] == {"q1": 4.0, "median": 4.0, "q3": 4.0}
    assert (one["change_wins"], one["median_change_pct"]) == (1, 25.0)
