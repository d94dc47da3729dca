"""Quick tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import harness  # noqa: E402
import workloads as W  # noqa: E402
from glyphcode import (  # noqa: E402
    CodedElement,
    EllipseArcCode,
    LineSegmentCode,
    SubWordCode,
    WordCode,
    WordEntry,
)
from glyphcode.matcher import freeman_sum  # noqa: E402


def test_accuracy_scorer_passes_a_perfect_reading():
    pairs = [(("vee", "oval"), ["vee", "oval"]), (("zig", "jay", "cee"), ["zig", "jay", "cee"])]
    assert checks.glyph_accuracy(pairs) == 1.0


def test_accuracy_scorer_fails_a_poor_reading():
    pairs = [(("vee", "oval"), ["oval"]), (("zig", "jay", "cee"), ["uu", "jay", "vee", "hline"])]
    accuracy = checks.glyph_accuracy(pairs)
    assert accuracy == pytest.approx(2 / 5)
    assert accuracy < harness.ACCURACY_FLOOR["words60"]


def _el(code, dirs=(9, 9, 9)):
    return CodedElement(code, dirs)


def _word(*subwords):
    return WordCode(tuple(WordEntry(SubWordCode(tuple(s)), (9, 9, 9)) for s in subwords))


ELL = SubWordCode((_el(LineSegmentCode(0.2, 0.0, 0.8), (6, 9, 9)), _el(LineSegmentCode(0.9, 90.0, 0.7))))


def test_alignment_check_confirms_a_true_placement():
    word = _word(
        [
            _el(LineSegmentCode(0.3, 1.5, 0.82), (6, 0, 9)),
            _el(LineSegmentCode(0.1, 88.0, 0.71), (0, 9, 9)),
            _el(EllipseArcCode(0.5, 0.5, 0.2, 0.1, 0.0, 10.0, 200.0)),
        ]
    )
    assert checks.placement_faults(word, [("ell", "isolated", (0, 0))], {("ell", "isolated"): ELL}, W.TOL) == []


def test_alignment_check_rejects_a_false_or_overlapping_placement():
    word = _word([_el(LineSegmentCode(0.3, 20.0, 0.82), (6, 9, 9)), _el(LineSegmentCode(0.1, 88.0, 0.71))])
    codes = {("ell", "isolated"): ELL}
    assert checks.placement_faults(word, [("ell", "isolated", (0, 0))], codes, W.TOL)
    vline = SubWordCode((_el(LineSegmentCode(0.5, 0.0, 0.5)),))
    one = _word([_el(LineSegmentCode(0.5, 0.0, 0.8))])
    twice = [("v", "isolated", (0, 0)), ("v", "isolated", (0, 0))]
    assert checks.placement_faults(one, twice, {("v", "isolated"): vline}, W.TOL) == [
        "sub-word 0: placements overlap"
    ]


def test_direction_sum_agrees_with_the_program():
    for n in (1, 2, 3):
        for dirs in itertools.product((0, 1, 2, 3, 4, 5, 6, 7, 9), repeat=n):
            assert checks._direction_sum(dirs) == freeman_sum(dirs), dirs


def test_element_check_flags_malformed_codes():
    bad = _word(
        [
            _el(LineSegmentCode(0.1, 10.0, 0.0), (8, 9, 9)),
            _el(EllipseArcCode(0.5, 0.5, 0.1, 0.2, 0.0, 0.0, 90.0)),
            _el(LineSegmentCode(float("nan"), 10.0, 0.5)),
        ]
    )
    faults = checks.element_faults(bad)
    assert len(faults) == 4  # bad direction, zero length, a < b, NaN
    assert checks.element_faults(_word(list(ELL.elements))) == []


def test_book_has_144_distinct_shapes_and_labels():
    shapes = W.book_shapes()
    assert len(shapes) == 144 == len(set(map(repr, shapes)))
    assert len(set(W.book_labels())) == 144


@pytest.fixture
def small(monkeypatch):
    """A handful of words per round and one set-up."""
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)
    monkeypatch.setattr(harness, "MIN_TIMED_WORDS", 1)
    monkeypatch.setattr(W, "TIMED_BLOCKS", {"words60": 1, "ink120": 1})
    monkeypatch.setattr(W, "ACCURACY_BLOCKS", {"words60": 1, "ink120": 1})
    monkeypatch.setattr(W, "BOOK_WORD_LENGTHS", (6, 7))


@pytest.mark.parametrize("workload", ["words60", "ink120", "book144"])
def test_smoke_run(small, workload, tmp_path):
    result = harness.measure(workload, 3, 0.01, 0, str(tmp_path))
    assert result["correct"] and result["failed"] == 0
    expected = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in expected["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_run(small, tmp_path):
    result = harness.measure("words60", 3, 0.01, 1, str(tmp_path))
    assert result["correct"] and result["failed"] == 0
    expected = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in expected["per_layer"]}
    assert result["metrics"]["geomfit.fit_line_calls"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "words60", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
