"""Tests for the pure summary half of ``benchmarks/ab.py`` (no subprocesses)."""

import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("benchmarks_ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
# Registered before executing: dataclasses look their module up by name.
sys.modules[_SPEC.name] = ab
_SPEC.loader.exec_module(ab)

BETTER = {"labels_per_s": "higher", "setup_s": "lower", "missing_metric": "lower"}


def run(labels_per_s, setup_s, correct=True, failed=0):
    return {
        "correct": correct,
        "attempted": 10,
        "failed": failed,
        "metrics": {
            "labels_per_s": {"value": labels_per_s, "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
        },
    }


#: Four pairs: the change is faster in three, slower in one, and ties on
#: setup time in two.
PAIRS = [
    (run(100.0, 2.0), run(110.0, 2.0)),
    (run(102.0, 2.0), run(101.0, 1.5)),
    (run(98.0, 3.0), run(120.0, 3.0)),
    (run(104.0, 1.0), run(130.0, 0.5)),
]


def by_name(summaries):
    return {summary.name: summary for summary in summaries}


def test_medians_spread_and_range():
    summary = by_name(ab.summarize(PAIRS, BETTER))["labels_per_s"]
    assert summary.parent.median == pytest.approx(101.0)
    assert summary.change.median == pytest.approx(115.0)
    assert (summary.parent.q1, summary.parent.q3) == pytest.approx((99.5, 102.5))
    assert (summary.change.low, summary.change.high) == (101.0, 130.0)


def test_pairs_won_lost_follow_the_declared_direction():
    summaries = by_name(ab.summarize(PAIRS, BETTER))
    higher = summaries["labels_per_s"]
    assert (higher.won, higher.lost, higher.tied) == (3, 1, 0)
    lower = summaries["setup_s"]
    assert (lower.won, lower.lost, lower.tied) == (2, 0, 2)


def test_metric_not_reported_by_every_run_is_skipped():
    assert [summary.name for summary in ab.summarize(PAIRS, BETTER)] == [
        "labels_per_s",
        "setup_s",
    ]


def test_single_pair_spread_is_its_value():
    summary = by_name(ab.summarize(PAIRS[:1], BETTER))["setup_s"]
    assert (summary.parent.q1, summary.parent.median, summary.parent.q3) == (
        2.0,
        2.0,
        2.0,
    )


def test_correct_runs_have_no_problems():
    assert ab.problems(PAIRS) == []


def test_incorrect_or_failed_runs_are_reported():
    pairs = [
        (run(100.0, 2.0), run(110.0, 2.0, correct=False)),
        (run(100.0, 2.0, failed=3), run(110.0, 2.0)),
        ({"correct": False, "failed": 1, "metrics": {}, "error": "boom"}, run(1.0, 1.0)),
    ]
    found = ab.problems(pairs)
    assert len(found) == 3
    assert found[0].startswith("pair 0 change: correct=False")
    assert found[1].startswith("pair 1 parent: correct=True failed=3")
    assert found[2].endswith("boom")
