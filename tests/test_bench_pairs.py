"""scripts/bench_pairs.py: the statistics of alternating benchmark
pairs, on fixed numbers."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import bench_pairs  # noqa: E402


def test_seed_lists():
    assert bench_pairs.seed_list("2901-2904") == [2901, 2902, 2903, 2904]
    assert bench_pairs.seed_list("1,5-6,9") == [1, 5, 6, 9]


def test_quartiles_are_inclusive():
    assert bench_pairs.quartiles([4, 1, 3, 2, 5]) == {
        "median": 3, "q1": 2, "q3": 4, "n": 5}
    q = bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0])
    assert (q["q1"], q["median"], q["q3"]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([7.0]) == {
        "median": 7.0, "q1": 7.0, "q3": 7.0, "n": 1}


def test_compare_counts_wins_and_the_parent_spread():
    # the change is lower in four of five pairs, and its median is 20%
    # below the parent's, past the parent's range [0.9, 1.1]
    pairs = [(1.0, 0.8), (1.1, 0.85), (0.9, 0.75), (1.2, 0.9), (0.8, 0.95)]
    s = bench_pairs.compare(pairs)
    assert s["change_wins"] == "4/5"
    assert s["parent"]["median"] == 1.0 and s["change"]["median"] == 0.85
    assert s["median_change_pct"] == -15.0
    assert s["parent_iqr"] == pytest.approx(0.2)
    assert s["beyond_parent_iqr"] is False
    assert bench_pairs.compare(pairs, "higher")["change_wins"] == "1/5"
    far = [(p, c - 0.2) for p, c in pairs]
    assert bench_pairs.compare(far)["beyond_parent_iqr"] is True
    # a tie is no win
    assert bench_pairs.compare([(1.0, 1.0), (2.0, 1.0)])["change_wins"] == \
        "1/2"


def test_summarize_pairs_runs_by_pair_and_tree():
    runs = []
    for pair, (p, c) in enumerate([(0.30, 0.24), (0.32, 0.25), (0.29, 0.31)],
                                  start=1):
        for tree, wall, ratio in (("parent", p, 0.5), ("change", c, 0.6)):
            runs.append({"workload": "oracle", "seed": pair, "pair": pair,
                         "tree": tree, "failed": 0, "attempted": 10,
                         "correct": True, "host_slowdown": 1.0,
                         "wall_s": wall, "field.gcd_heu_ratio": ratio})
    summary, failed = bench_pairs.summarize(
        runs, {"field.gcd_heu_ratio": "higher"})
    assert sorted(summary) == ["field.gcd_heu_ratio", "wall_s"]
    assert summary["wall_s"]["change_wins"] == "2/3"
    assert summary["field.gcd_heu_ratio"]["change_wins"] == "3/3"
    assert failed == {"parent": 0, "change": 0}
