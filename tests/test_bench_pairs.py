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


def test_summarize_workloads_keeps_each_workload_apart():
    runs = []
    for workload, walls in (("eigen", [(0.40, 0.41), (0.42, 0.40)]),
                            ("oracle", [(0.19, 0.15), (0.20, 0.16)])):
        for pair, (p, c) in enumerate(walls, start=1):
            for tree, wall, failed in (("parent", p, 0), ("change", c, 1)):
                runs.append({"workload": workload, "seed": pair,
                             "pair": pair, "tree": tree, "failed": failed,
                             "attempted": 10, "correct": True,
                             "host_slowdown": 1.0, "wall_s": wall})
    results = bench_pairs.summarize_workloads(runs, {})
    assert list(results) == ["eigen", "oracle"]
    eigen, oracle = results["eigen"]["summary"], results["oracle"]["summary"]
    assert eigen["wall_s"]["change_wins"] == "1/2"
    assert eigen["wall_s"]["parent"]["median"] == pytest.approx(0.41)
    assert oracle["wall_s"]["change_wins"] == "2/2"
    assert oracle["wall_s"]["median_change_pct"] == -20.5
    assert results["oracle"]["failed"] == {"parent": 0, "change": 2}


def test_pairs_interleave_the_workloads(monkeypatch, tmp_path):
    # each pair runs every workload on both sides before the next
    # workload, the parent first in odd pairs, and its raw passes right
    # after that workload's runs
    calls = []
    monkeypatch.setattr(bench_pairs, "_fresh_copy",
                        lambda checkout, tmp, name: name)

    def run_bench(copy, workload, seed, seconds, trace):
        calls.append(("run", workload, seed, copy))
        return ({"host_slowdown": [1.0]},
                {"failed": 0, "attempted": 1, "correct": True,
                 "metrics": {"wall_s": {"value": 1.0}}})

    def run_raw_pass(copy, workload, order):
        calls.append(("raw", workload, order, copy))
        return 0.5 if copy == "change" else 0.6, 0.002

    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
    monkeypatch.setattr(bench_pairs, "run_raw_pass", run_raw_pass)
    checkouts = {"parent": "p", "change": "c"}
    runs = bench_pairs.run_pairs(checkouts, ["eigen", "oracle"], [7, 8], 1,
                                 0, 1, tmp_path)
    assert calls == [
        ("run", "eigen", 7, "parent"), ("run", "eigen", 7, "change"),
        ("raw", "eigen", "7/0", "parent"), ("raw", "eigen", "7/0", "change"),
        ("run", "oracle", 7, "parent"), ("run", "oracle", 7, "change"),
        ("raw", "oracle", "7/0", "parent"),
        ("raw", "oracle", "7/0", "change"),
        ("run", "eigen", 8, "change"), ("run", "eigen", 8, "parent"),
        ("raw", "eigen", "8/0", "change"), ("raw", "eigen", "8/0", "parent"),
        ("run", "oracle", 8, "change"), ("run", "oracle", 8, "parent"),
        ("raw", "oracle", "8/0", "change"),
        ("raw", "oracle", "8/0", "parent"),
    ]
    assert [(r["workload"], r["pair"], r["tree"], r["raw_wall_s"])
            for r in runs[:2]] == [("eigen", 1, "parent", 0.6),
                                   ("eigen", 1, "change", 0.5)]
