"""Alternating benchmark pairs of two checkouts of this repository.

    python3 scripts/bench_pairs.py PARENT CHANGE \
        --workload eigen,stability,oracle --seeds 2901-2910 --seconds 20 \
        [--trace 0] [--raw-passes 3] [--out BENCH_x.json]

Pair k runs `perfbench/run.py` of both checkouts on the k-th seed, the
parent first on odd k and the change first on even k.  With several
workloads, pair k runs each of them in turn, both sides before the
next workload, so that a drift of the host's speed falls on all of
them alike.  Every run starts
from a fresh copy of the checkout's `src/` and `perfbench/` in a
temporary directory, without `__pycache__`, so neither side imports
bytecode that an earlier run or a test left behind.

With --raw-passes N, each pair then runs N single worker passes
(`perfbench/worker.py`) per side, alternating, and records each side's
raw pass time (the unscaled sum of the operations' latencies) and its
reference time (the median of the worker's reference-loop samples),
each the median over the N passes.  The raw time does not depend on
the reference loops, whose own time can move with the heap the program
leaves behind.

For every workload and metric it prints each side's median and
quartiles, the change in the medians, the parent's interquartile range,
and the count of pairs the change wins (lower wins, or higher for a
metric that BENCHMARK.json marks "higher").  For an end-to-end metric,
whose BENCHMARK.json entry has a bound, it also prints whether the
change's median is worse than the parent's by more than that bound, a
fraction of the parent's median (0.2 is 20%).  --out writes the runs
and those summaries, one per workload, as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
COPIED = ("src", "perfbench")
# the entries of a run that are no metric
RUN_FIELDS = ("workload", "seed", "pair", "tree", "failed", "attempted",
              "correct", "host_slowdown")


def seed_list(spec):
    """The seeds of a spec such as "2901-2910" or "1,5,9"."""
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def quartiles(values):
    """{median, q1, q3, n} of values, quartiles by the inclusive
    method; with one value all three are that value."""
    values = list(values)
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def compare(pairs, better="lower", bound=None):
    """The change against the parent over (parent, change) values of
    the same pairs: each side's quartiles, the change's wins, the
    medians' change in percent, the parent's interquartile range, and
    whether the medians differ by more than that range; with a bound,
    also whether the change's median is worse than the parent's by more
    than bound times the parent's median."""
    parent = quartiles(p for p, _ in pairs)
    change = quartiles(c for _, c in pairs)
    sign = -1 if better == "higher" else 1
    wins = sum(sign * (c - p) < 0 for p, c in pairs)
    iqr = parent["q3"] - parent["q1"]
    diff = change["median"] - parent["median"]
    out = {
        "parent": parent,
        "change": change,
        "change_wins": f"{wins}/{len(pairs)}",
        "median_change_pct": (round(100 * diff / parent["median"], 1)
                              if parent["median"] else None),
        "parent_iqr": iqr,
        "beyond_parent_iqr": abs(diff) > iqr,
    }
    if bound is not None:
        out["bound"] = bound
        out["worse_past_bound"] = sign * diff > bound * abs(parent["median"])
    return out


def _fresh_copy(checkout, tmp, name):
    dest = Path(tmp) / name
    shutil.rmtree(dest, ignore_errors=True)
    for part in COPIED:
        shutil.copytree(Path(checkout) / part, dest / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def _last_lines(cmd, cwd, count):
    out = subprocess.run(cmd, cwd=cwd, stdin=subprocess.DEVNULL,
                         capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {out.returncode}: "
                           f"{out.stderr.strip()[-500:]}")
    return [json.loads(line) for line in
            out.stdout.strip().splitlines()[-count:]]


def run_bench(copy, workload, seed, seconds, trace):
    """(record, result) of one `perfbench/run.py` run in copy."""
    return _last_lines(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)], copy, 2)


def run_raw_pass(copy, workload, order):
    """(raw pass time, median reference time) of one worker pass."""
    (summary,) = _last_lines(
        [sys.executable, "-B", "perfbench/worker.py", "--workload", workload,
         "--order", order], copy, 1)
    return sum(summary["latencies"]), statistics.median(summary["references"])


def _git_sha(checkout):
    out = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or None


def _metric_spec(checkout):
    """(directions, bounds) from the checkout's BENCHMARK.json: each
    metric's "better", and each end-to-end metric's bound."""
    path = Path(checkout) / "BENCHMARK.json"
    if not path.is_file():
        return {}, {}
    spec = json.loads(path.read_text())
    end_to_end = spec.get("end_to_end", [])
    return ({m["name"]: m.get("better", "lower")
             for m in end_to_end + spec.get("per_layer", [])},
            {m["name"]: m["bound"] for m in end_to_end if "bound" in m})


def run_pairs(checkouts, workloads, seeds, seconds, trace, raw_passes, tmp):
    runs = []
    for k, seed in enumerate(seeds, start=1):
        order = SIDES if k % 2 else SIDES[::-1]
        for workload in workloads:
            pair = []
            for side in order:
                copy = _fresh_copy(checkouts[side], tmp, side)
                record, result = run_bench(copy, workload, seed, seconds,
                                           trace)
                run = {"workload": workload, "seed": seed, "pair": k,
                       "tree": side, "failed": result["failed"],
                       "attempted": result["attempted"],
                       "correct": result["correct"],
                       "host_slowdown": statistics.median(
                           record["host_slowdown"]),
                       **{name: m["value"]
                          for name, m in result["metrics"].items()}}
                pair.append(run)
                print(json.dumps(run), file=sys.stderr)
            if raw_passes:
                raw = {side: [] for side in SIDES}
                for i in range(raw_passes):
                    for side in (order if i % 2 == 0 else order[::-1]):
                        copy = _fresh_copy(checkouts[side], tmp, side)
                        raw[side].append(run_raw_pass(copy, workload,
                                                      f"{seed}/{i}"))
                for run in pair:
                    times = raw[run["tree"]]
                    run["raw_wall_s"] = statistics.median(t for t, _ in times)
                    run["reference_s"] = statistics.median(r for _, r in times)
            runs.extend(pair)
    return runs


def summarize(runs, directions, bounds=None):
    """({metric: compare(...)}, {side: failed operations}) over the
    runs, two to a pair; directions maps a metric to "higher" when
    higher is better, and bounds a metric to its bound."""
    by_pair = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["tree"]] = run
    names = [name for name in runs[0] if name not in RUN_FIELDS]
    summary = {name: compare([(p["parent"][name], p["change"][name])
                              for p in by_pair.values()],
                             directions.get(name, "lower"),
                             (bounds or {}).get(name))
               for name in names}
    failed = {side: sum(r["failed"] for r in runs if r["tree"] == side)
              for side in SIDES}
    return summary, failed


def summarize_workloads(runs, directions, bounds=None):
    """{workload: {"summary": ..., "failed": ...}} of summarize over each
    workload's runs, in the order the workloads first occur."""
    out = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        summary, failed = summarize(
            [run for run in runs if run["workload"] == workload], directions,
            bounds)
        out[workload] = {"summary": summary, "failed": failed}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True,
                        help="one workload, or several separated by commas")
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--raw-passes", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    seed_spec, seeds = args.seeds, seed_list(args.seeds)
    workloads = args.workload.split(",")
    checkouts = {"parent": Path(args.parent).resolve(),
                 "change": Path(args.change).resolve()}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        runs = run_pairs(checkouts, workloads, seeds, args.seconds,
                         args.trace, args.raw_passes, tmp)
    results = summarize_workloads(runs, *_metric_spec(checkouts["change"]))
    for workload, result in results.items():
        print(f"== {workload}")
        for name, s in result["summary"].items():
            p, c, pct = s["parent"], s["change"], s["median_change_pct"]
            print(f"{name:32} parent {p['median']:.6g} [{p['q1']:.6g}, "
                  f"{p['q3']:.6g}]  change {c['median']:.6g} "
                  f"[{c['q1']:.6g}, {c['q3']:.6g}]  "
                  f"{'n/a' if pct is None else f'{pct:+}%'}  "
                  f"wins {s['change_wins']}  beyond parent IQR: "
                  f"{s['beyond_parent_iqr']}"
                  + (f"  worse past bound {s['bound']:g}: "
                     f"{s['worse_past_bound']}" if "bound" in s else ""))
        failed = result["failed"]
        print(f"failed operations: parent {failed['parent']}, "
              f"change {failed['change']}")
    if args.out:
        Path(args.out).write_text(json.dumps({
            "command": (f"python3 scripts/bench_pairs.py <parent> <change> "
                        f"--workload {args.workload} --seeds {seed_spec} "
                        f"--seconds {args.seconds:g} --trace {args.trace} "
                        f"--raw-passes {args.raw_passes}"),
            "python": sys.version.split()[0],
            "git_sha": {side: _git_sha(checkouts[side]) for side in SIDES},
            "workloads": results, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
