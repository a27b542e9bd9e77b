"""Benchmark driver for `dahamac`.

    python3 perfbench/run.py --workload eigen --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Each pass runs every operation
of the workload once, in a fresh worker process (worker.py) with one
thread, and checks the outputs outside the timed region.  Passes repeat, one at a
time, until the next one would overrun --seconds, with two passes at
least; with --trace 1 the passes alternate untraced and traced.  Eight
set-up-only workers add samples to the set-up time.

Every time is scaled by REFERENCE_S over the time of fixed reference
loops sampled in the same worker (see worker.py), which removes most of
the host's speed drift; the values are seconds on a host where those
loops take REFERENCE_S.

The last line of standard output is the result, one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  The line before
it records the run: seed, git sha, Python version, CPU count, pass
count, the host's measured speed and the stability workload's
verification verdicts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

# The driver writes no bytecode either, so a run writes nothing.
sys.dont_write_bytecode = True

from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_PROBES = 8
MIN_PASSES = 2
REFERENCE_S = 0.002
# The whole run must end well within 180 s.
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def _spawn(deadline, workload, order, trace=False, setup_only=False):
    """Run one worker to completion and return the summary it printed.

    The worker is waited for on every path out of here, so no process
    outlives the run.  With -B every worker compiles dahamac from
    source, so set-up time does not depend on what an earlier run left
    behind.
    """
    cmd = [sys.executable, "-B", str(WORKER), "--workload", workload,
           "--order", order]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(
            timeout=max(deadline - time.perf_counter(), 0.0))
    except subprocess.TimeoutExpired:
        raise BenchError("worker did not finish before the deadline") \
            from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode} "
                         "without a result")
    return json.loads(lines[-1])


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _scale(summary):
    """Factor that turns a worker's times into reference-speed times."""
    return REFERENCE_S / statistics.median(summary["references"])


def _scaled_latencies(summary):
    """Each operation's time, scaled by the reference samples around it:
    two before it and two after.  The host's speed changes within a
    pass, so this tracks it better than one factor for the pass."""
    refs = summary["references"]
    return [x * REFERENCE_S / statistics.median(refs[max(i - 2, 0):i + 2])
            for x, i in zip(summary["latencies"],
                            summary["reference_index"])]


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _layer_unit(name):
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def run(workload, seed, seconds, trace):
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    # Pass k runs the operations in the order shuffled by "<seed>/k", so
    # each run samples a few orders: which operation pays for filling a
    # cache depends on the order, and it moves the latency percentiles.
    probes = [_spawn(deadline, workload, f"{seed}/0", setup_only=True)
              for _ in range(SETUP_PROBES)]
    passes = []
    longest = 0.0
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        p0 = time.perf_counter()
        passes.append(_spawn(deadline, workload, f"{seed}/{len(passes)}",
                             trace=traced))
        passes[-1]["traced"] = traced
        now = time.perf_counter()
        longest = max(longest, now - p0)
        if len(passes) >= MIN_PASSES and now - start + longest > seconds:
            break

    for p in passes:
        for err in p["errors"]:
            print(err, file=sys.stderr)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    plain = [p for p in passes if not p["traced"]]
    wall = statistics.median(sum(_scaled_latencies(p)) for p in plain)
    if trace:
        traced = [p for p in passes if p["traced"]]
        layers = [{name: value * _scale(p) if _layer_unit(name) == "s"
                   else value for name, value in p["layers"].items()}
                  for p in traced]
        metrics = {name: _metric(statistics.median(lay[name]
                                                   for lay in layers),
                                 _layer_unit(name))
                   for name in layers[0]}
        traced_wall = statistics.median(sum(_scaled_latencies(p))
                                        for p in traced)
        metrics["trace.overhead_ratio"] = _metric(traced_wall / wall,
                                                  "ratio")
    else:
        latencies = [x for p in plain for x in _scaled_latencies(p)]
        setups = [p["setup_s"] * _scale(p) for p in probes + passes]
        metrics = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "wall_s": _metric(wall, "s"),
            "op_p50_s": _metric(statistics.median(latencies), "s"),
            "op_p90_s": _metric(_p90(latencies), "s"),
            "peak_rss_mb": _metric(
                statistics.median(p["peak_rss_mb"] for p in plain), "MB"),
        }
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "passes": len(passes),
        "ops_per_pass": passes[0]["attempted"],
        "setup_samples": len(probes) + len(passes),
        "host_slowdown": [round(1 / _scale(p), 3) for p in passes],
        "verdicts": passes[0]["verdicts"],
    }
    return record, {"correct": failed == 0, "attempted": attempted,
                    "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dahamac" / "__init__.py").is_file():
        print(f"no dahamac sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        record, result = run(args.workload, args.seed, args.seconds,
                             args.trace)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
