"""Where one benchmark pass spends its time, by `dahamac` function.

    python3 scripts/profile_split.py --workload oracle [NAME ...]

Runs one pass of a workload of `perfbench/workloads.py` in this
process, its operations in the order the benchmark's worker uses for
the seed 1/0 (`output_digest.outputs`), under cProfile, and prints the
cumulative seconds of each named function and its share of the pass.
A NAME is `module.function` within `dahamac`, such as
`linalg.joint_left_kernel` or `field.__add__` (methods go by their bare
name); with none, the fifteen `dahamac` functions of largest
cumulative time are printed.  The E, P and Y caches are emptied first,
as a worker starts with them empty, and the outputs are not checked:
the benchmark does that.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time
from pathlib import Path

import output_digest
import workloads

TOP = 15


def profile_pass(workload):
    """(pass seconds under the profiler, {module.function: cumulative
    seconds}, {module.function: calls}) over every `dahamac` function
    the pass called."""
    from dahamac import nonsym

    nonsym.clear_cache()
    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    profiler.runcall(list, output_digest.outputs(workload, "1/0"))
    total = time.perf_counter() - t0
    cumulative, calls = {}, {}
    for (filename, _, func), (_, nc, _, ct, _) in \
            pstats.Stats(profiler).stats.items():
        path = Path(filename)
        if path.parent.name == "dahamac":
            name = f"{path.stem}.{func}"
            cumulative[name] = cumulative.get(name, 0.0) + ct
            calls[name] = calls.get(name, 0) + nc
    return total, cumulative, calls


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("names", nargs="*")
    args = parser.parse_args(argv)
    total, cumulative, calls = profile_pass(args.workload)
    names = args.names or sorted(cumulative, key=cumulative.get,
                                 reverse=True)[:TOP]
    print(f"{'pass':40} {total:8.3f} s  100.0% {1:9}")
    for name in names:
        s = cumulative.get(name, 0.0)
        print(f"{name:40} {s:8.3f} s  {100 * s / total:5.1f}% "
              f"{calls.get(name, 0):9}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
