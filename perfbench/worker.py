"""One benchmark pass, run in a fresh worker process.

    python3 -B perfbench/worker.py --workload eigen --order 1/0 [--trace] [--setup-only]

The driver (run.py) starts this script as a child process per pass and
reads the pass summary, one JSON object, from its standard output.  A
fresh process starts with the module caches of `dahamac` (the E cache
and the Y-matrix cache) empty, as a command-line user's process does.

Between operations the worker times three fixed pure-Python loops that
do not touch `dahamac`: integer arithmetic, a product of polynomials
stored as dicts with big integer coefficients, and allocation of small
containers.  Other tenants of the host slow a process down by up to
about 1.6 times for stretches of tens of seconds, and the loops slow
down with it, so the geometric mean of their times measures the host's
speed at that moment.  The driver scales every time by it.  The three
loops react differently to different kinds of contention; their mean
tracks the workloads better than any one of them.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from pathlib import Path

# Before the set-up clock runs, so the path lookup is not part of it.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

# Time the reference loops again once this long has passed since the
# last sample; one sample takes about 7 ms.
CALIBRATE_EVERY_S = 0.25
SETUP_CALIBRATIONS = 5

_F = {(i, j, (i + j) % 3, 1): (131 * i + 17 * j) * 1000003 + 7
      for i in range(4) for j in range(4)}
_G = {(j, i, 1, i * j % 2): (71 * i - 13 * j) * 999983 - 3
      for i in range(4) for j in range(3)}


def _integer_loop():
    s = 0
    for i in range(30_000):
        s += i * i % 7


def _polynomial_product():
    for _ in range(6):
        out = {}
        for m1, c1 in _F.items():
            for m2, c2 in _G.items():
                m = tuple(map(sum, zip(m1, m2)))
                out[m] = out.get(m, 0) + c1 * c2
        g = 0
        for c in out.values():
            g = math.gcd(g, c)


def _allocation():
    [{(i, i + 1): [i, (i,)], "k": i} for i in range(3000)]


def reference_time():
    """Geometric mean of the times of the three reference loops."""
    logs = 0.0
    for loop in (_integer_loop, _polynomial_product, _allocation):
        t0 = time.perf_counter()
        loop()
        logs += math.log(time.perf_counter() - t0)
    return math.exp(logs / 3)


def run_pass(workload, order, trace, setup_only):
    """Set up, run every operation of the workload once, check the
    outputs, and return a summary of the pass."""
    t0 = time.perf_counter()
    import dahamac  # noqa: F401  (the import is part of set-up)
    import workloads

    ops, ctxs = workloads.make_ops(workload, order)
    setup_s = time.perf_counter() - t0
    if setup_only:
        return {"setup_s": setup_s,
                "references": [reference_time()
                               for _ in range(SETUP_CALIBRATIONS)]}

    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    outputs, latencies, errors = [], [], []
    # references[reference_index[i] - 1] is the last sample before op i.
    references, reference_index = [], []
    clock = time.perf_counter
    last = float("-inf")
    for op in ops:
        if clock() - last >= CALIBRATE_EVERY_S:
            references.append(reference_time())
            last = clock()
        reference_index.append(len(references))
        a = clock()
        try:
            out = workloads.run_op(op, ctxs)
        except Exception as exc:  # a raising operation counts as failed
            out = None
            errors.append(f"{op[0]} n={op[1]} r={op[2]} {op[3]}: {exc!r}")
        latencies.append(clock() - a)
        outputs.append(out)
    references.append(reference_time())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    failed, verdicts = workloads.check_outputs(ops, ctxs, outputs)
    errors.extend(f"{ops[i][0]} n={ops[i][1]} r={ops[i][2]} {ops[i][3]}: "
                  "output check failed"
                  for i in sorted(failed) if outputs[i] is not None)
    return {
        "setup_s": setup_s,
        "latencies": latencies,
        "references": references,
        "reference_index": reference_index,
        "peak_rss_mb": rss_mb,
        "attempted": len(ops),
        "failed": len(failed),
        "errors": errors,
        "verdicts": verdicts,
        "layers": tracer.metrics() if tracer is not None else None,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--order", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    summary = run_pass(args.workload, args.order, args.trace,
                       args.setup_only)
    sys.stdout.write(json.dumps(summary) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
