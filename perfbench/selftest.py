"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs a few small operations of each workload, then corrupts their
outputs (a wrong weight, a failed record check, a repeated weight, an
oracle vector that is not a multiple of E, a P that is not
T-invariant, a raising operation) and requires each corruption to count
as a failed operation while the untouched outputs pass.  Exits 0 when
every case behaves, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def _small_ops(workload, count, keep):
    ops, ctxs = workloads.make_ops(workload, seed=0)
    ops = sorted((op for op in ops if keep(op)), key=repr)[:count]
    return ops, ctxs, [workloads.run_op(op, ctxs) for op in ops]


def _expect(name, ops, ctxs, outputs, want_failed):
    failed, _ = workloads.check_outputs(ops, ctxs, outputs)
    ok = failed == want_failed
    print(f"{'ok  ' if ok else 'FAIL'} {name}: failed ops {sorted(failed)}, "
          f"expected {sorted(want_failed)}")
    return ok


def main():
    from dahamac.rep import RepContext, apply_X

    results = []

    ops, ctxs, outs = _small_ops("eigen", 4, lambda op: op[1:3] == (4, 2))
    results.append(_expect("eigen, untouched", ops, ctxs, outs, set()))
    rec, ok = outs[1]
    wrong = tuple(w * w for w in rec.weight)
    bad = list(outs)
    bad[1] = (dataclasses.replace(rec, weight=wrong), ok)
    results.append(_expect("eigen, wrong weight", ops, ctxs, bad, {1}))
    bad = list(outs)
    bad[2] = (outs[2][0], False)
    results.append(_expect("eigen, record check false", ops, ctxs, bad, {2}))
    bad = list(outs) + [outs[3]]
    results.append(_expect("eigen, repeated weight", ops + [ops[3]], ctxs,
                           bad, {3, 4}))
    bad = list(outs)
    bad[0] = None
    results.append(_expect("eigen, raising op", ops, ctxs, bad, {0}))

    ops, ctxs, outs = _small_ops("oracle", 4, lambda op: op[1:3] == (2, 2))
    results.append(_expect("oracle, untouched", ops, ctxs, outs, set()))
    bad = list(outs)
    n, r = ops[2][1:3]
    bad[2] = outs[2] + apply_X(ctxs[(n, r)], 1, outs[2])
    results.append(_expect("oracle, not a multiple of E", ops, ctxs, bad,
                           {2}))

    ops, ctxs, outs = _small_ops(
        "stability", 3, lambda op: op[0] == "family" and op[2] == 1
        and op[3].ell == 2)
    results.append(_expect("stability, untouched", ops, ctxs, outs, set()))
    fam = outs[1]
    n = max(fam.members)
    member = fam.members[n]
    skewed = dataclasses.replace(
        member, poly=apply_X(RepContext(n, 1, 1), 1, member.poly))
    bad = list(outs)
    bad[1] = dataclasses.replace(fam, members={**fam.members, n: skewed})
    results.append(_expect("stability, P not T-invariant", ops, ctxs, bad,
                           {1}))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
