"""One SHA-256 over the outputs of a benchmark workload's operations.

    python3 scripts/output_digest.py --workload eigen --order 1/0

Builds the workload's operation list with `perfbench/workloads.py`, in
the order the seed --order gives, runs every operation once in this
process, and prints the SHA-256 of the rendered outputs, one line per
operation.  Polynomials render as `poly_dumps`, scalars as
`render_scalar`, records and other dataclasses field by field, dict
items sorted by key.  Two trees that give the same digest computed the
same outputs, byte for byte.  --limit N runs only the first N
operations of the shuffled list.  --workload all prints one line for
each workload of NAMES, in that order.

The extra workload e-box is not a benchmark workload: it builds the E
record of every index with entries -2..2 and sum |e| <= 3 at each
(n, r) of E_BOX_SHAPES, 929 indices of which 717 have a negative
entry, so it covers the omega-shift route of E that no benchmark
workload reaches.  The extra workload verify-box renders the exit code
and JSON report of `dahamac verify --suite all` at each box of
VERIFY_BOXES, run in this process, so it pins every byte of those
reports.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from dahamac.field import Scalar, render_scalar  # noqa: E402
from dahamac.laurent import LaurentPoly, poly_dumps  # noqa: E402

E_BOX_SHAPES = ((2, 1), (3, 1), (2, 2), (3, 2), (2, 3))
# (n, r, --max-deg)
VERIFY_BOXES = ((1, 1, (2,)), (2, 1, (2,)), (3, 1, (2,)), (1, 2, (1, 1)),
                (2, 2, (1, 1)))
NAMES = (*workloads.WORKLOADS, "e-box", "verify-box")


def e_box_ops(order):
    """The e-box operations (n, r, index), shuffled by order."""
    ops = []
    for n, r in E_BOX_SHAPES:
        for flat in itertools.product(range(-2, 3), repeat=n * r):
            if sum(map(abs, flat)) <= 3:
                ops.append((n, r, tuple(flat[i * n:(i + 1) * n]
                                        for i in range(r))))
    random.Random(order).shuffle(ops)
    return ops


def outputs(workload, order, limit=None):
    """The outputs of the workload's first limit operations, in order."""
    if workload == "e-box":
        from dahamac.nonsym import E
        from dahamac.rep import RepContext

        for n, r, mu in e_box_ops(order)[:limit]:
            yield E(RepContext(n, r, r), mu)
        return
    if workload == "verify-box":
        from dahamac.cli import SessionConfig, cmd_verify

        boxes = list(VERIFY_BOXES)
        random.Random(order).shuffle(boxes)
        for n, r, bound in boxes[:limit]:
            yield cmd_verify(SessionConfig(n, r, r, max_deg=bound), "all")
        return
    ops, ctxs = workloads.make_ops(workload, order)
    for op in ops[:limit]:
        yield workloads.run_op(op, ctxs)


def render(obj) -> str:
    """Canonical text of one operation output."""
    if isinstance(obj, LaurentPoly):
        return poly_dumps(obj)
    if isinstance(obj, Scalar):
        return render_scalar(obj)
    if dataclasses.is_dataclass(obj):
        return "{" + ", ".join(
            f"{f.name}: {render(getattr(obj, f.name))}"
            for f in dataclasses.fields(obj)) + "}"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{render(key)}: {render(obj[key])}"
                               for key in sorted(obj)) + "}"
    if isinstance(obj, (tuple, list)):
        return "(" + ", ".join(render(x) for x in obj) + ")"
    return repr(obj)


def digest(workload, order, limit=None):
    """(SHA-256 hex digest, number of operations run)."""
    h = hashlib.sha256()
    count = 0
    for out in outputs(workload, order, limit):
        h.update(render(out).encode() + b"\n")
        count += 1
    return h.hexdigest(), count


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*NAMES, "all"))
    parser.add_argument("--order", required=True)
    parser.add_argument("--limit", type=int, default=None)
    args = parser.parse_args(argv)
    for name in NAMES if args.workload == "all" else (args.workload,):
        hexdigest, count = digest(name, args.order, args.limit)
        print(f"{name} order={args.order} ops={count} sha256={hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
