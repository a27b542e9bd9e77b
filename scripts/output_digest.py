"""One SHA-256 over the outputs of a benchmark workload's operations.

    python3 scripts/output_digest.py --workload eigen --order 1/0

Builds the workload's operation list with `perfbench/workloads.py`, in
the order the seed --order gives, runs every operation once in this
process, and prints the SHA-256 of the rendered outputs, one line per
operation.  Polynomials render as `poly_dumps`, scalars as
`render_scalar`, records and other dataclasses field by field, dict
items sorted by key.  Two trees that give the same digest computed the
same outputs, byte for byte.  --limit N runs only the first N
operations of the shuffled list.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from dahamac.field import Scalar, render_scalar  # noqa: E402
from dahamac.laurent import LaurentPoly, poly_dumps  # noqa: E402


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
    ops, ctxs = workloads.make_ops(workload, order)
    ops = ops[:limit]
    h = hashlib.sha256()
    for op in ops:
        h.update(render(workloads.run_op(op, ctxs)).encode() + b"\n")
    return h.hexdigest(), len(ops)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--order", required=True)
    parser.add_argument("--limit", type=int, default=None)
    args = parser.parse_args(argv)
    hexdigest, count = digest(args.workload, args.order, args.limit)
    print(f"{args.workload} order={args.order} ops={count} "
          f"sha256={hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
