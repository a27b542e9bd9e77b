"""The benchmark's workloads: operation lists, one operation, output checks.

Each workload is a fixed pool of operations on `dahamac`'s public
functions; the seed only shuffles their order.  Outputs are checked
outside the timed region, with checks that do not depend on how the
program labels its indices, so a relabelling cannot show up as
failures.  This module imports `dahamac` only inside functions, so
that importing it costs nothing before the worker's set-up clock runs.
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("eigen", "stability", "oracle")

# (n, r) pairs each workload sweeps; every context is RepContext(n, r, r).
EIGEN_SHAPES = ((4, 2), (3, 3))
ORACLE_SHAPES = ((3, 2), (2, 3), (2, 2), (4, 1))
# Stable indices: r groups, components of length <= 2 with entries <= 2
# (acceptance check 08's pool), trimmed to total degree <= 4 so that one
# pass takes about as long as the other workloads.  The trim keeps every
# link and family of the remaining indices, so the same P is still
# requested again and again.
STABLE_RANKS = (1, 2)
STABLE_MAX_TOTAL = 4
STABLE_N_MAX = 4


def box_indices(n, r, max_entry=2, max_total=3):
    """Every index of r components of length n with entries <= max_entry
    and total degree <= max_total."""
    out = []
    for flat in itertools.product(range(max_entry + 1), repeat=n * r):
        if sum(flat) <= max_total:
            out.append(tuple(flat[i * n:(i + 1) * n] for i in range(r)))
    return out


def stable_pool(r):
    from dahamac.stability import StableIndex

    comps = [()]
    for length in (1, 2):
        for c in itertools.product(range(3), repeat=length):
            if c[-1]:
                comps.append(c)
    out = []
    for combo in itertools.product(comps, repeat=r):
        if sum(map(sum, combo)) > STABLE_MAX_TOTAL:
            continue
        try:
            out.append(StableIndex(combo))
        except ValueError:
            continue  # padding does not give an orbit index
    return out


def make_ops(workload, seed):
    """The workload's operations in an order shuffled by seed (an int or
    a str), and the contexts they use, keyed by (n, r).

    An operation is a tuple whose first entry names its kind.
    """
    from dahamac.rep import RepContext

    ctxs = {}
    ops = []
    if workload in ("eigen", "oracle"):
        kind = "E+check" if workload == "eigen" else "oracle_Y"
        shapes = EIGEN_SHAPES if workload == "eigen" else ORACLE_SHAPES
        for n, r in shapes:
            ctxs[(n, r)] = RepContext(n, r, r)
            ops.extend((kind, n, r, mu) for mu in box_indices(n, r))
    elif workload == "stability":
        for r in STABLE_RANKS:
            for nu in stable_pool(r):
                for n in range(max(nu.ell, 1), STABLE_N_MAX):
                    ops.append(("P_link", n, r, nu))
                ops.append(("family", STABLE_N_MAX, r, nu))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(ops)
    return ops, ctxs


def run_op(op, ctxs):
    """Execute one operation and return its output."""
    kind, n, r, arg = op
    if kind == "E+check":
        from dahamac.nonsym import E, check_record

        ctx = ctxs[(n, r)]
        rec = E(ctx, arg)
        return rec, check_record(ctx, rec)
    if kind == "oracle_Y":
        from dahamac.nonsym import eigen_oracle_Y

        return eigen_oracle_Y(ctxs[(n, r)], arg)
    if kind == "P_link":
        from dahamac.stability import verify_P_stability

        return verify_P_stability(arg, n)
    if kind == "family":
        from dahamac.stability import stable_family

        return stable_family(arg, n)
    raise ValueError(f"unknown operation kind {kind!r}")


def _proportional(a, b):
    """True iff the Laurent polynomials a and b are nonzero multiples of
    each other."""
    if a.is_zero() or b.is_zero() or a.terms.keys() != b.terms.keys():
        return False
    m0 = next(iter(a.terms))
    return a.smul(b.terms[m0]) == b.smul(a.terms[m0])


def check_outputs(ops, ctxs, outputs):
    """Check every output; return (indices of failed ops, verdicts).

    outputs[i] is the output of ops[i], or None when the op raised.
    verdicts holds the stability workload's recorded, not failed,
    verification results.
    """
    failed = {i for i, out in enumerate(outputs) if out is None}
    verdicts = {}
    kinds = {op[0] for op in ops}
    if "E+check" in kinds:
        failed |= _check_eigen(ops, ctxs, outputs)
    if "oracle_Y" in kinds:
        failed |= _check_oracle(ops, ctxs, outputs)
    if kinds & {"P_link", "family"}:
        bad, verdicts = _check_stability(ops, outputs)
        failed |= bad
    return failed, verdicts


def _check_eigen(ops, ctxs, outputs):
    from dahamac.nonsym import weight_of

    failed = set()
    by_shape = {}
    for i, (op, out) in enumerate(zip(ops, outputs)):
        if out is None:
            continue
        _, n, r, mu = op
        rec, ok = out
        if ok is not True or rec.weight != weight_of(ctxs[(n, r)], mu):
            failed.add(i)
        by_shape.setdefault((n, r), []).append((i, rec.weight))
    for group in by_shape.values():
        for (i, wi), (j, wj) in itertools.combinations(group, 2):
            if wi == wj:
                failed.update((i, j))
    return failed


def _check_oracle(ops, ctxs, outputs):
    from dahamac.nonsym import E

    failed = set()
    for i, (op, out) in enumerate(zip(ops, outputs)):
        if out is None:
            continue
        _, n, r, mu = op
        if not _proportional(out, E(ctxs[(n, r)], mu).poly):
            failed.add(i)
    return failed


def _check_stability(ops, outputs):
    from dahamac.rep import RepContext, apply_T

    failed = set()
    links_false = families_with_errors = 0
    for i, (op, out) in enumerate(zip(ops, outputs)):
        if out is None:
            continue
        if op[0] == "P_link":
            if not isinstance(out, bool):
                failed.add(i)
            elif not out:
                links_false += 1
            continue
        if out.errors:
            families_with_errors += 1
        r = op[2]
        for n, member in out.members.items():
            ctx = RepContext(n, r, r)
            if any(apply_T(ctx, j, member.poly) != member.poly
                   for j in range(1, n)):
                failed.add(i)
                break
    return failed, {"links_false": links_false,
                    "families_with_errors": families_with_errors}
