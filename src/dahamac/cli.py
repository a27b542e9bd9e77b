"""Command line for building and verifying the representation.

Subcommands: e (non-symmetric polynomial with its weight), p
(symmetric polynomial with its eigenvalue), verify (exhaustive
identity suites with a JSON report), stability (a truncation-stable
family with its verdicts), apply (a textual operator expression
applied to a polynomial).

verify --max-deg bounds every suite, the stability suite's families
included (one per orbit index of the box); its default is 1 per group.

Exit codes: 0 success, 1 verification failure, 2 usage or parse
error.  Output is deterministic for a fixed invocation.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from dataclasses import dataclass

from .field import MAX_EXP, integer, render_scalar, scalar_to_json
from .laurent import LaurentPoly, render_poly, poly_to_json, poly_from_json
from .rep import RepContext, verify_daha_relations, apply_operator_expr, \
    degrees_upto, _monomials_upto
from .nonsym import E, check_record, knop_sahi_check, knop_sahi_moves, \
    verify_triangular
from .symmetric import P, enumerate_orbit_indices, is_orbit_index, \
    verify_spectrum
from .stability import StableIndex, stable_family, \
    verify_quotient_relations, verify_P_stability

class UsageError(Exception):
    pass


# A packed monomial has q_count + 1 fields of 32 bits whether or not the
# parameters occur, so every key and guard mask grows with --q-count.
MAX_Q_COUNT = 1000


def _check_q_count(q_count):
    if q_count > MAX_Q_COUNT:
        raise UsageError(f"--q-count must be at most {MAX_Q_COUNT}")


@dataclass(frozen=True)
class SessionConfig:
    n: int
    r: int
    q_count: int
    fmt: str = "text"
    max_deg: tuple = None

    def __post_init__(self):
        if self.n < 1:
            raise UsageError("need n >= 1")
        if self.r < 1 or self.q_count < self.r:
            raise UsageError("need 1 <= r <= q_count")
        _check_q_count(self.q_count)

    def ctx(self):
        return RepContext(self.n, self.r, self.q_count)

    def bound(self):
        if self.max_deg is None:
            return (1,) * self.r
        # pi turns an x-exponent into a q-exponent, which a Scalar caps
        # at MAX_EXP
        if len(self.max_deg) != self.r \
                or any(not 0 <= b <= MAX_EXP for b in self.max_deg):
            raise UsageError(f"--max-deg needs r entries in 0..{MAX_EXP}")
        return self.max_deg


def parse_ragged(spec):
    """Integer groups, entries ',' and groups '|'; a group may be empty."""
    comps = []
    for part in spec.split("|"):
        part = part.strip()
        try:
            comps.append(tuple(integer(e) for e in part.split(","))
                         if part else ())
        except ValueError:
            raise UsageError(f"cannot parse index {spec!r}")
    return tuple(comps)


def parse_index(spec, n, r):
    """r groups of n integers, in parse_ragged's grammar."""
    comps = parse_ragged(spec)
    if len(comps) != r or any(len(c) != n for c in comps):
        raise UsageError(
            f"index {spec!r} must have {r} group(s) of {n} entries")
    return comps


def format_index(index):
    return "|".join(",".join(str(e) for e in comp) for comp in index)


# ---------------------------------------------------------------------------
# polynomial commands


def cmd_e(config: SessionConfig, mu_spec) -> str:
    mu = parse_index(mu_spec, config.n, config.r)
    rec = E(config.ctx(), mu)
    if config.fmt == "json":
        return json.dumps(
            {"index": [list(c) for c in mu],
             "poly": poly_to_json(rec.poly),
             "weight": [scalar_to_json(s) for s in rec.weight]},
            indent=2)
    latex = config.fmt == "latex"
    weight = ", ".join(render_scalar(s, latex=latex) for s in rec.weight)
    return render_poly(rec.poly, latex=latex) + "\nweight: (" + weight + ")"


def cmd_p(config: SessionConfig, nu_spec) -> str:
    nu = parse_index(nu_spec, config.n, config.r)
    if not is_orbit_index(nu):
        raise UsageError(f"index {nu_spec!r} is not an orbit "
                         "representative (columns must decrease)")
    rec = P(config.ctx(), nu)
    if config.fmt == "json":
        return json.dumps(
            {"index": [list(c) for c in nu],
             "poly": poly_to_json(rec.poly),
             "eigenvalue": scalar_to_json(rec.eigenvalue)},
            indent=2)
    latex = config.fmt == "latex"
    value = render_scalar(rec.eigenvalue, latex=latex)
    return render_poly(rec.poly, latex=latex) + "\neigenvalue: " + value


def _read_poly(config, text):
    """The polynomial of a JSON text in the session's shape.  A header
    or an exponent length of another shape gets the one shape message,
    before any coefficient is decoded."""
    try:
        d = json.loads(text)
        shape = [integer(d[key]) for key in ("r", "n", "params")]
        lengths = {len(m) for item in d["terms"] for part in ("num", "den")
                   for _, m in item["coeff"][part]}
        if shape == [config.r, config.n, config.q_count] \
                and lengths <= {config.q_count + 1}:
            return poly_from_json(d)
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"cannot parse polynomial JSON: {exc}")
    raise UsageError("polynomial shape does not match --n/--r/--q-count")


def cmd_apply(config: SessionConfig, expr, poly_text=None, poly_file=None,
              mu_spec=None) -> str:
    """The image of one input: the parser admits exactly one of
    poly_text, poly_file and mu_spec."""
    ctx = config.ctx()
    if mu_spec is not None:
        mu = parse_index(mu_spec, config.n, config.r)
        p = LaurentPoly.monomial(ctx.r, ctx.n, ctx.k, mu, ctx.scalar())
    else:
        text = poly_text
        if poly_file is not None:
            with open(poly_file) as fh:
                text = fh.read()
        p = _read_poly(config, text)
    try:
        image = apply_operator_expr(ctx, expr, p)
    except (ValueError, IndexError, ZeroDivisionError) as exc:
        raise UsageError(str(exc))
    if config.fmt == "json":
        return json.dumps({"expr": expr, "poly": poly_to_json(image)},
                          indent=2)
    return render_poly(image, latex=config.fmt == "latex")


# ---------------------------------------------------------------------------
# verification suites: a suite yields rows, each with a name and an ok
# verdict, and a report's verdict is the conjunction of its rows


def _indices_upto(config):
    """Index tuples with componentwise multidegree at most the bound,
    ascending."""
    n = config.n
    return [tuple(flat[i:i + n] for i in range(0, len(flat), n))
            for flat in sorted(_monomials_upto(config.ctx(), config.bound()))]


def _suite_daha(config):
    for row in verify_daha_relations(config.ctx(), config.bound())["checks"]:
        yield {"name": row["relation"], "ok": row["ok"]}


def _suite_eigen(config):
    ctx = config.ctx()
    weights = []
    for mu in _indices_upto(config):
        rec = E(ctx, mu)
        weights.append(rec.weight)
        yield {"name": format_index(mu), "ok": check_record(ctx, rec)}
    yield {"name": "weights pairwise distinct",
           "ok": len(set(weights)) == len(weights)}


def _suite_knop_sahi(config):
    ctx = config.ctx()
    for mu in _indices_upto(config):
        moves = knop_sahi_moves(ctx, mu)
        raising = all(knop_sahi_check(ctx, mu, move) for move in moves
                      if move[0] != "shift")
        shifting = all(knop_sahi_check(ctx, mu, move) for move in moves
                       if move[0] == "shift")
        yield {"name": format_index(mu), "moves": len(moves),
               "raising_ok": raising, "shifting_ok": shifting,
               "ok": raising and shifting}


def _suite_triangular(config):
    ctx = config.ctx()
    for mu in _indices_upto(config):
        yield {"name": format_index(mu),
               "ok": verify_triangular(ctx, mu[0], mu[1:])}


def _suite_symmetric(config):
    ctx = config.ctx()
    for d in degrees_upto(config.bound()):
        report = verify_spectrum(ctx, config.n, config.r, d)
        bad = [format_index(row["index"]) for row in report["indices"]
               if not row["ok"]]
        yield {"name": f"component {','.join(map(str, d))}",
               "ok": report["ok"],
               "distinct": report["distinct"],
               "count_matches_dim": report["count_matches_dim"],
               "failing_indices": bad}


def _suite_stability(config):
    report = verify_quotient_relations(config.n, config.r, config.bound(),
                                       k=config.q_count)
    for name, row in report["identities"].items():
        yield {"name": name, "ok": not row["failures"]}
    # one family per orbit index of the box, trailing zeros dropped
    for d in degrees_upto(config.bound()):
        for index in enumerate_orbit_indices(config.n, config.r, d):
            nu = StableIndex(tuple(
                c[:max((j + 1 for j, e in enumerate(c) if e), default=0)]
                for c in index))
            yield {"name": "family " + format_index(nu.components),
                   "ok": verify_P_stability(nu, config.n, k=config.q_count)}


# suite name -> runner, in report order
_SUITE_RUNNERS = {
    "daha-relations": _suite_daha,
    "eigen": _suite_eigen,
    "knop-sahi": _suite_knop_sahi,
    "triangular": _suite_triangular,
    "symmetric": _suite_symmetric,
    "stability": _suite_stability,
}
SUITES = (*_SUITE_RUNNERS, "all")


def cmd_verify(config: SessionConfig, suite):
    if suite not in SUITES:
        raise UsageError(f"unknown suite {suite!r}; choose from "
                         + ", ".join(SUITES))
    checks = [{**row, "name": f"{name}: {row['name']}"}
              for name, fn in _SUITE_RUNNERS.items()
              if suite in ("all", name) for row in fn(config)]
    ok = all(row["ok"] for row in checks)
    report = {"suite": suite, "n": config.n, "r": config.r,
              "q_count": config.q_count, "max_deg": list(config.bound()),
              "ok": ok, "checks": checks}
    return (0 if ok else 1), json.dumps(report, indent=2)


def cmd_stability(nu_spec, n_max, q_count=None):
    """(exit code, report): the report is a dict, which main encodes
    straight to the output: its text is 173 MB at --nu "3,1|2" --n-max 8."""
    try:
        nu = StableIndex(parse_ragged(nu_spec))
    except ValueError as exc:
        raise UsageError(str(exc))
    if n_max < max(nu.ell, 1):
        raise UsageError("--n-max must be at least the longest component")
    if q_count is not None:
        _check_q_count(q_count)
    fam = stable_family(nu, n_max, k=q_count)
    members = {}
    for n in sorted(fam.members):
        rec = fam.members[n]
        members[str(n)] = {"poly": poly_to_json(rec.poly),
                           "eigenvalue": render_scalar(rec.eigenvalue)}
    report = {
        "index": [list(c) for c in nu.components],
        "members": members,
        "projections": {str(n): ok
                        for n, ok in sorted(fam.projections.items())},
        "eigenvalue_constant": fam.eigenvalue_constant,
        "stable_value": render_scalar(fam.stable_value),
        "remark_value": None if fam.remark_value is None
        else render_scalar(fam.remark_value),
        "matches_remark": fam.matches_remark,
        "errors": list(fam.errors),
        "ok": fam.ok,
    }
    return (0 if fam.ok else 1), report


# ---------------------------------------------------------------------------
# argument plumbing


def _add_common(sub, verify=False):
    sub.add_argument("--n", type=integer, required=True,
                     help="number of variables per group")
    sub.add_argument("--r", type=integer, default=1,
                     help="number of variable groups (default 1)")
    sub.add_argument("--q-count", type=integer, default=None,
                     help="session parameter count (default r)")
    sub.add_argument("--out", default=None, help="write output to a file")
    if verify:
        sub.add_argument("--max-deg", default=None,
                         help="degree bound of every suite and stability "
                         "family, e.g. \"2,1\" (default 1 in each group)")
    else:
        sub.add_argument("--format", choices=("text", "latex", "json"),
                         default="text")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """One line on stderr and exit code 2, like every input fault."""
        self.exit(2, f"error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        # "--flag=--" reaches no type check: argparse drops the "--" from
        # the option's arguments and stores [] as its value
        ns, extra = super().parse_known_args(args, namespace)
        for dest, value in vars(ns).items():
            if isinstance(value, list):
                flag = "--" + dest.replace("_", "-")
                self.error(f"argument {flag}: expected one argument")
        return ns, extra


def build_parser():
    ap = _Parser(
        prog="dahamac",
        description="higher rank Macdonald polynomials, exactly")
    cmds = ap.add_subparsers(dest="command", required=True)

    e = cmds.add_parser("e", help="non-symmetric polynomial and weight")
    _add_common(e)
    e.add_argument("--mu", required=True,
                   help="index, entries ',' and groups '|': \"0,1,0|2,1,0\"")

    p = cmds.add_parser("p", help="symmetric polynomial and eigenvalue")
    _add_common(p)
    p.add_argument("--nu", required=True,
                   help="orbit index in the same grammar as --mu")

    v = cmds.add_parser("verify", help="run an identity suite")
    _add_common(v, verify=True)
    v.add_argument("--suite", required=True,
                   help="one of " + ", ".join(SUITES))

    s = cmds.add_parser("stability", help="truncation-stable family")
    s.add_argument("--nu", required=True,
                   help="ragged stable index, e.g. \"1,1|2\"")
    s.add_argument("--n-max", type=integer, required=True)
    s.add_argument("--q-count", type=integer, default=None)
    s.add_argument("--out", default=None)

    a = cmds.add_parser("apply", help="apply an operator expression")
    _add_common(a)
    a.add_argument("--expr", required=True,
                   help="generators T<j>, Tinv<j>, X<i>, Xinv<i>, Y<i>, "
                   "pi with t, q<i> and integer weights, e.g. "
                   "\"t^2 pi Tinv2 Tinv1 + Y1\" (rightmost first)")
    source = a.add_mutually_exclusive_group(required=True)
    source.add_argument("--poly", help="polynomial as JSON text")
    source.add_argument("--poly-file", help="file holding polynomial JSON")
    source.add_argument("--mu", help="monomial exponent rows in index grammar")
    return ap


def _parse_bound(text):
    if text is None:
        return None
    try:
        return tuple(integer(e) for e in text.split(","))
    except ValueError:
        raise UsageError(f"cannot parse degree bound {text!r}")


def _dispatch(args):
    if args.command == "stability":
        return cmd_stability(args.nu, args.n_max, q_count=args.q_count)
    config = SessionConfig(
        n=args.n, r=args.r,
        q_count=args.q_count if args.q_count is not None else args.r,
        fmt=getattr(args, "format", "text"),
        max_deg=_parse_bound(getattr(args, "max_deg", None)))
    if args.command == "e":
        return 0, cmd_e(config, args.mu)
    if args.command == "p":
        return 0, cmd_p(config, args.nu)
    if args.command == "verify":
        return cmd_verify(config, args.suite)
    if args.command == "apply":
        return 0, cmd_apply(config, args.expr, poly_text=args.poly,
                            poly_file=args.poly_file, mu_spec=args.mu)
    raise UsageError(f"unknown command {args.command!r}")


_VALUE_FLAGS = ("--mu", "--nu", "--max-deg", "--expr", "--poly")


def _merge_negative_values(argv):
    """Join "--mu -1,0" into "--mu=-1,0" so argparse keeps the value."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv) \
                and argv[i + 1].startswith("-") \
                and any(ch.isdigit() for ch in argv[i + 1]):
            out.append(tok + "=" + argv[i + 1])
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_merge_negative_values(list(argv)))
    try:
        code, result = _dispatch(args)
        out = getattr(args, "out", None)
        with open(out, "w") if out else nullcontext(sys.stdout) as fh:
            if isinstance(result, str):
                fh.write(result)
            else:
                json.dump(result, fh, indent=2)
            fh.write("\n")
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
