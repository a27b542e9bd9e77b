"""Per-layer counters and timers, installed as wrappers around
`dahamac`'s public functions and class methods.

A wrapper counts every call and records its duration as a span.  A
span's self time is its duration minus the time of the spans it
encloses, so self times add up without double counting.  The inclusive
time `.s` of a name counts only its outermost call, which matters for
the recursive `E` and `p_gcd`.  A module-level function is replaced in
every `dahamac` module that bound it (`apply_T` is bound in `rep`,
`nonsym`, `symmetric` and `stability`), so calls through any of those
names are seen.  Nothing here is imported by an untraced run.
"""

from __future__ import annotations

import sys
import time

# (layer, name, module, attribute, class or None); the metric key is
# "<layer>.<name>", with dunder methods named by their operation.
TARGETS = (
    ("field", "p_gcd", "dahamac.field", "p_gcd", None),
    ("field", "gcd_fallback", "dahamac.field", "_prs_gcd", None),
    ("field", "scalar_add", "dahamac.field", "__add__", "Scalar"),
    ("field", "scalar_mul", "dahamac.field", "__mul__", "Scalar"),
    ("field", "scalar_inv", "dahamac.field", "inv", "Scalar"),
    ("laurent", "xi", "dahamac.laurent", "xi", None),
    ("laurent", "swap_vars", "dahamac.laurent", "swap_vars", None),
    ("laurent", "add", "dahamac.laurent", "__add__", "LaurentPoly"),
    ("laurent", "smul", "dahamac.laurent", "smul", "LaurentPoly"),
    ("rep", "apply_T", "dahamac.rep", "apply_T", None),
    ("rep", "apply_Y", "dahamac.rep", "apply_Y", None),
    ("rep", "symmetrize_eps", "dahamac.rep", "symmetrize_eps", None),
    ("rep", "apply_Delta_n", "dahamac.rep", "apply_Delta_n", None),
    ("rep", "matrix_of", "dahamac.rep", "matrix_of", None),
    ("nonsym", "E", "dahamac.nonsym", "E", None),
    ("nonsym", "check_record", "dahamac.nonsym", "check_record", None),
    ("nonsym", "eigen_oracle_Y", "dahamac.nonsym", "eigen_oracle_Y", None),
    ("symmetric", "P", "dahamac.symmetric", "P", None),
    ("stability", "project", "dahamac.stability", "project", None),
    ("linalg", "joint_left_kernel", "dahamac.linalg", "joint_left_kernel",
     None),
    ("linalg", "rref", "dahamac.linalg", "rref", None),
)

LAURENT_NAMES = ("xi", "swap_vars", "add", "smul")
SCALAR_NAMES = ("scalar_add", "scalar_mul", "scalar_inv")


class _Span:
    __slots__ = ("calls", "depth", "incl", "self_s")

    def __init__(self):
        self.calls = 0
        self.depth = 0
        self.incl = 0.0
        self.self_s = 0.0


class Tracer:
    """Wrappers for every target; install() and uninstall() swap them in
    and out, and metrics() reads the per-layer numbers."""

    def __init__(self):
        self.spans = {}
        self.stack = []
        self.terms_out = 0
        self.p_keys = set()
        self.e_builds = 0
        self._swapped = []
        self._nonsym = None

    def _wrap(self, key, fn):
        span = self.spans[key] = _Span()
        stack = self.stack
        clock = time.perf_counter
        laurent = key.startswith("laurent.")
        p_keys = self.p_keys if key == "symmetric.P" else None

        def traced(*args, **kwargs):
            span.calls += 1
            span.depth += 1
            if p_keys is not None:
                ctx, nu = args
                p_keys.add((ctx, tuple(map(tuple, nu))))
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                span.self_s += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                span.depth -= 1
                if not span.depth:
                    span.incl += dt
            if laurent:
                self.terms_out += len(out.terms)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        from dahamac import nonsym

        modules = [m for name, m in sys.modules.items()
                   if name == "dahamac" or name.startswith("dahamac.")]
        for layer, name, modname, attr, cls in TARGETS:
            key = f"{layer}.{name}"
            owner = sys.modules[modname]
            if cls is not None:
                klass = getattr(owner, cls)
                orig = klass.__dict__[attr]
                self._swap(klass, attr, orig, self._wrap(key, orig))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(key, orig)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is orig:
                        self._swap(mod, binding, orig, wrapped)
        self._nonsym = nonsym
        self.e_builds = -len(nonsym._E_CACHE)

    def _swap(self, owner, attr, orig, new):
        setattr(owner, attr, new)
        self._swapped.append((owner, attr, orig))

    def uninstall(self):
        self.e_builds += len(self._nonsym._E_CACHE)
        while self._swapped:
            owner, attr, orig = self._swapped.pop()
            setattr(owner, attr, orig)

    def metrics(self):
        """Per-layer metric values, by name; call after uninstall()."""
        s = self.spans
        out = {}
        gcd = s["field.p_gcd"].calls
        fallback = s["field.gcd_fallback"].calls
        out["field.p_gcd.calls"] = gcd
        out["field.p_gcd.s"] = s["field.p_gcd"].incl
        out["field.gcd_fallback.calls"] = fallback
        out["field.gcd_heu_ratio"] = (gcd - fallback) / gcd if gcd else 0.0
        for name in SCALAR_NAMES:
            out[f"field.{name}.calls"] = s[f"field.{name}"].calls
        out["field.scalar.self_s"] = sum(
            s[f"field.{name}"].self_s for name in SCALAR_NAMES)
        for name in LAURENT_NAMES:
            out[f"laurent.{name}.calls"] = s[f"laurent.{name}"].calls
        out["laurent.terms_out"] = self.terms_out
        out["laurent.self_s"] = sum(
            s[f"laurent.{name}"].self_s for name in LAURENT_NAMES)
        out["rep.apply_T.calls"] = s["rep.apply_T"].calls
        out["rep.apply_T.self_s"] = s["rep.apply_T"].self_s
        for name in ("apply_Y", "symmetrize_eps", "matrix_of"):
            out[f"rep.{name}.calls"] = s[f"rep.{name}"].calls
            out[f"rep.{name}.s"] = s[f"rep.{name}"].incl
        out["rep.apply_Delta_n.calls"] = s["rep.apply_Delta_n"].calls
        e_calls = s["nonsym.E"].calls
        builds = self.e_builds
        out["nonsym.E.calls"] = e_calls
        out["nonsym.E.builds"] = builds
        out["nonsym.E.hit_ratio"] = \
            (e_calls - builds) / e_calls if e_calls else 0.0
        out["nonsym.E.self_s"] = s["nonsym.E"].self_s
        out["nonsym.check_record.s"] = s["nonsym.check_record"].incl
        out["nonsym.eigen_oracle_Y.s"] = s["nonsym.eigen_oracle_Y"].incl
        out["symmetric.P.calls"] = s["symmetric.P"].calls
        out["symmetric.P.distinct"] = len(self.p_keys)
        out["symmetric.P.s"] = s["symmetric.P"].incl
        out["stability.project.calls"] = s["stability.project"].calls
        out["stability.project.s"] = s["stability.project"].incl
        for name in ("joint_left_kernel", "rref"):
            out[f"linalg.{name}.calls"] = s[f"linalg.{name}"].calls
            out[f"linalg.{name}.s"] = s[f"linalg.{name}"].incl
        return out
