"""Exact arithmetic in the coefficient field Q(t, q_1, ..., q_k).

A parameter polynomial is a sparse dict mapping exponent tuples
(e_t, e_q1, ..., e_qk) to nonzero Python ints.  All tuples in one
polynomial share the same length k+1, where k is the session's
q-parameter count.  A Scalar is a reduced fraction of two such
polynomials.

Canonical form of a Scalar: gcd(num, den) is a unit, the integer
content of den is positive (the sign rides on the lexicographically
leading denominator coefficient), and zero is 0/1.  Every operation
returns canonical output, so representation equality implies field
equality; == still cross-multiplies so that it is correct on any
inputs.

GCDs use a Zippel-style heuristic (evaluate at a large integer,
reconstruct by balanced digits, verify by exact division) with a
primitive/subresultant PRS as the verified fallback.
"""

from __future__ import annotations

from math import gcd as igcd


# ---------------------------------------------------------------------------
# dict-level polynomial arithmetic


def p_zero_mon(k):
    return (0,) * (k + 1)


def p_add(f, g):
    out = dict(f)
    for m, c in g.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        elif m in out:
            del out[m]
    return out


def p_neg(f):
    return {m: -c for m, c in f.items()}


def p_mul(f, g):
    if not f or not g:
        return {}
    if len(g) < len(f):
        f, g = g, f
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(map(sum, zip(m1, m2)))
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s
            elif m in out:
                del out[m]
    return out


def p_icontent(f):
    g = 0
    for c in f.values():
        g = igcd(g, c)
        if g == 1:
            return 1
    return g


def p_idiv(f, k):
    if k == 1:
        return f
    return {m: c // k for m, c in f.items()}


def p_maxnorm(f):
    return max(abs(c) for c in f.values())


def p_eval(f, v, x):
    """Substitute variable index v by the integer x."""
    out = {}
    for m, c in f.items():
        mm = m[:v] + (0,) + m[v + 1:]
        s = out.get(mm, 0) + c * x ** m[v]
        if s:
            out[mm] = s
        elif mm in out:
            del out[mm]
    return out


def p_smod_x(f, x):
    """Balanced coefficientwise remainder mod x, and the quotient poly."""
    dig, rest = {}, {}
    half = x // 2
    for m, c in f.items():
        r = c % x
        if r > half:
            r -= x
        if r:
            dig[m] = r
        q = (c - r) // x
        if q:
            rest[m] = q
    return dig, rest


def p_exact_div(f, g):
    """f / g when g divides f exactly, else None."""
    if not f:
        return {}
    if len(g) == 1:
        (mg, cg), = g.items()
        out = {}
        for m, c in f.items():
            q, r = divmod(c, cg)
            if r:
                return None
            mm = tuple(a - b for a, b in zip(m, mg))
            if any(e < 0 for e in mm):
                return None
            out[mm] = q
        return out
    out = {}
    r = dict(f)
    mg = max(g)
    cg = g[mg]
    glist = list(g.items())
    while r:
        mr = max(r)
        mm = tuple(a - b for a, b in zip(mr, mg))
        if any(e < 0 for e in mm):
            return None
        q, rem = divmod(r[mr], cg)
        if rem:
            return None
        out[mm] = q
        for m2, c2 in glist:
            m = tuple(map(sum, zip(mm, m2)))
            s = r.get(m, 0) - q * c2
            if s:
                r[m] = s
            elif m in r:
                del r[m]
    return out


def p_vars(f):
    vs = set()
    for m in f:
        for i, e in enumerate(m):
            if e:
                vs.add(i)
    return vs


def _monomial_gcd_with(f, g):
    # f is a single monomial
    (mf, cf), = f.items()
    gm = list(mf)
    gc = abs(cf)
    for m, c in g.items():
        for i, e in enumerate(m):
            if e < gm[i]:
                gm[i] = e
        gc = igcd(gc, c)
    return {tuple(gm): gc}


class _HeuFail(Exception):
    pass


def _heu(f, g, vs):
    """Heuristic gcd of f, g sharing variables vs (sorted)."""
    # Split integer content per level.  Recursive calls receive evaluated
    # images whose content carries the outer variable's digits, so the gcd
    # of the contents must be preserved in the result, not stripped.
    cf = p_icontent(f)
    cg = p_icontent(g)
    ci = igcd(cf, cg)
    if cf != 1:
        f = p_idiv(f, cf)
    if cg != 1:
        g = p_idiv(g, cg)
    v = vs[0]
    x = 2 * min(p_maxnorm(f), p_maxnorm(g)) + 29
    for _ in range(6):
        fe = p_eval(f, v, x)
        ge = p_eval(g, v, x)
        sub = sorted(p_vars(fe) & p_vars(ge))
        if not sub:
            if len(fe) == 1 and len(ge) == 1:
                (mf, a), = fe.items()
                (mg, b), = ge.items()
                mm = tuple(min(p, q) for p, q in zip(mf, mg))
                h = {mm: igcd(a, b)}
            elif len(fe) == 1:
                h = _monomial_gcd_with(fe, ge)
            elif len(ge) == 1:
                h = _monomial_gcd_with(ge, fe)
            else:
                h = {p_zero_mon(len(next(iter(f))) - 1):
                     igcd(p_icontent(fe), p_icontent(ge))}
        else:
            try:
                h, _, _ = _heu(fe, ge, sub)
            except _HeuFail:
                x = 73 * x // 32 + 1
                continue
        # reconstruct the v-dependence from balanced base-x digits
        H = h
        coeffs = []
        while H:
            dig, H = p_smod_x(H, x)
            coeffs.append(dig)
        out = {}
        for d, dig in enumerate(coeffs):
            for m, c in dig.items():
                out[m[:v] + (d,) + m[v + 1:]] = c
        if out:
            ic = p_icontent(out)
            if ic not in (0, 1):
                out = p_idiv(out, ic)
            if out[max(out)] < 0:
                out = p_neg(out)
            cof = p_exact_div(f, out)
            if cof is not None:
                cog = p_exact_div(g, out)
                if cog is not None:
                    kf, kg = cf // ci, cg // ci
                    if kf != 1:
                        cof = {m: c * kf for m, c in cof.items()}
                    if kg != 1:
                        cog = {m: c * kg for m, c in cog.items()}
                    if ci != 1:
                        out = {m: c * ci for m, c in out.items()}
                    return out, cof, cog
        x = 73 * x // 32 + 1
    raise _HeuFail


def p_degree_in(f, v):
    return max((m[v] for m in f), default=-1)


def _decompose(f, v):
    out = {}
    for m, c in f.items():
        out.setdefault(m[v], {})[m[:v] + (0,) + m[v + 1:]] = c
    return out


def _shift_deg(f, v, d):
    return {m[:v] + (m[v] + d,) + m[v + 1:]: c for m, c in f.items()}


def _prem(f, g, v):
    # pseudo-remainder of f by g in variable v
    dg = p_degree_in(g, v)
    lcg = _decompose(g, v)[dg]
    r = f
    while r:
        dr = p_degree_in(r, v)
        if dr < dg:
            break
        lcr = _decompose(r, v)[dr]
        r = p_add(p_mul(lcg, r), p_neg(p_mul(_shift_deg(lcr, v, dr - dg), g)))
    return r


def _abs_lead(f):
    if f and f[max(f)] < 0:
        return p_neg(f)
    return f


def _is_one(p):
    if len(p) != 1:
        return False
    (m, c), = p.items()
    return c == 1 and not any(m)


def _content_pp(f, v):
    dec = _decompose(f, v)
    it = iter(dec.values())
    cont = next(it)
    for c in it:
        cont = p_gcd(cont, c)
        if _is_one(cont):
            break
    if _is_one(cont):
        return cont, f
    pp = {}
    for d, c in dec.items():
        q = p_exact_div(c, cont)
        for m, cc in q.items():
            pp[m[:v] + (d,) + m[v + 1:]] = cc
    return cont, pp


def _prs_gcd(f, g, v):
    # primitive PRS in the main variable v
    contf, ppf = _content_pp(f, v)
    contg, ppg = _content_pp(g, v)
    cont = p_gcd(contf, contg)
    if p_degree_in(ppf, v) >= p_degree_in(ppg, v):
        F, G = ppf, ppg
    else:
        F, G = ppg, ppf
    k = len(next(iter(f))) - 1
    one = {p_zero_mon(k): 1}
    while True:
        r = _prem(F, G, v)
        if not r:
            break
        if p_degree_in(r, v) == 0:
            G = one
            break
        _, r = _content_pp(r, v)
        F, G = G, r
    if p_degree_in(G, v) > 0:
        _, G = _content_pp(G, v)
    return _abs_lead(p_mul(cont, G))


def p_gcd(f, g):
    if not f:
        return _abs_lead(g)
    if not g:
        return _abs_lead(f)
    if f == g:
        return _abs_lead(f)
    if len(f) == 1:
        return _monomial_gcd_with(f, g)
    if len(g) == 1:
        return _monomial_gcd_with(g, f)
    cf = p_icontent(f)
    cg = p_icontent(g)
    ic = igcd(cf, cg)
    fp = p_idiv(f, cf)
    gp = p_idiv(g, cg)
    vs = sorted(p_vars(fp) & p_vars(gp))
    if not vs:
        return {p_zero_mon(len(next(iter(f))) - 1): ic}
    try:
        h, _, _ = _heu(fp, gp, vs)
    except _HeuFail:
        h = _prs_gcd(fp, gp, vs[0])
    if ic != 1:
        h = {m: c * ic for m, c in h.items()}
    return h


# ---------------------------------------------------------------------------
# fraction-level helpers (num dict, den dict)


def _f_norm(num, den, k):
    if not num:
        return {}, {p_zero_mon(k): 1}
    if den[max(den)] < 0:
        return p_neg(num), p_neg(den)
    return num, den


def _f_reduce(num, den, k):
    if not num:
        return {}, {p_zero_mon(k): 1}
    ic = p_icontent(den)
    if ic not in (0, 1):
        icn = igcd(ic, p_icontent(num))
        if icn > 1:
            num = p_idiv(num, icn)
            den = p_idiv(den, icn)
    if _is_one(den):
        return _f_norm(num, den, k)
    g = p_gcd(num, den)
    if not _is_one(g):
        num = p_exact_div(num, g)
        den = p_exact_div(den, g)
    return _f_norm(num, den, k)


# ---------------------------------------------------------------------------
# the public Scalar type


class Scalar:
    """An element of Q(t, q_1, ..., q_k), stored as a reduced fraction."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, reduced=False):
        if den is None:
            den = {p_zero_mon(self._infer_k(num)): 1}
        if not den:
            raise ZeroDivisionError("scalar with zero denominator")
        self.num = num
        self.den = den
        if not reduced:
            k = self.nparams()
            self.num, self.den = _f_reduce(num, den, k)

    @staticmethod
    def _infer_k(num):
        if not num:
            raise ValueError("cannot infer parameter count from 0")
        return len(next(iter(num))) - 1

    def nparams(self):
        return len(next(iter(self.den))) - 1

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(k):
        return Scalar({}, {p_zero_mon(k): 1}, reduced=True)

    @staticmethod
    def one(k):
        return Scalar.integer(1, k)

    @staticmethod
    def integer(c, k):
        num = {p_zero_mon(k): c} if c else {}
        return Scalar(num, {p_zero_mon(k): 1}, reduced=True)

    @staticmethod
    def t(k, e=1):
        return Scalar.param_monomial(k, e, {})

    @staticmethod
    def q(i, k, e=1):
        if not 1 <= i <= k:
            raise ValueError(f"q_{i} outside session with {k} parameters")
        return Scalar.param_monomial(k, 0, {i: e})

    @staticmethod
    def param_monomial(k, e_t, qexps, coeff=1):
        """c * t^e_t * prod q_i^{e_i}; negative exponents go to the den."""
        if coeff == 0:
            return Scalar.zero(k)
        up = [0] * (k + 1)
        dn = [0] * (k + 1)
        ex = [e_t] + [qexps.get(i, 0) for i in range(1, k + 1)]
        for i, e in enumerate(ex):
            if e >= 0:
                up[i] = e
            else:
                dn[i] = -e
        num = {tuple(up): coeff}
        den = {tuple(dn): 1}
        if coeff < 0:
            num = p_neg(num)
            den = p_neg(den)
        # num/den share no variables so this is already reduced
        return Scalar(num, den, reduced=True)

    # -- predicates --------------------------------------------------------

    def is_zero(self):
        return not self.num

    def is_one(self):
        return _is_one(self.num) and _is_one(self.den)

    def _check(self, other):
        if not isinstance(other, Scalar):
            raise TypeError(f"expected Scalar, got {type(other).__name__}")
        if self.nparams() != other.nparams():
            raise ValueError("parameter-count mismatch between scalars")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        n1, d1 = self.num, self.den
        n2, d2 = other.num, other.den
        if not n1:
            return other
        if not n2:
            return self
        k = self.nparams()
        if d1 == d2:
            num = p_add(n1, n2)
            if not num:
                return Scalar.zero(k)
            return Scalar(*_f_reduce(num, d1, k), reduced=True)
        g0 = p_gcd(d1, d2)
        if _is_one(g0):
            num = p_add(p_mul(n1, d2), p_mul(n2, d1))
            if not num:
                return Scalar.zero(k)
            return Scalar(*_f_norm(num, p_mul(d1, d2), k), reduced=True)
        d1r = p_exact_div(d1, g0)
        d2r = p_exact_div(d2, g0)
        tn = p_add(p_mul(n1, d2r), p_mul(n2, d1r))
        if not tn:
            return Scalar.zero(k)
        g1 = p_gcd(tn, g0)
        if not _is_one(g1):
            tn = p_exact_div(tn, g1)
            g0 = p_exact_div(g0, g1)
        return Scalar(*_f_norm(tn, p_mul(p_mul(d1r, d2r), g0), k),
                      reduced=True)

    def __neg__(self):
        return Scalar(p_neg(self.num), self.den, reduced=True)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        n1, d1 = self.num, self.den
        n2, d2 = other.num, other.den
        k = self.nparams()
        if not n1 or not n2:
            return Scalar.zero(k)
        if not _is_one(d2):
            g = p_gcd(n1, d2)
            if not _is_one(g):
                n1 = p_exact_div(n1, g)
                d2 = p_exact_div(d2, g)
        if not _is_one(d1):
            g = p_gcd(n2, d1)
            if not _is_one(g):
                n2 = p_exact_div(n2, g)
                d1 = p_exact_div(d1, g)
        return Scalar(*_f_norm(p_mul(n1, n2), p_mul(d1, d2), k), reduced=True)

    def inv(self):
        if not self.num:
            raise ZeroDivisionError("inverting the zero scalar")
        k = self.nparams()
        return Scalar(*_f_norm(self.den, self.num, k), reduced=True)

    def __truediv__(self, other):
        return self * other.inv()

    def __pow__(self, e):
        k = self.nparams()
        if e == 0:
            return Scalar.one(k)
        base = self if e > 0 else self.inv()
        out = base
        for _ in range(abs(e) - 1):
            out = out * base
        return out

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        if self.num == other.num and self.den == other.den:
            return True
        # cross-multiply so equality holds regardless of representation
        return p_add(p_mul(self.num, other.den),
                     p_neg(p_mul(other.num, self.den))) == {}

    def __hash__(self):
        return hash((frozenset(self.num.items()),
                     frozenset(self.den.items())))

    def __repr__(self):
        return f"Scalar({render_scalar(self)})"

    # -- evaluation (used by randomized consistency tests) ------------------

    def evaluate(self, t_val, q_vals):
        """Substitute Fraction values for t and the q's."""
        from fractions import Fraction

        def ev(p):
            acc = Fraction(0)
            for m, c in p.items():
                term = Fraction(c)
                term *= Fraction(t_val) ** m[0]
                for i, e in enumerate(m[1:], start=1):
                    if e:
                        term *= Fraction(q_vals[i - 1]) ** e
                acc += term
            return acc

        return ev(self.num) / ev(self.den)


# ---------------------------------------------------------------------------
# parameter relabelling


def shift_params(a: Scalar, k: int) -> Scalar:
    """Relabel every q_i as q_{i+k}; t is fixed.  Errors past the last q."""
    if k == 0:
        return a
    if k < 0:
        raise ValueError("shift must be nonnegative")
    np = a.nparams()

    def sh(p):
        out = {}
        for m, c in p.items():
            head, qs = m[0], list(m[1:])
            if any(qs[np - k:]):
                raise ValueError("parameter shift overflows the session")
            out[(head, *([0] * k), *qs[: np - k])] = c
        return out

    return Scalar(sh(a.num), sh(a.den), reduced=True)


# ---------------------------------------------------------------------------
# rendering and serialization


def _mon_text(m, latex=False):
    parts = []
    names = ["t"] + [f"q{i}" for i in range(1, len(m))]
    if latex:
        names = ["t"] + [f"q_{{{i}}}" for i in range(1, len(m))]
    for name, e in zip(names, m):
        if e == 0:
            continue
        if e == 1:
            parts.append(name)
        elif latex:
            parts.append(f"{name}^{{{e}}}")
        else:
            parts.append(f"{name}^{e}")
    return parts


def render_param_poly(p, latex=False):
    if not p:
        return "0"
    out = []
    for m in sorted(p, reverse=True):
        c = p[m]
        parts = _mon_text(m, latex)
        if not parts:
            body = str(abs(c))
        else:
            body = ("" if abs(c) == 1 else str(abs(c)) + ("" if latex else "*"))
            body += ("" if latex else "*").join(parts) if not latex else " ".join(parts)
        if not out:
            out.append(("-" if c < 0 else "") + body)
        else:
            out.append(("- " if c < 0 else "+ ") + body)
    return " ".join(out)


def render_scalar(s: Scalar, latex=False) -> str:
    num, den = s.num, s.den
    # cosmetic: prefer a positive constant term in the denominator
    zm = p_zero_mon(s.nparams())
    if den.get(zm, 0) < 0:
        num, den = p_neg(num), p_neg(den)
    if _is_one(den):
        return render_param_poly(num, latex)
    ntxt = render_param_poly(num, latex)
    dtxt = render_param_poly(den, latex)
    if latex:
        return f"\\frac{{{ntxt}}}{{{dtxt}}}"
    if len(num) > 1:
        ntxt = f"({ntxt})"
    # x/y*z reads as (x/y)*z, so product denominators need parens
    if len(den) > 1 or "*" in dtxt or dtxt.startswith("-"):
        dtxt = f"({dtxt})"
    return f"{ntxt}/{dtxt}"


def _poly_to_json(p):
    return [[str(c), list(m)] for m, c in sorted(p.items())]


def _poly_from_json(items):
    out = {}
    for c, m in items:
        m = tuple(int(e) for e in m)
        if not int(c) or any(e < 0 for e in m):
            raise ValueError("scalar JSON needs nonzero coefficients and "
                             "nonnegative exponents")
        out[m] = int(c)
    return out


def scalar_to_json(s: Scalar) -> dict:
    return {"num": _poly_to_json(s.num), "den": _poly_to_json(s.den)}


def scalar_from_json(d) -> Scalar:
    """Decode scalar_to_json output into canonical form; ValueError on
    an empty denominator or exponents of unequal or zero length."""
    num = _poly_from_json(d["num"])
    den = _poly_from_json(d["den"])
    if not den:
        raise ValueError("scalar JSON has an empty denominator")
    lengths = {len(m) for m in (*num, *den)}
    if len(lengths) != 1 or 0 in lengths:
        raise ValueError("scalar JSON exponents differ in length")
    return Scalar(num, den)
