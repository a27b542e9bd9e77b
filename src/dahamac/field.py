"""Exact arithmetic in the coefficient field Q(t, q_1, ..., q_k).

A parameter polynomial is a sparse dict mapping packed monomials to
nonzero Python ints.  A packed monomial is one nonnegative int holding
the exponents (e_t, e_q1, ..., e_qk) in k+1 fields of FIELD_BITS bits
each, t in the most significant field and q_k in the least; k is the
session's q-parameter count and is kept on the Scalar.  The top bit of
every field is a guard bit, clear in every stored monomial, so an
exponent lies in 0..MAX_EXP.  With this layout:

- the monomial product is m1 + m2, and no field carries into the next;
- m is divisible by g iff ((m | G) - g) & G == G, G being the guard
  bits, because the borrow of a field where m < g stops at its guard;
- a variable's exponent is a shift and a mask, and a fieldwise min
  comes from the same guarded subtraction;
- integer order on keys is lexicographic order on the exponent tuples,
  so max() of a polynomial picks its lex-leading term.

Exponents only leave the packed form at the boundary: the constructors,
rendering, JSON and evaluation.  An exponent that does not fit raises
ValueError, whether it comes in through a constructor or JSON or
arises in a product (the guard bit of a product field is set); it
never wraps.

A Scalar is a fraction of two such polynomials in canonical form:
gcd(num, den) is a unit, the lexicographically leading coefficient of
den is positive, and zero is 0/1.  Every operation returns canonical
output and scalar_from_json reduces what it reads, so two Scalars are
equal as field elements exactly when their (k, num, den) are equal;
== and hash read that triple and nothing else.  Outside this module,
only RepContext.scalar calls a Scalar constructor, and nothing reads
num or den.

Most denominators are products of a monomial and binomials: the
intertwiners of E's raising walk bring in 1 - t^a q^b.  So a Scalar may
also carry its denominator factored, as c * m * prod F_i^e_i over a
process-wide table of interned irreducible factors (see "binomials and
the table of factors" below).  den is always the expansion of the
factorization, and the canonical form does not depend on it.  A
denominator of one term, or of two that split, is factored when a
Scalar is built; sums, products, clear_denominators and the solved
entries of solve_column over factored Scalars are factored again, with
their lcms and cofactors read off the exponents and only trial
divisions by known factors; a linear factor is first tested by one pass
over the numerator (_linear_divides).  solve_column, one column of a
triangular system, puts the column over one common denominator,
checks its equations by cross-multiplying, with no reduction, and
reduces once, the solved entry.  Any other denominator, of three or
more terms as from a pivot of the linear algebra or P's monic
normaliser, or a binomial that does not split, takes the general path
through p_gcd, and the input decides which path an operation takes.
scalar_from_json reduces its input by p_gcd, and the Scalar it returns
is factored when its denominator is.

p_gcd(f, g) returns (h, f/h, g/h).  An operand of one term, or of two
that split into known factors, settles it (_split_gcd): _cancel reduces
the other operand against that factorization, by the same trial
division by interned factors as factored arithmetic, and h is what it
cancelled.  f is tried first, then g.  Next, an operand that divides
the other exactly is the gcd, the shorter tried as the divisor first.
Otherwise it uses the heuristic gcd of Char, Geddes and Gonnet
(evaluate at a large integer, reconstruct by balanced digits, verify by
exact division); the verifying division leaves the cofactors, and a
candidate of 1 needs no division.  A primitive PRS is the verified
fallback.  A gcd whose images would cost more than _HEU_MAX_WORK raises
ValueError.
"""

from __future__ import annotations

from functools import reduce
from math import gcd as igcd
from operator import or_

FIELD_BITS = 32
MAX_EXP = (1 << FIELD_BITS - 1) - 1   # the value bits of one field
_GUARD_BITS = {}                      # field count -> those fields' guards


# ---------------------------------------------------------------------------
# packed monomials


def _guards(m):
    """Guard bits of every field up to the top field of m."""
    nf = m.bit_length() // FIELD_BITS + 1
    try:
        return _GUARD_BITS[nf]
    except KeyError:   # the top bit of each field: 2^31 sum_i 2^(32 i)
        G = _GUARD_BITS[nf] = ((MAX_EXP + 1) * ((1 << nf * FIELD_BITS) - 1)
                               // ((1 << FIELD_BITS) - 1))
        return G


def _pack(exps):
    """The packed monomial of (e_t, e_q1, ..., e_qk), in one pass: a
    shift-or per field would copy the growing int k times."""
    for e in exps:
        if not 0 <= e <= MAX_EXP:
            raise ValueError(f"exponent {e} outside 0..{MAX_EXP}")
    return int.from_bytes(b"".join(e.to_bytes(FIELD_BITS // 8, "big")
                                   for e in exps), "big")


def _unpack(m, k):
    return tuple(m >> (k - v) * FIELD_BITS & MAX_EXP for v in range(k + 1))


def _keys_or(f):
    return reduce(or_, f, 0)


def _check_fits(f):
    acc = _keys_or(f)
    if acc & _guards(acc):
        raise ValueError(f"exponent past {MAX_EXP} in a product")


def _mon_min(a, b, G):
    """Fieldwise min of two packed monomials; G covers both."""
    ge = ((a | G) - b) & G               # guard kept where a >= b
    take_b = ge - (ge >> FIELD_BITS - 1)  # value bits of those fields
    return (a & ~take_b) | (b & take_b)


def _shared_vars(accf, accg, vs):
    """The shifts in vs of the variables that occur in both f and g,
    given accf and accg, the ORs of their keys."""
    return [v for v in vs if accf >> v & MAX_EXP and accg >> v & MAX_EXP]


# ---------------------------------------------------------------------------
# dict-level polynomial arithmetic


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
    if len(f) == 1:
        (m1, c1), = f.items()
        if not m1 and c1 == 1:
            return g
        out = {m1 + m2: c1 * c2 for m2, c2 in g.items()}
        _check_fits(out)
        return out
    out = {}
    gl = list(g.items())
    for m1, c1 in f.items():
        for m2, c2 in gl:
            m = m1 + m2
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s
            elif m in out:
                del out[m]
    _check_fits(out)
    return out


def p_icontent(f):
    return igcd(*f.values())


def p_idiv(f, k):
    if k == 1:
        return f
    return {m: c // k for m, c in f.items()}


def p_iscale(f, k):
    if k == 1:
        return f
    return {m: c * k for m, c in f.items()}


def _degrees(keys, k):
    """Each variable's largest exponent over some packed monomials, t
    first, by a fieldwise max."""
    G = _guards(_keys_or(keys))
    top = 0
    for m in keys:
        top += m - _mon_min(top, m, G)
    return _unpack(top, k)


def _norm1(f):
    return sum(map(abs, f.values()))


def p_maxnorm(f):
    return max(map(abs, f.values()))


def p_eval(f, v, x):
    """Substitute the variable at shift v by the integer x."""
    out = {}
    clear = ~(MAX_EXP << v)
    for m, c in f.items():
        mm = m & clear
        s = out.get(mm, 0) + c * x ** (m >> v & MAX_EXP)
        if s:
            out[mm] = s
        elif mm in out:
            del out[mm]
    return out


def p_exact_div(f, g, G, acc):
    """f / g when g divides f exactly, else None; G covers both, and acc
    is the OR of f's keys or of a superset of them."""
    if not f:
        return {}
    if len(g) == 1:
        (mg, cg), = g.items()
        out = {}
        for m, c in f.items():
            q, r = divmod(c, cg)
            if r or ((m | G) - mg) & G != G:
                return None
            out[m - mg] = q
        return out
    mg = max(g)
    cg = g[mg]
    # an exact quotient's exponents are at most f's, so at most acc's: a
    # quotient term past acc ends the division of a non-divisor early
    fbound = acc | G
    # fieldwise bound on g's exponents: a quotient term that could push
    # a product past MAX_EXP cannot belong to an exact quotient
    gbound = _keys_or(g)
    tail = [(m2, c2) for m2, c2 in g.items() if m2 != mg]
    out = {}
    r = dict(f)
    while r:
        mr = max(r)
        if ((mr | G) - mg) & G != G:
            return None
        q, rem = divmod(r.pop(mr), cg)
        if rem:
            return None
        mm = mr - mg
        if (fbound - mm) & G != G:
            return None
        if (mm + gbound) & G and any((mm + m2) & G for m2 in g):
            return None
        out[mm] = q
        for m2, c2 in tail:
            m = mm + m2
            s = r.get(m, 0) - q * c2
            if s:
                r[m] = s
            elif m in r:
                del r[m]
    return out


# ---------------------------------------------------------------------------
# binomials and the table of factors
#
# A two-term polynomial b is c * m * (c1 * u + c2 * w) with c its signed
# integer content, m its monomial content, c1 > 0 and u > w sharing no
# variable.  When the exponent vector of u / w has coprime entries (a
# primitive direction), c1 * u + c2 * w is irreducible: a unimodular
# change of monomials makes it linear in one variable.  When the entries
# have gcd g > 1 and the coefficients are units, u = u0^g, w = w0^g and
#
#     u0^g - w0^g = prod over d | g of Phi_d(u0, w0),
#     u0^g + w0^g = prod over d | 2g, d not dividing g, of Phi_d(u0, w0),
#
# with Phi_d(u0, w0) = w0^phi(d) Phi_d(u0 / w0) the homogenised
# cyclotomic polynomial, irreducible by the same change of monomials.
# Other binomials, such as 4t^2 - 1, are not split.  Every factor is
# interned once per process, so a factor is an int: its index in
# _FACTORS.  Distinct factors are primitive irreducibles with a positive
# lex-leading coefficient and no monomial factor, so they are pairwise
# coprime.
#
# The table only grows: live Scalars hold factor ids, so it is never
# reset, nonsym.clear_cache included.  It holds each distinct factor of
# a split denominator seen in the process, which stays small: 72, 66
# and 23 factors after an eigen, oracle and stability pass, and 26
# (about 12 kB with the cyclotomic table) after
# `dahamac stability --nu "3,1|2" --n-max 7`; 407 after the whole test
# suite, hypothesis runs included, in one process.

# The largest g whose unit binomials u0^g +- w0^g are split.  Their
# cyclotomic factors' degrees add up to g, but cyclotomic(2g) is built
# by dividing out every smaller Phi_e, about d^2 steps: ~1 ms at g = 64
# and ~11 ms at g = 256 (Python 3.11, 2-CPU x86-64 host), once per
# process.  The cap keeps input such as 1 - t^1000000 from building
# Phi_d of that degree; such a binomial takes the gcd path.  The
# benchmark workloads see g <= 3, and at g = 64 a factored sum and
# product still cost half the gcd path's.
_SPLIT_MAX = 64
_CYCLOTOMIC = {1: [-1, 1]}   # d -> coefficients of Phi_d, constant first
_FACTORS = []                # factor -> its polynomial
_FACTOR_ROOTS = []           # factor -> (u, w, c1, c2, d), d = 0 if linear
_FACTOR_IDS = {}             # (u, w, c1, c2, d) -> factor


def cyclotomic(d):
    """Phi_d's integer coefficients, constant term first: x^d - 1 divided
    by every Phi_e with e a proper divisor of d, each monic."""
    out = _CYCLOTOMIC.get(d)
    if out is None:
        out = [-1] + [0] * (d - 1) + [1]
        for e in range(1, d):
            if d % e == 0:
                q = cyclotomic(e)
                dq = len(q) - 1
                quo = [0] * (len(out) - dq)
                for i in range(len(out) - 1, dq - 1, -1):
                    c = quo[i - dq] = out[i]
                    for j, a in enumerate(q):
                        out[i - dq + j] -= c * a
                out = quo
        _CYCLOTOMIC[d] = out
    return out


def _factor(u, w, c1, c2, d=0):
    """The interned factor c1 * u + c2 * w (d = 0) or Phi_d(u, w)."""
    if d in (1, 2):
        c1, c2, d = 1, -1 if d == 1 else 1, 0
    root = (u, w, c1, c2, d)
    fid = _FACTOR_IDS.get(root)
    if fid is None:
        if d:
            cs = cyclotomic(d)
            top = len(cs) - 1
            poly = {j * u + (top - j) * w: a for j, a in enumerate(cs) if a}
        else:
            poly = {u: c1, w: c2}
        fid = _FACTOR_IDS[root] = len(_FACTORS)
        _FACTORS.append(poly)
        _FACTOR_ROOTS.append(root)
    return fid


def _split_binomial(b):
    """(c, m, factors) with b = c * m * the product of the factors,
    distinct and each to the first power, or None for a binomial that
    is not split."""
    (m1, a1), (m2, a2) = b.items()
    if m1 < m2:
        m1, a1, m2, a2 = m2, a2, m1, a1
    m = _mon_min(m1, m2, _guards(m1))
    u, w = m1 - m, m2 - m
    g, x = 0, u | w
    while x:
        g = igcd(g, x & MAX_EXP)
        x >>= FIELD_BITS
    c = igcd(a1, a2) if a1 > 0 else -igcd(a1, a2)
    c1, c2 = a1 // c, a2 // c
    if g == 1:
        return c, m, (_factor(u, w, c1, c2),)
    if c1 != 1 or c2 not in (1, -1) or g > _SPLIT_MAX:
        return None
    u, w = u // g, w // g
    return c, m, tuple(_factor(u, w, 1, 0, d) for d in range(1, 2 * g + 1)
                       if 2 * g % d == 0 and (g % d == 0) == (c2 == -1))


def _linear_divides(fid, f, accf, G):
    """Whether the linear factor c1 * u + c2 * w divides f, by one pass
    over f; None when the pass cannot decide.  accf is the OR of f's
    keys, and G covers the factor and f.

    It divides f exactly when f vanishes on x^e = -c2 / c1, e the
    exponent vector of u / w: split each exponent a of f as r + k e,
    and every class r must have sum over k of its coefficients times
    (-c2 / c1)^k = 0.
    """
    u, w, c1, c2, _ = _FACTOR_ROOTS[fid]
    # k = a_s // e_s on the top variable s of u leaves 0 <= r_s < e_s
    s = (u.bit_length() - 1) // FIELD_BITS * FIELD_BITS
    us = u >> s & MAX_EXP
    d = u - w
    # With every exponent below 2^15 (no bit 15..30 of any field set),
    # each r_j lies strictly between -2^31 and 2^31, so the packed key
    # a - k e is exact; above that the key is the tuple of r_j.
    wide = (accf | u | w) & (G - (G >> 16))
    unit = c1 == 1 and c2 in (1, -1)
    if wide:
        if not unit:
            return None       # (-c2 / c1)^k for k up to MAX_EXP
        nv = G.bit_length() // FIELD_BITS - 1
        du = [eu - ew for eu, ew in zip(_unpack(u, nv), _unpack(w, nv))]
    classes = {}
    if unit:
        # the weight (-c2)^k is a sign
        for mf, cf in f.items():
            k = (mf >> s & MAX_EXP) // us
            key = (tuple(a - k * e for a, e in zip(_unpack(mf, nv), du))
                   if wide else mf - k * d)
            classes[key] = classes.get(key, 0) + (
                -cf if c2 == 1 and k & 1 else cf)
        return not any(classes.values())
    for mf, cf in f.items():
        k = (mf >> s & MAX_EXP) // us
        classes.setdefault(mf - k * d, {})[k] = cf
    # sum of cf (-c2 / c1)^k, times c1^max(k) / (-c2)^min(k)
    return not any(
        sum(cf * (-c2) ** (k - min(ks)) * c1 ** (max(ks) - k)
            for k, cf in ks.items())
        for ks in classes.values())


def _product(c, m, factors):
    """c * m * the product of the factors, with their multiplicities."""
    out = {m: c}
    for fid, e in factors.items():
        for _ in range(e):
            out = p_mul(out, _FACTORS[fid])
    return out


class _HeuFail(Exception):
    pass


# the most work one top-level gcd spends in _heu: an image of d digits
# (d the keys' OR in the variable, under twice its degree) costs d times
# its d * bits(x) bits, one pass of the reconstruction per digit; the
# benchmark workloads' images stay below 1,000 bits, and a common factor
# of degree 20,000 costs ~2^31.2, one of degree 40,000 ~2^33.2
_HEU_MAX_WORK = 1 << 33


def _heu(f, g, vs, G, acc, budget):
    """Heuristic gcd of f, g sharing the variables at shifts vs (t
    first), with both cofactors; G covers f and g, acc is the OR of
    their keys, and budget[0] the work left to the top-level gcd."""
    # Split integer content per level.  Recursive calls receive evaluated
    # images whose content carries the outer variable's digits, so the gcd
    # of the contents must be preserved in the result, not stripped.
    cf = p_icontent(f)
    cg = p_icontent(g)
    ci = igcd(cf, cg)
    f = p_idiv(f, cf)
    g = p_idiv(g, cg)
    v = vs[0]
    deg = acc >> v & MAX_EXP
    x = 2 * min(p_maxnorm(f), p_maxnorm(g)) + 29
    for _ in range(6):
        budget[0] -= deg * deg * x.bit_length()
        if budget[0] < 0:
            raise ValueError(f"gcd image past the {_HEU_MAX_WORK}-bit work "
                             "bound of one gcd")
        fe = p_eval(f, v, x)
        ge = p_eval(g, v, x)
        accfe, accge = _keys_or(fe), _keys_or(ge)
        sub = _shared_vars(accfe, accge, vs[1:])
        if not sub:
            # no variable is left in both images, so only integers
            # divide both: their gcd is that of their contents
            h = {0: igcd(p_icontent(fe), p_icontent(ge))}
        else:
            try:
                h, _, _ = _heu(fe, ge, sub, G, accfe | accge, budget)
            except _HeuFail:
                x = 73 * x // 32 + 1
                continue
        # reconstruct the v-dependence from balanced base-x digits: the
        # d-th digit of each coefficient is the coefficient of v^d
        out = {}
        half = x // 2
        vd = 0
        while h:
            if vd >> v > MAX_EXP:
                raise ValueError(f"exponent past {MAX_EXP} in a gcd image")
            rest = {}
            for m, c in h.items():
                dig = c % x
                if dig > half:
                    dig -= x
                if dig:
                    out[m | vd] = dig
                c = (c - dig) // x
                if c:
                    rest[m] = c
            h = rest
            vd += 1 << v
        if out:
            out = p_idiv(out, p_icontent(out))
            if out[max(out)] < 0:
                out = p_neg(out)
            if _is_one(out):
                cof, cog = f, g
            else:
                cof = p_exact_div(f, out, G, acc)
                cog = None if cof is None else p_exact_div(g, out, G, acc)
            if cog is not None:
                return (p_iscale(out, ci), p_iscale(cof, cf // ci),
                        p_iscale(cog, cg // ci))
        x = 73 * x // 32 + 1
    raise _HeuFail


def p_degree_in(f, v):
    return max((m >> v & MAX_EXP for m in f), default=-1)


def _decompose(f, v):
    out = {}
    clear = ~(MAX_EXP << v)
    for m, c in f.items():
        out.setdefault(m >> v & MAX_EXP, {})[m & clear] = c
    return out


def _shift_deg(f, v, d):
    return {m + (d << v): c for m, c in f.items()}


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
    return len(p) == 1 and p.get(0) == 1


def _content_pp(f, v):
    dec = _decompose(f, v)
    it = iter(dec.values())
    cont = next(it)
    for c in it:
        cont = p_gcd(cont, c)[0]
        if _is_one(cont):
            break
    if _is_one(cont):
        return cont, f
    pp = {}
    G = _guards(_keys_or(f))
    for d, c in dec.items():
        for m, cc in p_exact_div(c, cont, G, _keys_or(c)).items():
            pp[m | d << v] = cc
    return cont, pp


def _prs_gcd(f, g, v):
    # primitive PRS in the main variable v
    contf, ppf = _content_pp(f, v)
    contg, ppg = _content_pp(g, v)
    cont = p_gcd(contf, contg)[0]
    if p_degree_in(ppf, v) >= p_degree_in(ppg, v):
        F, G = ppf, ppg
    else:
        F, G = ppg, ppf
    while True:
        r = _prem(F, G, v)
        if not r:
            break
        if p_degree_in(r, v) == 0:
            G = {0: 1}
            break
        _, r = _content_pp(r, v)
        F, G = G, r
    if p_degree_in(G, v) > 0:
        _, G = _content_pp(G, v)
    return _abs_lead(p_mul(cont, G))


def p_gcd(f, g):
    """(h, f/h, g/h) with h = gcd(f, g), primitive up to the gcd of the
    integer contents and with a positive lex-leading coefficient."""
    if not f or not g or f == g:
        p = f or g
        if not p:
            return {}, {}, {}
        s = -1 if p[max(p)] < 0 else 1
        return (p_iscale(p, s), {0: s} if f else {}, {0: s} if g else {})
    out = _split_gcd(f, g)
    if out:
        return out
    out = _split_gcd(g, f)
    if out:
        return out[0], out[2], out[1]
    accf = _keys_or(f)
    accg = _keys_or(g)
    G = _guards(accf | accg)
    # when one operand divides the other, it is the gcd; the shorter
    # is tried as the divisor first
    short, long_ = (f, g) if len(f) <= len(g) else (g, f)
    for div, mult in ((short, long_), (long_, short)):
        quo = p_exact_div(mult, div, G, accf | accg)
        if quo is not None:
            s = -1 if div[max(div)] < 0 else 1
            h, hq = p_iscale(div, s), p_iscale(quo, s)
            return (h, {0: s}, hq) if div is f else (h, hq, {0: s})
    top = (min(accf, accg).bit_length() - 1) // FIELD_BITS * FIELD_BITS
    vs = _shared_vars(accf, accg, range(top, -1, -FIELD_BITS))
    if vs:
        try:
            return _heu(f, g, vs, G, accf | accg, [_HEU_MAX_WORK])
        except _HeuFail:
            pass
    cf = p_icontent(f)
    cg = p_icontent(g)
    ic = igcd(cf, cg)
    if not vs:
        return {0: ic}, p_idiv(f, ic), p_idiv(g, ic)
    fp = p_idiv(f, cf)
    gp = p_idiv(g, cg)
    h = _prs_gcd(fp, gp, vs[0])
    return (p_iscale(h, ic), p_iscale(p_exact_div(fp, h, G, accf), cf // ic),
            p_iscale(p_exact_div(gp, h, G, accg), cg // ic))


# ---------------------------------------------------------------------------
# fraction-level helpers (num dict, den dict)


def _f_norm(num, den):
    if not num:
        return {}, {0: 1}
    if den[max(den)] < 0:
        return p_neg(num), p_neg(den)
    return num, den


# ---------------------------------------------------------------------------
# factored denominators
#
# A factorization (c, m, fs) stands for c * m * prod over fs of F^e: c an
# integer, positive for a denominator, m a monomial, fs a dict from
# factor to exponent.  Its expansion is the polynomial, as _product
# writes it.


# the factors of a monomial denominator: shared, since no factorization
# is changed in place
_NO_FACTORS = {}


def _factorization(p):
    """The factorization of a polynomial of one term, or of two that
    split, with c of its lex-leading sign; None otherwise."""
    if len(p) == 1:
        (m, c), = p.items()
        return c, m, _NO_FACTORS
    if len(p) == 2:
        split = _split_binomial(p)
        if split is not None:
            c, m, fids = split
            return c, m, dict.fromkeys(fids, 1)
    return None


def _cancel(num, c, m, fs, trial):
    """(num / h, c, m, fs, h != 1) for h the gcd of num and the
    factorization (c, m, fs), the second to fourth entries its quotient
    by h, when h divides c * m * prod over trial of F^e."""
    if not trial and not m and c == 1:
        return num, c, m, fs, False
    acc = _keys_or(num)
    changed = False
    for fid, e in trial.items():
        if len(num) == 1:
            break             # no factor divides a monomial
        F = _FACTORS[fid]
        G = _guards(acc | max(F))
        # one pass rejects a linear factor that does not divide
        if (not _FACTOR_ROOTS[fid][4]
                and _linear_divides(fid, num, acc, G) is False):
            continue
        n = 0
        while n < e:
            q = p_exact_div(num, F, G, acc)
            if q is None:
                break
            num = q
            n += 1
        if n:
            if not changed:
                fs = dict(fs)
                changed = True
            if n == fs[fid]:
                del fs[fid]
            else:
                fs[fid] -= n
    if m or c != 1:
        # the fieldwise min of m and num's monomials, and the gcd of c
        # and num's coefficients
        G = _guards(acc | m)
        mh, ch = m, abs(c)
        for mn, cn in num.items():
            if mh:
                mh = _mon_min(mh, mn, G)
            elif ch == 1:
                break
            ch = igcd(ch, cn)
        if mh or ch != 1:
            num = {mn - mh: cn // ch for mn, cn in num.items()}
            c, m, changed = c // ch, m - mh, True
    return num, c, m, fs, changed


def _split_gcd(a, b):
    """p_gcd(a, b) when a is one term or two that split, else None: h is
    what _cancel takes out of b against a's factorization."""
    fac = _factorization(a)
    if fac is None:
        return None
    c, m, fs = fac
    b, ca, ma, rest, changed = _cancel(b, c, m, fs, fs)
    if not changed:
        return {0: 1}, a, b
    # each factor of a split binomial is to the first power
    return (_product(c // ca, m - ma, {fid: 1 for fid in fs
                                        if fid not in rest}),
            _product(ca, ma, rest), b)


def _lcm(fac1, fac2):
    """(c, m, fs, equal, up1, up2): the lcm (c, m, fs) of two
    factorizations, the factors of equal exponent in both, and up_i the
    factors of lcm / fac_i with their exponents."""
    (c1, m1, f1), (c2, m2, f2) = fac1, fac2
    c = c1 if c1 == c2 else c1 // igcd(c1, c2) * c2
    m = m1 if m1 == m2 else m1 + m2 - _mon_min(m1, m2, _guards(m1 | m2))
    up1, up2 = {}, {}
    if f1 == f2:
        fs = equal = f1
    else:
        fs = dict(f1)
        equal = {}
        for fid, e in f2.items():
            e1 = f1.get(fid, 0)
            if e > e1:
                up1[fid] = e - e1
                fs[fid] = e
            elif e == e1:
                equal[fid] = e
        for fid, e in f1.items():
            e2 = f2.get(fid, 0)
            if e > e2:
                up2[fid] = e - e2
    return c, m, fs, equal, up1, up2


def _factored_add(x, y):
    """x + y over the lcm of two factored denominators.

    The lcm takes each factor's larger exponent.  A factor F of
    exponent a in x's denominator and b < a in y's does not divide the
    numerator x.num * (lcm / x.den) + y.num * (lcm / y.den): F divides
    the second term, and not the first, since x.num is coprime to x.den
    and lcm / x.den holds other factors only.  So only the factors of
    equal exponent on both sides are tried, and the monomial and the
    content.
    """
    (c1, m1, _), (c2, m2, _) = x.fac, y.fac
    c, m, fs, equal, up1, up2 = _lcm(x.fac, y.fac)
    mult = _product(c // c1, m - m1, up1)
    num = p_add(p_mul(x.num, mult),
                p_mul(y.num, _product(c // c2, m - m2, up2)))
    if not num:
        return Scalar.zero(x.k)
    num, c, m, fs, changed = _cancel(num, c, m, fs, equal)
    if changed:
        return Scalar(num, _product(c, m, fs), x.k, (c, m, fs))
    # an unchanged denominator keeps its dict and its factorization
    for z, up, cz, mz in ((x, up1, c1, m1), (y, up2, c2, m2)):
        if not up and c == cz and m == mz:
            return Scalar(num, z.den, x.k, z.fac)
    return Scalar(num, p_mul(x.den, mult), x.k, (c, m, fs))


def _factored_mul(x, y):
    """x * y for factored denominators: each numerator is reduced
    against the other side's denominator, and the exponents add."""
    (c1, m1, f1), (c2, m2, f2) = x.fac, y.fac
    n1, c2, m2, f2, cut2 = _cancel(x.num, c2, m2, f2, f2)
    n2, c1, m1, f1, cut1 = _cancel(y.num, c1, m1, f1, f1)
    num = p_mul(n1, n2)
    if not (cut1 or cut2):
        # an unchanged denominator keeps its dict and its factorization
        if _is_one(y.den):
            return Scalar(num, x.den, x.k, x.fac)
        if _is_one(x.den):
            return Scalar(num, y.den, x.k, y.fac)
    fs = dict(f1)
    for fid, e in f2.items():
        fs[fid] = fs.get(fid, 0) + e
    # p_mul of the two denominators raises on an exponent past MAX_EXP
    den = p_mul(_product(c1, m1, f1) if cut1 else x.den,
                _product(c2, m2, f2) if cut2 else y.den)
    return Scalar(num, den, x.k, (c1 * c2, m1 + m2, fs))


# ---------------------------------------------------------------------------
# the public Scalar type


class Scalar:
    """An element of Q(t, q_1, ..., q_k), stored as a fraction in
    canonical form; the constructor stores what it is given, so its
    callers pass canonical num and den.

    fac is den factored as (c, m, {factor: exponent}) with c > 0 and m
    a monomial, or None.  The constructor factors a den of one term, or
    of two that split, when it is not given fac.  An operation whose
    operands are both factored stays factored and calls no general gcd:
    a product trial-divides each numerator by the other side's factors;
    a sum takes the lcm and trial-divides by the factors of equal
    exponent on both sides alone, since a numerator is coprime to its
    own denominator (see _factored_add).  Every other operation takes
    the gcd path.
    """

    __slots__ = ("num", "den", "k", "fac")

    def __init__(self, num, den, k, fac=None):
        if not den:
            raise ZeroDivisionError("scalar with zero denominator")
        self.num = num
        self.den = den
        self.k = k
        self.fac = _factorization(den) if fac is None else fac

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(k):
        return Scalar({}, {0: 1}, k)

    @staticmethod
    def one(k):
        return Scalar.integer(1, k)

    @staticmethod
    def integer(c, k):
        return Scalar({0: c} if c else {}, {0: 1}, k)

    @staticmethod
    def t(k, e=1):
        return Scalar.param_monomial(k, e, {})

    @staticmethod
    def q(i, k, e=1):
        return Scalar.param_monomial(k, 0, {i: e})

    @staticmethod
    def param_monomial(k, e_t, qexps, coeff=1):
        """c * t^e_t * prod q_i^{e_i}; negative exponents go to the den.

        ValueError for a q index outside 1..k."""
        for i in qexps:
            if not 1 <= i <= k:
                raise ValueError(f"q_{i} outside session with {k} parameters")
        if coeff == 0:
            return Scalar.zero(k)
        num = den = 0
        for i, e in ((0, e_t), *qexps.items()):
            if abs(e) > MAX_EXP:
                raise ValueError(f"exponent {abs(e)} outside 0..{MAX_EXP}")
            if e > 0:
                num |= e << (k - i) * FIELD_BITS
            elif e < 0:
                den |= -e << (k - i) * FIELD_BITS
        # num/den share no variables and den is monic: already canonical
        return Scalar({num: coeff}, {den: 1}, k)

    # -- predicates --------------------------------------------------------

    def is_zero(self):
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def is_one(self):
        return _is_one(self.num) and _is_one(self.den)

    def is_monomial(self):
        """True for c * t^a * prod q_i^b_i with c != 0, exponents of
        either sign."""
        return len(self.num) == 1 and len(self.den) == 1

    def term_count(self):
        """Terms in the numerator plus terms in the denominator: the
        size of the exact arithmetic this scalar takes part in."""
        return len(self.num) + len(self.den)

    def _check(self, other):
        if not isinstance(other, Scalar):
            raise TypeError(f"expected Scalar, got {type(other).__name__}")
        if self.k != other.k:
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
        if self.fac is not None and other.fac is not None:
            return _factored_add(self, other)
        k = self.k
        # over d1 d2 / g0, only factors of g0 can cancel
        g0, d1r, d2r = (d1, {0: 1}, {0: 1}) if d1 == d2 else p_gcd(d1, d2)
        tn = p_add(p_mul(n1, d2r), p_mul(n2, d1r))
        if not tn:
            return Scalar.zero(k)
        _, tn, g0 = p_gcd(tn, g0)
        return Scalar(*_f_norm(tn, p_mul(p_mul(d1r, d2r), g0)), k)

    def __neg__(self):
        return Scalar(p_neg(self.num), self.den, self.k, self.fac)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        n1, d1 = self.num, self.den
        n2, d2 = other.num, other.den
        k = self.k
        if not n1 or not n2:
            return Scalar.zero(k)
        if self.fac is not None and other.fac is not None:
            return _factored_mul(self, other)
        if not _is_one(d2):
            _, n1, d2 = p_gcd(n1, d2)
        if not _is_one(d1):
            _, n2, d1 = p_gcd(n2, d1)
        return Scalar(*_f_norm(p_mul(n1, n2), p_mul(d1, d2)), k)

    def inv(self):
        if not self.num:
            raise ZeroDivisionError("inverting the zero scalar")
        return Scalar(*_f_norm(self.den, self.num), self.k)

    def __truediv__(self, other):
        return self * other.inv()

    def __pow__(self, e):
        if e == 0:
            return Scalar.one(self.k)
        base = self if e > 0 else self.inv()
        out = base
        for _ in range(abs(e) - 1):
            out = out * base
        return out

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return (self.k == other.k and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.k, frozenset(self.num.items()),
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
                exps = _unpack(m, self.k)
                term = Fraction(c)
                term *= Fraction(t_val) ** exps[0]
                for i, e in enumerate(exps[1:], start=1):
                    if e:
                        term *= Fraction(q_vals[i - 1]) ** e
                acc += term
            return acc

        return ev(self.num) / ev(self.den)


def clear_denominators(scalars, k):
    """(D, [c * D for c in scalars]) with D the lcm of the denominators,
    all as Scalars in k parameters with denominator 1.

    When every denominator is factored, D takes each factor's largest
    exponent, and D / den is the product of the rest.  Otherwise D grows
    by one distinct denominator at a time, and the cofactors of that
    step's p_gcd keep D / den for every denominator seen, so no exact
    division is needed.
    """
    scalars = list(scalars)
    if all(c.fac is not None for c in scalars):
        return _factored_lcm(scalars, k)
    lcm = {0: 1}
    mult = {}                 # denominator -> lcm / denominator
    keys = []
    for c in scalars:
        key = frozenset(c.den.items())
        keys.append(key)
        if key in mult:
            continue
        _, lcm_g, den_g = p_gcd(lcm, c.den)
        if not _is_one(den_g):
            lcm = p_mul(lcm, den_g)
            for kk, m in mult.items():
                mult[kk] = p_mul(m, den_g)
        mult[key] = lcm_g
    out = [Scalar(p_mul(c.num, mult[key]), {0: 1}, k)
           for c, key in zip(scalars, keys)]
    return Scalar(lcm, {0: 1}, k), out


def _lcm_of(facs):
    """The lcm (c, m, fs) of factorizations."""
    return reduce(lambda a, b: _lcm(a, b)[:3], facs, (1, 0, _NO_FACTORS))


def _cofactor(lcm, fac):
    """lcm / fac, expanded, for fac a factorization that divides lcm."""
    return _product(lcm[0] // fac[0], lcm[1] - fac[1], _lcm(lcm, fac)[5])


def _factored_lcm(scalars, k):
    """clear_denominators when every denominator is factored."""
    keys = [(ci, mi, tuple(fi.items())) for ci, mi, fi in
            (s.fac for s in scalars)]
    facs = {key: s.fac for key, s in zip(keys, scalars)}
    lcm = _lcm_of(facs.values())
    # lcm / denominator, for each distinct factorization
    mult = {key: _cofactor(lcm, fac) for key, fac in facs.items()}
    out = [Scalar(p_mul(s.num, mult[key]), {0: 1}, k)
           for key, s in zip(keys, scalars)]
    return Scalar(_product(*lcm), {0: 1}, k), out


# ---------------------------------------------------------------------------
# one column of a triangular system


def _column_over_lcm(values, column, shifts, diagonal, s):
    """(us, gaps, fac), or None for solve_column's Scalar path: us[i]
    is equation i's sum as a numerator over L * E, L the lcm of the
    values' denominators and E that of the entries'; gaps[i] is (g, h)
    with shifts[i] - diagonal[i] = g / h, unreduced, and signed at s so
    that fac, the factorization of L * E * g, is positive for that g.
    None when an operand is unfactored, that g does not split, or the
    monomial of fac passes MAX_EXP."""
    entries = [e for eq in column for l, e in eq if l in values]
    if any(x.fac is None
           for x in (*values.values(), *entries, *shifts, *diagonal)):
        return None
    gaps = []
    for a, d in zip(shifts, diagonal):
        c, m, fs, _, up1, up2 = _lcm(a.fac, d.fac)
        (c1, m1, _), (c2, m2, _) = a.fac, d.fac
        gaps.append((p_add(p_mul(a.num, _product(c // c1, m - m1, up1)),
                           p_mul(d.num, _product(-c // c2, m - m2, up2))),
                     _product(c, m, fs)))
    split = _factorization(gaps[s][0])
    if split is None:
        return None
    if split[0] < 0:
        gaps[s] = tuple(map(p_neg, gaps[s]))
    L, E = (_lcm_of(x.fac for x in xs) for xs in (values.values(), entries))
    m = L[1] + E[1] + split[1]
    if m & _guards(m):
        return None
    fs = dict(L[2])
    for fid, e in (*E[2].items(), *split[2].items()):
        fs[fid] = fs.get(fid, 0) + e
    # each value cleared once, for all the equations it enters
    cleared = {l: p_mul(v.num, _cofactor(L, v.fac))
               for l, v in values.items()}
    us = [reduce(p_add, (p_mul(cleared[l],
                               p_mul(e.num, _cofactor(E, e.fac)))
                         for l, e in eq if l in cleared), {})
          for eq in column]
    return us, gaps, (L[0] * E[0] * abs(split[0]), m, fs)


def solve_column(values, column, shifts, diagonal, zero):
    """The x with

        sum over (l, c) of column[i] of values[l] * c
            + x * (diagonal[i] - shifts[i]) = 0

    for every i, or None when there is none.  x is solved from the first
    i with diagonal[i] != shifts[i] (ValueError when there is none), and
    the other equations are checked.  A key l not in values stands for
    zero, and zero is the field's zero.

    Over factored operands, each equation's sum is a numerator U_i over
    one common denominator, and each gap shifts[i] - diagonal[i] is g_i
    over h_i (_column_over_lcm).  Equation i holds exactly when
    U_i g_s h_i = U_s g_i h_s, tested with no reduction, and
    x = U_s h_s / g_s over that denominator is reduced once, by
    _cancel.  Otherwise it is Scalar arithmetic."""
    s = next((i for i, (a, d) in enumerate(zip(shifts, diagonal))
              if a != d), None)
    if s is None:
        raise ValueError("no equation of the column has a nonzero gap")
    used = {l: values[l] for eq in column for l, _ in eq if l in values}
    if not used:
        return zero
    over = _column_over_lcm(used, column, shifts, diagonal, s)
    if over is None:
        sums = [sum((used[l] * e for l, e in eq if l in used), zero)
                for eq in column]
        x = sums[s] / (shifts[s] - diagonal[s]) if sums[s] else zero
        return x if all((y + x * (d - a)).is_zero() for y, a, d
                        in zip(sums, shifts, diagonal)) else None
    us, gaps, (c, m, fs) = over
    (gs, hs), us_s = gaps[s], us[s]
    if any(p_mul(u, p_mul(gs, h)) != p_mul(us_s, p_mul(g, hs))
           for i, (u, (g, h)) in enumerate(zip(us, gaps)) if i != s):
        return None
    if not us_s:
        return zero
    num, c, m, fs, _ = _cancel(p_mul(us_s, hs), c, m, fs, fs)
    return Scalar(num, _product(c, m, fs), zero.k, (c, m, fs))


# ---------------------------------------------------------------------------
# Kronecker-packed integers


class _Shift:
    """Multiplication of a packed int v by c * 2^s: (c v) << s, or for
    s < 0 the exact (c v) >> -s, an ArithmeticError if a bit it would
    drop is set."""

    __slots__ = ("c", "s", "low")

    def __init__(self, c, s):
        self.c = c
        self.s = s
        self.low = (1 << -s) - 1 if s < 0 else 0

    def __rmul__(self, v):
        if self.c != 1:
            v *= self.c
        if self.s >= 0:
            return v << self.s
        if v & self.low:
            raise ArithmeticError("inexact division of a packed integer")
        return v >> -self.s


class _OneMinusShift:
    """Multiplication of a packed int v by 1 - 2^s: v - (v << s)."""

    __slots__ = ("s",)

    def __init__(self, s):
        self.s = s

    def __rmul__(self, v):
        return v - (v << self.s)


class KroneckerRing:
    """Z[t, q_1..q_k] packed into Z by Kronecker substitution, exact for
    one chain of integral coefficients and what is read at its end.

    The chain takes polynomials f_m in Z[t, q] (the coefficients, one
    per x-monomial m, of its input f) to F_m.  The caller gives f as
    coefficients g_m and a monomial u = prod_l q_l^lift[l], with
    f_m = u g_m, and packs f_m as pack(g_m) times the action of u.  It
    bounds the chain:

    - ||F||_1 <= growth * ||f||_1, where ||.||_1 sums the absolute
      values of the integer coefficients over every x-monomial and every
      parameter monomial;
    - deg_t F <= deg_t f + t_rise, and deg_ql F <= deg_ql f + q_rise[l];
    - F is reached by sums, negations, products by 1 - t and by
      monomials, and exact divisions by monomials.

    A ring reads the chain's end in one of two ways:

    - compare, when weights are given: for each weight w = num / den
      (num, den in Z[t, q]), whether den F_m = num f_m at every m,
      through the difference g = den F_m - num f_m;
    - unpack, when none are: each packed F_m back into its polynomial.

    The coefficients of a product are bounded by the product of the
    1-norms, so every coefficient of g is at most
    (||den||_1 growth + ||num||_1) ||f||_1 in size, and every coefficient
    of F_m at most growth ||f||_1.  Let C be the largest of the weights'
    bounds for a ring that compares, and twice F's bound for a ring
    that unpacks.  Let T be the largest of deg_t f + t_rise and, over
    the weights, deg_t den + deg_t f + t_rise and deg_t num + deg_t f;
    likewise Q_l for q_l.

    The digit width is B = bit length of C, so every coefficient that
    is compared lies strictly inside (-2^B, 2^B), and every one that is
    unpacked strictly inside (-2^(B-1), 2^(B-1)).  The radix is mixed:
    t gets T + 1 digits, q_1 the next Q_1 + 1 blocks of those, and so
    on, so the packed value of a polynomial is its value at t = 2^B and
    q_l = 2^(B R_l) with R_1 = T + 1 and R_(l+1) = R_l (Q_l + 1).  A
    monomial inside the degree box goes to 2^(B i), i = e_t +
    sum R_l e_l, and distinct monomials get distinct i.

    Compare, one-to-one: let g != 0 lie in the box with coefficients
    inside (-2^B, 2^B), and let a be its coefficient of least i.  Then
    pack(g) = a 2^(B i) modulo 2^(B (i + 1)), which is not 0 because
    0 < |a| < 2^B.  So pack(g) = 0 exactly when g = 0, and the packed
    comparison gives the polynomial verdict.

    Unpack, digit by digit: a polynomial whose monomials lie in h
    consecutive positions, with coefficients of size at most
    2^(B-1) - 1, has a value of size at most
    (2^(B-1) - 1)(2^(B h) - 1) / (2^B - 1) < 2^(B h - 1).  So its low h
    digits are the value modulo 2^(B h) taken in
    [-2^(B h - 1), 2^(B h - 1)), and the rest is the value less those,
    divided by 2^(B h) exactly.  unpack splits the box in halves this
    way, skips a half whose value is 0, and reads position i's single
    digit as the coefficient of its monomial: e_t = i mod (T + 1), then
    e_1 = (i div R_1) mod (Q_1 + 1), and so on, variable by variable,
    so a q_l with Q_l = 0 reads as 0 whatever its R_l ties.  An int
    whose digits run past the box leaves the excess in the top digit,
    and a digit outside (-2^(B-1), 2^(B-1)) raises ValueError rather
    than being misread.

    No value inside the chain needs to fit the box or the width.
    Packing is evaluation, a ring map, so sums, negations and products
    carry over, and 1 - t and a monomial act as v - (v << B) and
    v << s.  Dividing by a monomial u that divides the polynomial is
    dividing its value by pack(u) = 2^s, an exact right shift; the shift
    refuses to drop a set bit, so a division the bounds did not promise
    raises ArithmeticError instead of rounding.  A term dropped because
    its packed value is 0 contributes 0 either way.
    """

    def __init__(self, k, coeffs, growth, t_rise, q_rise=None, lift=None,
                 weights=()):
        self.k = k
        coeffs = [c.num for c in coeffs]
        norm = sum(map(_norm1, coeffs))
        lift, q_rise = lift or {}, q_rise or {}
        top = [e + lift.get(v, 0) for v, e in
               enumerate(_degrees(set().union(*coeffs), k))]
        rise = [t_rise] + [q_rise.get(ell, 0) for ell in range(1, k + 1)]
        self._compares = bool(weights)
        size = 0 if weights else 2 * growth
        box = [e + up for e, up in zip(top, rise)]
        for w in weights:
            size = max(size, _norm1(w.den) * growth + _norm1(w.num))
            box = [max(b, e + d + up, f + d) for b, d, up, e, f in zip(
                box, top, rise, _degrees(w.den, k), _degrees(w.num, k))]
        self.bits = max((size * norm).bit_length(), 1)
        # (field shift of the variable, its digit count, bit position of
        # its first power)
        self._places = []
        step = self.bits
        for v, b in enumerate(box):
            self._places.append(((k - v) * FIELD_BITS, b + 1, step))
            step *= b + 1
        self._digits = step // self.bits
        self._actions = {}
        self._at = {}         # packed monomial -> its bit position
        self.one_minus_t = _OneMinusShift(self.bits)

    def _shift(self, m):
        s = self._at.get(m)
        if s is None:
            s = self._at[m] = sum((m >> sh & MAX_EXP) * w
                                  for sh, _, w in self._places)
        return s

    def _pack(self, f):
        """f's packed value, summed in halves of its terms sorted by
        position, each half relative to its lowest: a term-by-term sum
        would cost the full width once per term."""
        terms = sorted((self._shift(m), c) for m, c in f.items())

        def half(lo, hi):
            if hi - lo == 1:
                return terms[lo][1]
            mid = (lo + hi) // 2
            return half(lo, mid) + (half(mid, hi)
                                    << terms[mid][0] - terms[lo][0])

        return half(0, len(terms)) << terms[0][0] if terms else 0

    def pack(self, s: Scalar) -> int:
        """The packed value of a scalar with denominator 1."""
        if not _is_one(s.den):
            raise ValueError("only an integral scalar packs")
        return self._pack(s.num)

    def unpack(self, v) -> Scalar:
        """The integral scalar whose packed value is v, read in balanced
        base-2^B digits by halving splits that skip zero halves;
        ValueError for a digit outside (-2^(B-1), 2^(B-1)), or for a
        ring that compares, whose width only its comparison needs."""
        if self._compares:
            raise ValueError("a ring built to compare does not unpack")
        bits, half = self.bits, 1 << self.bits - 1
        num = {}

        def split(v, lo, count):
            # v holds the digits lo .. lo + count - 1, relative to lo
            while count > 1:
                h = count // 2
                w = bits * h
                low = v & ((1 << w) - 1)
                if low >> w - 1:
                    low -= 1 << w
                if low:
                    split(low, lo, h)
                v = (v - low) >> w
                if not v:
                    return
                lo, count = lo + h, count - h
            if not -half < v < half:
                raise ValueError("packed integer past the ring's bound")
            num[self._monomial_at(lo)] = v

        if v:
            split(v, 0, self._digits)
        return Scalar(num, {0: 1}, self.k)

    def _monomial_at(self, i):
        """The packed monomial at digit position i, read variable by
        variable in mixed radix."""
        m = 0
        for sh, radix, _ in self._places:
            i, e = divmod(i, radix)
            m |= e << sh
        return m

    def fraction(self, s: Scalar):
        """(num, den) of s as multipliers of packed ints: a shift
        action for a single term, the packed int otherwise."""
        return tuple(self._multiplier(f) for f in (s.num, s.den))

    def _multiplier(self, f):
        if len(f) != 1:
            return self._pack(f)
        (m, c), = f.items()
        return self._action(c, self._shift(m))

    def _action(self, c, s):
        act = self._actions.get((c, s))
        if act is None:
            act = self._actions[(c, s)] = _Shift(c, s)
        return act

    def monomial(self, c=1, t=0, q=None):
        """The action of c * t^t * prod_l q_l^q[l] on packed ints;
        a negative exponent divides, exactly."""
        s = t * self._places[0][2]
        for ell, e in (q or {}).items():
            if not 1 <= ell <= self.k:
                raise ValueError(f"q_{ell} outside session with {self.k} "
                                 "parameters")
            s += e * self._places[ell][2]
        return self._action(c, s)


# ---------------------------------------------------------------------------
# rendering and serialization
#
# power_text writes every power and signed_sum joins every sum, of t and
# the q's here and of the x's in laurent, in plain text and in LaTeX.


def power_text(name, e, latex=False):
    """name^e, or name^{e} in LaTeX; the bare name when e = 1."""
    if e == 1:
        return name
    return f"{name}^{{{e}}}" if latex else f"{name}^{e}"


def signed_sum(terms):
    """The sum of term texts: the first as it is, each later one joined
    by " - " with its leading "-" dropped, or by " + "; "0" for none."""
    out = []
    for term in terms:
        if out:
            term = " - " + term[1:] if term.startswith("-") else " + " + term
        out.append(term)
    return "".join(out) or "0"


def render_param_poly(p, k, latex=False):
    names = ["t"] + [f"q_{{{i}}}" if latex else f"q{i}"
                     for i in range(1, k + 1)]
    # after the coefficient, between the powers
    lead, sep = ("", " ") if latex else ("*", "*")
    terms = []
    for m in sorted(p, reverse=True):
        c = p[m]
        body = sep.join(power_text(name, e, latex)
                        for name, e in zip(names, _unpack(m, k)) if e)
        if not body:
            body = str(abs(c))
        elif abs(c) != 1:
            body = str(abs(c)) + lead + body
        terms.append("-" + body if c < 0 else body)
    return signed_sum(terms)


def render_scalar(s: Scalar, latex=False) -> str:
    num, den = s.num, s.den
    # cosmetic: prefer a positive constant term in the denominator
    if den.get(0, 0) < 0:
        num, den = p_neg(num), p_neg(den)
    if _is_one(den):
        return render_param_poly(num, s.k, latex)
    ntxt = render_param_poly(num, s.k, latex)
    dtxt = render_param_poly(den, s.k, latex)
    if latex:
        return f"\\frac{{{ntxt}}}{{{dtxt}}}"
    if len(num) > 1:
        ntxt = f"({ntxt})"
    # x/y*z reads as (x/y)*z, so product denominators need parens
    if len(den) > 1 or "*" in dtxt or dtxt.startswith("-"):
        dtxt = f"({dtxt})"
    return f"{ntxt}/{dtxt}"


def integer(value):
    """An integer from outside the program: an int but not a bool, or
    ASCII digits with an optional leading '-' and surrounding space;
    anything else (2.5, True, "1_0", "+1") is a ValueError."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        digits = value.strip().removeprefix("-")
        if digits.isascii() and digits.isdigit():
            return int(value)
    raise ValueError(f"expected an integer, got {value!r}")


def _poly_to_json(p, k):
    return [[str(c), list(_unpack(m, k))] for m, c in sorted(p.items())]


def _poly_from_json(items):
    out = {}
    for c, m in items:
        c, m = integer(c), tuple(integer(e) for e in m)
        if not c or any(e < 0 for e in m):
            raise ValueError("scalar JSON needs nonzero coefficients and "
                             "nonnegative exponents")
        if m in out:
            raise ValueError(f"scalar JSON repeats the exponent {m}")
        out[m] = c
    return out


def scalar_to_json(s: Scalar) -> dict:
    return {"num": _poly_to_json(s.num, s.k),
            "den": _poly_to_json(s.den, s.k)}


def scalar_from_json(d) -> Scalar:
    """Decode scalar_to_json output into canonical form; ValueError on
    an empty denominator, exponents of unequal or zero length, an
    exponent repeated within the numerator or the denominator, or an
    exponent past MAX_EXP."""
    num = _poly_from_json(d["num"])
    den = _poly_from_json(d["den"])
    if not den:
        raise ValueError("scalar JSON has an empty denominator")
    lengths = {len(m) for m in (*num, *den)}
    if len(lengths) != 1 or 0 in lengths:
        raise ValueError("scalar JSON exponents differ in length")
    k = lengths.pop() - 1
    _, num, den = p_gcd({_pack(m): c for m, c in num.items()},
                        {_pack(m): c for m, c in den.items()})
    return Scalar(*_f_norm(num, den), k)
