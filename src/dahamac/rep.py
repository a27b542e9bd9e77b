"""The rank-r polynomial representation of the double affine Hecke algebra.

Operators act on LaurentPoly values in r groups of n variables.  The
generator actions are

    T_j  =  s_j in all groups
            + (1-t) * sum over k of (s_j in groups 1..k) then (xi_j in
              group k+1),
    X_i  =  multiplication by x_{1,i},
    pi   =  cycle every group's exponent row (last entry to the front)
            and multiply the coefficient by prod_i q_i^{-(last exponent
            of row i)},

and the derived elements

    T_j^{-1} = (T_j - (1-t)) / t,
    Y_i      = t^{n-i} T_{i-1} ... T_1 pi T_{n-1}^{-1} ... T_i^{-1}
             = T_{i-1} ... T_1 pi (T_{n-1} + t-1) ... (T_i + t-1),
    theta_i  = t^{i-1} T_{i-1}^{-1} ... T_1^{-1} pi T_{n-1} ... T_i
             = (T_{i-1} + t-1) ... (T_1 + t-1) pi T_{n-1} ... T_i,

with composition applying the rightmost factor first.  The second form
of Y_i and theta_i is the one applied: t T_j^{-1} = T_j + (t-1), and
the power of t in front is exactly one t per inverse factor, so it is
absorbed and no t^{-1} ever multiplies a coefficient.  Y_i and theta_i
are one pi-word, T_{i-1} ... T_1 pi T_{n-1} ... T_i, with the inverse
factors on opposite sides of pi: right of it in Y_i, left in theta_i.
T_j has coefficients in Z[t] and pi multiplies by q-monomials, so on an
input with polynomial coefficients every denominator that appears is a
q-monomial.  The symmetrizer eps is the normalized sum of t^{-l(w)} T_w
over the finite symmetric group, and Delta_n = eps (Y_1 + ... + Y_n -
[n]_t) eps acts on symmetric p as Y_1 + ... + Y_n - [n]_t.

apply_operator_expr is the one interpreter of operator words: sums of
t-, q- and integer-weighted words in the tokens T<j>, Tinv<j>, X<i>,
Xinv<i>, Y<i> and pi.  The `apply` command evaluates them, and
verify_daha_relations states each defining relation as two of them.

RepContext names the coefficient field Q(t, q_1..q_k), and its one
constructor RepContext.scalar builds every scalar that this module and
the modules above it create.

T_j, pi, Y_i and theta_i are generic in their coefficients, which need
only + and unary - between them, * by what the context supplies (its
scalar monomials and one_minus_t) and truthiness, false for zero, by
which a zero term is dropped.  A context built with ring=... (field's
KroneckerRing) supplies its monomials and 1 - t as actions on packed
ints, and the same operators then run on polynomials whose
coefficients are those ints.  The symmetrizer runs its integral T
chain that way and unpacks the result; Delta_n's Y_i, the operator
expressions and the matrices need Scalars.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

from .field import KroneckerRing, Scalar, integer, inverse_over_known_factors
from .laurent import LaurentPoly, clear_poly_denominators


@dataclass(frozen=True)
class RepContext:
    n: int
    r: int
    k: int  # session q-parameter count; q_l belongs to group l
    ring: KroneckerRing | None = None  # None: the field of Scalars

    def __post_init__(self):
        if self.n < 1 or self.r < 1:
            raise ValueError("need n >= 1 and r >= 1")
        if self.r > self.k:
            raise ValueError("need r <= k")

    def zero(self):
        return LaurentPoly(self.r, self.n, self.k)

    def one(self):
        return LaurentPoly.monomial(self.r, self.n, self.k,
                                    [[0] * self.n] * self.r, self.scalar())

    def scalar(self, c=1, t=0, q=None) -> Scalar:
        """c * t^t * prod_l q_l^q[l]; negative exponents go to the
        denominator, and a q index outside 1..k is a ValueError.  In a
        ring, the ring's action of that monomial."""
        if self.ring is not None:
            return self.ring.monomial(c, t, q)
        return Scalar.param_monomial(self.k, t, q or {}, c)

    @cached_property
    def one_minus_t(self) -> Scalar:
        """1 - t, built once; cached in the instance dict, not in ==."""
        if self.ring is not None:
            return self.ring.one_minus_t
        return self.scalar() - self.scalar(t=1)


def _check_j(ctx, j):
    if not 1 <= j <= ctx.n - 1:
        raise IndexError("Hecke generator index out of range")


def apply_T(ctx: RepContext, j: int, p: LaurentPoly,
            t_inverse=False) -> LaurentPoly:
    """T_j p; with t_inverse, t T_j^{-1} p = T_j p + (t-1) p instead,
    formed as s_j p + (1-t)(sum of the xi pieces - p), with no
    division by t.

    One pass over p's terms serves all r groups: a term's xi_j piece in
    group g is taken after s_j has acted on groups 1..g-1, and every
    piece goes into one accumulator, so each accumulated term takes one
    (1-t) product.  s_j permutes monomials, so the swapped terms never
    collide.  tests/test_rep.py checks this pass against
    three_pass_apply_T, built from laurent.xi and laurent.swap_vars.
    """
    _check_j(ctx, j)
    n = ctx.n
    acc = {}     # sums of the pieces; a sum may reach zero and stay
    get = acc.get
    out = {}
    for m, c in p.terms.items():
        if t_inverse:
            v, nc = get(m), -c
            acc[m] = nc if v is None else v + nc
        mm = list(m)
        for base in range(j - 1, ctx.r * n, n):
            a, b = mm[base], mm[base + 1]
            if a != b:
                # xi_j's geometric sum from (a, b) toward (b, a),
                # negated when a < b
                hi, lo, sc = (a, b, c) if a > b else (b, a, -c)
                for step in range(hi - lo):
                    mm[base], mm[base + 1] = hi - step, lo + step
                    key = tuple(mm)
                    v = get(key)
                    acc[key] = sc if v is None else v + sc
            mm[base], mm[base + 1] = b, a
        out[tuple(mm)] = c
    omt = ctx.one_minus_t
    for m, c in acc.items():
        if not c:
            continue
        c = c * omt
        v = out.get(m)
        if v is None:
            out[m] = c
        elif v := v + c:
            out[m] = v
        else:
            del out[m]
    return LaurentPoly(ctx.r, n, ctx.k, out)


def apply_T_inv(ctx: RepContext, j: int, p: LaurentPoly) -> LaurentPoly:
    return apply_T(ctx, j, p, t_inverse=True).smul(ctx.scalar(t=-1))


def apply_X(ctx: RepContext, i: int, p: LaurentPoly, e=1) -> LaurentPoly:
    """X_i^e p, for e = 1 or e = -1 (X_i^{-1})."""
    if not 1 <= i <= ctx.n:
        raise IndexError("X index out of range")
    flat = [0] * (ctx.r * ctx.n)
    flat[i - 1] = e
    return p.mul_monomial(tuple(flat))


def apply_pi(ctx: RepContext, p: LaurentPoly) -> LaurentPoly:
    n, r = ctx.n, ctx.r
    # each row's last entry first, then the rest of the row
    cycled = [i + (j - 1) % n for i in range(0, r * n, n) for j in range(n)]
    charges = {}      # last exponents of the rows -> their q charge
    out = {}
    for m, c in p.terms.items():
        lasts = m[n - 1::n]
        if any(lasts):
            f = charges.get(lasts)
            if f is None:
                f = charges[lasts] = ctx.scalar(
                    q={ell: -e for ell, e in enumerate(lasts, 1) if e})
            c = c * f
        out[tuple(map(m.__getitem__, cycled))] = c
    return LaurentPoly(r, n, ctx.k, out)


def _pi_word(ctx, i, p, inverse_first):
    """T_{i-1} ... T_1 pi T_{n-1} ... T_i p, each factor on the side of
    pi that inverse_first names (the right side when true) in the form
    t T_j^{-1}."""
    if not 1 <= i <= ctx.n:
        name = "Y" if inverse_first else "theta"
        raise IndexError(f"{name} index out of range")
    for j in range(i, ctx.n):
        p = apply_T(ctx, j, p, t_inverse=inverse_first)
    p = apply_pi(ctx, p)
    for j in range(1, i):
        p = apply_T(ctx, j, p, t_inverse=not inverse_first)
    return p


def apply_Y(ctx: RepContext, i: int, p: LaurentPoly) -> LaurentPoly:
    return _pi_word(ctx, i, p, True)


def apply_theta(ctx: RepContext, i: int, p: LaurentPoly) -> LaurentPoly:
    return _pi_word(ctx, i, p, False)


# ---------------------------------------------------------------------------
# symmetrizer


def symmetrize_eps(ctx: RepContext, p: LaurentPoly,
                   monic_at=None) -> LaurentPoly:
    """Normalized sum of t^{-l(w)} T_w over S_n, by coset factorisation.

    S_m = (minimal coset representatives s_k ... s_{m-1}) x S_{m-1}, so
    the sum factors as the product over m = 2..n of
    sum_{k=1..m} t^{-(m-k)} T_k ... T_{m-1}, applied for m = 2 first.
    Each level's chain extends the previous term by one T, so the whole
    symmetrizer costs n(n-1)/2 T-applications.

    The chain runs over Z[t, q].  The input is multiplied once by the
    lcm D of its coefficient denominators, and level m by t^(m-1), so
    T_k ... T_{m-1} carries the weight t^(k-1) and the level's
    normalizer is [m]_t.  T_j has coefficients in Z[t], so every
    coefficient in the chain keeps denominator 1.  D p is packed once
    into a field.KroneckerRing, the unchanged T_j run on the packed
    ints through a context of that ring, and each distinct output int
    is unpacked once.  The ring's unpacking is exact (its docstring
    proves it) given these bounds on the chain, with R the largest sum
    of |x-exponents| of a term of D p:

    - ||T_j f||_1 <= (1 + 2R) ||f||_1, and R never grows (see
      nonsym.check_record);
    - level m sums t^(m-1) f and the m - 1 images of one to m - 1
      T's, each times a t-power, so its 1-norm is at most
      (1 + (1 + 2R) + ... + (1 + 2R)^(m-1)) ||f||_1 <= m (1 + 2R)^(m-1)
      ||f||_1, and the whole chain at most
      n! (1 + 2R)^(n(n-1)/2) ||D p||_1;
    - every term of level m has t-degree raised by m - 1 (t^(k-1) and
      m - k factors 1 - t), n(n-1)/2 over the chain;
    - the q-degrees do not rise.

    The integral image is divided once, by the normaliser
    D prod_{m<=n} [m]_t, or with monic_at by its own coefficient at
    that flat exponent tuple (ArithmeticError if it has none).  The
    normaliser is factored before it is inverted
    (field.inverse_over_known_factors), by trial division by the
    factors of the input's denominators, which are D's, and by the
    Phi_d(t), d <= n, which are the brackets'.  When that leaves +-c
    times a monomial, as it did for all 106 normalisers of one
    `stability` bench pass (the monic ones were seen to be D times a
    monomial times brackets, a rule the code does not rely on), each
    distinct output coefficient takes one factored product and no gcd.
    Otherwise the inverse keeps no factorization and each takes one gcd
    reduction, so any input stays exact.  Values repeat (465 distinct
    among the 1,451 output coefficients of one `stability` bench pass),
    but not along S_n orbits of the exponent columns: 63 of the 72
    terms of P(((3,1,0),(2,0,0))) at n = 3, r = 2 differ from some term
    of their column orbit.  At n = 1 there is no chain and no ring: the
    sum is p.
    """
    n = ctx.n
    if n == 1:
        if monic_at is None:
            return p
        return p.smul(_term_at(p, monic_at).inv())
    coeffs = p.terms.values()
    norm, p = clear_poly_denominators(p)
    reach = max((sum(map(abs, m)) for m in p.terms), default=0)
    ring = KroneckerRing(ctx.k, p.terms.values(),
                         growth=math.factorial(n)
                         * (1 + 2 * reach) ** (n * (n - 1) // 2),
                         t_rise=n * (n - 1) // 2)
    packed = RepContext(n, ctx.r, ctx.k, ring)
    p = LaurentPoly(p.r, n, p.k,
                    {m: ring.pack(c) for m, c in p.terms.items()})
    for m in range(2, n + 1):
        acc = p.smul(packed.scalar(t=m - 1))
        cur = p
        for j in range(m - 1, 0, -1):
            cur = apply_T(packed, j, cur)
            acc = acc + (cur.smul(packed.scalar(t=j - 1)) if j > 1 else cur)
        p = acc
    images = {c: ring.unpack(c) for c in set(p.terms.values())}
    if monic_at is None:
        for m in range(2, n + 1):
            norm = norm * t_bracket(ctx, m)
    else:
        norm = images[_term_at(p, monic_at)]
    inv = inverse_over_known_factors(norm, coeffs, n)
    quotients = {c: s * inv for c, s in images.items()}
    return LaurentPoly(p.r, n, p.k,
                       {m: quotients[c] for m, c in p.terms.items()})


def _term_at(p: LaurentPoly, flat):
    """p's coefficient at the flat exponent tuple; ArithmeticError if
    it has none."""
    if flat not in p.terms:
        raise ArithmeticError(
            f"symmetrized polynomial has no term at x^{flat}")
    return p.terms[flat]


def t_bracket(ctx: RepContext, m=None) -> Scalar:
    """[m]_t = 1 + t + ... + t^(m-1), with m = n by default."""
    total = ctx.scalar(0)
    for e in range(ctx.n if m is None else m):
        total = total + ctx.scalar(t=e)
    return total


def apply_Delta_n(ctx: RepContext, p: LaurentPoly) -> LaurentPoly:
    """Delta_n p = (Y_1 + ... + Y_n - [n]_t) p, for a symmetric p.

    On T-invariant p (P, an eps image or the projection of one) both eps
    of Delta_n = eps (e_1(Y) - [n]_t) eps are the identity, as T_i
    commutes with e_1(Y).  From the checked relations T_i Y_i T_i =
    t Y_{i+1}, T_i Y_j = Y_j T_i (j != i, i+1) and T_i^2 = (1-t) T_i + t,
    T_i Y_i = Y_{i+1} T_i - (1-t) Y_{i+1} and T_i Y_{i+1} =
    t^{-1} T_i^2 Y_i T_i = Y_i T_i + (1-t) Y_{i+1}; add them.
    """
    acc = ctx.zero()
    for i in range(1, ctx.n + 1):
        acc = acc + apply_Y(ctx, i, p)
    return acc - p.smul(t_bracket(ctx))


# ---------------------------------------------------------------------------
# operator expressions


# generator token -> action on (ctx, index, p); pi, with no index, is
# the one token outside it
_GENERATORS = {"Tinv": apply_T_inv, "T": apply_T,
               "Xinv": lambda ctx, i, p: apply_X(ctx, i, p, -1),
               "X": apply_X, "Y": apply_Y}


def parse_operator_expr(text: str):
    """Parse a sum of scalar-weighted generator words.

    Grammar: terms split on '+'; each term is whitespace-separated
    tokens among t, q<i> (with optional ^<int> exponent, possibly
    negative), an optional leading integer, and the generators T<j>,
    Tinv<j>, X<i>, Xinv<i>, Y<i>, pi.  Generator tokens apply rightmost
    first.  Every index, exponent and integer is read by field.integer.
    """
    terms = []
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError("empty operator term")
        coeff_parts = []
        word = []
        for tok in chunk.split():
            if tok == "pi":
                word.append(("pi",))
                continue
            gen = _prefixed_int(tok, _GENERATORS)
            if gen is not None:
                word.append(gen)
                continue
            coeff_parts.append(tok)
        terms.append((coeff_parts, word))
    return terms


def _prefixed_int(tok, prefixes):
    """(prefix, integer) for the first prefix that tok starts with and
    whose rest reads as an integer, as Tinv2 does, else None."""
    for g in prefixes:
        if tok.startswith(g):
            try:
                return g, integer(tok[len(g):])
            except ValueError:
                pass
    return None


def _coeff_from_parts(parts, ctx):
    c = ctx.scalar()
    for tok in parts:
        base, caret, e = tok.partition("^")
        e = integer(e) if caret else 1
        q, b = _prefixed_int(base, ("q",)), _prefixed_int(base, ("",))
        if base == "t":
            c = c * ctx.scalar(t=e)
        elif q:
            c = c * ctx.scalar(q={q[1]: e})
        elif b:
            b = b[1]
            # an int past this many digits cannot be printed
            limit = sys.get_int_max_str_digits()
            if abs(b) > 1 and limit and abs(e) * math.log10(abs(b)) >= limit:
                raise ValueError(f"{tok} has more than {limit} digits")
            f = ctx.scalar(b ** abs(e))
            c = c * (f if e >= 0 else f.inv())
        else:
            raise ValueError(f"unknown token {tok!r} in operator expression")
    return c


def apply_operator_expr(ctx: RepContext, expr, p: LaurentPoly) -> LaurentPoly:
    """Apply a parsed (or textual) operator expression to p."""
    if isinstance(expr, str):
        expr = parse_operator_expr(expr)
    total = None
    for coeff_parts, word in expr:
        cur = p
        for tok in reversed(word):
            if tok[0] == "pi":
                cur = apply_pi(ctx, cur)
            else:
                cur = _GENERATORS[tok[0]](ctx, tok[1], cur)
        if coeff_parts:
            cur = cur.smul(_coeff_from_parts(coeff_parts, ctx))
        total = cur if total is None else total + cur
    return total


# ---------------------------------------------------------------------------
# index sets and matrices on graded components


def compositions(total, n):
    """Rows of n nonnegative integers with sum total, ascending lex."""
    if n == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, n - 1):
            yield (head,) + rest


def degrees_upto(bound):
    """Multidegrees componentwise at most bound, in lex order, made one
    at a time: memory stays linear in len(bound) however large its
    entries."""
    if not bound:
        yield ()
        return
    for head in range(bound[0] + 1):
        for rest in degrees_upto(bound[1:]):
            yield (head,) + rest


def component_basis(ctx: RepContext, d):
    """Positive monomials of multidegree d, ascending lex on the flat
    exponent tuple."""
    if len(d) != ctx.r:
        raise ValueError("multidegree length mismatch")
    flats = [()]
    for di in d:
        if di < 0:
            raise ValueError("negative multidegree has no positive component")
        rows = list(compositions(di, ctx.n))
        flats = [f + row for f in flats for row in rows]
    return flats


def matrix_of(ctx: RepContext, op, d):
    """Matrix of op on the positive component of multidegree d, as the
    sparse rows of linalg: row i maps the column of each basis monomial
    to its nonzero coefficient in op(basis[i]).  ValueError if an image
    has a term outside the component.
    """
    basis = component_basis(ctx, d)
    index = {m: c for c, m in enumerate(basis)}
    one = ctx.scalar()
    mat = []
    for m in basis:
        image = op(LaurentPoly(ctx.r, ctx.n, ctx.k, {m: one}))
        row = {}
        for mm, c in image.terms.items():
            if mm not in index:
                raise ValueError("operator escapes the graded component")
            row[index[mm]] = c
        mat.append(row)
    return mat


# ---------------------------------------------------------------------------
# relation suite


def _monomials_upto(ctx, bound):
    for d in degrees_upto(bound):
        yield from component_basis(ctx, d)


def verify_daha_relations(ctx: RepContext, degree_bound) -> dict:
    """Check every defining relation on all positive monomials of
    multidegree at most degree_bound (componentwise).

    Returns {"ok": bool, "checks": [{"relation": name, "ok": bool,
    "failures": [monomial texts]}...]}.
    """
    n = ctx.n
    # (T-1)(T+t) = T^2 + tT - T - t
    relations = [(f"(T{i}-1)(T{i}+t)=0", f"T{i} T{i} + t T{i}", f"T{i} + t")
                 for i in range(1, n)]
    relations += [(f"T{i}T{i+1}T{i}=T{i+1}T{i}T{i+1}", f"T{i} T{i+1} T{i}",
                   f"T{i+1} T{i} T{i+1}") for i in range(1, n - 1)]
    relations += [(f"T{i}T{j}=T{j}T{i}", f"T{i} T{j}", f"T{j} T{i}")
                  for i in range(1, n) for j in range(i + 2, n)]
    for i in range(1, n):
        relations.append((f"Tinv{i}X{i}Tinv{i}=t^-1X{i+1}",
                          f"Tinv{i} X{i} Tinv{i}", f"t^-1 X{i+1}"))
        relations += [(f"T{i}X{j}=X{j}T{i}", f"T{i} X{j}", f"X{j} T{i}")
                      for j in range(1, n + 1) if j not in (i, i + 1)]
    relations += [(f"X{i}X{j}=X{j}X{i}", f"X{i} X{j}", f"X{j} X{i}")
                  for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for i in range(1, n):
        relations.append((f"T{i}Y{i}T{i}=tY{i+1}", f"T{i} Y{i} T{i}",
                          f"t Y{i+1}"))
        relations += [(f"T{i}Y{j}=Y{j}T{i}", f"T{i} Y{j}", f"Y{j} T{i}")
                      for j in range(1, n + 1) if j not in (i, i + 1)]
    relations += [(f"Y{i}Y{j}=Y{j}Y{i}", f"Y{i} Y{j}", f"Y{j} Y{i}")
                  for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    if n >= 2:
        relations.append(("Y1T1X1=X2Y1T1", "Y1 T1 X1", "X2 Y1 T1"))
    # pi substitutes q^-1 x_1, so moving Y_1 past X_1..X_n costs q^-1:
    # the product relation reads q Y1 X1..Xn = X1..Xn Y1.
    all_x = " ".join(f"X{i}" for i in range(1, n + 1))
    relations.append(("qY1X1..Xn=X1..XnY1", f"q1 Y1 {all_x}", f"{all_x} Y1"))

    mons = list(_monomials_upto(ctx, degree_bound))
    checks = []
    all_ok = True
    one = ctx.scalar()
    for name, lhs, rhs in relations:
        lhs, rhs = parse_operator_expr(lhs), parse_operator_expr(rhs)
        failures = []
        for m in mons:
            p = LaurentPoly(ctx.r, ctx.n, ctx.k, {m: one})
            if apply_operator_expr(ctx, lhs, p) != \
                    apply_operator_expr(ctx, rhs, p):
                failures.append(str(m))
        ok = not failures
        all_ok = all_ok and ok
        checks.append({"relation": name, "ok": ok, "failures": failures})
    return {"ok": all_ok, "checks": checks}
