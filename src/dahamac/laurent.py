"""Sparse Laurent polynomials in r groups of n variables x_{i,j}.

Terms are stored as a dict mapping flattened exponent tuples (row-major,
length r*n, row i = variable group i) to nonzero coefficients: Scalars,
or any values with +, unary -, * and truthiness (see rep).  The grading
is the r-vector of row sums.

swap_vars (the exponent swap s_j within a group) and xi (the divided
difference xi_j, per monomial by its closed geometric sum, so no
rational function in x appears) are not called by the program:
rep.apply_T does their work in one pass.  They are the reference that
tests/test_rep.py builds three_pass_apply_T from, and they stay here
because the benchmark's tracer (perfbench/tracing.py) names them
(ROADMAP item 14).
"""

from __future__ import annotations

import json

from .field import clear_denominators, integer, power_text, render_scalar, \
    scalar_from_json, scalar_to_json, signed_sum


class LaurentPoly:
    """Laurent polynomial with exact coefficients."""

    __slots__ = ("r", "n", "k", "terms")

    def __init__(self, r, n, k, terms=None):
        self.r = r
        self.n = n
        self.k = k
        self.terms = terms if terms is not None else {}

    @staticmethod
    def monomial(r, n, k, rows, coeff):
        """coeff * prod x_{i,j}^{rows[i-1][j-1]}."""
        flat = tuple(e for row in rows for e in row)
        if len(flat) != r * n:
            raise ValueError("exponent matrix shape mismatch")
        if not coeff:
            return LaurentPoly(r, n, k)
        return LaurentPoly(r, n, k, {flat: coeff})

    def _check(self, other):
        if (self.r, self.n, self.k) != (other.r, other.n, other.k):
            raise ValueError("polynomial shape mismatch")

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            if m in out:
                s = out[m] + c
                if s:
                    out[m] = s
                else:
                    del out[m]
            else:
                out[m] = c
        return LaurentPoly(self.r, self.n, self.k, out)

    def __neg__(self):
        return LaurentPoly(self.r, self.n, self.k,
                           {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        out = {}
        a, b = self.terms, other.terms
        if len(b) < len(a):
            a, b = b, a
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = tuple(x + y for x, y in zip(m1, m2))
                c = c1 * c2
                if m in out:
                    s = out[m] + c
                    if s:
                        out[m] = s
                    else:
                        del out[m]
                elif c:
                    out[m] = c
        return LaurentPoly(self.r, self.n, self.k, out)

    def smul(self, c):
        if not c:
            return LaurentPoly(self.r, self.n, self.k)
        return LaurentPoly(self.r, self.n, self.k,
                           {m: cc * c for m, cc in self.terms.items()})

    def mul_monomial(self, flat):
        """Multiply by the monomial with flat exponent tuple flat."""
        if len(flat) != self.r * self.n:
            raise ValueError("monomial exponent count mismatch")
        return LaurentPoly(self.r, self.n, self.k,
                           {tuple(x + y for x, y in zip(m, flat)): c
                            for m, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return ((self.r, self.n, self.k) == (other.r, other.n, other.k)
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.r, self.n, self.k,
                     frozenset((m, c) for m, c in self.terms.items())))

    def is_zero(self):
        return not self.terms

    def __repr__(self):
        return f"LaurentPoly({render_poly(self)})"


# ---------------------------------------------------------------------------
# spec operations


def swap_vars(p: LaurentPoly, i: int, j: int) -> LaurentPoly:
    """Swap exponents j, j+1 of row i in every term."""
    if not (1 <= i <= p.r and 1 <= j <= p.n - 1):
        raise IndexError("swap_vars index out of range")
    base = (i - 1) * p.n + (j - 1)
    out = {}
    for m, c in p.terms.items():
        mm = list(m)
        mm[base], mm[base + 1] = mm[base + 1], mm[base]
        out[tuple(mm)] = c
    return LaurentPoly(p.r, p.n, p.k, out)


def xi(p: LaurentPoly, i: int, j: int) -> LaurentPoly:
    """x_{i,j}(1 - s_j)/(x_{i,j} - x_{i,j+1}) applied term by term.

    For a monomial with row-i exponents (a, b) at positions (j, j+1):
    zero when a = b, otherwise a signed geometric sum whose exponent
    pairs run from (a, b) toward (b, a), staying inside the Laurent
    ring.
    """
    if not (1 <= i <= p.r and 1 <= j <= p.n - 1):
        raise IndexError("xi index out of range")
    base = (i - 1) * p.n + (j - 1)
    acc = {}

    def put(m, c):
        if m in acc:
            s = acc[m] + c
            if s:
                acc[m] = s
            else:
                del acc[m]
        else:
            acc[m] = c

    for m, c in p.terms.items():
        a, b = m[base], m[base + 1]
        if a == b:
            continue
        mm = list(m)
        if a > b:
            for step in range(a - b):
                mm[base], mm[base + 1] = a - step, b + step
                put(tuple(mm), c)
        else:
            nc = -c
            for step in range(b - a):
                mm[base], mm[base + 1] = b - step, a + step
                put(tuple(mm), nc)
    return LaurentPoly(p.r, p.n, p.k, acc)


def clear_poly_denominators(p: LaurentPoly):
    """(D, D * p) with D the lcm of p's coefficient denominators, so
    every coefficient of D * p has denominator 1."""
    norm, coeffs = clear_denominators(p.terms.values(), p.k)
    return norm, LaurentPoly(p.r, p.n, p.k, dict(zip(p.terms, coeffs)))


def multidegree(p: LaurentPoly):
    """The common degree vector (row sums); error if not homogeneous."""
    degs = None
    for m in p.terms:
        d = tuple(sum(m[i * p.n:(i + 1) * p.n]) for i in range(p.r))
        if degs is None:
            degs = d
        elif degs != d:
            raise ValueError("polynomial is not multihomogeneous")
    return degs if degs is not None else (0,) * p.r


def is_positive(p: LaurentPoly) -> bool:
    return all(e >= 0 for m in p.terms for e in m)


# ---------------------------------------------------------------------------
# rendering and serialization


def render_term(p, m, c, latex=False):
    sep, lp, rp = (" ", "\\left(", "\\right)") if latex else ("*", "(", ")")
    names = [f"x_{{{i},{j}}}" if latex else f"x[{i},{j}]"
             for i in range(1, p.r + 1) for j in range(1, p.n + 1)]
    vs = [power_text(name, e, latex) for name, e in zip(names, m) if e]
    body = sep.join(vs)
    if c.is_one() and vs:
        return body
    ctxt = render_scalar(c, latex)
    # \frac bodies are unambiguous already; bare sums are not
    if not (c.is_monomial() or ctxt.startswith("\\frac")):
        ctxt = lp + ctxt + rp
    return f"{ctxt}{sep}{body}" if vs else ctxt


def render_poly(p: LaurentPoly, latex=False) -> str:
    return signed_sum(render_term(p, m, p.terms[m], latex)
                      for m in sorted(p.terms, reverse=True))


def poly_to_json(p: LaurentPoly) -> dict:
    """The JSON form of p.  Each distinct coefficient object is rendered
    once, and the terms that hold it share that rendering: a symmetrised
    polynomial repeats its coefficient values, and rep.symmetrize_eps
    gives the terms of one value one object."""
    rendered = {}             # id of a coefficient -> its JSON form
    terms = []
    for m in sorted(p.terms):
        c = p.terms[m]
        coeff = rendered.get(id(c))
        if coeff is None:
            coeff = rendered[id(c)] = scalar_to_json(c)
        exp = [list(m[i * p.n:(i + 1) * p.n]) for i in range(p.r)]
        terms.append({"exp": exp, "coeff": coeff})
    return {"r": p.r, "n": p.n, "params": p.k, "terms": terms}


def poly_from_json(d) -> LaurentPoly:
    """Decode poly_to_json output; ValueError unless every term has r
    exponent rows of n integers, an exponent no other term has and a
    nonzero coefficient in params parameters."""
    r, n, k = integer(d["r"]), integer(d["n"]), integer(d["params"])
    terms = {}
    for item in d["terms"]:
        rows = item["exp"]
        if len(rows) != r or any(len(row) != n for row in rows):
            raise ValueError(f"exponent rows must be {r} rows of {n}")
        c = scalar_from_json(item["coeff"])
        if c.is_zero() or c.k != k:
            raise ValueError(f"coefficients must be nonzero, in {k} "
                             "q-parameters")
        m = tuple(integer(e) for row in rows for e in row)
        if m in terms:
            raise ValueError(f"polynomial JSON repeats the exponent {m}")
        terms[m] = c
    return LaurentPoly(r, n, k, terms)


def poly_dumps(p: LaurentPoly) -> str:
    return json.dumps(poly_to_json(p), sort_keys=True)
