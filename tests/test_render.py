"""The text writers of field and laurent against a reference.

The reference is the writers as they were before every power went
through field.power_text and every sum through field.signed_sum: each
module then wrote its own powers and joined its own signs.  Both must
give the same bytes, in plain text and in LaTeX.
"""

from __future__ import annotations

from hypothesis import given, strategies as st

from dahamac.field import (Scalar, _is_one, _unpack, p_neg, render_scalar,
                           scalar_from_json)
from dahamac.laurent import LaurentPoly, render_poly


# ---------------------------------------------------------------------------
# the reference writers


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


def ref_render_param_poly(p, k, latex=False):
    if not p:
        return "0"
    out = []
    for m in sorted(p, reverse=True):
        c = p[m]
        parts = _mon_text(_unpack(m, k), latex)
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


def ref_render_scalar(s, latex=False):
    num, den = s.num, s.den
    if den.get(0, 0) < 0:
        num, den = p_neg(num), p_neg(den)
    if _is_one(den):
        return ref_render_param_poly(num, s.k, latex)
    ntxt = ref_render_param_poly(num, s.k, latex)
    dtxt = ref_render_param_poly(den, s.k, latex)
    if latex:
        return f"\\frac{{{ntxt}}}{{{dtxt}}}"
    if len(num) > 1:
        ntxt = f"({ntxt})"
    if len(den) > 1 or "*" in dtxt or dtxt.startswith("-"):
        dtxt = f"({dtxt})"
    return f"{ntxt}/{dtxt}"


def _exp_txt(i, j, e, latex):
    if latex:
        v = f"x_{{{i},{j}}}"
        return v if e == 1 else f"{v}^{{{e}}}"
    v = f"x[{i},{j}]"
    return v if e == 1 else f"{v}^{e}"


def ref_render_term(p, m, c, latex=False):
    vs = []
    for idx, e in enumerate(m):
        if e:
            i, j = divmod(idx, p.n)
            vs.append(_exp_txt(i + 1, j + 1, e, latex))
    body = (" " if latex else "*").join(vs)
    if c.is_one() and vs:
        return body
    ctxt = ref_render_scalar(c, latex)
    if not c.is_monomial():
        if latex:
            if not ctxt.startswith("\\frac"):
                ctxt = f"\\left({ctxt}\\right)"
        else:
            ctxt = f"({ctxt})"
    if not vs:
        return ctxt
    return f"{ctxt}{' ' if latex else '*'}{body}"


def ref_render_poly(p, latex=False):
    if not p.terms:
        return "0"
    out = []
    for m in sorted(p.terms, reverse=True):
        term = ref_render_term(p, m, p.terms[m], latex)
        if not out:
            out.append(term)
        elif term.startswith("-"):
            out.append(" - " + term[1:])
        else:
            out.append(" + " + term)
    return "".join(out)


# ---------------------------------------------------------------------------
# inputs

# 1 and -1 are written without a coefficient, the others with one
_COEFFS = st.sampled_from([-3, -2, -1, 1, 2, 5])


@st.composite
def _param_poly(draw, k, min_terms, negative_constant=False):
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * (k + 1)), _COEFFS,
        min_size=min_terms, max_size=4))
    if negative_constant:
        terms[(0,) * (k + 1)] = -draw(st.integers(1, 3))
    return terms


@st.composite
def scalars(draw, k):
    """A reduced fraction whose numerator and denominator may have
    several terms, the denominator often a negative constant term."""
    num = draw(_param_poly(k, 1))
    den = draw(_param_poly(k, 1, draw(st.booleans())))

    def encode(p):
        return [[str(c), list(m)] for m, c in p.items()]

    return scalar_from_json({"num": encode(num), "den": encode(den)})


@st.composite
def scalars_any_k(draw):
    return draw(scalars(draw(st.integers(1, 3))))


@st.composite
def polys(draw):
    """r = 1..3 groups of 1..3 variables, exponents of either sign,
    coefficients monomial or not."""
    r = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    k = draw(st.integers(r, 3))
    exps = st.tuples(*[st.integers(-2, 2)] * (r * n))
    terms = draw(st.dictionaries(exps, scalars(k), max_size=4))
    one = Scalar.one(k)
    for m in draw(st.lists(exps, max_size=2)):
        terms[m] = draw(st.sampled_from([one, -one]))
    return LaurentPoly(r, n, k, terms)


# ---------------------------------------------------------------------------
# the writers against the reference


@given(scalars_any_k(), st.booleans())
def test_scalar_text_matches_the_reference(s, latex):
    assert render_scalar(s, latex) == ref_render_scalar(s, latex)


@given(polys(), st.booleans())
def test_poly_text_matches_the_reference(p, latex):
    assert render_poly(p, latex) == ref_render_poly(p, latex)


def test_a_negative_constant_denominator_matches_the_reference():
    # render_scalar flips both signs, so the denominator's text starts
    # with a minus
    s = scalar_from_json({"num": [["2", [1, 0]], ["-1", [0, 1]]],
                          "den": [["3", [0, 2]], ["-1", [0, 0]]]})
    assert s.den[0] < 0
    for latex in (False, True):
        assert render_scalar(s, latex) == ref_render_scalar(s, latex)
