"""Coefficient field: reduction, arithmetic, rendering, JSON.

Property tests run every identity through two independent routes:
symbolic arithmetic on reduced fractions and plain Fraction arithmetic
after substituting rational values for t and the q parameters.
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, strategies as st

from dahamac import field
from dahamac.field import (
    MAX_EXP,
    Scalar,
    render_scalar,
    scalar_from_json,
    scalar_to_json,
)

K = 2
T = Scalar.t(K)
Q1 = Scalar.q(1, K)
Q2 = Scalar.q(2, K)
ONE = Scalar.one(K)
ZERO = Scalar.zero(K)


@st.composite
def scalars(draw, allow_zero=True):
    def poly(min_terms):
        s = Scalar.zero(K)
        for _ in range(draw(st.integers(min_terms, 3))):
            coeff = draw(st.integers(-4, 4))
            e_t = draw(st.integers(-2, 2))
            qexps = {}
            for i in (1, 2):
                e = draw(st.integers(-2, 2))
                if e:
                    qexps[i] = e
            s = s + Scalar.param_monomial(K, e_t, qexps, coeff)
        return s

    num = poly(0 if allow_zero else 1)
    den = poly(1)
    assume(not den.is_zero())
    if not allow_zero:
        assume(not num.is_zero())
    return num / den


_PARAM_POLYS = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 2)),
    st.integers(-5, 5).filter(bool), min_size=1, max_size=4)


def _packed(p):
    return {field._pack(m): c for m, c in p.items()}


points = st.tuples(
    st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=7),
    st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=7),
    st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=7),
).filter(lambda p: all(v != 0 for v in p))


def ev(s, pt):
    try:
        return s.evaluate(pt[0], [pt[1], pt[2]])
    except ZeroDivisionError:
        assume(False)


# ---------------------------------------------------------------------------
# frozen literals


def test_reduction_cancels_linear_factor():
    assert (ONE - T**2) / (ONE - T) == ONE + T
    assert repr((ONE - T**2) / (ONE - T)) == "Scalar(t + 1)"


def test_reduction_cancels_mixed_factor():
    assert render_scalar((T**2 - Q1**2) / (T - Q1)) == "t + q1"


def test_monomial_rendering():
    s = Scalar.param_monomial(K, -1, {1: 2, 2: -3}, 5)
    assert render_scalar(s) == "5*q1^2/(t*q2^3)"
    s = Scalar.param_monomial(K, 1, {1: -2}, -2)
    assert render_scalar(s) == "-2*t/q1^2"


def test_negative_power():
    assert repr(Scalar.t(2, 3) ** -2) == "Scalar(1/t^6)"
    assert Scalar.t(2, 3) ** -2 == Scalar.t(2, -6)


def test_latex_rendering():
    assert render_scalar(T, latex=True) == "t"
    assert render_scalar(Q1 / (ONE - Q2), latex=True) == "\\frac{q_{1}}{-q_{2} + 1}"


def test_denominator_product_is_parenthesized():
    # x/y*z reads as (x/y)*z, so the denominator needs the parens
    s = (ONE - T) / (Q1 * Q2 - T * Q2)
    assert render_scalar(s) == "(t - 1)/(t*q2 - q1*q2)"


def test_zero_inverse_rejected():
    with pytest.raises(ZeroDivisionError):
        ZERO.inv()


def test_integer_constructor():
    assert render_scalar(Scalar.integer(7, K)) == "7"
    assert Scalar.integer(0, K) == ZERO
    assert Scalar.integer(1, K).is_one()


def test_session_size_mismatch_rejected():
    with pytest.raises(ValueError):
        Scalar.t(1) + Scalar.t(2)


def test_evaluate_literal():
    s = (ONE - T) / (ONE - Q1 * T)
    assert s.evaluate(Fraction(1, 2), [Fraction(3), Fraction(5)]) == Fraction(-1)


def test_equal_scalars_hash_equal():
    a = (ONE - T**2) / (ONE - T)
    b = ONE + T
    assert a == b and hash(a) == hash(b)


def test_equality_reads_the_parameter_count():
    # t with one parameter and q_1 with two have the same packed key
    a, b = Scalar.t(1), Scalar.q(1, 2)
    assert a != b and len({a, b}) == 2


@given(st.integers(-6, 6), st.integers(-3, 3),
       st.dictionaries(st.integers(1, K), st.integers(-3, 3)))
def test_param_monomial_is_canonical(coeff, e_t, qexps):
    a = Scalar.param_monomial(K, e_t, qexps, coeff)
    assert a.den[max(a.den)] > 0
    # the same value through arithmetic, which normalises every result
    b = Scalar.integer(coeff, K) * Scalar.t(K, e_t)
    for i, e in qexps.items():
        b = b * Scalar.q(i, K, e)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("qexps", [{0: 1}, {3: 1}, {3: 0}, {1: 1, 5: -2}])
def test_param_monomial_rejects_q_outside_session(qexps):
    bad = next(i for i in qexps if not 1 <= i <= K)
    with pytest.raises(ValueError,
                       match=f"^q_{bad} outside session with {K} parameters$"):
        Scalar.param_monomial(K, 0, qexps)


# ---------------------------------------------------------------------------
# properties, each checked against Fraction semantics


@given(scalars(), scalars(), points)
def test_addition_matches_fractions(a, b, pt):
    assert ev(a + b, pt) == ev(a, pt) + ev(b, pt)


@given(scalars(), scalars(), points)
def test_product_matches_fractions(a, b, pt):
    assert ev(a * b, pt) == ev(a, pt) * ev(b, pt)


@given(scalars(), scalars(), scalars(), points)
def test_distributivity(a, b, c, pt):
    lhs = a * (b + c)
    rhs = a * b + a * c
    assert lhs == rhs
    assert ev(lhs, pt) == ev(a, pt) * (ev(b, pt) + ev(c, pt))


@given(st.lists(scalars(), min_size=1, max_size=4))
def test_clear_denominators_is_the_lcm(cs):
    d, out = field.clear_denominators(cs, K)
    assert d.den == {0: 1} and all(c.den == {0: 1} for c in out)
    assert all(o == c * d for c, o in zip(cs, out))
    # D is the least common multiple: the cofactors D / den share no
    # factor, not even an integer one
    common = {}
    for c in cs:
        cofactor = d / Scalar(c.den, {0: 1}, K)
        assert cofactor.den == {0: 1}
        common = field.p_gcd(common, cofactor.num)[0]
    assert common == {0: 1}


@given(scalars(allow_zero=False))
def test_inverse_roundtrip(a):
    assert a * a.inv() == ONE
    assert a.inv().inv() == a


@given(scalars(), scalars(allow_zero=False), scalars(allow_zero=False))
def test_reduction_invariance(a, b, c):
    # multiplying numerator and denominator by c must not change the value
    assert (a * c) / (b * c) == a / b


@given(scalars(allow_zero=False), st.integers(-3, 3))
def test_pow_matches_repeated_product(a, e):
    expected = ONE
    base = a if e >= 0 else a.inv()
    for _ in range(abs(e)):
        expected = expected * base
    assert a**e == expected


@given(scalars())
def test_subtraction_of_self_is_zero(a):
    assert (a - a).is_zero()
    assert a + (-a) == ZERO


@given(scalars())
def test_json_roundtrip(a):
    assert scalar_from_json(scalar_to_json(a)) == a


def assert_canonical(s):
    """gcd(num, den) is 1, den's lex-leading coefficient is positive,
    and zero is 0/1."""
    assert field.p_gcd(s.num, s.den)[0] == {0: 1}
    assert s.den[max(s.den)] > 0
    assert s.num or s.den == {0: 1}


@given(scalars(), scalars(), scalars(allow_zero=False),
       st.integers(-3, 3), _PARAM_POLYS)
def test_every_result_is_canonical(a, b, c, e, common):
    d, cleared = field.clear_denominators([a, b, c], K)
    # the JSON of a with num and den both multiplied by common
    common = _packed(common)
    blown_up = {"num": field._poly_to_json(field.p_mul(a.num, common), K),
                "den": field._poly_to_json(field.p_mul(a.den, common), K)}
    decoded = scalar_from_json(blown_up)
    assert decoded == a
    for s in (a + b, a - b, a * b, a / c, c.inv(), c ** e, d, *cleared,
              decoded):
        assert_canonical(s)


def test_json_decoding_reduces_to_canonical_form():
    two = [["2", [0, 0, 0]]]
    s = scalar_from_json({"num": two, "den": two})
    assert s == ONE and hash(s) == hash(ONE)
    assert (s.num, s.den) == (ONE.num, ONE.den)


@pytest.mark.parametrize("bad", [
    {"num": [["1", [0, 0, 0]]], "den": []},
    {"num": [["0", [0, 0, 0]]], "den": [["1", [0, 0, 0]]]},
    {"num": [["1", [0, 0]]], "den": [["1", [0, 0, 0]]]},
    {"num": [["1", [0, -1, 0]]], "den": [["1", [0, 0, 0]]]},
    {"num": [["1", [0, 0, MAX_EXP + 1]]], "den": [["1", [0, 0, 0]]]},
])
def test_json_decoding_rejects_malformed_scalars(bad):
    with pytest.raises(ValueError):
        scalar_from_json(bad)


# ---------------------------------------------------------------------------
# exponent range


@pytest.mark.parametrize("make", [
    lambda e: Scalar.t(K, e),
    lambda e: Scalar.q(1, K, e),
    lambda e: Scalar.q(2, K, -e),
], ids=["t", "q1", "q2-denominator"])
def test_exponents_up_to_the_limit_are_exact(make):
    low = MAX_EXP // 2
    assert make(low) * make(MAX_EXP - low) == make(MAX_EXP)
    with pytest.raises(ValueError):
        make(MAX_EXP + 1)
    # a product past the limit raises instead of wrapping into the next field
    with pytest.raises(ValueError):
        make(low + 1) * make(low + 1)


def test_exponent_limit_survives_json():
    s = Scalar.param_monomial(K, MAX_EXP, {2: -MAX_EXP}, 3)
    assert scalar_to_json(s) == {"num": [["3", [MAX_EXP, 0, 0]]],
                                 "den": [["1", [0, 0, MAX_EXP]]]}
    assert scalar_from_json(scalar_to_json(s)) == s


# ---------------------------------------------------------------------------
# the gcd kernel against SymPy


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def _check_gcd_triple(sympy, f, g, triple=None):
    h, f_h, g_h = triple or field.p_gcd(f, g)
    assert field.p_mul(h, f_h) == f
    assert field.p_mul(h, g_h) == g
    gens = sympy.symbols("t q1 q2")

    def to_sympy(p):
        return sympy.Poly.from_dict(
            {field._unpack(m, K): c for m, c in p.items()}, *gens)

    expected = to_sympy(f).gcd(to_sympy(g))
    assert to_sympy(h) in (expected, -expected)


@given(_PARAM_POLYS, _PARAM_POLYS, _PARAM_POLYS)
def test_gcd_matches_sympy(sympy, a, b, common):
    common = _packed(common)
    _check_gcd_triple(sympy, field.p_mul(_packed(a), common),
                      field.p_mul(_packed(b), common))


@given(_PARAM_POLYS, _PARAM_POLYS, st.integers(-6, 6).filter(bool))
def test_gcd_of_a_planted_divisor_matches_sympy(sympy, f, h, c):
    """g = f h in both argument orders, f with an integer content c of
    either sign, so the shorter operand often divides the longer."""
    f = field.p_iscale(_packed(f), c)
    g = field.p_mul(f, _packed(h))
    _check_gcd_triple(sympy, f, g)
    _check_gcd_triple(sympy, g, f)


def test_gcd_when_the_shorter_operand_is_the_multiple(sympy):
    # 1 - t^3 = (1 - t)(1 + t + t^2): the two-term operand is the multiple
    f = _packed({(0, 0, 0): 1, (3, 0, 0): -1})
    g = _packed({(0, 0, 0): 1, (1, 0, 0): 1, (2, 0, 0): 1})
    _check_gcd_triple(sympy, f, g)
    _check_gcd_triple(sympy, g, f)


def _unreachable(*args):
    raise AssertionError("unreachable")


def test_a_dividing_operand_needs_no_heuristic_gcd(monkeypatch):
    monkeypatch.setattr(field, "_heu", _unreachable)
    h = _packed({(0, 0, 0): 1, (1, 0, 1): 1})         # 1 + t q2
    for f in (_packed({(1, 0, 0): -6, (0, 1, 0): 12}),    # -6 t + 12 q1
              _packed({(1, 0, 0): -6, (0, 1, 0): 12, (0, 0, 2): 6})):
        g = field.p_mul(f, h)
        assert field.p_gcd(g, f) == (field.p_neg(f), field.p_neg(h),
                                     {0: -1})
        assert field.p_gcd(f, g) == (field.p_neg(f), {0: -1},
                                     field.p_neg(h))
    # the longer operand divides the shorter: 1 - t^3 = (1 - t)(1 + t + t^2),
    # a binomial of direction (3, 0, 0), which is not primitive
    f = _packed({(0, 0, 0): 1, (3, 0, 0): -1})
    g = _packed({(0, 0, 0): 1, (1, 0, 0): 1, (2, 0, 0): 1})
    one_minus_t = _packed({(0, 0, 0): 1, (1, 0, 0): -1})
    assert field.p_gcd(f, g) == (g, one_minus_t, {0: 1})
    assert field.p_gcd(g, f) == (g, {0: 1}, one_minus_t)


@st.composite
def binomials(draw):
    """a1 x^(m + u) + a2 x^(m + w), u and w sharing no variable: signs,
    integer and monomial content, a direction e = u - w in t only, the
    q's only or both, primitive or not, and |a1| != |a2| all occur."""
    support = draw(st.sampled_from([(0,), (1, 2), (0, 1, 2)]))
    e = [0, 0, 0]
    for v in support:
        e[v] = draw(st.integers(-3, 3))
    assume(any(e))
    m = draw(st.tuples(*[st.integers(0, 2)] * 3))
    u = tuple(a + max(x, 0) for a, x in zip(m, e))
    w = tuple(a + max(-x, 0) for a, x in zip(m, e))
    nonzero = st.integers(-6, 6).filter(bool)
    return _packed({u: draw(nonzero), w: draw(nonzero)})


def _is_primitive(b):
    (m1, _), (m2, _) = b.items()
    e1, e2 = field._unpack(m1, K), field._unpack(m2, K)
    return gcd(*(x - y for x, y in zip(e1, e2))) == 1


@given(binomials(), _PARAM_POLYS, st.integers(0, 2))
def test_gcd_with_a_binomial_matches_sympy(sympy, b, other, planted):
    """b against other * b^planted, in both orders; a primitive
    direction never reaches the heuristic gcd."""
    f = _packed(other)
    for _ in range(planted):
        f = field.p_mul(f, b)
    with pytest.MonkeyPatch.context() as mp:
        if _is_primitive(b):
            mp.setattr(field, "_heu", _unreachable)
        _check_gcd_triple(sympy, b, f)
        _check_gcd_triple(sympy, f, b)


def test_binomial_gcd_near_the_exponent_limit(monkeypatch):
    """Past 2^15 the binomial's class keys are tuples: the packed key
    a - k e of t^MAX_EXP q2^2 modulo t - q2^2 would be 2^32, the packed
    key of q1, and the two terms would cancel in one class."""
    monkeypatch.setattr(field, "_heu", _unreachable)
    b = _packed({(1, 0, 0): 1, (0, 0, 2): -1})                 # t - q2^2
    f = _packed({(MAX_EXP, 0, 2): 1, (0, 1, 0): -1})
    with pytest.MonkeyPatch.context() as mp:
        # a pair that does not divide is settled by the class pass alone
        mp.setattr(field, "p_exact_div", _unreachable)
        assert field.p_gcd(b, f) == ({0: 1}, b, f)
        assert field.p_gcd(f, b) == ({0: 1}, f, b)
    cofactor = _packed({(MAX_EXP - 1, 0, 0): 1, (0, 1, 0): -1})
    g = field.p_mul(b, cofactor)
    assert field.p_gcd(b, g) == (b, {0: 1}, cofactor)
    assert field.p_gcd(g, b) == (b, cofactor, {0: 1})


def _json_poly(p):
    return [[str(c), list(m)] for m, c in p.items()]


def test_gcd_with_a_high_power_non_divisor_is_fast(sympy):
    """The trial division of t^1000 q2^2 - q1 + 1 by 1 + t + q2 stops at
    the first quotient term past the dividend's exponents, instead of
    running ~1000 steps over a growing remainder."""
    num = {(1000, 0, 2): 1, (0, 1, 0): -1, (0, 0, 0): 1}
    den = {(0, 0, 0): 1, (1, 0, 0): 1, (0, 0, 1): 1}
    t0 = time.perf_counter()
    s = scalar_from_json({"num": _json_poly(num), "den": _json_poly(den)})
    assert time.perf_counter() - t0 < 2.0
    assert (s.num, s.den) == (_packed(num), _packed(den))
    _check_gcd_triple(sympy, _packed(num), _packed(den))


def test_gcd_of_a_high_degree_common_factor_is_found(sympy):
    """(t^20000 + q2 + 2 q1)(t + 1) and (t^20000 + q2 + 2 q1)(2t - 3 q2^2):
    the t-image is ~120,000 bits and the q2-image ~360,000, past the
    2^18-bit cap on one image that refused this gcd, inside the bound on
    the work of the whole gcd."""
    common = _packed({(20000, 0, 0): 1, (0, 0, 1): 1, (0, 1, 0): 2})
    a = _packed({(1, 0, 0): 1, (0, 0, 0): 1})
    b = _packed({(1, 0, 0): 2, (0, 0, 2): -3})
    f, g = field.p_mul(common, a), field.p_mul(common, b)
    t0 = time.perf_counter()
    triple = field.p_gcd(f, g)
    assert time.perf_counter() - t0 < 2.0
    assert triple[1:] == (a, b)
    _check_gcd_triple(sympy, f, g, triple)


def test_gcd_refuses_an_image_past_its_size_limit():
    """t^(2^31 - 1) would be evaluated at a point near 2^5, an image of
    ~10^10 bits."""
    num = {(MAX_EXP, 0, 2): 1, (0, 1, 0): -1, (0, 0, 0): 1}
    den = {(1, 0, 0): 2, (0, 0, 2): -3}
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="gcd image past"):
        scalar_from_json({"num": _json_poly(num), "den": _json_poly(den)})
    assert time.perf_counter() - t0 < 2.0


@given(_PARAM_POLYS, _PARAM_POLYS, _PARAM_POLYS)
def test_gcd_fallback_matches_sympy(sympy, a, b, common):
    def heuristic_fails(*args):
        raise field._HeuFail

    common = _packed(common)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(field, "_heu", heuristic_fails)
        _check_gcd_triple(sympy, field.p_mul(_packed(a), common),
                          field.p_mul(_packed(b), common))


# ---------------------------------------------------------------------------
# Kronecker-packed integers


@given(scalars())
def test_truthiness_is_nonzeroness(a):
    assert bool(a) == (not a.is_zero())


def _integral(p):
    """The Scalar whose numerator has the terms of p, keyed by exponent
    triples, over denominator 1."""
    out = ZERO
    for (e_t, e1, e2), c in p.items():
        out = out + Scalar.param_monomial(K, e_t, {1: e1, 2: e2}, c)
    return out


@given(_PARAM_POLYS, _PARAM_POLYS)
def test_packing_is_one_to_one_within_its_bound(f, g):
    # with growth 1 and the weight 1, the ring's bound covers f - g
    f, g = _integral(f), _integral(g)
    ring = field.KroneckerRing(K, [f, g], growth=1, t_rise=0,
                               weights=[ONE])
    assert (ring.pack(f) == ring.pack(g)) == (f == g)
    assert ring.pack(f) - ring.pack(g) == ring.pack(f - g)


def test_packed_actions():
    ring = field.KroneckerRing(K, [T * Q1], growth=1, t_rise=0,
                               weights=[ONE])
    tq = ring.pack(T * Q1)
    assert tq * ring.monomial(q={1: -1}) == ring.pack(T)
    assert tq * ring.monomial(2, t=-1) == ring.pack(Q1 + Q1)
    assert tq * ring.monomial(-1, t=1, q={2: 2}) == \
        ring.pack(-(T * T * Q1 * Q2 * Q2))
    assert ring.pack(T) * ring.one_minus_t == ring.pack(T - T * T)
    # a one-term num or den acts by a shift, a longer one is its packing
    num, den = ring.fraction((ONE + T) / Q2)
    assert num == ring.pack(ONE + T) and 1 * den == ring.pack(Q2)


def test_packed_division_is_exact_or_refused():
    ring = field.KroneckerRing(K, [T * Q1], growth=1, t_rise=0,
                               weights=[ONE])
    with pytest.raises(ArithmeticError):
        ring.pack(T) * ring.monomial(q={1: -1})
    with pytest.raises(ArithmeticError):
        1 * ring.monomial(t=-1)
    with pytest.raises(ArithmeticError):
        -ring.pack(T * Q1 + ONE) * ring.monomial(q={1: -1})
    with pytest.raises(ValueError, match="q_3 outside session"):
        ring.monomial(q={3: 1})
    with pytest.raises(ValueError, match="integral"):
        ring.pack(ONE / (ONE - T))
