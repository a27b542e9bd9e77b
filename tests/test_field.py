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


def test_json_decoding_takes_time_linear_in_the_exponent_length():
    # one shift-or per field copies the growing packed int every time:
    # decoding this coefficient took 1.95 s that way
    length = 64001
    t0 = time.perf_counter()
    s = scalar_from_json({"num": [["1", [1] + [0] * (length - 1)]],
                          "den": [["1", [0] * length]]})
    assert time.perf_counter() - t0 < 0.5
    assert s == Scalar.t(length - 1)


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


one_terms = st.builds(
    lambda e, c: _packed({e: c}),
    st.tuples(*[st.integers(0, 3)] * 3), st.integers(-6, 6).filter(bool))


@given(binomials(), _PARAM_POLYS, st.integers(0, 2), one_terms)
def test_gcd_with_a_binomial_matches_sympy(sympy, b, other, planted, one):
    """b against other * b^planted, and a one-term operand (signed
    content times a monomial) against both, in both orders; a primitive
    direction and a single term never reach the heuristic gcd."""
    f = _packed(other)
    for _ in range(planted):
        f = field.p_mul(f, b)
    with pytest.MonkeyPatch.context() as mp:
        if _is_primitive(b):
            mp.setattr(field, "_heu", _unreachable)
        _check_gcd_triple(sympy, b, f)
        _check_gcd_triple(sympy, f, b)
        mp.setattr(field, "_heu", _unreachable)
        for g in (f, b):
            _check_gcd_triple(sympy, one, g)
            _check_gcd_triple(sympy, g, one)


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
    ~10^10 bits; the three-term denominator 2t - 3 q2^2 + q1 is no
    known factor, so the heuristic gcd is reached."""
    num = {(MAX_EXP, 0, 2): 1, (0, 1, 0): -1, (0, 0, 0): 1}
    den = {(1, 0, 0): 2, (0, 0, 2): -3, (0, 1, 0): 1}
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="gcd image past"):
        scalar_from_json({"num": _json_poly(num), "den": _json_poly(den)})
    assert time.perf_counter() - t0 < 2.0


def test_gcd_with_a_split_binomial_past_the_class_keys_is_exact():
    """2t - 3 q2^2 is a linear factor, so trial division decides it
    against t^(2^31 - 1) q2^2 - q1 + 1: the class pass cannot (a wide,
    non-unit class sum), and the heuristic gcd's image would be past its
    work bound."""
    num = {(MAX_EXP, 0, 2): 1, (0, 1, 0): -1, (0, 0, 0): 1}
    den = {(1, 0, 0): 2, (0, 0, 2): -3}
    t0 = time.perf_counter()
    s = scalar_from_json({"num": _json_poly(num), "den": _json_poly(den)})
    assert time.perf_counter() - t0 < 2.0
    assert (s.num, s.den) == (_packed(num), _packed(den))
    assert s.fac == (1, 0, {field._split_binomial(_packed(den))[2][0]: 1})


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


# ---------------------------------------------------------------------------
# factored denominators, with the gcd path as the reference

# den pieces: primitive binomials (unit and not), unit binomials of
# non-primitive direction u^g +- w^g, and 4t^2 - 1, which is not split
_PIECES = [
    {(0, 0, 0): 1, (1, 1, 0): -1},        # 1 - t q1
    {(1, 0, 0): 2, (0, 0, 1): -3},        # 2t - 3 q2
    {(1, 0, 0): 1, (0, 0, 2): 1},         # t + q2^2
    {(0, 0, 0): 1, (2, 0, 0): -1},        # 1 - t^2
    {(2, 2, 0): 1, (0, 0, 0): 1},         # (t q1)^2 + 1
    {(3, 0, 0): 1, (0, 0, 3): -1},        # t^3 - q2^3
    {(0, 0, 0): 1, (6, 0, 0): 1},         # 1 + t^6
    {(0, 0, 0): -1, (4, 0, 2): 1},        # t^4 q2^2 - 1
    {(2, 0, 0): 4, (0, 0, 0): -1},        # 4t^2 - 1
]
_UNSPLIT = 8


def _plain(s):
    """s without its factorization, so that every operation on it takes
    the gcd path."""
    out = Scalar(s.num, s.den, s.k)
    out.fac = None
    return out


def _check_factorization(s):
    """den is the expansion of the factorization: c > 0 times the
    monomial times each factor to its exponent, every factor primitive
    with a positive lex-leading coefficient."""
    if s.fac is None:
        return
    c, m, fs = s.fac
    assert c > 0 and all(e > 0 for e in fs.values())
    assert field._product(c, m, fs) == s.den
    for fid in fs:
        f = field._FACTORS[fid]
        assert f[max(f)] > 0 and field.p_icontent(f) == 1


@st.composite
def factored_scalars(draw, allow_zero=True):
    """num * (product of pieces) / (monomial * product of pieces), built
    through Scalar arithmetic from one- and two-term denominators."""
    pieces = st.lists(st.tuples(st.integers(0, len(_PIECES) - 1),
                                st.integers(1, 2)), max_size=3)
    num = _packed(draw(_PARAM_POLYS))
    if allow_zero and draw(st.booleans()):
        num = {}
    for i, e in draw(pieces):
        for _ in range(e):
            num = field.p_mul(num, _packed(_PIECES[i]))
    s = Scalar(num, {0: 1}, K)
    for i, e in draw(pieces.filter(bool)):
        piece = Scalar(_packed(_PIECES[i]), {0: 1}, K).inv()
        s = s * piece ** e
    mono = Scalar.param_monomial(K, draw(st.integers(0, 2)),
                                 {1: draw(st.integers(0, 2)),
                                  2: draw(st.integers(0, 2))},
                                 draw(st.integers(1, 6)))
    s = s / mono
    _check_factorization(s)
    return s


@given(factored_scalars(), factored_scalars(allow_zero=False))
def test_factored_arithmetic_matches_the_gcd_path(a, b):
    pa, pb = _plain(a), _plain(b)
    for got, want in ((a + b, pa + pb), (a - b, pa - pb), (a * b, pa * pb),
                      (a / b, pa / pb), (b.inv(), pb.inv())):
        assert got == want
        assert_canonical(got)
        _check_factorization(got)
    # the sum of a - b and b is a again, over a's smaller denominator,
    # so it must cancel factors that both terms have
    back = (a - b) + b
    assert back == a
    _check_factorization(back)


@given(st.lists(factored_scalars(), min_size=1, max_size=3))
def test_factored_clear_denominators_matches_the_gcd_path(cs):
    # the square of the first scalar shares its factors to a higher
    # exponent; the lcm must take the higher one in either order
    cs = cs + [cs[0] * cs[0]]
    for order in (cs, cs[::-1]):
        d, out = field.clear_denominators(order, K)
        want_d, want = field.clear_denominators([_plain(c) for c in order],
                                                K)
        assert d == want_d and out == want


def test_factored_operands_take_the_factored_path(monkeypatch):
    """A sum and a product of scalars whose denominators are products
    of split binomials call no general gcd."""
    a = (T + Q1) / (ONE - T) / (ONE - T * T * Q2 * Q2)
    b = Q2 / (ONE + T * T * T)
    assert a.fac and a.fac[2] and b.fac and b.fac[2]
    pa, pb = _plain(a), _plain(b)
    want = [pa + pb, pa * pb, pa - pa, field.clear_denominators([pa, pb], K)]
    monkeypatch.setattr(field, "p_gcd", _unreachable)
    assert [a + b, a * b, a - a, field.clear_denominators([a, b], K)] == want


def test_a_non_unit_binomial_of_non_primitive_direction_is_not_split():
    s = Scalar(_packed(_PIECES[_UNSPLIT]), {0: 1}, K).inv()
    assert s.fac is None
    assert field._split_binomial(_packed(_PIECES[_UNSPLIT])) is None
    # 1 - t^2 splits into 1 - t and 1 + t, (t q1)^2 + 1 stays whole
    assert len(Scalar(_packed(_PIECES[3]), {0: 1}, K).inv().fac[2]) == 2
    assert len(Scalar(_packed(_PIECES[4]), {0: 1}, K).inv().fac[2]) == 1


def test_cyclotomic_table_matches_sympy(sympy):
    x = sympy.Symbol("x")
    for d in range(1, 31):
        want = sympy.Poly(sympy.cyclotomic_poly(d, x), x).all_coeffs()[::-1]
        assert field.cyclotomic(d) == [int(c) for c in want], d


def test_exponents_past_the_limit_raise_through_factored_arithmetic():
    """The lcm's cofactor t raises t^MAX_EXP past the limit in a sum,
    and q2^low times q2^(low + 2) in a product, denominators and
    numerators alike."""
    low = MAX_EXP // 2
    a = Scalar.t(K, MAX_EXP) / (ONE - Q1)
    b = ONE / (T * (ONE + Q1))
    assert a.fac[2] and b.fac[2]
    with pytest.raises(ValueError):
        a + b
    c = ONE / (Scalar.q(2, K, low) * (ONE - T * Q1))
    d = ONE / (Scalar.q(2, K, low + 2) * (ONE + T * Q1))
    assert c.fac[2] and d.fac[2]
    with pytest.raises(ValueError):
        c * d
    with pytest.raises(ValueError):
        c.inv() * d.inv()


def test_a_binomial_in_many_variables_is_factored_quickly():
    """1 - t q1 ... q40 at k = 40, as a Scalar and from JSON, and a
    product and a sum that reduce against it: the factored path costs
    time linear in the terms, not in the subsets of the variables."""
    k = 40
    one = Scalar.one(k)
    m = Scalar.param_monomial(k, 1, dict.fromkeys(range(1, k + 1), 1))
    zero, ones = [0] * (k + 1), [1] * (k + 1)
    t0 = time.perf_counter()
    s = (one - m).inv()
    j = scalar_from_json({"num": [["1", zero]],
                          "den": [["1", zero], ["-1", ones]]})
    assert j == s and s.fac and s.fac[2]
    assert s * (one - m * m) == one + m
    other = (one + Scalar.q(1, k)).inv()
    assert (s + other) - other == s
    assert time.perf_counter() - t0 < 2.0


@st.composite
def cyclotomic_binomials(draw):
    """+-c m (u^g +- w^g) with g in 2..6, u and w sharing no variable,
    and a product of some of its cyclotomic factors."""
    g = draw(st.integers(2, 6))
    support = draw(st.sampled_from([(0,), (1, 2), (0, 2)]))
    e = [0, 0, 0]
    for v in support:
        e[v] = draw(st.sampled_from([-2, -1, 1, 2]))
    assume(gcd(*e) == 1)
    m = draw(st.tuples(*[st.integers(0, 2)] * 3))
    u = tuple(a + g * max(x, 0) for a, x in zip(m, e))
    w = tuple(a + g * max(-x, 0) for a, x in zip(m, e))
    c = draw(st.sampled_from([1, -1, 2, -3]))
    b = _packed({u: c, w: c * draw(st.sampled_from([1, -1]))})
    _, _, fids = field._split_binomial(b)
    part = {0: 1}
    for fid in fids:
        if draw(st.booleans()):
            part = field.p_mul(part, field._FACTORS[fid])
    return b, part


@given(cyclotomic_binomials(), _PARAM_POLYS)
def test_gcd_with_a_cyclotomic_binomial_matches_sympy(sympy, case, other):
    """u^g +- w^g against other times some of its cyclotomic factors,
    in both orders, decided without the heuristic gcd."""
    b, part = case
    f = field.p_mul(_packed(other), part)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(field, "_heu", _unreachable)
        _check_gcd_triple(sympy, b, f)
        _check_gcd_triple(sympy, f, b)


# ---------------------------------------------------------------------------
# one column of a triangular system (solve_column), with Scalar arithmetic
# as the reference


def column_reference(values, column, shifts, diagonal):
    """solve_column by Scalar arithmetic: each equation's sum of
    values[l] * c, the division by the first nonzero gap, and the test
    of every equation."""
    sums = [sum((values[l] * c for l, c in eq if l in values), ZERO)
            for eq in column]
    s = next(i for i, (a, d) in enumerate(zip(shifts, diagonal)) if a != d)
    x = sums[s] / (shifts[s] - diagonal[s])
    ok = all((y + x * (d - a)).is_zero()
             for y, a, d in zip(sums, shifts, diagonal))
    return x if ok else None


def _check_column(values, column, shifts, diagonal):
    want = column_reference(values, column, shifts, diagonal)
    got = field.solve_column(values, column, shifts, diagonal, ZERO)
    assert got == want
    if got is not None:
        assert_canonical(got)
        _check_factorization(got)
    return got


def column_sum(pairs):
    """The sum of a * b over pairs, as the solution of the one equation
    sum + x (0 - 1) = 0."""
    values = dict(enumerate(a for a, _ in pairs))
    return field.solve_column(values, [list(enumerate(b for _, b in pairs))],
                              [ONE], [ZERO], ZERO)


def column_sum_is_zero(pairs):
    """Whether the sum of a * b over pairs is zero, as the check of an
    equation whose gap is zero beside one solved to zero."""
    values = dict(enumerate(a for a, _ in pairs))
    column = [[], list(enumerate(b for _, b in pairs))]
    return field.solve_column(values, column, [ONE, ONE], [ZERO, ONE],
                              ZERO) is not None


def _check_sum_of_products(pairs):
    want = sum((a * b for a, b in pairs), ZERO)
    got = column_sum(pairs)
    assert got == want
    assert_canonical(got)
    _check_factorization(got)
    assert column_sum_is_zero(pairs) == want.is_zero()


pairs_of = st.lists(st.tuples(scalars(), scalars()), max_size=4)
factored_pairs = st.lists(st.tuples(factored_scalars(), factored_scalars()),
                          max_size=4)


@given(st.one_of(pairs_of, factored_pairs))
def test_sum_of_products_is_the_sum_of_the_products(pairs):
    _check_sum_of_products(pairs)


@given(st.one_of(pairs_of, factored_pairs), st.integers(0, 4))
def test_sum_of_products_cancelling_exactly_is_zero(pairs, at):
    # x y beside -x y for every pair, the negated ones spliced in at
    # a drawn place
    negated = [(-a, b) for a, b in pairs]
    pairs = pairs[:at] + negated + pairs[at:]
    assert column_sum(pairs) == ZERO
    assert column_sum_is_zero(pairs)


def test_sum_of_products_cancels_across_products():
    # a product's numerator meets the other side's denominator: the
    # unreduced product (1 - t) q1 / (1 - t) shares 1 - t with the lcm
    x = Q1 / (ONE - T)
    _check_sum_of_products([(ONE - T, x), (T, ONE)])
    assert column_sum([(ONE - T, x), (T, ONE)]) == Q1 + T
    # t^2 q1 / (q2 (1 - t^2)) times (1 - t) / t, and 3 / q2
    _check_sum_of_products([(T * T * Q1 / (Q2 * (ONE - T * T)), (ONE - T) / T),
                            (Scalar.integer(3, K), Q2.inv())])


def test_sum_of_products_cancels_against_the_lcm():
    # each product is reduced, but their sum (1 - t) / (1 - t) is 1
    a = (ONE - T).inv()
    pairs = [(a, ONE), (-T * a, ONE)]
    _check_sum_of_products(pairs)
    assert column_sum(pairs) == ONE
    # and a content: 2 / (2 q1) over the lcm of q1 and 2 q1
    pairs = [(ONE, Q1.inv()), (ONE, -(Q1 + Q1).inv())]
    _check_sum_of_products(pairs)
    assert column_sum(pairs) == (Q1 + Q1).inv()


def test_sum_of_products_zero_test_reads_the_cofactors():
    # the products' numerators cancel or not only once each is scaled
    # to the lcm: 1 / (1 - t) - 1 is not zero, and
    # (1 - t) / (1 - t) - 1 is
    a = (ONE - T).inv()
    assert not column_sum_is_zero([(a, ONE), (-ONE, ONE)])
    assert column_sum_is_zero([(a, ONE - T), (-ONE, ONE)])
    b = Q1 / (ONE + T * Q2)
    assert not column_sum_is_zero([(b, T), (-Q1, T)])
    assert column_sum_is_zero([(b, ONE + T * Q2), (-T, Q1 / T)])


def test_sum_of_products_of_nothing_is_zero():
    assert column_sum([]) == ZERO
    assert column_sum_is_zero([])
    assert column_sum([(ZERO, T), (Q1, ZERO)]) == ZERO
    assert column_sum_is_zero([(ZERO, T), (Q1, ZERO)])


def test_sum_of_products_with_an_unfactored_operand():
    # 1 + t + q1 is no product of known factors, so the sum takes the
    # general path, the sum of the reduced products
    a = (ONE + T + Q1).inv()
    assert a.fac is None
    for pairs in ([(a, ONE + T + Q1), (-ONE, ONE)],
                  [(a, T), (Q1 / (ONE - T), a), (ONE, ONE)],
                  [(ONE, T), (a, ZERO)]):
        _check_sum_of_products(pairs)
    assert column_sum_is_zero([(a, ONE + T + Q1), (-ONE, ONE)])


def test_sum_of_products_past_the_exponent_limit_raises():
    # the products' monomial denominator t^(MAX_EXP + 1) does not fit,
    # and nothing in the numerators can cancel it
    a = Scalar.t(K, MAX_EXP).inv()
    for pairs in ([(a, T.inv())], [(a, T.inv() / (ONE - Q1)), (ONE, ONE)]):
        with pytest.raises(ValueError):
            sum((x * y for x, y in pairs), ZERO)
        with pytest.raises(ValueError):
            column_sum(pairs)
        with pytest.raises(ValueError):
            column_sum_is_zero(pairs)


# shifts and diagonal entries: c t^a q1^b q2^e with c in {1, -1, 4} and
# exponents -2..2, so a gap is a binomial over a monomial that mostly
# splits, sometimes not (4t^2 - 1), and gaps differ in their monomial
# denominators
monomial_scalars = st.builds(
    lambda c, a, b, e: Scalar.param_monomial(K, a, {1: b, 2: e}, c),
    st.sampled_from([1, 1, -1, -1, 4]), *[st.integers(-2, 2)] * 3)
# entries of the Y matrices' shape: a polynomial over a monomial
polynomials_over_monomials = st.builds(
    lambda p, m: Scalar(_packed(p), {0: 1}, K) / m, _PARAM_POLYS,
    monomial_scalars)


@st.composite
def columns(draw):
    """(values, column, shifts, diagonal) for solve_column: one to three
    values under keys 0, 1, ..., and one to three equations whose pairs
    use those keys, the next key (which has no value) and one key of
    their own.  The values have binomial denominators, and the entries
    monomial ones as in the Y matrices, or binomial ones, or both are
    mixed with general and unfactored scalars.  Some diagonal
    entries equal their shift, so a gap is zero; the solving equation's
    pairs are sometimes doubled with their negatives, so its sum is zero
    beside others that are not; and some later equations are made to
    hold, by one more pair whose value is what their sum lacks."""
    pool = entries = factored_scalars(allow_zero=False)
    mode = draw(st.integers(0, 2))
    if mode == 0:
        entries = polynomials_over_monomials
    elif mode == 2:
        pool = entries = st.one_of(pool, scalars(allow_zero=False),
                                   pool.map(_plain))
    values = dict(enumerate(draw(st.lists(pool, min_size=1, max_size=3))))
    n = draw(st.integers(1, 3))
    column = [draw(st.lists(st.tuples(st.integers(0, len(values)), entries),
                            min_size=1, max_size=2)) for _ in range(n)]
    shifts = [draw(monomial_scalars) for _ in range(n)]
    diagonal = [a if draw(st.integers(0, 3)) == 0 else draw(monomial_scalars)
                for a in shifts]
    s = next((i for i, (a, d) in enumerate(zip(shifts, diagonal))
              if a != d), None)
    assume(s is not None)
    if draw(st.integers(0, 3)) == 0:
        column[s] = column[s] + [(l, -c) for l, c in column[s]]
    sums = [sum((values[l] * c for l, c in eq if l in values), ZERO)
            for eq in column]
    x = sums[s] / (shifts[s] - diagonal[s])
    for i in range(s + 1, n):
        # w under a key of its own makes equation i hold
        w = x * (shifts[i] - diagonal[i]) - sums[i]
        if w and draw(st.integers(0, 3)):
            values[5 + i] = w
            column[i] = column[i] + [(5 + i, ONE)]
    return values, column, shifts, diagonal


@given(columns())
def test_solve_column_matches_scalar_arithmetic(case):
    _check_column(*case)


def test_solve_column_solves_from_the_first_nonzero_gap():
    # x = q1 / (1 - t) from the first equation, whose gap is 1 - t;
    # the second, with gap (q2 - t) / t and an entry over a binomial
    # denominator, holds for one entry and fails for another
    values = {0: Q1 / (ONE - T * Q2), 1: ONE}
    x = Q1 / (ONE - T)
    c = x * (Q2 - T) / T
    for entry, holds in ((c, True), (c + ONE, False), (_plain(c), True)):
        column = [[(1, Q1)], [(1, entry)]]
        got = _check_column(values, column, [ONE, Q2 / T], [T, ONE])
        assert (got == x) if holds else got is None
    # an equation whose gap is zero holds exactly when its sum is zero
    for eq, holds in (([(0, ONE - T * Q2), (1, -Q1)], True),
                      ([(0, ONE)], False)):
        got = _check_column(values, [[(1, T)], eq, []], [ONE, T, Q1],
                            [Q2, T, Q1])
        assert (got == T / (ONE - Q2)) if holds else got is None


def test_solve_column_with_a_zero_solving_sum():
    # the first equation's sum cancels, so x is zero, and the second
    # holds only when its own sum is zero
    values = {0: T / (ONE - Q1), 1: (ONE - Q1).inv()}
    solving = [(0, ONE), (1, -T)]
    for eq, holds in (([(0, Q2), (1, -T * Q2)], True), ([(1, Q2)], False)):
        got = _check_column(values, [solving, eq], [T, Q1], [Q1, T])
        assert (got == ZERO) if holds else got is None


def test_solve_column_with_a_gap_that_does_not_split():
    # 4t^2 - 1 is no product of known factors: Scalar arithmetic
    four_t2 = Scalar.param_monomial(K, 2, {}, 4)
    x = _check_column({0: Q1}, [[(0, ONE - T)]], [four_t2], [ONE])
    assert x == Q1 * (ONE - T) / (four_t2 - ONE) and x.fac is None
    assert _check_column({0: Q1}, [[(0, ONE - T)], [(0, ONE)]],
                         [four_t2, T], [ONE, Q2]) is None


def test_solve_column_where_values_and_entries_share_a_factor():
    # the lcm of the values and that of the entries both hold 1 - t, so
    # the common denominator holds it squared, past its exponent in the
    # lcm of the products, and the one reduction takes it out
    a = (ONE - T).inv()
    column = [[(0, T * a), (0, -a)]]
    x = _check_column({0: a}, column, [Q1], [ONE])
    assert x == a / (ONE - Q1) and set(x.fac[2].values()) == {1}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(field, "p_gcd", _unreachable)
        assert field.solve_column({0: a}, column, [Q1], [ONE], ZERO) == x
    # the second equation, checked by cross-multiplying, is the first
    # times r = (q2 - 1) / (q1 - 1), the ratio of the gaps
    r = (Q2 - ONE) / (Q1 - ONE)
    values = {0: a, 1: a * a}
    for eq, holds in (([(0, a * r), (1, Q1 * a * r)], True),
                      ([(0, a * r), (1, a)], False)):
        got = _check_column(values, [[(0, a), (1, Q1 * a)], eq],
                            [Q1, Q2], [ONE, ONE])
        assert (got is not None) == holds


def test_solve_column_on_factored_operands_calls_no_gcd(monkeypatch):
    values = {0: Q1 / (ONE - T), 1: T / (Q2 * (ONE + T))}
    column = [[(0, T), (1, ONE - T)], [(0, Q2 / T), (1, -ONE)]]
    shifts, diagonal = [Q1, T / Q2], [T * T, ONE]
    want = column_reference(values, column, shifts, diagonal)
    monkeypatch.setattr(field, "p_gcd", _unreachable)
    assert field.solve_column(values, column, shifts, diagonal, ZERO) == want


def test_solve_column_needs_a_nonzero_gap():
    with pytest.raises(ValueError):
        field.solve_column({0: ONE}, [[(0, T)]], [T], [T], ZERO)
