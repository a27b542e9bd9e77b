"""Sparse Laurent polynomials in r groups of n variables."""

from __future__ import annotations

import time

import pytest
from hypothesis import given, strategies as st

from dahamac.field import MAX_EXP, Scalar
from dahamac.laurent import (
    LaurentPoly,
    is_positive,
    multidegree,
    poly_dumps,
    poly_from_json,
    poly_to_json,
    render_poly,
    swap_vars,
    xi,
)

R, N, K = 2, 2, 2
ONE = Scalar.one(K)
T = Scalar.t(K)


def var(i, j, e=1, r=R):
    """x_{i,j}^e with coefficient 1, in r groups of N variables."""
    flat = [0] * (r * N)
    flat[(i - 1) * N + j - 1] = e
    return LaurentPoly(r, N, K, {tuple(flat): ONE})


def one(r=R):
    return LaurentPoly(r, N, K, {(0,) * (r * N): ONE})


@st.composite
def polys(draw, r=R, n=N):
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        flat = tuple(draw(st.integers(-2, 2)) for _ in range(r * n))
        coeff = draw(st.integers(-3, 3))
        e_t = draw(st.integers(-1, 1))
        e_q = draw(st.integers(-1, 1))
        c = Scalar.param_monomial(K, e_t, {1: e_q} if e_q else {}, coeff)
        if not c.is_zero():
            terms[flat] = c
    return LaurentPoly(r, n, K, terms)


# ---------------------------------------------------------------------------
# construction and arithmetic


def test_monomial_and_var_agree():
    assert LaurentPoly.monomial(R, N, K, ((1, 0), (0, 0)), ONE) == var(1, 1)
    assert LaurentPoly.monomial(R, N, K, ((0, 0), (0, 2)), ONE) == \
        var(2, 2, 2)
    assert LaurentPoly.monomial(R, N, K, ((0, 0), (0, 2)), ONE - ONE) == \
        LaurentPoly(R, N, K)


def test_product_of_variables():
    p = var(1, 1) * var(1, 1) * var(2, 2, -1)
    assert p.terms[(2, 0, 0, -1)] == ONE
    assert len(p.terms) == 1


def test_shape_mismatch_rejected():
    q = one(1)
    with pytest.raises(ValueError):
        var(1, 1) + q
    assert (var(1, 1) == q) is False


def test_mul_monomial_accepts_rows_and_flat():
    m = LaurentPoly.monomial(R, N, K, ((1, 0), (0, 1)), ONE)
    by_flat = m.mul_monomial((0, 1, 0, 0))
    assert by_flat == var(1, 1) * var(1, 2) * var(2, 2)
    with pytest.raises(ValueError):
        m.mul_monomial((1, 0))


@given(polys(), polys(), polys())
def test_ring_axioms(p, q, s):
    assert (p + q) + s == p + (q + s)
    assert p + q == q + p
    assert p * (q + s) == p * q + p * s
    assert (p - p).is_zero()


@given(polys())
def test_scalar_multiplication_distributes(p):
    c = (ONE - T) / (ONE + T)
    assert p.smul(c) + p.smul(T) == p.smul(c + T)


# ---------------------------------------------------------------------------
# the divided-difference building block


def test_xi_geometric_sum():
    assert xi(var(1, 1) * var(1, 1), 1, 1) == \
        var(1, 1) * var(1, 1) + var(1, 1) * var(1, 2)
    # antisymmetric counterpart picks up the sign
    assert xi(var(1, 2) * var(1, 2), 1, 1) == \
        (var(1, 1) * var(1, 1) + var(1, 1) * var(1, 2)).smul(-ONE)


def test_xi_kills_symmetric_input():
    p = var(1, 1) * var(1, 1) + var(1, 2) * var(1, 2)
    assert xi(p, 1, 1).is_zero()
    assert xi(var(1, 1) * var(1, 2), 1, 1).is_zero()


@given(polys(), st.integers(1, R))
def test_xi_clears_its_denominator(p, i):
    # the defining identity x_{i,1} (p - s p) = (x_{i,1} - x_{i,2}) xi(p),
    # checked without ever dividing
    lhs = var(i, 1) * (p - swap_vars(p, i, 1))
    rhs = (var(i, 1) - var(i, 2)) * xi(p, i, 1)
    assert lhs == rhs


@given(polys(), st.integers(1, R))
def test_swap_is_an_involution(p, i):
    assert swap_vars(swap_vars(p, i, 1), i, 1) == p


def test_index_guards():
    with pytest.raises(IndexError):
        swap_vars(var(1, 1), 3, 1)
    with pytest.raises(IndexError):
        xi(var(1, 1), 1, 2)


# ---------------------------------------------------------------------------
# grading and group handling


def test_multidegree():
    p = var(1, 1) * var(2, 2) + var(1, 2).smul(T) * var(2, 1)
    assert multidegree(p) == (1, 1)
    assert multidegree(LaurentPoly(R, N, K)) == (0, 0)
    with pytest.raises(ValueError):
        multidegree(var(1, 1) + var(2, 1))


def test_is_positive():
    assert is_positive(var(1, 1) * var(2, 2, 3))
    assert not is_positive(var(1, 1, -1))


# ---------------------------------------------------------------------------
# rendering and serialization


def test_render_text():
    p = LaurentPoly(R, N, K, {(2, 0, 0, -1): ONE - T,
                              (0, 1, 1, 0): Scalar.integer(3, K)})
    assert render_poly(p) == "(-t + 1)*x[1,1]^2*x[2,2]^-1 + 3*x[1,2]*x[2,1]"


def test_render_latex():
    p = LaurentPoly(R, N, K, {(2, 0, 0, -1): ONE - T,
                              (0, 1, 1, 0): Scalar.integer(3, K)})
    assert render_poly(p, latex=True) == \
        "\\left(-t + 1\\right) x_{1,1}^{2} x_{2,2}^{-1} + 3 x_{1,2} x_{2,1}"
    q2 = Scalar.q(2, K)
    frac = (ONE - T) / (ONE - q2 * T**2)
    assert render_poly(var(1, 1).smul(frac), latex=True) == \
        "\\frac{-t + 1}{-t^{2} q_{2} + 1} x_{1,1}"


def test_render_negative_monomial_coefficient():
    # a negative monomial coefficient after the first term reads " - c*x"
    p = LaurentPoly(R, N, K, {(1, 0, 0, 0): T - ONE,
                              (0, 1, 0, 0): Scalar.integer(-2, K),
                              (0, 0, 1, 0): -T / Scalar.q(1, K)})
    assert render_poly(p) == "(t - 1)*x[1,1] - 2*x[1,2] - t/q1*x[2,1]"
    assert render_poly(p, latex=True) == \
        "\\left(t - 1\\right) x_{1,1} - 2 x_{1,2} + \\frac{-t}{q_{1}} x_{2,1}"
    first = LaurentPoly(R, N, K, {(0, 1, 0, 0): Scalar.integer(-2, K)})
    assert render_poly(first) == "-2*x[1,2]"


def test_render_constants():
    assert render_poly(one()) == "1"
    assert render_poly(LaurentPoly(R, N, K)) == "0"


@given(polys())
def test_json_roundtrip(p):
    assert poly_from_json(poly_to_json(p)) == p


@pytest.mark.parametrize("field, value", [
    ("exp", [[1, 0]]),
    ("exp", [[1, 0], [0]]),
    ("coeff", {"num": [["1", [0, 0]]], "den": [["1", [0, 0]]]}),
    ("coeff", {"num": [], "den": [["1", [0, 0, 0]]]}),
])
def test_json_decoding_rejects_mismatched_terms(field, value):
    d = poly_to_json(var(1, 1))
    d["terms"][0][field] = value
    with pytest.raises(ValueError):
        poly_from_json(d)


def test_json_decoding_refuses_a_long_exponent_before_decoding_it():
    # a coefficient in 64,000 parameters under a header of 1: decoding it
    # first cost time quadratic in its exponent length.  The last entry,
    # past MAX_EXP, is never read.
    length = 64001
    num = [1] + [0] * (length - 2) + [MAX_EXP + 1]
    d = {"r": 1, "n": 1, "params": 1, "terms": [
        {"exp": [[1]], "coeff": {"num": [["1", num]],
                                 "den": [["1", [0] * length]]}}]}
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="in 1 q-parameters"):
        poly_from_json(d)
    assert time.perf_counter() - t0 < 0.2


def test_dumps_is_deterministic():
    a = LaurentPoly(R, N, K, {(1, 0, 0, 0): T, (0, 1, 0, 0): ONE})
    b = LaurentPoly(R, N, K, {(0, 1, 0, 0): ONE, (1, 0, 0, 0): T})
    assert poly_dumps(a) == poly_dumps(b)
