"""Operator actions of the rank-r polynomial representation."""

from __future__ import annotations

import itertools
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from dahamac import affine, rep
from dahamac.field import MAX_EXP, KroneckerRing, Scalar
from dahamac.laurent import (LaurentPoly, clear_poly_denominators,
                             poly_dumps, swap_vars, xi)
from dahamac.nonsym import E, MacdonaldRecord, check_record
from dahamac.rep import (
    RepContext,
    apply_Delta_n,
    apply_operator_expr,
    apply_pi,
    apply_T,
    apply_T_inv,
    apply_theta,
    apply_X,
    apply_Y,
    component_basis,
    degrees_upto,
    matrix_of,
    parse_operator_expr,
    symmetrize_eps,
    t_bracket,
    verify_daha_relations,
)
from dahamac.stability import StableIndex, iota, kill_index, project

CTX21 = RepContext(2, 1, 1)
CTX22 = RepContext(2, 2, 2)
CTX31 = RepContext(3, 1, 1)


def mono(ctx, rows):
    """prod x_{i,j}^{rows[i-1][j-1]} with coefficient 1."""
    return LaurentPoly.monomial(ctx.r, ctx.n, ctx.k, rows, ctx.scalar())


def var(ctx, i, j, e=1):
    rows = [[0] * ctx.n for _ in range(ctx.r)]
    rows[i - 1][j - 1] = e
    return mono(ctx, rows)


@st.composite
def polys22(draw):
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        flat = tuple(draw(st.integers(-1, 2)) for _ in range(4))
        coeff = draw(st.integers(-3, 3))
        if coeff:
            terms[flat] = Scalar.integer(coeff, 2)
    return LaurentPoly(2, 2, 2, terms)


def test_context_validation():
    with pytest.raises(ValueError):
        RepContext(0, 1, 1)
    with pytest.raises(ValueError):
        RepContext(2, 2, 1)  # more groups than q parameters


def test_context_scalar():
    assert CTX22.scalar() == Scalar.one(2) and CTX22.scalar(0).is_zero()
    assert CTX22.scalar(-3, t=-1, q={2: 2}) == \
        Scalar.integer(-3, 2) * Scalar.q(2, 2, 2) / Scalar.t(2)
    with pytest.raises(ValueError, match="q_3 outside session"):
        CTX22.scalar(q={3: 1})


def test_demazure_lusztig_on_degree_one():
    x11, x12 = var(CTX21, 1, 1), var(CTX21, 1, 2)
    t = CTX21.scalar(t=1)
    one = CTX21.scalar()
    assert apply_T(CTX21, 1, x11) == x12 + x11.smul(one - t)
    assert apply_T(CTX21, 1, x12) == x11.smul(t)
    # constants are fixed: the quadratic has eigenvalues 1 and -t
    assert apply_T(CTX21, 1, CTX21.one()) == CTX21.one()


def test_pinned_T_matrix():
    t = CTX21.scalar(t=1)
    one = CTX21.scalar()
    mat = matrix_of(CTX21, lambda p: apply_T(CTX21, 1, p), (1,))
    assert mat == [{1: t}, {0: one, 1: one - t}]
    assert component_basis(CTX21, (1,)) == [(0, 1), (1, 0)]


def test_matrix_of_refuses_what_leaves_the_component():
    # X_1 raises the degree, so x_{1,2} maps outside the component
    with pytest.raises(ValueError, match="escapes the graded component"):
        matrix_of(CTX21, lambda p: apply_X(CTX21, 1, p), (1,))
    with pytest.raises(ValueError, match="length mismatch"):
        matrix_of(CTX22, lambda p: p, (1,))
    with pytest.raises(ValueError, match="negative multidegree"):
        matrix_of(CTX22, lambda p: p, (1, -1))


@given(polys22())
def test_hecke_quadratic_relation(p):
    # (T - 1)(T + t) = 0
    t = CTX22.scalar(t=1)
    one = CTX22.scalar()
    tp = apply_T(CTX22, 1, p)
    assert apply_T(CTX22, 1, tp) == tp.smul(one - t) + p.smul(t)


@given(polys22())
def test_T_inverse(p):
    assert apply_T_inv(CTX22, 1, apply_T(CTX22, 1, p)) == p
    assert apply_T(CTX22, 1, apply_T_inv(CTX22, 1, p)) == p


# The reference: apply_T as three passes per group, xi then the sum
# then swap_vars, before the one pass over the terms.


def three_pass_apply_T(ctx, j, p, t_inverse=False):
    acc = -p if t_inverse else None
    cur = p
    for grp in range(1, ctx.r + 1):
        piece = xi(cur, grp, j)
        acc = piece if acc is None else acc + piece
        cur = swap_vars(cur, grp, j)
    return cur + acc.smul(ctx.one_minus_t)


@st.composite
def shaped_polys(draw, integral=False):
    """(ctx, j, p): r in 1..3, n in 2..4, exponents -3..3, and
    coefficients that are sums of up to two parameter monomials, with
    negative parameter exponents unless integral."""
    r, n = draw(st.integers(1, 3)), draw(st.integers(2, 4))
    ctx = RepContext(n, r, r)
    low = 0 if integral else -1
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        flat = tuple(draw(st.integers(-3, 3)) for _ in range(n * r))
        c = ctx.scalar(0)
        for _ in range(draw(st.integers(1, 2))):
            c = c + ctx.scalar(draw(st.integers(-3, 3)),
                               t=draw(st.integers(low, 2)),
                               q={draw(st.integers(1, r)):
                                  draw(st.integers(low, 2))})
        if c:
            terms[flat] = c
    return ctx, draw(st.integers(1, n - 1)), LaurentPoly(r, n, r, terms)


@given(shaped_polys(), st.booleans())
def test_one_pass_T_matches_three_passes(case, t_inverse):
    ctx, j, p = case
    assert apply_T(ctx, j, p, t_inverse) == \
        three_pass_apply_T(ctx, j, p, t_inverse)


@given(shaped_polys(integral=True), st.booleans())
def test_T_on_packed_ints_is_T_on_scalars_packed(case, t_inverse):
    # packing is a ring map, so the operator on packed coefficients,
    # through a context of the ring, is the packing of the operator on
    # Scalars; a packed 0 is a dropped term
    ctx, j, p = case
    ring = KroneckerRing(ctx.k, p.terms.values(), growth=1, t_rise=1,
                         weights=[ctx.scalar()])
    packed = RepContext(ctx.n, ctx.r, ctx.k, ring)
    image = apply_T(packed, j, LaurentPoly(
        ctx.r, ctx.n, ctx.k, {m: ring.pack(c) for m, c in p.terms.items()}),
        t_inverse)
    want = {m: ring.pack(c)
            for m, c in apply_T(ctx, j, p, t_inverse).terms.items()}
    assert image.terms == {m: v for m, v in want.items() if v}


def test_pi_on_packed_ints_divides_exactly():
    ctx = CTX22
    p = mono(ctx, ((2, 3), (0, 1))).smul(ctx.scalar(q={1: 3, 2: 1}))
    ring = KroneckerRing(ctx.k, p.terms.values(), growth=1, t_rise=0,
                         weights=[ctx.scalar()])
    packed = RepContext(ctx.n, ctx.r, ctx.k, ring)
    image = apply_pi(packed, LaurentPoly(
        ctx.r, ctx.n, ctx.k, {m: ring.pack(c) for m, c in p.terms.items()}))
    assert image.terms == {(3, 2, 1, 0): ring.pack(ctx.scalar())}
    # one q_1 short of the charge: the exact shift refuses
    short = LaurentPoly(ctx.r, ctx.n, ctx.k, {
        (2, 3, 0, 1): ring.pack(ctx.scalar(q={1: 2, 2: 1}))})
    with pytest.raises(ArithmeticError):
        apply_pi(packed, short)


def test_braid_relation():
    ctx = CTX31
    for m in [((1, 2, 0),), ((2, 0, 1),), ((0, 1, 1),)]:
        p = mono(ctx, m)
        lhs = apply_T(ctx, 1, apply_T(ctx, 2, apply_T(ctx, 1, p)))
        rhs = apply_T(ctx, 2, apply_T(ctx, 1, apply_T(ctx, 2, p)))
        assert lhs == rhs


def test_pi_cycles_rows_with_q_charge():
    p = mono(CTX22, ((2, 3), (0, 1)))
    out = apply_pi(CTX22, p)
    expected = LaurentPoly.monomial(
        2, 2, 2, ((3, 2), (1, 0)),
        Scalar.param_monomial(2, 0, {1: -3, 2: -1}))
    assert out == expected


def test_pi_X_commutation():
    # pi X_1 = X_2 pi, while the wrap-around picks up the charge:
    # pi X_n = q^{-1} X_1 pi
    p = mono(CTX21, ((1, 1),))
    q_inv = Scalar.q(1, 1, -1)
    lhs = apply_pi(CTX21, apply_X(CTX21, 1, p))
    rhs = apply_X(CTX21, 2, apply_pi(CTX21, p))
    assert lhs == rhs
    lhs = apply_pi(CTX21, apply_X(CTX21, 2, p))
    rhs = apply_X(CTX21, 1, apply_pi(CTX21, p)).smul(q_inv)
    assert lhs == rhs


def test_X_operators():
    p = CTX22.one()
    assert apply_X(CTX22, 2, p) == var(CTX22, 1, 2)
    assert apply_X(CTX22, 2, apply_X(CTX22, 2, p), -1) == p
    with pytest.raises(IndexError):
        apply_X(CTX22, 3, p)


@given(polys22(), st.integers(1, 2))
def test_X_inverse_inverts_X(p, i):
    assert apply_X(CTX22, i, apply_X(CTX22, i, p), -1) == p
    assert apply_X(CTX22, i, apply_X(CTX22, i, p, -1)) == p
    assert apply_operator_expr(CTX22, f"Xinv{i} X{i}", p) == p


def test_Y_weight_on_constants():
    ctx = RepContext(3, 2, 2)
    for i in (1, 2, 3):
        assert apply_Y(ctx, i, ctx.one()) == \
            ctx.one().smul(ctx.scalar(t=3 - i))


def test_theta_weight_on_constants():
    ctx = RepContext(3, 2, 2)
    for i in (1, 2, 3):
        assert apply_theta(ctx, i, ctx.one()) == \
            ctx.one().smul(ctx.scalar(t=i - 1))


@pytest.mark.parametrize("i", [0, 4])
def test_Y_and_theta_refuse_an_index_outside_1_to_n(i):
    ctx = RepContext(3, 1, 1)
    with pytest.raises(IndexError, match="^Y index out of range$"):
        apply_Y(ctx, i, ctx.one())
    with pytest.raises(IndexError, match="^theta index out of range$"):
        apply_theta(ctx, i, ctx.one())


def _Y_by_definition(ctx, i, p):
    """t^(n-i) T_{i-1} ... T_1 pi T_{n-1}^-1 ... T_i^-1, rightmost factor
    first."""
    for j in range(i, ctx.n):
        p = apply_T_inv(ctx, j, p)
    p = apply_pi(ctx, p)
    for j in range(1, i):
        p = apply_T(ctx, j, p)
    return p.smul(ctx.scalar(t=ctx.n - i))


def _theta_by_definition(ctx, i, p):
    """t^(i-1) T_{i-1}^-1 ... T_1^-1 pi T_{n-1} ... T_i."""
    for j in range(i, ctx.n):
        p = apply_T(ctx, j, p)
    p = apply_pi(ctx, p)
    for j in range(1, i):
        p = apply_T_inv(ctx, j, p)
    return p.smul(ctx.scalar(t=i - 1))


def _laurent_input(ctx):
    """Three terms with negative exponents in every group, carrying
    t^-1 + q1, 1/(1 - t q2) and -3/2."""
    t, one = ctx.scalar(t=1), ctx.scalar()
    q2 = ctx.scalar(q={min(2, ctx.k): 1})
    coeffs = (t.inv() + ctx.scalar(q={1: 1}), (one - t * q2).inv(),
              Scalar.integer(-3, ctx.k) / Scalar.integer(2, ctx.k))
    terms = {}
    for s, c in enumerate(coeffs):
        flat = tuple((pos * (s + 2) + s) % 4 - 1
                     for pos in range(ctx.r * ctx.n))
        terms[flat] = c
    return LaurentPoly(ctx.r, ctx.n, ctx.k, terms)


@pytest.mark.parametrize("n, r", [(1, 1), (2, 1), (3, 2), (4, 1), (2, 3)])
def test_integral_Y_and_theta_match_their_definitions(n, r):
    ctx = RepContext(n, r, r)
    p = _laurent_input(ctx)
    assert len(p.terms) == 3
    assert all(any(-1 in m[g * n:(g + 1) * n] for m in p.terms)
               for g in range(r))
    for i in range(1, n + 1):
        assert poly_dumps(apply_Y(ctx, i, p)) == \
            poly_dumps(_Y_by_definition(ctx, i, p))
        assert poly_dumps(apply_theta(ctx, i, p)) == \
            poly_dumps(_theta_by_definition(ctx, i, p))


@given(polys22())
def test_Y_operators_commute(p):
    lhs = apply_Y(CTX22, 1, apply_Y(CTX22, 2, p))
    rhs = apply_Y(CTX22, 2, apply_Y(CTX22, 1, p))
    assert lhs == rhs


# ---------------------------------------------------------------------------
# symmetrizer and the spherical operator


def test_eps_on_degree_one():
    x11, x12 = var(CTX21, 1, 1), var(CTX21, 1, 2)
    one = CTX21.scalar()
    t = CTX21.scalar(t=1)
    expected = (x11 + x12).smul((one + t).inv())
    assert symmetrize_eps(CTX21, x11) == expected
    # x12 symmetrizes to the same line scaled by t: T x12 = t x11
    assert symmetrize_eps(CTX21, x12) == expected.smul(t)


@given(polys22())
def test_eps_is_idempotent(p):
    e = symmetrize_eps(CTX22, p)
    assert symmetrize_eps(CTX22, e) == e


@given(polys22())
def test_eps_image_is_hecke_invariant(p):
    e = symmetrize_eps(CTX22, p)
    assert apply_T(CTX22, 1, e) == e


def test_delta_kills_constants():
    assert apply_Delta_n(CTX22, CTX22.one()).is_zero()


def test_delta_eigen_on_degree_one():
    x11 = var(CTX21, 1, 1)
    e = symmetrize_eps(CTX21, x11)
    value = Scalar.q(1, 1, -1) - Scalar.one(1)
    assert apply_Delta_n(CTX21, e) == e.smul(value)


# The reference: Delta_n = eps (Y_1 + ... + Y_n - [n]_t) eps, with the
# first eps that apply_Delta_n leaves out on its symmetric inputs.


def two_eps_Delta(ctx, p):
    inner = symmetrize_eps(ctx, p)
    acc = ctx.zero()
    for i in range(1, ctx.n + 1):
        acc = acc + apply_Y(ctx, i, inner)
    acc = acc - inner.smul(t_bracket(ctx))
    return symmetrize_eps(ctx, acc)


@given(polys22())
def test_Delta_matches_two_eps_on_eps_images(p):
    e = symmetrize_eps(CTX22, p)
    assert apply_Delta_n(CTX22, e) == two_eps_Delta(CTX22, e)


@given(st.lists(st.tuples(st.tuples(*[st.integers(0, 2)] * 6),
                          st.integers(-3, 3)), min_size=1, max_size=3))
def test_Delta_matches_two_eps_on_projected_eps_images(terms):
    # eps images at n = 3, projected to n = 2: projection commutes with
    # T_1, so the projection is still T-invariant
    big = RepContext(3, 2, 2)
    p = LaurentPoly(2, 3, 2, {flat: big.scalar(c)
                              for flat, c in dict(terms).items() if c})
    e = project(symmetrize_eps(big, p))
    assert apply_T(CTX22, 1, e) == e
    assert apply_Delta_n(CTX22, e) == two_eps_Delta(CTX22, e)


# ---------------------------------------------------------------------------
# the symmetrizer's chain on packed integers

# The reference: the symmetrizer's chain on Scalars, as it ran before
# the chain moved onto a field.KroneckerRing.


def scalar_chain_eps(ctx, p, monic_at=None):
    norm, p = clear_poly_denominators(p)
    for m in range(2, ctx.n + 1):
        acc = p.smul(ctx.scalar(t=m - 1))
        cur = p
        for j in range(m - 1, 0, -1):
            cur = apply_T(ctx, j, cur)
            acc = acc + (cur.smul(ctx.scalar(t=j - 1)) if j > 1 else cur)
        p = acc
        norm = norm * t_bracket(ctx, m)
    if monic_at is not None:
        norm = p.terms.get(monic_at)
        if norm is None:
            raise ArithmeticError(f"no term at x^{monic_at}")
    inv = norm.inv()
    return LaurentPoly(p.r, p.n, p.k,
                       {m: c * inv for m, c in p.terms.items()})


def _stability_pool_Ps():
    """(ctx, orbit index) of every P that the stability workload asks
    for: iota(nu, n) for n from max(ell, 1) to 4 and the kill indices
    up to n = 4, over r in {1, 2}, components of length <= 2 with
    entries <= 2, total degree <= 4."""
    comps = [()] + [c for length in (1, 2)
                    for c in itertools.product(range(3), repeat=length)
                    if c[-1]]
    out = set()
    for r in (1, 2):
        for combo in itertools.product(comps, repeat=r):
            if sum(map(sum, combo)) > 4:
                continue
            try:
                nu = StableIndex(combo)
            except ValueError:
                continue
            for n in range(max(nu.ell, 1), 5):
                out.add((RepContext(n, r, r), iota(nu, n)))
        out.update((RepContext(n, r, r), kill_index(n, r))
                   for n in range(2, 5))
    return sorted(out, key=lambda case: (case[0].r, case[0].n, case[1]))


def _P_input(ctx, nu):
    return (E(ctx, affine.gamma_inverse(nu)).poly,
            tuple(e for comp in nu for e in comp))


def test_packed_eps_matches_the_scalar_chain_on_the_stability_pool():
    cases = _stability_pool_Ps()
    assert len(cases) > 100
    for ctx, nu in cases:
        p, top = _P_input(ctx, nu)
        assert symmetrize_eps(ctx, p, monic_at=top) == \
            scalar_chain_eps(ctx, p, monic_at=top), (ctx, nu)
        assert symmetrize_eps(ctx, p) == scalar_chain_eps(ctx, p), (ctx, nu)


@st.composite
def eps_inputs(draw):
    """(ctx, p): n in 1..3, r in 1..2, exponents -2..2, and coefficients
    that are sums of up to two parameter monomials of either sign of
    exponent, so that D is not 1."""
    n, r = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    ctx = RepContext(n, r, r)
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        flat = tuple(draw(st.integers(-2, 2)) for _ in range(n * r))
        c = ctx.scalar(0)
        for _ in range(draw(st.integers(1, 2))):
            c = c + ctx.scalar(draw(st.integers(-40, 40)),
                               t=draw(st.integers(-1, 2)),
                               q={draw(st.integers(1, r)):
                                  draw(st.integers(-1, 2))})
        if c:
            terms[flat] = c
    return ctx, LaurentPoly(r, n, r, terms)


@given(eps_inputs(), st.booleans())
def test_packed_eps_matches_the_scalar_chain(case, monic):
    ctx, p = case
    want = scalar_chain_eps(ctx, p)
    assert symmetrize_eps(ctx, p) == want
    if monic and want.terms:
        top = max(want.terms)
        assert symmetrize_eps(ctx, p, monic_at=top) == \
            scalar_chain_eps(ctx, p, monic_at=top)


def test_packed_eps_at_n_one():
    ctx = RepContext(1, 2, 2)
    t, q1, q2 = ctx.scalar(t=1), ctx.scalar(q={1: 1}), ctx.scalar(q={2: 1})
    one = ctx.scalar()
    p = LaurentPoly(2, 1, 2, {(3, -1): (one + t) / (one - q2),
                              (0, 2): q1 * q1 - ctx.scalar(2 ** 70, t=4),
                              (-1, 0): ctx.scalar(-7, q={1: -2})})
    for f in (p, LaurentPoly(2, 1, 2), mono(ctx, ((0,), (0,)))):
        assert symmetrize_eps(ctx, f) == scalar_chain_eps(ctx, f) == f
    assert symmetrize_eps(ctx, p, monic_at=(0, 2)) == \
        scalar_chain_eps(ctx, p, monic_at=(0, 2))


def test_eps_at_n_one_builds_no_ring(monkeypatch):
    """S_1 is trivial: the sum is p, or p over its coefficient at
    monic_at, as the scalar chain gives it, with no ring built."""
    ctx = RepContext(1, 2, 2)
    t, q2 = ctx.scalar(t=1), ctx.scalar(q={2: 1})
    one = ctx.scalar()
    p = LaurentPoly(2, 1, 2, {(3, -1): (one + t) / (one - q2),
                              (0, 2): q2 * q2 - ctx.scalar(3, t=4),
                              (-1, 0): ctx.scalar(-7, q={1: -2})})
    want = {top: scalar_chain_eps(ctx, p, monic_at=top) for top in p.terms}

    def no_ring(*args, **kwargs):
        raise AssertionError("a KroneckerRing was built at n = 1")

    monkeypatch.setattr(rep, "KroneckerRing", no_ring)
    assert symmetrize_eps(ctx, p) is p
    for top, expected in want.items():
        got = symmetrize_eps(ctx, p, monic_at=top)
        assert got == expected
        assert poly_dumps(got) == poly_dumps(expected)
    with pytest.raises(ArithmeticError, match="no term at"):
        symmetrize_eps(ctx, p, monic_at=(1, 1))


def test_packed_eps_reads_q2_past_an_absent_q1():
    # nu = ((), (2,)) at r = 2: E has q_2 in its coefficients and no q_1,
    # so q_1's digit box has width 1 and q_2's first power sits where
    # q_1's would; each digit must still be read as q_2
    nu = StableIndex(((), (2,)))
    for n in (1, 2, 3):
        ctx = RepContext(n, 2, 2)
        p, top = _P_input(ctx, iota(nu, n))
        got = symmetrize_eps(ctx, p, monic_at=top)
        assert got == scalar_chain_eps(ctx, p, monic_at=top)
        if n > 1:
            text = repr(got)
            assert "q2" in text and "q1" not in text
    ctx = RepContext(2, 2, 2)
    c = ctx.scalar(3, t=2, q={2: 1}) - ctx.scalar(5, q={2: 2}) + ctx.scalar()
    ring = KroneckerRing(2, [c], growth=1, t_rise=0)
    assert ring.unpack(ring.pack(c)) == c


def test_unpack_needs_its_last_bit():
    # a coefficient at its bound, as eps's chain at n = 1 (growth 1)
    # leaves it: the ring for it unpacks it, and the ring one bit
    # narrower (built for half of it) reads the digit wrapped, with a
    # carry into t
    c = Scalar.integer(2 ** 20 + 1, 1)
    ring = KroneckerRing(1, [c], growth=1, t_rise=1)
    assert ring.unpack(ring.pack(c)) == c
    narrow = KroneckerRing(1, [Scalar.integer(2 ** 19, 1)], growth=1,
                           t_rise=1)
    assert narrow.bits == ring.bits - 1
    assert narrow.unpack(narrow.pack(c)) == \
        Scalar.integer(2 ** 20 + 1 - 2 ** 21, 1) + Scalar.t(1)


def test_unpack_refuses_an_int_past_its_box():
    # coefficients of t-degree <= 2 and q_1-degree <= 1: q_1^2 packs
    # past the box, into a digit the top one carries
    one = Scalar.one(1)
    f = Scalar.t(1, 2) * Scalar.q(1, 1) + Scalar.integer(3, 1)
    ring = KroneckerRing(1, [f], growth=4, t_rise=0)
    assert ring.unpack(ring.pack(f)) == f
    assert ring.unpack(-ring.pack(f)) == -f
    for v in (ring.pack(Scalar.q(1, 1, 2)), -ring.pack(Scalar.q(1, 1, 2)),
              ring.pack(f) + ring.pack(Scalar.q(1, 1, 3)),
              1 << ring.bits - 1):
        with pytest.raises(ValueError, match="past the ring's bound"):
            ring.unpack(v)
    with pytest.raises(ValueError, match="compare"):
        KroneckerRing(1, [f], growth=1, t_rise=0, weights=[one]).unpack(0)


def test_check_record_rejects_a_corrupted_record_through_the_ring():
    ctx = CTX22
    rec = E(ctx, ((1, 0), (0, 1)))
    assert check_record(ctx, rec)
    first = min(rec.poly.terms)
    bumped = LaurentPoly(ctx.r, ctx.n, ctx.k, {first: ctx.scalar(t=1)})
    assert not check_record(
        ctx, MacdonaldRecord(rec.index, rec.poly + bumped, rec.weight))
    assert not check_record(ctx, MacdonaldRecord(
        rec.index, rec.poly, (rec.weight[1], rec.weight[0])))


# ---------------------------------------------------------------------------
# relation suite and operator expressions


def test_defining_relations_rank_one():
    report = verify_daha_relations(CTX21, (2,))
    assert report["ok"]
    assert all(chk["failures"] == [] for chk in report["checks"])


def test_defining_relations_rank_two():
    report = verify_daha_relations(CTX22, (1, 1))
    assert report["ok"]
    names = [chk["relation"] for chk in report["checks"]]
    assert len(names) == len(set(names)) == 7
    assert "(T1-1)(T1+t)=0" in names
    assert "qY1X1..Xn=X1..XnY1" in names


@pytest.mark.parametrize("ctx, bound", [(CTX31, (2,)),
                                        (RepContext(3, 2, 2), (1, 1))])
def test_defining_relations_catch_a_wrong_pi(monkeypatch, ctx, bound):
    # one extra q_1 on pi's image whenever a term has a nonzero last
    # group-1 exponent: Y still commutes with T, but not with X or Y
    n = ctx.n
    right_pi = apply_pi
    q1 = ctx.scalar(q={1: 1})

    def wrong_pi(ctx, p):
        image = right_pi(ctx, p)
        if any(m[n - 1] for m in p.terms):
            image = image.smul(q1)
        return image

    monkeypatch.setattr(rep, "apply_pi", wrong_pi)
    report = verify_daha_relations(ctx, bound)
    assert not report["ok"]
    assert [chk["relation"] for chk in report["checks"]
            if not chk["ok"]] == ["Y1Y2=Y2Y1", "Y1Y3=Y3Y1", "Y2Y3=Y3Y2",
                                  "qY1X1..Xn=X1..XnY1"]


def test_parse_operator_expr():
    terms = parse_operator_expr("t^2 pi Tinv3 Tinv2 Tinv1")
    assert terms == [(["t^2"], [("pi",), ("Tinv", 3), ("Tinv", 2), ("Tinv", 1)])]
    terms = parse_operator_expr("2 T1 + q1^-1 X2")
    assert terms == [(["2"], [("T", 1)]), (["q1^-1"], [("X", 2)])]
    assert parse_operator_expr("q1 Y1 X1 Xinv2") == \
        [(["q1"], [("Y", 1), ("X", 1), ("Xinv", 2)])]
    # unknown words survive parsing as coefficient tokens and are
    # rejected when the coefficient is built
    with pytest.raises(ValueError):
        apply_operator_expr(CTX21, "T1 frob", CTX21.one())


def test_operator_expr_applies_rightmost_first():
    p = var(CTX21, 1, 2)
    via_expr = apply_operator_expr(CTX21, "X1 pi", p)
    assert via_expr == apply_X(CTX21, 1, apply_pi(CTX21, p))
    assert via_expr != apply_pi(CTX21, apply_X(CTX21, 1, p))


def test_operator_expr_matches_Y():
    # Y_1 = t^{n-1} pi Tinv_{n-1} ... Tinv_1 at n = 3
    ctx = CTX31
    p = mono(ctx, ((1, 0, 2),))
    via_expr = apply_operator_expr(ctx, "t^2 pi Tinv2 Tinv1", p)
    assert via_expr == apply_Y(ctx, 1, p)
    for ctx, mu in ((CTX31, ((1, 0, 2),)), (RepContext(3, 2, 2),
                                            ((0, 1, 0), (1, 0, 1)))):
        p = mono(ctx, mu)
        for i in range(1, ctx.n + 1):
            assert apply_operator_expr(ctx, f"Y{i}", p) == apply_Y(ctx, i, p)
    with pytest.raises(IndexError, match="Y index out of range"):
        apply_operator_expr(CTX31, "Y4", CTX31.one())


def test_operator_expr_linear_combination():
    p = var(CTX21, 1, 1)
    out = apply_operator_expr(CTX21, "2 T1 + t X1", p)
    t = CTX21.scalar(t=1)
    expected = apply_T(CTX21, 1, p).smul(Scalar.integer(2, 1)) + \
        apply_X(CTX21, 1, p).smul(t)
    assert out == expected


def test_component_basis_shape():
    basis = component_basis(CTX22, (1, 1))
    assert basis == [(0, 1, 0, 1), (0, 1, 1, 0), (1, 0, 0, 1), (1, 0, 1, 0)]
    assert len(component_basis(CTX31, (2,))) == 6


def test_degrees_upto_in_lex_order():
    for bound in [(), (0,), (2,), (1, 0, 2), (2, 1)]:
        assert list(degrees_upto(bound)) == list(
            itertools.product(*(range(b + 1) for b in bound)))


def test_degrees_upto_is_lazy_at_the_exponent_limit():
    tracemalloc.start()
    try:
        first = next(iter(degrees_upto((MAX_EXP,))))
        second = list(itertools.islice(degrees_upto((MAX_EXP, MAX_EXP)), 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == (0,)
    assert second == [(0, 0), (0, 1), (0, 2)]
    assert peak < 100_000
