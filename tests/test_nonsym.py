"""Non-symmetric Macdonald polynomials: construction, weights, moves.

Frozen values are verified through independent routes before freezing:
the recursive construction, the direct eigen-equation re-check, and
the joint-eigenspace linear algebra oracle.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dahamac import affine, linalg, nonsym
from dahamac.field import Scalar
from dahamac.laurent import LaurentPoly, clear_poly_denominators, \
    multidegree
from dahamac.nonsym import (
    _pack_record,
    E,
    MacdonaldRecord,
    check_record,
    clear_cache,
    eigen_oracle_Y,
    index_multidegree,
    kappa,
    knop_sahi_check,
    knop_sahi_moves,
    omega_shift,
    raise_step,
    shift_factor,
    verify_triangular,
    weight_of,
)
from dahamac.rep import RepContext, apply_T, apply_pi, apply_Y

C21 = RepContext(2, 1, 1)
C22 = RepContext(2, 2, 2)
C31 = RepContext(3, 1, 1)


def compositions(n, total):
    if n == 1:
        return [(total,)]
    out = []
    for e in range(total + 1):
        out.extend((e,) + rest for rest in compositions(n - 1, total - e))
    return out


# ---------------------------------------------------------------------------
# weights


# The reference walk: the weight carried letter by letter along the
# coset words, independent of weight_of's closed form.


def psi_step(ctx, ell, g, w):
    """One Psi step for parameter q_ell."""
    if g == affine.PI:
        return (ctx.scalar(q={ell: -1}) * w[-1],) + tuple(w[:-1])
    out = list(w)
    out[g - 1], out[g] = out[g], out[g - 1]
    return tuple(out)


def base_weight(ctx):
    return tuple(ctx.scalar(t=ctx.n - i) for i in range(1, ctx.n + 1))


def test_base_weight():
    ctx = RepContext(3, 2, 2)
    assert base_weight(ctx) == (Scalar.t(2, 2), Scalar.t(2, 1), Scalar.t(2, 0))
    assert E(ctx, ((0, 0, 0),) * 2).weight == base_weight(ctx)


def test_weight_anchor_rank_three():
    ctx = RepContext(3, 3, 3)
    w = weight_of(ctx, ((0, 1, 0), (2, 0, 0), (0, 0, 1)))
    assert w == (
        Scalar.param_monomial(3, 0, {2: -2, 3: -1}),
        Scalar.param_monomial(3, 1, {1: -1}),
        Scalar.t(3, 2),
    )


def _psi_weight(ctx, mu_tuple):
    """The weight by the step-by-step Psi walk along E's construction:
    each component, last to first, from base_weight along the coset
    word of its omega-normalised shape, then the omega shift."""
    alpha = base_weight(ctx)
    for ell in range(ctx.r, 0, -1):
        shifted, c = affine.omega_normalize(mu_tuple[ell - 1])
        for g in affine.coset_word(shifted):
            alpha = psi_step(ctx, ell, g, alpha)
        if c:
            f = Scalar.q(ell, ctx.k, c)
            alpha = tuple(a * f for a in alpha)
    return alpha


def test_weight_of_matches_psi_walk():
    # 1,445 indices: entries -1..2 with absolute total <= 3
    count = 0
    for n, r in ((2, 1), (3, 1), (4, 1), (2, 3), (3, 2), (4, 2)):
        ctx = RepContext(n, r, r)
        for flat in itertools.product(range(-1, 3), repeat=n * r):
            if sum(map(abs, flat)) > 3:
                continue
            mu = tuple(flat[i * n:(i + 1) * n] for i in range(r))
            assert weight_of(ctx, mu) == _psi_weight(ctx, mu), mu
            count += 1
    assert count == 1445


def test_kappa_matches_weight_of_rank_one():
    # counting formula against the closed form
    for n, ctx in ((2, C21), (3, C31)):
        for total in range(4):
            for mu in compositions(n, total):
                assert kappa(ctx, mu) == weight_of(ctx, (mu,))


@pytest.mark.parametrize("mu", [(1, 0, 5), (1,)])
def test_kappa_rejects_wrong_length(mu):
    # neither truncated to n entries nor an IndexError
    with pytest.raises(ValueError, match="component length mismatch"):
        kappa(C21, mu)


def test_kappa_rejects_higher_rank():
    with pytest.raises(ValueError):
        kappa(C22, (1, 0))


@pytest.mark.parametrize("mu", [(1.5, 0), (True, 0), (0, "1.0")])
def test_kappa_rejects_non_integer_entries(mu):
    with pytest.raises(ValueError):
        kappa(C21, mu)


@pytest.mark.parametrize("mu", [((1.9, True),), ((1, 1.0),), ((1, "x"),)])
def test_E_rejects_non_integer_entries(mu):
    # a float or a bool entry is an error, not truncated to an int
    with pytest.raises(ValueError):
        E(C21, mu)


def test_weight_shape_guards():
    with pytest.raises(ValueError):
        weight_of(C21, ((1, 0), (0, 1)))
    with pytest.raises(ValueError):
        weight_of(C22, ((1, 0, 0), (0, 0, 1)))


# ---------------------------------------------------------------------------
# rank-one values


def test_rank_one_anchors():
    one = Scalar.one(1)
    x11 = LaurentPoly.monomial(1, 2, 1, ((1, 0),), one)
    x12 = LaurentPoly.monomial(1, 2, 1, ((0, 1),), one)
    t = Scalar.t(1)
    q = Scalar.q(1, 1)

    assert E(C21, ((0, 0),)).poly == C21.one()
    assert E(C21, ((1, 0),)).poly == x11
    assert E(C21, ((1, 1),)).poly == x11 * x12
    c = (one - t) / (one - t * q)
    assert E(C21, ((0, 1),)).poly == x12 + x11.smul(c)
    assert E(C21, ((2, 0),)).poly == x11 * x11 + (x11 * x12).smul(q * c)
    c2 = (one - t) / (one - t * q**2)
    assert E(C21, ((0, 2),)).poly == \
        x12 * x12 + x11.smul(c2) * x11 + (x11 * x12).smul((one + q) * c2)


def test_rank_one_monic_triangular_box():
    for n, ctx in ((2, C21), (3, C31)):
        for total in range(4):
            for mu in compositions(n, total):
                rec = E(ctx, (mu,))
                assert rec.poly.terms[mu].is_one()
                assert verify_triangular(ctx, mu, ())
                assert check_record(ctx, rec)


def test_long_word_stays_a_loop():
    # 1,200 letters, each one cached as it is passed
    clear_cache()
    ctx = RepContext(1, 1, 1)
    rec = E(ctx, ((1200,),))
    assert rec.poly == LaurentPoly.monomial(1, 1, 1, ((1200,),), ctx.scalar())
    assert rec.weight == (Scalar.q(1, 1, -1200),)
    assert E(ctx, ((1199,),)).weight == (Scalar.q(1, 1, -1199),)


def test_long_walk_stays_a_loop():
    # the coset word of (1500,) has 1500 letters; a recursion per letter
    # would pass Python's recursion limit
    ctx = RepContext(1, 1, 1)
    rec = E(ctx, ((1500,),))
    assert rec.poly == LaurentPoly.monomial(1, 1, 1, ((1500,),), ctx.scalar())
    assert rec.weight == (Scalar.q(1, 1, -1500),)


def test_negative_entries_reduce_along_omega_rank_one():
    # rank one: adding c(1,..,1) to the index is exactly the monomial shift
    assert E(C21, ((-1, 0),)).poly == \
        E(C21, ((0, 1),)).poly.mul_monomial((-1, -1))
    rec = E(C21, ((-2, 1),))
    assert check_record(C21, rec)
    assert multidegree(rec.poly) == (-1,)


# ---------------------------------------------------------------------------
# higher rank values


def test_rank_two_smallest_case():
    # n = 1: the walk is a single cycling step on each group
    ctx = RepContext(1, 2, 2)
    rec = E(ctx, ((1,), (1,)))
    expected = LaurentPoly.monomial(2, 1, 2, ((1,), (1,)), Scalar.q(2, 2, -1))
    assert rec.poly == expected
    assert check_record(ctx, rec)


def test_four_term_value_at_mixed_index():
    # the full record at ((0,1,0),(2,1,0)), verified by the direct
    # eigen-equation and the linear-algebra oracle before freezing
    ctx = RepContext(3, 2, 2)
    one = Scalar.one(2)
    t = Scalar.t(2)
    q1 = Scalar.q(1, 2)
    q2 = Scalar.q(2, 2)
    a = (one - t) / (one - q2 * t**2)
    b = (one - t) * q2**2 * t**2 / (q2**2 * t**2 - q1)

    def mono(g1, g2, c):
        return LaurentPoly(2, 3, 2, {tuple(g1) + tuple(g2): c})

    expected = (
        mono((0, 1, 0), (2, 0, 1), t)
        + mono((0, 1, 0), (1, 1, 1), a * q2 * t**2)
        + mono((1, 0, 0), (0, 2, 1), b)
        + mono((1, 0, 0), (1, 1, 1), b * a)
    )
    rec = E(ctx, ((0, 1, 0), (2, 1, 0)))
    assert rec.poly == expected
    assert check_record(ctx, rec)
    lead = max(expected.terms)
    oracle = eigen_oracle_Y(ctx, ((0, 1, 0), (2, 1, 0)))
    assert oracle.smul(expected.terms[lead] / oracle.terms[lead]) == expected


@pytest.mark.parametrize("n, r", [(3, 2), (2, 3)])
def test_later_components_build_as_in_lower_rank(n, r):
    # E at an index whose first ell components are zero lives in groups
    # ell+1..r and is E of the rest in rank r - ell, with q_i read as
    # q_{i+ell}; compared at fixed rational parameter values
    t_val = Fraction(2, 3)
    q_vals = (Fraction(3, 5), Fraction(5, 7), Fraction(7, 11))[:r]
    for ell in range(1, r):
        low = RepContext(n, r - ell, r - ell)
        for flat in itertools.product(range(3), repeat=n * (r - ell)):
            if sum(flat) > 3:
                continue
            beta = tuple(flat[i * n:(i + 1) * n] for i in range(r - ell))
            full = E(RepContext(n, r, r), ((0,) * n,) * ell + beta).poly
            assert all(not any(m[:ell * n]) for m in full.terms)
            got = {m[ell * n:]: c.evaluate(t_val, q_vals)
                   for m, c in full.terms.items()}
            want = {m: c.evaluate(t_val, q_vals[ell:])
                    for m, c in E(low, beta).poly.terms.items()}
            assert got == want


def test_records_are_cached():
    clear_cache()
    first = E(C22, ((1, 0), (0, 1)))
    assert E(C22, ((1, 0), (0, 1))) is first


# The reference: the walk over the whole coset word from the zeroed
# component, which was E's body before the walk started from the longest
# cached prefix.  Each step's record is built here, weighed by weight_of.
# Nonnegative indices only; nothing is cached.


def full_walk_E(ctx, mu_tuple):
    ell = next((i for i, comp in enumerate(mu_tuple, 1) if any(comp)), 0)
    if not ell:
        return ctx.one()
    index = mu_tuple[:ell - 1] + ((0,) * ctx.n,) + mu_tuple[ell:]
    cur = full_walk_E(ctx, index)
    for g in affine.coset_word(mu_tuple[ell - 1]):
        rec = MacdonaldRecord(index, cur, weight_of(ctx, index))
        cur = raise_step(ctx, ell, g, rec)
        index = index[:ell - 1] + (affine.act_gen(g, index[ell - 1]),) \
            + index[ell:]
    return cur


def _small_indices(n, r):
    """Every index with entries <= 2 and total <= 3, ascending."""
    return [tuple(flat[i * n:(i + 1) * n] for i in range(r))
            for flat in itertools.product(range(3), repeat=n * r)
            if sum(flat) <= 3]


def _chain(mu_tuple):
    """The indices the walk to mu passes, mu last."""
    ell = next(i for i, comp in enumerate(mu_tuple, 1) if any(comp))
    head, tail = mu_tuple[:ell - 1], mu_tuple[ell:]
    rows = [(0,) * len(mu_tuple[0])]
    for g in affine.coset_word(mu_tuple[ell - 1]):
        rows.append(affine.act_gen(g, rows[-1]))
    return [head + (row,) + tail for row in rows]


@pytest.mark.parametrize("n, r", [(3, 2), (2, 3)])
def test_E_matches_the_full_walk_in_any_order(n, r):
    ctx = RepContext(n, r, r)
    indices = _small_indices(n, r)
    want = {mu: MacdonaldRecord(mu, full_walk_E(ctx, mu), weight_of(ctx, mu))
            for mu in indices}
    shuffled = indices[:]
    random.Random(17).shuffle(shuffled)
    for order in (indices, indices[::-1], shuffled):
        clear_cache()
        for mu in order:
            assert E(ctx, mu) == want[mu]


def _count_raise_steps(monkeypatch):
    """The indices at which E calls raise_step from now on."""
    calls = []

    def counted(ctx, ell, g, rec):
        calls.append(rec.index)
        return raise_step(ctx, ell, g, rec)

    monkeypatch.setattr("dahamac.nonsym.raise_step", counted)
    return calls


def test_a_cold_build_caches_every_chain_index(monkeypatch):
    ctx = RepContext(3, 2, 2)
    calls = _count_raise_steps(monkeypatch)
    for mu in [((0, 1, 2), (0, 0, 0)), ((0, 0, 0), (2, 0, 1)),
               ((1, 0, 1), (0, 2, 0))]:
        clear_cache()
        E(ctx, mu)
        chain = _chain(mu)
        assert chain[-1] == mu and len(chain) > 2
        calls.clear()
        cached = {index: E(ctx, index) for index in chain}
        assert calls == []
        for index, rec in cached.items():
            clear_cache()
            assert E(ctx, index) == rec


def test_one_letter_down_cached_costs_one_raise_step(monkeypatch):
    ctx = RepContext(3, 2, 2)
    mu = ((0, 2, 1), (1, 0, 0))
    below = _chain(mu)[-2]
    clear_cache()
    E(ctx, below)
    calls = _count_raise_steps(monkeypatch)
    assert E(ctx, mu) == MacdonaldRecord(mu, full_walk_E(ctx, mu),
                                         weight_of(ctx, mu))
    assert calls == [below]


def test_each_new_record_is_weighed_once(monkeypatch):
    calls = []

    def counted(ctx, index):
        calls.append(index)
        return weight_of(ctx, index)

    monkeypatch.setattr("dahamac.nonsym.weight_of", counted)
    ctx = RepContext(3, 2, 2)
    clear_cache()
    for mu in [((0, 2, 1), (1, 0, 2)), ((3, 0, 1), (1, 0, 2)),
               ((-1, 1, 0), (2, -2, 0))]:
        before = set(nonsym._E_CACHE)
        calls.clear()
        E(ctx, mu)
        new = [index for key, index in nonsym._E_CACHE if key == ctx
               and (key, index) not in before]
        assert len(new) > 1
        assert sorted(calls) == sorted(new)


def test_index_shape_guards():
    with pytest.raises(ValueError):
        E(C22, ((1, 0),))
    with pytest.raises(ValueError):
        E(C22, ((1, 0), (1, 0, 0)))


def test_index_multidegree():
    assert index_multidegree(((1, 2), (0, 3))) == (3, 3)


# ---------------------------------------------------------------------------
# eigen oracles


C32 = RepContext(3, 2, 2)


def test_oracle_agrees_up_to_scale(oracle_cases):
    for ctx, mu in oracle_cases:
        rec = E(ctx, mu)
        oracle = eigen_oracle_Y(ctx, mu)
        lead = max(oracle.terms)
        ratio = rec.poly.terms[lead] / oracle.terms[lead]
        assert oracle.smul(ratio) == rec.poly


def test_the_oracle_runs_no_elimination(monkeypatch, oracle_cases):
    """On each oracle family exactly one position is free under the
    index's weight, so joint_left_kernel does not refuse the family;
    every check of its forward substitution holds, so it returns the
    one vector; and the oracle never calls rref."""
    want = []
    for ctx, mu in oracle_cases:
        poly = E(ctx, mu).poly
        want.append(poly.smul(poly.terms[min(poly.terms)].inv()))

    def unreachable(*args):
        raise AssertionError("unreachable")

    monkeypatch.setattr(linalg, "rref", unreachable)
    assert [eigen_oracle_Y(ctx, mu) for ctx, mu in oracle_cases] == want


def test_oracle_rejects_negative_indices():
    with pytest.raises(ValueError):
        eigen_oracle_Y(C21, ((-1, 0),))


# The reference: check_record before its chain ran on packed ints, with
# Y_i on Scalars and the weights compared as Scalars.


def scalar_check_record(ctx, rec):
    _, poly = clear_poly_denominators(rec.poly)
    n = ctx.n
    tops = {ell: max((e for m in poly.terms
                      for e in m[(ell - 1) * n:ell * n]), default=0)
            for ell in range(1, ctx.r + 1)}
    poly = poly.smul(ctx.scalar(q={ell: e for ell, e in tops.items()
                                   if e > 0}))
    for i in range(1, ctx.n + 1):
        if apply_Y(ctx, i, poly) != poly.smul(rec.weight[i - 1]):
            return False
    return multidegree(rec.poly) == index_multidegree(rec.index)


def _same_verdict(ctx, rec):
    """The verdict of check_record, asserted equal to the reference's."""
    verdict = check_record(ctx, rec)
    assert verdict == scalar_check_record(ctx, rec), rec.index
    return verdict


@pytest.mark.parametrize("n, r", [(4, 2), (3, 3)])
def test_packed_check_agrees_on_the_eigen_box(n, r):
    # every index of the benchmark's eigen workload
    ctx = RepContext(n, r, r)
    for mu in _small_indices(n, r):
        assert _same_verdict(ctx, E(ctx, mu))


CORRUPTIBLE = [(C22, ((1, 0), (0, 1))), (C22, ((0, 1), (1, 1))),
               (C32, ((0, 1, 0), (1, 0, 1))), (C32, ((1, 0, 1), (0, 1, 0)))]


def _corruptions(ctx, rec):
    terms = rec.poly.terms
    first = min(terms)
    doubled = dict(terms)
    doubled[first] = terms[first] + terms[first]
    huge = dict(terms)
    huge[first] = terms[first] + ctx.scalar(10 ** 40, t=1)
    dropped = {m: c for m, c in terms.items() if m != first}
    w = rec.weight
    flat = [0] * len(first)
    flat[0] = 1
    out = {
        "doubled": MacdonaldRecord(rec.index, LaurentPoly(
            rec.poly.r, rec.poly.n, rec.poly.k, doubled), w),
        "plus 10^40 t": MacdonaldRecord(rec.index, LaurentPoly(
            rec.poly.r, rec.poly.n, rec.poly.k, huge), w),
        "dropped": MacdonaldRecord(rec.index, LaurentPoly(
            rec.poly.r, rec.poly.n, rec.poly.k, dropped), w),
        "weights swapped": MacdonaldRecord(
            rec.index, rec.poly, (w[1], w[0]) + w[2:]),
        "times x11": MacdonaldRecord(
            rec.index, rec.poly.mul_monomial(tuple(flat)), w),
        "weight times q_1": MacdonaldRecord(
            rec.index, rec.poly, tuple(x * ctx.scalar(q={1: 1}) for x in w)),
    }
    # a weight entry that is not a monomial: the packed check's bound
    # covers its num and its den
    one_plus_t = ctx.scalar() + ctx.scalar(t=1)
    for i in range(len(w)):
        out[f"weight {i + 1} times 1 + t"] = MacdonaldRecord(
            rec.index, rec.poly, w[:i] + (w[i] * one_plus_t,) + w[i + 1:])
    return out


def test_check_record_rejects_corrupted_records():
    for ctx, mu in CORRUPTIBLE:
        rec = E(ctx, mu)
        assert _same_verdict(ctx, rec)
        # several terms, and some denominator for check_record to clear
        assert len(rec.poly.terms) >= 2
        assert any(c.den != {0: 1} for c in rec.poly.terms.values())
        for name, bad in _corruptions(ctx, rec).items():
            assert not _same_verdict(ctx, bad), (mu, name)
    rec = E(C22, ((1, 0), (0, 1)))
    wrong_weight = MacdonaldRecord(rec.index, rec.poly,
                                   weight_of(C22, ((0, 1), (0, 1))))
    assert not _same_verdict(C22, wrong_weight)


@pytest.mark.parametrize("ctx, mu", [
    (C22, ((-1, 0), (0, 2))),
    (C32, ((0, -1, 1), (2, -1, 0))),
    (RepContext(2, 3, 3), ((1, -2), (0, 0), (-1, 1))),
])
def test_check_record_accepts_negative_entries(ctx, mu):
    # rows whose largest exponent is 0 or negative charge no q power
    assert _same_verdict(ctx, E(ctx, mu))


def test_check_record_accepts_a_scaled_record():
    for ctx, mu in CORRUPTIBLE:
        rec = E(ctx, mu)
        t, one = ctx.scalar(t=1), ctx.scalar()
        c = (one + t * ctx.scalar(q={1: 1})) / (one - ctx.scalar(q={2: 1}))
        scaled = MacdonaldRecord(rec.index, rec.poly.smul(c), rec.weight)
        assert _same_verdict(ctx, scaled), mu


def _wrong_weight(rec, i, h):
    """rec with h added to its i-th weight entry."""
    w = list(rec.weight)
    w[i] = w[i] + h
    return MacdonaldRecord(rec.index, rec.poly, tuple(w))


def test_packed_check_rejects_what_one_bit_less_would_accept():
    # E is one monomial, so c E has 1-norm 1, and a wrong weight
    # w + 2^(B-1) - t makes den Y(cE) - num cE = -(2^(B-1) - t) den cE:
    # a polynomial that vanishes at t = 2^(B-1), the packing with one
    # bit less.  B depends on the record, so the wrong weight is searched
    # for the B that its own record gets.
    ctx = C22
    rec = E(ctx, ((1, 0), (0, 0)))
    assert len(rec.poly.terms) == 1
    for bits in range(8, 40):
        bad = _wrong_weight(rec, 0, ctx.scalar(2 ** (bits - 1))
                            - ctx.scalar(t=1))
        ring, _ = _pack_record(ctx, bad)
        if ring.bits == bits:
            break
    else:
        pytest.fail("no width is its own record's width")
    assert not _same_verdict(ctx, bad)


def test_packed_check_rejects_what_a_shorter_t_radix_would_accept():
    # a wrong weight w + t^T - q_1, with T the t-degree the record's ring
    # makes room for: t^T and q_1 pack alike when t has T digits, not
    # T + 1.  E is one monomial free of t, and the weight's den is free
    # of t, so T = max(n - 1, deg_t of the wrong num) = the chosen T.
    ctx = C22
    rec = E(ctx, ((1, 0), (0, 0)))
    T = ctx.n + 1
    bad = _wrong_weight(rec, 0, ctx.scalar(t=T) - ctx.scalar(q={1: 1}))
    ring, _ = _pack_record(ctx, bad)
    assert ring.pack(ctx.scalar(t=T)) != ring.pack(ctx.scalar(q={1: 1}))
    assert not _same_verdict(ctx, bad)


# ---------------------------------------------------------------------------
# raising moves


def test_pi_move():
    assert knop_sahi_check(C21, ((1, 0),), ("pi",))
    assert knop_sahi_check(C21, ((0, 2),), ("pi",))
    assert knop_sahi_check(C22, ((1, 0), (0, 1)), ("pi",))


def test_s_move():
    assert knop_sahi_check(C21, ((1, 0),), ("s", 1, 1))
    # second component moved under an s_1-fixed first component
    assert knop_sahi_check(C22, ((1, 1), (1, 0)), ("s", 1, 2))


def test_s_move_hypothesis_violations():
    with pytest.raises(ValueError, match="row not raised"):
        # lowering instead of raising
        knop_sahi_check(C21, ((0, 1),), ("s", 1, 1))
    with pytest.raises(ValueError, match="earlier row not s_j-fixed"):
        # earlier component not s_1-fixed
        knop_sahi_check(C22, ((1, 0), (1, 0)), ("s", 1, 2))


# The reference: acceptance 05's enumeration of the moves, on its box.


def acceptance_05_moves(n, r, mu):
    moves = [("pi",)]
    gamma, _ = affine.gamma_sigma(mu)
    for ell in range(1, r + 1):
        for j in range(1, n):
            if any(affine.act_gen(j, gamma[i]) != gamma[i]
                   for i in range(ell - 1)):
                continue
            moved = affine.act_gen(j, gamma[ell - 1])
            if not affine.bruhat_less(gamma[ell - 1], moved):
                continue
            moves.append(("s", j, ell))
    for j in range(1, r + 1):
        for c in (-1, 1):
            moves.append(("shift", j, c))
    return moves


@pytest.mark.parametrize("n, r", itertools.product((1, 2, 3), (1, 2)))
def test_knop_sahi_moves_match_acceptance_05(n, r):
    ctx = RepContext(n, r, r)
    for flat in itertools.product(range(3), repeat=n * r):
        if sum(flat) > 3:
            continue
        mu = tuple(flat[i * n:(i + 1) * n] for i in range(r))
        moves = knop_sahi_moves(ctx, mu)
        expected = acceptance_05_moves(n, r, mu)
        # the same moves; the shifts come +1 first
        assert sorted(moves) == sorted(expected), mu
        assert moves[:-2 * r] == expected[:-2 * r], mu
        assert len(set(moves)) == len(moves)
        # every s-move listed passes knop_sahi_check's hypotheses
        for move in moves:
            if move[0] == "s":
                assert knop_sahi_check(ctx, mu, move), (mu, move)


def test_shift_move_rank_one():
    for mu in [((0, 0),), ((1, 0),), ((0, 2),)]:
        assert knop_sahi_check(C21, mu, ("shift", 1, 1))
        assert knop_sahi_check(C21, mu, ("shift", 1, -1))


def test_shift_move_rank_two_needs_other_components_constant():
    # the move checks the q-corrected shift; its factor is 1 when every
    # other component has total degree zero, and a nontrivial
    # q-monomial (shift_factor) otherwise
    assert knop_sahi_check(C22, ((1, 0), (0, 0)), ("shift", 1, 1))
    assert knop_sahi_check(C22, ((0, 0), (1, 0)), ("shift", 2, 1))
    for c in (1, -1):
        assert knop_sahi_check(C22, ((1, 0), (1, 0)), ("shift", 1, c))
        assert knop_sahi_check(C22, ((0, 1), (2, 0)), ("shift", 2, c))
        assert not shift_factor(C22, ((1, 0), (1, 0)), 1, c).is_one()


@pytest.mark.parametrize("j", [0, 2, -1, 5])
def test_s_move_rejects_generator_index(j):
    # checked before gamma's rows are moved: n = 2 has s_1 alone
    with pytest.raises(ValueError, match="generator index out of range"):
        knop_sahi_check(C22, ((1, 0), (0, 1)), ("s", j, 1))


@pytest.mark.parametrize("j", [0, 3, -1])
def test_shift_move_rejects_component_index(j):
    # checked before mu[j - 1] is read: j = 0 would read mu[-1]
    with pytest.raises(ValueError, match="component index out of range"):
        knop_sahi_check(C22, ((1, 0), (0, 1)), ("shift", j, 1))


@pytest.mark.parametrize("move", [("s", 1.0, 1), ("s", 1, 1.0),
                                  ("shift", 1, 0.5), ("s", True, 1),
                                  ("shift", 1, True)])
def test_moves_read_their_integers_as_integers(move):
    # a float or a bool is no integer, here as everywhere the package
    # reads one
    with pytest.raises(ValueError, match="expected an integer"):
        knop_sahi_check(C22, ((1, 0), (0, 1)), move)


def test_shift_factor_values():
    q2inv = Scalar.q(2, 2, -1)
    assert shift_factor(C22, ((0, 0), (1, 0)), 1, 1) == q2inv
    assert shift_factor(C22, ((1, 0), (0, 0)), 2, 1) == q2inv
    assert shift_factor(C22, ((1, 0), (0, 0)), 1, 1) == Scalar.one(2)
    assert shift_factor(C21, ((2, 1),), 1, -1) == Scalar.one(1)


def test_shift_factor_inverts_with_sign():
    mu = ((1, 0), (2, 0))
    for j in (1, 2):
        assert shift_factor(C22, mu, j, 1) * shift_factor(C22, mu, j, -1) == \
            Scalar.one(2)


@given(st.data())
def test_omega_shift_by_minus_c_undoes_c(data):
    n, r = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    ctx = RepContext(n, r, r)
    entries = st.integers(-2, 2)
    mu = tuple(tuple(data.draw(entries) for _ in range(n))
               for _ in range(r))
    j, c = data.draw(st.integers(1, r)), data.draw(entries)
    terms = data.draw(st.dictionaries(
        st.tuples(*[entries] * (n * r)),
        st.tuples(st.integers(1, 5), st.integers(0, 2)), max_size=3))
    p = LaurentPoly(r, n, r, {m: ctx.scalar(a, t=b)
                              for m, (a, b) in terms.items()})
    shifted = mu[:j - 1] + (tuple(e + c for e in mu[j - 1]),) + mu[j:]
    assert omega_shift(ctx, shifted, j, -c, omega_shift(ctx, mu, j, c, p)) \
        == p


def test_corrected_shift_identity():
    # E at the omega-shifted index equals shift_factor times the
    # monomial multiple, for every index in a small box and both signs
    for m1 in itertools.product(range(2), repeat=2):
        for m2 in itertools.product(range(2), repeat=2):
            mu = (m1, m2)
            for j in (1, 2):
                for c in (1, -1):
                    shifted = tuple(
                        tuple(e + c for e in comp) if jj == j - 1 else comp
                        for jj, comp in enumerate(mu))
                    flat = [0] * 4
                    flat[(j - 1) * 2] = flat[(j - 1) * 2 + 1] = c
                    expected = E(C22, mu).poly.mul_monomial(tuple(flat)) \
                        .smul(shift_factor(C22, mu, j, c))
                    assert E(C22, shifted).poly == expected


# ---------------------------------------------------------------------------
# triangularity


# The reference: verify_triangular before T_mu went through
# rep.apply_operator_expr, with its own loop over the coset word and
# rank-(r-1) group-1 coefficients.  It reads E through the module, so
# a patched nonsym.E reaches it too.


def reference_t_mu_apply(ctx, mu, p):
    for g in affine.coset_word(mu):
        p = apply_pi(ctx, p) if g == affine.PI else apply_T(ctx, g, p)
    return p


def reference_coefficient_of_group1(p, mu):
    return LaurentPoly(p.r - 1, p.n, p.k, {m[p.n:]: c
                                           for m, c in p.terms.items()
                                           if m[:p.n] == tuple(mu)})


def reference_triangular(ctx, mu, beta_tuple):
    zero_row = (0,) * ctx.n
    full = nonsym.E(ctx, (mu,) + beta_tuple).poly
    block = reference_t_mu_apply(
        ctx, mu, nonsym.E(ctx, (zero_row,) + beta_tuple).poly)
    if reference_coefficient_of_group1(full, mu) != \
            reference_coefficient_of_group1(block, zero_row):
        return False
    return all(row == mu or affine.bruhat_less(row, mu)
               for row in {m[:ctx.n] for m in full.terms})


@pytest.mark.parametrize("n, r", [(1, 2), (2, 2), (1, 1), (2, 1), (3, 1)])
def test_triangular_matches_the_reference_on_a_box(n, r):
    ctx = RepContext(n, r, r)
    for flat in itertools.product(range(3), repeat=n * r):
        mu = tuple(flat[i * n:(i + 1) * n] for i in range(r))
        verdict = verify_triangular(ctx, mu[0], mu[1:])
        assert verdict == reference_triangular(ctx, mu[0], mu[1:]), mu
        assert verdict, mu


def _row_not_below(mu):
    """A row other than mu that is not Bruhat-below it: a rearrangement
    of mu where one is, else mu with its first entry raised."""
    for row in sorted(set(itertools.permutations(mu))):
        if row != mu and not affine.bruhat_less(row, mu):
            return row
    return (mu[0] + 1,) + mu[1:]


def _corrupted_leads(ctx, mu, beta_tuple):
    """E((mu, beta))'s polynomial with one group-1 lead coefficient
    scaled by t, and with a term added whose group-1 row is not
    Bruhat-below mu."""
    n, poly = ctx.n, E(ctx, (mu,) + beta_tuple).poly
    lead = min(m for m in poly.terms if m[:n] == mu)
    scaled = dict(poly.terms)
    scaled[lead] = scaled[lead] * ctx.scalar(t=1)
    extra = _row_not_below(mu) + lead[n:]
    assert extra not in poly.terms
    return [LaurentPoly(ctx.r, n, ctx.k, scaled),
            poly + LaurentPoly(ctx.r, n, ctx.k, {extra: ctx.scalar()})]


@pytest.mark.parametrize("ctx, mu, beta", [
    (C22, (1, 0), ((0, 1),)), (C22, (0, 2), ((1, 1),)),
    (C21, (1, 2), ()), (C31, (0, 1, 1), ()), (C31, (2, 0, 1), ())])
def test_triangular_rejects_corrupted_records(monkeypatch, ctx, mu, beta):
    index = (mu,) + beta
    real = nonsym.E
    for poly in _corrupted_leads(ctx, mu, beta):
        def patched(ctx_, mu_tuple, poly=poly):
            rec = real(ctx_, mu_tuple)
            if ctx_ == ctx and rec.index == index:
                return MacdonaldRecord(rec.index, poly, rec.weight)
            return rec

        monkeypatch.setattr(nonsym, "E", patched)
        assert not verify_triangular(ctx, mu, beta)
        assert not reference_triangular(ctx, mu, beta)
        monkeypatch.setattr(nonsym, "E", real)
        assert verify_triangular(ctx, mu, beta)


def test_triangular_box_rank_two():
    for m1 in itertools.product(range(2), repeat=2):
        for m2 in itertools.product(range(2), repeat=2):
            assert verify_triangular(C22, m1, (m2,))


def test_triangular_rejects_negative_leading_index():
    with pytest.raises(ValueError):
        verify_triangular(C21, (-1, 0), ())


def test_triangular_rejects_non_integer_entries():
    with pytest.raises(ValueError):
        verify_triangular(C21, (1.0, 0), ())
    with pytest.raises(ValueError):
        verify_triangular(C22, (1, 0), ((0, 0.5),))


def test_direct_eigen_equations():
    mu = ((1, 0), (0, 1))
    rec = E(C22, mu)
    for i in (1, 2):
        assert apply_Y(C22, i, rec.poly) == rec.poly.smul(rec.weight[i - 1])
