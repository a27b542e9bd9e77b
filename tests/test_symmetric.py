"""Hecke-invariant polynomials, spherical eigenvalues, spectra."""

from __future__ import annotations

import ast
import importlib
from collections import Counter
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

import pytest

from dahamac import nonsym
from dahamac.affine import gamma_inverse
from dahamac.field import Scalar
from dahamac.laurent import LaurentPoly
from dahamac.nonsym import E, clear_cache, eigen_oracle_Y, weight_of
from dahamac.rep import RepContext, apply_T, apply_Delta_n, symmetrize_eps
from dahamac.symmetric import (
    P,
    delta_eigenvalue,
    enumerate_orbit_indices,
    is_orbit_index,
    verify_spectrum,
)

C21 = RepContext(2, 1, 1)
C22 = RepContext(2, 2, 2)


# ---------------------------------------------------------------------------
# orbit indices


def test_is_orbit_index_rank_one_is_partition():
    assert is_orbit_index(((2, 1),))
    assert is_orbit_index(((1, 1),))
    assert not is_orbit_index(((1, 2),))
    assert not is_orbit_index(((0, 1),))


def test_is_orbit_index_columns_lex():
    # columns (2,0) >= (1,1) even though the second level increases
    assert is_orbit_index(((2, 1), (0, 1)))
    assert not is_orbit_index(((1, 1), (0, 1)))
    assert is_orbit_index(((1, 0), (0, 1)))
    assert not is_orbit_index(((0, 1), (1, 0)))


def test_is_orbit_index_cumulative_tiebreak():
    # equal first and second levels, third decides
    assert is_orbit_index(((1, 1), (2, 2), (3, 1)))
    assert not is_orbit_index(((1, 1), (2, 2), (1, 3)))


def test_enumerate_orbit_indices():
    assert enumerate_orbit_indices(2, 1, (2,)) == [((1, 1),), ((2, 0),)]
    assert enumerate_orbit_indices(3, 1, (2,)) == [((1, 1, 0),), ((2, 0, 0),)]
    assert enumerate_orbit_indices(2, 2, (1, 1)) == \
        [((1, 0), (0, 1)), ((1, 0), (1, 0))]
    with pytest.raises(ValueError):
        enumerate_orbit_indices(2, 2, (1,))
    for n, r in ((2, 2), (3, 2), (2, 3), (4, 1)):
        for d in product(range(3), repeat=r):
            listed = enumerate_orbit_indices(n, r, d)
            assert listed == sorted(listed) and len(set(listed)) == \
                len(listed)


def test_orbit_enumeration_covers_sorted_orbits():
    # every composition pair sorts into exactly one enumerated index
    listed = set(enumerate_orbit_indices(2, 2, (2, 1)))
    found = set()
    for a in [(0, 2), (1, 1), (2, 0)]:
        for b in [(0, 1), (1, 0)]:
            cols = sorted(zip(a, b), reverse=True)
            found.add(tuple(zip(*cols)))
    assert found == listed


# ---------------------------------------------------------------------------
# values


def test_rank_one_values():
    one = Scalar.one(1)
    x11 = LaurentPoly.monomial(1, 2, 1, ((1, 0),), one)
    x12 = LaurentPoly.monomial(1, 2, 1, ((0, 1),), one)
    t = Scalar.t(1)
    q = Scalar.q(1, 1)

    assert P(C21, ((1, 1),)).poly == x11 * x12
    c = (one + q) * (one - t) / (one - t * q)
    assert P(C21, ((2, 0),)).poly == \
        x11 * x11 + x12 * x12 + (x11 * x12).smul(c)


def test_rank_two_values():
    one = Scalar.one(2)
    t = Scalar.t(2)
    q2 = Scalar.q(2, 2)

    def mono(flat, c):
        return LaurentPoly(2, 2, 2, {flat: c})

    # each value is monic at its index exponent x^nu, the top monomial
    # of the E it symmetrizes
    a = (t + one) * (t * q2 - one) / ((t * t - one) * q2)
    got = P(C22, ((1, 0), (1, 0))).poly
    expected = (
        mono((1, 0, 1, 0), one)
        + mono((1, 0, 0, 1), a.inv())
        + mono((0, 1, 0, 1), one)
        + mono((0, 1, 1, 0), (t + one) / ((t + one) * q2 * a))
    )
    assert got == expected

    got = P(C22, ((1, 0), (0, 1))).poly
    assert got == mono((1, 0, 0, 1), one) + mono((0, 1, 1, 0), t)


def test_P_rejects_non_orbit_index():
    with pytest.raises(ValueError):
        P(C21, ((0, 1),))
    with pytest.raises(ValueError):
        P(C22, ((1, 1), (0, 1)))


@pytest.mark.parametrize("nu", [((2.0, 1),), ((True, 0),), ((1.5, 0),)])
def test_P_rejects_non_integer_entries(nu):
    with pytest.raises(ValueError):
        P(C21, nu)


def test_P_is_hecke_invariant_and_eigen():
    for nu in [((2, 0),), ((2, 1),)]:
        rec = P(C21, nu)
        assert apply_T(C21, 1, rec.poly) == rec.poly
        assert apply_Delta_n(C21, rec.poly) == rec.poly.smul(rec.eigenvalue)
    rec = P(C22, ((1, 0), (0, 1)))
    assert apply_T(C22, 1, rec.poly) == rec.poly
    assert apply_Delta_n(C22, rec.poly) == rec.poly.smul(rec.eigenvalue)


def test_P_equals_symmetrized_E_up_to_scale():
    # P(nu) is eps E(gamma_inverse(nu)) divided by its x^nu coefficient
    for ctx, degrees in ((C21, ((2,),)),
                         (RepContext(3, 1, 1), ((1,), (2,), (3,))),
                         (RepContext(3, 2, 2), ((1, 1), (2, 1), (1, 2))),
                         (RepContext(2, 3, 3), ((1, 1, 1), (0, 2, 1)))):
        for d in degrees:
            for nu in enumerate_orbit_indices(ctx.n, ctx.r, d):
                sym = symmetrize_eps(ctx, E(ctx, gamma_inverse(nu)).poly)
                lead = sym.terms[tuple(e for comp in nu for e in comp)]
                assert P(ctx, nu).poly == sym.smul(lead.inv())


def _schur(shape, n):
    """s_shape(x_1..x_n) as {exponent tuple: coefficient}: the Kostka
    number K_(shape, alpha) at x^alpha, counted as the semistandard
    tableaux of the shape with entries <= n and content alpha."""
    cells = [(i, j) for i, length in enumerate(shape) for j in range(length)]
    out = Counter()

    def fill(k, tab):
        if k == len(cells):
            out[tuple(list(tab.values()).count(e)
                      for e in range(1, n + 1))] += 1
            return
        i, j = cells[k]
        # rows weakly increase, columns strictly increase
        for v in range(max(tab.get((i, j - 1), 1),
                           tab.get((i - 1, j), 0) + 1), n + 1):
            tab[i, j] = v
            fill(k + 1, tab)
            del tab[i, j]

    fill(0, {})
    return dict(out)


def _rank_one_partitions():
    """(n, lambda) for n <= 4 and |lambda| <= 4, lambda padded with
    zeros to n parts: 37 pairs."""
    for n in (1, 2, 3, 4):
        for lam in product(range(5), repeat=n):
            if sum(lam) <= 4 and list(lam) == sorted(lam, reverse=True):
                yield n, lam


def test_P_at_q_equal_t_is_the_schur_polynomial():
    # Macdonald, Symmetric Functions and Hall Polynomials, ch. VI, §4:
    # P_lambda(x; t, t) = s_lambda(x); checked numerically at rank 1
    count = 0
    for n, lam in _rank_one_partitions():
        want = _schur([p for p in lam if p], n)
        poly = P(RepContext(n, 1, 1), (lam,)).poly
        for t in (Fraction(2, 3), Fraction(-5, 2)):
            got = {m: c.evaluate(t, [t]) for m, c in poly.terms.items()}
            assert {m: c for m, c in got.items() if c} == want, (lam, t)
        count += 1
    assert count == 37


def test_P_at_t_equal_1_is_the_monomial_symmetric_polynomial():
    # Macdonald, Symmetric Functions and Hall Polynomials, ch. VI, §4:
    # P_lambda(x; q, 1) = m_lambda(x), the sum of x^alpha over the
    # distinct rearrangements alpha of lambda; checked at rank 1
    count = 0
    for n, lam in _rank_one_partitions():
        want = dict.fromkeys(set(permutations(lam)), 1)
        poly = P(RepContext(n, 1, 1), (lam,)).poly
        for q in (Fraction(2, 3), Fraction(-5, 2)):
            got = {m: c.evaluate(1, [q]) for m, c in poly.terms.items()}
            assert {m: c for m, c in got.items() if c} == want, (lam, q)
        count += 1
    assert count == 37


def _hall_littlewood(sympy, lam, t):
    """P_lam(x_1..x_n; t) as {exponent tuple: Fraction}, by the
    symmetrisation formula (Macdonald, ch. III, (2.2)):

        P_lam = 1 / v_lam(t) * sum over w in S_n of
                w(x^lam prod_{i<j} (x_i - t x_j) / (x_i - x_j)),

    v_lam(t) = prod over the multiplicities m of lam's parts, 0
    included, of prod_{j=1..m} (1 - t^j) / (1 - t).  The Vandermonde
    prod_{i<j} (x_i - x_j) changes sign with w, so the sum is the
    alternant of x^lam prod_{i<j} (x_i - t x_j) divided by it."""
    n = len(lam)
    xs = sympy.symbols(f"x1:{n + 1}")
    t = sympy.Rational(t.numerator, t.denominator)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    base = sympy.Mul(*(x ** e for x, e in zip(xs, lam)),
                     *(xs[i] - t * xs[j] for i, j in pairs))
    alternant = 0
    for w in permutations(range(n)):
        sign = (-1) ** sum(w[i] > w[j] for i, j in pairs)
        alternant += sign * base.subs({xs[i]: xs[w[i]] for i in range(n)},
                                      simultaneous=True)
    vandermonde = sympy.Mul(*(xs[i] - xs[j] for i, j in pairs))
    quo, rem = sympy.div(sympy.Poly(alternant, *xs),
                         sympy.Poly(vandermonde, *xs))
    assert rem.is_zero
    v = sympy.Integer(1)
    for part in set(lam):
        for j in range(1, lam.count(part) + 1):
            v *= (1 - t ** j) / (1 - t)
    return {m: Fraction(int(c.p), int(c.q))
            for m, c in ((m, c / v) for m, c in quo.terms()) if c}


def test_P_at_q_equal_0_is_the_hall_littlewood_polynomial():
    # Macdonald, Symmetric Functions and Hall Polynomials, ch. VI, §4:
    # P_lambda(x; 0, t) = P_lambda(x; t); checked at rank 1 against the
    # symmetrisation formula, worked out in SymPy
    sympy = pytest.importorskip("sympy")
    count = 0
    for n, lam in _rank_one_partitions():
        if n > 3:
            continue
        poly = P(RepContext(n, 1, 1), (lam,)).poly
        for t in (Fraction(2, 3), Fraction(-5, 2)):
            got = {m: c.evaluate(t, [0]) for m, c in poly.terms.items()}
            assert {m: c for m, c in got.items() if c} == \
                _hall_littlewood(sympy, lam, t), (lam, t)
        count += 1
    assert count == 25


# ---------------------------------------------------------------------------
# the symmetrizer against its definition


def _reduced_words(n):
    """One reduced word of each permutation of 1..n, from bubble sort:
    every swap removes one inversion, so the word length is l(w)."""
    for perm in permutations(range(n)):
        w, word = list(perm), []
        for _ in range(n):
            for i in range(n - 1):
                if w[i] > w[i + 1]:
                    w[i], w[i + 1] = w[i + 1], w[i]
                    word.append(i + 1)
        yield word


def _eps_by_definition(ctx, p):
    """sum_w t^-l(w) T_w p / sum_w t^-l(w), T_w from a reduced word."""
    total, norm = ctx.zero(), Scalar.zero(ctx.k)
    for word in _reduced_words(ctx.n):
        cur = p
        for j in reversed(word):
            cur = apply_T(ctx, j, cur)
        weight = Scalar.t(ctx.k, -len(word))
        total = total + cur.smul(weight)
        norm = norm + weight
    return total.smul(norm.inv())


def test_reduced_words_cover_the_group():
    words = list(_reduced_words(4))
    assert len(words) == 24
    lengths = sorted(len(w) for w in words)
    # Poincare polynomial of S_4: (1)(1+t)(1+t+t^2)(1+t+t^2+t^3)
    assert [lengths.count(e) for e in range(7)] == [1, 3, 5, 6, 5, 3, 1]


@pytest.mark.parametrize("ctx, mu", [
    (RepContext(2, 1, 1), ((2, -1),)),
    (RepContext(3, 1, 1), ((1, 0, 2),)),
    (RepContext(4, 1, 1), ((0, 1, 0, 1),)),
    (RepContext(2, 2, 2), ((0, 1), (1, 0))),
    (RepContext(3, 2, 2), ((0, 1, 0), (1, 0, 0))),
    (RepContext(3, 2, 3), ((0, 0, 1), (-1, 0, 0))),
])
def test_eps_matches_definition_on_E(ctx, mu):
    p = E(ctx, mu).poly
    assert any(len(c.den) > 1 for c in p.terms.values())
    assert symmetrize_eps(ctx, p) == _eps_by_definition(ctx, p)


@pytest.mark.parametrize("ctx, rows", [
    (RepContext(3, 1, 1), ((-1, 2, 0),)),
    (RepContext(4, 1, 2), ((1, -2, 0, 1),)),
    (RepContext(2, 2, 2), ((-1, 0), (1, -1))),
    (RepContext(3, 2, 2), ((0, -1, 1), (-2, 0, 0))),
])
def test_eps_matches_definition_on_laurent_input(ctx, rows):
    coeff = Scalar.t(ctx.k, -1) + Scalar.q(1, ctx.k)
    p = LaurentPoly.monomial(ctx.r, ctx.n, ctx.k, rows, coeff)
    p = p + LaurentPoly.monomial(ctx.r, ctx.n, ctx.k,
                                 [row[::-1] for row in rows],
                                 Scalar.t(ctx.k, 2).inv())
    assert symmetrize_eps(ctx, p) == _eps_by_definition(ctx, p)


def test_eps_monic_at_needs_the_term():
    with pytest.raises(ArithmeticError):
        symmetrize_eps(C21, C21.one(), monic_at=(1, 0))


# ---------------------------------------------------------------------------
# the P memo


def test_P_records_are_cached():
    clear_cache()
    first = P(C22, ((1, 0), (0, 1)))
    assert P(C22, ((1, 0), (0, 1))) is first
    # the key is the normalised index
    assert P(C22, [[1, 0], [0, 1]]) is first
    assert len(nonsym._P_CACHE) == 1


def test_P_cache_keys_do_not_collide():
    clear_cache()
    cases = [(RepContext(3, 2, 2), ((1, 0, 0), (0, 1, 0))),
             (RepContext(4, 2, 2), ((1, 0, 0, 0), (0, 1, 0, 0))),
             (RepContext(3, 2, 3), ((1, 0, 0), (0, 1, 0)))]
    recs = [P(ctx, nu) for ctx, nu in cases]
    assert len(nonsym._P_CACHE) == 3
    for (ctx, nu), rec in zip(cases, recs):
        assert rec.index == nu
        assert (rec.poly.r, rec.poly.n, rec.poly.k) == (ctx.r, ctx.n, ctx.k)
        assert P(ctx, nu) is rec
    clear_cache()
    for (ctx, nu), rec in zip(cases, recs):
        fresh = P(ctx, nu)
        assert fresh is not rec and fresh == rec


def test_P_cache_holds_only_valid_records():
    clear_cache()
    with pytest.raises(ValueError):
        P(C21, ((0, 1),))
    assert not nonsym._P_CACHE


def test_clear_cache_empties_every_cache():
    P(C22, ((1, 0), (0, 1)))
    eigen_oracle_Y(C22, ((1, 0), (0, 0)))
    assert nonsym._E_CACHE and nonsym._P_CACHE and nonsym._YMAT_CACHE
    clear_cache()
    assert not (nonsym._E_CACHE or nonsym._P_CACHE or nonsym._YMAT_CACHE)


def _local_imports(name):
    """The dahamac modules that module dahamac.<name> imports."""
    tree = ast.parse(Path(importlib.import_module(
        f"dahamac.{name}").__file__).read_text())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out |= ({node.module} if node.module
                    else {alias.name for alias in node.names})
    return out


def test_nonsym_does_not_import_symmetric():
    # the P memo lives in nonsym so that clear_cache reaches it without
    # a cycle through symmetric
    seen, todo = set(), ["nonsym"]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(_local_imports(name))
    assert "rep" in seen and "symmetric" not in seen
    assert "nonsym" in _local_imports("symmetric")


# ---------------------------------------------------------------------------
# eigenvalues


def eigenvalue_at(ctx, mu):
    """delta_eigenvalue of E(mu)'s weight, read at the E label mu."""
    return delta_eigenvalue(ctx, weight_of(ctx, mu))


def test_delta_eigenvalue_closed_form():
    one = Scalar.one(1)
    t = Scalar.t(1)
    q = Scalar.q(1, 1)
    assert eigenvalue_at(C21, ((2, 0),)) == q**-2 - one
    assert eigenvalue_at(C21, ((1, 1),)) == \
        (q.inv() - one) + (q.inv() - one) * t
    assert eigenvalue_at(C21, ((0, 0),)).is_zero()


def test_delta_eigenvalue_rank_two():
    one = Scalar.one(2)
    t = Scalar.t(2)
    q1 = Scalar.q(1, 2)
    q2 = Scalar.q(2, 2)
    assert eigenvalue_at(C22, ((1, 0), (1, 0))) == \
        (q2.inv() - one) + (q1.inv() - one) * t
    assert eigenvalue_at(C22, ((1, 0), (0, 1))) == \
        ((q1 * q2).inv() - one)


def test_P_reads_its_eigenvalue_off_the_weight_of_its_E():
    # P sums the weight on its E's record; the closed form at the E
    # label gamma_inverse(nu) recomputes that weight
    for ctx, d in [(C21, (2,)), (C22, (1, 1)), (RepContext(3, 2, 2), (2, 1))]:
        for nu in enumerate_orbit_indices(ctx.n, ctx.r, d):
            assert P(ctx, nu).eigenvalue == \
                eigenvalue_at(ctx, gamma_inverse(nu))


def test_eigenvalue_insensitive_to_diagonal_reordering():
    # the closed form reads the sorted index, so any column order of
    # the same multiset gives the same value
    assert eigenvalue_at(C21, ((0, 2),)) == eigenvalue_at(C21, ((2, 0),))


# ---------------------------------------------------------------------------
# spectra


def test_spectrum_rank_one():
    rep = verify_spectrum(C21, 2, 1, (2,))
    assert rep["ok"]
    assert rep["distinct"]
    assert rep["count"] == 2 and rep["eps_dim"] == 2
    assert all(row["ok"] for row in rep["indices"])


def test_spectrum_rank_two():
    rep = verify_spectrum(C22, 2, 2, (1, 1))
    assert rep["ok"]
    assert rep["count"] == 2 and rep["count_matches_dim"]


def test_spectrum_builds_default_context():
    rep = verify_spectrum(None, 2, 1, (1,))
    assert rep["ok"] and rep["count"] == 1


def test_spectrum_context_mismatch():
    with pytest.raises(ValueError):
        verify_spectrum(C21, 3, 1, (1,))


def test_spectrum_collision_three_variables():
    # the two orbit indices of this component lie in the two diagonal
    # weight classes once each P symmetrizes the E whose top monomial
    # is x^nu, so the eigenvalues are distinct and the report is ok
    rep = verify_spectrum(None, 3, 2, (1, 1))
    assert rep["ok"]
    assert rep["distinct"]
    assert all(row["ok"] for row in rep["indices"])
    assert rep["count"] == 2 and rep["count_matches_dim"]
    pair = [row["index"] for row in rep["indices"]]
    assert pair == [((1, 0, 0), (0, 1, 0)), ((1, 0, 0), (1, 0, 0))]
    ctx = RepContext(3, 2, 2)
    assert P(ctx, pair[0]).eigenvalue != P(ctx, pair[1]).eigenvalue
    assert P(ctx, pair[0]).poly != P(ctx, pair[1]).poly
    # read as E labels the two indices share a weight class and so a
    # spherical eigenvalue, although their E's and weights differ
    assert eigenvalue_at(ctx, pair[0]) == eigenvalue_at(ctx, pair[1])
    assert E(ctx, pair[0]).poly != E(ctx, pair[1]).poly
    assert weight_of(ctx, pair[0]) != weight_of(ctx, pair[1])

