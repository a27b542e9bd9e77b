"""Hecke-invariant polynomials, spherical eigenvalues, spectra."""

from __future__ import annotations

import pytest

from dahamac.field import Scalar
from dahamac.laurent import LaurentPoly
from dahamac.nonsym import E, weight_of
from dahamac.rep import RepContext, apply_T, apply_Delta_n, symmetrize_eps
from dahamac.symmetric import (
    P,
    delta_eigenvalue,
    enumerate_orbit_indices,
    is_orbit_index,
    paper_normalization,
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
    x11 = LaurentPoly.var(1, 2, 1, 1, 1)
    x12 = LaurentPoly.var(1, 2, 1, 1, 2)
    one = Scalar.one(1)
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


def test_P_is_hecke_invariant_and_eigen():
    for nu in [((2, 0),), ((2, 1),)]:
        rec = P(C21, nu)
        assert apply_T(C21, 1, rec.poly) == rec.poly
        assert apply_Delta_n(C21, rec.poly) == rec.poly.smul(rec.eigenvalue)
    rec = P(C22, ((1, 0), (0, 1)))
    assert apply_T(C22, 1, rec.poly) == rec.poly
    assert apply_Delta_n(C22, rec.poly) == rec.poly.smul(rec.eigenvalue)


def test_P_equals_symmetrized_E_up_to_scale():
    nu = ((2, 0),)
    sym = symmetrize_eps(C21, E(C21, nu).poly)
    rec = P(C21, nu)
    assert sym.smul(sym.terms[(2, 0)].inv()) == rec.poly


# ---------------------------------------------------------------------------
# eigenvalues


def test_delta_eigenvalue_closed_form():
    one = Scalar.one(1)
    t = Scalar.t(1)
    q = Scalar.q(1, 1)
    assert delta_eigenvalue(C21, ((2, 0),)) == q**-2 - one
    assert delta_eigenvalue(C21, ((1, 1),)) == \
        (q.inv() - one) + (q.inv() - one) * t
    assert delta_eigenvalue(C21, ((0, 0),)).is_zero()


def test_delta_eigenvalue_rank_two():
    one = Scalar.one(2)
    t = Scalar.t(2)
    q1 = Scalar.q(1, 2)
    q2 = Scalar.q(2, 2)
    assert delta_eigenvalue(C22, ((1, 0), (1, 0))) == \
        (q2.inv() - one) + (q1.inv() - one) * t
    assert delta_eigenvalue(C22, ((1, 0), (0, 1))) == \
        ((q1 * q2).inv() - one)


def test_eigenvalue_insensitive_to_diagonal_reordering():
    # the closed form reads the sorted index, so any column order of
    # the same multiset gives the same value
    assert delta_eigenvalue(C21, ((0, 2),)) == delta_eigenvalue(C21, ((2, 0),))


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
    assert delta_eigenvalue(ctx, pair[0]) == delta_eigenvalue(ctx, pair[1])
    assert E(ctx, pair[0]).poly != E(ctx, pair[1]).poly
    assert weight_of(ctx, pair[0]) != weight_of(ctx, pair[1])


# ---------------------------------------------------------------------------
# the matching-coordinate normalization


def test_paper_normalization_values():
    one = Scalar.one(1)
    t = Scalar.t(1)
    assert paper_normalization(C21, ((2, 0),)) == t + one
    # nu is read as P reads it, through gamma_inverse
    t2 = Scalar.t(2)
    q2 = Scalar.q(2, 2)
    assert paper_normalization(C22, ((1, 0), (0, 1))) == t2 + Scalar.one(2)
    assert paper_normalization(C22, ((1, 0), (1, 0))) == \
        (t2 + Scalar.one(2)) * q2


def test_paper_normalization_guards():
    with pytest.raises(ValueError):
        paper_normalization(C21, ((0, 1),))
    with pytest.raises(ValueError):
        paper_normalization(C21, ((-1, -1),))
