"""Truncation maps, quotient identities, stable symmetric families."""

from __future__ import annotations

import time

import pytest

from dahamac import affine, stability
from dahamac.field import Scalar
from dahamac.laurent import LaurentPoly
from dahamac.nonsym import E
from dahamac.rep import RepContext, apply_T, apply_Y, apply_theta, \
    component_basis, degrees_upto, t_bracket
from dahamac.symmetric import P
from dahamac.stability import (
    StableIndex,
    iota,
    kill_index,
    project,
    remark_eigenvalue,
    stable_family,
    verify_P_stability,
    verify_quotient_relations,
)


# ---------------------------------------------------------------------------
# stable indices


def test_stable_index_accepts():
    assert StableIndex(((1,),)).ell == 1
    assert StableIndex(((2, 1),)).ell == 2
    assert StableIndex(((1,), (2, 2))).r == 2
    # shorter component padded to ((1,1),(1,0)): columns stay sorted
    assert StableIndex(((1, 1), (1,))).ell == 2


def test_stable_index_rejects():
    with pytest.raises(ValueError):
        StableIndex(())
    with pytest.raises(ValueError):
        StableIndex(((1, 0),))
    with pytest.raises(ValueError):
        StableIndex(((-1,),))
    with pytest.raises(ValueError):
        # rank one: padding a non-partition never sorts its columns
        StableIndex(((0, 1),))
    with pytest.raises(ValueError):
        # padded columns (0,1) < (1,1) violate the orbit condition
        StableIndex(((0, 1), (1, 1)))


@pytest.mark.parametrize("comps", [((2.7, 1),), ((1, True),), ((1.0,),)])
def test_stable_index_rejects_non_integer_entries(comps):
    # 2.7 is an error, not the component (2, 1)
    with pytest.raises(ValueError):
        StableIndex(comps)


def test_stable_index_degenerate_empty_component():
    nu = StableIndex(((),))
    assert nu.r == 1 and nu.ell == 0


def test_iota():
    nu = StableIndex(((1,), (2, 2)))
    assert iota(nu, 2) == ((1, 0), (2, 2))
    assert iota(nu, 4) == ((1, 0, 0, 0), (2, 2, 0, 0))
    with pytest.raises(ValueError):
        iota(nu, 1)


# ---------------------------------------------------------------------------
# the truncation map


def test_project_drops_last_column():
    one = Scalar.one(1)
    t = Scalar.t(1)
    p = LaurentPoly(1, 3, 1, {(1, 2, 0): one, (0, 1, 1): t})
    assert project(p).terms == {(1, 2): one}


def test_project_checks_every_group():
    one = Scalar.one(2)
    p = LaurentPoly(2, 2, 2, {(1, 0, 0, 1): one, (1, 0, 1, 0): one})
    assert project(p).terms == {(1, 1): one}


def test_project_guards():
    with pytest.raises(ValueError):
        project(LaurentPoly(1, 2, 1, {(-1, 0): Scalar.one(1)}))
    with pytest.raises(ValueError):
        project(LaurentPoly(1, 1, 1, {(1,): Scalar.one(1)}))


def test_kill_index():
    assert kill_index(3, 1) == ((1, 1, 1),)
    assert kill_index(2, 2) == ((1, 1), (0, 0))


# ---------------------------------------------------------------------------
# quotient identities


def test_quotient_relations_rank_one():
    rep = verify_quotient_relations(2, 1, (2,))
    assert rep["ok"]
    assert set(rep["identities"]) == {
        "Pi T_1 = T_1 Pi",
        "Pi theta_1 = theta_1 Pi",
        "Pi theta_2 = theta_2 Pi",
        "Pi (theta_3 - t^2) = 0",
        "Pi Delta_3 = Delta_2 Pi",
    }
    for row in rep["identities"].values():
        assert row["checked"] == 10 and not row["failures"]


def test_quotient_relations_rank_two():
    rep = verify_quotient_relations(2, 2, (1, 1))
    assert rep["ok"]
    assert all(row["checked"] == 16 and not row["failures"]
               for row in rep["identities"].values())


def test_quotient_relations_run_delta_on_monomials_in_time():
    # the Delta row on eps images of the monomials took ~10 s here
    start = time.perf_counter()
    rep = verify_quotient_relations(3, 2, (2, 2))
    assert time.perf_counter() - start < 5
    assert rep["ok"]
    assert rep["identities"]["Pi Delta_4 = Delta_3 Pi"]["checked"] == 225


@pytest.mark.parametrize("n,r,bound", [(3, 1, (3,)), (2, 2, (2, 1)),
                                       (2, 3, (1, 1, 1))])
def test_e1_of_Y_is_e1_of_theta_on_monomials(n, r, bound):
    # observed, not proved here: with the theta rows of
    # verify_quotient_relations it gives the Delta row on every monomial
    ctx = RepContext(n, r, r)
    for d in degrees_upto(bound):
        for flat in component_basis(ctx, d):
            m = LaurentPoly(r, n, r, {flat: ctx.scalar()})
            ys = thetas = ctx.zero()
            for i in range(1, n + 1):
                ys = ys + apply_Y(ctx, i, m)
                thetas = thetas + apply_theta(ctx, i, m)
            assert ys == thetas, (n, r, flat)


def _faulty_Delta(fault, n):
    """Delta with one fault, for verify_quotient_relations(n, ...): its
    small size is n and its big size n + 1."""
    def Delta(ctx, p):
        acc = ctx.zero()
        for i in range(1, ctx.n + 1):
            if fault == "Y_n left out" and ctx.n == n and i == n:
                continue
            y = apply_Y(ctx, i, p)
            if fault == "t Y_1" and ctx.n == n + 1 and i == 1:
                y = y.smul(ctx.scalar(t=1))
            acc = acc + y
        m = ctx.n - 1 if fault == "[n-1]_t" and ctx.n == n else ctx.n
        return acc - p.smul(t_bracket(ctx, m))
    return Delta


def test_the_fault_harness_passes_without_a_fault(monkeypatch):
    monkeypatch.setattr(stability, "apply_Delta_n", _faulty_Delta(None, 2))
    assert verify_quotient_relations(2, 2, (1, 1))["ok"]


@pytest.mark.parametrize("fault", ["[n-1]_t", "t Y_1", "Y_n left out"])
@pytest.mark.parametrize("n,r,bound", [(2, 1, (2,)), (3, 1, (2,)),
                                       (2, 2, (1, 1))])
def test_quotient_relations_reject_a_wrong_delta(monkeypatch, fault, n, r,
                                                 bound):
    monkeypatch.setattr(stability, "apply_Delta_n", _faulty_Delta(fault, n))
    rep = verify_quotient_relations(n, r, bound)
    assert not rep["ok"]
    rows = rep["identities"]
    assert rows.pop(f"Pi Delta_{n + 1} = Delta_{n} Pi")["failures"]
    assert not any(row["failures"] for row in rows.values())


# ---------------------------------------------------------------------------
# family stability


def test_stability_rank_one():
    assert verify_P_stability(StableIndex(((1,),)), 1)
    assert verify_P_stability(StableIndex(((2, 1),)), 2)
    assert verify_P_stability(StableIndex(((),)), 1)


def test_stability_needs_room_for_the_index():
    with pytest.raises(ValueError):
        verify_P_stability(StableIndex(((2, 1),)), 1)


def test_stability_transient_first_link_rank_two():
    # higher rank families hold from their first link on: the padded
    # index names the top monomial at every size
    for comps in [((1,), (1,)), ((1,), (2,))]:
        nu = StableIndex(comps)
        assert verify_P_stability(nu, 1)
        assert verify_P_stability(nu, 2)
    for comps in [((1,), (0, 1)), ((1,), (1, 1)), ((1,), (2, 1))]:
        nu = StableIndex(comps)
        assert verify_P_stability(nu, 2)
        assert verify_P_stability(nu, 3)


def test_first_link_failure_is_the_projection_clause():
    # both clauses of the first link hold: projection and kill
    nu = StableIndex(((1,), (1,)))
    big = RepContext(2, 2, 2)
    small = RepContext(1, 2, 2)
    assert project(P(big, iota(nu, 2)).poly) == P(small, iota(nu, 1)).poly
    assert project(P(big, kill_index(2, 2)).poly).is_zero()


# ---------------------------------------------------------------------------
# eigenvalue closed forms


def test_remark_eigenvalue_partition_tuples():
    one = Scalar.one(1)
    t = Scalar.t(1)
    q1 = Scalar.q(1, 1)
    assert remark_eigenvalue(StableIndex(((2, 1),)), k=1) == \
        (q1**-2 - one) + (q1.inv() - one) * t
    one2 = Scalar.one(2)
    q1, q2 = Scalar.q(1, 2), Scalar.q(2, 2)
    assert remark_eigenvalue(StableIndex(((1,), (1,)))) == \
        (q1 * q2).inv() - one2
    assert remark_eigenvalue(StableIndex(((2, 2),)), k=1) == \
        (Scalar.q(1, 1) ** -2 - one) * (one + t)


def test_remark_eigenvalue_none_for_non_partitions():
    assert remark_eigenvalue(StableIndex(((1,), (0, 1)))) is None


def test_stable_family_rank_one():
    fam = stable_family(StableIndex(((2, 1),)), 3)
    assert fam.ok and not fam.errors
    assert sorted(fam.members) == [2, 3]
    assert fam.projections == {2: True}
    assert fam.eigenvalue_constant and fam.matches_remark
    assert fam.stable_value == remark_eigenvalue(fam.index, k=1)


def test_stable_family_rank_two_transient():
    fam = stable_family(StableIndex(((1,), (1,))), 3)
    assert fam.ok and not fam.errors
    assert fam.projections == {1: True, 2: True}
    assert fam.eigenvalue_constant
    one = Scalar.one(2)
    q1, q2 = Scalar.q(1, 2), Scalar.q(2, 2)
    assert fam.stable_value == (q1 * q2).inv() - one
    assert all(m.eigenvalue == fam.stable_value for m in fam.members.values())
    assert fam.matches_remark


def test_stable_family_skips_remark_when_undefined():
    fam = stable_family(StableIndex(((1,), (0, 1))), 3)
    assert fam.remark_value is None and fam.matches_remark is None
    assert fam.ok


def test_stable_family_range_guard():
    with pytest.raises(ValueError):
        stable_family(StableIndex(((2, 1),)), 1)


@pytest.mark.parametrize("comps, n_max", [
    (((2, 1), (1,)), 6), (((3, 1), (2,)), 6), (((1,),), 5),
    (((2, 1), (1, 1)), 5)])
def test_the_E_behind_a_padded_index_is_fixed_by_the_trailing_T_j(
        comps, n_max):
    # the E whose symmetrisation is P(iota(nu, n)): its trailing zero
    # columns make T_j E = E exactly for ell + 1 <= j <= n - 1, and for
    # no other j, the block that the symmetriser's chain could skip
    nu = StableIndex(comps)
    for n in range(nu.ell, n_max + 1):
        ctx = RepContext(n, nu.r, nu.r)
        e = E(ctx, affine.gamma_inverse(iota(nu, n))).poly
        assert [j for j in range(1, n) if apply_T(ctx, j, e) == e] == \
            list(range(nu.ell + 1, n))
