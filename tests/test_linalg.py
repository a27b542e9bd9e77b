"""Exact linear algebra: the sparse Gauss–Jordan and what is built on it.

Matrices are drawn sparse over Q(t, q1), with entries of the shape the
Y matrices have: ±t^a (1 - t)^b q1^c.  Each matrix is built twice, as
Scalars and as SymPy expressions, so that the rank can be checked
against SymPy's exact rank over the fraction field QQ(t, q1)
(`DomainMatrix`; `Matrix.rank` zero-tests symbolic entries
heuristically and is about a hundred times slower on these matrices).
"""

from __future__ import annotations

import sympy
from hypothesis import given, strategies as st
from sympy.polys.matrices import DomainMatrix

from dahamac.linalg import joint_left_kernel, nullspace, rref
from dahamac.rep import RepContext

CTX = RepContext(1, 1, 1)
ZERO, ONE, T, Q1 = CTX.scalar(0), CTX.scalar(), CTX.scalar(t=1), \
    CTX.scalar(q={1: 1})
ST, SQ = sympy.symbols("t q1")


@st.composite
def entries(draw):
    """A pair (Scalar, SymPy expression) of the same field element; zero
    about half the time."""
    if draw(st.booleans()):
        return ZERO, sympy.Integer(0)
    sign = draw(st.sampled_from((1, -1)))
    a, b, c = draw(st.integers(0, 3)), draw(st.integers(0, 2)), \
        draw(st.integers(-3, 1))
    return (CTX.scalar(sign, t=a, q={1: c}) * (ONE - T) ** b,
            sign * ST ** a * (1 - ST) ** b * SQ ** c)


@st.composite
def matrices(draw, max_size=5):
    """(rows of Scalars, the same matrix in SymPy).  A few extra rows are
    combinations of two drawn rows, so rank deficits are common."""
    nrows, ncols = draw(st.integers(1, max_size)), draw(st.integers(1, max_size))
    rows = [[draw(entries()) for _ in range(ncols)] for _ in range(nrows)]
    for _ in range(draw(st.integers(0, 2))):
        x, y = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        (f, sf), (g, sg) = draw(entries()), draw(entries())
        rows.append([(f * a + g * b, sf * sa + sg * sb)
                     for (a, sa), (b, sb) in zip(x, y)])
    return ([[s for s, _ in row] for row in rows],
            sympy.Matrix([[e for _, e in row] for row in rows]))


def _dot(row, v):
    out = ZERO
    for a, b in zip(row, v):
        out = out + a * b
    return out


@given(matrices())
def test_nullspace_vectors_annihilate_the_rows(drawn):
    rows, _ = drawn
    for v in nullspace(rows, ZERO, ONE):
        assert all(_dot(row, v).is_zero() for row in rows)


@given(matrices())
def test_rank_plus_nullity_is_ncols(drawn):
    rows, _ = drawn
    _, pivots = rref(rows)
    basis = nullspace(rows, ZERO, ONE)
    assert len(pivots) + len(basis) == len(rows[0])
    # one basis vector per free column, with a one there and zeros in
    # the other free columns, so the basis is independent
    free = sorted(set(range(len(rows[0]))) - set(pivots))
    for v, fc in zip(basis, free):
        assert [v[c] for c in free] == [ONE if c == fc else ZERO for c in free]


@given(matrices())
def test_rank_matches_sympy(drawn):
    rows, mat = drawn
    _, pivots = rref(rows)
    assert len(pivots) == DomainMatrix.from_Matrix(mat).to_field().rank()


@given(matrices())
def test_rref_is_reduced_and_repeatable(drawn):
    rows, _ = drawn
    copy = [list(row) for row in rows]
    reduced, pivots = rref(rows)
    assert rows == copy
    assert len(set(pivots)) == len(pivots) == len(reduced)
    for prow, pcol in zip(reduced, pivots):
        assert prow[pcol] == ONE
        assert not any(c in prow for c in pivots if c != pcol)
        assert not any(a.is_zero() for a in prow.values())
    assert rref(rows) == (reduced, pivots)


def test_rref_of_a_zero_matrix_has_no_pivots():
    assert rref([[ZERO, ZERO], [ZERO, ZERO]]) == ([], [])
    assert nullspace([[ZERO, ZERO]], ZERO, ONE) == [[ONE, ZERO], [ZERO, ONE]]


def _matmul(a, b):
    return [[_dot(row, col) for col in zip(*b)] for row in a]


def test_joint_left_kernel_of_a_commuting_pair():
    # M_i = P^-1 D_i P, so row k of P is a left eigenvector of both,
    # with eigenvalues D_1[k], D_2[k].  The eigenvalue t of M_1 is
    # double; only row 0 of P also has eigenvalue 1 for M_2.
    p = [[ONE, T, ZERO], [ZERO, ONE, Q1], [ZERO, ZERO, ONE]]
    p_inv = [[ONE, -T, T * Q1], [ZERO, ONE, -Q1], [ZERO, ZERO, ONE]]
    assert _matmul(p, p_inv) == [[ONE if i == j else ZERO for j in range(3)]
                                 for i in range(3)]

    def conj(diag):
        d = [[diag[i] if i == j else ZERO for j in range(3)]
             for i in range(3)]
        return _matmul(_matmul(p_inv, d), p)

    m1, m2 = conj([T, T, Q1]), conj([ONE, Q1 * Q1, ONE])
    assert _matmul(m1, m2) == _matmul(m2, m1)
    assert len(joint_left_kernel([m1], [T])) == 2
    (v,) = joint_left_kernel([m1, m2], [T, ONE])
    assert any(not c.is_zero() for c in v)
    assert all(v[i] * p[0][j] == v[j] * p[0][i]
               for i in range(3) for j in range(3))
    (w,) = joint_left_kernel([m1, m2], [Q1, ONE])
    assert all(w[i] * p[2][j] == w[j] * p[2][i]
               for i in range(3) for j in range(3))
    assert joint_left_kernel([m1, m2], [T, Q1]) == []
