"""Exact linear algebra: the sparse Gauss–Jordan and what is built on it.

Matrices are drawn sparse over Q(t, q1), with entries of the shape the
Y matrices have: ±t^a (1 - t)^b q1^c.  Each matrix is built twice, as
Scalars and as SymPy expressions, so that the rank can be checked
against SymPy's exact rank over the fraction field QQ(t, q1)
(`DomainMatrix`; `Matrix.rank` zero-tests symbolic entries
heuristically and is about a hundred times slower on these matrices).
`rref` is also checked against `full_scan_rref`, the elimination that
recounts its columns and scans every entry at each pivot.
"""

from __future__ import annotations

from collections import Counter

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


@st.composite
def stacked_systems(draw):
    """Up to 10x10 rows shaped like the stacked Y equations: blocks that
    are upper triangular up to a permutation of rows and of columns,
    with diagonals drawn from three values and shifted by one of them
    (so some diagonal entries cancel), plus zero rows and repeated
    rows."""
    dim = draw(st.integers(1, 10))
    values = (T, Q1, T * Q1)
    rows = []
    for _ in range(draw(st.integers(1, max(1, 10 // dim)))):
        shift = draw(st.sampled_from(values))
        block = [[draw(st.sampled_from(values)) - shift if i == j
                  else draw(entries())[0] if i < j else ZERO
                  for j in range(dim)] for i in range(dim)]
        cperm = draw(st.permutations(range(dim)))
        rows += [[row[c] for c in cperm]
                 for row in draw(st.permutations(block))]
    for _ in range(draw(st.integers(0, 3))):
        extra = draw(st.sampled_from(([ZERO] * dim, *rows)))
        rows.insert(draw(st.integers(0, len(rows))), list(extra))
    return rows[:10]


# The reference: the elimination as it was before the column index, which
# recounts every column and keys every active entry to choose each pivot.


def full_scan_rref(rows):
    """Reduced row echelon form of a matrix given as a list of rows,
    up to the order of its rows.

    Returns (reduced, pivots): reduced[i] is a dict from column to
    nonzero scalar holding the reduced row whose pivot column is
    pivots[i], with a one there and zeros in every other pivot column.
    Pivots are listed in the order they were chosen, which need not be
    ascending, and len(pivots) is the rank.  Each pivot minimises the
    key (Markowitz cost (r-1)(c-1), term count of the entry, column,
    row), where r and c count the nonzeros of the entry's row and
    column among the rows not yet pivoted: the cost bounds the fill the
    pivot can cause among those rows, the term count keeps the exact
    arithmetic small, and the last two make the choice deterministic.
    """
    todo = {i: {j: a for j, a in enumerate(row) if not a.is_zero()}
            for i, row in enumerate(rows)}
    reduced, pivots = [], []
    while todo := {i: row for i, row in todo.items() if row}:
        count = Counter(j for row in todo.values() for j in row)
        *_, col, i = min(((len(row) - 1) * (count[j] - 1), a.term_count(),
                          j, i)
                         for i, row in todo.items() for j, a in row.items())
        prow = todo.pop(i)
        inv = prow.pop(col).inv()
        prow = {j: a * inv for j, a in prow.items()}
        for row in (*todo.values(), *reduced):
            f = row.pop(col, None)
            if f is None:
                continue
            for j, a in prow.items():
                v = row[j] - f * a if j in row else -(f * a)
                if v.is_zero():
                    del row[j]
                else:
                    row[j] = v
        prow[col] = inv / inv
        reduced.append(prow)
        pivots.append(col)
    return reduced, pivots


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
    # a combined row may hold an uncancelled zero such as
    # t^3 (1 - t)/q1 + t^3 (t - 1)/q1, which DomainMatrix would store as
    # an entry and then invert
    mat = mat.applyfunc(sympy.cancel)
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


@given(matrices())
def test_rref_matches_the_full_scan(drawn):
    rows, _ = drawn
    assert rref(rows) == full_scan_rref(rows)


@given(stacked_systems())
def test_rref_matches_the_full_scan_on_stacked_systems(rows):
    assert rref(rows) == full_scan_rref(rows)


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


def _stacked(mats, shifts):
    """The equations of joint_left_kernel, written out: column j of
    M - shift I for every matrix and every j."""
    dim = len(mats[0])
    return [[M[l][j] - (a if l == j else ZERO) for l in range(dim)]
            for M, a in zip(mats, shifts) for j in range(dim)]


@given(st.data())
def test_joint_left_kernel_with_repeated_diagonals(data):
    # diagonals from two values, shifts among them: many differences
    # are zero and must drop out of the equations
    dim = data.draw(st.integers(1, 4))
    values = (T, Q1)
    mats = [[[data.draw(st.sampled_from(values)) if i == j
              else data.draw(entries())[0] for j in range(dim)]
             for i in range(dim)] for _ in range(data.draw(st.integers(1, 2)))]
    shifts = [data.draw(st.sampled_from(values)) for _ in mats]
    assert joint_left_kernel(mats, shifts) == \
        nullspace(_stacked(mats, shifts), ZERO, ONE)


def test_joint_left_kernel_of_triangular_pairs_with_repeated_diagonals():
    # each matrix has a double diagonal value with a two-dimensional left
    # eigenspace; the two planes meet in a line, and the other pairs of
    # shifts have no common left eigenvector
    m1 = [[T, ZERO, Q1], [ZERO, T, -T], [ZERO, ZERO, Q1]]
    m2 = [[Q1, ZERO, T], [ZERO, Q1, ONE], [ZERO, ZERO, T]]
    assert len(joint_left_kernel([m1], [T])) == 2
    assert len(joint_left_kernel([m2], [Q1])) == 2
    for shifts, dim in (([T, Q1], 1), ([Q1, T], 1), ([T, T], 0),
                        ([Q1, Q1], 0)):
        kernel = joint_left_kernel([m1, m2], shifts)
        assert kernel == nullspace(_stacked([m1, m2], shifts), ZERO, ONE)
        assert len(kernel) == dim
