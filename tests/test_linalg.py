"""Exact linear algebra: the sparse Gauss–Jordan and what is built on it.

Matrices are drawn over Q(t, q1), with entries of the shape the Y
matrices have: ±t^a (1 - t)^b q1^c, zero about half the time, and are
handed to linalg as sparse rows (`sparse`).  Each matrix is built twice,
as Scalars and as SymPy expressions, so that the rank can be checked
against SymPy's exact rank over the fraction field QQ(t, q1)
(`DomainMatrix`; `Matrix.rank` zero-tests symbolic entries
heuristically and is about a hundred times slower on these matrices).
`joint_left_kernel` is checked against `stacked_kernel`, the nullspace
of all its equations at once.  The two bases need not be equal, so the
check is that they span the same space.  `nullspace`, which reads that
kernel off `rref`, lives here as part of that reference, and has
property tests of its own.
"""

from __future__ import annotations

import operator

import sympy
import pytest
from hypothesis import Phase, find, given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

from dahamac import nonsym
from dahamac.linalg import joint_left_kernel, rref
from dahamac.rep import RepContext

CTX = RepContext(1, 1, 1)
ZERO, ONE, T, Q1 = CTX.scalar(0), CTX.scalar(), CTX.scalar(t=1), \
    CTX.scalar(q={1: 1})
ST, SQ = sympy.symbols("t q1")


def sparse(rows):
    """The sparse rows of a matrix given as lists of Scalars: each row's
    nonzero entries, by column."""
    return [{j: a for j, a in enumerate(row) if not a.is_zero()}
            for row in rows]


def _drawn(rows):
    """(sparse rows of Scalars, SymPy matrix) of rows of (Scalar, SymPy
    expression) pairs."""
    return (sparse([[s for s, _ in row] for row in rows]),
            sympy.Matrix([[e for _, e in row] for row in rows]))


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
    """(sparse rows of Scalars, the same matrix in SymPy).  A few extra
    rows are combinations of two drawn rows, so rank deficits are
    common."""
    nrows, ncols = draw(st.integers(1, max_size)), draw(st.integers(1, max_size))
    rows = [[draw(entries()) for _ in range(ncols)] for _ in range(nrows)]
    for _ in range(draw(st.integers(0, 2))):
        x, y = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        (f, sf), (g, sg) = draw(entries()), draw(entries())
        rows.append([(f * a + g * b, sf * sa + sg * sb)
                     for (a, sa), (b, sb) in zip(x, y)])
    return _drawn(rows)


@st.composite
def stacked_systems(draw):
    """(sparse rows of Scalars, the same matrix in SymPy): up to 10x10
    rows shaped like the stacked Y equations, blocks that are upper
    triangular up to a permutation of rows and of columns, with
    diagonals drawn from three values and shifted by one of them (so
    some diagonal entries cancel), plus zero rows and repeated rows."""
    dim = draw(st.integers(1, 10))
    values = ((T, ST), (Q1, SQ), (T * Q1, ST * SQ))
    zero = (ZERO, sympy.Integer(0))
    rows = []
    for _ in range(draw(st.integers(1, max(1, 10 // dim)))):
        shift = draw(st.sampled_from(values))
        block = [[tuple(map(operator.sub, draw(st.sampled_from(values)),
                            shift)) if i == j
                  else draw(entries()) if i < j else zero
                  for j in range(dim)] for i in range(dim)]
        cperm = draw(st.permutations(range(dim)))
        rows += [[row[c] for c in cperm]
                 for row in draw(st.permutations(block))]
    for _ in range(draw(st.integers(0, 3))):
        extra = draw(st.sampled_from(([zero] * dim, *rows)))
        rows.insert(draw(st.integers(0, len(rows))), list(extra))
    return _drawn(rows[:10])


def _dot(row, v):
    out = ZERO
    for j, a in row.items():
        if j in v:
            out = out + a * v[j]
    return out


@given(matrices())
def test_nullspace_vectors_annihilate_the_rows(drawn):
    rows, mat = drawn
    for v in nullspace(rows, mat.cols, ONE):
        assert not any(a.is_zero() for a in v.values())
        assert all(_dot(row, v).is_zero() for row in rows)


@given(matrices())
def test_rank_plus_nullity_is_ncols(drawn):
    rows, mat = drawn
    _, pivots = rref(rows)
    basis = nullspace(rows, mat.cols, ONE)
    assert len(pivots) + len(basis) == mat.cols
    # one basis vector per free column, with a one there and no entry in
    # the other free columns, so the basis is independent
    free = sorted(set(range(mat.cols)) - set(pivots))
    for v, fc in zip(basis, free):
        assert [v.get(c) for c in free] == [ONE if c == fc else None
                                            for c in free]


@settings(max_examples=80)
@given(st.one_of(matrices(), stacked_systems()))
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
    copy = [dict(row) for row in rows]
    reduced, pivots = rref(rows)
    assert rows == copy
    assert len(set(pivots)) == len(pivots) == len(reduced)
    for prow, pcol in zip(reduced, pivots):
        assert prow[pcol] == ONE
        assert not any(c in prow for c in pivots if c != pcol)
        assert not any(a.is_zero() for a in prow.values())
    assert rref(rows) == (reduced, pivots)


def test_rref_of_a_zero_matrix_has_no_pivots():
    assert rref([{}, {}]) == ([], [])
    assert nullspace([{}], 2, ONE) == [{0: ONE}, {1: ONE}]


def _matmul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), ZERO) for col in zip(*b)]
            for row in a]


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
    m1, m2 = sparse(m1), sparse(m2)
    # two free positions: a plane, which joint_left_kernel refuses
    with pytest.raises(ValueError):
        joint_left_kernel([m1], [T])
    (v,) = joint_left_kernel([m1, m2], [T, ONE])
    assert v and not any(c.is_zero() for c in v.values())
    assert all(v.get(i, ZERO) * p[0][j] == v.get(j, ZERO) * p[0][i]
               for i in range(3) for j in range(3))
    (w,) = joint_left_kernel([m1, m2], [Q1, ONE])
    assert all(w.get(i, ZERO) * p[2][j] == w.get(j, ZERO) * p[2][i]
               for i in range(3) for j in range(3))
    assert joint_left_kernel([m1, m2], [T, Q1]) == []
    for shifts in ([Q1], [ONE]):
        assert_same_span(joint_left_kernel([m1], shifts),
                         stacked_kernel([m1], shifts))
    for shifts in ([T, ONE], [Q1, ONE], [T, Q1], [T, Q1 * Q1]):
        assert_same_span(joint_left_kernel([m1, m2], shifts),
                         stacked_kernel([m1, m2], shifts))


# The reference: joint_left_kernel as it was before the forward
# substitution, one nullspace of the stacked equations of every matrix.


def nullspace(rows, ncols, one):
    """Basis of {x : A x = 0} for A given as sparse rows over ncols
    columns, with one that of A's field: one sparse vector per free
    column, ascending, with a one there and no entry in the other free
    columns."""
    reduced, pivots = rref(rows)
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        v = {fc: one}
        for prow, pcol in zip(reduced, pivots):
            if fc in prow:
                v[pcol] = -prow[fc]
        basis.append(v)
    return basis


def stacked_kernel(mats, shifts):
    """Basis of the vectors v with v (M_i - shift_i I) = 0 for every i:
    the nullspace of the equations sum_l v_l (M_i - shift_i I)_{lj} = 0,
    one row for every i and every column j."""
    dim = len(mats[0])
    zero, one = shifts[0] - shifts[0], shifts[0] / shifts[0]
    eqs = []
    for M, a in zip(mats, shifts):
        for j in range(dim):
            eq = {l: row[j] for l, row in enumerate(M) if l != j and j in row}
            if not (d := M[j].get(j, zero) - a).is_zero():
                eq[j] = d
            eqs.append(eq)
    return nullspace(eqs, dim, one)


def assert_same_span(basis, reference):
    """basis and reference are bases of one space: they have as many
    vectors, and each and their union have that many as rank."""
    rank = [len(rref(vs)[1]) for vs in (basis, reference, basis + reference)]
    assert len(basis) == len(reference)
    assert rank == [len(reference)] * 3


@st.composite
def triangular_families(draw):
    """(mats, shifts): up to three matrices, upper triangular under one
    shared permutation of up to five positions, with diagonals from
    three values and shifts among them, so many shifted diagonals are
    zero.  A position drawn free carries every shift on its diagonal,
    so the kernel has up to that many dimensions; the off-diagonal
    entries are zero about half the time, so the free positions'
    conditions often hold and kernels of dimension 0, 1 and 2 all
    occur."""
    values = (T, Q1, T * Q1)
    dim = draw(st.integers(1, 5))
    shifts = [draw(st.sampled_from(values))
              for _ in range(draw(st.integers(1, 3)))]
    free = [draw(st.booleans()) for _ in range(dim)]
    perm = draw(st.permutations(range(dim)))
    mats = []
    for a in shifts:
        M = [[ZERO] * dim for _ in range(dim)]
        for x, p in enumerate(perm):
            M[p][p] = a if free[p] else draw(st.sampled_from(values))
            for y in perm[x + 1:]:
                M[p][y] = draw(entries())[0]
        mats.append(sparse(M))
    return mats, shifts


def free_positions(mats, shifts):
    """The positions where every matrix's diagonal entry is its shift."""
    return [j for j in range(len(mats[0]))
            if all(M[j].get(j, ZERO) == a for M, a in zip(mats, shifts))]


@given(triangular_families())
def test_joint_left_kernel_with_repeated_diagonals(family):
    if len(free_positions(*family)) > 1:
        with pytest.raises(ValueError):
            joint_left_kernel(*family)
    else:
        assert_same_span(joint_left_kernel(*family), stacked_kernel(*family))


@pytest.mark.parametrize("dim", [0, 1, 2])
def test_triangular_families_reach_each_kernel_dimension(dim):
    # dimensions 0 and 1 at one free position, which joint_left_kernel
    # solves, and 2, which takes two free positions and is refused.
    # Derandomized and unshrunk, so each case draws the same examples in
    # every run
    find(triangular_families(),
         lambda f: len(stacked_kernel(*f)) == dim
         and (len(free_positions(*f)) == 1) == (dim < 2),
         settings=settings(database=None, derandomize=True,
                           phases=[Phase.generate], max_examples=1000))


def test_joint_left_kernel_of_triangular_pairs_with_repeated_diagonals():
    # each matrix has a double diagonal value with a two-dimensional left
    # eigenspace, and at shifts (T, Q1) the two planes meet in a line.
    # Those three kernels have two free positions, which
    # joint_left_kernel refuses; the other pairs of shifts free at most
    # one
    m1 = sparse([[T, ZERO, Q1], [ZERO, T, -T], [ZERO, ZERO, Q1]])
    m2 = sparse([[Q1, ZERO, T], [ZERO, Q1, ONE], [ZERO, ZERO, T]])
    for mats, shifts in (([m1], [T]), ([m2], [Q1]), ([m1, m2], [T, Q1])):
        with pytest.raises(ValueError):
            joint_left_kernel(mats, shifts)
    assert len(stacked_kernel([m1, m2], [T, Q1])) == 1
    for shifts, dim in (([Q1, T], 1), ([T, T], 0), ([Q1, Q1], 0)):
        kernel = joint_left_kernel([m1, m2], shifts)
        assert_same_span(kernel, stacked_kernel([m1, m2], shifts))
        assert len(kernel) == dim


def test_joint_left_kernel_spans_the_stacked_kernel_on_oracle_families(
        oracle_cases):
    # the Y family of every component the oracle tests use, shifted by
    # each index's weight (a one-dimensional kernel) and by that weight
    # rotated (no kernel where the rotated weight is no joint eigenvalue)
    for ctx, mu in oracle_cases:
        mats = nonsym._y_matrices(ctx, nonsym.index_multidegree(mu))
        weight = list(nonsym.weight_of(ctx, mu))
        for shifts in (weight, weight[1:] + weight[:1]):
            kernel = joint_left_kernel(mats, shifts)
            assert_same_span(kernel, stacked_kernel(mats, shifts))
        assert len(joint_left_kernel(mats, weight)) == 1


def test_joint_left_kernel_refuses_a_cycle():
    # each matrix is triangular, but under opposite orders
    m1 = sparse([[T, ONE], [ZERO, Q1]])
    m2 = sparse([[T, ZERO], [ONE, Q1]])
    assert len(joint_left_kernel([m1], [T])) == 1
    with pytest.raises(ValueError):
        joint_left_kernel([m1, m2], [T, T])
    with pytest.raises(ValueError):
        joint_left_kernel([sparse([[T, ONE], [ONE, T]])], [T])


def test_joint_left_kernel_checks_the_matrices_it_does_not_solve_with():
    # position 0 is free in both matrices.  Column 1 is solved with m1,
    # the first matrix with a nonzero shifted diagonal there:
    # v_1 = x v_0.  m2's column 1 then holds only when c = x (1 - T), and
    # each m2 alone has a line of left eigenvectors
    m1 = sparse([[T, Q1], [ZERO, Q1]])
    x = Q1 / (T - Q1)
    for c, dim in ((x * (ONE - T), 1), (x * T, 0), (ONE, 0)):
        m2 = sparse([[ONE, c], [ZERO, T]])
        assert len(joint_left_kernel([m2], [ONE])) == 1
        kernel = joint_left_kernel([m1, m2], [T, ONE])
        assert len(kernel) == dim
        assert_same_span(kernel, stacked_kernel([m1, m2], [T, ONE]))


def test_joint_left_kernel_checks_a_column_whose_solved_sum_is_zero():
    # position 0 is free in both matrices, and each column is solved
    # with m1.  Column 1 of m1 gives v_1 = x v_0, with x = q1 / (t - q1);
    # column 2 of m1 then sums v_0 + v_1 (-1 / x) = 0, so v_2 = 0 and
    # m2's column 2 holds only when its sum c v_0 is zero too
    x = Q1 / (T - Q1)
    m1 = sparse([[T, Q1, ONE], [ZERO, Q1, -x.inv()], [ZERO, ZERO, T * Q1]])
    for c, dim in ((ZERO, 1), (ONE, 0), (T, 0)):
        m2 = sparse([[ONE, x * (ONE - T), c], [ZERO, T, ZERO],
                     [ZERO, ZERO, Q1]])
        kernel = joint_left_kernel([m1, m2], [T, ONE])
        assert len(kernel) == dim
        assert_same_span(kernel, stacked_kernel([m1, m2], [T, ONE]))
    # the same with no term in m1's column: its sum is zero with no
    # product at all
    m1 = sparse([[T, ZERO], [ZERO, Q1]])
    for c, dim in ((ZERO, 1), (Q1, 0)):
        m2 = sparse([[ONE, c], [ZERO, T]])
        kernel = joint_left_kernel([m1, m2], [T, ONE])
        assert len(kernel) == dim
        assert_same_span(kernel, stacked_kernel([m1, m2], [T, ONE]))


def test_joint_left_kernel_refuses_two_free_positions():
    # both positions are free, and column 1 forces v_0 = 0: the kernel
    # is a line, but finding it takes a condition on two free unknowns
    m = sparse([[T, Q1], [ZERO, T]])
    for mats, shifts in (([m], [T]), ([m, m], [T, T])):
        assert stacked_kernel(mats, shifts) == [{1: ONE}]
        with pytest.raises(ValueError):
            joint_left_kernel(mats, shifts)
