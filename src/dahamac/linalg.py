"""Exact linear algebra over the coefficient field, sized for the small
graded components that the verification suites touch.

One elimination routine does all the work: a sparse Gauss–Jordan in
`rref`.  Rows are kept as dicts from column to nonzero scalar, and each
pivot is chosen by Markowitz's rule, so that a matrix that is
triangular up to a permutation of rows and columns (as each Y matrix
is) eliminates with no fill in the rows still to be pivoted.
`nullspace` reads a kernel basis off that form, and
`joint_left_kernel` is one nullspace of the stacked equations of all
its matrices.

The field is whatever the inputs' scalars belong to: zero and one are
taken from the inputs, never built here."""

from __future__ import annotations

from collections import Counter


def rref(rows):
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


def nullspace(rows, zero, one):
    """Basis of {x : A x = 0} for a nonempty A given as a list of rows,
    with zero and one those of A's field: one vector per free column,
    ascending, with a one there and zeros in the other free columns."""
    ncols = len(rows[0])
    reduced, pivots = rref(rows)
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        v = [zero] * ncols
        v[fc] = one
        for prow, pcol in zip(reduced, pivots):
            if fc in prow:
                v[pcol] = -prow[fc]
        basis.append(v)
    return basis


def joint_left_kernel(mats, shifts):
    """Vectors v with v (M_i - shift_i I) = 0 for every i.

    mats is a list of square matrices (rows convention), shifts a list
    of nonzero scalars, from the first of which the field's zero and one
    are taken.  The result is one nullspace of the stacked equations
    sum_l v_l (M_i - shift_i I)_{lj} = 0, one row for every i and every
    column j.
    """
    dim = len(mats[0])
    zero, one = shifts[0] - shifts[0], shifts[0] / shifts[0]
    eqs = [[M[l][j] - a if l == j else M[l][j] for l in range(dim)]
           for M, a in zip(mats, shifts) for j in range(dim)]
    return nullspace(eqs, zero, one)
