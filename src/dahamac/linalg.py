"""Exact linear algebra over the coefficient field, sized for the small
graded components that the verification suites touch.

One elimination routine does all the work: a sparse Gauss–Jordan in
`rref`.  Rows are kept as dicts from column to nonzero scalar, and each
pivot is chosen by Markowitz's rule, so that a matrix that is
triangular up to a permutation of rows and columns (as each Y matrix
is) eliminates with no fill in the rows still to be pivoted.  The
column counts the rule needs are kept in a column index (Duff, Erisman
and Reid, Direct Methods for Sparse Matrices, ch. 7), updated as
entries change rather than recounted per pivot; the index also lists
the rows a pivot eliminates in, and a pivot of Markowitz cost 0 (a
row or a column of one entry) is found without scanning every entry.
The pivot key is the same as a full scan's, and so is the output.
`nullspace` reads a kernel basis off that form, and
`joint_left_kernel` is one nullspace of the stacked equations of all
its matrices.

The field is whatever the inputs' scalars belong to: zero and one are
taken from the inputs, never built here."""

from __future__ import annotations


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

    The column counts are not recounted per pivot: cols[j] is the set
    of rows not yet pivoted with a nonzero in column j, kept current as
    entries are created, cancelled and popped, and a pivot eliminates
    only in the rows cols lists for its column (and in the reduced
    rows).  A row of one entry or a column of one row gives a pivot of
    cost 0; when there is one, the key is minimised over those entries
    alone, and only otherwise over every entry.  Either way the pivot,
    and so the output, is the one the key picks.
    """
    todo = {i: {j: a for j, a in enumerate(row) if not a.is_zero()}
            for i, row in enumerate(rows)}
    todo = {i: row for i, row in todo.items() if row}
    cols = [set() for _ in range(len(rows[0]) if rows else 0)]
    for i, row in todo.items():
        for j in row:
            cols[j].add(i)
    one = next((a / a for row in todo.values() for a in row.values()), None)
    reduced, pivots = [], []
    while todo:
        free = [(a.term_count(), j, i) for i, row in todo.items()
                if len(row) == 1 for j, a in row.items()]
        free += [(todo[i][j].term_count(), j, i)
                 for j, rs in enumerate(cols) if len(rs) == 1 for i in rs]
        *_, col, i = min(free) if free else min(
            ((len(row) - 1) * (len(cols[j]) - 1), a.term_count(), j, i)
            for i, row in todo.items() for j, a in row.items())
        prow = todo.pop(i)
        for j in prow:
            cols[j].remove(i)
        inv = prow.pop(col).inv()
        prow = {j: a * inv for j, a in prow.items()}
        active, cols[col] = cols[col], set()
        for r, row in [(r, todo[r]) for r in active] + [(None, row)
                                                       for row in reduced]:
            f = row.pop(col, None)
            if f is None:
                continue
            for j, a in prow.items():
                if j not in row:
                    row[j] = -(f * a)
                    if r is not None:
                        cols[j].add(r)
                elif (v := row[j] - f * a).is_zero():
                    del row[j]
                    if r is not None:
                        cols[j].remove(r)
                else:
                    row[j] = v
            if r is not None and not row:
                del todo[r]
        prow[col] = one
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
    column j.  Each distinct diagonal value of M_i is shifted once.
    """
    dim = len(mats[0])
    zero, one = shifts[0] - shifts[0], shifts[0] / shifts[0]
    eqs = []
    for M, a in zip(mats, shifts):
        diag = {m: m - a for m in {M[j][j] for j in range(dim)}}
        eqs += [[diag[M[j][j]] if l == j else M[l][j] for l in range(dim)]
                for j in range(dim)]
    return nullspace(eqs, zero, one)
