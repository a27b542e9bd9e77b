"""Exact linear algebra over the coefficient field, sized for the small
graded components that the verification suites touch.

`rref` is a sparse Gauss–Jordan.  Rows are kept as dicts from column
to nonzero scalar, and each pivot is chosen by Markowitz's rule, so
that a matrix that is triangular up to a permutation of rows and
columns eliminates with no fill in the rows still to be pivoted.  The
column counts the rule needs are kept in a column index (Duff, Erisman
and Reid, Direct Methods for Sparse Matrices, ch. 7), updated as
entries change rather than recounted per pivot; the index also lists
the rows a pivot eliminates in, and a pivot of Markowitz cost 0 (a
row or a column of one entry) is found without scanning every entry.
The pivot key is the same as a full scan's, and so is the output.
`nullspace` reads a kernel basis off that form.

`joint_left_kernel` does not eliminate.  Cherednik's Y operators act
triangularly on monomials (Cherednik, "Nonsymmetric Macdonald
polynomials", IMRN 1995), so the Y matrices of one component share a
triangular order of their positions, and their common left
eigenvectors follow by forward substitution along it.  Only the
conditions that substitution leaves on its free unknowns go to
`nullspace`; for the Y families the oracle meets there are none
(pinned by tests/test_nonsym.py::test_the_oracle_runs_no_elimination).

The field is whatever the inputs' scalars belong to: zero and one are
taken from the inputs, never built here."""

from __future__ import annotations

from graphlib import TopologicalSorter


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


def _combine(pairs, start=()):
    """start plus the sum of form * a over the (form, a) pairs, where a
    form is a dict from free unknown to nonzero scalar; zero
    coefficients are dropped."""
    out = dict(start)
    for form, a in pairs:
        for u, c in form.items():
            c = c * a
            out[u] = out[u] + c if u in out else c
    return {u: c for u, c in out.items() if not c.is_zero()}


def joint_left_kernel(mats, shifts):
    """Basis of the vectors v with v (M_i - shift_i I) = 0 for every i.

    mats is a list of square matrices (rows convention) whose
    off-diagonal entries admit one shared triangular order, shifts a
    list of nonzero scalars, from the first of which the field's zero
    and one are taken.  The order is a topological order of the
    positions under the edges l -> j for M_i[l][j] != 0, l != j; when
    there is none (the edges have a cycle), ValueError is raised.

    Column j of M_i - shift_i I is the equation
    v_j d_ij + sum_l v_l M_i[l][j] = 0, where d_ij = M_i[j][j] - shift_i
    (each distinct diagonal value of M_i is shifted once) and every l of
    the sum comes before j.  So the positions are walked in order and
    each v_j is written in terms of the free unknowns, the v_j of the
    positions where every d_ij is zero: the first equation with
    d_ij != 0 gives v_j, and the other equations of the column, or all
    of them at a free position, must then hold.  Each that does not
    hold identically is a condition on the free unknowns.  The result
    is one vector per free unknown when there is no condition, and one
    per vector of the nullspace of the conditions otherwise; it spans
    the nullspace of the stacked equations, but it is not that
    nullspace's basis.
    """
    dim = len(mats[0])
    zero, one = shifts[0] - shifts[0], shifts[0] / shifts[0]
    diags = []
    for M, a in zip(mats, shifts):
        shifted = {m: m - a for m in {M[j][j] for j in range(dim)}}
        diags.append([shifted[M[j][j]] for j in range(dim)])
    cols = [[[(l, M[l][j]) for l in range(dim)
              if l != j and not M[l][j].is_zero()] for j in range(dim)]
            for M in mats]
    order = TopologicalSorter({j: {l for col in cols for l, _ in col[j]}
                               for j in range(dim)}).static_order()
    forms, nfree, conditions = [None] * dim, 0, []
    for j in order:
        sums = [_combine((forms[l], a) for l, a in col[j]) for col in cols]
        solver = next((i for i, d in enumerate(diags) if not d[j].is_zero()),
                      None)
        if solver is None:
            forms[j] = {nfree: one}
            nfree += 1
            conditions += [s for s in sums if s]
            continue
        forms[j] = _combine([(sums[solver], -diags[solver][j].inv())])
        conditions += [r for i, s in enumerate(sums) if i != solver
                       if (r := _combine([(forms[j], diags[i][j])], s))]
    if not conditions:
        return [[v.get(u, zero) for v in forms] for u in range(nfree)]
    return [[sum((a * c[u] for u, a in v.items()), zero) for v in forms]
            for c in nullspace([[r.get(u, zero) for u in range(nfree)]
                                for r in conditions], zero, one)]
