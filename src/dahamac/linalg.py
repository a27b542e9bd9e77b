"""Exact linear algebra over the coefficient field, sized for the small
graded components that the verification suites touch.

A matrix is a list of sparse rows, and a vector is one sparse row: a
dict from column to nonzero scalar.  `rep.matrix_of` builds them, and
nothing here fills in zeros.

`rref` is a sparse Gauss–Jordan.  Each pivot is chosen by Markowitz's
rule (Duff, Erisman and Reid, Direct Methods for Sparse Matrices,
ch. 7), so that a matrix that is triangular up to a permutation of rows
and columns eliminates with no fill in the rows still to be pivoted.
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

from collections import Counter
from graphlib import TopologicalSorter


def rref(rows):
    """Reduced row echelon form of a matrix given as a list of sparse
    rows, up to the order of its rows.

    Returns (reduced, pivots): reduced[i] is a sparse row, the reduced
    row whose pivot column is pivots[i], with a one there and no entry
    in any other pivot column.  Pivots are listed in the order they were
    chosen, which need not be ascending, and len(pivots) is the rank.
    Each pivot minimises the key (Markowitz cost (r-1)(c-1), term count
    of the entry, column, row), where r and c count the nonzeros of the
    entry's row and column among the rows not yet pivoted: the cost
    bounds the fill the pivot can cause among those rows, the term count
    keeps the exact arithmetic small, and the last two make the choice
    deterministic.  The rows given are not changed.
    """
    todo = {i: dict(row) for i, row in enumerate(rows)}
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


def _combine(pairs, start=()):
    """start plus the sum of form * a over the (form, a) pairs, where
    start and each form are sparse vectors; zero coefficients are
    dropped."""
    out = dict(start)
    for form, a in pairs:
        for u, c in form.items():
            c = c * a
            out[u] = out[u] + c if u in out else c
    return {u: c for u, c in out.items() if not c.is_zero()}


def joint_left_kernel(mats, shifts):
    """Basis of the vectors v with v (M_i - shift_i I) = 0 for every i.

    mats is a list of square matrices, each a list of sparse rows, whose
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
    is one sparse vector per free unknown when there is no condition,
    and one per vector of the nullspace of the conditions otherwise; it
    spans the nullspace of the stacked equations, but it is not that
    nullspace's basis.
    """
    dim = len(mats[0])
    zero, one = shifts[0] - shifts[0], shifts[0] / shifts[0]
    diags, cols = [], []
    for M, a in zip(mats, shifts):
        shifted = {m: m - a for m in {M[j].get(j, zero) for j in range(dim)}}
        diags.append([shifted[M[j].get(j, zero)] for j in range(dim)])
        col = [[] for _ in range(dim)]
        for l, row in enumerate(M):
            for j, c in row.items():
                if j != l:
                    col[j].append((l, c))
        cols.append(col)
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
    basis = [{j: v[u] for j, v in enumerate(forms) if u in v}
             for u in range(nfree)]
    if not conditions:
        return basis
    return [_combine((basis[u], a) for u, a in c.items())
            for c in nullspace(conditions, nfree, one)]
