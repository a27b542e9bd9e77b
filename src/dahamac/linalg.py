"""Exact linear algebra over the coefficient field, sized for the small
graded components that the verification suites touch.

A matrix is a list of sparse rows, and a vector is one sparse row: a
dict from column to nonzero scalar.  `rep.matrix_of` builds them, and
nothing here fills in zeros.

`rref` is a sparse Gauss–Jordan.  Each pivot is chosen by Markowitz's
rule (Duff, Erisman and Reid, Direct Methods for Sparse Matrices,
ch. 7), so that a matrix that is triangular up to a permutation of rows
and columns eliminates with no fill in the rows still to be pivoted.

`joint_left_kernel` does not eliminate.  Cherednik's Y operators act
triangularly on monomials (Cherednik, "Nonsymmetric Macdonald
polynomials", IMRN 1995), so the Y matrices of one component share a
triangular order of their positions, and their common left
eigenvector follows by forward substitution along it.  It solves only
for one free position (every shifted diagonal entry zero) and refuses
two.  The Y families have one: their joint diagonals are the weights
of the component's indices, which are pairwise distinct because
`nonsym.weight_of` is injective (its t- and q-exponents give back σ and
γ, and `gamma_inverse(γ)` is the index).

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


def joint_left_kernel(mats, shifts):
    """The vectors v with v (M_i - shift_i I) = 0 for every i: [v] or [].

    mats is a list of square matrices, each a list of sparse rows, whose
    off-diagonal entries admit one shared triangular order, shifts a
    list of nonzero scalars, from the first of which the field's zero
    and one are taken.  The order is a topological order of the
    positions under the edges l -> j for M_i[l][j] != 0, l != j; when
    there is none (the edges have a cycle), ValueError is raised.

    Column j of M_i - shift_i I is the equation
    v_j d_ij + sum_l v_l M_i[l][j] = 0, where d_ij = M_i[j][j] - shift_i
    (each distinct diagonal value of M_i is shifted once) and every l of
    the sum comes before j.  A position where every d_ij is zero is
    free.  Two free positions raise ValueError, and none gives [].  With
    one, v is zero before it and one there; past it, the first equation
    with d_ij != 0 gives v_j, and the column's other equations must hold
    exactly, or [] is returned.  No entry of v is zero: a column whose
    sums are all zero is skipped, and in any other a zero v_j fails a
    check.
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
    preds = {j: {l for col in cols for l, _ in col[j]} for j in range(dim)}
    order = list(TopologicalSorter(preds).static_order())
    free = [j for j in order if all(d[j].is_zero() for d in diags)]
    if len(free) > 1:
        raise ValueError(f"{len(free)} free positions, not one")
    if not free:
        return []
    v = {free[0]: one}
    for j in order[order.index(free[0]) + 1:]:
        sums = [sum((v[l] * c for l, c in col[j] if l in v), zero)
                for col in cols]
        if all(s.is_zero() for s in sums):
            continue
        solver = next(i for i, d in enumerate(diags) if not d[j].is_zero())
        v[j] = sums[solver] * -diags[solver][j].inv()
        if any(not (s + v[j] * d[j]).is_zero()
               for i, (s, d) in enumerate(zip(sums, diags)) if i != solver):
            return []
    return [v]
