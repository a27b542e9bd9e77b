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
eigenvector follows by forward substitution along it.  The family is
prepared once (`triangular_family`): its diagonals, its columns, that
order, and a dict from each tuple of diagonals to its positions.  It
is then solved for any shifts, and it solves only for one free
position (every diagonal entry equal to its shift), found by one
lookup in that dict, and refuses two.  The Y families have one: their
joint diagonals are the weights of the component's indices, which are
pairwise distinct because `nonsym.weight_of` is injective (its t- and
q-exponents give back σ and γ, and `gamma_inverse(γ)` is the index).
Each later position is one `field.solve_column`: its column's values
are cleared over one lcm, each equation's sum is a numerator over one
common denominator, the equations it is not solved with are checked
by cross-multiplying with the gaps (shift minus diagonal), with no
reduction, and the solved entry, gap included, is reduced once.

The scalars are `field.Scalar`s: zero and one are taken from the
inputs, never built here."""

from __future__ import annotations

from collections import Counter
from graphlib import TopologicalSorter
from typing import NamedTuple

from .field import solve_column


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


class TriangularFamily(NamedTuple):
    """Matrices with one shared triangular order, prepared once for
    joint_left_kernel at any shifts (see triangular_family).

    Position j has the diagonal entries diagonals[j] (one per matrix)
    and the off-diagonal column columns[j]: per matrix, the (l, entry)
    of its nonzero entries in column j.  order lists the positions so
    that every l of a column comes before its j, and positions maps
    each tuple of diagonals to the positions that have it."""

    order: tuple
    diagonals: tuple
    columns: tuple
    positions: dict


def triangular_family(mats):
    """The TriangularFamily of mats, a list of square matrices of one
    size, each a list of sparse rows.

    The order is a topological order of the positions under the edges
    l -> j for M_i[l][j] != 0, l != j; ValueError when there is none
    (the edges have a cycle).  A zero diagonal entry is the zero of an
    entry of the matrices."""
    dim = len(mats[0])
    zero = None
    if any(j not in M[j] for M in mats for j in range(dim)):
        zero = next((c - c for M in mats for row in M for c in row.values()),
                    None)
    columns = [[[] for _ in mats] for _ in range(dim)]
    for i, M in enumerate(mats):
        for l, row in enumerate(M):
            for j, c in row.items():
                if j != l:
                    columns[j][i].append((l, c))
    columns = tuple(tuple(map(tuple, col)) for col in columns)
    diagonals = tuple(tuple(M[j].get(j, zero) for M in mats)
                      for j in range(dim))
    positions = {}
    for j, diag in enumerate(diagonals):
        positions.setdefault(diag, []).append(j)
    preds = {j: {l for eq in columns[j] for l, _ in eq} for j in range(dim)}
    order = tuple(TopologicalSorter(preds).static_order())
    return TriangularFamily(order, diagonals, columns, positions)


def joint_left_kernel(family, shifts):
    """The vectors v with v (M_i - shift_i I) = 0 for every matrix M_i of
    family, a TriangularFamily: [v] or [].  shifts is a list of nonzero
    scalars, one per matrix, from the first of which the field's zero
    and one are taken.

    Column j of M_i - shift_i I is the equation
    sum_l v_l M_i[l][j] + v_j (M_i[j][j] - shift_i) = 0, where every l
    of the sum comes before j in the family's order.  A position whose
    diagonals are the shifts is free, found by one lookup in
    family.positions.  Two free positions raise ValueError, and none
    gives [].  With one, v is zero before it and one there; past it,
    each v_j is field.solve_column of its column: solved from the first
    i with M_i[j][j] != shift_i, every other equation checked by
    cross-multiplying over one common denominator, and one reduction
    of the solved entry.  A failed check gives [].  No entry of v is
    zero: a position whose solution is zero is left out.
    """
    zero, one = shifts[0] - shifts[0], shifts[0] / shifts[0]
    free = family.positions.get(tuple(shifts), ())
    if len(free) > 1:
        raise ValueError(f"{len(free)} free positions, not one")
    if not free:
        return []
    order = family.order
    v = {free[0]: one}
    for j in order[order.index(free[0]) + 1:]:
        vj = solve_column(v, family.columns[j], shifts, family.diagonals[j],
                          zero)
        if vj is None:
            return []
        if vj:
            v[j] = vj
    return [v]
