"""Exact linear algebra over the coefficient field, sized for the tiny
graded components that the verification suites touch.

The field is whatever the inputs' scalars belong to: zero and one are
taken from the inputs, never built here."""

from __future__ import annotations


def _weight(s) -> int:
    return len(s.num) + len(s.den)


def rref(rows):
    """Reduced row echelon form (in place on a copied matrix).

    Returns (matrix, pivot column list).  Pivots favor entries with few
    terms to keep the exact arithmetic small.
    """
    if not rows:
        return [], []
    mat = [list(r) for r in rows]
    nrows, ncols = len(mat), len(mat[0])
    pivots = []
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        best = None
        for rr in range(row, nrows):
            if not mat[rr][col].is_zero():
                w = _weight(mat[rr][col])
                if best is None or w < best[0]:
                    best = (w, rr)
        if best is None:
            continue
        rr = best[1]
        mat[row], mat[rr] = mat[rr], mat[row]
        inv = mat[row][col].inv()
        mat[row] = [c * inv for c in mat[row]]
        for other in range(nrows):
            if other != row and not mat[other][col].is_zero():
                f = mat[other][col]
                mat[other] = [a - f * b for a, b in zip(mat[other], mat[row])]
        pivots.append(col)
        row += 1
    return mat, pivots


def nullspace(rows, zero, one):
    """Basis of {x : A x = 0} for a nonempty A given as a list of rows,
    with zero and one those of A's field."""
    ncols = len(rows[0])
    mat, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [zero] * ncols
        v[fc] = one
        for prow, pcol in enumerate(pivots):
            v[pcol] = -mat[prow][fc]
        basis.append(v)
    return basis


def mat_vec_rows(vec, rows, zero):
    """Row vector times matrix (matrix given as list of rows)."""
    out = [zero] * len(rows[0])
    for i, vi in enumerate(vec):
        if vi.is_zero():
            continue
        row = rows[i]
        for j, rij in enumerate(row):
            if not rij.is_zero():
                out[j] = out[j] + vi * rij
    return out


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def joint_left_kernel(mats, shifts):
    """Vectors v with v (M_i - shift_i I) = 0 for every i.

    mats is a list of square matrices (rows convention), shifts a list
    of nonzero scalars, from the first of which the field's zero and one
    are taken.  Works by intersecting kernels one matrix at a time in
    the coordinates of the running kernel basis.
    """
    dim = len(mats[0])
    zero, one = shifts[0] - shifts[0], shifts[0] / shifts[0]
    kernel = []
    for j in range(dim):
        v = [zero] * dim
        v[j] = one
        kernel.append(v)
    for M, a in zip(mats, shifts):
        shifted = [list(row) for row in M]
        for j in range(dim):
            shifted[j][j] = shifted[j][j] - a
        constraint = [mat_vec_rows(v, shifted, zero) for v in kernel]
        coeffs = nullspace(transpose(constraint), zero, one)
        new_kernel = []
        for c in coeffs:
            v = [zero] * dim
            for s, cs in enumerate(c):
                if not cs.is_zero():
                    for j in range(dim):
                        v[j] = v[j] + cs * kernel[s][j]
            new_kernel.append(v)
        kernel = new_kernel
        if not kernel:
            break
    return kernel
