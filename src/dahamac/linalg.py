"""Exact linear algebra over the coefficient field, sized for the tiny
graded components that the verification suites touch."""

from __future__ import annotations

from .field import Scalar


def _weight(s: Scalar) -> int:
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


def nullspace(rows):
    """Basis of {x : A x = 0} for a nonempty A given as a list of rows."""
    ncols = len(rows[0])
    k = rows[0][0].k
    mat, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Scalar.zero(k) for _ in range(ncols)]
        v[fc] = Scalar.one(k)
        for prow, pcol in enumerate(pivots):
            v[pcol] = -mat[prow][fc]
        basis.append(v)
    return basis


def mat_vec_rows(vec, rows):
    """Row vector times matrix (matrix given as list of rows)."""
    ncols = len(rows[0])
    k = vec[0].k
    out = [Scalar.zero(k) for _ in range(ncols)]
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
    of Scalars.  Works by intersecting kernels one matrix at a time in
    the coordinates of the running kernel basis.
    """
    dim = len(mats[0])
    k = shifts[0].k
    kernel = []
    for j in range(dim):
        v = [Scalar.zero(k) for _ in range(dim)]
        v[j] = Scalar.one(k)
        kernel.append(v)
    for M, a in zip(mats, shifts):
        shifted = [list(row) for row in M]
        for j in range(dim):
            shifted[j][j] = shifted[j][j] - a
        constraint = [mat_vec_rows(v, shifted) for v in kernel]
        coeffs = nullspace(transpose(constraint))
        new_kernel = []
        for c in coeffs:
            v = [Scalar.zero(k) for _ in range(dim)]
            for s, cs in enumerate(c):
                if not cs.is_zero():
                    for j in range(dim):
                        v[j] = v[j] + cs * kernel[s][j]
            new_kernel.append(v)
        kernel = new_kernel
        if not kernel:
            break
    return kernel
