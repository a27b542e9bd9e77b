"""Hecke-invariant Macdonald polynomials of higher rank.

An orbit index is the canonical representative of a diagonal
permutation orbit on tuples of integer vectors: the columns
(nu^(1)_i, ..., nu^(r)_i) are weakly decreasing in lexicographic
order.  The orbit index names the top monomial: E(mu) leads with
x^gamma(mu) (gamma from affine.gamma_sigma), so the polynomial attached
to nu is the symmetrizer image of E(gamma_inverse(nu)), which has a
term at x^nu.  It is an eigenvector of the spherical operator Delta_n
with the closed-form eigenvalue below, read off that same E's weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import affine
from .field import Scalar
from .laurent import LaurentPoly
from .rep import RepContext, apply_T, apply_Delta_n, symmetrize_eps, \
    matrix_of, compositions, t_bracket
from .nonsym import E, _P_CACHE, _normalize_index
from .linalg import rref


@dataclass(frozen=True)
class SymMacdonaldRecord:
    index: tuple
    poly: LaurentPoly
    eigenvalue: Scalar


def _columns(nu_tuple):
    n = len(nu_tuple[0])
    return [tuple(comp[i] for comp in nu_tuple) for i in range(n)]


def is_orbit_index(nu_tuple) -> bool:
    """Columns weakly decreasing in lex order.

    Adjacent tie-breaking descends through all earlier levels, not
    just the previous one; with one or two levels the two readings
    coincide, and only the cumulative one indexes every orbit.
    """
    nu_tuple = tuple(tuple(comp) for comp in nu_tuple)
    cols = _columns(nu_tuple)
    return all(cols[i] >= cols[i + 1] for i in range(len(cols) - 1))


def enumerate_orbit_indices(n, r, d):
    """All orbit indices with component degrees d, ascending: product
    over ascending pools yields ascending tuples."""
    if len(d) != r:
        raise ValueError("degree tuple length must equal r")
    pools = (compositions(dj, n) for dj in d)
    return [nu for nu in product(*pools) if is_orbit_index(nu)]


def delta_eigenvalue(ctx: RepContext, weight) -> Scalar:
    """The sum of a Y-weight minus [n]_t.

    For the weight_of(ctx, mu) of E(mu), with gamma, sigma =
    gamma_sigma(mu), this is sum_i (q_1^-gamma(1)(i) ...
    q_r^-gamma(r)(i) - 1) t^(n-sigma(i)), because sigma permutes 1..n.
    """
    total = -t_bracket(ctx)
    for w in weight:
        total = total + w
    return total


def P(ctx: RepContext, nu_tuple) -> SymMacdonaldRecord:
    """Symmetrizer image of the E with top monomial x^nu, monic there.

    That E is E(gamma_inverse(nu)); the coefficient of the monomial
    with exponent rows nu is set to 1, and the eigenvalue is
    delta_eigenvalue of the weight on that E's record.  Records are
    cached on (ctx, nu).
    """
    nu_tuple = _normalize_index(nu_tuple, ctx.n)
    if not is_orbit_index(nu_tuple):
        raise ValueError("not an orbit index")
    key = (ctx, nu_tuple)
    hit = _P_CACHE.get(key)
    if hit is not None:
        return hit
    e_rec = E(ctx, affine.gamma_inverse(nu_tuple))
    poly = symmetrize_eps(ctx, e_rec.poly,
                          monic_at=tuple(e for comp in nu_tuple for e in comp))
    rec = SymMacdonaldRecord(nu_tuple, poly,
                             delta_eigenvalue(ctx, e_rec.weight))
    _P_CACHE[key] = rec
    return rec


def verify_spectrum(ctx, n, r, d) -> dict:
    """Spectral theorem report on one graded component.

    Each enumerated index is checked for Hecke invariance and the
    exact eigen-equation; eigenvalues must be pairwise distinct and
    the number of indices must equal the rank of the symmetrizer on
    the component.
    """
    if ctx is None:
        ctx = RepContext(n=n, r=r, k=r)
    if ctx.n != n or ctx.r != r:
        raise ValueError("context does not match n, r")
    indices = enumerate_orbit_indices(n, r, d)
    rows = []
    values = []
    all_ok = True
    for nu in indices:
        rec = P(ctx, nu)
        values.append(rec.eigenvalue)
        invariant = all(apply_T(ctx, j, rec.poly) == rec.poly
                        for j in range(1, n))
        eigen = apply_Delta_n(ctx, rec.poly) == rec.poly.smul(rec.eigenvalue)
        ok = invariant and eigen
        all_ok = all_ok and ok
        rows.append({"index": nu, "ok": ok, "invariant": invariant,
                     "eigen": eigen, "eigenvalue": repr(rec.eigenvalue)})
    distinct = len(set(values)) == len(values)
    eps_mat = matrix_of(ctx, lambda p: symmetrize_eps(ctx, p), d)
    _, pivots = rref(eps_mat)
    eps_dim = len(pivots)
    count_ok = len(indices) == eps_dim
    all_ok = all_ok and distinct and count_ok
    return {"ok": all_ok, "indices": rows, "distinct": distinct,
            "count": len(indices), "eps_dim": eps_dim,
            "count_matches_dim": count_ok}

