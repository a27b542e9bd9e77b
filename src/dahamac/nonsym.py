"""Higher rank non-symmetric Macdonald polynomials.

E indices are tuples of r integer vectors of length n.  The
construction raises one component at a time, last to first: E of the
zero index is 1, and the first nonzero component ell is raised from
zero by a greedy affine walk on E of the same index with component ell
zeroed.  The walk applies the cycling move q_ell^{nu_n} x_{ell,1} pi at
pi steps and the Hecke intertwiner T_j + (t-1)/(1 - alpha(j)/alpha(j+1))
at s_j steps, with nu the component and alpha the weight of the index
before the move.  The rows before ell are zero, so T_j and pi act on
the polynomial as on one in groups ell..r alone: xi_j of a zero row is
0 and pi charges nothing for it.  Negative entries are removed up
front: E of the index with every component shifted along the
all-ones vector to be nonnegative, shifted back by omega_shift.

The greedy walk down from a component is deterministic, so its word
is prefix-closed: the first s letters of the word of nu are the word
of the vector they carry 0 to.  The polynomial the walk holds after s
letters is therefore E of that intermediate index, by the same
arithmetic.  E caches every index its walk passes and starts a walk at
the last index of its chain that is already cached, so each index
costs one raising step once the index one letter down is known.

Every weight is read off the closed form weight_of, through the gamma
twist, once per record; the walk reads it off the record.  The rank-1
counting formula kappa is an independent check of it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import affine
from .field import MAX_EXP, KroneckerRing, Scalar, integer
from .laurent import LaurentPoly, clear_poly_denominators, multidegree
from .rep import RepContext, apply_T, apply_pi, apply_Y, matrix_of, \
    component_basis, apply_operator_expr
from .linalg import joint_left_kernel, triangular_family


@dataclass(frozen=True)
class MacdonaldRecord:
    index: tuple
    poly: LaurentPoly
    weight: tuple


def _normalize_index(mu_tuple, n):
    """The index as a tuple of int tuples of length n.

    An entry past MAX_EXP in size is refused before any walk: the
    weight's q-exponent has the entry's size, and a Scalar caps
    exponents at MAX_EXP.
    """
    out = []
    for comp in mu_tuple:
        comp = tuple(integer(e) for e in comp)
        if len(comp) != n:
            raise ValueError("component length mismatch")
        if any(abs(e) > MAX_EXP for e in comp):
            raise ValueError(f"index entries must lie in "
                             f"-{MAX_EXP}..{MAX_EXP}")
        out.append(comp)
    return tuple(out)


# ---------------------------------------------------------------------------
# weights


def weight_of(ctx: RepContext, mu_tuple):
    """The Y-weight of E_{mu}: entry i is t^(n - sigma_i) times
    prod_ell q_ell^-(gamma_ell)_i, with (gamma, sigma) from
    affine.gamma_sigma."""
    mu_tuple = _normalize_index(mu_tuple, ctx.n)
    if len(mu_tuple) != ctx.r:
        raise ValueError("index has wrong number of components")
    gamma, sigma = affine.gamma_sigma(mu_tuple)
    out = []
    for i in range(1, ctx.n + 1):
        qexps = {}
        for ell, g in enumerate(gamma, start=1):
            if g[i - 1]:
                qexps[ell] = -g[i - 1]
        out.append(ctx.scalar(t=ctx.n - sigma[i - 1], q=qexps))
    return tuple(out)


def kappa(ctx: RepContext, mu):
    """Rank-1 weight by the counting formula."""
    if ctx.r != 1:
        raise ValueError("kappa is a rank-1 formula")
    n = ctx.n
    mu = tuple(integer(e) for e in mu)
    if len(mu) != n:
        raise ValueError("component length mismatch")
    out = []
    for j in range(1, n + 1):
        beta = sum(1 for kk in range(j - 1) if mu[kk] > mu[j - 1]) \
            + sum(1 for kk in range(j, n) if mu[j - 1] <= mu[kk])
        out.append(ctx.scalar(t=beta, q={1: -mu[j - 1]}))
    return tuple(out)


# ---------------------------------------------------------------------------
# construction


_E_CACHE = {}
_P_CACHE = {}   # symmetric.P's records, on (ctx, normalised nu)


def clear_cache():
    """Empty the E, P and Y-matrix caches."""
    for cache in (_E_CACHE, _P_CACHE, _YMAT_CACHE):
        cache.clear()


def shift_factor(ctx: RepContext, mu_tuple, j, c) -> Scalar:
    """The q-monomial of omega_shift(mu, j, c, .).

    The affine walk behind the construction crosses every other row
    once per pi step, so the shift costs q_j on each earlier
    component's degree and q_m on each later component's own degree.
    """
    mu_tuple = _normalize_index(mu_tuple, ctx.n)
    if not 1 <= j <= ctx.r:
        raise ValueError("component index out of range")
    qexps = {m: -c * sum(mu_tuple[m - 1]) for m in range(j + 1, ctx.r + 1)}
    qexps[j] = -c * sum(sum(comp) for comp in mu_tuple[:j - 1])
    return ctx.scalar(q=qexps)


def omega_shift(ctx: RepContext, mu_tuple, j, c, p) -> LaurentPoly:
    """shift_factor(mu, j, c) * x-underbar_j^(c omega) * p.

    For p = E(mu) this is E of mu with c*(1,...,1) added to component
    j.  shift_factor reads only the components other than j, so the
    shift by -c from that index undoes the shift by c.
    """
    f = shift_factor(ctx, mu_tuple, j, c)
    flat = [0] * (ctx.r * ctx.n)
    flat[(j - 1) * ctx.n:j * ctx.n] = [c] * ctx.n
    return p.mul_monomial(tuple(flat)).smul(f)


def raise_step(ctx: RepContext, ell, g, rec: MacdonaldRecord) -> LaurentPoly:
    """One letter g of the walk raising component ell of the record.

    At pi this is q_ell^{nu_n} x_{ell,1} pi, with nu component ell of
    the record's index; at s_j the intertwiner T_j + (t-1)/(1 - alpha_j
    / alpha_{j+1}), with alpha the record's weight.
    """
    p = rec.poly
    if g == affine.PI:
        last = rec.index[ell - 1][-1]
        flat = [0] * (ctx.r * ctx.n)
        flat[(ell - 1) * ctx.n] = 1
        p = apply_pi(ctx, p).mul_monomial(tuple(flat))
        return p.smul(ctx.scalar(q={ell: last})) if last else p
    alpha = rec.weight
    c = -ctx.one_minus_t / (ctx.scalar() - alpha[g - 1] / alpha[g])
    return apply_T(ctx, g, p) + p.smul(c)


def _remember(ctx: RepContext, index, poly) -> MacdonaldRecord:
    rec = MacdonaldRecord(index, poly, weight_of(ctx, index))
    _E_CACHE[(ctx, index)] = rec
    return rec


def E(ctx: RepContext, mu_tuple) -> MacdonaldRecord:
    """The non-symmetric Macdonald polynomial record for an index.

    The walk raising component ell passes one index per prefix of the
    word of mu's component ell, and holds that index's E there (see the
    module docstring).  It starts at the last of these indices already
    cached (E of the zeroed index otherwise, a recursion over
    components only), caches a record for every index it passes, and
    runs as a loop, so long words need no deep recursion.
    """
    mu_tuple = _normalize_index(mu_tuple, ctx.n)
    if len(mu_tuple) != ctx.r:
        raise ValueError("index has wrong number of components")
    hit = _E_CACHE.get((ctx, mu_tuple))
    if hit is not None:
        return hit

    shifted, shifts = zip(*map(affine.omega_normalize, mu_tuple))
    ell = next((i for i, comp in enumerate(mu_tuple, 1) if any(comp)), 0)
    if any(shifts):
        cur = E(ctx, shifted).poly
        for j, c in enumerate(shifts, 1):
            if c:
                cur = omega_shift(ctx, mu_tuple[:j - 1] + shifted[j - 1:],
                                  j, -c, cur)
    elif ell:
        # chain[s] is the index before letter s; chain[-1] is mu
        word = affine.coset_word(mu_tuple[ell - 1])
        head, tail = mu_tuple[:ell - 1], mu_tuple[ell:]
        chain = [head + ((0,) * ctx.n,) + tail]
        for g in word:
            chain.append(head + (affine.act_gen(g, chain[-1][ell - 1]),)
                         + tail)
        start = next((s for s in reversed(range(len(word)))
                      if (ctx, chain[s]) in _E_CACHE), 0)
        rec = E(ctx, chain[start])
        for s in range(start, len(word)):
            rec = _remember(ctx, chain[s + 1],
                            raise_step(ctx, ell, word[s], rec))
        return rec
    else:
        cur = ctx.one()
    return _remember(ctx, mu_tuple, cur)


# ---------------------------------------------------------------------------
# eigen oracles


_YMAT_CACHE = {}


def _y_matrices(ctx: RepContext, d):
    """(basis, family) of the component of multidegree d: its
    component_basis, and the TriangularFamily of the matrices of
    Y_1, ..., Y_n on it, prepared once per (ctx, d) and kept in
    _YMAT_CACHE."""
    key = (ctx, d)
    hit = _YMAT_CACHE.get(key)
    if hit is None:
        mats = [matrix_of(ctx, lambda p, i=i: apply_Y(ctx, i, p), d)
                for i in range(1, ctx.n + 1)]
        hit = _YMAT_CACHE[key] = (component_basis(ctx, d),
                                  triangular_family(mats))
    return hit


def eigen_oracle_Y(ctx: RepContext, mu_tuple) -> LaurentPoly:
    """Joint Y-eigenvector found by exact linear algebra, first
    basis-ordered coefficient normalized to 1.

    It is the vector v with v M_i = weight_i v for every Y-matrix M_i
    on the component of mu's multidegree, unique up to scale, found by
    joint_left_kernel on the component's family from _y_matrices.
    ValueError for two free positions (see joint_left_kernel), which
    distinct weights rule out; ArithmeticError for a zero eigenspace.
    """
    mu_tuple = _normalize_index(mu_tuple, ctx.n)
    if any(e < 0 for comp in mu_tuple for e in comp):
        raise ValueError("oracle needs a nonnegative index")
    d = index_multidegree(mu_tuple)
    basis, family = _y_matrices(ctx, d)
    kernel = joint_left_kernel(family, list(weight_of(ctx, mu_tuple)))
    if len(kernel) != 1:
        raise ArithmeticError(f"joint eigenspace on component {d} has "
                              f"dimension {len(kernel)}")
    poly = LaurentPoly(ctx.r, ctx.n, ctx.k,
                       {basis[j]: c for j, c in kernel[0].items()})
    lead = poly.terms[min(poly.terms)]
    return poly if lead.is_one() else poly.smul(lead.inv())


# ---------------------------------------------------------------------------
# Knop-Sahi moves and triangularity


def _s_move_fault(gamma, moved, ell):
    """Why the s_j that carries the rows gamma to moved is no s-move on
    row ell (see knop_sahi_check), or None when it is one."""
    if moved[:ell - 1] != gamma[:ell - 1]:
        return "move hypothesis fails: earlier row not s_j-fixed"
    if not affine.bruhat_less(gamma[ell - 1], moved[ell - 1]):
        return "move hypothesis fails: row not raised"
    return None


def knop_sahi_moves(ctx: RepContext, mu_tuple):
    """The moves to check on E(mu): ("pi",), then each s-move
    ("s", j, ell) whose hypotheses hold (ell, then j, ascending), then
    ("shift", j, 1) and ("shift", j, -1) for each component j."""
    gamma, _ = affine.gamma_sigma(_normalize_index(mu_tuple, ctx.n))
    moves = [("pi",)]
    for ell in range(1, ctx.r + 1):
        for j in range(1, ctx.n):
            moved = tuple(affine.act_gen(j, row) for row in gamma)
            if _s_move_fault(gamma, moved, ell) is None:
                moves.append(("s", j, ell))
    return moves + [("shift", j, c) for j in range(1, ctx.r + 1)
                    for c in (1, -1)]


def knop_sahi_check(ctx: RepContext, mu_tuple, move) -> bool:
    """Verify one move of the raising machinery on E(mu).

    move is ("pi",), ("s", j, ell) or ("shift", j, c), its integers
    read by field.integer.

    The s-move is stated on the rows of gamma(mu), the exponent rows of
    E(mu)'s top monomial, because T_j swaps positions j, j+1 in every
    group: s_j must fix gamma's rows before ell and raise row ell in the
    Bruhat order, and the target is the index whose gamma is s_j
    applied to every row.  The shift move checks E(mu + c omega_j) =
    omega_shift(mu, j, c, E(mu)).
    """
    mu_tuple = _normalize_index(mu_tuple, ctx.n)
    base = E(ctx, mu_tuple)
    kind = move[0]
    if kind == "pi":
        target = (affine.act_gen(affine.PI, mu_tuple[0]),) + mu_tuple[1:]
        return E(ctx, target).poly == raise_step(ctx, 1, affine.PI, base)
    if kind == "s":
        j, ell = map(integer, move[1:])
        if not 1 <= ell <= ctx.r:
            raise ValueError("component index out of range")
        if not 1 <= j <= ctx.n - 1:
            raise ValueError("generator index out of range")
        gamma, _ = affine.gamma_sigma(mu_tuple)
        moved = tuple(affine.act_gen(j, row) for row in gamma)
        fault = _s_move_fault(gamma, moved, ell)
        if fault:
            raise ValueError(fault)
        target = affine.gamma_inverse(moved)
        return E(ctx, target).poly == raise_step(ctx, ell, j, base)
    if kind == "shift":
        j, c = map(integer, move[1:])
        # omega_shift refuses j outside 1..r before mu[j - 1] is read
        rhs = omega_shift(ctx, mu_tuple, j, c, base.poly)
        shifted = tuple(e + c for e in mu_tuple[j - 1])
        return E(ctx, mu_tuple[:j - 1] + (shifted,) + mu_tuple[j:]).poly \
            == rhs
    raise ValueError(f"unknown move kind {kind!r}")


def verify_triangular(ctx: RepContext, mu, beta_tuple) -> bool:
    """Leading-block and lower-set shape of E_{(mu, beta)}.

    Checks that the terms of E_{(mu, beta)} with group-1 row mu are,
    with that row stripped, the terms with group-1 row 0 of T_mu
    E_{(0, beta)}, and that every other group-1 row lies strictly below
    mu in the Bruhat order.  T_mu is the coset word of mu, first letter
    applied first, evaluated by rep.apply_operator_expr.
    """
    mu = tuple(integer(e) for e in mu)
    if any(e < 0 for e in mu):
        raise ValueError("triangularity check needs nonnegative mu")
    beta_tuple = _normalize_index(beta_tuple, ctx.n) if beta_tuple else ()
    n, zero_row = ctx.n, (0,) * ctx.n
    t_mu = [((), [("pi",) if g == affine.PI else ("T", g)
                  for g in reversed(affine.coset_word(mu))])]
    full = E(ctx, (mu,) + beta_tuple).poly.terms
    block = apply_operator_expr(ctx, t_mu,
                                E(ctx, (zero_row,) + beta_tuple).poly).terms
    if {m[n:]: c for m, c in full.items() if m[:n] == mu} != \
            {m[n:]: c for m, c in block.items() if m[:n] == zero_row}:
        return False
    return all(row == mu or affine.bruhat_less(row, mu)
               for row in {m[:n] for m in full})


def index_multidegree(mu_tuple):
    return tuple(sum(comp) for comp in mu_tuple)


def check_record(ctx: RepContext, rec: MacdonaldRecord) -> bool:
    """Direct Y-eigen re-verification of a record, exact, on packed ints.

    The check runs on c E rather than E, with c = D prod_ell
    q_ell^(M_ell): D is the lcm of E's coefficient denominators and M_ell
    the largest x-exponent in group ell (0 if none is positive).  Y_i
    is linear and c is a nonzero scalar, so Y_i(c E) = w_i c E holds
    exactly when Y_i E = w_i E does, and with w_i = num / den that is
    den Y_i(c E) = num c E.  c E has coefficients in Z[t, q].
    In Y_i's integral form (see rep) the T_j factors have coefficients
    in Z[t] and raise no exponent of a group past its largest, and pi
    divides group ell's coefficients by q_ell^(last exponent) <=
    q_ell^(M_ell), so no coefficient inside Y_i has a denominator.

    c E is packed once into a field.KroneckerRing, given the weights,
    and the unchanged Y_i runs on the packed ints through a context of
    that ring.  The ring's comparison is the polynomial one (its
    docstring proves it) given these bounds on the chain, with R the
    largest sum of |x-exponents| of a term of c E:

    - ||T_j f||_1 <= (1 + 2R) ||f||_1.  s_j permutes terms; a term's
      xi_j pieces over the r groups number at most sum over groups of
      |a - b| <= R, each with the term's coefficient up to sign, and
      (1 - t) at most doubles a 1-norm.
    - ||(T_j + t - 1) f||_1 <= (3 + 2R) ||f||_1: the accumulator also
      holds -f before its (1 - t) product.
    - R never grows: s_j and pi permute exponents, and xi_j's exponent
      pairs (a - s, b + s) have |a - s| + |b + s| <= |a| + |b|.  No
      group's exponents leave the range they span in c E either.
    - pi leaves ||.||_1 alone.  It lowers the q_ell-degree by the last
      exponent of row ell, or raises it by at most -L_ell when that
      exponent is negative, L_ell the least exponent of group ell.
    - Each T_j factor raises the t-degree by at most 1, through 1 - t,
      and Y_i has n - 1 of them.

    So ||Y_i(c E)||_1 <= (3 + 2R)^(n-1) ||c E||_1, its t-degree grows
    by at most n - 1 and its q_ell-degree by at most max(0, -L_ell).
    The verdict is exact and deterministic: no option, no random point.
    """
    ring, cE = _pack_record(ctx, rec)
    packed = RepContext(ctx.n, ctx.r, ctx.k, ring)
    for i in range(1, ctx.n + 1):
        num, den = ring.fraction(rec.weight[i - 1])
        if apply_Y(packed, i, cE).smul(den) != cE.smul(num):
            return False
    return multidegree(rec.poly) == index_multidegree(rec.index)


def _pack_record(ctx: RepContext, rec: MacdonaldRecord):
    """(ring, c E on packed ints) for check_record, which states c and
    the bounds given to the ring."""
    _, poly = clear_poly_denominators(rec.poly)
    n, r = ctx.n, ctx.r
    tops, lows = {}, {}
    for ell in range(1, r + 1):
        exps = [e for m in poly.terms for e in m[(ell - 1) * n:ell * n]]
        top, low = max(exps, default=0), min(exps, default=0)
        if top > 0:
            tops[ell] = top
        if low < 0:
            lows[ell] = -low
    reach = max((sum(map(abs, m)) for m in poly.terms), default=0)
    ring = KroneckerRing(ctx.k, poly.terms.values(),
                         growth=(3 + 2 * reach) ** (n - 1), t_rise=n - 1,
                         q_rise=lows, lift=tops, weights=rec.weight)
    up = ring.monomial(q=tops)
    return ring, LaurentPoly(r, n, ctx.k, {m: ring.pack(c) * up
                                           for m, c in poly.terms.items()})
