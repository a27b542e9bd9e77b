"""Truncation maps between ranks and stable symmetric families.

The truncation Pi drops the last column of variables: a monomial
survives (with x_{j,n+1} deleted) exactly when none of its rows uses
column n+1, and is killed otherwise.  Pi commutes with T_j (j < n)
and with theta_i (i <= n) on the whole polynomial space, sends
theta_{n+1} - t^n to zero, and intertwines e_1(Y) - [n+1]_t with
e_1(Y) - [n]_t there too (e_1(Y) = Y_1 + Y_2 + ...).  On symmetric
inputs those are Delta_{n+1} and Delta_n (rep.apply_Delta_n); only
Delta's form eps (...) eps needs the symmetric subspace.

A stable index is a tuple of integer vectors with nonzero last
entries; padding each vector with zeros to length n gives a chain of
orbit indices, and the symmetric polynomials attached to the chain
(each monic at its padded index, see symmetric.P) are expected to be
Pi-compatible with an n-independent eigenvalue.  stable_family checks
those expectations and reports every discrepancy instead of asserting,
so the caller sees exactly which step fails, if any.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import Scalar, integer
from .laurent import LaurentPoly, is_positive
from .rep import RepContext, apply_T, apply_theta, apply_Delta_n, \
    _monomials_upto
from .symmetric import P, is_orbit_index


@dataclass(frozen=True)
class StableIndex:
    """Tuple of nonnegative integer vectors with nonzero last entries."""

    components: tuple

    def __post_init__(self):
        comps = tuple(tuple(integer(e) for e in c) for c in self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise ValueError("need at least one component")
        for c in comps:
            if any(e < 0 for e in c):
                raise ValueError("entries must be nonnegative")
            if c and c[-1] == 0:
                raise ValueError("nonempty components must end in a "
                                 "nonzero entry")
        if self.ell >= 1 and not is_orbit_index(iota(self, self.ell)):
            raise ValueError("zero-padding to the maximal length does "
                             "not give an orbit index")

    @property
    def r(self):
        return len(self.components)

    @property
    def ell(self):
        return max(len(c) for c in self.components)


def iota(nu: StableIndex, n: int):
    """Zero-pad every component of nu to length n."""
    if n < nu.ell:
        raise ValueError("cannot pad below the maximal component length")
    return tuple(c + (0,) * (n - len(c)) for c in nu.components)


def project(p: LaurentPoly) -> LaurentPoly:
    """Delete the last variable column; kill monomials that use it."""
    if not is_positive(p):
        raise ValueError("projection is defined on polynomial "
                         "(nonnegative-exponent) inputs only")
    if p.n < 2:
        raise ValueError("need at least two columns to project")
    n = p.n - 1
    out = {}
    for m, c in p.terms.items():
        rows = [m[j * (n + 1):(j + 1) * (n + 1)] for j in range(p.r)]
        if any(row[n] for row in rows):
            continue
        # surviving truncations are distinct, no coefficient merging
        out[tuple(e for row in rows for e in row[:n])] = c
    return LaurentPoly(p.r, n, p.k, out)


def verify_quotient_relations(n, r, degree_bound, k=None):
    """Exhaustive check of the four truncation identities.

    Each is applied to every positive monomial at size n+1 of
    multidegree at most degree_bound.  The Delta row, Pi (e_1(Y) -
    [n+1]_t) = (e_1(Y) - [n]_t) Pi, is Delta's intertwining on symmetric
    inputs.  It follows from the theta rows and e_1(Y) = e_1(theta),
    observed on every monomial of small boxes (tests/test_stability.py).
    """
    if k is None:
        k = r
    big = RepContext(n + 1, r, k)
    small = RepContext(n, r, k)
    tn = big.scalar(t=n)
    report = {"n": n, "r": r, "bound": tuple(degree_bound), "ok": True}
    identities = {}

    def run(name, lhs, rhs, inputs):
        checked, failures = 0, []
        for m in inputs:
            checked += 1
            if lhs(m) != rhs(m):
                failures.append(min(m.terms))
        identities[name] = {"checked": checked, "failures": failures}
        if failures:
            report["ok"] = False

    one = big.scalar()
    monomials = [LaurentPoly(big.r, big.n, big.k, {flat: one})
                 for flat in _monomials_upto(big, degree_bound)]
    for j in range(1, n):
        run(f"Pi T_{j} = T_{j} Pi",
            lambda m, j=j: project(apply_T(big, j, m)),
            lambda m, j=j: apply_T(small, j, project(m)),
            monomials)
    for i in range(1, n + 1):
        run(f"Pi theta_{i} = theta_{i} Pi",
            lambda m, i=i: project(apply_theta(big, i, m)),
            lambda m, i=i: apply_theta(small, i, project(m)),
            monomials)
    run(f"Pi (theta_{n + 1} - t^{n}) = 0",
        lambda m: project(apply_theta(big, n + 1, m) - m.smul(tn)),
        lambda m: small.zero(),
        monomials)
    run(f"Pi Delta_{n + 1} = Delta_{n} Pi",
        lambda m: project(apply_Delta_n(big, m)),
        lambda m: apply_Delta_n(small, project(m)),
        monomials)
    report["identities"] = identities
    return report


def kill_index(n, r):
    """Orbit index at size n whose polynomial dies under projection."""
    # all columns equal, so orbit-sortedness holds for every r
    return ((1,) * n,) + ((0,) * n,) * (r - 1)


def verify_P_stability(nu: StableIndex, n, k=None) -> bool:
    """True iff projecting the size-(n+1) member gives the size-n one.

    Also requires the kill case: the polynomial of an index with a
    nonzero entry in column n+1 must project to zero.
    """
    if n < max(nu.ell, 1):
        raise ValueError("n must be at least the maximal component length")
    if k is None:
        k = nu.r
    big = RepContext(n + 1, nu.r, k)
    small = RepContext(n, nu.r, k)
    compatible = project(P(big, iota(nu, n + 1)).poly) == \
        P(small, iota(nu, n)).poly
    killed = project(P(big, kill_index(n + 1, nu.r)).poly).is_zero()
    return compatible and killed


@dataclass(frozen=True)
class StableFamily:
    """Chain of symmetric records with its verification verdicts.

    members maps n to the record at size n.  projections maps n to
    whether the size-(n+1) member projects onto the size-n one.
    stable_value is the eigenvalue of the shortest member, the closed
    form delta_eigenvalue of its E's weight, so eigenvalue_constant says
    that every member has it.  remark_value is the partition-shape closed
    form (None when some component is not a partition).  errors lists
    every detected discrepancy in plain words; an empty list means the
    family is stable in range.
    """

    index: StableIndex
    members: dict
    projections: dict
    eigenvalue_constant: bool
    stable_value: Scalar
    remark_value: Scalar | None
    matches_remark: bool | None
    errors: tuple

    @property
    def ok(self):
        return not self.errors


def remark_eigenvalue(nu: StableIndex, k=None):
    """Partition-shape eigenvalue sum_i (prod_j q_j^-nu(j)_i - 1) t^(i-1).

    Defined only when every component is a partition (weakly
    decreasing); returns None otherwise.
    """
    if k is None:
        k = nu.r
    for c in nu.components:
        if any(c[i] < c[i + 1] for i in range(len(c) - 1)):
            return None
    ctx = RepContext(max(nu.ell, 1), nu.r, k)
    total = ctx.scalar(0)
    for i in range(nu.ell):
        qexps = {j: -c[i] for j, c in enumerate(nu.components, start=1)
                 if i < len(c)}
        total = total + ctx.scalar(t=i, q=qexps) - ctx.scalar(t=i)
    return total


def stable_family(nu: StableIndex, n_max, k=None) -> StableFamily:
    """Build the chain of records for n from max(ell, 1) to n_max.

    Every expected property is checked and reported in the verdict
    fields rather than asserted, so a failing step is visible to the
    caller.
    """
    start = max(nu.ell, 1)
    if n_max < start:
        raise ValueError("n_max must be at least the maximal component "
                         "length")
    if k is None:
        k = nu.r
    members = {}
    for n in range(start, n_max + 1):
        ctx = RepContext(n, nu.r, k)
        members[n] = P(ctx, iota(nu, n))
    errors = []
    projections = {}
    for n in range(start, n_max):
        projections[n] = project(members[n + 1].poly) == members[n].poly
        if not projections[n]:
            errors.append(f"projection mismatch: the size-{n + 1} member "
                          f"does not project onto the size-{n} member")
    stable_value = members[start].eigenvalue
    eigenvalue_constant = True
    for n in range(start + 1, n_max + 1):
        if members[n].eigenvalue != stable_value:
            eigenvalue_constant = False
            errors.append(f"eigenvalue n-dependence detected: the value "
                          f"at size {n} differs from the value at size "
                          f"{start}")
    remark_value = remark_eigenvalue(nu, k)
    matches_remark = None
    if remark_value is not None:
        matches_remark = all(
            members[n].eigenvalue == remark_value for n in members)
        if not matches_remark:
            errors.append("partition-shape eigenvalue formula differs "
                          "from the computed eigenvalue at some size in "
                          "range")
    return StableFamily(nu, members, projections, eigenvalue_constant,
                        stable_value, remark_value, matches_remark,
                        tuple(errors))
