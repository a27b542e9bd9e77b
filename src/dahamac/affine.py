"""Extended affine symmetric group combinatorics on Z^n.

Words over the alphabet {pi, s_1, ..., s_{n-1}} act on integer vectors:
s_j swaps entries j, j+1 and pi maps (a_1, ..., a_n) to
(a_n + 1, a_1, ..., a_{n-1}).  Words are lists whose elements are the
string "pi" or an int j; they act left to right, first letter first.

Nonnegative vectors are identified with minimal coset representatives
through a greedy word.  Forgetting the affine translation sends a word
to a finite permutation, the bar map: pi goes to s_{n-1}...s_1 and
s_j to itself; sigma_of gives the bar of a coset word in closed form.
"""

from __future__ import annotations

PI = "pi"


def act_gen(g, a):
    """One generator applied to a vector."""
    if g == PI:
        return (a[-1] + 1,) + tuple(a[:-1])
    j = g
    if not 1 <= j <= len(a) - 1:
        raise IndexError("generator index out of range")
    out = list(a)
    out[j - 1], out[j] = out[j], out[j - 1]
    return tuple(out)


def _covers_down(v):
    """All u covered by v in the Bruhat order (one step down)."""
    n = len(v)
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            if v[i] < v[j]:
                u = list(v)
                u[i], u[j] = u[j], u[i]
                out.append(tuple(u))
            elif v[i] > v[j] + 1:
                u = list(v)
                u[i], u[j] = v[j] + 1, v[i] - 1
                out.append(tuple(u))
    return out


def bruhat_less(a, b) -> bool:
    """Strictly below in the transitive closure of the cover moves."""
    a, b = tuple(a), tuple(b)
    if len(a) != len(b) or sum(a) != sum(b) or a == b:
        return False
    seen = {b}
    frontier = [b]
    while frontier:
        nxt = []
        for v in frontier:
            for u in _covers_down(v):
                if u == a:
                    return True
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return False


def coset_word(mu):
    """Greedy word w that carries 0 to mu, for nonnegative mu.

    Walking down from mu: an ascent mu_j < mu_{j+1} contributes s_j;
    otherwise mu is weakly decreasing and a pi step peels
    (mu_2, ..., mu_n, mu_1 - 1).  The recorded steps reversed give the
    word building mu up from 0.
    """
    v = list(mu)
    if any(e < 0 for e in v):
        raise ValueError("coset_word needs nonnegative entries")
    n = len(v)
    rec = []
    while any(v):
        for j in range(n - 1):
            if v[j] < v[j + 1]:
                rec.append(j + 1)
                v[j], v[j + 1] = v[j + 1], v[j]
                break
        else:
            rec.append(PI)
            v = v[1:] + [v[0] - 1]
    rec.reverse()
    return rec


# ---------------------------------------------------------------------------
# finite permutations (one-line tuples)


def perm_id(n):
    return tuple(range(1, n + 1))


def perm_compose(u, v):
    """(u o v)(i) = u(v(i))."""
    return tuple(u[v[i] - 1] for i in range(len(u)))


def perm_inv(u):
    out = [0] * len(u)
    for i, ui in enumerate(u):
        out[ui - 1] = i + 1
    return tuple(out)


def perm_act(u, vec):
    """Position action used by the gamma twist: (u . v)(i) = v(u(i))."""
    return tuple(vec[u[i] - 1] for i in range(len(u)))


def omega_normalize(mu):
    """Shift c making mu + c*omega nonnegative; returns (shifted, c)."""
    c = max(0, -min(mu))
    return tuple(e + c for e in mu), c


def sigma_of(mu):
    """bar of the coset word of mu, after omega-normalization, in closed
    form: the standardization of mu, in which position i gets 1 + the
    rank of (mu_i, i) in ascending order.  The omega shift adds the
    same constant to every entry and leaves the ranks alone; unlike the
    coset word, whose length grows with the entries, this takes
    O(n log n) whatever their size.
    """
    out = [0] * len(mu)
    # sorted is stable, so equal entries keep their order of position
    for rank, i in enumerate(sorted(range(len(mu)), key=mu.__getitem__), 1):
        out[i] = rank
    return tuple(out)


def gamma_sigma(mu_tuple):
    """The twisted tuple gamma and total permutation sigma of an index.

    gamma's component ell is mu^(ell) twisted by the product of the
    sigma's of the earlier components, applied leftmost factor first
    under the position action above; sigma is the product over all
    components in the same convention.  Fixed by the closed-form weight
    check against the Psi composition.
    """
    n = len(mu_tuple[0])
    prefix = perm_id(n)
    gamma = []
    for comp in mu_tuple:
        gamma.append(perm_act(prefix, comp))
        prefix = perm_compose(sigma_of(comp), prefix)
    return tuple(gamma), prefix


def gamma_inverse(gamma_tuple):
    """The index whose gamma is gamma_tuple: the inverse of gamma_sigma's
    first output.

    Component ell is undone by the inverse of the same prefix product,
    which only depends on the components already recovered.
    """
    n = len(gamma_tuple[0])
    prefix = perm_id(n)
    mu = []
    for g in gamma_tuple:
        comp = perm_act(perm_inv(prefix), tuple(g))
        mu.append(comp)
        prefix = perm_compose(sigma_of(comp), prefix)
    return tuple(mu)
