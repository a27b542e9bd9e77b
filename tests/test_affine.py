"""Extended affine symmetric group combinatorics."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, strategies as st

from dahamac import affine
from dahamac.affine import (
    PI,
    act_gen,
    bruhat_less,
    coset_word,
    gamma_inverse,
    gamma_sigma,
    omega_normalize,
    perm_act,
    perm_compose,
    perm_id,
    perm_inv,
    sigma_of,
)

vectors = st.lists(st.integers(0, 3), min_size=2, max_size=4).map(tuple)
perms3 = st.permutations((1, 2, 3)).map(tuple)
words = st.lists(st.sampled_from([PI, 1, 2]), max_size=6)


# The references: a word's action on a vector, and its bar image in S_n.


def act(word, a):
    """A word applied to a vector, first letter first."""
    v = tuple(a)
    for g in word:
        v = act_gen(g, v)
    return v


def bar(word, n):
    """Image of a word in S_n: pi maps to s_{n-1}...s_1, s_j to itself.

    Computed by right-multiplying one-line windows in word order, which
    matches composing the images with the first letter innermost.
    """
    p = list(range(1, n + 1))
    for g in word:
        if g == PI:
            p = [p[-1]] + p[:-1]
        else:
            p[g - 1], p[g] = p[g], p[g - 1]
    return tuple(p)


def test_generator_action():
    assert act_gen(PI, (0, 0)) == (1, 0)
    assert act_gen(PI, (2, 5, 1)) == (2, 2, 5)
    assert act_gen(1, (2, 0)) == (0, 2)
    with pytest.raises(IndexError):
        act_gen(2, (1, 0))


def test_coset_word_literals():
    assert coset_word((1, 0)) == [PI]
    assert coset_word((0, 1)) == [PI, 1]
    assert coset_word((2, 0, 1)) == [PI, PI, 2, PI, 2]
    assert coset_word((0, 0, 0)) == []
    with pytest.raises(ValueError):
        coset_word((1, -1))


@given(vectors)
def test_coset_word_walks_up_from_zero(mu):
    n = len(mu)
    assert act(coset_word(mu), (0,) * n) == mu


@given(vectors)
def test_coset_word_is_prefix_closed(mu):
    # the greedy walk down from mu is deterministic, so every prefix of
    # its word is the word of the vector that prefix reaches
    word = coset_word(mu)
    zero = (0,) * len(mu)
    for s in range(len(word) + 1):
        assert coset_word(act(word[:s], zero)) == word[:s]


# ---------------------------------------------------------------------------
# Bruhat order on integer vectors


def test_bruhat_anchors():
    # a drop cover changes the multiset, a swap cover does not
    assert bruhat_less((1, 1, 0), (2, 0, 0))
    assert not bruhat_less((2, 0, 0), (1, 1, 0))
    assert bruhat_less((2, 0, 0), (0, 0, 2))
    assert bruhat_less((1, 0), (0, 1))
    assert not bruhat_less((0, 1), (1, 0))


def test_bruhat_rejects_mismatched_degree():
    assert not bruhat_less((1, 0), (2, 0))
    assert not bruhat_less((1, 0), (1, 0))
    assert not bruhat_less((1, 0, 0), (1, 0))


def test_bruhat_is_a_strict_partial_order():
    box = [v for v in itertools.product(range(4), repeat=3) if sum(v) == 3]
    for a in box:
        assert not bruhat_less(a, a)
        for b in box:
            if bruhat_less(a, b):
                assert not bruhat_less(b, a)
            for c in box:
                if bruhat_less(a, b) and bruhat_less(b, c):
                    assert bruhat_less(a, c)


def test_weakly_decreasing_is_minimal_in_its_orbit():
    lam = (2, 1, 0)
    for perm in itertools.permutations(lam):
        if perm != lam:
            assert bruhat_less(lam, perm)


# ---------------------------------------------------------------------------
# finite permutations and the bar map


@given(perms3, perms3)
def test_perm_compose_and_inverse(u, v):
    assert perm_compose(u, perm_inv(u)) == perm_id(3)
    assert perm_inv(perm_compose(u, v)) == perm_compose(perm_inv(v), perm_inv(u))


@given(perms3, perms3)
def test_position_action_is_contravariant(u, v):
    vec = (10, 20, 30)
    assert perm_act(perm_compose(u, v), vec) == perm_act(v, perm_act(u, vec))


@given(words, words)
def test_bar_is_a_word_homomorphism(w1, w2):
    # concatenation maps to perm_compose in the same order; under the
    # contravariant position action this applies the first letter first
    n = 3
    assert bar(w1 + w2, n) == perm_compose(bar(w1, n), bar(w2, n))


def test_bar_of_pi():
    # pi maps to the long cycle s_{n-1}...s_1
    assert bar([PI], 3) == (3, 1, 2)
    assert bar([PI] * 3, 3) == perm_id(3)


def test_sigma_of_small_vectors():
    assert sigma_of((1, 0)) == (2, 1)
    assert sigma_of((0, 1)) == (1, 2)
    assert sigma_of((0, 0, 0)) == perm_id(3)


@given(st.lists(st.integers(-3, 4), min_size=1, max_size=6).map(tuple))
def test_sigma_of_is_bar_of_the_coset_word(mu):
    # the closed form against its definition, negative entries included
    shifted, _ = omega_normalize(mu)
    assert sigma_of(mu) == bar(coset_word(shifted), len(mu))


# ---------------------------------------------------------------------------
# omega normalization and the index twist


def test_omega_normalize():
    assert omega_normalize((-1, 2)) == ((0, 3), 1)
    assert omega_normalize((0, 2)) == ((0, 2), 0)
    assert omega_normalize((-3, -1, 0)) == ((0, 2, 3), 3)


def test_gamma_sigma_anchor():
    gamma, sigma = gamma_sigma(((0, 1, 0), (2, 0, 0), (0, 0, 1)))
    assert gamma == ((0, 1, 0), (2, 0, 0), (1, 0, 0))
    assert sigma == (3, 2, 1)


def test_gamma_sigma_rank_one():
    gamma, sigma = gamma_sigma(((0, 2, 1),))
    assert gamma == ((0, 2, 1),)
    assert sigma == sigma_of((0, 2, 1))


@given(st.lists(st.lists(st.integers(-1, 2), min_size=2, max_size=2).map(tuple),
                min_size=1, max_size=3))
def test_gamma_preserves_component_multisets(comps):
    # each twist permutes a component's entries, so multisets survive
    mu = tuple(comps)
    gamma, _ = gamma_sigma(mu)
    for original, twisted in zip(mu, gamma):
        assert sorted(original) == sorted(twisted)


@given(st.lists(st.lists(st.integers(-1, 2), min_size=3, max_size=3).map(tuple),
                min_size=1, max_size=3))
def test_gamma_inverse_round_trips(comps):
    mu = tuple(comps)
    gamma, _ = gamma_sigma(mu)
    assert gamma_inverse(gamma) == mu
    assert gamma_sigma(gamma_inverse(mu))[0] == mu

