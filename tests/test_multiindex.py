import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from weiljet.multiindex import (
    ArityMismatchError,
    box_index,
    enumerate_box,
    enumerate_simplex,
    factorial,
    leq,
    norm,
)


def _divmod_box(k):
    # Reference box order, independent of the package's layout code: each
    # code in range(size) decoded by repeated divmod, first component least
    # significant.
    total = 1
    for ki in k:
        total *= ki + 1
    out = []
    for code in range(total):
        alpha = []
        for ki in k:
            code, digit = divmod(code, ki + 1)
            alpha.append(digit)
        out.append(tuple(alpha))
    return tuple(out)


def _compositions(n, total):
    # Reference simplex order by recursion: every alpha with |alpha| ==
    # total, first component decreasing (lexicographically decreasing).
    if n == 0:
        if total == 0:
            yield ()
        return
    if n == 1:
        yield (total,)
        return
    for rest in range(total + 1):
        for tail in _compositions(n - 1, rest):
            yield (total - rest,) + tail


def _reference_simplex(n, bound):
    out = []
    for total in range(bound + 1):
        out.extend(_compositions(n, total))
        if n == 0:
            break
    return tuple(out)


indices = st.lists(st.integers(min_value=0, max_value=6), min_size=0, max_size=4).map(tuple)


def same_length_pair():
    return st.integers(min_value=0, max_value=4).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(0, 6), min_size=n, max_size=n).map(tuple),
            st.lists(st.integers(0, 6), min_size=n, max_size=n).map(tuple),
        )
    )


def test_norm_examples():
    assert norm((2, 1)) == 3
    assert norm(()) == 0
    assert norm((0, 0, 5)) == 5


def test_factorial_examples():
    assert factorial((2, 1)) == 2
    assert factorial((0, 0)) == 1
    assert factorial((3, 2)) == 12


def test_factorial_does_not_overflow():
    assert factorial((25, 30)) == math.factorial(25) * math.factorial(30)


def test_leq_examples():
    assert leq((1, 0), (1, 1))
    assert not leq((2, 0), (1, 1))
    assert leq((0, 0), (0, 0))


def test_leq_length_mismatch():
    with pytest.raises(ArityMismatchError):
        leq((1, 0), (1,))


def test_enumerate_box_examples():
    assert enumerate_box((1, 1)) == ((0, 0), (1, 0), (0, 1), (1, 1))
    assert enumerate_box((2,)) == ((0,), (1,), (2,))
    assert enumerate_box((0, 0)) == ((0, 0),)
    assert enumerate_box(()) == ((),)


def test_enumerate_box_exhaustive_counts_and_uniqueness():
    for n in range(5):
        for k in itertools.product(range(5), repeat=n):
            box = enumerate_box(k)
            expected = 1
            for ki in k:
                expected *= ki + 1
            assert len(box) == expected
            assert len(set(box)) == len(box)
            assert all(leq(alpha, k) for alpha in box)
            assert box == _divmod_box(k)


def test_box_index_matches_position():
    for k in [(2, 1), (3,), (1, 1, 1), ()]:
        for pos, alpha in enumerate(enumerate_box(k)):
            assert box_index(k, alpha) == pos


def test_enumerate_simplex_examples():
    assert enumerate_simplex(2, 1) == ((0, 0), (1, 0), (0, 1))
    # Lexicographically decreasing within a degree: (1,0,1) before (0,2,0).
    assert enumerate_simplex(3, 2)[4:] == ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))
    assert enumerate_simplex(1, 3) == ((0,), (1,), (2,), (3,))


def test_enumerate_simplex_degree_two_matches_brute_force():
    # Independent enumeration: filter the full grid.
    brute = {alpha for alpha in itertools.product(range(3), repeat=2) if sum(alpha) <= 2}
    listed = enumerate_simplex(2, 2)
    assert len(listed) == 6
    assert set(listed) == brute


@given(st.integers(0, 4), st.integers(0, 6))
def test_enumerate_simplex_count_is_binomial(n, bound):
    listed = enumerate_simplex(n, bound)
    assert len(listed) == math.comb(bound + n, n)
    assert len(set(listed)) == len(listed)
    assert all(len(alpha) == n and sum(alpha) <= bound for alpha in listed)
    assert listed == _reference_simplex(n, bound)


@given(indices)
def test_leq_reflexive(alpha):
    assert leq(alpha, alpha)


@given(same_length_pair())
def test_leq_antisymmetric(pair):
    alpha, beta = pair
    if leq(alpha, beta) and leq(beta, alpha):
        assert alpha == beta


@given(
    st.integers(0, 4).flatmap(
        lambda n: st.tuples(
            *[st.lists(st.integers(0, 6), min_size=n, max_size=n).map(tuple)] * 3
        )
    )
)
def test_leq_transitive(triple):
    alpha, beta, gamma = triple
    if leq(alpha, beta) and leq(beta, gamma):
        assert leq(alpha, gamma)


@given(same_length_pair())
def test_factorial_submultiplicative(pair):
    alpha, beta = pair
    together = tuple(a + b for a, b in zip(alpha, beta))
    assert factorial(together) >= factorial(alpha) * factorial(beta)


@given(same_length_pair())
def test_norm_additive(pair):
    alpha, beta = pair
    together = tuple(a + b for a, b in zip(alpha, beta))
    assert norm(together) == norm(alpha) + norm(beta)
