"""Univariate gcds and distinct-root counts on coefficient lists
[c_0, ..., c_d]."""

from fractions import Fraction

import pytest

from igq.univariate import distinct_root_count, univ_gcd


def mul(*factors):
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


def power(f, k):
    return mul(*[f] * k)


def test_gcd_examples():
    assert univ_gcd([-1, 0, 1], [-1, 1]) == [-1, 1]
    assert univ_gcd([0, 0, 0, 1], [0, 0, 1]) == [0, 0, 1]
    assert univ_gcd(mul([-2, 1], [3, 1]), mul([-2, 1], [-5, 1])) == [-2, 1]
    # gcd with a nonzero constant is 1
    assert univ_gcd([-1, 0, 1], [7]) == [1]
    # trailing zeros are ignored, Fractions are taken as they are
    assert univ_gcd([-1, 1, 0, 0], [Fraction(-1, 2), 0, Fraction(1, 2)]) == [-1, 1]
    # over F_7, z^2 + 1 and z - 3 share nothing, z^2 - 2 and z - 3 share z - 3
    assert univ_gcd([1, 0, 1], [-3, 1], 7) == [1]
    assert univ_gcd([-2, 0, 1], [-3, 1], 7) == [4, 1]


def test_gcd_of_zero_arguments():
    assert univ_gcd([], [-4, 0, 1]) == [-4, 0, 1]
    assert univ_gcd([0, 0], [3, 6]) == [Fraction(1, 2), 1]
    with pytest.raises(ValueError):
        univ_gcd([], [0])
    with pytest.raises(ValueError):
        univ_gcd([7], [14], 7)


def test_gcd_is_monic():
    g = univ_gcd([-6, 0, 6], [-4, 4])
    assert g[-1] == 1
    assert univ_gcd([-6, 0, 24], [2, 4]) == [Fraction(1, 2), 1]
    assert univ_gcd([-6, 0, 6], [-4, 4], 5) == [4, 1]


def test_distinct_root_counts():
    assert distinct_root_count(power([-1, 0, 1], 2)) == 2
    assert distinct_root_count([0] * 7 + [1]) == 1
    assert distinct_root_count([-1, 0, 0, 0, 1]) == 4
    assert distinct_root_count([5]) == 0
    assert distinct_root_count([Fraction(1, 4), -1, 1, 0]) == 1  # (z - 1/2)^2
    for zero in ([], [0, 0]):
        with pytest.raises(ValueError):
            distinct_root_count(zero)


def test_distinct_root_counts_mod_p():
    p = 2**61 - 1
    # 1 and 1 + p are distinct over Q and merge mod p
    f = mul([-1, 1], [-1 - p, 1])
    assert distinct_root_count(f) == 2
    assert distinct_root_count(f, p) == 1
    assert distinct_root_count(power([-1, 0, 1], 2), 7) == 2
    assert distinct_root_count([-1, 0, 0, 0, 1], 5) == 4  # the units of F_5
    assert distinct_root_count([1, 0, 1], 3) == 2  # roots in F_9
    assert distinct_root_count([-2, 0, Fraction(1, 2)], 7) == 2
    assert distinct_root_count([5], 7) == 0
    # only coefficients that reduce mod p, nonzero ones, and degrees below
    # p are counted
    for f, q in (
        ([0, -1, 0, 0, 0, 1], 5),
        ([7, 7], 7),
        ([1, Fraction(1, 7)], 7),
        ([7], 7),
    ):
        with pytest.raises(ValueError):
            distinct_root_count(f, q)


def test_root_count_of_the_cover_polynomial():
    # the z-substitution polynomial for the smallest case: degree 16,
    # distinct roots 1 + (2n-1)^2 = 10 at n = 2
    u = [0, -1, 0, 0, 1]  # z^4 - z
    f = power(u, 4)
    f[4] -= 1
    assert len(f) - 1 == 16
    assert distinct_root_count(f) == 10
    # removing the roots shared with the z2 = 0 branch and the diagonal
    # leaves 6 = (2n-2)(2n-1)
    g = mul(u, [0, -2, 0, 0, 1])
    assert distinct_root_count(f) - distinct_root_count(univ_gcd(f, g)) == 6
