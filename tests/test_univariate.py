"""Univariate gcd / squarefree / distinct-root counting."""

from fractions import Fraction

import pytest

from igq.poly import Ring
from igq.univariate import (
    distinct_root_count,
    squarefree_part,
    univ_divide,
    univ_gcd,
)

R = Ring(("z",))
(Z,) = R.gens


def test_gcd_examples():
    assert univ_gcd(Z**2 - 1, Z - 1) == Z - 1
    assert univ_gcd(Z**3, Z**2) == Z**2
    assert univ_gcd((Z - 2) * (Z + 3), (Z - 2) * (Z - 5)) == Z - 2
    # gcd with a nonzero constant is 1
    assert univ_gcd(Z**2 - 1, R.const(7)) == R.one


def test_gcd_of_zero_arguments():
    assert univ_gcd(R.zero, Z**2 - 4) == (Z**2 - 4).monic()
    with pytest.raises(ValueError):
        univ_gcd(R.zero, R.zero)


def test_gcd_is_monic():
    g = univ_gcd(6 * Z**2 - 6, 4 * Z - 4)
    assert g.lead_coeff == 1


def test_squarefree_invariants():
    for f in ((Z**2 - 1) ** 2, Z**5, (Z - 1) * (Z + 2) ** 3, Z**4 - 1):
        sf = squarefree_part(f)
        # sf divides f ...
        univ_divide(f, sf)
        # ... and is itself squarefree
        var = "z"
        assert univ_gcd(sf, sf.derivative(var)) == R.one


def test_distinct_root_counts():
    assert distinct_root_count((Z**2 - 1) ** 2) == 2
    assert distinct_root_count(Z**7) == 1
    assert distinct_root_count(Z**4 - 1) == 4
    assert distinct_root_count(R.const(5)) == 0
    with pytest.raises(ValueError):
        distinct_root_count(R.zero)


def test_distinct_root_counts_mod_p():
    p = 2**61 - 1
    # 1 and 1 + p are distinct over Q and merge mod p
    assert distinct_root_count((Z - 1) * (Z - 1 - p)) == 2
    assert distinct_root_count((Z - 1) * (Z - 1 - p), p) == 1
    assert distinct_root_count((Z**2 - 1) ** 2, 7) == 2
    assert distinct_root_count(Z**4 - 1, 5) == 4  # the units of F_5
    assert distinct_root_count(Z**2 + 1, 3) == 2  # roots in F_9
    assert distinct_root_count(Fraction(1, 2) * Z**2 - 2, 7) == 2
    assert distinct_root_count(R.const(5), 7) == 0
    # only coefficients that reduce mod p, and degrees below p, are counted
    for f, q in ((Z**5 - Z, 5), (7 * Z + 7, 7), (Fraction(1, 7) * Z + 1, 7)):
        with pytest.raises(ValueError):
            distinct_root_count(f, q)


def test_root_count_of_the_cover_polynomial():
    # the z-substitution polynomial for the smallest case: degree 16,
    # distinct roots 1 + (2n-1)^2 = 10 at n = 2
    f = (Z**4 - Z) ** 4 - Z**4
    assert f.total_degree == 16
    assert distinct_root_count(f) == 10
    # removing the z2 = 0 branch and the diagonal leaves 6 = (2n-2)(2n-1)
    sf = squarefree_part(f)
    sf = univ_divide(sf, univ_gcd(sf, Z**4 - Z))
    sf = univ_divide(sf, univ_gcd(sf, Z**4 - 2 * Z))
    assert sf.total_degree == 6


def test_multivariate_input_rejected():
    R2 = Ring(("x", "y"))
    x, y = R2.gens
    with pytest.raises(ValueError):
        distinct_root_count(x * y)
