"""Property tests of normal_form, idempotence and Q-linearity, and of
the matrix of multiplication by a polynomial built from it."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from igq.groebner import (
    Ideal,
    buchberger,
    multiplication_by,
    normal_form,
    standard_monomials,
)
from igq.poly import Ring
from linalg_oracle import dense_rows

R2 = Ring(("x", "y"))
X, Y = R2.gens

# Groebner bases of generators with non-unit, non-integral coefficients: a
# general ideal, a non-monic pair with coprime leads, and a principal ideal
# whose standard monomials x^a and x^a*y lie above some reducible ones
BASES = tuple(
    buchberger(Ideal(R2, gens))
    for gens in (
        [2 * X**2 - Fraction(3, 5) * Y, 3 * X * Y - Fraction(1, 2)],
        [2 * X - Fraction(3, 5) * Y, 3 * Y**2 - 1],
        [3 * Y**2 - Fraction(1, 2) * X],
    )
)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)
polynomials = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), rationals, max_size=6
).map(R2.poly)


@settings(max_examples=40, deadline=None)
@given(basis=st.sampled_from(BASES), f=polynomials)
def test_normal_form_is_idempotent(basis, f):
    r = normal_form(f, basis)
    assert normal_form(r, basis) == r


@settings(max_examples=40, deadline=None)
@given(basis=st.sampled_from(BASES), f=polynomials, g=polynomials, a=rationals, b=rationals)
def test_normal_form_is_linear(basis, f, g, a, b):
    assert normal_form(a * f + b * g, basis) == a * normal_form(f, basis) + b * normal_form(g, basis)


# finite quotients: the first two of BASES, a fat origin and three
# reduced points, and a fat point off the origin
FINITE = BASES[:2] + tuple(
    buchberger(Ideal(R2, gens))
    for gens in ([X**3, Y**2 - X * Y], [Y**2 + Y, X * Y - 2 * Y, X**2 - X + 2 * Y], [(X - 1) ** 2, Y])
)


@settings(max_examples=40, deadline=None)
@given(basis=st.sampled_from(FINITE), f=polynomials)
def test_multiplication_by_holds_the_coordinates_of_f_times_each_standard_monomial(basis, f):
    # on f and on each variable, whose matrices multiplication_by builds
    # inside to reach the columns after the first
    std = standard_monomials(basis)
    for p in (f, *R2.gens):
        M = dense_rows(multiplication_by(p, basis), len(std))
        for j, m in enumerate(std):
            coeffs = dict(normal_form(p * R2.monomial(m), basis).terms)
            assert [row[j] for row in M] == [coeffs.get(e, 0) for e in std], (p, m)
