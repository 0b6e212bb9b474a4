"""Groebner engine: reduced bases, normal forms, quotient dimensions,
multiplication matrices, minimal polynomials, and their defining
invariants."""

import itertools
import random
from fractions import Fraction

import pytest

from igq.groebner import (
    INFINITE,
    Ideal,
    buchberger,
    is_groebner,
    minimal_polynomial,
    multiplication_matrices,
    normal_form,
    quotient_dimension,
    spoly,
    standard_monomials,
)
from igq.poly import GREVLEX, GRLEX, Ring, monomial_divides
from igq.presentations import PresentationSpec, QUANTUM_II, build_presentation

R2 = Ring(("x", "y"))
X, Y = R2.gens


def test_basis_direct_reduction():
    gb = buchberger(Ideal(R2, [X**2 - Y, Y]))
    assert [g.pretty() for g in gb] == ["y", "x^2"]


def test_principal_ideal_is_normalized():
    f = 4 * X**2 * Y - 8 * Y
    gb = buchberger(Ideal(R2, [f]))
    assert len(gb) == 1
    assert gb.elements[0] == f.monic()


def test_empty_ideal_gives_empty_basis():
    gb = buchberger(Ideal(R2, [R2.zero]))
    assert len(gb) == 0


def test_normal_form_of_generators_is_zero():
    ideal = Ideal(R2, [X**2 + Y - 1, X * Y - 2])
    gb = buchberger(ideal)
    for g in ideal.generators:
        assert normal_form(g, gb).is_zero


def test_normal_form_one_modulo_x():
    gb = buchberger(Ideal(R2, [X]))
    assert normal_form(R2.one, gb) == R2.one


def test_normal_form_ring_mismatch_raises():
    from igq.poly import RingMismatch

    gb = buchberger(Ideal(R2, [X]))
    other = Ring(("u", "v"))
    with pytest.raises(RingMismatch):
        normal_form(other.var("u"), gb)


def test_normal_form_idempotent_linear_multiplicative():
    rng = random.Random(7)
    gb = buchberger(Ideal(R2, [X**3 - Y, Y**2 - X]))

    def rand():
        return R2.poly(
            {
                (rng.randrange(4), rng.randrange(4)): Fraction(rng.randrange(-5, 6))
                for _ in range(5)
            }
        )

    for _ in range(20):
        f, g = rand(), rand()
        a, b = Fraction(rng.randrange(-3, 4)), Fraction(rng.randrange(-3, 4))
        nf = normal_form
        assert nf(nf(f, gb), gb) == nf(f, gb)
        assert nf(a * f + b * g, gb) == a * nf(f, gb) + b * nf(g, gb)
        assert nf(f * g, gb) == nf(nf(f, gb) * nf(g, gb), gb)


def brute_standard_monomials(leads, bounds):
    """Independent enumeration: all exponent boxes below the pure-power
    bounds, filtered by divisibility against the leading terms."""
    out = []
    for exps in itertools.product(*(range(b) for b in bounds)):
        if not any(monomial_divides(L, exps) for L in leads):
            out.append(exps)
    return sorted(out)


def test_quotient_dimension_monomial_ideal_against_enumeration():
    gb = buchberger(Ideal(R2, [X**2, Y**3]))
    assert quotient_dimension(gb) == 6
    brute = brute_standard_monomials(gb.lead_monomials, (2, 3))
    assert sorted(standard_monomials(gb)) == brute


def test_quotient_dimension_infinite():
    gb = buchberger(Ideal(R2, [X * Y]))
    assert quotient_dimension(gb) is INFINITE
    with pytest.raises(ValueError):
        standard_monomials(gb)


def test_reduced_basis_invariant_under_shuffles():
    ideal = build_presentation(PresentationSpec(3, QUANTUM_II))
    reference = buchberger(ideal).elements
    rng = random.Random(11)
    gens = list(ideal.generators)
    for _ in range(10):
        rng.shuffle(gens)
        assert buchberger(Ideal(ideal.ring, gens)).elements == reference


def test_buchberger_criterion_closure():
    for gens in ([X**2 - Y, Y**2 - X], [X**3 + X * Y, Y**2 - 1]):
        gb = buchberger(Ideal(R2, gens))
        assert is_groebner(gb)


def test_spoly_cancels_leads():
    f, g = X**2 - Y, X * Y - 1
    s = spoly(f, g)
    assert s.lead_monomial not in ((2, 0), (1, 1))


def test_minimal_polynomial_of_nilpotent_and_unit_ideal():
    gb = buchberger(Ideal(R2, [X**3, Y]))
    coeffs = minimal_polynomial(gb, X)
    assert coeffs == [Fraction(0), Fraction(0), Fraction(0), Fraction(1)]
    gb1 = buchberger(Ideal(R2, [R2.one]))
    assert minimal_polynomial(gb1, X) == [Fraction(1)]


def test_minimal_polynomial_from_a_start_vector():
    # on Q[x,y]/(x^2(x-1), y), x^2 is the idempotent of the point x = 1,
    # where x acts as 1, so started there the minimal polynomial is t - 1
    gb = buchberger(Ideal(R2, [X**2 * (X - 1), Y]))
    assert minimal_polynomial(gb, X) == [Fraction(0), Fraction(0), Fraction(-1), Fraction(1)]
    assert minimal_polynomial(gb, X, start=X**2) == [Fraction(-1), Fraction(1)]
    assert minimal_polynomial(gb, X, start=R2.zero) == [Fraction(1)]


def test_multiplication_matrices_commute_and_act_on_one():
    gb = buchberger(Ideal(R2, [Y**2 + Y, X * Y - 2 * Y, X**2 - X + 2 * Y]))
    std = standard_monomials(gb)
    mats = multiplication_matrices(gb)
    dim = len(std)
    assert [len(M) for M in mats] == [dim, dim]
    # M_v applied to the coordinates of 1 gives the coordinates of v
    one = std.index((0, 0))
    for M, v in zip(mats, R2.gens):
        column = [M[i][one] for i in range(dim)]
        assert R2.poly(zip(std, column)) == normal_form(v, gb)
    Mx, My = mats
    prod = lambda A, B: [[sum(A[i][k] * B[k][j] for k in range(dim)) for j in range(dim)] for i in range(dim)]
    assert prod(Mx, My) == prod(My, Mx)


def test_dimension_invariant_under_graded_orders():
    for order in (GREVLEX, GRLEX):
        ring = Ring(("x", "y"), order)
        x, y = ring.gens
        gb = buchberger(Ideal(ring, [x**2 + y**2 - 1, x * y - 1]))
        assert quotient_dimension(gb) == 4
