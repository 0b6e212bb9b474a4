"""Optional cross-validation of the Groebner engine against sympy.

Skipped when sympy is unavailable; the package itself never imports it.
"""

import random
from fractions import Fraction

import pytest

sp = pytest.importorskip("sympy")

from igq.groebner import Ideal, buchberger
from igq.poly import GREVLEX, Ring
from igq.presentations import (
    CLASSICAL_I,
    QUANTUM_I,
    QUANTUM_II,
    SYMBOLIC,
    PresentationSpec,
    presentation_generators,
)

from poly_oracle import GRLEX
from presentation_oracle import in_grevlex


def to_sympy(p, syms):
    total = 0
    for e, c in p.terms:
        term = sp.Rational(c.numerator, c.denominator)
        for s, k in zip(syms, e):
            term *= s**k
        total += term
    return total


def assert_same_basis(ideal, order_name):
    syms = sp.symbols(" ".join(ideal.ring.names))
    if ideal.ring.ngens == 1:
        syms = (syms,)

    def monic(expr):
        # scalar normalization only (sympy clears denominators); any fixed
        # order works for that, so use Poly's default
        return sp.Poly(expr, *syms, domain="QQ").monic().as_expr()

    mine = [monic(to_sympy(g, syms)) for g in buchberger(ideal)]
    theirs = sp.groebner(
        [to_sympy(g, syms) for g in ideal.generators], *syms, order=order_name
    )
    key = sp.default_sort_key
    assert sorted(mine, key=key) == sorted([monic(e) for e in theirs.exprs], key=key)


def test_presentation_bases_match_sympy():
    specs = [PresentationSpec(n, v) for n in (2, 3) for v in (QUANTUM_I, QUANTUM_II)]
    specs += [PresentationSpec(3, CLASSICAL_I), PresentationSpec(3, QUANTUM_I, SYMBOLIC)]
    for spec in specs:
        assert_same_basis(in_grevlex(presentation_generators(spec)), "grevlex")


def test_random_ideals_match_sympy_in_both_orders():
    rng = random.Random(23)
    for order, name in ((GREVLEX, "grevlex"), (GRLEX, "grlex")):
        ring = Ring(("x", "y", "z"), order)
        for _ in range(6):
            gens = []
            for _ in range(3):
                gens.append(
                    ring.poly(
                        {
                            tuple(rng.randrange(3) for _ in range(3)): Fraction(
                                rng.randrange(-4, 5)
                            )
                            for _ in range(4)
                        }
                    )
                )
            gens = [g for g in gens if not g.is_zero]
            if gens:
                assert_same_basis(Ideal(ring, gens), name)
