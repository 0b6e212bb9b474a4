"""Polynomial helpers that only the tests use: evaluation at a rational
point, weighted homogeneity, and the grlex order, a second graded order
to cross-check the Groebner engine in."""

from fractions import Fraction

from igq.poly import TermOrder


def evaluate(f, values) -> Fraction:
    """f at the point given by a map from variable name to rational value."""
    point = [Fraction(values[n]) for n in f.ring.names]
    total = Fraction(0)
    for e, c in f.terms:
        v = c
        for p, exp in zip(point, e):
            if exp:
                v *= p**exp
        total += v
    return total


def is_weighted_homogeneous(f, weights) -> bool:
    """Whether all terms of f have one weighted degree, for one weight per
    ring variable."""
    return len(f.weighted_degrees(weights)) <= 1


class _Grlex(TermOrder):
    """Total degree first, ties to the larger exponent of the first
    variable where two monomials differ."""

    __slots__ = ()
    name = "grlex"

    def key(self, exps):
        return (sum(exps), exps)


GRLEX = _Grlex()
