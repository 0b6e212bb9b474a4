"""The germ invariants and the match against the quantum local factor."""

import pytest

from igq.groebner import Ideal, buchberger, standard_monomials
from igq.poly import Ring
from igq.unfolding import germ_pair, match_quantum_factor

R1 = Ring(("x",))
(X,) = R1.gens
R2 = Ring(("x", "y"))
X2, Y2 = R2.gens


def milnor_algebra_pair(jacobian):
    """(embedding dimension, length) of Q[x, ...]/J for a monomial Jacobian
    ideal J, from its standard monomials: the linear ones span
    m/(m^2 + J), whose dimension is the Hessian corank, and all of them
    count the Milnor number."""
    std = standard_monomials(buchberger(jacobian))
    return sum(1 for m in std if sum(m) == 1), len(std)


def test_cusp_germ():
    assert germ_pair([0, 0, 0, 1]) == (1, 2)


def test_power_germ_closed_form():
    # against the Groebner Milnor algebra of x^m: the Jacobian ideal
    # (m x^(m-1)) is supported at the origin alone, so its global quotient
    # is the local Milnor algebra
    for m in range(2, 9):
        pair = germ_pair([0] * m + [1])
        assert pair == ((0 if m == 2 else 1), m - 1)
        assert pair == milnor_algebra_pair(Ideal(R1, [m * X ** (m - 1)])), m


def test_germ_with_lower_order_terms():
    # f' = 3x^2 + 20x^3 = x^2 (3 + 20x), and 3 + 20x is a unit at 0
    assert germ_pair([0, 0, 0, 1, 5]) == (1, 2)
    assert germ_pair([0, 0, 2, -7]) == (0, 1)
    assert germ_pair([0, 0, 0, 0, 0, 3, 1]) == (1, 4)


def test_two_variable_corank_one_germ():
    # x^3 + y^2, a stabilization of the one-variable cubic: same invariants
    assert milnor_algebra_pair(Ideal(R2, [3 * X2**2, 2 * Y2])) == germ_pair([0, 0, 0, 1])


def test_nonisolated_and_nonvanishing_rejected():
    for f in ([], [0], [0, 0, 0]):
        with pytest.raises(ValueError, match="non-isolated"):
            germ_pair(f)
    with pytest.raises(ValueError, match="vanish"):
        germ_pair([1, 0, 1])


def test_match_quantum_factor():
    rep3 = match_quantum_factor(3)
    assert rep3["ok"] and rep3["label"] == "A2"
    assert rep3["quantum_pair"] == rep3["germ_pair"] == (1, 2)
    rep2 = match_quantum_factor(2)
    assert rep2["ok"] and rep2["label"] == "A1"
    assert rep2["quantum_pair"] == rep2["germ_pair"] == (0, 1)
