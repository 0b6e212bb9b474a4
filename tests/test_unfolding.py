"""Milnor data, corank, and the match against the quantum local factor."""

import random

import pytest

from igq.poly import Ring
from igq.unfolding import GermData, classify_corank1, match_quantum_factor, milnor_data
from substitute_oracle import substitute

R1 = Ring(("x",))
(X,) = R1.gens
R2 = Ring(("x", "y"))
X2, Y2 = R2.gens


def test_cusp_germ():
    g = milnor_data(X**3)
    assert (g.milnor_number, g.corank) == (2, 1)
    assert set(g.monomial_basis) == {(0,), (1,)}


def test_morse_germ():
    g = milnor_data(X2**2 + Y2**2)
    assert (g.milnor_number, g.corank) == (1, 0)


def test_power_germ_closed_form():
    for m in (2, 3, 5, 8):
        g = milnor_data(X**m)
        assert g.milnor_number == m - 1
        assert g.corank == (0 if m == 2 else 1)


def test_nonisolated_and_nonvanishing_rejected():
    with pytest.raises(ValueError):
        milnor_data(X2**2)  # critical locus is the whole y-axis
    with pytest.raises(ValueError):
        milnor_data(X + 1)


def test_corank_invariant_under_unimodular_changes():
    rng = random.Random(4)
    germs = [X2**3 + Y2**2, X2**2 + Y2**2, X2**3 + Y2**3]
    for f in germs:
        base = milnor_data(f).corank
        for _ in range(5):
            a = rng.randrange(-2, 3)
            u = X2 + a * Y2  # unimodular: det [[1, a], [0, 1]] = 1
            v = Y2
            g = substitute(f, R2, {"x": u, "y": v})
            assert milnor_data(g).corank == base


def test_two_variable_corank_one_germ():
    # x^3 + y^2 has the same invariants as the one-variable cubic
    g = milnor_data(X2**3 + Y2**2)
    assert (g.milnor_number, g.corank) == (2, 1)
    assert classify_corank1(g.milnor_number, g.corank) == "A2"


def test_classification_labels():
    assert classify_corank1(2) == "A2"
    assert classify_corank1(1) == "A1"
    assert classify_corank1(7) == "A7"
    with pytest.raises(ValueError):
        classify_corank1(3, corank=0)
    with pytest.raises(ValueError):
        classify_corank1(0)


def test_germ_data_consistency_enforced():
    with pytest.raises(ValueError):
        GermData(2, 1, ((0,),))


def test_match_quantum_factor():
    rep3 = match_quantum_factor(3)
    assert rep3["ok"] and rep3["label"] == "A2"
    assert rep3["quantum_pair"] == rep3["germ_pair"] == (1, 2)
    rep2 = match_quantum_factor(2)
    assert rep2["ok"] and rep2["label"] == "A1"
    assert "degenerate" in rep2
