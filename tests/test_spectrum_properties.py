"""Property test of the spectrum split on ideals with known points."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from igq.groebner import Ideal, buchberger
from igq.poly import Ring
from igq.presentations import split_spectrum

R2 = Ring(("x", "y"))
X, Y = R2.gens


@settings(max_examples=40, deadline=None)
@given(
    a=st.integers(0, 3),
    roots=st.lists(st.integers(-6, 6).filter(bool), unique=True, max_size=4),
    c=st.integers(-3, 3),
)
def test_split_spectrum_on_points_of_a_line(a, roots, c):
    # (x^a prod (x - r_i), y - c x): a fat origin of length a plus the
    # reduced points (r_i, c r_i), where x + 2y = (1 + 2c) r_i differs
    # because 1 + 2c is odd, so the first form always separates
    f = X**a
    for r in roots:
        f = f * (X - r)
    k = len(roots)
    assert split_spectrum(buchberger(Ideal(R2, [f, Y - c * X]))) == (a, k, k, "1*x + 2*y")
