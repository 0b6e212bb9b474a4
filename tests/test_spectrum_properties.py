"""Property test of the spectrum split on ideals with known points."""

from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from igq import presentations
from igq.groebner import Ideal, buchberger
from igq.poly import Ring
from spectrum_oracle import split_on_variables

R2 = Ring(("x", "y"))
X, Y = R2.gens
PRIME = presentations._PRIME


@settings(max_examples=60, deadline=None)
@given(
    a=st.integers(0, 3),
    roots=st.lists(st.integers(-6, 6).filter(bool), unique=True, max_size=4),
    c=st.integers(-3, 3),
    p=st.sampled_from([PRIME, 5, 7]),
)
def test_split_spectrum_on_points_of_a_line(a, roots, c, p):
    # (x^a prod (x - r_i), y - c x): a fat origin of length a plus the
    # reduced points (r_i, c r_i), where x + 2y = (1 + 2c) r_i differs
    # because 1 + 2c is odd, so the first form always separates.  The count
    # is proved mod p (the default prime, or a small one where values
    # collide) or, failing that, counted exactly; the result is the same.
    f = X**a
    for r in roots:
        f = f * (X - r)
    k = len(roots)
    exact = []
    real = presentations.minimal_polynomial

    def recorded(M, start):
        exact.append(len(M))
        return real(M, start)

    with mock.patch.object(presentations, "_PRIME", p), mock.patch.object(
        presentations, "minimal_polynomial", recorded
    ):
        assert split_on_variables(buchberger(Ideal(R2, [f, Y - c * X]))) == (a, k, k, "1*x + 2*y")
    if p == PRIME:
        assert not exact  # small values never collide mod 2^61 - 1
    if len({(1 + 2 * c) * r % p for r in roots}) < k:
        assert exact  # mu_p has a double root, so nothing was proved
