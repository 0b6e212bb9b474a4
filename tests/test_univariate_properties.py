"""Property test of the distinct-root count on products of linear factors."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from igq.univariate import distinct_root_count


def times_linear(f, r):
    """The coefficients of f * (z - r)."""
    return [a - r * b for a, b in zip([0] + f, f + [0])]


@settings(max_examples=100, deadline=None)
@given(
    factors=st.lists(
        st.tuples(st.integers(-20, 20), st.integers(1, 3)), min_size=1, max_size=4
    ),
    lead=st.sampled_from([1, -1, 2, 3, -6]),
)
def test_distinct_root_count_of_a_product_of_linear_factors(factors, lead):
    # lead * prod (z - r_i)^{m_i}: the distinct r_i over Q, the distinct
    # residues r_i mod p over F_p while the degree stays below p, and a
    # refusal from degree p on; lead is a unit mod 5 and mod 7
    f = [lead]
    for r, m in factors:
        for _ in range(m):
            f = times_linear(f, r)
    roots = [r for r, _ in factors]
    assert distinct_root_count(f) == len(set(roots))
    for p in (5, 7):
        if len(f) - 1 < p:
            assert distinct_root_count(f, p) == len({r % p for r in roots})
        else:
            with pytest.raises(ValueError):
                distinct_root_count(f, p)
