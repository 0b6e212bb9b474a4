"""Property tests of Wiedemann's sequence and Berlekamp-Massey against the
dense Krylov oracle mod p."""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from igq.linalg import berlekamp_massey, projected_sequence
from igq.univariate import univ_gcd
from linalg_oracle import minimal_polynomial_mod, sparse_rows

PRIME = 2**61 - 1


def sequence(M, v, u, p):
    """s_i = u M^i v mod p for i < 2 dim."""
    return projected_sequence(sparse_rows(M), v, u, 2 * len(M), p)


@st.composite
def matrices(draw):
    dim = draw(st.integers(1, 6))
    entry = st.integers(-3, 3)
    M = [[draw(entry) for _ in range(dim)] for _ in range(dim)]
    v = [draw(entry) for _ in range(dim)]
    u = [draw(st.integers(-3, 3)) for _ in range(dim)]
    return M, v, u


@settings(max_examples=150, deadline=None)
@given(mvu=matrices(), p=st.sampled_from([PRIME, 2, 5, 7]), seed=st.integers(0, 2**32))
def test_berlekamp_massey_divides_the_krylov_polynomial(mvu, p, seed):
    # s_i = u M^i v is annihilated by the minimal polynomial of M on v, of
    # degree at most dim, so the 2 dim terms determine the sequence's own
    # minimal polynomial, which divides it; a generic u loses no factor
    M, v, u = mvu
    krylov = minimal_polynomial_mod(M, v, p)
    g = berlekamp_massey(sequence(M, v, u, p), p)
    assert g[-1] == 1 and len(g) <= len(krylov)
    assert univ_gcd(krylov, g, p) == g
    if p == PRIME:
        rng = random.Random(seed)
        generic = [rng.randrange(p) for _ in M]
        assert berlekamp_massey(sequence(M, v, generic, p), p) == krylov
