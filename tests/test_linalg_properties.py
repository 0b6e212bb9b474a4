"""Property tests of Wiedemann's sequence and Berlekamp-Massey against the
dense Krylov oracle mod p, and of the joint generalized kernel against
the one-chain oracle on the whole space."""

import random
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from igq.linalg import berlekamp_massey, generalized_kernel, projected_sequence, rank
from igq.univariate import univ_gcd
from linalg_oracle import minimal_polynomial_mod, sparse_rows
from spectrum_oracle import joint_origin_factor

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


def product(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


@st.composite
def commuting_matrices(draw):
    """M = S T S^-1 and P = M (M - c), T upper triangular with eigenvalues
    among 0, 1 and -1/2, S = I + E for E strictly lower triangular, so
    S^-1 = sum_k (-E)^k; entries among small ints and Fractions.  Returns
    the two in either order, and the number of zeros on T's diagonal."""
    dim = draw(st.integers(1, 5))
    small = st.sampled_from([0, 0, 1, -2, Fraction(1, 2), Fraction(-2, 3)])
    eigen = st.sampled_from([0, 1, Fraction(-1, 2)])
    T = [[draw(eigen) if j == i else draw(small) if j > i else 0 for j in range(dim)] for i in range(dim)]
    E = [[draw(small) if j < i else 0 for j in range(dim)] for i in range(dim)]
    identity = [[int(i == j) for j in range(dim)] for i in range(dim)]
    inverse, power = identity, identity
    for _ in range(dim - 1):
        power = product(power, [[-x for x in row] for row in E])
        inverse = [[a + b for a, b in zip(r, s)] for r, s in zip(inverse, power)]
    S = [[a + b for a, b in zip(r, s)] for r, s in zip(identity, E)]
    M = product(product(S, T), inverse)
    c = draw(eigen)
    P = product(M, [[x - c * e for x, e in zip(r, s)] for r, s in zip(M, identity)])
    mats = [P, M] if draw(st.booleans()) else [M, P]
    return [sparse_rows(A) for A in mats], sum(T[i][i] == 0 for i in range(dim))


@settings(max_examples=150, deadline=None)
@given(drawn=commuting_matrices())
def test_generalized_kernel_spans_the_joint_one(drawn):
    # P's generalized kernel holds M's and, when c is an eigenvalue of M,
    # that eigenvalue's too, which the joint chain must cut away; the
    # joint kernel is M's generalized kernel, of the dimension of the
    # zeros on T's diagonal
    mats, zeros = drawn
    dim = len(mats[0])
    origin, oracle = generalized_kernel(mats, dim), joint_origin_factor(mats, dim)
    assert rank(origin) == rank(oracle) == rank(origin + oracle) == len(origin) == len(oracle) == zeros
