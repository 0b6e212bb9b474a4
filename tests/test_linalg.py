"""Exact linear algebra: rank, the oracle's nullspace, first dependence,
minimal polynomials, each against a plain Gauss-Jordan reference, over Q
and over F_p."""

import random
from fractions import Fraction

import pytest

from igq.linalg import (
    LinearSieve,
    berlekamp_massey,
    minimal_polynomial,
    projected_sequence,
    rank,
)
from linalg_oracle import ModularSieve, minimal_polynomial_mod, nullspace, sparse_rows

PRIMES = (2, 3, 7, 2**61 - 1)


def row_echelon(rows, ncols):
    """Reference Gauss-Jordan over Fractions: (pivot columns, reduced
    nonzero rows), row i being 1 in column pivots[i] and 0 in every other
    pivot column."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for col in range(ncols):
        if r == len(m):
            break
        pivot = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][col]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
    return pivots, m[:r]


def rank_mod(rows, p):
    """Reference rank over F_p: Gauss-Jordan on the rows mod p."""
    m = [[x % p for x in row] for row in rows]
    r = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][col], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        r += 1
    return r


def reference_nullspace(rows, ncols):
    """{c: v_c} for each non-pivot column c, read off the reduced rows."""
    pivots, reduced = row_echelon(rows, ncols)
    basis = {}
    for c in sorted(set(range(ncols)) - set(pivots)):
        v = [Fraction(0)] * ncols
        v[c] = Fraction(1)
        for p, row in zip(pivots, reduced):
            v[p] = -row[c]
        basis[c] = v
    return basis


def random_matrix(rng, nrows, ncols, rank_bound):
    """Rows spanning at most `rank_bound` dimensions, rational entries."""
    base = [
        [Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(ncols)]
        for _ in range(rank_bound)
    ]
    rows = []
    for _ in range(nrows):
        coeffs = [Fraction(rng.randrange(-3, 4)) for _ in base]
        rows.append([sum(c * b[j] for c, b in zip(coeffs, base)) for j in range(ncols)])
    return rows


def sparse_matrix(rng, nrows, ncols):
    """Zero-heavy rows mixing int and Fraction entries, with zero rows and
    rows that combine earlier ones."""
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.15:
            rows.append([0] * ncols)
        elif kind < 0.35 and rows:
            a, b = rng.choice(rows), rng.choice(rows)
            c, d = rng.randrange(-2, 3), Fraction(rng.randrange(-3, 4), rng.randrange(1, 3))
            rows.append([c * x + d * y for x, y in zip(a, b)])
        else:
            rows.append([
                0 if rng.random() < 0.6
                else rng.randrange(-4, 5) if rng.random() < 0.5
                else Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                for _ in range(ncols)
            ])
    return rows


def test_row_echelon_nullspace_and_rank_agree():
    rng = random.Random(3)
    for _ in range(30):
        ncols = rng.randrange(1, 7)
        rows = random_matrix(rng, rng.randrange(1, 8), ncols, rng.randrange(0, 5))
        pivots, reduced = row_echelon(rows, ncols)
        assert len(pivots) == rank(rows)
        for i, p in enumerate(pivots):
            assert [row[p] for row in reduced] == [int(i == k) for k in range(len(pivots))]
        kernel = nullspace(rows, ncols)
        assert kernel == reference_nullspace(rows, ncols)
        assert len(kernel) == ncols - len(pivots)
        for c, v in kernel.items():
            assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows)
            assert [v[d] for d in kernel] == [int(d == c) for d in kernel]


def test_sieve_reports_the_first_dependence():
    rng = random.Random(9)
    for _ in range(30):
        ncols = rng.randrange(1, 7)
        rows = random_matrix(rng, ncols + 2, ncols, rng.randrange(1, ncols + 1))
        sieve = LinearSieve()
        for k, v in enumerate(rows):
            combo = sieve.add(v)
            if combo is not None:
                break
        # the first k vectors are independent and the (k+1)-th depends on them
        assert len(row_echelon(rows[:k], ncols)[0]) == k
        assert len(row_echelon(rows[: k + 1], ncols)[0]) == k
        assert combo[-1] == 1 and len(combo) == k + 1
        assert all(sum(c * row[j] for c, row in zip(combo, rows)) == 0 for j in range(ncols))


def test_modular_sieve_reports_the_first_dependence_mod_p():
    # small primes make vectors that are independent over Q dependent mod p
    rng = random.Random(13)
    for p in PRIMES:
        for _ in range(200):
            ncols = rng.randrange(1, 7)
            rows = [[rng.randrange(-9, 10) for _ in range(ncols)] for _ in range(ncols + 1)]
            sieve = ModularSieve(p)
            for k, v in enumerate(rows):
                combo = sieve.add(v)
                if combo is not None:
                    break
            assert rank_mod(rows[:k], p) == k == rank_mod(rows[: k + 1], p)
            assert combo[-1] == 1 and len(combo) == k + 1
            assert all(0 <= c < p for c in combo)
            assert all(sum(c * row[j] for c, row in zip(combo, rows)) % p == 0 for j in range(ncols))


def test_modular_sieve_takes_p_integral_fractions_only():
    sieve = ModularSieve(7)
    assert sieve.keep([Fraction(1, 2), 3]) and not sieve.keep([1, 6])  # 1/2 = 4 mod 7
    with pytest.raises(ValueError):
        sieve.keep([Fraction(1, 7), 1])


def test_rank_and_nullspace_match_gauss_jordan_on_sparse_matrices():
    # zero entries make the sieve skip steps, so its rows reach their
    # Bareiss level only through the rescale at the end of each add
    rng = random.Random(11)
    for _ in range(1500):
        ncols = rng.randrange(1, 9)
        rows = sparse_matrix(rng, rng.randrange(0, 9), ncols)
        assert rank(rows) == len(row_echelon(rows, ncols)[0])
        assert nullspace(rows, ncols) == reference_nullspace(rows, ncols)


def test_minimal_polynomial_of_a_companion_matrix_is_its_polynomial():
    # the companion of p = t^d + c_{d-1} t^{d-1} + ... + c_0 sends e_j to
    # e_{j+1} and e_{d-1} to -(c_0, ..., c_{d-1}); started at e_0 the
    # Krylov vectors are e_0, ..., e_{d-1}, so the minimal polynomial is p
    rng = random.Random(5)
    for _ in range(30):
        d = rng.randrange(0, 7)
        p = [Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(d)] + [Fraction(1)]
        companion = [[int(i == j + 1) for j in range(d - 1)] + [-p[i]] for i in range(d)]
        start = [int(i == 0) for i in range(d)]
        assert minimal_polynomial(sparse_rows(companion), start) == p


def test_minimal_polynomial_mod_p_is_the_reduction_of_the_one_over_q():
    # an integral companion matrix keeps its polynomial's degree mod p, so
    # its minimal polynomial mod p is the polynomial reduced mod p
    rng = random.Random(17)
    for p in PRIMES:
        for _ in range(20):
            d = rng.randrange(0, 7)
            c = [rng.randrange(-50, 51) for _ in range(d)]
            companion = [[int(i == j + 1) for j in range(d - 1)] + [-c[i]] for i in range(d)]
            start = [int(i == 0) for i in range(d)]
            assert minimal_polynomial_mod(companion, start, p) == [x % p for x in c] + [1]


def test_minimal_polynomial_mod_p_refuses_what_it_cannot_reduce():
    # 1/3 has no value mod 3
    with pytest.raises(ValueError):
        minimal_polynomial_mod([[Fraction(1, 3)]], [1], 3)


def test_berlekamp_massey_finds_known_recurrences():
    p = 2**61 - 1
    fib = [0, 1]
    while len(fib) < 12:
        fib.append(fib[-1] + fib[-2])
    assert berlekamp_massey(fib, p) == [p - 1, p - 1, 1]  # t^2 - t - 1
    assert berlekamp_massey([3 * 5**i for i in range(6)], p) == [p - 5, 1]
    assert berlekamp_massey([1, 0, 0, 0], p) == [0, 1]  # s_(i+1) = 0 s_i
    assert berlekamp_massey([0, 0, 1, 0, 0, 0], p) == [0, 0, 0, 1]
    assert berlekamp_massey([0] * 5, p) == berlekamp_massey([], p) == [1]


def test_projected_sequence_reduces_its_start_mod_p():
    # a p-integral start gives the sequence of its reduction mod p; one
    # whose denominator p divides cannot be reduced
    M = sparse_rows([[1, Fraction(1, 2)], [3, -1]])
    u = [2, 5]
    for p in (7, 11, 2**61 - 1):
        start = [Fraction(-2, 5), Fraction(7, 9)]
        reduced = [x.numerator * pow(x.denominator, -1, p) % p for x in start]
        assert projected_sequence(M, start, u, 6, p) == projected_sequence(M, reduced, u, 6, p)
    with pytest.raises(ValueError):
        projected_sequence(M, [1, Fraction(1, 7)], u, 6, 7)
