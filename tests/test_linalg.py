"""Exact linear algebra: echelon form, rank, nullspace, first dependence,
minimal polynomials."""

import random
from fractions import Fraction

from igq.linalg import LinearSieve, minimal_polynomial, nullspace, rank, row_echelon


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


def test_row_echelon_nullspace_and_rank_agree():
    rng = random.Random(3)
    for _ in range(30):
        ncols = rng.randrange(1, 7)
        rows = random_matrix(rng, rng.randrange(1, 8), ncols, rng.randrange(0, 5))
        pivots, reduced = row_echelon(rows, ncols)
        assert len(pivots) == rank(rows, ncols)
        for i, p in enumerate(pivots):
            assert [row[p] for row in reduced] == [int(i == k) for k in range(len(pivots))]
        kernel = nullspace(rows, ncols)
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
        assert rank(rows[:k], ncols) == k == rank(rows[: k + 1], ncols)
        assert combo[-1] == 1 and len(combo) == k + 1
        assert all(sum(c * row[j] for c, row in zip(combo, rows)) == 0 for j in range(ncols))


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
        assert minimal_polynomial(companion, start) == p
