"""Exact linear algebra: rank, nullspace, first dependence, minimal
polynomials, each against a plain Gauss-Jordan reference."""

import random
from fractions import Fraction

from igq.linalg import LinearSieve, minimal_polynomial, nullspace, rank


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
        assert minimal_polynomial(companion, start) == p
