"""Exact Gaussian elimination over Q: reduced row echelon form, rank,
corank, nullspace, first linear dependence, and the minimal polynomial of
a matrix on a start vector modulo a subspace."""

from __future__ import annotations

from fractions import Fraction
from math import lcm


class LinearSieve:
    """Feed vectors one at a time; report the first linear dependence.

    `add` returns None while the vectors stay independent.  When the new
    vector lies in the span of the earlier ones it returns coefficients
    c_0..c_k (with c_k = 1 for the new vector) such that sum c_j v_j = 0.

    Each vector is cleared of denominators and reduced against the kept
    ones by fraction-free (Bareiss) elimination, whose divisions are exact,
    so the rows stay integral and no larger than minors of the input.  A kept vector y = scale * row
    records the multipliers r_j of y = v - sum_j r_j y_j, from which a
    dependence is unwound back to the fed vectors.
    """

    def __init__(self):
        self.pivots = []  # (pivot column, integer row, scale, vector index, multipliers)
        self.count = 0

    def add(self, vec):
        vec = [Fraction(x) for x in vec]
        scale = Fraction(1, lcm(*(x.denominator for x in vec)))
        row = [int(x / scale) for x in vec]
        mults = []
        prev = 1
        for k, (pc, prow, pscale, _, _) in enumerate(self.pivots):
            p, f = prow[pc], row[pc]
            if f:
                mults.append((k, scale * f / (pscale * p)))
            row = [(p * a - f * b) // prev for a, b in zip(row, prow)]
            scale = scale * prev / p
            prev = p
        index = self.count
        self.count += 1
        pc = next((i for i, x in enumerate(row) if x), None)
        if pc is not None:
            self.pivots.append((pc, row, scale, index, mults))
            return None
        # v = sum_k w_k y_k; unwind each y_k from the newest down
        w = [Fraction(0)] * len(self.pivots)
        for k, r in mults:
            w[k] = r
        combo = [Fraction(0)] * index + [Fraction(1)]
        for k in reversed(range(len(self.pivots))):
            if w[k]:
                _, _, _, i, rs = self.pivots[k]
                combo[i] -= w[k]
                for j, r in rs:
                    w[j] -= w[k] * r
        return combo


def row_echelon(rows, ncols: int):
    """Reduced row echelon form of a matrix given as coefficient rows over Q.

    Returns (pivot columns, nonzero rows): row i is 1 in column pivots[i]
    and 0 in every other pivot column.
    """
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
                m[i] = [a - f * b if b else a for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
    return pivots, m[:r]


def rank(rows, ncols: int = None) -> int:
    """Rank of a matrix given as a list of coefficient rows over Q."""
    if not rows:
        return 0
    return len(row_echelon(rows, ncols if ncols is not None else len(rows[0]))[0])


def corank(rows, ncols: int) -> int:
    """Dimension of the kernel of a matrix with `ncols` columns."""
    return ncols - rank(rows, ncols)


def nullspace(rows, ncols: int) -> dict:
    """A basis of {v : row . v = 0 for every row}, as {c: v_c} with one
    vector per non-pivot column c: v_c is 1 in column c and 0 in every
    other non-pivot column."""
    pivots, reduced = row_echelon(rows, ncols)
    basis = {}
    for c in sorted(set(range(ncols)) - set(pivots)):
        v = [Fraction(0)] * ncols
        v[c] = Fraction(1)
        for p, row in zip(pivots, reduced):
            v[p] = -row[c]
        basis[c] = v
    return basis


def minimal_polynomial(M, start, modulo=()):
    """Coefficients c_0..c_d (monic, c_d = 1) of the least polynomial p
    with p(M) start in the span of the `modulo` vectors (none by default,
    so p(M) start = 0).

    Krylov: the sieve takes the `modulo` vectors, then start, M start,
    M^2 start, ... until the first dependence on earlier vectors; a
    `modulo` vector that depends on the ones before it adds nothing.  M is
    a list of rows and is applied through its nonzero entries only.
    """
    # integral entries as ints: from an integral start the Krylov vectors
    # then stay in int arithmetic, far cheaper than Fraction
    sparse = [
        [(j, c.numerator if c.denominator == 1 else c) for j, c in enumerate(row) if c]
        for row in M
    ]
    sieve = LinearSieve()
    for v in modulo:
        sieve.add(v)
    cur = start
    while True:
        combo = sieve.add(cur)
        if combo is not None:
            return combo[len(modulo):]
        cur = [sum(c * cur[j] for j, c in row) for row in sparse]
