"""Exact linear algebra over Q on one elimination kernel, the fraction-free
`LinearSieve`: rank, corank, nullspace, first linear dependence, and the
minimal polynomial of a matrix on a start vector modulo a subspace."""

from __future__ import annotations

from fractions import Fraction
from math import lcm


class LinearSieve:
    """Feed vectors one at a time; report the first linear dependence.

    `add` returns None while the vectors stay independent.  When the new
    vector lies in the span of the earlier ones it returns coefficients
    c_0..c_k (with c_k = 1 for the new vector) such that sum c_j v_j = 0.

    Each vector is cleared of denominators through the numerator and
    denominator of its entries (an int entry stays an int, never a
    Fraction) and reduced against the kept ones by fraction-free (Bareiss)
    elimination, whose divisions are exact, so the rows stay integral and
    no larger than minors of the input.  A step whose entry is 0 is
    skipped: it would only rescale the row by p_k / p_prev, so the next
    step divides by the pivot of the last step applied, and a kept row
    takes the skipped rescales at the end in one exact division.  A kept
    vector y = scale * row records the multipliers r_j of
    y = v - sum_j r_j y_j, from which a dependence is unwound back to the
    fed vectors.
    """

    def __init__(self):
        self.pivots = []  # (pivot column, integer row, scale, vector index, multipliers)
        self.count = 0

    def add(self, vec):
        den = lcm(*(x.denominator for x in vec))
        row = [x.numerator * (den // x.denominator) for x in vec]
        scale = Fraction(1, den)
        mults = []
        last = 1  # pivot of the last step applied
        for k, (pc, prow, pscale, _, _) in enumerate(self.pivots):
            f = row[pc]
            if not f:
                continue
            p = prow[pc]
            mults.append((k, scale * f / (pscale * p)))
            row = [(p * a - f * b) // last for a, b in zip(row, prow)]
            scale = scale * last / p
            last = p
        index = self.count
        self.count += 1
        pc = next((i for i, x in enumerate(row) if x), None)
        if pc is not None:
            top = self.pivots[-1][1][self.pivots[-1][0]] if self.pivots else 1
            if top != last:  # steps were skipped after the last one applied
                row = [a * top // last for a in row]
                scale = scale * last / top
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


def rank(rows) -> int:
    """Rank of a matrix given as a list of coefficient rows over Q: the
    number of rows the sieve keeps."""
    sieve = LinearSieve()
    for row in rows:
        sieve.add(row)
    return len(sieve.pivots)


def corank(rows, ncols: int) -> int:
    """Dimension of the kernel of a matrix with `ncols` columns."""
    return ncols - rank(rows)


def nullspace(rows, ncols: int) -> dict:
    """A basis of {v : row . v = 0 for every row}, as {c: v_c} with one
    vector per non-pivot column c: v_c is 1 in column c and 0 in every
    other non-pivot column.

    The sieve takes the columns in order, so a non-pivot column is the
    first dependence on the pivot columns before it, and that dependence,
    padded with zeros, is v_c.
    """
    sieve = LinearSieve()
    basis = {}
    for c in range(ncols):
        combo = sieve.add([row[c] for row in rows])
        if combo is not None:
            basis[c] = combo + [Fraction(0)] * (ncols - 1 - c)
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
    sparse = [[(j, c) for j, c in enumerate(row) if c] for row in M]
    sieve = LinearSieve()
    for v in modulo:
        sieve.add(v)
    cur = start
    while True:
        combo = sieve.add(cur)
        if combo is not None:
            return combo[len(modulo):]
        cur = [sum(c * cur[j] for j, c in row) for row in sparse]
