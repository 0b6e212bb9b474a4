"""Exact linear algebra on one elimination kernel, `LinearSieve`: rank,
corank, first linear dependence, and the minimal polynomial of a matrix
on a start vector, all over Q.  Over F_p, for a prime p, only what
Wiedemann's method needs: the sequence u M^i v and its minimal
polynomial by Berlekamp-Massey.

A square matrix has one format here, the one `igq.groebner`'s
multiplication matrices come in: a list of rows, each a list of
(column, entry) over its nonzero entries.  Vectors, and the rows the
sieve takes, are dense lists."""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import itemgetter, mul


def reduce_mod(vec, p: int) -> list:
    """The entries of a vector of ints and Fractions mod the prime p.
    Raises ValueError when p divides a denominator."""
    return [
        x.numerator % p if x.denominator == 1 else x.numerator * pow(x.denominator, -1, p) % p
        for x in vec
    ]


class LinearSieve:
    """Feed vectors one at a time; report the first linear dependence.

    `add` returns None while the vectors stay independent.  When the new
    vector lies in the span of the earlier ones it returns coefficients
    c_0..c_k (with c_k = 1 for the new vector) such that sum c_j v_j = 0.
    `keep` feeds a vector the same way and only says whether it was
    independent (and so kept); it builds no dependence.

    Each vector is cleared of denominators through the numerator and
    denominator of its entries (an int entry stays an int, never a
    Fraction) and reduced against the kept rows by fraction-free (Bareiss)
    elimination, whose divisions are exact, so the rows stay integral and
    no larger than minors of the input.  A step whose entry is 0 is
    skipped: it would only rescale the row by p_k / p_prev, so the next
    step divides by the pivot of the last step applied, and a kept row
    takes the skipped rescales at the end in one exact multiply-divide by
    top / last, top the pivot of the newest kept row.

    The steps are recorded as ints (k, f, last): the row's entry f in the
    pivot column of kept row R_k, and the pivot of the step applied
    before.  Unrolled, with y_k = R_k / (den_k top_k), they say that a
    kept vector v, cleared by den, made

        y = v - sum r_k y_k,   r_k = f den_k top_k / (den last p_k),

    p_k the pivot of R_k, and that a dependent one is v = sum r_k y_k.
    Only `add` turns these relations into Fractions, and only when it
    reports a dependence.
    """

    def __init__(self):
        self.pivots = []  # (pivot column, row), one per kept vector
        self._relations = []  # (vector index, den * top, den, steps) per kept row
        self.count = 0

    def add(self, vec):
        dependent = self._reduce(vec)
        return None if dependent is None else self._unwind(*dependent)

    def keep(self, vec) -> bool:
        return self._reduce(vec) is None

    def _reduce(self, vec):
        """Keep vec and return None if it is independent of the kept rows,
        else return (its index, den, steps) for `_unwind`."""
        den = lcm(*(x.denominator for x in vec))
        row = [x.numerator * (den // x.denominator) for x in vec]
        steps = []
        last = 1  # pivot of the last step applied
        for k, (pc, prow) in enumerate(self.pivots):
            f = row[pc]
            if not f:
                continue
            p = prow[pc]
            steps.append((k, f, last))
            row = [(p * a - f * b) // last for a, b in zip(row, prow)]
            last = p
        index = self.count
        self.count += 1
        pc = next((i for i, x in enumerate(row) if x), None)
        if pc is None:
            return index, den, steps
        top = self.pivots[-1][1][self.pivots[-1][0]] if self.pivots else 1
        if top != last:  # steps were skipped after the last one applied
            row = [a * top // last for a in row]
        self.pivots.append((pc, row))
        self._relations.append((index, den * top, den, steps))
        return None

    def _unwind(self, index, den, steps):
        # v = sum_k w_k y_k; replace each y_k by its relation, newest first
        piv = [row[pc] for pc, row in self.pivots]
        scale = [s for _, s, _, _ in self._relations]
        w = [0] * len(piv)
        for k, f, last in steps:
            w[k] = Fraction(f * scale[k], den * last * piv[k])
        combo = [Fraction(0)] * index + [Fraction(1)]
        for k in reversed(range(len(piv))):
            if w[k]:
                i, _, kden, ksteps = self._relations[k]
                combo[i] -= w[k]
                for j, f, last in ksteps:
                    w[j] -= w[k] * Fraction(f * scale[j], kden * last * piv[j])
        return combo


def rank(rows) -> int:
    """Rank of a matrix given as a list of coefficient rows over Q: the
    number of rows the sieve keeps."""
    sieve = LinearSieve()
    for row in rows:
        sieve.keep(row)
    return len(sieve.pivots)


def corank(rows, ncols: int) -> int:
    """Dimension of the kernel of a matrix with `ncols` columns."""
    return ncols - rank(rows)


def minimal_polynomial(M, start):
    """Coefficients c_0..c_d (monic, c_d = 1) of the least polynomial p
    with p(M) start = 0.

    Krylov: the sieve takes start, M start, M^2 start, ... until the first
    dependence on earlier vectors.  M is given by rows of (column, entry)
    and applied through them only.
    """
    sieve = LinearSieve()
    cur = start
    while True:
        combo = sieve.add(cur)
        if combo is not None:
            return combo
        cur = [sum(c * cur[j] for j, c in row) for row in M]


def berlekamp_massey(seq, p: int) -> list:
    """The least monic g = [c_0, ..., c_L] over F_p, p prime, with
    sum_k c_k s_(i+k) = 0 for every i + L < len(seq): the shortest linear
    recurrence of the sequence (Massey, IEEE Trans. Inf. Theory 15, 1969).

    If the whole, infinite sequence satisfies some recurrence of order at
    most len(seq) / 2, then g is its minimal polynomial, and g divides
    every polynomial that annihilates it.  Tracked as the connection
    polynomial C = 1 + c_(L-1) x + ... + c_0 x^L, which is g reversed.
    """
    conn, prev = [1], [1]  # C, and C before the last change of L
    length, shift, last = 0, 1, 1  # L, steps since that change, its discrepancy
    for i, s in enumerate(seq):
        d = (s + sum(conn[k] * seq[i - k] for k in range(1, min(len(conn), i + 1)))) % p
        if not d:
            shift += 1
            continue
        coef = d * pow(last, -1, p) % p
        new = conn + [0] * (len(prev) + shift - len(conn))
        for k, b in enumerate(prev):
            new[k + shift] = (new[k + shift] - coef * b) % p
        if 2 * length <= i:
            prev, last, length, shift = conn, d, i + 1 - length, 1
        else:
            shift += 1
        conn = new
    conn += [0] * (length + 1 - len(conn))
    return conn[length::-1]


def projected_sequence(rows, start, u, length: int, p: int) -> list:
    """s_i = u M^i start mod the prime p, for i < length: the scalar
    sequence of Wiedemann's method (IEEE Trans. Inf. Theory 32, 1986).  M
    is given by rows of (column, entry) and applied through them only;
    ValueError when p divides a denominator of its entries or of start's."""
    gathered = []
    for row in rows:
        # itemgetter of one index returns the entry, not a tuple: pad a
        # short row with column 0 at coefficient 0
        pad = max(2 - len(row), 0)
        js = [j for j, _ in row] + [0] * pad
        gathered.append((itemgetter(*js), reduce_mod([x for _, x in row], p) + [0] * pad))
    seq, cur = [], reduce_mod(start, p)
    while len(seq) < length:
        seq.append(sum(map(mul, u, cur)) % p)
        cur = [sum(map(mul, cs, get(cur))) % p for get, cs in gathered]
    return seq
