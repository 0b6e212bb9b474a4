"""Exact linear algebra on one elimination kernel, `LinearSieve`: rank,
corank, nullspace, first linear dependence, and the minimal polynomial of
a matrix on a start vector modulo a subspace.  The sieve runs over Q, by
fraction-free elimination, or over F_p for a prime p (`ModularSieve`),
with the same contract."""

from __future__ import annotations

from fractions import Fraction
from math import lcm


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


class ModularSieve(LinearSieve):
    """`LinearSieve` over F_p, p prime: the same `add` and `keep`, with
    dependence coefficients in 0..p-1.  Entries are taken mod p, so they
    must be p-integral (ValueError otherwise).  Kept rows are scaled to
    pivot 1, and the steps (k, f) record that a vector v became

        R = s (v - sum f R_k),   s the inverse of the pivot before scaling.
    """

    def __init__(self, modulus: int):
        super().__init__()
        self.modulus = modulus

    def _reduce(self, vec):
        p = self.modulus
        row = reduce_mod(vec, p)
        steps = []
        for k, (pc, prow) in enumerate(self.pivots):
            f = row[pc]
            if f:
                steps.append((k, f))
                row = [(a - f * b) % p for a, b in zip(row, prow)]
        index = self.count
        self.count += 1
        pc = next((i for i, x in enumerate(row) if x), None)
        if pc is None:
            return index, steps
        s = pow(row[pc], -1, p)
        self.pivots.append((pc, [a * s % p for a in row]))
        self._relations.append((index, s, steps))
        return None

    def _unwind(self, index, steps):
        p = self.modulus
        w = [0] * len(self.pivots)
        for k, f in steps:
            w[k] = f
        combo = [0] * index + [1]
        for k in reversed(range(len(w))):
            if w[k]:
                i, s, ksteps = self._relations[k]
                combo[i] = (combo[i] - w[k] * s) % p
                for j, f in ksteps:
                    w[j] = (w[j] - w[k] * s * f) % p
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


def minimal_polynomial(M, start, modulo=(), modulus=None):
    """Coefficients c_0..c_d (monic, c_d = 1) of the least polynomial p
    with p(M) start in the span of the `modulo` vectors (none by default,
    so p(M) start = 0).

    Krylov: the sieve takes the `modulo` vectors, then start, M start,
    M^2 start, ... until the first dependence on earlier vectors; a
    `modulo` vector that depends on the ones before it adds nothing.  M is
    a list of rows and is applied through its nonzero entries only.

    With a prime `modulus` p everything is reduced mod p and the result
    is over F_p.  Then a `modulo` vector that depends mod p on the ones
    before it raises ValueError, as does an entry whose denominator p
    divides.  If the result has the same degree as the one over Q, it is
    that one's reduction mod p: the modulo vectors and start .. M^(d-1)
    start are independent mod p, so one of their maximal minors is a unit
    mod p, and by Cramer's rule the coefficients over Q are p-integral
    and solve the same system mod p.
    """
    if modulus is None:
        sieve = LinearSieve()
    else:
        sieve = ModularSieve(modulus)
        M = [reduce_mod(row, modulus) for row in M]
    for v in modulo:
        if not sieve.keep(v) and modulus is not None:
            raise ValueError("the modulo vectors are dependent mod %d" % modulus)
    sparse = [[(j, c) for j, c in enumerate(row) if c] for row in M]
    cur = start
    while True:
        combo = sieve.add(cur)
        if combo is not None:
            return combo[len(modulo):]
        cur = [sum(c * cur[j] for j, c in row) for row in sparse]
        if modulus is not None:
            cur = [x % modulus for x in cur]
