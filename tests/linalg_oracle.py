"""The dense Krylov sieve over F_p: `LinearSieve`'s contract mod a prime
p, and the minimal polynomial of a matrix on a start vector mod p.
`igq.presentations` proves its point counts by Berlekamp-Massey on a
projected sequence (`igq.linalg.berlekamp_massey`); this dense sieve is
that method's oracle.  Also a kernel basis over Q on
`LinearSieve`, for the dense origin factor of `spectrum_oracle`."""

from fractions import Fraction

from igq.linalg import LinearSieve, reduce_mod


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


def sparse_rows(M) -> list:
    """A dense matrix as the rows of (column, entry) over its nonzero
    entries, the one matrix format of `igq.linalg`."""
    return [[(j, x) for j, x in enumerate(row) if x] for row in M]


def dense_rows(rows, dim: int) -> list:
    """Rows of (column, entry) as a dense dim-column matrix: the inverse of
    `sparse_rows`."""
    out = []
    for row in rows:
        out.append([0] * dim)
        for j, x in row:
            out[-1][j] = x
    return out


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


def minimal_polynomial_mod(M, start, modulus):
    """`igq.linalg.minimal_polynomial` over F_p, on a dense M: the least
    monic p with p(M) start = 0 mod p.

    An entry whose denominator p divides raises ValueError.  If the result
    has the same degree d as the one over Q, it is that one's reduction
    mod p: start .. M^(d-1) start are independent mod p, so one of their
    maximal minors is a unit mod p, and by Cramer's rule the coefficients
    over Q are p-integral and solve the same system mod p.
    """
    sieve = ModularSieve(modulus)
    sparse = [[(j, c) for j, c in enumerate(reduce_mod(row, modulus)) if c] for row in M]
    cur = start
    while True:
        combo = sieve.add(cur)
        if combo is not None:
            return combo
        cur = [sum(c * cur[j] for j, c in row) % modulus for row in sparse]
