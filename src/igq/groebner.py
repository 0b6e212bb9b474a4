"""Reduced Groebner bases over Q and the finite quotients they present.

Buchberger's algorithm with the Gebauer-Moeller pair criteria and the
sugar selection strategy (Giovini, Mora, Niesi, Robbiano & Traverso, "One
sugar cube, please", ISSAC 1991) in total degree.  Pairs wait in a heap
keyed by (sugar, order key of their lcm), both computed once when the
pair is made.  Reducers sit in a table sorted by leading term, grown
by insertion during Buchberger and built once per reduced basis; each
carries a bitmask of the variables in its leading term, so most
divisibility tests are one integer AND.  Full tail reduction runs over a
lazy max-heap of monomials.

The arithmetic inside is fraction-free (von zur Gathen & Gerhard, *Modern
Computer Algebra*, ch. 6): Buchberger's elements and every reducer row
are primitive integer polynomials, with content 1 and a positive leading
coefficient, made by `igq.poly`'s `cleared` and `primitive`, and a
reduction scales the running remainder by an integer instead of
dividing.  Fractions appear only at the boundary: the reduced basis is
emitted monic with `Fraction` coefficients, and `normal_form` divides its
accumulated scale out once at the end.  For
zero-dimensional ideals: standard monomial bases, whose length is the
quotient's dimension, the length of the factor at the origin, the
coordinates of a normal form on that basis, and one builder of the matrix
of multiplication by a polynomial there, as rows of (column, entry), on
which `igq.linalg` does the rest of the quotient's linear algebra.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from fractions import Fraction
from math import gcd

from . import Value, set_field
from .poly import (
    Polynomial,
    Ring,
    RingMismatch,
    cleared,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
    primitive,
)


class Ideal(Value):
    """A finite list of generators in a common ring."""

    __slots__ = ("ring", "generators")

    def __init__(self, ring: Ring, generators):
        gens = tuple(generators)
        for g in gens:
            if g.ring != ring:
                raise RingMismatch("generator not in the ambient ring")
        set_field(self, "ring", ring)
        set_field(self, "generators", gens)

    def __repr__(self):
        return "Ideal(%d generators in %r)" % (len(self.generators), self.ring)


class GroebnerBasis(Value):
    """A reduced Groebner basis: monic elements, no element's term divisible
    by another element's leading term, sorted ascending by leading term.
    `_reducers`, their reducer table, is a cache left out of `_values`."""

    __slots__ = ("ring", "elements", "_reducers")

    def __init__(self, ring: Ring, elements):
        elements = tuple(elements)
        set_field(self, "ring", ring)
        set_field(self, "elements", elements)
        set_field(self, "_reducers", _ReducerTable(ring.order, [_primitive(ring, g.terms) for g in elements]))

    def _values(self) -> tuple:
        return self.ring, self.elements

    @property
    def lead_monomials(self):
        return tuple(g.lead_monomial for g in self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return "GroebnerBasis(%d elements in %r)" % (len(self.elements), self.ring)


# ---------------------------------------------------------------------------
# division / normal form


def _mask(e) -> int:
    """Bitmask of the variables with a positive exponent in e: a monomial
    divides another only if its mask is a subset of the other's."""
    m = 0
    bit = 1
    for x in e:
        if x:
            m |= bit
        bit <<= 1
    return m


def _primitive(ring: Ring, terms) -> Polynomial:
    """The primitive integer polynomial proportional to nonzero `terms`,
    whose coefficients are ints or Fractions: denominators cleared, content
    divided out, leading coefficient positive."""
    ints = primitive(cleared([c for _, c in terms])[1])
    if ints[0] < 0:
        ints = [-c for c in ints]
    return Polynomial(ring, tuple(zip([e for e, _ in terms], ints)))


class _ReducerTable:
    """Reducers (lead, lead mask, lead coeff, tail terms) sorted ascending by
    lead: small leading terms give the unique remainder faster on average.
    Rows with equal leads keep their insertion order.  The rows are
    primitive integer polynomials (see `_primitive`)."""

    __slots__ = ("key", "keys", "rows")

    def __init__(self, order, polys=()):
        self.key = order.key
        self.keys = []
        self.rows = []
        for g in polys:
            self.insert(g)

    def insert(self, g: Polynomial) -> None:
        lead = g.lead_monomial
        k = self.key(lead)
        i = bisect_right(self.keys, k)
        self.keys.insert(i, k)
        self.rows.insert(i, (lead, _mask(lead), g.lead_coeff, g.terms[1:]))


def _reduce_full(terms, table: _ReducerTable):
    """Fraction-free full tail reduction of the integer `terms` by the rows
    of `table`: (remainder terms, scale) with scale * f = remainder modulo
    the rows, scale a positive int.

    Cancelling c*m by a row with leading coefficient lc scales everything
    accumulated so far, the emitted remainder included, by lc / gcd(c, lc);
    with lc = 1, the common case, the step is a plain integer update.  Uses
    a lazy max-heap over the monomials still to be processed; every
    monomial entering the heap is strictly smaller than the one being
    reduced, so each pops once, with its final coefficient, in descending
    order: the remainder's terms come out already sorted.
    """
    key = table.key
    rows = table.rows
    coeffs = dict(terms)
    heap = [(_NegKey(key(e)), e) for e in coeffs]
    heapq.heapify(heap)
    out = []
    scale = 1
    while heap:
        _, m = heapq.heappop(heap)
        c = coeffs.pop(m)
        if not c:
            continue
        mm = _mask(m)
        for lead, lmask, lc, tail in rows:
            if lmask & mm == lmask:
                q = monomial_div(m, lead)
                if q is not None:
                    break
        else:
            out.append((m, c))
            continue
        if lc != 1:
            g = gcd(c, lc)
            a = lc // g
            c //= g
            if a != 1:
                scale *= a
                for e in coeffs:
                    coeffs[e] *= a
                out = [(e, a * x) for e, x in out]
        for e, tc in tail:
            e2 = monomial_mul(e, q)
            prev = coeffs.get(e2)
            if prev is None:
                coeffs[e2] = -c * tc
                heapq.heappush(heap, (_NegKey(key(e2)), e2))
            else:
                coeffs[e2] = prev - c * tc
    return out, scale


class _NegKey:
    """Wrap an order key so heapq's min-heap pops the largest monomial."""

    __slots__ = ("k",)

    def __init__(self, k):
        self.k = k

    def __lt__(self, other):
        return self.k > other.k


def normal_form(f: Polynomial, basis: GroebnerBasis) -> Polynomial:
    """The unique remainder of f modulo a Groebner basis.

    Idempotent and Q-linear; no term of the result is divisible by any
    leading term of the basis.  f is reduced with its denominators
    cleared, and the result divides that common denominator and the
    reduction's scale out once.
    """
    if f.ring != basis.ring:
        raise RingMismatch("polynomial not in the basis ring")
    table = basis._reducers
    if not table.rows or f.is_zero:
        return f
    den, ints = cleared([c for _, c in f.terms])
    out, scale = _reduce_full(zip([e for e, _ in f.terms], ints), table)
    den *= scale
    return Polynomial(f.ring, tuple((e, Fraction(c, den)) for e, c in out))


def spoly(f: Polynomial, g: Polynomial) -> Polynomial:
    """lc(g) * lcm/lm(f) * f - lc(f) * lcm/lm(g) * g, built from the two
    tails: the leading terms cancel by construction.

    This is lc(f) * lc(g) times the S-polynomial, made without division, so
    integer coefficients stay integers; for monic f and g, as in a reduced
    basis, it is the S-polynomial itself."""
    top = monomial_lcm(f.lead_monomial, g.lead_monomial)
    acc = {}
    for p, scale in ((f, g.lead_coeff), (g, -f.lead_coeff)):
        q = monomial_div(top, p.lead_monomial)
        for e, c in p.terms[1:]:
            e2 = monomial_mul(e, q)
            prev = acc.get(e2)
            acc[e2] = scale * c if prev is None else prev + scale * c
    return f.ring.collect(acc)


# ---------------------------------------------------------------------------
# Buchberger


def _update_pairs(G, leads, masks, excess, pairs, f, sugar, key):
    """Gebauer-Moeller update: add f, of sugar `sugar`, to G, prune the pair
    heap and extend it.

    A pair is (sugar, order key of its lcm, i, j, lcm), made once; the heap
    pops the pair of least sugar, ties broken by the smaller lcm (the sugar
    strategy).  The sugar of a pair with lcm L is deg L plus the larger
    excess sugar(g) - deg(lm g) of its two elements g.
    """
    lf = f.lead_monomial
    mf = _mask(lf)
    ef = sugar - sum(lf)
    t = len(G)
    lcm_f = [monomial_lcm(L, lf) for L in leads]

    # an lcm's mask is the union of its two leads' masks
    kept = [
        p
        for p in pairs
        if mf & ~(masks[p[2]] | masks[p[3]])
        or not monomial_divides(lf, p[4])
        or p[4] == lcm_f[p[2]]
        or p[4] == lcm_f[p[3]]
    ]

    by_lcm = {}
    for i, L in enumerate(lcm_f):
        by_lcm.setdefault(L, []).append(i)
    minimal = []  # (lcm, mask)
    for k, L in sorted((key(L), L) for L in by_lcm):
        group = by_lcm[L]
        mL = masks[group[0]] | mf
        if any(mM & mL == mM and monomial_divides(M, L) for M, mM in minimal):
            continue
        minimal.append((L, mL))
        # coprime leads (disjoint supports): the pair reduces to zero
        if all(masks[i] & mf for i in group):
            i = group[0]
            kept.append((sum(L) + max(excess[i], ef), k, i, t, L))
    heapq.heapify(kept)

    G.append(f)
    leads.append(lf)
    masks.append(mf)
    excess.append(ef)
    return kept


def buchberger(ideal: Ideal) -> GroebnerBasis:
    """The unique reduced Groebner basis of an ideal, for its ring's order.

    An input generator's sugar is the largest total degree of its terms,
    and a reduced S-polynomial takes the sugar of its pair.
    """
    ring = ideal.ring
    key = ring.order.key
    gens = [g for g in ideal.generators if not g.is_zero]

    G, leads, masks, excess, pairs = [], [], [], [], []
    table = _ReducerTable(ring.order)
    for f in sorted(gens, key=lambda p: key(p.lead_monomial)):
        sugar = max(sum(e) for e, _ in f.terms)
        f = _primitive(ring, f.terms)
        pairs = _update_pairs(G, leads, masks, excess, pairs, f, sugar, key)
        table.insert(f)

    while pairs:
        sugar, _, i, j, _ = heapq.heappop(pairs)
        s = spoly(G[i], G[j])
        if s.is_zero:
            continue
        r, _ = _reduce_full(s.terms, table)
        if r:
            r = _primitive(ring, r)
            pairs = _update_pairs(G, leads, masks, excess, pairs, r, sugar, key)
            table.insert(r)

    return _interreduce(ring, G)


def _interreduce(ring: Ring, G) -> GroebnerBasis:
    """Minimalize, then reduce each tail once against the minimal basis.

    The minimal elements form a Groebner basis, and tail reduction leaves
    every lead unchanged, so a single pass gives the reduced basis.  The
    only place elements become monic, with Fraction coefficients."""
    key = ring.order.key
    minimal = []
    for g in sorted(G, key=lambda p: key(p.lead_monomial)):
        if all(not monomial_divides(h.lead_monomial, g.lead_monomial) for h in minimal):
            minimal.append(g)
    table = _ReducerTable(ring.order, minimal)
    reduced = []
    for i, g in enumerate(minimal):
        tail, scale = _reduce_full(g.terms[1:], table)
        lead, lc = g.terms[0]
        row = _primitive(ring, [(lead, lc * scale)] + tail).terms
        lc = row[0][1]
        # rows follow `minimal`; later tails reduce against the shorter tail
        table.rows[i] = (lead, table.rows[i][1], lc, row[1:])
        reduced.append(Polynomial(ring, tuple((e, Fraction(c, lc)) for e, c in row)))
    return GroebnerBasis(ring, reduced)


# ---------------------------------------------------------------------------
# quotient structure


def standard_monomials(gb: GroebnerBasis):
    """Monomials not divisible by any leading term; a vector-space basis of
    the quotient, empty for the unit ideal.  Raises if the quotient is
    infinite-dimensional, that is if some variable has no pure power among
    the leading terms (the lead 1, of the unit ideal, is a pure power of
    every variable).

    The search grows standard monomials one variable at a time.  If m is
    standard, a lead L that divides m + e_i does not divide m, so
    L_i = m_i + 1: only the leads indexed by (i, m_i + 1) are tested."""
    n = gb.ring.ngens
    leads = gb.lead_monomials
    if any(all(any(L[:i] + L[i + 1 :]) for L in leads) for i in range(n)):
        raise ValueError("quotient is not finite-dimensional")
    zero = (0,) * n
    if zero in leads:
        return []
    by_step = {}
    for L in leads:
        for i, e in enumerate(L):
            if e:
                by_step.setdefault((i, e), []).append(L)
    seen = {zero}
    frontier = [zero]
    out = []
    while frontier:
        m = frontier.pop()
        out.append(m)
        for i in range(n):
            m2 = m[:i] + (m[i] + 1,) + m[i + 1 :]
            if m2 in seen:
                continue
            seen.add(m2)
            if not any(monomial_divides(L, m2) for L in by_step.get((i, m2[i]), ())):
                frontier.append(m2)
    out.sort(key=gb.ring.order.key)
    return out


def standard_coordinates(terms, index) -> list:
    """The coordinates of a normal form, given by its `terms`, on the
    standard monomials, `index` holding each one's position: an entry is
    an int when it is integral, else a Fraction."""
    out = [0] * len(index)
    for e, c in terms:
        out[index[e]] = c.numerator if c.denominator == 1 else c
    return out


def multiplication_by(f: Polynomial, gb: GroebnerBasis):
    """The matrix of multiplication by f on the finite-dimensional
    quotient, as rows of (column, entry) over its nonzero entries, columns
    ascending: column j holds the `standard_coordinates` of NF(f m_j), m_j
    the j-th standard monomial.  The column of 1 is NF(f); any other m_j
    is x_k m_i for its first variable x_k and some i < j, and its column
    is M_k times column i, M_k the matrix of x_k.  Each M_k needed is built
    once: its column of m is a unit vector when x_k m is standard, minus
    the tail of the element g led by x_k m (NF(x_k m) = x_k m - g, the
    basis being reduced), and a normal form only otherwise."""
    std = standard_monomials(gb)
    index = {m: i for i, m in enumerate(std)}
    by_lead = {g.lead_monomial: g for g in gb}
    mats = {}

    def variable_matrix(k):
        M = [[] for _ in std]
        for j, m in enumerate(std):
            w = m[:k] + (m[k] + 1,) + m[k + 1 :]
            if w in index:
                M[index[w]].append((j, 1))
                continue
            g = by_lead.get(w)
            if g is None:
                column = normal_form(gb.ring.monomial(w), gb).terms
            else:
                column = [(e, -c) for e, c in g.terms[1:]]
            for i, c in enumerate(standard_coordinates(column, index)):
                if c:
                    M[i].append((j, c))
        return M

    columns = [standard_coordinates(normal_form(f, gb).terms, index)]
    for m in std[1:]:
        k = next(k for k, e in enumerate(m) if e)
        if k not in mats:
            mats[k] = variable_matrix(k)
        prev = columns[index[m[:k] + (m[k] - 1,) + m[k + 1 :]]]
        columns.append([sum(x * prev[j] for j, x in row) for row in mats[k]])
    return [[(j, column[i]) for j, column in enumerate(columns) if column[i]] for i in range(len(std))]


def local_length(gb: GroebnerBasis) -> int:
    """The length L of the quotient's factor A_0 at the origin (0 if the
    origin is not a point), by Nakayama (Eisenbud, *Commutative Algebra*,
    ch. 4): dim Q[x]/(I + m^N), m the maximal ideal of the origin, is dim
    A_0/m^N A_0, since m is the unit ideal on the other factors.  Equal at
    N and N + 1, it gives m^N A_0 = m^(N+1) A_0, so m^N A_0 = 0: the first
    N where it stops growing gives L.  Each I + m^N is built as
    m (I + m^(N-1)) + I, from the variables times the last basis."""
    ring, basis, last = gb.ring, (gb.ring.one,), None
    while True:
        basis = buchberger(Ideal(ring, gb.elements + tuple(x * g for x in ring.gens for g in basis)))
        dim = len(standard_monomials(basis))
        if dim == last:
            return dim
        last = dim
