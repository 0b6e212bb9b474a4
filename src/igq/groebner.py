"""Reduced Groebner bases over Q and the finite quotients they present.

Buchberger's algorithm with the Gebauer-Moeller pair criteria and the
normal selection strategy; heap-backed full tail reduction.  For
zero-dimensional ideals: quotient dimensions, standard monomial bases,
the matrices of multiplication by each variable on that basis, and
minimal polynomials of multiplication maps.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

from .linalg import LinearSieve
from .poly import (
    Polynomial,
    Ring,
    RingMismatch,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)


class _Infinite:
    def __repr__(self):
        return "INFINITE"

    def __eq__(self, other):
        return isinstance(other, _Infinite)

    def __hash__(self):
        return hash("INFINITE")


#: Sentinel returned by quotient_dimension for non-zero-dimensional ideals.
INFINITE = _Infinite()


class Ideal:
    """A finite list of generators in a common ring."""

    __slots__ = ("ring", "generators")

    def __init__(self, ring: Ring, generators):
        gens = tuple(generators)
        for g in gens:
            if g.ring != ring:
                raise RingMismatch("generator not in the ambient ring")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "generators", gens)

    def __setattr__(self, *a):
        raise AttributeError("Ideal is immutable")

    def __repr__(self):
        return "Ideal(%d generators in %r)" % (len(self.generators), self.ring)

    def __eq__(self, other):
        """Ideal equality (not generator-list equality): via reduced bases."""
        if not isinstance(other, Ideal) or self.ring != other.ring:
            return NotImplemented
        return buchberger(self).elements == buchberger(other).elements


class GroebnerBasis:
    """A reduced Groebner basis: monic elements, no element's term divisible
    by another element's leading term, sorted ascending by leading term."""

    __slots__ = ("ring", "elements")

    def __init__(self, ring: Ring, elements):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "elements", tuple(elements))

    def __setattr__(self, *a):
        raise AttributeError("GroebnerBasis is immutable")

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


def _reduce_full(f: Polynomial, reducers) -> Polynomial:
    """Remainder of f under full tail reduction by `reducers`.

    reducers: list of (lead_exps, lead_coeff, tail_terms) with distinct leads.
    Uses a lazy max-heap over the monomials still to be processed; every
    monomial entering the heap is strictly smaller than the one being
    reduced, so each pops at most once with its final coefficient.
    """
    ring = f.ring
    key = ring.order.key
    coeffs = dict(f.terms)
    heap = [(_NegKey(key(e)), e) for e in coeffs]
    heapq.heapify(heap)
    out = {}
    while heap:
        _, m = heapq.heappop(heap)
        c = coeffs.pop(m, None)
        if not c:
            continue
        hit = None
        for lead, lc, tail in reducers:
            q = monomial_div(m, lead)
            if q is not None:
                hit = (q, lc, tail)
                break
        if hit is None:
            out[m] = c
            continue
        q, lc, tail = hit
        scale = c / lc
        for e, tc in tail:
            e2 = monomial_mul(e, q)
            prev = coeffs.get(e2)
            if prev is None:
                coeffs[e2] = -scale * tc
                heapq.heappush(heap, (_NegKey(key(e2)), e2))
            else:
                coeffs[e2] = prev - scale * tc
    return ring.poly(out)


class _NegKey:
    """Wrap an order key so heapq's min-heap pops the largest monomial."""

    __slots__ = ("k",)

    def __init__(self, k):
        self.k = k

    def __lt__(self, other):
        return self.k > other.k


def _reducer_table(polys):
    table = [(g.lead_monomial, g.lead_coeff, g.terms[1:]) for g in polys if not g.is_zero]
    # prefer small leading terms: gives the unique remainder faster on average
    table.sort(key=lambda t: polys[0].ring.order.key(t[0]))
    return table


def normal_form(f: Polynomial, basis) -> Polynomial:
    """The unique remainder of f modulo a Groebner basis.

    Idempotent and Q-linear; no term of the result is divisible by any
    leading term of the basis.
    """
    polys = list(basis.elements if isinstance(basis, GroebnerBasis) else basis)
    if isinstance(basis, GroebnerBasis) and f.ring != basis.ring:
        raise RingMismatch("polynomial not in the basis ring")
    if not polys:
        return f
    return _reduce_full(f, _reducer_table(polys))


def spoly(f: Polynomial, g: Polynomial) -> Polynomial:
    lf, lg = f.lead_monomial, g.lead_monomial
    lcm = monomial_lcm(lf, lg)
    mf = f.ring.monomial(monomial_div(lcm, lf), Fraction(1) / f.lead_coeff)
    mg = g.ring.monomial(monomial_div(lcm, lg), Fraction(1) / g.lead_coeff)
    return mf * f - mg * g


# ---------------------------------------------------------------------------
# Buchberger


def _update_pairs(G, leads, pairs, f):
    """Gebauer-Moeller update: add f to G, prune and extend the pair set."""
    lf = f.lead_monomial
    t = len(G)

    kept = set()
    for (i, j) in pairs:
        lij = monomial_lcm(leads[i], leads[j])
        if (
            not monomial_divides(lf, lij)
            or lij == monomial_lcm(leads[i], lf)
            or lij == monomial_lcm(leads[j], lf)
        ):
            kept.add((i, j))

    by_lcm = {}
    for i in range(t):
        by_lcm.setdefault(monomial_lcm(leads[i], lf), []).append(i)
    order_key = f.ring.order.key
    minimal = []
    for L in sorted(by_lcm, key=order_key):
        if all(not monomial_divides(M, L) for M in minimal):
            minimal.append(L)
    for L in minimal:
        if not any(
            monomial_lcm(leads[i], lf) == monomial_mul(leads[i], lf)
            for i in by_lcm[L]
        ):
            kept.add((min(by_lcm[L]), t))

    G.append(f)
    leads.append(lf)
    return kept


def buchberger(ideal) -> GroebnerBasis:
    """The unique reduced Groebner basis of an ideal, for its ring's order."""
    if isinstance(ideal, Ideal):
        ring, gens = ideal.ring, ideal.generators
    else:
        gens = tuple(ideal)
        if not gens:
            raise ValueError("cannot infer the ring of an empty generator list")
        ring = gens[0].ring
    gens = [g for g in gens if not g.is_zero]
    key = ring.order.key

    G, leads, pairs = [], [], set()
    for f in sorted(gens, key=lambda p: key(p.lead_monomial)):
        pairs = _update_pairs(G, leads, pairs, f.monic())

    while pairs:
        i, j = min(pairs, key=lambda p: key(monomial_lcm(leads[p[0]], leads[p[1]])))
        pairs.remove((i, j))
        s = spoly(G[i], G[j])
        r = _reduce_full(s, _reducer_table(G)) if not s.is_zero else s
        if not r.is_zero:
            pairs = _update_pairs(G, leads, pairs, r.monic())

    return _interreduce(ring, G)


def _interreduce(ring: Ring, G) -> GroebnerBasis:
    key = ring.order.key
    # minimalize: drop elements whose lead is divisible by another lead
    minimal = []
    for g in sorted(G, key=lambda p: key(p.lead_monomial)):
        if all(not monomial_divides(h.lead_monomial, g.lead_monomial) for h in minimal):
            minimal.append(g)
    # reduce every element's tail against the others until stable
    changed = True
    current = minimal
    while changed:
        changed = False
        reduced = []
        for i, g in enumerate(current):
            others = reduced + current[i + 1 :]
            r = _reduce_full(g, _reducer_table(others)) if others else g
            if r.terms != g.terms:
                changed = True
            reduced.append(r.monic())
        current = reduced
    current.sort(key=lambda p: key(p.lead_monomial))
    return GroebnerBasis(ring, current)


def is_groebner(gb: GroebnerBasis) -> bool:
    """Buchberger's criterion: every S-polynomial reduces to zero."""
    els = gb.elements
    for i in range(len(els)):
        for j in range(i + 1, len(els)):
            if not normal_form(spoly(els[i], els[j]), gb).is_zero:
                return False
    return True


# ---------------------------------------------------------------------------
# quotient structure


def _pure_power_bounds(gb: GroebnerBasis):
    """For each variable, the least d with x_i^d among the leading terms
    (None if absent).  All present <=> the quotient is finite-dimensional."""
    n = gb.ring.ngens
    bounds = [None] * n
    for lead in gb.lead_monomials:
        nz = [i for i, e in enumerate(lead) if e]
        if len(nz) == 1:
            i = nz[0]
            d = lead[i]
            if bounds[i] is None or d < bounds[i]:
                bounds[i] = d
        elif not nz:  # the ideal is (1)
            return [0] * n
    return bounds


def standard_monomials(gb: GroebnerBasis):
    """Monomials not divisible by any leading term; a vector-space basis of
    the quotient.  Raises if the quotient is infinite-dimensional."""
    bounds = _pure_power_bounds(gb)
    if any(b is None for b in bounds):
        raise ValueError("quotient is not finite-dimensional")
    n = gb.ring.ngens
    leads = gb.lead_monomials
    zero = (0,) * n
    seen = {zero}
    frontier = [zero]
    out = []
    while frontier:
        m = frontier.pop()
        if any(monomial_divides(L, m) for L in leads):
            continue
        out.append(m)
        for i in range(n):
            m2 = m[:i] + (m[i] + 1,) + m[i + 1 :]
            if m2 not in seen:
                seen.add(m2)
                frontier.append(m2)
    out.sort(key=gb.ring.order.key)
    return out


def quotient_dimension(gb: GroebnerBasis):
    """Vector-space dimension of the quotient ring, or INFINITE."""
    bounds = _pure_power_bounds(gb)
    if any(b is None for b in bounds):
        return INFINITE
    return len(standard_monomials(gb))


def _coordinates(p: Polynomial, index) -> list:
    """The coefficient vector of a normal form on the standard monomials."""
    vec = [Fraction(0)] * len(index)
    for e, c in p.terms:
        vec[index[e]] = c
    return vec


def multiplication_matrices(gb: GroebnerBasis):
    """For each ring variable v, the matrix of multiplication by v on the
    finite-dimensional quotient, as a list of rows: entry (i, j) is the
    coefficient of the i-th standard monomial in NF(v * j-th one)."""
    std = standard_monomials(gb)
    index = {m: i for i, m in enumerate(std)}
    ring = gb.ring
    mats = []
    for v in ring.gens:
        cols = [_coordinates(normal_form(ring.monomial(m) * v, gb), index) for m in std]
        mats.append([list(row) for row in zip(*cols)])
    return mats


def minimal_polynomial(gb: GroebnerBasis, f: Polynomial, start: Polynomial = None):
    """Coefficients c_0..c_d (monic, c_d = 1) of the least polynomial p with
    p(f) * start = 0 in the finite-dimensional quotient ring.  With the
    default start 1 this is the minimal polynomial of multiplication by f."""
    std = standard_monomials(gb)
    index = {m: i for i, m in enumerate(std)}
    sieve = LinearSieve()
    cur = normal_form(gb.ring.one if start is None else start, gb)
    while True:
        combo = sieve.add(_coordinates(cur, index))
        if combo is not None:
            return combo
        cur = normal_form(cur * f, gb)
