"""Exact multivariate polynomial arithmetic over the rationals, and the
one owner of how a coefficient list crosses between Q, Z and F_p.

Everything downstream (Groebner bases, ring presentations, cohomology
bookkeeping) is built on the immutable :class:`Polynomial` defined here.
Every Polynomial the public API takes or returns has `fractions.Fraction`
coefficients, so arithmetic is exact; no floating point is ever involved.
Monomials are bare exponent tuples.  Lists of ints and Fractions cross
to Z by `cleared` and `primitive`, and to F_p by `reduce_mod`, in products
here and in `igq.groebner`, `igq.linalg` and `igq.univariate`.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm
from operator import add, le, mul, neg

from . import Value, set_field

Exponents = tuple  # exponent vector, one entry per ring variable


# ---------------------------------------------------------------------------
# coefficient lists between Q, Z and F_p


def cleared(coeffs) -> tuple:
    """(den, ints) for a sequence of ints and Fractions: den the lcm of
    their denominators, and den * c, an int, for each c."""
    den = lcm(*(c.denominator for c in coeffs))
    return den, [c.numerator * (den // c.denominator) for c in coeffs]


def primitive(ints) -> list:
    """The ints divided by their content, signs kept; zeros stay zeros."""
    g = gcd(*ints) or 1
    return [x // g for x in ints]


def reduce_mod(vec, p: int) -> list:
    """The entries of a vector of ints and Fractions mod the prime p.
    Raises ValueError when p divides a denominator."""
    return [
        x.numerator % p if x.denominator == 1 else x.numerator * pow(x.denominator, -1, p) % p
        for x in vec
    ]


# ---------------------------------------------------------------------------
# monomial helpers


def monomial_mul(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(add, a, b))


def monomial_div(a: Exponents, b: Exponents):
    """Return a/b as an exponent tuple, or None if b does not divide a."""
    out = []
    for x, y in zip(a, b):
        if x < y:
            return None
        out.append(x - y)
    return tuple(out)


def monomial_divides(b: Exponents, a: Exponents) -> bool:
    """True if the monomial with exponents b divides the one with exponents a."""
    return all(map(le, b, a))


def monomial_lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(max, a, b))


# ---------------------------------------------------------------------------
# term orders


class TermOrder(Value):
    """A monomial order, realized as a `key` function on exponent tuples:
    larger key means larger monomial.  Each subclass defines `key`."""

    __slots__ = ()


class _Grevlex(TermOrder):
    __slots__ = ()
    name = "grevlex"

    def key(self, exps):
        return (sum(exps), tuple(map(neg, reversed(exps))))


class WeightedOrder(TermOrder):
    """Weighted degree first, one positive int weight per variable; ties go
    to the monomial with the smaller exponent of the first variable where
    the two differ, that is, towards the later variables.

    Both parts of the key are additive in the exponents, so the order is
    multiplicative, and positive weights make 1 its least monomial: it is
    a monomial order.  The weights are its one field, so orders with
    different weights compare unequal and rings over them do too.
    """

    __slots__ = ("weights",)

    def __init__(self, weights):
        weights = tuple(weights)
        if not all(type(w) is int and w > 0 for w in weights):
            raise ValueError("need positive int weights, got %r" % (weights,))
        set_field(self, "weights", weights)

    @property
    def name(self) -> str:
        return "weighted(%s)" % ",".join(map(str, self.weights))

    def key(self, exps):
        return (sum(map(mul, self.weights, exps)), tuple(map(neg, exps)))


GREVLEX = _Grevlex()


# ---------------------------------------------------------------------------
# rings and polynomials


class RingMismatch(ValueError):
    pass


def _fraction(c) -> Fraction:
    if isinstance(c, float):  # not exact
        raise TypeError("float coefficient %r: coefficients must be exact" % (c,))
    return Fraction(c)


class Ring(Value):
    """A polynomial ring over Q: a variable list plus an active term order."""

    __slots__ = ("names", "order")

    def __init__(self, names, order: TermOrder = GREVLEX):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names: %r" % (names,))
        if isinstance(order, WeightedOrder) and len(order.weights) != len(names):
            raise ValueError("%s on %d variables" % (order.name, len(names)))
        set_field(self, "names", names)
        set_field(self, "order", order)

    @property
    def ngens(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)

    def var(self, which) -> "Polynomial":
        i = which if isinstance(which, int) else self.index(which)
        exps = tuple(1 if j == i else 0 for j in range(self.ngens))
        return Polynomial(self, ((exps, Fraction(1)),))

    @property
    def gens(self):
        return tuple(self.var(i) for i in range(self.ngens))

    @property
    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    @property
    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, c) -> "Polynomial":
        c = _fraction(c)
        if c == 0:
            return self.zero
        return Polynomial(self, (((0,) * self.ngens, c),))

    def monomial(self, exps, coeff=1) -> "Polynomial":
        return self.poly({tuple(exps): coeff})

    def poly(self, data) -> "Polynomial":
        """Build a polynomial from a dict or iterable of (exponents, coeff),
        checked and made Fractions (no floats) in front of `collect`."""
        items = data.items() if isinstance(data, (dict, Mapping)) else data
        ngens = len(self.names)
        acc = {}
        for exps, c in items:
            if type(exps) is not tuple:
                exps = tuple(exps)
            if len(exps) != ngens:
                raise ValueError("exponent tuple of wrong length: %r" % (exps,))
            if type(c) is not Fraction:
                c = _fraction(c)
            if c:
                prev = acc.get(exps)
                acc[exps] = c if prev is None else prev + c
        return self.collect(acc)

    def collect(self, acc) -> "Polynomial":
        """The polynomial of an unchecked {exponents: coeff} dict: its
        nonzero terms, sorted descending in the term order."""
        nonzero = [e for e, c in acc.items() if c]
        nonzero.sort(key=self.order.key, reverse=True)
        return Polynomial(self, tuple((e, acc[e]) for e in nonzero))

    def __repr__(self):
        return "Ring(%s; %s)" % (",".join(self.names), self.order.name)


def _coerce(ring: Ring, value):
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return ring.const(value)
    return NotImplemented


class Polynomial(Value):
    """Immutable multivariate polynomial with exact rational coefficients.

    Terms are stored sorted strictly descending in the ring's term order,
    with no zero coefficients and no duplicate monomials.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms):
        set_field(self, "ring", ring)
        set_field(self, "terms", tuple(terms))

    # -- basic queries ------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def lead_monomial(self) -> Exponents:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0][0]

    @property
    def lead_coeff(self) -> Fraction:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0][1]

    # -- arithmetic ---------------------------------------------------

    def _require_same_ring(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise RingMismatch(
                "polynomials live in different rings: %r vs %r"
                % (self.ring, other.ring)
            )

    def _sum(self, other, negate: bool):
        other = _coerce(self.ring, other)
        if other is NotImplemented:
            return NotImplemented
        self._require_same_ring(other)
        acc = dict(self.terms)
        for e, c in other.terms:
            if negate:
                c = -c
            prev = acc.get(e)
            acc[e] = c if prev is None else prev + c
        return self.ring.collect(acc)

    def __add__(self, other):
        return self._sum(other, False)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other):
        return self._sum(other, True)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 1:  # immutable, so the product is self itself
                return self
            c = Fraction(other)
            if not c:
                return self.ring.zero
            return Polynomial(self.ring, tuple((e, k * c) for e, k in self.terms))
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_ring(other)
        # a constant factor, such as ring.one, takes the scalar path
        if len(other.terms) == 1 and not any(other.terms[0][0]):
            return self * other.terms[0][1]
        if len(self.terms) == 1 and not any(self.terms[0][0]):
            return other * self.terms[0][1]
        # the products run on ints: each factor is cleared of its
        # denominators, and the product of the two is divided out per term
        den1, ints1 = cleared([c for _, c in self.terms])
        den2, ints2 = cleared([c for _, c in other.terms])
        terms2 = list(zip([e for e, _ in other.terms], ints2))
        acc = {}
        for (e1, _), c1 in zip(self.terms, ints1):
            for e2, c2 in terms2:
                e = monomial_mul(e1, e2)
                prev = acc.get(e)
                acc[e] = c1 * c2 if prev is None else prev + c1 * c2
        den = den1 * den2
        key = self.ring.order.key
        return Polynomial(
            self.ring, tuple((e, Fraction(acc[e], den)) for e in sorted(acc, key=key, reverse=True) if acc[e])
        )

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        # a constant equals its coefficient (see __eq__), so hashes as it
        if not self.terms:
            return hash(0)
        if len(self.terms) == 1 and not any(self.terms[0][0]):
            return hash(self.terms[0][1])
        return hash((self.ring, self.terms))

    # -- structure ----------------------------------------------------

    def linear_coefficients(self) -> dict:
        """Map variable name -> coefficient of its degree-one term."""
        out = {}
        for e, c in self.terms:
            if sum(e) == 1:
                out[self.ring.names[e.index(1)]] = c
        return out

    def weighted_degrees(self, weights):
        """Set of weighted degrees among the terms, one weight per variable."""
        if len(weights) != self.ring.ngens:
            raise ValueError("need %d weights, got %r" % (self.ring.ngens, weights))
        return {sum(map(mul, weights, e)) for e, _ in self.terms}

    # -- display ------------------------------------------------------

    def __repr__(self):
        return self.pretty()

    def pretty(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for e, c in self.terms:
            factors = [
                n if k == 1 else "%s^%d" % (n, k)
                for n, k in zip(self.ring.names, e)
                if k
            ]
            if not factors:
                body = str(abs(c))
            else:
                mag = abs(c)
                body = "*".join(([str(mag)] if mag != 1 else []) + factors)
            chunks.append(("- " if c < 0 else "+ ") + body)
        first = chunks[0]
        first = ("-" + first[2:]) if first.startswith("- ") else first[2:]
        return " ".join([first] + chunks[1:])


def lift(p: Polynomial, ring: Ring) -> Polynomial:
    """p in `ring`, whose variables are p's followed by others: each
    exponent padded with zeros, or p itself in its own ring.  Trailing
    zeros change neither part of a grevlex key nor of a weighted one, so
    the terms stay sorted when both rings are in grevlex, or both weighted
    with p's weights first; any other pair of rings raises ValueError."""
    if p.ring == ring:
        return p
    k = p.ring.ngens
    old, new = p.ring.order, ring.order
    if ring.names[:k] != p.ring.names or not (
        old == new == GREVLEX or getattr(new, "weights", ())[:k] == getattr(old, "weights", None)
    ):
        raise ValueError("cannot lift from %r into %r" % (p.ring, ring))
    pad = (0,) * (ring.ngens - k)
    return Polynomial(ring, tuple((e + pad, c) for e, c in p.terms))


# ---------------------------------------------------------------------------
# canonical text form (the interchange format for --dump and golden files)
#
# One polynomial per line; every term as  num/den*x1^e1*...*xn^en  with all
# variables present; terms joined by " + " in the ring's term order.


def dump_polynomial(p: Polynomial) -> str:
    if p.is_zero:
        return "0"
    pieces = []
    for e, c in p.terms:
        factors = "*".join(
            "%s^%d" % (name, k) for name, k in zip(p.ring.names, e)
        )
        head = "%d/%d" % (c.numerator, c.denominator)
        pieces.append(head + ("*" + factors if factors else ""))
    return " + ".join(pieces)


def dump_generators(polys, header: str = "") -> str:
    lines = []
    if header:
        lines.append("# " + header)
    lines.extend(dump_polynomial(p) for p in polys)
    return "\n".join(lines) + "\n"
