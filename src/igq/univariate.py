"""Univariate gcd, squarefree parts, and distinct-root counting.

Root multiplicity/distinctness questions are answered by gcd-degree
arithmetic over exact rationals (primitive pseudo-remainder sequences
over Z), never by numeric root finding.  The distinct-root count of f is
deg(f / gcd(f, f')), valid over any algebraically closed field of
characteristic zero, and over the algebraic closure of F_p for f mod p
of degree below p (Euclid's algorithm over F_p).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd

from .linalg import reduce_mod
from .poly import Polynomial, Ring


def _active_variable(p: Polynomial) -> int:
    active = {i for e, _ in p.terms for i, k in enumerate(e) if k}
    if len(active) > 1:
        raise ValueError("polynomial is not univariate")
    return active.pop() if active else 0


def _to_coeffs(p: Polynomial):
    """Dense coefficient list [c_0 .. c_d] in the active variable."""
    var = _active_variable(p)
    if p.is_zero:
        return [], var
    deg = max(e[var] for e, _ in p.terms)
    out = [Fraction(0)] * (deg + 1)
    for e, c in p.terms:
        out[e[var]] = c
    return out, var


def _from_coeffs(ring: Ring, coeffs, var: int) -> Polynomial:
    n = ring.ngens
    return ring.poly(
        {
            tuple(k if i == var else 0 for i in range(n)): c
            for k, c in enumerate(coeffs)
            if c
        }
    )


def _strip(c):
    while c and not c[-1]:
        c.pop()
    return c


def _content(c):
    g = 0
    for x in c:
        g = int_gcd(g, abs(x))
        if g == 1:
            return 1
    return g or 1


def primitive_int(coeffs) -> list:
    """Clear denominators and content: the primitive integer list with the
    same ratios as the given ints and Fractions."""
    den = 1
    for c in coeffs:
        den = den * c.denominator // int_gcd(den, c.denominator)
    ints = [int(c * den) for c in coeffs]
    g = _content(ints)
    return [x // g for x in ints]


def _pseudo_rem(a, b):
    """Pseudo-remainder of primitive integer polynomials, re-primitivized."""
    a = list(a)
    _strip(a)
    db, lb = len(b) - 1, b[-1]
    while a and len(a) - 1 >= db:
        la = a[-1]
        shift = len(a) - 1 - db
        a = [x * lb for x in a]
        for i, y in enumerate(b):
            a[i + shift] -= la * y
        _strip(a)
    g = _content(a)
    return [x // g for x in a] if a else a


def _int_gcd_poly(a, b):
    a, b = list(a), list(b)
    _strip(a), _strip(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _pseudo_rem(a, b)
    return a


def univ_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic gcd of two univariate polynomials over Q."""
    if f.is_zero and g.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    if f.is_zero:
        return g.monic()
    if g.is_zero:
        return f.monic()
    if f.ring != g.ring:
        raise ValueError("gcd operands in different rings")
    cf, vf = _to_coeffs(f)
    cg, vg = _to_coeffs(g)
    if vf != vg and f.total_degree > 0 and g.total_degree > 0:
        raise ValueError("gcd operands in different variables")
    var = vf if f.total_degree > 0 else vg
    h = _int_gcd_poly(primitive_int(cf), primitive_int(cg))
    return _from_coeffs(f.ring, [Fraction(x) for x in h], var).monic()


def squarefree_part(f: Polynomial) -> Polynomial:
    """The monic product of the distinct irreducible factors: f / gcd(f, f')."""
    if f.is_zero:
        raise ValueError("squarefree part of the zero polynomial")
    var = _active_variable(f)
    if f.total_degree == 0:
        return f.ring.one
    fp = f.derivative(var)
    g = univ_gcd(f, fp)
    cf, _ = _to_coeffs(f)
    cg, _ = _to_coeffs(g)
    q = _exact_div_coeffs(cf, cg)
    return _from_coeffs(f.ring, q, var).monic()


def _exact_div_coeffs(a, b):
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    out = [Fraction(0)] * (len(a) - db)
    while _strip(a) and len(a) - 1 >= db:
        da = len(a) - 1
        c = a[-1] / lb
        out[da - db] = c
        for i, y in enumerate(b):
            a[i + da - db] -= c * y
    if a:
        raise ValueError("not an exact division")
    return out


def univ_divide(f: Polynomial, g: Polynomial) -> Polynomial:
    """Exact univariate division f/g; raises if the remainder is nonzero."""
    cf, var = _to_coeffs(f)
    cg, _ = _to_coeffs(g)
    return _from_coeffs(f.ring, _exact_div_coeffs(cf, cg), var)


def _rem_mod(a, b, p):
    """Remainder of a by b over F_p, as stripped coefficient lists."""
    a = list(a)
    inv, db = pow(b[-1], -1, p), len(b) - 1
    while _strip(a) and len(a) - 1 >= db:
        c, shift = a[-1] * inv % p, len(a) - 1 - db
        for i, y in enumerate(b):
            a[i + shift] = (a[i + shift] - c * y) % p
    return a


def distinct_root_count(f: Polynomial, modulus: int = None) -> int:
    """Number of distinct roots over an algebraically closed field.

    With a prime `modulus` p it counts the roots of f mod p in the
    algebraic closure of F_p, as deg f - deg gcd(f, f') over F_p.  That
    holds because a root of f of multiplicity m is one of f' of
    multiplicity m - 1 unless p divides m, which needs m >= p; so f mod p
    must have degree below p, and its coefficients must be p-integral
    (ValueError otherwise).
    """
    if f.is_zero:
        raise ValueError("the zero polynomial has no root count")
    if modulus is None:
        return squarefree_part(f).total_degree
    p = modulus
    c = _strip(reduce_mod(_to_coeffs(f)[0], p))
    if not c:
        raise ValueError("f vanishes mod %d" % p)
    if len(c) > p:
        raise ValueError("degree %d is not below the modulus %d" % (len(c) - 1, p))
    a, b = c, _strip([k * x % p for k, x in enumerate(c)][1:])
    while b:
        a, b = b, _rem_mod(a, b, p)
    return len(c) - len(a)
