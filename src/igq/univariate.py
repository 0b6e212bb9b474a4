"""Univariate gcds and distinct-root counts on dense coefficient lists.

A polynomial is the list [c_0, ..., c_d] of its ints and Fractions, the
form `linalg.minimal_polynomial` returns; trailing zeros are ignored, so
[] is zero.  Root multiplicity questions are answered by gcd-degree
arithmetic, never by numeric root finding: f has deg f - deg gcd(f, f')
distinct roots over an algebraically closed field of characteristic
zero, with the gcd from a primitive pseudo-remainder sequence over Z, and
over the algebraic closure of F_p when f mod p has degree below p, with
the gcd from Euclid's algorithm over F_p.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .linalg import reduce_mod


def _strip(c):
    while c and not c[-1]:
        c.pop()
    return c


def _content(c):
    return gcd(*c) or 1


def _primitive_int(coeffs) -> list:
    """Clear denominators and content: the primitive integer list with the
    same ratios as the given ints and Fractions."""
    den = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    g = _content(ints)
    return [x // g for x in ints]


def _pseudo_rem(a, b):
    """Pseudo-remainder of primitive integer polynomials, re-primitivized."""
    db, lb = len(b) - 1, b[-1]
    while a and len(a) - 1 >= db:
        la = a[-1]
        shift = len(a) - 1 - db
        a = [x * lb for x in a]
        for i, y in enumerate(b):
            a[i + shift] -= la * y
        _strip(a)
    g = _content(a)
    return [x // g for x in a]


def _rem_mod(a, b, p):
    """Remainder of a by b over F_p, as stripped coefficient lists."""
    a = list(a)
    inv, db = pow(b[-1], -1, p), len(b) - 1
    while a and len(a) - 1 >= db:
        c, shift = a[-1] * inv % p, len(a) - 1 - db
        for i, y in enumerate(b):
            a[i + shift] = (a[i + shift] - c * y) % p
        _strip(a)
    return a


def univ_gcd(f, g, modulus=None) -> list:
    """Monic gcd of two coefficient lists over Q or, given a prime
    `modulus` p, over F_p (entries in 0..p-1; ValueError when p divides a
    denominator)."""
    if modulus is None:
        a, b = _strip(_primitive_int(f)), _strip(_primitive_int(g))
    else:
        a, b = _strip(reduce_mod(f, modulus)), _strip(reduce_mod(g, modulus))
    if not a and not b:
        raise ValueError("gcd(0, 0) is undefined")
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _pseudo_rem(a, b) if modulus is None else _rem_mod(a, b, modulus)
    if modulus is not None:
        inv = pow(a[-1], -1, modulus)
        return [x * inv % modulus for x in a]
    return a if a[-1] == 1 else [Fraction(x, a[-1]) for x in a]


def distinct_root_count(f, modulus=None) -> int:
    """Number of distinct roots of f over an algebraically closed field,
    deg f - deg gcd(f, f').

    With a prime `modulus` p it counts the roots of f mod p in the
    algebraic closure of F_p.  That holds because a root of f of
    multiplicity m is one of f' of multiplicity m - 1 unless p divides m,
    which needs m >= p; so f mod p must have degree below p, and its
    coefficients must be p-integral (ValueError otherwise).
    """
    c = _strip(list(f) if modulus is None else reduce_mod(f, modulus))
    if not c:
        raise ValueError("f vanishes" + ("" if modulus is None else " mod %d" % modulus))
    if modulus is not None and len(c) > modulus:
        raise ValueError("degree %d is not below the modulus %d" % (len(c) - 1, modulus))
    return len(c) - len(univ_gcd(c, [k * x for k, x in enumerate(c)][1:], modulus))
