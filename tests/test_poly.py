"""Polynomial kernel: arithmetic, term orders, serialization, and the
test-side reader and grlex order checked against it."""

import random
from fractions import Fraction
from types import MappingProxyType

import pytest

from igq.poly import (
    GREVLEX,
    Ring,
    RingMismatch,
    WeightedOrder,
    dump_generators,
    dump_polynomial,
    monomial_mul,
)
from dump_oracle import load_generators, load_polynomial
from poly_oracle import GRLEX, evaluate, is_weighted_homogeneous
from substitute_oracle import substitute


def random_poly(ring, rng, terms=5, maxdeg=3):
    data = {}
    for _ in range(terms):
        exps = tuple(rng.randrange(maxdeg + 1) for _ in range(ring.ngens))
        data[exps] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
    return ring.poly(data)


def test_term_sort_is_strictly_descending():
    R = Ring(("x", "y", "z"))
    x, y, z = R.gens
    f = x * z + y**2 + z**3 + 1
    keys = [R.order.key(e) for e, _ in f.terms]
    assert keys == sorted(keys, reverse=True)
    assert all(c != 0 for _, c in f.terms)


def test_grevlex_vs_grlex_classic_tiebreak():
    # same degree: grevlex puts y^2 above x*z, grlex the other way around
    R1 = Ring(("x", "y", "z"), GREVLEX)
    R2 = Ring(("x", "y", "z"), GRLEX)
    xz = (1, 0, 1)
    y2 = (0, 2, 0)
    assert R1.order.key(y2) > R1.order.key(xz)
    assert R2.order.key(xz) > R2.order.key(y2)
    # degree always dominates
    assert R1.order.key((0, 0, 3)) > R1.order.key((1, 1, 0))


def test_weighted_order_is_a_monomial_order():
    order = WeightedOrder((1, 2, 3))
    key = order.key
    rng = random.Random(12)
    one = (0, 0, 0)
    for _ in range(300):
        a, b, c = (tuple(rng.randrange(5) for _ in range(3)) for _ in range(3))
        if a != b:
            assert key(a) != key(b)
        if key(a) < key(b):
            assert key(monomial_mul(a, c)) < key(monomial_mul(b, c))
        if a != one:
            assert key(one) < key(a)
    # equal weighted degree: the smaller exponent of the earlier variable wins
    assert key((0, 0, 1)) > key((1, 1, 0)) > key((3, 0, 0))
    assert key((0, 2, 0)) > key((2, 1, 0))


def test_weighted_orders_compare_and_hash_by_weights():
    names = ("x", "y", "z")
    a, b = WeightedOrder((1, 2, 3)), WeightedOrder((1, 2, 4))
    assert a != b and hash(a) != hash(b)
    assert Ring(names, a) != Ring(names, b)
    assert a != GREVLEX and Ring(names, a) != Ring(names)
    same = WeightedOrder([1, 2, 3])
    assert same == a and hash(same) == hash(a)
    assert a.name == "weighted(1,2,3)" and GREVLEX.name == "grevlex"
    assert Ring(names, same) == Ring(names, a)
    for bad in ((1, 0, 3), (1, -2, 3), (1, 2.0, 3)):
        with pytest.raises(ValueError):
            WeightedOrder(bad)


def test_ring_refuses_a_weighted_order_of_another_length():
    # zipping fewer weights than variables would drop the last ones from
    # the key, and 1 would no longer be the least monomial
    for weights in ((1,), (1, 2, 3)):
        with pytest.raises(ValueError):
            Ring(("a1", "a2"), WeightedOrder(weights))
    assert Ring(("a1", "a2"), WeightedOrder((1, 2))).order.weights == (1, 2)
    f = Ring(("a", "b")).var("a")
    with pytest.raises(ValueError):
        f.weighted_degrees((1,))


def test_float_coefficients_are_refused():
    # a float is not exact: 0.1 would become 3602879701896397/2^55
    R = Ring(("x", "y"))
    for build in (
        lambda: R.const(0.1),
        lambda: R.monomial((1, 0), 0.5),
        lambda: R.poly({(1, 0): 0.5}),
        lambda: R.poly([((0, 1), 1), ((1, 0), 2.0)]),
        lambda: R.var("x") * 0.5,
    ):
        with pytest.raises(TypeError):
            build()
    assert R.const(Fraction(1, 10)) == Fraction(1, 10)
    assert R.monomial((1, 0), 3) == 3 * R.var("x")


def test_poly_coerces_inputs_and_checks_lengths():
    R = Ring(("x", "y"))
    f = R.poly([([1, 0], 2), ((1, 0), Fraction(1, 2)), ((0, 1), 0)])
    assert f.terms == (((1, 0), Fraction(5, 2)),)
    assert all(type(c) is Fraction for _, c in f.terms)
    assert R.poly(MappingProxyType({(0, 2): 3})) == 3 * R.var("y") ** 2
    assert R.poly({(1, 0): 1, (0, 1): -1}) == R.var("x") - R.var("y")
    with pytest.raises(ValueError):
        R.poly({(1, 0, 0): 1})
    with pytest.raises(ValueError):
        R.poly([([1], Fraction(1))])


def test_ring_arithmetic_identities():
    rng = random.Random(0)
    R = Ring(("x", "y", "z"))
    for _ in range(25):
        f, g, h = (random_poly(R, rng) for _ in range(3))
        assert (f + g) * h == f * h + g * h
        assert f * g == g * f
        assert f - f == R.zero
        assert f * R.one == f
        assert (f * g) * h == f * (g * h)


def test_pow_matches_repeated_multiplication():
    R = Ring(("x", "y"))
    x, y = R.gens
    f = x - 2 * y + 1
    acc = R.one
    for k in range(6):
        assert f**k == acc
        acc = acc * f


def test_ring_mismatch_raises():
    a = Ring(("x",)).gens[0]
    b = Ring(("y",)).gens[0]
    with pytest.raises(RingMismatch):
        a + b


def test_substitute_and_evaluate_agree():
    rng = random.Random(1)
    R = Ring(("x", "y"))
    S = Ring(("u",))
    (u,) = S.gens
    for _ in range(10):
        f = random_poly(R, rng, terms=4)
        g = substitute(f, S, {"x": u + 1, "y": 2 * u})
        t = Fraction(rng.randrange(-3, 4))
        assert evaluate(g, {"u": t}) == evaluate(f, {"x": t + 1, "y": 2 * t})


def test_weighted_degrees_and_linear_part():
    R = Ring(("a", "b"))
    a, b = R.gens
    f = a**2 * b - 3 * b**2
    assert is_weighted_homogeneous(f, (1, 2))
    assert not is_weighted_homogeneous(f, (1, 1))
    g = 2 * a - 5 * b + a * b
    assert g.linear_coefficients() == {"a": Fraction(2), "b": Fraction(-5)}


def test_dump_load_round_trip():
    rng = random.Random(3)
    R = Ring(("x", "y", "z"))
    for _ in range(20):
        f = random_poly(R, rng)
        assert load_polynomial(R, dump_polynomial(f)) == f
    assert load_polynomial(R, dump_polynomial(R.zero)) == R.zero


def test_dump_format_is_canonical():
    R = Ring(("x", "y"))
    x, y = R.gens
    f = Fraction(3, 2) * x**2 * y - y + 7
    assert dump_polynomial(f) == "3/2*x^2*y^1 + -1/1*x^0*y^1 + 7/1*x^0*y^0"


def test_generator_file_round_trip_with_header():
    R = Ring(("x", "y"))
    x, y = R.gens
    gens = [x**2 - y, y**3 + 1]
    text = dump_generators(gens, "sample header")
    assert text.splitlines()[0] == "# sample header"
    assert load_generators(R, text) == gens


def test_hash_agrees_with_equality():
    R = Ring(("x", "y"))
    assert R.one == 1 and hash(R.one) == hash(1)
    assert len({R.one, 1}) == 1
    assert R.const(3) == 3 and hash(R.const(3)) == hash(3)
    assert R.const(Fraction(1, 2)) == Fraction(1, 2)
    assert hash(R.const(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert hash(R.zero) == hash(0)
    rng = random.Random(5)
    for _ in range(25):
        f = random_poly(R, rng)
        g = (2 * f + 1 - f) - 1
        assert f == g and hash(f) == hash(g)
