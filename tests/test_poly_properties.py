"""Property tests of polynomial arithmetic and the canonical text form:
random polynomials in grevlex and weighted-order rings obey the ring
axioms, and come back equal through `dump_polynomial` and the test-side
reader, and through pickle."""

import pickle

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from igq.poly import GREVLEX, Ring, WeightedOrder, dump_generators, dump_polynomial, lift

from dump_oracle import load_generators, load_polynomial

NAMES = ("a1", "a2", "b1", "q")
RINGS = (
    Ring(NAMES, GREVLEX),
    Ring(NAMES[:2], GREVLEX),
    Ring(NAMES, WeightedOrder((1, 2, 1, 3))),
    Ring(NAMES[:3], WeightedOrder((2, 1, 5))),
)

rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6)


@st.composite
def polynomials(draw):
    ring = draw(st.sampled_from(RINGS))
    exponents = st.tuples(*[st.integers(0, 6)] * ring.ngens)
    return ring.poly(draw(st.dictionaries(exponents, rationals, max_size=8)))


@settings(max_examples=150, deadline=None)
@given(f=polynomials())
def test_dump_and_load_round_trip(f):
    text = dump_polynomial(f)
    assert "\n" not in text
    back = load_polynomial(f.ring, text)
    assert back == f and back.terms == f.terms
    assert dump_polynomial(back) == text


@settings(max_examples=150, deadline=None)
@given(f=polynomials())
def test_pickle_round_trip(f):
    back = pickle.loads(pickle.dumps(f))
    assert back == f and back.terms == f.terms and back.ring == f.ring
    assert hash(back) == hash(f)
    assert dump_polynomial(back) == dump_polynomial(f)


@settings(max_examples=50, deadline=None)
@given(ring=st.sampled_from(RINGS), data=st.data())
def test_generator_files_round_trip(ring, data):
    exponents = st.tuples(*[st.integers(0, 4)] * ring.ngens)
    polys = data.draw(st.lists(st.dictionaries(exponents, rationals, max_size=5).map(ring.poly), max_size=5))
    text = dump_generators(polys, "header line")
    assert load_generators(ring, text) == polys


# Ring axioms in three variables, under grevlex and a weighted order; small
# degrees and coefficients keep each product to a few dozen terms.
AXIOM_RINGS = (Ring(NAMES[:3], GREVLEX), Ring(NAMES[:3], WeightedOrder((1, 2, 3))))
small_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=5)


@st.composite
def polynomial_triples(draw):
    ring = draw(st.sampled_from(AXIOM_RINGS))
    terms = st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3), small_rationals, max_size=5)
    return tuple(ring.poly(draw(terms)) for _ in range(3))


@settings(max_examples=40, deadline=None)
@given(fgh=polynomial_triples())
def test_addition_and_multiplication_are_associative_and_commutative(fgh):
    f, g, h = fgh
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f


@settings(max_examples=40, deadline=None)
@given(fgh=polynomial_triples())
def test_multiplication_distributes_over_addition(fgh):
    f, g, h = fgh
    assert f * (g + h) == f * g + f * h
    assert (f + g) * h == f * h + g * h


@settings(max_examples=40, deadline=None)
@given(fgh=polynomial_triples())
def test_identities_inverses_and_subtraction(fgh):
    f, g, _ = fgh
    ring = f.ring
    assert f + ring.zero == f and ring.zero + f == f
    assert f * ring.one == f and ring.one * f == f
    assert f * ring.zero == ring.zero
    assert f + (-f) == ring.zero and f + (-f) == 0
    assert f - g == f + (-g)


@settings(max_examples=40, deadline=None)
@given(fgh=polynomial_triples(), c=small_rationals)
def test_a_constant_factor_scales_every_term(fgh, c):
    # a constant polynomial, ring.one among them, takes the scalar path
    f = fgh[0]
    ring = f.ring
    scaled = ring.poly({e: k * c for e, k in f.terms})
    for product in (f * ring.const(c), ring.const(c) * f, f * c, c * f):
        assert product.terms == scaled.terms and product.ring == ring
    assert (f * ring.one).terms == (ring.one * f).terms == f.terms


@settings(max_examples=40, deadline=None)
@given(fgh=polynomial_triples())
def test_lifting_pads_the_exponents_and_keeps_the_order(fgh):
    # a trailing variable, with any weight in a weighted order, leaves the
    # terms in order: the lift equals the re-sorted polynomial term for term
    f = fgh[0]
    order = f.ring.order
    wider = Ring(f.ring.names + ("t",), GREVLEX if order == GREVLEX else WeightedOrder(order.weights + (7,)))
    lifted = lift(f, wider)
    assert lifted.ring == wider
    assert lifted.terms == wider.poly((e + (0,), k) for e, k in f.terms).terms
    assert lift(f, f.ring) is f
    other = Ring(wider.names, WeightedOrder((1,) * 4)) if order == GREVLEX else Ring(wider.names)
    with pytest.raises(ValueError):
        lift(f, other)
