"""Groebner engine: reduced bases, normal forms, quotient dimensions,
multiplication matrices, minimal polynomials, and their defining
invariants."""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from igq.groebner import (
    Ideal,
    buchberger,
    multiplication_by,
    normal_form,
    spoly,
    standard_monomials,
)
from igq.linalg import minimal_polynomial
from igq.poly import GREVLEX, Ring, RingMismatch, WeightedOrder, dump_generators, monomial_divides
from igq.presentations import (
    CLASSICAL_I,
    CLASSICAL_II,
    QUANTUM_I,
    QUANTUM_II,
    SPECIALIZE_1,
    SYMBOLIC,
    VARIANTS,
    PresentationSpec,
    build_presentation,
    full_basis,
    presentation_basis,
    presentation_generators,
)

from groebner_oracle import is_groebner
from presentation_oracle import grevlex_basis, in_grevlex
from linalg_oracle import dense_rows

R2 = Ring(("x", "y"))
X, Y = R2.gens

# sha256 of dump_generators(basis elements) -- the canonical text form
# without a header line -- for every presentation's grevlex basis (the
# order decompose_spectrum reads QUANTUM_II in), recorded with the
# earlier Buchberger (pairs in a set, reducer table rebuilt per S-pair,
# iterated interreduction) at commit c2c874b.  Reduced bases are unique, so
# any change to pair selection or reduction must leave these unchanged.
BASIS_SHA256 = {
    (2, CLASSICAL_I, SPECIALIZE_1): "fa876ca7eea4f6ebdd1360de78dff3c58200242c96020f2a4cf577bc5b533938",
    (2, CLASSICAL_I, SYMBOLIC): "fa876ca7eea4f6ebdd1360de78dff3c58200242c96020f2a4cf577bc5b533938",
    (2, CLASSICAL_II, SPECIALIZE_1): "d815f53142460bf0936f594e56954b1741ebed5ab0173fe0199e0c3e34aadf01",
    (2, CLASSICAL_II, SYMBOLIC): "d815f53142460bf0936f594e56954b1741ebed5ab0173fe0199e0c3e34aadf01",
    (2, QUANTUM_I, SPECIALIZE_1): "5194ab06c45dd13bca3241f82b4d050fe9498f822e3029f1aff6963e55aa75cf",
    (2, QUANTUM_I, SYMBOLIC): "9bbd1e4d7f2c0e54e1fc9d548d84f07317fc442d953afcc4b7d9660066b592c6",
    (2, QUANTUM_II, SPECIALIZE_1): "efa883efe68fd4b6885cbeaf4c598c1efd7f9fdc77f9548d76c03e46efa11ea4",
    (2, QUANTUM_II, SYMBOLIC): "e202afe222a35e0e5b4d48fec97913d35ca4b6e09c2a47939442959ec4b5f7bf",
    (3, CLASSICAL_I, SPECIALIZE_1): "440ecbc302246b74b5e287ac89f1482b50ec1b5c98a6b6b6d3eff97a75b51738",
    (3, CLASSICAL_I, SYMBOLIC): "440ecbc302246b74b5e287ac89f1482b50ec1b5c98a6b6b6d3eff97a75b51738",
    (3, CLASSICAL_II, SPECIALIZE_1): "06207cdb371408d0b83a4a6f180a56ee47a2182ec9998c99c21000123ba6891c",
    (3, CLASSICAL_II, SYMBOLIC): "06207cdb371408d0b83a4a6f180a56ee47a2182ec9998c99c21000123ba6891c",
    (3, QUANTUM_I, SPECIALIZE_1): "361bda9c8651e2a7c4480be871c6628b7d8ae6fc515f91c34eb56dea7b11e914",
    (3, QUANTUM_I, SYMBOLIC): "9a837e41723fb65b0165fa0284c74be642ce9e852976ea0effdb87256d49c539",
    (3, QUANTUM_II, SPECIALIZE_1): "771787cac4ef08ed752d127621db3a7384f118c94e9b5d199fb9502075aa9733",
    (3, QUANTUM_II, SYMBOLIC): "57455ebd9e1db23eb3aaff58324b3e337100ffc58e24282e5cf11f182fca9034",
    (4, CLASSICAL_I, SPECIALIZE_1): "406e5dda3c78ef8e6a4ce116c783c389e5a52bbd6c8e308d2973fc2bdb9bb4da",
    (4, CLASSICAL_I, SYMBOLIC): "406e5dda3c78ef8e6a4ce116c783c389e5a52bbd6c8e308d2973fc2bdb9bb4da",
    (4, CLASSICAL_II, SPECIALIZE_1): "5cbdde5f31015dd13f8b143a534bc206a1e81a25ab3cfc87cd1474b3e208295d",
    (4, CLASSICAL_II, SYMBOLIC): "5cbdde5f31015dd13f8b143a534bc206a1e81a25ab3cfc87cd1474b3e208295d",
    (4, QUANTUM_I, SPECIALIZE_1): "e80cdf76b34a12a2fefc2d6633b6ec114800ca408cf3b6322eda422cf5be1437",
    (4, QUANTUM_I, SYMBOLIC): "2031c156db5513d5102c165df117f83e7ba0c400cb00adac03c4ea879c432cbf",
    (4, QUANTUM_II, SPECIALIZE_1): "56444b7b7c0d04040c251066c06aabd03a1381f632316a77561f22d2b05ed161",
    (4, QUANTUM_II, SYMBOLIC): "235a8b29b40e358415f9fbb8145e00e96f144bcc72b2c7df20ee387b110b4080",
    (5, CLASSICAL_I, SPECIALIZE_1): "ae89146f5f8a9033ddafc4c8fe168347923b9cbb87f756f014129d5303ac47f0",
    (5, CLASSICAL_I, SYMBOLIC): "ae89146f5f8a9033ddafc4c8fe168347923b9cbb87f756f014129d5303ac47f0",
    (5, CLASSICAL_II, SPECIALIZE_1): "14227d3392d89de2439f4cbb7dd4bdbbf8a4c747b1ed3d85cda4b9e8bcf623a7",
    (5, CLASSICAL_II, SYMBOLIC): "14227d3392d89de2439f4cbb7dd4bdbbf8a4c747b1ed3d85cda4b9e8bcf623a7",
    (5, QUANTUM_I, SPECIALIZE_1): "6913c6ee92698df9f69cccd2f2071293525667778eaf3161a5e0b102172f53c8",
    (5, QUANTUM_I, SYMBOLIC): "4ead0b9be2a6f0eca33c1a2586385d29705c1978f17a8eb9e79f2ccafe826dbb",
    (5, QUANTUM_II, SPECIALIZE_1): "fdf02856df23aced32a066cde17f9faaa4dadba56709ccf793afe35dd808d344",
    (5, QUANTUM_II, SYMBOLIC): "e8b18e546298963cd0d7dd627eaaea84f5d2e8258e91ce0a220a949c48aea26d",
    # n = 6, recorded with the heap-and-table Buchberger at commit a7b314b
    (6, CLASSICAL_I, SPECIALIZE_1): "4b6c280d05f046d66cc939561ff27446d1a4a62bf0929c0bc99d08266bb08c7d",
    (6, CLASSICAL_I, SYMBOLIC): "4b6c280d05f046d66cc939561ff27446d1a4a62bf0929c0bc99d08266bb08c7d",
    (6, CLASSICAL_II, SPECIALIZE_1): "8f98e69504d1cfaf4664454b09416e13edfde027b7581ac721ff715059772fb4",
    (6, CLASSICAL_II, SYMBOLIC): "8f98e69504d1cfaf4664454b09416e13edfde027b7581ac721ff715059772fb4",
    (6, QUANTUM_I, SPECIALIZE_1): "1a5d62879d30b8f9afb9bff3c51793507d8b34c5ace39b2c234a88f5081de786",
    (6, QUANTUM_I, SYMBOLIC): "df5cdb129d0dfc913ed4dc8dcf8483102ccdf43cdbefec5fd749e55a0a0d6183",
    (6, QUANTUM_II, SPECIALIZE_1): "ed1b55a66631da558d9cfe7bbcfb5071395e96d2e294057d5b39d1e82f75d4c0",
    (6, QUANTUM_II, SYMBOLIC): "b3aaa3db035f3f6e911b0b3e10392b4fd3ee9183692c81d2eece9ceacee9e265",
    # n = 7, recorded with the fraction-free Buchberger at commit aaa3ccb
    (7, CLASSICAL_I, SPECIALIZE_1): "5eec56633418d87c1a91671326e6ecb24521192dd7fdcc22cc76b93d9fe1eba6",
    (7, CLASSICAL_I, SYMBOLIC): "5eec56633418d87c1a91671326e6ecb24521192dd7fdcc22cc76b93d9fe1eba6",
    (7, CLASSICAL_II, SPECIALIZE_1): "0fb81f8d7616c7c8a9b3a6f554e481276467718b5e4b33039c0a420079d6d785",
    (7, CLASSICAL_II, SYMBOLIC): "0fb81f8d7616c7c8a9b3a6f554e481276467718b5e4b33039c0a420079d6d785",
    (7, QUANTUM_I, SPECIALIZE_1): "704923bd5114105fb1dc81ab4f588e9e5a7fc3c4bda50dec2bab86ffd52a9f1d",
    (7, QUANTUM_I, SYMBOLIC): "27708df9f0605c730afcfb266e3567d11936182f09351a1efe58fdd5d3a83e6f",
    (7, QUANTUM_II, SPECIALIZE_1): "5e64a8567d6275353eb09c2bffced838fdda0631a0b993f3aeb92971719fbd4d",
    (7, QUANTUM_II, SYMBOLIC): "7f02f5f2d06185e35d0114a1553863b86740d5e3513fbd6e6736a5359cc24eb7",
}


def test_basis_direct_reduction():
    gb = buchberger(Ideal(R2, [X**2 - Y, Y]))
    assert [g.pretty() for g in gb] == ["y", "x^2"]


def test_principal_ideal_is_normalized():
    f = 4 * X**2 * Y - 8 * Y
    gb = buchberger(Ideal(R2, [f]))
    assert len(gb) == 1
    assert gb.elements[0] == X**2 * Y - 2 * Y


def test_empty_ideal_gives_empty_basis():
    gb = buchberger(Ideal(R2, [R2.zero]))
    assert len(gb) == 0


def test_normal_form_of_generators_is_zero():
    ideal = Ideal(R2, [X**2 + Y - 1, X * Y - 2])
    gb = buchberger(ideal)
    for g in ideal.generators:
        assert normal_form(g, gb).is_zero


def test_normal_form_one_modulo_x():
    gb = buchberger(Ideal(R2, [X]))
    assert normal_form(R2.one, gb) == R2.one


def test_normal_form_ring_mismatch_raises():
    gb = buchberger(Ideal(R2, [X]))
    other = Ring(("u", "v"))
    with pytest.raises(RingMismatch):
        normal_form(other.var("u"), gb)


def test_normal_form_list_basis_ring_mismatch_raises():
    # a basis over a ring with one more variable than f's
    Z = Ring(("x", "y", "z")).var("z")
    with pytest.raises(RingMismatch):
        normal_form(X * Y + Y, buchberger(Ideal(Z.ring, [Z - 1])))


def test_buchberger_mixed_rings_raise():
    other = Ring(("x", "y", "z"))
    with pytest.raises(RingMismatch):
        buchberger(Ideal(R2, [X, other.var("y")]))


def test_normal_form_idempotent_linear_multiplicative():
    rng = random.Random(7)
    gb = buchberger(Ideal(R2, [X**3 - Y, Y**2 - X]))

    def rand():
        return R2.poly(
            {
                (rng.randrange(4), rng.randrange(4)): Fraction(rng.randrange(-5, 6))
                for _ in range(5)
            }
        )

    for _ in range(20):
        f, g = rand(), rand()
        a, b = Fraction(rng.randrange(-3, 4)), Fraction(rng.randrange(-3, 4))
        nf = normal_form
        assert nf(nf(f, gb), gb) == nf(f, gb)
        assert nf(a * f + b * g, gb) == a * nf(f, gb) + b * nf(g, gb)
        assert nf(f * g, gb) == nf(nf(f, gb) * nf(g, gb), gb)


def brute_standard_monomials(leads, bounds):
    """Independent enumeration: all exponent boxes below the pure-power
    bounds, filtered by divisibility against the leading terms."""
    out = []
    for exps in itertools.product(*(range(b) for b in bounds)):
        if not any(monomial_divides(L, exps) for L in leads):
            out.append(exps)
    return sorted(out)


def test_quotient_dimension_monomial_ideal_against_enumeration():
    gb = buchberger(Ideal(R2, [X**2, Y**3]))
    assert len(standard_monomials(gb)) == 6
    brute = brute_standard_monomials(gb.lead_monomials, (2, 3))
    assert sorted(standard_monomials(gb)) == brute


def pure_power_bounds(leads, nvars):
    """For each variable, the least exponent of a lead that is a pure power of it."""
    return [
        min(L[i] for L in leads if L[i] and not any(L[:i] + L[i + 1 :])) for i in range(nvars)
    ]


def test_standard_monomials_against_enumeration():
    # the lead index must find exactly the monomials the box enumeration
    # finds, sorted ascending in the ring's order
    R3 = Ring(("x", "y", "z"))
    x, y, z = R3.gens
    W2 = Ring(("x", "y"), WeightedOrder((1, 3)))
    u, v = W2.gens
    hand = [
        Ideal(R2, [X**2, Y**3]),
        Ideal(R2, [X**4, X**2 * Y, X * Y**3, Y**5]),
        Ideal(R2, [X**2 - Y, Y**3 - X]),
        Ideal(R3, [x**2, y**2, z**2, x * y * z]),
        Ideal(R3, [x**3 - y * z, y**2 - x * z, z**3 - x]),
        Ideal(W2, [u**5 - v, v**2 - u * v]),
    ]
    bases = [buchberger(ideal) for ideal in hand]
    for n in range(2, 7):
        for variant in VARIANTS:
            spec = PresentationSpec(n, variant)
            bases += [grevlex_basis(spec), full_basis(spec), presentation_basis(spec)]
    for gb in bases:
        leads = gb.lead_monomials
        std = standard_monomials(gb)
        assert std == sorted(std, key=gb.ring.order.key), leads
        assert sorted(std) == brute_standard_monomials(leads, pure_power_bounds(leads, gb.ring.ngens))
    unit = buchberger(Ideal(R3, [x * y - 1, x]))
    assert unit.lead_monomials == ((0, 0, 0),)
    assert standard_monomials(unit) == []


def test_quotient_dimension_infinite():
    # neither variable has a pure power among the leads, then only y does
    for gens in ([X * Y], [X * Y, Y**2]):
        with pytest.raises(ValueError):
            standard_monomials(buchberger(Ideal(R2, gens)))
    # the unit ideal: the lead 1 bounds every variable, the quotient is 0
    assert standard_monomials(buchberger(Ideal(R2, [X * Y, R2.one]))) == []


SHUFFLE_SPECS = (
    PresentationSpec(3, QUANTUM_II),
    PresentationSpec(3, CLASSICAL_I),
    PresentationSpec(3, QUANTUM_I, SYMBOLIC),
)


def test_reduced_basis_invariant_under_shuffles():
    rng = random.Random(11)
    for spec in SHUFFLE_SPECS:
        ideal = in_grevlex(presentation_generators(spec))
        reference = buchberger(ideal).elements
        gens = list(ideal.generators)
        for _ in range(10):
            rng.shuffle(gens)
            assert buchberger(Ideal(ideal.ring, gens)).elements == reference, spec


def test_reduced_basis_invariant_under_rescaling():
    # rescaling changes every coefficient of the S-polynomials before the
    # elements are made monic, and permuting changes which pairs tie
    rng = random.Random(13)
    for spec in SHUFFLE_SPECS:
        ideal = in_grevlex(presentation_generators(spec))
        reference = buchberger(ideal).elements
        for _ in range(5):
            gens = [
                g * Fraction(rng.choice((-1, 1)) * rng.randrange(1, 20), rng.randrange(1, 20))
                for g in ideal.generators
            ]
            rng.shuffle(gens)
            assert buchberger(Ideal(ideal.ring, gens)).elements == reference, spec


def test_presentation_basis_matches_a_fresh_buchberger_run():
    # the memoized basis, shared by a classical variant's two q-modes, is
    # the one a fresh run on the presentation's core gives
    for n in (3, 4):
        for variant in (CLASSICAL_I, CLASSICAL_II, QUANTUM_I, QUANTUM_II):
            for q_mode in (SPECIALIZE_1, SYMBOLIC):
                spec = PresentationSpec(n, variant, q_mode)
                assert presentation_basis(spec).elements == buchberger(build_presentation(spec).ideal).elements, spec


def _basis_digest(gb):
    text = dump_generators(gb.elements)
    return hashlib.sha256(text.encode()).hexdigest()


def _golden_cases(keep):
    """(spec, grevlex basis, recorded digest) for every golden whose n
    `keep` accepts; a classical ideal has no q, so both q-modes share one
    basis."""
    bases = {}
    for (n, variant, q_mode), digest in BASIS_SHA256.items():
        if keep(n):
            spec = PresentationSpec(n, variant, q_mode)
            key = (n, variant, spec.symbolic_q)
            if key not in bases:
                bases[key] = grevlex_basis(spec)
            yield spec, bases[key], digest


def test_presentation_bases_golden_small():
    for spec, gb, digest in _golden_cases(lambda n: n <= 4):
        assert _basis_digest(gb) == digest, spec
        assert is_groebner(gb), spec


def test_presentation_bases_golden_n5():
    for spec, gb, digest in _golden_cases(lambda n: n == 5):
        assert _basis_digest(gb) == digest, spec


def test_presentation_bases_golden_n6():
    for spec, gb, digest in _golden_cases(lambda n: n == 6):
        assert _basis_digest(gb) == digest, spec


def test_presentation_bases_golden_n7():
    for spec, gb, digest in _golden_cases(lambda n: n == 7):
        assert _basis_digest(gb) == digest, spec


def test_buchberger_criterion_closure():
    for gens in ([X**2 - Y, Y**2 - X], [X**3 + X * Y, Y**2 - 1]):
        gb = buchberger(Ideal(R2, gens))
        assert is_groebner(gb)


def test_spoly_cancels_leads():
    f, g = X**2 - Y, X * Y - 1
    s = spoly(f, g)
    assert s.lead_monomial not in ((2, 0), (1, 1))
    # made without division: lc(f) * lc(g) times the S-polynomial
    assert spoly(2 * f, Fraction(3, 5) * g) == Fraction(6, 5) * s


def test_normal_form_by_a_non_monic_list_basis():
    # coprime leads x and y^2, so the list is a Groebner basis; by hand,
    # x = 3/10 y and y^2 = 1/3, so x^2 y = 9/100 y^3 = 3/100 y
    basis = buchberger(Ideal(R2, [2 * X - Fraction(3, 5) * Y, 3 * Y**2 - 1]))
    assert normal_form(X**2 * Y + X + Fraction(1, 7) * Y, basis) == Fraction(331, 700) * Y


def test_normal_form_rescales_terms_already_in_the_remainder():
    # x^3 and x*y are irreducible and come out before y^2 = x/6 is reduced
    # by a row with leading coefficient 6, which scales the whole remainder
    basis = buchberger(Ideal(R2, [3 * Y**2 - Fraction(1, 2) * X]))
    assert normal_form(X**3 + Y**2 + X * Y, basis) == X**3 + X * Y + Fraction(1, 6) * X


def test_buchberger_ignores_leading_coefficients():
    gens = [6 * X**2 - 4 * Y, 9 * X * Y - Fraction(3, 7), -Fraction(5, 2) * Y**3 + X]
    gb = buchberger(Ideal(R2, gens))
    assert gb.elements == buchberger(Ideal(R2, [g * (1 / g.lead_coeff) for g in gens])).elements
    assert all(g.lead_coeff == 1 for g in gb)


def test_coefficient_types_at_the_boundary():
    # Fractions in every polynomial, int or Fraction in matrices, never a float
    for spec in (PresentationSpec(3, QUANTUM_I, SYMBOLIC), PresentationSpec(3, CLASSICAL_II)):
        gb = presentation_basis(spec)
        assert all(type(c) is Fraction for g in gb for _, c in g.terms), spec
        v = gb.ring.gens[0]
        assert all(type(c) is Fraction for _, c in normal_form(v**7 + v * Fraction(1, 3), gb).terms)
    gb = buchberger(Ideal(R2, [2 * X - Fraction(3, 5) * Y, 3 * Y**2 - 1]))
    for p in (X**3, 6 * X**2 * Y, R2.one, Fraction(7, 4) * X):
        assert all(type(c) is Fraction for _, c in normal_form(p, gb).terms)
    entries = [c for v in gb.ring.gens for row in multiplication_by(v, gb) for _, c in row]
    assert all(type(c) in (int, Fraction) for c in entries)
    assert any(type(c) is Fraction for c in entries) and any(type(c) is int for c in entries)


def _coords(gb, p):
    """Coordinates of p in the quotient, on the standard monomials."""
    coeffs = dict(normal_form(p, gb).terms)
    return [coeffs.get(m, 0) for m in standard_monomials(gb)]


def test_minimal_polynomial_of_nilpotent_and_unit_ideal():
    gb = buchberger(Ideal(R2, [X**3, Y]))
    Mx, _ = [multiplication_by(v, gb) for v in gb.ring.gens]
    coeffs = minimal_polynomial(Mx, _coords(gb, R2.one))
    assert coeffs == [Fraction(0), Fraction(0), Fraction(0), Fraction(1)]
    gb1 = buchberger(Ideal(R2, [R2.one]))
    Mx1, _ = [multiplication_by(v, gb1) for v in gb1.ring.gens]
    assert minimal_polynomial(Mx1, _coords(gb1, R2.one)) == [Fraction(1)]


def test_minimal_polynomial_from_a_start_vector():
    # on Q[x,y]/(x^2(x-1), y), x^2 is the idempotent of the point x = 1,
    # where x acts as 1, so started there the minimal polynomial is t - 1
    gb = buchberger(Ideal(R2, [X**2 * (X - 1), Y]))
    Mx, _ = [multiplication_by(v, gb) for v in gb.ring.gens]
    one = _coords(gb, R2.one)
    assert minimal_polynomial(Mx, one) == [Fraction(0), Fraction(0), Fraction(-1), Fraction(1)]
    assert minimal_polynomial(Mx, _coords(gb, X**2)) == [Fraction(-1), Fraction(1)]
    assert minimal_polynomial(Mx, _coords(gb, R2.zero)) == [Fraction(1)]


def test_multiplication_matrices_commute_and_act_on_one():
    gb = buchberger(Ideal(R2, [Y**2 + Y, X * Y - 2 * Y, X**2 - X + 2 * Y]))
    std = standard_monomials(gb)
    mats = [multiplication_by(v, gb) for v in gb.ring.gens]
    dim = len(std)
    assert [len(M) for M in mats] == [dim, dim]
    # rows of (column, entry): columns ascend, and no entry is 0
    for M in mats:
        for row in M:
            assert [j for j, _ in row] == sorted({j for j, _ in row})
            assert all(c for _, c in row)
    dense = [dense_rows(M, dim) for M in mats]
    # column j of M_v holds the coordinates of NF(v * j-th standard monomial)
    for M, v in zip(dense, R2.gens):
        for j, m in enumerate(std):
            assert [M[i][j] for i in range(dim)] == _coords(gb, v * R2.monomial(m))
    # M_v applied to the coordinates of 1 gives the coordinates of v
    one = std.index((0, 0))
    for M, v in zip(dense, R2.gens):
        column = [M[i][one] for i in range(dim)]
        assert R2.poly(zip(std, column)) == normal_form(v, gb)
    Mx, My = dense
    prod = lambda A, B: [[sum(A[i][k] * B[k][j] for k in range(dim)) for j in range(dim)] for i in range(dim)]
    assert prod(Mx, My) == prod(My, Mx)


def test_dimension_invariant_under_graded_orders():
    for order in (GREVLEX, WeightedOrder((1, 2))):
        ring = Ring(("x", "y"), order)
        x, y = ring.gens
        gb = buchberger(Ideal(ring, [x**2 + y**2 - 1, x * y - 1]))
        assert len(standard_monomials(gb)) == 4
