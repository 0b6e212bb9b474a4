"""First-order deformation: products, corrections, the shapes of the
deformed relations, and the tangent-space corank."""

import random
from fractions import Fraction

import pytest

from igq.deformation import (
    SIGMA_PRIME,
    UNIT,
    UntrackedCorrectionError,
    regularity_corank,
    sigma_prime,
    sigma_tag,
    star_tau,
    tau_correction,
    verify_lemma_presentation,
)
from igq.groebner import normal_form
from igq.linalg import corank
from igq.poly import RingMismatch
from igq.presentations import (
    PresentationSpec,
    QUANTUM_I,
    SPECIALIZE_1,
    SYMBOLIC,
    build_presentation,
    full_basis,
    presentation_basis,
)
from presentation_oracle import grading, i_relations, sigma_classes, sigma_ring, sigma_weights


def quantum_basis(n, symbolic_q=False):
    """QUANTUM_I's basis in all the variables s_1 .. s_{2n-2}(, q)."""
    spec = PresentationSpec(n, QUANTUM_I, SYMBOLIC if symbolic_q else SPECIALIZE_1)
    return full_basis(spec)


def first_order(gb, k):
    """The pair (s_k, 0) in the ring of gb."""
    return gb.ring.var("s%d" % k) if k else gb.ring.one, gb.ring.zero


def test_star0_unit_and_commutativity():
    gb = quantum_basis(3)
    nf = lambda p: normal_form(p, gb)
    one = gb.ring.one
    rng = random.Random(5)
    gens = gb.ring.gens
    for _ in range(10):
        f = nf(gens[rng.randrange(len(gens))] * gens[rng.randrange(len(gens))])
        assert nf(one * f) == f
        g = nf(gens[rng.randrange(len(gens))])
        assert nf(f * g) == nf(g * f)


def test_star0_associativity_on_random_triples():
    gb = quantum_basis(3)
    nf = lambda p: normal_form(p, gb)
    rng = random.Random(6)
    gens = gb.ring.gens

    def rand():
        p = gb.ring.zero
        for _ in range(3):
            p = p + rng.randrange(-2, 3) * gens[rng.randrange(len(gens))]
        return nf(p)

    for _ in range(8):
        x, y, z = rand(), rand(), rand()
        assert nf(nf(x * y) * z) == nf(x * nf(y * z))


def _random_poly(rng, ring):
    p = ring.zero
    for _ in range(rng.randrange(1, 5)):
        exps = tuple(rng.randrange(3) if rng.random() < 0.4 else 0 for _ in ring.names)
        p = p + ring.monomial(exps, Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)))
    return p


@pytest.mark.parametrize("symbolic_q", [False, True])
@pytest.mark.parametrize("n", [3, 4])
def test_normal_form_is_a_ring_map_on_the_quantum_quotient(n, symbolic_q):
    # the fact that lets the lemma reduce once per verdict, not per step
    gb = quantum_basis(n, symbolic_q)
    nf = lambda p: normal_form(p, gb)
    rng = random.Random(1000 * n + symbolic_q)
    for _ in range(12):
        f, g = _random_poly(rng, gb.ring), _random_poly(rng, gb.ring)
        assert nf(nf(f) * nf(g)) == nf(f * g)
        assert nf(nf(f) + nf(g)) == nf(f + g)


def test_sigma_prime_nonzero_and_pure_degree():
    # in all the variables, and on the core, where each s_k is its image
    for n in (3, 4, 5):
        for symbolic_q in (False, True):
            gb = quantum_basis(n, symbolic_q)
            sp = sigma_prime(sigma_classes(gb.ring, n), gb)
            assert not sp.is_zero
            spec = PresentationSpec(n, QUANTUM_I, SYMBOLIC if symbolic_q else SPECIALIZE_1)
            core = presentation_basis(spec)
            s = [core.ring.one] + list(build_presentation(spec).images[: 2 * n - 2])
            sp_core = sigma_prime(s, core)
            if symbolic_q:
                assert sp.weighted_degrees(grading(sigma_weights(n), sp.ring)) == {2 * n - 3}
                assert sp_core.weighted_degrees(grading(sigma_weights(n), sp_core.ring)) == {2 * n - 3}


def test_tau_correction_table():
    n = 3  # 2n-2 = 4
    one = Fraction(1)
    assert tau_correction(n, sigma_tag(2), sigma_tag(2)) == one
    assert tau_correction(n, sigma_tag(1), sigma_tag(3)) == one
    assert tau_correction(n, sigma_tag(1), sigma_tag(2)) == 0
    assert tau_correction(n, UNIT, sigma_tag(3)) == 0
    assert tau_correction(n, sigma_tag(4), UNIT) == 0
    assert tau_correction(n, SIGMA_PRIME, sigma_tag(1)) == one
    assert tau_correction(n, sigma_tag(1), SIGMA_PRIME) == one


def test_tau_correction_untracked_pairs_raise():
    n = 3
    with pytest.raises(UntrackedCorrectionError):
        tau_correction(n, sigma_tag(4), sigma_tag(4))
    with pytest.raises(UntrackedCorrectionError):
        tau_correction(n, SIGMA_PRIME, sigma_tag(2))
    with pytest.raises(UntrackedCorrectionError):
        tau_correction(n, SIGMA_PRIME, SIGMA_PRIME)
    with pytest.raises(UntrackedCorrectionError):
        tau_correction(n, sigma_tag(0), sigma_tag(4))


def test_star_tau_low_degree_has_no_correction():
    gb = quantum_basis(3)
    x, y = first_order(gb, 1), first_order(gb, 2)
    p0, p1 = star_tau(3, x, y, sigma_tag(1), sigma_tag(2))
    assert normal_form(p1, gb).is_zero
    assert normal_form(p0, gb) == normal_form(x[0] * y[0], gb)


def test_star_tau_top_degree_correction_and_unit():
    gb = quantum_basis(3)
    x, y = first_order(gb, 3), first_order(gb, 1)
    _, p1 = star_tau(3, x, y, sigma_tag(3), sigma_tag(1))
    assert normal_form(p1, gb) == normal_form(gb.ring.one, gb)  # q = 1
    p0, p1 = star_tau(3, x, first_order(gb, 0), sigma_tag(3), UNIT)
    assert normal_form(p0, gb) == normal_form(x[0], gb) and normal_form(p1, gb).is_zero


def test_star_tau_commutes_and_distributes():
    gb = quantum_basis(3)
    nf = lambda pair: (normal_form(pair[0], gb), normal_form(pair[1], gb))
    a, b, c = first_order(gb, 2), first_order(gb, 2), first_order(gb, 1)
    ab = star_tau(3, a, b, sigma_tag(2), sigma_tag(2))
    ba = star_tau(3, b, a, sigma_tag(2), sigma_tag(2))
    assert nf(ab) == nf(ba)
    # distributes over addition in the second slot with equal tags
    bc = (b[0] + c[0], b[1] + c[1])
    lhs = star_tau(3, a, bc, sigma_tag(2), sigma_tag(2))
    # split by bilinearity (tags differ term by term)
    ac = star_tau(3, a, c, sigma_tag(2), sigma_tag(1))
    assert nf(lhs)[0] == nf((ab[0] + ac[0], ab[1] + ac[1]))[0]


def test_lemma_small_cases():
    for n in (3, 4):
        rep = verify_lemma_presentation(n)
        assert rep["ok"], rep
        assert rep["sigma_2n2_t_coeff"] == Fraction((-1) ** n)


def test_lemma_symbolic_mode_degree_bookkeeping():
    n = 3
    rep = verify_lemma_presentation(n, symbolic_q=True)
    assert rep["ok"]
    tc = rep["sigma_2n2_t_coeff"]
    # the t-coefficient of a degree-(2n-2) relation is a degree-(2n-1)
    # class times nothing else: weight of q is 2n-1, t has degree -1
    assert tc.weighted_degrees(grading(sigma_weights(n), tc.ring)) == {2 * n - 1}


def test_lemma_rejects_small_n():
    with pytest.raises(ValueError):
        verify_lemma_presentation(2)


def test_regularity_corank_is_one():
    for n in (2, 3, 4):
        assert regularity_corank(n) == 1


def test_regularity_corank_matches_the_linear_part_matrix():
    # the matrix of linear parts of the relations at q = 1 in the columns
    # (s_1, ..., s_{2n-2}, t), with (-1)^(n+1) in the t column of the
    # degree-(2n-2) relation
    for n in range(2, 10):
        ring = sigma_ring(n)
        rels = i_relations(sigma_classes(ring, n), ring.one)
        rows = []
        for idx, g in enumerate(rels):
            lin = g.linear_coefficients()
            t_entry = (-1) ** (n + 1) if idx == len(rels) - 2 else 0
            rows.append([lin.get(nm, Fraction(0)) for nm in ring.names] + [Fraction(t_entry)])
        assert regularity_corank(n) == corank(rows, ring.ngens + 1), n


def test_corank_of_empty_relation_list():
    assert corank([], 5) == 5


def test_mode_mismatch_rejected():
    a = first_order(quantum_basis(3), 0)
    b = first_order(quantum_basis(4), 0)
    with pytest.raises(RingMismatch):  # a ValueError
        star_tau(3, a, b, UNIT, UNIT)
