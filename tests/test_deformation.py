"""First-order deformation: products, corrections, the shapes of the
deformed relations, and the tangent-space corank."""

import random
from fractions import Fraction

import pytest

from igq.deformation import (
    FirstOrderElement,
    QHElement,
    SIGMA_PRIME,
    UNIT,
    UntrackedCorrectionError,
    correction_table,
    quantum_context,
    regularity_corank,
    sigma_prime,
    sigma_tag,
    star_tau,
    tau_correction,
    verify_lemma_presentation,
)
from igq.linalg import corank
from igq.presentations import sigma_weights


def elem(ctx, p):
    return QHElement.make(ctx, p)


def test_star0_unit_and_commutativity():
    ctx = quantum_context(3)
    one = elem(ctx, ctx.ring.one)
    rng = random.Random(5)
    gens = ctx.ring.gens
    for _ in range(10):
        f = elem(ctx, gens[rng.randrange(len(gens))] * gens[rng.randrange(len(gens))])
        assert (one * f).value == f.value
        g = elem(ctx, gens[rng.randrange(len(gens))])
        assert (f * g).value == (g * f).value


def test_star0_associativity_on_random_triples():
    ctx = quantum_context(3)
    rng = random.Random(6)
    gens = ctx.ring.gens

    def rand():
        p = ctx.ring.zero
        for _ in range(3):
            p = p + rng.randrange(-2, 3) * gens[rng.randrange(len(gens))]
        return elem(ctx, p)

    for _ in range(8):
        x, y, z = rand(), rand(), rand()
        assert ((x * y) * z).value == (x * (y * z)).value


def test_sigma_prime_nonzero_and_pure_degree():
    sp = sigma_prime(quantum_context(3))
    assert not sp.is_zero
    sp_sym = sigma_prime(quantum_context(3, symbolic_q=True))
    assert sp_sym.value.weighted_degrees(sigma_weights(3)) == {3}


def test_tau_correction_table():
    ctx = quantum_context(3)  # 2n-2 = 4
    one = Fraction(1)
    assert tau_correction(ctx, sigma_tag(2), sigma_tag(2)) == one
    assert tau_correction(ctx, sigma_tag(1), sigma_tag(3)) == one
    assert tau_correction(ctx, sigma_tag(1), sigma_tag(2)) == 0
    assert tau_correction(ctx, UNIT, sigma_tag(3)) == 0
    assert tau_correction(ctx, sigma_tag(4), UNIT) == 0
    assert tau_correction(ctx, SIGMA_PRIME, sigma_tag(1)) == one
    assert tau_correction(ctx, sigma_tag(1), SIGMA_PRIME) == one


def test_correction_table_symmetric_and_tracked_only():
    ctx = quantum_context(3)
    table = correction_table(ctx)
    for (xt, yt), val in table.items():
        assert table[(yt, xt)] == val
        assert tau_correction(ctx, xt, yt) == val
    # nothing outside the tracked set, and no unit rows
    assert all(UNIT not in pair for pair in table)
    assert (sigma_tag(4), sigma_tag(4)) not in table


def test_tau_correction_untracked_pairs_raise():
    ctx = quantum_context(3)
    with pytest.raises(UntrackedCorrectionError):
        tau_correction(ctx, sigma_tag(4), sigma_tag(4))
    with pytest.raises(UntrackedCorrectionError):
        tau_correction(ctx, SIGMA_PRIME, sigma_tag(2))
    with pytest.raises(UntrackedCorrectionError):
        tau_correction(ctx, SIGMA_PRIME, SIGMA_PRIME)
    with pytest.raises(UntrackedCorrectionError):
        tau_correction(ctx, sigma_tag(0), sigma_tag(4))


def test_star_tau_low_degree_has_no_correction():
    ctx = quantum_context(3)
    x = FirstOrderElement.of(ctx, ctx.sigma(1))
    y = FirstOrderElement.of(ctx, ctx.sigma(2))
    out = star_tau(x, y, sigma_tag(1), sigma_tag(2))
    assert out.p1.is_zero
    assert out.p0.value == (x.p0 * y.p0).value


def test_star_tau_top_degree_correction_and_unit():
    ctx = quantum_context(3)
    x = FirstOrderElement.of(ctx, ctx.sigma(3))
    y = FirstOrderElement.of(ctx, ctx.sigma(1))
    out = star_tau(x, y, sigma_tag(3), sigma_tag(1))
    assert out.p1.value == ctx.nf(ctx.q)
    unit = FirstOrderElement.of(ctx, ctx.ring.one)
    again = star_tau(x, unit, sigma_tag(3), UNIT)
    assert again.p0.value == x.p0.value and again.p1.is_zero


def test_star_tau_commutes_and_distributes():
    ctx = quantum_context(3)
    a = FirstOrderElement.of(ctx, ctx.sigma(2))
    b = FirstOrderElement.of(ctx, ctx.sigma(2))
    c = FirstOrderElement.of(ctx, ctx.sigma(1))
    ab = star_tau(a, b, sigma_tag(2), sigma_tag(2))
    ba = star_tau(b, a, sigma_tag(2), sigma_tag(2))
    assert ab.p0.value == ba.p0.value and ab.p1.value == ba.p1.value
    # distributes over addition in the second slot with equal tags
    bc = b + c
    lhs = star_tau(a, bc, sigma_tag(2), sigma_tag(2))
    # split by bilinearity (tags differ term by term)
    rhs = star_tau(a, b, sigma_tag(2), sigma_tag(2)) + star_tau(
        a, c, sigma_tag(2), sigma_tag(1)
    )
    assert lhs.p0.value == rhs.p0.value


def test_lemma_small_cases():
    for n in (3, 4):
        rep = verify_lemma_presentation(n)
        assert rep["ok"], rep
        assert rep["sigma_2n2_t_coeff"] == Fraction((-1) ** n)
        assert rep["telescoping_ok"] and rep["cross_ok"]


def test_lemma_symbolic_mode_degree_bookkeeping():
    n = 3
    rep = verify_lemma_presentation(n, symbolic_q=True)
    assert rep["ok"]
    tc = rep["sigma_2n2_t_coeff"]
    # the t-coefficient of a degree-(2n-2) relation is a degree-(2n-1)
    # class times nothing else: weight of q is 2n-1, t has degree -1
    assert tc.weighted_degrees(sigma_weights(n)) == {2 * n - 1}


def test_lemma_rejects_small_n():
    with pytest.raises(ValueError):
        verify_lemma_presentation(2)


def test_regularity_corank_is_one():
    for n in (2, 3, 4):
        assert regularity_corank(n) == 1


def test_corank_of_empty_relation_list():
    assert corank([], 5) == 5


def test_mode_mismatch_rejected():
    a = QHElement.make(quantum_context(3), quantum_context(3).ring.one)
    b = QHElement.make(quantum_context(4), quantum_context(4).ring.one)
    with pytest.raises(ValueError):
        a * b
