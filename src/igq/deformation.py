"""First-order deformation of the small quantum product of IG(2,2n).

The deformation direction is the degree-2 special class; the deformation
parameter t satisfies t^2 = 0.  The only first-order corrections used are
the ones pinned by the degree-1 four-point invariants:

    s_i *_tau s_j = s_i *_0 s_j + delta_{i+j, 2n-2} * q t      (1 <= i, j,
                                                                i+j <= 2n-2)
    s'_{2n-3} *_tau s_1 = s'_{2n-3} *_0 s_1 + q t
    corrections with a unit factor vanish (fundamental-class axiom).

Any other correction request raises: unknown Gromov-Witten numbers are
never fabricated.  The product is therefore partial and tag-driven.

A first-order class is a pair (p0, p1) of polynomials in the core of the
sigma-side quantum ring, its t^0 and t^1 parts: Q[s_1, s_2(, q)], where
each class s_k is its image sigma_k(s_1, s_2) (`build_presentation`).
Products and sums are formed without reducing, and each verdict takes one
normal form modulo the core's basis.  That decides exactly what reducing
after every step would: the normal form modulo a Groebner basis is unique
and Q-linear, and NF(NF(f) NF(g)) = NF(fg), since f - NF(f) lies in the
ideal (Cox, Little & O'Shea, *Ideals, Varieties, and Algorithms*, ch. 2
sec. 6).  The core map is an isomorphism of quotients, so a normal form
is zero, or two agree, exactly when they would modulo the basis in all
the variables; a verdict asks only that, which depends neither on the
order nor on which generators of the ideal the basis was built from.
"""

from __future__ import annotations

from fractions import Fraction

from .groebner import Ideal, normal_form
from .poly import Polynomial, Ring, WeightedOrder, lift
from .presentations import (
    PresentationSpec,
    QUANTUM_I,
    SPECIALIZE_1,
    SYMBOLIC,
    build_presentation,
    origin_tangent_dimension,
    presentation_basis,
    q_of,
)

UNIT = ("unit",)
SIGMA_PRIME = ("sigma_prime",)


def sigma_tag(i: int):
    return ("sigma", i)


class UntrackedCorrectionError(ValueError):
    """A first-order correction was requested outside the tracked set."""


def tau_correction(n: int, xtag, ytag) -> Fraction:
    """The rational multiple of q correcting x *_tau y at order t.

    Tracked pairs only: special classes s_i, s_j with i, j >= 1 and
    i + j <= 2n-2 (Kronecker delta at i+j = 2n-2), the extra degree-(2n-3)
    class against s_1, and anything against the unit (zero).  Everything
    else is undefined and raises.
    """
    if xtag == UNIT or ytag == UNIT:
        return Fraction(0)
    tags = {xtag, ytag}
    if xtag[0] == "sigma" and ytag[0] == "sigma":
        i, j = xtag[1], ytag[1]
        if i < 1 or j < 1 or i > 2 * n - 2 or j > 2 * n - 2:
            raise UntrackedCorrectionError("tags out of range: %r, %r" % (xtag, ytag))
        if i + j > 2 * n - 2:
            raise UntrackedCorrectionError(
                "correction for s_%d * s_%d (degree %d > 2n-2) is not tracked"
                % (i, j, i + j)
            )
        return Fraction(1) if i + j == 2 * n - 2 else Fraction(0)
    if tags == {SIGMA_PRIME, sigma_tag(1)}:
        return Fraction(1)
    raise UntrackedCorrectionError("correction undefined for %r, %r" % (xtag, ytag))


def star_tau(n: int, x: tuple, y: tuple, xtag, ytag) -> tuple:
    """First-order product of the pairs x = (x0, x1) and y = (y0, y1),
    unreduced: (x0*y0, x0*y1 + x1*y0 + correction(xtag, ytag) * q)."""
    (x0, x1), (y0, y1) = x, y
    p1 = x0 * y1 + x1 * y0
    corr = tau_correction(n, xtag, ytag)
    if corr:
        p1 = p1 + corr * q_of(p1.ring)
    return x0 * y0, p1


def _combine(terms) -> tuple:
    """The sum of c * (p0, p1) over the (c, pair) in a list, as a pair."""
    return sum(c * p0 for c, (p0, _) in terms), sum(c * p1 for c, (_, p1) in terms)


def sigma_prime(s: list, gb) -> Polynomial:
    """The normal form of the second degree-(2n-3) class,
    s_{2n-4} *_0 s_1 - s_{2n-3}, modulo the quantum basis gb, for the
    classes s = [1, s_1, ..., s_{2n-2}] in its ring.

    Must be nonzero; in symbolic-q mode it must also be weighted-pure of
    degree 2n-3 (a genuine class, not a q-correction artifact) in the
    paper's grading, which gb's ring carries as its weighted order.
    """
    n = (len(s) + 1) // 2
    sp = normal_form(s[2 * n - 4] * s[1] - s[2 * n - 3], gb)
    if sp.is_zero:
        raise AssertionError("expected a second class of degree 2n-3")
    if "q" in gb.ring.names:
        degs = sp.weighted_degrees(gb.ring.order.weights)
        if degs != {2 * n - 3}:
            raise AssertionError("degree-impure class: weighted degrees %r" % degs)
    return sp


def verify_lemma_presentation(n: int, symbolic_q: bool = False) -> dict:
    """Re-derive the first-order shape of the deformed relations.

    (a) the degree-(2n-2) quadratic relation, multiplied out with *_tau,
        has t^0 part reducing to zero and t-coefficient (-1)^n q;
    (b) the first-column expansion residue of the top determinantal
        relation (s_{2n-4}*s_2 - s_{2n-4}*s_1*s_1 + s_{2n-3}*s_1 - s_{2n-2})
        has zero t-coefficient and zero t^0 normal form;
    (c) the degree-2n relation is recorded as O(t): its t^0 part reduces
        to zero, and nothing is asserted about its t-coefficient.

    Each reported or compared value is one normal form.  The one a report
    prints, the t-coefficient (-1)^n q, is a constant or q itself, which
    no basis rewrites: the ideal holds no element of degree 2n-1 that
    involves q.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    spec = PresentationSpec(n, QUANTUM_I, SYMBOLIC if symbolic_q else SPECIALIZE_1)
    gb, core = presentation_basis(spec), build_presentation(spec)
    ring = gb.ring
    s = [ring.one] + list(core.images[: 2 * n - 2])
    nf = lambda p: normal_form(p, gb)
    fo = lambda k: (s[k], ring.zero)
    tag = lambda k: sigma_tag(k) if k else UNIT
    star = lambda j, k: star_tau(n, fo(j), fo(k), tag(j), tag(k))
    report = {"n": n, "symbolic_q": symbolic_q}

    # (a) sum the tracked corrections across the quadratic relation
    total = _combine(
        [(1, star(n - 1, n - 1))]
        + [(2 * (-1) ** i, star(n - 1 + i, n - 1 - i)) for i in range(1, n)]
    )
    expected_mult = Fraction((-1) ** n)
    report["sigma_2n2_t0_zero"] = nf(total[0]).is_zero
    report["sigma_2n2_t_coeff"] = nf(total[1])
    report["sigma_2n2_t_ok"] = report["sigma_2n2_t_coeff"] == nf(expected_mult * q_of(ring))

    # (b) the first-column expansion residue, built with tracked products
    inner = star(2 * n - 4, 1)
    sp = sigma_prime(s, gb)
    head_class = s[2 * n - 3]
    if nf(inner[0] - head_class) != sp:
        raise AssertionError("product of the two classes split incorrectly")
    head = star_tau(n, (head_class, inner[1]), fo(1), tag(2 * n - 3), tag(1))
    prime_part = star_tau(n, (sp, ring.zero), fo(1), SIGMA_PRIME, tag(1))
    expr = _combine(
        [
            (1, star(2 * n - 4, 2)),
            (-1, head),
            (-1, prime_part),
            (1, star(2 * n - 3, 1)),
            (-1, fo(2 * n - 2)),
        ]
    )
    report["delta_t_coeff"] = nf(expr[1])
    report["delta_t_ok"] = report["delta_t_coeff"].is_zero
    report["delta_t0_ok"] = nf(expr[0]).is_zero

    # (c) record the degree-2n relation, the core's second, as O(t)
    report["sigma_2n_t0_zero"] = nf(core.ideal.generators[1]).is_zero

    report["ok"] = all(
        report[k]
        for k in (
            "sigma_2n2_t0_zero",
            "sigma_2n2_t_ok",
            "delta_t_ok",
            "delta_t0_ok",
            "sigma_2n_t0_zero",
        )
    )
    return report


# ---------------------------------------------------------------------------
# regularity of the deformed ring, through the tangent-space corank


def regularity_corank(n: int) -> int:
    """Corank of the deformed relations at the origin, taken on their core
    in the variables (s_1, s_2, t); regularity means corank 1.

    The deformed ideal is the quantum I-relations at q = 1 with the
    degree-(2n-2) quadratic relation corrected by (-1)^(n+1) q t (the
    degree-2n relation's t-term vanishes), and its corank is the
    dimension of its Zariski tangent space at the origin.  The correction
    leaves the triangular rules s_k - sigma_k(s_1, s_2) alone, so the
    deformed ring is the quotient of Q[s_1, s_2, t] by QUANTUM_I's core
    relations (`build_presentation`) with the first corrected, by an
    isomorphism that fixes the origin, and the tangent dimension is
    intrinsic.  Both relations vanish at the origin, so the linear parts
    of the ideal's elements are spanned by theirs.
    """
    rel1, rel2 = build_presentation(PresentationSpec(n, QUANTUM_I)).ideal.generators
    core = rel1.ring  # any weight of t serves: the corank reads only linear parts
    ring = Ring(core.names + ("t",), WeightedOrder(core.order.weights + (1,)))
    rel1, rel2 = (lift(g, ring) for g in (rel1, rel2))
    return origin_tangent_dimension(Ideal(ring, [rel1 + (-1) ** (n + 1) * ring.var("t"), rel2]))
