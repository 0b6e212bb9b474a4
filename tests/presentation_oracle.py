"""The paper's grading, written down a second time, independently of
`igq.presentations.weighted_order`, and the weighted homogeneity of the
presentations' generators in it, which the tests check the relation
builders and that order against; the presentations in grevlex and their
bases there, which the tests hold the weighted ones against; and the
I-presentations with their displayed determinants, the oracle of the
triangular rules that `igq.presentations.i_relations` builds in their
place."""

from igq.groebner import Ideal, buchberger
from igq.poly import Ring
from igq.presentations import (
    PresentationSpec,
    QUANTUM_I,
    SPECIALIZE_1,
    SYMBOLIC,
    VARIANTS,
    build_presentation,
    q_of,
    quadratic_relations,
    sigma_classes,
    sigma_ring,
)


def sigma_weights(n: int) -> dict:
    """The degrees of the I-variants' variables: deg s_i = i, deg q = 2n-1."""
    w = {"s%d" % i: i for i in range(1, 2 * n - 1)}
    w["q"] = 2 * n - 1
    return w


def ab_weights(n: int) -> dict:
    """The degrees of the II-variants' variables: deg a1 = 1, deg a2 = 2,
    deg b_i = 2i, deg q = 2n-1."""
    w = {"a1": 1, "a2": 2}
    w.update({"b%d" % i: 2 * i for i in range(1, n - 1)})
    w["q"] = 2 * n - 1
    return w


def grading(table: dict, ring) -> tuple:
    """A weight table read in the ring's variable order, one weight per
    variable, as `WeightedOrder` and `Polynomial.weighted_degrees` take them."""
    return tuple(table[name] for name in ring.names)


def schur_determinants(s: list, top: int) -> list:
    """[D_0, ..., D_top] with D_r = det(s_{1+j-i})_{1 <= i,j <= r}, for the
    classes s = [1, s_1, ..., s_{2n-2}] and s_k = 0 above 2n-2.

    The matrix has ones below the diagonal and zeros under them, so
    expanding along the first row gives D_r = sum_{k=1}^{r} (-1)^(k-1)
    s_k D_{r-k}, with D_0 = 1.
    """
    dets = [s[0]]
    for r in range(1, top + 1):
        total = s[0].ring.zero
        for k in range(1, min(r, len(s) - 1) + 1):
            term = s[k] * dets[r - k]
            total = total + (term if k % 2 else -term)
        dets.append(total)
    return dets


def schur_presentation(spec, order):
    """An I-presentation's ideal in `order` as displayed: the determinants
    D_3 .. D_(2n-2) and the two quadratic relations."""
    n = spec.n
    ring = Ring(sigma_ring(n, spec.symbolic_q).names, order)
    s, q = sigma_classes(ring, n), q_of(ring) if spec.variant == QUANTUM_I else None
    return Ideal(ring, schur_determinants(s, 2 * n - 2)[3:] + quadratic_relations(s, q))


def in_grevlex(ideal):
    """The ideal's generators in grevlex on the same variables."""
    ring = Ring(ideal.ring.names)
    return Ideal(ring, [ring.poly(g.terms) for g in ideal.generators])


def grevlex_basis(spec):
    """The reduced basis of a presentation in grevlex."""
    return buchberger(in_grevlex(build_presentation(spec)))


def weighted_homogeneity_report(n: int) -> dict:
    """The weighted degrees of every generator of every presentation at n
    (deg s_i = i, deg a1 = 1, deg a2 = 2, deg b_i = 2i, deg q = 2n-1),
    keyed by (variant, q-mode), with a verdict.

    With q symbolic every generator must be weighted-homogeneous.  In both
    q-modes the I-variants' generators must open with the triangular
    rules, s_k - sigma_k homogeneous of degree k for k in [3, 2n-2]."""
    out = {}
    for variant in VARIANTS:
        is_i = variant.endswith("_I")
        table = sigma_weights(n) if is_i else ab_weights(n)
        rules = [[k] for k in range(3, 2 * n - 1)] if is_i else []
        for q_mode in (SYMBOLIC, SPECIALIZE_1):
            gens = build_presentation(PresentationSpec(n, variant, q_mode)).generators
            degs = [sorted(g.weighted_degrees(grading(table, g.ring))) for g in gens]
            ok = degs[: len(rules)] == rules
            if q_mode == SYMBOLIC:
                ok = ok and all(len(d) == 1 for d in degs)
            out[variant, q_mode] = {"ok": ok, "degrees": degs}
    return out
