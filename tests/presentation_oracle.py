"""The paper's grading, written down a second time, independently of
`igq.presentations.presentation_ring`, and the weighted homogeneity of the
presentations' generators in it, which the tests check the relation
builders and that order against; the presentations in grevlex and their
bases there, which the tests hold the weighted ones against; the
I-presentations with their displayed determinants, the oracle of the
triangular rules that `igq.presentations.i_relations` builds in their
place; and the presentations in all their variables, with the images
`sigma_in_ab` of the classes in the b-variables and a Buchberger run on
every generator, the oracle of the two-variable cores every check runs
on and of the basis `igq.presentations.full_basis` assembles."""

from functools import cache

from igq import deformation, presentations
from igq.groebner import Ideal, buchberger
from igq.poly import Polynomial, Ring
from igq.presentations import (
    CorePresentation,
    PresentationSpec,
    QUANTUM_I,
    SPECIALIZE_1,
    SYMBOLIC,
    VARIANTS,
    i_relations,
    origin_tangent_dimension,
    presentation_generators,
    q_of,
    quadratic_relations,
)


def sigma_ring(n: int, symbolic_q: bool = False) -> Ring:
    """Q[s_1, ..., s_{2n-2}(, q)], in grevlex."""
    return Ring(tuple("s%d" % i for i in range(1, 2 * n - 1)) + ("q",) * symbolic_q)


def ab_ring(n: int, symbolic_q: bool = False) -> Ring:
    """Q[a1, a2, b_1, ..., b_{n-2}(, q)], in grevlex."""
    return Ring(("a1", "a2") + tuple("b%d" % i for i in range(1, n - 1)) + ("q",) * symbolic_q)


def sigma_classes(ring: Ring, n: int) -> list:
    """[1, s_1, ..., s_{2n-2}] in a ring that has the variables s_1 .. s_{2n-2}."""
    return [ring.one] + [ring.var("s%d" % k) for k in range(1, 2 * n - 1)]


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
    return buchberger(in_grevlex(presentation_generators(spec)))


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
            gens = presentation_generators(PresentationSpec(n, variant, q_mode)).generators
            degs = [sorted(g.weighted_degrees(grading(table, g.ring))) for g in gens]
            ok = degs[: len(rules)] == rules
            if q_mode == SYMBOLIC:
                ok = ok and all(len(d) == 1 for d in degs)
            out[variant, q_mode] = {"ok": ok, "degrees": degs}
    return out


def sigma_in_ab(n: int, k: int, ring: Ring = None) -> Polynomial:
    """s_k expressed in the a,b-variables: the total Chern class of the
    quotient bundle is the product of those of the middle bundle and of the
    dual subbundle, so s_k = sum_i b_i * e_{k-2i} with (e_0, e_1, e_2) =
    (1, -a1, a2) and b_0 = 1."""
    if not 1 <= k <= 2 * n - 2:
        raise ValueError("k out of range [1, %d]" % (2 * n - 2))
    if ring is None:
        ring = ab_ring(n)
    e = [ring.one, -ring.var("a1"), ring.var("a2")]
    total = ring.zero
    for i in range(0, n - 1):
        j = k - 2 * i
        if 0 <= j <= 2:
            b = ring.one if i == 0 else ring.var("b%d" % i)
            total = total + b * e[j]
    return total


@cache
def generators_basis(spec):
    """The reduced basis of a presentation in all its variables, in the
    order of `presentation_ring`, by Buchberger on
    `presentation_generators`: the oracle of `full_basis`.  A classical
    spec has no q, so both q-modes give one basis."""
    return buchberger(presentation_generators(spec))


def identity_core(spec):
    """A presentation as its own core: every variable its own image."""
    ideal = presentation_generators(spec)
    return CorePresentation(ideal.ring, ideal, ideal.ring.gens)


def regularity_corank_on_all_variables(n: int) -> int:
    """The corank at the origin of the deformed I-relations in (s_1, ...,
    s_{2n-2}, t): the triangular rules, and the two quadratic relations at
    q = 1 with (-1)^(n+1) t added to the first."""
    ring = Ring(sigma_ring(n).names + ("t",))
    *rules, rel1, rel2 = i_relations(sigma_classes(ring, n), ring.one)
    rel1 = rel1 + (-1) ** (n + 1) * ring.var("t")
    return origin_tangent_dimension(Ideal(ring, [*rules, rel1, rel2]))


def on_all_variables(monkeypatch):
    """Run every check in all the variables of each presentation, as the
    checks ran before they moved to the cores: `presentation_basis` gives
    the `generators_basis` and `build_presentation` the `identity_core`,
    so the homomorphism's classes are `sigma_in_ab` on the variables b_k,
    the lemma's are the variables s_k, and the spectrum re-bases the whole
    QUANTUM_II basis in grevlex, its variables the coordinates; the
    regularity corank is `regularity_corank_on_all_variables`."""
    for module in (presentations, deformation):
        monkeypatch.setattr(module, "presentation_basis", generators_basis)
        monkeypatch.setattr(module, "build_presentation", identity_core)
    monkeypatch.setattr(deformation, "regularity_corank", regularity_corank_on_all_variables)

