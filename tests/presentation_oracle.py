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
on and of the basis `igq.presentations.full_basis` assembles; and the
builders that thread q through every relation and build each
presentation from scratch (`quadratic_relations`, `i_relations`,
`ii_identity`, `build_presentation`, `build_generators`,
`homomorphism_relations`), the oracle of the quantum presentations
`igq.presentations` derives from the classical ones."""

from functools import cache

from igq import deformation, presentations
from igq.groebner import Ideal, buchberger
from igq.poly import Polynomial, Ring, WeightedOrder
from igq.presentations import (
    CLASSICAL_I,
    CLASSICAL_II,
    CorePresentation,
    PresentationSpec,
    QUANTUM_I,
    QUANTUM_II,
    SPECIALIZE_1,
    SYMBOLIC,
    VARIANTS,
    ab_classes,
    origin_tangent_dimension,
    presentation_generators,
    presentation_ring,
    q_of,
    recurrence,
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


def quadratic_relations(s: list, q: Polynomial = None) -> list:
    """The two quadratic I-relations on the classes s = [1, s_1, ..., s_{2n-2}],
    of degrees 2n-2 and 2n.  Given q, the second picks up the quantum term
    (-1)^(n+1) q s_1; without it they are the classical ones."""
    n = (len(s) + 1) // 2
    rel1 = s[n - 1] ** 2
    for i in range(1, n):
        rel1 = rel1 + 2 * (-1) ** i * s[n - 1 + i] * s[n - 1 - i]
    rel2 = s[n] ** 2
    for i in range(1, n - 1):
        rel2 = rel2 + 2 * (-1) ** i * s[n + i] * s[n - i]
    if q is not None:
        rel2 = rel2 + (-1) ** (n + 1) * q * s[1]
    return [rel1, rel2]


def i_relations(s: list, q: Polynomial = None) -> list:
    """The triangular rules s_k - sigma_k(s_1, s_2), k in [3, 2n-2], then
    the two `quadratic_relations` (q as there)."""
    sigma = recurrence(s[1], s[2] - s[1] ** 2, len(s) - 1)
    return [s[k] - sigma[k] for k in range(3, len(s))] + quadratic_relations(s, q)


def ii_identity(b: list, q: Polynomial = None) -> list:
    """The coefficients of x^2, x^4, ..., x^(2n) of (sum_i b_i x^(2i))
    (1 + (2a_2 - a_1^2) x^2 + a_2^2 x^4), for b = [1, b_1, ..., b_(n-2)],
    or its last two entries, in a ring with the variables a1 and a2.  Given
    q, the x^(2n) coefficient picks up the quantum term q a_1."""
    ring = b[0].ring
    a1, a2 = ring.var("a1"), ring.var("a2")
    c = [ring.one, 2 * a2 - a1**2, a2**2]
    coeffs = [
        sum((b[i] * c[k - i] for i in range(len(b)) if 0 <= k - i <= 2), ring.zero)
        for k in range(1, len(b) + 2)
    ]
    if q is not None:
        coeffs[-1] = coeffs[-1] + q * a1
    return coeffs


def build_presentation(spec) -> CorePresentation:
    """A presentation's core built from scratch, q threaded through its
    relations: the two last `presentation_generators` with s_k ->
    sigma_k(s1, s2) or b_k -> beta_k(a1, a2) substituted."""
    n, full = spec.n, presentation_ring(spec)
    kept = [i for i, name in enumerate(full.names) if i < 2 or name == "q"]
    ring = Ring([full.names[i] for i in kept], WeightedOrder(full.order.weights[i] for i in kept))
    x1, x2 = ring.gens[:2]
    q = q_of(ring) if spec.variant in (QUANTUM_I, QUANTUM_II) else None
    if spec.variant in (CLASSICAL_I, QUANTUM_I):
        s = recurrence(x1, x2 - x1**2, 2 * n - 2)
        relations, images = quadratic_relations(s, q), s[1:]
    else:
        beta = recurrence(x1**2 - 2 * x2, -(x2**2), n - 2)
        relations, images = ii_identity(beta[-2:], q)[-2:], [x1, x2, *beta[1:]]
    images += ring.gens[2:]
    return CorePresentation(full, Ideal(ring, relations), images)


def build_generators(spec) -> Ideal:
    """A presentation's generators in all its variables, q threaded
    through: `i_relations` on the s_k or the `ii_identity` on the b_k."""
    ring = presentation_ring(spec)
    q = q_of(ring) if spec.variant in (QUANTUM_I, QUANTUM_II) else None
    if spec.variant in (CLASSICAL_I, QUANTUM_I):
        return Ideal(ring, i_relations([ring.one, *ring.gens[: 2 * spec.n - 2]], q))
    return Ideal(ring, ii_identity([ring.one, *ring.gens[2 : spec.n]], q))


def homomorphism_relations(n: int, quantum: bool, q_mode: str, lam: int = 1) -> list:
    """The I-relations on the images of the classes in the II core, with q
    -> lam q in the quantum case: what `verify_homomorphism` reduces."""
    spec = PresentationSpec(n, QUANTUM_II if quantum else CLASSICAL_II, q_mode)
    core = build_presentation(spec)
    ring = core.ideal.ring
    images = ab_classes([ring.one] + list(core.images[2:n]))
    return i_relations(images, lam * q_of(ring) if quantum else None)


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
    the lemma's are the variables s_k, and the spectrum splits the grevlex
    basis of all QUANTUM_II's generators, its variables the coordinates; the
    regularity corank is `regularity_corank_on_all_variables`."""
    for module in (presentations, deformation):
        monkeypatch.setattr(module, "presentation_basis", generators_basis)
        monkeypatch.setattr(module, "build_presentation", identity_core)
    monkeypatch.setattr(deformation, "regularity_corank", regularity_corank_on_all_variables)

