"""Presentations of H*(IG(2,2n)) and QH(IG(2,2n)), and the spectrum split.

Two coordinate systems are used throughout:

* the special Schubert classes s_1 .. s_{2n-2} (Chern classes of the
  tautological quotient bundle), and
* the Chern classes a_1, a_2 of the tautological subbundle together with
  b_1 .. b_{n-2} for the middle self-dual bundle.

Each classical presentation has a quantum deformation: its last relation
gains one term of degree 2n-1, written only in `quantum_relations`, and
every quantum presentation, core and homomorphism check is built from its
classical one and that term.  The I-presentations are displayed with
the determinantal relations D_3 .. D_(2n-2); the generators `--dump`
writes (`presentation_generators`) are the 2n-4 triangular rules
s_k - sigma_k(s_1, s_2) instead, which generate the same ideal
(`i_relations`); the determinants themselves are kept only in the tests,
as the oracle of that proof.

Every presentation is triangular in the paper's weighted order
(`presentation_ring`): s_k - sigma_k(s_1, s_2) for k >= 3, or b_k -
beta_k(a_1, a_2), both from one `recurrence`.  So Q[vars]/I is isomorphic
to Q[x_1, x_2(, q)]/core, the core being the two last relations with
sigma_k or beta_k substituted: a ring isomorphism that fixes the origin.
`build_presentation` returns that core and the image of every variable,
`presentation_basis` the core's reduced basis, memoized, and every check
runs there: the dimension, the homomorphism, the lemma, the regularity
corank and the spectrum, which re-bases QUANTUM_II's core in grevlex
(`decompose_spectrum`).  Only `--dump` needs the basis in all the
variables, and `full_basis` assembles it from the core's and the rules.

`split_spectrum` splits a finite quotient into its origin-supported
factor, whose length comes by Nakayama, and the reduced rest, whose
points it counts by exact linear algebra on the standard monomials:
proved modulo a prime by Wiedemann's method, and counted over Q by a
Krylov sieve on the same start vector only when that proof fails.
`count_offorigin_by_substitution` re-counts the reduced points through
the z-substitution a_1 = z_1 + z_2, a_2 = z_1 z_2, entirely by gcd
degree arithmetic.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

from . import Value, memo, set_field, univariate
from .groebner import (
    GroebnerBasis,
    Ideal,
    buchberger,
    local_length,
    multiplication_by,
    multiplication_matrices,
    normal_form,
    standard_monomials,
)
from .linalg import (
    berlekamp_massey,
    corank,
    minimal_polynomial,
    projected_sequence,
)
from .poly import Polynomial, Ring, WeightedOrder, lift

CLASSICAL_I = "CLASSICAL_I"
CLASSICAL_II = "CLASSICAL_II"
QUANTUM_I = "QUANTUM_I"
QUANTUM_II = "QUANTUM_II"
VARIANTS = (CLASSICAL_I, CLASSICAL_II, QUANTUM_I, QUANTUM_II)

SPECIALIZE_1 = "SPECIALIZE_1"
SYMBOLIC = "SYMBOLIC"


class PresentationSpec(Value):
    __slots__ = ("n", "variant", "q_mode")

    def __init__(self, n: int, variant: str, q_mode: str = SPECIALIZE_1):
        if n < 2:
            raise ValueError("need n >= 2")
        if variant not in VARIANTS:
            raise ValueError("unknown variant %r" % (variant,))
        if q_mode not in (SPECIALIZE_1, SYMBOLIC):
            raise ValueError("unknown q mode %r" % (q_mode,))
        set_field(self, "n", n)
        set_field(self, "variant", variant)
        set_field(self, "q_mode", q_mode)

    @property
    def symbolic_q(self) -> bool:
        return self.q_mode == SYMBOLIC and self.variant in (QUANTUM_I, QUANTUM_II)


def presentation_ring(spec: PresentationSpec) -> Ring:
    """The ring of a presentation in all its variables, each named with
    its degree in the paper's grading, which is written down only here:
    deg s_i = i; deg a_1 = 1, deg a_2 = 2, deg b_i = 2i; deg q = 2n-1
    when q is a variable.  The order weighs each variable by its degree,
    ties towards the later variables.  Every presentation is triangular
    there: s_r leads the rule s_r - sigma_r, whose other terms are
    products of s_1 and s_2, and b_k leads the x^(2k) coefficient of the
    `ii_identity`.  The core ring of `build_presentation` takes the
    weights of its variables from here, and on monomials in those
    variables the two orders agree: so the reduced basis in all the
    variables (`full_basis`) is the 2n-4 (or n-2) substitution rules plus
    the core's basis in two variables (`presentation_basis`); QUANTUM_I
    at n = 10 has 26 elements, against 970 in grevlex."""
    n = spec.n
    if spec.variant in (CLASSICAL_I, QUANTUM_I):
        graded = [("s%d" % i, i) for i in range(1, 2 * n - 1)]
    else:
        graded = [("a1", 1), ("a2", 2)] + [("b%d" % i, 2 * i) for i in range(1, n - 1)]
    if spec.symbolic_q:
        graded.append(("q", 2 * n - 1))
    names, weights = zip(*graded)
    return Ring(names, WeightedOrder(weights))


def q_of(ring: Ring) -> Polynomial:
    """q as a ring element: the variable in symbolic mode, else 1."""
    return ring.var("q") if "q" in ring.names else ring.one


def recurrence(c1: Polynomial, c2: Polynomial, top: int) -> list:
    """[u_0, ..., u_top] with u_(-1) = 0, u_0 = 1 and u_k = c1 u_(k-1) +
    c2 u_(k-2): the coefficients of 1 / (1 - c1 y - c2 y^2).  It solves
    both coordinate systems' identities for their higher classes:

    * sigma_k(s_1, s_2), for c1 = s_1 and c2 = s_2 - s_1^2, with y = -x in
      sum_k (-1)^k sigma_k x^k = 1 / (1 + s_1 x + (s_1^2 - s_2) x^2)
      (`i_relations`), so sigma_1 = s_1 and sigma_2 = s_2;
    * beta_k(a_1, a_2), for c1 = a_1^2 - 2a_2 and c2 = -a_2^2, with y = x^2:
      the x^(2k) coefficient of the `ii_identity` is b_k + (2a_2 - a_1^2)
      b_(k-1) + a_2^2 b_(k-2).

    Each u_k is a polynomial of weighted degree k (sigma) or 2k (beta)."""
    u = [c1.ring.one, c1]
    for _ in range(top - 1):
        u.append(c1 * u[-1] + c2 * u[-2])
    return u[: top + 1]


def quadratic_relations(s: list) -> list:
    """The two classical quadratic I-relations on the classes s = [1, s_1,
    ..., s_{2n-2}], of degrees 2n-2 and 2n."""
    n = (len(s) + 1) // 2
    rel1 = s[n - 1] ** 2
    for i in range(1, n):
        rel1 = rel1 + 2 * (-1) ** i * s[n - 1 + i] * s[n - 1 - i]
    rel2 = s[n] ** 2
    for i in range(1, n - 1):
        rel2 = rel2 + 2 * (-1) ** i * s[n + i] * s[n - i]
    return [rel1, rel2]


def i_relations(s: list) -> list:
    """The classical I-presentation relations on the classes s = [1, s_1,
    ..., s_{2n-2}], in the ring they live in: the 2n-4 triangular rules
    s_k - sigma_k(s_1, s_2), k in [3, 2n-2], with sigma_k from the
    `recurrence`, then the two `quadratic_relations`.

    The rules generate the same ideal as the displayed determinants
    D_r = det(s_{1+j-i})_{1 <= i,j <= r}, r in [3, 2n-2].  Let S(x) =
    sum_k (-1)^k s_k x^k, with s_k = 0 above 2n-2, and D(x) = sum_r D_r
    x^r, D_0 = 1.  The matrix has ones below the diagonal and zeros under
    them, so expanding along the first row gives D_r = sum_{k=1}^{r}
    (-1)^(k-1) s_k D_{r-k}, that is S D = 1 (Jacobi-Trudi; Macdonald,
    *Symmetric Functions and Hall Polynomials*, I.3).  Let D<=2 = 1 +
    D_1 x + D_2 x^2 and T = 1/D<=2 = sum_k (-1)^k sigma_k x^k.  Then

        S - T = S T (D<=2 - D)   and   D - D<=2 = D D<=2 (T - S).

    S - T starts at x^3 (sigma_1 = s_1, sigma_2 = s_2), as D - D<=2 does.
    So the x^k coefficient of either side of the first identity shows
    s_k - sigma_k to be a combination of D_3 .. D_k, and the second shows
    D_k to be one of s_3 - sigma_3 .. s_k - sigma_k: for every m the two
    lists up to m generate one ideal, in any commutative ring.

    The images may be any elements of one ring: the variables s_k give the
    presentation itself, the `ab_classes` its image in the II-presentation,
    since building the relations commutes with a ring map.
    """
    sigma = recurrence(s[1], s[2] - s[1] ** 2, len(s) - 1)
    return [s[k] - sigma[k] for k in range(3, len(s))] + quadratic_relations(s)


def _series_product(f: list, g: list, stride: int) -> list:
    """The coefficients of f(x^stride) g(x), for coefficient lists f and g
    in one ring and stride <= len(g), so that each coefficient is a sum of
    at least one product, started at its first."""
    out = [None] * (stride * (len(f) - 1) + len(g))
    for i, fi in enumerate(f):
        for j, gj in enumerate(g):
            k = stride * i + j
            out[k] = fi * gj if out[k] is None else out[k] + fi * gj
    return out


def ab_classes(b: list) -> list:
    """[1, s_1, ..., s_{2n-2}] in the a,b-coordinates, for b = [1, b_1, ...,
    b_{n-2}] in a ring with the variables a1, a2: the total Chern class of
    the quotient bundle is the product of those of the middle bundle and
    of the dual subbundle, so s_k = sum_i b_i * e_{k-2i} with (e_0, e_1,
    e_2) = (1, -a1, a2)."""
    ring = b[0].ring
    a1, a2 = ring.var("a1"), ring.var("a2")
    return _series_product(b, [ring.one, -a1, a2], 2)


def ii_identity(b: list) -> list:
    """The coefficients of x^2, x^4, ..., x^(2n) of the classical II-identity

        (1 + b_1 x^2 + ... + b_(n-2) x^(2n-4)) (1 + (2a_2 - a_1^2) x^2 + a_2^2 x^4) = 1,

    for b = [1, b_1, ..., b_(n-2)] in a ring with the variables a1, a2:
    the second factor is the total Chern class of the subbundle times that
    of its dual, (1 - a_1 x + a_2 x^2)(1 + a_1 x + a_2 x^2).

    On the variables b_k these are the II-presentation's generators.  On
    their images beta_k(a_1, a_2) (`recurrence`) the x^2 .. x^(2n-4)
    coefficients vanish, so the last two, u beta_(n-2) + v beta_(n-3) and
    v beta_(n-2) for u = 2a_2 - a_1^2 and v = a_2^2, generate the image of
    the II-ideal: they are the II core relations.  They read only the last
    two entries of b, so b[-2:] gives them too."""
    ring = b[0].ring
    a1, a2 = ring.var("a1"), ring.var("a2")
    return _series_product(b, [ring.one, 2 * a2 - a1**2, a2**2], 1)[1:]


def quantum_relations(relations: list, n: int, variant: str, x1: Polynomial) -> list:
    """A quantum presentation's relations from its classical ones: each
    lifted into the ring of x1 (`poly.lift`), and the quantum term, written
    only here, added to the last.  That term is (-1)^(n+1) q s_1 for the
    I-presentations and q a_1 for the II ones, x1 being s_1 or a_1, or its
    image under a ring map, and q being `q_of` x1's ring."""
    ring = x1.ring
    *head, top = (lift(g, ring) for g in relations)
    sign = (-1) ** (n + 1) if variant in (CLASSICAL_I, QUANTUM_I) else 1
    return head + [top + sign * q_of(ring) * x1]


def _classical(spec: PresentationSpec) -> PresentationSpec:
    """The classical presentation a quantum one deforms."""
    return PresentationSpec(spec.n, CLASSICAL_I if spec.variant == QUANTUM_I else CLASSICAL_II)


def presentation_generators(spec: PresentationSpec) -> Ideal:
    """The relation ideal in all the variables, with the generators
    `--dump` writes: `i_relations` on the variables s_k, or the
    `ii_identity` on the variables b_k, and for a quantum variant those
    with its `quantum_relations` term."""
    ring = presentation_ring(spec)
    if spec.variant in (QUANTUM_I, QUANTUM_II):
        classical = presentation_generators(_classical(spec)).generators
        return Ideal(ring, quantum_relations(classical, spec.n, spec.variant, ring.gens[0]))
    if spec.variant == CLASSICAL_I:
        return Ideal(ring, i_relations([ring.one, *ring.gens[: 2 * spec.n - 2]]))
    return Ideal(ring, ii_identity([ring.one, *ring.gens[2 : spec.n]]))


class CorePresentation(Value):
    """A presentation Q[vars]/I as its two-variable core: `ring`, the
    presentation's ring in all its variables; `ideal`, the two core
    relations in Q[x1, x2(, q)]; and `images`, the image there of each
    variable of `ring`, in its order.  Sending each variable to its image
    induces a ring isomorphism Q[vars]/I -> Q[x1, x2(, q)]/core that fixes
    the origin."""

    __slots__ = ("ring", "ideal", "images")

    def __init__(self, ring: Ring, ideal: Ideal, images):
        images = tuple(images)
        if len(images) != ring.ngens or any(p.ring != ideal.ring for p in images):
            raise ValueError("need one image in the core ring per variable of %r" % (ring,))
        set_field(self, "ring", ring)
        set_field(self, "ideal", ideal)
        set_field(self, "images", images)


_core_cache = memo()
_basis_cache = memo()
_image_relations_cache = memo()


def _memo_key(spec: PresentationSpec) -> tuple:
    """What a presentation depends on: (n, variant, whether q is a
    variable).  A classical variant has no q, so both q-modes share it."""
    return spec.n, spec.variant, spec.symbolic_q


def build_presentation(spec: PresentationSpec) -> CorePresentation:
    """The core of a presentation, memoized by `_memo_key`.  Its ring has
    the first two variables of the presentation's (s1, s2 or a1, a2), and
    q when q is a variable, in the weights `presentation_ring` gives them:
    (1, 2(, 2n-1)).  Each s_k maps to sigma_k(s1, s2), each b_k to
    beta_k(a1, a2) (`recurrence`), and the core relations are the two last
    generators of `presentation_generators` with those images
    substituted: they generate the image of I, since the other generators
    map to zero.  A quantum core is its classical one, lifted, with the
    `quantum_relations` term on x1: substituting commutes with adding it."""
    key = _memo_key(spec)
    core = _core_cache.get(key)
    if core is not None:
        return core
    n, full = spec.n, presentation_ring(spec)
    kept = [i for i, name in enumerate(full.names) if i < 2 or name == "q"]
    ring = Ring([full.names[i] for i in kept], WeightedOrder(full.order.weights[i] for i in kept))
    x1, x2 = ring.gens[:2]
    if spec.variant in (QUANTUM_I, QUANTUM_II):
        classical = build_presentation(_classical(spec))
        relations = quantum_relations(classical.ideal.generators, n, spec.variant, x1)
        # q, when it is a variable, is its own image
        images = [lift(p, ring) for p in classical.images] + list(ring.gens[2:])
    elif spec.variant == CLASSICAL_I:
        s = recurrence(x1, x2 - x1**2, 2 * n - 2)
        relations, images = quadratic_relations(s), s[1:]
    else:
        beta = recurrence(x1**2 - 2 * x2, -(x2**2), n - 2)
        relations, images = ii_identity(beta[-2:])[-2:], [x1, x2, *beta[1:]]
    core = _core_cache[key] = CorePresentation(full, Ideal(ring, relations), images)
    return core


def presentation_basis(spec: PresentationSpec) -> GroebnerBasis:
    """Reduced Groebner basis of a presentation's core (`build_presentation`),
    memoized by `_memo_key`: the one basis every check reads."""
    key = _memo_key(spec)
    gb = _basis_cache.get(key)
    if gb is None:
        gb = _basis_cache[key] = buchberger(build_presentation(spec).ideal)
    return gb


def full_basis(spec: PresentationSpec) -> GroebnerBasis:
    """The reduced basis of `presentation_generators(spec)` in the order
    of `presentation_ring`, assembled without Buchberger: v - NF(image of v)
    for each variable v outside the core, the normal form taken modulo
    the core's `presentation_basis`, and that basis, embedded.

    v leads its element: NF(image) has weighted degree at most deg v and
    lies in the core variables, which lose every tie to v.  The leads of
    two rules, or of a rule and a core element, are coprime, so those
    S-pairs reduce to zero (Buchberger's first criterion), and the core's
    own pairs do modulo its basis: the union is a Groebner basis of the
    ideal of the rules and the core, which is I.  No term of a tail is
    divisible by another lead, so it is the unique reduced basis."""
    core, gb = build_presentation(spec), presentation_basis(spec)
    ring, cring = core.ring, gb.ring
    at = [ring.index(name) for name in cring.names]

    def embed(terms):
        for e, c in terms:
            full = [0] * ring.ngens
            for i, x in zip(at, e):
                full[i] = x
            yield tuple(full), c

    elements = [ring.poly(embed(g.terms)) for g in gb]
    for name, image in zip(ring.names, core.images):
        if name not in cring.names:
            elements.append(ring.var(name) - ring.poly(embed(normal_form(image, gb).terms)))
    elements.sort(key=lambda g: ring.order.key(g.lead_monomial))
    return GroebnerBasis(ring, elements)


def presentation_dimension(spec: PresentationSpec):
    """The quotient dimension, read off the core's `presentation_basis`.
    The core quotient is isomorphic to the presentation's, and the
    standard monomials of a Groebner basis in any monomial order are a
    vector-space basis of the quotient (Cox, Little & O'Shea, *Ideals,
    Varieties, and Algorithms*, ch. 5 sec. 3), so their number depends
    neither on the order nor on the coordinates."""
    return len(standard_monomials(presentation_basis(spec)))


# ---------------------------------------------------------------------------
# the homomorphism between the two coordinate systems


def _image_relations(n: int) -> tuple:
    """(s_1's image, the classical `i_relations` on the images) in
    CLASSICAL_II's core ring, the images being `ab_classes` with each b_k
    replaced by beta_k(a1, a2); memoized by n, since both cases and both
    q-modes of `verify_homomorphism` start from them."""
    out = _image_relations_cache.get(n)
    if out is None:
        core = build_presentation(PresentationSpec(n, CLASSICAL_II))
        images = ab_classes([core.ideal.ring.one, *core.images[2:n]])
        out = _image_relations_cache[n] = images[1], i_relations(images)
    return out


def verify_homomorphism(n: int, quantum: bool, q_mode: str = SPECIALIZE_1) -> dict:
    """Build the I-presentation's relations on the images `ab_classes` of
    the classes, with each b_k replaced by its image beta_k(a1, a2) in the
    II-presentation's core (`_image_relations`), and reduce them modulo
    the core's `presentation_basis`.  The quantum relations with q -> lambda q
    are the classical ones with the `quantum_relations` term on lambda s_1.

    Replacing b_k by beta_k changes each image by an element of the
    II-ideal, and the core map is an isomorphism of quotients, so an image
    relation reduces to zero modulo the core exactly when it lies in the
    II-ideal.  A ring map sends generators of an ideal to generators of
    its image, so the images of the triangular rules generate the same
    ideal as the images of the determinants D_r (`i_relations`): all of
    them reduce to zero exactly when all of those do, and whether a normal
    form is zero does not depend on the term order.

    Classically all images must reduce to zero exactly.  In the quantum
    case a single global rescaling q -> lambda*q with lambda in {+1, -1}
    must make all images reduce to zero; the lambda found is reported.  If
    no lambda works the claim is falsified and reported as such.
    """
    spec = PresentationSpec(n, QUANTUM_II if quantum else CLASSICAL_II, q_mode)
    gb_ii = presentation_basis(spec)
    s1, relations = _image_relations(n)

    def residuals(lam):
        rels = quantum_relations(relations, n, QUANTUM_I, lam * lift(s1, gb_ii.ring)) if quantum else relations
        return [normal_form(g, gb_ii) for g in rels]

    if not quantum:
        res = residuals(1)
        ok = all(r.is_zero for r in res)
        return {"n": n, "quantum": False, "lambda": None, "ok": ok,
                "nonzero": [r for r in res if not r.is_zero]}
    for lam in (1, -1):
        res = residuals(lam)
        if all(r.is_zero for r in res):
            return {"n": n, "quantum": True, "lambda": lam, "ok": True, "nonzero": []}
    return {"n": n, "quantum": True, "lambda": None, "ok": False,
            "nonzero": [r for r in residuals(1) if not r.is_zero]}


# ---------------------------------------------------------------------------
# spectrum of the quantum quotient


class SpectrumReport(Value):
    __slots__ = (
        "total_dim",
        "tangent_dim_origin",
        "local_length_origin",
        "offorigin_dim",
        "offorigin_distinct_points",
        "separating_form",
    )

    def __init__(
        self,
        total_dim: int,
        tangent_dim_origin: int,
        local_length_origin: int,
        offorigin_dim: int,
        offorigin_distinct_points: int,
        separating_form: str = "",
    ):
        set_field(self, "total_dim", total_dim)
        set_field(self, "tangent_dim_origin", tangent_dim_origin)
        set_field(self, "local_length_origin", local_length_origin)
        set_field(self, "offorigin_dim", offorigin_dim)
        set_field(self, "offorigin_distinct_points", offorigin_distinct_points)
        set_field(self, "separating_form", separating_form)

    def as_tuple(self):
        return (
            self.total_dim,
            self.tangent_dim_origin,
            self.local_length_origin,
            self.offorigin_dim,
            self.offorigin_distinct_points,
        )


def origin_tangent_dimension(ideal: Ideal) -> int:
    """Dimension of the Zariski tangent space at the origin: number of
    variables minus the rank of the linear parts of the generators."""
    ring = ideal.ring
    rows = []
    for g in ideal.generators:
        lin = g.linear_coefficients()
        rows.append([lin.get(name, Fraction(0)) for name in ring.names])
    return corank(rows, ring.ngens)


def _separating_coeffs(count: int) -> list:
    """The first `count` coefficients of the separating forms: 1, then the
    primes 2, 3, 5, ..."""
    out = [1]
    k = 1
    while len(out) < count:
        k += 1
        if all(k % p for p in out[1:]):
            out.append(k)
    return out


_PRIME = 2**61 - 1  # the modulus of the point-count proof in split_spectrum


def _functional(dim: int) -> list:
    """The random functional the proof mod p starts from, drawn from a
    fixed seed so that runs repeat."""
    rng = random.Random(0)
    return [rng.randrange(_PRIME) for _ in range(dim)]


def split_spectrum(gb: GroebnerBasis, coordinates: dict):
    """Split a finite quotient A = Q[vars]/I as A_0 x A_off, A_0 supported
    at the origin, and count the distinct points of A_off, on the
    condition that the first variable v vanishes at none of them.

    Returns (local length at the origin, dim A_off, distinct off-origin
    points, separating form).  A form l is sum c_x x over the
    `coordinates` x, {name: polynomial}, printed by name.  L = dim A_0 by
    Nakayama (`groebner.local_length`), and m^L A_0 = 0, m the maximal
    ideal of the origin, so w = M_v^L 1 lies in A_off.  The points are
    counted along a verified-generic l, M_l from one normal form
    (`groebner.multiplication_by`), by the least monic mu with
    mu(M_l) w = 0.  On the local ring of A_off at a point P, l - l(P) is
    nilpotent, so the distinct roots of mu are the values l(P) at the
    points where w is nonzero.  Fewer than d = dim A_off such values
    exist unless every point is reduced, in w's support and separated by
    l: d distinct roots prove all three, whatever the input.  When v
    vanishes at no point, w = v^L e_off, e_off the idempotent of A_off, is
    nonzero at every point, so a reduced A_off and a separating l give d
    roots.  Makes four attempts, with shifted coefficient sequences.  Each
    first tries to prove the count modulo the prime p = 2^61 - 1, by
    Wiedemann's method (IEEE Trans. Inf. Theory 32, 1986):

    * M_l preserves A_0 and A_off, so its characteristic polynomial on A
      is t^L chi.  When M_l is p-integral, chi is too: its coefficients
      are a shift of that polynomial's.  Cayley-Hamilton gives
      chi(M_l) w = 0, which reduces mod p.  So for any u, chi mod p
      annihilates the sequence s_i = u M_l^i w mod p, and Berlekamp-Massey
      on s_0 .. s_(2d-1) returns a divisor g of chi mod p.
    * If g has d distinct roots over the algebraic closure of F_p, then
      g = chi mod p, which is therefore squarefree.  Its discriminant is
      that of chi reduced mod p, so chi is squarefree over Q.
    * By Stickelberger's theorem (Cox, Little & O'Shea, *Using Algebraic
      Geometry*, ch. 2 sec. 4) the roots of chi are the values l(P) at
      the points P of A_off, each as often as the length of A at P.  So
      A_off is d reduced points that l separates.  g also divides the
      reduction of a primitive integral multiple of mu, so mu has degree
      d: mu = chi, and the exact count below would give d too.

    A bad u can only make g a proper divisor of chi mod p, with fewer than
    d roots: it makes the proof fail, never wrong.  When the proof fails
    (an entry whose denominator p divides, an unlucky u, or points that
    collide mod p), the attempt runs the exact Krylov sieve over Q on w
    and counts the roots of mu, so the forms chosen, the counts and the
    RuntimeErrors below do not depend on p or u.  A repeated root of mu
    refuses at once: on a reduced A_off multiplication by l is semisimple,
    so mu is squarefree for every form, and no further attempt could
    succeed.  Any other count below d comes from a non-reduced A_off,
    colliding values of l, or a point of A_off where v vanishes, and after
    four attempts the RuntimeError names all three.

    On QUANTUM_II's core, v = a1 vanishes at no point of A_off: b_k =
    beta_k(a1, a2), with beta_0 = 1, beta_1 = a1^2 - 2a2 and beta_k =
    beta_1 beta_(k-1) - a2^2 beta_(k-2), and R2 = a2^2 beta_(n-2) + a1 is
    in the ideal.  At a1 = 0, beta_k = (k+1)(-a2)^k, so R2 = (n-1)(-1)^n
    a2^n forces a2 = 0, and then every b_k = 0: the origin.
    """
    mats = multiplication_matrices(gb)
    dim = len(mats[0])
    length = local_length(gb)
    off_dim = dim - length
    u = _functional(dim)
    w = [int(i == 0) for i in range(dim)]  # std[0] is 1
    for _ in range(length):  # w = M_v^L 1, in A_off
        w = [sum(x * w[j] for j, x in row) for row in mats[0]]
    tried = []
    for attempt in range(4):
        coeffs = _separating_coeffs(attempt + len(coordinates))[attempt:]
        form = " + ".join("%d*%s" % (c, nm) for c, nm in zip(coeffs, coordinates))
        ell = sum((c * x for c, x in zip(coeffs, coordinates.values())), gb.ring.zero)
        m_ell = multiplication_by(ell, gb, mats)
        try:
            seq = projected_sequence(m_ell, w, u, 2 * off_dim, _PRIME)
            count = univariate.distinct_root_count(berlekamp_massey(seq, _PRIME), _PRIME)
        except ValueError:  # M_l or w not p-integral, or a degree not below p
            count = None
        if count != off_dim:
            mu = minimal_polynomial(m_ell, w)
            count = univariate.distinct_root_count(mu)
            if count < len(mu) - 1:
                raise RuntimeError(
                    "no separating form found: the minimal polynomial of %s has a "
                    "repeated root, so the off-origin part is non-reduced" % form
                )
        if count == off_dim:
            return length, off_dim, count, form
        tried.append((form, count))
    raise RuntimeError(
        "no separating form found (counts %r vs dimension %d): either the "
        "off-origin part is non-reduced, all projections collided, or the first "
        "variable vanishes at an off-origin point" % (tried, off_dim)
    )


_spectrum_cache = memo()


def decompose_spectrum(n: int) -> SpectrumReport:
    """Split Spec of the quantum quotient (q = 1) into the origin-supported
    factor and the off-origin part, and count the latter's distinct points
    by a verified-generic projection.  It splits QUANTUM_II's core, its
    `presentation_basis` re-based in grevlex on Q[a1, a2], with each b_k
    read as its image beta_k(a1, a2) in the forms.  The core map fixes the
    origin, so the core's tangent space there has the presentation's
    dimension."""
    if n in _spectrum_cache:
        return _spectrum_cache[n]
    spec = PresentationSpec(n, QUANTUM_II, SPECIALIZE_1)
    gb = presentation_basis(spec)
    core = build_presentation(spec)
    ring = Ring(gb.ring.names)
    core_gb = buchberger(Ideal(ring, [ring.poly(g.terms) for g in gb]))
    coordinates = {name: ring.poly(image.terms) for name, image in zip(core.ring.names, core.images)}
    length, off_dim, count, form = split_spectrum(core_gb, coordinates)
    # the core lies in m, so the linear parts of its basis span those of its elements
    report = SpectrumReport(
        total_dim=length + off_dim,
        tangent_dim_origin=origin_tangent_dimension(Ideal(gb.ring, gb)),
        local_length_origin=length,
        offorigin_dim=off_dim,
        offorigin_distinct_points=count,
        separating_form=form,
    )
    _spectrum_cache[n] = report
    return report


def _cover_polynomial(n: int) -> list:
    """f(z) = (z^{2n} - z)^{2n} - z^{2n} as a coefficient list: the terms
    z^{2nk} (-z)^{2n-k}, binomially weighted, of exponent 2n + k(2n - 1),
    less z^{2n}, which cancels the k = 0 term.  So f(0) = 0, and every
    exponent left is at least 4n - 1."""
    f = [0] * (4 * n * n + 1)
    for k in range(2 * n + 1):
        f[2 * n * k + 2 * n - k] += (-1) ** k * comb(2 * n, k)
    f[2 * n] -= 1
    return f


def count_offorigin_by_substitution(n: int) -> int:
    """Independent count of the off-origin points via the double cover
    z_1 + z_2 = a_1, z_1 z_2 = a_2 (q = 1), by gcd degrees only.

    Roots of f(z) = (z^{2n} - z)^{2n} - z^{2n} parametrize candidate z_1.
    The locus z = 0, the z_2 = 0 branch (roots of z^{2n} - z) and the
    diagonal z_1 = z_2 (roots of z^{2n} - 2z) are the roots f shares with
    g = (z^{2n} - z)(z^{2n} - 2z), so the remaining candidates number
    #roots f - #roots gcd(f, g), each count deg h - deg gcd(h, h'); that
    number is halved since the cover is 2:1 off the diagonal.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    f = _cover_polynomial(n)
    g = [0] * (4 * n + 1)  # z^{4n} - 3 z^{2n+1} + 2 z^2
    g[4 * n], g[2 * n + 1], g[2] = 1, -3, 2
    remaining = univariate.distinct_root_count(f) - univariate.distinct_root_count(univariate.univ_gcd(f, g))
    if remaining % 2:
        raise RuntimeError(
            "odd residual count %d: the double cover accounting failed" % remaining
        )
    return remaining // 2

