"""Presentations of H*(IG(2,2n)) and QH(IG(2,2n)), and the spectrum split.

Two coordinate systems are used throughout:

* the special Schubert classes s_1 .. s_{2n-2} (Chern classes of the
  tautological quotient bundle), and
* the Chern classes a_1, a_2 of the tautological subbundle together with
  b_1 .. b_{n-2} for the middle self-dual bundle.

Each classical presentation has a quantum deformation obtained by a single
degree-(2n-1) correction term.  The I-presentations are displayed with
the determinantal relations D_3 .. D_(2n-2); every check builds them
from the 2n-4 triangular rules s_k - sigma_k(s_1, s_2) instead, which
generate the same ideal (`i_relations`), and keeps the determinants for
the generators `--dump` writes.  Each reduced basis is memoized by the
ideal and the term order (`presentation_basis`): `dims`, `homomorphism`
and the lemma read the bases in the paper's weighted order
(`weighted_order`), where every presentation is triangular, and the
spectrum reads QUANTUM_II in grevlex.

`decompose_spectrum` splits Spec of the quantum quotient into its
origin-supported part and the reduced rest by exact linear algebra in
coordinates on the standard monomials: the
origin factor is the joint generalized kernel of the multiplication
matrices, found inside the generalized kernel of the first variable's
matrix, and the rest is counted through the minimal polynomial of M_l,
for a separating linear form l, on 1 modulo the origin factor: proved
modulo a prime by Berlekamp-Massey on the sequence u M_l^i M_v^L 1, v the
first variable and L the local length, for a random functional u
(Wiedemann's method), and computed over Q by a Krylov sieve only when
that proof fails.  `count_offorigin_by_substitution` re-counts the
reduced points through the z-substitution a_1 = z_1 + z_2, a_2 = z_1 z_2,
entirely by gcd degree arithmetic.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

from . import Value, set_field
from .groebner import (
    GroebnerBasis,
    Ideal,
    buchberger,
    multiplication_matrices,
    normal_form,
    standard_monomials,
)
from .linalg import (
    berlekamp_massey,
    corank,
    generalized_kernel,
    minimal_polynomial,
    projected_sequence,
)
from .poly import GREVLEX, Polynomial, Ring, TermOrder, WeightedOrder
from .univariate import distinct_root_count, univ_gcd

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


def sigma_ring(n: int, symbolic_q: bool = False) -> Ring:
    names = tuple("s%d" % i for i in range(1, 2 * n - 1))
    if symbolic_q:
        names += ("q",)
    return Ring(names)


def ab_ring(n: int, symbolic_q: bool = False) -> Ring:
    names = ("a1", "a2") + tuple("b%d" % i for i in range(1, n - 1))
    if symbolic_q:
        names += ("q",)
    return Ring(names)


def sigma_weights(n: int) -> dict:
    w = {"s%d" % i: i for i in range(1, 2 * n - 1)}
    w["q"] = 2 * n - 1
    return w


def ab_weights(n: int) -> dict:
    w = {"a1": 1, "a2": 2}
    w.update({"b%d" % i: 2 * i for i in range(1, n - 1)})
    w["q"] = 2 * n - 1
    return w


def sigma_classes(ring: Ring, n: int) -> list:
    """[1, s_1, ..., s_{2n-2}] in a ring that has the variables s_1 .. s_{2n-2}."""
    return [ring.one] + [ring.var("s%d" % k) for k in range(1, 2 * n - 1)]


def q_of(ring: Ring) -> Polynomial:
    """q as a ring element: the variable in symbolic mode, else 1."""
    return ring.var("q") if "q" in ring.names else ring.one


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


def triangular_rules(s: list) -> list:
    """[s_k - sigma_k for k in [3, 2n-2]] on the classes s = [1, s_1, ...,
    s_{2n-2}], where sum_k (-1)^k sigma_k x^k = 1 / (1 + s_1 x +
    (s_1^2 - s_2) x^2).  Comparing coefficients gives sigma_0 = 1,
    sigma_1 = s_1 and sigma_k = s_1 sigma_{k-1} + (s_2 - s_1^2)
    sigma_{k-2}, so sigma_2 = s_2 and each sigma_k is a polynomial in s_1,
    s_2 of weighted degree k with about k/2 terms."""
    top = len(s) - 1
    sigma = [s[0], s[1]]
    step = s[2] - s[1] ** 2
    for k in range(2, top + 1):
        sigma.append(s[1] * sigma[k - 1] + step * sigma[k - 2])
    return [s[k] - sigma[k] for k in range(3, top + 1)]


def i_relations(s: list, q: Polynomial = None) -> list:
    """The I-presentation relations on the classes s = [1, s_1, ..., s_{2n-2}],
    in the ring they live in: the `triangular_rules`, then the two
    `quadratic_relations` (q as there).

    The rules generate the same ideal as the displayed determinants D_r,
    r in [3, 2n-2].  Let S(x) = sum_k (-1)^k s_k x^k, with s_k = 0 above
    2n-2, and D(x) = sum_r D_r x^r.  The recursion in `schur_determinants`
    says S D = 1 (Jacobi-Trudi; Macdonald, *Symmetric Functions and Hall
    Polynomials*, I.3).  Let D<=2 = 1 + D_1 x + D_2 x^2 and T = 1/D<=2 =
    sum_k (-1)^k sigma_k x^k.  Then

        S - T = S T (D<=2 - D)   and   D - D<=2 = D D<=2 (T - S).

    S - T starts at x^3 (sigma_1 = s_1, sigma_2 = s_2), as D - D<=2 does.
    So the x^k coefficient of either side of the first identity shows
    s_k - sigma_k to be a combination of D_3 .. D_k, and the second shows
    D_k to be one of s_3 - sigma_3 .. s_k - sigma_k: for every m the two
    lists up to m generate one ideal, in any commutative ring.

    The images may be any elements of one ring: the variables s_k give the
    presentation itself, the expressions `sigma_in_ab` give its image in
    the a,b-ring, since building the relations commutes with a ring map.
    """
    return triangular_rules(s) + quadratic_relations(s, q)


def _chern_series_coeffs(n: int, ring: Ring):
    """Coefficients (in x^2 steps) of (1 + (2a2 - a1^2)x^2 + a2^2 x^4) *
    (1 + b1 x^2 + ... + b_{n-2} x^{2n-4})."""
    a1, a2 = ring.var("a1"), ring.var("a2")
    first = [ring.one, 2 * a2 - a1**2, a2**2]
    second = [ring.one] + [ring.var("b%d" % i) for i in range(1, n - 1)]
    out = [ring.zero] * (len(first) + len(second) - 1)
    for i, f in enumerate(first):
        for j, g in enumerate(second):
            out[i + j] = out[i + j] + f * g
    return out


def build_presentation(
    spec: PresentationSpec, order: TermOrder = GREVLEX, schur: bool = False
) -> Ideal:
    """The relation ideal in `order`: for the I-variants `i_relations` on
    the variables s_k, with the determinants D_3 .. D_(2n-2) in place of
    the triangular rules when `schur` is set (the generators as displayed,
    which `--dump` writes); for the II-variants the coefficients of x^2,
    ..., x^{2n} of the total-Chern-class identity."""
    n = spec.n
    quantum = spec.variant in (QUANTUM_I, QUANTUM_II)
    if spec.variant in (CLASSICAL_I, QUANTUM_I):
        ring = Ring(sigma_ring(n, spec.symbolic_q).names, order)
        s, q = sigma_classes(ring, n), q_of(ring) if quantum else None
        if schur:
            return Ideal(ring, schur_determinants(s, 2 * n - 2)[3:] + quadratic_relations(s, q))
        return Ideal(ring, i_relations(s, q))
    ring = Ring(ab_ring(n, spec.symbolic_q).names, order)
    gens = _chern_series_coeffs(n, ring)[1 : n + 1]
    if quantum:
        gens[-1] = gens[-1] + q_of(ring) * ring.var("a1")
    return Ideal(ring, gens)


_basis_cache: dict = {}


def weighted_order(spec: PresentationSpec) -> WeightedOrder:
    """The paper's weighted order on the presentation ring's variables
    (deg s_i = i, deg a_1 = 1, deg a_2 = 2, deg b_i = 2i, deg q = 2n-1;
    ties towards the later variables).  Every presentation is triangular
    there: s_r leads the rule s_r - sigma_r, whose other terms are
    products of s_1 and s_2, and b_k leads the x^(2k) coefficient of the
    II-identity.  So its reduced basis is 2n-4 (or n-2) substitution
    rules plus a small core in two variables: QUANTUM_I at n = 10 has 26
    elements, against 970 in grevlex."""
    if spec.variant in (CLASSICAL_I, QUANTUM_I):
        ring, w = sigma_ring(spec.n, spec.symbolic_q), sigma_weights(spec.n)
    else:
        ring, w = ab_ring(spec.n, spec.symbolic_q), ab_weights(spec.n)
    return WeightedOrder(tuple(w[name] for name in ring.names))


def presentation_basis(spec: PresentationSpec, order: TermOrder = GREVLEX) -> GroebnerBasis:
    """Reduced Groebner basis of a presentation ideal in `order`, cached by
    the ideal and the order: (n, variant, whether q is a variable, order).
    A classical variant has no q, so both q-modes share its entries.

    The grevlex bases are the ones `--dump` writes and the sha256 goldens
    pin, and the spectrum split reads QUANTUM_II's: in grevlex its
    multiplication matrices have entries of at most 4 bits, where in the
    weighted order M_l carries 49-bit entries at n = 10 and 78-bit ones at
    n = 14, with 1.7-1.8 times as many nonzeros.  Every other check reads
    the basis in `weighted_order`, which is cheap.

    Buchberger selects pairs by sugar in the paper's grading, in which
    every presentation is weighted-homogeneous, so the run goes degree by
    degree.  For the q = 1 quantum variants the generators' sugars are the
    degrees of their q-homogenized forms, so the same weights act as a
    phantom homogenization by q of weight 2n-1."""
    key = (spec.n, spec.variant, spec.symbolic_q, order)
    gb = _basis_cache.get(key)
    if gb is None:
        grading = weighted_order(spec).weights
        gb = _basis_cache[key] = buchberger(build_presentation(spec, order), grading)
    return gb


def presentation_dimension(spec: PresentationSpec):
    """The quotient dimension, read off the basis in `weighted_order`.
    The standard monomials of a Groebner basis in any monomial order are
    a vector-space basis of the quotient (Cox, Little & O'Shea, *Ideals,
    Varieties, and Algorithms*, ch. 5 sec. 3), so their number does not
    depend on the order: this is the dimension the grevlex basis gives."""
    return len(standard_monomials(presentation_basis(spec, weighted_order(spec))))


# ---------------------------------------------------------------------------
# the homomorphism between the two coordinate systems


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


def verify_homomorphism(n: int, quantum: bool, q_mode: str = SPECIALIZE_1) -> dict:
    """Build the I-presentation's relations on the images sigma_in_ab of
    the classes, in the II-presentation's ring, and reduce them modulo its
    basis in `weighted_order`.

    A ring map sends generators of an ideal to generators of its image, so
    the images of the triangular rules generate the same ideal as the
    images of the determinants D_r (`i_relations`): all of them reduce to
    zero exactly when all of those do, and whether a normal form is zero
    does not depend on the term order.

    Classically all images must reduce to zero exactly.  In the quantum
    case a single global rescaling q -> lambda*q with lambda in {+1, -1}
    must make all images reduce to zero; the lambda found is reported.  If
    no lambda works the claim is falsified and reported as such.
    """
    spec = PresentationSpec(n, QUANTUM_II if quantum else CLASSICAL_II, q_mode)
    gb_ii = presentation_basis(spec, weighted_order(spec))
    ring = gb_ii.ring
    images = [ring.one] + [sigma_in_ab(n, k, ring) for k in range(1, 2 * n - 1)]

    def residuals(lam):
        q = lam * q_of(ring) if quantum else None
        return [normal_form(g, gb_ii) for g in i_relations(images, q)]

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


def split_spectrum(gb: GroebnerBasis):
    """Split a finite quotient A = Q[vars]/I as A_0 x A_off, A_0 supported
    at the origin, and count the distinct points of A_off.

    Returns (local length at the origin, dim A_off, distinct off-origin
    points, separating form).  The points are counted along a
    verified-generic linear form l: A/A_0 is A_off as an A-module, with
    the class of 1 going to the idempotent e_off, so the least monic mu
    with mu(M_l) 1 in A_0 is the minimal polynomial of l on A_off; it has
    d = dim A_off distinct roots exactly when A_off is reduced and l
    separates its points.  Makes four attempts, with shifted coefficient
    sequences.

    The origin factor A_0, the joint generalized kernel of the M_v, is
    exact over Q (`linalg.generalized_kernel`).  Each attempt first tries
    to prove the count modulo the prime p = 2^61 - 1, by Wiedemann's
    method (IEEE Trans. Inf. Theory 32, 1986):

    * M_v, v the first variable, is nilpotent on the L-dimensional A_0,
      so w = M_v^L 1 = M_v^L e_off lies in A_off.
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
      A_off is d reduced points that l separates, mu = chi, and the exact
      count below would give d too.

    A bad u can only make g a proper divisor of chi mod p, with fewer than
    d roots: it makes the proof fail, never wrong.  When the proof fails
    (an entry whose denominator p divides, a point of A_off where v
    vanishes (it drops out of w), an unlucky u, points that collide mod
    p, or a non-reduced A_off), the attempt runs the exact Krylov sieve
    over Q on 1 modulo A_0 and counts the roots of mu, so the forms
    chosen, the counts and the RuntimeErrors below do not depend on p, u
    or w.  A repeated root of mu refuses at once: on a reduced A_off
    multiplication by l is semisimple, so mu is squarefree for every
    form, and no further attempt could succeed.

    For QUANTUM_II, v = a1 vanishes at no point of A_off: the generalized
    kernel of M_a1 alone has dimension n - 1 = L
    (`test_origin_factor_spans_the_joint_generalized_kernel`, n <= 8).
    """
    mats = multiplication_matrices(gb)
    dim = len(mats[0])
    origin = generalized_kernel(mats, dim)
    length = len(origin)
    off_dim = dim - length
    u = _functional(dim)
    sparse = [[[(j, x) for j, x in enumerate(row) if x] for row in M] for M in mats]
    w = one = [int(i == 0) for i in range(dim)]  # std[0] is 1
    for _ in range(length):  # w = M_v^L 1, in A_off
        w = [sum(x * w[j] for j, x in row) for row in sparse[0]]
    ring = gb.ring
    tried = []
    for attempt in range(4):
        coeffs = _separating_coeffs(attempt + ring.ngens)[attempt:]
        m_ell = []  # M_l = sum_v c_v M_v, as rows of (column, entry)
        for i in range(dim):
            acc = {}
            for c, M in zip(coeffs, sparse):
                for j, x in M[i]:
                    acc[j] = acc.get(j, 0) + c * x
            m_ell.append([(j, x) for j, x in acc.items() if x])
        form = " + ".join("%d*%s" % (c, nm) for c, nm in zip(coeffs, ring.names))
        try:
            seq = projected_sequence(m_ell, w, u, 2 * off_dim, _PRIME)
            count = distinct_root_count(berlekamp_massey(seq, _PRIME), _PRIME)
        except ValueError:  # M_l or w not p-integral, or a degree not below p
            count = None
        if count != off_dim:
            mu = minimal_polynomial(m_ell, one, modulo=origin)
            count = distinct_root_count(mu)
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
        "off-origin part is non-reduced or all projections collided" % (tried, off_dim)
    )


_spectrum_cache: dict = {}


def decompose_spectrum(n: int) -> SpectrumReport:
    """Split Spec of the quantum quotient (q = 1) into the origin-supported
    factor and the off-origin part, and count the latter's distinct points
    by a verified-generic projection."""
    if n in _spectrum_cache:
        return _spectrum_cache[n]
    spec = PresentationSpec(n, QUANTUM_II, SPECIALIZE_1)
    length, off_dim, count, form = split_spectrum(presentation_basis(spec))
    report = SpectrumReport(
        total_dim=length + off_dim,
        tangent_dim_origin=origin_tangent_dimension(build_presentation(spec)),
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
    remaining = distinct_root_count(f) - distinct_root_count(univ_gcd(f, g))
    if remaining % 2:
        raise RuntimeError(
            "odd residual count %d: the double cover accounting failed" % remaining
        )
    return remaining // 2

