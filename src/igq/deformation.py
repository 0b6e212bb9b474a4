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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .groebner import normal_form
from .linalg import corank
from .poly import Polynomial
from .presentations import (
    PresentationSpec,
    QUANTUM_I,
    SPECIALIZE_1,
    SYMBOLIC,
    _sigma,
    sigma_generators,
    sigma_ring,
    sigma_square_relations,
    sigma_weights,
    weighted_basis,
)

UNIT = ("unit",)
SIGMA_PRIME = ("sigma_prime",)


def sigma_tag(i: int):
    return ("sigma", i)


class UntrackedCorrectionError(ValueError):
    """A first-order correction was requested outside the tracked set."""


class QuantumContext:
    """The small quantum ring of IG(2,2n) as a quotient: normal forms are
    taken modulo the sigma-side quantum basis, with q = 1 or symbolic.

    The basis is `weighted_basis`, in the paper's weighted order, in which
    s_r leads the determinant D_r: every other term of D_r has the same
    weighted degree r and a positive exponent at some s_i with i < r.  So
    the basis is 2n-4 substitution rules plus a small core in s_1, s_2.
    Every check here asks whether a normal form is zero, or compares two
    normal forms: p reduces to zero modulo a Groebner basis of I exactly
    when p is in I, whatever the order, and two normal forms in one basis
    agree exactly when p - p' is in I.  The one normal form a report
    prints, the t-coefficient (-1)^n q in `verify_lemma_presentation`, is
    a constant or q itself, which no basis rewrites: the ideal holds no
    element of degree 2n-1 that involves q."""

    def __init__(self, n: int, symbolic_q: bool = False):
        self.n = n
        self.symbolic_q = symbolic_q
        mode = SYMBOLIC if symbolic_q else SPECIALIZE_1
        self.gb = weighted_basis(PresentationSpec(n, QUANTUM_I, mode))
        self.ring = self.gb.ring

    def nf(self, p: Polynomial) -> Polynomial:
        return normal_form(p, self.gb)

    def sigma(self, k: int) -> Polynomial:
        return _sigma(self.ring, self.n, k)

    @property
    def q(self) -> Polynomial:
        return self.ring.var("q") if self.symbolic_q else self.ring.one


_context_cache: dict = {}


def quantum_context(n: int, symbolic_q: bool = False) -> QuantumContext:
    key = (n, symbolic_q)
    if key not in _context_cache:
        _context_cache[key] = QuantumContext(n, symbolic_q)
    return _context_cache[key]


@dataclass(frozen=True)
class QHElement:
    ctx: QuantumContext
    value: Polynomial

    @staticmethod
    def make(ctx: QuantumContext, p: Polynomial) -> "QHElement":
        return QHElement(ctx, ctx.nf(p))

    @property
    def is_zero(self) -> bool:
        return self.value.is_zero

    def _check(self, other):
        if self.ctx is not other.ctx:
            raise ValueError("mode mismatch between quantum ring elements")

    def __add__(self, other):
        self._check(other)
        return QHElement(self.ctx, self.ctx.nf(self.value + other.value))

    def __sub__(self, other):
        self._check(other)
        return QHElement(self.ctx, self.ctx.nf(self.value - other.value))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QHElement(self.ctx, self.value * other)
        self._check(other)
        return QHElement(self.ctx, self.ctx.nf(self.value * other.value))

    __rmul__ = __mul__


@dataclass(frozen=True)
class FirstOrderElement:
    """A quantum class plus its t-linear correction (t^2 = 0)."""

    p0: QHElement
    p1: QHElement

    @staticmethod
    def of(ctx: QuantumContext, p: Polynomial) -> "FirstOrderElement":
        zero = QHElement(ctx, ctx.ring.zero)
        return FirstOrderElement(QHElement.make(ctx, p), zero)

    def __add__(self, other):
        return FirstOrderElement(self.p0 + other.p0, self.p1 + other.p1)

    def __sub__(self, other):
        return FirstOrderElement(self.p0 - other.p0, self.p1 - other.p1)

    def __mul__(self, c):
        return FirstOrderElement(self.p0 * c, self.p1 * c)

    __rmul__ = __mul__


def tau_correction(ctx: QuantumContext, xtag, ytag) -> Fraction:
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
        if i < 1 or j < 1 or i > 2 * ctx.n - 2 or j > 2 * ctx.n - 2:
            raise UntrackedCorrectionError("tags out of range: %r, %r" % (xtag, ytag))
        if i + j > 2 * ctx.n - 2:
            raise UntrackedCorrectionError(
                "correction for s_%d * s_%d (degree %d > 2n-2) is not tracked"
                % (i, j, i + j)
            )
        return Fraction(1) if i + j == 2 * ctx.n - 2 else Fraction(0)
    if tags == {SIGMA_PRIME, sigma_tag(1)}:
        return Fraction(1)
    raise UntrackedCorrectionError("correction undefined for %r, %r" % (xtag, ytag))


def correction_table(ctx: QuantumContext) -> dict:
    """All nonzero tracked corrections, as a symmetric map from tag pairs
    to rational multiples of q."""
    n = ctx.n
    table = {}
    for i in range(1, 2 * n - 2):
        j = 2 * n - 2 - i
        table[(sigma_tag(i), sigma_tag(j))] = Fraction(1)
        table[(sigma_tag(j), sigma_tag(i))] = Fraction(1)
    table[(SIGMA_PRIME, sigma_tag(1))] = Fraction(1)
    table[(sigma_tag(1), SIGMA_PRIME)] = Fraction(1)
    return table


def star_tau(x: FirstOrderElement, y: FirstOrderElement, xtag, ytag) -> FirstOrderElement:
    """First-order product: (x0*y0, x0*y1 + x1*y0 + correction(xtag, ytag))."""
    ctx = x.p0.ctx
    corr = tau_correction(ctx, xtag, ytag)
    p0 = x.p0 * y.p0
    p1 = x.p0 * y.p1 + x.p1 * y.p0
    if corr:
        p1 = p1 + QHElement.make(ctx, corr * ctx.q)
    return FirstOrderElement(p0, p1)


def sigma_prime(ctx: QuantumContext) -> QHElement:
    """The second degree-(2n-3) class: s_{2n-4} *_0 s_1 - s_{2n-3}.

    Must be nonzero; in symbolic-q mode it must also be weighted-pure of
    degree 2n-3 (a genuine class, not a q-correction artifact).
    """
    n = ctx.n
    sp = QHElement.make(ctx, ctx.sigma(2 * n - 4) * ctx.sigma(1) - ctx.sigma(2 * n - 3))
    if sp.is_zero:
        raise AssertionError("expected a second class of degree 2n-3")
    if ctx.symbolic_q:
        degs = sp.value.weighted_degrees(sigma_weights(n))
        if degs != {2 * n - 3}:
            raise AssertionError("degree-impure class: weighted degrees %r" % degs)
    return sp


def verify_lemma_presentation(n: int, symbolic_q: bool = False) -> dict:
    """Re-derive the first-order shape of the deformed relations.

    (a) the degree-(2n-2) quadratic relation, multiplied out with *_tau,
        has t-coefficient (-1)^n q;
    (b) the first-column expansion residue of the top determinantal
        relation (s_{2n-4}*s_2 - s_{2n-4}*s_1*s_1 + s_{2n-3}*s_1 - s_{2n-2})
        has zero t-coefficient and zero t^0 normal form;
    (c) the degree-2n relation is recorded as O(t): its t^0 part reduces
        to zero, and nothing is asserted about its t-coefficient.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    ctx = quantum_context(n, symbolic_q)
    fo = lambda k: FirstOrderElement.of(ctx, ctx.sigma(k))
    tag = lambda k: sigma_tag(k) if k else UNIT
    report = {"n": n, "symbolic_q": symbolic_q}

    # (a) sum the tracked corrections across the quadratic relation
    total = star_tau(fo(n - 1), fo(n - 1), tag(n - 1), tag(n - 1))
    for i in range(1, n):
        term = star_tau(fo(n - 1 + i), fo(n - 1 - i), tag(n - 1 + i), tag(n - 1 - i))
        total = total + 2 * (-1) ** i * term
    expected_mult = Fraction((-1) ** n)
    expected_t = QHElement.make(ctx, expected_mult * ctx.q)
    report["sigma_2n2_t0_zero"] = total.p0.is_zero
    report["sigma_2n2_t_coeff"] = total.p1.value
    report["sigma_2n2_t_ok"] = total.p1.value == expected_t.value
    # the telescoping identity behind (a), asserted symbolically
    coeff_sum = Fraction(1) + 2 * sum(Fraction((-1) ** i) for i in range(1, n - 1))
    report["telescoping_ok"] = coeff_sum == expected_mult

    # cross-check against the t-entry the corank matrix uses for this row
    report["rel2_t_entry"] = Fraction((-1) ** (n + 1))
    report["cross_ok"] = expected_mult + report["rel2_t_entry"] == 0

    # (b) the first-column expansion residue, built with tracked products
    inner = star_tau(fo(2 * n - 4), fo(1), tag(2 * n - 4), tag(1))
    sp = sigma_prime(ctx)
    head_class = QHElement.make(ctx, ctx.sigma(2 * n - 3))
    if (inner.p0 - head_class).value != sp.value:
        raise AssertionError("product of the two classes split incorrectly")
    head = FirstOrderElement(head_class, inner.p1)
    prime_part = FirstOrderElement(sp, QHElement(ctx, ctx.ring.zero))
    outer = star_tau(head, fo(1), tag(2 * n - 3), tag(1)) + star_tau(
        prime_part, fo(1), SIGMA_PRIME, tag(1)
    )
    expr = (
        star_tau(fo(2 * n - 4), fo(2), tag(2 * n - 4), tag(2))
        - outer
        + star_tau(fo(2 * n - 3), fo(1), tag(2 * n - 3), tag(1))
        - fo(2 * n - 2)
    )
    report["delta_t_coeff"] = expr.p1.value
    report["delta_t_ok"] = expr.p1.is_zero
    report["delta_t0_ok"] = expr.p0.is_zero

    # (c) record the degree-2n relation as O(t)
    q_poly = ctx.q
    rel2 = sigma_square_relations(n, ctx.ring, True, q_poly)[1]
    report["sigma_2n_t0_zero"] = ctx.nf(rel2).is_zero

    report["ok"] = all(
        report[k]
        for k in (
            "sigma_2n2_t0_zero",
            "sigma_2n2_t_ok",
            "telescoping_ok",
            "cross_ok",
            "delta_t_ok",
            "delta_t0_ok",
            "sigma_2n_t0_zero",
        )
    )
    return report


# ---------------------------------------------------------------------------
# regularity of the deformed ring, through the tangent-space corank


def regularity_corank(n: int) -> int:
    """Corank of the matrix of linear parts of the deformed relations, in
    the variables (s_1, ..., s_{2n-2}, t); regularity means corank 1.

    Rows: the linear part of each determinantal relation (taken from the
    actual determinant expansion), the linear part of the degree-(2n-2)
    quadratic relation with its (-1)^{n+1} q t correction, and the linear
    part of the degree-2n relation (whose t-term vanishes).
    """
    ring = sigma_ring(n)
    names = ring.names

    def linear_row(p: Polynomial, t_entry=Fraction(0)):
        lin = p.linear_coefficients()
        return [lin.get(nm, Fraction(0)) for nm in names] + [t_entry]

    *dets, rel1, rel2 = sigma_generators(n, ring, True, ring.one)
    rows = [linear_row(g) for g in dets]
    rows.append(linear_row(rel1, Fraction((-1) ** (n + 1))))
    rows.append(linear_row(rel2))
    return corank(rows, len(names) + 1)
