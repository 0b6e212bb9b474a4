"""Borel-Bott-Weil cohomology on G(2,m) and IG(2,2k), and the Ext checks
for the Lefschetz collections built from powers of the dual tautological
subbundle.

Bundle weights: S^sym U*(twist) corresponds to the weight vector
(sym + twist, twist, 0, ..., 0).  The dotted Weyl action is realized by
adding rho, testing regularity, and counting the sorting steps:

* type A (GL(m), rho = (m-1, ..., 1, 0)): singular iff two entries repeat;
  the degree is the inversion count of the sorting permutation;
* type C (Sp(2k), rho = (k, ..., 1)): singular iff an entry is zero or two
  entries share an absolute value; the degree is the length of the signed
  permutation sorting the vector to strictly-decreasing-positive, i.e. the
  number of positive roots made negative:
      #{i<j : mu_i < mu_j} + #{i<j : mu_i + mu_j < 0} + #{i : mu_i < 0}.

The tail of rho is distinct (and nonzero in type C), so only the two
leading entries of a bundle weight plus rho can make it singular; that test
is closed form (`_singular`).  Ext between two bundles is the sum over the
Clebsch-Gordan pieces of the Hom bundle, and every nonvanishing piece adds
a positive dimension, so an Ext vanishes iff each of its pieces does.

The type-C length convention is validated against Serre duality by the
property suite rather than trusted a priori.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from math import comb

GR = "gr"
IGR = "igr"
LEFT = "left"
RIGHT = "right"


@dataclass(frozen=True)
class Space:
    kind: str
    param: int  # m for G(2,m); k for IG(2,2k)

    def __post_init__(self):
        if self.kind == GR:
            if self.param < 4:
                raise ValueError("need m >= 4 for G(2,m)")
        elif self.kind == IGR:
            if self.param < 2:
                raise ValueError("need k >= 2 for IG(2,2k)")
        else:
            raise ValueError("unknown space kind %r" % (self.kind,))

    @staticmethod
    def gr(m: int) -> "Space":
        return Space(GR, m)

    @staticmethod
    def igr(k: int) -> "Space":
        return Space(IGR, k)

    @property
    def dimension(self) -> int:
        return 2 * (self.param - 2) if self.kind == GR else 4 * self.param - 5

    @property
    def index(self) -> int:
        return self.param if self.kind == GR else 2 * self.param - 1

    def __str__(self):
        return "G(2,%d)" % self.param if self.kind == GR else "IG(2,%d)" % (2 * self.param)


@dataclass(frozen=True)
class BundleTerm:
    sym: int
    twist: int
    scalar_mult: int = 1
    hom_shift: int = 0

    def __post_init__(self):
        if self.sym < 0 or self.scalar_mult < 1:
            raise ValueError("malformed bundle term")

    def twisted(self, j: int) -> "BundleTerm":
        return BundleTerm(self.sym, self.twist + j, self.scalar_mult, self.hom_shift)

    def __str__(self):
        body = "O" if self.sym == 0 else ("U*" if self.sym == 1 else "S%dU*" % self.sym)
        if self.twist:
            body += "(%d)" % self.twist
        return body if self.scalar_mult == 1 else "%d.%s" % (self.scalar_mult, body)


@dataclass(frozen=True)
class CohomologyResult:
    vanishes: bool
    degree: int = None
    highest_weight: tuple = None
    rep_dimension: int = None

    @staticmethod
    def zero() -> "CohomologyResult":
        return CohomologyResult(True)

    @staticmethod
    def of(degree, hw, dim) -> "CohomologyResult":
        return CohomologyResult(False, degree, tuple(hw), dim)


def weyl_dimension_gl(hw) -> int:
    """Dimension of the GL irrep with the given highest weight."""
    m = len(hw)
    num = den = 1
    for i in range(m):
        for j in range(i + 1, m):
            num *= hw[i] - hw[j] + j - i
            den *= j - i
    d, r = divmod(num, den)
    if r or d <= 0:
        raise ArithmeticError("Weyl dimension of %r is %d/%d" % (hw, num, den))
    return d


def weyl_dimension_sp(hw) -> int:
    """Dimension of the Sp(2k) irrep with the given highest weight."""
    k = len(hw)
    rho = [k - i for i in range(k)]
    l = [hw[i] + rho[i] for i in range(k)]
    num = den = 1
    for i in range(k):
        num *= l[i]
        den *= rho[i]
        for j in range(i + 1, k):
            num *= l[i] ** 2 - l[j] ** 2
            den *= rho[i] ** 2 - rho[j] ** 2
    d, r = divmod(num, den)
    if r or d <= 0:
        raise ArithmeticError("Weyl dimension of %r is %d/%d" % (hw, num, den))
    return d


def bbw_gl(weight, m: int) -> CohomologyResult:
    """Cohomology of the irreducible homogeneous bundle on G(2,m) with the
    given length-m weight."""
    weight = tuple(weight)
    if len(weight) != m:
        raise ValueError("weight must have length %d" % m)
    rho = tuple(m - 1 - i for i in range(m))
    mu = tuple(w + r for w, r in zip(weight, rho))
    if len(set(mu)) != m:
        return CohomologyResult.zero()
    inversions = sum(
        1 for i in range(m) for j in range(i + 1, m) if mu[i] < mu[j]
    )
    if inversions > m * (m - 1) // 2:
        raise ArithmeticError("length %d exceeds the full flag bound" % inversions)
    hw = tuple(x - r for x, r in zip(sorted(mu, reverse=True), rho))
    return CohomologyResult.of(inversions, hw, weyl_dimension_gl(hw))


def bbw_sp(weight, k: int) -> CohomologyResult:
    """Cohomology of the irreducible homogeneous bundle on IG(2,2k) with the
    given length-k weight."""
    weight = tuple(weight)
    if len(weight) != k:
        raise ValueError("weight must have length %d" % k)
    rho = tuple(k - i for i in range(k))
    mu = tuple(w + r for w, r in zip(weight, rho))
    if 0 in mu or len({abs(x) for x in mu}) != k:
        return CohomologyResult.zero()
    length = (
        sum(1 for i in range(k) for j in range(i + 1, k) if mu[i] < mu[j])
        + sum(1 for i in range(k) for j in range(i + 1, k) if mu[i] + mu[j] < 0)
        + sum(1 for x in mu if x < 0)
    )
    if length > k * k:
        raise ArithmeticError("length %d exceeds the full flag bound" % length)
    hw = tuple(x - r for x, r in zip(sorted((abs(x) for x in mu), reverse=True), rho))
    return CohomologyResult.of(length, hw, weyl_dimension_sp(hw))


_bbw_cache: dict = {}
_VANISHING = CohomologyResult.zero()


def _singular(space: Space, sym: int, twist: int) -> bool:
    """Whether (sym + twist, twist, 0, ..., 0) + rho is singular, from its
    two leading entries x > y: type A repeats iff x or y is in 0..m-3, type C
    iff |x| or |y| is at most k-2 (zero included) or |x| == |y|."""
    n = space.param
    if space.kind == GR:
        return 0 <= sym + twist + n - 1 <= n - 3 or 0 <= twist + n - 2 <= n - 3
    x, y = abs(sym + twist + n), abs(twist + n - 1)
    return x <= n - 2 or y <= n - 2 or x == y


def bundle_cohomology(space: Space, sym: int, twist: int) -> CohomologyResult:
    """H^*(space, S^sym U*(twist)), memoized; every singular weight shares
    one vanishing result."""
    key = (space, sym, twist)
    res = _bbw_cache.get(key)
    if res is None:
        if _singular(space, sym, twist):
            res = _VANISHING
        else:
            weight = (sym + twist, twist) + (0,) * (space.param - 2)
            res = (bbw_gl if space.kind == GR else bbw_sp)(weight, space.param)
        _bbw_cache[key] = res
    return res


def _clebsch_gordan(a: int, b: int, shift: int):
    """(sym, twist) of each irreducible piece of Hom(S^a U*, S^b U*(shift)),
    each of multiplicity one: rank-2 Clebsch-Gordan after S^a U = S^a U*(-a)."""
    if a < 0 or b < 0:
        raise ValueError("negative symmetric powers")
    for i in range(min(a, b) + 1):
        yield a + b - 2 * i, shift - a + i


@dataclass(frozen=True)
class ExtProfile:
    """Graded dimensions of an Ext computation, with a degeneration flag."""

    dims: tuple  # sorted ((degree, dim), ...) with dim > 0
    conclusive: bool
    euler: int

    @staticmethod
    def make(degree_dims: dict, conclusive: bool) -> "ExtProfile":
        dims = tuple(sorted((d, v) for d, v in degree_dims.items() if v))
        euler = sum(-v if d % 2 else v for d, v in dims)
        return ExtProfile(dims, conclusive, euler)

    def as_dict(self) -> dict:
        return dict(self.dims)

    @property
    def is_zero(self) -> bool:
        return not self.dims

    @property
    def total_dim(self) -> int:
        return sum(v for _, v in self.dims)

    def __str__(self):
        if not self.dims:
            return "0"
        return " + ".join("C^%d[%d]" % (v, d) if v > 1 else "C[%d]" % d for d, v in self.dims)


_NO_EXT = ExtProfile((), True, 0)


def _no_consecutive(degrees) -> bool:
    degs = sorted(degrees)
    return all(b - a >= 2 for a, b in zip(degs, degs[1:]))


# Ext profiles of the space last asked about, keyed by (a, b, d - c).  The
# sweeps run space by space, so one space's table is all that pays; holding
# every space's would only grow the heap.  The table is swapped whole, never
# cleared in place, so a caller on another space cannot fill the wrong one.
_ext_cache: tuple = (None, {})


def ext_bundles(space: Space, E, F) -> ExtProfile:
    """Ext^*(S^a U*(c), S^b U*(d)) by summing Borel-Bott-Weil over the
    Clebsch-Gordan pieces of the Hom bundle, which depend on the twists
    only through d - c.  Always conclusive: no complexes, hence no
    spectral sequence."""
    global _ext_cache
    (a, c), (b, d) = E, F
    held, table = _ext_cache
    if space is not held and space != held:
        table = {}
        _ext_cache = (space, table)
    key = (a, b, d - c)
    prof = table.get(key)
    if prof is None:
        acc = {}
        for sym, twist in _clebsch_gordan(a, b, d - c):
            res = bundle_cohomology(space, sym, twist)
            if not res.vanishes:
                acc[res.degree] = acc.get(res.degree, 0) + res.rep_dimension
        prof = table[key] = ExtProfile.make(acc, True) if acc else _NO_EXT
    return prof


# ---------------------------------------------------------------------------
# Lefschetz collections


def support_partition(space: Space):
    if space.kind == GR:
        m = space.param
        k = m // 2
        if m % 2:
            return [k] * (2 * k + 1)
        return [k] * k + [k - 1] * k
    k = space.param
    return [k] * (k - 1) + [k - 1] * k


def lefschetz_collection(space: Space):
    """Objects S^{i-1}U*(j) in collection order, as (sym, twist) pairs."""
    out = []
    for j, lam in enumerate(support_partition(space)):
        for i in range(1, lam + 1):
            out.append((i - 1, j))
    return out


def _wrong_direction_keys(space: Space):
    """(a, b, shifts): the keys (a, b, d - c) of the pairs S^a U*(c) after
    S^b U*(d) in the collection are those with d - c in shifts.  Block 0
    holds every sym, so the earlier block d reaches c - 1 down to 0, for
    any block c with a part above a; within one block, b < a adds 0."""
    parts = support_partition(space)
    return [
        (a, b, range(1 - sum(p > a for p in parts), 1 if b < a else 0))
        for a in range(parts[0])
        for b in range(parts[0])
    ]


def verify_collection(space: Space) -> dict:
    """Exceptionality of every object and vanishing of every
    wrong-direction Ext (later object against earlier object).

    An Ext vanishes iff each Clebsch-Gordan piece of its key has vanishing
    cohomology: a piece that does not vanish adds a positive dimension, and
    nothing cancels it.  So the distinct pieces of all wrong-direction keys
    are tested once each.  Only the keys holding a
    nonvanishing piece get a full Ext, and their pairs are listed as
    failures in collection order."""
    objects = lefschetz_collection(space)
    failures = []
    for sym, twist in objects:
        prof = ext_bundles(space, (sym, twist), (sym, twist))
        if prof.dims != ((0, 1),):
            failures.append(("exceptional", (sym, twist), str(prof)))
    keys = _wrong_direction_keys(space)
    pieces = set()
    for a, b, shifts in keys:
        for sym, twist in _clebsch_gordan(a, b, 0):
            pieces.update(zip(repeat(sym), range(twist + shifts.start, twist + shifts.stop)))
    bad = {p for p in pieces if not bundle_cohomology(space, *p).vanishes}
    if bad:
        nonzero = {
            (a, b, s): ext_bundles(space, (a, 0), (b, s))
            for a, b, shifts in keys
            for s in shifts
            if not bad.isdisjoint(_clebsch_gordan(a, b, s))
        }
        for i, (a, c) in enumerate(objects):
            for b, d in objects[:i]:
                prof = nonzero.get((a, b, d - c))
                if prof is not None:
                    failures.append(("semiorthogonal", ((a, c), (b, d)), str(prof)))
    return {
        "space": str(space),
        "objects": len(objects),
        "pairs": len(objects) * (len(objects) - 1) // 2,
        "failures": failures,
        "ok": not failures,
    }


# ---------------------------------------------------------------------------
# the staircase complexes and the residual-category Ext profiles


def _f_k(space: Space) -> int:
    if space.kind == IGR:
        return space.param
    if space.param % 2:
        raise ValueError("staircase complexes live on G(2,2k) / IG(2,2k)")
    return space.param // 2


def f_complex(i: int, k: int, side: str):
    """The two resolutions of the i-th staircase sheaf F_i, with exterior
    powers of the ambient 2k-dimensional space replaced by their scalar
    multiplicities.

    LEFT: 0 -> T_0 -> ... -> T_{i-1} -> F_i -> 0 (terms at hom_shift
    j - (i-1) for j = 0..i-1).  RIGHT: 0 -> F_i -> R_0 -> ... ->
    R_{2k-i-1} -> 0 (terms at hom_shift 0..2k-i-1); its second half is the
    Koszul line of twist-free symmetric powers.
    """
    if not 1 <= i <= k:
        raise ValueError("need 1 <= i <= k")

    def line_term(j: int) -> BundleTerm:
        if j <= k - 1:
            return BundleTerm(k - 1 - j, j - k, comb(2 * k, j))
        return BundleTerm(j - k, 0, comb(2 * k, 2 * k - 1 - j))

    if side == LEFT:
        return [
            BundleTerm(t.sym, t.twist, t.scalar_mult, j - (i - 1))
            for j, t in ((j, line_term(j)) for j in range(i))
        ]
    if side == RIGHT:
        return [
            BundleTerm(t.sym, t.twist, t.scalar_mult, j - i)
            for j, t in ((j, line_term(j)) for j in range(i, 2 * k))
        ]
    raise ValueError("side must be LEFT or RIGHT")


def euler_characteristic(space: Space, term: BundleTerm) -> int:
    prof = ext_bundles(space, (0, 0), (term.sym, term.twist))
    return term.scalar_mult * prof.euler


def f_complex_euler_consistency(space: Space) -> dict:
    """The glued complex is exact, so the alternating sum of twisted Euler
    characteristics vanishes for every twist 0 .. 2k-1.

    LEFT terms sit at absolute position hom_shift + (k-1), RIGHT terms at
    hom_shift + k; the sign alternates with the absolute position.
    """
    k = _f_k(space)
    full = [(t.hom_shift + k - 1, t) for t in f_complex(k, k, LEFT)]
    full += [(t.hom_shift + k, t) for t in f_complex(k, k, RIGHT)]
    bad = []
    for j in range(2 * k):
        total = sum(
            (-1 if pos % 2 else 1) * euler_characteristic(space, t.twisted(j))
            for pos, t in full
        )
        if total:
            bad.append((j, total))
    return {"space": str(space), "k": k, "bad_twists": bad, "ok": not bad}


def _ext_first_page(space: Space, sources, targets) -> ExtProfile:
    """Ext^* from a complex of bundle terms to another, read off the first
    page of the Hom double complex: each pair's Ext profile, times both
    scalar multiplicities, shifted by target minus source hom_shift.

    Conclusive iff the nonzero first-page total degrees contain no two
    consecutive integers (then no differential can act); inconclusive
    results are reported as such, never guessed.  The Euler number is exact
    regardless.
    """
    acc = {}
    for s in sources:
        for t in targets:
            prof = ext_bundles(space, (s.sym, s.twist), (t.sym, t.twist))
            mult = s.scalar_mult * t.scalar_mult
            shift = t.hom_shift - s.hom_shift
            for d, v in prof.dims:
                acc[d + shift] = acc.get(d + shift, 0) + mult * v
    return ExtProfile.make(acc, _no_consecutive([d for d, v in acc.items() if v]))


def ext_f_pair(space: Space, i: int, j: int) -> ExtProfile:
    """Ext^*(F_i(k-i), F_j(k-j)), each residual object in the twist it has
    in the collection, from the first page of the resolution double
    complex: the RIGHT resolution of the source against the LEFT
    resolution of the target."""
    k = _f_k(space)
    source = [s.twisted(k - i) for s in f_complex(i, k, RIGHT)]
    target = [t.twisted(k - j) for t in f_complex(j, k, LEFT)]
    return _ext_first_page(space, source, target)


def check_f_orthogonality(space: Space, i: int) -> dict:
    """F_i(k-i) is right-orthogonal to the blocks A, A(1), ..., A(k-i):
    every Ext from a block object must vanish conclusively, computed
    against the LEFT resolution of F_i."""
    k = _f_k(space)
    target = [t.twisted(k - i) for t in f_complex(i, k, LEFT)]
    failures = []
    for v in range(0, k - i + 1):
        for u in range(0, k - 1):
            prof = _ext_first_page(space, [BundleTerm(u, v)], target)
            if not (prof.is_zero and prof.conclusive):
                failures.append(((u, v), str(prof)))
    return {
        "space": str(space),
        "i": i,
        "blocks": k - i + 1,
        "objects_per_block": k - 1,
        "failures": failures,
        "ok": not failures,
    }


def serre_duality_holds(space: Space, E, F) -> bool:
    """dim Ext^d(E, F) == dim Ext^{dim - d}(F, E(-index)) for all d."""
    (a, c), (b, d) = E, F
    left = ext_bundles(space, (a, c), (b, d)).as_dict()
    right = ext_bundles(space, (b, d), (a, c - space.index)).as_dict()
    n = space.dimension
    return all(left.get(deg, 0) == right.get(n - deg, 0) for deg in range(n + 1))
