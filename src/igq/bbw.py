"""Borel-Bott-Weil cohomology on G(2,m) and IG(2,2k), and the Ext checks
for the Lefschetz collections built from powers of the dual tautological
subbundle.

Bundle weights: S^sym U*(twist) corresponds to the weight vector
(sym + twist, twist, 0, ..., 0).  Adding rho gives (x, y) followed by the
tail of rho, with x > y the two leading entries:

* type A, G(2,m): rho = (m-1, ..., 1, 0), x = sym + twist + m - 1,
  y = twist + m - 2, tail T = {m-3, ..., 0};
* type C, IG(2,2k): rho = (k, ..., 1), x = sym + twist + k,
  y = twist + k - 1, tail T = {k-2, ..., 1}.

The tail is sorted, distinct and (in type C) positive, so Bott's theorem
reads off x and y alone.  The weight is singular iff an entry repeats: in
type A iff x or y lies in T; in type C iff an absolute value repeats or is
zero, i.e. |x| or |y| is at most k-2, or |x| == |y|.

Degree.  In type A it is the number of inversions.  x and y are outside
T, so each is either above the whole tail or, when negative, below it and
passes all m-2 tail entries:  deg = (m-2)([x<0] + [y<0]).  In type C it is
the length of the signed permutation sorting the absolute values
decreasingly, i.e. the number of positive roots made negative:
    #{i<j : mu_i < mu_j} + #{i<j : mu_i + mu_j < 0} + #{i : mu_i < 0}.
A negative x has |x| above every tail entry t, so it counts both x < t and
x + t < 0 for each of the k-2 of them, plus itself; likewise y; the pair
(x, y) adds [x + y < 0]:  deg = (2k-3)([x<0] + [y<0]) + [x+y<0].

Dimension.  Weyl's formula is a product over the sorted entries l of
weight + rho (type A: of l_i - l_j over the pairs; type C, on absolute
values: of each l_i and of l_i^2 - l_j^2 over the pairs), divided by the
same product for rho.  Both sets are T plus two leading entries, {x, y}
(or {|x|, |y|}) against rho's own two, so every factor inside T cancels:
* type A: (x - y) P(x) P(y) / ((m-1)! (m-2)!), P(z) = prod_{t in T} |z - t|,
  which is perm(z, m-2) for z > m-3 and perm(|z| + m-3, m-2) for z < 0
  (rho's leading pair gives 1 * P(m-1) P(m-2) = (m-1)! (m-2)!);
* type C, with X = |x|, Y = |y|:
      X Y |X^2 - Y^2| Q(X) Q(Y) / (k (k-1) (2k-1) Q(k) Q(k-1)),
  Q(z) = prod_{t in T} (z^2 - t^2) = perm(z-1, k-2) perm(z+k-2, k-2).

The generic algorithm (sort weight + rho, count, take the Weyl product) is
the test oracle, `tests/bbw_oracle.py`.  Ext between two bundles is the
sum over the Clebsch-Gordan pieces of the Hom bundle, and every
nonvanishing piece adds a positive dimension, so an Ext vanishes iff each
of its pieces does.

The type-C length convention is validated against Serre duality by the
property suite rather than trusted a priori.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from math import comb, factorial, perm

GR = "gr"
IGR = "igr"


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
class CohomologyResult:
    vanishes: bool
    degree: int = None
    rep_dimension: int = None


_bbw_cache: dict = {}
_VANISHING = CohomologyResult(True)


def _tail_product_gl(z: int, m: int) -> int:
    """prod |z - t| over the tail t = 0..m-3, for z outside it."""
    return perm(z, m - 2) if z >= 0 else perm(m - 3 - z, m - 2)


def _tail_product_sp(z: int, k: int) -> int:
    """prod (z^2 - t^2) over the tail t = 1..k-2, for z > k-2."""
    return perm(z - 1, k - 2) * perm(z + k - 2, k - 2)


def _closed_form(space: Space, sym: int, twist: int) -> CohomologyResult:
    """H^*(space, S^sym U*(twist)) from the two leading entries x > y of
    (sym + twist, twist, 0, ..., 0) + rho, by the formulas of the module
    docstring: singular iff type A repeats (x or y in 0..m-3) or type C
    does (|x| or |y| at most k-2, zero included, or |x| == |y|)."""
    n = space.param
    if space.kind == GR:
        x, y = sym + twist + n - 1, twist + n - 2
        if 0 <= x <= n - 3 or 0 <= y <= n - 3:
            return _VANISHING
        degree = (n - 2) * ((x < 0) + (y < 0))
        num = (x - y) * _tail_product_gl(x, n) * _tail_product_gl(y, n)
        den = factorial(n - 1) * factorial(n - 2)
    else:
        x, y = sym + twist + n, twist + n - 1
        X, Y = abs(x), abs(y)
        if X <= n - 2 or Y <= n - 2 or X == Y:
            return _VANISHING
        degree = (2 * n - 3) * ((x < 0) + (y < 0)) + (x + y < 0)
        num = X * Y * abs(X * X - Y * Y) * _tail_product_sp(X, n) * _tail_product_sp(Y, n)
        den = n * (n - 1) * (2 * n - 1) * _tail_product_sp(n, n) * _tail_product_sp(n - 1, n)
    dim, r = divmod(num, den)
    if r or dim <= 0:
        raise ArithmeticError("Weyl dimension of S^%dU*(%d) on %s is %d/%d" % (sym, twist, space, num, den))
    return CohomologyResult(False, degree, dim)


def bundle_cohomology(space: Space, sym: int, twist: int) -> CohomologyResult:
    """H^*(space, S^sym U*(twist)), memoized; every singular weight shares
    one vanishing result.  The memo key is plain ints and strings, not
    the Space, so a lookup does not hash the dataclass."""
    key = (space.kind, space.param, sym, twist)
    res = _bbw_cache.get(key)
    if res is None:
        res = _bbw_cache[key] = _closed_form(space, sym, twist)
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


def _koszul_line(k: int):
    """The staircase complexes as one line: (sym, twist, mult) at positions
    0..2k-1, with the exterior powers of the ambient 2k-dimensional space
    replaced by their dimensions, S^(k-1-j)U*(j-k) x L^j for j < k and
    S^(j-k)U* x L^(2k-1-j) after.

    The i-th staircase sheaf F_i sits between positions i-1 and i.  Its
    LEFT resolution 0 -> P_0 -> ... -> P_(i-1) -> F_i -> 0 is positions
    0..i-1, position b in degree b - (i-1); its RIGHT resolution
    0 -> F_i -> P_i -> ... -> P_(2k-1) -> 0 is positions i..2k-1, position a
    in degree a - i.  The whole line is exact.
    """
    return [
        (k - 1 - j, j - k, comb(2 * k, j)) if j < k else (j - k, 0, comb(2 * k, 2 * k - 1 - j))
        for j in range(2 * k)
    ]


def _staircase(space: Space, *indices) -> tuple:
    """(k, the Koszul line) for staircase indices that must lie in 1..k."""
    k = _f_k(space)
    if not all(1 <= i <= k for i in indices):
        raise ValueError("need 1 <= i <= k")
    return k, _koszul_line(k)


def f_complex_euler_consistency(space: Space) -> dict:
    """The Koszul line is exact, so the alternating sum of the Euler
    characteristics of its terms vanishes in every twist 0 .. 2k-1; the
    sign alternates with the position."""
    k, line = _staircase(space)
    bad = []
    for j in range(2 * k):
        total = sum(
            (-1 if pos % 2 else 1) * mult * ext_bundles(space, (0, 0), (sym, twist + j)).euler
            for pos, (sym, twist, mult) in enumerate(line)
        )
        if total:
            bad.append((j, total))
    return {"space": str(space), "k": k, "bad_twists": bad, "ok": not bad}


def _first_page(space: Space, terms) -> ExtProfile:
    """Ext^* between two complexes of bundles, read off the first page of
    the Hom double complex: `terms` yields (E, F, mult, shift) for each pair
    of a source term E and a target term F, with their multiplicities
    multiplied and the target's degree minus the source's.

    Conclusive iff the nonzero first-page total degrees contain no two
    consecutive integers (then no differential can act); inconclusive
    results are reported as such, never guessed.  The Euler number is exact
    regardless.
    """
    acc = {}
    for E, F, mult, shift in terms:
        for d, v in ext_bundles(space, E, F).dims:
            acc[d + shift] = acc.get(d + shift, 0) + mult * v
    return ExtProfile.make(acc, _no_consecutive(acc))


def ext_f_pair(space: Space, i: int, j: int) -> ExtProfile:
    """Ext^*(F_i(k-i), F_j(k-j)), each residual object in the twist it has
    in the collection, from the first page of the resolution double
    complex: the RIGHT resolution of the source (positions a >= i) against
    the LEFT resolution of the target (positions b < j).  Hom(P_a, P_b)
    depends on the twists through (twist_b + k - j) - (twist_a + k - i) and
    sits in degree (b - (j-1)) - (a - i)."""
    _, line = _staircase(space, i, j)
    return _first_page(
        space,
        (
            ((sa, ta), (sb, tb + i - j), ma * mb, b - a + i - j + 1)
            for a, (sa, ta, ma) in enumerate(line[i:], i)
            for b, (sb, tb, mb) in enumerate(line[:j])
        ),
    )


def check_f_orthogonality(space: Space, i: int) -> dict:
    """F_i(k-i) is right-orthogonal to the blocks A, A(1), ..., A(k-i):
    every Ext from a block object must vanish conclusively, computed
    against the LEFT resolution of F_i (positions b < i, twisted by k-i)."""
    k, line = _staircase(space, i)
    failures = []
    for v in range(0, k - i + 1):
        for u in range(0, k - 1):
            prof = _first_page(
                space,
                (((u, v), (sb, tb + k - i), mb, b - i + 1) for b, (sb, tb, mb) in enumerate(line[:i])),
            )
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
