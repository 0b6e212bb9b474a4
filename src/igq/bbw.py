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

from bisect import bisect_left
from itertools import accumulate, product
from math import comb, factorial, perm

from . import Value, set_field

GR = "gr"
IGR = "igr"


class Space(Value):
    __slots__ = ("kind", "param")  # param: m for G(2,m); k for IG(2,2k)

    def __init__(self, kind: str, param: int):
        if kind == GR:
            if param < 4:
                raise ValueError("need m >= 4 for G(2,m)")
        elif kind == IGR:
            if param < 2:
                raise ValueError("need k >= 2 for IG(2,2k)")
        else:
            raise ValueError("unknown space kind %r" % (kind,))
        set_field(self, "kind", kind)
        set_field(self, "param", param)

    @staticmethod
    def gr(m: int) -> "Space":
        return Space(GR, m)

    @staticmethod
    def igr(k: int) -> "Space":
        return Space(IGR, k)

    def __str__(self):
        return "G(2,%d)" % self.param if self.kind == GR else "IG(2,%d)" % (2 * self.param)


class CohomologyResult(Value):
    __slots__ = ("vanishes", "degree", "rep_dimension")

    def __init__(self, vanishes: bool, degree: int = None, rep_dimension: int = None):
        set_field(self, "vanishes", vanishes)
        set_field(self, "degree", degree)
        set_field(self, "rep_dimension", rep_dimension)


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
    the Space, so a lookup hashes no record."""
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


class ExtProfile(Value):
    """Graded dimensions of an Ext computation, with a degeneration flag."""

    __slots__ = ("dims", "conclusive")  # dims: sorted ((degree, dim), ...) with dim > 0

    def __init__(self, dims: tuple, conclusive: bool):
        set_field(self, "dims", dims)
        set_field(self, "conclusive", conclusive)

    @staticmethod
    def make(degree_dims: dict, conclusive: bool) -> "ExtProfile":
        return ExtProfile(tuple(sorted((d, v) for d, v in degree_dims.items() if v)), conclusive)

    @property
    def total_dim(self) -> int:
        return sum(v for _, v in self.dims)

    def __str__(self):
        if not self.dims:
            return "0"
        return " + ".join("C^%d[%d]" % (v, d) if v > 1 else "C[%d]" % d for d, v in self.dims)


_NO_EXT = ExtProfile((), True)


def _no_consecutive(degrees) -> bool:
    degs = sorted(degrees)
    return all(b - a >= 2 for a, b in zip(degs, degs[1:]))


# Ext profiles of the space last asked about, keyed by (a, b, d - c), and
# under _RESIDUAL that space's residual first-page terms.  The sweeps run
# space by space, so one space's table is all that pays; holding every
# space's would only grow the heap.  The pair is swapped whole, here on a
# new space and by igq.clear_caches at the start of every invocation, never
# cleared in place, so a caller on another space cannot fill the wrong one.
_ext_cache: tuple = (None, {})
_RESIDUAL = "residual"


def _space_table(space: Space) -> dict:
    global _ext_cache
    held, table = _ext_cache
    if space is not held and space != held:
        table = {}
        _ext_cache = (space, table)
    return table


def ext_bundles(space: Space, E, F) -> ExtProfile:
    """Ext^*(S^a U*(c), S^b U*(d)) by summing Borel-Bott-Weil over the
    Clebsch-Gordan pieces of the Hom bundle, which depend on the twists
    only through d - c.  Always conclusive: no complexes, hence no
    spectral sequence."""
    (a, c), (b, d) = E, F
    table = _space_table(space)
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


def _nonzero_shifts(space: Space, families) -> list:
    """For each family (a, b, shifts) of keys (a, b, s), s in the range
    shifts, the sorted s whose Ext does not vanish.

    An Ext vanishes iff each Clebsch-Gordan piece of its key has vanishing
    cohomology: a piece that does not vanish adds a positive dimension, and
    nothing cancels it.  The piece of (a, b, s) with sym = a + b - 2t has
    twist s - a + t, so it lies on the diagonal sym + 2 twist = b - a + 2s,
    and sym runs over |a - b| .. a + b in steps of 2.  In (sym, diagonal)
    coordinates a family is a rectangle.  Each sym's pieces are tested once,
    from the lowest to the highest diagonal of the rectangles holding that
    sym; a piece outside every rectangle is left untested and counted as
    vanishing, which changes no rectangle's count.  Prefix counts of the
    failing pieces, summed over the syms of one parity, tell in O(1)
    whether a rectangle holds any; only those that do are searched for
    their s."""
    rects = [
        (abs(a - b), a + b, b - a + 2 * shifts.start, b - a + 2 * shifts.stop) if shifts else None
        for a, b, shifts in families
    ]
    boxed = [r for r in rects if r]
    if not boxed:
        return [[] for _ in families]
    sym_lo, sym_hi = min(r[0] for r in boxed), max(r[1] for r in boxed)
    diag_lo, diag_hi = min(r[2] for r in boxed), max(r[3] for r in boxed)
    bands = {}  # (lo, hi) -> (lowest, highest) diagonal of the rectangles with those syms
    for lo, hi, dlo, dhi in boxed:
        low, high = bands.get((lo, hi), (dlo, dhi))
        bands[lo, hi] = (dlo if dlo < low else low, dhi if dhi > high else high)
    # sym -> lowest and highest diagonal of the rectangles holding it (none: empty)
    lows, highs = [diag_hi] * (sym_hi + 1), [diag_lo] * (sym_hi + 1)
    for (lo, hi), (dlo, dhi) in bands.items():
        for sym in range(lo, hi + 1, 2):
            if dlo < lows[sym]:
                lows[sym] = dlo
            if dhi > highs[sym]:
                highs[sym] = dhi
    bad = {}  # sym -> its failing diagonals, ascending
    below = {}  # sym -> x -> failing pieces (sym' <= sym of sym's parity, diagonal < diag_lo + x)
    for sym in range(sym_lo, sym_hi + 1):
        marks = [0] * (diag_hi - diag_lo)
        for diag in range(lows[sym], highs[sym], 2):  # of sym's parity, as every rectangle's
            if not bundle_cohomology(space, sym, (diag - sym) // 2).vanishes:
                bad.setdefault(sym, []).append(diag)
                marks[diag - diag_lo] = 1
        counts = accumulate(marks, initial=0)
        prev = below.get(sym - 2)
        below[sym] = list(counts) if prev is None else [p + c for p, c in zip(prev, counts)]

    def failing(sym, lo, hi):
        row = below.get(sym)
        return row[hi - diag_lo] - row[lo - diag_lo] if row else 0

    out = []
    for (a, b, _), rect in zip(families, rects):
        found = set()
        if rect:
            lo, hi, dlo, dhi = rect
            if failing(hi, dlo, dhi) != failing(lo - 2, dlo, dhi):
                for sym in range(lo, hi + 1, 2):
                    diags = bad.get(sym, ())
                    hits = diags[bisect_left(diags, dlo) : bisect_left(diags, dhi)]
                    found.update((d - b + a) // 2 for d in hits)
        out.append(sorted(found))
    return out


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
    blocks = [sum(p > a for p in parts) for a in range(parts[0])]
    return [(a, b, range(1 - blocks[a], 1 if b < a else 0)) for a in range(parts[0]) for b in range(parts[0])]


def verify_collection(space: Space) -> dict:
    """Exceptionality of every object and vanishing of every
    wrong-direction Ext (later object against earlier object).

    The Clebsch-Gordan pieces of all wrong-direction keys are tested once
    each (`_nonzero_shifts`).  Only the keys holding a nonvanishing piece
    get a full Ext, and their pairs are listed as failures in collection
    order."""
    objects = lefschetz_collection(space)
    failures = []
    for sym, twist in objects:
        prof = ext_bundles(space, (sym, twist), (sym, twist))
        if prof.dims != ((0, 1),):
            failures.append(("exceptional", (sym, twist), str(prof)))
    keys = _wrong_direction_keys(space)
    nonzero = {
        (a, b, s): ext_bundles(space, (a, 0), (b, s))
        for (a, b, _), found in zip(keys, _nonzero_shifts(space, keys))
        for s in found
    }
    if nonzero:
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


def _f_k(space: Space, *indices) -> int:
    """k of G(2,2k) / IG(2,2k), for staircase indices that must lie in 1..k."""
    if space.kind == IGR:
        k = space.param
    elif space.param % 2:
        raise ValueError("staircase complexes live on G(2,2k) / IG(2,2k)")
    else:
        k = space.param // 2
    if not all(1 <= i <= k for i in indices):
        raise ValueError("need 1 <= i <= k")
    return k


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


def f_complex_euler_consistency(space: Space) -> dict:
    """The Koszul line is exact, so the alternating sum of the Euler
    characteristics of its terms vanishes in every twist 0 .. 2k-1; the
    sign alternates with the position.  Hom(O, S^sym U*(twist)) is the one
    Clebsch-Gordan piece S^sym U*(twist), so each Euler characteristic is
    its rep dimension, signed by the parity of its degree."""
    k = _f_k(space)
    line = _koszul_line(k)
    bad = []
    for j in range(2 * k):
        total = 0
        for pos, (sym, twist, mult) in enumerate(line):
            res = bundle_cohomology(space, sym, twist + j)
            if not res.vanishes:
                total += (-1 if (pos + res.degree) % 2 else 1) * mult * res.rep_dimension
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
    results are reported as such, never guessed.
    """
    acc = {}
    for E, F, mult, shift in terms:
        for d, v in ext_bundles(space, E, F).dims:
            acc[d + shift] = acc.get(d + shift, 0) + mult * v
    return ExtProfile.make(acc, _no_consecutive(acc))


def _residual_terms(space: Space) -> tuple:
    """Every first-page term of `ext_f_pair` and `check_f_orthogonality`,
    with the nonvanishing ones kept, memoized in the space's `_ext_cache`
    table: (line, pairs, first_target), with `line` the Koszul line,
    `pairs` mapping i - j to [(a, b, ((degree, dim), ...)), ...] and
    `first_target` mapping (u, w) to the least b with
    Ext(S^u U*, P_b(w)) != 0.

    The pair (i, j) takes source positions a >= i against target positions
    b < j, with j - i added to the target's twist; the term of (a, b) sits
    in degree (b - (j-1)) - (a - i), so it depends on (i, j) only through
    i - j, which ranges over 1-k .. min(a, k) - b - 1.  Orthogonality takes
    the block object S^u U*(v) against target positions b < i twisted by
    k - i; the term depends on (i, v) only through w = k - i - v, which
    ranges over 0 .. k-1-b.  Both families of keys go through one
    `_nonzero_shifts`, so each Clebsch-Gordan piece is tested once."""
    table = _space_table(space)
    terms = table.get(_RESIDUAL)
    if terms is not None:
        return terms
    k = _f_k(space)
    line = _koszul_line(k)
    pair_positions = list(product(range(1, 2 * k), range(k)))
    block_positions = list(product(range(k - 1), range(k)))
    families = []
    for a, b in pair_positions:
        (sa, ta, _), (sb, tb, _) = line[a], line[b]
        families.append((sa, sb, range(tb - ta + 1 - k, tb - ta + min(a, k) - b)))
    for u, b in block_positions:
        sb, tb, _ = line[b]
        families.append((u, sb, range(tb, tb + k - b)))
    found = _nonzero_shifts(space, families)
    pairs = {}
    for (a, b), shifts in zip(pair_positions, found):
        (sa, ta, ma), (sb, tb, mb) = line[a], line[b]
        for s in shifts:
            delta = s - tb + ta
            prof = ext_bundles(space, (sa, ta), (sb, tb + delta))
            dims = tuple((d + b - a + delta + 1, ma * mb * v) for d, v in prof.dims)
            pairs.setdefault(delta, []).append((a, b, dims))
    first_target = {}
    for (u, b), shifts in zip(block_positions, found[len(pair_positions):]):
        for s in shifts:
            first_target.setdefault((u, s - line[b][1]), b)
    table[_RESIDUAL] = line, pairs, first_target
    return line, pairs, first_target


def ext_f_pair(space: Space, i: int, j: int) -> ExtProfile:
    """Ext^*(F_i(k-i), F_j(k-j)), each residual object in the twist it has
    in the collection, from the first page of the resolution double
    complex: the RIGHT resolution of the source (positions a >= i) against
    the LEFT resolution of the target (positions b < j).  Hom(P_a, P_b)
    depends on the twists through (twist_b + k - j) - (twist_a + k - i) and
    sits in degree (b - (j-1)) - (a - i); the nonvanishing terms come from
    `_residual_terms`."""
    _f_k(space, i, j)
    acc = {}
    _, pairs, _ = _residual_terms(space)
    for a, b, dims in pairs.get(i - j, ()):
        if a >= i and b < j:
            for d, v in dims:
                acc[d] = acc.get(d, 0) + v
    return ExtProfile.make(acc, _no_consecutive(acc))


def check_f_orthogonality(space: Space, i: int) -> dict:
    """F_i(k-i) is right-orthogonal to the blocks A, A(1), ..., A(k-i):
    every Ext from a block object must vanish conclusively, computed
    against the LEFT resolution of F_i (positions b < i, twisted by k-i).
    The object S^u U*(v) fails iff some b < i has a nonvanishing term at
    w = k - i - v (`_residual_terms`); only a failure gets its first page."""
    k = _f_k(space, i)
    line, _, first_target = _residual_terms(space)
    failing = sorted((k - i - w, u) for (u, w), b in first_target.items() if b < i and w <= k - i)
    failures = []
    for v, u in failing:
        prof = _first_page(
            space,
            (((u, v), (sb, tb + k - i), mb, b - i + 1) for b, (sb, tb, mb) in enumerate(line[:i])),
        )
        failures.append(((u, v), str(prof)))
    return {
        "space": str(space),
        "i": i,
        "blocks": k - i + 1,
        "objects_per_block": k - 1,
        "failures": failures,
        "ok": not failures,
    }
