"""Bundle terms and the Hom-bundle double complexes built from them: the
Ext oracle of the BBW tests, the rank identity of the acceptance gate, and
the staircase resolutions as explicit complexes, against which the
Koszul-line reading of `igq.bbw` is checked."""

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from math import comb

from igq import bbw
from igq.bbw import ExtProfile, _clebsch_gordan, _f_k, _no_consecutive, ext_bundles

LEFT = "left"
RIGHT = "right"


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
class BundleSum:
    terms: tuple

    @staticmethod
    def of(terms) -> "BundleSum":
        merged = {}
        for t in terms:
            key = (t.sym, t.twist, t.hom_shift)
            merged[key] = merged.get(key, 0) + t.scalar_mult
        out = tuple(
            BundleTerm(s, tw, m, hs)
            for (s, tw, hs), m in sorted(merged.items())
            if m
        )
        return BundleSum(out)

    def __iter__(self):
        return iter(self.terms)


def hom_bundle(a: int, c: int, b: int, d: int) -> BundleSum:
    """Hom(S^a U*(c), S^b U*(d)) as a sum of irreducibles."""
    return BundleSum.of(BundleTerm(sym, twist) for sym, twist in _clebsch_gordan(a, b, d - c))


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


def ext_first_page(space, sources, targets) -> ExtProfile:
    """Ext^* from a complex of bundle terms to another, read off the first
    page of the Hom double complex: each pair's Ext profile, times both
    scalar multiplicities, shifted by target minus source hom_shift."""
    acc = {}
    for s in sources:
        for t in targets:
            prof = ext_bundles(space, (s.sym, s.twist), (t.sym, t.twist))
            mult = s.scalar_mult * t.scalar_mult
            shift = t.hom_shift - s.hom_shift
            for d, v in prof.dims:
                acc[d + shift] = acc.get(d + shift, 0) + mult * v
    return ExtProfile.make(acc, _no_consecutive([d for d, v in acc.items() if v]))


def ext_f_pair(space, i: int, j: int) -> ExtProfile:
    """Ext^*(F_i(k-i), F_j(k-j)): the RIGHT resolution of the source against
    the LEFT resolution of the target."""
    k = _f_k(space)
    source = [s.twisted(k - i) for s in f_complex(i, k, RIGHT)]
    target = [t.twisted(k - j) for t in f_complex(j, k, LEFT)]
    return ext_first_page(space, source, target)


def check_f_orthogonality(space, i: int) -> list:
    """The failures of F_i(k-i) being right-orthogonal to the blocks
    A, ..., A(k-i), against the LEFT resolution of F_i."""
    k = _f_k(space)
    target = [t.twisted(k - i) for t in f_complex(i, k, LEFT)]
    failures = []
    for v in range(0, k - i + 1):
        for u in range(0, k - 1):
            prof = ext_first_page(space, [BundleTerm(u, v)], target)
            if prof.dims or not prof.conclusive:
                failures.append(((u, v), str(prof)))
    return failures


def euler(prof: ExtProfile) -> int:
    """The Euler number of an Ext profile: its dimensions, signed by the
    parity of their degrees."""
    return sum(-v if d % 2 else v for d, v in prof.dims)


def euler_sums(space) -> list:
    """The alternating sums of twisted Euler characteristics over the glued
    complex, for the twists 0 .. 2k-1; LEFT terms sit at absolute position
    hom_shift + (k-1), RIGHT terms at hom_shift + k."""
    k = _f_k(space)
    full = [(t.hom_shift + k - 1, t) for t in f_complex(k, k, LEFT)]
    full += [(t.hom_shift + k, t) for t in f_complex(k, k, RIGHT)]
    return [
        sum(
            (-1 if pos % 2 else 1) * t.scalar_mult * euler(ext_bundles(space, (0, 0), (t.sym, t.twist + j)))
            for pos, t in full
        )
        for j in range(2 * k)
    ]


def nonzero_shifts_in_box(space, families) -> list:
    """`igq.bbw._nonzero_shifts` testing every piece of the box around the
    families' rectangles in (sym, diagonal) coordinates, pieces that no
    rectangle holds included: the reference for the per-sym ranges.  It
    reads `bbw.bundle_cohomology` through the module, so a test that
    patches the cohomology patches both."""
    rects = [
        (abs(a - b), a + b, b - a + 2 * shifts.start, b - a + 2 * shifts.stop) if shifts else None
        for a, b, shifts in families
    ]
    boxed = [r for r in rects if r]
    if not boxed:
        return [[] for _ in families]
    sym_lo, sym_hi = min(r[0] for r in boxed), max(r[1] for r in boxed)
    diag_lo, diag_hi = min(r[2] for r in boxed), max(r[3] for r in boxed)
    bad = {}
    below = {}
    for sym in range(sym_lo, sym_hi + 1):
        marks = [0] * (diag_hi - diag_lo)
        for diag in range(diag_lo + (diag_lo - sym) % 2, diag_hi, 2):
            if not bbw.bundle_cohomology(space, sym, (diag - sym) // 2).vanishes:
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
