"""Hom(S^a U*(c), S^b U*(d)) as a sum of irreducible bundles: the Ext
oracle of the BBW tests and the rank identity of the acceptance gate."""

from dataclasses import dataclass

from igq.bbw import BundleTerm, _clebsch_gordan


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
