"""Weighted homogeneity of the presentations' generators in the paper's
grading, which the tests check the relation builders against, and the
presentations' grevlex bases, which the tests hold the weighted ones
against."""

from igq.groebner import buchberger
from igq.presentations import (
    PresentationSpec,
    SPECIALIZE_1,
    SYMBOLIC,
    VARIANTS,
    ab_weights,
    build_presentation,
    sigma_weights,
    weighted_order,
)


def grevlex_basis(spec):
    """The reduced basis of a presentation in grevlex, built as
    `decompose_spectrum` builds QUANTUM_II's: by sugar in the paper's
    grading."""
    return buchberger(build_presentation(spec), weighted_order(spec).weights)


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
        weights = sigma_weights(n) if is_i else ab_weights(n)
        rules = [[k] for k in range(3, 2 * n - 1)] if is_i else []
        for q_mode in (SYMBOLIC, SPECIALIZE_1):
            gens = build_presentation(PresentationSpec(n, variant, q_mode)).generators
            degs = [sorted(g.weighted_degrees(weights)) for g in gens]
            ok = degs[: len(rules)] == rules
            if q_mode == SYMBOLIC:
                ok = ok and all(len(d) == 1 for d in degs)
            out[variant, q_mode] = {"ok": ok, "degrees": degs}
    return out
