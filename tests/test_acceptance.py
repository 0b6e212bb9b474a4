"""Acceptance gate: every criterion at its exact (zero-tolerance) value,
one printed line per criterion.  Run with `pytest -s tests/test_acceptance.py`
to see the lines; the full default suite stays well under five minutes.
"""

import itertools
import random
from fractions import Fraction

from igq.bbw import (
    Space,
    ext_bundles,
    ext_f_pair,
    f_complex_euler_consistency,
    lefschetz_collection,
    verify_collection,
)
from igq.deformation import regularity_corank, verify_lemma_presentation
from igq.groebner import Ideal, buchberger, normal_form, standard_monomials
from igq.poly import GREVLEX, Ring, WeightedOrder
from igq.presentations import (
    PresentationSpec,
    QUANTUM_II,
    VARIANTS,
    count_offorigin_by_substitution,
    decompose_spectrum,
    full_basis,
    presentation_basis,
    presentation_dimension,
    presentation_generators,
)
from igq.unfolding import match_quantum_factor

from bundle_oracle import hom_bundle, serre_duality_holds
from groebner_oracle import is_groebner
from presentation_oracle import ab_weights, grading, grevlex_basis, weighted_homogeneity_report


def _verdict(criterion: str, ok: bool, detail: str = ""):
    print("[%s] %s%s" % ("PASS" if ok else "FAIL", criterion, " - " + detail if detail else ""))
    assert ok, "%s: %s" % (criterion, detail)


def test_criterion_01_dimensions():
    expected = {2: 4, 3: 12, 4: 24, 5: 40}
    results = {}
    for n, want in expected.items():
        for variant in VARIANTS:
            dim = presentation_dimension(PresentationSpec(n, variant))
            results[(n, variant)] = dim
    ok = all(results[(n, v)] == expected[n] for n in expected for v in VARIANTS)
    _verdict(
        "criterion 1: quotient dimensions 2n(n-1) for all four presentations, n=2..5",
        ok,
        str({n: results[(n, QUANTUM_II)] for n in expected}),
    )


def test_criterion_01b_dimensions_n6():
    dims = {variant: presentation_dimension(PresentationSpec(6, variant)) for variant in VARIANTS}
    _verdict(
        "criterion 1b: quotient dimension 60 = 2n(n-1) for all four presentations at n=6",
        all(d == 60 for d in dims.values()),
        str(dims),
    )


def test_criterion_02_spectrum_decomposition():
    got = {n: decompose_spectrum(n).as_tuple() for n in (2, 3, 4, 5)}
    expected = {
        2: (4, 0, 1, 3, 3),
        3: (12, 1, 2, 10, 10),
        4: (24, 1, 3, 21, 21),
        5: (40, 1, 4, 36, 36),
    }
    _verdict("criterion 2: spectrum split (total, tangent, length, off, points)", got == expected, str(got))


def test_criterion_02b_spectrum_n6():
    rep = decompose_spectrum(6)
    count = count_offorigin_by_substitution(6)
    label = match_quantum_factor(6)["label"]
    ok = rep.as_tuple() == (60, 1, 5, 55, 55) and count == 55 == rep.offorigin_distinct_points
    ok = ok and label == "A5"
    _verdict(
        "criterion 2b: spectrum split at n=6, 55 points counted both ways, label A5",
        ok,
        "%s, zcount %d, %s" % (rep.as_tuple(), count, label),
    )


def test_criterion_02c_spectrum_n7():
    rep = decompose_spectrum(7)
    count = count_offorigin_by_substitution(7)
    label = match_quantum_factor(7)["label"]
    ok = rep.as_tuple() == (84, 1, 6, 78, 78) and count == 78 == rep.offorigin_distinct_points
    ok = ok and label == "A6"
    _verdict(
        "criterion 2c: spectrum split at n=7, 78 points counted both ways, label A6",
        ok,
        "%s, zcount %d, %s" % (rep.as_tuple(), count, label),
    )


def test_criterion_03_independent_point_count():
    ok = True
    detail = {}
    for n in (2, 3, 4, 5):
        cnt = count_offorigin_by_substitution(n)
        detail[n] = cnt
        ok = ok and cnt == (n - 1) * (2 * n - 1)
        ok = ok and cnt == decompose_spectrum(n).offorigin_distinct_points
    _verdict("criterion 3: substitution count equals (n-1)(2n-1) and the projection count", ok, str(detail))


def test_criterion_04_first_order_relations():
    ok = True
    detail = {}
    for n in (3, 4, 5):
        rep = verify_lemma_presentation(n)
        detail[n] = str(rep["sigma_2n2_t_coeff"])
        ok = ok and rep["sigma_2n2_t_ok"] and rep["sigma_2n2_t_coeff"] == Fraction((-1) ** n)
        ok = ok and rep["delta_t_ok"] and rep["delta_t0_ok"]
    _verdict("criterion 4: t-coefficients (-1)^n q and vanishing determinant residue, n=3..5", ok, str(detail))


def test_criterion_05_regularity_corank():
    coranks = {n: regularity_corank(n) for n in range(2, 7)}
    _verdict("criterion 5: tangent-space corank 1 for n=2..6", all(c == 1 for c in coranks.values()), str(coranks))


def test_criterion_06_collections():
    spaces = [Space.gr(4), Space.gr(6), Space.gr(5), Space.gr(7),
              Space.igr(2), Space.igr(3), Space.igr(4)]
    reports = {str(s): verify_collection(s) for s in spaces}
    ok = all(r["ok"] for r in reports.values())
    _verdict(
        "criterion 6: Lefschetz collections exceptional and semiorthogonal on G(2,4..7), IG(2,4..8)",
        ok,
        str({k: r["objects"] for k, r in reports.items()}),
    )


def test_criterion_07_key_ext():
    ok = True
    detail = {}
    for k in (2, 3, 4):
        prof = ext_bundles(Space.igr(k), (k - 1, 0), (k - 1, 1 - k))
        detail[k] = str(prof)
        ok = ok and prof.dims == ((2 * k - 3, 1),)
    _verdict("criterion 7: Ext(S^{k-1}U*, S^{k-1}U*(1-k)) = C in degree 2k-3, k=2..4", ok, str(detail))


def test_criterion_08_residual_patterns():
    ok = True
    failures = []
    for k in (2, 3):
        gr = Space.gr(2 * k)
        for i in range(1, k + 1):
            for j in range(1, i):
                prof = ext_f_pair(gr, i, j)
                if prof.dims or not prof.conclusive:
                    ok = False
                    failures.append(("gr", k, i, j, str(prof), prof.conclusive))
        igr = Space.igr(k)
        for i in range(1, k + 1):
            for j in range(1, i):
                prof = ext_f_pair(igr, i, j)
                want_total = 1 if i == j + 1 else 0
                if not (prof.conclusive and prof.total_dim == want_total):
                    ok = False
                    failures.append(("igr", k, i, j, str(prof), prof.conclusive))
    _verdict(
        "criterion 8: residual Ext zero on G(2,2k); one-dimensional chain on IG(2,2k), k=2,3",
        ok,
        str(failures) if failures else "all profiles conclusive",
    )


def test_criterion_09_unfolding_match():
    ok = True
    detail = {}
    for n in (3, 4, 5):
        rep = match_quantum_factor(n)
        detail[n] = rep["label"]
        ok = ok and rep["ok"] and rep["label"] == "A%d" % (n - 1)
    _verdict("criterion 9: origin factor matches the corank-1 germ, labels A_{n-1}, n=3..5", ok, str(detail))


def test_criterion_10_property_suites():
    checks = {}

    # Buchberger-criterion closure on every presentation basis in the suite,
    # the cores' and the assembled ones in all the variables, and on the
    # grevlex QUANTUM_II ones
    closure = True
    for n in (2, 3):
        for variant in VARIANTS:
            spec = PresentationSpec(n, variant)
            closure = closure and is_groebner(presentation_basis(spec)) and is_groebner(full_basis(spec))
    for n in (2, 3, 4, 5):
        spec = PresentationSpec(n, QUANTUM_II)
        closure = closure and is_groebner(grevlex_basis(spec)) and is_groebner(presentation_basis(spec))
    checks["buchberger_closure"] = closure

    # normal-form idempotence and multiplicativity over a seeded sample
    gb = presentation_basis(PresentationSpec(3, QUANTUM_II))
    ring = gb.ring
    rng = random.Random(17)

    def rand_poly():
        return ring.poly(
            {
                tuple(rng.randrange(3) for _ in range(ring.ngens)): Fraction(rng.randrange(-4, 5))
                for _ in range(4)
            }
        )

    nf_ok = True
    for _ in range(15):
        f, g = rand_poly(), rand_poly()
        nf_ok = nf_ok and normal_form(normal_form(f, gb), gb) == normal_form(f, gb)
        nf_ok = nf_ok and normal_form(f * g, gb) == normal_form(
            normal_form(f, gb) * normal_form(g, gb), gb
        )
    checks["normal_form_laws"] = nf_ok

    # term-order invariance of quotient dimensions: grevlex against the
    # paper's weighted order
    order_ok = True
    for n in (2, 3, 4):
        dims = set()
        ideal = presentation_generators(PresentationSpec(n, QUANTUM_II))
        for order in (GREVLEX, WeightedOrder(grading(ab_weights(n), ideal.ring))):
            ring2 = Ring(ideal.ring.names, order)
            gens = [ring2.poly(g.terms) for g in ideal.generators]
            dims.add(len(standard_monomials(buchberger(Ideal(ring2, gens)))))
        order_ok = order_ok and len(dims) == 1
    checks["order_invariance"] = order_ok

    # Serre duality for every Ext profile the collection sweep touches
    serre_ok = True
    for space in (Space.gr(4), Space.igr(3)):
        objs = lefschetz_collection(space)
        for E, F in itertools.product(objs[:6], repeat=2):
            serre_ok = serre_ok and serre_duality_holds(space, E, F)
    checks["serre_duality"] = serre_ok

    # Clebsch-Gordan rank identity
    rank_ok = all(
        sum(t.scalar_mult * (t.sym + 1) for t in hom_bundle(a, c, b, d)) == (a + 1) * (b + 1)
        for a, b in itertools.product(range(5), repeat=2)
        for c, d in ((0, 0), (1, -2))
    )
    checks["hom_rank_identity"] = rank_ok

    # staircase-complex Euler consistency for k = 2..4 on both space kinds
    euler_ok = all(
        f_complex_euler_consistency(s)["ok"]
        for s in (Space.gr(4), Space.gr(6), Space.gr(8), Space.igr(2), Space.igr(3), Space.igr(4))
    )
    checks["staircase_euler"] = euler_ok

    # weighted homogeneity of every presentation generator with q symbolic,
    # and of each triangular rule in both q-modes
    wh_ok = all(
        entry["ok"]
        for n in (2, 3, 4, 5)
        for entry in weighted_homogeneity_report(n).values()
    )
    checks["weighted_homogeneity"] = wh_ok

    _verdict("criterion 10: property suites", all(checks.values()), str(checks))
