"""Ring presentations, their compatibility, and the spectrum split."""

import pytest

from igq import cli, clear_caches, deformation, groebner, presentations
from igq.groebner import (
    Ideal,
    buchberger,
    local_length,
    multiplication_matrices,
    normal_form,
    standard_monomials,
)
from igq.linalg import reduce_mod
from igq.poly import GREVLEX, Ring, WeightedOrder
from igq.presentations import (
    CLASSICAL_I,
    CLASSICAL_II,
    PresentationSpec,
    QUANTUM_I,
    QUANTUM_II,
    SPECIALIZE_1,
    SYMBOLIC,
    VARIANTS,
    ab_classes,
    build_presentation,
    count_offorigin_by_substitution,
    decompose_spectrum,
    full_basis,
    i_relations,
    ii_identity,
    presentation_basis,
    presentation_dimension,
    presentation_generators,
    presentation_ring,
    q_of,
    quantum_relations,
    verify_homomorphism,
)
from groebner_oracle import is_groebner
import presentation_oracle as oracle
from presentation_oracle import (
    ab_ring,
    ab_weights,
    generators_basis,
    grading,
    grevlex_basis,
    in_grevlex,
    on_all_variables,
    schur_determinants,
    schur_presentation,
    sigma_classes,
    sigma_in_ab,
    sigma_ring,
    sigma_weights,
    weighted_homogeneity_report,
)
from spectrum_oracle import core_ideal, joint_origin_factor, split_on_variables
from substitute_oracle import substitute


def test_quantum_ii_n2_generators():
    ideal = presentation_generators(PresentationSpec(2, QUANTUM_II))
    ring = ideal.ring
    a1, a2 = ring.var("a1"), ring.var("a2")
    assert list(ideal.generators) == [2 * a2 - a1**2, a2**2 + a1]


def test_quantum_ii_n3_generators():
    ideal = presentation_generators(PresentationSpec(3, QUANTUM_II))
    ring = ideal.ring
    a1, a2, b1 = ring.var("a1"), ring.var("a2"), ring.var("b1")
    assert list(ideal.generators) == [
        2 * a2 - a1**2 + b1,
        a2**2 + b1 * (2 * a2 - a1**2),
        b1 * a2**2 + a1,
    ]


def test_presentation_dump_bytes_are_frozen():
    # golden bytes: catches any drift in term order, normalization, or the
    # interchange format; the files --dump writes are in the weighted
    # order, where a2 leads a1^2
    from igq.poly import dump_generators

    spec = PresentationSpec(2, QUANTUM_II)
    header = "IG(2,4) variant=QUANTUM_II q=1"
    gens_text = dump_generators(
        presentation_generators(spec).generators, header + " order=weighted(1,2)"
    )
    assert gens_text == (
        "# IG(2,4) variant=QUANTUM_II q=1 order=weighted(1,2)\n"
        "2/1*a1^0*a2^1 + -1/1*a1^2*a2^0\n"
        "1/1*a1^0*a2^2 + 1/1*a1^1*a2^0\n"
    )
    gb_text = dump_generators(
        full_basis(spec).elements, header + " groebner order=weighted(1,2)"
    )
    assert gb_text == (
        "# IG(2,4) variant=QUANTUM_II q=1 groebner order=weighted(1,2)\n"
        "1/1*a1^0*a2^1 + -1/2*a1^2*a2^0\n"
        "1/1*a1^4*a2^0 + 4/1*a1^1*a2^0\n"
    )


def test_classical_i_n3_generator_list():
    ideal = presentation_generators(PresentationSpec(3, CLASSICAL_I))
    ring = ideal.ring
    s = {k: ring.var("s%d" % k) for k in range(1, 5)}
    # the triangular rules for s_3 and s_4 plus the two quadratic ones
    assert len(ideal.generators) == 4
    assert ideal.generators[2] == s[2] ** 2 - 2 * s[1] * s[3] + 2 * s[4]
    assert ideal.generators[3] == s[3] ** 2 - 2 * s[2] * s[4]


def test_schur_determinant_matches_cofactor_oracle():
    n = 3
    ring = sigma_ring(n)
    s = lambda k: ring.one if k == 0 else (ring.var("s%d" % k) if 1 <= k <= 4 else ring.zero)
    # independent 3x3 determinant: Sarrus
    m = [[s(1 + j - i) for j in range(1, 4)] for i in range(1, 4)]
    sarrus = (
        m[0][0] * m[1][1] * m[2][2]
        + m[0][1] * m[1][2] * m[2][0]
        + m[0][2] * m[1][0] * m[2][1]
        - m[0][2] * m[1][1] * m[2][0]
        - m[0][0] * m[1][2] * m[2][1]
        - m[0][1] * m[1][0] * m[2][2]
    )
    assert schur_determinants([ring.one, *ring.gens], 3)[3] == sarrus


def test_schur_recurrence_matches_cofactor_expansion():
    def laplace(rows, ring):
        # plain expansion along the first row, no memo and no recurrence
        if not rows:
            return ring.one
        total = ring.zero
        for j, entry in enumerate(rows[0]):
            if not entry.is_zero:
                term = entry * laplace([row[:j] + row[j + 1 :] for row in rows[1:]], ring)
                total = total + (term if j % 2 == 0 else -term)
        return total

    for n in (3, 4):
        ring = sigma_ring(n)
        s = [ring.one] + list(ring.gens)  # s_0 .. s_{2n-2}
        entry = lambda k: s[k] if 0 <= k <= 2 * n - 2 else ring.zero
        dets = schur_determinants(s, 2 * n - 2)
        for r in range(0, 2 * n - 1):
            matrix = [[entry(1 + j - i) for j in range(1, r + 1)] for i in range(1, r + 1)]
            assert dets[r] == laplace(matrix, ring), (n, r)
            assert schur_determinants(s, r)[r] == dets[r]


def test_classical_basis_shared_by_both_q_modes():
    # a classical ideal has no q, so asking with q symbolic reuses the entry
    for variant in (CLASSICAL_I, CLASSICAL_II):
        plain = presentation_basis(PresentationSpec(3, variant))
        assert presentation_basis(PresentationSpec(3, variant, SYMBOLIC)) is plain
    quantum = presentation_basis(PresentationSpec(3, QUANTUM_I))
    assert presentation_basis(PresentationSpec(3, QUANTUM_I, SYMBOLIC)) is not quantum


def weighted_specs(n):
    return (
        PresentationSpec(n, CLASSICAL_I),
        PresentationSpec(n, QUANTUM_I),
        PresentationSpec(n, QUANTUM_I, SYMBOLIC),
    )


def test_weighted_bases_are_certified_and_triangular():
    # the assembled bases in all the variables, which --dump writes:
    # Buchberger's criterion, every generator in the ideal, s_r leading one
    # element for each r >= 3, and at q = 1 the closed-form dimension
    for n in range(3, 8):
        for spec in weighted_specs(n):
            gb = full_basis(spec)
            ring = gb.ring
            assert ring.order != GREVLEX, spec
            assert is_groebner(gb), spec
            for g in presentation_generators(spec).generators:
                assert normal_form(ring.poly(g.terms), gb).is_zero, spec
            leads = set(gb.lead_monomials)
            assert all(ring.var("s%d" % r).lead_monomial in leads for r in range(3, 2 * n - 1)), spec
            if not spec.symbolic_q:
                assert len(standard_monomials(gb)) == 2 * n * (n - 1), spec


def test_weighted_and_grevlex_bases_span_one_ideal():
    for n in (3, 4, 5):
        for spec in weighted_specs(n):
            grevlex = grevlex_basis(spec)
            for g in full_basis(spec):
                assert normal_form(grevlex.ring.poly(g.terms), grevlex).is_zero, spec


def schur_basis(spec, order):
    """The reduced basis of the ideal the displayed determinants generate."""
    return buchberger(schur_presentation(spec, order))


def test_rules_and_determinants_give_one_reduced_basis():
    # the triangular rules generate the determinants' ideal, so the reduced
    # bases agree in every order; the grevlex ones only for small n, where
    # their Buchberger runs stay short
    for n in range(3, 11):
        for spec in weighted_specs(n):
            order = presentation_ring(spec).order
            assert full_basis(spec).elements == schur_basis(spec, order).elements, spec
            if n <= 5:
                assert grevlex_basis(spec).elements == schur_basis(spec, GREVLEX).elements, spec


def schur_homomorphism_verdict(n, quantum, q_mode):
    """verify_homomorphism's (ok, lambda), with the determinants of the
    images in place of the rules on them, in all the variables of the
    II-presentation."""
    spec = PresentationSpec(n, QUANTUM_II if quantum else CLASSICAL_II, q_mode)
    gb = generators_basis(spec)
    ring = gb.ring
    images = [ring.one] + [sigma_in_ab(n, k, ring) for k in range(1, 2 * n - 1)]
    dets = schur_determinants(images, 2 * n - 2)[3:]

    def vanish(q):
        return all(normal_form(g, gb).is_zero for g in dets + oracle.quadratic_relations(images, q))

    if not quantum:
        return vanish(None), None
    for lam in (1, -1):
        if vanish(lam * q_of(ring)):
            return True, lam
    return False, None


def test_homomorphism_by_rules_matches_the_determinants():
    for n in range(2, 9):
        for quantum in (False, True):
            for q_mode in (SPECIALIZE_1, SYMBOLIC):
                rep = verify_homomorphism(n, quantum, q_mode)
                expected = schur_homomorphism_verdict(n, quantum, q_mode)
                assert (rep["ok"], rep["lambda"]) == expected, (n, quantum, q_mode)
                assert rep["ok"], (n, quantum, q_mode)


def reduced_by_verify_homomorphism(monkeypatch, n, quantum, q_mode):
    """Every polynomial verify_homomorphism reduces, in order, with a
    normal form that returns its input: no relation then reduces to zero,
    so the quantum case tries lambda = 1, then -1, then reports 1's."""
    seen = []
    monkeypatch.setattr(presentations, "normal_form", lambda g, gb: seen.append(g) or g)
    verify_homomorphism(n, quantum, q_mode)
    monkeypatch.undo()
    return seen


def test_quantum_presentations_equal_the_q_threaded_builders(monkeypatch):
    # a quantum presentation is derived from its classical one by the one
    # q-term; the oracle threads q through every builder from scratch.
    # Polynomials compare by ring and terms in order, so this is term for term
    for n in range(2, 13):
        for q_mode in (SPECIALIZE_1, SYMBOLIC):
            for variant in VARIANTS:
                spec = PresentationSpec(n, variant, q_mode)
                core, expected = build_presentation(spec), oracle.build_presentation(spec)
                assert core.ring == expected.ring, spec
                assert core.ideal == expected.ideal, spec
                assert core.images == expected.images, spec
                assert presentation_generators(spec) == oracle.build_generators(spec), spec
            for quantum in (False, True):
                lams = (1, -1, 1) if quantum else (1,)
                expected = [g for lam in lams for g in oracle.homomorphism_relations(n, quantum, q_mode, lam)]
                assert reduced_by_verify_homomorphism(monkeypatch, n, quantum, q_mode) == expected, (n, quantum, q_mode)


def test_full_basis_is_the_generators_reduced_basis():
    # the oracle of the assembly: Buchberger on the generators in all the
    # variables gives the same reduced basis, element by element
    for n in range(2, 9):
        for variant in VARIANTS:
            for q_mode in (SPECIALIZE_1, SYMBOLIC):
                spec = PresentationSpec(n, variant, q_mode)
                assembled, oracle = full_basis(spec), generators_basis(spec)
                assert assembled.ring == oracle.ring == presentation_generators(spec).ring, spec
                assert assembled.elements == oracle.elements, spec


def check_results(n, q_mode):
    """What each qh check reads off its presentations at n, in one q-mode:
    the dimensions (at q = 1, as the dims rows take them), the
    homomorphism's (ok, lambda), the lemma report as strings, the
    regularity corank, and at q = 1 the spectrum."""
    out = {
        "dims": [presentation_dimension(PresentationSpec(n, variant)) for variant in VARIANTS],
        "homomorphism": [
            (rep["ok"], rep["lambda"]) for rep in (verify_homomorphism(n, quantum, q_mode) for quantum in (False, True))
        ],
        "regularity": deformation.regularity_corank(n),
    }
    if n >= 3:
        rep = deformation.verify_lemma_presentation(n, q_mode == SYMBOLIC)
        out["lemma"] = {key: str(value) for key, value in rep.items()}
    if q_mode == SPECIALIZE_1:
        rep = decompose_spectrum(n)
        out["spectrum"] = rep.as_tuple(), rep.separating_form
    return out


def test_the_cores_agree_with_all_the_variables(monkeypatch):
    # every check on the two-variable cores against the same check in all
    # the variables, as the checks ran before they moved to the cores
    cases = [(n, q_mode) for n in range(2, 9) for q_mode in (SPECIALIZE_1, SYMBOLIC)]
    on_cores = {case: check_results(*case) for case in cases}
    assert all(on_cores[n, SPECIALIZE_1]["dims"] == [2 * n * (n - 1)] * 4 for n in range(2, 9))
    assert all(results["regularity"] == 1 for results in on_cores.values())
    clear_caches()
    on_all_variables(monkeypatch)
    for case in cases:
        assert check_results(*case) == on_cores[case], case


def test_every_reader_asks_presentation_basis_and_the_spectrum_runs_in_a1_a2(monkeypatch, tmp_path, capsys):
    # every check asks presentation_basis once for the one basis of its
    # spec, the core's, and no Buchberger run on a check path is in more
    # than three variables: two, and q when it is a variable.  The
    # spectrum's own runs (the core's grevlex basis, Nakayama's local
    # length) are in (a1, a2).  --dump asks for every variant's core basis
    # and assembles the basis in all the variables from it, without
    # Buchberger
    requests, rings = [], []
    real, real_buchberger = presentations.presentation_basis, groebner.buchberger

    def recorded(*args, **kwargs):
        requests.append((args, kwargs))
        return real(*args, **kwargs)

    def recorded_buchberger(ideal):
        rings.append(ideal.ring.names)
        return real_buchberger(ideal)

    monkeypatch.setattr(presentations, "presentation_basis", recorded)
    monkeypatch.setattr(deformation, "presentation_basis", recorded)
    monkeypatch.setattr(presentations, "buchberger", recorded_buchberger)
    monkeypatch.setattr(groebner, "buchberger", recorded_buchberger)
    n = 4
    spec_ii = PresentationSpec(n, QUANTUM_II)
    presentations.decompose_spectrum(n)
    assert requests == [((spec_ii,), {})]
    assert len(rings) > 2 and set(rings) == {("a1", "a2")}
    for q_mode in (SPECIALIZE_1, SYMBOLIC):
        for variant in (CLASSICAL_II, QUANTUM_II):
            spec = PresentationSpec(n, variant, q_mode)
            requests.clear()
            presentation_dimension(PresentationSpec(n, variant))
            assert requests == [((PresentationSpec(n, variant),), {})]
            requests.clear()
            assert verify_homomorphism(n, variant == QUANTUM_II, q_mode)["ok"]
            assert requests == [((spec,), {})]
        requests.clear()
        deformation.verify_lemma_presentation(n, q_mode == SYMBOLIC)
        assert requests == [((PresentationSpec(n, QUANTUM_I, q_mode),), {})]
    for q_mode in ("1", "symbolic"):
        clear_caches()
        argv = ["qh", "--n", str(n), "--q-mode", q_mode, "--check", "dims,homomorphism,lemma,regularity"]
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert rings and all(len(names) <= 3 for names in rings)
    requests.clear()
    rings.clear()
    assert cli.main(["qh", "--n", str(n), "--check", "spectrum", "--dump", str(tmp_path)]) == 0
    capsys.readouterr()
    assert requests == [((spec_ii,), {})] + [((PresentationSpec(n, variant),), {}) for variant in VARIANTS]
    assert set(rings) == {("a1", "a2"), ("s1", "s2")}


def test_lemma_report_does_not_depend_on_the_basis_order(monkeypatch):
    def report(n, symbolic_q):
        rep = deformation.verify_lemma_presentation(n, symbolic_q)
        order = rep["sigma_2n2_t_coeff"].ring.order  # the basis ring's order
        return order, {k: str(v) for k, v in rep.items()}  # the rings differ by order

    def in_grevlex_everywhere(spec):
        # the presentation in all its variables and in grevlex, as its own core
        ideal = in_grevlex(presentation_generators(spec))
        return presentations.CorePresentation(ideal.ring, ideal, ideal.ring.gens)

    # at q = 1 only: with q symbolic the lemma reads the paper's grading off
    # the basis ring's weighted order, which grevlex does not carry; there
    # the cores are held to all the variables in that order instead
    # (test_the_cores_agree_with_all_the_variables)
    cases = [(n, False) for n in (3, 4, 5, 6)]
    weighted = {case: report(*case) for case in cases}
    assert all(order != GREVLEX for order, _ in weighted.values())
    monkeypatch.setattr(deformation, "presentation_basis", grevlex_basis)
    monkeypatch.setattr(deformation, "build_presentation", in_grevlex_everywhere)
    for case in cases:
        order, rep = report(*case)
        assert rep == weighted[case][1], case
        assert order == GREVLEX


def test_quantum_term_sign_alternates():
    for n in (2, 3, 4):
        ideal = presentation_generators(PresentationSpec(n, QUANTUM_I))
        last = ideal.generators[-1]
        s1 = ideal.ring.var("s1")
        assert dict(last.terms)[s1.lead_monomial] == (-1) ** (n + 1)


def test_n_below_two_rejected():
    with pytest.raises(ValueError):
        PresentationSpec(1, QUANTUM_II)


def test_dimensions_match_closed_form():
    for n in (2, 3):
        for variant in (CLASSICAL_I, CLASSICAL_II, QUANTUM_I, QUANTUM_II):
            assert presentation_dimension(PresentationSpec(n, variant)) == 2 * n * (n - 1)


def test_sigma_in_ab_small_cases():
    ring = ab_ring(3)
    a1, a2, b1 = ring.var("a1"), ring.var("a2"), ring.var("b1")
    assert sigma_in_ab(3, 1, ring) == -a1
    assert sigma_in_ab(3, 2, ring) == a2 + b1
    assert sigma_in_ab(3, 3, ring) == -a1 * b1
    assert sigma_in_ab(3, 4, ring) == a2 * b1
    with pytest.raises(ValueError):
        sigma_in_ab(3, 5)
    with pytest.raises(ValueError):
        sigma_in_ab(3, 0)


def test_ii_identity_on_the_betas_vanishes_below_the_core_relations():
    # on b_k = beta_k(a1, a2), the oracle's recurrence, the coefficients of
    # x^2 .. x^(2n-4) vanish: so the last two generate the image of the
    # II-ideal, and at q = 1 they are QUANTUM_II's core relations; they
    # read only the last two betas, which is all build_presentation passes
    for n in range(2, 13):
        ideal, beta = core_ideal(n)
        ring = ideal.ring
        b = [ring.one, *beta]
        coeffs = ii_identity(b)
        assert len(coeffs) == n, n
        assert all(c.is_zero for c in coeffs[:-2]), n
        assert ii_identity(b[-2:])[-2:] == coeffs[-2:], n
        assert quantum_relations(coeffs[-2:], n, QUANTUM_II, ring.var("a1")) == list(ideal.generators), n


def test_ab_classes_on_the_b_variables_are_the_oracle_images():
    # on the variables b_k, the images the homomorphism builds on are the
    # oracle's sigma_in_ab; on the core they are those with b_k -> beta_k
    for n in range(2, 8):
        for symbolic in (False, True):
            ring = ab_ring(n, symbolic)
            classes = ab_classes([ring.one] + list(ring.gens[2:n]))
            assert classes == [ring.one] + [sigma_in_ab(n, k, ring) for k in range(1, 2 * n - 1)], n
            spec = PresentationSpec(n, QUANTUM_II, SYMBOLIC if symbolic else SPECIALIZE_1)
            core = build_presentation(spec)
            images = dict(zip(core.ring.names, core.images))
            on_core = ab_classes([core.ideal.ring.one] + list(core.images[2:n]))
            assert on_core == [substitute(c, core.ideal.ring, images) for c in classes], n


def test_sigma_in_ab_total_chern_product_oracle():
    # independent check: sum_k sigma_k x^k must equal
    # (sum_i b_i x^{2i}) * (1 - a1 x + a2 x^2) as a polynomial identity
    for n in (2, 3, 4):
        names = ("a1", "a2") + tuple("b%d" % i for i in range(1, n - 1)) + ("x",)
        ring = Ring(names)
        x = ring.var("x")
        lhs = ring.one
        for k in range(1, 2 * n - 1):
            lhs = lhs + sigma_in_ab(n, k, ring) * x**k
        b_series = ring.one
        for i in range(1, n - 1):
            b_series = b_series + ring.var("b%d" % i) * x ** (2 * i)
        u_series = ring.one - ring.var("a1") * x + ring.var("a2") * x**2
        assert lhs == b_series * u_series


def test_relations_on_the_images_equal_the_substituted_relations():
    # building the relations on the classes' images in the a,b-ring is the
    # same as building them on the variables s_k and substituting
    for n in range(2, 8):
        for symbolic in (False, True):
            ring_i, target = sigma_ring(n, symbolic), ab_ring(n, symbolic)
            images = {"s%d" % k: sigma_in_ab(n, k, target) for k in range(1, 2 * n - 1)}
            classes = [target.one] + list(images.values())
            if symbolic:
                images["q"] = target.var("q")
            on_vars = i_relations(sigma_classes(ring_i, n))
            assert i_relations(classes) == [substitute(g, target, images) for g in on_vars], n
            # and so does adding the quantum term, q -> lam q, on s_1's image
            for lam in (1, -1):
                quantum = quantum_relations(on_vars, n, QUANTUM_I, lam * ring_i.var("s1"))
                on_images = quantum_relations(i_relations(classes), n, QUANTUM_I, lam * classes[1])
                assert on_images == [substitute(g, target, images) for g in quantum], (n, symbolic, lam)


def test_presentation_is_built_in_the_paper_grading():
    # the ring's order weighs each variable by its degree: presentation_ring's
    # own weights against the oracle's tables, read in ring order
    for n in range(2, 9):
        for variant in VARIANTS:
            for q_mode in (SPECIALIZE_1, SYMBOLIC):
                spec = PresentationSpec(n, variant, q_mode)
                built = presentation_generators(spec)
                if variant.endswith("_I"):
                    ring, table = sigma_ring(n, spec.symbolic_q), sigma_weights(n)
                else:
                    ring, table = ab_ring(n, spec.symbolic_q), ab_weights(n)
                assert presentation_ring(spec).order.weights == grading(table, ring), spec
                assert built.ring == Ring(ring.names, WeightedOrder(grading(table, ring))), spec
                # the core keeps the first two variables and q, with their weights
                core = build_presentation(spec)
                names = ring.names[:2] + ("q",) * spec.symbolic_q
                assert core.ring == built.ring
                assert core.ideal.ring == Ring(names, WeightedOrder(table[name] for name in names)), spec


def test_homomorphism_classical():
    for n in (2, 3):
        rep = verify_homomorphism(n, quantum=False)
        assert rep["ok"] and rep["lambda"] is None


def test_homomorphism_quantum_reports_sign():
    for n in (2, 3):
        rep = verify_homomorphism(n, quantum=True)
        assert rep["ok"]
        assert rep["lambda"] in (1, -1)


def test_homomorphism_symbolic_q():
    rep = verify_homomorphism(3, quantum=True, q_mode=SYMBOLIC)
    assert rep["ok"]


def test_spectrum_small_cases():
    assert decompose_spectrum(2).as_tuple() == (4, 0, 1, 3, 3)
    assert decompose_spectrum(3).as_tuple() == (12, 1, 2, 10, 10)
    assert decompose_spectrum(2).separating_form == "1*a1 + 2*a2"
    assert decompose_spectrum(3).separating_form == "1*a1 + 2*a2 + 3*b1"
    assert decompose_spectrum(4).separating_form == "1*a1 + 2*a2 + 3*b1 + 5*b2"


R2 = Ring(("x", "y"))
X, Y = R2.gens


def _split(*gens):
    return split_on_variables(buchberger(Ideal(R2, gens)))


def test_split_spectrum_origin_only():
    assert _split(X**3, Y) == (3, 0, 0, "1*x + 2*y")


def test_split_spectrum_fat_origin_and_one_point():
    assert _split(X**2 * (X - 1), Y) == (2, 1, 1, "1*x + 2*y")


def test_split_spectrum_counts_on_the_off_origin_factor_only():
    # points (0,0), (2,-1), (1,0); x + 2y vanishes at the origin and at
    # (2,-1), so counting on the whole quotient would see 2 values, not 3,
    # and reject the form; on the off-origin factor it separates
    assert _split(Y**2 + Y, X * Y - 2 * Y, X**2 - X + 2 * Y) == (1, 2, 2, "1*x + 2*y")


def test_split_spectrum_form_names_every_variable_of_a_wide_ring():
    # the points are the origin and (1, ..., 1); x14 needs a 14th
    # coefficient, the one after 37
    ring = Ring(["x%d" % i for i in range(1, 15)])
    x1, *rest = ring.gens
    length, off_dim, points, form = split_on_variables(
        buchberger(Ideal(ring, [x1**2 - x1] + [xi - x1 for xi in rest]))
    )
    assert (length, off_dim, points) == (1, 1, 1)
    named = [term.split("*")[1] for term in form.split(" + ")]
    assert named == list(ring.names)
    assert form.startswith("1*x1 + 2*x2 + 3*x3 + 5*x4") and form.endswith("37*x13 + 41*x14")


def test_split_spectrum_rejects_a_fat_point_off_the_origin(monkeypatch):
    # mu_Q = (t - 1)^2 has a repeated root, so A_off is non-reduced for
    # every form and the first exact count refuses
    runs = exact_krylov_runs(monkeypatch)
    with pytest.raises(RuntimeError, match="no separating form found"):
        _split((X - 1) ** 2, Y)
    assert runs == [2]


def exact_krylov_runs(monkeypatch):
    """Record the size of each minimal polynomial split_spectrum takes over
    Q, that is, each attempt the proof mod p did not settle."""
    runs = []
    real = presentations.minimal_polynomial

    def recorded(M, start):
        runs.append(len(M))
        return real(M, start)

    monkeypatch.setattr(presentations, "minimal_polynomial", recorded)
    return runs


def test_split_spectrum_falls_back_when_two_points_merge_mod_p(monkeypatch):
    # points x = 0, 1 and 1 + p: mod p the last two merge, so mu_p = (t - 1)^2
    # proves nothing, and the exact count tells them apart
    runs = exact_krylov_runs(monkeypatch)
    p = presentations._PRIME
    assert _split(X * (X - 1) * (X - 1 - p), Y) == (1, 2, 2, "1*x + 2*y")
    assert runs == [3]


def test_origin_factor_where_the_first_variable_vanishes_off_the_origin():
    # x vanishes at an off-origin point of each ideal, where w = M_x^L 1 is
    # zero, so every form counts fewer values than dim A_off and the split
    # refuses, naming that cause.  In the last ideal, a fat origin and the
    # points (-2, 3), (2, -2), (0, -1), w misses (0, -1)
    forms = ("1*x + 2*y", "2*x + 3*y", "3*x + 5*y", "5*x + 7*y")
    for gens, off_dim, count in (
        ((X, Y * (Y - 1)), 1, 0),
        ((X, Y**2 * (Y - 1)), 1, 0),
        ((X * (X - 1), Y * (Y - 1)), 3, 2),
        ((Y**2 * (Y - 3) * (Y + 2) * (Y + 1), 30 * X - Y * (Y + 1) * (16 - 7 * Y)), 3, 2),
    ):
        with pytest.raises(RuntimeError, match="first variable vanishes at an off-origin point") as refused:
            _split(*gens)
        tried = [(form, count) for form in forms]
        assert "(counts %r vs dimension %d)" % (tried, off_dim) in str(refused.value), gens


def test_the_spectrum_splits_the_closed_form_core(monkeypatch):
    # the core decompose_spectrum reads off the weighted basis is the
    # grevlex basis of (R1, R2), and each b_k it reads as f_k(a1, a2) is
    # beta_k there
    splits = []
    real = presentations.split_spectrum
    monkeypatch.setattr(
        presentations, "split_spectrum", lambda gb, coordinates: splits.append((gb, coordinates)) or real(gb, coordinates)
    )
    for n in range(2, 9):
        decompose_spectrum(n)
        gb, coordinates = splits[-1]
        ideal, beta = core_ideal(n)
        assert gb == buchberger(ideal)
        assert list(coordinates) == list(ab_ring(n).names)
        images = list(coordinates.values())
        assert images[:2] == list(gb.ring.gens)
        assert all(normal_form(f - b, gb).is_zero for f, b in zip(images[2:], beta, strict=True)), n


def test_the_split_on_all_n_variables_agrees_with_the_core():
    # the oracle: QUANTUM_II's whole grevlex basis, split with its n
    # variables as the coordinates, as the spectrum was split before it
    # moved to the two-variable core
    for n in range(2, 8):
        gb = grevlex_basis(PresentationSpec(n, QUANTUM_II))
        rep = decompose_spectrum(n)
        core = (rep.local_length_origin, rep.offorigin_dim, rep.offorigin_distinct_points, rep.separating_form)
        assert split_on_variables(gb) == core, n


def test_local_length_is_the_dimension_of_the_generalized_kernel():
    # Nakayama's L against the joint generalized kernel of the
    # multiplication matrices, from the dense oracle: on the core, and on
    # every hand-made ideal of the split tests, (x - 1)^2 among them, which
    # has no origin point
    wide = Ring(["x%d" % i for i in range(1, 15)])
    x1, *rest = wide.gens
    p = presentations._PRIME
    cases = [(core_ideal(n)[0], n - 1) for n in range(2, 9)]
    cases += [
        (Ideal(wide, [x1**2 - x1] + [xi - x1 for xi in rest]), 1),
        (Ideal(R2, [(X - 1) ** 2, Y]), 0),
    ] + [
        (Ideal(R2, gens), length)
        for gens, length in (
            ((X**3, Y), 3),
            ((X**2 * (X - 1), Y), 2),
            ((Y**2 + Y, X * Y - 2 * Y, X**2 - X + 2 * Y), 1),
            ((X * (X - 1) * (X - 1 - p), Y), 1),
            ((X, Y * (Y - 1)), 1),
            ((X, Y**2 * (Y - 1)), 2),
            ((X * (X - 1), Y * (Y - 1)), 1),
            ((Y**2 * (Y - 3) * (Y + 2) * (Y + 1), 30 * X - Y * (Y + 1) * (16 - 7 * Y)), 2),
        )
    ]
    for ideal, length in cases:
        gb = buchberger(ideal)
        mats = multiplication_matrices(gb)
        assert local_length(gb) == len(joint_origin_factor(mats, len(mats[0]))) == length, ideal


def test_a_point_where_the_first_variable_vanishes_takes_one_exact_count(monkeypatch):
    # x vanishes at (0, 1), so w = M_x^L 1 has no part there and the proof
    # mod p fails; each attempt takes one exact count on w, which misses
    # the point too, and after the fourth the split refuses
    runs = exact_krylov_runs(monkeypatch)
    for gens, dim in (((X, Y * (Y - 1)), 2), ((X * (X - 1), Y * (Y - 1)), 4)):
        runs.clear()
        with pytest.raises(RuntimeError, match="first variable vanishes"):
            _split(*gens)
        assert runs == [dim] * 4


def test_a_failed_proof_mod_p_takes_one_exact_count(monkeypatch):
    # u = 0 gives the zero sequence, whose polynomial 1 has no roots: the
    # proof fails, and the exact count accepts the first form
    gb = grevlex_basis(PresentationSpec(3, QUANTUM_II))
    proved = split_on_variables(gb)
    runs = exact_krylov_runs(monkeypatch)
    monkeypatch.setattr(presentations, "_functional", lambda dim: [0] * dim)
    assert split_on_variables(gb) == proved
    assert runs == [12]


def test_spectrum_is_proved_mod_p_for_n_up_to_6(monkeypatch):
    runs = exact_krylov_runs(monkeypatch)
    for n in range(2, 7):
        decompose_spectrum(n)
    assert runs == []


def test_the_proof_and_the_exact_count_find_one_polynomial(monkeypatch):
    # on the core, the polynomial Berlekamp-Massey returns for the proof is
    # the reduction mod p of the one the exact path finds over Q, so the
    # two start from one vector, w: each proof's polynomial is recorded and
    # then withheld, so that the exact path runs on the same form
    proofs, exact = [], []
    real_massey, real_minimal = presentations.berlekamp_massey, presentations.minimal_polynomial

    def withheld(seq, p):
        proofs.append(real_massey(seq, p))
        return [1]  # no roots, so the proof fails

    def recorded(M, start):
        exact.append(real_minimal(M, start))
        return exact[-1]

    monkeypatch.setattr(presentations, "berlekamp_massey", withheld)
    monkeypatch.setattr(presentations, "minimal_polynomial", recorded)
    for n in range(2, 7):
        decompose_spectrum(n)
    assert len(proofs) == len(exact) == 5
    for g, mu in zip(proofs, exact):
        assert reduce_mod(mu, presentations._PRIME) == g


def test_spectrum_fallback_agrees_with_the_proof(monkeypatch):
    # with p = 2 every off-origin part has degree >= p, so no attempt is
    # proved and each n takes the exact path
    proved = {n: decompose_spectrum(n) for n in range(2, 6)}
    clear_caches()
    monkeypatch.setattr(presentations, "_PRIME", 2)
    runs = exact_krylov_runs(monkeypatch)
    assert {n: decompose_spectrum(n) for n in range(2, 6)} == proved
    assert runs == [4, 12, 24, 40]


def test_spectrum_internal_identity():
    # total_dim counts the split's two parts of QUANTUM_II's core in
    # grevlex; the weighted QUANTUM_I basis counts the same ring apart
    for n in range(2, 6):
        rep = decompose_spectrum(n)
        assert rep.total_dim == presentation_dimension(PresentationSpec(n, QUANTUM_I))


def test_substitution_count_matches_closed_form_and_spectrum():
    for n in range(2, 13):
        assert count_offorigin_by_substitution(n) == (n - 1) * (2 * n - 1)
    for n in (2, 3):
        assert count_offorigin_by_substitution(n) == decompose_spectrum(n).offorigin_distinct_points


def test_cover_polynomial_vanishes_at_zero():
    # the k = 0 binomial term z^{2n} cancels against - z^{2n}, so z = 0 is
    # a root and the other exponents are 2n + k(2n - 1), k = 1 .. 2n
    for n in range(2, 13):
        f = presentations._cover_polynomial(n)
        z = Ring(("z",)).gens[0]
        expanded = (z ** (2 * n) - z) ** (2 * n) - z ** (2 * n)
        coeffs = dict(expanded.terms)
        assert f == [coeffs.get((e,), 0) for e in range(len(f))]
        assert f[0] == 0
        assert {e for e, c in enumerate(f) if c} == {2 * n + k * (2 * n - 1) for k in range(1, 2 * n + 1)}


def test_substitution_count_rejects_tiny_n():
    with pytest.raises(ValueError):
        count_offorigin_by_substitution(1)


def test_weighted_homogeneity_symbolic_mode():
    # every generator with q symbolic, and the rules' degrees in both modes
    for n in (2, 3, 4, 5):
        report = weighted_homogeneity_report(n)
        assert all(entry["ok"] for entry in report.values()), report


def test_weights_cover_all_variables():
    for n in (2, 3, 5):
        assert set(sigma_weights(n)) >= set(sigma_ring(n, True).names)
        assert set(ab_weights(n)) >= set(ab_ring(n, True).names)
