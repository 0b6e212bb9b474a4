"""Weight combinatorics, Ext profiles, collections, staircase complexes."""

import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from igq import bbw
from igq.bbw import (
    ExtProfile,
    Space,
    bundle_cohomology,
    check_f_orthogonality,
    ext_bundles,
    ext_f_pair,
    f_complex_euler_consistency,
    lefschetz_collection,
    serre_duality_holds,
    support_partition,
    verify_collection,
)

import bundle_oracle
from bbw_oracle import bbw_gl, bbw_sp, weyl_dimension_gl, weyl_dimension_sp
from bundle_oracle import LEFT, RIGHT, BundleTerm, euler, f_complex, hom_bundle


def test_space_invariants():
    gr = Space.gr(6)
    assert (gr.dimension, gr.index) == (8, 6)
    igr = Space.igr(3)
    assert (igr.dimension, igr.index) == (7, 5)
    with pytest.raises(ValueError):
        Space.gr(3)
    with pytest.raises(ValueError):
        Space.igr(1)


def test_bbw_gl_structure_sheaf_and_twist():
    r = bbw_gl((0, 0, 0, 0), 4)
    assert (r.vanishes, r.degree, r.rep_dimension) == (False, 0, 1)
    assert bbw_gl((-1, -1, 0, 0), 4).vanishes
    with pytest.raises(ValueError):
        bbw_gl((0, 0), 4)


def test_bbw_gl_symmetric_powers_dimension_oracle():
    # H^0(S^a U*) is the a-th symmetric power of the ambient dual: its
    # dimension is the count of monomials of degree a in m variables
    def monomial_count(m, a):
        return sum(1 for _ in itertools.combinations_with_replacement(range(m), a))

    for m in (4, 5, 6):
        for a in range(5):
            r = bbw_gl((a,) + (0,) * (m - 1), m)
            assert r.degree == 0
            assert r.rep_dimension == monomial_count(m, a) == comb(m + a - 1, a)


def test_bbw_sp_examples():
    r = bbw_sp((0, 0, 0), 3)
    assert (r.degree, r.rep_dimension) == (0, 1)
    r = bbw_sp((0, -4, 0), 3)
    assert (r.vanishes, r.degree, r.rep_dimension) == (False, 3, 1)
    for k in (2, 3, 4):
        for j in range(1, 2 * k - 1):
            assert bundle_cohomology(Space.igr(k), 0, -j).vanishes


def test_bbw_sp_symmetric_powers_dimension_oracle():
    # symmetric powers of the standard representation stay irreducible for
    # the symplectic group (the invariant form is alternating, so there is
    # no trace contraction): the dimension is the full monomial count
    for k in (2, 3, 4):
        for a in range(1, 5):
            r = bbw_sp((a,) + (0,) * (k - 1), k)
            assert r.degree == 0 and r.rep_dimension == comb(2 * k + a - 1, a)
    # spot check: Sym^2 of the standard Sp(4)-module is the 10-dim adjoint
    assert bbw_sp((2, 0), 2).rep_dimension == 10


def test_weyl_dimension_formulas_small():
    assert weyl_dimension_gl((1, 0, 0, 0)) == 4
    assert weyl_dimension_gl((1, 1, 0, 0)) == 6
    assert weyl_dimension_sp((1, 0)) == 4
    assert weyl_dimension_sp((1, 1)) == 5


def test_hom_bundle_examples_and_rank_identity():
    assert [(t.sym, t.twist) for t in hom_bundle(0, 0, 3, -2)] == [(3, -2)]
    terms = hom_bundle(2, 0, 2, -2)
    assert {(t.sym, t.twist) for t in terms} == {(4, -4), (2, -3), (0, -2)}
    assert sum(t.scalar_mult * (t.sym + 1) for t in terms) == 9
    for a, b in ((0, 0), (1, 4), (3, 3), (5, 2)):
        total = sum(t.scalar_mult * (t.sym + 1) for t in hom_bundle(a, 2, b, -1))
        assert total == (a + 1) * (b + 1)
    # Hom(E, E) contains the structure sheaf exactly once
    counted = [t for t in hom_bundle(3, 1, 3, 1) if (t.sym, t.twist) == (0, 0)]
    assert len(counted) == 1 and counted[0].scalar_mult == 1


def test_ext_exceptionality_and_semiorthogonality():
    for i in (0, 1, 2):
        assert ext_bundles(Space.igr(3), (i, 0), (i, 0)).dims == ((0, 1),)
    assert ext_bundles(Space.gr(4), (0, 0), (0, -1)).dims == ()


def test_key_ext_concentration():
    for k in (2, 3, 4):
        prof = ext_bundles(Space.igr(k), (k - 1, 0), (k - 1, 1 - k))
        assert prof.dims == ((2 * k - 3, 1),)


def test_ext_profile_is_not_a_container():
    # no __getitem__, so `in` and iteration refuse at once instead of
    # probing degrees 0, 1, 2, ... forever
    prof = ext_bundles(Space.igr(3), (2, 0), (2, -2))
    with pytest.raises(TypeError):
        0 in prof
    with pytest.raises(TypeError):
        list(prof)


def test_three_dim_quadric_section_counts():
    # IG(2,4) is the smooth 3-dimensional quadric: sections of O(1) are the
    # 5 ambient coordinates, sections of O(2) are the 15 quadrics minus the
    # defining one
    q3 = Space.igr(2)
    assert ext_bundles(q3, (0, 0), (0, 1)).dims == ((0, 5),)
    assert ext_bundles(q3, (0, 0), (0, 2)).dims == ((0, 14),)
    # Hilbert polynomial of a quadric threefold: binom(j+4,4)-binom(j+2,4)
    for j in range(5):
        expected = comb(j + 4, 4) - comb(j + 2, 4)
        assert euler(ext_bundles(q3, (0, 0), (0, j))) == expected


def test_serre_duality_sample():
    pairs = [(0, 0), (1, 0), (2, -1), (1, 2), (3, -3)]
    for space in (Space.gr(4), Space.gr(5), Space.igr(2), Space.igr(3), Space.igr(4)):
        for E, F in itertools.product(pairs, repeat=2):
            assert serre_duality_holds(space, E, F)


def test_ext_degrees_lie_in_geometric_range():
    # any nonzero Ext between bundles lives in degrees 0 .. dim(space)
    pairs = [(0, 0), (2, -1), (3, 1), (1, -4)]
    for space in (Space.gr(5), Space.igr(3)):
        for E, F in itertools.product(pairs, repeat=2):
            prof = ext_bundles(space, E, F)
            assert all(0 <= d <= space.dimension for d, _ in prof.dims)


def test_collections_pass_and_have_expected_sizes():
    expected = {
        ("igr", 2): 4,
        ("igr", 3): 12,
        ("gr", 4): 6,
        ("gr", 5): 10,
        ("gr", 6): 15,
    }
    for (kind, p), size in expected.items():
        space = Space(kind, p)
        rep = verify_collection(space)
        assert rep["ok"], rep["failures"][:3]
        assert rep["objects"] == size
        assert len(lefschetz_collection(space)) == sum(support_partition(space))
    # the isotropic collection has as many objects as the cohomology has
    # dimensions: 2k(k-1)
    for k in (2, 3):
        assert len(lefschetz_collection(Space.igr(k))) == 2 * k * (k - 1)


def test_verify_collection_lists_every_pair_of_a_nonzero_key(monkeypatch):
    # make the piece S^1 U*(-2) nonzero: it lies in several keys, among
    # them (1, 0, -1), (0, 1, -2) and (2, 1, -1), and every pair with one
    # of its keys must fail, in the order of the pair-by-pair sweep
    monkeypatch.setattr(bbw, "_bbw_cache", {})
    monkeypatch.setattr(bbw, "_ext_cache", (None, {}))
    real = bbw.bundle_cohomology
    bad = bbw.CohomologyResult(False, 2, 3)

    def patched(space, sym, twist):
        return bad if (sym, twist) == (1, -2) else real(space, sym, twist)

    monkeypatch.setattr(bbw, "bundle_cohomology", patched)

    def brute_ext(space, E, F):
        acc = {}
        for sym, twist in bbw._clebsch_gordan(E[0], F[0], F[1] - E[1]):
            res = patched(space, sym, twist)
            if not res.vanishes:
                acc[res.degree] = acc.get(res.degree, 0) + res.rep_dimension
        return ExtProfile.make(acc, True)

    for space in (Space.gr(6), Space.gr(7), Space.igr(4)):
        objects = lefschetz_collection(space)
        expected = [
            ("semiorthogonal", (later, earlier), str(brute_ext(space, later, earlier)))
            for i, later in enumerate(objects)
            for earlier in objects[:i]
            if brute_ext(space, later, earlier).dims
        ]
        assert len(expected) >= 2
        assert {(E[0], F[0], F[1] - E[1]) for _, (E, F), _ in expected} >= {
            (1, 0, -1),
            (0, 1, -2),
            (2, 1, -1),
        }
        assert verify_collection(space)["failures"] == expected


SWEEP_SPACES = [Space.gr(m) for m in range(4, 22)] + [Space.igr(k) for k in range(2, 11)]


def test_wrong_direction_keys_match_the_pairs():
    for space in SWEEP_SPACES:
        objects = lefschetz_collection(space)
        by_pairs = {(a, b, d - c) for i, (a, c) in enumerate(objects) for b, d in objects[:i]}
        analytic = {(a, b, s) for a, b, shifts in bbw._wrong_direction_keys(space) for s in shifts}
        assert analytic == by_pairs, space


def test_nonzero_shifts_match_the_box(monkeypatch):
    # the per-sym diagonal ranges skip the pieces of the box that lie in no
    # rectangle, which no prefix difference counts: every family of the
    # collection and residual sweeps must get the shifts the box gives, also
    # when scattered pieces are made nonzero, inside rectangles and out
    # (for k <= 12, where the box is quick to search)
    real_shifts, real_cohomology = bbw._nonzero_shifts, bbw.bundle_cohomology
    sweeps = []

    def recorded(space, families):
        sweeps.append((space, families))
        return real_shifts(space, families)

    monkeypatch.setattr(bbw, "_nonzero_shifts", recorded)
    for k in range(2, 31):
        for space in (Space.gr(2 * k), Space.gr(2 * k + 1), Space.igr(k)):
            monkeypatch.setattr(bbw, "_ext_cache", (None, {}))
            verify_collection(space)
            if space.kind == "igr" or space.param % 2 == 0:
                bbw._residual_terms(space)
    assert len(sweeps) == 29 * 5

    fake = bbw.CohomologyResult(False, 0, 1)
    for perturbed in (False, True):
        tested = [0]

        def cohomology(space, sym, twist):
            tested[0] += 1
            if perturbed and (3 * sym + 5 * twist + space.param) % 29 == 0:
                return fake
            return real_cohomology(space, sym, twist)

        monkeypatch.setattr(bbw, "bundle_cohomology", cohomology)
        ours = box = 0
        found_any = False
        for space, families in sweeps[: 5 * 11] if perturbed else sweeps:
            start = tested[0]
            found = real_shifts(space, families)
            middle = tested[0]
            assert found == bundle_oracle.nonzero_shifts_in_box(space, families), (space, perturbed)
            assert middle - start <= tested[0] - middle
            ours, box = ours + middle - start, box + tested[0] - middle
            found_any |= any(found)
        assert found_any and ours < box, perturbed


def test_closed_form_matches_the_bbw_oracle(monkeypatch):
    # vanishing, degree and dimension, computed afresh (not read from the
    # memo) against the generic sort-and-Weyl-product algorithm
    monkeypatch.setattr(bbw, "_bbw_cache", {})
    for space in SWEEP_SPACES:
        n = space.param
        full = bbw_gl if space.kind == "gr" else bbw_sp
        for sym in range(30):
            for twist in range(-40, 25):
                expected = full((sym + twist, twist) + (0,) * (n - 2), n)
                assert bundle_cohomology(space, sym, twist) == expected, (space, sym, twist)


def test_singular_weights_share_one_vanishing_result(monkeypatch):
    monkeypatch.setattr(bbw, "_bbw_cache", {})
    space = Space.igr(3)
    assert bundle_cohomology(space, 0, -1) is bundle_cohomology(space, 0, -2)
    assert ext_bundles(space, (0, 0), (0, -1)) is ext_bundles(space, (0, 0), (1, -1))


def test_non_dominant_weight_raises_arithmetic_error():
    # the Weyl numerator of (0, 1) is 0, for GL(2) and for Sp(4) alike
    with pytest.raises(ArithmeticError):
        weyl_dimension_gl((0, 1))
    with pytest.raises(ArithmeticError):
        weyl_dimension_sp((0, 1))


def test_collection_size_matches_ring_dimension():
    # K-theory rank = dimension of the cohomology ring, computed on the
    # other side of the package
    from igq.presentations import PresentationSpec, QUANTUM_II, presentation_dimension

    for k in (2, 3):
        ring_dim = presentation_dimension(PresentationSpec(k, QUANTUM_II))
        assert len(lefschetz_collection(Space.igr(k))) == ring_dim


def test_f_complex_shapes():
    one = f_complex(1, 3, LEFT)
    assert len(one) == 1
    assert (one[0].sym, one[0].twist, one[0].hom_shift) == (2, -3, 0)
    koszul = f_complex(3, 3, RIGHT)
    assert all(t.twist == 0 for t in koszul)
    assert [t.scalar_mult for t in koszul] == [comb(6, 2), comb(6, 1), comb(6, 0)]
    left = f_complex(2, 3, LEFT)
    assert [t.hom_shift for t in left] == [-1, 0]
    assert [t.scalar_mult for t in left] == [1, comb(6, 1)]
    with pytest.raises(ValueError):
        f_complex(0, 3, LEFT)
    with pytest.raises(ValueError):
        f_complex(4, 3, RIGHT)


def test_f_complex_euler_consistency():
    for space in (Space.gr(4), Space.gr(6), Space.igr(2), Space.igr(3)):
        assert f_complex_euler_consistency(space)["ok"]


def test_ext_f_pair_grassmannian_vanishing():
    prof = ext_f_pair(Space.gr(4), 2, 1)
    assert prof.dims == () and prof.conclusive
    for i, j in ((2, 1), (3, 1), (3, 2)):
        prof = ext_f_pair(Space.gr(6), i, j)
        assert prof.dims == () and prof.conclusive, (i, j, prof)


def test_ext_f_pair_isotropic_pattern():
    prof = ext_f_pair(Space.igr(3), 3, 2)
    assert prof.conclusive and prof.total_dim == 1
    assert euler(prof) in (1, -1)
    prof = ext_f_pair(Space.igr(3), 3, 1)
    assert prof.dims == () and prof.conclusive


def test_orthogonality_of_staircase_objects():
    for space in (Space.gr(4), Space.igr(3)):
        k = space.param if space.kind == "igr" else space.param // 2
        for i in range(1, k + 1):
            assert check_f_orthogonality(space, i)["ok"]


def test_orthogonality_i1_matches_direct_bundle_ext():
    # the one-term complex case: F_1(k-1) is S^{k-1}U*(-1); the complex
    # machinery must agree with a direct bundle Ext computation
    space = Space.gr(6)
    k = 3
    rep = check_f_orthogonality(space, 1)
    direct_all_zero = all(
        ext_bundles(space, (u, v), (k - 1, -1)).dims == ()
        for v in range(0, k)
        for u in range(0, k - 1)
    )
    assert rep["ok"] == direct_all_zero == True  # noqa: E712


@pytest.mark.parametrize("perturbed", [False, True])
def test_koszul_line_matches_the_double_complex(monkeypatch, perturbed):
    # every (i, j) for k = 2..10 on G(2,2k) and IG(2,2k), against the
    # staircase resolutions built as BundleTerm complexes; the perturbed run
    # makes the pieces S^1 U*(-2) and S^2 U*(-3) nonzero, so that terms at
    # several i - j turn nonzero at once and failures, nonzero Euler sums
    # and inconclusive first pages are compared too
    monkeypatch.setattr(bbw, "_ext_cache", (None, {}))
    if perturbed:
        real = bbw.bundle_cohomology
        bad = {(1, -2): bbw.CohomologyResult(False, 2, 3), (2, -3): bbw.CohomologyResult(False, 1, 2)}

        def patched(space, sym, twist):
            return bad.get((sym, twist)) or real(space, sym, twist)

        monkeypatch.setattr(bbw, "bundle_cohomology", patched)
    seen = set()
    for k in range(2, 11):
        for space in (Space.gr(2 * k), Space.igr(k)):
            for i in range(1, k + 1):
                for j in range(1, k + 1):
                    prof = ext_f_pair(space, i, j)
                    assert prof == bundle_oracle.ext_f_pair(space, i, j), (space, i, j)
                    seen.add(("conclusive", prof.conclusive))
                failures = check_f_orthogonality(space, i)["failures"]
                assert failures == bundle_oracle.check_f_orthogonality(space, i), (space, i)
                seen.add(("orthogonal", not failures))
            sums = bundle_oracle.euler_sums(space)
            bad_twists = f_complex_euler_consistency(space)["bad_twists"]
            assert bad_twists == [(j, t) for j, t in enumerate(sums) if t], space
            seen.add(("exact", not bad_twists))
    if perturbed:
        assert {("conclusive", False), ("orthogonal", False), ("exact", False)} <= seen


def test_residual_interleaved_spaces_match_fresh_calls(monkeypatch):
    # the residual terms hang off the per-space Ext table: a sweep that
    # leaves a space and comes back must rebuild them for the right space
    spaces = (Space.gr(6), Space.igr(3), Space.gr(6))

    def sweep(space):
        return (
            [ext_f_pair(space, i, j) for i in (1, 2, 3) for j in (1, 2, 3)],
            [check_f_orthogonality(space, i) for i in (1, 2, 3)],
        )

    interleaved = [sweep(space) for space in spaces]
    fresh = []
    for space in spaces:
        monkeypatch.setattr(bbw, "_ext_cache", (None, {}))
        fresh.append(sweep(space))
    assert interleaved == fresh
    assert interleaved[0][0] != interleaved[1][0]


def _residual_lookups(monkeypatch, k, kind):
    # Ext and cohomology lookups of the residual rows alone, from cold memos
    monkeypatch.setattr(bbw, "_bbw_cache", {})
    monkeypatch.setattr(bbw, "_ext_cache", (None, {}))
    calls = [0]

    def counted(fn):
        def wrapper(*args):
            calls[0] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(bbw, "ext_bundles", counted(bbw.ext_bundles))
    monkeypatch.setattr(bbw, "bundle_cohomology", counted(bbw.bundle_cohomology))
    from igq.cli import run_dcat_suite

    rows = run_dcat_suite(k, kind, ("residual",), max_k=k)
    assert not [r.claim_id for r in rows if r.status == "FAIL"]
    return calls[0]


@pytest.mark.parametrize("kind", ["gr", "igr"])
def test_residual_lookups_grow_quadratically(monkeypatch, kind):
    # the pieces the residual first pages touch number O(k^2), and each is
    # looked up once: doubling k may at most quadruple the lookups, with
    # slack; one Ext lookup per resolution pair of every (i, j) grew 15x
    small = _residual_lookups(monkeypatch, 10, kind)
    large = _residual_lookups(monkeypatch, 20, kind)
    assert large <= 5 * small, (small, large)


def test_bundle_term_validation():
    with pytest.raises(ValueError):
        BundleTerm(-1, 0)
    with pytest.raises(ValueError):
        BundleTerm(0, 0, 0)


ALL_KINDS = (Space.gr(4), Space.gr(5), Space.gr(7), Space.igr(2), Space.igr(3), Space.igr(5))


def _random_pair(rng):
    return (rng.randint(0, 5), rng.randint(-8, 8)), (rng.randint(0, 5), rng.randint(-8, 8))


def _ext_oracle(space, E, F):
    # straight from the definition, without the Ext memo
    (a, c), (b, d) = E, F
    acc = {}
    for term in hom_bundle(a, c, b, d):
        res = bundle_cohomology(space, term.sym, term.twist)
        if not res.vanishes:
            acc[res.degree] = acc.get(res.degree, 0) + term.scalar_mult * res.rep_dimension
    return tuple(sorted((deg, v) for deg, v in acc.items() if v))


def test_ext_translation_invariance():
    rng = random.Random(20170)
    for space in ALL_KINDS:
        for _ in range(40):
            (a, c), (b, d) = _random_pair(rng)
            t = rng.randint(-6, 6)
            assert ext_bundles(space, (a, c + t), (b, d + t)) == ext_bundles(space, (a, c), (b, d))


def test_ext_memo_matches_direct_sum():
    rng = random.Random(4242)
    for space in ALL_KINDS:
        for _ in range(60):
            E, F = _random_pair(rng)
            prof = ext_bundles(space, E, F)
            assert prof.dims == _ext_oracle(space, E, F), (space, E, F)
            assert prof.conclusive


def test_ext_interleaved_spaces_match_fresh_calls(monkeypatch):
    pairs = [((0, 0), (0, 1)), ((1, 0), (2, -1)), ((3, 2), (1, 0)), ((2, 0), (2, -3))]
    first, second = Space.gr(6), Space.igr(3)
    interleaved = []
    for space in (first, second, first):
        interleaved.append([ext_bundles(space, E, F) for E, F in pairs])
    fresh = []
    for space in (first, second, first):
        row = []
        for E, F in pairs:
            monkeypatch.setattr(bbw, "_ext_cache", (None, {}))
            row.append(ext_bundles(space, E, F))
        fresh.append(row)
    assert interleaved == fresh
    assert interleaved[0] != interleaved[1]


def test_integer_weyl_dimensions_match_fraction_products():
    def gl_fraction(hw):
        d = Fraction(1)
        for i in range(len(hw)):
            for j in range(i + 1, len(hw)):
                d *= Fraction(hw[i] - hw[j] + j - i, j - i)
        return d

    def sp_fraction(hw):
        k = len(hw)
        rho = [k - i for i in range(k)]
        l = [h + r for h, r in zip(hw, rho)]
        d = Fraction(1)
        for i in range(k):
            d *= Fraction(l[i], rho[i])
            for j in range(i + 1, k):
                d *= Fraction(l[i] ** 2 - l[j] ** 2, rho[i] ** 2 - rho[j] ** 2)
        return d

    rng = random.Random(1957)
    for _ in range(200):
        m = rng.randint(1, 12)
        # dominant for GL(m): weakly decreasing, any sign
        hw = tuple(sorted((rng.randint(-6, 9) for _ in range(m)), reverse=True))
        assert weyl_dimension_gl(hw) == gl_fraction(hw)
        k = rng.randint(1, 6)
        # dominant for Sp(2k): weakly decreasing and non-negative
        hw = tuple(sorted((rng.randint(0, 9) for _ in range(k)), reverse=True))
        assert weyl_dimension_sp(hw) == sp_fraction(hw)


def test_ext_negative_symmetric_power_raises():
    space = Space.igr(3)
    for E, F in (((-1, 0), (0, 0)), ((0, 0), (-2, 1))):
        with pytest.raises(ValueError):
            ext_bundles(space, E, F)
    with pytest.raises(ValueError):
        hom_bundle(-1, 0, 0, 0)
