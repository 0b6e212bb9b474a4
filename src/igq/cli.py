"""Batch verification driver.

    igq qh   --n N [--check LIST] [--q-mode 1|symbolic] [--format json|md]
             [--dump DIR] [--max-n M]
    igq dcat --k K --space gr|igr [--check LIST] [--format json|md]
             [--max-k M]

Exit code 0 iff no FAIL rows.  JSON output is byte-identical across
identical invocations; wall-clock goes to stderr as a detachable footer.

Every `main` call runs cold: it empties igq's memo tables
(`igq.clear_caches`) before any check, so no invocation reads another's
entries and a process serving many invocations holds one run's at a time.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from functools import cache

from . import __version__, clear_caches
from .bbw import (
    IGR,
    Space,
    check_f_orthogonality,
    ext_bundles,
    ext_f_pair,
    f_complex_euler_consistency,
    verify_collection,
)
from .deformation import regularity_corank, verify_lemma_presentation
from .poly import dump_generators
from .presentations import (
    PresentationSpec,
    SPECIALIZE_1,
    SYMBOLIC,
    VARIANTS,
    build_presentation,
    count_offorigin_by_substitution,
    decompose_spectrum,
    presentation_basis,
    presentation_dimension,
    verify_homomorphism,
)
from .report import check, emit_json, emit_markdown, informational, summarize
from .unfolding import match_quantum_factor

QH_CHECKS = ("dims", "homomorphism", "spectrum", "zcount", "lemma", "regularity", "unfolding")
DCAT_CHECKS = ("lefschetz", "keyext", "residual", "euler")


def _timed(fn):
    t0 = time.monotonic()
    out = fn()
    return out, int(1000 * (time.monotonic() - t0))


def _guarded(rows, claim_id, thunk):
    """Run one check; an exception becomes a FAIL row, never an abort."""
    try:
        rows.extend(thunk())
    except Exception as exc:  # noqa: BLE001 - every failure must surface as a row
        rows.append(
            check(
                claim_id + ".error",
                "raised %s" % type(exc).__name__,
                "no exception",
                0,
                str(exc)[:200],
            )
        )


def _qh_checks(n: int, checks=QH_CHECKS, max_n: int = 5) -> list:
    """The requested qh checks that apply at n, in dependency order;
    ValueError when n is out of range or no requested check applies."""
    if not 2 <= n <= max_n:
        raise ValueError("n out of range [2, %d]" % max_n)
    wanted = set(checks)
    checks = [c for c in QH_CHECKS if c in wanted and (c != "lemma" or n >= 3)]
    if wanted and not checks:
        # a run with no rows would exit 0 and certify nothing
        raise ValueError("no requested qh check applies at n = %d (lemma needs n >= 3)" % n)
    return checks


def run_qh_suite(n: int, checks=QH_CHECKS, q_mode: str = SPECIALIZE_1, max_n: int = 5):
    """Run the quantum-cohomology checks for one n, in dependency order.
    Individual failures become FAIL rows; the batch never aborts.  Raises
    ValueError as `_qh_checks` does."""
    checks = _qh_checks(n, checks, max_n)
    rows = []
    expected_dim = 2 * n * (n - 1)

    def dims_rows():
        # dimension counting is a zero-dimensional computation: always done
        # with q specialized, whatever mode the graded checks run in
        out = []
        for variant in VARIANTS:
            (dim, ms) = _timed(
                lambda v=variant: presentation_dimension(
                    PresentationSpec(n, v, SPECIALIZE_1)
                )
            )
            out.append(check("dims.%s.n=%d" % (variant, n), dim, expected_dim, ms))
        return out

    def homomorphism_rows():
        out = []
        for quantum in (False, True):
            label = "quantum" if quantum else "classical"
            (rep, ms) = _timed(lambda q=quantum: verify_homomorphism(n, q, q_mode))
            note = "lambda=%+d" % rep["lambda"] if rep["lambda"] is not None else ""
            out.append(
                check(
                    "homomorphism.%s.n=%d" % (label, n),
                    "all images reduce to 0" if rep["ok"] else "nonzero residue",
                    "all images reduce to 0",
                    ms,
                    note,
                )
            )
        return out

    def spectrum_rows():
        (rep, ms) = _timed(lambda: decompose_spectrum(n))
        expected = (
            (4, 0, 1, 3, 3)
            if n == 2
            else (expected_dim, 1, n - 1, (2 * n - 1) * (n - 1), (2 * n - 1) * (n - 1))
        )
        return [
            check(
                "spectrum.n=%d" % n,
                rep.as_tuple(),
                expected,
                ms,
                "separating form %s" % rep.separating_form,
            )
        ]

    def zcount_rows():
        (cnt, ms) = _timed(lambda: count_offorigin_by_substitution(n))
        (rep, ms2) = _timed(lambda: decompose_spectrum(n))
        return [
            check("zcount.n=%d" % n, cnt, (n - 1) * (2 * n - 1), ms),
            check(
                "zcount.agrees_with_spectrum.n=%d" % n,
                cnt,
                rep.offorigin_distinct_points,
                ms + ms2,
                "two independent counts",
            ),
        ]

    def lemma_rows():
        (rep, ms) = _timed(lambda: verify_lemma_presentation(n, q_mode == SYMBOLIC))
        return [
            check(
                "lemma.sigma_2n2.n=%d" % n,
                "t^0 part nonzero"
                if not rep["sigma_2n2_t0_zero"]
                else "t-coefficient %s" % ("ok" if rep["sigma_2n2_t_ok"] else "wrong"),
                "t-coefficient ok",
                ms,
                "found %s" % rep["sigma_2n2_t_coeff"],
            ),
            check(
                "lemma.delta_expansion.n=%d" % n,
                "t=0 and t0=0"
                if rep["delta_t_ok"] and rep["delta_t0_ok"]
                else "nonzero residue",
                "t=0 and t0=0",
                0,
            ),
            check(
                "lemma.sigma_2n.n=%d" % n,
                "O(t)" if rep["sigma_2n_t0_zero"] else "not O(t)",
                "O(t)",
                0,
                "recorded; t-coefficient not asserted",
            ),
        ]

    def regularity_rows():
        (c, ms) = _timed(lambda: regularity_corank(n))
        return [check("regularity.corank.n=%d" % n, c, 1, ms)]

    def unfolding_rows():
        (rep, ms) = _timed(lambda: match_quantum_factor(n))
        return [
            check(
                "unfolding.match.n=%d" % n,
                "%s %s" % (rep["quantum_pair"], rep["label"]),
                "%s %s" % ((1, n - 1) if n >= 3 else (0, 1), "A%d" % max(n - 1, 1)),
                ms,
                rep["scope"],
            )
        ]

    plan = {
        "dims": dims_rows,
        "homomorphism": homomorphism_rows,
        "spectrum": spectrum_rows,
        "zcount": zcount_rows,
        "lemma": lemma_rows,
        "regularity": regularity_rows,
        "unfolding": unfolding_rows,
    }
    for name in checks:
        _guarded(rows, "%s.n=%d" % (name, n), plan[name])
    return rows


def run_dcat_suite(k: int, space_kind: str, checks=DCAT_CHECKS, max_k: int = 4):
    """Run the derived-category checks for one k on G(2,2k)/G(2,2k+1) or
    IG(2,2k).  Raises ValueError when k is out of range or no requested
    check applies."""
    if not 2 <= k <= max_k:
        raise ValueError("k out of range [2, %d]" % max_k)
    wanted = set(checks)
    checks = [c for c in DCAT_CHECKS if c in wanted and (c != "keyext" or space_kind == IGR)]
    if wanted and not checks:
        raise ValueError(
            "no requested dcat check applies to --space %s (keyext runs on igr only)" % space_kind
        )
    spaces = [Space.gr(2 * k), Space.gr(2 * k + 1)] if space_kind == "gr" else [Space.igr(k)]
    main = spaces[0]
    rows = []

    def lefschetz_rows():
        out = []
        for sp in spaces:
            (rep, ms) = _timed(lambda s=sp: verify_collection(s))
            out.append(
                check(
                    "lefschetz.%s" % rep["space"],
                    "0 failures" if rep["ok"] else "%d failures" % len(rep["failures"]),
                    "0 failures",
                    ms,
                    "%d objects, %d wrong-direction pairs" % (rep["objects"], rep["pairs"]),
                )
            )
        return out

    def keyext_rows():
        (prof, ms) = _timed(lambda: ext_bundles(main, (k - 1, 0), (k - 1, 1 - k)))
        return [
            check(
                "keyext.%s" % main,
                str(prof),
                "C[%d]" % (2 * k - 3),
                ms,
                "Ext(S^%dU*, S^%dU*(%d))" % (k - 1, k - 1, 1 - k),
            )
        ]

    def residual_rows():
        out = []
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                (prof, ms) = _timed(lambda a=i, b=j: ext_f_pair(main, a, b))
                claim = "residual.%s.i=%d.j=%d" % (main, i, j)
                shape = "total=%d (%s)" % (
                    prof.total_dim,
                    "conclusive" if prof.conclusive else "inconclusive",
                )
                if j < i:
                    want = 1 if (space_kind == IGR and i == j + 1) else 0
                    out.append(
                        check(claim, shape, "total=%d (conclusive)" % want, ms, str(prof))
                    )
                else:
                    out.append(informational(claim, shape, ms, str(prof)))
        for i in range(1, k + 1):
            (rep, ms) = _timed(lambda a=i: check_f_orthogonality(main, a))
            out.append(
                check(
                    "residual.orthogonality.%s.i=%d" % (main, i),
                    "0 failures" if rep["ok"] else "%d failures" % len(rep["failures"]),
                    "0 failures",
                    ms,
                    "%d blocks x %d objects" % (rep["blocks"], rep["objects_per_block"]),
                )
            )
        return out

    def euler_rows():
        (rep, ms) = _timed(lambda: f_complex_euler_consistency(main))
        return [
            check(
                "euler.%s" % main,
                "0 bad twists" if rep["ok"] else str(rep["bad_twists"]),
                "0 bad twists",
                ms,
                "twists 0..%d" % (2 * rep["k"] - 1),
            )
        ]

    plan = {
        "lefschetz": lefschetz_rows,
        "keyext": keyext_rows,
        "residual": residual_rows,
        "euler": euler_rows,
    }
    for name in checks:
        _guarded(rows, "%s.%s" % (name, main), plan[name])
    return rows


def _dump_presentations(n: int, q_mode: str, directory: str):
    for variant in VARIANTS:
        spec = PresentationSpec(n, variant, q_mode)
        ideal = build_presentation(spec, schur=True)
        gb = presentation_basis(spec)
        q_label = "symbolic" if spec.symbolic_q else "1"
        header = "IG(2,%d) variant=%s q=%s" % (2 * n, variant, q_label)
        base = os.path.join(directory, "ig_n%d_%s" % (n, variant.lower()))
        with open(base + ".gens.txt", "w") as fh:
            fh.write(dump_generators(ideal.generators, header))
        with open(base + ".gb.txt", "w") as fh:
            fh.write(dump_generators(gb.elements, header + " groebner"))


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: `parse_args` returns
    a fresh namespace and leaves the parser as it was, so every `main`
    call shares one tree."""
    parser = argparse.ArgumentParser(
        prog="igq",
        description="Exact verification suite for the quantum cohomology of "
        "IG(2,2n) and the exceptional collections on G(2,m) / IG(2,2k).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    qh = sub.add_parser("qh", help="quantum cohomology checks")
    qh.add_argument("--n", type=int, required=True)
    qh.add_argument("--check", default=",".join(QH_CHECKS),
                    help="comma-separated subset of %s" % (QH_CHECKS,))
    qh.add_argument("--q-mode", choices=("1", "symbolic"), default="1")
    qh.add_argument("--max-n", type=int, default=5)
    qh.add_argument("--format", choices=("json", "md"), default="json")
    qh.add_argument("--dump", metavar="DIR", default=None)

    dc = sub.add_parser("dcat", help="derived category checks")
    dc.add_argument("--k", type=int, required=True)
    dc.add_argument("--space", choices=("gr", "igr"), required=True)
    dc.add_argument("--check", default=",".join(DCAT_CHECKS),
                    help="comma-separated subset of %s" % (DCAT_CHECKS,))
    dc.add_argument("--max-k", type=int, default=4)
    dc.add_argument("--format", choices=("json", "md"), default="json")
    return parser


def _parse_checks(text: str, known, command: str):
    """The comma-separated check names, or None after one stderr line when
    a name is unknown or none is given: an empty run certifies nothing."""
    checks = [c for c in text.split(",") if c]
    bad = set(checks) - set(known)
    if bad:
        print("unknown %s checks: %s" % (command, ",".join(sorted(bad))), file=sys.stderr)
        return None
    if not checks:
        print("no %s checks given; choose from %s" % (command, ",".join(known)), file=sys.stderr)
        return None
    return checks


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    clear_caches()
    t0 = time.monotonic()
    if args.command == "qh":
        checks = _parse_checks(args.check, QH_CHECKS, "qh")
        if checks is None:
            return 2
        q_mode = SYMBOLIC if args.q_mode == "symbolic" else SPECIALIZE_1
        try:
            _qh_checks(args.n, checks, args.max_n)  # refuse before making the dump directory
            if args.dump:
                os.makedirs(args.dump, exist_ok=True)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        except OSError as exc:
            print("cannot create dump directory: %s" % exc, file=sys.stderr)
            return 2
        rows = run_qh_suite(args.n, checks, q_mode, args.max_n)
        if args.dump:
            try:
                _dump_presentations(args.n, q_mode, args.dump)
            except OSError as exc:
                print("cannot write dump files: %s" % exc, file=sys.stderr)
                return 2
        invocation = {
            "command": "qh",
            "n": args.n,
            "checks": ",".join(checks),
            "q_mode": args.q_mode,
            "max_n": args.max_n,
        }
    else:
        checks = _parse_checks(args.check, DCAT_CHECKS, "dcat")
        if checks is None:
            return 2
        try:
            rows = run_dcat_suite(args.k, args.space, checks, args.max_k)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        invocation = {
            "command": "dcat",
            "k": args.k,
            "space": args.space,
            "checks": ",".join(checks),
            "max_k": args.max_k,
        }
    emit = emit_json if args.format == "json" else emit_markdown
    sys.stdout.write(emit(rows, __version__, invocation))
    s = summarize(rows)
    print(
        "# elapsed %.1fs: %d pass, %d fail, %d inconclusive"
        % (time.monotonic() - t0, s["pass"], s["fail"], s["inconclusive"]),
        file=sys.stderr,
    )
    return 0 if s["fail"] == 0 else 1
