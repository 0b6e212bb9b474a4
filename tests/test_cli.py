"""Driver: suites, report formats, determinism, exit codes, dumps."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import igq
from igq import bbw, clear_caches, cli, deformation, presentations, unfolding
from igq.bbw import Space
from igq.cli import main, run_dcat_suite, run_qh_suite
from igq.groebner import GroebnerBasis, normal_form
from igq.presentations import (
    CLASSICAL_II,
    QUANTUM_II,
    SPECIALIZE_1,
    VARIANTS,
    PresentationSpec,
    SpectrumReport,
    presentation_ring,
)
from igq.report import (
    CheckResult,
    check,
    emit_json,
    emit_markdown,
    informational,
    summarize,
)

from dump_oracle import load_dump
from groebner_oracle import is_groebner


def test_qh_suite_full_run_n3():
    rows = run_qh_suite(3)
    assert len(rows) >= 7
    assert all(r.status == "PASS" for r in rows), [
        (r.claim_id, r.computed) for r in rows if r.status != "PASS"
    ]
    spectrum = [r for r in rows if r.claim_id == "spectrum.n=3"]
    assert spectrum and spectrum[0].computed == "(12, 1, 2, 10, 10)"


def test_qh_suite_single_check():
    rows = run_qh_suite(2, checks=("spectrum",))
    assert len(rows) == 1
    assert rows[0].computed == "(4, 0, 1, 3, 3)"


def test_qh_suite_empty_check_list():
    assert run_qh_suite(3, checks=()) == []


def test_qh_suite_range_guard():
    with pytest.raises(ValueError):
        run_qh_suite(1)
    with pytest.raises(ValueError):
        run_qh_suite(6, max_n=5)


def test_dcat_suite_keyext():
    rows = run_dcat_suite(3, "igr", checks=("keyext",))
    assert len(rows) == 1
    assert rows[0].status == "PASS" and rows[0].computed == "C[3]"


def test_dcat_suite_residual_statuses():
    rows = run_dcat_suite(2, "gr", checks=("residual",))
    asserted = [r for r in rows if "i=2.j=1" in r.claim_id]
    assert asserted and asserted[0].status == "PASS"
    informative = [r for r in rows if r.status == "INCONCLUSIVE"]
    assert all(".i=" in r.claim_id for r in informative)
    # informational rows appear only in the i <= j direction
    for r in informative:
        i = int(r.claim_id.split("i=")[1].split(".")[0])
        j = int(r.claim_id.split("j=")[1])
        assert i <= j


def test_dcat_suite_lefschetz_counts():
    rows = run_dcat_suite(2, "igr", checks=("lefschetz",))
    assert rows[0].status == "PASS"
    assert "4 objects" in rows[0].note


def test_check_result_invariant():
    with pytest.raises(ValueError):
        CheckResult("x", "1", "2", "PASS")
    with pytest.raises(ValueError):
        CheckResult("x", "1", "1", "FAIL")
    with pytest.raises(ValueError):
        CheckResult("x", "1", "1", "MAYBE")


def test_summarize_counts():
    rows = [check("a", 1, 1), check("b", 1, 2), informational("c", "p")]
    assert summarize(rows) == {"pass": 1, "fail": 1, "inconclusive": 1}


def test_json_is_deterministic_and_free_of_timing():
    rows = run_qh_suite(2, checks=("spectrum", "regularity"))
    doc1 = emit_json(rows, "0.1.0", {"command": "qh", "n": 2})
    doc2 = emit_json(
        run_qh_suite(2, checks=("spectrum", "regularity")),
        "0.1.0",
        {"command": "qh", "n": 2},
    )
    assert doc1 == doc2
    parsed = json.loads(doc1)
    assert set(parsed) == {"tool_version", "invocation", "rows", "summary"}
    assert all("millis" not in row for row in parsed["rows"])
    ids = [row["claim_id"] for row in parsed["rows"]]
    assert ids == sorted(ids)


def test_markdown_contains_summary_line():
    rows = run_qh_suite(2, checks=("regularity",))
    md = emit_markdown(rows, "0.1.0", {"command": "qh"})
    assert "| regularity.corank.n=2 | 1 | 1 | PASS |" in md
    assert "summary: 1 pass, 0 fail, 0 inconclusive" in md


def test_main_exit_codes_and_output(capsys):
    code = main(["qh", "--n", "2", "--check", "regularity", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["summary"]["fail"] == 0
    assert main(["qh", "--n", "2", "--check", "bogus"]) == 2


def test_one_parser_serves_every_main_call(capsys):
    # the parser is built once per process, so neither a refused run (exit 2)
    # nor an argparse error (SystemExit) may leave anything in it for the
    # next call: each parse must equal that of a freshly built parser
    shared, fresh = cli.build_parser(), cli.build_parser.__wrapped__()
    assert cli.build_parser() is shared and fresh is not shared
    assert main(["qh", "--n", "9", "--check", "dims", "--q-mode", "symbolic"]) == 2
    assert main(["dcat", "--k", "2", "--space", "igr", "--check", "bogus", "--max-k", "7"]) == 2
    for argv in (["dcat", "--k", "2", "--space", "p"], ["qh", "--n", "2", "--q-mode", "2"], ["qh"], []):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()
    for argv in (
        ["qh", "--n", "3"],
        ["qh", "--n", "2", "--check", "regularity", "--format", "md"],
        ["dcat", "--k", "2", "--space", "igr"],
        ["dcat", "--k", "3", "--space", "gr", "--check", "euler", "--max-k", "6"],
    ):
        assert vars(shared.parse_args(argv)) == vars(fresh.parse_args(argv))
    assert main(["dcat", "--k", "2", "--space", "igr", "--check", "keyext"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["invocation"] == {"checks": "keyext", "command": "dcat", "k": 2, "max_k": 4, "space": "igr"}


def _run_without_site(code: str) -> str:
    # -S keeps site's .pth imports from loading a module and hiding a regression
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_importing_the_cli_loads_no_dataclasses_inspect_or_typing():
    # each costs every qh and dcat process its import time
    code = "import sys, igq.cli; print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    assert _run_without_site(code) == "[]"


def test_clear_caches_imports_nothing():
    code = "import sys, igq; before = set(sys.modules); igq.clear_caches(); print(sorted(set(sys.modules) - before))"
    assert _run_without_site(code) == "[]"
    # nor does it run a deferred module: one that has not run holds no entries
    assert _modules_run("import igq.cli; igq.clear_caches()") == ["__init__", "cli", "report"]


# an audit hook sees each module's code run (the "exec" event), whether or
# not its bytecode was cached; the child's last line names the igq modules that ran
_RAN = """
import json, os, sys
ran = []
sys.addaudithook(lambda event, args: event == "exec" and ran.append(getattr(args[0], "co_filename", "")))
%s
here = os.path.dirname(sys.modules["igq"].__file__)
print(json.dumps(sorted({os.path.basename(f)[:-3] for f in ran if os.path.dirname(f) == here})))
"""


def _modules_run(code: str) -> list:
    return json.loads(_run_without_site(_RAN % code).splitlines()[-1])


def test_importing_the_cli_runs_only_cli_and_report_yet_registers_every_module():
    # every module has its sys.modules entry from `import igq.cli` on:
    # perfbench's tracer wraps the functions of the modules it finds there
    code = "import igq.cli; print(json.dumps(sorted(name for name in sys.modules if name.startswith('igq.'))))"
    registered, ran = map(json.loads, _run_without_site(_RAN % code).splitlines())
    src = Path(cli.__file__).parent
    assert registered == sorted("igq." + p.stem for p in src.glob("*.py") if p.stem not in ("__init__", "__main__"))
    assert ran == ["__init__", "cli", "report"]


def test_a_dcat_run_runs_bbw_and_no_qh_module():
    code = "import igq.cli; igq.cli.main(['dcat', '--k', '2', '--space', 'igr'])"
    assert _modules_run(code) == ["__init__", "bbw", "cli", "report"]


def test_timed_starts_its_clock_after_the_module_it_times_has_run():
    # else the first check to touch a deferred module counts its compile in
    # the md report's ms column: the lemma check is the first to touch deformation
    code = """
import types, igq.cli
clock = igq.cli.time.monotonic
ran_at_reads = []
def monotonic():
    ran_at_reads.append(any(os.path.basename(f) == "deformation.py" for f in ran))
    return clock()
igq.cli.time = types.SimpleNamespace(monotonic=monotonic)
igq.cli.run_qh_suite(3, ["lemma"])
print(json.dumps(ran_at_reads))
"""
    ran_at_reads = json.loads(_run_without_site(_RAN % code).splitlines()[0])
    assert ran_at_reads == [True, True]


def test_a_spectrum_run_runs_neither_bbw_nor_deformation():
    code = "import igq.cli; igq.cli.main(['qh', '--n', '3', '--check', 'spectrum'])"
    ran = _modules_run(code)
    assert "bbw" not in ran and "deformation" not in ran
    assert {"presentations", "groebner", "cli", "univariate"} <= set(ran)


def test_a_presentation_run_runs_no_spectrum_module():
    # presentations reaches univariate through its module attribute, so the
    # four checks that never count points never compile it
    for q_mode in ("1", "symbolic"):
        argv = ["qh", "--n", "4", "--check", "dims,homomorphism,lemma,regularity", "--q-mode", q_mode]
        ran = _modules_run("import igq.cli; igq.cli.main(%r)" % argv)
        assert ran == ["__init__", "cli", "deformation", "groebner", "linalg", "poly", "presentations", "report"], q_mode


def test_a_dcat_run_holds_only_its_own_space_in_the_memos(capsys):
    assert main(["dcat", "--k", "3", "--space", "gr"]) == 0
    assert main(["dcat", "--k", "4", "--space", "igr"]) == 0
    capsys.readouterr()
    assert bbw._bbw_cache and all(key[:2] == ("igr", 4) for key in bbw._bbw_cache)
    assert list(bbw._ext_cache) == [("igr", 4)]


def test_a_qh_run_holds_only_its_own_n_in_the_memos(capsys):
    assert main(["qh", "--n", "3"]) == 0
    assert main(["qh", "--n", "4", "--check", "spectrum,dims"]) == 0
    capsys.readouterr()
    assert list(presentations._spectrum_cache) == [4]
    assert presentations._basis_cache and all(n == 4 for n, *_ in presentations._basis_cache)


def test_a_spectrum_run_holds_only_the_cores_it_splits(capsys):
    # the spectrum, zcount and unfolding read QUANTUM_II's core, derived
    # from CLASSICAL_II's, and the one report; no weighted basis and no
    # image relations are held
    assert main(["qh", "--n", "4", "--check", "spectrum,zcount,unfolding"]) == 0
    capsys.readouterr()
    assert presentations._basis_cache == {}
    assert sorted(presentations._core_cache) == [(4, CLASSICAL_II, False), (4, QUANTUM_II, False)]
    assert list(presentations._spectrum_cache) == [4]
    assert presentations._image_relations_cache == {}


def test_clear_caches_empties_the_tables_in_place():
    # the benchmark's tracer holds these two dicts to tell hits from misses
    held = bbw._bbw_cache, presentations._basis_cache
    bbw.ext_bundles(Space.gr(4), (1, 0), (1, 1))
    presentations.presentation_basis(PresentationSpec(2, VARIANTS[0], SPECIALIZE_1))
    presentations.decompose_spectrum(2)
    presentations.verify_homomorphism(2, False)
    tables = list(igq._memos)
    # bbw's cohomology, Ext and Weyl-denominator tables; presentations' core,
    # basis, image-relations and spectrum tables
    assert len(tables) == 7 and all(tables)
    clear_caches()
    assert igq._memos == [{}] * 7 and all(a is b for a, b in zip(igq._memos, tables))
    assert held[0] is bbw._bbw_cache and held[1] is presentations._basis_cache
    assert bbw._ext_cache == {}


def test_interleaved_runs_print_the_same_report(capsys):
    dcat = ["dcat", "--k", "5", "--space", "gr", "--max-k", "5"]
    outs = []
    for argv in (dcat, ["qh", "--n", "3"], dcat):
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[2]
    assert json.loads(outs[0])["invocation"]["k"] == 5


@pytest.mark.parametrize("command", [["qh", "--n", "3"], ["dcat", "--k", "2", "--space", "gr"]], ids=["qh", "dcat"])
@pytest.mark.parametrize("checks", ["", ",", ",,"])
def test_empty_check_list_is_refused(command, checks, capsys):
    # a report with no rows would read "0 pass" and certify nothing
    assert main(command + ["--check", checks]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("no %s checks given" % command[0])
    assert len(captured.err.splitlines()) == 1


def test_main_byte_identical_json(capsys):
    main(["qh", "--n", "2", "--check", "spectrum,zcount"])
    first = capsys.readouterr().out
    main(["qh", "--n", "2", "--check", "spectrum,zcount"])
    second = capsys.readouterr().out
    assert first == second


def test_dump_writes_presentations(tmp_path, capsys):
    code = main(
        ["qh", "--n", "2", "--check", "dims", "--dump", str(tmp_path), "--format", "md"]
    )
    capsys.readouterr()
    assert code == 0
    gens_file = tmp_path / "ig_n2_quantum_ii.gens.txt"
    gb_file = tmp_path / "ig_n2_quantum_ii.gb.txt"
    assert gens_file.exists() and gb_file.exists()
    text = gens_file.read_text()
    assert text.splitlines()[0] == "# IG(2,4) variant=QUANTUM_II q=1 order=weighted(1,2)"
    ring, gens = load_dump(text)
    assert ring.names == ("a1", "a2")
    a1, a2 = ring.var("a1"), ring.var("a2")
    assert gens == [2 * a2 - a1**2, a2**2 + a1]


@pytest.mark.parametrize("q_mode", ("1", "symbolic"))
def test_dump_files_name_their_order(q_mode, tmp_path, capsys):
    # a basis means nothing without its order: read back in the order its
    # header names, each gb.txt is a Groebner basis of its gens.txt, and
    # the substitution rules lead it (s_r for r >= 3, or every b_k)
    mode = presentations.SYMBOLIC if q_mode == "symbolic" else SPECIALIZE_1
    for n in range(2, 7):
        argv = ["qh", "--n", str(n), "--max-n", str(n), "--check", "dims", "--q-mode", q_mode]
        assert main(argv + ["--dump", str(tmp_path)]) == 0
        capsys.readouterr()
        for variant in VARIANTS:
            base = str(tmp_path / ("ig_n%d_%s" % (n, variant.lower())))
            ring, elements = load_dump(Path(base + ".gb.txt").read_text())
            gens_ring, gens = load_dump(Path(base + ".gens.txt").read_text())
            assert ring == gens_ring and ring == presentation_ring(PresentationSpec(n, variant, mode))
            gb = GroebnerBasis(ring, elements)
            assert is_groebner(gb), (n, variant)
            assert all(normal_form(g, gb).is_zero for g in gens), (n, variant)
            if variant.endswith("_I"):
                rules = ["s%d" % r for r in range(3, 2 * n - 1)]
            else:
                rules = ["b%d" % k for k in range(1, n - 1)]
            leads = set(gb.lead_monomials)
            assert all(ring.var(v).lead_monomial in leads for v in rules), (n, variant)


def test_an_empty_dump_path_is_refused(capsys):
    # an empty path is no directory: refused like any other, not skipped
    code = main(["qh", "--n", "2", "--dump", ""])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("cannot create dump directory")
    assert len(captured.err.splitlines()) == 1


def test_dump_into_a_file_path_is_refused_before_the_checks(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    for target in (blocker, blocker / "sub"):
        code = main(["qh", "--n", "2", "--check", "dims", "--dump", str(target)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("cannot create dump directory")
        assert len(captured.err.splitlines()) == 1
    assert blocker.read_text() == ""


def test_an_unwritable_dump_file_is_refused(tmp_path, capsys):
    (tmp_path / "ig_n2_classical_i.gens.txt").mkdir()
    code = main(["qh", "--n", "2", "--check", "dims", "--dump", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("cannot write dump files")
    assert len(captured.err.splitlines()) == 1


def test_a_limit_below_2_is_refused_by_its_flag(tmp_path, capsys):
    # n and k start at 2, so --max-n 1 would allow the empty range [2, 1]
    target = tmp_path / "D"
    for argv, message in (
        (["qh", "--n", "2", "--max-n", "1", "--dump", str(target)], "--max-n must be at least 2, got 1"),
        (["qh", "--n", "1", "--max-n", "-3"], "--max-n must be at least 2, got -3"),
        (["dcat", "--k", "2", "--space", "gr", "--max-k", "1"], "--max-k must be at least 2, got 1"),
        (["dcat", "--k", "2", "--space", "igr", "--max-k", "0"], "--max-k must be at least 2, got 0"),
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == message + "\n"
    assert not target.exists()


def test_a_refused_qh_run_leaves_no_dump_directory(tmp_path, capsys):
    target = tmp_path / "D"
    for argv in (["--n", "9"], ["--n", "2", "--check", "lemma"]):
        code = main(["qh", *argv, "--dump", str(target)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert not target.exists()


def test_dcat_cli_gr(capsys):
    code = main(["dcat", "--k", "2", "--space", "gr", "--check", "lefschetz,euler"])
    out = capsys.readouterr().out
    assert code == 0
    parsed = json.loads(out)
    ids = [r["claim_id"] for r in parsed["rows"]]
    assert "lefschetz.G(2,4)" in ids and "lefschetz.G(2,5)" in ids
    assert parsed["summary"]["fail"] == 0


DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"


def _assert_recorded_digest(argv, capsys):
    # the benchmark's recorded stdout sha256; this test only reads the file
    want = json.loads(DIGESTS.read_text())[" ".join(argv)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == want


@pytest.mark.parametrize("space", ["gr", "igr"])
@pytest.mark.parametrize("k", range(2, 11))
def test_dcat_json_matches_recorded_digest(k, space, capsys):
    _assert_recorded_digest(["dcat", "--k", str(k), "--space", space, "--max-k", "10"], capsys)


# stdout sha256 of `igq dcat --k K --space S --max-k K` above the benchmark's
# range, with every j >= i residual row (INCONCLUSIVE) in the digest
DCAT_GOLDENS = {
    (20, "gr"): "a7a947f0cf7a133176bec8981b0840c7cded93e7c70848eb78fbae9340451571",
    (20, "igr"): "532cdfd036ef79878bfeedb55d76c32afca621c79cf2a3a43b88f5307a800469",
    (30, "gr"): "13f8def8b5b680ac32d88e46ca11c6fb8350b62b47a533253d34f080cc6da894",
    (30, "igr"): "5c2ad9d24395063fbe777a925d5f6e52a68bff7666dbdc1080947d534dcdee31",
}


@pytest.mark.parametrize("k, space", sorted(DCAT_GOLDENS))
def test_dcat_json_matches_golden_above_the_benchmark_range(k, space, capsys):
    assert main(["dcat", "--k", str(k), "--space", space, "--max-k", str(k)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DCAT_GOLDENS[k, space]


@pytest.mark.parametrize(
    "checks",
    [
        ["--check", "spectrum,zcount,unfolding"],
        ["--check", "dims,homomorphism,lemma,regularity", "--q-mode", "symbolic"],
    ],
    ids=["spectrum", "presentations"],
)
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_qh_json_matches_recorded_digest(n, checks, capsys):
    _assert_recorded_digest(["qh", "--n", str(n)] + checks, capsys)


# stdout sha256 of `igq qh --n N --max-n N --q-mode M` with all seven checks,
# above the benchmark's range
QH_GOLDENS = {
    (6, "1"): "29a5515e2bf5149a93c5894d22e1399b29b905ea359a7f82f516226a1bd65e0c",
    (6, "symbolic"): "42f1bea2f5e70f8b29cd394b16b62eccc54b0e594b23f6dbdb89816822781ac8",
    (8, "1"): "8d678b7802635c44e3ff8c3e9f8e80941583cee61d9f61de48354305e5820dee",
    (8, "symbolic"): "13a0b6fe5b7b034c4b9ca24caaeb8e5507ea53aec80a79d27e48ec43d1c6c072",
}


@pytest.mark.parametrize("n, q_mode", sorted(QH_GOLDENS))
def test_qh_json_matches_golden_above_the_benchmark_range(n, q_mode, capsys):
    assert main(["qh", "--n", str(n), "--max-n", str(n), "--q-mode", q_mode]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == QH_GOLDENS[n, q_mode]


# sha256 of each file `igq qh --n 4 --dump DIR` writes, in the weighted
# order; the classical variants have no q, so both q-modes write them
# alike, and the I-variants' gens.txt hold the triangular rules
_CLASSICAL_DUMPS = {
    "ig_n4_classical_i.gb.txt": "42b30e7cf31ac0da28c370780bda7539c42f8fb4f58e6b52a926d2e0cf2b311d",
    "ig_n4_classical_i.gens.txt": "e236509501417503201c820de5506d7c12f9eed5eb5f1bb785ea06e15c0c6c4b",
    "ig_n4_classical_ii.gb.txt": "93873894d9fdedca62efb416ff28b25063ea062e3b68da55e3015e0904584bd4",
    "ig_n4_classical_ii.gens.txt": "55bbe690891d1d0ec234c5ac78ef4ac07d0d2460309803d84ad2065404a837f9",
}
DUMP_GOLDENS = {
    "1": {
        **_CLASSICAL_DUMPS,
        "ig_n4_quantum_i.gb.txt": "6012e24f50a49e2f09ebc5312339a08967cd8e745872d3929a34ec6c933e31ab",
        "ig_n4_quantum_i.gens.txt": "a5c79d044c43f943d383ad68227b9093680d29e45614927c8aa988f740e25acf",
        "ig_n4_quantum_ii.gb.txt": "3e47051f9ecf5c89d057bde6dac1b3972de74d88dc365e68d244a7cdbb6ffbb0",
        "ig_n4_quantum_ii.gens.txt": "426e228b71fe0a202c81b7795f1f32e5b85822ae1fab843008442bd3b64808af",
    },
    "symbolic": {
        **_CLASSICAL_DUMPS,
        "ig_n4_quantum_i.gb.txt": "98e251dc8c034d09608334ba276a9be7e7f0868b51b77ecba65e4d71a097c034",
        "ig_n4_quantum_i.gens.txt": "68382898a397ea4bd58fc181c9a33ce6f0778d6d4094376522e66fb90cab3fa6",
        "ig_n4_quantum_ii.gb.txt": "9ab65eb6faeb302f77aab46523dad46425dc4c5d06019607bb02cf15e63a9aa1",
        "ig_n4_quantum_ii.gens.txt": "dcb13bd57b2d829c161e1331d3357260f8479979b9a8bb3de62d671fdb076aba",
    },
}


# the same at n = 7, where the II identity has seven coefficients and
# QUANTUM_I ten triangular rules
_CLASSICAL_DUMPS_N7 = {
    "ig_n7_classical_i.gb.txt": "e65b3aaa911b3d73837afff13a5e5371fafab5ce4023ef1244970bfbcbaf5c6c",
    "ig_n7_classical_i.gens.txt": "16d8ac140a67e7b083e0a447222c064f183eed1e4e743b2110bb56eda7c4c33f",
    "ig_n7_classical_ii.gb.txt": "f41d6452777e593b4e25e04c580f7f69b5dcd46750db310a29f68ae4a251f142",
    "ig_n7_classical_ii.gens.txt": "1e6018eaf37ab2766ac31b9b469bfb6e07033ba4f4f0d8a33ddd21a908a8ff04",
}
DUMP_GOLDENS_N7 = {
    "1": {
        **_CLASSICAL_DUMPS_N7,
        "ig_n7_quantum_i.gb.txt": "fecbb11dc71bd7c06935dd2ca2f41f7b1bc7bcfc6bdd98d2330478fb34d689eb",
        "ig_n7_quantum_i.gens.txt": "99439f8a6e1e58f5231f600de75ff98818dd4dc20860e972731a39f33d23b741",
        "ig_n7_quantum_ii.gb.txt": "bef9153082bca46ec183221d3a22bc00e239276055555b9b597e70e0e5d8e2f2",
        "ig_n7_quantum_ii.gens.txt": "eda91d4800915aa35bcabf37a29ec01a9255197c673f8df8139034f29fcc855a",
    },
    "symbolic": {
        **_CLASSICAL_DUMPS_N7,
        "ig_n7_quantum_i.gb.txt": "1fa6c840bae79c44e3676c4398f78090f5e133b98e3796abed7557e45a77d312",
        "ig_n7_quantum_i.gens.txt": "c29d8704d9017f016cb03d9b8f0e26d96bd13e962ca76ef48fce7cabfb996e6d",
        "ig_n7_quantum_ii.gb.txt": "8da51d74c67fdf3305397dbabc855ddf7f52639e9d23c94a577dfef4db6e01d4",
        "ig_n7_quantum_ii.gens.txt": "0a858a086669ca1071ba01334e69733831f09a2684af2dc657e29438358e8742",
    },
}


@pytest.mark.parametrize("q_mode", sorted(DUMP_GOLDENS))
def test_dump_files_match_golden(q_mode, tmp_path, capsys):
    for n, goldens in ((4, DUMP_GOLDENS), (7, DUMP_GOLDENS_N7)):
        out = tmp_path / str(n)
        argv = ["qh", "--n", str(n), "--max-n", str(n), "--check", "dims", "--q-mode", q_mode]
        assert main(argv + ["--dump", str(out)]) == 0
        written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert written == goldens[q_mode], n
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["qh", "--n", "2", "--check", "lemma"], "no requested qh check applies at n = 2 (lemma needs n >= 3)"),
        (
            ["dcat", "--k", "3", "--space", "gr", "--check", "keyext"],
            "no requested dcat check applies to --space gr (keyext runs on igr only)",
        ),
        (["qh", "--n", "2", "--check", "dims,bogus"], "unknown qh checks: bogus"),
        (["dcat", "--k", "2", "--space", "igr", "--check", "bogus"], "unknown dcat checks: bogus"),
        (["qh", "--n", "6"], "n out of range [2, 5]"),
        (["dcat", "--k", "5", "--space", "gr"], "k out of range [2, 4]"),
    ],
    ids=["qh-lemma-n2", "dcat-keyext-gr", "qh-unknown", "dcat-unknown", "qh-n-range", "dcat-k-range"],
)
def test_no_applicable_check_is_refused(argv, message, capsys):
    # no requested check can run (none applies, a name is unknown, or n or
    # k is past its limit): the rows would be empty, so the run is refused
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"


def test_lemma_is_skipped_below_n3_next_to_an_applicable_check(capsys):
    assert main(["qh", "--n", "2", "--check", "dims,lemma"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["invocation"]["checks"] == "dims,lemma"
    assert [row["claim_id"].split(".")[0] for row in doc["rows"]] == ["dims"] * 4


def test_lemma_t0_part_is_part_of_the_verdict(monkeypatch):
    real = deformation.verify_lemma_presentation
    monkeypatch.setattr(
        deformation, "verify_lemma_presentation", lambda n, s: {**real(n, s), "sigma_2n2_t0_zero": False}
    )
    (row,) = [r for r in run_qh_suite(3, checks=("lemma",)) if r.claim_id == "lemma.sigma_2n2.n=3"]
    assert row.status == "FAIL"
    assert row.computed == "t^0 part nonzero"
    assert row.expected == "t-coefficient ok"


def test_unfolding_mismatch_is_a_fail_row(monkeypatch):
    real = unfolding.decompose_spectrum

    def with_a_wrong_tangent_dimension(n):
        rep = real(n)
        return SpectrumReport(
            rep.total_dim,
            2,
            rep.local_length_origin,
            rep.offorigin_dim,
            rep.offorigin_distinct_points,
            rep.separating_form,
        )

    monkeypatch.setattr(unfolding, "decompose_spectrum", with_a_wrong_tangent_dimension)
    (row,) = run_qh_suite(3, checks=("unfolding",))
    assert row.status == "FAIL"
    assert row.computed == "(2, 2) None"
    assert row.expected == "(1, 2) A2"
