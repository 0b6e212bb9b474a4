"""Driver: suites, report formats, determinism, exit codes, dumps."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from igq import bbw, clear_caches, cli, presentations, unfolding
from igq.bbw import Space
from igq.cli import main, run_dcat_suite, run_qh_suite
from igq.presentations import SPECIALIZE_1, VARIANTS, PresentationSpec, SpectrumReport, ab_ring
from igq.report import (
    CheckResult,
    check,
    emit_json,
    emit_markdown,
    informational,
    summarize,
)

from dump_oracle import load_generators


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


def test_a_dcat_run_holds_only_its_own_space_in_the_memos(capsys):
    assert main(["dcat", "--k", "3", "--space", "gr"]) == 0
    assert main(["dcat", "--k", "4", "--space", "igr"]) == 0
    capsys.readouterr()
    assert bbw._bbw_cache and all(key[:2] == ("igr", 4) for key in bbw._bbw_cache)
    assert bbw._ext_cache[0] == Space.igr(4)


def test_a_qh_run_holds_only_its_own_n_in_the_memos(capsys):
    assert main(["qh", "--n", "3"]) == 0
    assert main(["qh", "--n", "4", "--check", "spectrum"]) == 0
    capsys.readouterr()
    assert list(presentations._spectrum_cache) == [4]
    assert presentations._basis_cache and all(n == 4 for n, *_ in presentations._basis_cache)


def test_clear_caches_empties_the_tables_in_place(monkeypatch):
    # the benchmark's tracer holds these two dicts to tell hits from misses
    tables = bbw._bbw_cache, presentations._basis_cache
    bbw.ext_bundles(Space.gr(4), (1, 0), (1, 1))
    presentations.presentation_basis(PresentationSpec(2, VARIANTS[0], SPECIALIZE_1))
    presentations.decompose_spectrum(2)
    assert bbw._bbw_cache and presentations._basis_cache and presentations._spectrum_cache
    assert bbw._ext_cache[0] == Space.gr(4)
    clear_caches()
    assert (bbw._bbw_cache, presentations._basis_cache) == ({}, {})
    assert tuple(map(id, tables)) == (id(bbw._bbw_cache), id(presentations._basis_cache))
    assert presentations._spectrum_cache == {} and bbw._ext_cache == (None, {})
    # a table patched in is the one cleared
    patched = [{("gr", 4, 0, 0): None}, {(2,): None}, {2: None}]
    for module, name, table in zip((bbw, presentations, presentations), ("_bbw_cache", "_basis_cache", "_spectrum_cache"), patched):
        monkeypatch.setattr(module, name, table)
    monkeypatch.setattr(bbw, "_ext_cache", (Space.gr(4), {(1, 1, 1): None}))
    clear_caches()
    assert patched == [{}, {}, {}] and bbw._ext_cache == (None, {})


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
    assert text.splitlines()[0] == "# IG(2,4) variant=QUANTUM_II q=1"
    ring = ab_ring(2)
    gens = load_generators(ring, text)
    a1, a2 = ring.var("a1"), ring.var("a2")
    assert gens == [2 * a2 - a1**2, a2**2 + a1]


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


# sha256 of each file `igq qh --n 4 --dump DIR` writes; the classical
# variants have no q, so both q-modes write them alike
_CLASSICAL_DUMPS = {
    "ig_n4_classical_i.gb.txt": "7c6e7c018185662c9c7da0b21bad108f43bcd442ea483a6554a610167f601653",
    "ig_n4_classical_i.gens.txt": "a07e6717b820deeb9639ba5c602d2030f46ee19bb9ae3f42c0d576fc395b6ecb",
    "ig_n4_classical_ii.gb.txt": "eaa60e007bcfeb22b37f5389133223829f320e3b6957a813c1318c4bf701e0ef",
    "ig_n4_classical_ii.gens.txt": "22a69cee2903fb103e14182f62201c6ae6fa72e770d31e937f20bffccd3178af",
}
DUMP_GOLDENS = {
    "1": {
        **_CLASSICAL_DUMPS,
        "ig_n4_quantum_i.gb.txt": "93b8b8bec0c2f2e85cb755a2b3e987ea77e9530618fe878022177139162ffd20",
        "ig_n4_quantum_i.gens.txt": "68debd0a81dbd54434e45698b6582a20741455d92a12f2f57e519e5002afe23c",
        "ig_n4_quantum_ii.gb.txt": "83fd25f8380852f84219f175bf8d19965cc50ebaa63d10b91021e31d9a5fd6d6",
        "ig_n4_quantum_ii.gens.txt": "0616a36184f55c5f6a37354f38f060902fb023ddf5dfc9890824f580c4e715aa",
    },
    "symbolic": {
        **_CLASSICAL_DUMPS,
        "ig_n4_quantum_i.gb.txt": "517e78a3f7e58ebb0ca37046cc6359f511713ba5a18368f1d677f08a2a59cbc3",
        "ig_n4_quantum_i.gens.txt": "504a755191a8cfa41d887c48a7031802f979792438524b469a7f506244af85b6",
        "ig_n4_quantum_ii.gb.txt": "62cc9cf58d5aada64233d327153350c2739f73d12edb46819e4d5cf2f32f25bb",
        "ig_n4_quantum_ii.gens.txt": "31f5ede75a63b75e051ef9cbefe18cf9c0723ec029b6bcc8ff949eae4515c48f",
    },
}


@pytest.mark.parametrize("q_mode", sorted(DUMP_GOLDENS))
def test_dump_files_match_golden(q_mode, tmp_path, capsys):
    assert main(["qh", "--n", "4", "--check", "dims", "--q-mode", q_mode, "--dump", str(tmp_path)]) == 0
    capsys.readouterr()
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == DUMP_GOLDENS[q_mode]


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["qh", "--n", "2", "--check", "lemma"], "lemma needs n >= 3"),
        (["dcat", "--k", "3", "--space", "gr", "--check", "keyext"], "keyext runs on igr only"),
    ],
    ids=["qh-lemma-n2", "dcat-keyext-gr"],
)
def test_no_applicable_check_is_refused(argv, reason, capsys):
    # every requested check is known but none applies: the rows would be empty
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("no requested %s check applies" % argv[0])
    assert reason in captured.err
    assert len(captured.err.splitlines()) == 1


def test_lemma_is_skipped_below_n3_next_to_an_applicable_check(capsys):
    assert main(["qh", "--n", "2", "--check", "dims,lemma"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["invocation"]["checks"] == "dims,lemma"
    assert [row["claim_id"].split(".")[0] for row in doc["rows"]] == ["dims"] * 4


def test_lemma_t0_part_is_part_of_the_verdict(monkeypatch):
    real = cli.verify_lemma_presentation
    monkeypatch.setattr(
        cli, "verify_lemma_presentation", lambda n, s: {**real(n, s), "sigma_2n2_t0_zero": False}
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
