"""The mutant table: each row patches one `src` function, runs `igq qh`
through `cli.main` at each setting, and names the claim families that
must FAIL there; every other row must PASS.  A mutant that fails nothing
is a known blind spot and is kept as an expected-PASS row, so that a
check which later pins it shows up here as a deliberate change.

Seeded with the quantum term, written only in
`presentations.quantum_relations`.  Its sign is a blind spot: the ring
map q -> c q carries each presentation to its rescaled one, and at q = 1
so does a1 -> lambda a1, a2 -> lambda^2 a2 with lambda^(2n-1) = c, so no
structural row can pin the sign or the scale of the term.  Only the
quantum homomorphism's note moves, since that check accepts q -> lambda q
for lambda = +1 or -1, and a doubled term, which no such lambda undoes,
fails it.
"""

import json

import pytest

from igq import clear_caches, cli, presentations
from igq.presentations import CLASSICAL_I, QUANTUM_I

SETTINGS = (("4", "1"), ("3", "symbolic"))


def scaled_q_term(i_factor, ii_factor):
    """`quantum_relations` with the q-term of the I-presentations times
    i_factor and that of the II-presentations times ii_factor."""
    original = presentations.quantum_relations

    def mutant(relations, n, variant, x1):
        factor = i_factor if variant in (CLASSICAL_I, QUANTUM_I) else ii_factor
        return original(relations, n, variant, factor * x1)

    return mutant


# (name, patch of presentations.quantum_relations, claim families that
# must FAIL, the homomorphism.quantum note or None for a FAIL row)
MUTANTS = (
    ("flip-I", scaled_q_term(-1, 1), (), "lambda=-1"),
    ("flip-II", scaled_q_term(1, -1), (), "lambda=-1"),
    ("flip-both", scaled_q_term(-1, -1), (), "lambda=+1"),
    ("double-I", scaled_q_term(2, 1), ("homomorphism.quantum",), None),
    ("double-II", scaled_q_term(1, 2), ("homomorphism.quantum",), None),
)


@pytest.mark.parametrize("n, q_mode", SETTINGS, ids=["n4-q1", "n3-symbolic"])
@pytest.mark.parametrize("patch, failing, note", [m[1:] for m in MUTANTS], ids=[m[0] for m in MUTANTS])
def test_mutant_fails_exactly_its_rows(monkeypatch, capsys, patch, failing, note, n, q_mode):
    monkeypatch.setattr(presentations, "quantum_relations", patch)
    try:
        code = cli.main(["qh", "--n", n, "--q-mode", q_mode])
    finally:
        clear_caches()  # the memo tables hold the mutant's presentations
    rows = {row["claim_id"]: row for row in json.loads(capsys.readouterr().out)["rows"]}
    must_fail = {"%s.n=%s" % (family, n) for family in failing}
    assert must_fail <= set(rows)
    assert {claim for claim, row in rows.items() if row["status"] != "PASS"} == must_fail
    assert code == (1 if must_fail else 0)
    if note is not None:
        assert rows["homomorphism.quantum.n=%s" % n]["note"] == note
