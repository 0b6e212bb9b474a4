"""Property test of the JSON report against `json.dumps(doc, indent=2)`."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from igq.report import FAIL, INCONCLUSIVE, PASS, CheckResult, emit_json

import report_oracle

# non-ASCII (a surrogate and an astral character among them), quotes,
# backslashes and control characters, each of which json escapes
TEXT = st.text(alphabet=st.sampled_from('aZ0 "\\/\n\t\r\x00\x1f\x7fé€\ud800\U0001f600'), max_size=8) | st.text(
    max_size=8
)


@st.composite
def rows(draw):
    claim_id, computed, expected, note = (draw(TEXT) for _ in range(4))
    status = draw(st.sampled_from([PASS, FAIL, INCONCLUSIVE]))
    if status == PASS:
        expected = computed
    elif status == FAIL and expected == computed:
        expected += "!"
    return CheckResult(claim_id, computed, expected, status, draw(st.integers(0, 10**6)), note)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(rows(), max_size=6),
    tool_version=TEXT,
    invocation=st.dictionaries(TEXT, TEXT | st.integers(-(10**20), 10**20), max_size=5),
)
def test_emit_json_matches_the_indenting_encoder(rows, tool_version, invocation):
    assert emit_json(rows, tool_version, invocation) == report_oracle.emit_json(rows, tool_version, invocation)


def test_empty_report_matches_the_indenting_encoder():
    assert emit_json([], "0.1.0", {}) == report_oracle.emit_json([], "0.1.0", {}) == (
        '{\n  "tool_version": "0.1.0",\n  "invocation": {},\n  "rows": [],\n'
        '  "summary": {\n    "pass": 0,\n    "fail": 0,\n    "inconclusive": 0\n  }\n}\n'
    )
